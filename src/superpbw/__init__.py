"""Exact-arithmetic PBW normalization and integral-basis verification for
universal enveloping algebras of map superalgebras g (x) A."""

from .combinatorics import Multiset, binomial, multinomial, pi_product, \
    enumerate_sub, enumerate_CS, enumerate_CP, verify_comb_identity
from .coeffalg import MonoidBasis, MonoidError, monoid_preset
from .algebra import Root, RootStringData, SpecError, SuperAlgebraSpec, \
    dump_spec, load_spec, preset, root_string, validate, PRESET_NAMES
from .engine import AlgebraError, DividedForm, Engine, NEG_INF, Order, UElem, key_degree
from .identities import SignTemplate, divided_D
from .exprio import ParseError, divided_str, parse_expr, uelem_str, word_str
from .verify import CheckReport, SuiteConfig, SuiteResult, SweepBounds, \
    get_engine, run_suite, sweep_identity, verify_basis_counts, verify_identity, \
    verify_integrality, verify_triangular

__version__ = "0.1.0"
