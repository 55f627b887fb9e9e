"""The printers `uelem_str` and `divided_str` build the key and the text of
each run, and the text of each block, once per call.  The printers they
replaced, which formatted every term's runs and blocks afresh, are kept here
as references: both give byte-identical text on random elements of the five
presets over four monoids in both orders, and on their divided-basis images."""

import functools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from superpbw.algebra import PRESET_NAMES, preset
from superpbw.coeffalg import monoid_preset
from superpbw.engine import Engine, Order, UElem, word_runs
from superpbw.exprio import _join_terms, divided_blocks, divided_str, letter_str, mset_str, \
    uelem_str

ELEMENTS = {
    "poly": [(0,), (1,), (2,)],
    "poly2": [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)],
    "laurent": [(-1,), (0,), (1,)],
    "trunc:4": [(0,), (1,), (2,), (3,)],
}
ORDERS = ("triangular", "lex")


# -- the printers as they were: every term's runs and blocks formatted afresh --

def ref_runs_str(engine, runs):
    return " ".join(letter_str(engine, L, e) for L, e in runs) or "1"


def ref_uelem_str(engine, x, multiline=False):
    terms = sorted(((word_runs(w), c) for w, c in x.terms.items()),
                   key=lambda t: engine.runs_key(t[0]))
    return _join_terms([(c, ref_runs_str(engine, runs)) for runs, c in terms], multiline)


def ref_blocks_str(engine, blocks):
    parts = []
    for _, sym, runs in blocks:
        if sym[0] == 'h':
            parts.append("p[%d]{%s}" % (sym[1], mset_str(engine, runs)))
        else:
            parts += [letter_str(engine, (sym, a), e, divided=True) for a, e in runs]
    return " ".join(parts) or "1"


def ref_divided_str(engine, df, multiline=False):
    terms = sorted(((divided_blocks(engine, k), c) for k, c in df.terms.items()),
                   key=lambda t: t[0])
    return _join_terms([(c, ref_blocks_str(engine, b)) for b, c in terms], multiline)


# -- random elements -------------------------------------------------------------

@functools.cache
def engine_for(algebra, monoid, order):
    spec = preset(algebra)
    return Engine(spec, monoid_preset(monoid), Order.named(spec, order))


COEFFS = st.one_of(st.integers(-6, 6),
                   st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6)))


@st.composite
def elements(draw):
    """(engine, x): x a sum of up to four normalized words of runs, each
    run a letter repeated up to three times; Cartan letters are drawn as
    often as root letters, so multi-letter Cartan blocks are common.  A
    zero coefficient, a cancellation or no word at all gives zero."""
    eng = engine_for(draw(st.sampled_from(PRESET_NAMES)), draw(st.sampled_from(sorted(ELEMENTS))),
                     draw(st.sampled_from(ORDERS)))
    syms = eng.spec.all_syms()
    cartan = [s for s in syms if s[0] == 'h']
    letter = st.tuples(st.sampled_from(syms) | st.sampled_from(cartan),
                       st.sampled_from(ELEMENTS[eng.monoid.name]))
    run = st.tuples(letter, st.integers(1, 3))
    parts = []
    for runs, c in draw(st.lists(st.tuples(st.lists(run, max_size=3), COEFFS), max_size=4)):
        word = [L for L, e in runs for _ in range(e)][:6]
        parts.append(eng.normalize(word, c))
    return eng, UElem.sum(parts)


@settings(max_examples=300, deadline=None)
@given(elements(), st.booleans())
def test_printers_match_the_per_term_printers(case, multiline):
    eng, x = case
    assert uelem_str(eng, x, multiline) == ref_uelem_str(eng, x, multiline)
    df = eng.to_divided(x)
    assert divided_str(eng, df, multiline) == ref_divided_str(eng, df, multiline)


def test_printers_match_on_each_named_case():
    """One element holding every case the random ones are drawn to reach:
    an odd letter (x[a2] on sl21), an exponent above 1, a multi-letter
    Cartan block, negative and Fraction coefficients; and zero."""
    eng = engine_for("sl21", "poly2", "lex")
    x = eng.normalize([(('x', 'a1'), (1, 0))] * 2 + [(('h', 1), (0, 1)), (('h', 1), (1, 0))],
                      Fraction(-3, 2))
    x = x + eng.normalize([(('x', 'a2'), (0, 0))], -2)
    text = ref_uelem_str(eng, x)
    assert text == uelem_str(eng, x)
    assert "^2" in text and text.startswith("-")
    df = eng.to_divided(x)
    assert "p[1]{" in ref_divided_str(eng, df) and ref_divided_str(eng, df) == divided_str(eng, df)
    assert uelem_str(eng, UElem()) == ref_uelem_str(eng, UElem()) == "0"
