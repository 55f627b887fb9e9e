"""Executable checks for every closed-form claim: identity sweeps (LHS via the
baseline normalizer vs the built RHS), degree bounds, the Cartan product law,
random integrality sampling, basis counting, and the suite runner.

Every check is a row of `IDENTITIES`, declared as data.  A sweep names its
parameters as ordered (param, axis kind) pairs, and `expand` takes the product
of the axes in that nesting order, dropping the instances an optional `where`
predicate rejects; an algebra sweep also declares the product u*v it is about
as its factors.  A check with no axes runs once, at the bounds."""

import functools
import itertools
import json
import random
import time
import weakref
from dataclasses import dataclass, field, fields

from . import identities as ident
from .identities import DividedPower, Letter, PElement, minus, minus_two
from .algebra import SpecError, pair_plane, read_algebra, spec_from_source, PRESET_NAMES
from .coeffalg import monoid_preset
from .combinatorics import Multiset, binomial, multisets_upto, verify_comb_identity
from .digits import to_int
from .engine import AlgebraError, Engine, Order
from .exprio import divided_key_str, letter_str, mset_str, parse_mset, word_parts


@dataclass
class CheckReport:
    identity: str
    algebra: str
    format_params: object    # () -> ((name, printable value), ...), called by `params`
    verdict: str             # "pass" | "fail" | "inapplicable"
    detail: str = ""
    diffs: tuple = ()        # ((word string, lhs coeff, rhs coeff), ...)
    seconds: float = 0.0

    @functools.cached_property
    def params(self):
        """((name, printable value), ...), formatted on the first read: a
        check whose line nobody reads never formats its parameters."""
        return self.format_params()

    def line(self):
        bits = ["CHECK id=%s algebra=%s" % (self.identity, self.algebra)]
        bits += ["%s=%s" % (k, v) for k, v in self.params]
        bits.append("verdict=%s" % self.verdict.upper())
        if self.detail:
            bits.append("[%s]" % self.detail)
        return " ".join(bits)


@dataclass
class SweepBounds:
    rmax: int = 3
    smax: int = 3
    mmax: int = 3
    chimax: int = 3
    integrality_gens: int = 4       # integrality and triangular draw trials
    integrality_trials: int = 50    # products of <= gens generators from seed
    basis_degree: int = 4           # basis counts the keys up to this degree
    seed: int = 0


# ---------------------------------------------------------------------------
# loading engines

def _build_engine(source, monoid, order):
    spec = spec_from_source(source)
    return Engine(spec, monoid_preset(monoid), Order.named(spec, order))


def load_engine(algebra, monoid="trunc:4", order="triangular"):
    """A fresh engine for a preset name or an algebra file path, a monoid
    preset, and an order name (`Order.named`)."""
    return _build_engine(read_algebra(algebra), monoid, order)


_shared_engine = functools.cache(_build_engine)


def get_engine(algebra, monoid="trunc:4", order="triangular"):
    """Shared engines so p/normalizer memo tables persist across checks.  A
    file is keyed by its content, so rewriting it yields a new engine."""
    return _shared_engine(read_algebra(algebra), monoid, order)


# ---------------------------------------------------------------------------
# parameter axes and formatting

AXES = {
    "even": lambda e, b: e.spec.even_roots(),
    "odd": lambda e, b: e.spec.odd_roots(),
    "root": lambda e, b: tuple(r.label for r in e.spec.roots),
    "cartan": lambda e, b: range(1, e.spec.rank + 1),
    "elem": lambda e, b: e.monoid.elements(),
    "r": lambda e, b: range(b.rmax + 1),
    "s": lambda e, b: range(b.smax + 1),
    "m": lambda e, b: range(b.mmax + 1),
    "mset": lambda e, b: multisets_upto(e.monoid.elements(), b.chimax),
}


def expand(engine, bounds, axes, where=None):
    """The parameter dicts of a sweep: the product of the axes, outermost
    first, without the instances `where(engine, ps)` rejects."""
    names = [name for name, _ in axes]
    for values in itertools.product(*(AXES[kind](engine, bounds) for _, kind in axes)):
        ps = dict(zip(names, values))
        if where is None or where(engine, ps):
            yield ps


def parse_value(engine, kind, text):
    """The value a parameter of this axis kind has when written as text.  A
    root label or Cartan index the engine's algebra lacks is refused."""
    if kind == "elem":
        return engine.monoid.parse_elt(text)
    if kind == "mset":
        return parse_mset(engine.monoid, text)
    if kind in ("cartan", "r", "s", "m"):
        value = to_int(text)
        if kind == "cartan":
            engine._cartan(value)
        return value
    return engine.spec.root(text.strip()).label


def fmt_value(engine, v):
    if isinstance(v, Multiset):
        return mset_str(engine, v.items()) or "0"
    if isinstance(v, tuple):
        return engine.monoid.format_elt(v)
    return str(v)


def fmt_params(engine, ps):
    return tuple(sorted((k, fmt_value(engine, v)) for k, v in ps.items()))


# ---------------------------------------------------------------------------
# sweep rows: gates and bodies

def _gate_nonisotropic(engine, ps):
    if engine.spec.root_sum(ps["gamma"], ps["gamma"]) is None:
        return False, "2*gamma is not a root"
    return True, ""


def _gate_isotropic_partner(engine, ps):
    # 4.12 excludes alpha = +-2*gamma (those cases are the sliding law 4.11)
    spec = engine.spec
    g2 = spec.root_sum(ps["gamma"], ps["gamma"])
    if g2 is not None and ps["alpha"] in (g2, spec.negative_of(g2)):
        return False, "alpha = +-2*gamma"
    return True, ""


def _gate_plane(kind=None):
    """beta at the bottom of its alpha-string: the +-1-sign closed forms cover
    no other beta, for in the middle of the string the bracket constant is
    +-(r+1) and no unit-sign assignment can match.  For Lemma 4.4's case
    `kind` the plane of alpha and beta must first have that type, and then
    every root i*alpha + j*beta (i, j >= 1) be a shape the case displays."""
    shapes = set(ident.CASE_SHAPES.get(kind, ()))

    def gate(engine, ps):
        plane = pair_plane(engine.spec, ps["alpha"], ps["beta"])
        if kind and plane.kind != kind:
            return False, "pair type is %s, not %s" % (plane.kind, kind)
        if not plane.bottom:
            return False, "beta is not at the bottom of its alpha-string"
        if kind and not shapes.issuperset(plane.quadrant):
            return False, "pair produces roots outside the displayed shapes"
        return True, ""
    return gate


def _not_neg(first, second):
    """where-predicate: the root `second` is not -`first`."""
    return lambda e, ps: ps[second] != e.spec.negative_of(ps[first])


@dataclass(frozen=True)
class IdentityCheck:
    axes: tuple                 # ((param, axis kind), ...), outermost first
    factors: tuple = ()         # (u, v) in identities' factor vocabulary: the
                                # product u*v an algebra check is about
    rhs: object = None          # (engine, params) -> u*v in closed form, as
                                # identities' Products
    where: object = None        # (engine, params) -> False drops the instance
    applicable: object = None   # (engine, params) -> (ok, why not); None: always
    run: object = None          # (engine, params, u, v) -> (verdict, detail), for
                                # an algebra check that is not an LHS = RHS comparison
    once: object = None         # (engine, bounds) -> (verdict, detail), for a
                                # check with no axes: one report per sweep
    params: object = None       # (engine, bounds) -> the params a once check
                                # reports, read before it runs
    algebra_free: bool = False  # a once check that reads no algebra: a suite
                                # runs it once, after the algebras


def _pair_check(kind=None):
    """4.6 and its case formulas: two even roots with beta != +-alpha, gated
    by `_gate_plane(kind)`, straightened by `identities.rhs_pair`."""
    # a lambda, not a partial: it reads ident.rhs_pair at each call, so a
    # wrapper rebound over that name (bench/tracing.py) sees every pair row
    return IdentityCheck(
        (("alpha", "even"), ("beta", "even"), ("a", "elem"), ("b", "elem"), ("r", "r"),
         ("s", "s")), (DividedPower("alpha", "a", "r"), DividedPower("beta", "b", "s")),
        lambda engine, ps: ident.rhs_pair(engine, ps, kind), applicable=_gate_plane(kind),
        where=lambda e, ps: ps["beta"] not in (ps["alpha"], e.spec.negative_of(ps["alpha"])))


def _degree_bound(axes, factors, limit, integral=False, where=None):
    """One of the seven super-bracket estimates: deg [u, v] < limit(params)
    over the axes; `integral` also asks for membership in the integral span."""
    def run(engine, ps, u, v):
        value = engine.super_comm(u, v)
        deg, lim = value.degree, limit(ps)
        ok = deg < lim
        detail = "degree %s < %d" % (deg, lim)
        if ok and integral:
            note = _non_integer(engine, engine.to_divided(value).terms.items())
            ok = note is None
            detail += ", " + (note or "integral")
        return "pass" if ok else "fail", detail
    return IdentityCheck(axes, factors, where=where, run=run)


def _non_integer(engine, pairs):
    """'non-integer c at key' for the first (divided-basis key, coefficient)
    pair whose coefficient is not an integer, or None when there is none."""
    for key, c in pairs:
        if c.denominator != 1:
            return "non-integer %s at %s" % (c, divided_key_str(engine, key))
    return None


def _lemma_5_2(engine, ps, u, v):
    """p_i(chi) p_i(phi) = prod_a binom((chi+phi)(a), chi(a)) p_i(chi+phi) + rest
    with rest an integer combination of p_i(psi) of degree < |chi|+|phi|."""
    i, chi, phi = ps["i"], ps["chi"], ps["phi"]
    lead = 1
    total = chi + phi
    for a, m in total.items():
        lead *= binomial(m, chi(a))
    rest = engine.mul(u, v) - lead * engine.p(i, total)
    bad = []
    limit = chi.size + phi.size
    for key, c in engine.to_divided(rest).terms.items():
        if any(sym != ('h', i) for sym, _ in key):
            bad.append("mixed Cartan support at %s" % divided_key_str(engine, key))
        if len(key) >= limit:
            bad.append("degree %d !< %d" % (len(key), limit))
        note = _non_integer(engine, ((key, c),))
        if note:
            bad.append(note)
    return "fail" if bad else "pass", "; ".join(bad)


# ---------------------------------------------------------------------------
# checks with no axes: integrality sampling, triangular factorization, basis
# counts and the integer identity

def _generator_kinds(engine, bounds):
    """The generator families that have members, in drawing order: even
    divided powers (of exponent 1..smax), odd letters, Cartan p-elements."""
    spec = engine.spec
    return [kind for kind, has in (("even", spec.even_roots() and bounds.smax >= 1),
                                   ("odd", spec.odd_roots()), ("p", spec.rank >= 1)) if has]


# engine -> {draw key: (label, UElem)}: each generator a sample draws is built
# on its engine's first draw of it, through `_generator`, and read again on
# every later draw.  A divided power or p-element is the engine's memo value
# itself, immutable as every element is, and `mul_sum` reads its coded form;
# the table dies with its engine.
_drawn = weakref.WeakKeyDictionary()


def _generator(engine, key):
    """The label and value of a drawn generator: ("even", alpha, s, a) is
    the divided power (x_alpha (x) a)^(s), ("odd", gamma, c) the letter
    x_gamma (x) c, and ("p", i, elements) the Cartan p_i of their multiset."""
    kind, *vals = key
    if kind == "even":
        alpha, s, a = vals
        return ("(%s)^(%d)" % (letter_str(engine, (('x', alpha), a)), s),
                engine.divided_power(('x', alpha), a, s))
    if kind == "odd":
        gamma, c = vals
        return letter_str(engine, (('x', gamma), c)), engine.gen_elem(('x', gamma), c)
    i, elems = vals
    chi = Multiset.of(*elems)
    return "p[%d]{%s}" % (i, fmt_value(engine, chi)), engine.p(i, chi)


def sample_products(engine, gens, trials, seed, bounds):
    """Deterministic stream of (description, UElem) products of <= gens
    generators from the integral form's generating set.  A generator is one
    of the families `_generator_kinds` names, drawn as its key (`_generator`):
    an even root, an exponent 1..smax and an element; an odd root and an
    element; or a Cartan index and 0..chimax elements."""
    rng = random.Random(seed)
    kinds = _generator_kinds(engine, bounds)
    spec, elems = engine.spec, engine.monoid.elements()
    evens, odds = spec.even_roots(), spec.odd_roots()
    choice, randint = rng.choice, rng.randint
    table = _drawn.setdefault(engine, {})
    for _ in range(trials):
        drawn = []
        for _ in range(randint(1, gens)):
            kind = choice(kinds)
            if kind == "even":
                key = (kind, choice(evens), randint(1, bounds.smax), choice(elems))
            elif kind == "odd":
                key = (kind, choice(odds), choice(elems))
            else:
                i, size = randint(1, spec.rank), randint(0, bounds.chimax)
                key = (kind, i, tuple(sorted([choice(elems) for _ in range(size)])))
            hit = table.get(key)
            if hit is None:
                hit = table[key] = _generator(engine, key)
            drawn.append(hit)
        labels, factors = zip(*drawn)
        yield " ".join(labels), engine.mul_sum((factors,))


def _sampled_params(engine, bounds):
    return (("gens", str(bounds.integrality_gens)), ("trials", str(bounds.integrality_trials)),
            ("seed", str(bounds.seed)))


def _sampled(engine, bounds, detail, failure):
    """Run `failure` (product -> None, or a note on what is wrong) over the
    products the bounds sample; the first failure goes into the detail.
    With no generator to draw the check is inapplicable."""
    if not _generator_kinds(engine, bounds):
        return "inapplicable", "no generators"
    for desc, prod in sample_products(engine, bounds.integrality_gens,
                                      bounds.integrality_trials, bounds.seed, bounds):
        note = failure(prod)
        if note is not None:
            return "fail", detail + "; first failure: %s%s" % (desc, note)
    return "pass", detail


def _integrality(engine, bounds):
    """Random products of integral-form generators must have integer
    coordinates in the divided-power basis."""
    def failure(prod):
        note = _non_integer(engine, engine.to_divided(prod).terms.items())
        return note and " -> " + note
    return _sampled(engine, bounds, "%d products of <= %d generators, seed %d" % (
        bounds.integrality_trials, bounds.integrality_gens, bounds.seed), failure)


def _triangular(engine, bounds):
    """Random products drawn in the lexicographic order must factor through
    B- . B0 . B+ with integer coefficients (triangular decomposition of the
    integral form): each is adopted into the triangular order, so the check
    does not re-read the words integrality reads.  A key that fails to
    segment, or a non-integer coefficient, is named."""
    lex = Engine(engine.spec, engine.monoid, Order.lexicographic(engine.spec))

    def failure(prod):
        try:
            tri, factors = lex.triangular_factor(prod)
        except AlgebraError as e:
            return " -> %s" % e
        note = _non_integer(tri, ((sum(parts, ()), c) for c, *parts in factors))
        return note and " -> " + note
    return _sampled(lex, bounds, "%d products, seed %d" % (bounds.integrality_trials,
                                                             bounds.seed), failure)


def genfun_counts(spec, monoid, degree_cap):
    """Independent count oracle: coefficients of
    prod_{even slots} (1-q)^-1 * prod_{odd slots} (1+q), slots =
    (roots + Cartan) x basis(A), truncated at q^degree_cap."""
    nb = len(monoid.elements())
    n_even = (len(spec.even_roots()) + spec.rank) * nb
    n_odd = len(spec.odd_roots()) * nb
    poly = [1] + [0] * degree_cap
    for _ in range(n_even):
        for d in range(1, degree_cap + 1):   # multiply by 1/(1-q): prefix sums
            poly[d] += poly[d - 1]
    for _ in range(n_odd):
        for d in range(degree_cap, 0, -1):   # multiply by (1+q)
            poly[d] += poly[d - 1]
    return poly


def _basis_counts(engine, bounds):
    """enumerate_basis counts per degree match the generating-function oracle;
    keys are pairwise distinct; the counts of the B-, B0 and B+ parts
    (`Order.parts`) convolve to the full counts, in any order."""
    degree_cap = bounds.basis_degree
    bad = []

    def by_degree(keys):
        counts = [0] * (degree_cap + 1)
        for k in keys:
            counts[len(k)] += 1
        return counts

    keys = engine.enumerate_basis(degree_cap)
    if len(set(keys)) != len(keys):
        bad.append("repeated canonical words")
    counts = by_degree(keys)
    oracle = genfun_counts(engine.spec, engine.monoid, degree_cap)
    if counts != oracle:
        bad.append("counts %r != oracle %r" % (counts, oracle))

    neg, zero, pos = [by_degree(engine.enumerate_basis(degree_cap, syms))
                      for syms in engine.order.parts]
    for d in range(degree_cap + 1):
        conv = sum(neg[d1] * zero[d2] * pos[d - d1 - d2]
                   for d1 in range(d + 1) for d2 in range(d + 1 - d1))
        if conv != counts[d]:
            bad.append("segment counts fail to convolve at degree %d" % d)
    return "fail" if bad else "pass", "; ".join(bad) if bad else "counts %r" % counts


_COMB_MAXSIZE, _COMB_SUPPORT = 6, 3


def _comb(engine, bounds):
    """The integer identity behind the Cartan straightening, checked for every
    nonzero multiset of size <= _COMB_MAXSIZE over a support of _COMB_SUPPORT
    and each d in -5..5."""
    msets = sorted((ms for ms in multisets_upto(range(_COMB_SUPPORT), _COMB_MAXSIZE) if ms),
                   key=lambda ms: ms.size)
    cases = list(itertools.product(msets, range(-5, 6)))
    fails = [case for case in cases if not verify_comb_identity(*case)]
    detail = "%d instances" % len(cases)
    if fails:
        detail += "; first failure %r" % (fails[0],)
    return "fail" if fails else "pass", detail


# ---------------------------------------------------------------------------
# the registry

_X_P = (("alpha", "even"), ("i", "cartan"), ("b", "elem"), ("r", "r"), ("chi", "mset"))
_AB = (("a", "elem"), ("b", "elem"))
_P = PElement("i", "chi")
_X_ALPHA_X_MINUS = (DividedPower("alpha", "a", "r"), DividedPower(minus("alpha"), "b", "s"))
_X_GAMMA_X_MINUS_TWO = (Letter("gamma", "a"), DividedPower(minus_two("gamma"), "b", "m"))

IDENTITIES = {
    "4.1": IdentityCheck((("i", "cartan"), ("j", "cartan"), ("chi", "mset"), ("phi", "mset")),
                         (_P, PElement("j", "phi")), ident.rhs_4_1,
                         where=lambda e, ps: ps["j"] >= ps["i"]),
    "4.2": IdentityCheck((("beta", "even"), ("b", "elem"), ("r", "r"), ("s", "s")),
                         (DividedPower("beta", "b", "r"), DividedPower("beta", "b", "s")),
                         ident.rhs_4_2),
    "4.3": IdentityCheck((("alpha", "even"),) + _AB + (("r", "r"), ("s", "s")),
                         _X_ALPHA_X_MINUS, ident.rhs_4_3),
    "4.4": IdentityCheck(_X_P, (DividedPower("alpha", "b", "r"), _P), ident.rhs_4_4),
    "4.5": IdentityCheck(_X_P, (_P, DividedPower(minus("alpha"), "b", "r")), ident.rhs_4_5),
    "4.6": _pair_check(),
    "L4.4a": _pair_check("A2"),
    "L4.4b": _pair_check("B2"),
    "L4.4c": _pair_check("G2"),
    "L4.3": IdentityCheck((("delta", "root"), ("i", "cartan"), ("b", "elem"), ("chi", "mset")),
                          (Letter("delta", "b"), _P), ident.rhs_L43),
    "4.7": IdentityCheck((("gamma", "odd"), ("i", "cartan"), ("a", "elem"), ("chi", "mset")),
                         (Letter("gamma", "a"), _P), ident.rhs_4_7),
    "4.8": IdentityCheck((("gamma", "odd"), ("a", "elem")),
                         (Letter("gamma", "a"), Letter("gamma", "a")), ident.rhs_4_8,
                         applicable=_gate_nonisotropic),
    "4.9": IdentityCheck((("gamma", "odd"),) + _AB,
                         (Letter("gamma", "a"), Letter(minus("gamma"), "b")), ident.rhs_4_9),
    "4.10": IdentityCheck((("gamma", "odd"), ("delta", "odd")) + _AB,
                          (Letter("gamma", "a"), Letter("delta", "b")), ident.rhs_4_10,
                          where=_not_neg("gamma", "delta")),
    "4.11": IdentityCheck((("gamma", "odd"), ("m", "m")) + _AB, _X_GAMMA_X_MINUS_TWO,
                          ident.rhs_4_11, applicable=_gate_nonisotropic),
    "4.12": IdentityCheck((("alpha", "even"), ("gamma", "odd"), ("m", "m")) + _AB,
                          (DividedPower("alpha", "a", "m"), Letter("gamma", "b")),
                          ident.rhs_4_12, applicable=_gate_isotropic_partner),
    "deg1": _degree_bound((("alpha", "even"),) + _AB + (("r", "r"), ("s", "r")),
                          _X_ALPHA_X_MINUS, lambda ps: ps["r"] + ps["s"], integral=True),
    "deg2": _degree_bound((("beta", "even"), ("i", "cartan"), ("a", "elem"), ("r", "r"),
                           ("chi", "mset")),
                          (DividedPower("beta", "a", "r"), _P),
                          lambda ps: ps["r"] + ps["chi"].size, integral=True),
    "deg3": _degree_bound((("beta", "even"), ("gamma", "even")) + _AB + (("r", "r"), ("s", "r")),
                          (DividedPower("beta", "a", "r"), DividedPower("gamma", "b", "s")),
                          lambda ps: ps["r"] + ps["s"], where=_not_neg("beta", "gamma")),
    "deg4": _degree_bound((("delta", "odd"), ("i", "cartan"), ("a", "elem"), ("chi", "mset")),
                          (Letter("delta", "a"), _P), lambda ps: ps["chi"].size + 1),
    "deg5": _degree_bound((("beta", "even"), ("delta", "odd")) + _AB + (("r", "r"),),
                          (DividedPower("beta", "a", "r"), Letter("delta", "b")),
                          lambda ps: ps["r"] + 1),
    "deg6": _degree_bound((("delta", "odd"), ("zeta", "odd")) + _AB,
                          (Letter("delta", "a"), Letter("zeta", "b")), lambda ps: 2),
    "deg7": _degree_bound((("gamma", "odd"),) + _AB + (("m", "m"),), _X_GAMMA_X_MINUS_TWO,
                          lambda ps: ps["m"] + 1,
                          where=lambda e, ps: _gate_nonisotropic(e, ps)[0]),
    "L5.2": IdentityCheck((("i", "cartan"), ("chi", "mset"), ("phi", "mset")),
                          (_P, PElement("i", "phi")), run=_lemma_5_2),
    "integrality": IdentityCheck((), once=_integrality, params=_sampled_params),
    "triangular": IdentityCheck((), once=_triangular, params=_sampled_params),
    "basis": IdentityCheck((), once=_basis_counts,
                           params=lambda e, b: (("degree", str(b.basis_degree)),
                                                ("monoid", e.monoid.name))),
    "comb": IdentityCheck((), once=_comb, algebra_free=True,
                          params=lambda e, b: (("maxsize", str(_COMB_MAXSIZE)),
                                               ("support", str(_COMB_SUPPORT)))),
}

# What `verify --algebra` runs when no id is named: the LHS = RHS rows.
SWEEP_IDS = tuple(k for k, check in IDENTITIES.items() if check.rhs is not None)


def _diff_terms(engine, lhs, rhs):
    """The first five differing words, with their coefficients on each side."""
    table = {}
    terms = sorted((word_parts(engine, w, table), w) for w in (lhs - rhs).terms)[:5]
    return tuple((text, str(lhs.terms.get(w, 0)), str(rhs.terms.get(w, 0)))
                 for (_, text), w in terms)


def _report(ident_id, algebra, format_params, body):
    """The one builder of a CheckReport, timed around body() -> (verdict,
    detail, diffs); a detail with diffs names the first.  An exception
    inside body is a FAIL that names it and the params, which
    `format_params()` gives when first read."""
    rep = CheckReport(ident_id, algebra, format_params, "fail")
    t0 = time.perf_counter()
    try:
        rep.verdict, rep.detail, rep.diffs = body()
    except Exception as e:
        rep.detail = "%s: %s" % (type(e).__name__, e)
        if rep.params:
            rep.detail += " at " + " ".join("%s=%s" % kv for kv in rep.params)
    if rep.diffs:
        rep.detail += "; first difference %s: LHS %s, RHS %s" % rep.diffs[0]
    rep.seconds = time.perf_counter() - t0
    return rep


def _compare(engine, ident_id, ps):
    """(verdict, detail, diffs) of one instance of an algebra sweep."""
    check = IDENTITIES[ident_id]
    if check.applicable:
        ok, why = check.applicable(engine, ps)
        if not ok:
            return "inapplicable", why, ()
    if check.run:
        u, v = (f.value(engine, ps) for f in check.factors)
        return check.run(engine, ps, u, v) + ((),)
    rhs = check.rhs(engine, ps)
    if not ident.lhs_minus_rhs(engine, check.factors, ps, rhs):
        return "pass", rhs.note, ()
    # only a failure computes each side on its own, to name the words
    return "fail", "LHS != RHS", _diff_terms(
        engine, ident.lhs_product(engine, check.factors, ps),
        engine.mul_sum(rhs.chains, rhs.scalars))


# The fourth argument is accepted and ignored: bench/workloads.py still passes
# the sign cache the pair rows no longer keep.
def verify_identity(engine, ident_id, ps, _unused=None):
    """Run one instance of a registered algebra sweep; returns a CheckReport.
    Its factors are evaluated once the check applies.  An identity with a
    closed form is one `mul_sum` of LHS - RHS, which is zero when it passes,
    and then the detail is the RHS's note; a failing comparison computes
    each side on its own and names its first differing word.  The params
    are formatted when first read."""
    return _report(ident_id, engine.spec.name, lambda: fmt_params(engine, ps),
                   lambda: _compare(engine, ident_id, ps))


def sweep_identity(engine, ident_id, bounds=None, fixed=None):
    """All CheckReports for a registered check over its declared axes,
    optionally restricted by fixing some parameters to values.  A check with
    no axes gives one report at the bounds; one that reads no algebra
    ignores the engine, which may be None.  An exception while expanding
    the axes gives one FAIL report that names it."""
    check = IDENTITIES[ident_id]
    bounds = bounds or SweepBounds()
    if check.once:
        params = check.params(engine, bounds)
        return [_report(ident_id, "-" if check.algebra_free else engine.spec.name,
                        lambda: params, lambda: check.once(engine, bounds) + ((),))]
    try:
        instances = [ps for ps in expand(engine, bounds, check.axes, check.where)
                     if all(k not in ps or ps[k] == v for k, v in (fixed or {}).items())]
    except Exception as e:
        # an axis or a `where` predicate raised: one FAIL names it
        return [_report(ident_id, engine.spec.name, lambda: (), lambda: _raise(e))]
    return [verify_identity(engine, ident_id, ps) for ps in instances]


def _raise(e):
    raise e


# ---------------------------------------------------------------------------
# suite runner

def _is_strings(v):
    return isinstance(v, (list, tuple)) and all(isinstance(x, str) for x in v)


def _is_finite_monoid(v):
    """Every check of an algebra reads the monoid's basis, so it must be
    finite; a name the monoid reader refuses raises its refusal."""
    return isinstance(v, str) and monoid_preset(v).finite


_BOUND_KEYS = tuple(f.name for f in fields(SweepBounds))

# suite config key -> (test of its value, what the key wants)
_CONFIG_KEYS = {
    **{k: (lambda v: type(v) is int and v >= 0, "a non-negative integer") for k in _BOUND_KEYS},
    **{k: (lambda v: type(v) is int and v >= 1, "a positive integer")
       for k in ("integrality_gens", "integrality_trials")},
    "algebras": (_is_strings, "a list of presets or algebra file paths"),
    "identities": (_is_strings, "a list of identity ids"),
    "monoid": (_is_finite_monoid, "a monoid preset with a finite basis (trunc:n)"),
}


@dataclass
class SuiteConfig:
    algebras: tuple = PRESET_NAMES
    identities: tuple = tuple(IDENTITIES)
    monoid: str = "trunc:4"
    bounds: SweepBounds = field(default_factory=SweepBounds)

    def __post_init__(self):
        """Every field is checked, however the config is built; a bad value
        raises SpecError naming its key, and the reader's own refusal of it
        if it has one, or the unknown id."""
        if not isinstance(self.bounds, SweepBounds):
            raise SpecError("suite config key 'bounds' wants a SweepBounds, got %r"
                            % (self.bounds,))
        for k, (ok, wants) in _CONFIG_KEYS.items():
            v = getattr(self.bounds if k in _BOUND_KEYS else self, k)
            try:
                good, why = ok(v), ""
            except ValueError as e:
                good, why = False, ": %s" % e
            if not good:
                raise SpecError("suite config key %r wants %s, got %r%s" % (k, wants, v, why))
        for n in self.identities:
            if n not in IDENTITIES:
                raise SpecError("unknown identity id %r (have %s)" % (n, ", ".join(IDENTITIES)))
        self.algebras, self.identities = tuple(self.algebras), tuple(self.identities)
        for what, names in (("algebra", self.algebras), ("identity", self.identities)):
            dup = next((n for k, n in enumerate(names) if n in names[:k]), None)
            if dup is not None:
                raise SpecError("suite config lists %s %r more than once" % (what, dup))

    @classmethod
    def from_json(cls, text):
        """Parse a JSON suite config; an unknown key raises SpecError naming
        it, and the fields are checked as they are for any config."""
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as e:
            # a syntax error, an int past the digit limit, or nesting too deep
            raise SpecError("bad suite config: %s" % e)
        if not isinstance(raw, dict):
            raise SpecError("suite config must be a JSON object")
        for k in raw:
            if k not in _CONFIG_KEYS:
                raise SpecError("unknown suite config key %r" % k)
        bounds = SweepBounds(**{k: raw.pop(k) for k in _BOUND_KEYS if k in raw})
        return cls(**raw, bounds=bounds)

    @classmethod
    def from_path(cls, path):
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as e:
            raise SpecError("cannot read suite config %r: %s" % (path, e.strerror or e))
        return cls.from_json(text)


@dataclass
class SuiteResult:
    reports: list

    @property
    def counts(self):
        c = {"pass": 0, "fail": 0, "inapplicable": 0}
        for r in self.reports:
            c[r.verdict] += 1
        return c

    @property
    def ok(self):
        return self.counts["fail"] == 0

    def summary(self):
        c = self.counts
        return "SUMMARY checks=%d pass=%d fail=%d inapplicable=%d" % (
            len(self.reports), c["pass"], c["fail"], c["inapplicable"])

    def idle(self, identities):
        """The ids among `identities` that have no PASS and no FAIL: they
        applied to no instance."""
        applied = {r.identity for r in self.reports if r.verdict != "inapplicable"}
        return [i for i in identities if i not in applied]


def run_suite(config, emit=None, order="triangular", fixed=None):
    """Run the chosen checks on each algebra, then the algebra-free ones once
    (as the engine None); `emit` (if given) receives each report line as it
    is produced.  The engines use the named `order`, and `fixed` restricts
    every sweep as in `sweep_identity`.  Every algebra is loaded before the
    first check runs, and two entries that load the same table (rank,
    roots, coroots, brackets), as a file named two ways or a preset and a
    copy of its table do, raise SpecError naming both.  So does a config
    that runs no check, before any summary."""
    engines = [get_engine(a, config.monoid, order) for a in config.algebras]
    tables = [(e.spec.rank, e.spec.roots, e.spec.coroots, e.spec.brackets) for e in engines]
    for k, table in enumerate(tables):
        if table in tables[:k]:
            raise SpecError("suite config entries %r and %r are the same algebra"
                            % (config.algebras[tables.index(table)], config.algebras[k]))
    reports = []
    for engine in engines + [None]:
        for ident_id in config.identities:
            if IDENTITIES[ident_id].algebra_free == (engine is None):
                for r in sweep_identity(engine, ident_id, config.bounds, fixed):
                    reports.append(r)
                    if emit:
                        emit(r.line())
    if not reports:
        what = "identities [%s] on algebras [%s]" % (", ".join(config.identities),
                                                     ", ".join(config.algebras))
        if fixed and engines:
            what += " with " + ", ".join("%s=%s" % kv for kv in fmt_params(engines[0], fixed))
        raise SpecError("suite config runs no check: " + what)
    result = SuiteResult(reports)
    if emit:
        emit(result.summary())
    return result
