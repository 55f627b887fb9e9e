"""Executable checks for every closed-form claim: identity sweeps (LHS via the
baseline normalizer vs the built RHS), degree bounds, the Cartan product law,
random integrality sampling, basis counting, and the suite runner.

Every sweep is declared as data: a check names its parameters as ordered
(param, axis kind) pairs, and `expand` takes the product of the axes in that
nesting order, dropping the instances an optional `where` predicate rejects."""

import itertools
import json
import random
import time
from dataclasses import dataclass, field

from . import identities as ident
from .algebra import SpecError, read_algebra, root_string, spec_from_source, PRESET_NAMES
from .coeffalg import monoid_preset
from .combinatorics import Multiset, binomial, multisets_upto, verify_comb_identity
from .engine import Engine, Order, UElem, key_degree
from .exprio import divided_key_str, mset_str, parse_mset, word_str


@dataclass
class CheckReport:
    identity: str
    algebra: str
    params: tuple            # ((name, printable value), ...)
    verdict: str             # "pass" | "fail" | "inapplicable"
    detail: str = ""
    diffs: tuple = ()        # ((word string, lhs coeff, rhs coeff), ...)
    seconds: float = 0.0

    @property
    def ok(self):
        return self.verdict != "fail"

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


# ---------------------------------------------------------------------------
# loading engines

def _build_engine(source, monoid, order):
    spec = spec_from_source(source)
    if order == "triangular":
        o = Order.triangular(spec)
    elif order in ("lex", "lexicographic"):
        o = Order.lexicographic(spec)
    else:
        o = Order.from_items(spec, order.split(","))
    return Engine(spec, monoid_preset(monoid), o)


def load_engine(algebra, monoid="trunc:4", order="triangular"):
    """A fresh engine for a preset name or an algebra file path, a monoid
    preset, and an order: 'triangular', 'lex'/'lexicographic' or a comma list
    of root labels and Cartan indices."""
    return _build_engine(read_algebra(algebra), monoid, order)


_engines = {}


def get_engine(algebra, monoid="trunc:4", order="triangular"):
    """Shared engines so p/normalizer memo tables persist across checks.  A
    file is keyed by its content, so rewriting it yields a new engine."""
    key = (read_algebra(algebra), monoid, order)
    if key not in _engines:
        _engines[key] = _build_engine(key[0], monoid, order)
    return _engines[key]


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
    """The value a parameter of this axis kind has when written as text."""
    if kind == "elem":
        return engine.monoid.parse_elt(text)
    if kind == "mset":
        return parse_mset(engine.monoid, text)
    return int(text) if kind in ("cartan", "r", "s", "m") else text.strip()


def fmt_value(engine, v):
    if isinstance(v, Multiset):
        return mset_str(engine, v) or "0"
    if isinstance(v, tuple):
        return engine.monoid.format_elt(v)
    return str(v)


def fmt_params(engine, ps):
    return tuple(sorted((k, fmt_value(engine, v)) for k, v in ps.items()))


# ---------------------------------------------------------------------------
# identity registry

def _applicable_true(engine, ps):
    return True, ""


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


def _chain_position_ok(engine, ps):
    """The +-1-sign closed forms cover beta at the bottom of its alpha-string
    (r_{alpha,beta} = 0); for a middle-of-string beta the bracket constant is
    +-(r+1) and no unit-sign assignment can match."""
    if engine.spec.root_sum(ps["alpha"], ps["beta"]) is None:
        return True
    return root_string(engine.spec, ps["alpha"], ps["beta"]).r == 0


def _quadrant_within(engine, ps, allowed):
    """True when every root i*alpha + j*beta (i, j >= 1) is one of the shapes
    the case formula displays."""
    spec = engine.spec
    for i in range(1, 5):
        for j in range(1, 5):
            if spec.root_sum(ps["alpha"], ps["beta"], i, j) is not None \
                    and (i, j) not in allowed:
                return False
    return True


def _gate_pair_type(kind, allowed=None):
    def gate(engine, ps):
        t = ident._even_pair_type(engine.spec, ps["alpha"], ps["beta"])
        if t != kind:
            return False, "pair type is %s, not %s" % (t, kind)
        if allowed is not None:
            if not _chain_position_ok(engine, ps):
                return False, "beta is not at the bottom of its alpha-string"
            if not _quadrant_within(engine, ps, allowed):
                return False, "pair produces roots outside the displayed shapes"
        return True, ""
    return gate


def _gate_chain_any(engine, ps):
    if not _chain_position_ok(engine, ps):
        return False, "beta is not at the bottom of its alpha-string"
    return True, ""


def _not_neg(first, second):
    """where-predicate: the root `second` is not -`first`."""
    return lambda e, ps: ps[second] != e.spec.negative_of(ps[first])


@dataclass(frozen=True)
class IdentityCheck:
    axes: tuple                 # ((param, axis kind), ...), outermost first
    lhs: object = None
    rhs: object = None
    where: object = None        # (engine, params) -> False drops the instance
    applicable: object = _applicable_true
    sign_key: object = None     # params -> cache key for solved sign reuse
    run: object = None          # (engine, params) -> (verdict, detail), for an
                                # algebra check that is not an LHS = RHS comparison
    standalone: object = None   # () -> CheckReport, for a check that reads no
                                # algebra: a suite runs it once, after the algebras


def _pair_sign_key(ps):
    return (ps["alpha"], ps["beta"])


def _pair_check(rhs, applicable, sign_key=None):
    """4.6 and its case formulas: two even roots with beta != +-alpha."""
    return IdentityCheck(
        (("alpha", "even"), ("beta", "even"), ("a", "elem"), ("b", "elem"), ("r", "r"),
         ("s", "s")), ident.lhs_4_6, rhs, applicable=applicable, sign_key=sign_key,
        where=lambda e, ps: ps["beta"] not in (ps["alpha"], e.spec.negative_of(ps["alpha"])))


def _dp(root, elt, exp):
    """(x_root (x) elt)^(exp); root is a parameter name or (engine, params) -> label."""
    label = root if callable(root) else lambda e, ps: ps[root]
    return lambda e, ps: e.divided_power(('x', label(e, ps)), ps[elt], ps[exp])


def _x(root, elt):
    return lambda e, ps: e.gen_elem(('x', ps[root]), ps[elt])


def _p(e, ps):
    return e.p(ps["i"], ps["chi"])


def _minus_alpha(e, ps):
    return e.spec.negative_of(ps["alpha"])


def _minus_two_gamma(e, ps):
    return e.spec.negative_of(e.spec.root_sum(ps["gamma"], ps["gamma"]))


def _degree_bound(axes, u, v, limit, integral=False, where=None):
    """One of the seven super-bracket estimates: deg [u, v] < limit(params)
    over the axes; `integral` also asks for membership in the integral span."""
    def run(engine, ps):
        value = engine.super_comm(u(engine, ps), v(engine, ps))
        deg, lim = value.degree, limit(ps)
        ok = deg < lim
        detail = "degree %s < %d" % (deg, lim)
        if ok and integral:
            ok = engine.is_integral(value)
            detail += ", integral" if ok else ", NOT integral"
        return "pass" if ok else "fail", detail
    return IdentityCheck(axes, where=where, run=run)


def _lemma_5_2(engine, ps):
    """p_i(chi) p_i(phi) = prod_a binom((chi+phi)(a), chi(a)) p_i(chi+phi) + u
    with u an integer combination of p_i(psi) of degree < |chi|+|phi|."""
    i, chi, phi = ps["i"], ps["chi"], ps["phi"]
    lead = 1
    total = chi + phi
    for a, m in total.items():
        lead *= binomial(m, chi(a))
    u = engine.mul(engine.p(i, chi), engine.p(i, phi)) - lead * engine.p(i, total)
    bad = []
    limit = chi.size + phi.size
    for key, c in engine.to_divided(u).terms.items():
        if len(key) > 1 or (key and key[0][0] != ('h', i)):
            bad.append("mixed Cartan support %r" % (key,))
        if key_degree(key) >= limit:
            bad.append("degree %d !< %d" % (key_degree(key), limit))
        if c.denominator != 1:
            bad.append("non-integer coefficient %s" % c)
    return "fail" if bad else "pass", "; ".join(bad)


_X_P = (("alpha", "even"), ("i", "cartan"), ("b", "elem"), ("r", "r"), ("chi", "mset"))
_AB = (("a", "elem"), ("b", "elem"))

IDENTITIES = {
    "4.1": IdentityCheck((("i", "cartan"), ("j", "cartan"), ("chi", "mset"), ("phi", "mset")),
                         ident.lhs_4_1, ident.rhs_4_1, where=lambda e, ps: ps["j"] >= ps["i"]),
    "4.2": IdentityCheck((("beta", "even"), ("b", "elem"), ("r", "r"), ("s", "s")),
                         ident.lhs_4_2, ident.rhs_4_2),
    "4.3": IdentityCheck((("alpha", "even"),) + _AB + (("r", "r"), ("s", "s")),
                         ident.lhs_4_3, ident.rhs_4_3),
    "4.4": IdentityCheck(_X_P, ident.lhs_4_4, ident.rhs_4_4),
    "4.5": IdentityCheck(_X_P, ident.lhs_4_5, ident.rhs_4_5),
    "4.6": _pair_check(ident.rhs_4_6, _gate_chain_any, _pair_sign_key),
    "L4.4a": _pair_check(ident.rhs_L44a, _gate_pair_type("A2")),
    "L4.4b": _pair_check(ident.rhs_L44b, _gate_pair_type("B2", allowed={(1, 1), (2, 1)}),
                         _pair_sign_key),
    "L4.4c": _pair_check(ident.rhs_L44c, _gate_pair_type(
        "G2", allowed={(1, 1), (2, 1), (3, 1), (3, 2)}), _pair_sign_key),
    "L4.3": IdentityCheck((("delta", "root"), ("i", "cartan"), ("b", "elem"), ("chi", "mset")),
                          ident.lhs_xdelta_p, ident.rhs_xdelta_p),
    "4.7": IdentityCheck((("gamma", "odd"), ("i", "cartan"), ("a", "elem"), ("chi", "mset")),
                         ident.lhs_xdelta_p, ident.rhs_xdelta_p),
    "4.8": IdentityCheck((("gamma", "odd"), ("a", "elem")), ident.lhs_4_8, ident.rhs_4_8,
                         applicable=_gate_nonisotropic),
    "4.9": IdentityCheck((("gamma", "odd"),) + _AB, ident.lhs_4_9, ident.rhs_4_9),
    "4.10": IdentityCheck((("gamma", "odd"), ("delta", "odd")) + _AB,
                          ident.lhs_4_10, ident.rhs_4_10, where=_not_neg("gamma", "delta")),
    "4.11": IdentityCheck((("gamma", "odd"), ("m", "m")) + _AB,
                          ident.lhs_4_11, ident.rhs_4_11, applicable=_gate_nonisotropic),
    "4.12": IdentityCheck((("alpha", "even"), ("gamma", "odd"), ("m", "m")) + _AB,
                          ident.lhs_4_12, ident.rhs_4_12, applicable=_gate_isotropic_partner),
    "deg1": _degree_bound((("alpha", "even"),) + _AB + (("r", "r"), ("s", "r")),
                          _dp("alpha", "a", "r"), _dp(_minus_alpha, "b", "s"),
                          lambda ps: ps["r"] + ps["s"], integral=True),
    "deg2": _degree_bound((("beta", "even"), ("i", "cartan"), ("a", "elem"), ("r", "r"),
                           ("chi", "mset")),
                          _dp("beta", "a", "r"), _p, lambda ps: ps["r"] + ps["chi"].size,
                          integral=True),
    "deg3": _degree_bound((("beta", "even"), ("gamma", "even")) + _AB + (("r", "r"), ("s", "r")),
                          _dp("beta", "a", "r"), _dp("gamma", "b", "s"),
                          lambda ps: ps["r"] + ps["s"], where=_not_neg("beta", "gamma")),
    "deg4": _degree_bound((("delta", "odd"), ("i", "cartan"), ("a", "elem"), ("chi", "mset")),
                          _x("delta", "a"), _p, lambda ps: ps["chi"].size + 1),
    "deg5": _degree_bound((("beta", "even"), ("delta", "odd")) + _AB + (("r", "r"),),
                          _dp("beta", "a", "r"), _x("delta", "b"), lambda ps: ps["r"] + 1),
    "deg6": _degree_bound((("delta", "odd"), ("zeta", "odd")) + _AB,
                          _x("delta", "a"), _x("zeta", "b"), lambda ps: 2),
    "deg7": _degree_bound((("gamma", "odd"),) + _AB + (("m", "m"),),
                          _x("gamma", "a"), _dp(_minus_two_gamma, "b", "m"),
                          lambda ps: ps["m"] + 1,
                          where=lambda e, ps: _gate_nonisotropic(e, ps)[0]),
    "L5.2": IdentityCheck((("i", "cartan"), ("chi", "mset"), ("phi", "mset")), run=_lemma_5_2),
    "comb": IdentityCheck((), standalone=lambda: sweep_comb_identity()),
}

# What `verify --algebra` runs when no id is named: the LHS = RHS rows.
SWEEP_IDS = tuple(k for k, check in IDENTITIES.items() if check.lhs is not None)


def _diff_terms(engine, lhs, rhs, limit=5):
    words = sorted((lhs - rhs).terms, key=engine.word_key)[:limit]
    return tuple((word_str(engine, w), str(lhs.terms.get(w, 0)), str(rhs.terms.get(w, 0)))
                 for w in words)


def _solve_signs(lhs, template, known):
    """Find eps in {+-1}^slots with base + sum eps_k T_k = lhs; returns
    (solutions, labels)."""
    target = lhs - template.base
    labels = [lab for lab, _ in template.slots]
    terms = [t for _, t in template.slots]
    solutions = []
    for bits in itertools.product((1, -1), repeat=len(terms)):
        if any(known.get(lab, bit) != bit for lab, bit in zip(labels, bits)):
            continue
        if UElem.sum(terms, bits) == target:
            solutions.append(dict(zip(labels, bits)))
    return solutions, labels


def verify_identity(engine, ident_id, ps, sign_cache=None):
    """Run one instance of a registered algebra check; returns a CheckReport
    timed from the start.  For sign-template identities the +-1 slots are
    solved exhaustively and must be unique; a sign_cache (keyed per root
    pair) makes later instances reuse and confirm the solved assignment.  A
    failing comparison names its first differing word."""
    check = IDENTITIES[ident_id]
    t0 = time.perf_counter()
    name = engine.spec.name
    params = fmt_params(engine, ps)

    def report(verdict, detail="", diffs=()):
        if diffs:
            detail += "; first difference %s: LHS %s, RHS %s" % diffs[0]
        return CheckReport(ident_id, name, params, verdict, detail, diffs,
                           time.perf_counter() - t0)

    ok, why = check.applicable(engine, ps)
    if not ok:
        return report("inapplicable", why)
    if check.run:
        return report(*check.run(engine, ps))
    try:
        lhs = check.lhs(engine, ps)
        rhs = check.rhs(engine, ps)
    except ident.Inapplicable as e:
        return report("inapplicable", str(e))
    if isinstance(rhs, ident.SignTemplate):
        known = {}
        if sign_cache is not None and check.sign_key is not None:
            known = sign_cache.setdefault((ident_id, name, check.sign_key(ps)), {})
        sols, labels = _solve_signs(lhs, rhs, known)
        if not sols:
            unconstrained, _ = _solve_signs(lhs, rhs, {})
            return report("fail", "cached signs fail: not reusable" if unconstrained
                          else "no sign assignment zeroes the difference",
                          _diff_terms(engine, lhs, rhs.base))
        if len(sols) > 1:
            return report("fail", "ambiguous sign assignment (%d solutions)" % len(sols))
        known.update(sols[0])
        return report("pass", " ".join("eps[%s]=%+d" % (lab, sols[0][lab]) for lab in labels)
                      or "no slots")
    if lhs == rhs:
        return report("pass")
    return report("fail", "LHS != RHS", _diff_terms(engine, lhs, rhs))


def sweep_identity(engine, ident_id, bounds=None, fixed=None):
    """All CheckReports for a registered check over its declared axes,
    optionally restricted by fixing some parameters to values."""
    check = IDENTITIES[ident_id]
    if check.standalone:
        return [check.standalone()]
    sign_cache = {}
    return [verify_identity(engine, ident_id, ps, sign_cache)
            for ps in expand(engine, bounds or SweepBounds(), check.axes, check.where)
            if all(k not in ps or ps[k] == v for k, v in (fixed or {}).items())]


def sweep_comb_identity(maxsize=6, support=3, drange=(-5, 5)):
    """The integer identity behind the Cartan straightening, checked for all
    nonzero multisets up to the stated size over abstract supports."""
    t0 = time.perf_counter()
    msets = sorted((ms for ms in multisets_upto(range(support), maxsize) if ms),
                   key=lambda ms: ms.size)
    cases = list(itertools.product(msets, range(drange[0], drange[1] + 1)))
    fails = [case for case in cases if not verify_comb_identity(*case)]
    detail = "%d instances" % len(cases)
    if fails:
        detail += "; first failure %r" % (fails[0],)
    return CheckReport("comb", "-", (("maxsize", str(maxsize)), ("support", str(support))),
                       "fail" if fails else "pass", detail, seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# integrality sampling and triangular factorization

def sample_generator(engine, rng, bounds):
    """One random generator of the integral form: an even divided power, an
    odd letter, or a Cartan p-element."""
    spec = engine.spec
    elems = engine.monoid.elements()
    kind = rng.choice(["even", "odd", "p"] if spec.odd_roots() else ["even", "p"])
    if kind == "even":
        alpha = rng.choice(spec.even_roots())
        s = rng.randint(1, bounds.smax)
        belt = rng.choice(elems)
        return ("(x[%s]{%s})^(%d)" % (alpha, engine.monoid.format_elt(belt), s),
                engine.divided_power(('x', alpha), belt, s))
    if kind == "odd":
        gamma = rng.choice(spec.odd_roots())
        celt = rng.choice(elems)
        return ("x[%s]{%s}" % (gamma, engine.monoid.format_elt(celt)),
                engine.gen_elem(('x', gamma), celt))
    i = rng.randint(1, spec.rank)
    size = rng.randint(0, bounds.chimax)
    chi = Multiset.of(*(rng.choice(elems) for _ in range(size)))
    return ("p[%d]{%s}" % (i, fmt_value(engine, chi)), engine.p(i, chi))


def sample_products(engine, gens, trials, seed, bounds=None):
    """Deterministic stream of (description, UElem) products of <= gens
    generators from the integral form's generating set."""
    bounds = bounds or SweepBounds()
    rng = random.Random(seed)
    for _ in range(trials):
        k = rng.randint(1, gens)
        label = []
        acc = engine.one()
        for _ in range(k):
            desc, g = sample_generator(engine, rng, bounds)
            label.append(desc)
            acc = engine.mul(acc, g)
        yield " ".join(label), acc


def _sampled_check(engine, identity, detail, failure, gens, trials, seed, bounds):
    """Run `failure` (product -> None, or a note on what is wrong) over the
    sampled products; the first failure goes into the detail."""
    t0 = time.perf_counter()
    verdict = "pass"
    for desc, prod in sample_products(engine, gens, trials, seed, bounds):
        note = failure(prod)
        if note is not None:
            verdict = "fail"
            detail += "; first failure: %s%s" % (desc, note)
            break
    return CheckReport(identity, engine.spec.name,
                       (("gens", str(gens)), ("trials", str(trials)), ("seed", str(seed))),
                       verdict, detail, seconds=time.perf_counter() - t0)


def verify_integrality(engine, gens=6, trials=100, seed=0, bounds=None):
    """Random products of integral-form generators must have integer
    coordinates in the divided-power basis."""
    def failure(prod):
        for key, c in engine.to_divided(prod).terms.items():
            if c.denominator != 1:
                return " -> non-integer %s at %s" % (c, divided_key_str(engine, key))
        return None
    return _sampled_check(
        engine, "integrality", "%d products of <= %d generators, seed %d" % (trials, gens, seed),
        failure, gens, trials, seed, bounds)


def verify_triangular(engine, gens=6, trials=100, seed=0, bounds=None):
    """The same random products must factor through B- . B0 . B+ with integer
    coefficients (triangular decomposition of the integral form)."""
    def failure(prod):
        for c, _, _, _ in engine.triangular_factor(prod)[1]:
            if c.denominator != 1:
                return " -> non-integer %s" % c
        return None
    return _sampled_check(engine, "triangular", "%d products, seed %d" % (trials, seed),
                          failure, gens, trials, seed, bounds)


# ---------------------------------------------------------------------------
# basis counts

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


def verify_basis_counts(engine, degree_cap):
    """enumerate_basis counts per degree match the generating-function oracle;
    keys are pairwise distinct; with the triangular order the segment counts
    convolve to the full counts."""
    t0 = time.perf_counter()
    bad = []
    keys = engine.enumerate_basis(degree_cap)
    if len(set(keys)) != len(keys):
        bad.append("repeated canonical words")
    counts = [0] * (degree_cap + 1)
    for k in keys:
        counts[key_degree(k)] += 1
    oracle = genfun_counts(engine.spec, engine.monoid, degree_cap)
    if counts != oracle:
        bad.append("counts %r != oracle %r" % (counts, oracle))

    seg_counts = {}
    for seg in (-1, 0, 1):
        syms = [s for s in engine.order.syms if engine.segment_of(s) == seg]
        cs = [0] * (degree_cap + 1)
        for k in engine.enumerate_basis(degree_cap, syms):
            cs[key_degree(k)] += 1
        seg_counts[seg] = cs
    for d in range(degree_cap + 1):
        conv = sum(seg_counts[-1][d1] * seg_counts[0][d2] * seg_counts[1][d - d1 - d2]
                   for d1 in range(d + 1) for d2 in range(d + 1 - d1))
        if conv != counts[d]:
            bad.append("segment counts fail to convolve at degree %d" % d)
    return CheckReport("basis", engine.spec.name,
                       (("degree", str(degree_cap)), ("monoid", engine.monoid.name)),
                       "fail" if bad else "pass",
                       "; ".join(bad) if bad else "counts %r" % counts,
                       seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# suite runner

def _is_strings(v):
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


def _is_monoid(v):
    try:
        return isinstance(v, str) and monoid_preset(v) is not None
    except ValueError:
        return False


_BOUND_KEYS = ("rmax", "smax", "mmax", "chimax")

# suite config key -> (test of its JSON value, what the key wants)
_CONFIG_KEYS = {
    **{k: (lambda v: type(v) is int and v >= 0, "a non-negative integer")
       for k in _BOUND_KEYS + ("integrality_trials", "integrality_gens", "basis_degree")},
    "seed": (lambda v: type(v) is int, "an integer"),
    "algebras": (_is_strings, "a list of presets or algebra file paths"),
    "identities": (lambda v: _is_strings(v) and all(x in IDENTITIES for x in v),
                   "a list of identity ids (%s)" % ", ".join(IDENTITIES)),
    "monoid": (_is_monoid, "a monoid preset (poly, laurent, poly2, trunc:n)"),
}


@dataclass
class SuiteConfig:
    algebras: tuple = PRESET_NAMES
    identities: tuple = tuple(IDENTITIES)
    monoid: str = "trunc:4"
    bounds: SweepBounds = field(default_factory=SweepBounds)
    integrality_trials: int = 50
    integrality_gens: int = 4
    basis_degree: int = 4
    seed: int = 0

    @classmethod
    def from_json(cls, text):
        """Parse a JSON suite config; an unknown key or a bad value raises
        SpecError naming the key."""
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise SpecError("bad suite config: %s" % e)
        if not isinstance(raw, dict):
            raise SpecError("suite config must be a JSON object")
        kwargs = {}
        bounds = {}
        for k, v in raw.items():
            if k not in _CONFIG_KEYS:
                raise SpecError("unknown suite config key %r" % k)
            ok, wants = _CONFIG_KEYS[k]
            if not ok(v):
                raise SpecError("suite config key %r wants %s, got %r" % (k, wants, v))
            if k in _BOUND_KEYS:
                bounds[k] = v
            else:
                kwargs[k] = tuple(v) if isinstance(v, list) else v
        if bounds:
            kwargs["bounds"] = SweepBounds(**bounds)
        return cls(**kwargs)

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


def run_suite(config, emit=None):
    """Run everything the config asks for; `emit` (if given) receives each
    report line as it is produced."""
    reports = []

    def add(reps):
        for r in reps:
            reports.append(r)
            if emit:
                emit(r.line())

    per_algebra = [i for i in config.identities if not IDENTITIES[i].standalone]
    for algebra in config.algebras:
        engine = get_engine(algebra, config.monoid)
        for ident_id in per_algebra:
            add(sweep_identity(engine, ident_id, config.bounds))
        add([verify_integrality(engine, config.integrality_gens,
                                config.integrality_trials, config.seed, config.bounds),
             verify_triangular(engine, config.integrality_gens,
                               config.integrality_trials, config.seed, config.bounds),
             verify_basis_counts(engine, config.basis_degree)])
    add(IDENTITIES[i].standalone() for i in config.identities if i not in per_algebra)
    result = SuiteResult(reports)
    if emit:
        emit(result.summary())
    return result
