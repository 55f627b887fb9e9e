"""Builders for the special elements (the Cartan p-elements and the
partition-indexed divided sums D), the factor vocabulary in which every
algebra check declares its product u*v, and the exact right-hand side of
every closed-form straightening identity, so the verifier can compare the
baseline normalizer's u*v against it.  A closed-form right-hand side is
built as `Products`, the products it sums, not yet multiplied, so the
verifier can fold LHS - RHS into one `mul_sum`."""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .combinatorics import Multiset, binomial, enumerate_CP, enumerate_CS, enumerate_sub, \
    multinomial, pi_product
from .engine import AlgebraError, UElem, _exact
from .algebra import root_string


def _divided_word(engine, powers, scale=1):
    """scale * prod (x_root (x) a)^(n) over the (letter, n) pairs of powers,
    letters of one root and scale nonzero, as one term: the letters sorted
    by the engine's order, over prod n!.  An even root's letters commute, so
    this is their normal form; an odd root's do not, so it takes one letter."""
    word = [L for L, n in powers for _ in range(n)]
    if len(word) > 1 and engine.spec.parity(word[0][0]):
        raise AlgebraError("the letters of the odd root %s do not commute" % word[0][0][1])
    word.sort(key=engine._key)
    denom = math.prod([math.factorial(n) for _, n in powers])
    return UElem._wrap({tuple(word): _exact(Fraction(scale, denom))})


def divided_D(engine, alpha, j, k, d, c):
    """Sum over lam in CP_k(j) of prod_m (x_alpha (x) d^m c)^(lam(m)),
    expanded to plain powers; D_{j,0} = delta_{j,0}.  For an even alpha: at
    k >= 2 an odd alpha raises (`_divided_word`)."""
    if j < 0 or k < 0:
        raise AlgebraError("D wants j, k >= 0")
    engine.spec.root(alpha)  # refuses an unknown label, also at k = 0
    if k == 0:
        return engine.one() if j == 0 else UElem()
    mon = engine.monoid
    terms = []
    for lam in enumerate_CP(j, k):
        powers = []
        for m, mult in lam.items():
            elt = mon.mul(mon.power(d, m), c)
            if elt is None:
                break
            powers.append((engine.letter(('x', alpha), elt), mult))
        else:
            terms.append(_divided_word(engine, powers))
    return UElem.sum(terms)


def eps_chain(spec, alpha, gamma, kmax):
    """Signs eps_s, s = 1..kmax, defined through
    [x_alpha, x_{gamma+(s-1)alpha}] = eps_s (r_{alpha,gamma} + s) x_{gamma+s alpha}.

    Stops early once gamma + s*alpha leaves the root set; raises if a stored
    constant is not +-(r+s)."""
    r = root_string(spec, alpha, gamma)
    out = []
    prev = gamma
    for s in range(1, kmax + 1):
        nxt = spec.root_sum(alpha, prev)
        if nxt is None:
            break
        c = spec.root_constant(alpha, prev, nxt)
        if abs(c) != r + s:
            raise AlgebraError(
                "[x_%s, x_%s] has constant %d, not +-(r_{alpha,gamma}+%d) = +-%d"
                % (alpha, prev, c, s, r + s))
        out.append(1 if c > 0 else -1)
        prev = nxt
    return r, out


class Products(NamedTuple):
    """RHS with a fixed value: sum_k scalars[k] * (the factors of chains[k]
    multiplied left to right), the arguments of `Engine.mul_sum`, so
    `engine.mul_sum(*rhs)` is its value.  No chain is multiplied until then."""
    chains: tuple
    scalars: tuple


def _products(chains, scalars=None):
    chains = tuple(chains)
    return Products(chains, (1,) * len(chains) if scalars is None else tuple(scalars))


@dataclass
class SignTemplate:
    """RHS with undetermined signs: base + sum_k eps_k * slots[k][1],
    eps_k in {+1, -1}.  Slot labels are printable and distinct, and slot
    terms nonzero: a sign is read off a slot's longest word."""
    base: UElem
    slots: tuple


# ---------------------------------------------------------------------------
# factors: the generators u, v of the product u*v a check is about.  A root is
# a parameter name or a label helper (engine, params) -> label; the other
# fields name parameters.

def minus(root):
    """-root, for a root parameter."""
    return lambda engine, ps: engine.spec.negative_of(ps[root])


def minus_two(root):
    """-2*root, for an odd root parameter whose double is a root."""
    return lambda engine, ps: engine.spec.negative_of(engine.spec.root_sum(ps[root], ps[root]))


def _x(engine, ps, root):
    return ('x', ps[root] if isinstance(root, str) else root(engine, ps))


@dataclass(frozen=True)
class DividedPower:
    """(x_root (x) elt)^(exp)."""
    root: object
    elt: str
    exp: str

    def value(self, engine, ps):
        return engine.divided_power(_x(engine, ps, self.root), ps[self.elt], ps[self.exp])


@dataclass(frozen=True)
class Letter:
    """x_root (x) elt."""
    root: object
    elt: str

    def value(self, engine, ps):
        return engine.gen_elem(_x(engine, ps, self.root), ps[self.elt])


@dataclass(frozen=True)
class PElement:
    """p_i(chi)."""
    i: str
    chi: str

    def value(self, engine, ps):
        return engine.p(ps[self.i], ps[self.chi])


def lhs_product(engine, factors, ps):
    """u*v by the baseline normalizer: the left-hand side of every identity."""
    u, v = (f.value(engine, ps) for f in factors)
    return engine.mul(u, v)


def lhs_minus_rhs(engine, factors, ps, rhs):
    """u*v - rhs for a `Products` rhs, by the baseline normalizer as one
    `mul_sum`: the chain (u, v), its factors evaluated here, then the rhs's
    chains.  Zero exactly when the two sides agree, and then no word is
    decoded."""
    u, v = (f.value(engine, ps) for f in factors)
    return engine.mul_sum(((u, v),) + rhs.chains, (1,) + tuple(-s for s in rhs.scalars))


# ---------------------------------------------------------------------------
# even-generator identities

def rhs_4_1(engine, ps):
    return _products(((engine.p(ps["j"], ps["phi"]), engine.p(ps["i"], ps["chi"])),))


def rhs_4_2(engine, ps):
    beta, b, r, s = ps["beta"], ps["b"], ps["r"], ps["s"]
    return _products(((engine.divided_power(('x', beta), b, r + s),),), (binomial(r + s, s),))


def rhs_4_3(engine, ps):
    alpha, a, b, r, s = ps["alpha"], ps["a"], ps["b"], ps["r"], ps["s"]
    nalpha = engine.spec.negative_of(alpha)
    ab = engine.monoid.mul(a, b)
    chains, signs = [], []
    for j in range(min(r, s) + 1):
        for k in range(min(r, s) - j + 1):
            for m in range(min(r, s) - j - k + 1):
                if k and ab is None:
                    continue  # p_alpha(k chi_0) = 0 once truncation kills ab
                sign = (-1) ** (j + k + m)
                dm = divided_D(engine, nalpha, j, s - j - k - m, ab, b)
                if not dm:
                    continue
                dp = divided_D(engine, alpha, m, r - j - k - m, ab, a)
                if not dp:
                    continue
                chains.append((dm, engine.p(alpha, k * Multiset.of(ab)), dp) if k else (dm, dp))
                signs.append(sign)
    return _products(chains, signs)


@functools.cache
def _cartan_plan(chi, r, monoid):
    """What the Cartan-past-root law needs of (chi, r) and the monoid alone,
    as tuples: (phis, terms).  phis lists (|phi|, m(phi), pi(phi)) for each
    phi <= chi in `enumerate_sub` order, pi(phi) None when truncation kills
    it; terms lists, for each psi in CS(chi, r) in `enumerate_CS` order, the
    (index into phis, psi(phi)) pairs of psi and the remainder
    chi - sum_phi psi(phi) phi.  Cached once per process for every engine."""
    subs = enumerate_sub(chi)
    index = {phi: k for k, phi in enumerate(subs)}
    phis = tuple((phi.size, multinomial(phi), pi_product(phi, monoid)) for phi in subs)
    terms = tuple((tuple((index[phi], n) for phi, n in psi.items()),
                   chi - Multiset([(a, n * m) for phi, n in psi.items() for a, m in phi.items()]))
                  for psi in enumerate_CS(chi, r))
    return phis, terms


def _cartan_past_root(engine, ps, root, alpha, b, r, x_first=False):
    """The Cartan-past-root law: the sum over psi in CS(chi, r) of
    p_i(chi - sum_phi psi(phi) phi) times the x-part
    prod_phi (binom(ev+|phi|-1, |phi|) m(phi) (x_root (x) b pi(phi)))^(psi(phi)),
    ev = alpha(h_i), the x-part first when x_first; the x-part is 0 once a
    factor vanishes.  4.4 and 4.5 are it at any r; L4.3 and 4.7 at r = 1,
    where CS(chi, 1) = {phi <= chi}.  The combinatorics come from the cached
    `_cartan_plan`; returns the products as `Products`."""
    i, chi = ps["i"], ps["chi"]
    ev = engine.spec.root(alpha).ev[i - 1]
    mon = engine.monoid
    phis, terms = _cartan_plan(chi, r, mon)
    factors = []        # by phi: (letter, scalar) of its factor, None if it vanishes
    for size, m, pi in phis:
        c0 = binomial(ev + size - 1, size) * m
        belt = mon.mul(b, pi)
        factors.append((engine.letter(('x', root), belt), c0) if c0 and belt is not None
                       else None)
    pairs = []
    for counts, rest in terms:
        powers, scale = [], 1
        for k, n in counts:
            f = factors[k]
            if f is None:
                break
            powers.append((f[0], n))
            scale *= f[1] ** n
        else:
            xpart = _divided_word(engine, powers, scale)
            p = engine.p(i, rest)
            pairs.append((xpart, p) if x_first else (p, xpart))
    return _products(pairs)


def rhs_4_4(engine, ps):
    return _cartan_past_root(engine, ps, ps["alpha"], ps["alpha"], ps["b"], ps["r"])


def rhs_4_5(engine, ps):
    # the letter carries -alpha, the binomial still uses alpha(h_i)
    return _cartan_past_root(engine, ps, engine.spec.negative_of(ps["alpha"]), ps["alpha"],
                             ps["b"], ps["r"], x_first=True)


# The shapes (j, k) of the roots j*alpha + k*beta that each case of Lemma 4.4
# displays: the mixed divided powers of its right-hand side.
CASE_SHAPES = {
    "A2": ((1, 1),),
    "B2": ((1, 1), (2, 1)),
    "G2": ((1, 1), (2, 1), (3, 1), (3, 2)),
}


def _pair_powers(engine, ps, jk_counts):
    """One summand of the general even-even law as a chain: the beta block,
    the mixed block prod (x_{j alpha + k beta} (x) a^j b^k)^(n), then the
    alpha block.  None when some needed root is absent or truncation kills
    a part."""
    spec, mon = engine.spec, engine.monoid
    alpha, beta, a, b, r, s = ps["alpha"], ps["beta"], ps["a"], ps["b"], ps["r"], ps["s"]
    factors = [engine.divided_power(('x', beta), b, s - sum(k * n for (_, k), n in jk_counts))]
    for (j, k), n in jk_counts:
        lab = spec.root_sum(alpha, beta, j, k)
        elt = mon.mul(mon.power(a, j), mon.power(b, k))
        if lab is None or elt is None:
            return None
        factors.append(engine.divided_power(('x', lab), elt, n))
    factors.append(engine.divided_power(
        ('x', alpha), a, r - sum(j * n for (j, _), n in jk_counts)))
    return tuple(factors)


def pair_slots(shapes, r, s, label):
    """(label(shapes, n), counts) for each nonzero count vector n over the
    (j, k) shapes with sum n_i j_i <= r and sum n_i k_i <= s, in lexicographic
    order of n; counts pairs each shape with its nonzero n_i."""
    for ns in itertools.product(*(range(min(r // j, s // k) + 1) for j, k in shapes)):
        counts = tuple((jk, n) for jk, n in zip(shapes, ns) if n)
        if counts and sum(j * n for (j, _), n in counts) <= r \
                and sum(k * n for (_, k), n in counts) <= s:
            yield label(shapes, ns), counts


def _multiples_label(shapes, ns):
    return ",".join("%d*(%d,%d)" % (n, j, k) for (j, k), n in zip(shapes, ns) if n)


def _k_label(shapes, ns):
    return ",".join("k%d=%d" % (idx, n) for idx, n in enumerate(ns, 1))


def _sign_template(engine, ps, shapes, label):
    """The commuted term plus one +-1 slot per count vector over the shapes
    whose summand survives."""
    base = engine.mul_sum((_pair_powers(engine, ps, ()),))
    slots = []
    for lab, counts in pair_slots(shapes, ps["r"], ps["s"], label):
        chain = _pair_powers(engine, ps, counts)
        term = engine.mul_sum((chain,)) if chain else None
        if term:
            slots.append((lab, term))
    return SignTemplate(base, tuple(slots))


def rhs_4_6(engine, ps):
    """General even-even straightening with one +-1 slot per nonzero multiset
    of (j,k) pairs; the empty multiset is the fixed commuted term."""
    shapes = [(j, k) for j in range(1, ps["r"] + 1) for k in range(1, ps["s"] + 1)
              if engine.spec.root_sum(ps["alpha"], ps["beta"], j, k) is not None]
    return _sign_template(engine, ps, shapes, _multiples_label)


def rhs_L44a(engine, ps):
    """A2 case: the summands of the template, the one with k mixed letters
    signed eps^k by [x_alpha, x_beta] = eps x_{alpha+beta}."""
    spec = engine.spec
    alpha, beta = ps["alpha"], ps["beta"]
    chains, scalars = [_pair_powers(engine, ps, ())], [1]
    absum = spec.root_sum(alpha, beta)
    if absum is None:
        # the factors commute; only the k = 0 term survives
        return _products(chains)
    eps = spec.root_constant(alpha, beta, absum)
    if eps not in (1, -1):
        raise AlgebraError("A2 case wants [x_%s, x_%s] = +- x_{%s}" % (alpha, beta, absum))
    for k, counts in pair_slots(CASE_SHAPES["A2"], ps["r"], ps["s"], lambda shapes, ns: ns[0]):
        chain = _pair_powers(engine, ps, counts)
        if chain:
            chains.append(chain)
            scalars.append(eps ** k)
    return _products(chains, scalars)


def rhs_L44(engine, ps, kind):
    """The B2 and G2 cases: one sign slot per nonzero count vector over the
    case's shapes; G2's k4 slot carries x_{3 alpha + 2 beta}."""
    return _sign_template(engine, ps, CASE_SHAPES[kind], _k_label)


# ---------------------------------------------------------------------------
# identities with odd generators

def rhs_L43(engine, ps):
    return _cartan_past_root(engine, ps, ps["delta"], ps["delta"], ps["b"], 1)


def rhs_4_7(engine, ps):
    return _cartan_past_root(engine, ps, ps["gamma"], ps["gamma"], ps["a"], 1)


def z_of(spec, gamma):
    """z_gamma = c_{gamma,gamma}/2 for a non-isotropic odd root; checked to
    lie in {+-2}."""
    two = spec.root_sum(gamma, gamma)
    if two is None:
        raise AlgebraError("2*%s is not a root" % gamma)
    c = spec.root_constant(gamma, gamma, two)
    if c % 2:
        raise AlgebraError("c_{%s,%s} = %d is odd" % (gamma, gamma, c))
    z = c // 2
    if z not in (2, -2):
        raise AlgebraError("z_%s = %d is outside {+-2}" % (gamma, z))
    return z


def rhs_4_8(engine, ps):
    gamma, a = ps["gamma"], ps["a"]
    spec, mon = engine.spec, engine.monoid
    z = z_of(spec, gamma)
    two = spec.root_sum(gamma, gamma)
    a2 = mon.mul(a, a)
    if a2 is None:
        return _products(())
    return _products(((engine.gen_elem(('x', two), a2),),), (z,))


def rhs_4_9(engine, ps):
    gamma, a, b = ps["gamma"], ps["a"], ps["b"]
    spec, mon = engine.spec, engine.monoid
    ngamma = spec.negative_of(gamma)
    chains = [(engine.gen_elem(('x', ngamma), b), engine.gen_elem(('x', gamma), a))]
    scalars = [-1]
    ab = mon.mul(a, b)
    if ab is not None:
        chains.append((engine.hvec_elem(spec.coroot(gamma), ab),))
        scalars.append(1)
    return _products(chains, scalars)


def rhs_4_10(engine, ps):
    gamma, delta, a, b = ps["gamma"], ps["delta"], ps["a"], ps["b"]
    spec, mon = engine.spec, engine.monoid
    chains = [(engine.gen_elem(('x', delta), b), engine.gen_elem(('x', gamma), a))]
    scalars = [-1]
    target = spec.root_sum(gamma, delta)
    ab = mon.mul(a, b)
    if target is not None and ab is not None:
        c = spec.root_constant(gamma, delta, target)
        if c:
            chains.append((engine.gen_elem(('x', target), ab),))
            scalars.append(c)
    return _products(chains, scalars)


def rhs_4_11(engine, ps):
    """Divided powers of x_{-2 gamma} slide past x_gamma with one correction
    term.  The correction coefficient is the bracket constant c_{gamma,-2gamma}
    read from the table (the closed form's printed coefficient contradicts the
    m = 1 bracket, so the table is authoritative here)."""
    gamma, m, a, b = ps["gamma"], ps["m"], ps["a"], ps["b"]
    spec, mon = engine.spec, engine.monoid
    z_of(spec, gamma)  # applicability + normalization check
    partner = spec.negative_of(spec.root_sum(gamma, gamma))
    ngamma = spec.negative_of(gamma)
    pairs = [(engine.divided_power(('x', partner), b, m), engine.gen_elem(('x', gamma), a))]
    scalars = [1]
    if m >= 1:
        c = spec.root_constant(gamma, partner, ngamma)
        ab = mon.mul(a, b)
        if c and ab is not None:
            pairs.append((engine.divided_power(('x', partner), b, m - 1),
                          engine.gen_elem(('x', ngamma), ab)))
            scalars.append(c)
    return _products(pairs, scalars)


def rhs_4_12(engine, ps):
    alpha, gamma, m, a, b = ps["alpha"], ps["gamma"], ps["m"], ps["a"], ps["b"]
    spec, mon = engine.spec, engine.monoid
    pairs = [(engine.gen_elem(('x', gamma), b), engine.divided_power(('x', alpha), a, m))]
    scalars = [1]
    r, eps = eps_chain(spec, alpha, gamma, m)
    sign = 1
    for k in range(1, len(eps) + 1):
        sign *= eps[k - 1]
        lab = spec.root_sum(alpha, gamma, k, 1)
        elt = mon.mul(mon.power(a, k), b)
        if elt is None:
            continue
        pairs.append((engine.gen_elem(('x', lab), elt),
                      engine.divided_power(('x', alpha), a, m - k)))
        scalars.append(sign * binomial(r + k, k))
    return _products(pairs, scalars)
