"""Builders for the special elements (the Cartan p-elements and the
partition-indexed divided sums D) and for the exact right-hand side of every
closed-form straightening identity, so the verifier can compare them against
the baseline normalizer."""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import Multiset, binomial, enumerate_CP, enumerate_CS, enumerate_sub, \
    factorial_product, multinomial, pi_product
from .engine import AlgebraError, UElem
from .algebra import root_string


def divided_D(engine, alpha, j, k, d, c):
    """Sum over lam in CP_k(j) of prod_m (x_alpha (x) d^m c)^(lam(m)),
    expanded to plain powers; D_{j,0} = delta_{j,0}."""
    if j < 0 or k < 0:
        raise AlgebraError("D wants j, k >= 0")
    if k == 0:
        return engine.one() if j == 0 else UElem()
    mon = engine.monoid
    terms = []
    for lam in enumerate_CP(j, k):
        letters = []
        for m, mult in lam.items():
            elt = mon.mul(mon.power(d, m), c)
            if elt is None:
                break
            letters.extend([(('x', alpha), elt)] * mult)
        else:
            terms.append(engine.normalize(letters, Fraction(1, factorial_product(lam))))
    return UElem.sum(terms)


def scaled_divided(engine, sym, aelt, scalar, n):
    """(scalar * (x (x) a))^(n) = scalar^n x^n / n!; zero element -> 0."""
    if n == 0:
        return engine.one()
    if aelt is None or scalar == 0:
        return UElem()
    return Fraction(scalar) ** n * engine.divided_power(sym, aelt, n)


def eps_chain(spec, alpha, gamma, kmax):
    """Signs eps_s, s = 1..kmax, defined through
    [x_alpha, x_{gamma+(s-1)alpha}] = eps_s (r_{alpha,gamma} + s) x_{gamma+s alpha}.

    Stops early once gamma + s*alpha leaves the root set; raises if a stored
    constant is not +-(r+s)."""
    r = root_string(spec, alpha, gamma).r
    out = []
    prev = gamma
    for s in range(1, kmax + 1):
        nxt = spec.root_sum(alpha, prev)
        if nxt is None:
            break
        c = dict(spec.bracket(('x', alpha), ('x', prev))).get(('x', nxt), 0)
        if abs(c) != r + s:
            raise AlgebraError(
                "[x_%s, x_%s] has constant %d, not +-(r_{alpha,gamma}+%d) = +-%d"
                % (alpha, prev, c, s, r + s))
        out.append(1 if c > 0 else -1)
        prev = nxt
    return r, out


@dataclass
class SignTemplate:
    """RHS with undetermined signs: base + sum_k eps_k * slots[k][1],
    eps_k in {+1, -1}.  Slot labels are printable."""
    base: UElem
    slots: tuple


class Inapplicable(Exception):
    """Raised by a builder when the identity does not cover the parameters."""


# ---------------------------------------------------------------------------
# even-generator identities

def lhs_4_1(engine, ps):
    return engine.mul(engine.p(ps["i"], ps["chi"]), engine.p(ps["j"], ps["phi"]))


def rhs_4_1(engine, ps):
    return engine.mul(engine.p(ps["j"], ps["phi"]), engine.p(ps["i"], ps["chi"]))


def lhs_4_2(engine, ps):
    beta, b, r, s = ps["beta"], ps["b"], ps["r"], ps["s"]
    return engine.mul(engine.divided_power(('x', beta), b, r),
                      engine.divided_power(('x', beta), b, s))


def rhs_4_2(engine, ps):
    beta, b, r, s = ps["beta"], ps["b"], ps["r"], ps["s"]
    return binomial(r + s, s) * engine.divided_power(('x', beta), b, r + s)


def lhs_4_3(engine, ps):
    alpha, a, b, r, s = ps["alpha"], ps["a"], ps["b"], ps["r"], ps["s"]
    nalpha = engine.spec.negative_of(alpha)
    return engine.mul(engine.divided_power(('x', alpha), a, r),
                      engine.divided_power(('x', nalpha), b, s))


def rhs_4_3(engine, ps):
    alpha, a, b, r, s = ps["alpha"], ps["a"], ps["b"], ps["r"], ps["s"]
    nalpha = engine.spec.negative_of(alpha)
    ab = engine.monoid.mul(a, b)
    terms, signs = [], []
    for j in range(min(r, s) + 1):
        for k in range(min(r, s) - j + 1):
            for m in range(min(r, s) - j - k + 1):
                if k and ab is None:
                    continue  # p_alpha(k chi_0) = 0 once truncation kills ab
                sign = (-1) ** (j + k + m)
                dm = divided_D(engine, nalpha, j, s - j - k - m, ab, b)
                if not dm:
                    continue
                pk = engine.p(alpha, k * Multiset.of(ab)) if k else engine.one()
                dp = divided_D(engine, alpha, m, r - j - k - m, ab, a)
                if not dp:
                    continue
                terms.append(engine.mul(engine.mul(dm, pk), dp))
                signs.append(sign)
    return UElem.sum(terms, signs)


def _cs_x_product(engine, root_label, base_elt, hi, psi, negate_eval):
    """prod_phi (binom(alpha(h_i)+|phi|-1, |phi|) m(phi) (x (x) b pi(phi)))^(psi(phi)),
    with alpha(h_i) read from the moving letter's root (negated for the
    p-then-x side)."""
    spec, mon = engine.spec, engine.monoid
    ev = spec.root(root_label).ev[hi - 1]
    if negate_eval:
        ev = -ev
    out = engine.one()
    for phi, n in psi.items():
        c0 = binomial(ev + phi.size - 1, phi.size) * multinomial(phi)
        pphi = pi_product(phi, mon)
        belt = mon.mul(base_elt, pphi) if pphi is not None else None
        factor = scaled_divided(engine, ('x', root_label), belt, c0, n)
        if not factor:
            return UElem()
        out = engine.mul(out, factor)
    return out


def _consumed(psi):
    total = Multiset()
    for phi, n in psi.items():
        total = total + n * phi
    return total


def lhs_4_4(engine, ps):
    return engine.mul(engine.divided_power(('x', ps["alpha"]), ps["b"], ps["r"]),
                      engine.p(ps["i"], ps["chi"]))


def rhs_4_4(engine, ps):
    alpha, i, b, r, chi = ps["alpha"], ps["i"], ps["b"], ps["r"], ps["chi"]
    xparts = ((psi, _cs_x_product(engine, alpha, b, i, psi, negate_eval=False))
              for psi in enumerate_CS(chi, r))
    return UElem.sum(engine.mul(engine.p(i, chi - _consumed(psi)), xpart)
                     for psi, xpart in xparts if xpart)


def lhs_4_5(engine, ps):
    nalpha = engine.spec.negative_of(ps["alpha"])
    return engine.mul(engine.p(ps["i"], ps["chi"]),
                      engine.divided_power(('x', nalpha), ps["b"], ps["r"]))


def rhs_4_5(engine, ps):
    alpha, i, b, r, chi = ps["alpha"], ps["i"], ps["b"], ps["r"], ps["chi"]
    nalpha = engine.spec.negative_of(alpha)
    # the letter carries -alpha, the binomial still uses alpha(h_i)
    xparts = ((psi, _cs_x_product(engine, nalpha, b, i, psi, negate_eval=True))
              for psi in enumerate_CS(chi, r))
    return UElem.sum(engine.mul(xpart, engine.p(i, chi - _consumed(psi)))
                     for psi, xpart in xparts if xpart)


def _even_pair_type(spec, alpha, beta):
    """A2/B2/G2 type of the plane spanned by two even roots, by counting the
    even roots it contains."""
    ra, rb = spec.root(alpha), spec.root(beta)
    count = 0
    for i in range(-4, 5):
        for j in range(-4, 5):
            if i == j == 0:
                continue
            lab = spec.find_root(tuple(i * x + j * y for x, y in zip(ra.ev, rb.ev)))
            if lab is not None and spec.root(lab).parity == 0:
                count += 1
    return {4: "A1xA1", 6: "A2", 8: "B2", 12: "G2"}.get(count)


def lhs_4_6(engine, ps):
    return engine.mul(engine.divided_power(('x', ps["alpha"]), ps["a"], ps["r"]),
                      engine.divided_power(('x', ps["beta"]), ps["b"], ps["s"]))


def _pair_powers(engine, ps, jk_counts):
    """One summand of the general even-even law: the beta block, the mixed
    block prod (x_{j alpha + k beta} (x) a^j b^k)^(n), then the alpha block.
    Zero when some needed root is absent or truncation kills a part."""
    spec, mon = engine.spec, engine.monoid
    alpha, beta, a, b, r, s = ps["alpha"], ps["beta"], ps["a"], ps["b"], ps["r"], ps["s"]
    term = engine.divided_power(('x', beta), b, s - sum(k * n for (_, k), n in jk_counts))
    for (j, k), n in jk_counts:
        lab = spec.root_sum(alpha, beta, j, k)
        elt = mon.mul(mon.power(a, j), mon.power(b, k))
        if lab is None or elt is None:
            return UElem()
        term = engine.mul(term, engine.divided_power(('x', lab), elt, n))
    return engine.mul(term, engine.divided_power(
        ('x', alpha), a, r - sum(j * n for (j, _), n in jk_counts)))


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
    base = _pair_powers(engine, ps, ())
    slots = []
    for lab, counts in pair_slots(shapes, ps["r"], ps["s"], label):
        term = _pair_powers(engine, ps, counts)
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
    """A2 case: signs are determined by [x_alpha, x_beta] = eps x_{alpha+beta}."""
    spec = engine.spec
    alpha, beta = ps["alpha"], ps["beta"]
    absum = spec.root_sum(alpha, beta)
    if absum is None:
        # the factors commute; only the k = 0 term survives
        return _pair_powers(engine, ps, ())
    eps = dict(spec.bracket(('x', alpha), ('x', beta))).get(('x', absum), 0)
    if eps not in (1, -1):
        raise AlgebraError("A2 case wants [x_%s, x_%s] = +- x_{%s}" % (alpha, beta, absum))
    ks = range(min(ps["r"], ps["s"]) + 1)
    return UElem.sum((_pair_powers(engine, ps, (((1, 1), k),) if k else ()) for k in ks),
                     (eps ** k for k in ks))


def rhs_L44b(engine, ps):
    """B2 case: one sign slot per (k1, k2) != (0, 0)."""
    return _sign_template(engine, ps, ((1, 1), (2, 1)), _k_label)


def rhs_L44c(engine, ps):
    """G2 case: one sign slot per (k1, k2, k3, k4) != 0; the k4 slot carries
    x_{3 alpha + 2 beta}."""
    return _sign_template(engine, ps, ((1, 1), (2, 1), (3, 1), (3, 2)), _k_label)


# ---------------------------------------------------------------------------
# identities with odd generators

def lhs_xdelta_p(engine, ps):
    delta = ps.get("delta") or ps["gamma"]
    belt = ps["b"] if "b" in ps else ps["a"]
    return engine.mul(engine.gen_elem(('x', delta), belt), engine.p(ps["i"], ps["chi"]))


def rhs_xdelta_p(engine, ps):
    """(x_delta (x) b) p_i(chi) = sum_{psi <= chi} binom(|psi|-1+delta(h_i), |psi|)
    m(psi) p_i(chi - psi) (x_delta (x) b pi(psi))."""
    spec, mon = engine.spec, engine.monoid
    delta = ps.get("delta") or ps["gamma"]
    i, chi = ps["i"], ps["chi"]
    b = ps["b"] if "b" in ps else ps["a"]
    ev = spec.root(delta).ev[i - 1]
    terms, scalars = [], []
    for psi in enumerate_sub(chi):
        c0 = binomial(psi.size - 1 + ev, psi.size) * multinomial(psi)
        if not c0:
            continue
        ppsi = pi_product(psi, mon)
        belt = mon.mul(b, ppsi) if ppsi is not None else None
        if belt is None:
            continue
        terms.append(engine.mul(engine.p(i, chi - psi), engine.gen_elem(('x', delta), belt)))
        scalars.append(c0)
    return UElem.sum(terms, scalars)


def lhs_4_8(engine, ps):
    gamma, a = ps["gamma"], ps["a"]
    return engine.normalize([(('x', gamma), a)] * 2)


def z_of(spec, gamma):
    """z_gamma = c_{gamma,gamma}/2 for a non-isotropic odd root; checked to
    lie in {+-2}."""
    two = spec.root_sum(gamma, gamma)
    if two is None:
        raise Inapplicable("2*%s is not a root" % gamma)
    c = dict(spec.bracket(('x', gamma), ('x', gamma))).get(('x', two), 0)
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
        return UElem()
    return z * engine.gen_elem(('x', two), a2)


def lhs_4_9(engine, ps):
    gamma, a, b = ps["gamma"], ps["a"], ps["b"]
    ngamma = engine.spec.negative_of(gamma)
    return engine.normalize([(('x', gamma), a), (('x', ngamma), b)])


def rhs_4_9(engine, ps):
    gamma, a, b = ps["gamma"], ps["a"], ps["b"]
    spec, mon = engine.spec, engine.monoid
    ngamma = spec.negative_of(gamma)
    acc = -1 * engine.normalize([(('x', ngamma), b), (('x', gamma), a)])
    ab = mon.mul(a, b)
    if ab is not None:
        acc = acc + engine.hvec_elem(spec.coroot(gamma), ab)
    return acc


def lhs_4_10(engine, ps):
    return engine.normalize([(('x', ps["gamma"]), ps["a"]), (('x', ps["delta"]), ps["b"])])


def rhs_4_10(engine, ps):
    gamma, delta, a, b = ps["gamma"], ps["delta"], ps["a"], ps["b"]
    spec, mon = engine.spec, engine.monoid
    acc = -1 * engine.normalize([(('x', delta), b), (('x', gamma), a)])
    target = spec.root_sum(gamma, delta)
    ab = mon.mul(a, b)
    if target is not None and ab is not None:
        c = dict(spec.bracket(('x', gamma), ('x', delta))).get(('x', target), 0)
        if c:
            acc = acc + c * engine.gen_elem(('x', target), ab)
    return acc


def lhs_4_11(engine, ps):
    gamma, m, a, b = ps["gamma"], ps["m"], ps["a"], ps["b"]
    partner = engine.spec.negative_of(engine.spec.root_sum(gamma, gamma))
    return engine.mul(engine.gen_elem(('x', gamma), a),
                      engine.divided_power(('x', partner), b, m))


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
    acc = engine.mul(engine.divided_power(('x', partner), b, m), engine.gen_elem(('x', gamma), a))
    if m >= 1:
        c = dict(spec.bracket(('x', gamma), ('x', partner))).get(('x', ngamma), 0)
        ab = mon.mul(a, b)
        if c and ab is not None:
            acc = acc + c * engine.mul(engine.divided_power(('x', partner), b, m - 1),
                                       engine.gen_elem(('x', ngamma), ab))
    return acc


def lhs_4_12(engine, ps):
    alpha, gamma, m, a, b = ps["alpha"], ps["gamma"], ps["m"], ps["a"], ps["b"]
    return engine.mul(engine.divided_power(('x', alpha), a, m),
                      engine.gen_elem(('x', gamma), b))


def rhs_4_12(engine, ps):
    alpha, gamma, m, a, b = ps["alpha"], ps["gamma"], ps["m"], ps["a"], ps["b"]
    spec, mon = engine.spec, engine.monoid
    terms = [engine.mul(engine.gen_elem(('x', gamma), b), engine.divided_power(('x', alpha), a, m))]
    scalars = [1]
    r, eps = eps_chain(spec, alpha, gamma, m)
    sign = 1
    for k in range(1, len(eps) + 1):
        sign *= eps[k - 1]
        lab = spec.root_sum(alpha, gamma, k, 1)
        if lab is None:
            break
        elt = mon.mul(mon.power(a, k), b)
        if elt is None:
            continue
        terms.append(engine.mul(engine.gen_elem(('x', lab), elt),
                                engine.divided_power(('x', alpha), a, m - k)))
        scalars.append(sign * binomial(r + k, k))
    return UElem.sum(terms, scalars)
