import itertools
import math
from fractions import Fraction

import pytest

from superpbw.algebra import PRESET_NAMES, preset
from superpbw.coeffalg import monoid_preset
from superpbw.combinatorics import Multiset, binomial, enumerate_CP, enumerate_CS, \
    enumerate_sub, multinomial, multisets_upto, pi_product
from superpbw.engine import AlgebraError, UElem
from superpbw.identities import Products, _cartan_past_root, _cartan_plan, \
    _divided_word, _k_label, divided_D, eps_chain, lhs_minus_rhs, lhs_product, pair_slots, \
    rhs_4_4, z_of
from superpbw.verify import IDENTITIES, SWEEP_IDS, SweepBounds, expand, fmt_params, \
    get_engine, load_engine
from support import ONE, T, T2, T3, assert_same, assert_same_terms


@pytest.fixture(scope="module")
def sl2():
    return load_engine("sl2", "poly")


@pytest.fixture(scope="module")
def sl21():
    return load_engine("sl21", "poly")


def test_p_alpha_single(sl21):
    # p_alpha(chi_a) = -(h_alpha (x) a), with h_alpha through the coroot map
    got = sl21.p("a2", Multiset.of(T))
    assert got == -1 * sl21.gen_elem(('h', 2), T)
    got = sl21.p("a1+a2", Multiset.of(T))
    assert got == -1 * (sl21.gen_elem(('h', 1), T) + sl21.gen_elem(('h', 2), T))
    got = sl21.p(1, Multiset.of(T))
    assert got == -1 * sl21.gen_elem(('h', 1), T)


def test_p_alpha_two_levels(sl2):
    # p(2 chi_a) = ((h (x) a)^2 - (h (x) a^2)) / 2
    got = sl2.p(1, Multiset.of(T, T))
    want = Fraction(1, 2) * (sl2.normalize([(('h', 1), T)] * 2) - sl2.gen_elem(('h', 1), T2))
    assert got == want
    # p(chi_a + chi_b) = (h (x) a)(h (x) b) - (h (x) ab)
    got = sl2.p(1, Multiset.of(T, T2))
    want = sl2.normalize([(('h', 1), T), (('h', 1), T2)]) - sl2.gen_elem(('h', 1), T3)
    assert got == want


def test_p_leading_term(sl2):
    # p(chi) - (-1)^{|chi|} prod (h (x) a)^{chi(a)} / prod chi(a)! drops degree
    for chi in (Multiset.of(T), Multiset.of(T, T), Multiset.of(T, T, T2)):
        lead_coeff = Fraction((-1) ** chi.size)
        for _, m in chi.items():
            lead_coeff /= math.factorial(m)
        word = tuple((('h', 1), a) for a, m in chi.items() for _ in range(m))
        rest = sl2.p(1, chi) - UElem({word: lead_coeff})
        assert rest.degree < chi.size


def test_p_values_commute(sl21):
    chis = [Multiset.of(T), Multiset.of(T, T2), Multiset.of(T2)]
    elems = [sl21.p(i, c) for i in (1, 2) for c in chis]
    elems += [sl21.p("a1+a2", Multiset.of(T, T))]
    for x, y in itertools.combinations(elems, 2):
        assert sl21.mul(x, y) == sl21.mul(y, x)


def test_p_alpha_integral_small():
    # composite coroots make this nontrivial: h_{a1+a2} = h1 + h2 in sl21,
    # h_{a1+a2} = h1 + 2 h2 in sp4
    for name, alpha in (("sl21", "a1+a2"), ("sp4", "a1+a2"), ("osp12", "g")):
        eng = load_engine(name, "trunc:3")
        for size in range(5):
            for chi in multisets_upto(eng.monoid.elements(), size):
                if chi.size != size:
                    continue
                assert eng.is_integral(eng.p(alpha, chi)), (name, alpha, chi)


def test_divided_D_base_cases(sl2):
    assert divided_D(sl2, "a", 0, 0, T, ONE) == sl2.one()
    assert divided_D(sl2, "a", 2, 0, T, ONE) == UElem()
    # j = 0: all mass at part 0, so D = (x (x) c)^(k)
    assert divided_D(sl2, "a", 0, 3, T, T2) == sl2.divided_power(('x', 'a'), T2, 3)


def test_divided_D_example(sl2):
    # CP_2(2) = {chi_0 + chi_2, 2 chi_1}
    got = divided_D(sl2, "a", 2, 2, T, ONE)
    want = sl2.normalize([(('x', 'a'), ONE), (('x', 'a'), T2)]) \
        + sl2.divided_power(('x', 'a'), T, 2)
    assert got == want


def test_divided_D_truncation():
    eng = load_engine("sl2", "trunc:3")
    # d^m c dies once the exponent clears the bound; surviving terms remain
    got = divided_D(eng, "a", 2, 2, T, T)
    want = eng.divided_power(('x', 'a'), T2, 2)   # the (1,1) partition: (x (x) t^2)^(2)
    assert got == want


def test_eps_chain(sl21):
    r, eps = eps_chain(sl21.spec, "a1", "a2", 3)
    assert r == 0 and eps == [1]
    r, eps = eps_chain(sl21.spec, "-a1", "a1+a2", 3)
    assert r == 0 and eps == [1]


def test_eps_chain_checks_magnitude():
    sp4 = load_engine("sp4", "poly")
    r, eps = eps_chain(sp4.spec, "a1", "a2", 3)
    assert r == 0 and len(eps) == 2   # a2, a1+a2, 2a1+a2 chain
    assert all(e in (1, -1) for e in eps)


def test_z_of():
    osp = preset("osp12")
    assert z_of(osp, "g") == 2
    assert z_of(osp, "-g") == -2
    with pytest.raises(AlgebraError, match="not a root"):
        z_of(preset("sl21"), "a2")


def test_left_ideal_congruence():
    """X_alpha(|psi| chi_1) X_{-alpha}(psi) = (-1)^{|psi|} p_alpha(psi) modulo
    the left ideal generated by the letters x_alpha (x) b, checked by
    normalizing under an order that ends in alpha and dropping words whose
    last letter sits at the alpha slot."""
    eng = load_engine("sl2", "trunc:4", "-a,1,a")     # alpha last
    mon = eng.monoid
    alpha_sym = ('x', 'a')
    for size in range(0, 4):
        for psi in multisets_upto(mon.elements(), size):
            if psi.size != size:
                continue
            lhs = eng.mul(eng.divided_power(alpha_sym, mon.one, size),
                          _X_neg(eng, psi))
            reduced = UElem({w: c for w, c in lhs.terms.items()
                             if not (w and w[-1][0] == alpha_sym)})
            want = Fraction((-1) ** size) * eng.p("a", psi)
            assert reduced == want, psi


def _X_neg(eng, psi):
    out = eng.one()
    for a, m in psi.items():
        out = eng.mul(out, eng.divided_power(('x', '-a'), a, m))
    return out


# ---------------------------------------------------------------------------
# The x-parts of the Cartan-past-root law as they were once built, one
# `Engine.mul` per divided power: a test-only reference for the one-word
# builder `_divided_word`.

def _ref_scaled_divided(engine, sym, aelt, scalar, n):
    """(scalar * (x (x) a))^(n) = scalar^n x^n / n!; zero element -> 0."""
    if n == 0:
        return engine.one()
    if aelt is None or scalar == 0:
        return UElem()
    return Fraction(scalar) ** n * engine.divided_power(sym, aelt, n)


def _ref_cs_x_product(engine, root_label, base_elt, ev, psi):
    """(prod_phi (binom(ev+|phi|-1, |phi|) m(phi) (x_root (x) b pi(phi)))^(psi(phi)),
    sum_phi psi(phi) phi); the product is 0, and the sum not formed, once a
    factor vanishes."""
    mon = engine.monoid
    out = engine.one()
    for phi, n in psi.items():
        c0 = binomial(ev + phi.size - 1, phi.size) * multinomial(phi)
        pphi = pi_product(phi, mon)
        belt = mon.mul(base_elt, pphi) if pphi is not None else None
        factor = _ref_scaled_divided(engine, ('x', root_label), belt, c0, n)
        if not factor:
            return UElem(), None
        out = engine.mul(out, factor)
    return out, Multiset([(a, n * m) for phi, n in psi.items() for a, m in phi.items()])


def _ref_cartan_past_root(engine, ps, root, alpha, b, r, x_first=False):
    i, chi = ps["i"], ps["chi"]
    ev = engine.spec.root(alpha).ev[i - 1]
    terms = []
    for psi in enumerate_CS(chi, r):
        xpart, consumed = _ref_cs_x_product(engine, root, b, ev, psi)
        if xpart:
            p = engine.p(i, chi - consumed)
            terms.append(engine.mul(xpart, p) if x_first else engine.mul(p, xpart))
    return UElem.sum(terms)


@pytest.mark.parametrize("algebra", ["sl2", "sl3", "sp4", "sl21", "osp12"])
def test_divided_word_matches_normalized_power(algebra):
    """A scaled power of a root letter is the normalized power and the
    reference's value, over trunc:4 and three scalars: n <= 4 on an even
    root, n = 1 on an odd one, where n = 2 raises."""
    eng = load_engine(algebra, "trunc:4")
    assert_same(_divided_word(eng, []), eng.one())
    for alpha in (r.label for r in eng.spec.roots):
        sym = ('x', alpha)
        nmax = 1 if eng.spec.parity(sym) else 4
        for a in eng.monoid.elements():
            L = eng.letter(sym, a)
            for scalar in (1, -3, Fraction(2, 3)):
                for n in range(1, nmax + 1):
                    got = _divided_word(eng, [(L, n)], Fraction(scalar) ** n)
                    assert_same(got, eng.normalize([L] * n,
                                                   Fraction(scalar) ** n / math.factorial(n)))
                    assert_same(got, _ref_scaled_divided(eng, sym, a, scalar, n))
            if nmax == 1:
                with pytest.raises(AlgebraError, match="do not commute"):
                    _divided_word(eng, [(L, 2)])


@pytest.mark.parametrize("algebra", ["sl2", "sp4", "osp12"])
def test_divided_word_sorts_powers_given_in_any_order(algebra):
    """A product of powers of one even root over several elements, listed in
    either order, is the product of the powers by the normalizer."""
    eng = load_engine(algebra, "trunc:4")
    elems = eng.monoid.elements()
    for alpha in eng.spec.even_roots():
        sym = ('x', alpha)
        for a, b, n, m in itertools.product(elems, elems, (1, 2), (1, 3)):
            want = eng.mul(_ref_scaled_divided(eng, sym, a, -2, n),
                           _ref_scaled_divided(eng, sym, b, 1, m))
            got = _divided_word(eng, [(eng.letter(sym, a), n), (eng.letter(sym, b), m)],
                                (-2) ** n)
            assert_same(got, want)


@pytest.mark.parametrize("algebra", ["sl2", "sl3", "sp4", "sl21", "osp12"])
def test_cartan_past_root_matches_the_mul_reference(algebra):
    """The law built with one-word x-parts equals the law built with one
    `Engine.mul` per divided power, on both sides, over trunc:4: even roots
    at r <= 3, odd roots at r <= 1, |chi| <= 2."""
    eng = load_engine(algebra, "trunc:4")
    elems = eng.monoid.elements()
    checked = 0
    for root in eng.spec.roots:
        alpha = root.label
        rmax = 1 if eng.spec.parity(('x', alpha)) else 3
        for x_first, (i, b, r, chi) in itertools.product(
                (False, True),
                itertools.product(range(1, eng.spec.rank + 1), elems, range(rmax + 1),
                                  multisets_upto(elems, 2))):
            ps = {"i": i, "chi": chi}
            rhs = _cartan_past_root(eng, ps, alpha, alpha, b, r, x_first)
            got = eng.mul_sum(rhs.chains, rhs.scalars)
            assert_same(got, _ref_cartan_past_root(eng, ps, alpha, alpha, b, r, x_first))
            checked += bool(got)
    assert checked > 200


def test_the_plan_is_a_walk_of_the_index_sets():
    """Every chi over trunc:4 with |chi| <= 3 and every r <= 3: the plan lists
    each phi <= chi with |phi|, m(phi) and pi(phi), and each psi in CS(chi, r)
    with its (phi, n) pairs and chi - sum psi(phi) phi, in the enumerators'
    orders."""
    mon = monoid_preset("trunc:4")
    for chi, r in itertools.product(multisets_upto(mon.elements(), 3), range(4)):
        subs = enumerate_sub(chi)
        phis, terms = _cartan_plan(chi, r, mon)
        assert phis == tuple((phi.size, multinomial(phi), pi_product(phi, mon))
                             for phi in subs)
        want = []
        for psi in enumerate_CS(chi, r):
            rest = chi
            for phi, n in psi.items():
                rest = rest - n * phi
            want.append((tuple(psi.items()), rest))
        assert [(tuple((subs[k], n) for k, n in counts), rest)
                for counts, rest in terms] == want


@pytest.mark.parametrize("monoid", ["trunc:2", "trunc:4", "poly"])
def test_the_plan_equals_the_plan_of_multiset_remainders(monoid):
    """The plan takes each remainder chi - sum psi(phi) phi on count vectors;
    it equals, pairs and their order included, the plan that subtracts a
    Multiset of the pairs from chi, for every chi on <= 4 elements with
    |chi| <= 4 and every r <= 4."""
    mon = monoid_preset(monoid)
    elems = mon.elements() if mon.finite else [ONE, T, T2, T3]
    for chi, r in itertools.product(multisets_upto(elems, 4), range(5)):
        subs = enumerate_sub(chi)
        index = {phi: k for k, phi in enumerate(subs)}
        want = (tuple((phi.size, multinomial(phi), pi_product(phi, mon)) for phi in subs),
                tuple((tuple((index[phi], n) for phi, n in psi.items()),
                       chi - Multiset([(a, n * m) for phi, n in psi.items()
                                       for a, m in phi.items()]))
                      for psi in enumerate_CS(chi, r)))
        got = _cartan_plan(chi, r, mon)
        assert got == want, (chi, r)
        assert [rest.items() for _, rest in got[1]] == [rest.items() for _, rest in want[1]]


@pytest.mark.parametrize("algebra", ["sl3", "sp4"])
def test_divided_D_matches_the_normalized_sum(algebra):
    """D^alpha_{j,k}(d, c) is sum_lam normalize(letters) / prod lam!, for
    j <= 4 and 1 <= k <= 4 over trunc:4 (k = 0 is a base case)."""
    eng = load_engine(algebra, "trunc:4")
    mon = eng.monoid
    for alpha, d, c in itertools.product(eng.spec.even_roots(), mon.elements(),
                                         mon.elements()):
        for j, k in itertools.product(range(5), range(1, 5)):
            want = []
            for lam in enumerate_CP(j, k):
                elts = [mon.mul(mon.power(d, m), c) for m, mult in lam.items()
                        for _ in range(mult)]
                if None not in elts:
                    den = math.prod(math.factorial(mult) for _, mult in lam.items())
                    want.append(eng.normalize([(('x', alpha), e) for e in elts],
                                              Fraction(1, den)))
            assert_same(divided_D(eng, alpha, j, k, d, c), UElem.sum(want))


def test_the_law_refuses_an_odd_root_past_r_1():
    """Two letters of an odd root do not commute, so neither the law at
    r = 2 nor D at k = 2 has a one-word x-part; both refuse."""
    eng = load_engine("osp12", "trunc:3")
    for chi in (Multiset(), Multiset.of(T)):
        with pytest.raises(AlgebraError, match="odd root g"):
            _cartan_past_root(eng, {"i": 1, "chi": chi}, "g", "g", ONE, 2)
    sl21 = load_engine("sl21", "trunc:3")
    with pytest.raises(AlgebraError, match="odd root a2"):
        divided_D(sl21, "a2", 1, 2, T, ONE)


def test_sum_agrees_with_the_addition_fold_on_rhs_4_4():
    # the summands of 4.4 folded one `+` at a time, as the builder did before
    # it summed them in one pass: same terms, same coefficient types
    eng = load_engine("sl3", "trunc:3")
    elems = eng.monoid.elements()
    checked = 0
    for alpha, i, b, r, chi in itertools.product(
            eng.spec.even_roots(), (1, 2), elems, range(3), multisets_upto(elems, 2)):
        acc = UElem()
        for psi in enumerate_CS(chi, r):
            xpart, consumed = _ref_cs_x_product(eng, alpha, b, eng.spec.root(alpha).ev[i - 1],
                                                psi)
            if xpart:
                acc = acc + eng.mul(eng.p(i, chi - consumed), xpart)
        rhs = rhs_4_4(eng, {"alpha": alpha, "i": i, "b": b, "r": r, "chi": chi})
        got = eng.mul_sum(rhs.chains, rhs.scalars)
        assert_same(got, acc)
        checked += bool(got)
    assert checked > 100


def _g2_slots_four_deep(r, s):
    """The G2 slot listing as the four-deep loop nest wrote it."""
    out = []
    for k1 in range(s + 1):
        for k2 in range(s + 1):
            for k3 in range(s + 1):
                for k4 in range(s + 1):
                    if k1 + k2 + k3 + k4 == 0:
                        continue
                    if k1 + k2 + k3 + 2 * k4 > s or k1 + 2 * k2 + 3 * k3 + 3 * k4 > r:
                        continue
                    counts = tuple(((j, kk), n) for (j, kk), n in
                                   (((1, 1), k1), ((2, 1), k2), ((3, 1), k3), ((3, 2), k4)) if n)
                    out.append(("k1=%d,k2=%d,k3=%d,k4=%d" % (k1, k2, k3, k4), counts))
    return out


@pytest.mark.parametrize("r", range(5))
@pytest.mark.parametrize("s", range(5))
def test_pair_slots_match_the_g2_loop_nest(r, s):
    shapes = ((1, 1), (2, 1), (3, 1), (3, 2))
    assert list(pair_slots(shapes, r, s, _k_label)) == _g2_slots_four_deep(r, s)


# ---------------------------------------------------------------------------
# The left-hand sides as the identities once wrote them, one hand-written
# product per identity: a test-only reference for the declared factors.

def _ref_4_1(engine, ps):
    return engine.mul(engine.p(ps["i"], ps["chi"]), engine.p(ps["j"], ps["phi"]))


def _ref_4_2(engine, ps):
    beta, b, r, s = ps["beta"], ps["b"], ps["r"], ps["s"]
    return engine.mul(engine.divided_power(('x', beta), b, r),
                      engine.divided_power(('x', beta), b, s))


def _ref_4_3(engine, ps):
    alpha, a, b, r, s = ps["alpha"], ps["a"], ps["b"], ps["r"], ps["s"]
    nalpha = engine.spec.negative_of(alpha)
    return engine.mul(engine.divided_power(('x', alpha), a, r),
                      engine.divided_power(('x', nalpha), b, s))


def _ref_4_4(engine, ps):
    return engine.mul(engine.divided_power(('x', ps["alpha"]), ps["b"], ps["r"]),
                      engine.p(ps["i"], ps["chi"]))


def _ref_4_5(engine, ps):
    nalpha = engine.spec.negative_of(ps["alpha"])
    return engine.mul(engine.p(ps["i"], ps["chi"]),
                      engine.divided_power(('x', nalpha), ps["b"], ps["r"]))


def _ref_4_6(engine, ps):
    return engine.mul(engine.divided_power(('x', ps["alpha"]), ps["a"], ps["r"]),
                      engine.divided_power(('x', ps["beta"]), ps["b"], ps["s"]))


def _ref_xdelta_p(engine, ps):
    delta = ps.get("delta") or ps["gamma"]
    belt = ps["b"] if "b" in ps else ps["a"]
    return engine.mul(engine.gen_elem(('x', delta), belt), engine.p(ps["i"], ps["chi"]))


def _ref_4_8(engine, ps):
    gamma, a = ps["gamma"], ps["a"]
    return engine.normalize([(('x', gamma), a)] * 2)


def _ref_4_9(engine, ps):
    gamma, a, b = ps["gamma"], ps["a"], ps["b"]
    ngamma = engine.spec.negative_of(gamma)
    return engine.normalize([(('x', gamma), a), (('x', ngamma), b)])


def _ref_4_10(engine, ps):
    return engine.normalize([(('x', ps["gamma"]), ps["a"]), (('x', ps["delta"]), ps["b"])])


def _ref_4_11(engine, ps):
    gamma, m, a, b = ps["gamma"], ps["m"], ps["a"], ps["b"]
    partner = engine.spec.negative_of(engine.spec.root_sum(gamma, gamma))
    return engine.mul(engine.gen_elem(('x', gamma), a),
                      engine.divided_power(('x', partner), b, m))


def _ref_4_12(engine, ps):
    alpha, gamma, m, a, b = ps["alpha"], ps["gamma"], ps["m"], ps["a"], ps["b"]
    return engine.mul(engine.divided_power(('x', alpha), a, m),
                      engine.gen_elem(('x', gamma), b))


REFERENCE_LHS = {
    "4.1": _ref_4_1, "4.2": _ref_4_2, "4.3": _ref_4_3, "4.4": _ref_4_4, "4.5": _ref_4_5,
    "4.6": _ref_4_6, "L4.4a": _ref_4_6, "L4.4b": _ref_4_6, "L4.4c": _ref_4_6,
    "L4.3": _ref_xdelta_p, "4.7": _ref_xdelta_p, "4.8": _ref_4_8, "4.9": _ref_4_9,
    "4.10": _ref_4_10, "4.11": _ref_4_11, "4.12": _ref_4_12,
}


def test_every_algebra_row_declares_two_factors():
    assert set(REFERENCE_LHS) == set(SWEEP_IDS)
    for ident_id, check in IDENTITIES.items():
        assert check.once or len(check.factors) == 2, ident_id


@pytest.mark.parametrize("algebra", PRESET_NAMES)
@pytest.mark.parametrize("ident_id", sorted(REFERENCE_LHS))
def test_lhs_product_matches_the_hand_written_lhs(ident_id, algebra):
    """lhs_product over a row's declared factors is the product the
    identity's hand-written LHS built, on every applicable instance."""
    check = IDENTITIES[ident_id]
    eng = get_engine(algebra, "trunc:3")
    for ps in expand(eng, SweepBounds(1, 1, 1, 1), check.axes, check.where):
        if check.applicable and not check.applicable(eng, ps)[0]:
            continue
        got = lhs_product(eng, check.factors, ps)
        assert got == REFERENCE_LHS[ident_id](eng, ps), \
            "row %s on %s at %s" % (ident_id, algebra, fmt_params(eng, ps))


@pytest.mark.parametrize("algebra", PRESET_NAMES)
def test_one_sum_is_the_difference_of_the_two_sides(algebra):
    """Every registered rhs builds `Products`, never an element, and
    `lhs_minus_rhs` is lhs_product minus the rhs's products, on every
    applicable instance of every row at trunc:2 and bounds 1."""
    eng = get_engine(algebra, "trunc:2")
    compared = 0
    for ident_id in SWEEP_IDS:
        check = IDENTITIES[ident_id]
        for ps in expand(eng, SweepBounds(1, 1, 1, 1), check.axes, check.where):
            if check.applicable and not check.applicable(eng, ps)[0]:
                continue
            rhs = check.rhs(eng, ps)
            assert type(rhs) is Products, ident_id
            want = UElem.sum((lhs_product(eng, check.factors, ps),
                              eng.mul_sum(rhs.chains, rhs.scalars)), (1, -1))
            assert_same_terms(lhs_minus_rhs(eng, check.factors, ps, rhs), want)
            compared += 1
    assert compared
