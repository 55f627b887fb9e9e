import itertools
import math
from fractions import Fraction

import pytest

from superpbw.algebra import preset
from superpbw.coeffalg import monoid_preset
from superpbw.combinatorics import Multiset, enumerate_CS, multisets_upto
from superpbw.engine import Engine, Order, UElem
from superpbw.identities import Inapplicable, _consumed, _cs_x_product, _k_label, \
    divided_D, eps_chain, pair_slots, rhs_4_4, scaled_divided, z_of

ONE, T, T2, T3 = (0,), (1,), (2,), (3,)


@pytest.fixture(scope="module")
def sl2():
    return Engine(preset("sl2"), monoid_preset("poly"))


@pytest.fixture(scope="module")
def sl21():
    return Engine(preset("sl21"), monoid_preset("poly"))


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
        word = tuple(((('h', 1), a), m) for a, m in chi.items())
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
        eng = Engine(preset(name), monoid_preset("trunc:3"))
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
    eng = Engine(preset("sl2"), monoid_preset("trunc:3"))
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
    sp4 = Engine(preset("sp4"), monoid_preset("poly"))
    r, eps = eps_chain(sp4.spec, "a1", "a2", 3)
    assert r == 0 and len(eps) == 2   # a2, a1+a2, 2a1+a2 chain
    assert all(e in (1, -1) for e in eps)


def test_z_of():
    osp = preset("osp12")
    assert z_of(osp, "g") == 2
    assert z_of(osp, "-g") == -2
    with pytest.raises(Inapplicable):
        z_of(preset("sl21"), "a2")


def test_left_ideal_congruence():
    """X_alpha(|psi| chi_1) X_{-alpha}(psi) = (-1)^{|psi|} p_alpha(psi) modulo
    the left ideal generated by the letters x_alpha (x) b, checked by
    normalizing under an order that ends in alpha and dropping words whose
    last letter sits at the alpha slot."""
    spec = preset("sl2")
    mon = monoid_preset("trunc:4")
    order = Order.from_items(spec, ["-a", "1", "a"])   # alpha last
    eng = Engine(spec, mon, order)
    alpha_sym = ('x', 'a')
    for size in range(0, 4):
        for psi in multisets_upto(mon.elements(), size):
            if psi.size != size:
                continue
            lhs = eng.mul(eng.divided_power(alpha_sym, mon.one, size),
                          _X_neg(eng, psi))
            reduced = UElem({w: c for w, c in lhs.terms.items()
                             if not (w and w[-1][0][0] == alpha_sym)})
            want = Fraction((-1) ** size) * eng.p("a", psi)
            assert reduced == want, psi


def _X_neg(eng, psi):
    out = eng.one()
    for a, m in psi.items():
        out = eng.mul(out, eng.divided_power(('x', '-a'), a, m))
    return out


@pytest.mark.parametrize("algebra", ["sl2", "sl3", "sp4", "sl21", "osp12"])
def test_scaled_divided_matches_normalized_power(algebra):
    """scaled_divided reads x^(n) from the divided-power memo and scales it;
    the result equals normalizing x^n with scalar^n / n! term by term, in
    the same order and with the same coefficient types, cold and warm."""
    eng = Engine(preset(algebra), monoid_preset("trunc:4"))
    syms = eng.order.syms
    for _ in range(2):
        for sym in syms:
            for a in eng.monoid.elements():
                for scalar in (1, -3, Fraction(2, 3)):
                    assert scaled_divided(eng, sym, a, scalar, 0) == eng.one()
                    for n in range(1, 5):
                        got = scaled_divided(eng, sym, a, scalar, n)
                        want = eng.normalize([(sym, a)] * n,
                                             Fraction(scalar) ** n / math.factorial(n))
                        assert list(got.terms.items()) == list(want.terms.items())
                        assert [type(c) for c in got.terms.values()] == \
                            [type(c) for c in want.terms.values()]
                    assert scaled_divided(eng, sym, a, 0, 2) == UElem()
                    assert scaled_divided(eng, sym, None, scalar, 2) == UElem()
                    assert scaled_divided(eng, sym, None, scalar, 0) == eng.one()


def test_sum_agrees_with_the_addition_fold_on_rhs_4_4():
    # the summands of 4.4 folded one `+` at a time, as the builder did before
    # it summed them in one pass: same terms, same coefficient types
    eng = Engine(preset("sl3"), monoid_preset("trunc:3"))
    elems = eng.monoid.elements()
    checked = 0
    for alpha, i, b, r, chi in itertools.product(
            eng.spec.even_roots(), (1, 2), elems, range(3), multisets_upto(elems, 2)):
        acc = UElem()
        for psi in enumerate_CS(chi, r):
            xpart = _cs_x_product(eng, alpha, b, i, psi, negate_eval=False)
            if xpart:
                acc = acc + eng.mul(eng.p(i, chi - _consumed(psi)), xpart)
        got = rhs_4_4(eng, {"alpha": alpha, "i": i, "b": b, "r": r, "chi": chi})
        assert got.terms == acc.terms
        assert [type(c) for c in got.terms.values()] == [type(c) for c in acc.terms.values()]
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
