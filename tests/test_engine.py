import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpbw.algebra import preset
from superpbw.coeffalg import monoid_preset
from superpbw.combinatorics import Multiset
from superpbw.engine import AlgebraError, Combination, DividedForm, Engine, NEG_INF, Order, \
    UElem, key_degree
from superpbw.identities import divided_D

ONE, T, T2, T3 = (0,), (1,), (2,), (3,)


def make(algebra, monoid="poly", order=None):
    spec = preset(algebra)
    o = None
    if order == "lex":
        o = Order.lexicographic(spec)
    return Engine(spec, monoid_preset(monoid), o)


@pytest.fixture(scope="module")
def sl2():
    return make("sl2")


@pytest.fixture(scope="module")
def sl21():
    return make("sl21", "trunc:3")


@pytest.fixture(scope="module")
def osp12():
    return make("osp12", "trunc:3")


def test_normalize_single_swap(sl2):
    got = sl2.normalize([(('x', 'a'), T), (('x', '-a'), ONE)])
    want = sl2.normalize([(('x', '-a'), ONE), (('x', 'a'), T)]) + sl2.gen_elem(('h', 1), T)
    assert got == want
    assert got.degree == 2


def test_normalize_isotropic_square(sl21):
    assert not sl21.normalize([(('x', 'a2'), ONE)] * 2)
    assert sl21.normalize([(('x', 'a2'), ONE)] * 2).degree == NEG_INF


def test_normalize_nonisotropic_square(osp12):
    got = osp12.normalize([(('x', 'g'), T)] * 2)
    assert got == 2 * osp12.gen_elem(('x', '2g'), T2)
    got = osp12.normalize([(('x', '-g'), T)] * 2)
    assert got == -2 * osp12.gen_elem(('x', '-2g'), T2)


def test_normalize_is_multiplicative(sl2):
    x = sl2.normalize([(('x', 'a'), T), (('x', '-a'), ONE)])
    y = sl2.gen_elem(('h', 1), T)
    lhs = sl2.mul(x, y)
    rhs = sl2.normalize([(('x', 'a'), T), (('x', '-a'), ONE), (('h', 1), T)])
    assert lhs == rhs


def test_mul_commuting_letters(sl21):
    # distinct even-root letters with alpha + beta not a root commute
    x = sl21.gen_elem(('x', 'a1'), T)
    y = sl21.gen_elem(('x', 'a1'), ONE)
    assert sl21.mul(x, y) == sl21.mul(y, x)
    h1 = sl21.gen_elem(('h', 1), T)
    h2 = sl21.gen_elem(('h', 2), ONE)
    assert sl21.mul(h1, h2) == sl21.mul(h2, h1)


def test_unknown_generator_rejected(sl2):
    from superpbw.algebra import SpecError
    with pytest.raises((AlgebraError, SpecError)):
        sl2.normalize([(('x', 'zz'), T)])
    with pytest.raises(AlgebraError):
        sl2.normalize([(('h', 3), T)])


def test_degree_of_p(sl2):
    for chi in (Multiset.of(T), Multiset.of(T, T), Multiset.of(T, T2, T2)):
        assert sl2.p(1, chi).degree == chi.size
    assert sl2.p(1, Multiset()).degree == 0
    assert UElem().degree == NEG_INF


def test_divided_power_factorials(sl2):
    cube = sl2.normalize([(('x', 'a'), T)] * 3)
    dv = sl2.to_divided(cube)
    key = ((('x', 'a'), Multiset.of(T, T, T)),)
    assert dv.terms == {key: Fraction(6)}
    assert sl2.from_divided(dv) == cube


def test_to_divided_cartan(sl2):
    # h (x) t = -p(chi_t)
    dv = sl2.to_divided(sl2.gen_elem(('h', 1), T))
    assert dv.terms == {((('h', 1), Multiset.of(T)),): Fraction(-1)}
    # (h (x) t)^2 = 2 p(2 chi_t) - p(chi_{t^2})
    dv = sl2.to_divided(sl2.normalize([(('h', 1), T)] * 2))
    assert dv.terms == {
        ((('h', 1), Multiset.of(T, T)),): Fraction(2),
        ((('h', 1), Multiset.of(T2)),): Fraction(-1),
    }


def test_p_basis_convert_examples():
    eng = make("sl21", "poly")
    # (h_i (x) a)(h_i (x) b) = p_i(chi_a + chi_b) - p_i(chi_ab)
    x = eng.normalize([(('h', 1), T), (('h', 1), T2)])
    conv = eng.to_divided(x).terms
    assert conv == {
        ((('h', 1), Multiset.of(T, T2)),): Fraction(1),
        ((('h', 1), Multiset.of((3,))),): Fraction(-1),
    }
    # distinct Cartan directions factor with coefficient +1
    x = eng.normalize([(('h', 1), T), (('h', 2), T2)])
    conv = eng.to_divided(x).terms
    assert conv == {((('h', 1), Multiset.of(T)), (('h', 2), Multiset.of(T2))): Fraction(1)}
    # p_i(chi) itself converts to the unit coefficient
    chi = Multiset.of(T, T)
    conv = eng.to_divided(eng.p(1, chi)).terms
    assert conv == {((('h', 1), chi),): Fraction(1)}


def test_is_integral(sl2):
    x = sl2.divided_power(('x', 'a'), T, 2)
    assert sl2.is_integral(x)
    assert not sl2.is_integral(Fraction(1, 2) * x)
    cube = sl2.normalize([(('x', 'a'), T)] * 3)   # = 3! X(3chi_t)
    assert sl2.is_integral(cube)


def _word_letters(engine, size, rng_elems, syms):
    import random
    r = random.Random(size)
    return [(r.choice(syms), r.choice(rng_elems)) for _ in range(size)]


def all_letters(engine, elems):
    return [(s, e) for s in engine.spec.all_syms() for e in elems]


def test_pbw_associativity_randomized():
    eng = make("sl21", "trunc:3")
    letters = all_letters(eng, [ONE, T])
    import random
    rng = random.Random(7)
    for _ in range(40):
        word = [rng.choice(letters) for _ in range(rng.randint(2, 6))]
        cut1 = rng.randint(0, len(word))
        cut2 = rng.randint(0, len(word))
        full = eng.normalize(word)
        u, v = eng.normalize(word[:cut1]), eng.normalize(word[cut1:])
        assert eng.mul(u, v) == full
        u, v = eng.normalize(word[:cut2]), eng.normalize(word[cut2:])
        assert eng.mul(u, v) == full


def test_super_sign_coherence():
    # x y + y x = [x, y] for odd letters x, y
    for name in ("sl21", "osp12"):
        eng = make(name, "trunc:3")
        for gamma, delta in itertools.product(eng.spec.odd_roots(), repeat=2):
            for a, b in itertools.product([ONE, T], repeat=2):
                xy = eng.normalize([(('x', gamma), a), (('x', delta), b)])
                yx = eng.normalize([(('x', delta), b), (('x', gamma), a)])
                ab = eng.monoid.mul(a, b)
                bracket = UElem()
                if ab is not None:
                    for sym, c in eng.spec.bracket(('x', gamma), ('x', delta)):
                        bracket = bracket + c * eng.gen_elem(sym, ab)
                assert xy + yx == bracket, (gamma, delta, a, b)


def test_degree_subadditivity():
    eng = make("sl2", "trunc:3")
    letters = all_letters(eng, [ONE, T])
    import random
    rng = random.Random(3)
    for _ in range(30):
        u = eng.normalize([rng.choice(letters) for _ in range(rng.randint(1, 3))])
        v = eng.normalize([rng.choice(letters) for _ in range(rng.randint(1, 3))])
        prod = eng.mul(u, v)
        if u and v and prod:
            assert prod.degree <= u.degree + v.degree


def test_round_trip_divided_randomized():
    eng = make("sl21", "trunc:3")
    letters = all_letters(eng, [ONE, T])
    import random
    rng = random.Random(11)
    for _ in range(30):
        x = eng.normalize([rng.choice(letters) for _ in range(rng.randint(1, 5))],
                          Fraction(rng.randint(1, 5), rng.randint(1, 4)))
        assert eng.from_divided(eng.to_divided(x)) == x


def test_integrality_order_independent():
    spec = preset("sl21")
    mon = monoid_preset("trunc:3")
    tri = Engine(spec, mon, Order.triangular(spec))
    lex = Engine(spec, mon, Order.lexicographic(spec))
    import random
    rng = random.Random(5)
    gens = []
    for alpha in spec.even_roots():
        for s in (1, 2):
            gens.append(tri.divided_power(('x', alpha), T, s))
    for gamma in spec.odd_roots():
        gens.append(tri.gen_elem(('x', gamma), T))
    gens.append(tri.p(1, Multiset.of(T, T)))
    for _ in range(25):
        k = rng.randint(1, 4)
        x = tri.one()
        for _ in range(k):
            x = tri.mul(x, rng.choice(gens))
        scale = rng.choice([Fraction(1), Fraction(1), Fraction(1, 2)])
        x = scale * x
        assert tri.is_integral(x) == lex.is_integral(lex.adopt(x))


def test_enumerate_basis_small(sl2):
    eng = make("sl2", "trunc:2")
    assert eng.enumerate_basis(0) == [()]
    keys = eng.enumerate_basis(1)
    assert len(keys) == 7
    assert len(set(keys)) == 7
    degs = sorted(key_degree(k) for k in keys)
    assert degs == [0, 1, 1, 1, 1, 1, 1]


def test_enumerate_basis_needs_finite(sl2):
    with pytest.raises(Exception):
        sl2.enumerate_basis(2)   # poly monoid has an infinite basis


def test_triangular_factor(sl21):
    x = sl21.normalize([(('x', 'a1'), T), (('x', '-a1'), ONE)])
    eng, factored = sl21.triangular_factor(x)
    assert sum(1 for _ in factored) == len(factored)
    rebuilt = UElem()
    for c, kneg, kzero, kpos in factored:
        rebuilt = rebuilt + c * eng.from_divided(
            type(eng.to_divided(eng.one()))({kneg + kzero + kpos: 1}))
    assert rebuilt == eng.adopt(x)
    # a pure Cartan element factors as (1, x, 1)
    _, factored = sl21.triangular_factor(sl21.p(1, Multiset.of(T)))
    assert all(kneg == () and kpos == () for _, kneg, kzero, kpos in factored)


def test_triangular_factor_sl2_instance():
    # normalize((x_a (x) t)(x_-a (x) 1)) splits as the ordered word plus a
    # pure-Cartan term: (x_-a (x) 1)(x_a (x) t) + (h (x) t) with h = -p(chi_t)
    eng = make("sl2", "trunc:3")
    x = eng.normalize([(('x', 'a'), T), (('x', '-a'), ONE)])
    _, factored = eng.triangular_factor(x)
    as_dict = {(kneg, kzero, kpos): c for c, kneg, kzero, kpos in factored}
    word_key = (((('x', '-a'), Multiset.of(ONE)),), (), ((('x', 'a'), Multiset.of(T)),))
    cartan_key = ((), ((('h', 1), Multiset.of(T)),), ())
    assert as_dict == {word_key: Fraction(1), cartan_key: Fraction(-1)}


def test_round_trip_divided_osp12(osp12):
    # non-isotropic odd letters need the secondary order on the coefficient
    # basis; the conversion must still be involutive
    letters = all_letters(osp12, [ONE, T])
    import random
    rng = random.Random(17)
    for _ in range(25):
        x = osp12.normalize([rng.choice(letters) for _ in range(rng.randint(1, 5))])
        assert osp12.from_divided(osp12.to_divided(x)) == x


def test_triangular_factor_from_other_order():
    spec = preset("sl2")
    mon = monoid_preset("trunc:3")
    lex = Engine(spec, mon, Order.lexicographic(spec))
    x = lex.normalize([(('x', 'a'), T), (('x', '-a'), ONE)])
    eng, factored = lex.triangular_factor(x)
    assert eng.order.is_triangular(spec)
    for c, kneg, kzero, kpos in factored:
        for sym, _ in kneg:
            assert not spec.root(sym[1]).positive
        for sym, _ in kpos:
            assert spec.root(sym[1]).positive


def test_loop_algebra_bracket():
    # Laurent coefficients: [x+ (x) 1/t, x- (x) t] lands on h (x) 1
    eng = make("sl2", "laurent")
    got = eng.normalize([(('x', 'a'), (-1,)), (('x', '-a'), (1,))])
    want = eng.normalize([(('x', '-a'), (1,)), (('x', 'a'), (-1,))]) \
        + eng.gen_elem(('h', 1), (0,))
    assert got == want


def test_two_variable_coefficients():
    eng = make("sl2", "poly2")
    u, v = (1, 0), (0, 1)
    got = eng.normalize([(('x', 'a'), u), (('x', '-a'), v)])
    want = eng.normalize([(('x', '-a'), v), (('x', 'a'), u)]) + eng.gen_elem(('h', 1), (1, 1))
    assert got == want


def test_order_from_items():
    spec = preset("sl2")
    o = Order.from_items(spec, ["-a", "1", "a"])
    assert o.is_triangular(spec)
    with pytest.raises(AlgebraError):
        Order.from_items(spec, ["a", "1"])   # missing -a


def _assert_exact(coeffs):
    for c in coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


@pytest.mark.parametrize("name", ["sl2", "sl3", "sp4", "sl21", "osp12"])
def test_coefficients_are_int_or_proper_fraction(name):
    import random
    eng = make(name, "trunc:3")
    rng = random.Random(name)
    letters = all_letters(eng, [ONE, T])
    alpha = eng.spec.even_roots()[0]
    elems = [eng.divided_power(('x', alpha), T, 3),
             divided_D(eng, alpha, 2, 2, T, ONE),
             eng.p(1, Multiset.of(T, T, T2)),
             eng.p(alpha, Multiset.of(T, T2))]
    for _ in range(12):
        x = eng.normalize([rng.choice(letters) for _ in range(rng.randint(1, 4))],
                          rng.choice([1, -2, Fraction(1, 2), Fraction(-3, 4)]))
        y = eng.normalize([rng.choice(letters) for _ in range(rng.randint(1, 3))])
        elems += [x, y, eng.mul(x, y)]
    for x in elems:
        _assert_exact(x.terms.values())
        df = eng.to_divided(x)
        _assert_exact(df.terms.values())
        back = eng.from_divided(df)
        _assert_exact(back.terms.values())
        assert back == x
    for i in range(1, eng.spec.rank + 1):
        for chi in (Multiset.of(T), Multiset.of(T, T2), Multiset.of(T, T)):
            _assert_exact(c for _, c in eng._h_mono_to_p(i, chi))


def test_divided_round_trip_with_integer_p_lead():
    # p_1(chi_t + chi_t^2) = (h (x) t)(h (x) t^2) - ... has the int lead 1, so
    # the p-basis inversion divides ints; it must stay exact.
    eng = make("sl2", "trunc:4")
    chi = Multiset.of(T, T2)
    assert type(eng.p(1, chi).terms[(((('h', 1), T), 1), ((('h', 1), T2), 1))]) is int
    x = eng.normalize([(('h', 1), T), (('h', 1), T2)], Fraction(1, 3))
    df = eng.to_divided(x)
    _assert_exact(df.terms.values())
    _assert_exact(c for _, c in eng._h_mono_to_p(1, chi))
    assert eng.from_divided(df) == x
    with pytest.raises(TypeError):
        eng.normalize([(('h', 1), T)], 0.5)


def test_memo_values_cannot_be_mutated():
    eng = make("sl2")
    word = ((('x', 'a'), T),)
    letter = (('x', '-a'), ONE)
    got = eng._insert(word, letter)
    with pytest.raises(TypeError):
        got[0] = (word, 5)
    with pytest.raises(AttributeError):
        got.clear()
    assert eng._insert(word, letter) == got
    assert eng.normalize([(('x', 'a'), T), (('x', '-a'), ONE)]) == \
        make("sl2").normalize([(('x', 'a'), T), (('x', '-a'), ONE)])
    conv = eng._h_mono_to_p(1, Multiset.of(T, T))
    with pytest.raises(AttributeError):
        conv.clear()
    assert eng._h_mono_to_p(1, Multiset.of(T, T)) == conv


def test_p_hands_out_copies():
    """Clearing a returned p-element once zeroed every later p(1, chi) and
    broke to_divided of h[1]{t}^2 ("lost its leading monomial")."""
    eng, fresh = make("sl2"), make("sl2")
    chi1, chi2 = Multiset.of(T), Multiset.of(T, T)
    eng.p(1, chi1).terms.clear()
    eng.p_vector((1,), chi1).terms[()] = 7
    assert eng.p(1, chi1) == fresh.p(1, chi1)
    assert eng.p(1, chi2) == fresh.p(1, chi2)
    got = eng.p(1, chi2)
    got.terms.clear()
    got.terms = {(): 1}
    assert eng.p(1, chi2) == fresh.p(1, chi2)
    h2 = eng.normalize([(('h', 1), T)] * 2)
    assert eng.to_divided(h2) == fresh.to_divided(h2)
    assert eng.to_divided(h2).terms == {((('h', 1), chi2),): 2,
                                        ((('h', 1), Multiset.of(T2)),): -1}


def test_divided_power_memo_hands_out_copies():
    eng, fresh = make("sl2"), make("sl2")
    sym = ('x', 'a')
    want = fresh.divided_power(sym, T, 2)
    got = eng.divided_power(sym, T, 2)
    assert eng._divpow_memo[(sym, T, 2)] == want
    got.terms.clear()
    eng.divided_power(sym, T, 2).terms[()] = 5
    assert eng._divpow_memo[(sym, T, 2)] == want
    assert eng.divided_power(sym, T, 2) == want
    assert eng.divided_power(sym, T, 2) is not eng.divided_power(sym, T, 2)
    x3 = eng.normalize([(sym, T)] * 3)
    assert eng.mul(eng.divided_power(sym, T, 2), eng.gen_elem(sym, T)) == \
        Fraction(1, 2) * x3


W1 = (((('x', 'a'), T), 1),)   # the word x[a]{t}
W2 = (((('h', 1), T), 2),)     # the word h[1]{t}^2


def test_uelem_and_divided_form_are_never_equal():
    terms = {W1: 1, W2: Fraction(-1, 2)}
    assert UElem(terms) != DividedForm(terms)
    assert UElem() != DividedForm()
    assert UElem(terms) == UElem(dict(terms)) and DividedForm(terms) == DividedForm(terms)
    with pytest.raises(TypeError):
        UElem(terms) + DividedForm(terms)
    with pytest.raises(TypeError):
        DividedForm(terms) - UElem(terms)


def test_divided_form_arithmetic():
    x = DividedForm({W1: 1, W2: Fraction(1, 2)})
    y = DividedForm({W2: Fraction(1, 2)})
    assert x + y == DividedForm({W1: 1, W2: 1})
    assert type(x + y) is DividedForm and type((x + y).terms[W2]) is int
    assert x - y == DividedForm({W1: 1})
    assert -x == DividedForm({W1: -1, W2: Fraction(-1, 2)})
    assert 2 * x == DividedForm({W1: 2, W2: 1}) and type((2 * x).terms[W2]) is int
    assert Fraction(2, 3) * x == DividedForm({W1: Fraction(2, 3), W2: Fraction(1, 3)})
    assert not 0 * x and type(0 * x) is DividedForm
    assert (2 * x).is_integral() and not x.is_integral()
    with pytest.raises(TypeError):
        0.5 * x
    assert hash(x) == hash(DividedForm({W2: Fraction(1, 2), W1: 1}))


def test_sum_makes_each_coefficient_exact_once():
    halves = [UElem({W1: Fraction(1, 2), W2: Fraction(1, 3)}),
              UElem({W1: Fraction(1, 2), W2: Fraction(-1, 3)})]
    got = UElem.sum(halves)
    assert got.terms == {W1: 1} and type(got.terms[W1]) is int
    got = UElem.sum(halves, (Fraction(3, 2), Fraction(1, 2)))
    assert got.terms == {W1: 1, W2: Fraction(1, 3)} and type(got.terms[W1]) is int
    assert UElem.sum(halves, (1, -1)).terms == {W2: Fraction(2, 3)}
    assert type(UElem.sum(halves)) is UElem
    assert type(DividedForm.sum([DividedForm({W1: 1})])) is DividedForm
    with pytest.raises(TypeError):
        UElem.sum(halves, (0.5, 1))


def test_empty_sum_is_zero():
    for cls in (UElem, DividedForm):
        assert cls.sum([]) == cls() and not cls.sum([])
        assert cls.sum(iter(()), iter(())) == cls()
        assert cls.sum([cls({W1: 3})], [0]) == cls()
    assert issubclass(UElem, Combination) and issubclass(DividedForm, Combination)
