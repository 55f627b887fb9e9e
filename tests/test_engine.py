import itertools
from fractions import Fraction

import pytest

from superpbw.algebra import SpecError, SuperAlgebraSpec, preset
from superpbw.coeffalg import monoid_preset
from superpbw.combinatorics import Multiset
from superpbw.engine import AlgebraError, Combination, DividedForm, Engine, NEG_INF, Order, \
    UElem, block_to_divided
from superpbw.identities import divided_D
from superpbw.verify import load_engine
from support import ONE, T, T2, T3, assert_read_only, assert_same, assert_same_terms, \
    h_block


@pytest.fixture(scope="module")
def sl2():
    return load_engine("sl2", "poly")


@pytest.fixture(scope="module")
def sl21():
    return load_engine("sl21", "trunc:3")


@pytest.fixture(scope="module")
def osp12():
    return load_engine("osp12", "trunc:3")


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


def test_symbols_outside_the_order_raise_algebra_error():
    # a spec built by hand skips load_spec's check of bracket results
    spec = preset("sl2")
    brackets = dict(spec.brackets)
    brackets[('x', 'a'), ('x', '-a')] = ((('h', 1), 1), (('h', 7), 5))
    brackets[('x', '-a'), ('x', 'a')] = ((('h', 1), -1), (('h', 7), -5))
    eng = Engine(SuperAlgebraSpec("h7", spec.rank, spec.roots, spec.coroots, brackets),
                 monoid_preset("poly"))
    with pytest.raises(AlgebraError, match=r"symbol \('h', 7\) is not in the order"):
        eng.normalize([(('x', 'a'), ONE), (('x', '-a'), ONE), (('x', '-a'), ONE)])
    # so does a hand-built element whose letter names no symbol of the algebra
    sl2 = load_engine("sl2", "poly")
    with pytest.raises(AlgebraError, match=r"symbol \('h', 3\) is not in the order"):
        sl2.mul(sl2.gen_elem(('x', 'a'), T), UElem({((('h', 3), T),): 1}))


def test_divided_power_checks_its_letter_at_r_0(sl2):
    with pytest.raises(AlgebraError, match="no Cartan generator h9 in sl2"):
        sl2.divided_power(('h', 9), T, 0)
    with pytest.raises(SpecError, match="unknown root label 'zz'"):
        sl2.divided_power(('x', 'zz'), T, 0)
    assert sl2.divided_power(('x', 'a'), T, 0) == sl2.one()


def test_super_comm_of_zero_is_zero(sl21):
    even, odd = sl21.gen_elem(('x', 'a1'), T), sl21.gen_elem(('x', 'a2'), ONE)
    for x in (even, odd, even + odd, UElem()):
        assert sl21.super_comm(UElem(), x) == UElem()
        assert sl21.super_comm(x, UElem()) == UElem()
    with pytest.raises(AlgebraError, match="needs parity-homogeneous arguments"):
        sl21.super_comm(even + odd, odd)
    with pytest.raises(AlgebraError, match="needs parity-homogeneous arguments"):
        sl21.super_comm(even, even + odd)


def test_degree_of_p(sl2):
    for chi in (Multiset.of(T), Multiset.of(T, T), Multiset.of(T, T2, T2)):
        assert sl2.p(1, chi).degree == chi.size
    assert sl2.p(1, Multiset()).degree == 0
    assert UElem().degree == NEG_INF


def test_divided_power_factorials(sl2):
    cube = sl2.normalize([(('x', 'a'), T)] * 3)
    dv = sl2.to_divided(cube)
    key = ((('x', 'a'), T),) * 3
    assert dv.terms == {key: Fraction(6)}
    assert sl2.from_divided(dv) == cube


def test_to_divided_cartan(sl2):
    # h (x) t = -p(chi_t)
    dv = sl2.to_divided(sl2.gen_elem(('h', 1), T))
    assert dv.terms == {((('h', 1), T),): Fraction(-1)}
    # (h (x) t)^2 = 2 p(2 chi_t) - p(chi_{t^2})
    dv = sl2.to_divided(sl2.normalize([(('h', 1), T)] * 2))
    assert dv.terms == {
        ((('h', 1), T), (('h', 1), T)): Fraction(2),
        ((('h', 1), T2),): Fraction(-1),
    }


def test_p_basis_convert_examples():
    eng = load_engine("sl21", "poly")
    # (h_i (x) a)(h_i (x) b) = p_i(chi_a + chi_b) - p_i(chi_ab)
    x = eng.normalize([(('h', 1), T), (('h', 1), T2)])
    conv = eng.to_divided(x).terms
    assert conv == {
        ((('h', 1), T), (('h', 1), T2)): Fraction(1),
        ((('h', 1), T3),): Fraction(-1),
    }
    # distinct Cartan directions factor with coefficient +1
    x = eng.normalize([(('h', 1), T), (('h', 2), T2)])
    conv = eng.to_divided(x).terms
    assert conv == {((('h', 1), T), (('h', 2), T2)): Fraction(1)}
    # p_i(chi) itself converts to the unit coefficient
    chi = Multiset.of(T, T)
    conv = eng.to_divided(eng.p(1, chi)).terms
    assert conv == {((('h', 1), T), (('h', 1), T)): Fraction(1)}


def test_is_integral(sl2):
    x = sl2.divided_power(('x', 'a'), T, 2)
    assert sl2.is_integral(x)
    assert not sl2.is_integral(Fraction(1, 2) * x)
    cube = sl2.normalize([(('x', 'a'), T)] * 3)   # = 3! X(3chi_t)
    assert sl2.is_integral(cube)


def test_is_integral_takes_only_a_uelem(sl2):
    """1/2 (x_a (x) t)^(2) is not integral, but its key read as the PBW word
    x x gives x^2 / 2 = x^(2), which is: a DividedForm is refused, not misread."""
    letter = (('x', 'a'), T)
    df = DividedForm({(letter, letter): Fraction(1, 2)})
    assert not df.is_integral()
    with pytest.raises(AlgebraError, match="is_integral takes a UElem, not DividedForm"):
        sl2.is_integral(df)


def _word_letters(engine, size, rng_elems, syms):
    import random
    r = random.Random(size)
    return [(r.choice(syms), r.choice(rng_elems)) for _ in range(size)]


def all_letters(engine, elems):
    return [(s, e) for s in engine.spec.all_syms() for e in elems]


def test_pbw_associativity_randomized():
    eng = load_engine("sl21", "trunc:3")
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
        eng = load_engine(name, "trunc:3")
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
    eng = load_engine("sl2", "trunc:3")
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
    eng = load_engine("sl21", "trunc:3")
    letters = all_letters(eng, [ONE, T])
    import random
    rng = random.Random(11)
    for _ in range(30):
        x = eng.normalize([rng.choice(letters) for _ in range(rng.randint(1, 5))],
                          Fraction(rng.randint(1, 5), rng.randint(1, 4)))
        assert eng.from_divided(eng.to_divided(x)) == x


@pytest.mark.parametrize("chi", [
    Multiset.of((1, 0), (0, 2)),                  # u + v^2
    Multiset.of((1, 0), (1, 0), (1, 1)),          # 2u + uv
    Multiset.of((0, 0), (0, 1), (2, 1)),          # 1 + v + u^2 v
    Multiset.of((0, 1), (2, 0), (0, 3)),          # v + u^2 + v^3
])
def test_round_trip_p_on_poly2(chi):
    # poly2 is where degree order and exponent-tuple order part; chi and the
    # blocks of p's words are both in tuple order
    eng = load_engine("sl3", "poly2")
    for i in (1, 2):
        p = eng.p(i, chi)
        assert eng.from_divided(eng.to_divided(p)) == p


def test_integrality_order_independent():
    tri, lex = load_engine("sl21", "trunc:3"), load_engine("sl21", "trunc:3", "lex")
    spec = tri.spec
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
    eng = load_engine("sl2", "trunc:2")
    assert eng.enumerate_basis(0) == [()]
    keys = eng.enumerate_basis(1)
    assert len(keys) == 7
    assert len(set(keys)) == 7
    degs = sorted(map(len, keys))
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
        rebuilt = rebuilt + c * eng.from_divided(DividedForm({kneg + kzero + kpos: 1}))
    assert rebuilt == eng.adopt(x)
    # a pure Cartan element factors as (1, x, 1)
    _, factored = sl21.triangular_factor(sl21.p(1, Multiset.of(T)))
    assert all(kneg == () and kpos == () for _, kneg, kzero, kpos in factored)


def test_triangular_factor_sl2_instance():
    # normalize((x_a (x) t)(x_-a (x) 1)) splits as the ordered word plus a
    # pure-Cartan term: (x_-a (x) 1)(x_a (x) t) + (h (x) t) with h = -p(chi_t)
    eng = load_engine("sl2", "trunc:3")
    x = eng.normalize([(('x', 'a'), T), (('x', '-a'), ONE)])
    _, factored = eng.triangular_factor(x)
    as_dict = {(kneg, kzero, kpos): c for c, kneg, kzero, kpos in factored}
    word_key = (((('x', '-a'), ONE),), (), ((('x', 'a'), T),))
    cartan_key = ((), ((('h', 1), T),), ())
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
    lex = load_engine("sl2", "trunc:3", "lex")
    spec = lex.spec
    x = lex.normalize([(('x', 'a'), T), (('x', '-a'), ONE)])
    eng, factored = lex.triangular_factor(x)
    assert eng.order.is_triangular()
    for c, kneg, kzero, kpos in factored:
        for sym, _ in kneg:
            assert not spec.root(sym[1]).positive
        for sym, _ in kpos:
            assert spec.root(sym[1]).positive


def test_loop_algebra_bracket():
    # Laurent coefficients: [x+ (x) 1/t, x- (x) t] lands on h (x) 1
    eng = load_engine("sl2", "laurent")
    got = eng.normalize([(('x', 'a'), (-1,)), (('x', '-a'), (1,))])
    want = eng.normalize([(('x', '-a'), (1,)), (('x', 'a'), (-1,))]) \
        + eng.gen_elem(('h', 1), (0,))
    assert got == want


def test_two_variable_coefficients():
    eng = load_engine("sl2", "poly2")
    u, v = (1, 0), (0, 1)
    got = eng.normalize([(('x', 'a'), u), (('x', '-a'), v)])
    want = eng.normalize([(('x', '-a'), v), (('x', 'a'), u)]) + eng.gen_elem(('h', 1), (1, 1))
    assert got == want


def test_order_named():
    spec = preset("sl2")
    o = Order.named(spec, " -a, 1 ,a")          # whitespace is stripped per token
    assert o.syms == (('x', '-a'), ('h', 1), ('x', 'a')) and o.is_triangular()
    assert Order.named(spec, "triangular").syms == Order.triangular(spec).syms
    for name in ("lex", "lexicographic"):
        assert Order.named(spec, name).syms == Order.lexicographic(spec).syms
    for bad in ("a,1", "", "Triangular", "²,a,-a"):  # -a missing; no symbol; not a name; no index
        with pytest.raises(AlgebraError):
            Order.named(spec, bad)
    # the refusal names the first unknown, repeated or missing token
    for bad, fault in [("1,a,zz", "unknown 'zz'"), ("٣,a,-a", "unknown '٣'"), ("", "unknown ''"),
                       ("1,a,-a,a", "repeated 'a'"), ("1, 1,a,-a", "repeated '1'"),
                       ("1,a", "missing '-a'"), ("a,-a", "missing '1'")]:
        with pytest.raises(AlgebraError) as err:
            Order.named(spec, bad)
        assert str(err.value) == "order must list every root and Cartan symbol exactly once: " + fault


@pytest.mark.parametrize("name, order", [(n, o) for n in ("sl2", "sl3", "sp4", "sl21", "osp12")
                                         for o in ("triangular", "lex")]
                         + [("sl21", "-a1,-a2,-a1-a2,1,2,a1,a2,a1+a2")])
def test_order_parts_split_the_symbols_by_segment(name, order):
    o = Order.named(preset(name), order)
    assert len(o.parts) == 3
    for seg, part in zip((-1, 0, 1), o.parts):
        assert part == tuple(s for s in o.syms if s in part)        # in the order's order
        assert set(part) == {s for s in o.syms if o.segment[s] == seg}
    assert o.is_triangular() == (sum(o.parts, ()) == o.syms)
    assert o.is_triangular() == (order != "lex")


@pytest.mark.parametrize("name", ["sl2", "sl3", "sp4", "sl21", "osp12"])
def test_coefficients_are_int_or_proper_fraction(name):
    import random
    eng = load_engine(name, "trunc:3")
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
        # a second conversion reads the engine's block table
        df = eng.to_divided(x)
        assert_same(df, eng.to_divided(x))
        assert_same_terms(eng.from_divided(df), x)
    for i in range(1, eng.spec.rank + 1):
        for chi in (Multiset.of(T), Multiset.of(T, T2), Multiset.of(T, T)):
            block = h_block(eng, i, chi)
            assert_same(block_to_divided(block, 0, eng.monoid),
                        eng.to_divided(UElem({block: 1})))


def test_divided_round_trip_with_integer_p_lead():
    # p_1(chi_t + chi_t^2) = (h (x) t)(h (x) t^2) - ... has the int lead 1, so
    # the p-basis inversion divides ints; it must stay exact.
    eng = load_engine("sl2", "trunc:4")
    chi = Multiset.of(T, T2)
    assert type(eng.p(1, chi).terms[((('h', 1), T), (('h', 1), T2))]) is int
    x = eng.normalize([(('h', 1), T), (('h', 1), T2)], Fraction(1, 3))
    df = eng.to_divided(x)
    assert_same(df, eng.to_divided(x))
    block = h_block(eng, 1, chi)
    assert_same(block_to_divided(block, 0, eng.monoid), eng.to_divided(UElem({block: 1})))
    assert_same_terms(eng.from_divided(df), x)
    with pytest.raises(TypeError):
        eng.normalize([(('h', 1), T)], 0.5)


def _folded(eng, word, letter):
    """word * letter as the fold stores it in `_insert_memo`."""
    eng._fold_into({}, [(word, 1)], [((letter,), 1)], [])
    return eng._insert_memo[word, letter]


def test_memo_values_cannot_be_mutated():
    eng = load_engine("sl2", "poly")
    # the core runs on the engine's letter codes
    word = eng._encode(((('x', 'a'), T),))
    letter = eng._code((('x', '-a'), ONE))
    got = _folded(eng, word, letter)
    with pytest.raises(TypeError):
        got[0] = (word, 5)
    with pytest.raises(AttributeError):
        got.clear()
    assert _folded(eng, word, letter) == got
    assert {eng._decode(w): c for w, c in got} == \
        eng.normalize([(('x', 'a'), T), (('x', '-a'), ONE)]).terms
    assert eng.normalize([(('x', 'a'), T), (('x', '-a'), ONE)]) == \
        load_engine("sl2", "poly").normalize([(('x', 'a'), T), (('x', '-a'), ONE)])
    block = h_block(eng, 1, Multiset.of(T, T))
    conv = block_to_divided(block, 0, eng.monoid)
    with pytest.raises(AttributeError):
        conv.clear()
    assert block_to_divided(block, 0, eng.monoid) == conv


def test_p_hands_out_its_memo_value_read_only():
    """Clearing a returned p-element once zeroed every later p(1, chi) and
    broke to_divided of h[1]{t}^2 ("lost its leading monomial").  p hands
    out the memo's own value, and every write into it raises."""
    eng, fresh = load_engine("sl2", "poly"), load_engine("sl2", "poly")
    chi1, chi2 = Multiset.of(T), Multiset.of(T, T)
    assert eng.p(1, chi2) is eng.p(1, chi2) is eng.p_vector((1,), chi2)
    for chi in (chi1, chi2):
        assert_read_only(eng.p(1, chi))
        assert eng.p(1, chi) == fresh.p(1, chi)
    h2 = eng.normalize([(('h', 1), T)] * 2)
    assert eng.to_divided(h2) == fresh.to_divided(h2)
    assert eng.to_divided(h2).terms == {((('h', 1), T), (('h', 1), T)): 2,
                                        ((('h', 1), T2),): -1}


def test_p_checks_each_index_or_label_on_first_sight():
    """p reads a seen index's h-vector from its table, but a value the
    checks refuse stays refused: 1.0 == 1, yet after p(1, chi) the call
    p(1.0, chi) still names 1.0 as an unknown root label.  A refusal stores
    nothing, and a label and an index give their own h-vectors."""
    eng = load_engine("sl3", "trunc:4")
    chi = Multiset.of(T, T2)
    want = eng.p(1, chi)
    assert eng.p(1, chi) is want is eng.p_vector((1, 0), chi)
    for _ in range(2):
        with pytest.raises(SpecError, match="unknown root label 1.0"):
            eng.p(1.0, chi)
        with pytest.raises(AlgebraError, match="no Cartan generator h3"):
            eng.p(3, chi)
    assert eng.p(True, chi) is want
    assert eng.p(2, chi) is eng.p_vector((0, 1), chi)
    assert eng.p('a1', chi) is eng.p_vector(eng.spec.coroot('a1'), chi)
    assert eng.p('a1+a2', chi) == load_engine("sl3", "trunc:4").p('a1+a2', chi)


def test_divided_power_hands_out_its_memo_value_read_only():
    eng, fresh = load_engine("sl2", "poly"), load_engine("sl2", "poly")
    sym = ('x', 'a')
    want = fresh.divided_power(sym, T, 2)
    got = eng.divided_power(sym, T, 2)
    assert got is eng.divided_power(sym, T, 2) is eng._divpow_memo[(sym, T, 2)]
    assert_read_only(got)
    assert eng.divided_power(sym, T, 2) == want
    x3 = eng.normalize([(sym, T)] * 3)
    assert eng.mul(eng.divided_power(sym, T, 2), eng.gen_elem(sym, T)) == \
        Fraction(1, 2) * x3


def test_a_memoized_factor_is_encoded_once_per_engine(monkeypatch):
    """A divided power and a p-element are encoded as they enter their memo;
    every later mul_sum reads that form and encodes only its other factors."""
    eng = load_engine("sl3", "trunc:4")
    u = eng.divided_power(('x', 'a1'), T, 2)
    v = eng.p(1, Multiset.of(T, T2))
    x = eng.gen_elem(('x', '-a1'), ONE)
    want = eng.mul_sum(((u, v, x), (v, u)), (1, -1))
    encoded, encode = [], eng._encode
    monkeypatch.setattr(eng, "_encode", lambda word: encoded.append(word) or encode(word))
    assert eng.mul_sum(((u, v), (v, u)), (1, -1)) == eng.super_comm(u, v)
    assert encoded == []
    assert eng.mul_sum(((u, v, x), (v, u)), (1, -1)) == want
    assert encoded == list(x.terms)


W1 = (((('x', 'a'), T), 1),)   # the word x[a]{t}
W2 = (((('h', 1), T), 2),)     # the word h[1]{t}^2


def test_elements_are_read_only():
    """Built from pairs, from a dict, from another element's terms, or by
    the arithmetic and the engine: every write raises, and the terms of an
    element build an equal one."""
    for cls in (UElem, DividedForm):
        x = cls({W1: 1, W2: Fraction(-1, 2)})
        for y in (x, cls([(W1, 1)]), cls(), x + x, -x, cls.sum([x], [3])):
            assert_read_only(y)
            assert cls(y.terms) == y
    eng = load_engine("sl2", "poly")
    h = eng.normalize([(('x', 'a'), T), (('h', 1), T), (('x', '-a'), ONE)], Fraction(1, 3))
    for y in (h, eng.mul(h, h), eng.to_divided(h), eng.from_divided(eng.to_divided(h))):
        assert_read_only(y)
        assert type(y)(y.terms) == y


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
