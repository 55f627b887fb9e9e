"""The coefficient kernels `Engine.mul_sum` (with `mul`), `to_divided`,
`from_divided` and `Combination.sum` add integer numerators
over one common denominator.  Here they are held to the per-term
`Fraction` loops they replaced, kept below as references, on random
elements whose coefficients mix denominators and sizes: the same terms in
the same order, each coefficient an int or a Fraction that is not
integral."""

import itertools
import math
import random
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpbw.algebra import PRESET_NAMES, SuperAlgebraSpec, preset
from superpbw.coeffalg import monoid_preset
from superpbw.combinatorics import Multiset
from superpbw.engine import DividedForm, Engine, UElem, _exact, block_from_divided, \
    block_to_divided
from superpbw.verify import load_engine
from support import assert_read_only, assert_same, assert_same_terms, canonical_word

COEFFS = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), Fraction(-3, 4),
          10 ** 29 + 7, 1, -2]


def odd_square_spec():
    """osp12 with the odd square [x_g, x_g] = 3 x_2g: the presets' odd squares
    have even constants, so only a table like this makes the straightening
    core halve an odd one and hand mul a Fraction numerator."""
    spec = preset("osp12")
    brackets = dict(spec.brackets)
    brackets[('x', 'g'), ('x', 'g')] = ((('x', '2g'), 3),)
    brackets[('x', '-g'), ('x', '-g')] = ((('x', '-2g'), -3),)
    return SuperAlgebraSpec("osp12-odd3", spec.rank, spec.roots, spec.coroots, brackets)


ENGINES = ([load_engine(a, "trunc:3") for a in ("sl2", "sl21", "osp12")]
           + [Engine(odd_square_spec(), monoid_preset("trunc:3"))])
SUM_ENGINES = ENGINES + [load_engine(a, "trunc:3") for a in ("sl3", "sp4")]


# -- the per-term Fraction loops the kernels replaced --------------------------

def ref_mul(eng, x, y):
    """Each word of x times each word of y, its letters inserted one at a
    time by the straightening core (`_insert`, the memo not read), the
    coefficients applied at the end."""
    out, call = {}, []
    for wy, cy in y.terms.items():
        for wx, cx in x.terms.items():
            terms = {eng._encode(wx): 1}
            for L in eng._encode(wy):
                nxt = {}
                for w, c in terms.items():
                    for w2, c2 in eng._insert(w, L, call):
                        nxt[w2] = nxt.get(w2, 0) + c * c2
                terms = {w: c for w, c in nxt.items() if c}
            cxy = cx * cy
            for w, c in terms.items():
                w = eng._decode(w)
                out[w] = out.get(w, 0) + cxy * c
    return {k: _exact(c) for k, c in out.items() if c}


def ref_convert(eng, x, block_of):
    out = {}
    for w, c in x.terms.items():
        parts = [block_of(tuple(letters), eng._parity[sym], eng.monoid)
                 for sym, letters in itertools.groupby(w, itemgetter(0))]
        for choice in itertools.product(*parts):
            key = tuple(itertools.chain.from_iterable([part for part, _ in choice]))
            out[key] = out.get(key, 0) + c * math.prod([c2 for _, c2 in choice])
    return {k: _exact(c) for k, c in out.items() if c}


def ref_sum(elems, scalars=None):
    acc = {}
    if scalars is None:
        for x in elems:
            for k, c in x.terms.items():
                acc[k] = acc.get(k, 0) + c
    else:
        for x, s in zip(elems, scalars):
            for k, c in x.terms.items():
                acc[k] = acc.get(k, 0) + s * c
    return {k: _exact(c) for k, c in acc.items() if c}


# -- random elements ---------------------------------------------------------

@st.composite
def elements(draw, eng, cls=UElem):
    """Up to four canonical words of up to four letters, each with a
    coefficient from COEFFS, built without the kernels under test."""
    letters = [eng.letter(sym, a) for sym in eng.order.syms for a in eng.monoid.elements()]
    terms = draw(st.lists(st.tuples(st.lists(st.sampled_from(letters), max_size=4),
                                    st.sampled_from(COEFFS)), max_size=4))
    return cls([(canonical_word(eng, word), c) for word, c in terms])


@st.composite
def words_around_cartan(draw, eng):
    """1-3 scaled words of 2-4 blocks each.  A Cartan part of 2-4 letters on
    one or two h_i (h1 h1 h2 h2 and the like, whose blocks have several
    alternatives) sits between an optional block on a negative root and one
    on a positive root, of 1-2 letters on an even root and one on an odd
    root (one alternative each)."""
    spec = eng.spec
    elem = st.sampled_from(eng.monoid.elements())

    def root_block(positive):
        sym = ('x', draw(st.sampled_from([r.label for r in spec.roots if r.positive == positive])))
        size = 1 if eng._parity[sym] else draw(st.integers(1, 2))
        return [(sym, draw(elem)) for _ in range(size)]

    def word():
        cartan = draw(st.lists(st.tuples(st.integers(1, spec.rank).map(lambda i: ('h', i)), elem),
                               min_size=2, max_size=4))
        before = root_block(False) if draw(st.booleans()) else []
        blocks = len({sym for sym, _ in cartan}) + bool(before)
        after = root_block(True) if blocks < 2 or draw(st.booleans()) else []
        return canonical_word(eng, before + cartan + after)

    return UElem([(word(), draw(st.sampled_from(COEFFS))) for _ in range(draw(st.integers(1, 3)))])


@st.composite
def engine_and_data(draw):
    eng = draw(st.sampled_from(SUM_ENGINES))
    x = draw(elements(eng) | words_around_cartan(eng))
    return eng, x, draw(elements(eng)), draw(elements(eng, DividedForm))


@settings(max_examples=300, deadline=None)
@given(engine_and_data())
def test_mul_and_conversions_match_the_fraction_loops(data):
    """The engines stay warm across examples, so later ones read the block
    tables that earlier ones filled; a returned element cannot be written
    into, and a later conversion gives the same."""
    eng, x, y, df = data
    assert_same(eng.mul(x, y), ref_mul(eng, x, y))
    want = ref_convert(eng, x, block_to_divided)
    got = eng.to_divided(x)
    assert_same(got, want)
    assert_read_only(got)
    assert_same(eng.to_divided(x), want)
    assert_same(eng.from_divided(df), ref_convert(eng, df, block_from_divided))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sum_matches_the_fraction_loop(data):
    eng = data.draw(st.sampled_from(ENGINES))
    elems = data.draw(st.lists(elements(eng), max_size=4))
    scalars = data.draw(st.none() | st.lists(st.sampled_from(COEFFS + [0]),
                                             min_size=len(elems), max_size=len(elems) + 1))
    assert_same(UElem.sum(elems, scalars), ref_sum(elems, scalars))
    assert_same(UElem.sum(iter(elems)), ref_sum(elems))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mul_sum_is_the_sum_of_the_per_pair_products(data):
    """On sl2, sl21, osp12, osp12 with an odd square constant, sl3 and sp4:
    random pairs, zero elements among them, and no scalars or int, Fraction
    and zero ones.  One pair keeps the term order of the Fraction loop."""
    eng = data.draw(st.sampled_from(SUM_ENGINES))
    pairs = data.draw(st.lists(st.tuples(elements(eng), elements(eng)), max_size=4))
    scalars = data.draw(st.none() | st.lists(st.sampled_from(COEFFS + [0]),
                                             min_size=len(pairs), max_size=len(pairs)))
    assert_same_terms(eng.mul_sum(pairs, scalars),
                      UElem.sum([eng.mul(x, y) for x, y in pairs], scalars))
    if len(pairs) == 1:
        assert_same(eng.mul_sum(pairs), ref_mul(eng, *pairs[0]))


def test_mul_sum_of_nothing_or_of_zeros_is_zero():
    for eng in SUM_ENGINES:
        x = UElem({(eng.letter(eng.order.syms[0], (0,)),): Fraction(1, 2)})
        assert eng.mul_sum([]) == UElem() and eng.mul_sum((), ()) == UElem()
        assert eng.mul_sum([(UElem(), x), (x, UElem())]) == UElem()
        assert eng.mul_sum([(x, x), (x, x)], [Fraction(1, 3), 0]) == Fraction(1, 3) * eng.mul(x, x)
        assert eng.mul_sum([(x, x), (x, x)], [1, -1]) == UElem()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_product_is_the_left_fold_of_the_fraction_loop(data):
    """On the same six algebras: 0 to 4 random factors, zero elements and
    Fraction coefficients among them.  mul_sum of the one chain gives the
    terms, term order and coefficient types of the nested products, and of
    several chains the sum of the per-chain products."""
    eng = data.draw(st.sampled_from(SUM_ENGINES))
    factors = data.draw(st.lists(elements(eng), max_size=4))
    want = factors[0] if factors else eng.one()
    for y in factors[1:]:
        want = UElem._wrap(ref_mul(eng, want, y))
    assert_same(eng.mul_sum((factors,)), want.terms)
    chains = data.draw(st.lists(st.lists(elements(eng), max_size=3), max_size=3))
    scalars = data.draw(st.none() | st.lists(st.sampled_from(COEFFS + [0]),
                                             min_size=len(chains), max_size=len(chains)))
    assert_same_terms(eng.mul_sum(chains, scalars),
                      UElem.sum([eng.mul_sum((chain,)) for chain in chains], scalars))


def test_product_of_nothing_is_one_and_of_one_factor_is_the_factor():
    for eng in SUM_ENGINES:
        x = UElem({(eng.letter(eng.order.syms[0], (0,)),): Fraction(1, 2), (): 3})
        assert_same(eng.mul_sum(((),)), eng.one().terms)
        assert_same(eng.mul_sum([[]]), {(): 1})
        assert_same(eng.mul_sum(((x,),)), x.terms)
        assert_same(eng.mul_sum([iter([x])]), x.terms)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_memoized_factors_multiply_as_the_fraction_loop(name):
    """Chains of divided powers and of p-elements of |chi| >= 2, which have
    Fraction coefficients, over trunc:3: each factor is a memo value that
    mul_sum reads in its stored coded form, and the one chain's product is
    the left fold of the Fraction loop, terms, order and coefficient types,
    on the first call and again on the next.  Two chains with scalars give
    the sum of their products."""
    eng = load_engine(name, "trunc:3")
    rng = random.Random(11)
    elems, spec = eng.monoid.elements(), eng.spec

    def factor():
        if rng.random() < 0.5:
            alpha = rng.choice(spec.even_roots())
            return eng.divided_power(('x', alpha), rng.choice(elems), rng.randint(1, 3))
        chi = Multiset.of(*rng.choices(elems, k=rng.randint(2, 3)))
        return eng.p(rng.randint(1, spec.rank), chi)

    chains = [[factor() for _ in range(rng.randint(1, 3))] for _ in range(12)]
    assert any(type(c) is Fraction for chain in chains for y in chain for c in y.terms.values())
    for chain in chains:
        assert all(id(y) in eng._coded for y in chain)
        want = chain[0]
        for y in chain[1:]:
            want = UElem._wrap(ref_mul(eng, want, y))
        assert_same(eng.mul_sum((chain,)), want)
        assert_same(eng.mul_sum((chain,)), want)
    for pair in zip(chains, chains[1:]):
        assert_same_terms(eng.mul_sum(pair, (Fraction(-3, 4), 2)),
                          UElem.sum([eng.mul_sum((c,)) for c in pair], (Fraction(-3, 4), 2)))


def word_triples(eng, n, seed):
    """n triples of canonical words of 1 to 3 letters, each a UElem."""
    rng = random.Random(seed)
    letters = [eng.letter(sym, a) for sym in eng.order.syms for a in eng.monoid.elements()]
    def word():
        return UElem({canonical_word(eng, rng.choices(letters, k=rng.randint(1, 3))): 1})
    return [(word(), word(), word()) for _ in range(n)]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_letter_triples_multiply_associatively(name):
    """(X Y) Z, X (Y Z) and mul_sum of the chain X Y Z agree for every
    triple of letters over trunc:2, and for 300 random triples of canonical
    words over trunc:3.  A two-chain mul_sum with scalars is the sum of its
    per-chain products."""
    eng = load_engine(name, "trunc:2")
    gens = [eng.gen_elem(sym, a) for sym in eng.order.syms for a in eng.monoid.elements()]
    eng3 = load_engine(name, "trunc:3")
    words = word_triples(eng3, 300, seed=7)
    for e, triples in ((eng, itertools.product(gens, repeat=3)), (eng3, words)):
        for x, y, z in triples:
            xyz = e.mul_sum(((x, y, z),))
            assert e.mul(e.mul(x, y), z) == xyz
            assert e.mul(x, e.mul(y, z)) == xyz
    scalars = (Fraction(-3, 4), 2)
    for x, y, z in words:
        assert eng3.mul_sum(((x, y, z), (z, x)), scalars) == \
            UElem.sum((eng3.mul_sum(((x, y, z),)), eng3.mul(z, x)), scalars)


def test_an_odd_square_hands_mul_a_fraction_numerator():
    eng = ENGINES[-1]
    xg = eng.letter(('x', 'g'), (0,))
    x2g = eng._code(eng.letter(('x', '2g'), (0,)))
    xs = [(eng._encode((xg,)), 1)]
    assert eng._fold_into({}, xs, xs, []) == {x2g: Fraction(3, 2)}
    x = UElem({(xg,): Fraction(1, 3)})
    assert_same(eng.mul(x, x), ref_mul(eng, x, x))
    assert eng.mul(x, x).terms == {(eng.letter(('x', '2g'), (0,)),): Fraction(1, 6)}


def test_mul_keeps_the_order_of_the_per_pair_products():
    # h1 x[-a2] x[-a1-a2] gives x[-a2] x[-a1-a2] only through brackets that
    # cancel, so the word first comes from the unit term; had all of x been
    # folded at once, the h1 term's intermediate x[-a2] would have merged with
    # the unit's and put the word second
    eng = ENGINES[1]
    h1, xa1, xa2, xa12 = (eng.letter(s, (0,)) for s in
                          (('h', 1), ('x', '-a1'), ('x', '-a2'), ('x', '-a1-a2')))
    x = UElem({(h1,): Fraction(1, 2), (xa1,): Fraction(1, 2), (): Fraction(1, 2)})
    y = UElem({(xa2, xa12): Fraction(1, 2)})
    assert_same(eng.mul(x, y), ref_mul(eng, x, y))
    assert list(eng.mul(x, y).terms) == [(xa2, xa12, h1), (xa1, xa2, xa12), (xa2, xa12)]
    assert list(eng.mul_sum([(x, y)]).terms) == list(eng.mul(x, y).terms)


def test_blocks_with_several_alternatives_keep_their_order():
    # two Cartan blocks of two letters each, on sl21 (rank 2): both the block
    # over the divided basis and its expansion have two terms
    eng = ENGINES[1]
    word = canonical_word(eng, [eng.letter(('h', i), (1,)) for i in (1, 1, 2, 2)])
    x = UElem({word: Fraction(1, 2)})
    assert len(eng.to_divided(x).terms) == 4
    assert_same(eng.to_divided(x), ref_convert(eng, x, block_to_divided))
    df = DividedForm({word: Fraction(-3, 4)})
    assert len(eng.from_divided(df).terms) == 4
    assert_same(eng.from_divided(df), ref_convert(eng, df, block_from_divided))
