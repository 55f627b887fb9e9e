"""The Cartan block: `cartan_p`/`p_vector` and the block conversion
`block_to_divided` in the commutative ring, against a reference that builds
p(chi) through the non-commutative straightening core (`Engine.mul`) and
inverts it the same way, and `cartan_p` against its closed form as an
exponential; the process-wide tables, the block cache of `to_divided`
among them."""

import itertools
import math
import sys
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpbw.algebra import preset
from superpbw.coeffalg import MonoidBasis, monoid_preset
from superpbw.combinatorics import EMPTY, Multiset, enumerate_sub, multinomial, pi_product
from superpbw import combinatorics, identities
from superpbw import engine as engine_mod
from superpbw.engine import AlgebraError, DividedForm, Engine, UElem, _exact, \
    block_from_divided, block_to_divided, cartan_p
from superpbw.verify import get_engine, load_engine
from support import ONE, T, T2, T3, assert_same_terms, h_block

PRESETS = ["sl2", "sl3", "sp4", "sl21", "osp12"]
POLY2 = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]


def unit(engine, i):
    return tuple(1 if j == i else 0 for j in range(1, engine.spec.rank + 1))


class StraighteningCartan:
    """Test-only reference: p(chi) by its recursion, each product formed by
    `Engine.mul`, and the p_i-basis expansion of a Cartan monomial by
    triangular elimination on those elements.  Its tables live on the
    instance, one per engine."""

    def __init__(self, engine):
        self.engine = engine
        self._p = {}
        self._hmono = {}

    def p_vector(self, hvec, chi):
        eng = self.engine
        key = (tuple(hvec), chi)
        if key not in self._p:
            if not chi:
                out = eng.one()
            else:
                terms, scalars = [], []
                for psi in enumerate_sub(chi):
                    a = pi_product(psi, eng.monoid) if psi else None
                    if a is not None:
                        terms.append(eng.mul(eng.hvec_elem(hvec, a),
                                             self.p_vector(hvec, chi - psi)))
                        scalars.append(Fraction(-multinomial(psi), chi.size))
                out = UElem.sum(terms, scalars)
            self._p[key] = out
        return self._p[key]

    def h_mono_to_p(self, i, chi):
        eng = self.engine
        key = (i, chi)
        if key in self._hmono:
            return self._hmono[key]
        if not chi:
            return ((EMPTY, 1),)
        P = self.p_vector(unit(eng, i), chi)
        word = h_block(eng, i, chi)
        lead = P.terms.get(word)
        if not lead:
            raise AlgebraError("p_%d(%r) lost its leading monomial" % (i, chi))
        rest = P - UElem({word: lead})
        out = {chi: Fraction(1, lead)}
        for w, c in rest.terms.items():
            sub_chi = Multiset.of(*(a for _, a in w))
            assert sub_chi.size < chi.size
            for phi, c2 in self.h_mono_to_p(i, sub_chi):
                out[phi] = out.get(phi, 0) - Fraction(c, lead) * c2
        out = tuple((phi, _exact(c)) for phi, c in out.items() if c)
        self._hmono[key] = out
        return out

    def to_divided_h_mono(self, i, chi):
        """The divided form of the monomial prod_a (h_i (x) a)^chi(a)."""
        return DividedForm({h_block(self.engine, i, phi): c for phi, c in self.h_mono_to_p(i, chi)})


def chis(elems, cap):
    """Every multiset over elems of size 1..cap."""
    return [Multiset.of(*c) for n in range(1, cap + 1)
            for c in itertools.combinations_with_replacement(elems, n)]


def _check_against_reference(eng, elems, cap):
    ref = StraighteningCartan(eng)
    spec = eng.spec
    hvecs = {unit(eng, i) for i in range(1, spec.rank + 1)}
    hvecs |= {tuple(spec.coroot(r.label)) for r in spec.roots}
    for chi in chis(elems, cap):
        for hvec in sorted(hvecs):
            want = ref.p_vector(hvec, chi)
            got = eng.p_vector(hvec, chi)
            assert_same_terms(got, want)
            assert UElem({tuple(sorted(m, key=eng._key)): c
                          for m, c in cartan_p(hvec, chi, eng.monoid)}) == want
        for i in range(1, spec.rank + 1):
            assert_same_terms(block_to_divided(h_block(eng, i, chi), 0, eng.monoid),
                              ref.to_divided_h_mono(i, chi))


@pytest.mark.parametrize("name", PRESETS)
def test_cartan_ring_matches_straightening_reference(name):
    """Every Cartan index and every coroot, |chi| <= 4 over trunc:4."""
    _check_against_reference(load_engine(name), [ONE, T, T2, T3], 4)


@pytest.mark.parametrize("order", ["triangular", "lex"])
def test_cartan_ring_matches_straightening_reference_poly2(order):
    # poly2 is where degree order and exponent-tuple order part, and the
    # engine's letter order must stay the tuple order of cartan_p's monomials
    _check_against_reference(load_engine("sl2", "poly2", order), POLY2, 4)


@pytest.mark.parametrize("chi", [
    Multiset.of((1, 0), (0, 2)),                  # u + v^2
    Multiset.of((0, 1), (2, 0), (0, 3)),          # v + u^2 + v^3
    Multiset.of((1, 0), (1, 0), (1, 1)),          # 2u + uv
])
def test_h_blocks_are_cartan_p_monomials_as_built(chi):
    """Inside a block a canonical word orders letters by exponent tuple, as
    cartan_p builds its monomials, so an h-block converts with no re-sort."""
    eng = load_engine("sl3", "poly2")
    for i in (1, 2):
        hvec = unit(eng, i)[:i]
        block = tuple(sorted((('h', i), a) for a, e in chi.items() for _ in range(e)))
        assert block_from_divided(block, 0, eng.monoid) == cartan_p(hvec, chi, eng.monoid)
        for mono, _ in cartan_p(hvec, chi, eng.monoid):
            assert mono == tuple(sorted(mono, key=eng._key))


def closed_form_p(chi, monoid):
    """p(chi) for h = h_1 without the recursion of `cartan_p`:

        p(chi) = [z^chi] exp(-sum_{0 != psi <= chi} (m(psi)/|psi|) (h (x) pi(psi)) z^psi),

    the exponential summed as a power series in z truncated to the
    sub-multisets of chi, over the commutative ring of the letters h (x) a (a
    monomial is a sorted tuple of letters).  As a dict monomial -> coeff."""
    subs = [Multiset(zip((a for a, _ in chi.items()), ms))
            for ms in itertools.product(*(range(m + 1) for _, m in chi.items()))]
    log = {psi: ((('h', 1), pi_product(psi, monoid)), Fraction(-multinomial(psi), psi.size))
           for psi in subs if psi and pi_product(psi, monoid) is not None}
    power = {EMPTY: {(): Fraction(1)}}          # log^n / n!, by power of z
    out = {}
    for n in range(1, chi.size + 1):
        nxt = {}
        for psi1, f in power.items():
            for psi2, (letter, c2) in log.items():
                if not psi1 + psi2 <= chi:
                    continue
                acc = nxt.setdefault(psi1 + psi2, {})
                for mono, c1 in f.items():
                    mono = tuple(sorted(mono + (letter,)))
                    acc[mono] = acc.get(mono, 0) + c1 * c2 / n
        power = nxt
        for mono, c in power.get(chi, {}).items():
            out[mono] = out.get(mono, 0) + c
    return {mono: c for mono, c in out.items() if c}


@pytest.mark.parametrize("monoid, elems, cap, count", [
    ("trunc:4", [ONE, T, T2, T3], 4, 69),
    ("poly2", [(0, 0), (1, 0), (0, 1), (1, 1)], 3, 34),
])
def test_cartan_p_matches_closed_form(monoid, elems, cap, count):
    mon = monoid_preset(monoid)
    cases = chis(elems, cap)
    assert len(cases) == count
    for chi in cases:
        assert dict(cartan_p((1,), chi, mon)) == closed_form_p(chi, mon), (monoid, chi)


def test_process_tables_are_keyed_by_monoid_fields():
    for monoid in ("trunc:2", "trunc:4", "poly"):
        eng = load_engine("sl2", monoid)
        ref = StraighteningCartan(eng)
        small = Multiset.of(*(a for a in (T, T, T2) if eng.monoid.mul(a, ONE) is not None))
        assert eng.p(1, small) == ref.p_vector((1,), small), monoid
        h = eng.normalize([(('h', 1), a) for a, e in small.items() for _ in range(e)])
        assert eng.to_divided(h) == ref.to_divided_h_mono(1, small), monoid
    # one name, two truncation bounds: neither may see the other's entries
    m2 = MonoidBasis("m", ("t",), trunc=2)
    m4 = MonoidBasis("m", ("t",), trunc=4)
    chi = Multiset.of(T, T)
    got2, got4 = cartan_p((1,), chi, m2), cartan_p((1,), chi, m4)
    assert got2 != got4
    for m, got in ((m2, got2), (m4, got4)):
        eng = Engine(preset("sl2"), m)
        ref = StraighteningCartan(eng)
        assert eng.p(1, chi) == ref.p_vector((1,), chi)
        assert_same_terms(block_to_divided(h_block(eng, 1, chi), 0, eng.monoid),
                          ref.to_divided_h_mono(1, chi))
        h = eng.normalize([(('h', 1), T)] * 2)
        assert eng.to_divided(h) == ref.to_divided_h_mono(1, chi)


def _frame_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_the_cartan_ring_does_not_recurse_on_large_chi():
    """200 copies of t over trunc:2 on a cold cache, with 100 frames to spare:
    one Python call per element of chi would overflow."""
    mon, chi = monoid_preset("trunc:2"), 200 * Multiset.of(T)
    letter = (('h', 1), T)
    engine_mod._cartan_p.cache_clear()
    block_to_divided.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 100)
    try:
        p = cartan_p((1,), chi, mon)
        engine_mod._cartan_p.cache_clear()      # block_to_divided fills it again
        conv = block_to_divided((letter,) * 200, 0, mon)
    finally:
        sys.setrecursionlimit(limit)
    # p(n t) = -(1/n) (h (x) t) p((n - 1) t), as t^2 = 0
    c = Fraction(1)
    for k in range(1, 201):
        c = -c / k
    assert p == (((letter,) * 200, c),)
    assert conv == (((letter,) * 200, 1 / c),)


def test_the_cartan_inverse_does_not_recurse_down_its_remainders():
    """h^60 over trunc:2: p(n{1}) = (-1)^n binomial(h, n) leaves every lower
    degree in the remainder, a chain of 60 monomials, and
    h^m = sum_k (-1)^k k! S(m, k) p(k{1}) with S the Stirling numbers of the
    second kind.  Recursing on each remainder would overflow."""
    mon, m = monoid_preset("trunc:2"), 60
    letter = (('h', 1), ONE)
    engine_mod._cartan_p.cache_clear()
    block_to_divided.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 100)
    try:
        conv = block_to_divided((letter,) * m, 0, mon)
    finally:
        sys.setrecursionlimit(limit)
    stirling = [1] + [0] * m            # S(n, k) for the current n, k = 0..m
    for n in range(1, m + 1):
        stirling = [0] + [k * stirling[k] + stirling[k - 1] for k in range(1, m + 1)]
    assert dict(conv) == {(letter,) * k: (-1) ** k * math.factorial(k) * stirling[k]
                          for k in range(1, m + 1)}


def test_cartan_caches_are_shared_across_orders():
    """A lexicographic engine, with a monoid object of its own, converts what
    a triangular one has converted from cache hits alone."""
    tri, lex = load_engine("sl3"), load_engine("sl3", order="lex")
    h = tri.normalize([(('h', 1), T), (('h', 1), T2), (('h', 2), T), (('h', 2), T)])
    df = tri.to_divided(h)
    assert tri.from_divided(df) == h
    caches = (engine_mod._cartan_p, block_to_divided)
    before = [fn.cache_info() for fn in caches]
    # both orders put h_1 before h_2, so the words agree
    assert lex.to_divided(lex.adopt(h)) == df
    assert lex.from_divided(df) == h
    for fn, old in zip(caches, before):
        new = fn.cache_info()
        assert new.hits > old.hits and new.misses == old.misses, fn


def test_shared_values_cannot_be_corrupted():
    eng, fresh = load_engine("sl3"), load_engine("sl3")
    ref = StraighteningCartan(fresh)
    chi = Multiset.of(T, T, T2)
    h = eng.normalize([(('h', 1), T), (('h', 1), T), (('h', 1), T2), (('h', 2), T)])
    want_df = fresh.to_divided(h)
    # returned elements are copies
    eng.p(1, chi).terms.clear()
    got = eng.p_vector((1, 0), chi)
    got.terms[()] = 7
    eng.to_divided(h).terms.clear()
    eng.to_divided(h).terms[()] = 3
    # returned conversion tuples are immutable
    for conv in (cartan_p((1, 0), chi, eng.monoid),
                 block_to_divided(h_block(eng, 1, chi), 0, eng.monoid),
                 block_to_divided(((('x', 'a1'), T),) * 2, 0, eng.monoid)):
        with pytest.raises(TypeError):
            conv[0] = conv[0]
        with pytest.raises(AttributeError):
            conv.clear()
    assert eng.p(1, chi) == ref.p_vector((1, 0), chi)
    assert eng.p_vector((1, 0), chi) == ref.p_vector((1, 0), chi)
    assert_same_terms(block_to_divided(h_block(eng, 1, chi), 0, eng.monoid),
                      ref.to_divided_h_mono(1, chi))
    assert eng.to_divided(h) == want_df
    assert eng.from_divided(eng.to_divided(h)) == h



def _frozen(value):
    """Whether value is built of tuples of immutable leaves all the way down."""
    if isinstance(value, tuple):
        return all(map(_frozen, value))
    if isinstance(value, Multiset):
        return _frozen(value.items())
    return value is None or type(value) in (int, Fraction, str)


def test_every_process_wide_table_holds_tuples():
    """Each functools table of engine, combinatorics and identities, the
    Cartan-past-root plan among them, hands out tuples of immutable values,
    so a caller that tries to change one gets an error, not a poisoned
    cache.  A table added without a sample here fails the first assert."""
    mon = monoid_preset("trunc:4")
    chi = Multiset.of(T, T, T2)
    samples = {
        engine_mod._cartan_p: ((1, 0), chi, mon),
        engine_mod.block_to_divided: (((('h', 1), T), (('h', 1), T2)), 0, mon),
        combinatorics._enumerate_sub: (chi,),
        combinatorics._enumerate_CP: (4, 3),
        identities._cartan_plan: (chi, 2, mon),
    }
    tables = {v for m in (engine_mod, combinatorics, identities) for v in vars(m).values()
              if hasattr(v, "cache_info") and v.__module__ == m.__name__}
    assert tables == set(samples)
    for table, args in samples.items():
        value = table(*args)
        assert value and _frozen(value), table
        with pytest.raises(TypeError):
            value[0] = value[0]
        with pytest.raises(AttributeError):
            value.clear()
        assert table(*args) is value


# -- the block cache of to_divided: a warm cache gives what a cold one does --

CONFIGS = [("sl3", "trunc:4", "triangular"), ("sl21", "trunc:4", "triangular"),
           ("osp12", "trunc:4", "triangular"), ("sl2", "poly2", "triangular"),
           ("sl2", "poly2", "lex")]


def _elems(monoid):
    return POLY2 if monoid == "poly2" else [ONE, T, T2, T3]


@st.composite
def canonical_elements(draw):
    """(config, words): a config and 1-3 scaled words of up to 5 letters,
    about half of them Cartan letters on any h_i."""
    config = draw(st.sampled_from(CONFIGS))
    spec, elems = preset(config[0]), _elems(config[1])
    cartan = [(('h', i), a) for i in range(1, spec.rank + 1) for a in elems]
    roots = [(('x', r.label), a) for r in spec.roots for a in elems]
    letter = st.one_of(st.sampled_from(cartan), st.sampled_from(roots))
    coeff = st.sampled_from([1, -2, 3, Fraction(1, 2), Fraction(-3, 4)])
    words = draw(st.lists(st.tuples(st.lists(letter, min_size=1, max_size=5), coeff),
                          min_size=1, max_size=3))
    return config, words


@settings(max_examples=60, deadline=None)
@given(canonical_elements())
def test_warm_block_memo_matches_fresh_engine(case):
    config, words = case
    warm = get_engine(*config)
    x = UElem.sum([warm.normalize(w, c) for w, c in words])
    df = warm.to_divided(x)
    block_to_divided.cache_clear()
    engine_mod._cartan_p.cache_clear()
    assert_same_terms(df, load_engine(*config).to_divided(x))
    assert warm.from_divided(df) == x


def test_block_memo_covers_odd_and_cartan_blocks():
    eng = load_engine("sl21")
    x = eng.normalize([(('x', 'a2'), T), (('h', 1), T), (('h', 1), T2), (('h', 2), ONE),
                       (('x', 'a1'), T), (('x', 'a1'), T)])
    block_to_divided.cache_clear()
    df = eng.to_divided(x)
    assert eng.from_divided(df) == x
    blocks = {(tuple(letters), eng._parity[sym]) for w in x.terms
              for sym, letters in itertools.groupby(w, itemgetter(0))}
    assert {('h', 1), ('h', 2), ('x', 'a2'), ('x', 'a1')} <= {block[0][0] for block, _ in blocks}
    # to_divided asked the cache for each of these blocks, and for nothing else
    before = block_to_divided.cache_info()
    assert before.currsize == len(blocks)
    for block, odd in blocks:
        block_to_divided(block, odd, eng.monoid)
    after = block_to_divided.cache_info()
    assert (after.hits, after.misses) == (before.hits + len(blocks), before.misses)
    # a second conversion on the same engine reads the engine's own block
    # table: it asks the process-wide cache for nothing
    assert eng.to_divided(x) == df
    assert block_to_divided.cache_info() == after
    assert df == load_engine("sl21").to_divided(x)


@pytest.mark.parametrize("names", [("sl3", "sl21"), ("sl21", "sl3")],
                         ids=["sl3-first", "sl21-first"])
def test_block_cache_keys_by_parity(names):
    """The label a2 is even on sl3 and odd on sl21: the square of x[a2] (x) 1
    converts on the one and is refused on the other, whichever comes first."""
    word = ((('x', 'a2'), ONE),) * 2
    block_to_divided.cache_clear()
    for name in names:
        eng = load_engine(name)
        if name == "sl3":
            assert eng.to_divided(UElem({word: 1})) == DividedForm({word: 2})
        else:
            with pytest.raises(AlgebraError, match="odd letter with exponent > 1"):
                eng.to_divided(UElem({word: 1}))
