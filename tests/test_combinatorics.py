import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpbw import combinatorics
from superpbw.combinatorics import Multiset, binomial, enumerate_CP, enumerate_CS, \
    enumerate_sub, multinomial, multisets_upto, pi_product, verify_comb_identity
from superpbw.coeffalg import monoid_preset


def test_binomial_small():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(4, 0) == 1


def test_binomial_negative_upper():
    # falling-factorial convention: C(-1, 2) = (-1)(-2)/2 = 1
    assert binomial(-1, 2) == 1
    assert binomial(-1, 3) == -1
    assert binomial(-2, 2) == 3
    assert binomial(-3, 1) == -3
    assert binomial(-1, 0) == 1


@given(st.integers(-8, 8), st.integers(0, 8))
def test_binomial_pascal(n, r):
    assert binomial(n, r) + binomial(n, r + 1) == binomial(n + 1, r + 1)


def test_multiset_basics():
    chi = Multiset.of("a", "a", "b")
    assert chi.size == 3
    assert chi("a") == 2 and chi("b") == 1 and chi("c") == 0
    psi = Multiset.of("a")
    assert psi <= chi and not chi <= psi
    assert (chi - psi)("a") == 1
    assert chi + psi == Multiset.of("a", "a", "a", "b")
    assert 2 * psi == Multiset.of("a", "a")
    with pytest.raises(ValueError):
        chi - Multiset.of("c")


def test_multiset_partial_order_is_not_total():
    a, b = Multiset.of("a"), Multiset.of("b")
    assert not a <= b and not b <= a


def test_multisets_of_multisets_sort_by_their_pairs():
    # `<` is the sorting order, by (element, multiplicity) pairs, so a CS set
    # (a multiset of multisets) lists its parts in that order
    t, t2 = (1,), (2,)
    want = [Multiset({t: 1}), Multiset({t: 1, t2: 1}), Multiset({t: 2}), Multiset({t2: 1})]
    assert sorted(want[::-1]) == want
    assert [part for part, _ in Multiset.of(*want[::-1]).items()] == want
    a, b = Multiset.of("a"), Multiset.of("b")
    assert a < b and not b < a and not a <= b


def test_multinomial_examples():
    assert multinomial(Multiset.of("a")) == 1
    assert multinomial(Multiset.of("a", "a", "b")) == 3
    assert multinomial(Multiset.of("a", "a", "a", "b", "b")) == 10
    assert multinomial(Multiset()) == 1


def test_pi_product():
    mon = monoid_preset("poly")
    t, t2 = (1,), (2,)
    assert pi_product(Multiset(), mon) == mon.one
    assert pi_product(Multiset.of(t, t, t2), mon) == (4,)
    tr = monoid_preset("trunc:4")
    assert pi_product(Multiset.of((3,), (3,)), tr) is None


def test_multisets_upto_builds_only_what_it_keeps():
    """Counts read as digits, the first element's slowest; twenty elements
    under a cap of 3 give C(23, 3) = 1771 multisets, and a search over all
    4^20 count tuples would not end."""
    a, b = (0,), (1,)
    assert multisets_upto([a, b], 2) == [
        Multiset(), Multiset.of(b), Multiset.of(b, b),
        Multiset.of(a), Multiset.of(a, b), Multiset.of(a, a)]
    assert multisets_upto([a, b], 0) == [Multiset()]
    assert multisets_upto([], 3) == [Multiset()]
    got = multisets_upto(range(20), 3)
    assert len(got) == len(set(got)) == math.comb(23, 3) == 1771
    assert max(m.size for m in got) == 3


def test_enumerate_sub_counts():
    chi = Multiset.of("a")
    assert sorted(s.size for s in enumerate_sub(chi)) == [0, 1]
    chi = Multiset.of("a", "a", "b")
    subs = enumerate_sub(chi)
    assert len(subs) == 6  # (2+1)(1+1)
    assert len(set(subs)) == 6


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), max_size=3))
@settings(max_examples=60)
def test_enumerate_sub_product_formula(items):
    chi = Multiset(items)
    subs = enumerate_sub(chi)
    want = math.prod(m + 1 for _, m in chi.items())
    assert len(subs) == want == len(set(subs))


def naive_CS(chi, r):
    """Brute force: assign every phi <= chi a count in 0..r, filter."""
    phis = enumerate_sub(chi)
    out = set()
    for counts in itertools.product(range(r + 1), repeat=len(phis)):
        if sum(counts) != r:
            continue
        total = Multiset()
        ok = True
        for phi, c in zip(phis, counts):
            for _ in range(c):
                total = total + phi
        if total <= chi:
            out.add(Multiset(list(zip(phis, counts))))
    return out


def test_enumerate_CS_examples():
    empty = Multiset()
    # nothing to consume: all mass sits on phi = 0
    assert enumerate_CS(empty, 2) == (Multiset([(empty, 2)]),)
    chi = Multiset.of("a")
    assert len(enumerate_CS(chi, 1)) == 2
    # the r = 2 count is pinned by the brute-force enumerator
    got = enumerate_CS(chi, 2)
    assert set(got) == naive_CS(chi, 2)
    assert len(got) == 2


@pytest.mark.parametrize("items,r", [
    ([("a", 1)], 3),
    ([("a", 2)], 2),
    ([("a", 1), ("b", 1)], 2),
    ([("a", 2), ("b", 1)], 3),
    ([("a", 3)], 3),
])
def test_enumerate_CS_against_naive(items, r):
    chi = Multiset(items)
    got = enumerate_CS(chi, r)
    assert len(got) == len(set(got))
    assert set(got) == naive_CS(chi, r)


def ref_enumerate_CS(chi, r):
    """The reference CS(chi, r): a search over the phi of `enumerate_sub`
    that adds phi multisets and tests `<= chi` at every node, and builds
    each psi with `Multiset`'s own sort."""
    phis = enumerate_sub(chi)
    out = []

    def rec(idx, budget, consumed, acc):
        if idx == len(phis):
            if budget == 0:
                out.append(Multiset(acc))
            return
        phi = phis[idx]
        if not phi:
            for c in range(budget + 1):
                rec(idx + 1, budget - c, consumed, acc + [(phi, c)])
            return
        c = 0
        while c <= budget and consumed + c * phi <= chi:
            rec(idx + 1, budget - c, consumed + c * phi, acc + [(phi, c)])
            c += 1

    rec(0, r, Multiset(), [])
    return tuple(out)


def test_enumerate_CS_is_the_reference_search():
    """The same tuple as the reference: the same psi, in the same order,
    each with its pairs in the same order, for every chi on <= 4 elements
    with |chi| <= 4 and every r <= 4."""
    for size in range(5):
        for combo in itertools.combinations_with_replacement("abcd", size):
            chi = Multiset.of(*combo)
            for r in range(5):
                got, want = enumerate_CS(chi, r), ref_enumerate_CS(chi, r)
                assert type(got) is tuple and got == want, (chi, r)
                assert [psi.items() for psi in got] == [psi.items() for psi in want]


def test_enumerate_CS_builds_a_multiset_only_for_each_psi(monkeypatch):
    """The search runs on count vectors: it builds the 239 psi of
    CS(aabbcc, 4) and the 27 phi of a cold `enumerate_sub`, and no other
    Multiset, where adding phi multisets at each node built thousands."""
    built = []
    init, of_sorted = Multiset.__init__, Multiset._of_sorted.__func__

    def counted_init(self, items=()):
        built.append("init")
        init(self, items)

    def counted_of_sorted(cls, items):
        built.append("of_sorted")
        return of_sorted(cls, items)

    chi = Multiset.of(*"aabbcc")
    combinatorics._enumerate_sub.cache_clear()
    monkeypatch.setattr(Multiset, "__init__", counted_init)
    monkeypatch.setattr(Multiset, "_of_sorted", classmethod(counted_of_sorted))
    got = enumerate_CS(chi, 4)
    monkeypatch.undo()
    assert len(got) == 239 and len(enumerate_sub(chi)) == 27
    assert len(built) <= 239 + 27, (built.count("init"), built.count("of_sorted"))


def naive_CP(j, k):
    """Nested loops over part values."""
    out = set()
    for parts in itertools.combinations_with_replacement(range(j + 1), k):
        if sum(parts) == j:
            out.add(Multiset.of(*parts))
    return out


def test_enumerate_CP_examples():
    assert enumerate_CP(0, 3) == (Multiset.of(0, 0, 0),)
    assert set(enumerate_CP(2, 2)) == {Multiset.of(0, 2), Multiset.of(1, 1)}
    assert enumerate_CP(3, 1) == (Multiset.of(3),)
    assert enumerate_CP(3, 0) == ()
    assert enumerate_CP(0, 0) == (Multiset(),)


def test_enumerate_CP_against_naive():
    for j in range(9):
        for k in range(9):
            got = enumerate_CP(j, k)
            assert len(got) == len(set(got))
            assert set(got) == naive_CP(j, k)


def all_multisets(elems, size):
    for counts in itertools.product(range(size + 1), repeat=len(elems)):
        if sum(counts) == size:
            yield Multiset(list(zip(elems, counts)))


def test_vandermonde_convolution():
    """Two exact convolution laws, both pinned by brute force for |chi| <= 6:
    splitting an arrangement of chi at position k gives
        sum_{psi in F_k(chi)} m(psi) m(chi - psi) = m(chi),
    and the binomial (Vandermonde) form is
        sum_{psi in F_k(chi)} prod_s C(chi(s), psi(s)) = C(|chi|, k).
    """
    for size in range(0, 7):
        for chi in all_multisets(("a", "b", "c"), size):
            subs = enumerate_sub(chi)
            for k in range(size + 1):
                msum = 0
                bsum = 0
                for psi in [psi for psi in subs if psi.size == k]:
                    msum += multinomial(psi) * multinomial(chi - psi)
                    prod = 1
                    for s, m in chi.items():
                        prod *= binomial(m, psi(s))
                    bsum += prod
                assert msum == multinomial(chi)
                assert bsum == binomial(size, k)


def test_comb_identity_examples():
    # single element: both sides reduce to d
    for d in (-3, 1, 4):
        assert verify_comb_identity(Multiset.of("a"), d)
    assert verify_comb_identity(Multiset.of("a", "a"), 2)
    assert verify_comb_identity(Multiset.of("a", "b"), -1)
    with pytest.raises(ValueError):
        verify_comb_identity(Multiset(), 1)


def test_comb_identity_sweep_small():
    for size in range(1, 5):
        for psi1 in all_multisets(("a", "b", "c"), size):
            for d in range(-5, 6):
                assert verify_comb_identity(psi1, d), (psi1, d)


def test_memoized_enumerators_match_uncached():
    """The public enumerators return what the uncached bodies return, in the
    same order, on a cold cache and on a warm one; the result is a tuple, and
    a warm call hands out the very tuple the cache holds."""
    cached = (combinatorics._enumerate_sub, combinatorics._enumerate_CP)
    for fn in cached:
        fn.cache_clear()
    cases = []
    for size in range(5):
        for chi in all_multisets(("a", "b", "c"), size):
            cases.append((enumerate_sub, combinatorics._enumerate_sub, (chi,)))
    for j in range(7):
        for k in range(5):
            cases.append((enumerate_CP, combinatorics._enumerate_CP, (j, k)))
    for warm in (False, True):
        for public, body, args in cases:
            want = body.__wrapped__(*args)
            got = public(*args)
            assert type(got) is tuple and got == want, (public.__name__, args)
            if warm:
                assert got is public(*args), (public.__name__, args)
    assert all(fn.cache_info().hits >= fn.cache_info().misses > 0 for fn in cached)


def test_a_cached_multiset_cannot_be_changed():
    """A Multiset the process-wide tables hand out refuses a changed or a
    deleted attribute, so no caller can poison what the next call returns."""
    chi = Multiset.of((1,), (1,))
    with pytest.raises(AttributeError):
        enumerate_sub(chi)[1]._items = (((2,), 5),)
    with pytest.raises(AttributeError):
        del enumerate_sub(chi)[1]._items
    assert [s.items() for s in enumerate_sub(chi)] == [(), (((1,), 1),), (((1,), 2),)]


def test_enumerators_still_refuse_negative_arguments():
    with pytest.raises(ValueError):
        enumerate_CS(Multiset.of("a"), -1)
    with pytest.raises(ValueError):
        enumerate_CP(-1, 2)
