"""Multisets with multinomials, submultiset enumeration, and the partition-style
index sets that drive the straightening sums."""

import functools
import itertools
import math


def binomial(n, r):
    """Falling-factorial binomial n(n-1)...(n-r+1)/r!.

    Valid for negative n, e.g. binomial(-1, 2) == 1.  Always an integer.
    """
    if r < 0:
        return 0
    num = 1
    for j in range(r):
        num *= n - j
    return num // math.factorial(r)


class Multiset:
    """Finitely supported multiplicity function chi: S -> Z>=0 over an ordered
    element type.  Immutable; iteration follows the element order."""

    __slots__ = ("_items",)

    def __init__(self, items=()):
        acc = {}
        pairs = items.items() if isinstance(items, dict) else items
        for e, m in pairs:
            if m < 0:
                raise ValueError("negative multiplicity %r for %r" % (m, e))
            if m:
                acc[e] = acc.get(e, 0) + m
        object.__setattr__(self, "_items", tuple(sorted(acc.items())))

    # the process-wide tables hand out shared Multisets: no one may change one
    def __setattr__(self, name, value):
        raise AttributeError("Multiset is immutable")

    def __delattr__(self, name):
        raise AttributeError("Multiset is immutable")

    @classmethod
    def _of_sorted(cls, items):
        """The Multiset of an items tuple already as `items()` returns one:
        positive multiplicities, elements distinct and in order.  Nothing is
        checked or sorted, so no `__lt__` runs on multisets of multisets."""
        out = object.__new__(cls)
        object.__setattr__(out, "_items", items)
        return out

    @classmethod
    def of(cls, *elems):
        """Multiset from a listing with repetitions, e.g. of(a, a, b) = 2chi_a + chi_b."""
        return cls((e, 1) for e in elems)

    def items(self):
        return self._items

    @property
    def size(self):
        return sum(m for _, m in self._items)

    def __call__(self, e):
        for s, m in self._items:
            if s == e:
                return m
        return 0

    def __add__(self, other):
        return Multiset(self._items + other._items)

    def __sub__(self, other):
        acc = dict(self._items)
        for e, m in other._items:
            have = acc.get(e, 0)
            if m > have:
                raise ValueError("not a submultiset: %r exceeds %r at %r" % (other, self, e))
            acc[e] = have - m
        return Multiset(acc)

    def __rmul__(self, n):
        if n < 0:
            raise ValueError("negative multiple")
        return Multiset((e, n * m) for e, m in self._items)

    def __le__(self, other):
        if not isinstance(other, Multiset):
            return NotImplemented
        return all(m <= other(e) for e, m in self._items)

    def __lt__(self, other):
        """The order sorting uses, by (element, multiplicity) pairs; it orders
        multisets of multisets too.  `<=` is the submultiset relation."""
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._items < other._items

    def __eq__(self, other):
        return isinstance(other, Multiset) and self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __bool__(self):
        return bool(self._items)

    def __repr__(self):
        if not self._items:
            return "Multiset()"
        return "Multiset(%s)" % ", ".join("%r:%d" % (e, m) for e, m in self._items)


EMPTY = Multiset()


def multisets_upto(elems, cap):
    """All multisets over elems with size <= cap; each count is drawn within
    what the earlier ones leave, so only the C(len + cap, cap) kept are built."""
    counts = [()]
    for _ in elems:
        counts = [c + (k,) for c in counts for k in range(cap - sum(c) + 1)]
    return [Multiset(zip(elems, c)) for c in counts]


def factorial_product(psi):
    """prod_s psi(s)!, the denominator of the divided powers a multiset names."""
    return math.prod(math.factorial(m) for _, m in psi.items())


def multinomial(psi):
    """|psi|! / prod_s psi(s)!, the multinomial coefficient; a positive integer."""
    return math.factorial(psi.size) // factorial_product(psi)


def pi_product(psi, monoid):
    """Monoid product prod a^psi(a); identity for psi = 0, None if any partial
    product hits the absorbing zero of a truncated monoid."""
    out = monoid.one
    for a, m in psi.items():
        p = monoid.power(a, m)
        out = monoid.mul(out, p)
        if out is None:
            return None
    return out


# The index sets depend on the arguments alone, so one cache per process
# serves every engine; callers get the cached tuples, which are immutable.

def enumerate_sub(chi):
    """All psi <= chi, each exactly once: prod_s (chi(s)+1) of them, as a tuple."""
    return _enumerate_sub(chi)


@functools.cache
def _enumerate_sub(chi):
    elems = [e for e, _ in chi.items()]
    return tuple(Multiset(zip(elems, counts)) for counts in sub_counts(chi))


def sub_counts(chi):
    """The count vector over chi's support of each psi <= chi, in the order
    of `enumerate_sub(chi)`."""
    return tuple(itertools.product(*(range(m + 1) for _, m in chi.items())))


def enumerate_CS(chi, r):
    """All psi: F -> Z>=0 with |psi| = r and sum_phi psi(phi)*phi <= chi (a tuple).

    Elements are multisets of multisets; mass on the empty multiset phi = 0 is
    allowed and absorbs any leftover budget.  A depth-first search over the
    phi of `enumerate_sub` in its order, each read as its count vector over
    chi's support (`sub_counts`), with the room chi - sum psi(phi)*phi left
    as an int tuple: psi(0) takes any part of the budget, and a nonzero phi
    at most min_s room(s) // phi(s) of it.  A branch whose budget exceeds
    the room left is cut, since each count on a nonzero phi uses at least one
    unit of room.  The psi come in the order of their count vectors, and a
    Multiset is built only for each psi emitted, its pairs put in Multiset
    order by the rank of each phi, sorted once per call.  Uncached: its one
    caller, `identities._cartan_plan`, caches what it builds from the result.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    phis = enumerate_sub(chi)   # phis[0] is the empty multiset
    vecs = sub_counts(chi)
    sizes = [sum(v) for v in vecs]
    rank = [0] * len(phis)
    for n, k in enumerate(sorted(range(len(phis)), key=lambda k: phis[k].items())):
        rank[k] = n
    out = []
    path = []                   # (rank, index, count) of each nonzero count so far

    def rec(idx, budget, room, left):
        if budget > left:
            return
        if budget == 0:
            out.append(Multiset._of_sorted(tuple((phis[k], c) for _, k, c in sorted(path))))
            return
        if idx == len(phis):
            return
        v = vecs[idx]
        rec(idx + 1, budget, room, left)
        for c in range(1, min(budget, min(a // m for a, m in zip(room, v) if m)) + 1):
            path.append((rank[idx], idx, c))
            rec(idx + 1, budget - c, tuple(a - c * m for a, m in zip(room, v)),
                left - c * sizes[idx])
            path.pop()

    for c in range(r + 1):      # psi(0) = c; the last count vector is chi's own
        path[:] = [(rank[0], 0, c)] if c else []
        rec(1, r - c, vecs[-1], chi.size)
    return tuple(out)


def enumerate_CP(j, k):
    """All lam: Z>=0 -> Z>=0 with |lam| = k and sum_m lam(m)*m = j, as a tuple.

    Parts equal to 0 count toward k but not j, so these are partitions of j
    into at most k parts, padded with zeros.
    """
    return _enumerate_CP(j, k)


@functools.cache
def _enumerate_CP(j, k):
    if j < 0 or k < 0:
        raise ValueError("j, k must be >= 0")
    out = []

    def parts(remaining, max_part, nparts, acc):
        if remaining == 0:
            lam = list(acc)
            lam.append((0, k - nparts))
            out.append(Multiset(lam))
            return
        if nparts == k:
            return
        for p in range(min(remaining, max_part), 0, -1):
            c = 1
            while c * p <= remaining and nparts + c <= k:
                parts(remaining - c * p, p - 1, nparts + c, acc + [(p, c)])
                c += 1

    parts(j, j, 0, [])
    return tuple(out)


def verify_comb_identity(psi1, d):
    """Exact check of the binomial-multinomial identity underlying the
    Cartan-past-root straightening law:

        |psi1| * C(|psi1|-1+d, |psi1|) * m(psi1)
            == d * sum_{0 != psi <= psi1} m(psi) * C(|psi1|-|psi|-1+d, |psi1|-|psi|) * m(psi1-psi)

    with C the integer-argument binomial above (d may be negative).
    """
    if not psi1:
        raise ValueError("psi1 must be nonempty")
    n = psi1.size
    lhs = n * binomial(n - 1 + d, n) * multinomial(psi1)
    rhs = 0
    for psi in enumerate_sub(psi1):
        if not psi:
            continue
        rest = psi1 - psi
        rhs += multinomial(psi) * binomial(n - psi.size - 1 + d, n - psi.size) * multinomial(rest)
    return lhs == d * rhs
