"""Multisets with multinomials, submultiset enumeration, and the partition-style
index sets that drive the straightening sums."""

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


def _elem_key(e):
    """Sort key usable for monoid exponent tuples, ints, and nested Multisets."""
    if isinstance(e, Multiset):
        return e.sort_key()
    return e


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
        self._items = tuple(sorted(acc.items(), key=lambda p: _elem_key(p[0])))

    @classmethod
    def of(cls, *elems):
        """Multiset from a listing with repetitions, e.g. of(a, a, b) = 2chi_a + chi_b."""
        return cls((e, 1) for e in elems)

    def items(self):
        return self._items

    @property
    def support(self):
        return tuple(e for e, _ in self._items)

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
        return self <= other and self != other

    def __ge__(self, other):
        return other <= self

    def __gt__(self, other):
        return other < self

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

    def sort_key(self):
        return tuple((_elem_key(e), m) for e, m in self._items)


EMPTY = Multiset()


def multisets_upto(elems, cap, odd=False):
    """All multisets over elems with size <= cap; 0/1 multiplicities when
    odd is set."""
    if odd:
        picks = [[]]
        for e in elems:
            picks += [p + [e] for p in picks if len(p) < cap]
        return [Multiset.of(*p) for p in picks]
    out = []

    def rec(idx, budget, acc):
        if idx == len(elems):
            out.append(Multiset(acc))
            return
        for c in range(budget + 1):
            rec(idx + 1, budget - c, acc + [(elems[idx], c)])

    rec(0, cap, [])
    return out


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


# Memos of the three enumerators, keyed by their arguments.  The index sets
# are pure functions of the arguments (no monoid enters), so one table per
# process serves every engine.  Values are tuples; callers get a fresh list.
_sub_memo = {}
_cs_memo = {}
_cp_memo = {}


def _memoized(memo, enumerate_, *args):
    hit = memo.get(args)
    if hit is None:
        hit = memo[args] = tuple(enumerate_(*args))
    return list(hit)


def enumerate_sub(chi, k=None):
    """All psi <= chi, each exactly once; restricted to |psi| = k when k is given.

    Without k the count is prod_s (chi(s)+1).
    """
    return _memoized(_sub_memo, _enumerate_sub, chi, k)


def _enumerate_sub(chi, k):
    if k is not None and k < 0:
        raise ValueError("k must be >= 0")
    support = chi.items()
    out = []

    def rec(idx, acc, total):
        if k is not None and total > k:
            return
        if idx == len(support):
            if k is None or total == k:
                out.append(Multiset(acc))
            return
        e, m = support[idx]
        for c in range(m + 1):
            rec(idx + 1, acc + [(e, c)], total + c)

    rec(0, [], 0)
    return out


def enumerate_CS(chi, r):
    """All psi: F -> Z>=0 with |psi| = r and sum_phi psi(phi)*phi <= chi.

    Elements are multisets of multisets; mass on the empty multiset phi = 0 is
    allowed and absorbs any leftover budget.
    """
    return _memoized(_cs_memo, _enumerate_CS, chi, r)


def _enumerate_CS(chi, r):
    if r < 0:
        raise ValueError("r must be >= 0")
    phis = enumerate_sub(chi)  # includes the empty multiset
    out = []

    def rec(idx, budget, consumed, acc):
        if idx == len(phis):
            if budget == 0:
                out.append(Multiset(acc))
            return
        phi = phis[idx]
        if not phi:
            # phi = 0 consumes nothing, so any count up to the budget works
            for c in range(budget + 1):
                rec(idx + 1, budget - c, consumed, acc + [(phi, c)])
            return
        c = 0
        while c <= budget:
            extra = c * phi
            if not (consumed + extra) <= chi:
                break
            rec(idx + 1, budget - c, consumed + extra, acc + [(phi, c)])
            c += 1

    rec(0, r, EMPTY, [])
    return out


def enumerate_CP(j, k):
    """All lam: Z>=0 -> Z>=0 with |lam| = k and sum_m lam(m)*m = j.

    Parts equal to 0 count toward k but not j, so these are partitions of j
    into at most k parts, padded with zeros.
    """
    return _memoized(_cp_memo, _enumerate_CP, j, k)


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
    return out


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
