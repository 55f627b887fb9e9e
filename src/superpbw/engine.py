"""Canonical PBW normal forms in U(g (x) A): the straightening normalizer,
degree, conversion to the divided-power integral basis, integrality testing,
basis enumeration, and the triangular factorization."""

import itertools
import math
from fractions import Fraction

from .combinatorics import EMPTY, Multiset, enumerate_sub, factorial_product, multinomial, \
    multisets_upto, pi_product

NEG_INF = float("-inf")


class AlgebraError(ValueError):
    pass


class Order:
    """Total order on the generator symbols R cup I of a spec."""

    def __init__(self, spec, syms):
        syms = tuple(syms)
        if sorted(syms) != sorted(spec.all_syms()):
            raise AlgebraError("order must list every root and Cartan symbol exactly once")
        self.syms = syms
        self._rank = {s: n for n, s in enumerate(syms)}

    def rank(self, sym):
        try:
            return self._rank[sym]
        except KeyError:
            raise AlgebraError("symbol %r is not in the order" % (sym,))

    @classmethod
    def triangular(cls, spec):
        """Negative roots, then Cartan, then positive roots (each in the
        spec's listing order for positives)."""
        pos = [r.label for r in spec.roots if r.positive]
        syms = [('x', spec.negative_of(p)) for p in pos]
        syms += [('h', i) for i in range(1, spec.rank + 1)]
        syms += [('x', p) for p in pos]
        return cls(spec, syms)

    @classmethod
    def lexicographic(cls, spec):
        """A fixed order unrelated to the triangular one (for the
        order-independence checks): Cartan first, then roots by label."""
        syms = [('h', i) for i in range(1, spec.rank + 1)]
        syms += sorted((('x', r.label) for r in spec.roots), key=lambda s: s[1])
        return cls(spec, syms)

    @classmethod
    def from_items(cls, spec, items):
        """Order from user tokens: integers name Cartan slots, anything else
        is a root label."""
        syms = []
        for it in items:
            it = it.strip()
            if re_int(it):
                syms.append(('h', int(it)))
            else:
                syms.append(('x', it))
        return cls(spec, syms)

    def is_triangular(self, spec):
        kinds = []
        for s in self.syms:
            if s[0] == 'h':
                kinds.append(1)
            else:
                kinds.append(0 if not spec.root(s[1]).positive else 2)
        return kinds == sorted(kinds)


def re_int(tok):
    return tok.lstrip("+-").isdigit()


def _exact(c):
    """c as an int when it is integral, else as a Fraction.  A float is
    refused: its binary expansion is not the number it was meant to be."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, float):
            raise TypeError("coefficients must be exact, got the float %r" % c)
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Combination:
    """Finitely supported exact combination of hashable keys: `terms` maps a
    key to its nonzero coefficient, an int when integral, else a Fraction.

    `+` and `-` want two elements of one type, and elements of different
    types are never equal.  `sum` is the one way to add many elements: it
    makes each output coefficient exact once, however many summands.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        """Sum (key, coeff) pairs, or take a dict, of any exact coefficients."""
        acc = {}
        for k, c in (terms.items() if isinstance(terms, dict) else terms):
            acc[k] = acc.get(k, 0) + _exact(c)
        self.terms = {k: _exact(c) for k, c in acc.items() if c}

    @classmethod
    def _wrap(cls, terms):
        """An element over a dict of exact nonzero coefficients, as it is."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    def _copy(self):
        """The same element with its own terms dict, for handing out a
        memoized value (keys and coefficients are immutable)."""
        return self._wrap(dict(self.terms))

    @classmethod
    def sum(cls, elems, scalars=None):
        """sum_k scalars[k] * elems[k], with every scalar 1 when scalars is
        None; an empty sum is zero."""
        acc = {}
        if scalars is None:
            for x in elems:
                for k, c in x.terms.items():
                    acc[k] = acc.get(k, 0) + c
        else:
            for x, s in zip(elems, scalars):
                for k, c in x.terms.items():
                    acc[k] = acc.get(k, 0) + s * c
        return cls._wrap({k: _exact(c) for k, c in acc.items() if c})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.sum((self, other))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.sum((self, other), (1, -1))

    def __neg__(self):
        return self._wrap({k: -c for k, c in self.terms.items()})

    def __rmul__(self, scalar):
        return self.sum((self,), (_exact(scalar),))

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)


class UElem(Combination):
    """Finitely supported rational combination of canonical PBW words.

    Words are run-compressed letter sequences: tuples of ((sym, aelt), exp)
    with exponents positive and odd letters never repeated.
    """

    __slots__ = ()

    # bound here as well, so a profiler can wrap UElem's constructor alone
    # (bench/tracing.py does)
    __init__ = Combination.__init__

    @property
    def degree(self):
        """Filtration degree: max total exponent sum; -inf for 0."""
        if not self.terms:
            return NEG_INF
        return max(sum(e for _, e in w) for w in self.terms)

    def __repr__(self):
        if not self.terms:
            return "UElem(0)"
        return "UElem(%d terms, degree %s)" % (len(self.terms), self.degree)


class DividedForm(Combination):
    """Element in the divided-power integral basis: keys are ordered tuples of
    (sym, multiset-over-B) pairs, one per generator appearing."""

    __slots__ = ()

    def is_integral(self):
        return all(c.denominator == 1 for c in self.terms.values())

    def __repr__(self):
        return "DividedForm(%d terms)" % len(self.terms)


def key_degree(key):
    return sum(ms.size for _, ms in key)


class Engine:
    """Straightening engine for one (algebra, coefficient monoid, order)
    triple.  All operations are pure; the memo tables are transparent caches,
    and no caller gets hold of a value stored in one."""

    def __init__(self, spec, monoid, order=None):
        self.spec = spec
        self.monoid = monoid
        self.order = order or Order.triangular(spec)
        self._parity = {s: spec.parity(s) for s in spec.all_syms()}
        self._key_memo = {}
        self._insert_memo = {}
        self._p_memo = {}
        self._hmono_memo = {}
        self._divpow_memo = {}

    # -- letters ---------------------------------------------------------

    def letter(self, sym, aelt):
        if sym[0] == 'h':
            if not 1 <= sym[1] <= self.spec.rank:
                raise AlgebraError("no Cartan generator h%d in %s" % (sym[1], self.spec.name))
        elif sym[0] == 'x':
            self.spec.root(sym[1])
        else:
            raise AlgebraError("bad symbol %r" % (sym,))
        if aelt is None:
            raise AlgebraError("letters cannot carry the absorbing zero")
        return (sym, self.monoid.check(aelt))

    def _key(self, letter):
        k = self._key_memo.get(letter)
        if k is None:
            k = (self.order.rank(letter[0]), self.monoid.sort_key(letter[1]))
            self._key_memo[letter] = k
        return k

    def word_key(self, word):
        """Deterministic sort key for canonical words."""
        return tuple((self._key(L), e) for L, e in word)

    # -- normalization core ----------------------------------------------

    def _insert(self, word, letter):
        """word * letter as a tuple of (sorted flat word, coeff) pairs.

        Rewrites: adjacent swap  u v -> (-1)^{|u||v|} v u + [u,v] (x) ab,
        and the odd square  u u -> (1/2)[u,u] (x) a^2.  Terminates because a
        swap lowers the inversion count and every bracket shortens the word.
        The bracket constants are integers, so the coefficients stay ints
        unless an odd square has an odd constant.  Each work item carries
        the index where the scan for the first violation resumes: a rewrite
        at i leaves w[:i] sorted, so only the pair at i - 1 can be new.  The
        first item is scanned from 0, so word need not be sorted.
        """
        memo_key = (word, letter)
        hit = self._insert_memo.get(memo_key)
        if hit is not None:
            return hit
        key, parity = self._key, self._parity
        amul, bracket = self.monoid.mul, self.spec.bracket
        out = {}
        work = [(1, word + (letter,), 0)]
        while work:
            c, w, i = work.pop()
            last = len(w) - 1
            while i < last:
                u, v = w[i], w[i + 1]
                if u == v:
                    if parity[u[0]]:
                        break
                elif key(u) > key(v):
                    break
                i += 1
            else:
                out[w] = out.get(w, 0) + c
                continue
            pre, post = w[:i], w[i + 2:]
            back = i - 1 if i else 0
            if u == v:
                aa = amul(u[1], u[1])
                if aa is not None:
                    for sym, k in bracket(u[0], u[0]):
                        half = k // 2 if k % 2 == 0 else Fraction(k, 2)
                        work.append((c * half, pre + ((sym, aa),) + post, back))
                continue
            sign = -1 if (parity[u[0]] and parity[v[0]]) else 1
            work.append((sign * c, pre + (v, u) + post, back))
            ab = amul(u[1], v[1])
            if ab is not None:
                for sym, k in bracket(u[0], v[0]):
                    work.append((c * k, pre + ((sym, ab),) + post, back))
        out = tuple((w, c) for w, c in out.items() if c)
        self._insert_memo[memo_key] = out
        return out

    def _fold(self, flat_terms, letters):
        for L in letters:
            nxt = {}
            for w, c in flat_terms.items():
                for w2, c2 in self._insert(w, L):
                    nxt[w2] = nxt.get(w2, 0) + c * c2
            flat_terms = {w: c for w, c in nxt.items() if c}
        return flat_terms

    @staticmethod
    def _compress(flat):
        runs = []
        for L in flat:
            if runs and runs[-1][0] == L:
                runs[-1][1] += 1
            else:
                runs.append([L, 1])
        return tuple((L, e) for L, e in runs)

    @staticmethod
    def _flatten(word):
        out = []
        for L, e in word:
            out.extend([L] * e)
        return tuple(out)

    def normalize(self, letters, coeff=1):
        """Expand a product of letters in the canonical PBW basis."""
        letters = [self.letter(sym, aelt) for sym, aelt in letters]
        coeff = _exact(coeff)
        flat = self._fold({(): 1}, letters)
        terms = ((self._compress(w), coeff * c) for w, c in flat.items())
        return UElem._wrap({k: _exact(c) for k, c in terms if c})

    def mul(self, x, y):
        out = {}
        for wy, cy in y.terms.items():
            lets = self._flatten(wy)
            for wx, cx in x.terms.items():
                cxy = cx * cy
                for w, c in self._fold({self._flatten(wx): 1}, lets).items():
                    k = self._compress(w)
                    out[k] = out.get(k, 0) + cxy * c
        return UElem._wrap({k: _exact(c) for k, c in out.items() if c})

    def scalar(self, c):
        return UElem({(): c})

    def one(self):
        return self.scalar(1)

    def gen_elem(self, sym, aelt, coeff=1):
        """The single letter sym (x) aelt as a UElem."""
        return UElem({((self.letter(sym, aelt), 1),): coeff})

    def divided_power(self, sym, aelt, r):
        """(x (x) a)^(r) = (x (x) a)^r / r!, expanded to plain powers."""
        if r < 0:
            raise AlgebraError("negative divided power")
        if r == 0:
            return self.one()
        sym, aelt = self.letter(sym, aelt)
        key = (sym, aelt, r)
        hit = self._divpow_memo.get(key)
        if hit is None:
            hit = self.normalize([(sym, aelt)] * r, Fraction(1, math.factorial(r)))
            self._divpow_memo[key] = hit
        return hit._copy()

    def adopt(self, x):
        """Re-normalize a UElem produced by another engine over the same
        algebra and monoid (possibly a different order)."""
        return UElem.sum((self.normalize(self._flatten(w)) for w in x.terms),
                         x.terms.values())

    def parity_of(self, x):
        """0 or 1 when x is parity homogeneous, None for 0 or mixed."""
        seen = None
        for w in x.terms:
            p = sum(self._parity[sym] * e for (sym, _), e in w) % 2
            if seen is None:
                seen = p
            elif seen != p:
                return None
        return seen

    def super_comm(self, x, y):
        """[x, y] = xy - (-1)^{|x||y|} yx for parity-homogeneous arguments."""
        px, py = self.parity_of(x), self.parity_of(y)
        if px is None or py is None:
            raise AlgebraError("super commutator needs parity-homogeneous arguments")
        sign = -1 if (px and py) else 1
        return self.mul(x, y) - sign * self.mul(y, x)

    # -- Cartan elements p ------------------------------------------------

    def hvec_elem(self, hvec, aelt):
        out = {}
        for i, c in enumerate(hvec, start=1):
            if c:
                out[((self.letter(('h', i), aelt), 1),)] = c
        return UElem(out)

    def p_vector(self, hvec, chi):
        """The recursively defined Cartan element for h = sum hvec_i h_i:
        p(0) = 1,  p(chi) = -(1/|chi|) sum_{0 != psi <= chi} m(psi)
        (h (x) pi(psi)) p(chi - psi)."""
        hvec = tuple(hvec)
        key = (hvec, chi)
        hit = self._p_memo.get(key)
        if hit is not None:
            return hit._copy()
        if not chi:
            out = self.one()
        else:
            terms, scalars = [], []
            for psi in enumerate_sub(chi):
                a = pi_product(psi, self.monoid) if psi else None
                if a is not None:
                    terms.append(self.mul(self.hvec_elem(hvec, a),
                                          self.p_vector(hvec, chi - psi)))
                    scalars.append(Fraction(-multinomial(psi), chi.size))
            out = UElem.sum(terms, scalars)
        self._p_memo[key] = out
        return out._copy()

    def p(self, which, chi):
        """p_i(chi) for a Cartan index, or p_alpha(chi) for a root label
        (the coroot map sends h to h_alpha)."""
        if isinstance(which, int):
            hvec = tuple(1 if j == which else 0 for j in range(1, self.spec.rank + 1))
        else:
            hvec = self.spec.coroot(which)
        return self.p_vector(hvec, chi)

    # -- divided / p-basis conversion --------------------------------------

    def _word_blocks(self, word):
        """Split a canonical word into per-generator blocks (sym, multiset)."""
        blocks = []
        for (sym, aelt), e in word:
            if blocks and blocks[-1][0] == sym:
                blocks[-1][1].append((aelt, e))
            else:
                blocks.append([sym, [(aelt, e)]])
        return [(sym, Multiset(items)) for sym, items in blocks]

    def _h_mono_to_p(self, i, chi):
        """Expand the monomial prod_a (h_i (x) a)^{chi(a)} over the p_i basis,
        as a tuple of (phi, coeff) pairs.

        Triangular elimination: p_i(chi) matches the monomial in top degree,
        the remainder has lower degree and recurses.
        """
        key = (i, chi)
        hit = self._hmono_memo.get(key)
        if hit is not None:
            return hit
        if not chi:
            return ((EMPTY, 1),)
        P = self.p(i, chi)
        word = tuple(((('h', i), a), e) for a, e in chi.items())
        lead = P.terms.get(word)
        if not lead:
            raise AlgebraError("p_%d(%r) lost its leading monomial" % (i, chi))
        rest = P - UElem({word: lead})
        out = {chi: Fraction(1, lead)}
        for w, c in rest.terms.items():
            sub_chi = Multiset((a, e) for ((_, a), e) in w)
            if sub_chi.size >= chi.size:
                raise AlgebraError("p remainder failed to drop in degree")
            for phi, c2 in self._h_mono_to_p(i, sub_chi):
                out[phi] = out.get(phi, 0) - Fraction(c, lead) * c2
        out = tuple((phi, _exact(c)) for phi, c in out.items() if c)
        self._hmono_memo[key] = out
        return out

    def _expand_blocks(self, blocks):
        """Alternatives for each block as (key-part or None, coeff) lists."""
        parts = []
        for sym, ms in blocks:
            if sym[0] == 'h':
                conv = self._h_mono_to_p(sym[1], ms)
                parts.append([((sym, phi) if phi else None, c) for phi, c in conv])
            elif self._parity[sym] == 0:
                parts.append([((sym, ms), factorial_product(ms))])
            else:
                if any(e > 1 for _, e in ms.items()):
                    raise AlgebraError("odd letter with exponent > 1 in a canonical word")
                parts.append([((sym, ms), 1)])
        return parts

    def to_divided(self, x):
        """Exact change of basis into the divided-power integral basis."""
        out = {}
        for w, c in x.terms.items():
            for choice in itertools.product(*self._expand_blocks(self._word_blocks(w))):
                key = tuple(part for part, _ in choice if part)
                out[key] = out.get(key, 0) + math.prod((c2 for _, c2 in choice), start=c)
        return DividedForm(out)

    def from_divided(self, df):
        """Inverse of to_divided."""
        terms = []
        for key in df.terms:
            term = self.one()
            for sym, ms in key:
                if sym[0] == 'h':
                    factor = self.p(sym[1], ms)
                else:
                    word = tuple(((sym, a), e) for a, e in ms.items())
                    factor = UElem({word: Fraction(1, factorial_product(ms))})
                term = self.mul(term, factor)
            terms.append(term)
        return UElem.sum(terms, df.terms.values())

    def is_integral(self, x):
        """Integral-form membership test; accepts UElem or DividedForm."""
        if isinstance(x, UElem):
            x = self.to_divided(x)
        return x.is_integral()

    # -- basis enumeration and triangular splitting -------------------------

    def enumerate_basis(self, degree_cap, syms=None):
        """All divided-basis keys of filtration degree <= degree_cap, ordered
        deterministically.  Needs a finite coefficient basis."""
        if degree_cap < 0:
            raise AlgebraError("degree cap must be >= 0")
        elems = self.monoid.elements()
        if syms is None:
            syms = self.order.syms
        keys = []

        def rec(pos, remaining, acc):
            if pos == len(syms):
                keys.append(tuple(acc))
                return
            sym = syms[pos]
            odd = self._parity[sym] == 1
            for ms in multisets_upto(elems, remaining, odd):
                rec(pos + 1, remaining - ms.size, acc + ([(sym, ms)] if ms else []))

        rec(0, degree_cap, [])
        return keys

    def segment_of(self, sym):
        """-1 / 0 / +1 for negative-root / Cartan / positive-root symbols."""
        if sym[0] == 'h':
            return 0
        return 1 if self.spec.root(sym[1]).positive else -1

    def triangular_factor(self, x):
        """Factor an integral element through B- . B0 . B+ (Corollary-style
        triangular decomposition).  Returns (engine, [(coeff, k-, k0, k+)])
        where the keys concatenate to the divided-basis key of each term."""
        if self.order.is_triangular(self.spec):
            eng, y = self, x
        else:
            eng = Engine(self.spec, self.monoid, Order.triangular(self.spec))
            y = eng.adopt(x)
        df = eng.to_divided(y)
        out = []
        for key, c in df.terms.items():
            neg = tuple(kp for kp in key if eng.segment_of(kp[0]) < 0)
            zero = tuple(kp for kp in key if eng.segment_of(kp[0]) == 0)
            pos = tuple(kp for kp in key if eng.segment_of(kp[0]) > 0)
            if neg + zero + pos != key:
                raise AlgebraError("triangular order failed to segment %r" % (key,))
            out.append((c, neg, zero, pos))
        return eng, out
