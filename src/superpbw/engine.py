"""Canonical PBW normal forms in U(g (x) A): the straightening normalizer,
degree, conversion to the divided-power integral basis, integrality testing,
basis enumeration, and the triangular factorization."""

import bisect
import functools
import itertools
import math
from fractions import Fraction
from operator import attrgetter
from types import MappingProxyType

from .combinatorics import Multiset, enumerate_sub, multinomial, pi_product
from .digits import is_int

NEG_INF = float("-inf")


class AlgebraError(ValueError):
    pass


class Order:
    """Total order on the generator symbols R cup I of a spec."""

    def __init__(self, spec, syms):
        syms, known = tuple(syms), spec.all_syms()
        faults = [("unknown", s) for s in syms if s not in known]
        faults += [("repeated", s) for n, s in enumerate(syms) if s in syms[:n]]
        faults += [("missing", s) for s in known if s not in syms]
        if faults:      # the first is named, as the token `named` reads for it
            kind, sym = faults[0]
            raise AlgebraError("order must list every root and Cartan symbol exactly once:"
                               " %s %r" % (kind, str(sym[1])))
        self.syms = syms
        self._rank = {s: n for n, s in enumerate(syms)}
        # -1 / 0 / +1 for negative-root / Cartan / positive-root symbols
        self.segment = {s: 0 if s[0] == 'h' else 1 if spec.root(s[1]).positive else -1
                        for s in syms}
        # the B-, B0 and B+ symbols, each in this order
        self.parts = tuple(tuple(s for s in syms if self.segment[s] == seg) for seg in (-1, 0, 1))

    def rank(self, sym):
        try:
            return self._rank[sym]
        except KeyError:
            raise AlgebraError("symbol %r is not in the order" % (sym,)) from None

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
    def named(cls, spec, text):
        """The order a name gives: 'triangular', 'lex'/'lexicographic', or a
        comma list of tokens, an integer naming a Cartan slot and anything
        else a root label."""
        if text == "triangular":
            return cls.triangular(spec)
        if text in ("lex", "lexicographic"):
            return cls.lexicographic(spec)
        return cls(spec, [('h', int(tok)) if is_int(tok) else ('x', tok)
                          for tok in map(str.strip, text.split(","))])

    def is_triangular(self):
        """Negative roots, then Cartan, then positive roots (B- . B0 . B+)."""
        return sum(self.parts, ()) == self.syms


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


def over_common(terms):
    """(d, numerators) for a dict of exact coefficients: d is the lcm of their
    denominators, and numerators the (key, coeff * d) pairs, whose
    coefficients are ints."""
    dens = [c.denominator for c in terms.values() if type(c) is not int]
    if not dens:
        return 1, terms.items()
    d = math.lcm(*dens)
    return d, [(k, c * d if type(c) is int else c.numerator * (d // c.denominator))
               for k, c in terms.items()]


def scalars_over_common(scalars, n):
    """(d, numerators) for n exact scalars: d the lcm of their denominators
    and numerators the list of s * d, ints; (1, [1] * n) for None."""
    if scalars is None:
        return 1, [1] * n
    d, ss = over_common(dict(enumerate(map(_exact, scalars))))
    return d, [s for _, s in ss]


def divide(numerators, d):
    """{key: n / d} for (key, n) pairs, zeros dropped, each coefficient an int
    when integral and a reduced Fraction otherwise.  An n is an int, or a
    Fraction where a factor of it was one: an odd square that the
    straightening core halved, or a block of `from_divided`."""
    if d == 1:
        return {k: n if type(n) is int else _exact(n) for k, n in numerators if n}
    out = {}
    for k, n in numerators:
        if n:
            out[k] = n // d if type(n) is int and not n % d else _exact(Fraction(n, d))
    return out


class Combination:
    """Finitely supported exact combination of hashable keys: `terms` maps a
    key to its nonzero coefficient, an int when integral, else a Fraction.

    `+` and `-` want two elements of one type, and elements of different
    types are never equal.  `sum` is the one way to add many elements: it
    adds integer numerators over one common denominator, and builds a
    Fraction only for an output coefficient that is not integral.

    An element is immutable: `terms` is a read-only view, set once when the
    element is built, and cannot be rebound, so a value stored in a memo
    can be handed out as it is.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        """Sum (key, coeff) pairs, or take a mapping, of any exact coefficients."""
        acc = {}
        for k, c in (terms.items() if hasattr(terms, "items") else terms):
            acc[k] = acc.get(k, 0) + _exact(c)
        _set_terms(self, MappingProxyType({k: _exact(c) for k, c in acc.items() if c}))

    @classmethod
    def _wrap(cls, terms):
        """An element over a dict of exact nonzero coefficients, as it is;
        no one may write into that dict afterwards."""
        out = cls.__new__(cls)
        _set_terms(out, MappingProxyType(terms))
        return out

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        self.__setattr__(name, None)

    @classmethod
    def sum(cls, elems, scalars=None):
        """sum_k scalars[k] * elems[k], with every scalar 1 when scalars is
        None; an empty sum is zero.  The common denominator is the lcm of
        the elements' denominators times that of the scalars'."""
        elems = list(elems)
        ds, ss = scalars_over_common(scalars, len(elems))
        d = math.lcm(*[c.denominator for x in elems for c in x.terms.values()
                       if type(c) is not int])
        acc = {}
        for x, s in zip(elems, ss):
            for k, c in x.terms.items():
                n = c * d if type(c) is int else c.numerator * (d // c.denominator)
                acc[k] = acc.get(k, 0) + s * n
        return cls._wrap(divide(acc.items(), d * ds))

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
        return self.sum((self,), (scalar,))

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)


# the slot's own setter, the one way to set `terms`
_set_terms = Combination.terms.__set__


class UElem(Combination):
    """Finitely supported rational combination of canonical PBW words.

    A word is the tuple of its letters (sym, aelt), sorted by the engine's
    letter order, a power x^e spelled as e equal letters, and odd letters
    never repeated.  This is the word the straightening core builds; runs
    are formed only where a word is printed or ordered.
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
        return max(map(len, self.terms))

    def __repr__(self):
        if not self.terms:
            return "UElem(0)"
        return "UElem(%d terms, degree %s)" % (len(self.terms), self.degree)


class DividedForm(Combination):
    """Element in the divided-power integral basis.  A key is a canonical word,
    as for UElem, read block by block: the letters of an even root x_alpha
    carrying a, a, b name (x_alpha (x) a)^(2) (x_alpha (x) b), those of h_i
    name p_i({a, a, b}), and odd letters name themselves."""

    __slots__ = ()

    def is_integral(self):
        return all(c.denominator == 1 for c in self.terms.values())

    def __repr__(self):
        return "DividedForm(%d terms)" % len(self.terms)


# The Cartan block U(h (x) A) is commutative, so p(chi) depends on no order and
# no root data, and inside a block of a canonical word (its letters on one
# symbol) the engine's letter order is the exponent tuple's.  So p(chi), and
# a block's conversion to the divided basis given the parity of its symbol, are
# cached once per process for every engine, triangular or lexicographic, and
# every algebra.  A monoid compares by its defining fields, so two monoids that
# multiply alike share entries and two that do not never do.  Values are
# tuples of (monomial or word, coeff) pairs, immutable.

def cartan_p(hvec, chi, monoid):
    """The Cartan element for h = sum hvec_i h_i, as a tuple of (monomial,
    coeff) pairs, a monomial being a sorted tuple of letters (('h', i), a):
    p(0) = 1,  p(chi) = -(1/|chi|) sum_{0 != psi <= chi} m(psi)
    (h (x) pi(psi)) p(chi - psi).
    Multiplying by h_i (x) b inserts a letter into a sorted monomial."""
    hvec = tuple(hvec)
    while hvec and not hvec[-1]:        # (1, 0) and (1,) name one h
        hvec = hvec[:-1]
    return _cartan_p(hvec, chi, monoid)


@functools.cache
def _cartan_p(hvec, chi, monoid):
    if not chi:
        return (((), 1),)
    subs = enumerate_sub(chi)
    # every p(chi - psi) read below is cached first, smallest first, so each
    # of these calls finds its own sub-multisets cached and nests no further
    for phi in sorted(subs, key=attrgetter("size"))[:-1]:
        _cartan_p(hvec, phi, monoid)
    acc = {}
    for psi in subs:
        a = pi_product(psi, monoid) if psi else None
        if a is None:
            continue
        m = multinomial(psi)
        for mono, c in _cartan_p(hvec, chi - psi, monoid):
            for i, hi in enumerate(hvec, start=1):
                if hi:
                    letter = (('h', i), a)
                    k = bisect.bisect(mono, letter)
                    w = mono[:k] + (letter,) + mono[k:]
                    acc[w] = acc.get(w, 0) + m * hi * c
    n = chi.size
    return tuple((w, _exact(Fraction(-c, n))) for w, c in acc.items() if c)


def word_runs(word):
    """The runs of a canonical word as (letter, exponent) pairs."""
    return [(L, len(list(g))) for L, g in itertools.groupby(word)]


def block_from_divided(block, odd, monoid):
    """The PBW expansion of the divided-basis element that a block names, as a
    tuple of (word, coeff) pairs: p_i(chi) on h_i, the block over prod e! of
    its runs on a root (`odd` when the root is)."""
    sym = block[0][0]
    if sym[0] == 'h':
        chi = Multiset.of(*(a for _, a in block))
        return cartan_p((0,) * (sym[1] - 1) + (1,), chi, monoid)
    runs = [e for _, e in word_runs(block)]
    if odd and max(runs) > 1:
        raise AlgebraError("odd letter with exponent > 1 in a canonical word")
    return ((block, _exact(Fraction(1, math.prod(map(math.factorial, runs))))),)


@functools.cache
def block_to_divided(block, odd, monoid):
    """The block over the divided basis, as a tuple of (word, coeff) pairs.

    Triangular elimination: the expansion of a word matches the word in top
    degree and the rest of it has lower degree, so the words of a work table,
    kept by degree, are eliminated highest degree first.
    """
    work = [{} for _ in range(len(block) + 1)]
    work[-1][block] = 1
    out = {}
    for level in reversed(work):
        for w, c in level.items():
            terms = dict(block_from_divided(w, odd, monoid))
            lead = terms.pop(w, 0)
            if not lead:
                raise AlgebraError("the expansion of %r lost its leading word" % (w,))
            out[w] = c = Fraction(c, lead)
            for w2, c2 in terms.items():
                if len(w2) >= len(w):
                    raise AlgebraError("an expansion remainder failed to drop in degree")
                work[len(w2)][w2] = work[len(w2)].get(w2, 0) - c * c2
    return tuple((w, _exact(c)) for w, c in out.items() if c)


class Engine:
    """Straightening engine for one (algebra, coefficient monoid, order)
    triple.  All operations are pure, and the memo tables are transparent
    caches.  `divided_power` and `p_vector` hand out the value stored in
    their memo itself, which no caller can change, since elements are
    immutable."""

    def __init__(self, spec, monoid, order=None):
        self.spec = spec
        self.monoid = monoid
        self.order = order or Order.triangular(spec)
        self._parity = {s: spec.parity(s) for s in spec.all_syms()}
        # the letter table: a code per letter, in first-seen order, and by
        # code the letter, its order key and its parity; and the bracket
        # table, by pair of codes (see `_bracket`)
        self._codes = {}
        self._letters = {}
        self._keys = {}
        self._odd = {}
        self._brackets = {}
        self._insert_memo = {}
        self._p_memo = {}
        # (type(which), which) -> the h-vector `p` reads for it
        self._hvecs = {}
        self._divpow_memo = {}
        # id(value) -> `_coded_form(value)` for each value of `_p_memo` and
        # `_divpow_memo`: those memos keep each value alive and never drop
        # one, so its id names it for the engine's life
        self._coded = {}
        # by block function (block_to_divided, block_from_divided): block ->
        # that function's tuple for it, on this engine's parities and monoid
        self._blocks = {}

    # -- letters ---------------------------------------------------------

    def _cartan(self, i):
        if not 1 <= i <= self.spec.rank:
            raise AlgebraError("no Cartan generator h%d in %s" % (i, self.spec.name))

    def letter(self, sym, aelt):
        if sym[0] == 'h':
            self._cartan(sym[1])
        elif sym[0] == 'x':
            self.spec.root(sym[1])
        else:
            raise AlgebraError("bad symbol %r" % (sym,))
        if aelt is None:
            raise AlgebraError("letters cannot carry the absorbing zero")
        return (sym, self.monoid.check(aelt))

    def _key(self, letter):
        """A letter's place in word order: its symbol's rank, then its exponent tuple."""
        return (self.order.rank(letter[0]), letter[1])

    # -- normalization core ----------------------------------------------

    def _code(self, letter):
        """The letter's code, assigned on first sight: the one-character
        string chr(n) for the n-th letter this engine codes, so a code word,
        the string of its letters' codes, costs one byte a letter while
        codes stay under 256.  The letter, its key and its parity are
        looked up by code."""
        code = self._codes.get(letter)
        if code is None:
            key = self._key(letter)
            code = self._codes[letter] = chr(len(self._letters))
            self._letters[code] = letter
            self._keys[code] = key
            self._odd[code] = self._parity[letter[0]]
        return code

    def _encode(self, word):
        try:
            return "".join(map(self._codes.__getitem__, word))
        except KeyError:        # a letter seen for the first time
            return "".join(map(self._code, word))

    def _decode(self, word):
        return tuple(map(self._letters.__getitem__, word))

    def _coded_form(self, x):
        """(d, ((code word, numerator), ...)) for an element: its words
        encoded and its coefficients put over their common denominator d."""
        d, xs = over_common(x.terms)
        encode = self._encode
        return d, tuple([(encode(w), c) for w, c in xs])

    def _memoize(self, memo, key, value):
        """Store value in memo under key, and its coded form in `_coded`."""
        memo[key] = value
        self._coded[id(value)] = self._coded_form(value)
        return value

    def _bracket(self, u, x):
        """[u, x] for letter codes, as (code, k) pairs, the monoid product of
        their elements applied; () when it vanishes.  For u = x, an odd
        letter, k is halved: u u = [u, u] / 2."""
        out = self._brackets.get((u, x))
        if out is None:
            (su, a), (sx, b) = self._letters[u], self._letters[x]
            terms = self.spec.bracket(su, sx)
            ab = self.monoid.mul(a, b) if terms else None
            if ab is None:
                out = ()
            else:
                out = tuple((self._code((sym, ab)), _exact(Fraction(k, 2)) if u == x else k)
                            for sym, k in terms)
            self._brackets[u, x] = out
        return out

    def _insert(self, word, letter, call):
        """word * letter, for a sorted code word and a letter code, as a tuple
        of (sorted code word, coeff) pairs, on a miss of `_insert_memo` for a
        product that needs straightening (`_fold_into` appends the others
        and reads the memo itself), stored there.  `call` holds
        the solver of the calling mul_sum call (`_straighten`), built on that
        call's first miss, so no other miss sets up closures."""
        if not call:
            call.append(self._straighten())
        out = self._insert_memo[word, letter] = call[0](word, letter)
        return out

    def _straighten(self):
        """The solver of one mul_sum call: a function of (word, letter) that
        returns word * letter on code words.  A word is the string of the
        codes of its letters (`_code`), so a word hashes once, however often
        it is looked up, and equality tests compare bytes.  Codes follow
        first sight, not letter order; order is read from the key table,
        and brackets from the bracket table.

        L passes the letters that sort after it, or equal it when it is odd;
        in a canonical word they form a suffix S of word = P S.  Every
        product, the requested one and each sub-product alike, is first
        split so: S L is straightened alone, and when no word v of it begins
        with a letter that passes P's last letter, the product is
        sum c_v (P v), each P v a canonical word.  So one suffix product
        serves every prefix.  Otherwise a bracket letter must move into P,
        and the product is straightened whole, by recursion on the last
        letter u of word = pre u, when u sorts after L or is odd and equal
        to it:
          pre u L = (-1)^{|u||L|} (pre L) u + sum_k k pre ([u,L]_k (x) ab),
          pre u u = sum_k (k/2) pre ([u,u]_k (x) a^2)            (u odd).
        The base case is a trivial append: w L where L sorts after w's last
        letter, or equals it and is even.  Every sub-product has fewer
        letters than word L, except top(pre L) u, which is a trivial append,
        so the recursion ends.  A sub-product is read from the solver's
        scratch table, which lives as long as the mul_sum call that built
        it and holds every product solved so far, suffix products included;
        then from `_insert_memo`, which holds the same values for the
        products earlier calls solved; and is solved only if both miss.
        Solving runs on an explicit stack of generator frames, so its depth
        is not the interpreter's.  A frame yields each (word, letter) it
        needs solved and, when resumed, reads its value from scratch; it
        stores its own product there and returns None, so the driver pops
        it on `next(frame, None)` and no StopIteration is raised.
        The bracket constants are integers, so the coefficients stay ints
        unless an odd square has an odd constant.
        """
        keys, odd_of = self._keys, self._odd
        brackets, bracket = self._brackets, self._bracket
        key_of = keys.__getitem__
        memo = self._insert_memo.get
        scratch = {}

        def known(w, x):
            """w x when it needs no frame: a trivial append, or a product
            solved before, in this call or in the memo; else None.  x passes
            (moves left past) w's last letter when that sorts after x, or
            equals it and is odd."""
            if w and (odd_of[x] if w[-1] == x else keys[w[-1]] > keys[x]):
                got = scratch.get((w, x))
                return memo((w, x)) if got is None else got
            return ((w + x, 1),)

        def frame(w, x):
            """Yields each unsolved sub-product (word, letter), whose value
            is in scratch when the frame resumes, and stores w x there."""
            # S starts at the first letter x passes; w[-1] is one
            n = (bisect.bisect_left if odd_of[x] else bisect.bisect_right)(
                w, keys[x], 0, len(w) - 1, key=key_of)
            if n:
                p, s = w[:n], w[n:]
                req = s, x                  # x passes s[-1] = w[-1]
                sx = scratch.get(req)
                if sx is None:
                    sx = memo(req)
                    if sx is None:
                        yield req
                        sx = scratch[req]
                u = p[-1]
                ou, ku = odd_of[u], keys[u]
                for v, _ in sx:
                    if ou if v[0] == u else ku > keys[v[0]]:     # v[0] passes u
                        break
                else:
                    scratch[w, x] = tuple([(p + v, c) for v, c in sx])
                    return
            pre, u = w[:-1], w[-1]
            acc = {}
            if u != x:              # else u = x is odd, and only the bracket stays
                odd = odd_of[u]
                sign = -1 if (odd and odd_of[x]) else 1
                ku = keys[u]
                sub = known(pre, x)
                if sub is None:
                    yield pre, x
                    sub = scratch[pre, x]
                for w1, c1 in sub:
                    c1 *= sign
                    v = w1[-1]
                    # not passes(v, u), inlined in the hottest loop
                    if (not odd) if v == u else keys[v] < ku:
                        w2 = w1 + u         # a trivial append, as for top(pre x)
                        acc[w2] = acc.get(w2, 0) + c1
                        continue
                    req = w1, u             # u passes w1[-1]
                    sub = scratch.get(req)
                    if sub is None:
                        sub = memo(req)
                        if sub is None:
                            yield req
                            sub = scratch[req]
                    for w2, c2 in sub:
                        acc[w2] = acc.get(w2, 0) + c1 * c2
            terms = brackets.get((u, x))
            for b, k in bracket(u, x) if terms is None else terms:
                sub = known(pre, b)
                if sub is None:
                    yield pre, b
                    sub = scratch[pre, b]
                for w2, c2 in sub:
                    acc[w2] = acc.get(w2, 0) + k * c2
            scratch[w, x] = tuple([item for item in acc.items() if item[1]])

        def solve(word, letter):
            out = known(word, letter)
            if out is None:
                stack = [frame(word, letter)]
                while stack:
                    req = next(stack[-1], None)
                    if req is None:         # the frame stored its product
                        stack.pop()
                    else:
                        stack.append(frame(*req))
                out = scratch[word, letter]
            return out
        return solve

    def _fold_into(self, out, xs, ys, call):
        """Add x y into out, for x and y as (code word, numerator) pairs, the
        words of x canonical: each word of x, times the numerator of a word
        of y, is multiplied by that word's letter codes one at a time on its
        own.  A letter that passes no letter of the word, because the word
        is empty or the letter sorts after its last one or equals it and is
        even, is appended in place: the solver's base case, which
        `_insert_memo` does not store.  Any other product is read from the
        memo and, on a miss, straightened by `_insert` with `call`, the
        solver slot of the calling product.  A one-term partial product
        stays a list: its words are distinct, and none of its coefficients
        is zero.  Folding all of x at once would merge intermediate words of
        different terms, and a cancellation there reorders the output terms."""
        memo, keys, odd = self._insert_memo, self._keys, self._odd
        for wy, cy in ys:
            for wx, cx in xs:
                terms = [(wx, cx * cy)]
                for L in wy:
                    kL, even = keys[L], not odd[L]
                    if len(terms) == 1:
                        (w, c), = terms
                        if not w or (even if w[-1] == L else keys[w[-1]] < kL):
                            terms = [(w + L, c)]
                            continue
                        got = memo.get((w, L))
                        if got is None:
                            got = self._insert(w, L, call)
                        terms = [(w2, c * c2) for w2, c2 in got]
                        continue
                    nxt = {}
                    for w, c in terms:
                        if not w or (even if w[-1] == L else keys[w[-1]] < kL):
                            w2 = w + L
                            nxt[w2] = nxt.get(w2, 0) + c
                            continue
                        got = memo.get((w, L))
                        if got is None:
                            got = self._insert(w, L, call)
                        for w2, c2 in got:
                            nxt[w2] = nxt.get(w2, 0) + c * c2
                    terms = [item for item in nxt.items() if item[1]]
                for w, c in terms:
                    out[w] = out.get(w, 0) + c
        return out

    def normalize(self, letters, coeff=1):
        """Expand a product of letters in the canonical PBW basis."""
        word = tuple(self.letter(sym, aelt) for sym, aelt in letters)
        return self.mul(self.scalar(coeff), UElem({word: 1}))

    def mul(self, x, y):
        """x * y: `mul_sum` of the one chain (x, y)."""
        return self.mul_sum(((x, y),))

    def mul_sum(self, chains, scalars=None):
        """sum_k scalars[k] * (the factors of chain k multiplied left to
        right), every scalar 1 when scalars is None; an empty chain is one()
        and an empty sum zero.  The words of each chain's first factor must
        be canonical for this engine, as every UElem it returns is; a later
        factor's letters are folded in one at a time (`_fold_into`).  Each
        factor's words are encoded once over its common denominator, a memo
        value's when it entered its memo (read from `_coded`), any other's
        on each call; chain k's denominator d_k is the product of its
        factors', and its first factor is scaled to the lcm d of the d_k.
        A chain's partial product stays code words, its zero terms dropped
        after each factor, and only its last factor folds into the output
        that every chain shares, with one solver and its sub-product table,
        built on the call's first memo miss (`_insert`); that output is
        decoded and divided by d once.
        Scaling changes no zero test, so one chain's terms come in the
        nested `mul`s' order."""
        unit = [("", 1)]
        coded = self._coded.get
        parts = []
        for chain in chains:
            dk, factors = 1, []
            for y in chain:
                dy, ys = coded(id(y)) or self._coded_form(y)
                dk *= dy
                factors.append(ys)
            parts.append((dk, factors + [unit] * (2 - len(factors))))
        ds, ss = scalars_over_common(scalars, len(parts))
        d = math.lcm(*[p[0] for p in parts])
        out, call = {}, []
        for (dk, (xs, *mid, ys)), s in zip(parts, ss):
            scale = d // dk * s
            if scale:
                if scale != 1:
                    xs = [(w, c * scale) for w, c in xs]
                for ms in mid:
                    xs = [item for item in self._fold_into({}, xs, ms, call).items() if item[1]]
                self._fold_into(out, xs, ys, call)
        return UElem._wrap(divide([(self._decode(w), n) for w, n in out.items() if n], d * ds))

    def scalar(self, c):
        return UElem({(): c})

    def one(self):
        return self.scalar(1)

    def gen_elem(self, sym, aelt):
        """The single letter sym (x) aelt as a UElem."""
        return UElem({(self.letter(sym, aelt),): 1})

    def divided_power(self, sym, aelt, r):
        """(x (x) a)^(r) = (x (x) a)^r / r!, expanded to plain powers.  A
        stored key's letter was checked when it was stored."""
        key = (sym, aelt, r)
        hit = self._divpow_memo.get(key)
        if hit is None:
            if r < 0:
                raise AlgebraError("negative divided power")
            self.letter(sym, aelt)
            if r == 0:
                return self.one()
            hit = self._memoize(self._divpow_memo, key, self.normalize(
                [(sym, aelt)] * r, Fraction(1, math.factorial(r))))
        return hit

    def adopt(self, x):
        """Re-normalize a UElem produced by another engine over the same
        algebra and monoid (possibly a different order)."""
        return self.mul(self.one(), x)

    def parity_of(self, x):
        """0 or 1 when x is parity homogeneous, None for 0 or mixed."""
        seen = None
        for w in x.terms:
            p = sum(self._parity[sym] for sym, _ in w) % 2
            if seen is None:
                seen = p
            elif seen != p:
                return None
        return seen

    def super_comm(self, x, y):
        """[x, y] = xy - (-1)^{|x||y|} yx for parity-homogeneous arguments,
        0 when either is 0."""
        if not x or not y:
            return UElem()
        px, py = self.parity_of(x), self.parity_of(y)
        if px is None or py is None:
            raise AlgebraError("super commutator needs parity-homogeneous arguments")
        sign = -1 if (px and py) else 1
        return self.mul_sum(((x, y), (y, x)), (1, -sign))

    # -- Cartan elements p ------------------------------------------------

    def hvec_elem(self, hvec, aelt):
        out = {}
        for i, c in enumerate(hvec, start=1):
            if c:
                out[(self.letter(('h', i), aelt),)] = c
        return UElem(out)

    def p_vector(self, hvec, chi):
        """p(chi) for h = sum hvec_i h_i (see `cartan_p`) as a UElem, its
        monomials sorted into this engine's words."""
        key = (tuple(hvec), chi)
        hit = self._p_memo.get(key)
        if hit is None:
            hit = self._memoize(self._p_memo, key, UElem._wrap(
                {tuple(sorted(mono, key=self._key)): c for mono, c in cartan_p(*key, self.monoid)}))
        return hit

    def p(self, which, chi):
        """p_i(chi) for a Cartan index, or p_alpha(chi) for a root label
        (the coroot map sends h to h_alpha).  The h-vector of each `which`
        is checked and built once, then read from `_hvecs`; its key holds the
        type, so a value the checks refuse is refused, even one equal to a
        stored key (1.0 == 1, but 1.0 is no Cartan index)."""
        key = (type(which), which)
        hvec = self._hvecs.get(key)
        if hvec is None:
            if isinstance(which, int):
                self._cartan(which)
                hvec = tuple(1 if j == which else 0 for j in range(1, self.spec.rank + 1))
            else:
                self.spec.root(which)       # an unknown label is named as such
                hvec = tuple(self.spec.coroot(which))
            self._hvecs[key] = hvec
        hit = self._p_memo.get((hvec, chi))
        return self.p_vector(hvec, chi) if hit is None else hit

    # -- divided / p-basis conversion --------------------------------------

    def _convert(self, x, block_of, cls):
        """x in the other basis: each word split into its blocks on one symbol,
        each block replaced by its alternatives (`block_of`, read through
        this engine's table of it), and each choice of alternatives
        concatenated.  Blocks come in symbol order, so the concatenation is
        their product.  While every block so far has one alternative, the
        word's one key and coefficient are extended in place; the first
        block with several starts the list of partial products.  x is put
        over its common denominator once; to_divided's blocks have int
        coefficients, so its sums run in ints."""
        d, xs = over_common(x.terms)
        table = self._blocks.setdefault(block_of, {})
        parity, monoid = self._parity, self.monoid
        out = {}
        for w, c in xs:
            key, acc = (), None
            i, n = 0, len(w)
            while i < n:
                sym = w[i][0]
                j = i + 1
                while j < n and w[j][0] == sym:
                    j += 1
                block = w[i:j]
                part = table.get(block)
                if part is None:
                    part = table[block] = block_of(block, parity[sym], monoid)
                if acc is None and len(part) == 1:
                    (w2, c2), = part
                    key += w2
                    c *= c2
                else:
                    if acc is None:
                        acc = [(key, c)]
                    acc = [(k + w2, c1 * c2) for k, c1 in acc for w2, c2 in part]
                i = j
            if acc is None:
                out[key] = out.get(key, 0) + c
            else:
                for k, c1 in acc:
                    out[k] = out.get(k, 0) + c1
        return cls._wrap(divide(out.items(), d))

    def to_divided(self, x):
        """Exact change of basis into the divided-power integral basis."""
        return self._convert(x, block_to_divided, DividedForm)

    def from_divided(self, df):
        """Inverse of to_divided.  A key that is not a canonical word of this
        engine raises AlgebraError naming it."""
        for w in df.terms:
            try:
                keys = [self._key(self.letter(*L)) for L in w]
            except (TypeError, ValueError):     # not (symbol, element) letters
                keys = None
            if keys is None or any(k2 < k1 or (k1 == k2 and self._parity[L[0]])
                                   for k1, k2, L in zip(keys, keys[1:], w)):
                raise AlgebraError("divided-basis key %r is not a canonical word of %s"
                                   % (w, self.spec.name))
        return self._convert(df, block_from_divided, UElem)

    def is_integral(self, x):
        """Integral-form membership test for a UElem."""
        if not isinstance(x, UElem):
            raise AlgebraError("is_integral takes a UElem, not %s" % type(x).__name__)
        return self.to_divided(x).is_integral()

    # -- basis enumeration and triangular splitting -------------------------

    def enumerate_basis(self, degree_cap, syms=None):
        """All divided-basis keys of filtration degree <= degree_cap, by degree
        and then in word order.  Needs a finite coefficient basis."""
        if degree_cap < 0:
            raise AlgebraError("degree cap must be >= 0")
        if syms is None:
            syms = self.order.syms
        letters = sorted((self.letter(sym, a) for sym in syms for a in self.monoid.elements()),
                         key=self._key)
        # in a sorted word a repeated letter is adjacent to its copy
        return [w for n in range(degree_cap + 1)
                for w in itertools.combinations_with_replacement(letters, n)
                if not any(u == v and self._parity[u[0]] for u, v in zip(w, w[1:]))]

    def triangular_factor(self, x):
        """Factor an integral element through B- . B0 . B+ (Corollary-style
        triangular decomposition).  Returns (engine, [(coeff, k-, k0, k+)])
        where the keys concatenate to the divided-basis key of each term."""
        if self.order.is_triangular():
            eng, y = self, x
        else:
            eng = Engine(self.spec, self.monoid, Order.triangular(self.spec))
            y = eng.adopt(x)
        out, segment = [], eng.order.segment
        for key, c in eng.to_divided(y).terms.items():
            segs = [segment[sym] for sym, _ in key]
            if segs != sorted(segs):
                from .exprio import divided_key_str     # exprio imports this module
                raise AlgebraError("triangular order failed to segment %s"
                                   % divided_key_str(eng, key))
            n0, n1 = segs.count(-1), len(segs) - segs.count(1)
            out.append((c, key[:n0], key[n0:n1], key[n1:]))
        return eng, out
