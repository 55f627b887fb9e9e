"""Expression grammar for the CLI and golden files, plus the canonical
printers.  Letters are x[<label>]{<elt>} and h[<i>]{<elt>};
p[<i>]{elt:mult,...} builds Cartan elements; products by juxtaposition;
rational scalars; + - and parentheses.  A letter or a parenthesised group
takes ^r plain and ^(r) divided powers, a letter being checked whatever its
exponent.  A multiset lists elt:mult entries, a bare elt counting once;
empty or 0 is the empty one."""

import math
import re
import sys
from fractions import Fraction
from operator import itemgetter

from .algebra import SpecError
from .combinatorics import Multiset
from .digits import DIGIT, is_digits
from .engine import UElem, word_runs

_NUM_RE = re.compile("%s+(?:/%s+)?" % (DIGIT, DIGIT))
_INT_RE = re.compile("-?%s+" % DIGIT)
# parentheses nest by recursion, so a deeper nesting is refused before it
# reaches the interpreter's recursion limit
MAX_DEPTH = 100


class ParseError(ValueError):
    def __init__(self, msg, pos):
        super().__init__("%s (at position %d)" % (msg, pos))
        self.pos = pos


class _Parser:
    def __init__(self, text, engine):
        self.text = text
        self.engine = engine
        self.pos = 0
        self.depth = 0

    def error(self, msg):
        raise ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error("expected %r" % ch)
        self.pos += 1

    def until(self, closer):
        start = self.pos
        end = self.text.find(closer, self.pos)
        if end < 0:
            self.error("missing %r" % closer)
        self.pos = end + 1
        return self.text[start:end].strip()

    def match_re(self, rx, what):
        self.skip_ws()
        m = rx.match(self.text, self.pos)
        if not m:
            self.error("expected %s" % what)
        self.pos = m.end()
        return m.group(0)

    # grammar ------------------------------------------------------------

    def parse(self):
        out = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return out

    def expr(self):
        """Terms joined by + and -, with an optional sign in front."""
        terms, signs = [], []
        ch = self.peek()
        while True:
            if ch in ("+", "-"):
                self.pos += 1
            signs.append(-1 if ch == "-" else 1)
            terms.append(self.term())
            ch = self.peek()
            if ch not in ("+", "-"):
                return UElem.sum(terms, signs)

    def term(self):
        factors = [self.factor()]
        while is_digits(self.peek()) or self.peek() in ("x", "h", "p", "("):
            factors.append(self.factor())
        scalars = [f for f in factors if isinstance(f, Fraction)]
        acc = self.engine.mul_sum(([f for f in factors if not isinstance(f, Fraction)],))
        return math.prod(scalars) * acc if scalars else acc

    def factor(self):
        ch = self.peek()
        if is_digits(ch):
            start = self.pos
            try:
                return Fraction(self.match_re(_NUM_RE, "a number"))
            except ZeroDivisionError:
                raise ParseError("zero denominator", start) from None
        if ch == "(":
            if self.depth == MAX_DEPTH:
                self.error("parentheses nested deeper than %d" % MAX_DEPTH)
            self.depth += 1
            self.pos += 1
            inner = self.expr()
            self.expect(")")
            self.depth -= 1
            return self.power(inner)
        if ch == "x" or ch == "h":
            return self.letter(ch)
        if ch == "p":
            return self.pelem()
        self.error("expected a scalar, letter, p-element, or parenthesis")

    def exponent(self):
        """An integer exponent, refused when no index can hold it."""
        self.skip_ws()
        start = self.pos
        text = self.match_re(_INT_RE, "an integer")
        try:
            return _index_int(text, "exponent")
        except ValueError as e:
            raise ParseError(str(e), start) from None

    def power(self, base):
        """base^r (r >= 0) as the chain of r copies of base, or base^(r) as
        that over r!; base itself when no power follows or r is 1."""
        self.skip_ws()
        if not self.text.startswith("^", self.pos):
            return base
        self.pos += 1
        divided = self.peek() == "("
        if divided:
            self.pos += 1
        r = self.exponent()
        if divided:
            self.expect(")")
        if r < 0:
            self.error("negative power")
        if r == 1:
            return base
        acc = self.engine.mul_sum(((base,) * r,))
        return Fraction(1, math.factorial(r)) * acc if divided else acc

    def letter(self, kind):
        self.pos += 1
        self.expect("[")
        label = self.until("]")
        self.expect("{")
        elt_text = self.until("}")
        try:
            aelt = self.engine.monoid.parse_elt(elt_text)
        except ValueError as e:
            self.error(str(e))
        if kind == "h":
            if not is_digits(label):
                self.error("h wants a Cartan index")
            sym = ('h', int(label))
        else:
            try:
                self.engine.spec.root(label)
            except SpecError as e:
                self.error(str(e))
            sym = ('x', label)
        return self.power(self.engine.normalize([(sym, aelt)]))

    def pelem(self):
        self.pos += 1
        self.expect("[")
        idx = self.until("]")
        if not is_digits(idx):
            self.error("p wants a Cartan index")
        self.expect("{")
        body = self.until("}")
        try:
            chi = parse_mset(self.engine.monoid, body)
        except ValueError as e:
            self.error(str(e))
        return self.engine.p(int(idx), chi)


def parse_expr(engine, text):
    """Parse an expression into its canonical PBW expansion."""
    return _Parser(text, engine).parse()


def _index_int(text, what):
    """The int that text spells, refused when it does not fit an index: a
    power or a multiplicity past that could never be built."""
    n = int(text)
    if n > sys.maxsize:
        raise ValueError("%s %s is too large" % (what, text.strip()))
    return n


def parse_mset(monoid, text):
    """A multiset over the coefficient basis, e.g. 't:2,t^2' = 2chi_t + chi_{t^2}."""
    text = text.strip()
    if text in ("", "0"):
        return Multiset()
    items = []
    for piece in text.split(","):
        elt, colon, mult = piece.rpartition(":")
        if not colon:
            elt, mult = piece, "1"
        if not is_digits(mult.strip()):
            raise ValueError("multiset entry %r wants elt or elt:mult" % piece.strip())
        items.append((monoid.parse_elt(elt), _index_int(mult, "multiplicity")))
    return Multiset(items)


# ---------------------------------------------------------------------------
# printers

def letter_str(engine, letter, e=1, divided=False):
    sym, aelt = letter
    base = ("h[%d]{%s}" if sym[0] == 'h' else "x[%s]{%s}") % (
        sym[1], engine.monoid.format_elt(aelt))
    if e == 1:
        return base
    return base + ("^(%d)" % e if divided else "^%d" % e)


def _join_terms(pairs, multiline):
    if not pairs:
        return "0"
    sep_plus = "\n+ " if multiline else " + "
    sep_minus = "\n- " if multiline else " - "
    out = []
    for n, (coeff, body) in enumerate(pairs):
        mag = "%s %s" % (abs(coeff), body) if body != "1" else str(abs(coeff))
        if n == 0:
            out.append(("-" if coeff < 0 else "") + mag)
        else:
            out.append((sep_minus if coeff < 0 else sep_plus) + mag)
    return "".join(out)


def word_parts(engine, word, table):
    """A canonical word's (sort key, text).  Each run (letter, exponent) is
    keyed as (letter key, exponent), so x^2 sorts after x y; `table`, made by
    the caller for one call, holds each run's key and text once."""
    parts = []
    for run in word_runs(word):
        part = table.get(run)
        if part is None:
            part = table[run] = (engine._key(run[0]), run[1]), letter_str(engine, *run)
        parts.append(part)
    return tuple([k for k, _ in parts]), " ".join([t for _, t in parts]) or "1"


def mset_str(engine, pairs):
    """A multiset, given by its (element, multiplicity) pairs, as text."""
    return ",".join("%s:%d" % (engine.monoid.format_elt(e), m) for e, m in pairs)


def divided_parts(engine, key, table):
    """A divided-basis key's (sort key, text), block by block, a block being
    its letters on one symbol.  A block is keyed as (order rank, symbol, its
    (element, exponent) runs in word order), which inside a block is the
    elements' exponent-tuple order, and written as p[i]{e:m,...} or its
    divided powers; `table`, made by the caller for one call, holds each
    block's key and text once, under its letters."""
    parts = []
    i, n = 0, len(key)
    while i < n:
        sym = key[i][0]
        j = i + 1
        while j < n and key[j][0] == sym:
            j += 1
        block = key[i:j]
        part = table.get(block)
        if part is None:
            runs = tuple([(a, e) for (_, a), e in word_runs(block)])
            if sym[0] == 'h':
                text = "p[%d]{%s}" % (sym[1], mset_str(engine, runs))
            else:
                text = " ".join([letter_str(engine, (sym, a), e, divided=True) for a, e in runs])
            part = table[block] = (engine.order.rank(sym), sym, runs), text
        parts.append(part)
        i = j
    return tuple([k for k, _ in parts]), " ".join([t for _, t in parts]) or "1"


def divided_key_str(engine, key):
    return divided_parts(engine, key, {})[1]


def _terms_str(parts, engine, x, multiline):
    """x term by term in the order of its keys' `parts` (`word_parts` or
    `divided_parts`), with one table for the call."""
    table = {}
    terms = sorted([(*parts(engine, k, table), c) for k, c in x.terms.items()], key=itemgetter(0))
    return _join_terms([(c, text) for _, text, c in terms], multiline)


def uelem_str(engine, x, multiline=False):
    return _terms_str(word_parts, engine, x, multiline)


def divided_str(engine, df, multiline=False):
    return _terms_str(divided_parts, engine, df, multiline)
