"""Expression grammar for the CLI and golden files, plus the canonical
printers.  Letters are x[<label>]{<elt>} and h[<i>]{<elt>} with ^r plain and
^(r) divided powers; p[<i>]{elt:mult,...} builds Cartan elements; products by
juxtaposition; rational scalars; + - and parentheses.  A multiset lists
elt:mult entries, a bare elt counting once; empty or 0 is the empty one."""

import math
import re
from fractions import Fraction

from .combinatorics import Multiset
from .engine import UElem

_NUM_RE = re.compile(r"\d+(?:/\d+)?")
_INT_RE = re.compile(r"-?\d+")


class ParseError(ValueError):
    def __init__(self, msg, pos):
        super().__init__("%s (at position %d)" % (msg, pos))
        self.pos = pos


class _Parser:
    def __init__(self, text, engine):
        self.text = text
        self.engine = engine
        self.pos = 0

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
        while self.peek() and self.peek() in "0123456789xhp(":
            factors.append(self.factor())
        acc = factors[0]
        if isinstance(acc, Fraction):
            acc = self.engine.scalar(acc)
        for f in factors[1:]:
            if isinstance(f, Fraction):
                acc = f * acc
            else:
                acc = self.engine.mul(acc, f)
        return acc

    def factor(self):
        ch = self.peek()
        if ch.isdigit():
            return Fraction(self.match_re(_NUM_RE, "a number"))
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            self.expect(")")
            return self.power_suffix_group(inner)
        if ch == "x" or ch == "h":
            return self.letter(ch)
        if ch == "p":
            return self.pelem()
        self.error("expected a scalar, letter, p-element, or parenthesis")

    def power_suffix(self):
        """Returns (exponent, divided?) or (1, False)."""
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "^":
            self.pos += 1
            if self.peek() == "(":
                self.pos += 1
                r = int(self.match_re(_INT_RE, "an integer"))
                self.expect(")")
                return r, True
            return int(self.match_re(_INT_RE, "an integer")), False
        return 1, False

    def power_suffix_group(self, inner):
        r, divided = self.power_suffix()
        if r < 0:
            self.error("negative power")
        acc = self.engine.one()
        for _ in range(r):
            acc = self.engine.mul(acc, inner)
        if divided:
            acc = Fraction(1, math.factorial(r)) * acc
        return acc

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
            if not label.isdigit():
                self.error("h wants a Cartan index")
            sym = ('h', int(label))
        else:
            if not self.engine.spec.has_root(label):
                self.error("unknown root label %r in algebra %s"
                           % (label, self.engine.spec.name))
            sym = ('x', label)
        r, divided = self.power_suffix()
        if r < 0:
            self.error("negative power")
        if divided:
            return self.engine.divided_power(sym, aelt, r)
        return self.engine.normalize([(sym, aelt)] * r)

    def pelem(self):
        self.pos += 1
        self.expect("[")
        idx = self.until("]")
        if not idx.isdigit():
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
        if not mult.strip().isdigit():
            raise ValueError("multiset entry %r wants elt or elt:mult" % piece.strip())
        items.append((monoid.parse_elt(elt), int(mult)))
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


def word_str(engine, word):
    if not word:
        return "1"
    return " ".join(letter_str(engine, L, e) for L, e in word)


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


def uelem_str(engine, x, multiline=False):
    words = sorted(x.terms, key=engine.word_key)
    return _join_terms([(x.terms[w], word_str(engine, w)) for w in words], multiline)


def mset_str(engine, ms):
    return ",".join("%s:%d" % (engine.monoid.format_elt(e), m) for e, m in ms.items())


def divided_key_str(engine, key):
    if not key:
        return "1"
    parts = []
    for sym, ms in key:
        if sym[0] == 'h':
            parts.append("p[%d]{%s}" % (sym[1], mset_str(engine, ms)))
        else:
            for aelt, m in ms.items():
                parts.append(letter_str(engine, (sym, aelt), m, divided=True))
    return " ".join(parts)


def divided_sort_key(engine, key):
    return tuple((engine.order.rank(sym), ms.sort_key()) for sym, ms in key)


def divided_str(engine, df, multiline=False):
    keys = sorted(df.terms, key=lambda k: divided_sort_key(engine, k))
    return _join_terms([(df.terms[k], divided_key_str(engine, k)) for k in keys], multiline)
