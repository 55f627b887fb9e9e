"""Coefficient algebras A with a multiplication-closed basis, modeled as
commutative monoids on integer exponent vectors (optionally truncated, which
adds an absorbing zero)."""

import re

from .digits import DIGIT, is_digits

_ELT_RE = re.compile(r"^([a-z])(?:\^(-?%s+))?$" % DIGIT)


class MonoidError(ValueError):
    pass


class MonoidBasis:
    """Basis of A closed under multiplication.

    Elements are exponent tuples over `varnames`; the absorbing zero of a
    truncated monoid is represented by None and is never itself a basis
    element.  Elements are ordered as tuples, exponent by exponent.
    """

    def __init__(self, name, varnames, laurent=False, trunc=None):
        if trunc is not None and (laurent or len(varnames) != 1):
            raise MonoidError("truncation is only supported for one non-negative generator")
        self.name = name
        self.varnames = tuple(varnames)
        self.laurent = laurent
        self.trunc = trunc
        self.one = (0,) * len(self.varnames)
        self._fields = (self.varnames, laurent, trunc)

    def check(self, a):
        if len(a) != len(self.varnames):
            raise MonoidError("element %r has wrong arity for %s" % (a, self.name))
        if not self.laurent and any(e < 0 for e in a):
            raise MonoidError("negative exponent in %s" % self.format_elt(a))
        if self.trunc is not None and sum(a) >= self.trunc:
            raise MonoidError("%s is not a basis element below the truncation bound"
                              % self.format_elt(a))
        return a

    def mul(self, a, b):
        """Product of basis elements; None when truncation kills it."""
        if a is None or b is None:
            return None
        c = tuple(x + y for x, y in zip(a, b))
        if self.trunc is not None and sum(c) >= self.trunc:
            return None
        return c

    def power(self, a, n):
        if n < 0:
            raise MonoidError("negative power")
        if a is None:
            return self.one if n == 0 else None
        c = tuple(n * x for x in a)
        if self.trunc is not None and sum(c) >= self.trunc:
            return None
        return c

    @property
    def finite(self):
        return self.trunc is not None

    def elements(self):
        """All basis elements, lowest degree first.  Only for truncated monoids."""
        if not self.finite:
            raise MonoidError("monoid %s has an infinite basis" % self.name)
        return [(j,) for j in range(self.trunc)]

    def format_elt(self, a):
        if a is None:
            return "0"
        parts = []
        for v, e in zip(self.varnames, a):
            if e == 0:
                continue
            parts.append(v if e == 1 else "%s^%d" % (v, e))
        return "*".join(parts) if parts else "1"

    def parse_elt(self, text):
        text = text.strip()
        if text == "1":
            return self.one
        exps = {v: 0 for v in self.varnames}
        for piece in text.split("*"):
            m = _ELT_RE.match(piece.strip())
            if not m or m.group(1) not in exps:
                raise MonoidError("cannot parse %r as an element of %s" % (text, self.name))
            e = int(m.group(2)) if m.group(2) else 1
            if e < 0 and not self.laurent:     # refused even if a later factor cancels it
                raise MonoidError("negative exponent in %s^%d" % (m.group(1), e))
            exps[m.group(1)] += e
        return self.check(tuple(exps[v] for v in self.varnames))

    def __eq__(self, other):
        """Monoids that multiply alike are equal, whatever their names."""
        return isinstance(other, MonoidBasis) and self._fields == other._fields

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self):
        return "MonoidBasis(%s)" % self.name


def monoid_preset(name):
    """Presets: poly (C[t]), laurent (C[t,1/t]), poly2 (C[u,v]), trunc:n (C[t]/(t^n))."""
    if name == "poly":
        return MonoidBasis("poly", ("t",))
    if name == "laurent":
        return MonoidBasis("laurent", ("t",), laurent=True)
    if name == "poly2":
        return MonoidBasis("poly2", ("u", "v"))
    if name.startswith("trunc:"):
        bound = name.split(":", 1)[1]
        if not is_digits(bound) or int(bound) < 1:
            raise MonoidError("truncation bound %r is not an integer >= 1" % bound)
        return MonoidBasis(name, ("t",), trunc=int(bound))
    raise MonoidError("unknown monoid preset %r" % name)
