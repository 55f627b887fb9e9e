"""Chevalley-type data for classical Lie superalgebras: root tables with
parities, integer structure constants, coroots, validation, presets, and a
line-oriented file format for user-supplied tables."""

import os
import re
from dataclasses import dataclass
from fractions import Fraction


class SpecError(ValueError):
    pass


@dataclass(frozen=True)
class Root:
    label: str
    parity: int             # 0 even, 1 odd
    ev: tuple               # (alpha(h_1), ..., alpha(h_l))
    neg: str                # label of -alpha
    positive: bool


@dataclass(frozen=True)
class RootStringData:
    alpha: str
    beta: str
    r: int                   # max r with beta - r*alpha still a root (consecutive walk)
    q: int                   # max q with beta + q*alpha still a root
    c: int                   # structure constant of [x_alpha, x_beta] on x_{alpha+beta}


class SuperAlgebraSpec:
    """Immutable bracket table for a superalgebra with one-dimensional root
    spaces.  Symbols are ('h', i) for Cartan generators and ('x', label) for
    root vectors; brackets map ordered symbol pairs to integer combinations."""

    def __init__(self, name, rank, roots, coroots, brackets):
        self.name = name
        self.rank = rank
        self.roots = tuple(roots)
        self.coroots = dict(coroots)
        self._by_label = {r.label: r for r in self.roots}
        if len(self._by_label) != len(self.roots):
            raise SpecError("duplicate root labels")
        self._by_ev = {}
        for r in self.roots:
            if r.ev in self._by_ev:
                raise SpecError("roots %s and %s share the evaluation vector %r"
                                % (self._by_ev[r.ev], r.label, r.ev))
            self._by_ev[r.ev] = r.label
        self.brackets = {}
        for (s1, s2), terms in brackets.items():
            terms = tuple((sym, int(c)) for sym, c in terms if c)
            if terms:
                self.brackets[(s1, s2)] = terms

    # -- symbol helpers -------------------------------------------------

    def all_syms(self):
        """The Cartan symbols h_1..h_l, then the root symbols."""
        return (tuple(('h', i) for i in range(1, self.rank + 1))
                + tuple(('x', r.label) for r in self.roots))

    def root(self, label):
        try:
            return self._by_label[label]
        except KeyError:
            raise SpecError("unknown root label %r in algebra %s" % (label, self.name))

    def has_root(self, label):
        return label in self._by_label

    def parity(self, sym):
        if sym[0] == 'h':
            return 0
        return self.root(sym[1]).parity

    def bracket(self, s1, s2):
        return self.brackets.get((s1, s2), ())

    def even_roots(self):
        return tuple(r.label for r in self.roots if r.parity == 0)

    def odd_roots(self):
        return tuple(r.label for r in self.roots if r.parity == 1)

    def negative_of(self, label):
        return self.root(label).neg

    def find_root(self, ev):
        """Root label with the given evaluation vector, or None."""
        return self._by_ev.get(tuple(ev))

    def root_sum(self, l1, l2, k1=1, k2=1):
        """Label of k1*alpha + k2*beta if it is a root, else None."""
        e1, e2 = self.root(l1).ev, self.root(l2).ev
        return self._by_ev.get(tuple(k1 * a + k2 * b for a, b in zip(e1, e2)))

    def coroot(self, label):
        try:
            return self.coroots[label]
        except KeyError:
            raise SpecError("no coroot stored for %r" % label)

    def __repr__(self):
        return "SuperAlgebraSpec(%s)" % self.name


# ---------------------------------------------------------------------------
# validation

def validate(spec):
    """Check the Chevalley-table invariants; returns a list of violations
    (empty = valid).  Covers super antisymmetry, super Jacobi, grading,
    negation involution, and coroot consistency."""
    bad = []
    syms = spec.all_syms()
    par = {s: spec.parity(s) for s in syms}

    for r in spec.roots:
        n = spec.root(r.neg) if spec.has_root(r.neg) else None
        if n is None:
            bad.append("root %s: negative %s missing" % (r.label, r.neg))
            continue
        if n.neg != r.label:
            bad.append("negation of %s is not an involution" % r.label)
        if n.parity != r.parity:
            bad.append("roots %s and %s differ in parity" % (r.label, n.label))
        if tuple(-e for e in r.ev) != n.ev:
            bad.append("evaluation vectors of %s and %s are not opposite" % (r.label, n.label))
        if r.positive == n.positive:
            bad.append("exactly one of %s, %s must be positive" % (r.label, n.label))

    # antisymmetry: [z, w] = -(-1)^{|z||w|} [w, z]
    for s1 in syms:
        for s2 in syms:
            sign = -1 if (par[s1] and par[s2]) else 1
            lhs = dict(spec.bracket(s1, s2))
            rhs = {k: -sign * v for k, v in spec.bracket(s2, s1)}
            if lhs != rhs:
                bad.append("antisymmetry fails for (%s, %s)" % (s1, s2))

    # grading
    for i in range(1, spec.rank + 1):
        for j in range(1, spec.rank + 1):
            if spec.bracket(('h', i), ('h', j)):
                bad.append("Cartan generators h%d, h%d do not commute" % (i, j))
        for r in spec.roots:
            want = {('x', r.label): r.ev[i - 1]} if r.ev[i - 1] else {}
            if dict(spec.bracket(('h', i), ('x', r.label))) != want:
                bad.append("[h%d, x_%s] disagrees with the stored evaluation" % (i, r.label))
    for r1 in spec.roots:
        for r2 in spec.roots:
            got = dict(spec.bracket(('x', r1.label), ('x', r2.label)))
            ssum = tuple(a + b for a, b in zip(r1.ev, r2.ev))
            if r2.label == r1.neg:
                if any(s[0] != 'h' for s in got):
                    bad.append("[x_%s, x_%s] leaves the Cartan" % (r1.label, r2.label))
                cor = spec.coroots.get(r1.label)
                have = tuple(got.get(('h', i), 0) for i in range(1, spec.rank + 1))
                if cor is None or tuple(cor) != have:
                    bad.append("coroot of %s disagrees with [x_%s, x_%s]"
                               % (r1.label, r1.label, r2.label))
            else:
                target = spec.find_root(ssum)
                if target is None:
                    if got:
                        bad.append("[x_%s, x_%s] should vanish (%r is not a root)"
                                   % (r1.label, r2.label, ssum))
                elif any(s != ('x', target) for s in got):
                    bad.append("[x_%s, x_%s] is not a multiple of x_%s"
                               % (r1.label, r2.label, target))

    for r in spec.roots:
        if r.parity == 0:
            cor = spec.coroots.get(r.label)
            if cor is not None and sum(e * c for e, c in zip(r.ev, cor)) != 2:
                bad.append("alpha(h_alpha) != 2 for even root %s" % r.label)

    # super Jacobi: [a,[b,c]] = [[a,b],c] + (-1)^{|a||b|} [b,[a,c]]
    for a in syms:
        for b in syms:
            sgn = -1 if (par[a] and par[b]) else 1
            for c in syms:
                left = {}
                for sym, k in spec.bracket(b, c):
                    for sym2, k2 in spec.bracket(a, sym):
                        left[sym2] = left.get(sym2, 0) + k * k2
                right = {}
                for sym, k in spec.bracket(a, b):
                    for sym2, k2 in spec.bracket(sym, c):
                        right[sym2] = right.get(sym2, 0) + k * k2
                for sym, k in spec.bracket(a, c):
                    for sym2, k2 in spec.bracket(b, sym):
                        right[sym2] = right.get(sym2, 0) + sgn * k * k2
                left = {k: v for k, v in left.items() if v}
                right = {k: v for k, v in right.items() if v}
                if left != right:
                    bad.append("super Jacobi fails on (%s, %s, %s)" % (a, b, c))
    return bad


def root_string(spec, alpha, beta):
    """Walk the stored root set to get the alpha-string through beta, plus the
    structure constant of [x_alpha, x_beta].  For even-even pairs with
    alpha+beta a root, |c| = r+1 is also asserted (the Chevalley magnitude
    rule); other parities are reported without that check."""
    ra, rb = spec.root(alpha), spec.root(beta)
    r = 0
    while spec.find_root(tuple(b - (r + 1) * a for a, b in zip(ra.ev, rb.ev))):
        r += 1
    q = 0
    while spec.find_root(tuple(b + (q + 1) * a for a, b in zip(ra.ev, rb.ev))):
        q += 1
    target = spec.root_sum(alpha, beta)
    c = 0
    if target is not None:
        c = dict(spec.bracket(('x', alpha), ('x', beta))).get(('x', target), 0)
    if target is not None and ra.parity == 0 and rb.parity == 0 and abs(c) != r + 1:
        raise SpecError("|c_{%s,%s}| = %d but the root string gives r+1 = %d"
                        % (alpha, beta, abs(c), r + 1))
    return RootStringData(alpha, beta, r, q, c)


# ---------------------------------------------------------------------------
# presets via integer matrix realizations

def _e(n, i, j):
    m = [[0] * n for _ in range(n)]
    m[i - 1][j - 1] = 1
    return m


def _madd(a, b, s=1):
    return [[x + s * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _mat_parity(m, idx_par):
    """Parity of a homogeneous matrix with respect to index parities."""
    par = None
    for i, row in enumerate(m):
        for j, v in enumerate(row):
            if v:
                p = (idx_par[i] + idx_par[j]) % 2
                if par is None:
                    par = p
                elif par != p:
                    raise SpecError("matrix is not parity homogeneous")
    return 0 if par is None else par


def _supercomm(a, b, pa, pb):
    ab = _mmul(a, b)
    ba = _mmul(b, a)
    sign = -1 if (pa and pb) else 1
    return _madd(ab, ba, -sign)


def _coordinate_map(basis_mats):
    """The coordinates of a matrix over a basis of matrices, as a function.

    One Gauss-Jordan elimination over Q, run once per basis, picks an entry
    position (a pivot) for each basis matrix and inverts the square block
    the basis cuts out at those positions; a matrix's coordinates are then
    its pivot entries times that inverse.  A matrix outside the span is
    refused by rebuilding it from its coordinates."""
    dim = len(basis_mats)
    flat = [[x for row in m for x in row] for m in basis_mats]
    cells = len(flat[0])
    rows = [[Fraction(x) for x in f] + [Fraction(int(k == j)) for j in range(dim)]
            for k, f in enumerate(flat)]
    pivots = []
    for col in range(cells):
        rank = len(pivots)
        sel = next((r for r in range(rank, dim) if rows[r][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        pr = rows[rank]
        pr[:] = [v / pr[col] for v in pr]
        for r in range(dim):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], pr)]
        pivots.append(col)
    if len(pivots) < dim:
        raise SpecError("the basis matrices are linearly dependent")
    inverse = [[(k, v) for k, v in enumerate(row[cells:]) if v] for row in rows]

    def coords(target):
        t = [x for row in target for x in row]
        coeffs = [0] * dim
        for col, inv in zip(pivots, inverse):
            if t[col]:
                for k, v in inv:
                    coeffs[k] += t[col] * v
        # integral coefficients rebuild the target in int arithmetic
        coeffs = [c.numerator if c.denominator == 1 else c for c in coeffs]
        used = [(c, f) for c, f in zip(coeffs, flat) if c]
        if any(sum(c * f[cell] for c, f in used) != x for cell, x in enumerate(t)):
            raise SpecError("matrix is not in the span of the basis")
        return coeffs
    return coords


def _spec_from_matrices(name, idx_par, cartans, root_list):
    """Build a full spec from matrices.

    cartans: list of Cartan matrices h_1..h_l.
    root_list: list of (label, matrix, neg_label, positive).
    Evaluation vectors, coroots, and all brackets are computed exactly from
    supercommutators; non-integer structure constants are rejected.
    """
    rank = len(cartans)
    labels = [lab for lab, _, _, _ in root_list]
    mats = {('h', i + 1): cartans[i] for i in range(rank)}
    for lab, m, _, _ in root_list:
        mats[('x', lab)] = m
    parities = {s: _mat_parity(m, idx_par) for s, m in mats.items()}
    basis_syms = [('h', i) for i in range(1, rank + 1)] + [('x', lab) for lab in labels]

    coords = _coordinate_map([mats[s] for s in basis_syms])

    def expand(m):
        coeffs = coords(m)
        out = []
        for sym, c in zip(basis_syms, coeffs):
            if c:
                if c.denominator != 1:
                    raise SpecError("non-integer structure constant %s" % c)
                out.append((sym, int(c)))
        return tuple(out)

    brackets = {}
    for s1 in basis_syms:
        for s2 in basis_syms:
            terms = expand(_supercomm(mats[s1], mats[s2], parities[s1], parities[s2]))
            if terms:
                brackets[(s1, s2)] = terms

    roots = []
    coroots = {}
    for lab, m, neg, pos in root_list:
        ev = []
        for i in range(1, rank + 1):
            terms = dict(brackets.get((('h', i), ('x', lab)), ()))
            ev.append(terms.get(('x', lab), 0))
        roots.append(Root(lab, parities[('x', lab)], tuple(ev), neg, pos))
        cor = dict(brackets.get((('x', lab), ('x', neg)), ()))
        if any(s[0] != 'h' for s in cor):
            raise SpecError("[x_%s, x_%s] leaves the Cartan" % (lab, neg))
        coroots[lab] = tuple(cor.get(('h', i), 0) for i in range(1, rank + 1))
    return SuperAlgebraSpec(name, rank, roots, coroots, brackets)


def _preset_sl2():
    h1 = _madd(_e(2, 1, 1), _e(2, 2, 2), -1)
    return _spec_from_matrices(
        "sl2", (0, 0), [h1],
        [("a", _e(2, 1, 2), "-a", True),
         ("-a", _e(2, 2, 1), "a", False)])


def _preset_sl3():
    h1 = _madd(_e(3, 1, 1), _e(3, 2, 2), -1)
    h2 = _madd(_e(3, 2, 2), _e(3, 3, 3), -1)
    return _spec_from_matrices(
        "sl3", (0, 0, 0), [h1, h2],
        [("a1", _e(3, 1, 2), "-a1", True), ("-a1", _e(3, 2, 1), "a1", False),
         ("a2", _e(3, 2, 3), "-a2", True), ("-a2", _e(3, 3, 2), "a2", False),
         ("a1+a2", _e(3, 1, 3), "-a1-a2", True), ("-a1-a2", _e(3, 3, 1), "a1+a2", False)])


def _preset_sp4():
    # sp(4) on basis e_1, e_2, f_1, f_2; a1 = eps1 - eps2 (short), a2 = 2*eps2 (long)
    h1 = _madd(_madd(_e(4, 1, 1), _e(4, 3, 3), -1), _madd(_e(4, 2, 2), _e(4, 4, 4), -1), -1)
    h2 = _madd(_e(4, 2, 2), _e(4, 4, 4), -1)
    return _spec_from_matrices(
        "sp4", (0, 0, 0, 0), [h1, h2],
        [("a1", _madd(_e(4, 1, 2), _e(4, 4, 3), -1), "-a1", True),
         ("-a1", _madd(_e(4, 2, 1), _e(4, 3, 4), -1), "a1", False),
         ("a2", _e(4, 2, 4), "-a2", True),
         ("-a2", _e(4, 4, 2), "a2", False),
         ("a1+a2", _madd(_e(4, 1, 4), _e(4, 2, 3), 1), "-a1-a2", True),
         ("-a1-a2", _madd(_e(4, 4, 1), _e(4, 3, 2), 1), "a1+a2", False),
         ("2a1+a2", _e(4, 1, 3), "-2a1-a2", True),
         ("-2a1-a2", _e(4, 3, 1), "2a1+a2", False)])


def _preset_sl21():
    # sl(2,1) block matrices; indices 1,2 even, 3 odd
    h1 = _madd(_e(3, 1, 1), _e(3, 2, 2), -1)
    h2 = _madd(_e(3, 2, 2), _e(3, 3, 3), 1)
    return _spec_from_matrices(
        "sl21", (0, 0, 1), [h1, h2],
        [("a1", _e(3, 1, 2), "-a1", True), ("-a1", _e(3, 2, 1), "a1", False),
         ("a2", _e(3, 2, 3), "-a2", True), ("-a2", _e(3, 3, 2), "a2", False),
         ("a1+a2", _e(3, 1, 3), "-a1-a2", True), ("-a1-a2", _e(3, 3, 1), "a1+a2", False)])


# osp(1,2): even part sl2 on the long root 2g, odd root vectors scaled so that
# [x_g, x_g] = 4 x_{2g}; no all-integer matrix realization exists at this
# normalization, so the table is given literally, one direction per bracket.
_OSP12 = """
cartan 1
roots
  2g even 2 neg -2g positive
  -2g even -2 neg 2g
  g odd 1 neg -g positive
  -g odd -1 neg g
coroots
  2g 1
  -2g -1
  g 2
  -g 2
brackets
  h1 x[2g] = x[2g] 2
  h1 x[-2g] = x[-2g] -2
  h1 x[g] = x[g] 1
  h1 x[-g] = x[-g] -1
  x[2g] x[-2g] = h1 1
  x[g] x[g] = x[2g] 4
  x[-g] x[-g] = x[-2g] -4
  x[g] x[-g] = h1 2
  x[g] x[-2g] = x[-g] 1
  x[-g] x[2g] = x[g] 1
"""


def _preset_osp12():
    return load_spec(_OSP12, name="osp12", check=False)


_PRESETS = {
    "sl2": _preset_sl2,
    "sl3": _preset_sl3,
    "sp4": _preset_sp4,
    "sl21": _preset_sl21,
    "osp12": _preset_osp12,
}

PRESET_NAMES = tuple(sorted(_PRESETS))
_cache = {}


def preset(name):
    if name not in _PRESETS:
        raise SpecError("unknown preset %r (have %s)" % (name, ", ".join(PRESET_NAMES)))
    if name not in _cache:
        spec = _PRESETS[name]()
        bad = validate(spec)
        if bad:
            raise SpecError("preset %s is invalid: %s" % (name, "; ".join(bad)))
        _cache[name] = spec
    return _cache[name]


# ---------------------------------------------------------------------------
# file format

_SYM_RE = re.compile(r"^(?:h(\d+)|x\[([^\]]+)\])$")


def _parse_sym(tok, line_no):
    m = _SYM_RE.match(tok)
    if not m:
        raise SpecError("line %d: bad symbol %r (want h<i> or x[<label>])" % (line_no, tok))
    if m.group(1):
        return ('h', int(m.group(1)))
    return ('x', m.group(2))


def format_sym(sym):
    return "h%d" % sym[1] if sym[0] == 'h' else "x[%s]" % sym[1]


def load_spec(text, name="user", check=True):
    """Parse the line-oriented algebra-spec format.

    Sections: `cartan <rank>`, `roots` (label parity ev... neg <label>
    [positive]), `coroots` (label ints...), `brackets` (sym sym = 0 | sym int
    [sym int ...]).  '#' starts a comment.  Brackets may be given in one
    direction; the other is completed by super antisymmetry.  The resulting
    table is validated and rejected with a report if inconsistent (check=False
    skips validation so callers can report violations themselves).
    """
    rank = None
    roots = []
    coroots = {}
    given = {}
    section = None
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split('#', 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "algebra":
            name = toks[1] if len(toks) > 1 else name
            continue
        if toks[0] == "cartan":
            try:
                rank = int(toks[1])
            except (IndexError, ValueError):
                raise SpecError("line %d: cartan wants a rank" % line_no)
            continue
        if toks[0] in ("roots", "coroots", "brackets"):
            section = toks[0]
            continue
        if section == "roots":
            if rank is None:
                raise SpecError("line %d: cartan rank must come before roots" % line_no)
            if len(toks) < 2 + rank + 2 or toks[1] not in ("even", "odd"):
                raise SpecError("line %d: want '<label> even|odd <%d ints> neg <label> [positive]'"
                                % (line_no, rank))
            label = toks[0]
            parity = 0 if toks[1] == "even" else 1
            try:
                ev = tuple(int(t) for t in toks[2:2 + rank])
            except ValueError:
                raise SpecError("line %d: bad evaluation vector" % line_no)
            if toks[2 + rank] != "neg":
                raise SpecError("line %d: missing 'neg' link" % line_no)
            neg = toks[3 + rank]
            positive = len(toks) > 4 + rank and toks[4 + rank] == "positive"
            roots.append(Root(label, parity, ev, neg, positive))
        elif section == "coroots":
            try:
                coroots[toks[0]] = tuple(int(t) for t in toks[1:1 + rank])
            except ValueError:
                raise SpecError("line %d: bad coroot vector" % line_no)
            if len(toks) != 1 + rank:
                raise SpecError("line %d: coroot wants %d integers" % (line_no, rank))
        elif section == "brackets":
            if '=' not in toks:
                raise SpecError("line %d: bracket line needs '='" % line_no)
            eq = toks.index('=')
            if eq != 2:
                raise SpecError("line %d: want '<sym> <sym> = ...'" % line_no)
            s1 = _parse_sym(toks[0], line_no)
            s2 = _parse_sym(toks[1], line_no)
            rhs = toks[3:]
            if rhs == ["0"]:
                given[(s1, s2)] = ()
                continue
            if len(rhs) % 2:
                raise SpecError("line %d: bracket results come in (symbol, integer) pairs" % line_no)
            terms = []
            for k in range(0, len(rhs), 2):
                sym = _parse_sym(rhs[k], line_no)
                try:
                    c = int(rhs[k + 1])
                except ValueError:
                    raise SpecError("line %d: bad integer %r" % (line_no, rhs[k + 1]))
                terms.append((sym, c))
            given[(s1, s2)] = tuple(terms)
        else:
            raise SpecError("line %d: content outside any section" % line_no)
    if rank is None:
        raise SpecError("missing 'cartan <rank>' line")

    parities = {('h', i): 0 for i in range(1, rank + 1)}
    for r in roots:
        parities[('x', r.label)] = r.parity
    brackets = {}
    for (s1, s2), terms in given.items():
        for s in (s1, s2):
            if s not in parities:
                raise SpecError("bracket mentions unknown symbol %s" % format_sym(s))
        brackets[(s1, s2)] = terms
        sign = -1 if (parities[s1] and parities[s2]) else 1
        rev = tuple((sym, -sign * c) for sym, c in terms)
        if (s2, s1) in given:
            if dict(given[(s2, s1)]) != dict(rev):
                raise SpecError("brackets (%s,%s) and (%s,%s) violate super antisymmetry"
                                % (format_sym(s1), format_sym(s2), format_sym(s2), format_sym(s1)))
        else:
            brackets[(s2, s1)] = rev

    spec = SuperAlgebraSpec(name, rank, roots, coroots, brackets)
    if check:
        bad = validate(spec)
        if bad:
            raise SpecError("invalid algebra table:\n  " + "\n  ".join(bad))
    return spec


def dump_spec(spec):
    """Serialize a spec in the load_spec format (one-directional brackets)."""
    lines = ["algebra %s" % spec.name, "cartan %d" % spec.rank, "roots"]
    for r in spec.roots:
        lines.append("  %s %s %s neg %s%s" % (
            r.label, "even" if r.parity == 0 else "odd",
            " ".join(str(e) for e in r.ev), r.neg, " positive" if r.positive else ""))
    lines.append("coroots")
    for r in spec.roots:
        lines.append("  %s %s" % (r.label, " ".join(str(c) for c in spec.coroots[r.label])))
    lines.append("brackets")
    seen = set()
    for (s1, s2), terms in sorted(spec.brackets.items(), key=lambda p: (str(p[0][0]), str(p[0][1]))):
        if (s2, s1) in seen and s1 != s2:
            continue
        seen.add((s1, s2))
        rhs = " ".join("%s %d" % (format_sym(sym), c) for sym, c in terms)
        lines.append("  %s %s = %s" % (format_sym(s1), format_sym(s2), rhs))
    return "\n".join(lines) + "\n"


def read_algebra(algebra):
    """What a spec is built from: (name, None) for a preset, (file stem,
    table text) for an algebra file.  The pair keys caches by content."""
    if algebra in PRESET_NAMES:
        return algebra, None
    try:
        with open(algebra) as fh:
            return os.path.basename(algebra).rsplit(".", 1)[0], fh.read()
    except OSError as e:
        raise SpecError("unknown algebra %r: not a preset (%s) nor a readable file (%s)"
                        % (algebra, ", ".join(PRESET_NAMES), e.strerror or e))


def spec_from_source(source, check=True):
    name, text = source
    return preset(name) if text is None else load_spec(text, name=name, check=check)
