"""Chevalley-type data for classical Lie superalgebras: root tables with
parities, integer structure constants, coroots, validation, presets, and a
line-oriented file format for user-supplied tables."""

import functools
import os
import re
from dataclasses import dataclass
from fractions import Fraction

from .digits import DIGIT, is_int, to_int


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
class PairPlane:
    """The plane two even roots alpha, beta span, as Lemma 4.4 reads it."""
    kind: object             # "A1xA1", "A2", "B2", "G2", or None for another count
    bottom: bool             # beta - alpha is no root, or alpha + beta is none
    quadrant: tuple          # the (i, j), 1 <= i, j <= 4, with i*alpha + j*beta a root


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
        self._even = tuple(r.label for r in self.roots if r.parity == 0)
        self._odd = tuple(r.label for r in self.roots if r.parity == 1)
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
            for _, c in terms:
                if c != int(c):
                    raise SpecError("bracket %s %s: non-integer structure constant %s"
                                    % (format_sym(s1), format_sym(s2), c))
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

    def root_constant(self, a, b, c):
        """The coefficient of x_c in [x_a, x_b], or 0."""
        return dict(self.bracket(('x', a), ('x', b))).get(('x', c), 0)

    def even_roots(self):
        return self._even

    def odd_roots(self):
        return self._odd

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
    (empty = valid), in symbol order.  Covers unknown symbols, super
    antisymmetry, super Jacobi, grading, negation involution and coroot
    consistency, on what the table holds: its nonzero brackets, each
    (alpha, -alpha) and each (h_i, root)."""
    bad = []
    syms = spec.all_syms()
    idx = {s: n for n, s in enumerate(syms)}
    par = [spec.parity(s) for s in syms]
    rank = spec.rank
    known = {(idx[s1], idx[s2]): terms for (s1, s2), terms in spec.brackets.items()
             if s1 in idx and s2 in idx}

    # symbols the table lacks: in the results of its pairs, in symbol order,
    # then in the other brackets, keys included, in the table's order
    keys = [(syms[i], syms[j]) for i, j in sorted(known)]
    keys += [key for key in spec.brackets if not (key[0] in idx and key[1] in idx)]
    for key in keys:
        for s in dict.fromkeys(key + tuple(sym for sym, _ in spec.brackets[key])):
            if s not in idx:
                bad.append("bracket [%s, %s] mentions unknown symbol %s"
                           % (format_sym(key[0]), format_sym(key[1]), format_sym(s)))

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
    for i, j in sorted({p for i, j in known for p in ((i, j), (j, i))}):
        s1, s2 = syms[i], syms[j]
        sign = -1 if (par[i] and par[j]) else 1
        if dict(spec.bracket(s1, s2)) != {k: -sign * v for k, v in spec.bracket(s2, s1)}:
            bad.append("antisymmetry fails for (%s, %s)" % (s1, s2))

    # grading: for each h_i, its brackets with the h_j, then with the roots
    grading = [((i, j), "Cartan generators h%d, h%d do not commute" % (i + 1, j + 1))
               for i, j in known if max(i, j) < rank]
    for i in range(1, rank + 1):
        for k, r in enumerate(spec.roots):
            want = {('x', r.label): r.ev[i - 1]} if r.ev[i - 1] else {}
            if dict(spec.bracket(('h', i), ('x', r.label))) != want:
                grading.append(((i - 1, rank + k), "[h%d, x_%s] disagrees with the "
                                "stored evaluation" % (i, r.label)))
    bad += [v for _, v in sorted(grading)]
    pairs = {(i, j) for i, j in known if min(i, j) >= rank}
    pairs |= {(idx['x', r.label], idx['x', r.neg]) for r in spec.roots if spec.has_root(r.neg)}
    for i, j in sorted(pairs):
        r1, r2 = spec.roots[i - rank], spec.roots[j - rank]
        got = dict(spec.bracket(syms[i], syms[j]))
        if r2.label == r1.neg:
            if any(s[0] != 'h' for s in got):
                bad.append("[x_%s, x_%s] leaves the Cartan" % (r1.label, r2.label))
            cor = spec.coroots.get(r1.label)
            if cor is None or tuple(cor) != tuple(got.get(('h', n), 0) for n in range(1, rank + 1)):
                bad.append("coroot of %s disagrees with [x_%s, x_%s]"
                           % (r1.label, r1.label, r2.label))
            continue
        ssum = tuple(a + b for a, b in zip(r1.ev, r2.ev))
        target = spec.find_root(ssum)
        if target is None and got:
            bad.append("[x_%s, x_%s] should vanish (%r is not a root)" % (r1.label, r2.label, ssum))
        elif target is not None and any(s != ('x', target) for s in got):
            bad.append("[x_%s, x_%s] is not a multiple of x_%s" % (r1.label, r2.label, target))
    for r in spec.roots:
        cor = spec.coroots.get(r.label)
        if r.parity == 0 and cor is not None and sum(e * c for e, c in zip(r.ev, cor)) != 2:
            bad.append("alpha(h_alpha) != 2 for even root %s" % r.label)

    # super Jacobi: [a,[b,c]] - [[a,b],c] - (-1)^{|a||b|} [b,[a,c]] vanishes.  Each
    # term is summed from the nonzero brackets: for each s in a nonzero [x, y],
    # [t, s] enters the triples (t, x, y) and (x, t, y), and [s, t] enters (x, y, t).
    into, out = {}, {}      # s -> (t, [t, s]) and (t, [s, t]), for t of the table
    for (s1, s2), terms in spec.brackets.items():
        if s1 in idx:
            into.setdefault(s2, []).append((idx[s1], terms))
        if s2 in idx:
            out.setdefault(s1, []).append((idx[s2], terms))
    jacobi = {}             # triple -> symbol -> its coefficient in the sum
    for (x, y), terms in known.items():
        for s, k in terms:
            parts = [((t, x, y), ts, k) for t, ts in into.get(s, ())]
            parts += [((x, t, y), ts, k if par[x] and par[t] else -k) for t, ts in into.get(s, ())]
            parts += [((x, y, t), st, -k) for t, st in out.get(s, ())]
            for triple, ts, c in parts:
                acc = jacobi.setdefault(triple, {})
                for w, m in ts:
                    acc[w] = acc.get(w, 0) + c * m
    bad += ["super Jacobi fails on (%s, %s, %s)" % tuple(syms[n] for n in t)
            for t in sorted(jacobi) if any(jacobi[t].values())]
    return bad


def root_string(spec, alpha, beta):
    """The largest r with beta - alpha, ..., beta - r*alpha all roots, by a
    walk of the stored root set.  For even-even pairs with alpha+beta a
    root, the structure constant c of [x_alpha, x_beta] must have |c| = r+1
    (the Chevalley magnitude rule), else SpecError."""
    r = 0
    while spec.root_sum(alpha, beta, -(r + 1)):
        r += 1
    target = spec.root_sum(alpha, beta)
    if target is not None and spec.root(alpha).parity == spec.root(beta).parity == 0:
        c = spec.root_constant(alpha, beta, target)
        if abs(c) != r + 1:
            raise SpecError("|c_{%s,%s}| = %d but the root string gives r+1 = %d"
                            % (alpha, beta, abs(c), r + 1))
    return r


@functools.cache
def pair_plane(spec, alpha, beta):
    """The PairPlane of two even roots, classified once per spec.  Its type
    comes from the count of even roots i*alpha + j*beta, (i, j) != 0,
    |i|, |j| <= 4.  When alpha + beta is a root the bottom comes from
    `root_string`, so a table that breaks the Chevalley magnitude rule raises
    SpecError here."""
    span = {(i, j): spec.root_sum(alpha, beta, i, j)
            for i in range(-4, 5) for j in range(-4, 5) if i or j}
    span = {ij: lab for ij, lab in span.items() if lab is not None}
    count = sum(spec.root(lab).parity == 0 for lab in span.values())
    return PairPlane({4: "A1xA1", 6: "A2", 8: "B2", 12: "G2"}.get(count),
                     (1, 1) not in span or root_string(spec, alpha, beta) == 0,
                     tuple(ij for ij in span if min(ij) >= 1))


# ---------------------------------------------------------------------------
# presets via integer matrix realizations

def _e(n, i, j):
    m = [[0] * n for _ in range(n)]
    m[i - 1][j - 1] = 1
    return m


def _madd(a, b, s=1):
    return [[x + s * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mmul(a, b):
    """a b for square matrices, skipping zero entries: a defining
    representation's basis matrices are mostly zero."""
    out = [[0] * len(a) for _ in a]
    for row, out_row in zip(a, out):
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        out_row[j] += x * y
    return out


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


def _spec_from_matrices(name, idx_par, rank, root_list):
    """Build a full spec from matrices.

    root_list: list of (label, matrix, neg_label, positive).  The Cartan
    generator h_i is [x_a, x_{-a}], the super bracket, for a the i-th
    positive root of root_list.  Evaluation vectors, coroots, and all
    brackets are computed exactly from supercommutators; the spec refuses
    non-integer structure constants.
    """
    labels = [lab for lab, _, _, _ in root_list]
    mats = {('x', lab): m for lab, m, _, _ in root_list}
    parities = {s: _mat_parity(m, idx_par) for s, m in mats.items()}
    simple = [(lab, neg) for lab, _, neg, pos in root_list if pos][:rank]
    for i, (lab, neg) in enumerate(simple, 1):
        a, b = ('x', lab), ('x', neg)
        mats[('h', i)] = _supercomm(mats[a], mats[b], parities[a], parities[b])
        parities[('h', i)] = 0
    basis_syms = [('h', i) for i in range(1, rank + 1)] + [('x', lab) for lab in labels]

    coords = _coordinate_map([mats[s] for s in basis_syms])

    def expand(m):
        return tuple((sym, c) for sym, c in zip(basis_syms, coords(m)) if c)

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
        coroots[lab] = tuple(cor.get(('h', i), 0) for i in range(1, rank + 1))
    return SuperAlgebraSpec(name, rank, roots, coroots, brackets)


def sl_mn(name, m, n):
    """sl(m|n) on its (m+n)x(m+n) matrices, indices 1..m even.  The root
    e_i - e_j is x = E_ij, labelled a_i+...+a_{j-1} (`a` when m + n = 2), and
    its negative is E_ji, labelled -a_i-...-a_{j-1}.  The roots come by
    height, then by row, each positive followed by its negative."""
    size = m + n
    roots = []
    for height in range(1, size):
        for i in range(1, size - height + 1):
            j = i + height
            simple = ["a%d" % k for k in range(i, j)] if size > 2 else ["a"]
            lab, neg = "+".join(simple), "".join("-" + a for a in simple)
            roots += [(lab, _e(size, i, j), neg, True), (neg, _e(size, j, i), lab, False)]
    return _spec_from_matrices(name, (0,) * m + (1,) * n, size - 1, roots)


def _preset_sp4():
    # sp(4) on basis e_1, e_2, f_1, f_2; a1 = eps1 - eps2 (short), a2 = 2*eps2 (long)
    return _spec_from_matrices(
        "sp4", (0, 0, 0, 0), 2,
        [("a1", _madd(_e(4, 1, 2), _e(4, 4, 3), -1), "-a1", True),
         ("-a1", _madd(_e(4, 2, 1), _e(4, 3, 4), -1), "a1", False),
         ("a2", _e(4, 2, 4), "-a2", True),
         ("-a2", _e(4, 4, 2), "a2", False),
         ("a1+a2", _madd(_e(4, 1, 4), _e(4, 2, 3), 1), "-a1-a2", True),
         ("-a1-a2", _madd(_e(4, 4, 1), _e(4, 3, 2), 1), "a1+a2", False),
         ("2a1+a2", _e(4, 1, 3), "-2a1-a2", True),
         ("-2a1-a2", _e(4, 3, 1), "2a1+a2", False)])


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
    "sl2": functools.partial(sl_mn, "sl2", 2, 0),
    "sl3": functools.partial(sl_mn, "sl3", 3, 0),
    "sp4": _preset_sp4,
    "sl21": functools.partial(sl_mn, "sl21", 2, 1),
    "osp12": _preset_osp12,
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name):
    if name not in _PRESETS:
        raise SpecError("unknown preset %r (have %s)" % (name, ", ".join(PRESET_NAMES)))
    return _build_preset(name)


@functools.cache
def _build_preset(name):
    spec = _PRESETS[name]()
    bad = validate(spec)
    if bad:
        raise SpecError("preset %s is invalid: %s" % (name, "; ".join(bad)))
    return spec


# ---------------------------------------------------------------------------
# file format

_SYM_RE = re.compile(r"^(?:h(%s+)|x\[([^\]]+)\])$" % DIGIT)


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
    direction; the other is completed by super antisymmetry.  The rank is not
    negative, a coroot names a root, no line restates the rank, a coroot or
    a bracket pair, and no line holds a field past its form.  The resulting
    table is validated and rejected with a report if inconsistent
    (check=False skips validation so callers can report violations
    themselves).
    """
    rank = None
    roots = []
    coroots = {}
    coroot_lines = {}
    given = {}
    section = None
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split('#', 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "algebra":
            if len(toks) != 2:
                raise SpecError("line %d: algebra wants a name" % line_no)
            name = toks[1]
            continue
        if toks[0] == "cartan":
            if rank is not None:
                raise SpecError("line %d: cartan is stated twice" % line_no)
            try:
                rank, = (to_int(t) for t in toks[1:])
            except ValueError:
                raise SpecError("line %d: cartan wants a rank" % line_no)
            if rank < 0:
                raise SpecError("line %d: cartan rank %d is negative" % (line_no, rank))
            continue
        if toks[0] in ("roots", "coroots", "brackets"):
            if len(toks) != 1:
                raise SpecError("line %d: %s takes nothing after it" % (line_no, toks[0]))
            section = toks[0]
            continue
        if section in ("roots", "coroots") and rank is None:
            raise SpecError("line %d: cartan rank must come before %s" % (line_no, section))
        if section == "roots":
            if (len(toks) < 4 + rank or toks[1] not in ("even", "odd")
                    or toks[4 + rank:] not in ([], ["positive"])):
                raise SpecError("line %d: want '<label> even|odd <%d ints> neg <label> [positive]'"
                                % (line_no, rank))
            label = toks[0]
            if is_int(label) or "," in label:
                raise SpecError("line %d: root label %r reads as a Cartan index or holds ',',"
                                " so no order can name it" % (line_no, label))
            parity = 0 if toks[1] == "even" else 1
            try:
                ev = tuple(to_int(t) for t in toks[2:2 + rank])
            except ValueError:
                raise SpecError("line %d: bad evaluation vector" % line_no)
            if toks[2 + rank] != "neg":
                raise SpecError("line %d: missing 'neg' link" % line_no)
            neg = toks[3 + rank]
            positive = len(toks) == 5 + rank
            roots.append(Root(label, parity, ev, neg, positive))
        elif section == "coroots":
            if toks[0] in coroots:
                raise SpecError("line %d: coroot %s is stated twice" % (line_no, toks[0]))
            coroot_lines[toks[0]] = line_no
            try:
                coroots[toks[0]] = tuple(to_int(t) for t in toks[1:1 + rank])
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
            if (s1, s2) in given:
                raise SpecError("line %d: bracket %s %s is stated twice"
                                % (line_no, format_sym(s1), format_sym(s2)))
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
                    c = to_int(rhs[k + 1])
                except ValueError:
                    raise SpecError("line %d: bad integer %r" % (line_no, rhs[k + 1]))
                terms.append((sym, c))
            given[(s1, s2)] = tuple(terms)
        else:
            raise SpecError("line %d: content outside any section" % line_no)
    if rank is None:
        raise SpecError("missing 'cartan <rank>' line")
    labels = {r.label for r in roots}
    for label, line_no in coroot_lines.items():
        if label not in labels:
            raise SpecError("line %d: coroot %s names no root" % (line_no, label))

    parities = {('h', i): 0 for i in range(1, rank + 1)}
    for r in roots:
        parities[('x', r.label)] = r.parity
    brackets = {}
    for (s1, s2), terms in given.items():
        for s in (s1, s2) + tuple(sym for sym, _ in terms):
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
