import dataclasses
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpbw.algebra import Root, SpecError, SuperAlgebraSpec, load_spec, pair_plane, \
    preset, read_algebra, root_string, sl_mn, spec_from_source, validate, PRESET_NAMES

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_presets_validate_clean():
    for name in PRESET_NAMES:
        assert validate(preset(name)) == []


def supercomm(m1, m2, p1, p2):
    n = len(m1)
    prod = lambda a, b: [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                         for i in range(n)]
    ab, ba = prod(m1, m2), prod(m2, m1)
    s = -1 if (p1 and p2) else 1
    return [[x - s * y for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]


def E(i, j):
    m = [[0] * 3 for _ in range(3)]
    m[i - 1][j - 1] = 1
    return m


def test_sl21_matches_supercommutator():
    """Brackets of the sl(2,1) preset equal 3x3 matrix supercommutators with
    indices 1,2 even and 3 odd."""
    spec = preset("sl21")
    mats = {
        ('h', 1): [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        ('h', 2): [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
        ('x', 'a1'): E(1, 2), ('x', '-a1'): E(2, 1),
        ('x', 'a2'): E(2, 3), ('x', '-a2'): E(3, 2),
        ('x', 'a1+a2'): E(1, 3), ('x', '-a1-a2'): E(3, 1),
    }
    par = {s: spec.parity(s) for s in mats}
    for s1, m1 in mats.items():
        for s2, m2 in mats.items():
            want = supercomm(m1, m2, par[s1], par[s2])
            got = [[0] * 3 for _ in range(3)]
            for sym, c in spec.bracket(s1, s2):
                m = mats[sym]
                got = [[g + c * v for g, v in zip(gr, mr)] for gr, mr in zip(got, m)]
            assert got == want, (s1, s2)


def test_the_sl31_file_is_the_builders_table():
    """tests/data/sl31.alg, brackets in one direction, loads to sl(3|1) as
    `sl_mn` builds it."""
    with open(os.path.join(DATA, "sl31.alg")) as fh:
        got = load_spec(fh.read())
    want = sl_mn("sl31", 3, 1)
    assert (got.name, got.rank, got.roots) == (want.name, want.rank, want.roots)
    assert got.coroots == want.coroots
    assert got.brackets == want.brackets


def test_sl21_frozen_facts():
    spec = preset("sl21")
    assert spec.bracket(('x', 'a2'), ('x', '-a2')) == ((('h', 2), 1),)
    assert spec.bracket(('x', 'a1'), ('x', 'a2')) == ((('x', 'a1+a2'), 1),)
    assert spec.bracket(('x', 'a2'), ('x', 'a2')) == ()
    assert spec.coroot('a1+a2') == (1, 1)
    assert spec.root('a2').ev == (-1, 0)   # isotropic: a2(h2) = 0
    assert spec.root('a2').parity == 1
    assert spec.root('a1').parity == 0


def test_osp12_frozen_facts():
    spec = preset("osp12")
    c = dict(spec.bracket(('x', 'g'), ('x', 'g')))
    assert c[('x', '2g')] == 4                      # z_g = 2
    c = dict(spec.bracket(('x', '-g'), ('x', '-g')))
    assert c[('x', '-2g')] == -4                    # z_{-g} = -2
    assert spec.coroot('g') == (2,)
    assert spec.root('g').ev == (1,)
    assert spec.coroot('2g') == (1,)


def test_osp12_brackets_match_the_literal_table():
    # the table osp12 was built from before it went through load_spec's
    # antisymmetry completion, both directions written out
    h, x = ('h', 1), (lambda lab: ('x', lab))
    table = {
        (h, x('2g')): ((x('2g'), 2),),
        (h, x('-2g')): ((x('-2g'), -2),),
        (h, x('g')): ((x('g'), 1),),
        (h, x('-g')): ((x('-g'), -1),),
        (x('2g'), x('-2g')): ((h, 1),),
        (x('g'), x('g')): ((x('2g'), 4),),
        (x('-g'), x('-g')): ((x('-2g'), -4),),
        (x('g'), x('-g')): ((h, 2),),
        (x('g'), x('-2g')): ((x('-g'), 1),),
        (x('-g'), x('2g')): ((x('g'), 1),),
        (x('2g'), h): ((x('2g'), -2),),
        (x('-2g'), h): ((x('-2g'), 2),),
        (x('g'), h): ((x('g'), -1),),
        (x('-g'), h): ((x('-g'), 1),),
        (x('-2g'), x('2g')): ((h, -1),),
        (x('-g'), x('g')): ((h, 2),),
        (x('-2g'), x('g')): ((x('-g'), -1),),
        (x('2g'), x('-g')): ((x('g'), -1),),
    }
    spec = preset("osp12")
    assert spec.brackets == table
    assert [(r.label, r.parity, r.ev, r.neg, r.positive) for r in spec.roots] == [
        ("2g", 0, (2,), "-2g", True), ("-2g", 0, (-2,), "2g", False),
        ("g", 1, (1,), "-g", True), ("-g", 1, (-1,), "g", False)]
    assert spec.coroots == {"2g": (1,), "-2g": (-1,), "g": (2,), "-g": (2,)}


def test_even_alpha_h_alpha_is_two():
    for name in PRESET_NAMES:
        spec = preset(name)
        for r in spec.roots:
            if r.parity == 0:
                assert sum(e * c for e, c in zip(r.ev, spec.coroot(r.label))) == 2


def test_even_even_magnitude_rule():
    # |c_{alpha,beta}| = r + 1 for even-even pairs with alpha+beta a root
    for name in PRESET_NAMES:
        spec = preset(name)
        for a in spec.even_roots():
            for b in spec.even_roots():
                if b == spec.negative_of(a) or spec.root_sum(a, b) is None:
                    continue
                r = root_string(spec, a, b)    # raises on a violation
                c = dict(spec.bracket(('x', a), ('x', b)))[('x', spec.root_sum(a, b))]
                assert abs(c) == r + 1


def test_root_string_examples():
    sl3 = preset("sl3")
    assert root_string(sl3, "a1", "a2") == 0
    sp4 = preset("sp4")
    assert root_string(sp4, "a1", "a2") == 0        # short alpha through long beta
    assert root_string(sp4, "a1", "a1+a2") == 1
    assert root_string(sp4, "a1", "2a1+a2") == 2
    # a string through alpha itself starts at alpha: alpha - alpha is no root
    assert root_string(sl3, "a1", "a1") == 0
    assert root_string(preset("osp12"), "g", "g") == 0


def even_pair_type_scan(spec, alpha, beta):
    """The plane type by counting the even roots i*alpha + j*beta,
    |i|, |j| <= 4, one 9x9 scan per call: what the gates ran per instance."""
    ra, rb = spec.root(alpha), spec.root(beta)
    count = 0
    for i in range(-4, 5):
        for j in range(-4, 5):
            if i == j == 0:
                continue
            lab = spec.find_root(tuple(i * x + j * y for x, y in zip(ra.ev, rb.ev)))
            if lab is not None and spec.root(lab).parity == 0:
                count += 1
    return {4: "A1xA1", 6: "A2", 8: "B2", 12: "G2"}.get(count)


def quadrant_scan(spec, alpha, beta):
    """The shapes (i, j), 1 <= i, j <= 4, with i*alpha + j*beta a root."""
    return [(i, j) for i in range(1, 5) for j in range(1, 5)
            if spec.root_sum(alpha, beta, i, j) is not None]


def bottom_scan(spec, alpha, beta):
    return spec.root_sum(alpha, beta) is None or root_string(spec, alpha, beta) == 0


@pytest.mark.parametrize("algebra", PRESET_NAMES + (os.path.join(DATA, "sl2.alg"),))
def test_pair_plane_matches_the_scans(algebra):
    spec = spec_from_source(read_algebra(algebra))
    kinds = []
    for alpha in spec.even_roots():
        for beta in spec.even_roots():
            if beta in (alpha, spec.negative_of(alpha)):
                continue
            plane = pair_plane(spec, alpha, beta)
            assert plane.kind == even_pair_type_scan(spec, alpha, beta)
            assert plane.bottom == bottom_scan(spec, alpha, beta)
            assert list(plane.quadrant) == quadrant_scan(spec, alpha, beta)
            assert pair_plane(spec, alpha, beta) is plane
            with pytest.raises(dataclasses.FrozenInstanceError):
                plane.bottom = not plane.bottom
            kinds.append(plane.kind)
    # only sl3 and sp4 have two even roots that are neither equal nor opposite;
    # two long roots of sp4, +-a2 and +-(2a1+a2), span an A1xA1 plane over Z
    want = {"sl3": {"A2": 24}, "sp4": {"A1xA1": 8, "B2": 40}}.get(spec.name, {})
    assert {k: kinds.count(k) for k in kinds} == want


def test_pair_plane_keeps_the_magnitude_check():
    spec = preset("sp4")
    brackets = dict(spec.brackets)
    for pair in ((('x', 'a1'), ('x', 'a1+a2')), (('x', 'a1+a2'), ('x', 'a1'))):
        brackets[pair] = tuple((sym, c // 2) for sym, c in brackets[pair])
    bad = SuperAlgebraSpec("bad", spec.rank, spec.roots, spec.coroots, brackets)
    assert pair_plane(bad, "a2", "a1").kind == "B2"
    with pytest.raises(SpecError, match="root string gives r\\+1 = 2"):
        pair_plane(bad, "a1", "a1+a2")


def test_validate_reports_mutations():
    spec = preset("sl2")
    flipped = dict(spec.brackets)
    flipped[(('x', 'a'), ('x', '-a'))] = ((('h', 1), -1),)
    flipped[(('x', '-a'), ('x', 'a'))] = ((('h', 1), 1),)
    bad = validate(SuperAlgebraSpec("sl2flip", 1, spec.roots, spec.coroots, flipped))
    assert any("coroot" in v for v in bad)

    sl3 = preset("sl3")
    wrong = dict(sl3.brackets)
    wrong[(('x', 'a1'), ('x', 'a2'))] = ((('x', 'a1+a2'), 2),)
    wrong[(('x', 'a2'), ('x', 'a1'))] = ((('x', 'a1+a2'), -2),)
    bad = validate(SuperAlgebraSpec("sl3bad", 2, sl3.roots, sl3.coroots, wrong))
    assert any("Jacobi" in v for v in bad)


@pytest.mark.parametrize("c", [Fraction(1, 2), 0.5, Fraction(5, 2)], ids=str)
def test_a_non_integer_structure_constant_is_refused(c):
    """Not truncated to an int, which kept 1/2 as a zero entry, 5/2 as 2, and
    left validate to blame the coroot."""
    spec = preset("sl2")
    brackets = dict(spec.brackets)
    brackets[(('x', 'a'), ('x', '-a'))] = ((('h', 1), Fraction(2, 2)),)
    assert SuperAlgebraSpec("sl2", 1, spec.roots, spec.coroots, brackets).brackets == spec.brackets
    brackets[(('x', 'a'), ('x', '-a'))] = ((('h', 1), c),)
    with pytest.raises(SpecError, match=r"^bracket x\[a\] x\[-a\]: non-integer structure "
                                        r"constant %s$" % c):
        SuperAlgebraSpec("sl2half", 1, spec.roots, spec.coroots, brackets)


def test_validate_parity_and_grading():
    spec = preset("sl21")
    roots = [Root(r.label, 1 - r.parity if r.label in ("a2", "-a2") else r.parity,
                  r.ev, r.neg, r.positive) for r in spec.roots]
    bad = validate(SuperAlgebraSpec("sl21odd", 2, roots, spec.coroots, spec.brackets))
    assert bad  # flipping a parity breaks antisymmetry or Jacobi


def test_load_spec_errors():
    with pytest.raises(SpecError, match="cartan"):
        load_spec("roots\n  a even 2 neg -a positive\n")
    with pytest.raises(SpecError, match="line 2: cartan rank must come before coroots"):
        load_spec("coroots\n  a 1\ncartan 1\n")
    with pytest.raises(SpecError, match="line 3"):
        load_spec("algebra x\ncartan 1\n  junk before any section\n")
    with pytest.raises(SpecError, match="antisymmetry"):
        load_spec(
            "cartan 1\nroots\n"
            "  a even 2 neg -a positive\n  -a even -2 neg a\n"
            "coroots\n  a 1\n  -a -1\n"
            "brackets\n"
            "  h1 x[a] = x[a] 2\n  h1 x[-a] = x[-a] -2\n"
            "  x[a] x[-a] = h1 1\n  x[-a] x[a] = h1 1\n")
    # a bracket's result is held to the symbols of the table, as its key is
    sl2 = open(os.path.join(DATA, "sl2.alg")).read()
    for result, sym in (("h1 -1 h7 -5", "h7"), ("x[zz] 1", "x[zz]")):
        with pytest.raises(SpecError, match=r"bracket mentions unknown symbol %s$"
                           % sym.replace("[", r"\[").replace("]", r"\]")):
            load_spec(sl2.replace("x[-a] x[a] = h1 -1", "x[-a] x[a] = " + result),
                      check=False)


def _sections(text):
    """The lines of a table file, grouped as a header line and the indented
    lines under it."""
    out = []
    for line in text.splitlines():
        if line.startswith(" ") and out:
            out[-1].append(line)
        else:
            out.append([line])
    return out


SL2_SECTIONS = _sections(open(os.path.join(DATA, "sl2.alg")).read())
EDIT_TOKENS = ["", "0", "1", "-1", "2", "h1", "h2", "x[a]", "x[b]", "=", "neg", "odd",
               "positive", "cartan", "roots", "coroots", "brackets", "#"]


@st.composite
def edited_tables(draw):
    """tests/data/sl2.alg with its sections reordered, dropped or repeated, two
    of its lines swapped, and a few tokens replaced, removed or appended."""
    lines = [line for section in draw(st.lists(st.sampled_from(SL2_SECTIONS), max_size=8))
             for line in section]
    if len(lines) > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    for _ in range(draw(st.integers(0, 3)) if lines else 0):
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i].split()
        k = draw(st.integers(0, len(toks)))
        lines[i] = " ".join(toks[:k] + [draw(st.sampled_from(EDIT_TOKENS))] + toks[k + 1:])
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(edited_tables())
def test_load_spec_refuses_edited_tables_with_spec_error(text):
    try:
        load_spec(text)
    except SpecError:
        pass


def test_load_spec_reads_a_zero_bracket_line():
    # "sym sym = 0" states a vanishing bracket: the table holds no entry for it
    text = open(os.path.join(DATA, "sl2.alg")).read()
    spec = load_spec(text + "  x[a] x[a] = 0\n  h1 h1 = 0\n")
    assert spec.brackets == load_spec(text).brackets
    assert spec.bracket(('x', 'a'), ('x', 'a')) == ()
    # but it may not restate a pair an earlier line gave
    with pytest.raises(SpecError, match=r"^line 13: bracket h1 x\[a\] is stated twice$"):
        load_spec(text + "  h1 x[a] = 0\n")


@pytest.mark.parametrize("edit, error", [
    # a bracket pair given twice in one direction: the later line would win
    (("  x[-a] x[a] = h1 -1", "  x[-a] x[a] = h1 -5\n  x[-a] x[a] = h1 -1"),
     r"line 13: bracket x\[-a\] x\[a\] is stated twice"),
    (("  a 1", "  a 7\n  a 1"), "line 8: coroot a is stated twice"),
    (("  -a -1", "  -a -1\n  zz 5"), "line 9: coroot zz names no root"),
    (("cartan 1", "cartan -1"), "line 2: cartan rank -1 is negative"),
    (("roots", "cartan 2\nroots"), "line 3: cartan is stated twice"),
])
def test_load_spec_refuses_a_line_it_would_drop_or_misread(edit, error):
    text = open(os.path.join(DATA, "sl2.alg")).read()
    assert edit[0] in text
    with pytest.raises(SpecError, match="^%s$" % error):
        load_spec(text.replace(*edit, 1), check=False)


def test_load_spec_rejects_invalid_table():
    text = ("cartan 1\nroots\n"
            "  a even 2 neg -a positive\n  -a even -2 neg a\n"
            "coroots\n  a 1\n  -a -1\n"
            "brackets\n"
            "  h1 x[a] = x[a] 1\n"      # wrong evaluation
            "  h1 x[-a] = x[-a] -2\n"
            "  x[a] x[-a] = h1 1\n")
    with pytest.raises(SpecError, match="invalid algebra table"):
        load_spec(text)


def test_unknown_preset():
    with pytest.raises(SpecError):
        preset("e8")


def _expand_by_elimination(target, basis_mats):
    """Reference for `_coordinate_map`: a fresh Gaussian elimination over Q
    for each matrix (how the presets were built before the coordinate map)."""
    from fractions import Fraction
    n = len(target)
    cols = len(basis_mats)
    rows = [[Fraction(m[i][j]) for m in basis_mats] + [Fraction(target[i][j])]
            for i in range(n) for j in range(n)]
    piv = []
    rank = 0
    for col in range(cols):
        sel = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        pr = rows[rank]
        pr[:] = [v / pr[col] for v in pr]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], pr)]
        piv.append(col)
        rank += 1
    coeffs = [Fraction(0)] * cols
    for k, col in enumerate(piv):
        coeffs[col] = rows[k][-1]
    if any(rows[r][-1] for r in range(rank, len(rows))):
        raise SpecError("matrix is not in the span of the basis")
    return coeffs


@pytest.mark.parametrize("name", ["sl2", "sl3", "sp4", "sl21"])
def test_matrix_presets_match_the_per_bracket_elimination(monkeypatch, name):
    from superpbw import algebra
    spec = algebra._PRESETS[name]()
    monkeypatch.setattr(algebra, "_coordinate_map",
                        lambda mats: lambda m: _expand_by_elimination(m, mats))
    ref = algebra._PRESETS[name]()
    assert spec.brackets == ref.brackets
    assert spec.roots == ref.roots
    assert spec.coroots == ref.coroots


def test_matrices_not_closed_under_the_bracket_are_refused():
    from superpbw.algebra import _spec_from_matrices
    a1 = [("a1", E(1, 2), "-a1", True), ("-a1", E(2, 1), "a1", False)]
    a2 = [("a2", E(2, 3), "-a2", True), ("-a2", E(3, 2), "a2", False)]
    # without x_{a1+a2}, [x_a1, x_a2] = E13 is outside the span
    with pytest.raises(SpecError, match="^matrix is not in the span of the basis$"):
        _spec_from_matrices("sl3", (0, 0, 0), 2, a1 + a2)
    # with x_{a1+a2} = 2 E13 the same bracket is x_{a1+a2} / 2
    doubled = [("a1+a2", [[2 * v for v in row] for row in E(1, 3)], "-a1-a2", True),
               ("-a1-a2", E(3, 1), "a1+a2", False)]
    with pytest.raises(SpecError, match=r"^bracket x\[a1\] x\[a2\]: non-integer structure "
                                        "constant 1/2$"):
        _spec_from_matrices("sl3", (0, 0, 0), 2, a1 + a2 + doubled)
