import pytest

from superpbw.algebra import Root, SpecError, SuperAlgebraSpec, dump_spec, load_spec, \
    preset, root_string, validate, PRESET_NAMES


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
                rs = root_string(spec, a, b)   # raises on a violation
                assert abs(rs.c) == rs.r + 1


def test_root_string_examples():
    sl3 = preset("sl3")
    rs = root_string(sl3, "a1", "a2")
    assert (rs.r, rs.q, abs(rs.c)) == (0, 1, 1)
    sp4 = preset("sp4")
    rs = root_string(sp4, "a1", "a2")      # short alpha through long beta
    assert (rs.r, rs.q) == (0, 2)
    rs = root_string(sp4, "a1", "a1+a2")
    assert (rs.r, rs.q, abs(rs.c)) == (1, 1, 2)
    # string through itself: even alpha has q = 0, non-isotropic odd has q = 1
    assert root_string(sl3, "a1", "a1").q == 0
    assert root_string(preset("osp12"), "g", "g").q == 1


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


def test_validate_parity_and_grading():
    spec = preset("sl21")
    roots = [Root(r.label, 1 - r.parity if r.label in ("a2", "-a2") else r.parity,
                  r.ev, r.neg, r.positive) for r in spec.roots]
    bad = validate(SuperAlgebraSpec("sl21odd", 2, roots, spec.coroots, spec.brackets))
    assert bad  # flipping a parity breaks antisymmetry or Jacobi


def test_dump_load_round_trip():
    for name in PRESET_NAMES:
        spec = preset(name)
        again = load_spec(dump_spec(spec))
        assert again.rank == spec.rank
        assert again.roots == spec.roots
        assert again.coroots == spec.coroots
        assert again.brackets == spec.brackets


def test_load_spec_errors():
    with pytest.raises(SpecError, match="cartan"):
        load_spec("roots\n  a even 2 neg -a positive\n")
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
    # sl2 without h: [x_a, x_-a] = diag(1, -1) is outside the span
    with pytest.raises(SpecError, match="not in the span"):
        _spec_from_matrices("sl2", (0, 0), [],
                            [("a", [[0, 1], [0, 0]], "-a", True),
                             ("-a", [[0, 0], [1, 0]], "a", False)])
    # with h = diag(2, -2) the same bracket is h / 2
    with pytest.raises(SpecError, match="non-integer structure constant"):
        _spec_from_matrices("sl2", (0, 0), [[[2, 0], [0, -2]]],
                            [("a", [[0, 1], [0, 0]], "-a", True),
                             ("-a", [[0, 0], [1, 0]], "a", False)])
