"""Engine.normalize against a reference letter-by-letter normalizer.

The reference is the straightening loop as first written: a Fraction threaded
through every rewrite and a rescan of the whole word after each one.  It
shares only the letter order, the parities and the tables with the engine,
so a fast path in the engine's rewrite core that drops or misweights a term
shows up here."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superpbw.engine import UElem
from superpbw.exprio import parse_expr
from superpbw.verify import load_engine
from support import assert_same

ALGEBRAS = ("sl2", "sl3", "sp4", "sl21", "osp12")
ORDERS = ("triangular", "lex")
ELTS = ((0,), (1,), (2,))          # 1, t, t^2 in C[t]/(t^3)


def _first_violation(engine, w):
    for i in range(len(w) - 1):
        u, v = w[i], w[i + 1]
        if u == v:
            if engine._parity[u[0]]:
                return i
            continue
        if engine._key(u) > engine._key(v):
            return i
    return None


def _reference_insert(engine, word, letter, memo):
    memo_key = (word, letter)
    hit = memo.get(memo_key)
    if hit is not None:
        return hit
    out = {}
    work = [(Fraction(1), word + (letter,))]
    while work:
        c, w = work.pop()
        i = _first_violation(engine, w)
        if i is None:
            out[w] = out.get(w, 0) + c
            continue
        u, v = w[i], w[i + 1]
        pre, post = w[:i], w[i + 2:]
        if u == v:
            aa = engine.monoid.mul(u[1], u[1])
            if aa is not None:
                for sym, k in engine.spec.bracket(u[0], u[0]):
                    work.append((c * Fraction(k, 2), pre + ((sym, aa),) + post))
            continue
        sign = -1 if (engine._parity[u[0]] and engine._parity[v[0]]) else 1
        work.append((sign * c, pre + (v, u) + post))
        ab = engine.monoid.mul(u[1], v[1])
        if ab is not None:
            for sym, k in engine.spec.bracket(u[0], v[0]):
                work.append((c * k, pre + ((sym, ab),) + post))
    out = {w: c for w, c in out.items() if c}
    memo[memo_key] = out
    return out


def reference_normalize(engine, letters, coeff, memo):
    """{canonical word: Fraction} for coeff * (product of letters)."""
    flat = {(): Fraction(coeff)}
    for L in (engine.letter(sym, aelt) for sym, aelt in letters):
        nxt = {}
        for w, c in flat.items():
            for w2, c2 in _reference_insert(engine, w, L, memo).items():
                nxt[w2] = nxt.get(w2, 0) + c * c2
        flat = {w: c for w, c in nxt.items() if c}
    return {w: c for w, c in flat.items() if c}


@pytest.fixture(scope="module")
def engines():
    """(algebra, order) -> (engine, reference memo), built on first use."""
    return {}


def _engine(engines, name, order, monoid="trunc:3"):
    if (name, order, monoid) not in engines:
        engines[(name, order, monoid)] = (load_engine(name, monoid, order), {})
    return engines[(name, order, monoid)]


scalars = st.one_of(st.integers(-6, 6),
                    st.fractions(min_value=-4, max_value=4, max_denominator=6))
letter_pick = st.tuples(st.integers(0, 99), st.integers(0, len(ELTS) - 1))


def _letters(engine, picks):
    syms = engine.spec.all_syms()
    return [(syms[s % len(syms)], ELTS[e]) for s, e in picks]


@settings(max_examples=250, deadline=None)
@given(name=st.sampled_from(ALGEBRAS), order=st.sampled_from(sorted(ORDERS)),
       picks=st.lists(letter_pick, max_size=7), coeff=scalars)
def test_normalize_matches_reference(engines, name, order, picks, coeff):
    engine, memo = _engine(engines, name, order)
    letters = _letters(engine, picks)
    got = engine.normalize(letters, coeff).terms
    want = reference_normalize(engine, letters, coeff, memo)
    assert got == want
    for c in got.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


# mul folds y's letters into each canonical word of x and scales afterwards;
# x is built from divided powers, so its coefficients include Fractions.
@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(ALGEBRAS), order=st.sampled_from(sorted(ORDERS)),
       powers=st.lists(st.tuples(letter_pick, st.integers(2, 3)), min_size=3, max_size=3),
       picks=st.lists(letter_pick, max_size=4), cy=scalars)
def test_mul_matches_reference(engines, name, order, powers, picks, cy):
    engine, memo = _engine(engines, name, order)
    bases = _letters(engine, [pick for pick, _ in powers])
    d1, d2, d3 = [engine.divided_power(sym, a, r) for (sym, a), (_, r) in zip(bases, powers)]
    x = engine.mul(d1, d2) + d3
    assume(len(x.terms) > 1 and any(type(c) is Fraction for c in x.terms.values()))
    letters = _letters(engine, picks)
    y = UElem({tuple(letters): cy})
    want = {}
    for wx, cx in x.terms.items():
        for w, c in reference_normalize(engine, list(wx) + letters, cx * cy, memo).items():
            want[w] = want.get(w, 0) + c
    assert engine.mul(x, y).terms == {w: c for w, c in want.items() if c}


# adopt re-normalizes the words of another engine's element in this one.
@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(ALGEBRAS), picks=st.lists(letter_pick, max_size=5),
       extra=st.lists(letter_pick, max_size=5), coeff=scalars)
def test_adopt_matches_reference(engines, name, picks, extra, coeff):
    lex, _ = _engine(engines, name, "lex")
    tri, memo = _engine(engines, name, "triangular")
    x = lex.normalize(_letters(lex, picks), coeff) + lex.normalize(_letters(lex, extra))
    want = reference_normalize(tri, _letters(tri, picks), coeff, memo)
    for w, c in reference_normalize(tri, _letters(tri, extra), 1, memo).items():
        want[w] = want.get(w, 0) + c
    assert tri.adopt(x).terms == {w: c for w, c in want.items() if c}


def test_reference_sees_odd_squares_and_isotropic_zeros(engines):
    # osp12's odd square carries a bracket constant; sl21's odd roots are
    # isotropic, so their squares vanish.
    osp, memo = _engine(engines, "osp12", "triangular")
    sq = [(('x', 'g'), (1,))] * 2
    assert reference_normalize(osp, sq, 1, memo) == osp.normalize(sq).terms != {}
    sl21, memo = _engine(engines, "sl21", "lex")
    sq = [(('x', 'a2'), (0,))] * 2
    assert reference_normalize(sl21, sq, 1, memo) == sl21.normalize(sq).terms == {}


# The core first straightens S L alone, for the suffix S of the word that the
# letter L passes, and prefixes the rest P to each word v of it.  That is
# refused when P's last letter passes v's first, and the word is straightened
# whole.  Each case below must take that refusal: a wrong prefixing would
# leave a word that is not canonical, which the reference never returns.
def test_a_bracket_letter_moving_into_the_prefix_matches_reference():
    # sl3, triangular: P = x[-a1-a2]{1}, S = x[a1]{1}, L = x[-a1-a2]{t}, and
    # [x[a1], x[-a1-a2]] = -x[-a2], which sorts before P's last letter
    engine = load_engine("sl3", "trunc:3")
    one, t = (0,), (1,)
    letters = [(('x', '-a1-a2'), one), (('x', 'a1'), one), (('x', '-a1-a2'), t)]
    got = engine.normalize(letters).terms
    assert got == reference_normalize(engine, letters, 1, {})
    assert got[(('x', '-a2'), t), (('x', '-a1-a2'), one)] == -1


def test_an_odd_prefix_letter_met_again_matches_reference():
    # osp12, order h1, -2g, g, -g, 2g: P = x[g]{1}, S = x[2g]{1}, L = x[-g]{1},
    # and [x[2g], x[-g]] = -x[g] repeats P's odd last letter, whose square
    # is a bracket: x[g]{1}^2 = 2 x[2g]{1^2}
    engine = load_engine("osp12", "trunc:3", "1,-2g,g,-g,2g")
    one = (0,)
    letters = [(('x', 'g'), one), (('x', '2g'), one), (('x', '-g'), one)]
    got = engine.normalize(letters).terms
    assert got == reference_normalize(engine, letters, 1, {})
    assert got[(('x', '2g'), one),] == -2


# Run-shaped words x[alpha]{a}^r x[-alpha]{b}^s, the shape of the paper's
# identity 4.3 and of the CLI's large-exponent requests, where the rewrite
# core moves one letter past a long run.  The roots include odd ones on sl21
# (isotropic: odd squares vanish) and osp12 (odd squares do not).
@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(ALGEBRAS), order=st.sampled_from(sorted(ORDERS)),
       monoid=st.sampled_from(("poly", "trunc:4")), root=st.integers(0, 99),
       rs=st.tuples(st.integers(0, 10), st.integers(0, 10)).filter(lambda rs: sum(rs) <= 10),
       elts=st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
       cartan=st.one_of(st.none(), st.tuples(st.integers(0, 2), st.integers(0, 2))))
def test_runs_match_reference(engines, name, order, monoid, root, rs, elts, cartan):
    engine, memo = _engine(engines, name, order, monoid)
    spec = engine.spec
    alpha = spec.roots[root % len(spec.roots)].label
    (r, s), (a, b, c) = rs, elts
    letters = [(('x', alpha), (a,))] * r + [(('x', spec.negative_of(alpha)), (b,))] * s
    if cartan is not None:
        slot, i = cartan[0] * len(letters) // 2, cartan[1] % spec.rank + 1
        letters.insert(slot, (('h', i), (c,)))
    assert engine.normalize(letters).terms == reference_normalize(engine, letters, 1, memo)


def test_one_letter_past_a_run_matches_reference():
    engine = load_engine("sl2", "poly")
    letters = [(('x', 'a'), (0,))] * 60 + [(('x', '-a'), (0,))]
    assert engine.normalize(letters).terms == reference_normalize(engine, letters, 1, {})


def test_one_letter_past_a_thousand_letter_run():
    # x[a]^n x[-a] = x[-a] x[a]^n + n h x[a]^(n-1) - n(n-1) x[a]^(n-1): the
    # recursion runs n deep, which must not be the interpreter's stack.
    engine = load_engine("sl2", "poly")
    n = 1000
    xa, xm, h = (('x', 'a'), (0,)), (('x', '-a'), (0,)), (('h', 1), (0,))
    got = engine.normalize([xa] * n + [xm]).terms
    assert got == {(xm,) + (xa,) * n: 1, (h,) + (xa,) * (n - 1): n,
                   (xa,) * (n - 1): -n * (n - 1)}


def test_engine_memo_keeps_only_the_folded_pairs():
    # The sub-products of one normalize call live in its own scratch table;
    # the engine memo holds the (word, letter) pairs the fold asks for that
    # need straightening.  The fold appends the rest in place: here the 6
    # letters of the run x[a1]{t}^6, each appended to the run before it.
    engine = load_engine("sl3", "poly")
    engine.normalize([(('x', 'a1'), (1,))] * 6 + [(('x', '-a1'), (0,))] * 6)
    assert len(engine._insert_memo) == 170


# The core runs on per-engine letter codes, given in first-seen order, so
# the codes of one symbol's letters need not follow their exponent order.
def test_letters_first_seen_out_of_order_match_reference():
    # sl3/poly: x[a1]{t^5} is coded first; x[a1]{t^2}, a bracket result of
    # h[1]{t} past x[a1]{t}, and x[a1]{t^3} come later and sort before it
    a1 = ('x', 'a1')
    first = [(a1, (5,)), (('x', '-a1'), (1,))]
    second = [(a1, (1,)), (('h', 1), (1,)), (a1, (3,)), (a1, (5,)), (('x', '-a1'), (0,))]
    engine = load_engine("sl3", "poly")
    assert engine.normalize(first).terms == reference_normalize(engine, first, 1, {})
    got = engine.normalize(second).terms
    assert engine._code((a1, (2,))) > engine._code((a1, (5,)))
    assert engine._code((a1, (3,))) > engine._code((a1, (5,)))
    assert got == load_engine("sl3", "poly").normalize(second).terms
    assert got == reference_normalize(engine, second, 1, {})
    assert any((a1, (2,)) in w for w in got)


def test_a_bracket_that_truncation_kills_is_stored_empty():
    # sl2/trunc:2: [x[a], x[-a]] = h, but t * t = 0, so the bracket vanishes
    engine = load_engine("sl2", "trunc:2")
    xa, xm = (('x', 'a'), (1,)), (('x', '-a'), (1,))
    got = engine.normalize([xa, xm]).terms
    assert engine._brackets[engine._code(xa), engine._code(xm)] == ()
    assert got == reference_normalize(engine, [xa, xm], 1, {}) == {(xm, xa): 1}


def test_codes_past_255_match_reference():
    # A code is one character, so past 255 letters the code words hold
    # two-byte characters; the core must not care.
    engine = load_engine("sl2", "poly")
    for k in range(300):
        engine._code((('h', 1), (k,)))
    letters = [(('x', 'a'), (1,))] * 4 + [(('h', 1), (2,)), (('x', '-a'), (0,))] * 3
    assert engine.normalize(letters).terms == reference_normalize(engine, letters, 1, {})
    memo = engine._insert_memo
    assert memo and all(max(map(ord, w + L)) > 255 for w, L in memo)


@pytest.mark.parametrize("name, letters, entries", [
    # an even letter equal to the word's last letter is appended
    ("sl2", [(('x', 'a'), (1,))] * 2, 0),
    # an odd one is the odd square
    ("osp12", [(('x', 'g'), (1,))] * 2, 1),
    ("osp12", [(('x', 'g'), (0,))] * 2, 1),
    # one symbol, the second element smaller: the letter passes, and is not appended
    ("sl2", [(('x', 'a'), (1,)), (('x', 'a'), (0,))], 1),
    ("osp12", [(('x', 'g'), (1,)), (('x', 'g'), (0,))], 1),
    # the second element larger: appended
    ("osp12", [(('x', 'g'), (0,)), (('x', 'g'), (1,))], 0),
])
def test_fold_appends_only_what_passes_nothing(name, letters, entries):
    engine = load_engine(name, "poly")
    assert engine.normalize(letters).terms == reference_normalize(engine, letters, 1, {})
    assert len(engine._insert_memo) == entries


def test_a_power_is_all_appends():
    engine = load_engine("sl2", "poly")
    xa = (('x', 'a'), (1,))
    assert parse_expr(engine, "x[a]{t}^50").terms == {(xa,) * 50: 1} \
        == reference_normalize(engine, [xa] * 50, 1, {})
    assert engine._insert_memo == {}


@pytest.mark.parametrize("name", ALGEBRAS)
def test_mul_hands_out_public_letters_only(name):
    engine = load_engine(name, "trunc:3")
    syms = engine.spec.all_syms()
    x = UElem.sum(engine.divided_power(sym, (0,), 2) for sym in syms)
    y = engine.normalize([(sym, (1,)) for sym in reversed(syms)])
    for z in (engine.mul(x, y), engine.mul(y, x), engine.adopt(y)):
        assert z.terms
        for w in z.terms:
            assert all(type(L) is tuple and len(L) == 2 and L[0] in syms
                       and type(L[1]) is tuple for L in w), w



def _random_word(engine, rng):
    syms = engine.spec.all_syms()
    return tuple((rng.choice(syms), rng.choice(ELTS)) for _ in range(rng.randint(1, 4)))


def _decoded_memo(engine):
    return {(engine._decode(w), engine._letters[L]) for w, L in engine._insert_memo}


# The solver reads a sub-product from its call's scratch table, then from the
# engine memo that earlier calls filled, and solves it only if both miss.  A
# product on an engine whose memo other products filled must come out as on
# a fresh engine, term for term, in the same order and with the same
# coefficient types, and the memo must gain only what the fresh engine stores.
@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("name", ("sl3", "sp4", "sl21", "osp12"))
def test_products_on_a_filled_memo_match_a_fresh_engine(name, order):
    warm = load_engine(name, "trunc:3", order)
    rng = random.Random(4101)
    for _ in range(60):
        warm.normalize(_random_word(warm, rng))
    memo = {}
    for _ in range(60):
        x = warm.normalize(_random_word(warm, rng))
        y = UElem({_random_word(warm, rng): 1})
        before = _decoded_memo(warm)
        got = warm.mul(x, y)
        fresh = load_engine(name, "trunc:3", order)
        assert_same(got, fresh.mul(x, y))
        ref = {}
        for wx, cx in x.terms.items():
            for wy in y.terms:
                for w, c in reference_normalize(warm, wx + wy, cx, memo).items():
                    ref[w] = ref.get(w, 0) + c
        assert got.terms == {w: c for w, c in ref.items() if c}
        assert _decoded_memo(warm) == before | _decoded_memo(fresh)
