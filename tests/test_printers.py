"""The printers `uelem_str`, `divided_str` and `divided_key_str`, the `basis`
listing and the FAIL detail `verify._diff_terms` key and write each word
and divided-basis key through `exprio.word_parts` and `exprio.divided_parts`,
which build the key and the text of each run, and of each block, once per
call.  The printers they replaced, which keyed and formatted every term's
runs and blocks afresh (`runs_key`, `runs_str`, `divided_blocks`), are kept
here as references: they give byte-identical text on random elements of the
five presets over four monoids in both orders, and on their divided-basis
images, and the same listing and detail."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpbw.algebra import PRESET_NAMES
from superpbw.engine import UElem, word_runs
from superpbw.exprio import _join_terms, divided_key_str, divided_str, letter_str, mset_str, \
    uelem_str, word_parts
from superpbw.verify import _diff_terms, get_engine
from support import run_cli

ELEMENTS = {
    "poly": [(0,), (1,), (2,)],
    "poly2": [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)],
    "laurent": [(-1,), (0,), (1,)],
    "trunc:4": [(0,), (1,), (2,), (3,)],
}
ORDERS = ("triangular", "lex")


# -- the printers as they were: every term's runs and blocks keyed and formatted afresh --

def ref_runs_key(engine, runs):
    return tuple((engine._key(L), e) for L, e in runs)


def ref_runs_str(engine, runs):
    return " ".join(letter_str(engine, L, e) for L, e in runs) or "1"


def ref_uelem_str(engine, x, multiline=False):
    terms = sorted(((word_runs(w), c) for w, c in x.terms.items()),
                   key=lambda t: ref_runs_key(engine, t[0]))
    return _join_terms([(c, ref_runs_str(engine, runs)) for runs, c in terms], multiline)


def ref_divided_blocks(engine, key):
    blocks = []
    for (sym, a), e in word_runs(key):
        if blocks and blocks[-1][1] == sym:
            blocks[-1][2].append((a, e))
        else:
            blocks.append((engine.order.rank(sym), sym, [(a, e)]))
    return tuple((rank, sym, tuple(runs)) for rank, sym, runs in blocks)


def ref_blocks_str(engine, blocks):
    parts = []
    for _, sym, runs in blocks:
        if sym[0] == 'h':
            parts.append("p[%d]{%s}" % (sym[1], mset_str(engine, runs)))
        else:
            parts += [letter_str(engine, (sym, a), e, divided=True) for a, e in runs]
    return " ".join(parts) or "1"


def ref_divided_str(engine, df, multiline=False):
    terms = sorted(((ref_divided_blocks(engine, k), c) for k, c in df.terms.items()),
                   key=lambda t: t[0])
    return _join_terms([(c, ref_blocks_str(engine, b)) for b, c in terms], multiline)


def ref_basis(engine, d):
    lines = ["ALGEBRA %s MONOID %s DEGREE %d" % (engine.spec.name, engine.monoid.name, d)]
    for title, seg in (("B-", -1), ("B0", 0), ("B+", 1), ("B", None)):
        syms = [s for s in engine.order.syms if seg is None or engine.order.segment[s] == seg]
        keys = sorted((len(k), ref_divided_blocks(engine, k))
                      for k in engine.enumerate_basis(d, syms))
        lines.append("%s (%d)" % (title, len(keys)))
        lines += [ref_blocks_str(engine, blocks) for _, blocks in keys]
    return "\n".join(lines) + "\n"


def ref_diff_terms(engine, lhs, rhs):
    words = sorted((lhs - rhs).terms, key=lambda w: ref_runs_key(engine, word_runs(w)))[:5]
    return tuple((ref_runs_str(engine, word_runs(w)), str(lhs.terms.get(w, 0)),
                  str(rhs.terms.get(w, 0))) for w in words)


# -- random elements -------------------------------------------------------------

COEFFS = st.one_of(st.integers(-6, 6),
                   st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6)))


ENGINES = st.builds(get_engine, st.sampled_from(PRESET_NAMES), st.sampled_from(sorted(ELEMENTS)),
                    st.sampled_from(ORDERS))


@st.composite
def element_on(draw, eng):
    """x on eng: a sum of up to four normalized words of runs, each run a
    letter repeated up to three times; Cartan letters are drawn as often as
    root letters, so multi-letter Cartan blocks are common.  A zero
    coefficient, a cancellation or no word at all gives zero."""
    syms = eng.spec.all_syms()
    cartan = [s for s in syms if s[0] == 'h']
    letter = st.tuples(st.sampled_from(syms) | st.sampled_from(cartan),
                       st.sampled_from(ELEMENTS[eng.monoid.name]))
    run = st.tuples(letter, st.integers(1, 3))
    parts = []
    for runs, c in draw(st.lists(st.tuples(st.lists(run, max_size=3), COEFFS), max_size=4)):
        word = [L for L, e in runs for _ in range(e)][:6]
        parts.append(eng.normalize(word, c))
    return UElem.sum(parts)


@st.composite
def elements(draw):
    """(engine, x), x drawn by `element_on`."""
    eng = draw(ENGINES)
    return eng, draw(element_on(eng))


@settings(max_examples=300, deadline=None)
@given(elements(), st.booleans())
def test_printers_match_the_per_term_printers(case, multiline):
    eng, x = case
    assert uelem_str(eng, x, multiline) == ref_uelem_str(eng, x, multiline)
    df = eng.to_divided(x)
    assert divided_str(eng, df, multiline) == ref_divided_str(eng, df, multiline)
    table = {}
    for w in x.terms:
        assert word_parts(eng, w, table)[1] == ref_runs_str(eng, word_runs(w))
    for key in df.terms:
        assert divided_key_str(eng, key) == ref_blocks_str(eng, ref_divided_blocks(eng, key))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_diff_terms_names_the_first_five_words_in_print_order(data):
    eng = data.draw(ENGINES)
    lhs, rhs = data.draw(element_on(eng)), data.draw(element_on(eng))
    got = _diff_terms(eng, lhs, rhs)
    assert got == ref_diff_terms(eng, lhs, rhs)
    # the words are the first five terms that uelem_str prints of lhs - rhs
    printed = uelem_str(eng, lhs - rhs, multiline=True).splitlines()[:5]
    bodies = [line.lstrip("+- ").partition(" ")[2] or "1" for line in printed]
    assert [text for text, _, _ in got] == (bodies if lhs != rhs else [])


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("algebra", PRESET_NAMES)
def test_basis_lists_in_the_reference_order(algebra, order):
    code, out, _ = run_cli("basis", "--algebra", algebra, "--monoid", "trunc:2", "--degree", "2",
                           "--order", order)
    assert code == 0 and out == ref_basis(get_engine(algebra, "trunc:2", order), 2)


def test_printers_match_on_each_named_case():
    """One element holding every case the random ones are drawn to reach:
    an odd letter (x[a2] on sl21), an exponent above 1, a multi-letter
    Cartan block, negative and Fraction coefficients; and zero."""
    eng = get_engine("sl21", "poly2", "lex")
    x = eng.normalize([(('x', 'a1'), (1, 0))] * 2 + [(('h', 1), (0, 1)), (('h', 1), (1, 0))],
                      Fraction(-3, 2))
    x = x + eng.normalize([(('x', 'a2'), (0, 0))], -2)
    text = ref_uelem_str(eng, x)
    assert text == uelem_str(eng, x)
    assert "^2" in text and text.startswith("-")
    df = eng.to_divided(x)
    assert "p[1]{" in ref_divided_str(eng, df) and ref_divided_str(eng, df) == divided_str(eng, df)
    assert uelem_str(eng, UElem()) == ref_uelem_str(eng, UElem()) == "0"
