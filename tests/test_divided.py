"""`from_divided` against a test-only reference that multiplies the blocks of
each key out through the straightening core (`Engine.mul`), as the engine
did when divided-basis keys were tuples of (sym, Multiset) pairs; and the
words of `enumerate_basis`."""

import itertools
import re
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpbw.algebra import preset
from superpbw.combinatorics import Multiset, factorial_product
from superpbw.engine import AlgebraError, DividedForm, UElem
from superpbw.verify import get_engine, load_engine
from support import ONE, T, T2, canonical_word

POLY2 = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]


def reference_from_divided(engine, df):
    """The divided-basis element df as a UElem: each key cut back into its
    (sym, Multiset) blocks, each block made p_i(chi) on h_i and the product of
    (x (x) a)^e / e! on a root, and the blocks multiplied in order."""
    terms = []
    for word in df.terms:
        term = engine.one()
        for sym, letters in itertools.groupby(word, itemgetter(0)):
            ms = Multiset.of(*(a for _, a in letters))
            if sym[0] == 'h':
                factor = engine.p(sym[1], ms)
            else:
                block = tuple((sym, a) for a, e in ms.items() for _ in range(e))
                factor = UElem({block: Fraction(1, factorial_product(ms))})
            term = engine.mul(term, factor)
        terms.append(term)
    return UElem.sum(terms, df.terms.values())


# the last is the triangular order of sl3 with h2 listed before h1
CONFIGS = [("sl3", "trunc:3", "triangular"), ("sl21", "trunc:3", "triangular"),
           ("osp12", "trunc:3", "triangular"), ("sl2", "poly2", "triangular"),
           ("sl2", "poly2", "lex"), ("sl3", "trunc:3", "-a1,-a2,-a1-a2,2,1,a1,a2,a1+a2")]


@st.composite
def divided_elements(draw):
    """(config, terms): a config and 1-3 scaled lists of up to 6 letters,
    about half of them Cartan letters on any h_i."""
    config = draw(st.sampled_from(CONFIGS))
    spec = preset(config[0])
    elems = POLY2 if config[1] == "poly2" else [ONE, T, T2]
    cartan = [(('h', i), a) for i in range(1, spec.rank + 1) for a in elems]
    roots = [(('x', r.label), a) for r in spec.roots for a in elems]
    letter = st.one_of(st.sampled_from(cartan), st.sampled_from(roots))
    coeff = st.sampled_from([1, -2, 3, Fraction(1, 2), Fraction(-3, 4)])
    terms = draw(st.lists(st.tuples(st.lists(letter, max_size=6), coeff),
                          min_size=1, max_size=3))
    return config, terms


@settings(max_examples=80, deadline=None)
@given(divided_elements())
def test_from_divided_matches_multiplying_reference(case):
    config, terms = case
    eng = get_engine(*config)
    df = DividedForm([(canonical_word(eng, letters), c) for letters, c in terms])
    got = eng.from_divided(df)
    assert got == reference_from_divided(eng, df)
    assert eng.to_divided(got) == df


def test_enumerate_basis_words_are_canonical_and_round_trip():
    eng = get_engine("sl21", "trunc:2")
    words = eng.enumerate_basis(3)
    assert len(set(words)) == len(words) and () in words
    for w in words:
        assert list(w) == sorted(w, key=eng._key)
        odd = [L for L in w if eng._parity[L[0]]]
        assert len(set(odd)) == len(odd)
        b = DividedForm({w: 1})
        x = eng.from_divided(b)
        assert x == reference_from_divided(eng, b)
        assert eng.to_divided(x) == b


@pytest.mark.parametrize("algebra, key", [
    ("sl2", ((('x', 'a'), T), (('x', '-a'), ONE))),         # letters out of order
    ("sl2", ((('x', 'a'), Multiset.of(T)),)),                # an old (sym, Multiset) key
    ("sl21", ((('x', 'a2'), T), (('x', 'a2'), T))),         # a repeated odd letter
])
def test_from_divided_refuses_a_key_that_is_not_a_canonical_word(algebra, key):
    eng = load_engine(algebra, "poly")
    with pytest.raises(AlgebraError, match="key %s is not a canonical word of %s"
                       % (re.escape(repr(key)), algebra)):
        eng.from_divided(DividedForm({key: 1}))
