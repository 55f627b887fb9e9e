import math
import random
from fractions import Fraction

import pytest

from superpbw.engine import AlgebraError
from superpbw.combinatorics import Multiset
from superpbw.exprio import ParseError, divided_str, parse_expr, parse_mset, uelem_str, \
    word_parts
from superpbw.verify import load_engine
from support import ONE, T, T2


@pytest.fixture(scope="module")
def sl2():
    return load_engine("sl2", "poly")


@pytest.fixture(scope="module")
def sl21():
    return load_engine("sl21", "trunc:3")


def test_parse_letters(sl2):
    assert parse_expr(sl2, "x[a]{t}") == sl2.gen_elem(('x', 'a'), T)
    assert parse_expr(sl2, "h[1]{t^2}") == sl2.gen_elem(('h', 1), T2)
    assert parse_expr(sl2, "x[a]{t}^2") == sl2.normalize([(('x', 'a'), T)] * 2)
    assert parse_expr(sl2, "x[a]{t}^(2)") == sl2.divided_power(('x', 'a'), T, 2)


def test_parse_products_and_sums(sl2):
    got = parse_expr(sl2, "x[a]{t} x[-a]{1}")
    want = sl2.normalize([(('x', 'a'), T), (('x', '-a'), ONE)])
    assert got == want
    got = parse_expr(sl2, "2 x[a]{t} - 1/2 h[1]{1}")
    want = 2 * sl2.gen_elem(('x', 'a'), T) - Fraction(1, 2) * sl2.gen_elem(('h', 1), ONE)
    assert got == want
    got = parse_expr(sl2, "(x[a]{t} + x[a]{t^2})^2")
    two = parse_expr(sl2, "x[a]{t} + x[a]{t^2}")
    assert got == sl2.mul(two, two)


def test_parse_pelem(sl2):
    from superpbw.combinatorics import Multiset
    assert parse_expr(sl2, "p[1]{t:2}") == sl2.p(1, Multiset.of(T, T))
    assert parse_expr(sl2, "p[1]{}") == sl2.one()
    assert parse_expr(sl2, "p[1]{t:1,t^2:1}") == sl2.p(1, Multiset.of(T, T2))


def test_parse_mset_spellings(sl2):
    mon = sl2.monoid
    want = Multiset.of(ONE, T, T)
    for text in ("1:1,t:2", "t:2,1:1", "t,1,t", " t:1 , 1, t "):
        assert parse_mset(mon, text) == want
    for text in ("", "0", " 0 "):
        assert parse_mset(mon, text) == Multiset()
    for text in ("t:", "t:-1", "t:x", "q", "t,,1"):
        with pytest.raises(ValueError):
            parse_mset(mon, text)
    assert parse_expr(sl2, "p[1]{t}") == sl2.p(1, Multiset.of(T))
    assert parse_expr(sl2, "p[1]{t^2,t}") == parse_expr(sl2, "p[1]{t:1,t^2:1}")
    assert parse_expr(sl2, "p[1]{0} x[a]{t}") == parse_expr(sl2, "x[a]{t}")
    with pytest.raises(ParseError):
        parse_expr(sl2, "p[1]{t:x}")


def test_parse_labels_with_sums(sl21):
    assert parse_expr(sl21, "x[a1+a2]{1}") == sl21.gen_elem(('x', 'a1+a2'), ONE)
    assert parse_expr(sl21, "x[-a1-a2]{t}") == sl21.gen_elem(('x', '-a1-a2'), T)


def test_parse_errors(sl2):
    with pytest.raises(ParseError) as e:
        parse_expr(sl2, "x[zz]{t}")
    assert "unknown root label" in str(e.value)
    with pytest.raises(ParseError):
        parse_expr(sl2, "x[a]{t")
    with pytest.raises(ParseError):
        parse_expr(sl2, "x[a]{t} +")
    with pytest.raises(ParseError):
        parse_expr(sl2, "q[1]{t}")
    with pytest.raises(ParseError):
        parse_expr(sl2, "x[a]{t}^-2")
    with pytest.raises(ParseError) as e:
        parse_expr(sl2, "x[a]{t} junk")
    assert e.value.pos >= 8


@pytest.mark.parametrize("text", ["x[a]{t}", "x[a]{t} x[-a]{1}", "x[a]{t} + 2 h[1]{t^2}",
                                  "1/2 x[-a]{t} - h[1]{1} + 3"])
def test_a_group_takes_a_divided_power(sl2, text):
    for r in range(5):
        assert parse_expr(sl2, "(%s)^(%d)" % (text, r)) == \
            Fraction(1, math.factorial(r)) * parse_expr(sl2, "(%s)^%d" % (text, r))


def test_a_letter_and_its_group_take_the_same_powers(sl2):
    for suffix in ("", "^0", "^1", "^3", "^(0)", "^(1)", "^(3)"):
        assert parse_expr(sl2, "(x[a]{t})" + suffix) == parse_expr(sl2, "x[a]{t}" + suffix)
    assert parse_expr(sl2, "x[a]{t}^(3)") == sl2.divided_power(('x', 'a'), T, 3)


@pytest.mark.parametrize("suffix", ["", "^0", "^(0)", "^1", "^(1)", "^2", "^(2)"])
def test_a_letter_is_checked_whatever_its_exponent(sl2, suffix):
    for text in ("h[9]{t}", "(h[9]{t})"):
        with pytest.raises(AlgebraError, match="no Cartan generator h9 in sl2"):
            parse_expr(sl2, text + suffix)


def test_parse_zero_denominator(sl2):
    for text, pos in (("1/0", 0), ("2/0 x[a]{t}", 0), ("x[a]{t} +  3/00", 11)):
        with pytest.raises(ParseError, match="zero denominator") as e:
            parse_expr(sl2, text)
        assert e.value.pos == pos


def test_print_zero(sl2):
    assert uelem_str(sl2, parse_expr(sl2, "x[a]{t} - x[a]{t}")) == "0"


def test_round_trip_randomized(sl21):
    letters = [(s, e) for s in sl21.spec.all_syms() for e in [ONE, T]]
    rng = random.Random(21)
    for _ in range(40):
        x = sl21.normalize([rng.choice(letters) for _ in range(rng.randint(1, 5))],
                           Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4)))
        printed = uelem_str(sl21, x)
        assert parse_expr(sl21, printed) == x, printed
        # multiline output parses the same way
        assert parse_expr(sl21, uelem_str(sl21, x, multiline=True)) == x


def test_divided_round_trip(sl21):
    letters = [(s, e) for s in sl21.spec.all_syms() for e in [ONE, T]]
    rng = random.Random(5)
    for _ in range(25):
        x = sl21.normalize([rng.choice(letters) for _ in range(rng.randint(1, 4))])
        if not x:
            continue
        df = sl21.to_divided(x)
        printed = divided_str(sl21, df)
        assert parse_expr(sl21, printed) == x, printed


@pytest.mark.parametrize("algebra", ["sl21", "osp12", "sl3"])
def test_divided_round_trip_on_poly2(algebra):
    # poly2 is where degree order and exponent-tuple order part: the printed
    # blocks must name the words they print, odd ones included
    eng = load_engine(algebra, "poly2")
    elts = [(0, 0), (1, 0), (0, 1), (0, 2), (1, 1)]
    letters = [(s, e) for s in eng.spec.all_syms() for e in elts]
    rng = random.Random(17)
    for _ in range(25):
        x = eng.normalize([rng.choice(letters) for _ in range(rng.randint(2, 4))])
        printed = divided_str(eng, eng.to_divided(x))
        assert parse_expr(eng, printed) == x, printed


def test_word_str(sl2):
    x = sl2.normalize([(('x', '-a'), ONE), (('x', '-a'), ONE), (('h', 1), T)])
    w = max(x.terms)
    assert word_parts(sl2, w, {})[1] == "x[-a]{1}^2 h[1]{t}"
    assert word_parts(sl2, (), {})[1] == "1"
