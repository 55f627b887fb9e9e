"""One digit rule: every reader of integers in the package takes ASCII digits
only.  Python's `int()`, `str.isdecimal` and a regex `\\d` also accept other
Unicode digits, such as the Arabic-Indic ٣ and the fullwidth １, and `int()`
takes underscores (1_0).  Each reader refuses those with its own message and
reads the ASCII spelling as before."""

import os
import re

import pytest

from superpbw import digits
from superpbw import verify as ver
from superpbw.algebra import SpecError, load_spec, preset
from superpbw.cli import main
from superpbw.coeffalg import MonoidError, monoid_preset
from superpbw.engine import AlgebraError, Order
from superpbw.exprio import ParseError, parse_expr

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BAD = ("٣", "１", "1_0")


@pytest.fixture(scope="module")
def sl2():
    return ver.load_engine("sl2", "poly")


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("template", ["%s x[a]{t}", "x[a]{t}^%s", "x[a]{t}^(%s)", "h[%s]{t}",
                                      "p[%s]{t}", "p[1]{t:%s}"])
def test_the_expression_reader_takes_ascii_digits_only(sl2, template, bad):
    parse_expr(sl2, template % "1")
    with pytest.raises(ParseError):
        parse_expr(sl2, template % bad)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("read", [lambda n: monoid_preset("poly").parse_elt("t^%s" % n),
                                  lambda n: monoid_preset("trunc:%s" % n)],
                         ids=["exponent", "truncation"])
def test_the_monoid_reader_takes_ascii_digits_only(read, bad):
    read("1")
    with pytest.raises(MonoidError):
        read(bad)


@pytest.mark.parametrize("bad", BAD)
def test_an_order_reads_ascii_digits_only_as_a_cartan_index(bad):
    spec = preset("sl2")
    assert Order.named(spec, "1,a,-a").syms == (('h', 1), ('x', 'a'), ('x', '-a'))
    with pytest.raises(AlgebraError):
        Order.named(spec, "%s,a,-a" % bad)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("template, ascii", [
    ("cartan %s", "1"), ("a even %s neg", "2"), ("coroots\n  a %s", "1"),
    ("x[a] = h1 -%s", "1"), ("h%s x[a] = x[a] 2", "1"),
], ids=["rank", "evaluation", "coroot", "bracket", "symbol"])
def test_the_table_reader_takes_ascii_digits_only(template, ascii, bad):
    with open(os.path.join(ROOT, "tests", "data", "sl2.alg")) as fh:
        table = fh.read()
    assert template % ascii in table
    load_spec(table)
    with pytest.raises(SpecError, match="^line "):
        load_spec(table.replace(template % ascii, template % bad))


@pytest.mark.parametrize("bad", BAD + ("x",))
@pytest.mark.parametrize("argv", [
    ["basis", "--algebra", "sl2", "--monoid", "trunc:2", "--degree", "%s"],
    ["pelem", "--algebra", "sl2", "--i", "%s"],
    ["delem", "--algebra", "sl2", "--alpha", "a", "--j", "%s", "--k", "1", "--d", "t", "--c", "1"],
    ["delem", "--algebra", "sl2", "--alpha", "a", "--j", "1", "--k", "%s", "--d", "t", "--c", "1"],
], ids=["degree", "i", "j", "k"])
def test_an_int_flag_takes_ascii_digits_only(capsys, argv, bad):
    assert main([a.replace("%s", "1") for a in argv]) == 0
    with pytest.raises(SystemExit) as e:
        main([a.replace("%s", bad) for a in argv])
    assert e.value.code == 2
    assert "invalid int value: %r" % bad in capsys.readouterr().err


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("kind", ["cartan", "r", "s", "m"])
def test_a_verify_parameter_takes_ascii_digits_only(sl2, kind, bad):
    assert ver.parse_value(sl2, kind, " 1 ") == 1
    with pytest.raises(ValueError, match="invalid literal"):
        ver.parse_value(sl2, kind, bad)


def test_only_the_digit_module_spells_a_digit_rule():
    """A second rule would let some reader take what the others refuse."""
    rule = re.compile(r"\\d|isdecimal|isdigit|isnumeric|type=int\b")
    src = os.path.join(ROOT, "src", "superpbw")
    offenders = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != os.path.basename(digits.__file__):
            with open(os.path.join(src, name)) as fh:
                offenders += ["%s:%d" % (name, n) for n, line in enumerate(fh, 1)
                              if rule.search(line)]
    assert not offenders
