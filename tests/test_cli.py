import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpbw import cli
from superpbw import verify as ver
from superpbw.algebra import SpecError
from superpbw.cli import main
from superpbw.coeffalg import MonoidError
from superpbw.engine import Engine
from support import run_cli

DATA = os.path.join(os.path.dirname(__file__), "data")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# a child process imports the package from this checkout, installed or not
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def test_normalize_basic():
    code, out, _ = run_cli("normalize", "--algebra", "sl2", "x[a]{t} x[-a]{1}")
    assert code == 0
    assert out.splitlines() == ["1 x[-a]{1} x[a]{t}", "+ 1 h[1]{t}"]


def test_normalize_isotropic_square():
    code, out, _ = run_cli("normalize", "--algebra", "sl21", "x[a2]{1}^2")
    assert code == 0
    assert out.strip() == "0"


def test_normalize_divided():
    code, out, _ = run_cli("normalize", "--algebra", "sl2", "--divided", "h[1]{t}^2")
    assert code == 0
    assert out.splitlines() == ["2 p[1]{t:2}", "- 1 p[1]{t^2:1}", "INTEGRAL: yes"]
    code, out, _ = run_cli("normalize", "--algebra", "sl2", "--divided",
                           "1/2 x[a]{t}")
    assert out.splitlines()[-1] == "INTEGRAL: no"


def test_normalize_parse_error_exit_2():
    code, _, err = run_cli("normalize", "--algebra", "sl2", "x[zz]{t}")
    assert code == 2
    assert "unknown root label" in err
    code, _, err = run_cli("normalize", "--algebra", "nosuch", "x[a]{t}")
    assert code == 2


@pytest.mark.parametrize("expr", ["1/0", "2/0 x[a]{t}", "x[a]{t} + 3/00"])
def test_normalize_zero_denominator_exit_2(expr):
    code, out, err = run_cli("normalize", "--algebra", "sl2", expr)
    assert code == 2 and out == ""
    assert err.startswith("error: zero denominator (at position ")


def test_normalize_deterministic():
    args = ("normalize", "--algebra", "sl21", "--monoid", "trunc:3",
            "x[a1]{t}^(2) x[-a1]{t}^(2) x[a2]{1}")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2


def test_verify_single_id():
    code, out, _ = run_cli("verify", "--algebra", "osp12", "--id", "4.8")
    assert code == 0
    assert "SUMMARY" in out and "fail=0" in out


def test_verify_inapplicable_gate():
    code, out, _ = run_cli("verify", "--algebra", "sl21", "--id", "4.11")
    assert code == 0
    assert "INAPPLICABLE" in out
    assert "pass=0" in out


def test_verify_fixed_params():
    code, out, _ = run_cli("verify", "--algebra", "sl3", "--id", "L4.4a",
                           "--r", "2", "--s", "2", "--a", "1", "--b", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("CHECK")]
    assert lines and all("r=2" in l and "s=2" in l for l in lines)


def test_verify_unknown_id():
    code, _, err = run_cli("verify", "--algebra", "sl2", "--id", "9.9")
    assert code == 2
    assert "unknown identity id" in err


@pytest.mark.parametrize("ident", ["4.11", "deg6"])
def test_verify_id_without_instance_names_id_and_algebra(ident):
    # an odd-root id on sl2, which has no odd roots; no flag was given
    code, out, err = run_cli("verify", "--algebra", "sl2", "--id", ident)
    assert code == 2 and not out
    assert err == "error: suite config runs no check: identities [%s] on algebras [sl2]\n" % ident


def test_verify_flags_without_match_blame_the_flags():
    # a1 is a root of sl21, but an even one, and 4.11's gamma is odd
    code, _, err = run_cli("verify", "--algebra", "sl21", "--id", "4.11", "--gamma", "a1")
    assert code == 2
    assert err == ("error: suite config runs no check: identities [4.11] on algebras [sl21] "
                   "with gamma=a1\n")


@pytest.mark.parametrize("argv, msg", [
    (("--id", "4.2", "--beta", "zz"), "--beta: unknown root label 'zz' in algebra sl2"),
    (("--id", "L5.2", "--i", "9"), "--i: no Cartan generator h9 in sl2"),
    (("--id", "L5.2", "--i", "0"), "--i: no Cartan generator h0 in sl2"),
    (("--alpha", "a2"), "--alpha: unknown root label 'a2' in algebra sl2"),
], ids=["beta-zz", "i-9", "i-0", "alpha-a2"])
def test_verify_flag_naming_nothing_in_the_algebra_is_refused(argv, msg):
    code, out, err = run_cli("verify", "--algebra", "sl2", *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % msg)


def test_verify_has_no_seed_flag(capsys):
    # --seed was parsed and then ignored; it is gone, so argparse refuses it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--algebra", "sl2", "--id", "4.2", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_verify_config(tmp_path):
    config = {"algebras": ["sl2"], "identities": ["4.2"], "monoid": "trunc:2",
              "rmax": 1, "smax": 1, "chimax": 1, "integrality_trials": 3,
              "integrality_gens": 2, "basis_degree": 1}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli("verify", "--config", str(path))
    assert code == 0
    lines = []
    ver.run_suite(ver.SuiteConfig.from_path(path), emit=lines.append)
    assert out.splitlines() == lines
    assert lines[-1].startswith("SUMMARY checks=")


def test_an_acceptance_criterion_runs_from_its_config(tmp_path):
    """Criterion 4's config, copied out of the acceptance data, is a file
    `verify --config` runs: L4.3 on sl21 and osp12, then the integer identity."""
    with open(os.path.join(DATA, "acceptance.json")) as fh:
        config, = json.load(fh)["4"]["configs"]
    path = tmp_path / "crit4.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli("verify", "--config", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "SUMMARY checks=2241 pass=2241 fail=0 inapplicable=0"


@pytest.mark.parametrize("algebra, counts", [("sp4", [1, 20, 210, 1540, 8855]),
                                              ("sl21", [1, 16, 128, 688, 2816])])
def test_basis_counts_pass_under_the_lex_order(algebra, counts):
    """The B-, B0 and B+ counts convolve to the full counts in any order."""
    code, out, _ = run_cli("verify", "--algebra", algebra, "--monoid", "trunc:2",
                           "--order", "lex", "--id", "basis")
    assert code == 0
    assert out.splitlines() == [
        "CHECK id=basis algebra=%s degree=4 monoid=trunc:2 verdict=PASS [counts %r]"
        % (algebra, counts), "SUMMARY checks=1 pass=1 fail=0 inapplicable=0"]


def test_basis_needs_finite_monoid():
    code, _, err = run_cli("basis", "--algebra", "sl2", "--monoid", "poly",
                           "--degree", "1")
    assert code == 2
    assert "truncated" in err


def test_basis_refuses_a_negative_degree_before_printing():
    code, out, err = run_cli("basis", "--algebra", "sl2", "--degree", "-1")
    assert code == 2 and out == ""
    assert err == "error: degree cap must be >= 0\n"


def test_pelem():
    code, out, _ = run_cli("pelem", "--algebra", "sl2", "--i", "1", "--chi", "t:2")
    assert code == 0
    assert out.splitlines() == ["1/2 h[1]{t}^2", "- 1/2 h[1]{t^2}"]
    code, out, _ = run_cli("pelem", "--algebra", "sl21", "--alpha", "a1+a2",
                           "--chi", "t:1")
    assert code == 0
    assert out.splitlines() == ["-1 h[1]{t}", "- 1 h[2]{t}"]


def test_poly2_cartan_monomials_convert():
    # p_1(chi) leads with the monomial of chi; on poly2, where degree order
    # and exponent-tuple order part, the word order inside a block is the
    # tuple order, and the printed block follows it
    code, out, _ = run_cli("pelem", "--algebra", "sl2", "--monoid", "poly2", "--i", "1",
                           "--chi", "u,v^2", "--divided")
    assert code == 0 and out.splitlines() == ["1 p[1]{v^2:1,u:1}", "INTEGRAL: yes"]
    code, out, _ = run_cli("normalize", "--algebra", "sl2", "--monoid", "poly2",
                           "--divided", "h[1]{u} h[1]{v^2}")
    assert code == 0
    assert "1 p[1]{v^2:1,u:1}" in out.splitlines() and out.endswith("INTEGRAL: yes\n")


def test_poly2_words_order_a_symbol_by_exponent_tuple():
    # v^2 = (0, 2) before u = (1, 0): the PBW print follows the divided one
    code, out, _ = run_cli("normalize", "--algebra", "sl2", "--monoid", "poly2",
                           "h[1]{u} h[1]{v^2}")
    assert code == 0 and out == "1 h[1]{v^2} h[1]{u}\n"
    # odd letters of one root reordered pick up a sign and a bracket; the
    # divided print names the word it prints
    want = ["4 x[2g]{u*v^2}", "- 1 x[g]{v^2} x[g]{u}"]
    code, out, _ = run_cli("normalize", "--algebra", "osp12", "--monoid", "poly2",
                           "x[g]{u} x[g]{v^2}")
    assert code == 0 and out.splitlines() == want
    code, out, _ = run_cli("normalize", "--algebra", "osp12", "--monoid", "poly2",
                           "--divided", "x[g]{u} x[g]{v^2}")
    assert code == 0 and out.splitlines() == want + ["INTEGRAL: yes"]


def test_delem():
    code, out, _ = run_cli("delem", "--algebra", "sl2", "--alpha", "a",
                           "--j", "2", "--k", "2", "--d", "t", "--c", "1")
    assert code == 0
    assert out.splitlines() == ["1 x[a]{1} x[a]{t^2}", "+ 1/2 x[a]{t}^2"]


def test_exact_coefficients_print_at_any_length():
    """1/1700! has 4700 digits, past Python's int-to-str limit of 4300: the
    output lifts the limit and puts it back."""
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli("normalize", "--algebra", "sl2", "x[a]{t}^(1700)")
    assert code == 0 and not err
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        want = "1/%d x[a]{t}^1700" % math.factorial(1700)
    finally:
        sys.set_int_max_str_digits(limit)
    assert out.splitlines() == [want]


def test_printing_needs_no_digit_limit(monkeypatch):
    """An interpreter without the int-to-str limit (before 3.10.7) prints
    as before."""
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    monkeypatch.delattr(sys, "set_int_max_str_digits")
    code, out, err = run_cli("normalize", "--algebra", "sl2", "x[a]{t} x[-a]{1}")
    assert code == 0 and not err
    assert out.splitlines() == ["1 x[-a]{1} x[a]{t}", "+ 1 h[1]{t}"]


def test_input_keeps_the_digit_limit():
    code, out, err = run_cli("normalize", "--algebra", "sl2", "9" * 5000 + " x[a]{t}")
    assert code == 2 and not out and "limit" in err


@pytest.mark.parametrize("j, k", [("41", "2"), ("2", "1000000000")])
def test_delem_refuses_j_or_k_past_the_bound(j, k):
    code, out, err = run_cli("delem", "--algebra", "sl2", "--alpha", "a",
                             "--j", j, "--k", k, "--d", "t", "--c", "1")
    assert code == 2 and not out and "j, k <= 40" in err


BIG = "99999999999999999999"    # past sys.maxsize, so no index can hold it


@pytest.mark.parametrize("argv, what", [
    (("normalize", "--algebra", "sl2", "x[a]{t}^" + BIG), "exponent"),
    (("normalize", "--algebra", "sl2", "x[a]{t}^(%s)" % BIG), "exponent"),
    (("normalize", "--algebra", "sl2", "(x[a]{t})^" + BIG), "exponent"),
    (("normalize", "--algebra", "sl2", "p[1]{t:%s}" % BIG), "multiplicity"),
    (("pelem", "--algebra", "sl2", "--i", "1", "--chi", "t:" + BIG), "multiplicity"),
])
def test_a_count_too_large_for_an_index_exits_2(argv, what):
    code, out, err = run_cli(*argv)
    assert code == 2 and not out
    assert err.startswith("error: %s %s is too large" % (what, BIG))


@pytest.mark.parametrize("expr, pos", [("x[a]{t}^z", 8), ("x[a]{t}^(z)", 9)])
def test_an_exponent_that_is_no_integer_is_named_once(expr, pos):
    code, out, err = run_cli("normalize", "--algebra", "sl2", expr)
    assert (code, out, err) == (2, "", "error: expected an integer (at position %d)\n" % pos)


@pytest.mark.parametrize("expr", [
    "(" * 400 + "x[a]{t}" + ")" * 400,
    "x[a]{t}+(" * 400 + "x[a]{t}" + ")" * 400,
    "(" * 1000,
], ids=["group", "sum", "open"])
def test_parentheses_nested_too_deep_exit_2(expr):
    code, out, err = run_cli("normalize", "--algebra", "sl2", expr)
    assert code == 2 and not out
    assert err.startswith("error: parentheses nested deeper than 100 (at position ")
    assert len(err.splitlines()) == 1


def test_parentheses_nested_100_deep_parse():
    code, out, err = run_cli("normalize", "--algebra", "sl2",
                             "(" * 100 + "x[a]{t}" + ")" * 100)
    assert (code, out, err) == (0, "1 x[a]{t}\n", "")


TOKENS = ["x[a1]{t}", "x[-a1]{1}", "x[a2]{1}", "x[-a2]{t}", "x[a1+a2]{t^2}", "x[-a1-a2]{1}",
          "h[1]{t}", "h[2]{1}", "p[1]{t:2}", "p[2]{}", "2", "1/2", "0", "1/0", BIG,
          "+", "-", "(", ")", "^2", "^(3)", "^", "^-1", " ", "x[", "]", "{", "}", "x[zz]{t}",
          "h[3]{t}", "p[1]{t:"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=12))
def test_normalize_of_any_token_string_exits_0_or_2(tokens):
    assert cli.main(["normalize", "--algebra", "sl21", "--monoid", "trunc:3", "--",
                     "".join(tokens)]) in (0, 2)


@pytest.mark.parametrize("argv", [
    ("pelem", "--algebra", "sl2", "--i", "5", "--chi", "t"),
    ("pelem", "--algebra", "sl2", "--i", "0", "--chi", "t"),
    ("pelem", "--algebra", "sl2", "--i", "3"),
    ("normalize", "--algebra", "sl2", "p[2]{t}"),
])
def test_p_refuses_a_cartan_index_outside_the_rank(argv):
    code, out, err = run_cli(*argv)
    index = 2 if argv[0] == "normalize" else argv[4]
    assert code == 2 and not out
    assert "no Cartan generator h%s in sl2" % index in err


@pytest.mark.parametrize("j", ["0", "1"])
def test_delem_refuses_an_unknown_root_at_k_0(j):
    code, out, err = run_cli("delem", "--algebra", "sl2", "--alpha", "nope",
                             "--j", j, "--k", "0", "--d", "t", "--c", "1")
    assert code == 2 and not out and "unknown root label 'nope'" in err


def test_pelem_names_an_unknown_root():
    code, out, err = run_cli("pelem", "--algebra", "sl2", "--alpha", "nope", "--chi", "t")
    assert (code, out, err) == (2, "", "error: unknown root label 'nope' in algebra sl2\n")


def test_pelem_refuses_both_i_and_alpha():
    code, out, err = run_cli("pelem", "--algebra", "sl2", "--i", "1", "--alpha", "a",
                             "--chi", "t")
    assert code == 2 and not out and "--i" in err and "--alpha" in err


@pytest.mark.parametrize("expr, msg", [
    ("h[x]{t}", "h wants a Cartan index (at position 7)"),
    ("p[x]{t}", "p wants a Cartan index (at position 4)"),
    ("x[a]{q}", "cannot parse 'q' as an element of poly (at position 7)"),
    ("x[a]{t}^-1", "negative power (at position 10)"),
    ("x[a]{t}^(-1)", "negative power (at position 12)"),
    ("(x[a]{t})^-1", "negative power (at position 12)"),
    ("h[9]{t}^0", "no Cartan generator h9 in sl2"),
    ("h[9]{t}^(0)", "no Cartan generator h9 in sl2"),
    # a refused element is named in the grammar, not as its exponent tuple
    ("x[a]{t^-1}", "negative exponent in t^-1 (at position 10)"),
    ("x[a]{t*t^-1}", "negative exponent in t^-1 (at position 12)"),     # cancelled or not
    ("p[1]{t^-2:1}", "negative exponent in t^-2 (at position 12)"),
    # a digit that is not a decimal digit is no index and no multiplicity
    ("h[²]{1}", "h wants a Cartan index (at position 7)"),
    ("p[²]{t}", "p wants a Cartan index (at position 4)"),
    ("p[1]{t:²}", "multiset entry 't:²' wants elt or elt:mult (at position 9)"),
])
def test_normalize_refusals_name_the_fault(expr, msg):
    code, out, err = run_cli("normalize", "--algebra", "sl2", expr)
    assert (code, out, err) == (2, "", "error: %s\n" % msg)


@pytest.mark.parametrize("argv, msg", [
    (("normalize", "--algebra", "sl2", "--monoid", "trunc:4", "x[a]{t^5}"),
     "t^5 is not a basis element below the truncation bound (at position 9)"),
    (("verify", "--algebra", "sl2", "--monoid", "trunc:3", "--id", "4.3", "--b", "t^3"),
     "--b: t^3 is not a basis element below the truncation bound"),
])
def test_an_element_past_the_truncation_is_named_in_the_grammar(argv, msg):
    code, out, err = run_cli(*argv)
    assert (code, out, err) == (2, "", "error: %s\n" % msg)


@pytest.mark.parametrize("argv, msg", [
    (("verify",), "verify wants --algebra or --config"),
    (("pelem", "--algebra", "sl2"), "pelem wants --i <cartan index> or --alpha <root label>"),
])
def test_a_command_missing_its_operand_exits_2(argv, msg):
    code, out, err = run_cli(*argv)
    assert (code, out, err) == (2, "", "error: %s\n" % msg)


def test_a_suite_config_that_is_no_object_exits_2(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, out, err = run_cli("verify", "--config", str(path))
    assert (code, out, err) == (2, "", "error: suite config must be a JSON object\n")


@pytest.mark.parametrize("old, new, msg", [
    ("cartan 1", "cartan x", "line 2: cartan wants a rank"),
    ("  a even 2 neg", "  a even z neg", "line 4: bad evaluation vector"),
    ("coroots\n  a 1\n", "coroots\n  a z\n", "line 7: bad coroot vector"),
    ("coroots\n  a 1\n", "coroots\n  a 1 2\n", "line 7: coroot wants 1 integers"),
    ("x[a] = h1 -1", "x[a] = h1 z", "line 12: bad integer 'z'"),
    ("  -a even -2 neg", "  -a even 2 neg", "roots a and -a share the evaluation vector (2,)"),
    # a field past a line's form is refused, not dropped
    ("a even 2 neg -a positive", "a even 2 neg -a positive junk",
     "line 4: want '<label> even|odd <1 ints> neg <label> [positive]'"),
    ("-a even -2 neg a\n", "-a even -2 neg a junk\n",
     "line 5: want '<label> even|odd <1 ints> neg <label> [positive]'"),
    ("cartan 1", "cartan 1 2", "line 2: cartan wants a rank"),
    ("algebra sl2", "algebra foo bar", "line 1: algebra wants a name"),
    ("cartan 1\nroots\n", "cartan 1\nroots x\n", "line 3: roots takes nothing after it"),
    # a label that --order would read as a Cartan index, or split at its comma
    ("  a even 2 neg", "  1 even 2 neg",
     "line 4: root label '1' reads as a Cartan index or holds ',', so no order can name it"),
    ("  -a even -2 neg", "  -1 even -2 neg",
     "line 5: root label '-1' reads as a Cartan index or holds ',', so no order can name it"),
    ("  a even 2 neg", "  b,c even 2 neg",
     "line 4: root label 'b,c' reads as a Cartan index or holds ',', so no order can name it"),
], ids=["rank", "evaluation", "coroot", "coroot-length", "bracket", "shared-evaluation",
        "past-positive", "past-neg", "past-rank", "past-name", "past-section",
        "label-integer", "label-signed-integer", "label-comma"])
def test_validate_spec_refuses_a_malformed_table(tmp_path, old, new, msg):
    with open(os.path.join(DATA, "sl2.alg")) as f:
        table = f.read()
    assert old in table
    path = tmp_path / "bad.alg"
    path.write_text(table.replace(old, new))
    code, out, err = run_cli("validate-spec", "--algebra", str(path))
    assert (code, out, err) == (2, "", "error: %s\n" % msg)


@pytest.mark.parametrize("config, names", [
    ({"algebras": ["sl2"], "identities": ["4.8"]}, "identities [4.8] on algebras [sl2]"),
    ({"algebras": ["sl2"], "identities": []}, "identities [] on algebras [sl2]"),
    ({"algebras": [], "identities": ["4.2"]}, "identities [4.2] on algebras []"),
])
def test_a_suite_config_that_runs_no_check_exits_2(tmp_path, config, names):
    """As `verify --id` does for an id with no instance: no SUMMARY of zero checks."""
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli("verify", "--config", str(path))
    assert (code, out, err) == (2, "", "error: suite config runs no check: %s\n" % names)


def test_validate_spec_preset():
    code, out, _ = run_cli("validate-spec", "--algebra", "sl21")
    assert code == 0
    assert out.startswith("VALID sl21")


def test_validate_spec_file():
    code, out, _ = run_cli("validate-spec", "--algebra",
                           os.path.join(DATA, "sl2.alg"))
    assert code == 0
    assert "VALID" in out


def test_validate_spec_invalid_file(tmp_path):
    bad = (
        "cartan 1\nroots\n"
        "  a even 2 neg -a positive\n  -a even -2 neg a\n"
        "coroots\n  a 1\n  -a -1\n"
        "brackets\n"
        "  h1 x[a] = x[a] 1\n"       # wrong grading
        "  h1 x[-a] = x[-a] -2\n"
        "  x[a] x[-a] = h1 1\n")
    path = tmp_path / "bad.alg"
    path.write_text(bad)
    code, out, _ = run_cli("validate-spec", "--algebra", str(path))
    assert code == 1
    assert "VIOLATION" in out and "INVALID" in out


def test_load_algebra_file_for_normalize():
    code, out, _ = run_cli("normalize", "--algebra",
                           os.path.join(DATA, "sl2.alg"), "x[a]{t} x[-a]{1}")
    assert code == 0
    assert "h[1]{t}" in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "superpbw", "normalize", "--algebra", "sl2", "x[a]{t}"],
        capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 x[a]{t}"


# a suite of 751 lines (58 kB), well past a pipe buffer
SMALL_SUITE = {"algebras": ["sl2"], "rmax": 1, "smax": 1, "mmax": 1, "chimax": 1,
               "integrality_trials": 1}


@pytest.mark.parametrize("argv", [
    ["verify", "--algebra", "sp4", "--id", "L4.4b", "--alpha=a2", "--beta=a1"],
    ["normalize", "--algebra", "sl2", "x[a]{t} x[-a]{1}"],
    ["basis", "--algebra", "sl21", "--monoid", "trunc:2", "--degree", "3"],
    ["verify", "--config", "suite.json"],
])
def test_closed_stdout_exits_without_a_traceback(argv, tmp_path):
    # the reader is gone before the first write.  With stdout block-buffered,
    # as a pipe is by default, verify meets it in a print and normalize in the
    # flush after its command
    (tmp_path / "suite.json").write_text(json.dumps(SMALL_SUITE))
    argv = [str(tmp_path / a) if a == "suite.json" else a for a in argv]
    proc = _run_into_closed_pipe(["-m", "superpbw"] + argv)
    assert proc.returncode == 141
    assert proc.stderr == ""


def _run_into_closed_pipe(argv):
    """Python on argv, its stdout a pipe whose read end is closed, and
    PYTHONUNBUFFERED unset so that stdout is block-buffered as in a shell pipe."""
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run([sys.executable] + argv, stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)


def test_coroots_before_cartan_exit_2(tmp_path):
    path = tmp_path / "early.alg"
    path.write_text("coroots\n  a 1\ncartan 1\n")
    proc = subprocess.run([sys.executable, "-m", "superpbw", "validate-spec", "--algebra",
                           str(path)], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: line 2: cartan rank must come before coroots\n"


def test_negative_cartan_rank_exit_2(tmp_path):
    path = tmp_path / "neg.alg"
    path.write_text("cartan -1\n")
    for argv in (["validate-spec", "--algebra", str(path)],
                 ["normalize", "--algebra", str(path), "1"]):
        proc = subprocess.run([sys.executable, "-m", "superpbw"] + argv,
                              capture_output=True, text=True, env=ENV)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: line 1: cartan rank -1 is negative\n"


def test_unknown_bracket_result_exit_2(tmp_path):
    path = tmp_path / "h7.alg"
    path.write_text(open(os.path.join(DATA, "sl2.alg")).read()
                    .replace("x[-a] x[a] = h1 -1", "x[-a] x[a] = h1 -1 h7 -5"))
    for argv in (["validate-spec", "--algebra", str(path)],
                 ["normalize", "--algebra", str(path), "x[a]{1} x[-a]{1} x[-a]{1}"]):
        proc = subprocess.run([sys.executable, "-m", "superpbw"] + argv,
                              capture_output=True, text=True, env=ENV)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: bracket mentions unknown symbol h7\n"


def test_usage_error_exit_2():
    proc = subprocess.run([sys.executable, "-m", "superpbw", "normalize"],
                          capture_output=True, text=True, env=ENV)
    assert proc.returncode == 2


def test_main_reuses_parser_across_calls(capsys):
    assert cli._parser() is cli._parser()
    code, out, _ = run_cli("normalize", "--algebra", "sl2", "x[a]{t} x[-a]{1}")
    assert code == 0
    assert out.splitlines() == ["1 x[-a]{1} x[a]{t}", "+ 1 h[1]{t}"]
    code, out, _ = run_cli("validate-spec", "--algebra", "sl2")
    assert code == 0
    assert out.startswith("VALID sl2")
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "--algebra", "sl2", "--no-such-flag", "x[a]{t}"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    code, out, _ = run_cli("normalize", "--algebra", "sl2", "--divided", "h[1]{t}^2")
    assert code == 0
    assert out.splitlines()[-1] == "INTEGRAL: yes"


def test_verify_missing_files_exit_2(tmp_path):
    missing = str(tmp_path / "missing.alg")
    code, _, err = run_cli("verify", "--algebra", missing, "--id", "4.2")
    assert code == 2
    assert err.startswith("error: unknown algebra") and "missing.alg" in err
    code, _, err = run_cli("verify", "--config", str(tmp_path / "missing.json"))
    assert code == 2
    assert err.startswith("error: cannot read suite config")


@pytest.mark.parametrize("config, key", [
    ({"rmax": [1]}, "rmax"),
    ({"algebras": 3}, "algebras"),
    ({"algebras": ["sl2"], "identities": "4.2"}, "identities"),
    ({"monoid": "trunc:x"}, "monoid"),
    ({"rmax": -1}, "rmax"),
    ({"monoid": "laurent"}, "monoid"),
    ({"integrality_gens": 0}, "integrality_gens"),    # a product of no generator
])
def test_verify_bad_config_values_exit_2(tmp_path, config, key):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli("verify", "--config", str(path))
    assert code == 2
    assert err.startswith("error: suite config key %r" % key)
    assert out == ""


# JSON values a suite config key may be given: wrong types, negative and
# huge ints, empty and repeated lists, and nested lists and objects
_LEAVES = (st.none() | st.booleans() | st.integers(-3, 5) | st.integers(min_value=10 ** 30)
           | st.integers(max_value=-10 ** 30) | st.floats() | st.text(max_size=6)
           | st.sampled_from(["sl2", "osp12", "trunc:2", "trunc:0", "poly", "4.2", "deg1"]))
_VALUES = (st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)
           | st.lists(st.sampled_from(["sl2", "osp12", "4.2", "deg1", "integrality"]), max_size=4))
_CONFIGS = st.dictionaries(st.sampled_from(sorted(ver._CONFIG_KEYS) + ["nope"]), _VALUES,
                           max_size=5)


@settings(max_examples=300, deadline=None)
@given(_CONFIGS)
def test_any_suite_config_object_parses_or_is_refused_with_exit_2(raw):
    """from_json returns a config or raises SpecError, never anything else;
    `verify --config` exits 2 on each refused object with one error line.
    An accepted config is not run: its sweep may be of any size."""
    text = json.dumps(raw)
    try:
        ver.SuiteConfig.from_json(text)
        return
    except SpecError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "suite.json")
        with open(path, "w") as fh:
            fh.write(text)
        code, out, err = run_cli("verify", "--config", path)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("text", [
    # only Pythons that limit the digits of an int read from a string refuse it
    pytest.param('{"seed": %s}' % ("7" * 5000), id="int-past-digit-limit",
                 marks=pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                          reason="no int digit limit before Python 3.10.7")),
    pytest.param('{"algebras": %s}' % ("[" * 100000 + "]" * 100000), id="nested-100000-deep")])
def test_suite_config_past_the_json_parser_limits_exits_2(tmp_path, text):
    with pytest.raises(SpecError, match="bad suite config"):
        ver.SuiteConfig.from_json(text)
    path = tmp_path / "suite.json"
    path.write_text(text)
    code, out, err = run_cli("verify", "--config", str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: bad suite config: ")


@pytest.mark.parametrize("argv, err", [
    (["normalize", "--algebra", "sl2", "--monoid=", "x[a]{t}"], "unknown monoid preset ''"),
    (["basis", "--algebra", "sl2", "--monoid=", "--degree", "1"], "unknown monoid preset ''"),
    (["normalize", "--algebra", "sl2", "--order=", "x[a]{t}"], "order must list every root"),
    (["verify", "--algebra", "sl2", "--order=", "--id", "4.2"], "order must list every root"),
    (["verify", "--algebra", "sl2", "--id="], "unknown identity id ''"),
    (["verify", "--algebra=", "--id", "4.2"], "unknown algebra ''"),
    (["verify", "--config="], "cannot read suite config ''"),
    (["verify", "--config", "suite.json", "--order="], "it would ignore --order"),
    (["verify", "--config", "suite.json", "--monoid="], "it would ignore --monoid"),
    (["verify", "--config", "suite.json", "--algebra="], "it would ignore --algebra"),
    (["verify", "--algebra", "sl2", "--monoid=", "--id", "4.2"], "unknown monoid preset ''"),
])
def test_an_empty_flag_value_is_refused(tmp_path, argv, err):
    """An empty value is a value: its reader refuses it, not the default."""
    (tmp_path / "suite.json").write_text(json.dumps({"algebras": ["sl2"]}))
    argv = [str(tmp_path / a) if a == "suite.json" else a for a in argv]
    code, out, got = run_cli(*argv)
    assert code == 2 and out == ""
    assert got.startswith("error: ") and err in got


def test_verify_param_flags_must_be_declared_by_the_id():
    # with --id, a flag the id's axes do not declare is refused by name ...
    for ident_id in ("4.1", "L5.2", "comb"):
        code, out, err = run_cli("verify", "--algebra", "sl2", "--id", ident_id,
                                 "--r", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: --r: not a parameter of %s" % ident_id)
    code, _, err = run_cli("verify", "--algebra", "sl2", "--id", "4.2",
                           "--r", "2", "--alpha", "a", "--chi", "t:1")
    assert code == 2
    assert err.startswith("error: --alpha, --chi: not a parameter of 4.2")
    # ... a declared one filters ...
    code, out, _ = run_cli("verify", "--algebra", "sl2", "--id", "L5.2", "--chi", "t:1")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("CHECK")]
    assert lines and all(" chi=t:1 " in l for l in lines)
    # ... and without --id a flag filters the identities that declare it
    code, out, _ = run_cli("verify", "--algebra", "sl2", "--r", "2", "--s", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("CHECK")]
    assert any(l.startswith("CHECK id=4.1 ") for l in lines)
    assert all(" r=2 " in l for l in lines if l.startswith("CHECK id=4.2 "))


def test_verify_takes_every_registered_parameter_as_a_flag():
    names = {name for check in ver.IDENTITIES.values() for name, _ in check.axes}
    for name in names:
        args = cli._parser().parse_args(["verify", "--%s" % name, "x"])
        assert getattr(args, name) == "x"
    # deg6's second odd root is zeta: it filters like any other parameter
    code, out, _ = run_cli("verify", "--algebra", "sl21", "--id", "deg6", "--zeta", "a2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("CHECK")]
    assert lines and all(l.startswith("CHECK id=deg6 ") and " zeta=a2 " in l for l in lines)
    assert out.splitlines()[-1] == "SUMMARY checks=%d pass=%d fail=0 inapplicable=0" \
        % (len(lines), len(lines))


def test_verify_config_refuses_the_flags_it_would_ignore(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"algebras": ["sl2"], "identities": ["4.2"]}))
    code, out, err = run_cli("verify", "--config", str(path), "--algebra", "sp4",
                             "--id", "4.9", "--r", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: --config runs the suite the file declares")
    assert err.rstrip().endswith("--algebra, --id, --r")
    code, out, err = run_cli("verify", "--config", str(path), "--monoid", "trunc:2",
                             "--order", "lex", "--chi", "t")
    assert code == 2 and out == ""
    assert err.rstrip().endswith("--monoid, --order, --chi")


@pytest.mark.parametrize("chi", ["1:1,t:1", "t:1,1:1", "t,1", "1,t:1"])
def test_verify_multiset_flags_match_by_value(chi):
    code, out, _ = run_cli("verify", "--algebra", "sl2", "--monoid", "trunc:2",
                           "--id", "L5.2", "--chi", chi, "--phi", "0")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("CHECK")]
    assert len(lines) == 1 and " chi=1:1,t:1 " in lines[0] and " phi=0 " in lines[0]


def test_verify_flags_parse_by_axis_kind():
    code, out, _ = run_cli("verify", "--algebra", "sl2", "--id", "4.2",
                           "--b", " t ", "--r", "2", "--s", "1")
    assert code == 0
    assert out.count("CHECK id=4.2 ") == 2
    for flag, text in (("--r", "two"), ("--b", "q"), ("--chi", "t:x"), ("--i", "1.5")):
        ident_id = "L5.2" if flag in ("--chi", "--i") else "4.2"
        code, out, err = run_cli("verify", "--algebra", "sl2", "--id", ident_id,
                                 flag, text)
        assert code == 2 and out == ""
        assert err.startswith("error: %s: " % flag)


def test_multiset_spellings_agree():
    want = ["1/2 h[1]{t}^2", "- 1/2 h[1]{t^2}"]
    for chi in ("t:2", "t,t", "t:1,t"):
        code, out, _ = run_cli("pelem", "--algebra", "sl2", "--i", "1", "--chi", chi)
        assert code == 0 and out.splitlines() == want
    code, out, _ = run_cli("normalize", "--algebra", "sl2", "p[1]{t}")
    assert code == 0 and out.splitlines() == ["-1 h[1]{t}"]


def test_repeated_config_id_exits_2(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"algebras": ["sl2"], "identities": ["L5.2", "L5.2"]}))
    code, out, err = run_cli("verify", "--config", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: suite config lists identity 'L5.2' more than once")


def test_repeated_config_algebra_exits_2(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"algebras": ["sl2", "sl2"], "identities": ["4.2"], "rmax": 1,
                                "smax": 1, "monoid": "trunc:2"}))
    code, out, err = run_cli("verify", "--config", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: suite config lists algebra 'sl2' more than once")


def test_one_table_named_two_ways_exits_2(tmp_path, monkeypatch):
    """Two entries that load the same table are refused before any check,
    a preset and a copy of its table as well."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c0.alg").write_text("cartan 0\nroots\ncoroots\nbrackets\n")
    (tmp_path / "sl2.alg").write_text(open(os.path.join(DATA, "sl2.alg")).read())
    (tmp_path / "twice.json").write_text(json.dumps(
        {"algebras": ["c0.alg", "./c0.alg"], "identities": ["integrality"]}))
    code, out, err = run_cli("verify", "--config", "twice.json")
    assert code == 2 and out == ""
    assert err == "error: suite config entries 'c0.alg' and './c0.alg' are the same algebra\n"
    (tmp_path / "copy.json").write_text(json.dumps(
        {"algebras": ["sl2", "sl2.alg"], "identities": ["4.2"], "rmax": 1, "smax": 1,
         "monoid": "trunc:2"}))
    code, out, err = run_cli("verify", "--config", "copy.json")
    assert code == 2 and out == ""
    assert err == "error: suite config entries 'sl2' and 'sl2.alg' are the same algebra\n"


@pytest.mark.parametrize("ident", ["deg7", "integrality", "triangular", "basis"])
def test_verify_id_runs_a_degree_bound_as_the_suite_does(ident):
    """--id runs a check at the bounds a suite config has by default."""
    code, out, _ = run_cli("verify", "--algebra", "osp12", "--id", ident)
    assert code == 0
    suite = []
    ver.run_suite(ver.SuiteConfig(algebras=("osp12",), identities=(ident,)), emit=suite.append)
    assert out.splitlines() == suite
    assert suite[0].startswith("CHECK id=%s " % ident)


def test_verify_needs_a_finite_monoid():
    # every check of an algebra reads the monoid's basis: refused before the first
    for ident in ("4.2", "integrality", "comb"):
        code, out, err = run_cli("verify", "--algebra", "sl2", "--monoid", "poly",
                                 "--id", ident)
        assert code == 2 and out == ""
        assert err == ("error: suite config key 'monoid' wants a monoid preset with a finite "
                       "basis (trunc:n), got 'poly'\n")


@pytest.mark.parametrize("monoid", ["zz", "trunc:0", "trunc:\u0662"])
def test_verify_passes_on_the_monoid_readers_refusal(monoid):
    # the suite config's rule appends what normalize says of the same name
    code, _, said = run_cli("normalize", "--algebra", "sl2", "--monoid", monoid, "x[a]{1}")
    assert code == 2 and said.startswith("error: ")
    code, out, err = run_cli("verify", "--algebra", "sl2", "--monoid", monoid, "--id", "4.2")
    assert code == 2 and out == ""
    assert err == ("error: suite config key 'monoid' wants a monoid preset with a finite basis "
                   "(trunc:n), got %r: %s" % (monoid, said[len("error: "):]))


def test_verify_config_loads_every_algebra_before_the_first_check(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"algebras": ["sl2", str(tmp_path / "missing.alg")]}))
    code, out, err = run_cli("verify", "--config", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: unknown algebra")


def test_an_exception_inside_a_check_is_a_fail_of_that_check(tmp_path, monkeypatch):
    """The suite goes on past it, prints its SUMMARY and exits 1."""
    def to_divided(self, x):
        raise MonoidError("no divided basis today")
    monkeypatch.setattr(Engine, "to_divided", to_divided)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"algebras": ["sl2"], "identities": ["deg1", "4.2", "integrality"],
                                "monoid": "trunc:1", "rmax": 1, "smax": 1}))
    code, out, err = run_cli("verify", "--config", str(path))
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0] == ("CHECK id=deg1 algebra=sl2 a=1 alpha=a b=1 r=0 s=0 verdict=FAIL "
                        "[MonoidError: no divided basis today at a=1 alpha=a b=1 r=0 s=0]")
    assert lines[-2] == ("CHECK id=integrality algebra=sl2 gens=4 trials=50 seed=0 verdict=FAIL "
                         "[MonoidError: no divided basis today at gens=4 trials=50 seed=0]")
    assert all("verdict=PASS" in l for l in lines if l.startswith("CHECK id=4.2 "))
    assert lines[-1] == "SUMMARY checks=17 pass=8 fail=9 inapplicable=0"


@pytest.mark.parametrize("key", ["degree_bounds", "lemma_5_2", "comb"])
def test_verify_config_switches_are_unknown_keys(tmp_path, key):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"algebras": ["sl2"], key: False}))
    code, out, err = run_cli("verify", "--config", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: unknown suite config key %r" % key)
