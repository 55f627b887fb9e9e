import json
import os
import subprocess
import sys

import pytest

from superpbw import cli
from superpbw import verify as ver
from superpbw.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# a child process imports the package from this checkout, installed or not
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_normalize_basic(capsys):
    code, out, _ = run(capsys, "normalize", "--algebra", "sl2", "x[a]{t} x[-a]{1}")
    assert code == 0
    assert out.splitlines() == ["1 x[-a]{1} x[a]{t}", "+ 1 h[1]{t}"]


def test_normalize_isotropic_square(capsys):
    code, out, _ = run(capsys, "normalize", "--algebra", "sl21", "x[a2]{1}^2")
    assert code == 0
    assert out.strip() == "0"


def test_normalize_divided(capsys):
    code, out, _ = run(capsys, "normalize", "--algebra", "sl2", "--divided", "h[1]{t}^2")
    assert code == 0
    assert out.splitlines() == ["2 p[1]{t:2}", "- 1 p[1]{t^2:1}", "INTEGRAL: yes"]
    code, out, _ = run(capsys, "normalize", "--algebra", "sl2", "--divided",
                       "1/2 x[a]{t}")
    assert out.splitlines()[-1] == "INTEGRAL: no"


def test_normalize_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "normalize", "--algebra", "sl2", "x[zz]{t}")
    assert code == 2
    assert "unknown root label" in err
    code, _, err = run(capsys, "normalize", "--algebra", "nosuch", "x[a]{t}")
    assert code == 2


def test_normalize_deterministic(capsys):
    args = ("normalize", "--algebra", "sl21", "--monoid", "trunc:3",
            "x[a1]{t}^(2) x[-a1]{t}^(2) x[a2]{1}")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_single_id(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "osp12", "--id", "4.8")
    assert code == 0
    assert "SUMMARY" in out and "fail=0" in out


def test_verify_inapplicable_gate(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "sl21", "--id", "4.11")
    assert code == 0
    assert "INAPPLICABLE" in out
    assert "pass=0" in out


def test_verify_fixed_params(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "sl3", "--id", "L4.4a",
                       "--r", "2", "--s", "2", "--a", "1", "--b", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("CHECK")]
    assert lines and all("r=2" in l and "s=2" in l for l in lines)


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "--algebra", "sl2", "--id", "9.9")
    assert code == 2
    assert "unknown identity id" in err


def test_verify_has_no_seed_flag(capsys):
    # --seed was parsed and then ignored; it is gone, so argparse refuses it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--algebra", "sl2", "--id", "4.2", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_verify_config(tmp_path, capsys):
    config = {"algebras": ["sl2"], "identities": ["4.2"], "monoid": "trunc:2",
              "rmax": 1, "smax": 1, "chimax": 1, "integrality_trials": 3,
              "integrality_gens": 2, "basis_degree": 1}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, "verify", "--config", str(path))
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("SUMMARY")


def test_basis_golden(capsys):
    code, out, _ = run(capsys, "basis", "--algebra", "sl21", "--monoid", "trunc:2",
                       "--degree", "2", "--order=-a1,-a2,-a1-a2,1,2,a1,a2,a1+a2")
    assert code == 0
    golden = open(os.path.join(DATA, "sl21_basis_deg2.txt")).read()
    assert out == golden


def test_basis_needs_finite_monoid(capsys):
    code, _, err = run(capsys, "basis", "--algebra", "sl2", "--monoid", "poly",
                       "--degree", "1")
    assert code == 2
    assert "truncated" in err


def test_pelem(capsys):
    code, out, _ = run(capsys, "pelem", "--algebra", "sl2", "--i", "1", "--chi", "t:2")
    assert code == 0
    assert out.splitlines() == ["1/2 h[1]{t}^2", "- 1/2 h[1]{t^2}"]
    code, out, _ = run(capsys, "pelem", "--algebra", "sl21", "--alpha", "a1+a2",
                       "--chi", "t:1")
    assert code == 0
    assert out.splitlines() == ["-1 h[1]{t}", "- 1 h[2]{t}"]


def test_delem(capsys):
    code, out, _ = run(capsys, "delem", "--algebra", "sl2", "--alpha", "a",
                       "--j", "2", "--k", "2", "--d", "t", "--c", "1")
    assert code == 0
    assert out.splitlines() == ["1 x[a]{1} x[a]{t^2}", "+ 1/2 x[a]{t}^2"]


def test_validate_spec_preset(capsys):
    code, out, _ = run(capsys, "validate-spec", "--algebra", "sl21")
    assert code == 0
    assert out.startswith("VALID sl21")


def test_validate_spec_file(capsys):
    code, out, _ = run(capsys, "validate-spec", "--algebra",
                       os.path.join(DATA, "sl2.alg"))
    assert code == 0
    assert "VALID" in out


def test_validate_spec_invalid_file(tmp_path, capsys):
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
    code, out, _ = run(capsys, "validate-spec", "--algebra", str(path))
    assert code == 1
    assert "VIOLATION" in out and "INVALID" in out


def test_load_algebra_file_for_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "--algebra",
                       os.path.join(DATA, "sl2.alg"), "x[a]{t} x[-a]{1}")
    assert code == 0
    assert "h[1]{t}" in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "superpbw", "normalize", "--algebra", "sl2", "x[a]{t}"],
        capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 x[a]{t}"


def test_usage_error_exit_2():
    proc = subprocess.run([sys.executable, "-m", "superpbw", "normalize"],
                          capture_output=True, text=True, env=ENV)
    assert proc.returncode == 2


def test_main_reuses_parser_across_calls(capsys):
    assert cli._parser() is cli._parser()
    code, out, _ = run(capsys, "normalize", "--algebra", "sl2", "x[a]{t} x[-a]{1}")
    assert code == 0
    assert out.splitlines() == ["1 x[-a]{1} x[a]{t}", "+ 1 h[1]{t}"]
    code, out, _ = run(capsys, "validate-spec", "--algebra", "sl2")
    assert code == 0
    assert out.startswith("VALID sl2")
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "--algebra", "sl2", "--no-such-flag", "x[a]{t}"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    code, out, _ = run(capsys, "normalize", "--algebra", "sl2", "--divided", "h[1]{t}^2")
    assert code == 0
    assert out.splitlines()[-1] == "INTEGRAL: yes"


def test_verify_missing_files_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.alg")
    code, _, err = run(capsys, "verify", "--algebra", missing, "--id", "4.2")
    assert code == 2
    assert err.startswith("error: unknown algebra") and "missing.alg" in err
    code, _, err = run(capsys, "verify", "--config", str(tmp_path / "missing.json"))
    assert code == 2
    assert err.startswith("error: cannot read suite config")


@pytest.mark.parametrize("config, key", [
    ({"rmax": [1]}, "rmax"),
    ({"algebras": 3}, "algebras"),
    ({"algebras": ["sl2"], "identities": ["nope"]}, "identities"),
])
def test_verify_bad_config_values_exit_2(tmp_path, capsys, config, key):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "verify", "--config", str(path))
    assert code == 2
    assert err.startswith("error: suite config key %r" % key)
    assert out == ""


def test_verify_param_flags_must_be_declared_by_the_id(capsys):
    # with --id, a flag the id's axes do not declare is refused by name ...
    for ident_id in ("4.1", "L5.2", "comb"):
        code, out, err = run(capsys, "verify", "--algebra", "sl2", "--id", ident_id,
                             "--r", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: --r: not a parameter of %s" % ident_id)
    code, _, err = run(capsys, "verify", "--algebra", "sl2", "--id", "4.2",
                       "--r", "2", "--alpha", "a", "--chi", "t:1")
    assert code == 2
    assert err.startswith("error: --alpha, --chi: not a parameter of 4.2")
    # ... a declared one filters ...
    code, out, _ = run(capsys, "verify", "--algebra", "sl2", "--id", "L5.2", "--chi", "t:1")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("CHECK")]
    assert lines and all(" chi=t:1 " in l for l in lines)
    # ... and without --id a flag filters the identities that declare it
    code, out, _ = run(capsys, "verify", "--algebra", "sl2", "--r", "2", "--s", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("CHECK")]
    assert any(l.startswith("CHECK id=4.1 ") for l in lines)
    assert all(" r=2 " in l for l in lines if l.startswith("CHECK id=4.2 "))


def test_verify_config_refuses_the_flags_it_would_ignore(tmp_path, capsys):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"algebras": ["sl2"], "identities": ["4.2"]}))
    code, out, err = run(capsys, "verify", "--config", str(path), "--algebra", "sp4",
                         "--id", "4.9", "--r", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: --config runs the suite the file declares")
    assert err.rstrip().endswith("--algebra, --id, --r")
    code, out, err = run(capsys, "verify", "--config", str(path), "--monoid", "trunc:2",
                         "--order", "lex", "--chi", "t")
    assert code == 2 and out == ""
    assert err.rstrip().endswith("--monoid, --order, --chi")


@pytest.mark.parametrize("chi", ["1:1,t:1", "t:1,1:1", "t,1", "1,t:1"])
def test_verify_multiset_flags_match_by_value(chi, capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "sl2", "--monoid", "trunc:2",
                       "--id", "L5.2", "--chi", chi, "--phi", "0")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("CHECK")]
    assert len(lines) == 1 and " chi=1:1,t:1 " in lines[0] and " phi=0 " in lines[0]


def test_verify_flags_parse_by_axis_kind(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "sl2", "--id", "4.2",
                       "--b", " t ", "--r", "2", "--s", "1")
    assert code == 0
    assert out.count("CHECK id=4.2 ") == 2
    for flag, text in (("--r", "two"), ("--b", "q"), ("--chi", "t:x"), ("--i", "1.5")):
        ident_id = "L5.2" if flag in ("--chi", "--i") else "4.2"
        code, out, err = run(capsys, "verify", "--algebra", "sl2", "--id", ident_id,
                             flag, text)
        assert code == 2 and out == ""
        assert err.startswith("error: %s: " % flag)


def test_multiset_spellings_agree(capsys):
    want = ["1/2 h[1]{t}^2", "- 1/2 h[1]{t^2}"]
    for chi in ("t:2", "t,t", "t:1,t"):
        code, out, _ = run(capsys, "pelem", "--algebra", "sl2", "--i", "1", "--chi", chi)
        assert code == 0 and out.splitlines() == want
    code, out, _ = run(capsys, "normalize", "--algebra", "sl2", "p[1]{t}")
    assert code == 0 and out.splitlines() == ["-1 h[1]{t}"]


def test_sweep_script_bad_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rmax": [1]}')
    for config in (str(tmp_path / "missing.json"), str(bad)):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "scripts", "run_identity_sweep.py"),
             "--config", config], capture_output=True, text=True, env=ENV)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_verify_id_runs_a_degree_bound_as_the_suite_does(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "osp12", "--id", "deg7")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("CHECK")]
    suite = []
    ver.run_suite(ver.SuiteConfig(algebras=("osp12",), identities=("deg7",),
                                  integrality_trials=1, basis_degree=1), emit=suite.append)
    assert lines and lines == [l for l in suite if l.startswith("CHECK id=deg7 ")]


@pytest.mark.parametrize("key", ["degree_bounds", "lemma_5_2", "comb"])
def test_verify_config_switches_are_unknown_keys(tmp_path, capsys, key):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"algebras": ["sl2"], key: False}))
    code, out, err = run(capsys, "verify", "--config", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: unknown suite config key %r" % key)
