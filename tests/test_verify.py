import json
import os
from dataclasses import replace
from fractions import Fraction

import pytest

from superpbw.algebra import SpecError
from superpbw.combinatorics import Multiset
from superpbw import identities as ident
from superpbw.engine import Engine
from superpbw.verify import IDENTITIES, SuiteConfig, SweepBounds, genfun_counts, \
    get_engine, load_engine, run_suite, sweep_comb_identity, sweep_identity, \
    verify_basis_counts, verify_identity, verify_integrality, verify_triangular

ONE, T, T2 = (0,), (1,), (2,)
DEG_IDS = tuple("deg%d" % n for n in range(1, 8))


def test_4_2_coefficient():
    eng = get_engine("sl2")
    rep = verify_identity(eng, "4.2", {"beta": "a", "b": T, "r": 2, "s": 1})
    assert rep.verdict == "pass"
    # the law really carries C(3,1) = 3
    lhs = eng.mul(eng.divided_power(('x', 'a'), T, 2), eng.divided_power(('x', 'a'), T, 1))
    assert lhs == 3 * eng.divided_power(('x', 'a'), T, 3)


def test_4_9_on_sl21():
    eng = get_engine("sl21")
    rep = verify_identity(eng, "4.9", {"gamma": "a2", "a": T, "b": ONE})
    assert rep.verdict == "pass"


def test_4_11_gating():
    rep = verify_identity(get_engine("sl21"), "4.11",
                          {"gamma": "a2", "m": 1, "a": T, "b": ONE})
    assert rep.verdict == "inapplicable"
    rep = verify_identity(get_engine("osp12"), "4.11",
                          {"gamma": "g", "m": 2, "a": T, "b": ONE})
    assert rep.verdict == "pass"


def test_sign_solving_reports_assignment():
    eng = get_engine("sp4")
    rep = verify_identity(eng, "L4.4b",
                          {"alpha": "a1", "beta": "a2", "a": ONE, "b": ONE, "r": 2, "s": 2})
    assert rep.verdict == "pass"
    assert "eps[" in rep.detail


def test_sign_reuse_across_coefficients():
    eng = get_engine("sp4")
    cache = {}
    bounds = SweepBounds(rmax=2, smax=2)
    reports = []
    for a in eng.monoid.elements():
        for b in eng.monoid.elements():
            ps = {"alpha": "a1", "beta": "a2", "a": a, "b": b, "r": 2, "s": 2}
            reports.append(verify_identity(eng, "L4.4b", ps, cache))
    assert all(r.verdict == "pass" for r in reports)
    assert len(cache) == 1   # one root pair, one shared assignment


def test_degree_bounds_items():
    eng = get_engine("sl2")
    reps = [r for i in DEG_IDS
            for r in sweep_identity(eng, i, SweepBounds(rmax=2, smax=2, chimax=2))]
    assert reps and all(r.verdict == "pass" for r in reps)
    eng = get_engine("osp12")
    reps = [r for i in DEG_IDS
            for r in sweep_identity(eng, i, SweepBounds(rmax=2, smax=2, mmax=2, chimax=2))]
    assert any(r.identity == "deg7" for r in reps)
    assert all(r.verdict == "pass" for r in reps)


def test_lemma_5_2_examples():
    eng = get_engine("sl2")

    def lemma(chi, phi):
        return verify_identity(eng, "L5.2", {"i": 1, "chi": chi, "phi": phi})
    assert lemma(Multiset.of(T), Multiset.of(T)).verdict == "pass"
    # remainder is -p(chi_{t^2}): check through the raw difference
    u = eng.mul(eng.p(1, Multiset.of(T)), eng.p(1, Multiset.of(T))) \
        - 2 * eng.p(1, Multiset.of(T, T))
    assert u == -1 * eng.p(1, Multiset.of(T2))
    assert lemma(Multiset(), Multiset()).verdict == "pass"
    assert lemma(Multiset.of(T), Multiset.of(T2)).verdict == "pass"


def test_integrality_and_triangular():
    for name in ("sl2", "sl21", "osp12"):
        eng = get_engine(name)
        assert verify_integrality(eng, gens=4, trials=40, seed=3).verdict == "pass"
        assert verify_triangular(eng, gens=4, trials=40, seed=3).verdict == "pass"


def test_integrality_deterministic():
    eng = get_engine("sl21")
    a = verify_integrality(eng, gens=3, trials=20, seed=9)
    b = verify_integrality(eng, gens=3, trials=20, seed=9)
    assert a.detail == b.detail and a.verdict == b.verdict


def test_basis_counts():
    for name, monoid in (("sl2", "trunc:2"), ("sl21", "trunc:2"), ("osp12", "trunc:3")):
        eng = get_engine(name, monoid)
        rep = verify_basis_counts(eng, 3)
        assert rep.verdict == "pass", rep.line()


def test_genfun_oracle_shape():
    from superpbw.algebra import preset
    from superpbw.coeffalg import monoid_preset
    # sl21 over C (trunc:1): odd slots contribute (1+q)^4
    counts = genfun_counts(preset("sl21"), monoid_preset("trunc:1"), 3)
    # even slots: (2 roots + 2 cartan) = 4; odd slots: 4
    # (1-q)^-4 (1+q)^4 = 1 + 8q + 32q^2 + 88q^3 + ...
    assert counts == [1, 8, 32, 88]


def test_comb_sweep():
    assert sweep_comb_identity(maxsize=4, support=2).verdict == "pass"


def test_suite_runner_smoke():
    config = SuiteConfig(
        algebras=("sl2",), identities=("4.2", "4.9"), monoid="trunc:2",
        bounds=SweepBounds(rmax=1, smax=1, mmax=1, chimax=1),
        integrality_trials=5, integrality_gens=2, basis_degree=2)
    lines = []
    result = run_suite(config, emit=lines.append)
    assert result.ok
    assert lines[-1].startswith("SUMMARY")
    # deterministic: a second run emits identical lines modulo timing
    lines2 = []
    run_suite(config, emit=lines2.append)
    assert lines == lines2


def test_suite_config_json():
    config = SuiteConfig.from_json(json.dumps(
        {"algebras": ["sl2"], "identities": ["4.2"], "rmax": 1, "smax": 1,
         "integrality_trials": 2, "basis_degree": 1}))
    assert config.bounds.rmax == 1
    assert config.algebras == ("sl2",)
    with pytest.raises(Exception):
        SuiteConfig.from_json("{bad json")
    with pytest.raises(Exception):
        SuiteConfig.from_json(json.dumps({"nope": 1}))


def test_sweep_identity_fixed_filter():
    eng = get_engine("sl2")
    reps = sweep_identity(eng, "4.2", fixed={"r": 2, "s": 1, "b": (1,)})
    assert len(reps) == 2   # beta in {a, -a}
    assert all(r.verdict == "pass" for r in reps)


@pytest.mark.parametrize("raw, key", [
    ({"rmax": [1]}, "rmax"),
    ({"algebras": 3}, "algebras"),
    ({"algebras": "sl2"}, "algebras"),
    ({"algebras": ["sl2"], "identities": ["nope"]}, "identities"),
    ({"monoid": "trunc:x"}, "monoid"),
    ({"comb": 1}, "comb"),
    ({"integrality_trials": -1}, "integrality_trials"),
])
def test_suite_config_rejects_bad_values(raw, key):
    with pytest.raises(SpecError, match="suite config key %r" % key):
        SuiteConfig.from_json(json.dumps(raw))


def _suite_ids(algebras, identities):
    return [r.identity for r in run_suite(SuiteConfig(
        algebras=algebras, identities=identities, monoid="trunc:2",
        bounds=SweepBounds(1, 1, 1, 1), integrality_trials=1, basis_degree=1)).reports]


def test_suite_config_accepts_every_registered_id():
    config = SuiteConfig.from_json(json.dumps({"identities": ["4.12", "deg3", "L5.2", "comb"]}))
    assert config.identities == ("4.12", "deg3", "L5.2", "comb")
    assert SuiteConfig().identities == tuple(IDENTITIES)
    # comb reads no algebra: it runs once, after the algebras
    assert _suite_ids(("sl2",), ("comb", "L5.2")) == ["L5.2"] * 9 + [
        "integrality", "triangular", "basis", "comb"]


def test_suite_runs_each_chosen_check_once():
    assert _suite_ids(("sl2",), ("L5.2",)) == ["L5.2"] * 9 + [
        "integrality", "triangular", "basis"]
    per_algebra = ["integrality", "triangular", "basis"]
    assert _suite_ids(("sl2", "sl21"), ("comb",)) == per_algebra * 2 + ["comb"]
    assert _suite_ids(("sl2",), ("deg1",)).count("deg1") == len(
        sweep_identity(get_engine("sl2", "trunc:2"), "deg1", SweepBounds(1, 1, 1, 1)))


def test_failing_integrality_names_the_key_and_coefficient(monkeypatch):
    real = Engine.divided_power
    monkeypatch.setattr(Engine, "divided_power",
                        lambda self, sym, aelt, r: Fraction(1, 2) * real(self, sym, aelt, r))
    rep = verify_integrality(load_engine("sl2"), gens=2, trials=20, seed=1)
    assert rep.verdict == "fail"
    assert rep.detail.endswith(
        "; first failure: (x[-a]{t^3})^(1) -> non-integer 1/2 at x[-a]{t^3}")


def test_failing_comparison_names_the_first_differing_word(monkeypatch):
    check = IDENTITIES["4.2"]
    monkeypatch.setitem(IDENTITIES, "4.2", replace(
        check, rhs=lambda e, ps: 2 * ident.rhs_4_2(e, ps)))
    rep = verify_identity(load_engine("sl2"), "4.2", {"beta": "a", "b": T, "r": 1, "s": 1})
    assert rep.verdict == "fail"
    # x^(1) x^(1) = 2 x^(2) = x^2, against the doubled 2 x^2
    assert rep.detail == "LHS != RHS; first difference x[a]{t}^2: LHS 1, RHS 2"
    assert rep.diffs[0] == ("x[a]{t}^2", "1", "2")


def test_get_engine_keys_files_by_content(tmp_path):
    table = open(os.path.join(os.path.dirname(__file__), "data", "sl2.alg")).read()
    path = tmp_path / "mine.alg"
    path.write_text(table)
    first = get_engine(str(path), "trunc:2")
    assert get_engine(str(path), "trunc:2") is first
    # the same path with another table in it is another engine
    path.write_text(
        "algebra sl2b\ncartan 1\nroots\n  b even 2 neg -b positive\n  -b even -2 neg b\n"
        "coroots\n  b 1\n  -b -1\nbrackets\n  h1 x[b] = x[b] 2\n  h1 x[-b] = x[-b] -2\n"
        "  x[b] x[-b] = h1 1\n")
    second = get_engine(str(path), "trunc:2")
    assert second is not first
    assert second.spec.name == "sl2b"
    assert sorted(r.label for r in second.spec.roots) == ["-b", "b"]
    assert sorted(r.label for r in first.spec.roots) == ["-a", "a"]
    path.write_text(table)
    assert get_engine(str(path), "trunc:2") is first
