import glob
import itertools
import json
import os
import re
from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple

import pytest

from superpbw import algebra
from superpbw.algebra import SpecError
from superpbw.coeffalg import monoid_preset
from superpbw.combinatorics import Multiset
from superpbw import identities as ident
from superpbw import verify as ver
from superpbw.engine import Engine, UElem
from superpbw.verify import IDENTITIES, SuiteConfig, SweepBounds, genfun_counts, \
    get_engine, load_engine, run_suite, sweep_identity, verify_identity

from support import ONE, T, T2, run_cli
from test_kernels import odd_square_spec

DEG_IDS = tuple("deg%d" % n for n in range(1, 8))
DATA = os.path.join(os.path.dirname(__file__), "data")
G2 = os.path.join(DATA, "g2.alg")       # g2 on its 7-dimensional representation


def run_once(engine, ident_id, **bounds):
    """The one report of a check with no axes, at SweepBounds(**bounds)."""
    rep, = sweep_identity(engine, ident_id, SweepBounds(**bounds))
    return rep


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


def test_4_8_fails_on_an_odd_square():
    # z_gamma is half of c_{gamma,gamma}: a table whose odd square is 3 fails
    # every instance and names the constant
    eng = Engine(odd_square_spec(), monoid_preset("trunc:3"))
    reps = sweep_identity(eng, "4.8")
    assert len(reps) == 6 and {r.verdict for r in reps} == {"fail"}
    rep = verify_identity(eng, "4.8", {"gamma": "g", "a": ONE})
    assert rep.verdict == "fail" and "c_{g,g} = 3 is odd" in rep.detail


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
    """One root pair's signs serve every coefficient pair: each slot a PASS
    names carries the same eps for every (a, b)."""
    eng = get_engine("sp4")
    signs = {}
    for a in eng.monoid.elements():
        for b in eng.monoid.elements():
            ps = {"alpha": "a1", "beta": "a2", "a": a, "b": b, "r": 2, "s": 2}
            rep = verify_identity(eng, "L4.4b", ps)
            assert rep.verdict == "pass"
            for lab, eps in re.findall(r"eps\[([^\]]*)\]=([+-]1)", rep.detail):
                assert signs.setdefault(lab, eps) == eps, lab
    assert len(signs) == 3      # k1 + 2 k2 <= r = 2: three nonzero slots


def test_each_plane_is_classified_once_per_spec(monkeypatch):
    built = []
    plane_type = algebra.PairPlane
    monkeypatch.setattr(algebra, "PairPlane", lambda *f: built.append(f) or plane_type(*f))
    spec = algebra._preset_sp4()        # a fresh spec, so no entry
    misses = algebra.pair_plane.cache_info().misses
    eng = Engine(spec, monoid_preset("trunc:2"))
    gated = 0
    for ident_id in ("L4.4b", "4.6", "L4.4a", "L4.4b"):
        reports = sweep_identity(eng, ident_id, SweepBounds(1, 1, 1, 1))
        assert {r.verdict for r in reports} <= {"pass", "inapplicable"}
        gated += len(reports)
    # 48 ordered pairs of distinct, non-opposite even roots, 16 instances each
    assert gated == 4 * 48 * 16
    assert len(built) == algebra.pair_plane.cache_info().misses - misses == 48


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
        for ident_id in ("integrality", "triangular"):
            rep = run_once(eng, ident_id, integrality_gens=4, integrality_trials=40, seed=3)
            assert rep.verdict == "pass", rep.line()


def test_integrality_deterministic():
    eng = get_engine("sl21")
    a = run_once(eng, "integrality", integrality_gens=3, integrality_trials=20, seed=9)
    b = run_once(eng, "integrality", integrality_gens=3, integrality_trials=20, seed=9)
    assert a.detail == b.detail and a.verdict == b.verdict


def test_basis_counts():
    for name, monoid in (("sl2", "trunc:2"), ("sl21", "trunc:2"), ("osp12", "trunc:3")):
        eng = get_engine(name, monoid)
        rep = run_once(eng, "basis", basis_degree=3)
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
    rep = run_once(None, "comb")        # reads no algebra, so needs no engine
    assert rep.verdict == "pass"
    assert rep.line().startswith("CHECK id=comb algebra=- maxsize=6 support=3 verdict=PASS")


def test_suite_runner_smoke():
    config = SuiteConfig(
        algebras=("sl2",), identities=("4.2", "4.9", "integrality", "triangular", "basis"),
        monoid="trunc:2", bounds=SweepBounds(rmax=1, smax=1, mmax=1, chimax=1,
                                             integrality_trials=5, integrality_gens=2,
                                             basis_degree=2))
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
    assert config.bounds == SweepBounds(rmax=1, smax=1, integrality_trials=2, basis_degree=1)
    assert config.algebras == ("sl2",)
    with pytest.raises(Exception):
        SuiteConfig.from_json("{bad json")
    with pytest.raises(Exception):
        SuiteConfig.from_json(json.dumps({"nope": 1}))


def test_an_exception_while_expanding_the_axes_is_one_fail():
    """The elem axis of 4.4 lists the monoid's basis, which poly lacks: the
    sweep returns one FAIL that names the id and the exception."""
    rep, = sweep_identity(load_engine("sl2", "poly"), "4.4")
    assert (rep.identity, rep.verdict, rep.params) == ("4.4", "fail", ())
    assert rep.line() == ("CHECK id=4.4 algebra=sl2 verdict=FAIL "
                          "[MonoidError: monoid poly has an infinite basis]")


def test_sweep_identity_fixed_filter():
    eng = get_engine("sl2")
    reps = sweep_identity(eng, "4.2", fixed={"r": 2, "s": 1, "b": (1,)})
    assert len(reps) == 2   # beta in {a, -a}
    assert all(r.verdict == "pass" for r in reps)


@pytest.mark.parametrize("raw, key", [
    ({"rmax": [1]}, "rmax"),
    ({"algebras": 3}, "algebras"),
    ({"algebras": "sl2"}, "algebras"),
    ({"algebras": ["sl2"], "identities": ["4.2", 3]}, "identities"),
    ({"monoid": "trunc:x"}, "monoid"),
    ({"comb": 1}, "comb"),
    ({"integrality_trials": -1}, "integrality_trials"),
    ({"monoid": "poly"}, "monoid"),     # the checks of an algebra read a finite basis
    ({"seed": 1.5}, "seed"),
    ({"integrality_trials": 0}, "integrality_trials"),     # no product would be checked
    # random.Random(-n) draws as Random(n) does: a negative seed would check n's sample
    ({"seed": -7}, "seed"),
])
def test_suite_config_rejects_bad_values(raw, key):
    with pytest.raises(SpecError, match="suite config key %r" % key):
        SuiteConfig.from_json(json.dumps(raw))


@pytest.mark.parametrize("kwargs, raw, msg", [
    ({"identities": ("nope",)}, {"identities": ["nope"]}, "unknown identity id 'nope' (have 4.1, "),
    ({"monoid": "poly"}, {"monoid": "poly"},
     "suite config key 'monoid' wants a monoid preset with a finite basis (trunc:n), got 'poly'"),
    ({"bounds": SweepBounds(integrality_trials=0)}, {"integrality_trials": 0},
     "suite config key 'integrality_trials' wants a positive integer, got 0"),
    ({"algebras": "sl2"}, {"algebras": "sl2"},
     "suite config key 'algebras' wants a list of presets or algebra file paths, got 'sl2'"),
    ({"monoid": "zz"}, {"monoid": "zz"}, "suite config key 'monoid' wants a monoid preset "
     "with a finite basis (trunc:n), got 'zz': unknown monoid preset 'zz'"),
    # JSON has no bounds key: its bound keys are read into a SweepBounds
    ({"bounds": None}, None, "suite config key 'bounds' wants a SweepBounds, got None"),
    ({"bounds": SweepBounds(seed=-7)}, {"seed": -7},
     "suite config key 'seed' wants a non-negative integer, got -7"),
], ids=["unknown-id", "infinite-monoid", "zero-trials", "algebras-a-string", "unknown-monoid",
        "bounds-none", "negative-seed"])
def test_a_config_built_in_python_is_refused_as_its_json_is(kwargs, raw, msg):
    with pytest.raises(SpecError) as built:
        run_suite(SuiteConfig(**kwargs))
    assert str(built.value).startswith(msg)
    if raw is not None:
        with pytest.raises(SpecError) as parsed:
            SuiteConfig.from_json(json.dumps(raw))
        assert str(parsed.value) == str(built.value)


def _suite_ids(algebras, identities):
    return [r.identity for r in run_suite(SuiteConfig(
        algebras=algebras, identities=identities, monoid="trunc:2",
        bounds=SweepBounds(1, 1, 1, 1, integrality_trials=1, basis_degree=1))).reports]


def test_suite_config_accepts_every_registered_id():
    config = SuiteConfig.from_json(json.dumps({"identities": ["4.12", "deg3", "L5.2", "comb"]}))
    assert config.identities == ("4.12", "deg3", "L5.2", "comb")
    config = SuiteConfig.from_json(json.dumps({"identities": list(IDENTITIES)}))
    assert config.identities == SuiteConfig().identities == tuple(IDENTITIES)
    # by default the three checks of the main theorem run after L5.2, and
    # comb, which reads no algebra, once after the algebras
    assert tuple(IDENTITIES)[-5:] == ("L5.2", "integrality", "triangular", "basis", "comb")
    assert _suite_ids(("sl2",), ("comb", "L5.2")) == ["L5.2"] * 9 + ["comb"]


def test_suite_runs_each_chosen_check_once():
    # a listed `identities` runs exactly what it lists, in its order
    assert _suite_ids(("sl2",), ("L5.2",)) == ["L5.2"] * 9
    assert _suite_ids(("sl2", "sl21"), ("comb",)) == ["comb"]
    assert _suite_ids(("sl2", "sl21"), ("basis", "comb", "integrality")) == [
        "basis", "integrality"] * 2 + ["comb"]
    assert _suite_ids((), ("triangular", "comb")) == ["comb"]
    assert _suite_ids(("sl2",), ("deg1",)).count("deg1") == len(
        sweep_identity(get_engine("sl2", "trunc:2"), "deg1", SweepBounds(1, 1, 1, 1)))


def test_suite_config_refuses_a_repeated_id():
    with pytest.raises(SpecError, match="identity 'L5.2' more than once"):
        SuiteConfig.from_json(json.dumps({"identities": ["L5.2", "4.1", "L5.2"]}))
    with pytest.raises(SpecError, match="identity 'deg3' more than once"):
        SuiteConfig(algebras=("sl2",), identities=("deg3", "deg3"))


@pytest.mark.parametrize("ident_id", ["integrality", "triangular"])
def test_sampling_draws_only_the_families_with_members(ident_id):
    """smax = 0 leaves no even divided power to draw: on sl2 the products
    are made of p-elements alone."""
    eng = load_engine("sl2", "trunc:2")
    assert run_once(eng, ident_id, smax=0).verdict == "pass"
    products = ver.sample_products(eng, 4, 50, 0, SweepBounds(smax=0))
    assert all(g.startswith("p[1]") for desc, _ in products for g in desc.split())


@pytest.mark.parametrize("ident_id", ["integrality", "triangular"])
def test_sampling_with_no_generators_is_inapplicable(ident_id):
    """A table with no Cartan element and no root has nothing to draw."""
    eng = Engine(algebra.load_spec("cartan 0\nroots\ncoroots\nbrackets\n", name="empty"),
                 monoid_preset("trunc:2"))
    rep = run_once(eng, ident_id)
    assert (rep.verdict, rep.detail) == ("inapplicable", "no generators")


def test_failing_integrality_names_the_key_and_coefficient(monkeypatch):
    real = Engine.divided_power
    monkeypatch.setattr(Engine, "divided_power",
                        lambda self, sym, aelt, r: Fraction(1, 2) * real(self, sym, aelt, r))
    rep = run_once(load_engine("sl2"), "integrality", integrality_gens=2,
                   integrality_trials=20, seed=1)
    assert rep.verdict == "fail"
    assert rep.detail.endswith(
        "; first failure: (x[-a]{t^3})^(1) -> non-integer 1/2 at x[-a]{t^3}")


def test_failing_triangular_names_the_key_and_coefficient(monkeypatch):
    real = Engine.to_divided
    monkeypatch.setattr(Engine, "to_divided", lambda self, x: Fraction(1, 2) * real(self, x))
    rep = run_once(load_engine("sl2"), "triangular", integrality_gens=2,
                   integrality_trials=20, seed=1)
    assert rep.verdict == "fail"
    assert rep.detail.endswith(
        "; first failure: (x[-a]{t^3})^(1) -> non-integer 1/2 at x[-a]{t^3}")


def test_triangular_factors_products_drawn_in_another_order(monkeypatch):
    """Products are drawn in the lexicographic order and adopted into the
    triangular one, so an adopt that changes nothing leaves a key that does
    not segment: a FAIL naming the key, not an exception."""
    monkeypatch.setattr(Engine, "adopt", lambda self, x: x)
    rep = run_once(load_engine("sl2"), "triangular", integrality_gens=6,
                   integrality_trials=500, seed=2026)
    assert rep.verdict == "fail"
    assert rep.detail.startswith("500 products, seed 2026; first failure: ")
    # the key printed as integrality prints one, not as a Python tuple
    assert rep.detail.endswith(" -> triangular order failed to segment "
                               "p[1]{t^2:1,t^3:3} x[-a]{t}^(2) x[a]{1}")


@pytest.mark.parametrize("extra, detail", [
    (lambda e: e.gen_elem(('x', 'a'), T), "mixed Cartan support at x[a]{t}"),
    (lambda e: e.p(1, Multiset.of(T, T, T)), "degree 3 !< 2"),
    (lambda e: Fraction(1, 2) * e.p(1, Multiset.of(T2)), "non-integer -1/2 at p[1]{t^2:1}"),
])
def test_failing_lemma_5_2_says_what_the_remainder_breaks(monkeypatch, extra, detail):
    """p_1(t) p_1(t) with an extra term that breaks one claim on the rest."""
    real = Engine.mul
    monkeypatch.setattr(Engine, "mul", lambda self, x, y: real(self, x, y) + extra(self))
    rep = verify_identity(load_engine("sl2"), "L5.2",
                          {"i": 1, "chi": Multiset.of(T), "phi": Multiset.of(T)})
    assert (rep.verdict, rep.detail) == ("fail", detail)


@pytest.mark.parametrize("ident_id, ps, detail", [
    ("deg1", {"alpha": "a", "a": T, "b": ONE, "r": 1, "s": 1},
     "degree 1 < 2, non-integer -1/3 at p[1]{t:1}"),
    ("deg2", {"beta": "a", "i": 1, "a": T, "r": 1, "chi": Multiset.of(T)},
     "degree 1 < 2, non-integer 2/3 at x[a]{t^2}"),
])
def test_failing_degree_bound_names_the_key_and_coefficient(monkeypatch, ident_id, ps, detail):
    """deg1 and deg2 also ask for integrality: a third of each commutator
    leaves the degree bound holding, and the first non-integer coordinate
    is named as integrality names one."""
    real = Engine.super_comm
    monkeypatch.setattr(Engine, "super_comm", lambda self, x, y: Fraction(1, 3) * real(self, x, y))
    rep = verify_identity(load_engine("sl2"), ident_id, ps)
    assert (rep.verdict, rep.detail) == ("fail", detail)


def test_failing_comb_names_the_first_case(monkeypatch):
    monkeypatch.setattr(ver, "verify_comb_identity", lambda psi, d: d != 3)
    reps = sweep_identity(get_engine("sl2"), "comb")     # reads no algebra: one report
    assert [r.line() for r in reps] == [
        "CHECK id=comb algebra=- maxsize=6 support=3 verdict=FAIL "
        "[913 instances; first failure (Multiset(2:1), 3)]"]


@pytest.mark.parametrize("mutate, oracle, detail", [
    # the last key of the full basis replaced by the one before it
    (lambda ks, syms: ks if syms else ks[:-1] + ks[-2:-1], None, "repeated canonical words"),
    (lambda ks, syms: ks, [1, 8, 37], "counts [1, 6, 21] != oracle [1, 8, 37]"),
    # the Cartan segment loses its last key
    (lambda ks, syms: ks[:-1] if syms and syms[0][0] == 'h' else ks, None,
     "segment counts fail to convolve at degree 2"),
])
def test_failing_basis_counts_say_what_is_wrong(monkeypatch, mutate, oracle, detail):
    """sl2/trunc:2 at degree 2, the keys of each enumerate_basis call passed
    through mutate(keys, syms), and the oracle's counts replaced if given."""
    real = Engine.enumerate_basis
    monkeypatch.setattr(Engine, "enumerate_basis",
                        lambda self, d, syms=None: mutate(real(self, d, syms), syms))
    if oracle:
        monkeypatch.setattr(ver, "genfun_counts", lambda *args: oracle)
    rep = run_once(load_engine("sl2", "trunc:2"), "basis", basis_degree=2)
    assert (rep.verdict, rep.detail) == ("fail", detail)


def test_failing_comparison_names_the_first_differing_word(monkeypatch):
    check = IDENTITIES["4.2"]

    def doubled(e, ps):
        rhs = ident.rhs_4_2(e, ps)
        return ident.Products(rhs.chains, tuple(2 * s for s in rhs.scalars))
    monkeypatch.setitem(IDENTITIES, "4.2", replace(check, rhs=doubled))
    rep = verify_identity(load_engine("sl2"), "4.2", {"beta": "a", "b": T, "r": 1, "s": 1})
    assert rep.verdict == "fail"
    # x^(1) x^(1) = 2 x^(2) = x^2, against the doubled 2 x^2
    assert rep.detail == "LHS != RHS; first difference x[a]{t}^2: LHS 1, RHS 2"
    assert rep.diffs[0] == ("x[a]{t}^2", "1", "2")


def test_a_passing_check_is_one_sum_and_decodes_no_word(monkeypatch):
    """On a warm engine a passing 4.4 check folds LHS - RHS into one
    `mul_sum`, whose empty output has no word to decode."""
    eng = load_engine("sl3")
    ps = {"alpha": "a1", "i": 1, "b": T, "r": 2, "chi": Multiset.of(ONE, T)}
    assert verify_identity(eng, "4.4", ps).verdict == "pass"
    calls = []
    for name in ("mul_sum", "_decode"):
        real = getattr(Engine, name)
        monkeypatch.setattr(Engine, name, lambda self, *args, real=real, name=name: (
            calls.append(name) or real(self, *args)))
    assert verify_identity(eng, "4.4", ps).verdict == "pass"
    assert calls == ["mul_sum"]


def test_a_raising_check_names_its_params(monkeypatch):
    check = IDENTITIES["4.3"]
    monkeypatch.setitem(IDENTITIES, "4.3", replace(check, rhs=lambda e, ps: 1 // 0))
    rep = verify_identity(load_engine("sl3"), "4.3",
                          {"alpha": "a1", "a": ONE, "b": T, "r": 1, "s": 1})
    assert rep.line() == ("CHECK id=4.3 algebra=sl3 a=1 alpha=a1 b=t r=1 s=1 verdict=FAIL "
                          "[ZeroDivisionError: integer division or modulo by zero "
                          "at a=1 alpha=a1 b=t r=1 s=1]")


@pytest.mark.parametrize("algebra, ident_id", [
    ("sl2", "4.4"), ("sl3", "4.3"), ("sl21", "4.12"), ("osp12", "L4.3"), ("sp4", "L4.4b")])
def test_params_formatted_when_read_are_the_eager_ones(monkeypatch, algebra, ident_id):
    # A report formats its params on their first read, once, by line() or
    # by .params; a sweep whose lines nobody reads formats none.
    calls = []
    fmt = ver.fmt_params
    monkeypatch.setattr(ver, "fmt_params", lambda e, ps: calls.append(ps) or fmt(e, ps))
    engine = load_engine(algebra, "trunc:2")
    bounds = SweepBounds(rmax=1, smax=1, mmax=1, chimax=1)
    check = IDENTITIES[ident_id]
    reps = sweep_identity(engine, ident_id, bounds)
    instances = list(ver.expand(engine, bounds, check.axes, check.where))
    assert len(reps) == len(instances) > 1 and calls == []
    for k, (rep, ps) in enumerate(zip(reps, instances)):
        eager = fmt(engine, ps)
        bits = ["%s=%s" % kv for kv in eager] + ["verdict=%s" % rep.verdict.upper()]
        line = " ".join(["CHECK id=%s algebra=%s" % (ident_id, algebra)] + bits
                        + (["[%s]" % rep.detail] if rep.detail else []))
        if k % 2:
            assert rep.line() == line and rep.params == eager
        else:
            assert rep.params == eager and type(rep.params) is tuple and rep.line() == line
    assert calls == instances


# -- the pair rows' signs against a reference that reads them off the LHS -----

class Template(NamedTuple):
    """base + sum_k eps_k * slots[k][1], eps_k in {+1, -1}: a pair law with
    its signs left open.  Slot labels are distinct and slot terms nonzero."""
    base: UElem
    slots: tuple


def open_signs(engine, rhs):
    """The template of a pair row's `Products`: the commuted term as the
    base and each later chain as a slot, labelled as the note names it."""
    labels = re.findall(r"eps\[([^\]]*)\]", rhs.note)
    terms = [engine.mul_sum((chain,)) for chain in rhs.chains]
    assert len(labels) == len(terms) - 1
    return Template(terms[0], tuple(zip(labels, terms[1:])))


def solve_signs(lhs, template):
    """The reference read-off: the +-1 slots from the top degree down.  A
    slot's longest word lies in no other slot of its degree, so its
    coefficient in what is left fixes eps.  Returns ({label: eps}, None) or
    (None, why)."""
    rest, eps, why = lhs - template.base, {}, "no sign assignment zeroes the difference"
    tops = sorted(((max(t.terms, key=len), lab, t) for lab, t in template.slots),
                  key=lambda top: -len(top[0]))
    for w, lab, t in tops:
        shared = [m for v, m, u in tops if m != lab and len(v) == len(w) and w in u.terms]
        c, d = rest.terms.get(w, 0), t.terms[w]
        if shared or c not in (d, -d):
            return None, ("slots %s and %s share their read-off word" % (lab, shared[0])
                          if shared else why)
        eps[lab] = e = 1 if c == d else -1
        rest = UElem.sum((rest, t), (1, -e))
    return (None, why) if rest else (eps, None)


def enumerate_signs(lhs, template):
    """The read-off's own reference: every eps in {+-1}^slots with base +
    sum eps_k T_k = lhs, found by trying all 2^slots assignments."""
    target = lhs - template.base
    labels = [lab for lab, _ in template.slots]
    terms = [t for _, t in template.slots]
    return [dict(zip(labels, bits)) for bits in itertools.product((1, -1), repeat=len(terms))
            if UElem.sum(terms, bits) == target]


@pytest.mark.parametrize("slots, detail", [
    # base + eps X = lhs with base = lhs and X != 0: no eps works
    pytest.param((0,), "no sign assignment zeroes the difference", id="no-assignment"),
    # base + eps X + eps' X = lhs with base = lhs: eps' = -eps, two ways; the
    # read-off refuses the two slots of one degree that share their word X
    pytest.param((0, 0), "slots k and k' share their read-off word", id="shared-word"),
])
def test_reference_read_off_says_why(slots, detail):
    """A crafted template on L4.4b's product: base = lhs - sum(slots) X, one
    slot X per entry, X = h[1]{1}."""
    eng = get_engine("sp4")
    ps = {"alpha": "a1", "beta": "a2", "a": ONE, "b": ONE, "r": 1, "s": 1}
    lhs = ident.lhs_product(eng, IDENTITIES["L4.4b"].factors, ps)
    x = eng.gen_elem(('h', 1), ONE)
    template = Template(lhs - sum(slots) * x,
                        tuple(("k" + "'" * n, x) for n in range(len(slots))))
    assert solve_signs(lhs, template) == (None, detail)


def test_sign_read_off_checks_what_is_left():
    """One slot h1 h2 + h1 whose top word reads +1 against a difference of
    h1 h2 alone, so the lower word h1 is left over."""
    eng = get_engine("sp4")
    ps = {"alpha": "a1", "beta": "a2", "a": ONE, "b": ONE, "r": 1, "s": 1}
    lhs = ident.lhs_product(eng, IDENTITIES["L4.4b"].factors, ps)
    h1, h2 = eng.gen_elem(('h', 1), ONE), eng.gen_elem(('h', 2), ONE)
    template = Template(lhs - eng.mul(h1, h2), (("k", eng.mul(h1, h2) + h1),))
    assert solve_signs(lhs, template) == (None, "no sign assignment zeroes the difference")


@pytest.mark.parametrize("algebra, ident_id", [("sl3", "4.6"), ("sp4", "4.6"), ("sp4", "L4.4b")])
def test_read_off_signs_match_the_enumeration(algebra, ident_id):
    """On every applicable bound-2 instance the read-off gives the one
    assignment the enumeration finds, or fails where it finds none."""
    eng = get_engine(algebra)
    check = IDENTITIES[ident_id]
    solved = 0
    for ps in ver.expand(eng, SweepBounds(rmax=2, smax=2), check.axes, check.where):
        if not check.applicable(eng, ps)[0]:
            continue
        lhs = ident.lhs_product(eng, check.factors, ps)
        template = open_signs(eng, check.rhs(eng, ps))
        ref = enumerate_signs(lhs, template)
        assert len(ref) <= 1
        eps, why = solve_signs(lhs, template)
        assert eps == (ref[0] if ref else None)
        assert (why is None) == bool(ref)
        solved += bool(ref)
    assert solved


def test_read_off_solves_twenty_one_letter_slots():
    """Twenty slots x[a]{t^n} of one degree with mixed signs, where the
    enumeration would sum 2^20 assignments."""
    eng = get_engine("sl2", "poly")
    signs = [1 if n % 3 else -1 for n in range(1, 21)]
    slots = tuple(("n%d" % n, eng.gen_elem(('x', 'a'), (n,))) for n in range(1, 21))
    lhs = eng.mul(eng.gen_elem(('x', 'a'), T), eng.gen_elem(('x', 'a'), T))
    template = Template(lhs - UElem.sum([x for _, x in slots], signs), slots)
    assert solve_signs(lhs, template) == ({"n%d" % n: e for n, e in enumerate(signs, 1)}, None)


@pytest.mark.parametrize("name, alpha", [("sl3", None), ("sp4", None), ("g2", None)]
                         + [(name, r.label) for name in ("sl3", "sp4")
                            for r in algebra.preset(name).roots if r.positive])
def test_predicted_signs_are_the_read_off_signs(name, alpha):
    """On every applicable instance of 4.6, L4.4b and L4.4c at trunc:2, bounds
    2, the signs the pair rows take from the table are the ones the
    reference reads off the LHS, slot by slot, on sl3, sp4, g2 and each
    one-root twist of sl3 and sp4."""
    spec = algebra.load_spec(open(G2).read(), "g2") if name == "g2" else algebra.preset(name)
    eng = Engine(sign_twist(spec, alpha) if alpha else spec, monoid_preset("trunc:2"))
    compared = {}
    for ident_id in ("4.6", "L4.4b", "L4.4c"):
        check = IDENTITIES[ident_id]
        for ps in ver.expand(eng, SweepBounds(rmax=2, smax=2), check.axes, check.where):
            if not check.applicable(eng, ps)[0]:
                continue
            rhs = check.rhs(eng, ps)
            template = open_signs(eng, rhs)
            eps, why = solve_signs(ident.lhs_product(eng, check.factors, ps), template)
            assert why is None, (ident_id, ver.fmt_params(eng, ps))
            assert [eps[lab] for lab, _ in template.slots] == list(rhs.scalars[1:])
            compared[ident_id] = compared.get(ident_id, 0) + len(template.slots)
    assert compared["4.6"] and (compared.get("L4.4b") if name == "sp4" else True)
    assert compared.get("L4.4c") if name == "g2" else "L4.4c" not in compared


def test_the_a2_case_meets_a_non_unit_constant_in_its_gate():
    """At the bottom of an A2 string the constant of [x_alpha, x_beta] is
    +-1, or the gate's `pair_plane` refuses the table, so L4.4a's sign
    eps = N_{alpha,beta} is always a unit."""
    spec = algebra.preset("sl3")
    brackets = dict(spec.brackets)
    for pair in ((('x', 'a1'), ('x', 'a2')), (('x', 'a2'), ('x', 'a1'))):
        brackets[pair] = tuple((sym, 2 * c) for sym, c in brackets[pair])
    bad = algebra.SuperAlgebraSpec("bad", spec.rank, spec.roots, spec.coroots, brackets)
    rep = verify_identity(Engine(bad, monoid_preset("trunc:2")), "L4.4a",
                          {"alpha": "a1", "beta": "a2", "a": ONE, "b": ONE, "r": 1, "s": 1})
    assert rep.verdict == "fail"
    assert rep.detail.startswith(
        "SpecError: |c_{a1,a2}| = 2 but the root string gives r+1 = 1 at "), rep.detail


def test_4_6_passes_on_g2():
    """On G2, x_{alpha+beta} and x_{alpha+2beta} do not commute when alpha is
    long and beta short, so 4.6 holds only with its mixed block in convex
    order; a block ordered j first fails 24 of these checks."""
    code, out, _ = run_cli("verify", "--algebra", G2, "--id", "4.6", "--monoid", "trunc:1")
    assert (code, out.splitlines()[-1]) == (
        0, "SUMMARY checks=1920 pass=1536 fail=0 inapplicable=384")


def test_lemma_4_4_g2_case_applies_and_passes_on_g2():
    verdicts = [rep.verdict for rep in sweep_identity(get_engine(G2, "trunc:2"), "L4.4c",
                                                      SweepBounds(rmax=2, smax=2))]
    assert (verdicts.count("pass"), verdicts.count("fail")) == (1296, 0)


def test_every_row_passes_on_some_table():
    """Each row but `comb`, which reads no algebra, gives at least one PASS
    on the presets or the tables of tests/data at trunc:2 and bounds 1."""
    bounds = SweepBounds(1, 1, 1, 1, integrality_trials=5, basis_degree=2)
    tables = list(algebra.PRESET_NAMES) + sorted(glob.glob(os.path.join(DATA, "*.alg")))
    never = [ident_id for ident_id in IDENTITIES if ident_id != "comb"]
    for table in tables:
        eng = get_engine(table, "trunc:2")
        never = [ident_id for ident_id in never
                 if all(rep.verdict != "pass" for rep in sweep_identity(eng, ident_id, bounds))]
    assert never == []


def test_get_engine_keys_files_by_content(tmp_path):
    table = open(os.path.join(DATA, "sl2.alg")).read()
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


# -- sign twists: x_alpha and x_-alpha scaled by -1 --------------------------

def sign_twist(spec, alpha):
    """spec in the basis with x_alpha and x_-alpha scaled by -1: each term
    N c of a bracket [z, w] becomes s(z) s(w) s(c) N c, with s = -1 on
    x_+-alpha and 1 elsewhere, so the h_i and the coroots are untouched."""
    flipped = {('x', alpha), ('x', spec.negative_of(alpha))}

    def s(sym):
        return -1 if sym in flipped else 1
    brackets = {(z, w): tuple((c, s(z) * s(w) * s(c) * n) for c, n in terms)
                for (z, w), terms in spec.brackets.items()}
    return algebra.SuperAlgebraSpec("%s-twist-%s" % (spec.name, alpha), spec.rank, spec.roots,
                                    spec.coroots, brackets)


@pytest.mark.parametrize("name, alpha", [(name, None) for name in algebra.PRESET_NAMES]
                         + [(name, r.label) for name in algebra.PRESET_NAMES
                            for r in algebra.preset(name).roots if r.positive])
def test_a_sign_twisted_preset_is_valid_and_passes_every_row(name, alpha):
    """The RHS builders and the signs they read from the table do not lean on
    the presets' sign choices: every row that reads an algebra passes on each preset and
    on each one-root twist of it."""
    if alpha is None:
        eng = get_engine(name, "trunc:2")
    else:
        twisted = sign_twist(algebra.preset(name), alpha)
        assert algebra.validate(twisted) == []
        eng = Engine(twisted, monoid_preset("trunc:2"))
    bounds = SweepBounds(1, 1, 1, 1, integrality_trials=10)
    passed = 0
    for ident_id, check in IDENTITIES.items():
        if not check.algebra_free:
            for rep in sweep_identity(eng, ident_id, bounds):
                assert rep.verdict in ("pass", "inapplicable"), rep.line()
                passed += rep.verdict == "pass"
    assert passed


@pytest.mark.parametrize("name, m, n, passed, inapplicable",
                         [("sl31", 3, 1, 3516, 828), ("sl4", 4, 0, 7644, 4224)])
def test_every_row_passes_on_a_rank_3_table(name, m, n, passed, inapplicable):
    """sl(3|1) and sl4, which no preset names, are valid tables on which every
    row that reads an algebra passes."""
    spec = algebra.sl_mn(name, m, n)
    assert algebra.validate(spec) == []
    eng = Engine(spec, monoid_preset("trunc:2"))
    bounds = SweepBounds(1, 1, 1, 1, integrality_trials=10, basis_degree=2)
    verdicts = [rep.verdict for ident_id, check in IDENTITIES.items() if not check.algebra_free
                for rep in sweep_identity(eng, ident_id, bounds)]
    assert (verdicts.count("pass"), verdicts.count("inapplicable")) == (passed, inapplicable)
    assert len(verdicts) == passed + inapplicable


def test_one_bracket_pair_flipped_alone_is_no_twist():
    """Negating [x_a1, x_a2] and [x_a2, x_a1] of sl3 alone changes no other
    constant, which no choice of signs on the basis does: validate refuses."""
    spec = algebra.preset("sl3")
    brackets = dict(spec.brackets)
    for key in ((('x', 'a1'), ('x', 'a2')), (('x', 'a2'), ('x', 'a1'))):
        brackets[key] = tuple((c, -n) for c, n in brackets[key])
    assert algebra.validate(algebra.SuperAlgebraSpec("sl3-flip", spec.rank, spec.roots,
                                                     spec.coroots, brackets))
