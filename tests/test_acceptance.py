"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything is exact rational arithmetic (zero tolerance).  The sweeps follow
the stated bounds: exponents r, s, m <= 3, multiset sizes <= 3, coefficients
truncated at t^4 unless a criterion says otherwise.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import os
import time

from superpbw.algebra import preset, validate, PRESET_NAMES
from superpbw.verify import SweepBounds, get_engine, sweep_comb_identity, \
    sweep_identity, verify_basis_counts, verify_integrality, verify_triangular

BOUNDS = SweepBounds(rmax=3, smax=3, mmax=3, chimax=3)
ALGEBRAS_EVEN = ("sl2", "sl3", "sp4", "sl21")
DATA = os.path.join(os.path.dirname(__file__), "data")

_t0 = {}


def _start(n):
    _t0[n] = time.time()


def _report(n, label, ok, extra=""):
    mark = "PASS" if ok else "FAIL"
    print("\nACCEPTANCE %-2s %-38s %s%s (%.1fs)"
          % (n, label, mark, " " + extra if extra else "", time.time() - _t0[n]))
    assert ok, "criterion %s failed: %s" % (n, extra)


def _run_ids(algebra, ids, counter):
    engine = get_engine(algebra)
    fails = []
    for ident_id in ids:
        for rep in sweep_identity(engine, ident_id, BOUNDS):
            counter[rep.verdict] = counter.get(rep.verdict, 0) + 1
            if rep.verdict == "fail":
                fails.append(rep.line())
    return fails


def test_criterion_01_preset_validity():
    _start(1)
    bad = []
    for name in PRESET_NAMES:
        bad += validate(preset(name))
    # sl21 against independent supercommutator matrices
    from test_algebra import test_sl21_matches_supercommutator
    test_sl21_matches_supercommutator()
    _report(1, "preset validity + sl21 matrices", not bad, "; ".join(bad))


def test_criterion_02_even_identities():
    _start(2)
    counter = {}
    fails = []
    for algebra in ALGEBRAS_EVEN:
        fails += _run_ids(algebra, ("4.1", "4.2", "4.3", "4.4", "4.5"), counter)
    fails += _run_ids("sl3", ("L4.4a",), counter)
    fails += _run_ids("sp4", ("L4.4b",), counter)
    extra = "checks=%d" % sum(counter.values())
    if fails:
        extra += " first: %s" % fails[0]
    _report(2, "even identities 4.1-4.5 + L4.4(1)(2)", not fails, extra)


def test_criterion_03_odd_identities():
    _start(3)
    counter = {}
    fails = []
    odd_ids = ("4.7", "4.8", "4.9", "4.10", "4.11", "4.12")
    applied = {}
    for algebra in ("sl21", "osp12"):
        engine = get_engine(algebra)
        for ident_id in odd_ids:
            reps = sweep_identity(engine, ident_id, BOUNDS)
            for rep in reps:
                counter[rep.verdict] = counter.get(rep.verdict, 0) + 1
                if rep.verdict == "fail":
                    fails.append(rep.line())
            applied[(algebra, ident_id)] = sum(1 for r in reps if r.verdict == "pass")
    # the stated coverage: each identity is exercised somewhere, and the
    # inapplicable combinations are visibly gated
    ok = not fails
    for algebra, ident_id in [("sl21", "4.7"), ("sl21", "4.9"), ("sl21", "4.10"),
                              ("sl21", "4.12"), ("osp12", "4.8"), ("osp12", "4.11")]:
        ok = ok and applied[(algebra, ident_id)] > 0
    # gates rather than silent skips
    ok = ok and applied[("sl21", "4.8")] == 0 and applied[("sl21", "4.11")] == 0
    ok = ok and applied[("osp12", "4.12")] == 0   # every even root is +-2*gamma here
    extra = "checks=%d" % sum(counter.values())
    if fails:
        extra += " first: %s" % fails[0]
    _report(3, "odd identities 4.7-4.12", ok, extra)


def test_criterion_04_cartan_straightening():
    _start(4)
    fails = []
    total = 0
    for algebra in ("sl21", "osp12"):
        engine = get_engine(algebra)
        for rep in sweep_identity(engine, "L4.3", BOUNDS):
            total += 1
            if rep.verdict == "fail":
                fails.append(rep.line())
    comb = sweep_comb_identity(maxsize=6, support=3, drange=(-5, 5))
    total += 1
    if comb.verdict == "fail":
        fails.append(comb.line())
    _report(4, "L4.3 all roots + integer identity", not fails,
            "checks=%d %s" % (total, comb.detail))


def test_criterion_05_degree_bounds():
    _start(5)
    fails = []
    total = 0
    for algebra in PRESET_NAMES:
        engine = get_engine(algebra)
        for rep in (r for n in range(1, 8) for r in sweep_identity(engine, "deg%d" % n, BOUNDS)):
            total += 1
            if rep.verdict == "fail":
                fails.append(rep.line())
    _report(5, "degree bounds (1)-(7), (1)-(2) integral", not fails,
            "checks=%d%s" % (total, " first: " + fails[0] if fails else ""))


def test_criterion_06_cartan_products():
    _start(6)
    fails = []
    total = 0
    for algebra in PRESET_NAMES:
        engine = get_engine(algebra)
        for rep in sweep_identity(engine, "L5.2", BOUNDS):
            total += 1
            if rep.verdict == "fail":
                fails.append(rep.line())
    _report(6, "Cartan product law, |chi|,|phi| <= 3", not fails,
            "checks=%d%s" % (total, " first: " + fails[0] if fails else ""))


def test_criterion_07_integrality():
    _start(7)
    fails = []
    for algebra in PRESET_NAMES:
        for order in ("triangular", "lexicographic"):
            engine = get_engine(algebra, order=order)
            rep = verify_integrality(engine, gens=6, trials=500, seed=2026, bounds=BOUNDS)
            if rep.verdict == "fail":
                fails.append("%s/%s: %s" % (algebra, order, rep.detail))
    _report(7, "500 random products integral, 2 orders", not fails,
            "; ".join(fails) if fails else "5 presets x 2 orders")


def test_criterion_08_basis_counts():
    _start(8)
    fails = []
    for algebra in ("sl2", "sl21"):
        for monoid in ("trunc:2", "trunc:3"):
            engine = get_engine(algebra, monoid)
            rep = verify_basis_counts(engine, 5)
            if rep.verdict == "fail":
                fails.append("%s/%s: %s" % (algebra, monoid, rep.detail))
    _report(8, "basis counts vs oracle, degree <= 5", not fails,
            "; ".join(fails) if fails else "sl2+sl21 x trunc:2+trunc:3")


def test_criterion_09_example_listing(capsys):
    _start(9)
    from superpbw.cli import main
    code = main(["basis", "--algebra", "sl21", "--monoid", "trunc:2", "--degree", "2",
                 "--order=-a1,-a2,-a1-a2,1,2,a1,a2,a1+a2"])
    out = capsys.readouterr().out
    golden = open(os.path.join(DATA, "sl21_basis_deg2.txt")).read()
    ok = code == 0 and out == golden
    # structural shape: every word is (negatives)(Cartan)(positives) with
    # odd multiplicities <= 1
    engine = get_engine("sl21", "trunc:2")
    for key in engine.enumerate_basis(2):
        segs = [engine.segment_of(sym) for sym, _ in key]
        ok = ok and segs == sorted(segs)
        for sym, ms in key:
            if engine.spec.parity(sym) == 1:
                ok = ok and all(m <= 1 for _, m in ms.items())
    with capsys.disabled():
        _report(9, "worked-example basis listing (golden)", ok)


def test_criterion_10_triangular_decomposition():
    _start(10)
    fails = []
    for algebra in PRESET_NAMES:
        engine = get_engine(algebra)
        rep = verify_triangular(engine, gens=6, trials=500, seed=2026, bounds=BOUNDS)
        if rep.verdict == "fail":
            fails.append("%s: %s" % (algebra, rep.detail))
    _report(10, "triangular factorization integral", not fails,
            "; ".join(fails) if fails else "same 500-product stream")
