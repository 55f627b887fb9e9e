"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(`pytest tests/test_acceptance.py -v -s` shows them with their timings).

Everything is exact.  The sweeps of criteria 2-8 and 10 are the suite configs
in data/acceptance.json, each what `superpbw verify --config` reads: unless it
says otherwise, r, s, m <= 3 and multisets of size <= 3 over C[t]/(t^4).
"""

import json
import os
import time

from superpbw.algebra import preset, validate, PRESET_NAMES
from superpbw.verify import SuiteConfig, get_engine, run_suite
from support import run_cli

DATA = os.path.join(os.path.dirname(__file__), "data")
with open(os.path.join(DATA, "acceptance.json")) as fh:
    CRITERIA = json.load(fh)


def _accept(n, label=None, problems=lambda reports: []):
    """Run criterion n's configs and `problems(reports)`, the failures its code
    finds; print and assert the ACCEPTANCE line.  It holds the PASS text if there
    is one, else the check count, each algebra-free detail and the first failure."""
    t0 = time.time()
    crit = CRITERIA.get(str(n), {"label": label, "configs": []})
    reports = [r for c in crit["configs"]
               for r in run_suite(SuiteConfig.from_json(json.dumps(c))).reports]
    bad = [r.line() for r in reports if r.verdict == "fail"] + problems(reports)
    extra = [crit["pass"]] if "pass" in crit and not bad else (
        ["checks=%d" % len(reports)] * bool(reports)
        + [r.detail for r in reports if r.algebra == "-" and r.detail]
        + ["first: " + b for b in bad[:1]])
    line = "%-2s %-38s %s" % (n, crit["label"], "FAIL" if bad else "PASS")
    print("\nACCEPTANCE %s%s (%.1fs)" % (line, "".join(" " + e for e in extra), time.time() - t0))
    assert not bad, "criterion %s failed: %s" % (n, bad[0])


def test_criterion_01_preset_validity():
    def problems(_):
        from test_algebra import test_sl21_matches_supercommutator
        test_sl21_matches_supercommutator()   # against independent matrices
        return [p for name in PRESET_NAMES for p in validate(preset(name))]
    _accept(1, "preset validity + sl21 matrices", problems)


def test_criterion_02_even_identities():
    _accept(2)


def test_criterion_03_odd_identities():
    def coverage(reports):
        # each identity passes somewhere, and the inapplicable pairs are gated, not
        # skipped (osp12 gates 4.12: every even root there is +-2*gamma)
        passed = {(r.algebra, r.identity) for r in reports if r.verdict == "pass"}
        used = {("sl21", "4.7"), ("sl21", "4.9"), ("sl21", "4.10"), ("sl21", "4.12"),
                ("osp12", "4.8"), ("osp12", "4.11")}
        gated = {("sl21", "4.8"), ("sl21", "4.11"), ("osp12", "4.12")}
        return (["%s: %s never passes" % k for k in sorted(used - passed)]
                + ["%s: %s passes, not gated" % k for k in sorted(gated & passed)])
    _accept(3, problems=coverage)


def test_criterion_04_cartan_straightening():
    _accept(4)


def test_criterion_05_degree_bounds():
    _accept(5)


def test_criterion_06_cartan_products():
    _accept(6)


def test_criterion_07_integrality():
    # and the same products in the lexicographic order, which a config does not name
    config = SuiteConfig.from_json(json.dumps(CRITERIA["7"]["configs"][0]))
    _accept(7, problems=lambda _: [r.line() for r in run_suite(
        config, order="lexicographic").reports if r.verdict == "fail"])


def test_criterion_08_basis_counts():
    _accept(8)


def test_criterion_09_example_listing():
    def problems(_):
        code, out, _ = run_cli("basis", "--algebra", "sl21", "--monoid", "trunc:2", "--degree",
                               "2", "--order=-a1,-a2,-a1-a2,1,2,a1,a2,a1+a2")
        with open(os.path.join(DATA, "sl21_basis_deg2.txt")) as fh:
            bad = [] if code == 0 and out == fh.read() else ["listing != golden"]
        engine = get_engine("sl21", "trunc:2")
        for key in engine.enumerate_basis(2):
            # (negatives)(Cartan)(positives), with no odd letter twice
            segs = [engine.order.segment[sym] for sym, _ in key]
            odd = [L for L in key if engine.spec.parity(L[0]) == 1]
            if segs != sorted(segs) or len(set(odd)) != len(odd):
                bad.append("basis word %r" % (key,))
        return bad
    _accept(9, "worked-example basis listing (golden)", problems)


def test_criterion_10_triangular_decomposition():
    _accept(10)
