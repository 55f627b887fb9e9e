"""The sweep report stays byte for byte what it was before the combinatorics
and divided-power memos existed (sl2 + sl21) and before the sweeps were
declared as axes (sl3 + sp4 + osp12, which cover L4.4a, the L4.4b sign caches
and 4.8/4.11/deg7).

Each golden file holds, per identity, the number of its CHECK lines and the
SHA-256 of those lines (joined with newlines), plus the SUMMARY line.
Regenerate them (only after confirming a report change is intended) with

    PYTHONPATH=src python tests/test_golden_sweep.py --write
"""

import hashlib
import json
import os
import sys

from superpbw.verify import SuiteConfig, SweepBounds, run_suite

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

GOLDENS = {
    "golden_sweep_sl2_sl21.json": SuiteConfig(
        algebras=("sl2", "sl21"), bounds=SweepBounds(2, 2, 2, 2, integrality_trials=10)),
    "golden_sweep_sl3_sp4_osp12.json": SuiteConfig(
        algebras=("sl3", "sp4", "osp12"), bounds=SweepBounds(1, 1, 1, 1, integrality_trials=10)),
}


def report_digest(config):
    lines = []
    run_suite(config, emit=lines.append)
    by_id = {}
    summary = None
    for line in lines:
        if line.startswith("SUMMARY"):
            summary = line
        else:
            ident = line.split(" ", 2)[1]
            assert ident.startswith("id="), line
            by_id.setdefault(ident[3:], []).append(line)
    return {
        "total_lines": len(lines),
        "summary": summary,
        "identities": {
            ident: {"lines": len(ls),
                    "sha256": hashlib.sha256("\n".join(ls).encode()).hexdigest()}
            for ident, ls in sorted(by_id.items())
        },
    }


def check_golden(name):
    with open(os.path.join(DATA, name)) as fh:
        want = json.load(fh)
    got = report_digest(GOLDENS[name])
    differing = sorted(i for i in set(want["identities"]) | set(got["identities"])
                       if want["identities"].get(i) != got["identities"].get(i))
    assert not differing, "CHECK lines differ for identities: %s" % ", ".join(differing)
    assert got["summary"] == want["summary"]
    assert got["total_lines"] == want["total_lines"]


def test_sweep_report_matches_golden():
    check_golden("golden_sweep_sl2_sl21.json")


def test_sweep_report_matches_golden_sl3_sp4_osp12():
    check_golden("golden_sweep_sl3_sp4_osp12.json")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_sweep.py --write")
    for name, config in GOLDENS.items():
        with open(os.path.join(DATA, name), "w") as fh:
            json.dump(report_digest(config), fh, indent=1, sort_keys=True)
            fh.write("\n")
