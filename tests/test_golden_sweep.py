"""The sweep report on sl2 + sl21 stays byte for byte what it was before the
combinatorics and divided-power memos existed.

The golden file holds, per identity, the number of its CHECK lines and the
SHA-256 of those lines (joined with newlines), plus the SUMMARY line.
Regenerate it (only after confirming a report change is intended) with

    PYTHONPATH=src python tests/test_golden_sweep.py --write
"""

import hashlib
import json
import os
import sys

from superpbw.verify import SuiteConfig, SweepBounds, run_suite

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "golden_sweep_sl2_sl21.json")

CONFIG = SuiteConfig(algebras=("sl2", "sl21"), bounds=SweepBounds(2, 2, 2, 2),
                     integrality_trials=10)


def report_digest():
    lines = []
    run_suite(CONFIG, emit=lines.append)
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


def test_sweep_report_matches_golden():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = report_digest()
    differing = sorted(i for i in set(want["identities"]) | set(got["identities"])
                       if want["identities"].get(i) != got["identities"].get(i))
    assert not differing, "CHECK lines differ for identities: %s" % ", ".join(differing)
    assert got["summary"] == want["summary"]
    assert got["total_lines"] == want["total_lines"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_sweep.py --write")
    with open(GOLDEN, "w") as fh:
        json.dump(report_digest(), fh, indent=1, sort_keys=True)
        fh.write("\n")
