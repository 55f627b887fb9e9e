"""Golden outputs: what the package prints, pinned byte for byte.

GOLDENS maps each golden's name to a function that returns its outputs as
{output name: text}; data/goldens.json holds the SHA-256 of every output.

- sweep_sl2_sl21 and sweep_sl3_sp4_osp12 pin the suite report, one output
  per identity (its CHECK lines, joined by newlines) plus the SUMMARY line.
  The first dates from before the combinatorics and divided-power memos, the
  second from before the sweeps were declared as axes; sl3, sp4 and osp12
  cover L4.4a, the signs L4.4b names and 4.8, 4.11 and deg7.
- divided_print pins the printed divided basis, one output per CLI request,
  keyed by its argv.  Inside a block the printer lists elements in word
  order, which is their exponent-tuple order.  Degree order would differ on
  poly2, where v^2 = (0, 2) sorts before u = (1, 0) by tuple and after it by
  degree.  So the requests run on poly2, plus osp12 over laurent for the
  negative exponents, with divided powers and Cartan letters, and two basis
  listings.

A new golden is one more row.  Regenerate the digests (only after confirming
an output change is intended) with

    PYTHONPATH=src python tests/test_goldens.py --write
"""

import hashlib
import json
import os
import random
import sys

import pytest

from superpbw.algebra import preset
from superpbw.verify import SuiteConfig, SweepBounds, run_suite
from support import run_cli

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "goldens.json")


def suite_outputs(algebras, bounds):
    """The suite's CHECK lines per identity, joined by newlines, and its SUMMARY line."""
    lines = []
    run_suite(SuiteConfig(algebras=algebras, bounds=bounds), emit=lines.append)
    by_id = {}
    for line in lines:
        key = "SUMMARY" if line.startswith("SUMMARY") else line.split(" ", 2)[1].removeprefix("id=")
        by_id.setdefault(key, []).append(line)
    return {key: "\n".join(ls) for key, ls in by_id.items()}


POLY2 = ("1", "u", "v", "u^2", "v^2", "u*v")
LAURENT = ("1", "t", "t^-1", "t^2")
CASES = (("sl2", "poly2", POLY2), ("sl21", "poly2", POLY2), ("sl3", "poly2", POLY2),
         ("osp12", "laurent", LAURENT))


def _factor(rng, spec, elts):
    if rng.random() < 0.4:
        return "h[%d]{%s}%s" % (rng.randint(1, spec.rank), rng.choice(elts),
                                rng.choice(("", "", "^2")))
    return "x[%s]{%s}%s" % (rng.choice(spec.roots).label, rng.choice(elts),
                            rng.choice(("", "^(2)", "^(3)")))


def _term(rng, spec, elts):
    return " ".join(_factor(rng, spec, elts) for _ in range(rng.randint(2, 4)))


def divided_print_requests(seed=1011, per_case=40):
    """The argv of every request, in a fixed order."""
    rng = random.Random(seed)
    out = []
    for algebra, monoid, elts in CASES:
        spec = preset(algebra)
        for _ in range(per_case):
            expr = _term(rng, spec, elts)
            if rng.random() < 0.25:
                expr += " - 1/2 " + _term(rng, spec, elts)
            out.append(["normalize", "--algebra", algebra, "--monoid", monoid,
                        "--divided", expr])
    out.append(["basis", "--algebra", "sl21", "--monoid", "trunc:3", "--degree", "4"])
    out.append(["basis", "--algebra", "sp4", "--monoid", "trunc:2", "--degree", "4"])
    return out


def divided_print_outputs():
    """The stdout of every request, keyed by its argv; each must exit 0
    with nothing on stderr."""
    outputs = {}
    for argv in divided_print_requests():
        code, out, err = run_cli(*argv)
        assert code == 0 and not err, (argv, err)
        outputs[" ".join(argv)] = out
    return outputs


GOLDENS = {
    "sweep_sl2_sl21": lambda: suite_outputs(
        ("sl2", "sl21"), SweepBounds(2, 2, 2, 2, integrality_trials=10)),
    "sweep_sl3_sp4_osp12": lambda: suite_outputs(
        ("sl3", "sp4", "osp12"), SweepBounds(1, 1, 1, 1, integrality_trials=10)),
    "divided_print": divided_print_outputs,
}


def digests(name):
    return {key: hashlib.sha256(text.encode()).hexdigest()
            for key, text in GOLDENS[name]().items()}


@pytest.mark.parametrize("name", GOLDENS)
def test_output_matches_golden(name):
    with open(DIGESTS) as fh:
        want = json.load(fh)[name]
    got = digests(name)
    differing = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
    assert not differing, "%s differs in %d outputs: %s" % (
        name, len(differing), "; ".join(differing[:5]))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_goldens.py --write")
    with open(DIGESTS, "w") as fh:
        json.dump({name: digests(name) for name in GOLDENS}, fh, indent=1, sort_keys=True)
        fh.write("\n")
