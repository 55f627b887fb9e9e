"""The printed divided basis stays byte for byte what it was when divided-basis
keys were tuples of (sym, Multiset) pairs.

Inside a block the printer lists elements in word order, which is their
exponent-tuple order, as Multiset's is.  Degree order would differ on poly2,
where v^2 = (0, 2) sorts before u = (1, 0) by tuple and after it by degree.
So the requests below run on poly2, plus osp12 over laurent for the
negative exponents, with divided powers and Cartan letters, and two basis
listings.

The golden file holds the SHA-256 of each request's output and one digest
over all of them.  Regenerate it (only after confirming a printing change is
intended) with

    PYTHONPATH=src python tests/test_divided_print_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys

from superpbw import cli
from superpbw.algebra import preset

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "divided_print_golden.json")

POLY2 = ("1", "u", "v", "u^2", "v^2", "u*v")
LAURENT = ("1", "t", "t^-1", "t^2")
CASES = (("sl2", "poly2", POLY2), ("sl21", "poly2", POLY2), ("sl3", "poly2", POLY2),
         ("osp12", "laurent", LAURENT))
PER_CASE = 40
SEED = 1011


def _factor(rng, spec, elts):
    if rng.random() < 0.4:
        return "h[%d]{%s}%s" % (rng.randint(1, spec.rank), rng.choice(elts),
                                rng.choice(("", "", "^2")))
    return "x[%s]{%s}%s" % (rng.choice(spec.roots).label, rng.choice(elts),
                            rng.choice(("", "^(2)", "^(3)")))


def _term(rng, spec, elts):
    return " ".join(_factor(rng, spec, elts) for _ in range(rng.randint(2, 4)))


def requests():
    """The argv of every request, in a fixed order."""
    rng = random.Random(SEED)
    out = []
    for algebra, monoid, elts in CASES:
        spec = preset(algebra)
        for _ in range(PER_CASE):
            expr = _term(rng, spec, elts)
            if rng.random() < 0.25:
                expr += " - 1/2 " + _term(rng, spec, elts)
            out.append(["normalize", "--algebra", algebra, "--monoid", monoid,
                        "--divided", expr])
    out.append(["basis", "--algebra", "sl21", "--monoid", "trunc:3", "--degree", "4"])
    out.append(["basis", "--algebra", "sp4", "--monoid", "trunc:2", "--degree", "4"])
    return out


def run_request(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    assert code == 0 and not err.getvalue(), (argv, err.getvalue())
    return out.getvalue()


def digests():
    digest_all = hashlib.sha256()
    rows = []
    for argv in requests():
        text = run_request(argv).encode()
        digest_all.update(text)
        rows.append({"argv": argv, "sha256": hashlib.sha256(text).hexdigest()})
    return {"requests": rows, "all": digest_all.hexdigest()}


def test_divided_printing_matches_golden():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = digests()
    differing = [" ".join(g["argv"]) for g, w in zip(got["requests"], want["requests"])
                 if g != w]
    assert not differing, "output differs for: %s" % "; ".join(differing[:5])
    assert len(got["requests"]) == len(want["requests"])
    assert got["all"] == want["all"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_divided_print_golden.py --write")
    with open(GOLDEN, "w") as fh:
        json.dump(digests(), fh, indent=1)
        fh.write("\n")
