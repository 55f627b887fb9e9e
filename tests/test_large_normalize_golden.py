"""Large CLI normalize requests stay byte for byte what they were.

`normalize --algebra sl3 --monoid poly` on x[a1]{t}^r x[-a1]{1}^r moves
every letter of the second run past every letter of the first, and each
swap brackets into Cartan letters and back.  So the straightening core
meets long words, deep sub-products and suffixes shared by many prefixes,
which the small goldens never reach.  The requests run at r = 8 and 10,
plain and with --divided, and once with a Cartan letter between the runs.

The golden file holds the SHA-256 of each request's output.  Regenerate it
(only after confirming an output change is intended) with

    PYTHONPATH=src python tests/test_large_normalize_golden.py --write
"""

import hashlib
import json
import os
import sys

from test_divided_print_golden import run_request

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "large_normalize_golden.json")

WORDS = ["x[a1]{t}^8 x[-a1]{1}^8", "x[a1]{t}^10 x[-a1]{1}^10",
         "x[a1]{t}^8 h[1]{t} x[-a1]{1}^8"]


def requests():
    """The argv of every request, in a fixed order."""
    out = []
    for word in WORDS[:2]:
        for extra in ([], ["--divided"]):
            out.append(["normalize", "--algebra", "sl3", "--monoid", "poly"] + extra + [word])
    out.append(["normalize", "--algebra", "sl3", "--monoid", "poly", WORDS[2]])
    return out


def digests():
    return [{"argv": argv, "sha256": hashlib.sha256(run_request(argv).encode()).hexdigest()}
            for argv in requests()]


def test_large_normalize_matches_golden():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    assert digests() == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_large_normalize_golden.py --write")
    with open(GOLDEN, "w") as fh:
        json.dump(digests(), fh, indent=1)
        fh.write("\n")
