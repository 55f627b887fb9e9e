#!/usr/bin/env python3
"""Print integral-basis tables by degree, split into the triangular segments,
with the generating-function counts alongside the enumeration.

Example:
    python scripts/basis_tables.py --algebra sl21 --monoid trunc:2 --degree 3
"""

import argparse
import sys
from collections import Counter

from superpbw.algebra import SpecError
from superpbw.cli import run_piped
from superpbw.exprio import blocks_str, divided_blocks
from superpbw.verify import genfun_counts, load_engine


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--algebra", default="sl21")
    ap.add_argument("--monoid", default="trunc:2")
    ap.add_argument("--degree", type=int, default=3)
    ap.add_argument("--counts-only", action="store_true")
    args = ap.parse_args()

    try:
        engine = load_engine(args.algebra, args.monoid)
    except SpecError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    spec = engine.spec

    oracle = genfun_counts(spec, engine.monoid, args.degree)
    keys = engine.enumerate_basis(args.degree)
    counts = Counter(map(len, keys))
    print("algebra %s, coefficients %s, degree <= %d"
          % (spec.name, engine.monoid.name, args.degree))
    print("degree | enumerated | generating function")
    for d in range(args.degree + 1):
        mark = "" if counts[d] == oracle[d] else "   MISMATCH"
        print("%6d | %10d | %d%s" % (d, counts[d], oracle[d], mark))
    if args.counts_only:
        return 0

    for title, seg in (("B-", -1), ("B0", 0), ("B+", 1)):
        syms = [s for s in engine.order.syms if engine.order.segment[s] == seg]
        part = sorted((len(k), divided_blocks(engine, k))
                      for k in engine.enumerate_basis(args.degree, syms))
        print("\n%s (%d elements)" % (title, len(part)))
        for _, blocks in part:
            print("  %s" % blocks_str(engine, blocks))
    return 0


if __name__ == "__main__":
    sys.exit(run_piped(main))
