#!/usr/bin/env python3
"""Run the full straightening-identity verification suite and write a
line-oriented report.

Examples:
    python scripts/run_identity_sweep.py
    python scripts/run_identity_sweep.py --algebras sl21 osp12 --rmax 2 -o report.txt
    python scripts/run_identity_sweep.py --config suite.json
"""

import argparse
import sys
import time

from superpbw.verify import SuiteConfig, SweepBounds, run_suite
from superpbw.algebra import PRESET_NAMES, SpecError
from superpbw.cli import run_piped
from superpbw.coeffalg import MonoidError


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", help="JSON suite config (overrides other flags)")
    ap.add_argument("--algebras", nargs="+", default=list(PRESET_NAMES))
    ap.add_argument("--monoid", default="trunc:4")
    ap.add_argument("--rmax", type=int, default=3)
    ap.add_argument("--smax", type=int, default=3)
    ap.add_argument("--mmax", type=int, default=3)
    ap.add_argument("--chimax", type=int, default=3)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("-o", "--output", help="also write the report to this path")
    ap.add_argument("--quiet", action="store_true", help="print only the summary")
    args = ap.parse_args()

    sink = open(args.output, "w") if args.output else None

    def emit(line):
        if sink:
            sink.write(line + "\n")
        if not args.quiet or line.startswith("SUMMARY"):
            print(line)

    t0 = time.time()
    try:
        if args.config:
            config = SuiteConfig.from_path(args.config)
        else:
            config = SuiteConfig(
                algebras=tuple(args.algebras), monoid=args.monoid,
                bounds=SweepBounds(args.rmax, args.smax, args.mmax, args.chimax),
                integrality_trials=args.trials, seed=args.seed)
        result = run_suite(config, emit=emit)
    except (SpecError, MonoidError) as e:   # a bad config, algebra, table or monoid
        print("error: %s" % e, file=sys.stderr)
        return 2
    finally:
        if sink:
            sink.close()
    print("elapsed %.1fs" % (time.time() - t0))
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(run_piped(main))
