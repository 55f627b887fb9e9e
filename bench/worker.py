"""Runs one workload in a fresh interpreter and prints a JSON summary as its
last line.  bench/run.py starts it; it is not meant to be run by hand.

  --mode setup   import, set up, report setup_s and exit;
  --mode run     set up, then run --ops of the workload's items (all of
                 them by default), in the order that --seed and --replicate
                 pick, and check every output;
                 --trace records per-layer spans, --skip-deferred skips the
                 workload's expensive end-of-run checks.

The summary lists op times in the workload's item order and carries a
digest of every item's output, so that replicates of one run, which take
the items in different orders, can be compared with each other.  It also
carries the times of a fixed stdlib-only reference loop, run after setup
and after every REF_EVERY ops outside the timed region, from which
bench/run.py reads how fast the host ran (see REF_S there).
"""

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REFS = 5


def reference_work():
    """Fixed pure-Python work in the program's mix of Fraction arithmetic and
    dicts keyed by tuples, using the standard library only."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 151):
        key = (i % 17, i % 5, "x%d" % (i % 11))
        table[key] = table.get(key, Fraction(0)) + Fraction(i, i % 7 + 1)
        acc += table[key] / (i % 3 + 1)
    return acc


def time_reference(clock):
    t0 = clock()
    reference_work()
    return clock() - t0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    ap.add_argument("--replicate", type=int, default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--ops", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--skip-deferred", action="store_true")
    args = ap.parse_args(argv)

    sys.path[:0] = [SRC, HERE]
    import superpbw
    if os.path.dirname(os.path.dirname(os.path.abspath(superpbw.__file__))) != SRC:
        raise SystemExit("superpbw imported from %s, not from %s" % (superpbw.__file__, SRC))
    import workloads
    wl = workloads.WORKLOADS[args.workload]()

    setup, op = wl.setup, wl.op
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        setup = tracer.root("bench.setup", setup)
        op = tracer.root("bench.op", op)

    clock = time.perf_counter
    t0 = clock()
    setup()
    setup_dur = clock() - t0
    setup_s = time.monotonic() - args.spawned_at
    setup_ref = [time_reference(clock) for _ in range(SETUP_REFS)]
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref}))
        return 0
    if tracer:
        tracer.take_engines()

    # The seed picks the items of a shortened run (--ops); the seed and the
    # replicate's number pick their order.  The replicates of one run check
    # the same items, each in its own order, so that the run's figures do not
    # hang on one order of memo fills: on sweep_even, one order alone moves
    # throughput by up to 8%.
    items = list(enumerate(wl.items()))
    random.Random(args.seed).shuffle(items)
    if args.ops is not None:
        del items[args.ops:]
    random.Random("%d/%d" % (args.seed, args.replicate)).shuffle(items)
    lat, outs, ref, failed, errors = {}, {}, [], set(), []
    busy = 0.0
    for i, (j, item) in enumerate(items):
        t0 = clock()
        try:
            out = op(item)
        except Exception:
            out = None
            errors.append("op %d %r: %s" % (i, item, traceback.format_exc(limit=3)))
        dt = clock() - t0
        busy += dt
        lat[j] = dt
        if tracer:
            tracer.read_memos(tracer.take_engines())
        ok = False
        if out is not None:
            try:
                ok = wl.check(i, item, out)
            except Exception:
                errors.append("check %d %r: %s" % (i, item, traceback.format_exc(limit=3)))
        if not ok:
            failed.add(i)
        outs[j] = repr(out)
        if (i + 1) % wl.REF_EVERY == 0:
            ref.append(time_reference(clock))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digest = hashlib.sha256()
    for j in sorted(outs):
        digest.update(("%d %s\n" % (j, outs[j])).encode())

    result = {"setup_s": setup_s, "setup_ref_s": setup_ref, "ops": len(lat),
              "busy_s": busy, "wall_s": setup_dur + busy,
              "lat_s": [lat[j] for j in sorted(lat)], "ref_s": ref,
              "peak_rss_mb": peak_rss_mb, "params": wl.params()}
    if tracer:
        tracer.read_memos(wl.engines())
        tracer.uninstall()
        result.update(layers=tracer.metrics(), absent=tracer.absent,
                      self_total_s=tracer.total_self_s(),
                      predicted_nonzero=wl.predicted_nonzero)
    if not args.skip_deferred:
        failed |= wl.finish()
    result.update(failed=len(failed), errors=errors[:3], digest=digest.hexdigest())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
