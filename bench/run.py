#!/usr/bin/env python3
"""superpbw benchmark.

  python3 bench/run.py --workload sweep_even --seed 1 --seconds 20 --trace 0
      untraced run: prints the end-to-end metrics as the last line (JSON);
  python3 bench/run.py --workload sweep_even --seed 1 --seconds 20 --trace 1
      traced run: prints the per-layer metrics and trace.overhead_s;
  python3 bench/run.py --smoke
      tiny run of every workload, traced and untraced: checks outputs and
      metric names, never timings;
  python3 bench/run.py --compare DIR_A DIR_B
      one row per workload and end-to-end metric from two sets of result
      files, with a verdict against the metric's bound.

Every run writes a stamped result file to bench/results/ (or --out).  Each
workload process starts in a fresh interpreter (bench/worker.py), one at a
time, so memo tables and memory start empty as they do for a user.  See
bench/README.md for the workloads, the metrics and the layer map.
"""

import argparse
import datetime
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("sweep_even", "integrality", "normalize_cli")
SETUP_SAMPLES = 6          # setup-only processes per untraced run, besides the replicates
MIN_REPLICATES = 3
# Op time of one replicate on the 2-vCPU Xeon VM the benchmark was written
# on.  An untraced run starts --seconds / REPLICATE_S replicates: a fixed
# count, so that both commits of a comparison measure as many.
REPLICATE_S = {"sweep_even": 2.5, "integrality": 3.0, "normalize_cli": 3.5}
# Reported times are scaled to a host on which the worker's reference loop
# takes REF_S.  On a shared host the same pure-Python work takes up to 1.5x
# longer while other tenants load the cores, in phases that last from
# milliseconds to minutes; the reference loop, timed between the ops in the
# same process, slows down with them.  Program work does not enter it.
REF_S = 1e-3
BUDGET_S = 170.0           # a whole invocation ends within this
SMOKE_OPS = {"sweep_even": 150, "integrality": 12, "normalize_cli": 10}


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# running workload processes

def spawn(workload, seed, mode, deadline, ops=None, trace=False, skip_deferred=False,
          replicate=0):
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--replicate", str(replicate), "--mode", mode]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    if trace:
        cmd.append("--trace")
    if skip_deferred:
        cmd.append("--skip-deferred")
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget of %.0f s used up" % BUDGET_S)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(t_spawn)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s %s process did not finish within %.0f s"
                         % (workload, mode, timeout))
    if proc.returncode != 0:
        raise BenchError("%s %s process exited with %d:\n%s"
                         % (workload, mode, proc.returncode, proc.stderr[-3000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def replicate_failures(first, rep):
    """Replicates of one run check the same items, so each item's output
    must agree between them, whatever order they took the items in."""
    if rep["digest"] == first["digest"]:
        return rep["failed"]
    rep["errors"].append("outputs differ from the first replicate's")
    return rep["ops"]


def percentile(xs, q):
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100)[q - 1]


def host_factor(ref_s):
    """How many times slower than the reference speed the host ran while
    these reference times were taken."""
    return statistics.mean(ref_s) / REF_S


def untraced(workload, seed, deadline, seconds, ops=None, setup_samples=SETUP_SAMPLES):
    """Replicates, each in a fresh process, that take about `seconds` of op
    time together.  Replicates check the same items from empty memo tables,
    each in its own order, so an item's time is a sample over orders of memo
    fill.  Every time is scaled to the reference speed by its own
    process's reference times (see REF_S).  Throughput is the median over
    replicates; an item's latency is the median over replicates of its times;
    setup time and peak memory are medians over processes."""
    setup_runs = [spawn(workload, seed, "setup", deadline) for _ in range(setup_samples)]
    n_reps = max(MIN_REPLICATES, round(seconds / REPLICATE_S[workload]))
    reps = [spawn(workload, seed, "run", deadline, ops=ops, skip_deferred=i > 0, replicate=i)
            for i in range(n_reps)]
    first = reps[0]
    failed = sum(replicate_failures(first, r) for r in reps)
    attempted = sum(r["ops"] for r in reps)

    setups = [r["setup_s"] / host_factor(r["setup_ref_s"]) for r in setup_runs + reps]
    factors = [host_factor(r["ref_s"] or r["setup_ref_s"]) for r in reps]
    scaled = [[t / f for t in r["lat_s"]] for r, f in zip(reps, factors)]
    lat = [statistics.median(ts) for ts in zip(*scaled)]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / statistics.median(sum(ts) for ts in scaled),
        "op_p50_ms": percentile(lat, 50) * 1e3,
        "op_p90_ms": percentile(lat, 90) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ok_frac": 1.0 - failed / attempted,
    }
    summary = {"ops": attempted, "failed": failed, "params": first["params"],
               "errors": [e for r in reps for e in r["errors"]]}
    raw_setups = [r["setup_s"] for r in setup_runs + reps]
    extra = {"errors": summary["errors"][:10], "setup_samples_s": setups,
             "raw_setup_samples_s": raw_setups,
             "replicates": len(reps),
             "ops_per_replicate": first["ops"],
             "busy_s": [r["busy_s"] for r in reps],
             "host_factors": factors,
             "raw_ops_per_s": len(lat) / statistics.median(r["busy_s"] for r in reps)}
    return metrics, summary, extra


def traced(workload, seed, deadline, spec, ops=None):
    """An untraced replicate and a traced one run the same ops; the
    difference in their wall time is the tracing overhead."""
    base = spawn(workload, seed, "run", deadline, ops=ops, skip_deferred=True)
    run = spawn(workload, seed, "run", deadline, ops=base["ops"], trace=True)
    run["failed"] = replicate_failures(base, run)
    layers = dict(run["layers"])
    overhead = run["wall_s"] - base["wall_s"]
    layers["trace.overhead_s"] = overhead
    layers["trace.ops"] = run["ops"]
    problems = []
    for name in run["predicted_nonzero"]:
        prefix = name.rsplit(".", 1)[0]
        if prefix in run["absent"] or name in run["absent"]:
            continue
        if not layers.get(name):
            problems.append("%s reads 0 on %s, where the layer map predicts work"
                            % (name, workload))
    # The overhead is a difference of two timings on a noisy machine and can
    # read near 0 or below, so the tolerance has a floor of 1% of the wall time.
    gap = run["wall_s"] - run["self_total_s"]
    tolerance = max(abs(overhead), 0.01 * run["wall_s"])
    if abs(gap) > tolerance:
        problems.append("self times add up to %.4f s, traced wall time is %.4f s: "
                        "the gap exceeds %.4f s (trace.overhead_s %.4f s)"
                        % (run["self_total_s"], run["wall_s"], tolerance, overhead))
    metrics = {}
    for m in spec["per_layer"]:
        if m["name"] in layers:
            metrics[m["name"]] = layers[m["name"]]
        elif any(m["name"].startswith(a + ".") or m["name"] == a for a in run["absent"]):
            metrics[m["name"]] = 0
        else:
            raise BenchError("the trace has no metric %s" % m["name"])
    extra = {"untraced_wall_s": base["wall_s"], "traced_wall_s": run["wall_s"],
             "self_total_s": run["self_total_s"], "absent": run["absent"],
             "trace_problems": problems}
    return metrics, run, extra


def run_one(workload, seed, trace, spec, seconds=0, ops=None, setup_samples=SETUP_SAMPLES):
    deadline = time.monotonic() + BUDGET_S
    if trace:
        metrics, run, extra = traced(workload, seed, deadline, spec, ops)
        names = spec["per_layer"]
    else:
        metrics, run, extra = untraced(workload, seed, deadline, seconds, ops, setup_samples)
        names = spec["end_to_end"]
    problems = extra.get("trace_problems", [])
    for p in problems:
        print("TRACE CHECK FAILED: " + p, file=sys.stderr)
    for e in run["errors"]:
        print("OP ERROR: " + e, file=sys.stderr)
    result = {
        "correct": run["failed"] == 0 and not problems,
        "attempted": run["ops"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names},
    }
    return result, run, extra


# ---------------------------------------------------------------------------
# result files

def _git(*args):
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(workload, seed, seconds, trace, params):
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "params": params,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def write_result(out_dir, result, run, extra, workload, seed, seconds, trace):
    os.makedirs(out_dir, exist_ok=True)
    doc = {"stamp": stamp(workload, seed, seconds, trace, run["params"]),
           "result": result, "detail": extra}
    path = os.path.join(out_dir, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return path


# ---------------------------------------------------------------------------
# compare mode

def load_results(directory):
    """workload -> [(seed, {metric: value})] from the untraced result files."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        st = doc["stamp"]
        if st["trace"]:
            continue
        vals = {k: v["value"] for k, v in doc["result"]["metrics"].items()}
        out.setdefault(st["workload"], []).append((st["seed"], vals))
    return out


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def verdict(a, b, bound, better):
    """Parent runs a, change runs b (paired by seed where possible)."""
    sign = 1 if better == "higher" else -1
    q1, med_a, q3 = quartiles([v for _, v in a])
    _, med_b, _ = quartiles([v for _, v in b])
    seeds_b = dict(b)
    pairs = [(va, seeds_b[s]) for s, va in a if s in seeds_b] or \
        list(zip([v for _, v in a], [v for _, v in b]))
    wins = sum(1 for va, vb in pairs if sign * (vb - va) > 0)
    spread = q3 - q1
    if pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > spread:
        return "better"
    all_better = all(sign * (vb - va) > 0 for _, va in a for _, vb in b)
    if med_a and spread / abs(med_a) > bound and not all_better:
        return "unresolved"
    if med_a and sign * (med_a - med_b) / abs(med_a) > bound:
        return "worse"
    return "same"


def compare(dir_a, dir_b, spec):
    ra, rb = load_results(dir_a), load_results(dir_b)
    fmt = "%-14s %-12s %-36s %-36s %s"
    print(fmt % ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "verdict"))
    for workload in WORKLOADS:
        if workload not in ra or workload not in rb:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [(s, v[name]) for s, v in ra[workload] if name in v]
            b = [(s, v[name]) for s, v in rb[workload] if name in v]
            if not a or not b:
                continue
            cells = []
            for side in (a, b):
                q1, med, q3 = quartiles([v for _, v in side])
                cells.append("%.5g [%.5g, %.5g] n=%d" % (med, q1, q3, len(side)))
            print(fmt % (workload, name, cells[0], cells[1],
                         verdict(a, b, m.get("bound", 0.0), m["better"])))
    return 0


# ---------------------------------------------------------------------------
# smoke mode

def smoke(spec):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, _, _ = run_one(workload, 0, trace, spec, ops=SMOKE_OPS[workload],
                                   setup_samples=1)
            want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            names_ok = set(result["metrics"]) == want
            good = result["correct"] and result["failed"] == 0 and names_ok
            ok = ok and good
            print("SMOKE %-14s trace=%d ops=%d failed=%d metrics=%s %s"
                  % (workload, trace, result["attempted"], result["failed"],
                     "ok" if names_ok else "MISMATCH", "PASS" if good else "FAIL"))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(HERE, "results"),
                    help="directory for result files")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "superpbw", "__init__.py")):
        print("error: no superpbw sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    spec = load_spec()
    try:
        if args.compare:
            return compare(args.compare[0], args.compare[1], spec)
        if args.smoke:
            return smoke(spec)
        if not args.workload or args.seconds is None:
            ap.error("--workload and --seconds are required")
        result, run, extra = run_one(args.workload, args.seed, args.trace, spec,
                                     seconds=args.seconds)
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    path = write_result(args.out, result, run, extra, args.workload, args.seed,
                        args.seconds, args.trace)
    print("result file: %s" % os.path.relpath(path, ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
