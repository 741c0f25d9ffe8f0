"""Benchmark entry point: one workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed). The run starts WORKERS fresh worker
processes one after another, each single-threaded with BLAS/OpenMP
pinned to one thread. Each worker sets up (imports, builds its inputs,
runs one untimed warm-up pass) and then runs its share of the timed
passes. The number of timed passes is fixed by ``--seconds`` alone, never
by the clock, so every run of a workload does the same work.

The last stdout line is one JSON object: correct, attempted, failed and
the metrics (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKERS = 7
DEADLINE_S = 170.0
# Measured seconds of one timed pass on the reference machine (README.md);
# a run makes round(seconds / pass) passes, at least one.
PASS_SECONDS = {"solve": 0.18, "audit": 0.095, "classify": 0.05}
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": "src",
}
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "solver.solve_ms": "ms",
    "solver.newton_steps": "count",
    "solver.assemblies_per_step": "count",
    "solver.jacobians_per_step": "count",
    "solver.banded_ms": "ms",
    "radial.flux_ms": "ms",
    "solver.self_ms": "ms",
    "solver.ns_per_node_step": "ns",
    "solver.residual_ms": "ms",
    "solver.failed_solves": "count",
    "audit.morrey_ms": "ms",
    "audit.quad_calls_per_morrey": "count",
    "audit.quad_ms": "ms",
    "audit.energy_ms": "ms",
    "audit.caccioppoli_ms": "ms",
    "audit.holder_ms": "ms",
    "liouville.classify_us": "us",
    "radial.bump_scale_ms": "ms",
    "radial.scans_per_bump": "count",
    "radial.scan_us": "us",
    "liouville.verify_witness_us": "us",
    "liouville.area_test_ms": "ms",
    "liouville.quad_calls_per_area_test": "count",
    "params.exponent_report_us": "us",
    "cli.sweep_rows_per_s": "1/s",
    "cli.run_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_scipy_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.interpreter_ms": "ms",
    "trace.overhead_pct": "%",
}


def pass_count(workload: str, seconds: int) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def run_worker(workload, seed, passes, trace, probe, deadline):
    """Start one worker; returns (set-up seconds, its result dict)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--passes", ",".join(map(str, passes)),
           "--trace", str(trace), "--probe", str(int(probe))]
    env = dict(os.environ, **PINNED_ENV)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:  # interrupted: never leave a worker behind
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker for {workload} exited with code {code} before finishing")
    return setup, json.loads(rest.strip().splitlines()[-1])


def summarize(records, cases, known_fault):
    """attempted, failed, unexpected failures, ops_per_s and op_p50_ms of
    a list of [case, seconds, ok] op records.

    Each case's latency is its fastest timed repetition. The passes of a
    run are spread over seven processes and tens of seconds, and on a
    shared host the machine's speed swings between regimes for seconds at
    a time; the fastest repetition of each case is the figure that
    repeats from run to run. ops_per_s is then the rate of one pass made
    of those latencies (passing cases over their summed latency), and
    op_p50_ms their median, a failing case counting as +infinity."""
    best, good = {}, {}
    for i, secs, ok in records:
        best[i] = min(secs, best.get(i, math.inf))
        good[i] = good.get(i, True) and bool(ok)
    return {
        "attempted": len(records),
        "failed": sum(1 for _, _, ok in records if not ok),
        "unexpected": sorted({cases[i] for i, _, ok in records if not ok and not known_fault[i]}),
        "ops_per_s": sum(good.values()) / sum(best.values()),
        "op_p50_ms": statistics.median(best[i] * 1e3 if good[i] else math.inf for i in best),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PASS_SECONDS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join("src", "pdi_lab", "__init__.py")):
        print("run.py: no src/pdi_lab here; run from the root of a pdi-lab checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    passes = pass_count(args.workload, args.seconds)
    setups, results = [], []
    for w in range(WORKERS):
        share = list(range(w, passes, WORKERS))
        try:
            setup, result = run_worker(args.workload, args.seed, share, args.trace,
                                       probe=w == WORKERS - 1, deadline=deadline)
        except RuntimeError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        setups.append(setup)
        results.append(result)

    cases, known = results[0]["cases"], results[0]["known_fault"]
    os.makedirs(".perfbench", exist_ok=True)
    with open(os.path.join(".perfbench", f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"setups": setups, "cases": cases, "workers": [res["records"] for res in results]}, fh)
    plain = summarize([r for res in results for r in res["records"]], cases, known)
    if args.trace:
        from tracer import layer_metrics

        traced = summarize([r for res in results for r in res["traced_records"]], cases, known)
        sums: dict = {}
        for res in results:
            for key, value in res["sums"].items():
                sums[key] = sums.get(key, 0.0) + value
        values = layer_metrics(sums)
        values.update(results[-1]["imports"])
        values["trace.overhead_pct"] = 100.0 * (1.0 - traced["ops_per_s"] / plain["ops_per_s"])
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": plain["ops_per_s"],
            "op_p50_ms": plain["op_p50_ms"],
            "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in results),
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(f"workload {args.workload}: seed {args.seed}, {passes} timed passes over "
          f"{len(cases)} cases in {WORKERS} workers")
    print(f"  ops attempted {plain['attempted']}, failed {plain['failed']}")
    for name in plain["unexpected"]:
        print(f"  UNEXPECTED FAILURE: {name}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    bad = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        print(f"run.py: no finite value for {bad}: too many ops failed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not plain["unexpected"],
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
