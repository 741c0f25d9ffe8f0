"""One workload process: set-up, an untimed warm-up pass, then timed passes.

Started by ``run.py`` with the pinned environment; prints ``READY`` when
set-up ends (the parent times set-up up to that line) and one JSON line
with its records at the end. Single-threaded, one op at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import warnings

import cases as workloads
from tracer import Tracer, layer_sums


def order(n: int, seed: int, pass_index: int) -> list[int]:
    """The seeded op order of one pass (pass -1 is the warm-up)."""
    idx = list(range(n))
    random.Random(f"{seed}:{pass_index}").shuffle(idx)
    return idx


def judge(case, out) -> bool:
    if isinstance(out, Exception):
        return False
    try:
        return bool(case.check(out))
    except Exception:  # a malformed output fails its check
        return False


def run_pass(cases, idx, check=True, tracer=None, work=None):
    """Run the ops of one pass in the given order; returns [case, seconds, ok]
    per op. Only the program call is timed; checks run off the clock."""
    records = []
    for i in idx:
        case = cases[i]
        if tracer is None:
            start = time.perf_counter()
            try:
                out = case.run()
            except Exception as exc:  # a failed op is a record, not a crash
                out = exc
            secs = time.perf_counter() - start
        else:
            out, secs, span = tracer.op(case.cls, case.run)
            work[span] = case.work
        records.append([i, secs, judge(case, out) if check else None])
    return records


def import_figures(runs: int = 3) -> dict:
    """Fresh-interpreter import costs, from ``-X importtime``, and the bare
    interpreter floor; medians over ``runs`` processes."""
    env = workloads.child_env()
    pdi, scipy_ms, numpy_ms, bare = [], [], [], []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pdi_lab"],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        own = {"scipy": 0.0, "numpy": 0.0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line[12:]:
                continue
            self_us, cumulative_us, module = (part.strip() for part in line[12:].split("|"))
            if not self_us.isdigit():
                continue
            top = module.split(".")[0]
            if top in own:
                own[top] += int(self_us) / 1e3
            if module == "pdi_lab":
                pdi.append(int(cumulative_us) / 1e3)
        scipy_ms.append(own["scipy"])
        numpy_ms.append(own["numpy"])
    for _ in range(runs + 2):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        bare.append((time.perf_counter() - start) * 1e3)
    return {
        "cli.import_ms": statistics.median(pdi),
        "cli.import_scipy_ms": statistics.median(scipy_ms),
        "cli.import_numpy_ms": statistics.median(numpy_ms),
        "cli.interpreter_ms": statistics.median(bare),
    }


def traced_section(name, seed, cases, passes, probe):
    """Run this worker's passes again under the tracer; with ``probe``, also
    one traced pass of every other workload and the cli layer probe, so
    each traced run reports every layer."""
    others = {w: make(seed) for w, make in workloads.WORKLOADS.items() if probe and w != name}
    cli_argvs = [[a.format(pid=os.getpid()) for a in argv] for argv in workloads.CLI_ARGVS] if probe else []
    for argv in cli_argvs:  # warm the in-process cli path, untraced
        workloads.run_cli_inprocess(argv)
    tracer, work = Tracer(), {}
    tracer.install()
    try:
        records = []
        for k in passes:
            records += run_pass(cases, order(len(cases), seed, k), tracer=tracer, work=work)
        for other_cases in others.values():
            run_pass(other_cases, order(len(other_cases), seed, 0), check=False, tracer=tracer, work=work)
        for argv in cli_argvs:
            tracer.op("cli-inproc", lambda argv=argv: workloads.run_cli_inprocess(argv))
    finally:
        tracer.uninstall()
    if probe:
        os.remove(workloads.SWEEP_OUT.format(pid=os.getpid()))
    sums = layer_sums(tracer, work)
    sums["solve.passes"] = len(passes) if name == "solve" else (1 if "solve" in others else 0)
    tracer.save(os.path.join(workloads.OUT_DIR, f"trace-{name}-seed{seed}-pid{os.getpid()}.npz"))
    return records, dict(sums), import_figures() if probe else {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", default="", help="comma list of timed pass indices")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")
    passes = [int(k) for k in args.passes.split(",") if k]

    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    cases = workloads.WORKLOADS[args.workload](args.seed)
    run_pass(cases, order(len(cases), args.seed, -1), check=False)
    print("READY", flush=True)

    records = []
    for k in passes:
        records += run_pass(cases, order(len(cases), args.seed, k))
    result = {
        "cases": [c.name for c in cases],
        "known_fault": [bool(c.known_fault) for c in cases],
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result["traced_records"], result["sums"], result["imports"] = traced_section(
            args.workload, args.seed, cases, passes, bool(args.probe)
        )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
