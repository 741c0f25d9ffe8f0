"""Steadiness check: independent sets of runs of the same commit.

    python3 perfbench/steady.py --runs 10 --sets 2

Runs ``run.py`` ``--runs`` times per workload in each of ``--sets`` sets,
each run with its own seed, all with the run length in BENCHMARK.json.
For every workload and end-to-end metric it prints each set's median and
quartiles, the spread (quartile distance over median) and whether

  * the spread is within the metric's bound;
  * every later set's median is within the bound of the first set's, in
    either direction;
  * the share of failed ops is identical in every run.

Exits 0 when every check holds. Results are also written as JSON to
``.perfbench/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SEED_BASE = 100  # set s, run i uses seed SEED_BASE + 1000 s + i


def load_benchmark():
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


def one_run(bench, workload, seed):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args(argv)
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    runs = {w: [[] for _ in range(args.sets)] for w in names}
    for s in range(args.sets):
        for i in range(args.runs):
            for w in names:  # interleaved, so slow drift of the machine hits every workload alike
                seed = SEED_BASE + 1000 * s + i
                out = one_run(bench, w, seed)
                runs[w][s].append(out)
                print(f"set {s} run {i} {w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in out["metrics"].items()), flush=True)

    ok = True
    report = {}
    for w in names:
        print(f"\n== {w}")
        shares = {(r["failed"], r["attempted"]) for rs in runs[w] for r in rs}
        same_share = len({f / a for f, a in shares}) == 1
        correct = all(r["correct"] for rs in runs[w] for r in rs)
        print(f"  failed/attempted {sorted(shares)} identical share: {same_share}; all correct: {correct}")
        ok &= same_share and correct
        report[w] = {"failed_attempted": sorted(shares), "metrics": {}}
        for name, spec in bounds.items():
            bound = spec["bound"]
            cells, medians = [], []
            for s in range(args.sets):
                values = [r["metrics"][name]["value"] for r in runs[w][s]]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                medians.append(med)
                spread_ok = spread <= bound
                ok &= spread_ok
                cells.append({"q1": q1, "median": med, "q3": q3, "spread": spread, "values": values})
                print(f"  {name:12s} set {s}: median {med:12.6g} [{q1:.6g}, {q3:.6g}] "
                      f"spread {spread:7.2%} (bound {bound:.0%}, target < {bound / 3:.1%}) "
                      f"{'ok' if spread_ok else 'TOO WIDE'}")
            for s in range(1, args.sets):
                change = (medians[s] - medians[0]) / medians[0]
                agree = abs(change) <= bound
                ok &= agree
                print(f"  {name:12s} set {s} vs set 0: {change:+.2%} "
                      f"{'agree' if agree else 'DISAGREE'} within {bound:.0%}")
            report[w]["metrics"][name] = cells
    os.makedirs(".perfbench", exist_ok=True)
    with open(os.path.join(".perfbench", "steady.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
