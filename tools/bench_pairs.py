"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python tools/bench_pairs.py PARENT CHANGE --workload classify --pairs 10 --seconds 20

runs ``perfbench/run.py --workload W --seconds S --seed K`` in the
checkout PARENT and in the checkout CHANGE, one run at a time, N pairs:
pair i uses seed FIRST + i (``--seed``, default 1) on both sides, and the
side that runs first alternates, parent first in pair 0. Each run's op
records stay in its checkout's ``.perfbench/`` (``tools/op_latencies.py
--compare`` reads two of them). Then, per end-to-end metric of
``BENCHMARK.json`` in CHANGE, it prints each side's median, the parent's
quartiles and how many pairs the change won (the better direction from
``BENCHMARK.json``; ties count for neither side), its verdict, and the
failed ops per side. The verdicts, first match wins:

* ``gain``: the change wins at least 9 of 10 pairs and its median beats
  the parent's by more than the parent's q3 - q1;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's ``bound`` (a fraction of the parent's median);
* ``unresolved``: the parent's q3 - q1 is wider than the bound, and not
  every change run beats every parent run;
* ``within bound``: otherwise.

A run that exits non-zero or outlasts its timeout stops the tool, with
its process group killed, so no process is left behind. Standard library
only.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys


def parse_run(stdout: str) -> dict:
    """The last stdout line of ``perfbench/run.py``: failed, attempted and
    each metric's value by name."""
    last = json.loads(stdout.strip().splitlines()[-1])
    return {"failed": last["failed"], "attempted": last["attempted"],
            "metrics": {name: m["value"] for name, m in last["metrics"].items()}}


def quartiles(values) -> tuple:
    """(q1, median, q3) by the inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(before, after, spec) -> str:
    """The verdict of the module docstring on one metric's parent and
    change values, pair by pair, and its ``BENCHMARK.json`` entry."""
    sign = -1.0 if spec["better"] == "lower" else 1.0
    parent, change = [sign * a for a in before], [sign * b for b in after]  # higher is better
    q1, mid, q3 = quartiles(parent)
    spread, gain = q3 - q1, statistics.median(change) - mid
    wins = sum(b > a for a, b in zip(parent, change))
    if 10 * wins >= 9 * len(parent) and gain > spread:
        return "gain"
    if -gain > spec["bound"] * abs(mid):
        return "worse"
    if spread > spec["bound"] * abs(mid) and not min(change) > max(parent):
        return "unresolved"
    return "within bound"


def summarize(pairs, end_to_end) -> list:
    """One row per metric of ``end_to_end`` (BENCHMARK.json's list):
    name, unit, parent median, change median, their relative difference,
    the parent's q1 and q3, the pairs the change won and its verdict."""
    rows = []
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        before = [parent["metrics"][name] for parent, _ in pairs]
        after = [change["metrics"][name] for _, change in pairs]
        wins = sum((b < a) if lower else (b > a) for a, b in zip(before, after))
        q1, mid, q3 = quartiles(before)
        new = statistics.median(after)
        rows.append((name, spec["unit"], mid, new, new / mid - 1.0 if mid else float("nan"), q1, q3, wins,
                     verdict(before, after, spec)))
    return rows


def table(pairs, end_to_end) -> str:
    lines = [f"{'metric':12} {'unit':5} {'parent':>12} {'change':>12} {'diff':>8} "
             f"{'parent q1':>12} {'parent q3':>12}  change wins  verdict"]
    for name, unit, before, after, diff, q1, q3, wins, word in summarize(pairs, end_to_end):
        lines.append(f"{name:12} {unit:5} {before:12.6g} {after:12.6g} {100.0 * diff:+7.1f}% "
                     f"{q1:12.6g} {q3:12.6g}  {f'{wins}/{len(pairs)}':11}  {word}")
    for side, index in (("parent", 0), ("change", 1)):
        failed = [pair[index]["failed"] for pair in pairs]
        lines.append(f"{side} failed ops per run: {', '.join(map(str, failed))} "
                     f"of {pairs[0][index]['attempted']}")
    return "\n".join(lines)


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in ``checkout``, in its own process group, which
    is killed if the run fails to finish or the tool is interrupted."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.Popen(argv, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=240 + 4 * seconds)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {checkout} seed {seed} exited {proc.returncode}:\n{err}")
    return parse_run(out)


def main(argv) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1, help="the seed of pair 0")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    pairs = []
    for i in range(args.pairs):
        seed, runs = args.seed + i, {}
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side] = run_once(getattr(args, side), args.workload, seed, args.seconds)
        pairs.append((runs["parent"], runs["change"]))
        print(f"pair {i}: seed {seed}, {order[0]} first, op_p50_ms "
              f"{runs['parent']['metrics']['op_p50_ms']:.6g} -> {runs['change']['metrics']['op_p50_ms']:.6g}",
              flush=True)
    print(table(pairs, end_to_end))


if __name__ == "__main__":
    main(sys.argv[1:])
