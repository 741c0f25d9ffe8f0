"""Show which ops set a benchmark run's latency metrics.

    python tools/op_latencies.py .perfbench/run-audit-seed1-trace0.json

reads the op records that ``perfbench/run.py`` writes for a run and
prints, per case, its fastest repetition (the latency ``op_p50_ms`` and
``ops_per_s`` are made of), its rank from the fastest, and its share of
one pass of those latencies; then the case, or the two cases, at the
median. A case with a failed repetition ranks last, as +infinity, as it
counts in ``run.py``'s median.

    python tools/op_latencies.py --compare PARENT.json CHANGE.json

reads two such runs of the same case list and prints, per case in the
parent's rank order, both ranks, both fastest repetitions and their ratio
(change over parent); then each side's ``op_p50_ms`` and the case, or the
two cases, at its median. Runs of different case lists are refused, with
exit status 2. Standard library only.
"""

import argparse
import json
import math
import statistics
import sys


def best_latencies(run):
    """(case name, fastest seconds, every repetition passed) per case of
    the run file's records, in the order of the case list."""
    best, good = {}, {}
    for records in run["workers"]:
        for i, secs, ok in records:
            best[i] = min(secs, best.get(i, math.inf))
            good[i] = good.get(i, True) and bool(ok)
    return [(run["cases"][i], best[i], good[i]) for i in sorted(best)]


def ranking(latencies):
    """The cases sorted by latency, a failing case last as +infinity, and
    the ranks (from 1) of the one or two cases whose mean is the median."""
    ordered = sorted(latencies, key=lambda c: c[1] if c[2] else math.inf)
    n = len(ordered)
    return ordered, ((n + 1) // 2,) if n % 2 else (n // 2, n // 2 + 1)


def report(run) -> str:
    ordered, median = ranking(best_latencies(run))
    total = sum(secs for _, secs, _ in ordered)
    lines = [f"{'rank':>4} {'best ms':>10} {'share':>7}  case"]
    for rank, (name, secs, ok) in enumerate(ordered, 1):
        failed = "" if ok else "  (failed)"
        lines.append(f"{rank:4d} {secs * 1e3:10.4f} {100.0 * secs / total:6.2f}%  {name}{failed}")
    return "\n".join(lines + [_at_median(ordered, median)])


def _at_median(ordered, median) -> str:
    names = ", ".join(f"{ordered[r - 1][0]} (rank {r})" for r in median)
    return f"median of {len(ordered)} cases: {names}"


def _median_line(side, latencies) -> str:
    """op_p50_ms as ``run.py`` takes it, a failing case as +infinity, and
    the case or cases at the median."""
    p50 = statistics.median(secs * 1e3 if ok else math.inf for _, secs, ok in latencies)
    return f"{side}: op_p50_ms {p50:.5f}, {_at_median(*ranking(latencies))}"


def compare(parent, change) -> str:
    before, after = best_latencies(parent), best_latencies(change)
    ordered, _ = ranking(before)
    ranks = {name: rank for rank, (name, _, _) in enumerate(ranking(after)[0], 1)}
    best = {name: (secs, ok) for name, secs, ok in after}
    lines = [f"{'rank':>4} {'parent ms':>10} {'rank':>4} {'change ms':>10} {'ratio':>7}  case"]
    for rank, (name, secs, ok) in enumerate(ordered, 1):
        new, new_ok = best[name]
        failed = [f"{side} failed" for side, good in (("parent", ok), ("change", new_ok)) if not good]
        lines.append(f"{rank:4d} {secs * 1e3:10.4f} {ranks[name]:4d} {new * 1e3:10.4f} {new / secs:7.3f}"
                     f"  {name}" + (f"  ({', '.join(failed)})" if failed else ""))
    return "\n".join(lines + [_median_line("parent", before), _median_line("change", after)])


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def main(argv) -> None:
    parser = argparse.ArgumentParser(description="Show which ops set a benchmark run's latency metrics.")
    parser.add_argument("runs", nargs="*", help="perfbench run files, each reported alone")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"), help="two runs, case by case")
    args = parser.parse_args(argv)
    for path in args.runs:
        print(f"{path}\n{report(_load(path))}")
    if args.compare:
        parent, change = map(_load, args.compare)
        if parent["cases"] != change["cases"]:
            parser.exit(2, f"op_latencies: {args.compare[0]} and {args.compare[1]} time different case lists\n")
        print(compare(parent, change))


if __name__ == "__main__":
    main(sys.argv[1:])
