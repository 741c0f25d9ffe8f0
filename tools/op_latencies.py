"""Show which ops set a benchmark run's latency metrics.

    python tools/op_latencies.py .perfbench/run-audit-seed1-trace0.json

reads the op records that ``perfbench/run.py`` writes for a run and
prints, per case, its fastest repetition (the latency ``op_p50_ms`` and
``ops_per_s`` are made of), its rank from the fastest, and its share of
one pass of those latencies; then the case, or the two cases, at the
median. A case with a failed repetition ranks last, as +infinity, as it
counts in ``run.py``'s median. Standard library only.
"""

import json
import math
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
    names = ", ".join(f"{ordered[r - 1][0]} (rank {r})" for r in median)
    lines.append(f"median of {len(ordered)} cases: {names}")
    return "\n".join(lines)


if __name__ == "__main__":
    for path in sys.argv[1:]:
        with open(path) as fh:
            print(f"{path}\n{report(json.load(fh))}")
