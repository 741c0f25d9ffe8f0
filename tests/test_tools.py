"""tools/op_latencies.py on synthetic run files: each case's fastest
repetition, its rank and share, and the case or cases at the median."""

import json
import pathlib
import runpy
import statistics
import sys

import pytest

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "op_latencies.py"
op_latencies = runpy.run_path(str(_TOOL))


def _run(cases, workers):
    return {"setups": [0.1] * len(workers), "cases": cases, "workers": workers}


def test_odd_case_count_has_one_median_case():
    # Case 1's best is its 2 ms repetition from the second worker; case 0's
    # failed repetition ranks it last, as +infinity.
    run = _run(["slow", "mid", "fast"], [[[0, 0.001, True], [1, 0.005, True], [2, 0.003, True]],
                                         [[0, 0.004, False], [1, 0.002, True], [2, 0.0005, True]]])
    latencies = op_latencies["best_latencies"](run)
    assert latencies == [("slow", 0.001, False), ("mid", 0.002, True), ("fast", 0.0005, True)]
    ordered, median = op_latencies["ranking"](latencies)
    assert [name for name, _, _ in ordered] == ["fast", "mid", "slow"] and median == (2,)
    lines = op_latencies["report"](run).splitlines()
    assert lines[1].split() == ["1", "0.5000", "14.29%", "fast"]
    assert lines[2].split() == ["2", "2.0000", "57.14%", "mid"]
    assert lines[3].split() == ["3", "1.0000", "28.57%", "slow", "(failed)"]
    assert lines[-1] == "median of 3 cases: mid (rank 2)"


def test_even_case_count_names_both_median_cases(monkeypatch, capsys, tmp_path):
    run = _run([f"c{i}" for i in range(4)], [[[i, 0.001 * (4 - i), True] for i in range(4)]])
    path = tmp_path / "run-audit-seed1-trace0.json"
    path.write_text(json.dumps(run))
    monkeypatch.setattr(sys, "argv", ["op_latencies.py", str(path)])
    runpy.run_path(str(_TOOL), run_name="__main__")
    out = capsys.readouterr().out.splitlines()
    assert out[0] == str(path)
    assert [line.split()[-1] for line in out[2:6]] == ["c3", "c2", "c1", "c0"]
    assert out[-1] == "median of 4 cases: c2 (rank 2), c1 (rank 3)"


@pytest.mark.parametrize("n", [1, 2, 5, 24])
def test_median_ranks_match_the_statistics_median(n):
    ordered, median = op_latencies["ranking"]([(f"c{i}", float(i), True) for i in range(n)])
    values = [secs for _, secs, _ in ordered]
    assert sum(values[r - 1] for r in median) / len(median) == statistics.median(values)
