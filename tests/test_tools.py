"""The tools on synthetic files: tools/op_latencies.py (each case's
fastest repetition, its rank and share, and the case or cases at the
median; two runs compared case by case), tools/code_lines.py (the
lines that hold code) and tools/bench_pairs.py (alternating benchmark
pairs, summarized per metric with a verdict, on stand-in run.py
scripts)."""

import json
import pathlib
import runpy
import statistics
import sys

import pytest

_TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
_TOOL = _TOOLS / "op_latencies.py"
op_latencies = runpy.run_path(str(_TOOL))
bench_pairs = runpy.run_path(str(_TOOLS / "bench_pairs.py"))
code_lines = runpy.run_path(str(_TOOLS / "code_lines.py"))["code_lines"]


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


def _compare(monkeypatch, tmp_path, parent, change):
    paths = [tmp_path / "run-parent.json", tmp_path / "run-change.json"]
    for path, run in zip(paths, (parent, change)):
        path.write_text(json.dumps(run))
    monkeypatch.setattr(sys, "argv", ["op_latencies.py", "--compare", *map(str, paths)])
    runpy.run_path(str(_TOOL), run_name="__main__")


def test_compare_prints_both_sides_case_by_case(monkeypatch, capsys, tmp_path):
    # Four cases; the change halves "b" and fails "d", which then counts
    # as +infinity in its median, as in run.py.
    names = ["a", "b", "c", "d"]
    parent = _run(names, [[[0, 0.001, True], [1, 0.004, True], [2, 0.003, True], [3, 0.002, True]]])
    change = _run(names, [[[0, 0.001, True], [1, 0.002, True], [2, 0.003, True], [3, 0.0025, False]]])
    _compare(monkeypatch, tmp_path, parent, change)
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["rank", "parent", "ms", "rank", "change", "ms", "ratio", "case"]
    assert [line.split() for line in out[1:5]] == [
        ["1", "1.0000", "1", "1.0000", "1.000", "a"],
        ["2", "2.0000", "4", "2.5000", "1.250", "d", "(change", "failed)"],
        ["3", "3.0000", "3", "3.0000", "1.000", "c"],
        ["4", "4.0000", "2", "2.0000", "0.500", "b"],
    ]
    assert out[5] == "parent: op_p50_ms 2.50000, median of 4 cases: d (rank 2), c (rank 3)"
    assert out[6] == "change: op_p50_ms 2.50000, median of 4 cases: b (rank 2), c (rank 3)"
    assert len(out) == 7


def test_compare_median_is_run_py_median_with_a_failed_case(monkeypatch, capsys, tmp_path):
    # The middle case fails on the change side: it ranks last, and the
    # median of (1, 3, +inf) ms is 3.
    parent = _run(["x", "y", "z"], [[[0, 0.001, True], [1, 0.002, True], [2, 0.003, True]]])
    change = _run(["x", "y", "z"], [[[0, 0.001, True], [1, 0.002, False], [2, 0.003, True]]])
    _compare(monkeypatch, tmp_path, parent, change)
    out = capsys.readouterr().out.splitlines()
    assert out[-2] == "parent: op_p50_ms 2.00000, median of 3 cases: y (rank 2)"
    assert out[-1] == "change: op_p50_ms 3.00000, median of 3 cases: z (rank 2)"


def test_compare_refuses_runs_of_different_case_lists(monkeypatch, capsys, tmp_path):
    parent = _run(["a", "b"], [[[0, 0.001, True], [1, 0.002, True]]])
    change = _run(["a", "c"], [[[0, 0.001, True], [1, 0.002, True]]])
    with pytest.raises(SystemExit) as exit_info:
        _compare(monkeypatch, tmp_path, parent, change)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"op_latencies: {tmp_path / 'run-parent.json'} and {tmp_path / 'run-change.json'}"
                            " time different case lists\n")


# Each line that counts ends in "# code"; the other non-blank lines are
# docstrings, comments or the closing quotes of a docstring.
_SOURCE = '''"""The module docstring,
over two lines."""

import math  # code

# A comment on a line of its own.


class Box:  # code
    """The class docstring."""

    side = 2.0  # code

    def area(self):  # code
        """The function
        docstring."""
        "a string expression after the docstring"  # code
        return math.fsum(  # code
            [self.side,  # code
             self.side],  # code
        )  # code


async def idle():  # code
    """The async function docstring."""


"a module-level string expression"  # code
'''
_CODE = [i for i, line in enumerate(_SOURCE.splitlines(), 1) if line.endswith("# code")]


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(_SOURCE)
    assert code_lines(path) == len(_CODE) == 11
    # A file of docstrings, comments and blank lines alone holds no code.
    bare = tmp_path / "bare.py"
    bare.write_text('"""Only a docstring."""\n\n# and a comment\n')
    assert code_lines(bare) == 0


def test_code_lines_prints_each_file_and_the_total(monkeypatch, capsys, tmp_path):
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text(_SOURCE)
    second.write_text('x = max(1,\n        2)\n')  # a call over two lines counts two
    monkeypatch.setattr(sys, "argv", ["code_lines.py", str(first), str(second)])
    runpy.run_path(str(_TOOLS / "code_lines.py"), run_name="__main__")
    assert capsys.readouterr().out.splitlines() == [
        f"    11 {first}", f"     2 {second}", "    13 total",
    ]


def test_code_lines_expands_a_directory_to_its_sorted_python_files(monkeypatch, capsys, tmp_path):
    # A directory counts as its *.py files in sorted order, as a shell glob
    # names them; other files and subdirectories are left out.
    (tmp_path / "b.py").write_text("y = 2\n")
    (tmp_path / "a.py").write_text(_SOURCE)
    (tmp_path / "notes.txt").write_text("z = 3\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "c.py").write_text("w = 4\n")
    lone = tmp_path / "sub" / "c.py"
    monkeypatch.setattr(sys, "argv", ["code_lines.py", str(tmp_path), str(lone)])
    runpy.run_path(str(_TOOLS / "code_lines.py"), run_name="__main__")
    assert capsys.readouterr().out.splitlines() == [
        f"    11 {tmp_path / 'a.py'}", f"     1 {tmp_path / 'b.py'}", f"     1 {lone}", "    13 total",
    ]


# ---------------------------------------------------------------------------
# tools/bench_pairs.py
# ---------------------------------------------------------------------------

_END_TO_END = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
               {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}]


def _run_line(ops_per_s, op_p50_ms, failed=0):
    # The last stdout line of perfbench/run.py, after its readable lines.
    metrics = {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
               "op_p50_ms": {"value": op_p50_ms, "unit": "ms"}}
    return (f"workload classify: seed 1\n  op_p50_ms {op_p50_ms}\n"
            + json.dumps({"correct": True, "attempted": 43, "failed": failed, "metrics": metrics}) + "\n")


def test_bench_pairs_reads_the_last_run_line():
    assert bench_pairs["parse_run"](_run_line(100.0, 0.5, failed=2)) == {
        "failed": 2, "attempted": 43, "metrics": {"ops_per_s": 100.0, "op_p50_ms": 0.5}}


def test_bench_pairs_summary_medians_quartiles_and_wins():
    # Five pairs. ops_per_s is better higher: the change wins pairs 0, 1
    # and 4, ties pair 2 and loses pair 3. op_p50_ms is better lower: it
    # wins all but the tie of pair 4.
    parse = bench_pairs["parse_run"]
    pairs = [(parse(_run_line(a, b)), parse(_run_line(c, d))) for a, b, c, d in [
        (100.0, 0.50, 110.0, 0.40), (90.0, 0.60, 95.0, 0.45), (80.0, 0.55, 80.0, 0.50),
        (120.0, 0.70, 100.0, 0.65), (70.0, 0.40, 75.0, 0.40)]]
    rows = bench_pairs["summarize"](pairs, _END_TO_END)
    parent_ops, parent_p50 = [90.0, 100.0, 80.0, 120.0, 70.0], [0.50, 0.60, 0.55, 0.70, 0.40]
    q_ops = statistics.quantiles(parent_ops, n=4, method="inclusive")
    q_p50 = statistics.quantiles(parent_p50, n=4, method="inclusive")
    assert rows[0] == ("ops_per_s", "1/s", 90.0, 95.0, 95.0 / 90.0 - 1.0, q_ops[0], q_ops[2], 3, "within bound")
    assert rows[1] == ("op_p50_ms", "ms", 0.55, 0.45, 0.45 / 0.55 - 1.0, q_p50[0], q_p50[2], 4, "within bound")
    lines = bench_pairs["table"](pairs, _END_TO_END).splitlines()
    assert lines[0].split() == ["metric", "unit", "parent", "change", "diff", "parent", "q1", "parent", "q3",
                                "change", "wins", "verdict"]
    assert lines[1].split() == ["ops_per_s", "1/s", "90", "95", "+5.6%", "80", "100", "3/5", "within", "bound"]
    assert lines[2].split() == ["op_p50_ms", "ms", "0.55", "0.45", "-18.2%", "0.5", "0.6", "4/5", "within", "bound"]
    assert lines[3:] == ["parent failed ops per run: 0, 0, 0, 0, 0 of 43",
                         "change failed ops per run: 0, 0, 0, 0, 0 of 43"]


_HIGHER, _LOWER = _END_TO_END  # bound 0.25 on both
_PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]  # median 100, q3 - q1 = 2


@pytest.mark.parametrize("after, spec, want", [
    # 10 of 10 wins, median +10 against a spread of 2.
    ([110.0] * 10, _HIGHER, "gain"),
    # The same runs read on a lower-is-better metric: -10% is no regression.
    ([110.0] * 10, _LOWER, "within bound"),
    # 9 of 10 wins is a gain; 8 of 10 is not, however large the median move.
    ([110.0] * 9 + [90.0], _HIGHER, "gain"),
    ([110.0] * 8 + [90.0] * 2, _HIGHER, "within bound"),
    # 10 wins but the median moves +1.5, inside the spread of 2.
    ([p + 1.5 for p in _PARENT], _HIGHER, "within bound"),
    # -30% against a 25% bound, either way round.
    ([70.0] * 10, _HIGHER, "worse"),
    ([130.0] * 10, _LOWER, "worse"),
    # -20% is inside the bound.
    ([80.0] * 10, _HIGHER, "within bound"),
])
def test_bench_pairs_verdict_on_steady_parents(after, spec, want):
    assert bench_pairs["verdict"](_PARENT, after, spec) == want


def test_bench_pairs_verdict_on_a_parent_spread_wider_than_the_bound():
    # The parent's quartiles 70 and 130 are 60% apart: a median move of
    # +10% is unresolved, unless every change run beats every parent run;
    # past the bound the change still reads worse.
    parent = [60.0, 70.0, 70.0, 100.0, 130.0, 130.0, 140.0]
    assert bench_pairs["quartiles"](parent) == (70.0, 100.0, 130.0)
    verdict = bench_pairs["verdict"]
    assert verdict(parent, [110.0] * 7, _HIGHER) == "unresolved"
    assert verdict(parent, [141.0, 150.0, 141.0, 150.0, 141.0, 150.0, 150.0], _HIGHER) == "within bound"
    assert verdict(parent, [50.0] * 7, _HIGHER) == "worse"


def test_bench_pairs_quartiles_of_one_run_are_its_value():
    assert bench_pairs["quartiles"]([0.25]) == (0.25, 0.25, 0.25)


def _fake_checkout(path, op_p50_ms, log, exit_code=0):
    # A checkout whose perfbench/run.py logs its side and seed, then prints
    # a run line: a stand-in for the benchmark, which these tests never run.
    (path / "perfbench").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": _END_TO_END}))
    (path / "perfbench" / "run.py").write_text(
        "import sys\n"
        "seed = sys.argv[sys.argv.index('--seed') + 1]\n"
        f"open({str(log)!r}, 'a').write({path.name!r} + ' ' + seed + '\\n')\n"
        f"sys.stdout.write({_run_line(100.0, op_p50_ms)!r})\n"
        f"sys.exit({exit_code})\n")
    return str(path)


def test_bench_pairs_alternates_the_sides_on_one_seed_per_pair(capsys, tmp_path):
    log = tmp_path / "order.log"
    parent = _fake_checkout(tmp_path / "parent", 0.5, log)
    change = _fake_checkout(tmp_path / "change", 0.4, log)
    bench_pairs["main"]([parent, change, "--workload", "classify", "--pairs", "3", "--seconds", "1",
                         "--seed", "7"])
    assert log.read_text().split("\n")[:-1] == ["parent 7", "change 7", "change 8", "parent 8", "parent 9",
                                                  "change 9"]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "pair 0: seed 7, parent first, op_p50_ms 0.5 -> 0.4"
    assert out[1] == "pair 1: seed 8, change first, op_p50_ms 0.5 -> 0.4"
    assert out[4].split()[-3:] == ["0/3", "within", "bound"]  # ops_per_s, 100 on both sides
    assert out[5].split()[-2:] == ["3/3", "gain"]


def test_bench_pairs_stops_at_a_failed_run(tmp_path):
    log = tmp_path / "order.log"
    parent = _fake_checkout(tmp_path / "parent", 0.5, log)
    change = _fake_checkout(tmp_path / "change", 0.4, log, exit_code=1)
    with pytest.raises(SystemExit, match="seed 1 exited 1"):
        bench_pairs["main"]([parent, change, "--workload", "classify", "--pairs", "2", "--seconds", "1"])
    assert log.read_text() == "parent 1\nchange 1\n"
