"""The tools on synthetic files: tools/op_latencies.py (each case's
fastest repetition, its rank and share, and the case or cases at the
median; two runs compared case by case) and tools/code_lines.py (the
lines that hold code)."""

import json
import pathlib
import runpy
import statistics
import sys

import pytest

_TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
_TOOL = _TOOLS / "op_latencies.py"
op_latencies = runpy.run_path(str(_TOOL))
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
