"""End-to-end runs of every subcommand through main(argv)."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import pdi_lab
from pdi_lab.cli import COMMANDS, REQUIRED, RunReport, _sweep_rows, main, run
from pdi_lab.errors import PreconditionViolation
from pdi_lab.params import LiouvilleRegime, ProblemParams, classify_regime, exponent_report


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.startswith("{") else None
    return rc, report, captured


def test_exponents_e2e(capsys):
    rc, report, cap = run_cli(
        capsys, "exponents", "--dim", "3", "--p", "2", "--gamma", "4", "--q", "inf"
    )
    assert rc == 0
    assert report["passed"] is True
    assert report["results"]["alpha"] == 0.6666666666666666
    assert report["results"]["s"] == 1.3333333333333333
    assert report["results"]["gamma_star"] == 1.5
    assert "exponents: PASS" in cap.err


def test_exponents_finite_q(capsys):
    rc, report, _ = run_cli(
        capsys, "exponents", "--dim", "3", "--p", "2", "--gamma", "3", "--q", "2"
    )
    assert rc == 0
    assert report["results"]["alpha"] == 0.5
    assert report["params"]["q"] == 2.0


@pytest.mark.parametrize(
    "argv",
    [
        ["exponents", "--dim", "3", "--p", "2", "--gamma", "4"],
        # exit 1: no admissible bump scale; a failure report has the same shape
        ["verify-bump", "--dim", "3", "--p", "2", "--gamma", "1.4"],
    ],
    ids=" ".join,
)
def test_report_shape_and_provenance(capsys, argv):
    _, report, _ = run_cli(capsys, *argv)
    assert set(report) == {"command", "params", "results", "provenance", "passed"}
    assert set(report["provenance"]) == {"version", "seed", "config_hash"}
    assert report["params"]["q"] == "inf"


def test_run_accepts_token_sequence(capsys):
    rc = run(["exponents", "--dim", "3", "--p", "2", "--gamma", "4"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["results"]["alpha"] == 2.0 / 3.0


def test_report_round_trips_losslessly():
    rep = RunReport(
        command="exponents",
        params={"dim": 3, "p": 2.0},
        results={"alpha": 2.0 / 3.0},
        provenance={"version": "0", "seed": 0, "config_hash": "aa"},
        passed=True,
    )
    again = RunReport(**json.loads(json.dumps(rep.as_dict())))
    assert again == rep


def test_verify_sharpness_e2e(capsys):
    rc, report, _ = run_cli(
        capsys, "verify-sharpness", "--dim", "3", "--p", "2", "--gamma", "4"
    )
    assert rc == 0
    assert report["passed"] is True
    assert report["results"]["max_abs_residual"] < 1e-8
    assert abs(report["results"]["c"] ** 3) == pytest.approx(45.0 / 8.0, rel=1e-12)


def test_verify_bump_witness_found(capsys):
    rc, report, _ = run_cli(
        capsys, "verify-bump", "--dim", "3", "--p", "2", "--gamma", "1.8"
    )
    assert rc == 0
    assert report["results"]["c"] == pytest.approx(2.7918145773, rel=1e-10)
    assert report["results"]["min_residual"] >= 0


def test_verify_bump_no_admissible_scale(capsys):
    # below the threshold no bounded supersolution scale exists
    rc, report, cap = run_cli(
        capsys, "verify-bump", "--dim", "3", "--p", "2", "--gamma", "1.4"
    )
    assert rc == 1
    assert report["passed"] is False
    assert "error" in report["results"]
    assert "FAIL" in cap.err


def test_solve_e2e_with_csv_output(capsys, tmp_path):
    out = tmp_path / "u.csv"
    rc, report, _ = run_cli(
        capsys,
        "solve", "--dim", "3", "--p", "2", "--gamma", "4",
        "--operator", "gmc:4", "--source", "power:1,0",
        "--r-out", "1", "--bc-right", "0", "--out", str(out),
    )
    assert rc == 0
    assert report["results"]["final_residual"] <= 1e-10
    assert report["results"]["recomputed_residual"] <= 1e-10
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "value"]
    assert len(rows) == 1 + 256
    assert float(rows[1][0]) == 0.0
    assert float(rows[-1][0]) == 1.0
    assert float(rows[-1][1]) == 0.0


def test_solve_at_roundoff_passes(capsys):
    # The 4096-node residual ends at ~2e-9, above --tol but within the
    # solver's roundoff term, where the solver itself reports convergence.
    rc, report, _ = run_cli(
        capsys,
        "solve", "--dim", "3", "--p", "2", "--gamma", "2",
        "--operator", "p-laplacian", "--source", "power:1,0",
        "--r-out", "1", "--bc-right", "0", "--nodes", "4096",
    )
    assert rc == 0
    assert report["passed"] is True
    results = report["results"]
    assert 1e-10 < results["final_residual"] <= 1e-10 + results["roundoff_floor"]


def test_solve_file_source_matches_power_source(capsys, tmp_path):
    src = tmp_path / "f.csv"
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["r", "value"])
        for k in range(33):
            w.writerow([k / 32.0, 4.0])
    base = [
        "solve", "--dim", "3", "--p", "2", "--gamma", "4",
        "--r-out", "1", "--bc-right", "0",
    ]
    rc1, rep1, _ = run_cli(capsys, *base, "--source", "power:4,0")
    rc2, rep2, _ = run_cli(capsys, *base, "--source", f"file:{src}")
    assert rc1 == rc2 == 0
    for key in ("u_left", "u_mid", "u_right", "u_min", "u_max"):
        assert rep1["results"][key] == rep2["results"][key]


def test_solve_singular_source_is_usage_error(capsys):
    rc, _, cap = run_cli(
        capsys,
        "solve", "--dim", "3", "--p", "2", "--gamma", "3",
        "--source", "power:1,2", "--r-out", "1", "--bc-right", "0",
    )
    assert rc == 2
    assert "error" in cap.err


@pytest.mark.parametrize(
    "content", [b"0.0\n0.5\n1.0\n", b"0,1\n\xd5\xff,2\n"], ids=["one-column", "not-utf8"]
)
def test_unreadable_csv_is_usage_error(capsys, tmp_path, content):
    src = tmp_path / "f.csv"
    src.write_bytes(content)
    rc, _, cap = run_cli(
        capsys,
        "solve", "--dim", "3", "--p", "2", "--gamma", "3",
        "--source", f"file:{src}", "--r-out", "1", "--bc-right", "0",
    )
    assert rc == 2
    assert cap.out == ""
    assert cap.err.startswith("error: ") and cap.err.count("\n") == 1


def test_audit_caccioppoli_e2e(capsys):
    rc, report, _ = run_cli(
        capsys, "audit-caccioppoli", "--dim", "3", "--p", "2", "--gamma", "4"
    )
    assert rc == 0
    assert report["results"]["predicted_s"] == 1.3333333333333333
    assert report["results"]["k_stable"] is True
    assert report["results"]["fitted_growth"] == pytest.approx(5.0 / 3.0, abs=0.05)


def test_audit_holder_deterministic(capsys):
    args = (
        "audit-holder", "--dim", "3", "--p", "2", "--gamma", "4",
        "--pairs", "5000", "--seed", "7",
    )
    rc1, _, cap1 = run_cli(capsys, *args)
    rc2, _, cap2 = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert cap1.out == cap2.out
    report = json.loads(cap1.out)
    assert abs(report["results"]["fitted_alpha"] - 2.0 / 3.0) <= 0.05


def test_morrey_centered_value(capsys):
    rc, report, _ = run_cli(
        capsys, "morrey", "--source", "power:1,1", "--theta", "1.5", "--s-index", "1"
    )
    assert rc == 0
    assert report["results"]["value"] == pytest.approx(2.0 * math.pi, rel=1e-9)
    assert report["results"]["argmax_radius"] == pytest.approx(1.0)
    assert report["results"]["divergent"] is False


def test_morrey_divergent_weight(capsys):
    rc, report, _ = run_cli(
        capsys, "morrey", "--source", "power:1,2", "--theta", "1.5", "--s-index", "1"
    )
    assert rc == 0
    assert report["results"]["divergent"] is True
    assert report["results"]["value"] == "DIVERGENT"


def test_morrey_nonintegrable_is_usage_error(capsys):
    rc, _, cap = run_cli(
        capsys, "morrey", "--source", "power:1,3", "--theta", "1.5", "--s-index", "1"
    )
    assert rc == 2
    assert "error" in cap.err


def test_liouville_threshold_side(capsys):
    rc, report, _ = run_cli(
        capsys, "liouville", "--dim", "3", "--p", "2", "--gamma", "1.4"
    )
    assert rc == 0
    assert report["results"]["verdict"] == "LIOUVILLE"
    assert report["results"]["mechanism"] == "CLOSED_FORM_THRESHOLD"
    assert report["results"]["witness"] is None


def test_liouville_witness_side(capsys):
    rc, report, _ = run_cli(
        capsys, "liouville", "--dim", "3", "--p", "2", "--gamma", "4"
    )
    assert rc == 0
    assert report["results"]["verdict"] == "NO_LIOUVILLE"
    assert report["results"]["witness_ok"] is True


def test_liouville_bump_witness_near_threshold(capsys):
    # gamma* = 0.23749999999999993: the bump scale is about 1e-303, where
    # a scan of c w itself runs in subnormal arithmetic; the unit-scale
    # certificate passes
    rc, report, _ = run_cli(
        capsys, "liouville", "--dim", "5", "--p", "1.19", "--gamma", "0.2375"
    )
    assert rc == 0
    assert report["results"]["witness"]["family"] == "BumpProfile"
    assert 0 < report["results"]["witness"]["c"] < 1e-300
    assert report["results"]["witness_ok"] is True


def test_liouville_gamma_equals_p(capsys):
    rc, report, _ = run_cli(
        capsys, "liouville", "--dim", "3", "--p", "2", "--gamma", "2"
    )
    assert rc == 0
    assert report["results"]["verdict"] == "NO_LIOUVILLE"
    assert report["results"]["witness_note"] == "WITNESS_UNAVAILABLE"


def test_manifold_euclidean_and_exponential(capsys):
    rc, report, _ = run_cli(
        capsys, "manifold", "--profile", "euclidean", "--dim", "3",
        "--p", "2", "--gamma", "1.4",
    )
    assert rc == 0
    assert report["results"]["verdict"] == "LIOUVILLE"
    assert report["results"]["mechanism"] == "AREA_INTEGRAL_DIVERGES"
    rc, report, _ = run_cli(
        capsys, "manifold", "--profile", "exp:1,1", "--p", "2", "--gamma", "1.2"
    )
    assert rc == 0
    assert report["results"]["verdict"] == "INCONCLUSIVE"
    assert report["results"]["mechanism"] == "AREA_INTEGRAL_CONVERGES"


@pytest.mark.parametrize("beta", ["1e307", "1e308"])
def test_manifold_huge_power_area_converges(capsys, beta):
    # at beta = 1e308 the threshold (beta + 1)(p - 1)/beta overflows
    rc, report, _ = run_cli(
        capsys, "manifold", "--profile", f"power:1,{beta}", "--p", "3", "--gamma", "2.5"
    )
    assert rc == 0
    assert report["results"]["verdict"] == "INCONCLUSIVE"
    assert report["results"]["mechanism"] == "AREA_INTEGRAL_CONVERGES"


def test_manifold_numeric_mode(capsys):
    rc, report, _ = run_cli(
        capsys, "manifold", "--profile", "power:1,2", "--p", "2",
        "--gamma", "1.4", "--mode", "numeric",
    )
    assert rc == 0
    assert report["results"]["verdict"] == "LIOUVILLE"


def test_sigma_bound_e2e(capsys):
    rc, report, _ = run_cli(
        capsys,
        "sigma-bound", "--dim", "3", "--p", "2", "--gamma", "2",
        "--sigma-r", "0.4", "--radius-inner", "1", "--radius-outer", "10",
    )
    assert rc == 0
    assert report["results"]["lhs"] == 2.5
    assert report["results"]["rhs"] > 0
    assert report["results"]["contradiction"] is False


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["solve", "--dim", "3", "--p", "2", "--gamma", "4"]) == 2
    capsys.readouterr()


def test_module_entry_point():
    # The child imports the same pdi_lab as this process, installed or not.
    package_root = os.path.dirname(os.path.dirname(pdi_lab.__file__))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "pdi_lab.cli", "exponents",
         "--dim", "3", "--p", "2", "--gamma", "4"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["alpha"] == 0.6666666666666666


def test_sweep_cartesian_product_sorted(capsys):
    rc = main([
        "sweep", "--dim", "3,4", "--p", "2", "--gamma", "0.9,1.4,4", "--q", "inf,2",
    ])
    cap = capsys.readouterr()
    assert rc == 0
    rows = list(csv.DictReader(cap.out.splitlines()))
    assert len(rows) == 2 * 1 * 3 * 2
    keys = [
        (int(r["dim"]), float(r["p"]), float(r["gamma"]), float(r["q"]))
        for r in rows
    ]
    assert keys == sorted(keys)
    by_gamma = {(r["dim"], r["gamma"], r["q"]): r for r in rows}
    # gamma below p - 1 is not an admissible problem
    assert by_gamma[("3", "0.9", "inf")]["verdict"] == "INVALID"
    assert by_gamma[("3", "1.4", "inf")]["verdict"] == "LIOUVILLE"
    assert by_gamma[("3", "4.0", "inf")]["verdict"] == "NO_LIOUVILLE"
    assert by_gamma[("3", "4.0", "inf")]["alpha"] == "0.6666666666666666"
    assert by_gamma[("3", "0.9", "inf")]["alpha"] == ""


def test_sweep_range_syntax_and_outfile(capsys, tmp_path):
    out = tmp_path / "table.csv"
    rc = main([
        "sweep", "--dim", "3", "--p", "2", "--gamma", "1.2:2.0:0.2",
        "--out", str(out),
    ])
    capsys.readouterr()
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["gamma"] for r in rows] == ["1.2", "1.4", "1.6", "1.8", "2.0"]


def _reference_sweep_row(point):
    """The cells of one sweep point from its own reports, point by point."""
    dim, p, gamma, q = point
    try:
        params = ProblemParams(dim=dim, p=p, gamma=gamma, q=q)
    except PreconditionViolation:
        return point + ("", "", "", "", "", "INVALID")
    rep = exponent_report(params)
    alpha = "" if rep.alpha is None else repr(rep.alpha)
    if rep.gamma_star is None:
        return point + (alpha, repr(rep.s), "", "", "", "INVALID")
    regime = classify_regime(params)
    verdict = "NO_LIOUVILLE" if regime.liouville is LiouvilleRegime.SUPERCRITICAL else "LIOUVILLE"
    return point + (
        alpha, repr(rep.s), repr(rep.gamma_star), regime.growth.value, regime.liouville.value,
        verdict,
    )


def test_sweep_rows_match_the_per_point_reports():
    inf = math.inf
    edges = [-inf, -1.0, 0.0, 0.5, 1.0, math.nextafter(1.0, 2.0), 1.0000001, 1.5,
             math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 3.0), 2.5, 3.0, 4.0, 7.5, 1e300, inf]
    gammas = sorted(set(edges + [p - 1 for p in edges] + [0.6, 1.2, 4 / 3, 2.25, 5.0, 1e3]))
    # q = 9/4 ties both arms of alpha and of s at (3, 2, 4, q)
    points = [
        (dim, p, gamma, q)
        for dim in range(11) for p in edges for gamma in gammas
        for q in (-inf, 0.5, 1.0, 2.0, 2.25, 6.0, 1e300, inf)
    ]
    # gamma at gamma* and at both of its float neighbours
    for dim in range(2, 11):
        for k in range(101, 100 * dim, 2):
            p = k / 100
            star = dim * (p - 1) / (dim - 1)
            for gamma in (math.nextafter(star, 0.0), star, math.nextafter(star, inf)):
                points += [(dim, p, gamma, inf), (dim, p, gamma, 4.0)]
    rows = _sweep_rows(points)
    assert rows == [_reference_sweep_row(point) for point in points]
    assert len(points) >= 50_000
    assert sum(row[8] == "critical" for row in rows) >= 4_000
    assert sum(row[9] == "INVALID" for row in rows) >= 20_000
    assert sum(row[4] != "" for row in rows) >= 4_000


SOLVE = ["solve", "--dim", "3", "--p", "2", "--gamma", "2", "--r-out", "1"]


def _write_typo_csv(tmp_path):
    """A 33-row constant source whose 17th row reads 4.O for 4.0."""
    path = tmp_path / "typo.csv"
    rows = [f"{k / 32.0},{'4.O' if k == 16 else '4.0'}" for k in range(33)]
    path.write_text("r,value\n" + "\n".join(rows) + "\n")
    return path


def test_csv_row_that_does_not_parse_is_named(capsys, tmp_path):
    # Only the first row may be a header; a typo in row 17 (line 18) is an
    # error, not a dropped sample.
    typo_csv = _write_typo_csv(tmp_path)
    rc, _, cap = run_cli(capsys, *SOLVE, "--bc-right", "0", "--source", f"file:{typo_csv}")
    assert rc == 2
    assert "line 18" in cap.err and "4.O" in cap.err


@pytest.mark.parametrize(
    "argv",
    [
        ["exponents", "--dim", "3", "--p", "2", "--gamma", "4", "--q", "inf", "--lambda", "nan"],
        ["morrey", "--source", "power:1,1", "--theta", "1.5", "--s-index", "nan"],
        SOLVE + ["--bc-right", "nan"],
        SOLVE + ["--bc-right", "0", "--bc-left", "x"],
        SOLVE + ["--bc-right", "0", "--source", "file:/nonexistent"],
        ["audit-caccioppoli", "--dim", "3", "--p", "2", "--gamma", "4", "--radius", "nan"],
        ["audit-caccioppoli", "--dim", "3", "--p", "2", "--gamma", "4", "--radius", "0"],
        ["audit-caccioppoli", "--dim", "3", "--p", "2", "--gamma", "4", "--radius", "inf"],
        ["morrey", "--source", "power:1,1", "--theta", "1.5", "--omega-radius", "inf"],
        ["exponents", "--dim", "3", "--p", "2", "--gamma", "4", "--c-h", "inf"],
        ["exponents", "--dim", "3", "--p", "2", "--gamma", "4", "--nu", "inf"],
        ["exponents", "--dim", "3", "--p", "2", "--gamma", "4", "--lambda", "inf"],
        ["manifold", "--profile", "exp:1,nan", "--p", "2", "--gamma", "1.4"],
        ["manifold", "--profile", "power:1,nan", "--p", "2", "--gamma", "1.4"],
        ["morrey", "--source", "power:1,1", "--theta", "1.5", "--centers", "0"],
        ["morrey", "--source", "power:1,nan", "--theta", "1.5"],
        SOLVE + ["--bc-right", "0", "--tol", "nan"],
        ["audit-holder", "--dim", "3", "--p", "2", "--gamma", "4", "--pairs", "0"],
        ["verify-sharpness", "--dim", "3", "--p", "2", "--gamma", "4", "--nodes", "1"],
        ["exponents", "--dim", "3", "--p", "2", "--gamma", "inf"],
        SOLVE[:-2] + ["--r-out", "inf", "--bc-right", "0"],
        ["sweep", "--dim", "inf", "--p", "2", "--gamma", "3"],
        ["sweep", "--dim", "nan", "--p", "2", "--gamma", "3"],
        ["sweep", "--dim", "1e400", "--p", "2", "--gamma", "3"],
        ["sweep", "--dim", "2.5", "--p", "2", "--gamma", "3"],
        ["sweep", "--dim", "3", "--p", "2", "--gamma", "0:inf:1"],
        ["sweep", "--dim", "3", "--p", "2", "--gamma", "1:3:inf"],
        # Sorting has no order for NaN, so a NaN in any list is refused.
        ["sweep", "--dim", "3,nan", "--p", "2", "--gamma", "3"],
        ["sweep", "--dim", "3", "--p", "nan,2", "--gamma", "3,nan,1.5"],
        ["sweep", "--dim", "3", "--p", "2,nan", "--gamma", "1.5,nan,3"],
        ["sweep", "--dim", "3", "--p", "2", "--gamma", "3", "--q", "inf,nan"],
        ["audit-holder", "--dim", "3", "--p", "2", "--gamma", "4", "--pairs", "50", "--seed=-1"],
        ["verify-bump", "--dim", "3", "--p", "2", "--gamma", "1.8", "--grid-max=-inf"],
        SOLVE + ["--bc-right", "0", "--source", "file:{typo_csv}"],
    ],
    ids=" ".join,
)
def test_bad_input_exits_2_with_one_line(capsys, tmp_path, argv):
    typo_csv = _write_typo_csv(tmp_path)
    rc, _, cap = run_cli(capsys, *(a.format(typo_csv=typo_csv) for a in argv))
    assert rc == 2
    assert cap.out == ""
    assert "Traceback" not in cap.err
    assert cap.err.startswith("error: ") and cap.err.count("\n") == 1


# ---------------------------------------------------------------------------
# Arbitrary argv: every outcome is an exit code and clean output
# ---------------------------------------------------------------------------

_NUMBERS = ("2", "3", "4", "1.5", "2.5", "0.5", "0", "-1", "nan", "inf", "-inf", "1e400", "x")
_COUNTS = ("0", "1", "2", "3", "-1", "x", "1e400")
_SPECS = (
    "zero", "power:1,0", "power:1,1", "power:1", "power:x,1", "power:nan,inf", "exp:1,1",
    "exp:1,nan", "euclidean", "gmc:4", "gmc:", "mean-curvature", "p-laplacian", "sharpness",
    "linear", "file:/nonexistent/f.csv", "file:", "bogus", "",
)
_LISTS = ("3", "2,3", "nan", "inf", "1e400", "2.5", "-1", "1:2:0.5", "0:inf:1", "1:3:inf", "1:2", "x", "")
_POOLS = {
    "--nodes": _COUNTS, "--pairs": _COUNTS, "--centers": _COUNTS, "--seed": _COUNTS,
    "--operator": _SPECS, "--source": _SPECS, "--witness": _SPECS, "--profile": _SPECS,
    "--mode": ("analytic", "numeric", "x"), "--weight": ("none", "exp", "x"),
    "--bc-left": _NUMBERS + ("none",),
}
# Kept present, so the work stays small whatever else is drawn.
_SIZE_FLAGS = ("--nodes", "--pairs", "--centers")
# The flags a valid, small invocation of each subcommand sets; every
# other flag of its COMMANDS row keeps the table's default.
_SET = {
    "exponents": "--dim 3 --p 2 --gamma 4",
    "verify-sharpness": "--dim 3 --p 2 --gamma 4 --nodes 17",
    "verify-bump": "--dim 3 --p 2 --gamma 1.8 --nodes 17",
    "solve": "--dim 3 --p 2 --gamma 2 --source power:1,0 --r-in 0.5 --bc-left 1 "
    "--bc-right 0 --nodes 17",
    "audit-caccioppoli": "--dim 3 --p 2 --gamma 4",
    "audit-holder": "--dim 3 --p 2 --gamma 4 --pairs 17",
    "morrey": "--source power:1,1 --theta 1.5 --centers 2",
    "liouville": "--dim 3 --p 2 --gamma 1.4",
    "manifold": "--profile power:1,2 --p 2 --gamma 1.4 --mode numeric",
    "sigma-bound": "--dim 3 --p 2 --gamma 1.4 --sigma-r 1 --radius-inner 1 --radius-outer 10",
    "sweep": "--dim 3,4 --p 2 --gamma 1:2:0.5 --q inf",
}
_ROWS = {name: flags for name, _, flags, _ in COMMANDS}


def _valid_flags(command) -> dict:
    """flag -> value of one valid, small invocation: the table's defaults,
    then ``_SET``."""
    flags = {
        flag: str(default)
        for flag, _, default in _ROWS[command]
        if default is not REQUIRED and default is not None
    }
    tokens = _SET[command].split()
    flags.update(zip(tokens[::2], tokens[1::2]))
    return flags


def _argv_of(command, flags) -> list:
    # "--flag=value" keeps values such as "-1" from reading as flags.
    return [command] + [f"{flag}={value}" for flag, value in flags.items()]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_ROWS)))
    flags = _valid_flags(command)
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True)):
        pool = _LISTS if command == "sweep" else _POOLS.get(flag, _NUMBERS)
        value = draw(st.sampled_from(pool if flag in _SIZE_FLAGS else pool + (None,)))
        if value is None:
            del flags[flag]
        else:
            flags[flag] = value
    return _argv_of(command, flags)


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
# Stiff solves whose trial iterates overflow: still one FAIL line, no warnings.
@example(["solve", "--dim=3", "--p=8", "--gamma=7.5", "--source=power:1e8,0", "--bc-right=0",
          "--nodes=64"])
@example(["solve", "--dim=3", "--p=8", "--gamma=7.5", "--operator=gmc:8",
          "--source=power:1e9,0", "--bc-right=0", "--nodes=64"])
def test_any_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc in (0, 1):
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    text = out.getvalue()
    if rc == 2:
        assert text == ""
    elif argv[0] == "sweep":
        rows = list(csv.reader(text.splitlines()))
        assert rows[0][:4] == ["dim", "p", "gamma", "q"]
        assert all(len(row) == 10 for row in rows)
    else:
        assert text.count("\n") == 1
        json.loads(text)


# A different valid value for each spec flag; numbers move by one step.
_OTHER_SPEC = {
    "--operator": "gmc:4", "--source": "power:2,0", "--bc-left": "1.5", "--witness": "linear",
    "--profile": "power:1,3",
}


def _other_value(flag, kind, value, tmp_path) -> str:
    if isinstance(kind, tuple):
        return next(choice for choice in kind if choice != value)
    if flag == "--out":
        return str(tmp_path / "u.csv")
    if kind is str:
        return _OTHER_SPEC[flag]
    if kind is int:
        return str(int(value) + 1)
    return "8" if value == "inf" else str(float(value) + 0.05)


# Every flag of every subcommand but sweep, which writes CSV, not a report.
@pytest.mark.parametrize(
    "command, flag",
    [(name, flag) for name, flags in _ROWS.items() if name != "sweep" for flag, _, _ in flags],
)
def test_each_flag_moves_params_and_config_hash(capsys, tmp_path, command, flag):
    kind = next(kind for f, kind, _ in _ROWS[command] if f == flag)
    flags = _valid_flags(command)
    rc, base, _ = run_cli(capsys, *_argv_of(command, flags))
    assert rc == 0
    flags[flag] = _other_value(flag, kind, flags.get(flag), tmp_path)
    rc, report, _ = run_cli(capsys, *_argv_of(command, flags))
    assert rc in (0, 1)
    moved = {key for key, value in base["params"].items() if report["params"][key] != value}
    assert moved == {flag[2:].replace("-", "_")}
    assert report["provenance"]["config_hash"] != base["provenance"]["config_hash"]


def test_readme_lists_the_table():
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        block = fh.read().split("## CLI", 1)[1].split("```")[1]
    listed = [tuple(line.split(None, 2)[1:]) for line in block.strip().splitlines()]
    assert listed == [(name, help_text) for name, help_text, _, _ in COMMANDS]
