"""End-to-end runs of every subcommand through main(argv)."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

import pdi_lab
from pdi_lab.cli import RunReport, main, run


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


def test_report_shape_and_provenance(capsys):
    _, report, _ = run_cli(
        capsys, "exponents", "--dim", "3", "--p", "2", "--gamma", "4"
    )
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
    assert "error" in report
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
    assert report["results"]["final_residual"] > 1e-10


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


SOLVE = ["solve", "--dim", "3", "--p", "2", "--gamma", "2", "--r-out", "1"]


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
    ],
    ids=" ".join,
)
def test_bad_input_exits_2_with_one_line(capsys, argv):
    rc, _, cap = run_cli(capsys, *argv)
    assert rc == 2
    assert cap.out == ""
    assert "Traceback" not in cap.err
    assert cap.err.startswith("error: ") and cap.err.count("\n") == 1
