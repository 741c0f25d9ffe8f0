"""End-to-end runs of every subcommand through main(argv)."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from battery import FILES, GOLDEN, MOVES, SET

import pdi_lab
from pdi_lab import cli, liouville, radial
from pdi_lab.audit import caccioppoli_audit, holder_fit
from pdi_lab.cli import COMMANDS, REQUIRED, _sweep_rows, main, run
from pdi_lab.errors import PreconditionViolation
from pdi_lab.params import (
    LiouvilleRegime, ProblemParams, classify_regime, exponent_report,
)
from pdi_lab.radial import (
    BumpProfile, PLaplacian, PowerProfile, SampledProfile, sharpness_profile,
)
from pdi_lab.solver import RadialPowerSource, SolverConfig, solve_radial_dirichlet


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
    assert report["params"]["q"] == "inf"
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
    assert set(report["provenance"]) == {"version", "config_hash"}
    assert list(report["params"]) == [flag[2:].replace("-", "_") for flag, _, _ in _ROWS[argv[0]]]


def test_run_accepts_token_sequence(capsys):
    rc = run(["exponents", "--dim", "3", "--p", "2", "--gamma", "4"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["results"]["alpha"] == 2.0 / 3.0


def test_verify_sharpness_e2e(capsys):
    rc, report, _ = run_cli(
        capsys, "verify-sharpness", "--dim", "3", "--p", "2", "--gamma", "4"
    )
    assert rc == 0
    assert report["passed"] is True
    assert report["results"]["max_abs_residual"] < 1e-8
    assert abs(report["results"]["c"] ** 3) == pytest.approx(45.0 / 8.0, rel=1e-12)
    # --c-h scales the explicit solution, which still passes
    rc, report, _ = run_cli(
        capsys, "verify-sharpness", "--dim", "3", "--p", "2", "--gamma", "4", "--c-h", "2"
    )
    assert rc == 0 and report["results"]["max_abs_residual"] < 1e-8
    assert abs(report["results"]["c"] ** 3) == pytest.approx(45.0 / 16.0, rel=1e-12)


@pytest.mark.parametrize("c_h", ["1e-30", "1e-300"])
def test_verify_sharpness_scans_the_c_h_one_profile(capsys, c_h):
    # The c_h profile is k u for the c_h = 1 profile u, k = c_h^(-1/3) here,
    # and its residual k^(p-1) times that of u; an absolute tolerance on the
    # scaled residual failed --c-h 1e-30 (0.0039) and overflowed at 1e-300.
    sharp = ["verify-sharpness", "--dim", "3", "--p", "2", "--gamma", "4"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, report, _ = run_cli(capsys, *sharp, "--c-h", c_h)
    _, unit, _ = run_cli(capsys, *sharp)
    assert rc == 0 and report["passed"] is True
    scaled = report["results"].pop("c")
    assert scaled == pytest.approx(unit["results"].pop("c") * float(c_h) ** (-1.0 / 3.0), rel=1e-14)
    assert report["results"] == unit["results"]


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
        # Comment rows are skipped, before the header and between samples.
        w.writerow(["# a constant source of 4"])
        w.writerow(["r", "value"])
        for k in range(33):
            w.writerow([k / 32.0, 4.0])
            if k == 16:
                w.writerow(["# the midpoint", "x"])
    base = [
        "solve", "--dim", "3", "--p", "2", "--gamma", "4",
        "--r-out", "1", "--bc-right", "0",
    ]
    rc1, rep1, _ = run_cli(capsys, *base, "--source", "power:4,0")
    rc2, rep2, _ = run_cli(capsys, *base, "--source", f"file:{src}")
    assert rc1 == rc2 == 0
    for key in ("u_left", "u_mid", "u_right", "u_min", "u_max"):
        assert rep1["results"][key] == rep2["results"][key]


@pytest.mark.parametrize("operator, p, gamma, unread_p", [
    ("mean-curvature", "2", "2.5", "4"),
    ("gmc:2", "2", "2.5", "4"),
    ("gmc:4", "2", "1.5", "8"),
    ("gmc:3", "1.5", "0.8", "3"),
])
def test_solve_checks_gamma_against_the_operator_growth_order(capsys, operator, p, gamma, unread_p):
    # Mean curvature and gmc:k have their own growth order (k/2 for k > 2,
    # any p in (1, 2] at k = 2) and never read --p: gamma must exceed that
    # order minus 1, whatever --p says.
    argv = ("solve", "--dim", "3", "--gamma", gamma, "--operator", operator,
            "--source", "power:1,0", "--bc-right", "0", "--nodes", "64")
    rc, report, _ = run_cli(capsys, *argv, "--p", p)
    rc_unread, report_unread, _ = run_cli(capsys, *argv, "--p", unread_p)
    assert rc == rc_unread == 0
    assert report_unread["results"] == report["results"]


def test_solve_refuses_gamma_below_the_operator_growth_order(capsys):
    # --p 1.5 would admit gamma = 0.9; gmc:4's order 2 does not.
    rc, _, cap = run_cli(capsys, "solve", "--dim", "3", "--p", "1.5", "--gamma", "0.9",
                         "--operator", "gmc:4", "--source", "power:1,0", "--bc-right", "0")
    assert rc == 2 and cap.err == "error: gamma must be finite and exceed p - 1 = 1.0, got 0.9\n"


@pytest.mark.parametrize("argv, name, value", [
    ("solve --dim 3 --p 2 --gamma 4 --source power:inf,0 --r-out 1 --bc-right 0", "amplitude", "inf"),
    ("morrey --source power:1,nan --theta 1.5", "beta", "nan"),
    ("solve --dim 3 --p 2 --gamma 4 --source power:1,0 --r-in 0.5 --bc-left=-inf --bc-right 0",
     "bc_left", "-inf"),
    ("solve --dim 3 --p 2 --gamma 4 --source power:1,0 --bc-right inf", "bc_right", "inf"),
    ("manifold --profile power:1,inf --p 2 --gamma 1.6", "beta", "inf"),
    ("manifold --profile exp:1,nan --p 2 --gamma 1.6", "kappa", "nan"),
])
def test_finite_only_inputs_exit_2_with_the_shared_message(capsys, argv, name, value):
    rc, _, cap = run_cli(capsys, *argv.split())
    assert rc == 2 and cap.err == f"error: {name} must be finite, got {value}\n"


@pytest.mark.parametrize("operator", ["mean-curvature", "gmc:2", "gmc:2.000001"])
def test_solve_gamma_floor_is_continuous_at_mean_curvature(capsys, operator):
    # gmc:k admits gamma > k/2 - 1; mean curvature, bounded by |s|^(p-1)
    # for every p in (1, 2], admits every gamma > 0, the k -> 2 limit.
    argv = ("solve", "--dim", "3", "--p", "1.5", "--operator", operator,
            "--source", "power:1,0", "--bc-right", "0", "--nodes", "64")
    for gamma in ("0.9", "0.5", "1e-3"):
        assert run_cli(capsys, *argv, "--gamma", gamma)[0] == 0
    rc, _, cap = run_cli(capsys, *argv, "--gamma", "0")
    assert rc == 2 and cap.err.startswith("error: gamma must") and cap.err.endswith("got 0.0\n")


def test_solve_singular_source_is_usage_error(capsys):
    rc, _, cap = run_cli(
        capsys,
        "solve", "--dim", "3", "--p", "2", "--gamma", "3",
        "--source", "power:1,2", "--r-out", "1", "--bc-right", "0",
    )
    assert rc == 2
    assert "error" in cap.err


@pytest.mark.parametrize(
    "flags",
    [
        ("--p", "1.5", "--gamma", "1.2", "--bc-left", "1e200"),
        ("--p", "3", "--gamma", "3.5", "--bc-left", "1e160"),
        ("--operator", "gmc:4", "--p", "2", "--gamma", "2.5", "--bc-left", "1e200"),
    ],
    ids=["p1.5", "p3", "gmc4"],
)
def test_solve_leaving_the_float_range_is_a_fail_report(capsys, flags):
    # The first Newton iterate overflows, so the banded solve refuses it;
    # the solve stops with NoConvergence naming the eps stage.
    rc, report, cap = run_cli(
        capsys, "solve", "--dim", "3", *flags,
        "--r-in", "0.5", "--bc-right", "0", "--nodes", "64",
    )
    assert rc == 1
    assert report["passed"] is False
    assert report["results"]["error"].startswith("Newton step failed at eps=1.0e-02: ")
    assert cap.err.startswith("solve: FAIL (Newton step failed at eps=1.0e-02: ")
    assert cap.err.count("\n") == 1 and "Traceback" not in cap.err


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


@pytest.mark.parametrize(
    "argv, content, message",
    [
        (["morrey", "--theta", "1.5", "--source"], b"r,value\n0.5,1\n",
         "sampled source needs at least 2 nodes"),
        (["audit-holder", "--dim", "3", "--p", "2", "--gamma", "4", "--witness"],
         b"r,value\n0,1\n0,2\n", "sampled profile: grid must be strictly increasing"),
        (["manifold", "--p", "2", "--gamma", "1.4", "--profile"], b"r,value\n1,1\n2,0\n",
         "sampled area: values must be finite and positive, got 0.0"),
        (["morrey", "--theta", "1.5", "--source"], b"0,1\n\xd5\xff,2\n",
         "'utf-8' codec can't decode byte 0xd5 in position 4: invalid continuation byte"),
    ],
    ids=["source", "witness", "area", "not-utf8"],
)
def test_file_error_names_the_file(capsys, tmp_path, argv, content, message):
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    rc, _, cap = run_cli(capsys, *argv, f"file:{path}")
    assert rc == 2
    assert cap.err == f"error: {path}: {message}\n"


def test_audit_caccioppoli_e2e(capsys):
    rc, report, _ = run_cli(
        capsys, "audit-caccioppoli", "--dim", "3", "--p", "2", "--gamma", "4"
    )
    assert rc == 0
    assert report["results"]["predicted_s"] == 1.3333333333333333
    assert report["results"]["k_stable"] is True
    assert report["results"]["fitted_growth"] == pytest.approx(5.0 / 3.0, abs=0.05)
    # The sharp profile's energy is a pure power of t, so the fit meets
    # its growth target, dim - s, to rounding.
    target = report["results"]["growth_target"]
    assert abs(report["results"]["fitted_growth"] - target) <= 1e-12 * target


def _write_samples(path, grid, values):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["r", "value"])
        w.writerows(zip(grid.tolist(), values.tolist()))
    return f"file:{path}"


_PROBLEM_ARGS = ("--dim", "3", "--p", "2", "--gamma", "4")


@pytest.fixture
def sharp_samples(tmp_path):
    """The sharp profile for d = 3, p = 2, gamma = 4 on 4001 log-spaced
    radii from 1e-6 to 1, as a ``file:`` witness."""
    grid = np.geomspace(1e-6, 1.0, 4001)
    return _write_samples(tmp_path / "w.csv", grid, sharpness_profile(3, 2.0, 4.0).value(grid))


def test_audit_caccioppoli_file_witness_meets_the_sharp_witness(capsys, sharp_samples):
    # The exact energies of the samples' interpolant against the closed form.
    rc, sampled, _ = run_cli(capsys, "audit-caccioppoli", *_PROBLEM_ARGS, "--witness", sharp_samples)
    rc_sharp, sharp, _ = run_cli(capsys, "audit-caccioppoli", *_PROBLEM_ARGS)
    assert rc == rc_sharp == 0
    got, want = sampled["results"], sharp["results"]
    assert got["predicted_s"] == want["predicted_s"]
    assert got["growth_target"] == want["growth_target"]
    assert got["fitted_growth"] == pytest.approx(want["fitted_growth"], abs=1e-6)
    assert got["fitted_K"] == pytest.approx(want["fitted_K"], rel=2e-5)
    assert got["k_stable"] is True


def test_audit_holder_file_witness(capsys, sharp_samples):
    # A file witness has no predicted exponent; the fit on the samples
    # still finds the sharp profile's 2/3.
    args = ("audit-holder", *_PROBLEM_ARGS, "--witness", sharp_samples)
    rc, report, cap = run_cli(capsys, *args)
    assert rc == 0
    assert run_cli(capsys, *args)[2].out == cap.out
    results = report["results"]
    assert results["predicted_alpha"] is None
    assert results["fitted_alpha"] == pytest.approx(2.0 / 3.0, abs=5e-3)
    assert results["r_squared"] >= 0.999
    assert report["passed"] is True


def test_audit_holder_file_witness_is_the_library_fit(capsys, sharp_samples):
    # The report holds the exact gridded fit of the file's samples, at the
    # default scale range.
    rc, report, _ = run_cli(capsys, "audit-holder", *_PROBLEM_ARGS, "--witness", sharp_samples)
    assert rc == 0
    grid = np.geomspace(1e-6, 1.0, 4001)
    fit = holder_fit(SampledProfile(grid, sharpness_profile(3, 2.0, 4.0).value(grid)), 1,
                     (1e-3, 0.25))
    results = report["results"]
    assert results["fitted_alpha"] == fit.fitted_alpha
    assert results["r_squared"] == fit.r_squared
    assert results["bins"] == fit.scales.size


def test_audit_holder_sharp_witness_is_the_library_fit(capsys):
    # The closed-form fit of the sharp profile, judged against 2/3 at the
    # default tolerance.
    rc, report, _ = run_cli(capsys, "audit-holder", *_PROBLEM_ARGS)
    assert rc == 0
    fit = holder_fit(sharpness_profile(3, 2.0, 4.0), 1, (1e-3, 0.25),
                     predicted_alpha=2.0 / 3.0, tolerance=0.05)
    results = report["results"]
    assert results["fitted_alpha"] == fit.fitted_alpha
    assert results["r_squared"] == fit.r_squared
    assert results["predicted_alpha"] == fit.predicted_alpha
    assert results["bins"] == fit.scales.size
    assert report["passed"] is fit.passed is True


def test_audit_past_a_file_witness_grid_names_the_sampled_grid(capsys, sharp_samples):
    rc, _, cap = run_cli(capsys, "audit-caccioppoli", *_PROBLEM_ARGS, "--witness", sharp_samples,
                         "--radius", "5")
    assert rc == 2
    assert cap.err == "error: sampled profile queried outside its grid [1e-06, 1.0]\n"


def test_ball_solve_round_trips_through_a_file_witness(capsys, tmp_path):
    # A ball solve's grid starts at r = 0, and its --out file is a witness
    # both audits read to the bits of the in-memory solution: repr floats
    # round-trip, and np.interp is the solution's lookup bit for bit.
    out = tmp_path / "u.csv"
    problem = ("--dim", "3", "--p", "2", "--gamma", "2")
    rc, _, _ = run_cli(capsys, "solve", *problem, "--source", "power:1,0", "--bc-right", "0",
                       "--nodes", "129", "--out", str(out))
    assert rc == 0
    params = ProblemParams(dim=3, p=2.0, gamma=2.0)
    sol = solve_radial_dirichlet(PLaplacian(2.0), params, RadialPowerSource(1.0, 0.0), (0.0, 1.0),
                                 None, 0.0, SolverConfig(n_nodes=129))
    witness = ("--witness", f"file:{out}")

    rc, report, _ = run_cli(capsys, "audit-holder", *problem, *witness)
    assert rc == 0
    fit = holder_fit(sol, 20000, (1e-3, 0.25), seed=0)
    want = {"fitted_alpha": fit.fitted_alpha, "r_squared": fit.r_squared,
            "predicted_alpha": None, "bins": int(fit.scales.size)}
    assert json.dumps(report["results"]) == json.dumps(want)

    rc, report, _ = run_cli(capsys, "audit-caccioppoli", *problem, *witness)
    assert rc == 0
    audit = caccioppoli_audit(sol, params, 1.0, np.geomspace(0.02, 0.95, 24))
    want = {"predicted_s": audit.predicted_s, "growth_target": 3 - audit.predicted_s,
            "fitted_growth": audit.fitted_growth, "fitted_K": audit.fitted_K,
            "k_stable": audit.k_stable}
    assert json.dumps(report["results"]) == json.dumps(want)


@pytest.mark.parametrize(
    "gamma, verdict, mechanism",
    [("1.4", "LIOUVILLE", "AREA_INTEGRAL_DIVERGES"), ("1.6", "INCONCLUSIVE", "AREA_INTEGRAL_CONVERGES")],
)
def test_manifold_file_profile(capsys, tmp_path, gamma, verdict, mechanism):
    # The area 4 pi t^2 of R^3, tabulated on [1, 1e6]: the numeric test
    # finds the area integral divergent below gamma* = 3/2 and convergent
    # above it, as it does for ``--profile euclidean``; tabulated data get
    # no analytic decision, and no witness settles the convergent case.
    t = np.geomspace(1.0, 1e6, 400)
    profile = _write_samples(tmp_path / "area.csv", t, 4.0 * math.pi * t**2)
    base = ("manifold", "--profile", profile, "--dim", "3", "--p", "2", "--gamma", gamma)
    rc, numeric, _ = run_cli(capsys, *base, "--mode", "numeric")
    assert rc == 0
    assert numeric["results"] == {"verdict": verdict, "mechanism": mechanism, "gamma_star": None}
    rc, analytic, _ = run_cli(capsys, *base)
    assert rc == 0
    assert analytic["results"] == {"verdict": "INCONCLUSIVE", "mechanism": None, "gamma_star": None}


@pytest.mark.parametrize("scale_min, bins", [
    ("1e-16", 52), ("1e-30", 98), ("1e-300", 995), ("5e-324", 1073),
])
def test_audit_holder_subnormal_scale_min(capsys, scale_min, bins):
    # h_max / h_min overflows at the smallest subnormal; the fit still runs.
    # Every bin, floor(log2(0.25 / scale_min)) + 1 of them, keeps its
    # increment and lies on r^alpha.
    rc, report, cap = run_cli(capsys, "audit-holder", *_PROBLEM_ARGS, "--scale-min", scale_min)
    assert rc == 0 and "Traceback" not in cap.err
    results = report["results"]
    assert results["bins"] == bins
    assert abs(results["fitted_alpha"] - results["predicted_alpha"]) <= 1e-12 * results["predicted_alpha"]


def test_audit_holder_deterministic(capsys):
    args = ("audit-holder", "--dim", "3", "--p", "2", "--gamma", "4")
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
    assert report["results"]["value"] == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert report["results"]["argmax_radius"] == 1.0
    assert report["results"]["divergent"] is False
    assert report["results"]["exact"] is True


def test_morrey_values_across_the_float_range(capsys):
    # 2 pi rho is reported although the mass 2 pi rho^2 underflows; a value
    # past the float range exits 2 with one line, as sigma-bound does.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, report, _ = run_cli(capsys, "morrey", "--source", "power:1,1", "--theta", "2",
                                "--omega-radius", "1e-200")
        assert rc == 0 and report["results"]["exact"] is True
        assert abs(report["results"]["value"] - 6.283185307179586e-200) <= math.ulp(6.283185307179586e-200)
        rc, report, cap = run_cli(capsys, "morrey", "--source", "power:1,0", "--theta", "3",
                                  "--omega-radius", "1e200")
    assert rc == 2 and report is None
    assert cap.err == "error: the Morrey value leaves the float range\n"


def test_morrey_past_the_gamma_overflow_of_the_ball_volume(capsys):
    # the mass of |x|^-1 on the unit ball, d omega_d / (d - 1), where
    # math.gamma(d/2 + 1) overflows
    rc, report, _ = run_cli(capsys, "morrey", "--source", "power:1,1", "--theta", "2", "--dim", "342")
    assert rc == 0
    want = 342 / 341 * pdi_lab.params.unit_ball_volume(342)
    assert report["results"]["value"] == pytest.approx(want, rel=1e-14)
    assert 8.3e-225 < want < 8.4e-225


def test_morrey_divergent_weight(capsys):
    rc, report, _ = run_cli(
        capsys, "morrey", "--source", "power:1,2", "--theta", "1.5", "--s-index", "1"
    )
    assert rc == 0
    assert report["results"]["divergent"] is True
    assert report["results"]["value"] == "DIVERGENT"
    assert report["results"]["exact"] is True


def test_morrey_has_no_centers_flag(capsys):
    # Centred balls are the whole scan, so the flag that set the number of
    # off-centre samples is gone and argparse refuses it.
    rc, _, cap = run_cli(
        capsys, "morrey", "--source", "power:1,1", "--theta", "1.5", "--centers", "8"
    )
    assert rc == 2
    assert "unrecognized arguments: --centers" in cap.err


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


@pytest.mark.parametrize("command", ["verify-bump", "liouville"])
@pytest.mark.parametrize("c_h", ["1e-300", "5e-324"])
def test_bump_scale_past_the_float_range_is_a_witness(capsys, command, c_h):
    # The closed-form bump scale exceeds the float range: the report gives
    # c = inf next to its finite log10, and the unit-scale certificate,
    # which reads neither c nor c_h, passes.
    rc, report, cap = run_cli(
        capsys, command, "--dim", "3", "--p", "2", "--gamma", "1.8", "--c-h", c_h
    )
    assert rc == 0 and report["passed"] is True
    results = report["results"]
    witness = results["witness"] if command == "liouville" else results
    assert witness["c"] == "inf"
    # c = 2.7918145773062997 at c_h = 1, and c_h enters as c_h^(-1/0.8)
    want = math.log10(2.7918145773062997) - math.log10(float(c_h)) / 0.8
    assert witness["log10_c"] == pytest.approx(want, rel=1e-12)
    assert "Traceback" not in cap.err and cap.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        "liouville --dim 5 --p 1.01 --gamma 0.0125000001",  # c rounds to 0
        "verify-bump --dim 3 --p 2 --gamma 1.8 --c-h 1e-300",  # c exceeds the float range
        "liouville --dim 4 --p 3 --gamma 3.5 --c-h 1e-8",
        "liouville --dim 10 --p 8 --gamma 8.1",  # an entire power of residual ~1e-8
        "liouville --dim 3 --p 2 --gamma 3 --c-h 1e-200",
        "verify-bump --dim 3 --p 2 --gamma 1.8 --grid-max 1.7976931348623157e308",  # r * r overflows
    ],
)
def test_witnesses_at_any_scale_pass(capsys, argv):
    rc, report, _ = run_cli(capsys, *argv.split())
    results = report["results"]
    witness = results.get("witness", results)
    assert rc == 0 and report["passed"] is True
    assert isinstance(witness["log10_c"], float) and math.isfinite(witness["log10_c"])
    assert results.get("witness_ok", True) is True


def test_liouville_gamma_equals_p(capsys):
    rc, report, _ = run_cli(
        capsys, "liouville", "--dim", "3", "--p", "2", "--gamma", "2"
    )
    assert rc == 0
    assert report["results"]["verdict"] == "NO_LIOUVILLE"
    # gamma > gamma* decides it; no witness is built
    assert report["results"]["mechanism"] == "CLOSED_FORM_THRESHOLD"
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


@pytest.mark.parametrize("argv", [
    "--profile exp:1,0.5 --p 3 --gamma 2.5",
    "--profile exp:1,0.05 --p 2 --gamma 1.4",
    "--profile euclidean --dim 5 --p 3 --gamma 2.55",
    "--profile power:1,2 --p 2 --gamma 1.4 --t-start 5e-324",
    "--profile euclidean --dim 5 --p 2 --gamma 5 --t-start 1e100",
    "--profile exp:1,-50 --p 2 --gamma 2.5 --t-start 1e300",
    "--profile power:1e-300,-3 --p 1.01 --gamma 5",
    "--profile power:1,1.001 --p 2 --gamma 2",
    "--profile exp:1,1e-4 --p 2 --gamma 2",
])
def test_manifold_numeric_mode_reads_the_analytic_verdict(capsys, argv):
    # Slowly growing exponential areas, a power area just past gamma*, a
    # subnormal start, a start whose increments all underflow to zero, an
    # integrand past the float range from the start, an amplitude of
    # 1e-300 and convergent integrals whose doubling slopes sit within 1e-3
    # of 0: each reads its analytic verdict, with the one stderr line of
    # the report and no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, numeric, cap = run_cli(capsys, "manifold", *argv.split(), "--mode", "numeric")
    assert rc == 0
    assert cap.err.count("\n") == 1
    rc, analytic, _ = run_cli(capsys, "manifold", *argv.split())
    assert numeric["results"] == analytic["results"]


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


def test_sigma_bound_whose_radius_ratio_overflows(capsys):
    # r / R = 1e320 is past the float range, the integral (r^4 - R^4) / 4 is not
    rc, report, _ = run_cli(
        capsys, "sigma-bound", "--dim", "3", "--p", "2", "--gamma", "1.5", "--profile", "power:1,-6",
        "--sigma-r", "1", "--radius-inner", "1e-300", "--radius-outer", "1e20",
    )
    assert rc == 0
    assert report["results"]["comparison_integral"] == pytest.approx(2.5e79, rel=1e-14)


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["solve", "--dim", "3", "--p", "2", "--gamma", "4"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: pdi-lab")


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


@pytest.mark.parametrize("p, gamma, refused", [
    ("2", "1:6:1", None),
    ("2", "1:7:1", "the range '1:7:1'"),
    ("2,3", "1:3:1", None),
    ("2,3", "1:4:1", "the product of the sweep's axes"),
])
def test_sweep_refuses_rows_past_its_limit(capsys, monkeypatch, p, gamma, refused):
    # Both refusals read one limit, here 6 rows: a range's count before its
    # values are built, and the product of the axes before their grid.
    monkeypatch.setattr(cli, "_SWEEP_ROWS", 6)
    if refused:
        monkeypatch.setattr(np, "meshgrid", lambda *a, **k: pytest.fail("the grid was built"))
    rc, _, cap = run_cli(capsys, "sweep", "--dim", "3", "--p", p, "--gamma", gamma)
    if refused is None:
        assert rc == 0 and cap.err == "sweep: 6 rows\n"
    else:
        assert rc == 2 and cap.out == ""
        assert cap.err == f"error: {refused} gives more than the 6 rows a sweep holds\n"


@pytest.mark.parametrize("axis, text, want", [
    ("--gamma", "0.6:1.2:0.2", ["0.6", "0.8", "1.0", "1.2"]),
    ("--p", "1.00000000001:1.00000000003:0.00000000001",
     ["1.00000000001", "1.00000000002", "1.00000000003"]),
    ("--gamma", "1e-11:3e-11:1e-11", ["1e-11", "2e-11", "3e-11"]),
])
def test_sweep_range_values_are_exact_decimal_steps(capsys, axis, text, want):
    # Each value is start + k step in decimal, rounded once to a float, so
    # steps below 1e-10 keep their values.
    flags = {"--dim": "3", "--p": "2", "--gamma": "2", axis: text}
    assert main(["sweep", *(token for item in flags.items() for token in item)]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [row[axis[2:]] for row in rows] == want


@pytest.mark.parametrize("text, want", [("-1:1:1", ["-1.0", "0.0", "1.0"]), ("-1,1", ["-1.0", "1.0"])])
def test_sweep_negative_start_is_written_with_equals(capsys, text, want):
    # argparse reads "-1:1:1" in its own token as a flag, so a list or range
    # that starts negative is given as --gamma=-1:1:1, as README says.
    assert main(["sweep", "--dim", "3", "--p", "2", f"--gamma={text}"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [row["gamma"] for row in rows] == want
    rc, _, cap = run_cli(capsys, "sweep", "--dim", "3", "--p", "2", "--gamma", text)
    assert rc == 2 and cap.out == ""
    assert cap.err == "error: argument --gamma: expected one argument\n"


def _reference_sweep_row(point):
    """The text cells of one sweep point from its own reports, point by point."""
    dim, p, gamma, q = point
    cells = (str(int(dim)), repr(float(p)), repr(float(gamma)), repr(float(q)))
    try:
        params = ProblemParams(dim=dim, p=p, gamma=gamma, q=q)
    except PreconditionViolation:
        return cells + ("", "", "", "", "", "INVALID")
    rep = exponent_report(params)
    alpha = "" if rep.alpha is None else repr(rep.alpha)
    if rep.gamma_star is None:
        return cells + (alpha, repr(rep.s), "", "", "", "INVALID")
    regime = classify_regime(params)
    verdict = "NO_LIOUVILLE" if regime.liouville is LiouvilleRegime.SUPERCRITICAL else "LIOUVILLE"
    return cells + (
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


# Signed zeros, ties between them, duplicates, infinities, huge and
# subnormal values, and dims 0, 1, 9 and -0.0.
_EDGE_AXES = {
    "dim": [0, 1, 9, -0.0, 3, 0],
    "p": [-0.0, 0.0, 2.0, 2.0, 1e300, -1e-320, 1e-320, math.inf, -math.inf, 1.5],
    "gamma": [0.0, -0.0, 1.0, math.inf, -math.inf, 1e300, 1.2, 1e-320, -1e-320, 1.2],
    "q": [math.inf, -0.0, 0.0, 4.0, -math.inf, 1e300, 2.25],
}


def test_sweep_csv_is_the_sorted_per_point_table(capsys, tmp_path):
    # The reference is a csv.writer table of the per-point rows in sorted()
    # order; stdout and --out must both match it byte for byte.
    points = sorted(
        (int(d), p, g, q)
        for d in _EDGE_AXES["dim"] for p in _EDGE_AXES["p"]
        for g in _EDGE_AXES["gamma"] for q in _EDGE_AXES["q"]
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dim", "p", "gamma", "q", "alpha", "s", "gamma_star",
                     "growth_regime", "liouville_regime", "verdict"])
    writer.writerows(map(_reference_sweep_row, points))
    # --flag=value, so that argparse reads a leading '-' as a value
    argv = ["sweep"] + [f"--{k}={','.join(map(repr, v))}" for k, v in _EDGE_AXES.items()]
    assert run(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "table.csv"
    assert run(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert stdout.encode() == out.read_bytes() == buf.getvalue().encode()
    assert len(points) == 4_200 and "\n0,-0.0,0.0," in stdout and "\n0,0.0,-0.0," in stdout


def test_sweep_reports_once_per_invocation(capsys, monkeypatch, tmp_path):
    # One ParamGrid report per sweep, through the cli bindings a tracer wraps.
    calls = {"exponent_report": 0, "classify_regime": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    argv = ["sweep", "--dim", "3,4", "--p", "1.5:3:0.5", "--gamma", "0.6:6:0.1", "--q", "inf,4"]
    assert run(argv) == 0
    assert calls == {"exponent_report": 1, "classify_regime": 1}
    assert run(argv + ["--out", str(tmp_path / "table.csv")]) == 0
    assert calls == {"exponent_report": 2, "classify_regime": 2}
    capsys.readouterr()


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
        ["audit-caccioppoli", "--dim", "3", "--p", "2", "--gamma", "4", "--lambda", "nan"],
        ["morrey", "--source", "power:1,1", "--theta", "1.5", "--s-index", "nan"],
        SOLVE + ["--bc-right", "nan"],
        SOLVE + ["--bc-right", "0", "--bc-left", "x"],
        SOLVE + ["--bc-right", "0", "--source", "file:/nonexistent"],
        ["audit-caccioppoli", "--dim", "3", "--p", "2", "--gamma", "4", "--radius", "nan"],
        ["audit-caccioppoli", "--dim", "3", "--p", "2", "--gamma", "4", "--radius", "0"],
        ["audit-caccioppoli", "--dim", "3", "--p", "2", "--gamma", "4", "--radius", "inf"],
        # R^dim and the energies leave the float range, silently.
        ["audit-caccioppoli", "--dim", "3", "--p", "2", "--gamma", "4", "--radius", "1e300"],
        ["audit-caccioppoli", "--dim", "3", "--p", "2", "--gamma", "4", "--radius", "1e-300"],
        # The comparison integral of a growing integrand leaves the float range.
        ["sigma-bound", "--dim", "3", "--p", "2", "--gamma", "1.5", "--profile", "power:1,-1",
         "--sigma-r", "1", "--radius-inner", "1", "--radius-outer", "1e300"],
        ["sigma-bound", "--dim", "3", "--p", "2", "--gamma", "1.5", "--profile", "exp:1,-1",
         "--sigma-r", "1", "--radius-inner", "1", "--radius-outer", "1e4"],
        ["verify-sharpness", "--dim", "3", "--p", "2", "--gamma", "4", "--tol", "nan"],
        ["verify-sharpness", "--dim", "3", "--p", "2", "--gamma", "4", "--tol=-1"],
        ["audit-holder", "--dim", "3", "--p", "2", "--gamma", "4", "--tol", "nan"],
        ["audit-holder", "--dim", "3", "--p", "2", "--gamma", "4", "--tol=-1"],
        ["manifold", "--profile", "power:1,2", "--p", "2", "--gamma", "1.4", "--t-start", "inf"],
        ["morrey", "--source", "power:1,1", "--theta", "1.5", "--omega-radius", "inf"],
        ["verify-sharpness", "--dim", "3", "--p", "2", "--gamma", "4", "--c-h", "inf"],
        ["sigma-bound", "--dim", "3", "--p", "2", "--gamma", "1.4", "--sigma-r", "1",
         "--radius-inner", "1", "--radius-outer", "10", "--nu", "inf"],
        SOLVE + ["--bc-right", "0", "--lambda", "inf"],
        # A flag takes its full spelling only; argparse's prefixes are off.
        ["audit-caccioppoli", "--dim", "3", "--p", "2", "--gamma", "4", "--lam", "1"],
        # A subcommand has only the flags its computation reads.
        ["exponents", "--dim", "3", "--p", "2", "--gamma", "4", "--lambda", "1"],
        SOLVE + ["--bc-right", "0", "--nu", "2"],
        # Both Holder fits are exact and draw nothing, and the weighted
        # energy has the same comparison integral: no such flags.
        ["audit-holder", "--dim", "3", "--p", "2", "--gamma", "4", "--pairs", "5"],
        ["audit-holder", "--dim", "3", "--p", "2", "--gamma", "4", "--seed", "1"],
        ["sigma-bound", "--dim", "3", "--p", "2", "--gamma", "1.4", "--sigma-r", "1",
         "--radius-inner", "1", "--radius-outer", "10", "--weight", "exp"],
        # dim is checked before the sharp profile divides by dim - 1.
        ["verify-sharpness", "--dim", "1", "--p", "2", "--gamma", "4"],
        # 0.02 R, the smallest audit radius, rounds to 0.
        ["audit-caccioppoli", "--dim", "3", "--p", "2", "--gamma", "4", "--radius", "5e-324"],
        # lhs = sigma_R^(-e)/e with e = 4999, and C = (c_h/nu)^(gamma/(gamma-p+1)) e,
        # past the float range.
        ["sigma-bound", "--dim", "3", "--p", "1.001", "--gamma", "5", "--sigma-r", "1e-3",
         "--radius-inner", "1", "--radius-outer", "2"],
        ["sigma-bound", "--dim", "3", "--p", "2", "--gamma", "2", "--c-h", "1e300", "--nu", "1e-300",
         "--sigma-r", "1", "--radius-inner", "1", "--radius-outer", "2"],
        # The area factor amplitude^-e, e = 499, is past the float range too.
        ["sigma-bound", "--dim", "3", "--p", "1.01", "--gamma", "5", "--profile", "power:1e-10,1",
         "--sigma-r", "1", "--radius-inner", "1", "--radius-outer", "2"],
        # The unit ball volume is below the normal floats.
        ["morrey", "--source", "power:1,1", "--theta", "2", "--dim", "436"],
        ["manifold", "--profile", "exp:1,nan", "--p", "2", "--gamma", "1.4"],
        ["manifold", "--profile", "power:1,nan", "--p", "2", "--gamma", "1.4"],
        ["morrey", "--source", "power:1,1", "--theta", "1.5", "--dim", "2", "--s-index", "2"],
        ["morrey", "--source", "power:1,nan", "--theta", "1.5"],
        SOLVE + ["--bc-right", "0", "--tol", "nan"],
        ["verify-sharpness", "--dim", "3", "--p", "2", "--gamma", "4", "--nodes", "1"],
        ["exponents", "--dim", "3", "--p", "2", "--gamma", "inf"],
        SOLVE[:-2] + ["--r-out", "inf", "--bc-right", "0"],
        ["sweep", "--dim", "inf", "--p", "2", "--gamma", "3"],
        ["sweep", "--dim", "nan", "--p", "2", "--gamma", "3"],
        ["sweep", "--dim", "1e400", "--p", "2", "--gamma", "3"],
        ["sweep", "--dim", "2.5", "--p", "2", "--gamma", "3"],
        ["sweep", "--dim", "3", "--p", "2", "--gamma", "0:inf:1"],
        ["sweep", "--dim", "3", "--p", "2", "--gamma", "1:3:inf"],
        # A range whose count leaves the float range.
        ["sweep", "--dim", "3", "--p", "2", "--gamma", "0:1e300:1e-300"],
        ["sweep", "--dim", "3", "--p", "2", "--gamma=-1e308:1e308:1"],
        # A finite range count, or a product of axes, past the rows a sweep holds.
        ["sweep", "--dim", "3", "--p", "2", "--gamma", "0:1:1e-300"],
        ["sweep", "--dim", "3", "--p", "1:1000:1", "--gamma", "1:1001:1"],
        # A range step must be positive.
        ["sweep", "--dim", "3", "--p", "1:2:0", "--gamma", "3"],
        ["sweep", "--dim", "3", "--p", "2:1:-0.5", "--gamma", "3"],
        # Sorting has no order for NaN, so a NaN in any list is refused.
        ["sweep", "--dim", "3,nan", "--p", "2", "--gamma", "3"],
        ["sweep", "--dim", "3", "--p", "nan,2", "--gamma", "3,nan,1.5"],
        ["sweep", "--dim", "3", "--p", "2,nan", "--gamma", "1.5,nan,3"],
        ["sweep", "--dim", "3", "--p", "2", "--gamma", "3", "--q", "inf,nan"],
        ["verify-bump", "--dim", "3", "--p", "2", "--gamma", "1.8", "--grid-max=-inf"],
        # c_h is finite and positive for both witness families.
        ["liouville", "--dim", "3", "--p", "2", "--gamma", "1.8", "--c-h", "inf"],
        ["liouville", "--dim", "3", "--p", "2", "--gamma", "1.8", "--c-h", "nan"],
        ["liouville", "--dim", "3", "--p", "2", "--gamma", "3", "--c-h", "inf"],
        ["liouville", "--dim", "3", "--p", "2", "--gamma", "3", "--c-h", "nan"],
        ["verify-bump", "--dim", "3", "--p", "2", "--gamma", "1.8", "--c-h", "inf"],
        ["verify-bump", "--dim", "3", "--p", "2", "--gamma", "1.8", "--c-h", "nan"],
        # Parser errors are one line too, not argparse's usage block.
        ["morrey", "--source", "power:1,1", "--theta", "1.5", "--centers", "8"],
        SOLVE + ["--bc-right", "0", "--nodes", "x"],
        ["morrey", "--theta", "1.5"],
        ["no-such-command"],
        [],
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

_NUMBERS = (
    "2", "3", "4", "1.5", "2.5", "0.5", "0", "-1", "nan", "inf", "-inf", "1e400", "x",
    "1e-300", "1e300", "5e-324", "1.7976931348623157e308", "344", "1000",
)
_COUNTS = ("0", "1", "2", "3", "-1", "x", "1e400")
_SPECS = (
    "zero", "power:1,0", "power:1,1", "power:1", "power:x,1", "power:nan,inf", "exp:1,1",
    "exp:1,nan", "euclidean", "gmc:4", "gmc:", "mean-curvature", "p-laplacian", "sharpness",
    "linear", "file:/nonexistent/f.csv", "file:", "bogus", "",
)
_LISTS = ("3", "2,3", "nan", "inf", "1e400", "2.5", "-1", "1:2:0.5", "0:inf:1", "1:3:inf", "1:2", "x", "",
          "0:1e300:1e-300", "0:1:1e-300")
_POOLS = {
    "--nodes": _COUNTS,
    "--operator": _SPECS, "--source": _SPECS, "--witness": _SPECS, "--profile": _SPECS,
    "--mode": ("analytic", "numeric", "x"),
    "--bc-left": _NUMBERS + ("none",),
}
# Kept present, so the work stays small whatever else is drawn.
_SIZE_FLAGS = ("--nodes",)
_ROWS = {name: flags for name, _, flags, _ in COMMANDS}


# The keys of each report's results, in the order they print: JSON key
# order is part of the output.
_RESULT_KEYS = {
    "exponents": "alpha s gamma_star alpha_branch s_branch growth_regime liouville_regime",
    "verify-sharpness": "c a nodes min_residual max_abs_residual",
    "verify-bump": "c log10_c delta min_residual grid_max",
    "solve": "nodes iterations final_residual roundoff_floor u_left u_mid u_right u_min u_max",
    "audit-caccioppoli": "predicted_s growth_target fitted_growth fitted_K k_stable",
    "audit-holder": "fitted_alpha r_squared predicted_alpha bins",
    "morrey": "value divergent argmax_radius exact",
    "liouville": "verdict mechanism gamma_star area_test witness witness_note witness_ok",
    "manifold": "verdict mechanism gamma_star",
    "sigma-bound": "lhs rhs constant_C comparison_integral area_integral contradiction",
}


def test_results_keys_keep_their_order(capsys):
    assert sorted(_RESULT_KEYS) == sorted(set(SET) - {"sweep"})
    for command, keys in _RESULT_KEYS.items():
        rc, report, _ = run_cli(capsys, command, *SET[command].split())
        assert rc == 0
        assert list(report["results"]) == keys.split(), command
    # A witness side of liouville, for the keys of its nested witness.
    _, report, _ = run_cli(capsys, "liouville", *_PROBLEM_ARGS)
    assert list(report["results"]["witness"]) == ["family", "c", "log10_c", "exponent", "delta"]


def _valid_flags(command) -> dict:
    """flag -> value of one valid, small invocation: the table's defaults,
    then ``SET``."""
    flags = {
        flag: str(default)
        for flag, _, default in _ROWS[command]
        if default is not REQUIRED and default is not None
    }
    tokens = SET[command].split()
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
# A scan grid out to the float max, where the bump slope's r * r overflows.
@example(["verify-bump", "--dim=3", "--p=2", "--gamma=1.8", "--grid-max=1.7976931348623157e308"])
def test_any_argv_exits_cleanly(argv):
    _assert_exits_cleanly(argv)


def _assert_exits_cleanly(argv):
    """One exit code of 0, 1 or 2, one stderr line, no warning, and a
    report, a CSV or nothing on stdout, as the exit code says."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run(argv)
    assert [str(w.message) for w in caught] == [], argv
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    if rc == 2:
        assert err.getvalue().startswith("error: ")
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


@contextlib.contextmanager
def _witness_scan_grids():
    """Every grid the witness scan receives from the CLI or from
    ``verify_euclidean_witness``, each asserted to hold radii > 0 only."""
    grids, scan = [], radial._certify_witness

    def checked(dim, p, gamma, bounded, grid):
        grids.append(np.array(grid, dtype=float))
        assert np.all(grids[-1] > 0), grids[-1]
        return scan(dim, p, gamma, bounded, grid)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_certify_witness", checked)
        patch.setattr(liouville, "_certify_witness", checked)
        yield grids


# The witness scan does not refuse a radius <= 0 or NaN itself: over the
# whole range of --nodes and --grid-max that verify-bump accepts, and on
# the module grids, its callers hand it radii > 0 only.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(nodes=st.integers(2, 1000),
       grid_max=st.floats(0.05, 1.7976931348623157e308, exclude_min=True))
@example(nodes=2, grid_max=1.7976931348623157e308)
@example(nodes=1000, grid_max=math.nextafter(0.05, 1.0))
def test_verify_bump_hands_the_witness_scan_radii_above_0(nodes, grid_max):
    argv = ["verify-bump", "--dim", "3", "--p", "2", "--gamma", "1.8",
            f"--nodes={nodes}", f"--grid-max={grid_max!r}"]
    with _witness_scan_grids() as grids, contextlib.redirect_stdout(io.StringIO()):
        assert run(argv) in (0, 1)
    assert [grid.size for grid in grids] == [nodes]


@pytest.mark.parametrize("gamma", [1.8, 4.0], ids=["bump", "entire-power"])
def test_verify_euclidean_witness_hands_the_scan_radii_above_0(gamma):
    verdict = liouville.liouville_classify_euclidean(3, 2.0, gamma)
    assert isinstance(verdict.witness, BumpProfile if gamma < 2.0 else PowerProfile)
    with _witness_scan_grids() as grids:
        assert liouville.verify_euclidean_witness(verdict)[1]
    assert len(grids) == 1


# Values at the float range's edges, the dims past which omega_d and r^d
# leave it, the first dim with no exact float and one past the float range.
_EXTREME_SPECIALS = (5e-324, 1e-320, 1e-300, -1e-300, -1e300, 1.7976931348623157e308)
_EXTREME_DIMS = (2, 3, 5, 10, 344, 1000, 2**53 + 1, 10**400)


def _extreme_argv(rng) -> list:
    """A valid invocation with 1 to 3 of its numeric flags replaced by a
    power 10^k with k in [-300, 300], a value in [0.01, 10], a float-range
    special, or, for --p, --gamma and --dim, a growth order or dim; gamma
    is p - 1 + 10^u of the invocation's p. solve runs on 64 nodes."""
    command = str(rng.choice(sorted(name for name in _ROWS if name != "sweep")))
    flags = _valid_flags(command)
    if command == "solve":
        flags["--nodes"] = "64"
    numeric = sorted(flag for flag, kind, _ in _ROWS[command] if kind is float or flag == "--dim")
    drawn = rng.choice(numeric, size=min(len(numeric), rng.integers(1, 4)), replace=False)
    for flag in sorted(drawn, key=lambda flag: flag == "--gamma"):  # gamma reads the new p
        tiny = 10.0 ** rng.uniform(-12, 1)
        if flag == "--dim":
            value = rng.choice(_EXTREME_DIMS)
        elif flag == "--p" and rng.random() < 0.5:
            value = rng.choice([1.001, 1.5, 2.0, 3.0, 8.0, 1.0 + tiny])
        elif flag == "--gamma" and rng.random() < 0.5:
            value = float(flags.get("--p", 2.0)) - 1.0 + tiny
        else:
            value = rng.choice([10.0 ** rng.uniform(-300, 300), rng.uniform(0.01, 10.0),
                                rng.choice(_EXTREME_SPECIALS)])
        flags[flag] = repr(value.item() if hasattr(value, "item") else value)
    return _argv_of(command, flags)


@pytest.mark.parametrize("seed", range(3))
def test_extreme_numbers_exit_cleanly(seed):
    # Values at and past the float range's edges: each invocation runs or
    # is refused in one line, with no traceback and no warning. About 1.5 ms
    # a draw.
    rng = np.random.default_rng(seed)
    for _ in range(700):
        _assert_exits_cleanly(_extreme_argv(rng))


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


# --out writes a file.
_UNMOVED = {"--out"}


def test_every_flag_has_an_invocation_it_moves():
    assert set(MOVES) == {(name, flag) for name, flags in _ROWS.items() if name != "sweep"
                           for flag, _, _ in flags if flag not in _UNMOVED}


@pytest.mark.parametrize("command, flag", list(MOVES))
def test_each_flag_moves_results_or_passed(capsys, command, flag):
    invocation, other = MOVES[command, flag]
    tokens = invocation.format(**FILES).replace("{golden}", str(GOLDEN)).split()
    flags = dict(zip(tokens[::2], tokens[1::2]))
    rc, base, _ = run_cli(capsys, *_argv_of(command, flags))
    assert rc in (0, 1)
    flags[flag] = other
    rc, report, _ = run_cli(capsys, *_argv_of(command, flags))
    assert rc in (0, 1)
    assert (report["results"], report["passed"]) != (base["results"], base["passed"])


def test_readme_lists_the_table():
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        cli_section = fh.read().split("## CLI", 1)[1]
    block = cli_section.split("```")[1]
    listed = [tuple(line.split(None, 2)[1:]) for line in block.strip().splitlines()]
    assert listed == [(name, help_text) for name, help_text, _, _ in COMMANDS]
    # the flag list of each subcommand, in its row's order
    block = cli_section.split("takes only the flags its computation reads", 1)[1].split("```")[1]
    listed = [line.split() for line in block.strip().splitlines()]
    assert listed == [[name, *(flag for flag, _, _ in flags)] for name, _, flags, _ in COMMANDS]
