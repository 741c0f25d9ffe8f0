"""The package surface: ``pdi_lab.__all__`` is assembled from the modules'
own export lists, so this test pins the public names in one place."""

import os
import subprocess
import sys

import pdi_lab

PUBLIC = {
    "__version__",
    # errors
    "PdiLabError", "PreconditionViolation", "DegeneratePoint", "NoConvergence",
    "IllPosedBoundary", "DomainExceeded", "InsufficientScales", "NonIntegrable",
    "NoAdmissibleScale",
    # params
    "INFINITY", "ProblemParams", "ParamGrid", "Branch", "GrowthRegime", "LiouvilleRegime", "Regime",
    "ExponentReport", "holder_exponent", "caccioppoli_exponent", "unit_ball_volume",
    "liouville_threshold", "exponent_report", "classify_regime",
    # radial
    "RadialProfile", "PowerProfile", "BumpProfile", "SampledProfile", "OperatorKind",
    "PLaplacian", "MeanCurvature", "GeneralizedMeanCurvature", "ResidualReport",
    "radial_operator", "sharpness_profile", "nonconstant_entire_profile",
    "bump_profile_scale", "residual_scan",
    # solver
    "SourceTerm", "ZeroSource", "RadialPowerSource", "SampledSource", "SolverConfig",
    "DiscreteRadialSolution", "solve_radial_dirichlet", "solution_residual",
    # audit
    "gradient_energy", "CaccioppoliReport", "caccioppoli_audit", "HolderFitReport",
    "holder_fit", "MorreyNorm", "morrey_norm",
    # liouville
    "AreaProfile", "EuclideanArea", "PowerArea", "ExponentialArea", "SampledArea",
    "IntegralVerdict", "Verdict", "Mechanism", "LiouvilleVerdict", "SigmaBoundReport",
    "power_area_diverges", "area_condition_test", "sigma_lower_bound",
    "find_contradiction_radius", "liouville_classify_euclidean",
    "liouville_classify_manifold", "verify_euclidean_witness",
}


def test_public_names_are_pinned_and_listed_once():
    assert len(PUBLIC) == 70
    assert sorted(pdi_lab.__all__) == sorted(PUBLIC)


def test_every_public_name_resolves():
    namespace = {}
    exec("from pdi_lab import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    for name in PUBLIC:
        assert getattr(pdi_lab, name) is namespace[name]


def _fresh_modules(code: str) -> set:
    """The names in ``sys.modules`` after ``code`` runs in a fresh
    interpreter that imports this checkout's ``pdi_lab``."""
    src = os.path.dirname(os.path.dirname(pdi_lab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return set(out.split())


def test_import_and_exponents_do_not_load_scipy():
    loaded = _fresh_modules(
        "import contextlib, io, pdi_lab\n"
        "from pdi_lab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert cli.run(['exponents', '--dim', '3', '--p', '2', '--gamma', '4']) == 0"
    )
    assert "pdi_lab.cli" in loaded
    assert not any(m == "scipy" or m.startswith("scipy.") for m in loaded)


def test_a_solve_loads_only_the_banded_solver_from_scipy():
    loaded = _fresh_modules(
        "from pdi_lab import PLaplacian, ProblemParams, RadialPowerSource, solve_radial_dirichlet\n"
        "solve_radial_dirichlet(PLaplacian(2.0), ProblemParams(dim=3, p=2.0, gamma=2.0), RadialPowerSource(1.0, 0.0), (0.0, 1.0), None, 0.0)"
    )
    assert "scipy.linalg" in loaded
    assert "scipy.integrate" not in loaded and "scipy.special" not in loaded
