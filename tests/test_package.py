"""The package surface: ``pdi_lab.__all__`` is assembled from the modules'
own export lists, so this test pins the public names in one place."""

import os
import subprocess
import sys

import numpy as np

import pdi_lab
from pdi_lab import solver

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
    "PowerProfile", "BumpProfile", "SampledProfile", "OperatorKind",
    "PLaplacian", "MeanCurvature", "GeneralizedMeanCurvature", "ResidualReport",
    "radial_operator", "sharpness_profile", "nonconstant_entire_profile",
    "bump_profile_scale", "residual_scan",
    # solver
    "ZeroSource", "RadialPowerSource", "SampledSource", "SolverConfig",
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
    assert len(PUBLIC) == 68
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
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_and_exponents_do_not_load_scipy():
    loaded = _fresh_modules(
        "import contextlib, io, pdi_lab\n"
        "from pdi_lab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert cli.run(['exponents', '--dim', '3', '--p', '2', '--gamma', '4']) == 0"
    )
    assert "pdi_lab.cli" in loaded
    assert not any(m == "scipy" or m.startswith("scipy.") for m in loaded)
    # Only the handlers that call the solver or the audits import them.
    assert not loaded & {"pdi_lab.solver", "pdi_lab.audit"}


def test_a_cli_solve_loads_no_audit():
    loaded = _fresh_modules(
        "import contextlib, io\n"
        "from pdi_lab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert cli.run(['solve', '--dim', '3', '--p', '2', '--gamma', '2', '--source', 'power:1,0', "
        "'--bc-right', '0']) == 0"
    )
    assert "pdi_lab.solver" in loaded
    assert "pdi_lab.audit" not in loaded


def test_a_solve_loads_no_scipy():
    # gtsv comes from the OpenBLAS that numpy's wheel ships and has already
    # mapped, so a solve on the pinned stack imports no scipy module; and
    # the package is lazy, so it loads no module that a solve does not call.
    loaded = _fresh_modules(
        "from pdi_lab import PLaplacian, ProblemParams, RadialPowerSource, solve_radial_dirichlet, solver\n"
        "solve_radial_dirichlet(PLaplacian(2.0), ProblemParams(dim=3, p=2.0, gamma=2.0), RadialPowerSource(1.0, 0.0), (0.0, 1.0), None, 0.0)\n"
        "assert solver._dgtsv() is not None"
    )
    assert "pdi_lab.solver" in loaded
    assert not any(m == "scipy" or m.startswith("scipy.") for m in loaded)
    assert not loaded & {"pdi_lab.audit", "pdi_lab.liouville", "pdi_lab.quadrature", "pdi_lab.cli",
                         "numpy.ma", "numpy.polynomial", "numpy.random"}


def test_a_sweep_loads_no_hashlib():
    # Only a report's config_hash reads hashlib, which maps OpenSSL; a sweep
    # writes CSV and no report, and calls neither the solver nor the audits.
    loaded = _fresh_modules(
        "import contextlib, io\n"
        "from pdi_lab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert cli.run(['sweep', '--dim', '3:5:1', '--p', '2', '--gamma', '1:4:0.5']) == 0"
    )
    assert "pdi_lab.cli" in loaded
    assert not {"hashlib", "_hashlib", "pdi_lab.solver", "pdi_lab.audit"} & loaded


def test_import_alone_loads_no_submodule():
    assert not any(m.startswith("pdi_lab.") for m in _fresh_modules("import pdi_lab"))


def _gtsv_systems():
    """A tridiagonal system whose diagonal is small against its
    sub-diagonal, so gtsv interchanges rows (its fill-in du2 is nonzero),
    and the first system of a Newton solve, as (sub, dia, sup, rhs)."""
    rng = np.random.default_rng(20)
    n = 64
    pivoting = (rng.uniform(1.0, 2.0, n - 1), rng.uniform(-1e-3, 1e-3, n),
                rng.uniform(1.0, 2.0, n - 1), rng.standard_normal(n))
    newton = []
    banded = solver.solve_banded

    def capture(system):
        if not newton:
            newton.extend(a.copy() for a in (system.sub, system.dia, system.sup, system.rhs))
        return banded(system)

    solver.solve_banded = capture
    try:
        solver.solve_radial_dirichlet(
            solver.PLaplacian(1.5), solver.ProblemParams(dim=3, p=1.5, gamma=1.2),
            solver.RadialPowerSource(2.0, 0.0), (0.25, 1.0), 0.9, 0.0,
        )
    finally:
        solver.solve_banded = banded
    return pivoting, tuple(newton)


def _solve_banded(sub, dia, sup, rhs) -> bytes:
    system = solver._Tridiagonal(dia.size)
    system.sub[:], system.dia[:], system.sup[:], system.rhs[:] = sub, dia, sup, rhs
    return solver.solve_banded(system).tobytes()


def test_solve_banded_is_scipys_dgtsv_bit_for_bit():
    from scipy.linalg import lapack

    pivoting, newton = _gtsv_systems()
    du2, _, _, _, info = lapack.dgtsv(*pivoting)
    assert info == 0 and np.any(du2 != 0.0)
    assert solver._dgtsv() is not None
    for system in (pivoting, newton):
        assert _solve_banded(*system) == lapack.dgtsv(*system)[3].tobytes()


def test_the_forced_fallback_gives_the_same_bits(monkeypatch):
    # Where numpy ships no scipy-openblas library, scipy's public dgtsv
    # solves in place through its overwrite flags, to the same bits.
    from scipy.linalg import lapack

    def solve():
        return solver.solve_radial_dirichlet(
            solver.PLaplacian(3.0), solver.ProblemParams(dim=3, p=3.0, gamma=2.5),
            solver.RadialPowerSource(1.0, 0.0), (0.0, 1.0), None, 0.0,
        )

    systems = _gtsv_systems()
    direct, sol = [_solve_banded(*system) for system in systems], solve()
    calls = []
    dgtsv = lapack.dgtsv
    monkeypatch.setattr(lapack, "dgtsv", lambda *a, **k: calls.append(1) or dgtsv(*a, **k))
    monkeypatch.setattr(solver, "_dgtsv", lambda: None)
    assert [_solve_banded(*system) for system in systems] == direct
    fallback = solve()
    assert len(calls) == 2 + fallback.meta["iterations"]
    assert fallback.values.tobytes() == sol.values.tobytes() and fallback.meta == sol.meta


def test_holder_fits_of_gridded_data_do_not_load_numpy_random():
    # The exact bin sups draw nothing, so numpy.random, about 5 MB of
    # resident memory, stays unloaded through a solve and both fits. With a
    # sampled Morrey norm and a Caccioppoli audit, the audits load neither
    # liouville nor numpy.ma (np.unique would) nor numpy.polynomial
    # (leggauss would).
    loaded = _fresh_modules(
        "import numpy as np\n"
        "from pdi_lab import PLaplacian, ProblemParams, RadialPowerSource, SampledProfile, holder_fit, solve_radial_dirichlet\n"
        "from pdi_lab import PowerProfile, SampledSource, caccioppoli_audit, morrey_norm\n"
        "sol = solve_radial_dirichlet(PLaplacian(2.0), ProblemParams(dim=3, p=2.0, gamma=2.0), RadialPowerSource(1.0, 0.0), (0.0, 1.0), None, 0.0)\n"
        "grid = np.linspace(0.0, 1.0, 500)\n"
        "for u in (sol, SampledProfile(grid, np.sin(40.0 * grid))):\n"
        "    holder_fit(u, 20000, (1e-3, 0.25), seed=3)\n"
        "morrey_norm(SampledSource(grid, np.cos(6.0 * grid)), 1.0, 1.5, 1.0)\n"
        "caccioppoli_audit(PowerProfile(1.0, 2.0), ProblemParams(3, 2.0, 4.0), 1.0, [0.1, 0.2])\n"
    )
    assert {"pdi_lab.audit", "pdi_lab.quadrature"} <= loaded
    assert not loaded & {"numpy.random", "numpy.ma", "numpy.polynomial", "pdi_lab.liouville"}
