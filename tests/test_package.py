"""The package surface: ``pdi_lab.__all__`` is assembled from the modules'
own export lists, so this test pins the public names in one place; and
``LOADS``, the one table of which modules each kind of run loads."""

import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import pdi_lab
from pdi_lab import radial, solver

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
    "PowerProfile", "BumpProfile", "SampledProfile", "PLaplacian", "MeanCurvature",
    "GeneralizedMeanCurvature", "ResidualReport",
    "radial_operator", "sharpness_profile", "nonconstant_entire_profile",
    "bump_profile_scale", "residual_scan",
    # solver
    "ZeroSource", "RadialPowerSource", "SampledSource", "SolverConfig",
    "DiscreteRadialSolution", "solve_radial_dirichlet", "solution_residual",
    # audit
    "gradient_energy", "CaccioppoliReport", "caccioppoli_audit", "HolderFitReport",
    "holder_fit", "MorreyNorm", "morrey_norm",
    # liouville
    "EuclideanArea", "PowerArea", "ExponentialArea", "SampledArea",
    "IntegralVerdict", "Verdict", "Mechanism", "LiouvilleVerdict", "SigmaBoundReport",
    "power_area_diverges", "area_condition_test", "sigma_lower_bound",
    "find_contradiction_radius", "liouville_classify_euclidean",
    "liouville_classify_manifold", "verify_euclidean_witness",
}


def test_public_names_are_pinned_and_listed_once():
    assert len(PUBLIC) == 66
    assert sorted(pdi_lab.__all__) == sorted(PUBLIC)
    submodules = {m.name for m in pkgutil.iter_modules(pdi_lab.__path__)}
    assert PUBLIC | submodules <= set(dir(pdi_lab))


def test_every_public_name_resolves():
    namespace = {}
    exec("from pdi_lab import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    for name in PUBLIC:
        assert getattr(pdi_lab, name) is namespace[name]


def _fresh_modules(code: str) -> set:
    """The names in ``sys.modules`` after ``code`` runs in a fresh
    interpreter that imports the same ``pdi_lab`` as this process."""
    src = os.path.dirname(os.path.dirname(pdi_lab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; loaded = ' '.join(sys.modules)"
                                      "\nimport pdi_lab; print(pdi_lab.__file__); print(loaded)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    imported, loaded = proc.stdout.splitlines()
    assert imported == pdi_lab.__file__
    return set(loaded.split())


def _cli(*argv: str) -> str:
    return ("import contextlib, io\nfrom pdi_lab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    assert cli.run({list(argv)!r}) == 0\n")


_SOLVE = (
    "from pdi_lab import PLaplacian, ProblemParams, RadialPowerSource, solve_radial_dirichlet, solver\n"
    "sol = solve_radial_dirichlet(PLaplacian(2.0), ProblemParams(dim=3, p=2.0, gamma=2.0), RadialPowerSource(1.0, 0.0), (0.0, 1.0), None, 0.0)\n"
    "assert solver._dgtsv() is not None\n"
)
# Holder fits of a solution and of sampled data, a sampled Morrey norm and
# a Caccioppoli audit.
_AUDITS = _SOLVE + (
    "import numpy as np\n"
    "from pdi_lab import PowerProfile, SampledProfile, SampledSource, caccioppoli_audit, holder_fit, morrey_norm\n"
    "grid = np.linspace(0.0, 1.0, 500)\n"
    "for u in (sol, SampledProfile(grid, np.sin(40.0 * grid))):\n"
    "    holder_fit(u, 20000, (1e-3, 0.25), seed=3)\n"
    "morrey_norm(SampledSource(grid, np.cos(6.0 * grid)), 1.0, 1.5, 1.0)\n"
    "caccioppoli_audit(PowerProfile(1.0, 2.0), ProblemParams(3, 2.0, 4.0), 1.0, [0.1, 0.2])\n"
)
_CLI_RUN = {"pdi_lab", "pdi_lab.cli", "pdi_lab.errors", "pdi_lab.params", "pdi_lab.radial",
            "pdi_lab.liouville", "pdi_lab.quadrature"}
_LIBRARY_SOLVE = {"pdi_lab", "pdi_lab.errors", "pdi_lab.params", "pdi_lab.radial", "pdi_lab.solver"}
# The packages of which no run loads a module. gtsv comes from the OpenBLAS
# that numpy's wheel ships and has already mapped, so no run imports scipy.
# The exact bin sups of a Holder fit draw nothing, so numpy.random (about
# 5 MB resident) stays unloaded; morrey_norm dedupes its radii without
# np.unique (numpy.ma) and the Gauss-Legendre rule is a literal, not
# leggauss (numpy.polynomial).
_NEVER = ("scipy", "numpy.ma", "numpy.polynomial", "numpy.random")

# What each run loads: the program a fresh interpreter runs, the exact set
# of pdi_lab modules it loads, and the packages of which it loads no
# module. The package is lazy, so a run loads only the modules it calls,
# and a CLI run imports the solver and the audits only in the handlers
# that call them. Only a report's config_hash reads hashlib, which maps
# OpenSSL, and a sweep writes no report.
LOADS = {
    "import": ("import pdi_lab", {"pdi_lab"}, _NEVER + ("numpy",)),
    "cli-exponents": (_cli("exponents", "--dim", "3", "--p", "2", "--gamma", "4"), _CLI_RUN, _NEVER),
    "cli-solve": (_cli("solve", "--dim", "3", "--p", "2", "--gamma", "2", "--source", "power:1,0", "--bc-right", "0"),
                  _CLI_RUN | {"pdi_lab.solver"}, _NEVER),
    "cli-sweep": (_cli("sweep", "--dim", "3:5:1", "--p", "2", "--gamma", "1:4:0.5"), _CLI_RUN,
                  _NEVER + ("hashlib", "_hashlib")),
    "library-solve": (_SOLVE, _LIBRARY_SOLVE, _NEVER),
    "library-audits": (_AUDITS, _LIBRARY_SOLVE | {"pdi_lab.audit", "pdi_lab.quadrature"}, _NEVER),
}


def _within(modules, packages) -> set:
    return {m for m in modules if any(m == pkg or m.startswith(pkg + ".") for pkg in packages)}


@pytest.mark.parametrize("run", LOADS)
def test_a_run_loads_exactly_its_modules(run):
    program, modules, unloaded = LOADS[run]
    loaded = _fresh_modules(program)
    assert _within(loaded, ("pdi_lab",)) == modules
    assert not _within(loaded, unloaded)


def _gtsv_systems():
    """Ten tridiagonal systems, as (sub, dia, sup, rhs): one whose diagonal
    is small against its sub-diagonal, so gtsv interchanges rows (its
    fill-in du2 is nonzero); the first system of a Newton solve; and the
    Jacobian of each of four operators at a non-trivial iterate, with a
    zero-flux and with a Dirichlet left end."""
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
            radial.PLaplacian(1.5), solver.ProblemParams(dim=3, p=1.5, gamma=1.2),
            solver.RadialPowerSource(2.0, 0.0), (0.25, 1.0), 0.9, 0.0,
        )
    finally:
        solver.solve_banded = banded
    systems = [pivoting, tuple(newton)]
    kinds = ((pdi_lab.PLaplacian(1.5), 1.2), (pdi_lab.PLaplacian(3.0), 2.5),
             (pdi_lab.MeanCurvature(), 1.5), (pdi_lab.GeneralizedMeanCurvature(4.0), 2.5))
    for kind, gamma in kinds:
        params = pdi_lab.ProblemParams(dim=3, p=kind.p, gamma=gamma)
        for domain, bc_left in (((0.0, 1.0), None), ((0.25, 1.0), 0.9)):
            grid = np.linspace(domain[0], domain[1], n)
            disc = solver._Discretization(grid, kind, params, pdi_lab.RadialPowerSource(2.0, 0.0),
                                          bc_left, 0.0)
            values = 1.0 - grid**2 + 0.01 * np.sin(7.0 * grid)
            # The errstate a solve enters around its kernels.
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                R, _, slopes = solver._residual(values, disc, 1e-4)
                systems.append((*solver._jacobian(slopes, disc, 1e-4), -R))
    return systems


def _solve_banded(sub, dia, sup, rhs) -> bytes:
    system = solver._Tridiagonal(dia.size)
    system.sub[:], system.dia[:], system.sup[:], system.rhs[:] = sub, dia, sup, rhs
    x = solver.solve_banded(system)
    assert x is system.rhs  # solved in place
    return x.tobytes()


def test_solve_banded_is_scipys_dgtsv_bit_for_bit():
    # scipy's dgtsv is the routine scipy.linalg.solve_banded runs for
    # (l, u) = (1, 1).
    from scipy.linalg import lapack

    systems = _gtsv_systems()
    du2, _, _, _, info = lapack.dgtsv(*systems[0])
    assert info == 0 and np.any(du2 != 0.0)
    assert solver._dgtsv() is not None
    for system in systems:
        assert _solve_banded(*system) == lapack.dgtsv(*system)[3].tobytes()


def test_the_forced_fallback_gives_the_same_bits(monkeypatch):
    # Where numpy ships no scipy-openblas library, scipy's public dgtsv
    # solves in place through its overwrite flags, to the same bits.
    from scipy.linalg import lapack

    def solve():
        return solver.solve_radial_dirichlet(
            radial.PLaplacian(3.0), solver.ProblemParams(dim=3, p=3.0, gamma=2.5),
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
    assert len(calls) == len(systems) + fallback.meta["iterations"]
    assert fallback.values.tobytes() == sol.values.tobytes() and fallback.meta == sol.meta


def test_without_numpys_dgtsv_or_scipy_a_cli_solve_exits_2_with_one_line(monkeypatch, capsys):
    # scipy is only the fallback's extra: where numpy's build exports no
    # dgtsv and scipy is not installed, the solve's first workspace is
    # refused with the extra to install. scipy.linalg is loaded first, so
    # that blocking its lapack module leaves the package whole.
    from scipy.linalg import lapack  # noqa: F401

    from pdi_lab import cli

    monkeypatch.setattr(solver, "_dgtsv", lambda: None)
    monkeypatch.setitem(sys.modules, "scipy.linalg.lapack", None)
    rc = cli.run(["solve", "--dim", "3", "--p", "2", "--gamma", "2", "--source", "power:1,0",
                  "--bc-right", "0"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == ("error: this numpy build exports no LAPACK dgtsv, and the solver's fallback "
                   'needs scipy: pip install "pdi-lab[scipy]"\n')
