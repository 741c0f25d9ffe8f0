"""Finite-volume Newton solver: manufactured solutions, convergence orders,
boundary-condition handling, and the a-posteriori residual check."""

import math

import numpy as np
import pytest

from pdi_lab import solver
from pdi_lab.errors import IllPosedBoundary, NoConvergence, PreconditionViolation
from pdi_lab.params import ProblemParams
from pdi_lab.radial import MeanCurvature, PLaplacian, sharpness_profile
from pdi_lab.solver import (
    RadialPowerSource,
    SampledSource,
    SolverConfig,
    ZeroSource,
    solution_residual,
    solve_radial_dirichlet,
)


def quadratic_source(r):
    # forcing for V = 1 - r^2 in -lap(V) + |V'|^2 = f, dim 3
    return 6.0 + 4.0 * np.asarray(r, dtype=float) ** 2


PARAMS_22 = ProblemParams(dim=3, p=2.0, gamma=2.0)


def solve_quadratic(n):
    return solve_radial_dirichlet(
        PLaplacian(2.0), PARAMS_22, quadratic_source, (0.0, 1.0),
        bc_left=None, bc_right=0.0, config=SolverConfig(n_nodes=n),
    )


def test_manufactured_quadratic_is_reproduced():
    sol = solve_quadratic(256)
    exact = 1.0 - sol.grid**2
    err = np.max(np.abs(sol.values - exact))
    # conservative midpoint fluxes with exact shell volumes are exact on
    # quadratics; 5e-4 is the loose contract, machine precision the reality
    assert err <= 5e-4
    assert err <= 1e-12


def test_constant_boundary_data_gives_constant():
    sol = solve_radial_dirichlet(
        PLaplacian(2.0), PARAMS_22, ZeroSource(), (0.5, 1.5),
        bc_left=3.0, bc_right=3.0,
    )
    assert np.all(sol.values == 3.0)
    assert sol.meta["iterations"] <= 2


def test_cosine_manufactured_orders_second_order():
    """V = cos(r) with the matching source; the profile is not quadratic so
    the measured order is a real discretization-error slope."""

    def source(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            core = np.cos(r) + 2.0 * np.sin(r) / r + np.sin(r) ** 2
        return np.where(r == 0.0, 3.0, core)

    errs = {}
    for n in (64, 128, 256):
        sol = solve_radial_dirichlet(
            PLaplacian(2.0), PARAMS_22, source, (0.0, 1.0),
            bc_left=None, bc_right=math.cos(1.0), config=SolverConfig(n_nodes=n),
        )
        errs[n] = float(np.max(np.abs(sol.values - np.cos(sol.grid))))
    order_a = math.log2(errs[64] / errs[128])
    order_b = math.log2(errs[128] / errs[256])
    assert min(order_a, order_b) >= 1.9


def test_degenerate_p3_manufactured_first_order():
    # V = -r^2 solves -div(|V'| V') + |V'|^2.5 = 16 r + (2r)^2.5 in dim 3
    params = ProblemParams(dim=3, p=3.0, gamma=2.5)

    def source(r):
        r = np.asarray(r, dtype=float)
        return 16.0 * r + (2.0 * r) ** 2.5

    errs = {}
    for n in (64, 128, 256):
        sol = solve_radial_dirichlet(
            PLaplacian(3.0), params, source, (0.0, 1.0),
            bc_left=None, bc_right=-1.0, config=SolverConfig(n_nodes=n),
        )
        errs[n] = float(np.max(np.abs(sol.values - (-(sol.grid**2)))))
    order = math.log2(errs[64] / errs[256]) / 2.0
    assert order >= 1.0


def test_annulus_reproduces_sharpness_twin():
    prof = sharpness_profile(3, 2.0, 4.0)
    params = ProblemParams(dim=3, p=2.0, gamma=4.0)
    sol = solve_radial_dirichlet(
        PLaplacian(2.0), params, ZeroSource(), (0.25, 1.0),
        bc_left=-prof.value(0.25), bc_right=0.0, config=SolverConfig(n_nodes=128),
    )
    err = np.max(np.abs(sol.values - (-prof.value(sol.grid))))
    assert err < 5e-4


def test_mean_curvature_constant_and_smooth_solve():
    params = ProblemParams(dim=3, p=2.0, gamma=2.0)
    sol = solve_radial_dirichlet(
        MeanCurvature(), params, RadialPowerSource(2.0, 0.0), (0.0, 1.0),
        bc_left=None, bc_right=0.0,
    )
    assert sol.meta["final_residual"] <= 1e-10
    assert np.all(np.isfinite(sol.values))
    assert sol.values[0] > 0  # positive source lifts the center


def test_solution_residual_matches_meta():
    sol = solve_quadratic(128)
    res = solution_residual(sol, quadratic_source)
    assert abs(res - sol.meta["final_residual"]) <= 1e-12


def test_residual_detects_perturbation():
    sol = solve_quadratic(128)
    sol.values[40] += 1e-3
    assert solution_residual(sol, quadratic_source) > 1e-3


def test_more_source_never_lowers_the_solution():
    base = solve_quadratic(96)
    lifted = solve_radial_dirichlet(
        PLaplacian(2.0), PARAMS_22, lambda r: quadratic_source(r) + 1.0, (0.0, 1.0),
        bc_left=None, bc_right=0.0, config=SolverConfig(n_nodes=96),
    )
    assert np.all(lifted.values >= base.values - 1e-12)


def test_determinism_bitwise():
    a = solve_quadratic(128)
    b = solve_quadratic(128)
    assert np.array_equal(a.values, b.values)
    assert a.meta == b.meta


def test_boundary_condition_guards():
    with pytest.raises(IllPosedBoundary):
        solve_radial_dirichlet(
            PLaplacian(2.0), PARAMS_22, ZeroSource(), (0.0, 1.0),
            bc_left=1.0, bc_right=0.0,
        )
    with pytest.raises(IllPosedBoundary):
        solve_radial_dirichlet(
            PLaplacian(2.0), PARAMS_22, ZeroSource(), (0.0, 1.0),
            bc_left=None, bc_right=None,
        )
    with pytest.raises(PreconditionViolation):
        solve_radial_dirichlet(
            PLaplacian(2.0), PARAMS_22, ZeroSource(), (1.0, 0.5),
            bc_left=1.0, bc_right=0.0,
        )


def test_singular_source_needs_positive_inner_radius():
    with pytest.raises(PreconditionViolation):
        solve_radial_dirichlet(
            PLaplacian(2.0), PARAMS_22, RadialPowerSource(1.0, 2.0), (0.0, 1.0),
            bc_left=None, bc_right=0.0,
        )
    # the same source is fine away from the axis
    sol = solve_radial_dirichlet(
        PLaplacian(2.0), PARAMS_22, RadialPowerSource(1.0, 2.0), (0.1, 1.0),
        bc_left=0.0, bc_right=0.0,
    )
    assert np.all(np.isfinite(sol.values))


def test_no_convergence_is_reported():
    prof = sharpness_profile(3, 2.0, 4.0)
    params = ProblemParams(dim=3, p=2.0, gamma=4.0)
    with pytest.raises(NoConvergence):
        solve_radial_dirichlet(
            PLaplacian(2.0), params, ZeroSource(), (0.25, 1.0),
            bc_left=-prof.value(0.25), bc_right=0.0,
            config=SolverConfig(n_nodes=128, max_iter=1),
        )


def test_config_validation():
    with pytest.raises(PreconditionViolation):
        SolverConfig(n_nodes=4)
    with pytest.raises(PreconditionViolation):
        SolverConfig(newton_tol=math.nan)
    with pytest.raises(PreconditionViolation):
        SolverConfig(max_iter=0)


def test_continuation_schedule_shape():
    final = solver._schedule(PLaplacian(2.0))
    assert len(final) == 1 and 0 < final[0] <= 1e-8
    assert solver._schedule(MeanCurvature()) == final
    staged = solver._schedule(PLaplacian(3.0))
    assert staged[-1] == final[0]
    assert len(staged) > 1
    assert all(b < a for a, b in zip(staged, staged[1:]))


P15_PARAMS = ProblemParams(dim=3, p=1.5, gamma=1.2)


def p15_source(r):
    # forcing for V = 1 - r^3 in -Delta_1.5 V + |V'|^1.2 = f, dim 3; the
    # flux |V'|^(-1/2) V' = -sqrt(3) r is smooth through the axis
    r = np.asarray(r, dtype=float)
    return 3.0 * math.sqrt(3.0) + (3.0 * r**2) ** 1.2


def solve_p15_ball(n, newton_tol=1e-10):
    return solve_radial_dirichlet(
        PLaplacian(1.5), P15_PARAMS, p15_source, (0.0, 1.0), bc_left=None, bc_right=0.0,
        config=SolverConfig(n_nodes=n, newton_tol=newton_tol),
    )


def test_p15_ball_converges_second_order():
    # The residual of these solves stalls above the tolerance, at the
    # roundoff the eps-regularized p < 2 flux derivative amplifies.
    errs = {}
    for n in (256, 1024, 4096):
        sol = solve_p15_ball(n)
        h = sol.grid[1] - sol.grid[0]
        errs[n] = float(np.max(np.abs(sol.values - (1.0 - sol.grid**3))))
        assert errs[n] <= h**2
    assert math.log(errs[256] / errs[1024], 4.0) >= 1.9
    assert math.log(errs[1024] / errs[4096], 4.0) >= 1.9


def test_zero_tolerance_ends_at_roundoff():
    sol = solve_p15_ball(64, newton_tol=0.0)
    assert 0.0 < sol.meta["final_residual"] <= 1e-10
    assert np.max(np.abs(sol.values - (1.0 - sol.grid**3))) <= 1e-3


def test_each_iterate_is_assembled_once(monkeypatch):
    """One assembly per eps stage plus one per line-search trial: an
    accepted trial's residual and Jacobian serve the next Newton step."""
    calls, steps = [], []
    assemble, banded = solver._assemble, solver.solve_banded

    def counting_assemble(values, *args):
        calls.append((args[6], values.copy()))  # (eps, iterate)
        return assemble(values, *args)

    def counting_banded(*args):
        steps.append(1)
        return banded(*args)

    monkeypatch.setattr(solver, "_assemble", counting_assemble)
    monkeypatch.setattr(solver, "solve_banded", counting_banded)
    prof = sharpness_profile(3, 2.0, 4.0)
    runs = [
        lambda: solve_quadratic(128),
        lambda: solve_p15_ball(256),
        lambda: solve_radial_dirichlet(
            PLaplacian(2.0), ProblemParams(dim=3, p=2.0, gamma=4.0), ZeroSource(),
            (0.25, 1.0), bc_left=-prof.value(0.25), bc_right=0.0,
        ),
    ]
    for run in runs:
        calls.clear()
        steps.clear()
        sol = run()
        stages = len(solver._schedule(sol.kind))
        # a trial is a point after its stage's first assembly that differs
        # from the point assembled just before it
        trials = sum(
            1 for (eps0, v0), (eps, v) in zip(calls, calls[1:])
            if eps == eps0 and not np.array_equal(v, v0)
        )
        assert len(calls) == stages + trials
        assert trials >= len(steps) == sol.meta["iterations"] > 0


def test_sampled_source_interpolates():
    g = np.linspace(0.0, 1.0, 11)
    src = SampledSource(g, quadratic_source(g))
    sol_a = solve_radial_dirichlet(
        PLaplacian(2.0), PARAMS_22, src, (0.0, 1.0), bc_left=None, bc_right=0.0,
        config=SolverConfig(n_nodes=64),
    )
    assert np.all(np.isfinite(sol_a.values))
    with pytest.raises(PreconditionViolation):
        SampledSource(np.array([0.2, 0.1]), np.zeros(2))


def test_solution_value_interpolates_between_nodes():
    sol = solve_quadratic(64)
    mid = 0.5 * (sol.grid[10] + sol.grid[11])
    lo, hi = sorted((sol.values[10], sol.values[11]))
    assert lo <= sol.value(mid) <= hi
