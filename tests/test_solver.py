"""Finite-volume Newton solver: manufactured solutions, convergence orders,
boundary-condition handling, and the a-posteriori residual check."""

import math
import warnings

import numpy as np
import pytest

from pdi_lab import solver
from pdi_lab.errors import DomainExceeded, IllPosedBoundary, NoConvergence, PreconditionViolation
from pdi_lab.params import ProblemParams
from pdi_lab.radial import (
    GeneralizedMeanCurvature,
    MeanCurvature,
    PLaplacian,
    sharpness_profile,
)
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


@pytest.fixture(autouse=True)
def finite_gtsv_input(monkeypatch):
    """Every test here runs with a banded solve that asserts finite input:
    the Newton loop refuses a non-finite system at its roundoff floor, so no
    solve may hand one to gtsv, which only ``solve_banded`` calls. The check
    reads the whole workspace: sub, dia, sup and rhs."""
    banded = solver.solve_banded

    def checked(system):
        assert np.all(np.isfinite(system.data))
        return banded(system)

    monkeypatch.setattr(solver, "solve_banded", checked)


def kernel_errstate():
    """The errstate a solve enters around its kernels, for a test that
    calls them directly."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


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


@pytest.mark.parametrize("domain,bc_left", [((0.0, 1.0), None), ((0.25, 1.0), 0.5)])
def test_mean_curvature_and_gmc_two_solve_to_the_same_bits(domain, bc_left):
    # One flux: MeanCurvature is gmc with k = 2, solved by the same kernels
    # and schedule; only its growth order p = 2 differs, which they do not read.
    params = ProblemParams(dim=3, p=2.0, gamma=1.5)
    sols = [
        solve_radial_dirichlet(kind, params, RadialPowerSource(2.0, 0.0), domain,
                               bc_left=bc_left, bc_right=0.0, config=SolverConfig(n_nodes=128))
        for kind in (MeanCurvature(), GeneralizedMeanCurvature(2.0))
    ]
    assert sols[0].values.tobytes() == sols[1].values.tobytes()
    assert sols[0].meta == sols[1].meta


def test_solution_residual_matches_meta():
    sol = solve_quadratic(128)
    assert solution_residual(sol, quadratic_source) == sol.meta["final_residual"]


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
    # A mean-curvature Dirichlet jump of 0.5 across the annulus [0.25, 1]
    # has no classical solution, and at 256 nodes its Newton iteration stalls.
    # The message names the residual of the iterate the solve stopped at.
    params = ProblemParams(dim=3, p=2.0, gamma=1.5)
    with pytest.raises(NoConvergence, match=r"stalled at residual 3\.398e\+00 "):
        solve_radial_dirichlet(
            MeanCurvature(), params, RadialPowerSource(1.0, 0.0), (0.25, 1.0),
            bc_left=0.5, bc_right=0.0, config=SolverConfig(n_nodes=256),
        )


def test_the_step_budget_ends_a_stage(monkeypatch):
    # A budget of one Newton step stops the sharp annulus solve after its
    # single accepted step, whose residual the message names.
    monkeypatch.setattr(solver, "_MAX_STEPS", 1)
    prof = sharpness_profile(3, 2.0, 4.0)
    params = ProblemParams(dim=3, p=2.0, gamma=4.0)
    with pytest.raises(NoConvergence, match=r"stalled at residual 5\.725e\+00 "):
        solve_radial_dirichlet(
            PLaplacian(2.0), params, ZeroSource(), (0.25, 1.0),
            bc_left=-prof.value(0.25), bc_right=0.0, config=SolverConfig(n_nodes=128),
        )


def test_a_failed_banded_solve_is_no_convergence(monkeypatch):
    params = ProblemParams(dim=3, p=1.5, gamma=1.2)
    # an iterate past the float range: the finiteness test at the floor refuses it
    with pytest.raises(NoConvergence, match=r"eps=1\.0e-02: array must not contain infs or NaNs"):
        solve_radial_dirichlet(
            PLaplacian(1.5), params, ZeroSource(), (0.5, 1.0),
            bc_left=1e200, bc_right=0.0, config=SolverConfig(n_nodes=64),
        )

    def singular(*args):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(solver, "solve_banded", singular)
    with pytest.raises(NoConvergence, match=r"eps=1\.0e-10: singular matrix"):
        solve_quadratic(64)


def test_config_validation():
    with pytest.raises(PreconditionViolation):
        SolverConfig(n_nodes=4)
    with pytest.raises(PreconditionViolation):
        SolverConfig(newton_tol=math.nan)


def test_continuation_schedule_shape():
    final = solver._schedule(PLaplacian(2.0))
    assert len(final) == 1 and 0 < final[0] <= 1e-8
    # The uniformly smooth fluxes: gmc with k = 2 is the mean-curvature flux
    for kind in (MeanCurvature(), GeneralizedMeanCurvature(2.0)):
        assert solver._schedule(kind) == final
    # Degenerate (p > 2) and singular (p < 2) kinds are continued
    for kind in (PLaplacian(1.2), PLaplacian(1.5), PLaplacian(3.0), GeneralizedMeanCurvature(4.0)):
        staged = solver._schedule(kind)
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


def test_p12_ball_converges_second_order():
    """V = 1 - r^6 for p = 1.2, whose flux -6^0.2 r is smooth through the
    axis. Started at the final eps, where the flux derivative is
    eps^(p-2) = 1e8 at zero slope, the solve passes its inflated roundoff
    floor far from the solution (error 2e-3 at n = 1024); the continuation
    reaches the discretization error."""
    params = ProblemParams(dim=3, p=1.2, gamma=1.2)

    def source(r):
        r = np.asarray(r, dtype=float)
        return 3.0 * 6.0**0.2 + (6.0 * r**5) ** 1.2

    errs = {}
    for n in (256, 1024, 4096):
        sol = solve_radial_dirichlet(
            PLaplacian(1.2), params, source, (0.0, 1.0), bc_left=None, bc_right=0.0,
            config=SolverConfig(n_nodes=n),
        )
        h = sol.grid[1] - sol.grid[0]
        errs[n] = float(np.max(np.abs(sol.values - (1.0 - sol.grid**6))))
        assert errs[n] <= 5.0 * h**2
    assert math.log(errs[256] / errs[1024], 4.0) >= 1.9
    assert math.log(errs[1024] / errs[4096], 4.0) >= 1.9


def test_zero_tolerance_ends_at_roundoff():
    sol = solve_p15_ball(64, newton_tol=0.0)
    assert 0.0 < sol.meta["final_residual"] <= 1e-10
    # with no tolerance, the residual passed the roundoff floor alone
    assert sol.meta["final_residual"] <= sol.meta["roundoff_floor"]
    assert np.max(np.abs(sol.values - (1.0 - sol.grid**3))) <= 1e-3


def _slopes(values, h):
    return (values[1:] - values[:-1]) / h, (values[2:] - values[:-2]) / (2.0 * h)


def test_each_iterate_is_assembled_once():
    """One residual per eps stage start and per line-search trial; one
    Jacobian per Newton step, plus one at each test that ends the final
    stage or a stage still above its stage tolerance: a rejected trial
    never builds one. The stage records count each."""
    prof = sharpness_profile(3, 2.0, 4.0)
    sols = [
        solve_quadratic(128),
        solve_p15_ball(256),
        solve_p3_ball(128),
        solve_radial_dirichlet(
            PLaplacian(2.0), ProblemParams(dim=3, p=2.0, gamma=4.0), ZeroSource(),
            (0.25, 1.0), bc_left=-prof.value(0.25), bc_right=0.0,
        ),
    ]
    for sol in sols:
        stages = sol.meta["stages"]
        schedule = solver._schedule(sol.kind)
        assert [stage["eps"] for stage in stages] == list(schedule)
        assert sum(stage["steps"] for stage in stages) == sol.meta["iterations"] > 0
        for stage in stages:
            final = stage["eps"] == schedule[-1]
            # every step takes at least one trial
            assert stage["residuals"] - 1 >= stage["steps"]
            # A test that passes ends its stage without a step. An
            # intermediate stage ends at its first residual within its
            # stage tolerance, with no Jacobian; a Jacobian follows only a
            # residual of the final stage or one still above its stage's
            # tolerance, where the floor decides the test.
            with_j = final or stage["residual"] > stage["tol"]
            assert stage["jacobians"] == stage["steps"] + with_j
            if with_j:
                assert stage["residual"] <= 1e-10 + stage["floor"]


P3_PARAMS = ProblemParams(dim=3, p=3.0, gamma=3.5)


def p3_source(r):
    # forcing for V = 1 - r^2 in -Delta_3 V + |V'|^3.5 = f, dim 3
    r = np.asarray(r, dtype=float)
    return 16.0 * r + (2.0 * r) ** 3.5


def solve_p3_ball(n):
    return solve_radial_dirichlet(
        PLaplacian(3.0), P3_PARAMS, p3_source, (0.0, 1.0), bc_left=None, bc_right=0.0,
        config=SolverConfig(n_nodes=n),
    )


def test_a_stage_within_tolerance_forms_no_jacobian():
    sol = solve_p3_ball(128)
    stages = sol.meta["stages"]
    schedule = solver._schedule(sol.kind)
    disc = solver._Discretization(sol.grid, sol.kind, sol.params, p3_source, None, 0.0)
    with kernel_errstate():
        # R0, the residual max of the solve's first iterate, V = 0
        r0 = solver._residual(np.zeros(sol.grid.size), disc, schedule[0])[1]
    tols = [max(1e-10, eps * r0) for eps in schedule[:-1]] + [1e-10]
    assert [stage["tol"] for stage in stages] == tols
    # some intermediate stage ends at its stage tolerance, still above
    # newton_tol, with no Jacobian after its last residual
    assert any(1e-10 < stage["residual"] <= stage["tol"] and stage["jacobians"] == stage["steps"]
               for stage in stages[:-1])
    # the final stage still forms the floor it reports: the floor of the
    # Jacobian at the solution
    assert stages[-1]["jacobians"] == stages[-1]["steps"] + 1
    with kernel_errstate():
        _, norm, slopes = solver._residual(sol.values, disc, schedule[-1])
        floor = solver._roundoff_floor(
            *solver._jacobian(slopes, disc, schedule[-1]), sol.values, disc.rows
        )
    assert norm == sol.meta["final_residual"]
    assert 0.0 < floor == sol.meta["roundoff_floor"]


def test_continued_solves_take_their_pinned_step_counts():
    # 8, 16 and 4 Newton steps, with intermediate stages ending at their
    # stage tolerance max(newton_tol, eps R0); polished to newton_tol
    # instead, these solves took 13, 20 and 7.
    gmc4 = solve_radial_dirichlet(
        GeneralizedMeanCurvature(4.0), ProblemParams(dim=3, p=2.0, gamma=2.5),
        RadialPowerSource(1.0, 0.0), (0.25, 1.0), 0.5, 0.0, config=SolverConfig(n_nodes=128),
    )
    counts = [sol.meta["iterations"] for sol in (solve_p3_ball(128), solve_p15_ball(256), gmc4)]
    assert counts == [8, 16, 4]


@pytest.mark.parametrize("kind,gamma", [
    (PLaplacian(1.5), 1.2), (PLaplacian(2.0), 4.0), (PLaplacian(3.0), 3.5),
    (MeanCurvature(), 1.5), (GeneralizedMeanCurvature(4.0), 2.5),
])
@pytest.mark.parametrize("domain,bc_left", [((0.0, 1.0), None), ((0.25, 1.0), 0.5)])
def test_carried_slopes_are_the_iterates_own(monkeypatch, kind, gamma, domain, bc_left):
    # Every Jacobian reads slopes carried over from a residual; they must
    # equal, bit for bit, the slopes of the iterate the test is at, the
    # point of the residual just before it, at the same eps: the stage's
    # start or an accepted trial.
    current = []
    residual, jacobian = solver._residual, solver._jacobian

    def tracking_residual(values, disc, eps):
        current[:] = [values.copy(), disc.h, eps]
        return residual(values, disc, eps)

    def checked_jacobian(slopes, disc, eps):
        values, h, residual_eps = current
        want = _slopes(values, h)
        assert len(slopes) == 2 and all(np.array_equal(a, b) for a, b in zip(slopes, want))
        assert eps == residual_eps
        checked.append(eps)
        return jacobian(slopes, disc, eps)

    checked = []
    monkeypatch.setattr(solver, "_residual", tracking_residual)
    monkeypatch.setattr(solver, "_jacobian", checked_jacobian)
    sol = solve_radial_dirichlet(
        kind, ProblemParams(dim=3, p=kind.p, gamma=gamma), RadialPowerSource(1.0, 0.0),
        domain, bc_left, 0.0, config=SolverConfig(n_nodes=128),
    )
    # the stage records count the Jacobians the solve formed
    assert len(checked) == sum(stage["jacobians"] for stage in sol.meta["stages"])
    assert len(checked) > sol.meta["iterations"] > 0


@pytest.mark.parametrize("gamma", [0.6, 1.0, 1.5, 4.0])
def test_hamiltonian_derivative_vanishes_at_zero_slope(gamma):
    # At a flat node the gradient term's derivative is 0 for every gamma,
    # also for gamma < 1, where |dv|^(gamma - 1) is infinite there.
    params = ProblemParams(dim=3, p=1.5, gamma=gamma)
    grid = np.linspace(0.0, 1.0, 32)
    disc = solver._Discretization(grid, PLaplacian(1.5), params, ZeroSource(), None, 0.0)
    values = np.where(grid < 0.5, 1.0, 1.0 - (grid - 0.5) ** 2)
    # |0|^(gamma - 1) divides by zero for gamma < 1, as it may in a solve
    with kernel_errstate():
        _, _, slopes = solver._residual(values, disc, 1e-2)
        sub, dia, sup = solver._jacobian(slopes, disc, 1e-2)
    assert all(np.all(np.isfinite(a)) for a in (sub, dia, sup))
    flat = np.flatnonzero(slopes[1] == 0.0) + 1  # interior rows with dv = 0
    assert flat.size > 0
    # there the rows are the flux part alone: symmetric off-diagonals
    # without the +-dham/(2h) coupling
    dflux = disc.area * PLaplacian(1.5).flux_derivative(slopes[0], 1e-2) / disc.h
    assert np.array_equal(sub[flat - 1], -dflux[flat - 1] / disc.vols[flat])
    assert np.array_equal(sup[flat], -dflux[flat] / disc.vols[flat])


# The kernels in plain expression form: the reference that the solver's
# in-place kernels must match bit for bit.
def _reference_residual(values, disc, eps):
    h = disc.h
    slope = (values[1:] - values[:-1]) / h
    flux = disc.area * np.asarray(disc.kind.flux(slope, eps), dtype=float)
    dv = (values[2:] - values[:-2]) / (2.0 * h)
    vols, f_vals = disc.vols, disc.f_vals
    R = np.empty(values.size)
    R[1:-1] = (
        -(flux[1:] - flux[:-1]) / vols[1:-1] + disc.lam * values[1:-1]
        + disc.c_h * np.abs(dv) ** disc.gamma - f_vals[1:-1]
    )
    if disc.bc_left is None:
        R[0] = -flux[0] / vols[0] + disc.lam * values[0] - f_vals[0]
    else:
        R[0] = values[0] - disc.bc_left
    R[-1] = values[-1] - disc.bc_right
    return R, float(np.abs(R[disc.rows]).max()), (slope, dv)


def _reference_jacobian(slopes, disc, eps):
    slope, dv = slopes
    h, gamma = disc.h, disc.gamma
    dflux = disc.area * np.asarray(disc.kind.flux_derivative(slope, eps), dtype=float) / h
    dham = disc.c_h * gamma * np.abs(dv) ** (gamma - 1.0) * np.sign(dv)
    dham[dv == 0.0] = 0.0
    vols = disc.vols
    n = slope.size + 1
    sub = np.zeros(n - 1)
    dia = np.empty(n)
    sup = np.zeros(n - 1)
    dia[1:-1] = (dflux[1:] + dflux[:-1]) / vols[1:-1] + disc.lam
    sub[:-1] = -dflux[:-1] / vols[1:-1] + dham * (-1.0 / (2.0 * h))
    sup[1:] = -dflux[1:] / vols[1:-1] + dham * (+1.0 / (2.0 * h))
    if disc.bc_left is None:
        dia[0] = dflux[0] / vols[0] + disc.lam
        sup[0] = -dflux[0] / vols[0]
    else:
        dia[0] = 1.0
    dia[-1] = 1.0
    return sub, dia, sup


def _reference_floor(sub, dia, sup, values, rows):
    v = np.abs(values)
    sums = np.abs(dia) * v
    sums[1:] += np.abs(sub) * v[:-1]
    sums[:-1] += np.abs(sup) * v[1:]
    return solver._EPS_MACH * float(sums[rows].max())


def _bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


@pytest.mark.parametrize("kind", [
    PLaplacian(1.5), PLaplacian(2.0), PLaplacian(3.0), MeanCurvature(),
    GeneralizedMeanCurvature(2.0), GeneralizedMeanCurvature(4.0),
], ids=repr)
@pytest.mark.parametrize("domain,bc_left", [((0.0, 1.0), None), ((0.25, 1.0), 0.5)])
def test_kernels_keep_the_bits_of_their_expression_forms(kind, domain, bc_left):
    # Random iterates with runs of equal values, so some face slopes and
    # some centred slopes are exactly 0, at every eps of the continuation.
    # The kernels read dim, lam, gamma and c_h of the parameters, and p =
    # 1.5 admits every gamma here. With c_h = 1e308, c_h gamma overflows
    # for gamma > 1, and a flat centred slope gives inf * 0 = NaN there.
    rng = np.random.default_rng(30)
    grid = np.linspace(domain[0], domain[1], 48)
    source = RadialPowerSource(2.0, 0.0)
    for gamma in (0.6, 1.0, 1.5, 4.0):
        for lam in (0.0, 1.0):
            for c_h in (1.0, 2.5, 1e308):
                params = ProblemParams(dim=3, p=1.5, gamma=gamma, lam=lam, c_h=c_h)
                disc = solver._Discretization(grid, kind, params, source, bc_left, 0.0)
                for eps in solver._CONTINUATION:
                    values = rng.standard_normal(grid.size)
                    values[10:16] = values[10]    # zero face and centred slopes
                    values[30] = values[32]        # a zero centred slope alone
                    values[40:] *= -1.0
                    with kernel_errstate():
                        R, norm, slopes = solver._residual(values, disc, eps)
                        want_R, want_norm, want_slopes = _reference_residual(values, disc, eps)
                        jac = solver._jacobian(slopes, disc, eps)
                        want_jac = _reference_jacobian(want_slopes, disc, eps)
                        floor = solver._roundoff_floor(*jac, values, disc.rows)
                        want_floor = _reference_floor(*want_jac, values, disc.rows)
                    assert np.any(slopes[0] == 0.0) and np.any(slopes[1] == 0.0)
                    assert _bits(R, *slopes) == _bits(want_R, *want_slopes)
                    assert _bits(*jac) == _bits(*want_jac)
                    assert _bits(norm, floor) == _bits(want_norm, want_floor)


def _system(sub, dia, sup, rhs):
    """A workspace holding copies of the four arrays."""
    system = solver._Tridiagonal(dia.size)
    system.sub[:], system.dia[:], system.sup[:], system.rhs[:] = sub, dia, sup, rhs
    return system


def test_solve_banded_keeps_scipys_guards():
    n = 64
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        solver.solve_banded(_system(np.zeros(n - 1), np.zeros(n), np.ones(n - 1), np.ones(n)))


@pytest.mark.parametrize("domain,bc_left", [((0.0, 1.0), None), ((0.25, 1.0), 0.5)])
def test_a_jacobian_after_a_banded_solve_has_its_own_bits(domain, bc_left):
    # gtsv overwrites the workspace with its factors, also the off-diagonal
    # entries a Dirichlet row keeps at zero; the next Jacobian resets them.
    params = ProblemParams(dim=3, p=1.5, gamma=1.2)
    grid = np.linspace(domain[0], domain[1], 48)
    disc = solver._Discretization(grid, PLaplacian(1.5), params, RadialPowerSource(2.0, 0.0),
                                  bc_left, 0.0)
    values = 1.0 - grid**2 + 0.01 * np.sin(7.0 * grid)
    with kernel_errstate():
        R, _, slopes = solver._residual(values, disc, 1e-4)
        first = _bits(*solver._jacobian(slopes, disc, 1e-4))
        np.negative(R, out=disc.system.rhs)
        solver.solve_banded(disc.system)
        assert _bits(disc.system.sub, disc.system.sup) != first[::2]
        assert _bits(*solver._jacobian(slopes, disc, 1e-4)) == first


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("where", ["flux_derivative", "residual"])
@pytest.mark.parametrize("domain,bc_left", [((0.0, 1.0), None), ((0.5, 1.0), 1.0)])
def test_a_non_finite_system_is_no_convergence(monkeypatch, bad, where, domain, bc_left):
    # One non-finite interior entry of the Jacobian's face coefficients or
    # of the residual fails the finiteness test at the roundoff floor, with
    # the message gtsv's own guard gave, before any banded solve.
    if where == "flux_derivative":
        derivative = PLaplacian.flux_derivative

        def injected(self, s, eps=0.0):
            out = derivative(self, s, eps)
            out[5] = bad
            return out

        monkeypatch.setattr(PLaplacian, "flux_derivative", injected)
    else:
        residual = solver._residual

        def injected(values, disc, eps):
            R, _, slopes = residual(values, disc, eps)
            R[5] = bad
            return R, float(np.abs(R[disc.rows]).max()), slopes

        monkeypatch.setattr(solver, "_residual", injected)
    with pytest.raises(NoConvergence, match=r"^Newton step failed at eps=1\.0e-02: "
                       r"array must not contain infs or NaNs$"):
        solve_radial_dirichlet(
            PLaplacian(1.5), P15_PARAMS, RadialPowerSource(1.0, 0.0), domain, bc_left, 0.0,
            config=SolverConfig(n_nodes=64),
        )


def test_an_infinite_floor_is_no_convergence(monkeypatch):
    # The constant iterate of bc 1/1 has residual 1 in every interior row
    # with f = 1. An inf at one face of the flux derivative makes the floor
    # inf, which once passed norm <= tol + floor: the solve was reported
    # converged after 0 steps, with final_residual 1.0 and roundoff_floor inf.
    derivative = PLaplacian.flux_derivative

    def injected(self, s, eps=0.0):
        out = derivative(self, s, eps)
        out[5] = math.inf
        return out

    monkeypatch.setattr(PLaplacian, "flux_derivative", injected)
    with pytest.raises(NoConvergence, match=r"eps=1\.0e-10: array must not contain infs or NaNs"):
        solve_radial_dirichlet(
            PLaplacian(2.0), PARAMS_22, RadialPowerSource(1.0, 0.0), (0.5, 1.0), 1.0, 1.0,
            config=SolverConfig(n_nodes=64),
        )


def test_a_solve_through_overflowing_trials_emits_no_warning(monkeypatch):
    # With gamma = 80, |dv|^gamma overflows at some full Newton steps; the
    # line search halves them, and the one errstate the solve enters keeps
    # the overflow off stderr and leaves the caller's settings as they were.
    norms = []
    residual = solver._residual

    def recording(values, disc, eps):
        out = residual(values, disc, eps)
        norms.append(out[1])
        return out

    monkeypatch.setattr(solver, "_residual", recording)
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_radial_dirichlet(
            GeneralizedMeanCurvature(4.0), ProblemParams(dim=3, p=2.0, gamma=80.0),
            RadialPowerSource(10.0, 0.0), (0.0, 1.0), None, 0.0, config=SolverConfig(n_nodes=64),
        )
    assert not all(map(math.isfinite, norms))
    assert math.isfinite(sol.meta["final_residual"]) and np.all(np.isfinite(sol.values))
    assert np.geterr() == before


@pytest.mark.parametrize("dim, domain, bc_left", [
    (344, (1.5, 344.0), 1.0),  # r^344 past the float max
    (3, (0.5, 1.7976931348623157e308), 1.0),  # so are r^3 and linspace's last step
    (3, (0.0, 5e-324), None),  # every spacing rounds to 0
    (3, (1.0, 1.000000000000001), 1.0),  # the first node rounds back to r_in
    (3, (0.0, 1e-320), None),  # 1 / (2h) overflows
    (3, (0.0, 1e-107), None),  # the first shell volumes, (h/2)^3/3 on, underflow to 0
    (3, (0.0, 1e-120), None),  # every shell volume underflows to 0
    (344, (0.0, 0.5), None),  # (h/2)^344/344 and the first face area (h/2)^343 underflow
])
def test_a_grid_past_the_float_range_is_refused_before_any_newton_step(monkeypatch, dim, domain,
                                                                       bc_left):
    calls = []
    monkeypatch.setattr(solver, "_residual", lambda *args: calls.append(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionViolation, match="leaves the float range"):
            solve_radial_dirichlet(
                PLaplacian(2.0), ProblemParams(dim=dim, p=2.0, gamma=2.0),
                RadialPowerSource(1.0, 0.0), domain, bc_left, 0.0, config=SolverConfig(n_nodes=17),
            )
    assert calls == []


@pytest.mark.parametrize("kind,gamma", [
    (PLaplacian(1.5), 1.2), (PLaplacian(3.0), 2.5), (GeneralizedMeanCurvature(4.0), 1.5),
])
@pytest.mark.parametrize("domain,bc_left", [((0.0, 1.0), None), ((0.25, 1.0), 0.5)])
def test_solution_residual_is_the_final_residual(kind, gamma, domain, bc_left):
    # the solver's test and solution_residual evaluate the same residual
    f = RadialPowerSource(1.0, 0.0)
    sol = solve_radial_dirichlet(
        kind, ProblemParams(dim=3, p=kind.p, gamma=gamma), f, domain, bc_left, 0.0,
        config=SolverConfig(n_nodes=128),
    )
    assert solution_residual(sol, f) == sol.meta["final_residual"]


def test_sampled_source_interpolates():
    g = np.linspace(0.0, 1.0, 11)
    src = SampledSource(g, quadratic_source(g))
    sol_a = solve_radial_dirichlet(
        PLaplacian(2.0), PARAMS_22, src, (0.0, 1.0), bc_left=None, bc_right=0.0,
        config=SolverConfig(n_nodes=64),
    )
    assert np.all(np.isfinite(sol_a.values))


def test_sampled_source_refuses_radii_outside_its_grid():
    g = np.linspace(0.25, 1.0, 11)
    src = SampledSource(g, quadratic_source(g))
    assert src(g).tolist() == quadratic_source(g).tolist()
    for r in ([0.2, 0.5], [0.5, 1.0 + 1e-15], 2.0):
        with pytest.raises(DomainExceeded, match=r"outside its grid \[0.25, 1.0\]"):
            src(r)
    with pytest.raises(DomainExceeded):
        solve_radial_dirichlet(
            PLaplacian(2.0), PARAMS_22, src, (0.25, 2.0), bc_left=1.0, bc_right=0.0,
            config=SolverConfig(n_nodes=16),
        )


def test_solution_value_interpolates_between_nodes():
    sol = solve_quadratic(64)
    mid = 0.5 * (sol.grid[10] + sol.grid[11])
    lo, hi = sorted((sol.values[10], sol.values[11]))
    assert lo <= sol.value(mid) <= hi


def _lookup_cases():
    # Rough random values on uniform grids, where an index off by one
    # panel changes the bits, and one real solver output.
    rng = np.random.default_rng(7)
    for lo, hi, n in ((0.0, 1.0, 64), (0.005, 1.0, 1024), (0.3, 2.7, 333),
                      (0.1, 0.7, 1000), (1e-3, 3.3, 4097)):
        g = np.linspace(lo, hi, n)
        yield solver.DiscreteRadialSolution(g, rng.standard_normal(n), PARAMS_22, PLaplacian(2.0), {})
    yield solve_radial_dirichlet(
        PLaplacian(2.0), PARAMS_22, quadratic_source, (0.005, 1.0),
        bc_left=1.0 - 0.005**2, bc_right=0.0, config=SolverConfig(n_nodes=1024),
    )


@pytest.mark.parametrize("sol", _lookup_cases(), ids=lambda sol: f"n{sol.grid.size}-{sol.grid[0]:g}")
def test_solution_value_is_bit_identical_to_np_interp(sol):
    # A solution reads like all gridded data: np.interp's bits inside the
    # grid, at every node and its float neighbours inside it and at both
    # ends; outside the grid, or at NaN, it is refused.
    g, v = sol.grid, sol.values
    rng = np.random.default_rng(g.size)
    probes = [-np.inf, -1.0, 0.0, np.inf, 1e300, np.nan, 1e9]
    inside = [x for x in probes if g[0] <= x <= g[-1]]
    r = np.concatenate((
        rng.uniform(g[0], g[-1], 20000),
        g, np.nextafter(g[1:], -np.inf), np.nextafter(g[:-1], np.inf), inside,
    ))
    assert sol.value(r).tobytes() == np.interp(r, g, v).tobytes()
    for x in (g[0], 0.5 * (g[0] + g[-1]), g[-1], float(g[5]), np.asarray(g[-2] + 1e-12)):
        got, want = sol.value(x), np.interp(x, g, v)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    outside = [np.nextafter(g[0], -np.inf), np.nextafter(g[-1], np.inf),
               *(x for x in probes if not g[0] <= x <= g[-1])]
    for x in outside:
        for radii in (x, [g[0], x, g[-1]]):
            with pytest.raises(DomainExceeded, match=r"^solution queried outside its grid \["):
                sol.value(radii)


def test_solution_value_keeps_the_shape_and_leaves_its_argument_alone():
    # A 0-d, 1-D or 2-D radius array keeps its shape, a read-only one is
    # only read, and the bits are np.interp's for node values with -0.0 and
    # radii at +-0; a read-only argument with a radius outside the grid, at
    # +-inf or NaN is refused and left alone as well.
    g = np.linspace(0.0, 1.0, 9)
    v = np.array([-0.0, 0.5, -0.0, -0.5, 0.0, 2.0, -0.0, 1.0, -0.0])
    sol = solver.DiscreteRadialSolution(g, v, PARAMS_22, PLaplacian(2.0), {})
    flat = np.concatenate((np.linspace(0.0, 1.0, 31), g, [-0.0, 0.0]))
    for r in (np.asarray(0.3), np.asarray(-0.0), flat, flat[2:].reshape(4, 10)):
        r.setflags(write=False)
        before = r.tobytes()
        got = sol.value(r)
        want = np.interp(r, g, v)
        assert np.shape(got) == r.shape
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert r.tobytes() == before
    for bad in (-0.5, 1.5, np.inf, -np.inf, np.nan):
        for r in (np.asarray(bad), np.append(flat, bad), np.append(flat[3:], bad).reshape(4, 10)):
            r.setflags(write=False)
            before = r.tobytes()
            with pytest.raises(DomainExceeded):
                sol.value(r)
            assert r.tobytes() == before


def test_solution_value_returns_node_values_themselves():
    # At a node np.interp returns the stored value, so a -0.0 keeps its
    # sign; slope * 0 + values[j] would turn it into +0.0.
    g = np.linspace(0.0, 1.0, 9)
    v = np.array([1.0, 0.5, -0.0, -0.5, 0.0, 2.0, -0.0, 1.0, 0.0])
    sol = solver.DiscreteRadialSolution(g, v, PARAMS_22, PLaplacian(2.0), {})
    assert sol.value(g).tobytes() == np.interp(g, g, v).tobytes()
