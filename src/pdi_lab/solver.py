"""Finite-volume Newton solver for the radial model equation.

Solves the two-point boundary problem

    -(1/r^(d-1)) d/dr [ r^(d-1) a_eps(V') ] + lam V + c_h |V'|^gamma = f(r)

on an interval [r_in, r_out], with a Dirichlet value at r_out and either
a Dirichlet value or a zero-flux condition at r_in. The flux a_eps is the
operator kind's regularized flux; for degenerate kinds the regularization
is driven to a small final eps by a continuation schedule, each stage
warm-starting the next.

Discretization is conservative: fluxes live on face radii, and each cell
is weighted by its exact shell volume (r_{i+1/2}^d - r_{i-1/2}^d)/d
rather than h r_i^(d-1). With that weighting the scheme reproduces
quadratic profiles exactly (for the Laplacian) and is second-order
accurate in general; the cell at r = 0 needs no special casing beyond
its zero inner flux.

The gradient term uses the centered difference (V_{i+1} - V_{i-1})/(2h)
and enters interior rows only: a Dirichlet row pins the value, and at a
zero-flux inner end the symmetric extension makes the gradient vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_banded

from .errors import IllPosedBoundary, NoConvergence, PreconditionViolation
from .params import ProblemParams
from .radial import MeanCurvature, OperatorKind, PLaplacian, _checked_samples

__all__ = [
    "SourceTerm",
    "ZeroSource",
    "RadialPowerSource",
    "SampledSource",
    "SolverConfig",
    "DiscreteRadialSolution",
    "solve_radial_dirichlet",
    "solution_residual",
]


# ---------------------------------------------------------------------------
# Source terms
# ---------------------------------------------------------------------------


class SourceTerm:
    def __call__(self, r):
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroSource(SourceTerm):
    def __call__(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))


@dataclass(frozen=True)
class RadialPowerSource(SourceTerm):
    """f(r) = amplitude * r^(-beta); singular at the axis when beta > 0."""

    amplitude: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and math.isfinite(self.beta)):
            raise PreconditionViolation(
                f"power source needs finite amplitude and beta, got {self.amplitude}, {self.beta}"
            )

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        # r = 0 with beta > 0 legitimately evaluates to inf; callers that
        # cannot digest a singular node check finiteness themselves.
        with np.errstate(divide="ignore"):
            return self.amplitude * r ** (-self.beta)


@dataclass(eq=False)
class SampledSource(SourceTerm):
    """Piecewise-linear interpolant of sampled source values."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.grid, self.values = _checked_samples(self.grid, self.values, "sampled source", 2)

    def __call__(self, r):
        return np.interp(np.asarray(r, dtype=float), self.grid, self.values)


# ---------------------------------------------------------------------------
# Configuration and solution containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    """Newton/continuation knobs; the defaults solve every shipped case."""

    n_nodes: int = 256
    eps_reg: float = 1e-10
    newton_tol: float = 1e-10
    max_iter: int = 60
    damping: float = 1.0
    line_search_halvings: int = 30
    continuation: tuple = (1e-2, 1e-4, 1e-6, 1e-8)

    def __post_init__(self):
        if self.n_nodes < 8:
            raise PreconditionViolation("need at least 8 nodes")
        if not self.newton_tol >= 0:
            raise PreconditionViolation(f"Newton tolerance must be >= 0, got {self.newton_tol}")
        if not 0 < self.eps_reg <= 1e-8:
            raise PreconditionViolation("final regularization must be in (0, 1e-8]")
        if any(b >= a for a, b in zip(self.continuation, self.continuation[1:])):
            raise PreconditionViolation("continuation schedule must be strictly decreasing")

    def schedule(self, kind: OperatorKind) -> tuple:
        # The Laplacian and the plain mean-curvature flux are uniformly
        # smooth; a single stage at the final eps suffices.
        smooth = isinstance(kind, MeanCurvature) or (
            isinstance(kind, PLaplacian) and kind.p == 2.0
        )
        if smooth:
            return (self.eps_reg,)
        stages = tuple(e for e in self.continuation if e > self.eps_reg)
        return stages + (self.eps_reg,)


@dataclass(eq=False)
class DiscreteRadialSolution:
    """Nodal values on a uniform radial grid, with solve metadata."""

    grid: np.ndarray
    values: np.ndarray
    params: ProblemParams
    kind: OperatorKind
    meta: dict

    def value(self, r):
        return np.interp(np.asarray(r, dtype=float), self.grid, self.values)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def _cell_volumes(faces: np.ndarray, d: int) -> np.ndarray:
    return (faces[1:] ** d - faces[:-1] ** d) / d


def _assemble(
    values: np.ndarray,
    grid: np.ndarray,
    faces: np.ndarray,
    vols: np.ndarray,
    kind: OperatorKind,
    params: ProblemParams,
    f_vals: np.ndarray,
    eps: float,
    bc_left: Optional[float],
    bc_right: float,
):
    """Residual vector and tridiagonal Jacobian in banded storage."""
    n = grid.size
    h = grid[1] - grid[0]
    d = params.dim
    gamma, lam, c_h = params.gamma, params.lam, params.c_h
    left_dirichlet = bc_left is not None

    slopes = np.diff(values) / h
    area = faces[1:-1] ** (d - 1)
    flux = area * np.asarray(kind.flux(slopes, eps), dtype=float)
    dflux = area * np.asarray(kind.flux_derivative(slopes, eps), dtype=float) / h

    # Centered slope at the interior nodes, the only rows with a gradient term.
    dv = (values[2:] - values[:-2]) / (2.0 * h)
    ham = c_h * np.abs(dv) ** gamma
    safe_dv = np.where(dv == 0.0, 1.0, dv)
    dham = np.where(
        dv == 0.0,
        0.0,
        c_h * gamma * np.abs(safe_dv) ** (gamma - 1.0) * np.sign(safe_dv),
    )

    R = np.empty(n)
    # Interior balance: flux divergence plus reaction, Hamiltonian, source.
    R[1:-1] = -(flux[1:] - flux[:-1]) / vols[1:-1] + lam * values[1:-1] + ham - f_vals[1:-1]

    sub = np.zeros(n)   # J[i, i-1] stored at sub[i]
    dia = np.zeros(n)
    sup = np.zeros(n)   # J[i, i+1] stored at sup[i]

    dia[1:-1] = (dflux[1:] + dflux[:-1]) / vols[1:-1] + lam
    sub[1:-1] = -dflux[:-1] / vols[1:-1]
    sup[1:-1] = -dflux[1:] / vols[1:-1]
    # Centered Hamiltonian couples to both neighbors.
    sub[1:-1] += dham * (-1.0 / (2.0 * h))
    sup[1:-1] += dham * (+1.0 / (2.0 * h))

    if left_dirichlet:
        R[0] = values[0] - bc_left
        dia[0] = 1.0
    else:
        # Zero flux through the left face; at r = 0 this is the symmetry
        # condition and the Hamiltonian vanishes with the gradient.
        R[0] = -flux[0] / vols[0] + lam * values[0] - f_vals[0]
        dia[0] = dflux[0] / vols[0] + lam
        sup[0] = -dflux[0] / vols[0]

    R[-1] = values[-1] - bc_right
    dia[-1] = 1.0

    ab = np.zeros((3, n))
    ab[0, 1:] = sup[:-1]
    ab[1, :] = dia
    ab[2, :-1] = sub[1:]
    mask = np.ones(n, dtype=bool)
    mask[0] = not left_dirichlet
    mask[-1] = False
    return R, ab, mask


def solve_radial_dirichlet(
    kind: OperatorKind,
    params: ProblemParams,
    f: Callable,
    domain: tuple,
    bc_left: Optional[float],
    bc_right: float,
    config: SolverConfig = SolverConfig(),
) -> DiscreteRadialSolution:
    """Damped Newton solve with eps-continuation on a uniform grid.

    ``bc_left`` may be None for a zero-flux condition (mandatory at
    r_in = 0, where a Dirichlet pin would overdetermine the symmetric
    problem). ``bc_right`` is always a Dirichlet value. Raises
    NoConvergence if the final continuation stage cannot reach the
    Newton tolerance.
    """
    r_in, r_out = float(domain[0]), float(domain[1])
    if not r_out > r_in >= 0:
        raise PreconditionViolation(f"domain must satisfy 0 <= r_in < r_out, got {domain}")
    if r_in == 0.0 and bc_left is not None:
        raise IllPosedBoundary(
            "a Dirichlet value at r = 0 overdetermines the symmetric problem; "
            "use bc_left=None for the zero-flux axis condition"
        )
    if bc_right is None:
        raise IllPosedBoundary("the outer boundary needs a Dirichlet value")
    if not (math.isfinite(bc_right) and (bc_left is None or math.isfinite(bc_left))):
        raise PreconditionViolation(
            f"boundary values must be finite, got bc_left={bc_left}, bc_right={bc_right}"
        )

    grid = np.linspace(r_in, r_out, config.n_nodes)
    h = grid[1] - grid[0]
    faces = np.concatenate(([grid[0]], (grid[:-1] + grid[1:]) / 2.0, [grid[-1]]))
    vols = _cell_volumes(faces, params.dim)

    f = f if f is not None else ZeroSource()
    f_vals = np.asarray(f(grid), dtype=float)
    if not np.all(np.isfinite(f_vals)):
        raise PreconditionViolation(
            "source term is not finite on the grid; singular sources need r_in > 0"
        )

    if bc_left is not None:
        values = bc_left + (bc_right - bc_left) * (grid - r_in) / (r_out - r_in)
    else:
        values = np.full(grid.size, float(bc_right))

    iterations = 0
    stage_residual = math.inf
    at_noise_floor = False
    for eps in config.schedule(kind):
        converged = False
        for _ in range(config.max_iter):
            R, ab, mask = _assemble(
                values, grid, faces, vols, kind, params, f_vals, eps, bc_left, bc_right
            )
            res_norm = float(np.max(np.abs(R[mask])))
            stage_residual = res_norm
            if res_norm <= config.newton_tol:
                converged = True
                break
            step = solve_banded((1, 1), ab, -R)
            scale = config.damping
            accepted = False
            for _ in range(config.line_search_halvings):
                trial = values + scale * step
                R_trial, _, _ = _assemble(
                    trial, grid, faces, vols, kind, params, f_vals, eps, bc_left, bc_right
                )
                trial_norm = float(np.max(np.abs(R_trial[mask])))
                if trial_norm < res_norm:
                    values = trial
                    accepted = True
                    break
                scale *= 0.5
            iterations += 1
            if not accepted:
                break
        # Intermediate stages only warm-start the next one; failure to
        # fully converge there is harmless.
    if not converged:
        # Flux differences amplify rounding like eps_mach/h^2, so on fine
        # grids the assembled residual has a floor the tolerance may sit
        # under; a stall at that floor is convergence, not failure.
        floor = 16.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(values)))) / h**2
        if stage_residual <= floor:
            converged = True
            at_noise_floor = True
    if not converged:
        raise NoConvergence(
            f"Newton stalled at residual {stage_residual:.3e} "
            f"(tol {config.newton_tol:.1e}) at eps={eps:.1e}"
        )

    meta = {
        "iterations": iterations,
        "final_residual": stage_residual,
        "eps_final": config.schedule(kind)[-1],
        "bc_left": bc_left,
        "bc_right": bc_right,
    }
    if at_noise_floor:
        meta["at_noise_floor"] = True
    return DiscreteRadialSolution(
        grid=grid, values=values, params=params, kind=kind, meta=meta
    )


def solution_residual(sol: DiscreteRadialSolution, f: Callable) -> float:
    """Max discrete residual of a solution, excluding Dirichlet rows."""
    grid, params, kind = sol.grid, sol.params, sol.kind
    faces = np.concatenate(([grid[0]], (grid[:-1] + grid[1:]) / 2.0, [grid[-1]]))
    vols = _cell_volumes(faces, params.dim)
    f = f if f is not None else ZeroSource()
    f_vals = np.asarray(f(grid), dtype=float)
    bc_left = sol.meta["bc_left"]
    bc_right = sol.meta["bc_right"]
    R, _, mask = _assemble(
        sol.values, grid, faces, vols, kind, params, f_vals,
        sol.meta["eps_final"], bc_left, bc_right,
    )
    return float(np.max(np.abs(R[mask])))
