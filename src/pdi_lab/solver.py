"""Finite-volume Newton solver for the radial model equation.

Solves the two-point boundary problem

    -(1/r^(d-1)) d/dr [ r^(d-1) a_eps(V') ] + lam V + c_h |V'|^gamma = f(r)

on an interval [r_in, r_out], with a Dirichlet value at r_out and either
a Dirichlet value or a zero-flux condition at r_in. The flux a_eps is the
operator kind's regularized flux. The Laplacian and the mean-curvature
flux are solved at eps = 1e-10 directly; the other kinds are continued
through the fixed schedule eps = 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, each
stage warm-starting the next.

Each Newton step starts with the one convergence test: the max residual
over non-Dirichlet rows is at most newton_tol + eps_mach * max_i sum_j
|J_ij| |V_j|. The roundoff term follows the Jacobian, through the 1/h^2
of flux differences and the eps^(p-2) of a p < 2 flux derivative, so a
solve that has reached roundoff ends there; ``meta["roundoff_floor"]``
keeps the roundoff term of the passing test. The line search halves the
step until the residual falls, and the accepted trial's residual and
Jacobian serve the next step: each iterate is assembled once.

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
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

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
    """Grid size, Newton tolerance and Newton step budget per eps stage."""

    n_nodes: int = 256
    newton_tol: float = 1e-10
    max_iter: int = 60

    def __post_init__(self):
        if self.n_nodes < 8:
            raise PreconditionViolation("need at least 8 nodes")
        if not self.newton_tol >= 0:
            raise PreconditionViolation(f"Newton tolerance must be >= 0, got {self.newton_tol}")
        if not self.max_iter >= 1:
            raise PreconditionViolation(f"need at least one Newton step, got {self.max_iter}")


# Regularizations of the degenerate kinds, each stage warm-starting the
# next; the last is the final eps of every solve.
_CONTINUATION = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
# A line search tries the full Newton step, then halves it up to this often.
_LINE_SEARCH_HALVINGS = 30


def _schedule(kind: OperatorKind) -> tuple:
    # The Laplacian and the plain mean-curvature flux are uniformly
    # smooth; a single stage at the final eps suffices.
    smooth = isinstance(kind, MeanCurvature) or (
        isinstance(kind, PLaplacian) and kind.p == 2.0
    )
    return _CONTINUATION[-1:] if smooth else _CONTINUATION


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


def _discretize(grid: np.ndarray, d: int, f: Optional[Callable]):
    """Face radii, exact shell volumes and source values (f = None is zero)."""
    faces = np.concatenate(([grid[0]], (grid[:-1] + grid[1:]) / 2.0, [grid[-1]]))
    vols = (faces[1:] ** d - faces[:-1] ** d) / d
    f_vals = np.zeros(grid.size) if f is None else np.asarray(f(grid), dtype=float)
    return faces, vols, f_vals


def solve_banded(l_and_u, ab, b):
    """``scipy.linalg.solve_banded``, imported on the first solve, so that
    importing the package does not load scipy."""
    from scipy.linalg import solve_banded as banded

    return banded(l_and_u, ab, b)


def _roundoff_floor(ab: np.ndarray, values: np.ndarray, mask: np.ndarray) -> float:
    """eps_mach * max over the masked rows i of sum_j |J_ij| |V_j|."""
    a, v = np.abs(ab), np.abs(values)
    rows = a[1] * v
    rows[1:] += a[2, :-1] * v[:-1]   # J[i, i-1] V[i-1]
    rows[:-1] += a[0, 1:] * v[1:]    # J[i, i+1] V[i+1]
    return float(np.finfo(float).eps * np.max(rows[mask]))


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
    NoConvergence if the final continuation stage fails the convergence
    test (module docstring) within ``max_iter`` Newton steps.
    """
    r_in, r_out = float(domain[0]), float(domain[1])
    if not math.inf > r_out > r_in >= 0:
        raise PreconditionViolation(f"domain must satisfy 0 <= r_in < r_out < inf, got {domain}")
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
    faces, vols, f_vals = _discretize(grid, params.dim, f)
    if not np.all(np.isfinite(f_vals)):
        raise PreconditionViolation(
            "source term is not finite on the grid; singular sources need r_in > 0"
        )

    if bc_left is not None:
        values = bc_left + (bc_right - bc_left) * (grid - r_in) / (r_out - r_in)
    else:
        values = np.full(grid.size, float(bc_right))

    def assemble(v, eps):
        return _assemble(v, grid, faces, vols, kind, params, f_vals, eps, bc_left, bc_right)

    iterations = 0
    for eps in _schedule(kind):
        # Intermediate stages only warm-start the next one; failure to
        # fully converge there is harmless.
        R, ab, mask = assemble(values, eps)
        converged = False
        for _ in range(config.max_iter):
            res_norm = float(np.max(np.abs(R[mask])))
            floor = _roundoff_floor(ab, values, mask)
            if res_norm <= config.newton_tol + floor:
                converged = True
                break
            step = solve_banded((1, 1), ab, -R)
            iterations += 1
            scale = 1.0
            for _ in range(_LINE_SEARCH_HALVINGS):
                trial = values + scale * step
                trial_out = assemble(trial, eps)
                if float(np.max(np.abs(trial_out[0][mask]))) < res_norm:
                    break
                scale *= 0.5
            else:
                break
            # The accepted trial's assembly serves the next step.
            values = trial
            R, ab, _ = trial_out
    if not converged:
        raise NoConvergence(
            f"Newton stalled at residual {res_norm:.3e} "
            f"(tol {config.newton_tol:.1e}) at eps={eps:.1e}"
        )

    meta = {
        "iterations": iterations,
        "final_residual": res_norm,
        "roundoff_floor": floor,
        "eps_final": eps,
        "bc_left": bc_left,
        "bc_right": bc_right,
    }
    return DiscreteRadialSolution(
        grid=grid, values=values, params=params, kind=kind, meta=meta
    )


def solution_residual(sol: DiscreteRadialSolution, f: Callable) -> float:
    """Max discrete residual of a solution, excluding Dirichlet rows."""
    faces, vols, f_vals = _discretize(sol.grid, sol.params.dim, f)
    R, _, mask = _assemble(
        sol.values, sol.grid, faces, vols, sol.kind, sol.params, f_vals,
        sol.meta["eps_final"], sol.meta["bc_left"], sol.meta["bc_right"],
    )
    return float(np.max(np.abs(R[mask])))
