"""Finite-volume Newton solver for the radial model equation.

Solves the two-point boundary problem

    -(1/r^(d-1)) d/dr [ r^(d-1) a_eps(V') ] + lam V + c_h |V'|^gamma = f(r)

on an interval [r_in, r_out], with a Dirichlet value at r_out and either
a Dirichlet value or a zero-flux condition at r_in. The flux a_eps is the
operator kind's regularized flux. The Laplacian and the mean-curvature
flux (gmc with k = 2) are solved at eps = 1e-10 directly; the other
kinds, the singular p < 2 p-Laplacian included, are continued through
the fixed schedule eps = 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, each stage
warm-starting the next. An intermediate stage is solved only to its
stage tolerance max(newton_tol, eps * R0), R0 the max residual of the
solve's initial iterate (0 when that is not finite, so a non-finite start
fails at its own stage): it ends at its first residual within it.

Each Newton step starts with the one convergence test: the max residual
over non-Dirichlet rows is at most newton_tol + eps_mach * max_i sum_j
|J_ij| |V_j|. The roundoff term follows the Jacobian, through the 1/h^2
of flux differences and the eps^(p-2) of a p < 2 flux derivative, so a
solve that has reached roundoff ends there; ``meta["roundoff_floor"]``
keeps the roundoff term of the passing test. The test and the step read
one Jacobian, formed at the current iterate from the face and centred
slopes its residual evaluation returned. An intermediate stage whose
residual is within its stage tolerance ends without a Jacobian or a
floor; the final stage always forms the floor it reports. The line
search halves the step until the residual falls and evaluates only the
residual of each trial; the accepted trial's residual and slopes serve
the next step. So each trial costs one residual, each Newton step one
Jacobian, and each test that ends the final stage, or a stage still
above its stage tolerance, one more; a rejected trial never builds a
Jacobian. The grid data no iterate changes are computed once: the grid
geometry (spacing, shell volumes, face areas) once per grid shape
(r_in, r_out, n_nodes, dim), memoized for the last
``_GEOMETRY_CACHE_SIZE`` = 8 shapes as two read-only arrays of n floats
each, the source values once per solve. A grid where the geometry leaves
the float range, or a volume or area underflows to 0, is refused before
any source value or residual, and the refusal is not memoized. A
non-finite residual max or floor (finite only if every J_ij and V_j is)
is NoConvergence before the test, so ``gtsv`` never sees an inf or a
NaN; one ``np.errstate`` around the Newton loop silences a stiff trial.

Each eps stage is one call of ``_newton_stage``, which records its work:
``meta["stages"]`` holds one dict per stage with its ``eps``, its ``tol``
(the stage tolerance; newton_tol for the final stage), its Newton
``steps``, its ``residuals`` (the stage's start and one per line-search
trial) and ``jacobians``, its last ``residual`` max and its last
``floor`` (None where it formed no Jacobian). A step is one banded solve
and every residual after the start one trial, so the records count
those too, and ``meta["iterations"]`` is the sum of the steps.

Discretization is conservative: fluxes live on face radii, and each cell
is weighted by its exact shell volume (r_{i+1/2}^d - r_{i-1/2}^d)/d
rather than h r_i^(d-1). With that weighting the scheme reproduces
quadratic profiles exactly (for the Laplacian) and is second-order
accurate in general; the cell at r = 0 needs no special casing beyond
its zero inner flux.

The gradient term uses the centered difference (V_{i+1} - V_{i-1})/(2h)
and enters interior rows only: a Dirichlet row pins the value, and at a
zero-flux inner end the symmetric extension makes the gradient vanish.

Each Newton step is one LAPACK ``gtsv`` solve (``solve_banded``), in
place on one workspace per solve that the Jacobian is assembled into. The
routine comes from the OpenBLAS that ``import numpy`` has already mapped,
found through numpy's own linalg extension (``_dgtsv``), so a solve maps
no native code of its own; only where numpy's build exports no such
routine does it import ``scipy.linalg.lapack`` (the ``scipy`` extra), and
without scipy there a solve raises a PdiLabError that names the extra.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import IllPosedBoundary, NoConvergence, PdiLabError, PreconditionViolation
from .params import ProblemParams, _check_count, _check_finite, _check_positive, _in_range
from .radial import (
    GeneralizedMeanCurvature,
    Gridded,
    OperatorKind,
    PLaplacian,
)

__all__ = [
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


@dataclass(frozen=True)
class RadialPowerSource:
    """f(r) = amplitude * r^(-beta); singular at the axis when beta > 0."""

    amplitude: float
    beta: float

    def __post_init__(self):
        _check_finite("amplitude", self.amplitude)
        _check_finite("beta", self.beta)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        # r = 0 with beta > 0 legitimately evaluates to inf; callers that
        # cannot digest a singular node check finiteness themselves.
        with np.errstate(divide="ignore"):
            return self.amplitude * r ** (-self.beta)


@dataclass(frozen=True)
class ZeroSource(RadialPowerSource):
    """f = 0, the power source of amplitude 0 and exponent 0."""

    amplitude: float = field(default=0.0, init=False)
    beta: float = field(default=0.0, init=False)


class SampledSource(Gridded):
    """Piecewise-linear interpolant of sampled source values; f(r) is the
    one read of gridded data, so a radius outside the grid raises
    DomainExceeded."""

    what = "sampled source"
    __call__ = Gridded.value


# ---------------------------------------------------------------------------
# Configuration and solution containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    """Grid size (an integer >= 8) and Newton tolerance (finite, >= 0)."""

    n_nodes: int = 256
    newton_tol: float = 1e-10

    def __post_init__(self):
        _check_count("n_nodes", self.n_nodes, 8)
        _check_positive("newton_tol", self.newton_tol, zero_ok=True)


# Regularizations of the degenerate kinds, each stage warm-starting the
# next; the last is the final eps of every solve.
_CONTINUATION = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
# The Newton step budget of each eps stage.
_MAX_STEPS = 60
# A line search tries the full Newton step, then halves it up to this often.
_LINE_SEARCH_HALVINGS = 30


def _schedule(kind: OperatorKind) -> tuple:
    # The Laplacian and the mean-curvature flux (gmc with k = 2) are
    # uniformly smooth; a single stage at the final eps suffices. The p < 2
    # p-Laplacian is singular at zero slope, where its regularized
    # derivative is eps^(p-2), and keeps the schedule: started at the final
    # eps, Newton passes the roundoff floor this inflates at iterates far
    # from the solution.
    smooth = (isinstance(kind, PLaplacian) and kind.p == 2.0
              or isinstance(kind, GeneralizedMeanCurvature) and kind.k == 2.0)
    return _CONTINUATION[-1:] if smooth else _CONTINUATION


@dataclass(eq=False)
class DiscreteRadialSolution(Gridded):
    """Nodal values on a uniform radial grid, with solve metadata, read as
    their piecewise-linear interpolant on the grid's span, like all gridded
    data.

    The solver's grid is a ``linspace`` and its iterate converged and
    finite, so the sampled-data checks are not run.
    """

    what = "solution"
    params: ProblemParams
    kind: OperatorKind
    meta: dict

    def __post_init__(self):
        """Skips the sample checks of ``Gridded``, as the class docstring says."""


# ---------------------------------------------------------------------------
# Residual and Jacobian
# ---------------------------------------------------------------------------

_EPS_MACH = float(np.finfo(float).eps)


# The grid shapes whose geometry ``_grid_geometry`` keeps: the benchmark's
# solve workload cycles through 6.
_GEOMETRY_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_GEOMETRY_CACHE_SIZE)
def _grid_geometry(r_in: float, r_out: float, n_nodes: int, dim: int) -> tuple:
    """The spacing h, the exact shell volumes and the interior face areas
    r^(d-1) of the grid ``linspace(r_in, r_out, n_nodes)`` in dimension
    ``dim``, the two arrays read-only, as every solve on that grid shares
    them. Refuses a grid where one of them leaves the float range, or a
    volume or area underflows to 0; a refusal is not cached, so a refused
    grid is refused again with the same message."""
    # r_out^d bounds every power r^d and face area r^(d-1) of the grid, and
    # once it is finite no sum of two nodes nears the float max.
    what = f"the grid at dim={dim}, in its spacing, shell volumes or face areas,"
    _in_range(what, lambda: r_out**dim)
    grid = np.linspace(r_in, r_out, n_nodes)
    h = float(grid[1] - grid[0])
    _in_range(what, lambda: 0.5 / h if h > 0 else math.inf)
    faces = np.concatenate(([grid[0]], (grid[:-1] + grid[1:]) / 2.0, [grid[-1]]))
    powers = faces**dim
    vols = (powers[1:] - powers[:-1]) / dim
    area = faces[1:-1] ** (dim - 1)
    # Every residual divides by the shell volumes and weights the fluxes by
    # the interior face areas; neither may underflow to 0.
    if not (vols.min() > 0.0 and area.min() > 0.0):
        raise PreconditionViolation(f"{what} leaves the float range")
    vols.flags.writeable = area.flags.writeable = False
    return h, vols, area


class _Discretization:
    """Everything an evaluation on one grid reads that no iterate changes:
    the grid's geometry (``_grid_geometry``, keyed by the grid's ends and
    size, as the grid is a ``linspace``), the source values, the boundary
    data and the non-Dirichlet rows."""

    def __init__(self, grid, kind, params, f, bc_left, bc_right):
        self.h, self.vols, self.area = _grid_geometry(float(grid[0]), float(grid[-1]), grid.size,
                                                      params.dim)
        self.inv_2h = 1.0 / (2.0 * self.h)
        self.f_vals = np.asarray(f(grid), dtype=float)
        self.vols_in, self.f_in = self.vols[1:-1], self.f_vals[1:-1]
        # The axis row's scalars, read as Python floats.
        self.vol_0, self.f_0 = float(self.vols[0]), float(self.f_vals[0])
        self.kind, self.lam, self.gamma, self.c_h = kind, params.lam, params.gamma, params.c_h
        # At a flat centred slope the Hamiltonian derivative c_h gamma
        # |0|^(gamma-1) sign(0) is 0 unless |0|^(gamma-1) (gamma < 1) or
        # c_h gamma is infinite; only then does the Jacobian reset it.
        self.reset_flat = self.gamma < 1.0 or not math.isfinite(self.c_h * self.gamma)
        self.bc_left, self.bc_right = bc_left, bc_right
        self.rows = slice(0 if bc_left is None else 1, grid.size - 1)
        # The workspace of the Newton systems, formed by the first Jacobian.
        self.system: Optional[_Tridiagonal] = None


@functools.cache
def _dgtsv():
    """LAPACK ``dgtsv`` as a ctypes function, from the OpenBLAS that numpy's
    wheel ships: the symbol ``scipy_dgtsv_64_``, whose ILP64 interface takes
    every integer as an int64, resolved through numpy's ``_umath_linalg``
    extension, which links that library and which ``import numpy`` has
    already loaded. None where numpy's build exports no such symbol."""
    routine = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), "scipy_dgtsv_64_", None)
    if routine is not None:
        routine.argtypes, routine.restype = (ctypes.c_void_p,) * 8, None
    return routine


class _Tridiagonal:
    """A tridiagonal system J x = rhs, J[i+1, i] = sub[i], J[i, i] = dia[i],
    J[i, i+1] = sup[i], held in one contiguous workspace of which ``sub``,
    ``dia``, ``sup`` and ``rhs`` are views, zero to begin with.

    ``gtsv()`` runs LAPACK ``gtsv`` on it in place and returns its info: the
    solution replaces rhs, and the factors of J replace the other three. The
    routine's argument pointers are formed here, once. Where ``_dgtsv`` has
    no routine, scipy's ``dgtsv`` runs under the same contract through its
    ``overwrite_*`` flags, and where scipy is not installed either the
    workspace is refused with a PdiLabError that names the ``scipy``
    extra."""

    def __init__(self, n: int):
        buffer = (ctypes.c_double * (4 * n - 2))()  # zeroed
        self.data = data = np.frombuffer(buffer)
        self.sub, self.dia, self.sup, self.rhs = (
            data[:n - 1], data[n - 1:2 * n - 1], data[2 * n - 1:3 * n - 2], data[3 * n - 2:]
        )
        routine = _dgtsv()
        if routine is None:
            try:
                from scipy.linalg.lapack import dgtsv
            except ImportError:
                raise PdiLabError(
                    "this numpy build exports no LAPACK dgtsv, and the solver's fallback needs "
                    'scipy: pip install "pdi-lab[scipy]"'
                ) from None
            views = (self.sub, self.dia, self.sup, self.rhs)
            self.gtsv = lambda: dgtsv(*views, overwrite_dl=1, overwrite_d=1, overwrite_du=1,
                                      overwrite_b=1)[4]
            return
        # n, nrhs, ldb and info, the routine's int64 arguments; the pointers
        # are plain addresses, valid while ``data`` holds the buffer.
        ints = (ctypes.c_int64 * 4)(n, 1, n, 0)
        at, base = ctypes.addressof(ints), ctypes.addressof(buffer)
        args = (at, at + 8, base, base + 8 * (n - 1), base + 8 * (2 * n - 1),
                base + 8 * (3 * n - 2), at + 16, at + 24)

        def gtsv():
            routine(*args)
            return ints[3]

        self.gtsv = gtsv


def solve_banded(system: _Tridiagonal) -> np.ndarray:
    """Solve the tridiagonal ``system`` with LAPACK ``gtsv``, in place: the
    routine and the inputs of ``scipy.linalg.solve_banded((1, 1), ...)``, so
    the same bits, without its validation layers or copies. Returns the
    solution, which is ``system.rhs``. The Newton loop has refused a
    non-finite system before it calls this."""
    if system.gtsv() > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return system.rhs


def _roundoff_floor(sub, dia, sup, values, rows: slice) -> float:
    """eps_mach * max over the non-Dirichlet rows i of sum_j |J_ij| |V_j|."""
    v = np.abs(values)
    sums = np.abs(dia) * v
    sums[1:] += np.abs(sub) * v[:-1]   # J[i, i-1] V[i-1]
    sums[:-1] += np.abs(sup) * v[1:]   # J[i, i+1] V[i+1]
    return _EPS_MACH * float(sums[rows].max())


def _residual(values: np.ndarray, disc: _Discretization, eps: float):
    """Residual vector, its max over the non-Dirichlet rows, and the slopes
    (face slopes, centred interior slopes) that ``_jacobian`` reads; one
    flux evaluation."""
    slope = values[1:] - values[:-1]
    slope /= disc.h
    flux = disc.kind.flux(slope, eps)
    flux *= disc.area
    # Centered slope at the interior nodes, the only rows with a gradient term.
    dv = values[2:] - values[:-2]
    dv /= 2.0 * disc.h

    R = np.empty(values.size)
    # Interior balance: flux divergence plus reaction, Hamiltonian, source.
    inner = np.subtract(flux[:-1], flux[1:], out=R[1:-1])
    inner /= disc.vols_in
    if disc.lam > 0.0:
        inner += disc.lam * values[1:-1]
    inner += disc.c_h * np.abs(dv) ** disc.gamma
    inner -= disc.f_in
    if disc.bc_left is None:
        # Zero flux through the left face; at r = 0 this is the symmetry
        # condition and the Hamiltonian vanishes with the gradient.
        R[0] = -flux[0] / disc.vol_0 + disc.lam * values[0] - disc.f_0
    else:
        R[0] = values[0] - disc.bc_left
    R[-1] = values[-1] - disc.bc_right
    return R, float(np.abs(R[disc.rows]).max()), (slope, dv)


def _jacobian(slopes, disc: _Discretization, eps: float):
    """Tridiagonal Jacobian as (sub, dia, sup), assembled into
    ``disc.system``, from the slopes ``_residual`` returned for the
    iterate; one flux-derivative evaluation."""
    slope, dv = slopes
    # Minus the face coefficients area a'(slope) / h, so that each
    # off-diagonal entry is one division and one addition.
    minus_dflux = disc.kind.flux_derivative(slope, eps)
    minus_dflux *= disc.area
    minus_dflux /= -disc.h
    dham = disc.c_h * disc.gamma * np.abs(dv) ** (disc.gamma - 1.0) * np.sign(dv)
    if disc.reset_flat:
        dham[dv == 0.0] = 0.0
    dham *= disc.inv_2h

    # A Dirichlet row keeps its off-diagonal entry at zero; gtsv overwrote
    # it with a factor of the last system.
    system = disc.system
    if system is None:
        system = disc.system = _Tridiagonal(slope.size + 1)
    sub, dia, sup = system.sub, system.dia, system.sup
    sub[-1] = 0.0
    inner = np.add(minus_dflux[1:], minus_dflux[:-1], out=dia[1:-1])
    inner /= disc.vols_in
    np.subtract(disc.lam, inner, out=inner)
    # Centered Hamiltonian couples to both neighbors.
    np.divide(minus_dflux[:-1], disc.vols_in, out=sub[:-1])
    sub[:-1] -= dham
    np.divide(minus_dflux[1:], disc.vols_in, out=sup[1:])
    sup[1:] += dham
    if disc.bc_left is None:
        sup[0] = minus_dflux[0] / disc.vol_0
        dia[0] = disc.lam - sup[0]
    else:
        sup[0] = 0.0
        dia[0] = 1.0
    dia[-1] = 1.0
    return sub, dia, sup


def _newton_stage(values, disc: _Discretization, eps: float, r0: Optional[float],
                  newton_tol: float, final: bool):
    """Newton steps at one eps from ``values`` until the convergence test
    (module docstring) passes, the line search fails or ``_MAX_STEPS``
    steps are taken. An intermediate stage also ends at its first residual
    within its stage tolerance max(newton_tol, eps * r0); the final stage
    raises NoConvergence unless its test passed. ``r0`` is None in the
    solve's first stage, whose start residual sets it.

    Returns the last iterate, the stage's record (module docstring) and
    r0."""
    R, norm, slopes = _residual(values, disc, eps)
    if r0 is None:
        # A non-finite start keeps newton_tol, and fails at its floor.
        r0 = norm if math.isfinite(norm) else 0.0
    tol = newton_tol if final else max(newton_tol, eps * r0)
    steps, residuals, jacobians, floor = 0, 1, 0, None
    converged = False
    for _ in range(_MAX_STEPS):
        # Intermediate stages only warm-start the next one; failure to
        # fully converge there is harmless, and one within its stage
        # tolerance ends there without a floor (module docstring).
        if not final and norm <= tol:
            converged = True
            break
        sub, dia, sup = _jacobian(slopes, disc, eps)
        jacobians += 1
        floor = _roundoff_floor(sub, dia, sup, values, disc.rows)
        if not (math.isfinite(norm) and math.isfinite(floor)):
            raise NoConvergence(
                f"Newton step failed at eps={eps:.1e}: array must not contain infs or NaNs"
            )
        if norm <= newton_tol + floor:
            converged = True
            break
        np.negative(R, out=disc.system.rhs)
        try:
            step = solve_banded(disc.system)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"Newton step failed at eps={eps:.1e}: {exc}") from None
        steps += 1
        scale = 1.0
        trial = values + step
        for _ in range(_LINE_SEARCH_HALVINGS):
            trial_R, trial_norm, trial_slopes = _residual(trial, disc, eps)
            residuals += 1
            if trial_norm < norm:
                break
            scale *= 0.5
            trial = values + scale * step
        else:
            break
        # The accepted trial's residual and slopes serve the next step.
        values, R, norm, slopes = trial, trial_R, trial_norm, trial_slopes
    if final and not converged:
        raise NoConvergence(
            f"Newton stalled at residual {norm:.3e} (tol {newton_tol:.1e}) at eps={eps:.1e}"
        )
    return values, {"eps": eps, "tol": tol, "steps": steps, "residuals": residuals,
                    "jacobians": jacobians, "residual": norm, "floor": floor}, r0


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
    test (module docstring) within ``_MAX_STEPS`` Newton steps.

    ``meta`` holds ``iterations`` (the Newton steps of all stages),
    ``final_residual`` and ``roundoff_floor`` (the final stage's passing
    test), ``eps_final``, the boundary values, and ``stages``: one record
    per eps stage, as the module docstring describes.
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
    if bc_left is not None:
        _check_finite("bc_left", bc_left)
    _check_finite("bc_right", bc_right)

    # The solution's own grid, shared with nothing; its geometry is the
    # memoized one, refused before any source value is read.
    grid = np.linspace(r_in, r_out, config.n_nodes)
    disc = _Discretization(grid, kind, params, f, bc_left, bc_right)
    if not np.all(np.isfinite(disc.f_vals)):
        raise PreconditionViolation(
            "source term is not finite on the grid; singular sources need r_in > 0"
        )

    if bc_left is not None:
        values = bc_left + (bc_right - bc_left) * ((grid - r_in) / (r_out - r_in))
    else:
        values = np.full(grid.size, float(bc_right))

    schedule = _schedule(kind)
    stages = []
    # A stiff trial may overflow and fail the line search: no warning due.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r0 = None
        for eps in schedule:
            values, stage, r0 = _newton_stage(values, disc, eps, r0, config.newton_tol,
                                              eps == schedule[-1])
            stages.append(stage)

    meta = {
        "iterations": sum(stage["steps"] for stage in stages),
        "final_residual": stage["residual"],
        "roundoff_floor": stage["floor"],
        "eps_final": eps,
        "bc_left": bc_left,
        "bc_right": bc_right,
        "stages": stages,
    }
    return DiscreteRadialSolution(
        grid=grid, values=values, params=params, kind=kind, meta=meta
    )


def solution_residual(sol: DiscreteRadialSolution, f: Callable) -> float:
    """Max discrete residual of a solution, excluding Dirichlet rows."""
    meta = sol.meta
    disc = _Discretization(sol.grid, sol.kind, sol.params, f, meta["bc_left"], meta["bc_right"])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _residual(sol.values, disc, meta["eps_final"])[1]
