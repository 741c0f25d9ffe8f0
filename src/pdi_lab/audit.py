"""Quantitative audits of concrete solutions.

Three measurements, one per estimate being checked:

* ``caccioppoli_audit``: the gradient energy sigma(t) = int_{B_t} |Du|^gamma
  (plus lam * int u^- when lam > 0) against the two-ball bound
  K R^dim / (R - t)^s.
* ``holder_fit``: an empirical Holder exponent from sup-increments over
  dyadic distance bins, matching the seminorm definition (sup, not mean).
* ``morrey_norm``: sup over r of r^((theta-dim)/s) ||h||_{L^s(B_r(0) cap
  Omega)} on a ball Omega = B_omega(0).

Every energy of an audit comes from one ball-integral pass over all its
radii. Gridded solutions integrate by the trapezoid rule on their own
grid: one cumulative sum over the panels, closed at each radius by a
linearly interpolated partial panel, so values at grid radii telescope
exactly over disjoint shells and no second interpolation error enters.
Closed-form profiles integrate on dyadic panels graded toward the axis,
where power-type integrands are singular (Davis & Rabinowitz, *Methods
of Numerical Integration*, ch. 2), with the innermost piece closed by
its power tail.

A Morrey norm is taken over centred balls, one mass per radius. For a
power source the mass and the whole norm are closed-form, and exact for
beta >= 0, where |f| is radial and nonincreasing and no ball off the
centre holds more of it. Sampled data integrate through the fixed
Gauss-Legendre rule (``quadrature.gauss_legendre``, bound here as
``quad``) on panels that break at the sample nodes, 8 nodes per panel,
which is exact for the interpolant when s = 1; all radii of a scan take
two rule calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainExceeded, InsufficientScales, NonIntegrable, PreconditionViolation
from .params import ProblemParams, _check_dim, caccioppoli_exponent, unit_ball_volume
from .quadrature import SAMPLE_PANEL_NODES, sample_panels
from .quadrature import gauss_legendre as quad
from .solver import RadialPowerSource, SampledSource, ZeroSource

__all__ = [
    "gradient_energy",
    "CaccioppoliReport",
    "caccioppoli_audit",
    "HolderFitReport",
    "holder_fit",
    "MorreyNorm",
    "morrey_norm",
]

# Dyadic panels [t 2^-(k+1), t 2^-k], k < _DYADIC_PANELS, of [0, t] for the
# energies of a closed-form profile, and Gauss-Legendre nodes per panel.
_DYADIC_PANELS = 40
_DYADIC_NODES = 16


# ---------------------------------------------------------------------------
# Gradient energy sigma(t)
# ---------------------------------------------------------------------------


def _is_gridded(u) -> bool:
    return hasattr(u, "grid") and hasattr(u, "values")


def _shell_weight(r: np.ndarray, dim: int) -> np.ndarray:
    return dim * unit_ball_volume(dim) * r ** (dim - 1)


def _gridded_ball_integral(grid, nodal, t, dim):
    """Trapezoid of nodal data against the shell measure, from grid[0] to
    each radius of the array t.

    Cutting at a grid node makes values telescope exactly over shells; a
    partial last panel is interpolated linearly so the result is continuous
    and nondecreasing in t.
    """
    if np.any(t > grid[-1] * (1.0 + 1e-9)):
        raise DomainExceeded(f"t={t.max()} is beyond the solution grid (max {grid[-1]})")
    t = np.minimum(t, grid[-1])
    f = nodal * _shell_weight(grid, dim)
    h = grid[1:] - grid[:-1]
    cumulative = np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * h)))
    # Panel k holds t: grid[k] <= t < grid[k + 1] inside the grid, k = 0
    # below it and k = n - 2 at its last node, where the partial panel is
    # the whole one.
    k = np.searchsorted(grid[1:-1], t, side="right")
    g_k, f_k = grid[k], f[k]
    width = t - g_k
    end_val = f_k + width / h[k] * (f[k + 1] - f_k)
    total = cumulative[k] + 0.5 * (f_k + end_val) * width
    return np.where(t > grid[0], total, 0.0)


def _power_tail(f0, f_half, r0):
    """int_0^r0 f for f(r) = f0 (r/r0)^beta, each entry of the arrays, with
    the local exponent beta = log2(f0/f_half) read from f_half = f(r0/2).

    Raises NonIntegrable where beta <= -1 and f0 > 0; the tail of f0 = 0
    is 0.
    """
    live = f0 > 0
    # f_half = 0 reads beta = inf (tail 0), and f0 = f_half = 0 reads NaN,
    # which ``live`` masks.
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = np.log2(f0 / f_half)
        bad = live & ~(beta > -1.0)
        if np.any(bad):
            raise NonIntegrable(
                f"the integrand grows like r^{beta[bad][0]:.6g} at the axis, "
                "which is not integrable"
            )
        return np.where(live, f0 * r0 / (beta + 1.0), 0.0)


def _ball_integral(u, nodal, t, dim: int, slope: bool) -> np.ndarray:
    """int_{B_t} nodal(w) dx for a radial u and each radius of the array t,
    with w = u' if slope else u.

    Gridded inputs (solver output, sampled profile) are integrated on
    their own grid starting at its first node, w' by ``np.gradient``, by
    one cumulative trapezoid closed at each t with a linear partial panel.
    Closed-form profiles are integrated over [t 2^-40, t] on the 40 dyadic
    panels [t 2^-(k+1), t 2^-k] at 16 Gauss-Legendre nodes each, all
    radii in one rule call; the grading keeps the rule accurate for the
    power-type singularities at r = 0. The innermost piece [0, r0], r0 =
    t 2^-40, is the power tail f(r0) r0 / (beta + 1) of the integrand f,
    with beta = log2(f(r0)/f(r0/2)). u is evaluated once, on the rule's
    nodes and the two tail points together.
    """
    if _is_gridded(u):
        grid = np.asarray(u.grid, dtype=float)
        w = np.asarray(u.values, dtype=float)
        return _gridded_ball_integral(grid, nodal(np.gradient(w, grid) if slope else w), t, dim)
    fn = u.derivative if slope else u.value
    r0 = t * 2.0**-_DYADIC_PANELS
    ends = np.stack((r0, 0.5 * r0), axis=-1)
    at_ends = []

    def integrand(r):
        # The tail points ride along with the nodes, so u is evaluated once.
        flat = np.concatenate((r.reshape(t.size, -1), ends), axis=-1)
        f = nodal(np.asarray(fn(flat), dtype=float)) * _shell_weight(flat, dim)
        at_ends.append(f[:, -2:])
        return f[:, :-2].reshape(r.shape)

    k = np.arange(_DYADIC_PANELS, dtype=float)
    hi = t[:, None] * 2.0**-k
    panels = quad(integrand, 0.5 * hi, hi, _DYADIC_NODES)
    (f_ends,) = at_ends
    return panels.sum(axis=-1) + _power_tail(f_ends[:, 0], f_ends[:, 1], r0)


def gradient_energy(u, gamma: float, t: float, dim: int) -> float:
    """sigma(t) = int_{B_t} |Du|^gamma dx for a radial u.

    Raises NonIntegrable when the integrand of a closed-form profile is
    not integrable at the axis.
    """
    if not gamma > 0:
        raise PreconditionViolation(f"gamma must be positive, got {gamma}")
    if not t >= 0:
        raise DomainExceeded(f"radius must be >= 0, got t={t}")
    if t == 0:
        return 0.0
    return float(_energies(u, gamma, np.array([t], dtype=float), dim)[0])


def _energies(u, gamma, t, dim):
    return _ball_integral(u, lambda w: np.abs(w) ** gamma, t, dim, slope=True)


def _negative_part_integral(u, t, dim):
    return _ball_integral(u, lambda w: np.maximum(-w, 0.0), t, dim, slope=False)


# ---------------------------------------------------------------------------
# Caccioppoli audit
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CaccioppoliReport:
    radii_t: np.ndarray
    energies: np.ndarray
    predicted_s: float
    fitted_growth: float
    fitted_K: float
    k_stable: bool
    passed: bool


def caccioppoli_audit(
    u,
    params: ProblemParams,
    R: float,
    t_list,
) -> CaccioppoliReport:
    """Check E(t) = sigma(t) + lam*int u^- against K R^dim / (R-t)^s.

    fitted_K is the smallest constant making the bound hold on t_list, so
    ``passed`` only reports that it is finite. The sharp content is in the
    two derived numbers: ``fitted_growth``, the log-log slope of E over the
    small-t half of t_list (compare with dim - s), and ``k_stable``, which
    flags blow-up of K(t) = E(t)(R-t)^s/R^dim as t -> R. An unstable K means
    the energy grows faster than the predicted exponent allows.
    """
    if not (math.isfinite(R) and R > 0):
        raise PreconditionViolation(f"R must be finite and positive, got {R}")
    t_arr = np.asarray(t_list, dtype=float)
    if t_arr.size < 2 or not np.all((t_arr > 0) & (t_arr < R)):
        raise PreconditionViolation("t_list must contain at least two radii in (0, R)")
    t_arr = np.sort(t_arr)
    s = caccioppoli_exponent(params)

    with np.errstate(all="ignore"):
        energies = _energies(u, params.gamma, t_arr, params.dim)
        if params.lam > 0:
            energies += params.lam * _negative_part_integral(u, t_arr, params.dim)
        # A numpy R^dim beyond the float range is inf, not an OverflowError.
        k_values = energies * (R - t_arr) ** s / np.float64(R) ** params.dim
    if not np.all(np.isfinite(k_values)):
        raise PreconditionViolation(
            f"R={R} leaves the float range: the energies or R^dim are not finite"
        )
    fitted_K = float(np.max(k_values))

    positive = energies > 0
    half = t_arr.size // 2
    if np.count_nonzero(positive[:half]) >= 2:
        lo = positive.copy()
        lo[half:] = False
        fitted_growth = float(
            np.polyfit(np.log(t_arr[lo]), np.log(energies[lo]), 1)[0]
        )
    else:
        fitted_growth = math.nan

    # The bound is slack for small t (K -> 0 there), so instability is
    # judged at the boundary end only: K must still be rising at the
    # largest radius, and need more than twice the constant the list
    # before its last fifth already fixed. A bounded K(t) = C t^(dim-s)
    # (R-t)^s/R^dim peaks at t = (dim-s)R/dim, which may lie in that
    # last fifth, and is stable.
    tail = max(1, t_arr.size // 5)
    rising = int(np.argmax(k_values)) == t_arr.size - 1
    k_stable = not (rising and fitted_K > 2.0 * float(np.max(k_values[:-tail])))

    return CaccioppoliReport(
        radii_t=t_arr,
        energies=energies,
        predicted_s=s,
        fitted_growth=fitted_growth,
        fitted_K=fitted_K,
        k_stable=k_stable,
        passed=bool(math.isfinite(fitted_K)),
    )


# ---------------------------------------------------------------------------
# Holder exponent fit
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class HolderFitReport:
    scales: np.ndarray
    max_increments: np.ndarray
    fitted_alpha: float
    r_squared: float
    predicted_alpha: Optional[float]
    passed: Optional[bool]


def holder_fit(
    u,
    pair_budget: int,
    scale_range,
    domain=None,
    seed: int = 0,
    predicted_alpha: Optional[float] = None,
    tolerance: float = 0.05,
) -> HolderFitReport:
    """Fit sup |u(x)-u(y)| ~ |x-y|^alpha over dyadic distance bins.

    Pairs are radius pairs (u is radial). Each bin gets one deterministic
    pair anchored at the inner domain edge, where power-type increments
    are largest, plus seeded random pairs biased toward that edge. The
    regression uses each bin's sup increment against the distance that
    attained it, which keeps pure powers exactly on a line.
    """
    if not pair_budget >= 1:
        raise PreconditionViolation(f"pair_budget must be >= 1, got {pair_budget}")
    if not seed >= 0:
        raise PreconditionViolation(f"seed must be >= 0, got {seed}")
    if not tolerance >= 0:
        raise PreconditionViolation(f"tolerance must be >= 0, got {tolerance}")
    h_min, h_max = float(scale_range[0]), float(scale_range[1])
    if not 0 < h_min < h_max:
        raise PreconditionViolation("scale_range must satisfy 0 < h_min < h_max")
    if domain is None:
        if _is_gridded(u):
            g = np.asarray(u.grid, dtype=float)
            domain = (float(g[0]), float(g[-1]))
        else:
            domain = (0.0, 1.0)
    r_lo, r_hi = float(domain[0]), float(domain[1])
    if not h_max <= r_hi - r_lo:
        raise PreconditionViolation("h_max exceeds the domain extent")

    n_bins = max(int(math.floor(math.log2(h_max / h_min))) + 1, 1)
    rng = np.random.default_rng(seed)
    per_bin = max(pair_budget // n_bins, 1)

    def values_at(r):
        return np.asarray(u.value(r), dtype=float)

    sup_inc = []
    sup_dist = []
    for j in range(n_bins):
        d_hi = h_max * 2.0**-j
        d_lo = max(d_hi / 2.0, h_min)
        m = per_bin - 1
        d = d_lo * (d_hi / d_lo) ** rng.random(m) if m > 0 else np.empty(0)
        d = np.concatenate(([d_hi], d))
        r1 = r_lo + (r_hi - d - r_lo) * np.concatenate(([0.0], rng.random(m) ** 2))
        inc = np.abs(values_at(r1 + d) - values_at(r1))
        i = int(np.argmax(inc))
        if inc[i] > 0:
            sup_inc.append(float(inc[i]))
            sup_dist.append(float(d[i]))
    if len(sup_inc) < 3:
        raise InsufficientScales(
            f"only {len(sup_inc)} nonempty distance bins, need at least 3"
        )

    x = np.log(np.asarray(sup_dist))
    y = np.log(np.asarray(sup_inc))
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    passed = None
    if predicted_alpha is not None:
        passed = bool(abs(slope - predicted_alpha) <= tolerance)
    return HolderFitReport(
        scales=np.asarray(sup_dist),
        max_increments=np.asarray(sup_inc),
        fitted_alpha=float(slope),
        r_squared=r_squared,
        predicted_alpha=predicted_alpha,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Morrey norm
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class MorreyNorm:
    s_index: float
    theta: float
    value: float
    divergent: bool
    argmax_radius: float
    exact: bool


def _ball_mass(f, s_index, dim, rho):
    """int over B_rho(0) of |f|^s for each radius of the array rho; a
    power source is taken with amplitude 1."""
    if isinstance(f, RadialPowerSource):
        # int_0^rho r^(-s*beta) * d*omega*r^(d-1) dr, closed form.
        ex = dim - s_index * f.beta
        return dim * unit_ball_volume(dim) * rho**ex / ex

    def density(r):
        return np.abs(f(r)) ** s_index * _shell_weight(r, dim)

    # Panels break at the sample nodes, where the interpolant kinks;
    # between them |f|^s r^(dim-1) is smooth (a polynomial for s = 1).
    edges = sample_panels(f.grid, 0.0, float(np.max(rho, initial=0.0)))
    panels = quad(density, edges[:-1], edges[1:], SAMPLE_PANEL_NODES)
    cumulative = np.concatenate(([0.0], np.cumsum(panels)))
    k = np.clip(np.searchsorted(edges, rho, side="right") - 1, 0, edges.size - 2)
    return cumulative[k] + quad(density, edges[k], rho, SAMPLE_PANEL_NODES)


def morrey_norm(
    f,
    s_index: float,
    theta: float,
    omega_radius: float,
    center_samples: int = 8,
    dim: int = 3,
    n_radii: int = 48,
) -> MorreyNorm:
    """sup_r of r^((theta-dim)/s) ||f||_{L^s(B_r(0) cap Omega)} on Omega = B_omega(0).

    f is a ``RadialPowerSource``, a ``ZeroSource`` (amplitude 0) or a
    ``SampledSource``; any other callable raises PreconditionViolation.
    For a power A r^-beta the centred norm is closed-form: it is (|A|^s d
    omega_d / (d - s beta))^(1/s) r^((theta - s beta)/s) for r <= omega
    and falls beyond omega, so the sup is attained at r = omega when
    theta >= s beta and is divergent (inf, approached as r -> 0) when
    theta < s beta. A sampled source takes the largest value over
    ``n_radii`` log-spaced radii in [diam 1e-4, diam] and omega.

    ``exact`` is true when no ball off the centre can do better, which
    holds for |f| radial and nonincreasing (a power with beta >= 0, or
    zero) by the rearrangement inequality (Lieb & Loss, *Analysis*, Thm
    3.4); otherwise the value is a lower bound of the sup over all balls
    centred in Omega. ``center_samples`` must be >= 1 and no longer
    changes the result.
    """
    _check_dim(dim)
    if not s_index >= 1:
        raise PreconditionViolation(f"s_index must be >= 1, got {s_index}")
    if not 0 < theta <= dim:
        raise PreconditionViolation(f"theta must be in (0, dim], got {theta}")
    if not (math.isfinite(omega_radius) and omega_radius > 0):
        raise PreconditionViolation(f"omega_radius must be finite and positive, got {omega_radius}")
    if not center_samples >= 1:
        raise PreconditionViolation(f"center_samples must be >= 1, got {center_samples}")
    if isinstance(f, ZeroSource):
        f = RadialPowerSource(0.0, 0.0)
    if isinstance(f, RadialPowerSource):
        if s_index * f.beta >= dim:
            raise NonIntegrable(
                f"|x|^(-{f.beta}) is not locally L^{s_index} in dimension {dim}"
            )
        # The norm is homogeneous in A, and |A| scales the value last, so
        # a large amplitude cannot overflow |A|^s.
        scale = abs(f.amplitude)
        radii = np.array([omega_radius])
        exact = f.beta >= 0 or scale == 0
        divergent = scale > 0 and theta < s_index * f.beta
    elif isinstance(f, SampledSource):
        scale = 1.0
        diam = 2.0 * omega_radius
        radii = np.geomspace(diam * 1e-4, diam, n_radii)
        radii = np.unique(np.concatenate((radii, [omega_radius, diam])))
        exact = divergent = False
    else:
        raise PreconditionViolation(
            f"morrey_norm takes a power, zero or sampled source, got {type(f).__name__}"
        )

    mass = _ball_mass(f, s_index, dim, np.minimum(radii, omega_radius))
    values = radii ** ((theta - dim) / s_index) * mass ** (1.0 / s_index)
    i = int(np.argmax(values))
    return MorreyNorm(
        s_index=s_index,
        theta=theta,
        value=math.inf if divergent else scale * float(values[i]),
        divergent=divergent,
        argmax_radius=0.0 if divergent else float(radii[i]),
        exact=exact,
    )
