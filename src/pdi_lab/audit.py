"""Quantitative audits of concrete solutions.

Three measurements, one per estimate being checked:

* ``caccioppoli_audit``: the gradient energy sigma(t) = int_{B_t} |Du|^gamma
  (plus lam * int u^- when lam > 0) against the two-ball bound
  K R^dim / (R - t)^s.
* ``holder_fit``: an empirical Holder exponent from sup-increments over
  dyadic distance bins, matching the seminorm definition (sup, not mean).
* ``morrey_norm``: sup over sampled centers and radii of
  r^((theta-dim)/s) ||h||_{L^s(B_r(z) cap Omega)} on a ball Omega.

Every energy of an audit comes from one ball-integral pass over all its
radii. Gridded solutions integrate by the trapezoid rule on their own
grid: one cumulative sum over the panels, closed at each radius by a
linearly interpolated partial panel, so values at grid radii telescope
exactly over disjoint shells and no second interpolation error enters.
Closed-form profiles integrate on dyadic panels graded toward the axis,
where power-type integrands are singular (Davis & Rabinowitz, *Methods
of Numerical Integration*, ch. 2), with the innermost piece closed by
its power tail.

The Morrey supremum over centers is approximated by sampling (the origin
plus van der Corput offsets); the reported value is a lower bound of the
true supremum. For radial nonincreasing |f| the centered ball is the
analytic extremal, so the off-center samples only guard that claim.

All (center, radius) pairs of a scan are integrated together, by one
fixed Gauss-Legendre rule (``quadrature.gauss_legendre``, bound here as
``quad``). The full shells inside a ball are closed-form for a power
source; for sampled data they integrate on panels that break at the
sample nodes, 8 nodes per panel, which is exact for the interpolant
when s = 1. A shell the ball meets in a spherical cap carries the cap's
area fraction, closed-form for integer dim, and the cap range takes a
48-node rule in the angle phi of rho = mid - half cos(phi), which
smooths the square-root behaviour at both ends of the range.
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
from .solver import RadialPowerSource, SampledSource

__all__ = [
    "gradient_energy",
    "CaccioppoliReport",
    "caccioppoli_audit",
    "HolderFitReport",
    "holder_fit",
    "MorreyNorm",
    "morrey_norm",
]

# Gauss-Legendre nodes per cap integral (and per ball of a source that is
# neither a power nor sampled data), in the angle of ``_arc_integral``.
_CAP_NODES = 48
# Centers per vectorized pass of a Morrey scan: at most 64 x (n_radii + 2)
# pairs, so a scan over many centers keeps its (pairs x nodes)
# temporaries to a few megabytes.
_CENTERS_PER_PASS = 64
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

    energies = _energies(u, params.gamma, t_arr, params.dim)
    if params.lam > 0:
        energies += params.lam * _negative_part_integral(u, t_arr, params.dim)

    k_values = energies * (R - t_arr) ** s / R**params.dim
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


def _cap_fraction(cos_theta, dim: int):
    """Area fraction of the spherical cap {angle <= theta} on S^(dim-1).

    The fraction is J_(dim-2)(theta) / J_(dim-2)(pi) with J_n(theta) =
    int_0^theta sin^n, from the elementary recurrence J_n = -sin^(n-1)
    cos / n + (n-1)/n J_(n-2), J_0 = theta, J_1 = 1 - cos. For dim = 3 it
    is (1 - cos(theta)) / 2.
    """
    c = np.clip(cos_theta, -1.0, 1.0)
    sin = np.sqrt((1.0 - c) * (1.0 + c))
    top = int(dim) - 2
    part, full = (np.arccos(c), math.pi) if top % 2 == 0 else (1.0 - c, 2.0)
    for n in range(top % 2 + 2, top + 1, 2):
        part = -(sin ** (n - 1)) * c / n + (n - 1) / n * part
        full = (n - 1) / n * full
    return part / full


def _arc_integral(g, lo, hi):
    """int_lo^hi g(rho) drho on each interval of the arrays lo, hi.

    The rule runs in the angle phi of rho = mid - half cos(phi), which
    turns the square-root ends of a cap integrand into smooth ones.
    """
    mid = (0.5 * (hi + lo))[:, None]
    half = (0.5 * (hi - lo))[:, None]

    def in_phi(phi):
        return g(mid - half * np.cos(phi)) * half * np.sin(phi)

    return quad(in_phi, 0.0, math.pi, _CAP_NODES)


def _ball_mass(f, s_index, dim, rho_hi, density):
    """int over B_rho_hi(0) of |f|^s for each radius of the array rho_hi."""
    if isinstance(f, RadialPowerSource):
        # int_0^rho_hi |A|^s rho^(-s*beta) * d*omega*rho^(d-1) drho, closed form.
        ex = dim - s_index * f.beta
        return abs(f.amplitude) ** s_index * dim * unit_ball_volume(dim) * rho_hi**ex / ex
    if isinstance(f, SampledSource):
        # Panels break at the sample nodes, where the interpolant kinks;
        # between them |f|^s rho^(dim-1) is smooth (a polynomial for s = 1).
        edges = sample_panels(f.grid, 0.0, float(np.max(rho_hi, initial=0.0)))
        panels = quad(density, edges[:-1], edges[1:], SAMPLE_PANEL_NODES)
        cumulative = np.concatenate(([0.0], np.cumsum(panels)))
        k = np.clip(np.searchsorted(edges, rho_hi, side="right") - 1, 0, edges.size - 2)
        return cumulative[k] + quad(density, edges[k], rho_hi, SAMPLE_PANEL_NODES)
    return _arc_integral(density, np.zeros_like(rho_hi), rho_hi)


def _mass_on_intersection(f, s_index, dim, center_dist, r, omega_radius):
    """int over B_r(z) cap B_omega(0) of |f|^s, for radial f, |z| = center_dist.

    Vectorized over the broadcast arrays ``center_dist`` and ``r``. The
    shells rho < r - |z| lie inside B_r(z) whole; a shell with |r - |z||
    < rho < r + |z| meets it in a spherical cap.
    """
    d, r = np.broadcast_arrays(np.asarray(center_dist, dtype=float), np.asarray(r, dtype=float))
    shape = d.shape
    d, r = d.ravel(), r.ravel()

    def density(rho):
        return np.abs(f(rho)) ** s_index * _shell_weight(rho, dim)

    mass = _ball_mass(f, s_index, dim, np.minimum(np.maximum(r - d, 0.0), omega_radius), density)
    lo = np.abs(r - d)
    hi = np.minimum(r + d, omega_radius)
    cap = hi > lo
    if np.any(cap):
        dc, rc = d[cap, None], r[cap, None]

        def in_cap(rho):
            cos_t = (rho * rho + dc * dc - rc * rc) / (2.0 * rho * dc)
            return density(rho) * _cap_fraction(cos_t, dim)

        mass[cap] += _arc_integral(in_cap, lo[cap], hi[cap])
    return mass.reshape(shape)


def _van_der_corput(n: int):
    # Base-2 radical inverse, the classic low-discrepancy sequence.
    out = np.empty(n)
    for i in range(n):
        k, denom, x = i + 1, 2.0, 0.0
        while k:
            x += (k & 1) / denom
            k >>= 1
            denom *= 2.0
        out[i] = x
    return out


def morrey_norm(
    f,
    s_index: float,
    theta: float,
    omega_radius: float,
    center_samples: int = 8,
    dim: int = 3,
    n_radii: int = 48,
) -> MorreyNorm:
    """sup_z,r of r^((theta-dim)/s) ||f||_{L^s(B_r(z) cap Omega)} on Omega = B_omega(0).

    The sup is scanned over a log-spaced radius grid up to diam(Omega) and
    over ``center_samples`` centers (origin first, then van der Corput
    offsets along a ray); the result is a lower bound of the true sup.
    A norm that keeps growing through the two finest radius decades with
    its maximum at the smallest sampled radius is flagged divergent.
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
    if isinstance(f, RadialPowerSource) and s_index * f.beta >= dim:
        raise NonIntegrable(
            f"|x|^(-{f.beta}) is not locally L^{s_index} in dimension {dim}"
        )

    diam = 2.0 * omega_radius
    radii = np.geomspace(diam * 1e-4, diam, n_radii)
    radii = np.unique(np.concatenate((radii, [omega_radius, diam])))
    offsets = np.concatenate(([0.0], _van_der_corput(center_samples - 1) * omega_radius))

    masses = np.concatenate([
        _mass_on_intersection(f, s_index, dim, *np.meshgrid(block, radii, indexing="ij"), omega_radius)
        for block in np.array_split(offsets, -(-offsets.size // _CENTERS_PER_PASS))
    ])
    values = radii ** ((theta - dim) / s_index) * masses ** (1.0 / s_index)
    centered = values[0]
    best = -math.inf
    best_r = radii[0]
    for val, r in zip(values.ravel().tolist(), np.tile(radii, offsets.size).tolist()):
        if val > best * (1.0 + 1e-12):
            best = val
            best_r = r
        elif val == best and r < best_r:
            best_r = r

    fine = radii <= diam * 1e-2
    divergent = False
    if np.count_nonzero(fine) >= 3 and best > 0:
        v = centered[fine]
        growing = bool(np.all(v[:-1] > v[1:] * (1.0 + 1e-9)))
        divergent = growing and centered[0] >= best * (1.0 - 1e-12)
    return MorreyNorm(
        s_index=s_index,
        theta=theta,
        value=math.inf if divergent else float(best),
        divergent=divergent,
        argmax_radius=float(radii[0]) if divergent else float(best_r),
    )
