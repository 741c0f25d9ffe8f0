"""Quantitative audits of concrete solutions.

Three measurements, one per estimate being checked:

* ``caccioppoli_audit``: the gradient energy sigma(t) = int_{B_t} |Du|^gamma
  (plus lam * int u^- when lam > 0) against the two-ball bound
  K R^dim / (R - t)^s.
* ``holder_fit``: an empirical Holder exponent from sup-increments over
  dyadic distance bins, matching the seminorm definition (sup, not mean).
  Every bin's sup is exact. A power profile's increments are monotone in
  the radius and increase with the distance, so each bin's sup is its
  widest pair at one end of [0, 1], in closed form. Gridded data take the
  sup of their interpolant at the vertices where it is attained. Monotone
  data read the maximum of each node's window of pair partners at its
  last node, and only in the bins where an exact bound lets a node pair
  reach the interpolated sup; other data read the node pairs from one
  sparse table of window extrema.
* ``morrey_norm``: sup over r of r^((theta-dim)/s) ||h||_{L^s(B_r(0) cap
  Omega)} on a ball Omega = B_omega(0).

Every energy of an audit comes from one ball-integral pass over all its
radii. A power profile V = c (r^a - shift), the form of the sharp
solutions, is closed-form: sigma(t) = d omega_d |c a|^gamma t^e / e with
e = (a - 1) gamma + d (not integrable at the axis when e <= 0), and
int_{B_t} V^- is the primitive of -V r^(d-1) split at r = shift^(1/a),
where V changes sign. Gridded data are their piecewise-linear
interpolant, integrated exactly from the first node. Its slope s_k is
constant on panel k, so sigma(t) is omega_d times the sum of |s_k|^gamma
(r_(k+1)^d - r_k^d), the last panel cut at t; u^- is linear on each panel
of the Morrey mass below, where the Gauss rule is exact. Energies of any
other input are refused.

The Holder fit and the Caccioppoli growth fit share one least-squares
routine, which forms the means and the centred x and y once. It returns
the slope and intercept, from ``np.dot`` of the centred arrays, and the
centred sum of squares of y that the Holder fit's R^2 divides by; the
growth fit ignores that sum. Its means and sums come from
``np.add.reduce``, and the Caccioppoli audit's other reductions from array
methods: on the 8 to 24 points of a closed-form fit, the Python-level
wrappers ``np.mean``, ``np.sum``, ``np.max`` and ``np.sort`` cost more
than the arithmetic, and the same pairwise sums give the same bits.

A Morrey norm is taken over centred balls, one mass per radius. For a
power source the mass and the whole norm are closed-form, and exact for
beta >= 0, where |f| is radial and nonincreasing and no ball off the
centre holds more of it. Sampled data integrate through the fixed
Gauss-Legendre rule (``quadrature.gauss_legendre``, bound here as
``quad``) on panels that break at the sample nodes and at the
interpolant's zero crossings, 8 nodes per panel, which is exact for the
interpolant when s is an integer with s + dim <= 16; all radii of a scan
take two rule calls. A panel on which the interpolant vanishes at one end
takes the 8-node Gauss-Jacobi rule of |r - end|^s instead, exact for any
s when dim <= 16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainExceeded, InsufficientScales, NonIntegrable, PreconditionViolation
from .params import (ProblemParams, _check_count, _check_dim, _check_positive, _in_range,
                     caccioppoli_exponent, unit_ball_volume)
from .quadrature import gauss_jacobi, sample_panels
from .quadrature import gauss_legendre as quad
from .radial import Gridded, PowerProfile
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

# ---------------------------------------------------------------------------
# Gradient energy sigma(t)
# ---------------------------------------------------------------------------


def _gridded_energies(u, gamma, t, dim):
    """sigma at each radius of the array t of the interpolant of the
    ``Gridded`` u: omega_d sum_k |s_k|^gamma (b^d - a^d) over its panels
    [a, b] from the first node, the last one cut at t.

    b^d - a^d is b^(d-1) times b (1 - (a/b)^d) = -b expm1(d log1p((a -
    b) / b)): nothing cancels, and no power of a radius past b^(d-1) is
    formed, so a finite energy is not lost to an overflow of b^d.
    """
    grid, t = u.grid, u.within(t)
    steep = np.abs(np.diff(u.values) / np.diff(grid)) ** gamma
    # Panel k holds t: grid[k] <= t < grid[k + 1] inside the grid, and
    # k = n - 2 at its last node, where the cut panel is the whole one.
    k = np.searchsorted(grid[1:-1], t, side="right")
    a, b = np.concatenate((grid[:-1], grid[k])), np.concatenate((grid[1:], t))
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf at a = 0
        shells = -b * np.expm1(dim * np.log1p((a - b) / b))
    e = np.concatenate((steep, steep[k])) * (unit_ball_volume(dim) * b ** (dim - 1)) * shells
    whole = grid.size - 1
    return np.concatenate(([0.0], np.cumsum(e[:whole])))[k] + e[whole:]


def _power_energies(u, gamma, t, dim):
    """sigma(t) = d omega_d |c a|^gamma t^e / e, e = (a - 1) gamma + d, of
    V = c (r^a - shift): |V'|^gamma r^(d-1) is |c a|^gamma r^(e-1)."""
    if u.c == 0:
        return np.zeros_like(t)
    e = (u.a - 1.0) * gamma + dim
    if not e > 0:
        raise NonIntegrable(
            f"the integrand grows like r^{e - 1.0:.6g} at the axis, which is not integrable"
        )
    # In logs, so that |c a|^gamma and t^e cannot meet as inf * 0.
    log_scale = gamma * (math.log(abs(u.c)) + math.log(abs(u.a)))
    with np.errstate(over="ignore"):
        return dim * unit_ball_volume(dim) / e * np.exp(log_scale + e * np.log(t))


def _power_negative_part(u, t, dim):
    """int_{B_t} V^- dx of V = c (r^a - shift): d omega_d times the
    primitive c (shift r^d/d - r^(a+d)/(a+d)) of -V r^(d-1), taken between
    the radii of [0, t] where V < 0."""
    c, a, shift, k = u.c, u.a, u.shift, u.a + dim
    if c == 0:
        return np.zeros_like(t)
    # r^a - shift changes sign at rho = shift^(1/a) when shift > 0 and
    # is positive for every r > 0 otherwise; below rho its sign is -sign(a).
    with np.errstate(over="ignore"):
        rho = np.float64(shift) ** (1.0 / a) if shift > 0 else (0.0 if a > 0 else math.inf)
    if (c > 0) == (a > 0):  # V < 0 on (0, rho)
        if not k > 0:
            raise NonIntegrable(
                f"the negative part grows like r^{k - 1.0:.6g} at the axis, which is not integrable"
            )
        lo, hi = 0.0, np.minimum(t, rho)
    else:
        lo, hi = np.minimum(t, rho), t
    tail = np.log(hi / lo) if k == 0 else (hi**k - lo**k) / k
    return dim * unit_ball_volume(dim) * c * (shift * (hi**dim - lo**dim) / dim - tail)


def _ball_integral(u, t, dim: int, gamma: Optional[float] = None) -> np.ndarray:
    """int_{B_t} |u'|^gamma dx, or int_{B_t} u^- dx when gamma is None, for
    a radial u and each radius of the array t.

    A ``PowerProfile`` takes its closed forms, and gridded inputs (solver
    output, sampled profile) the exact integrals of their interpolant from
    their first node: the energy by panels, u^- by the panels of the
    Morrey mass. Any other input raises PreconditionViolation.
    """
    if isinstance(u, PowerProfile):
        return _power_negative_part(u, t, dim) if gamma is None else _power_energies(u, gamma, t, dim)
    if not isinstance(u, Gridded):
        raise PreconditionViolation(
            "energies take a PowerProfile or gridded data (a sampled profile or a solution), "
            f"got {type(u).__name__}"
        )
    return _ball_mass(u, 1.0, dim, t, negative=True) if gamma is None else _gridded_energies(u, gamma, t, dim)


def gradient_energy(u, gamma: float, t: float, dim: int) -> float:
    """sigma(t) = int_{B_t} |Du|^gamma dx for a radial u: a ``PowerProfile``
    or gridded data.

    Raises NonIntegrable when the integrand of a power profile is not
    integrable at the axis.
    """
    _check_positive("gamma", gamma)
    _check_dim(dim)
    if not (math.isfinite(t) and t >= 0):
        raise DomainExceeded(f"radius must be finite and >= 0, got t={t}")
    if t == 0:
        return 0.0
    return float(_ball_integral(u, np.array([t], dtype=float), dim, gamma)[0])


# ---------------------------------------------------------------------------
# Caccioppoli audit
# ---------------------------------------------------------------------------


def _least_squares(x: np.ndarray, y: np.ndarray):
    """The least-squares line y = slope x + intercept through the points
    (x, y), from the centred sums, and the centred sum of squares of y that
    its R^2 divides by: ``(slope, intercept, ss_tot)``."""
    x_mean, y_mean = np.add.reduce(x) / x.size, np.add.reduce(y) / y.size
    dx, dy = x - x_mean, y - y_mean
    slope = float(np.dot(dx, dy) / np.dot(dx, dx))
    return slope, float(y_mean - slope * x_mean), float(np.add.reduce(dy * dy))


@dataclass(eq=False)
class CaccioppoliReport:
    radii_t: np.ndarray
    energies: np.ndarray
    predicted_s: float
    fitted_growth: float
    fitted_K: float
    k_stable: bool


def caccioppoli_audit(
    u,
    params: ProblemParams,
    R: float,
    t_list,
) -> CaccioppoliReport:
    """Check E(t) = sigma(t) + lam*int u^- against K R^dim / (R-t)^s.

    fitted_K is the smallest constant making the bound hold on t_list, and
    is finite (a non-finite K raises). The sharp content is in the two
    derived numbers: ``fitted_growth``, the log-log slope of E over the
    small-t half of t_list (compare with dim - s; NaN when fewer than two
    radii there, distinct in log t, have positive energy), and
    ``k_stable``, which flags blow-up of K(t) = E(t)(R-t)^s/R^dim as
    t -> R. An unstable K means the energy grows faster than the predicted
    exponent allows.
    """
    _check_positive("R", R)
    t_arr = np.array(t_list, dtype=float)
    if t_arr.size < 2 or not ((t_arr > 0) & (t_arr < R)).all():
        raise PreconditionViolation("t_list must contain at least two radii in (0, R)")
    t_arr.sort()
    s = caccioppoli_exponent(params)

    with np.errstate(all="ignore"):
        energies = _ball_integral(u, t_arr, params.dim, params.gamma)
        if params.lam > 0:
            energies += params.lam * _ball_integral(u, t_arr, params.dim)
        # A numpy R^dim beyond the float range is inf, not an OverflowError.
        k_values = energies * (R - t_arr) ** s / np.float64(R) ** params.dim
    if not np.isfinite(k_values).all():
        raise PreconditionViolation(
            f"R={R} leaves the float range: the energies or R^dim are not finite"
        )
    top = int(k_values.argmax())
    fitted_K = float(k_values[top])

    half = t_arr.size // 2
    lo = energies[:half] > 0
    x, y = np.log(t_arr[:half][lo]), np.log(energies[:half][lo])
    # The radii are sorted, so a line through them needs x[0] < x[-1].
    fitted_growth = _least_squares(x, y)[0] if x.size and x[0] < x[-1] else math.nan

    # The bound is slack for small t (K -> 0 there), so instability is
    # judged at the boundary end only: K must still be rising at the
    # largest radius, and need more than twice the constant the list
    # before its last fifth already fixed. A bounded K(t) = C t^(dim-s)
    # (R-t)^s/R^dim peaks at t = (dim-s)R/dim, which may lie in that
    # last fifth, and is stable.
    tail = max(1, t_arr.size // 5)
    rising = top == t_arr.size - 1
    k_stable = not (rising and fitted_K > 2.0 * float(k_values[:-tail].max()))

    return CaccioppoliReport(
        radii_t=t_arr,
        energies=energies,
        predicted_s=s,
        fitted_growth=fitted_growth,
        fitted_K=fitted_K,
        k_stable=k_stable,
    )


# ---------------------------------------------------------------------------
# Holder exponent fit
# ---------------------------------------------------------------------------


def _window_extrema(w, longest):
    """A sparse table of window maxima, with their rightmost arguments, of
    each column of the (m, 2) array w, for windows of up to ``longest``
    rows (Bender & Farach-Colton, *The LCA problem revisited*, LATIN 2000).

    Returns ``(val, arg, at_start, at_end)``: row k m + i of ``val`` holds
    the max over the window [i, i + 2^k) and ``arg`` where it is attained,
    the rightmost on a tie. A window [a, b) of length L reads its two
    overlapping rows at ``at_start[L] + a`` and ``at_end[L] + b``.
    """
    m = w.shape[0]
    lg = np.zeros(longest + 1, dtype=np.intp)
    lg[1:] = np.frexp(np.arange(1, longest + 1))[1] - 1  # floor(log2 L)
    rows = int(lg[-1]) + 1
    val, arg = np.empty((rows, m, 2)), np.empty((rows, m, 2), dtype=np.intp)
    val[0], arg[0] = w, np.arange(m)[:, None]
    for k in range(1, rows):
        h = 1 << (k - 1)
        n = m - 2 * h + 1  # the windows of row k that fit
        right = val[k - 1, h : h + n] >= val[k - 1, :n]
        np.maximum(val[k - 1, h : h + n], val[k - 1, :n], out=val[k, :n])
        arg[k, :n] = np.where(right, arg[k - 1, h : h + n], arg[k - 1, :n])
    at_start = m * lg
    return val.reshape(-1, 2), arg.reshape(-1, 2), at_start, at_start - (1 << lg)


def _node_windows(x, d, reach, before, after):
    """A(d) and B(d) for each node i of the grid x: the first node at float
    gap >= d and > d from node i. ``searchsorted`` on the rounded sums
    ``reach`` = x + d is at most one step off A(d), and one step back or
    ahead mends it; B(d) walks on from A(d) past the nodes at gap d
    exactly. ``before`` and ``after`` read node j - 1 and node j at index
    j, past either end as -inf and inf."""
    j = x.searchsorted(reach)
    a = j - (before.take(j) - x >= d) + (after.take(j) - x < d)
    b = a
    while (tie := after.take(b) - x == d).any():
        b = b + tie
    return a, b


def _gridded_bin_sups(u, d_hi, h_min):
    """Per bin [lo, hi], the exact sup of |u(r + delta) - u(r)| over
    r < r + delta on the grid's span with delta in the bin, for the
    piecewise-linear u of gridded data, and the widest distance attaining
    it.

    The nodes are the grid radii, and the vertices are those of
    ``holder_fit``'s docstring. Node i's partners in a bin form a window
    [A(lo), B(hi)) of nodes (``_node_windows``). lo of a bin is hi of the
    next, so each distance's interpolated increments and windows are taken
    at most once, and only its own arrays live.

    Monotone values (nondecreasing or nonincreasing, the sign of their
    steps taken once) rise along one column of [v, -v], whose maximum on
    a window is at its last node, B(hi) - 1 for node i: the rightmost
    argmax, so a tie keeps the widest distance, as the table does. Other
    values read a sparse table of window extrema of both columns.

    A monotone bin searches its windows only where a node pair could reach
    the interpolated increment at lo or hi. With g the least float gap of
    neighbours, a partner j of node i has fl(x_j - x_i) <= hi and every
    gap is at least g / (1 + u), so j - i <= K = floor(hi / g (1 +
    1e-14)), the margin far above the 4 u the roundings can take. The
    rising column is nondecreasing and rounding is monotone, so no node
    pair's increment exceeds the largest of rising[i + K] - rising[i];
    below the interpolated best it cannot win, and the bin keeps that best
    bit for bit.
    """
    x, v = u.grid, u.values
    at = np.arange(x.size)
    # Node j - 1 and node j read at index j, past either end as -inf, inf.
    before, after = np.concatenate(([-np.inf], x)), np.append(x, np.inf)

    def distance(d):
        """[the largest increment from a node to the point at distance d
        ahead of or behind it, within the grid's span; x + d; A(d) and B(d)
        once searched]."""
        reach, back = x + d, x - d
        k_reach, k_back = reach.searchsorted(x[-1], side="right"), back.searchsorted(x[0])
        ends = np.concatenate((reach[:k_reach], back[k_back:]))
        # The ends lie on the span by construction, so np.interp reads them
        # as u.value would, without its range check.
        inc = np.abs(np.interp(ends, x, v) - np.concatenate((v[:k_reach], v[k_back:])))
        return [inc.max(initial=0.0), reach, None]

    def windows(d, taken):
        """A(d) and B(d) of the distance d taken, searched once."""
        if taken[2] is None:
            taken[2] = _node_windows(x, d, taken[1], before, after)
        return taken[2]

    def pair_bound(hi):
        """The bound of the docstring on the node pairs of a monotone bin
        up to hi."""
        steps = hi / gap * (1.0 + 1e-14)
        k = int(steps) if steps < x.size - 1 else x.size - 1
        return (rising[k:] - rising[:-k]).max() if k else 0.0

    last_d, last = d_hi[0], distance(d_hi[0])  # the last distance taken: hi of the next bin
    step = np.diff(v)
    rising = v if (step >= 0).all() else -v if (step <= 0).all() else None
    if rising is None:
        # Increments up and down at once, as window maxima of v and of -v.
        # No window holds more than the partners of its node within h_max.
        w = np.stack((v, -v), axis=1)
        partners = windows(last_d, last)[1] - at - 1
        val, arg, at_start, at_end = _window_extrema(w, max(int(partners.max()), 1))
        next_at = at + 1
    else:
        gap = np.diff(x).min()

    # Each bin's sup and its distance, as the largest (increment, distance)
    # pair: ties go to the widest distance, so a node pair, never wider
    # than hi nor narrower than lo, is located only when it can win.
    sup_inc, sup_dist = [], []
    for hi in d_hi:
        lo = max(hi / 2.0, h_min)
        at_hi = last if hi == last_d else distance(hi)
        at_lo = at_hi if lo == hi else distance(lo)
        best = max((at_lo[0], lo), (at_hi[0], hi))
        if rising is None or pair_bound(hi) >= best[0]:
            a, b = windows(lo, at_lo)[0], windows(hi, at_hi)[1]
            # Node i's window; an empty one reads node i alone, whose
            # increment 0 no bin keeps.
            empty = b <= a
            if rising is not None:
                end = np.where(empty, at, b - 1)
                inc = rising.take(end) - rising
            else:
                a, b = np.where(empty, at, a), np.where(empty, next_at, b)
                width = b - a
                fa, fb = at_start.take(width) + a, at_end.take(width) + b
                va, vb = val.take(fa, axis=0), val.take(fb, axis=0)
                inc = (np.maximum(va, vb) - w).ravel()  # node i's columns at 2 i and 2 i + 1
            top = inc.max()
            if top >= best[0]:
                ties = np.flatnonzero(inc == top)
                if rising is not None:
                    i, j = ties, end.take(ties)
                else:
                    i, half = ties >> 1, ties & 1
                    j = np.where(vb[i, half] >= va[i, half], arg[fb[i], half], arg[fa[i], half])
                best = max(best, (top, (x.take(j) - x.take(i)).max()))
        if best[0] > 0:
            sup_inc.append(best[0])
            sup_dist.append(best[1])
        last_d, last = lo, at_lo
    return np.asarray(sup_inc, dtype=float), np.asarray(sup_dist, dtype=float)


# 2^-k for every bin index k of a Holder fit, 0 past k = 1074. For floats
# 2^-1074 <= h_min < h_max < 2^1024 the rounded log2(h_max / h_min) is at
# most 2098, so no fit has more than 2099 bins.
_HALVINGS = np.ldexp(1.0, -np.arange(2099))


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
    seed: int = 0,
    predicted_alpha: Optional[float] = None,
    tolerance: float = 0.05,
) -> HolderFitReport:
    """Fit sup |u(x)-u(y)| ~ |x-y|^alpha over dyadic distance bins.

    Pairs are radius pairs (u is radial); bin j holds the distances in
    [max(d_j/2, h_min), d_j] with d_j = h_max 2^-j. The regression uses each
    bin's sup increment against the distance that attained it, which keeps
    pure powers exactly on a line; bins whose sup is 0 are dropped. Where
    several distances attain a bin's sup, the widest is taken.

    u is a ``PowerProfile``, fitted on [0, 1], or gridded data (a sampled
    profile or a solution), fitted on its grid's span; any other input
    raises PreconditionViolation. Both sups are exact, so no pairs are
    drawn: ``seed`` (an integer >= 0) and ``pair_budget`` (an integer >=
    1) change nothing, are only validated, and remain only for the
    benchmark's calls (``perfbench/cases.py``).

    A power takes the closed form: |u(r + delta) - u(r)| increases with
    delta and is monotone in r, so each bin's sup is its widest pair,
    anchored at r = 0 when a <= 1 and at r = 1 - delta when a > 1. The
    increment is taken as |c ((r + delta)^a - r^a)|, which the shift does
    not enter, so no bin is lost to the roundoff of c (r^a - shift). A
    power unbounded at the axis (a < 0 and c != 0) is refused.

    Gridded data take the sup of their piecewise-linear interpolant. On
    each cell of the arrangement of the lines r = node, r + delta = node,
    delta = lo and delta = hi the increment is linear, so the sup is
    attained at a vertex: a node pair whose gap lies in the bin, or a node
    against the point at distance lo or hi on either side of it. On
    nondecreasing or nonincreasing values the largest node pair of a node
    is its farthest partner in the bin, and a bin where the bound of
    ``_gridded_bin_sups`` keeps every node pair below the interpolated
    best locates none; other values find it in a sparse table of window
    maxima. Both give the same bits. A bin's sup past the float range
    (values whose differences overflow) is refused.
    """
    _check_count("pair_budget", pair_budget, 1)
    _check_count("seed", seed, 0)
    _check_positive("tolerance", tolerance, zero_ok=True)
    if not isinstance(u, (PowerProfile, Gridded)):
        raise PreconditionViolation(
            "Holder fits take a PowerProfile or gridded data (a sampled profile or a solution), "
            f"got {type(u).__name__}"
        )
    h_min, h_max = float(scale_range[0]), float(scale_range[1])
    if not 0 < h_min < h_max:
        raise PreconditionViolation("scale_range must satisfy 0 < h_min < h_max")
    extent = float(u.grid[-1] - u.grid[0]) if isinstance(u, Gridded) else 1.0
    if not h_max <= extent:
        raise PreconditionViolation("h_max exceeds the domain extent")

    # log2(h_max / h_min) with the binary exponents taken apart, since the
    # ratio itself may overflow; the mantissa ratio lies in (1/2, 2).
    (m_hi, e_hi), (m_lo, e_lo) = math.frexp(h_max), math.frexp(h_min)
    n_bins = max(int(math.floor(math.log2(m_hi / m_lo) + (e_hi - e_lo))) + 1, 1)
    d_hi = h_max * _HALVINGS[:n_bins]  # the floats of h_max * np.ldexp(1.0, -k)

    if isinstance(u, PowerProfile):
        if u.a < 0 and u.c != 0:
            raise PreconditionViolation(f"power profile with a = {u.a} < 0 is unbounded at r = 0")
        r1 = 1.0 - d_hi if u.a > 1 else 0.0
        sup_inc, sup_dist = np.abs(u.c * ((r1 + d_hi) ** u.a - np.power(r1, u.a))), d_hi
        if not np.minimum.reduce(sup_inc) > 0:  # drop the bins whose sup is 0 (or NaN)
            nonzero = sup_inc > 0
            sup_inc, sup_dist = sup_inc[nonzero], d_hi[nonzero]
    else:
        # A reach x + d past the float max is past the grid, and hi / g past
        # it bounds nothing; an increment past it is refused here.
        with np.errstate(over="ignore"):
            sup_inc, sup_dist = _gridded_bin_sups(u, d_hi, h_min)
        if not np.isfinite(sup_inc).all():
            raise PreconditionViolation("a bin's sup increment leaves the float range")
    if sup_inc.size < 3:
        raise InsufficientScales(
            f"only {sup_inc.size} nonempty distance bins, need at least 3"
        )

    x = np.log(sup_dist)
    y = np.log(sup_inc)
    slope, intercept, ss_tot = _least_squares(x, y)
    ss_res = float(np.add.reduce((y - (slope * x + intercept)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    passed = None
    if predicted_alpha is not None:
        passed = bool(abs(slope - predicted_alpha) <= tolerance)
    return HolderFitReport(
        scales=sup_dist,
        max_increments=sup_inc,
        fitted_alpha=slope,
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


def _zero_crossings(grid, values):
    """The radii strictly inside a panel where the piecewise-linear
    interpolant of (grid, values) changes sign. Both values are scaled by
    the larger one, so no sum or difference of them can overflow."""
    lo, hi = values[:-1], values[1:]
    at = np.flatnonzero(((lo < 0) & (hi > 0)) | ((lo > 0) & (hi < 0)))
    a, b = np.abs(lo[at]), np.abs(hi[at])
    top = np.maximum(a, b)
    a, b = a / top, b / top
    return grid[at] + a / (a + b) * (grid[at + 1] - grid[at])


def _ball_mass(f, s_index, dim, rho, negative=False):
    """int over B_rho(0) of |f|^s, or of f^- (s = 1) when ``negative``, for
    the ``Gridded`` f from its first node and each radius of the array rho.
    """

    def read(r):
        """f at the radii r, or f^-, which is linear with f on each panel,
        where f keeps one sign."""
        return np.maximum(-f.value(r), 0.0) if negative else f.value(r)

    def shell(r):
        return dim * unit_ball_volume(dim) * r ** (dim - 1)

    def density(r):
        return np.abs(read(r)) ** s_index * shell(r)

    def masses(a, b, fa, fb):
        """The integral over each panel [a, b], f being fa and fb at its
        ends. Where f vanishes at one end only, |f|^s is |f at the other
        end|^s times the weight ((r - zero) / (other - zero))^s of the
        Gauss-Jacobi rule, exact for any s."""
        out = quad(density, a, b)
        one_end = (fa == 0) != (fb == 0)
        if one_end.any():
            left = fa[one_end] == 0
            a, b, fa, fb = a[one_end], b[one_end], fa[one_end], fb[one_end]
            out[one_end] = np.abs(np.where(left, fb, fa)) ** s_index * gauss_jacobi(
                shell, np.where(left, a, b), np.where(left, b, a), s_index)
        return out

    # Panels break at the sample nodes, where the interpolant kinks, and at
    # its zero crossings, where |f|^s does; between them |f|^s r^(dim-1) is
    # smooth (a polynomial for an integer s).
    crossings = _zero_crossings(f.grid, f.values)
    edges = sample_panels(np.sort(np.concatenate((f.grid, crossings))), f.grid[0],
                          float(np.max(rho, initial=f.grid[0])))
    ends = read(edges)
    ends[np.isin(edges, crossings)] = 0.0
    panels = masses(edges[:-1], edges[1:], ends[:-1], ends[1:])
    cumulative = np.concatenate(([0.0], np.cumsum(panels)))
    k = np.clip(np.searchsorted(edges, rho, side="right") - 1, 0, edges.size - 2)
    return cumulative[k] + masses(edges[k], rho, ends[k], read(rho))


def _power_morrey_value(scale: float, dim: int, ex: float, s_index: float, omega_radius: float,
                        power: float) -> float:
    """scale (d omega_d / ex)^(1/s) omega_radius^(power/s), the Morrey value
    of a power source at omega_radius."""
    return scale * ((dim * unit_ball_volume(dim) / ex) ** (1.0 / s_index)
                    * omega_radius ** (power / s_index))


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

    f is a ``RadialPowerSource`` (zero is the one of amplitude 0) or a
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
    centred in Omega. ``center_samples`` must be an integer >= 1 and no
    longer changes the result; ``n_radii`` must be an integer >= 0. A
    value past the float range raises PreconditionViolation, as the sigma
    bound's numbers do.
    """
    _check_dim(dim)
    if not s_index >= 1:
        raise PreconditionViolation(f"s_index must be >= 1, got {s_index}")
    if not 0 < theta <= dim:
        raise PreconditionViolation(f"theta must be in (0, dim], got {theta}")
    _check_positive("omega_radius", omega_radius)
    _check_count("center_samples", center_samples, 1)
    _check_count("n_radii", n_radii, 0)
    if isinstance(f, RadialPowerSource):
        if s_index * f.beta >= dim:
            raise NonIntegrable(
                f"|x|^(-{f.beta}) is not locally L^{s_index} in dimension {dim}"
            )
        # The norm is homogeneous in A, and |A| scales the value last, so
        # a large amplitude cannot overflow |A|^s.
        scale = abs(f.amplitude)
        exact = f.beta >= 0 or scale == 0
        divergent = scale > 0 and theta < s_index * f.beta
        if divergent:
            value = math.inf
        elif scale == 0:
            value = 0.0
        else:
            # rho^((theta-d)/s) (d omega_d rho^ex / ex)^(1/s), ex = d - s beta, with
            # the powers of rho combined, so only a value past the float range is lost.
            ex = dim - s_index * f.beta
            value = _in_range("the Morrey value", _power_morrey_value, scale, dim, ex, s_index, omega_radius,
                              theta - s_index * f.beta)
        return MorreyNorm(s_index=s_index, theta=theta, value=value, divergent=divergent,
                          argmax_radius=0.0 if divergent else omega_radius, exact=exact)
    if not isinstance(f, SampledSource):
        raise PreconditionViolation(
            f"morrey_norm takes a power or sampled source, got {type(f).__name__}"
        )
    f.within(0.0)  # a ball centred at the origin reads f from r = 0
    diam = 2.0 * omega_radius
    radii = np.geomspace(diam * 1e-4, diam, n_radii)
    # np.unique's values from a sort and a neighbour mask: np.unique runs
    # np.ma.is_masked, whose first call imports numpy.ma (about 1.2 MB).
    radii = np.sort(np.concatenate((radii, [omega_radius, diam])))
    radii = radii[np.concatenate(([True], radii[1:] != radii[:-1]))]
    mass = _ball_mass(f, s_index, dim, np.minimum(radii, omega_radius))
    values = radii ** ((theta - dim) / s_index) * mass ** (1.0 / s_index)
    i = int(np.argmax(values))
    return MorreyNorm(
        s_index=s_index,
        theta=theta,
        value=_in_range("the Morrey value", float, values[i]),
        divergent=False,
        argmax_radius=float(radii[i]),
        exact=False,
    )
