"""Radial profiles, divergence-form operators and residual scans.

For a radial function u(x) = V(|x|) and a scalar flux a(s), the operator

    -div(a(|Du|) Du/|Du|)   becomes   -[ a'(V') V'' + (dim - 1) a(V') / r ]

at radii where the expression makes sense. For the p-Laplacian flux
a(s) = |s|^(p-2) s this is the familiar

    -|V'|^(p-2) [ (p - 1) V'' + (dim - 1) V' / r ].

The closed-form profile families below are the explicit objects used
throughout the package:

* ``sharpness_profile``: V(r) = c (r^a - 1) with a = (gamma-p)/(gamma-(p-1))
  and c < 0 chosen so that -Delta_p u = |Du|^gamma exactly. Its Holder
  regularity is exactly a, which shows the interior exponent estimate is
  attained.
* ``nonconstant_entire_profile``: V(r) = c r^a, same a (negative when
  gamma < p), with c balanced so that -Delta_p u + c_h |Du|^gamma = 0 on
  all of R^dim. These exist exactly for gamma above the critical exponent.
* ``bump_profile_scale``: V(r) = c (1 + r^2)^(-delta/2) with
  delta = (p-gamma)/(gamma-(p-1)), a bounded positive supersolution of
  -Delta_p u >= c_h |Du|^gamma for every c > 0 up to a closed-form largest
  scale, again only above the critical exponent.

Residual sign convention: a scan reports

    residual(r) = -div(a(V')) - c_h |V'|^gamma + lam V + f(r),

so ``passed`` (min residual >= -tol) certifies a supersolution. A solution
of the equation -div(a(V')) + c_h |V'|^gamma = 0 is certified by scanning
its negation, since the divergence term is odd under V -> -V.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegeneratePoint,
    DomainExceeded,
    NoAdmissibleScale,
    PreconditionViolation,
)
from .params import (
    ProblemParams,
    _critical_gamma,
    _gradient_arm,
    _growth_gap,
    liouville_threshold,
)

__all__ = [
    "RadialProfile",
    "PowerProfile",
    "BumpProfile",
    "SampledProfile",
    "OperatorKind",
    "PLaplacian",
    "MeanCurvature",
    "GeneralizedMeanCurvature",
    "ResidualReport",
    "radial_operator",
    "sharpness_profile",
    "nonconstant_entire_profile",
    "bump_profile_scale",
    "residual_scan",
]


# ---------------------------------------------------------------------------
# Profile families
# ---------------------------------------------------------------------------


class RadialProfile:
    """Base class: a scalar profile V(r) with two derivatives."""

    def value(self, r):
        raise NotImplementedError

    def derivative(self, r):
        raise NotImplementedError

    def second_derivative(self, r):
        raise NotImplementedError

    def negated(self) -> "RadialProfile":
        raise NotImplementedError


@dataclass(frozen=True)
class PowerProfile(RadialProfile):
    """V(r) = c (r^a - shift); shift = 1 makes it vanish at r = 1."""

    c: float
    a: float
    shift: float = 0.0

    def __post_init__(self):
        if self.a == 0 and self.c != 0:
            raise PreconditionViolation("power profile needs a != 0 unless c = 0")

    def value(self, r):
        return self.c * (np.asarray(r, dtype=float) ** self.a - self.shift)

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        return self.c * self.a * r ** (self.a - 1.0)

    def second_derivative(self, r):
        r = np.asarray(r, dtype=float)
        return self.c * self.a * (self.a - 1.0) * r ** (self.a - 2.0)

    def negated(self):
        return PowerProfile(-self.c, self.a, self.shift)


@dataclass(frozen=True)
class BumpProfile(RadialProfile):
    """V(r) = c (1 + r^2)^(-delta/2), bounded with algebraic decay."""

    c: float
    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise PreconditionViolation(f"bump profile needs delta > 0, got {self.delta}")

    def value(self, r):
        r = np.asarray(r, dtype=float)
        return self.c * (1.0 + r * r) ** (-self.delta / 2.0)

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        return -self.c * self.delta * r * (1.0 + r * r) ** (-self.delta / 2.0 - 1.0)

    def second_derivative(self, r):
        r = np.asarray(r, dtype=float)
        w = 1.0 + r * r
        return -self.c * self.delta * w ** (-self.delta / 2.0 - 2.0) * (
            w - (self.delta + 2.0) * r * r
        )

    def negated(self):
        return BumpProfile(-self.c, self.delta)


def _checked_samples(grid, values, what: str, min_nodes: int):
    """(grid, values) as float arrays after the checks every sampled input
    shares: 1-D, equal lengths, finite, strictly increasing radii and at
    least ``min_nodes`` nodes."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size < min_nodes:
        raise PreconditionViolation(f"{what} needs at least {min_nodes} nodes")
    if values.shape != grid.shape:
        raise PreconditionViolation(f"{what}: grid and values must have equal length")
    if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
        raise PreconditionViolation(f"{what}: grid and values must be finite")
    if not np.all(np.diff(grid) > 0):
        raise PreconditionViolation(f"{what}: grid must be strictly increasing")
    return grid, values


@dataclass(eq=False)
class SampledProfile(RadialProfile):
    """V given by samples on a strictly increasing grid of radii > 0.

    Derivatives use the second-order three-point stencils for non-uniform
    grids. The second derivative is defined at interior nodes only, and
    evaluation requires the query radius to coincide with a grid node.
    """

    grid: np.ndarray
    values: np.ndarray
    _d1: np.ndarray = field(init=False, repr=False)
    _d2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.grid, self.values = _checked_samples(self.grid, self.values, "sampled profile", 4)
        if not self.grid[0] > 0:
            raise PreconditionViolation("sampled grid must start at a radius > 0")
        self._d1 = np.gradient(self.values, self.grid)
        g, v = self.grid, self.values
        h1 = g[1:-1] - g[:-2]
        h2 = g[2:] - g[1:-1]
        d2 = np.full_like(v, np.nan)
        d2[1:-1] = 2.0 * (h1 * v[2:] - (h1 + h2) * v[1:-1] + h2 * v[:-2]) / (
            h1 * h2 * (h1 + h2)
        )
        self._d2 = d2

    def _indices(self, r, interior: bool):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        idx = np.searchsorted(self.grid, r)
        idx = np.clip(idx, 0, self.grid.size - 1)
        left = np.clip(idx - 1, 0, self.grid.size - 1)
        use_left = np.abs(self.grid[left] - r) < np.abs(self.grid[idx] - r)
        idx = np.where(use_left, left, idx)
        tol = 1e-9 * np.maximum(1.0, np.abs(r))
        if np.any(np.abs(self.grid[idx] - r) > tol):
            raise DomainExceeded("query radius is not a node of the sampled grid")
        if interior and (np.any(idx < 1) or np.any(idx > self.grid.size - 2)):
            raise DomainExceeded("second derivative is defined at interior nodes only")
        return idx

    def value(self, r):
        return np.interp(np.asarray(r, dtype=float), self.grid, self.values)

    def derivative(self, r):
        return self._d1[self._indices(r, interior=False)]

    def second_derivative(self, r):
        return self._d2[self._indices(r, interior=True)]

    def negated(self):
        return SampledProfile(self.grid.copy(), -self.values)


# ---------------------------------------------------------------------------
# Operator kinds (scalar fluxes)
# ---------------------------------------------------------------------------


class OperatorKind:
    """A divergence-form operator given by its scalar flux a(s).

    Every kind satisfies the growth bound |a(s)| <= |s|^(p-1) with its own
    growth order p, which is the structural condition the estimates need
    with nu = 1.
    """

    p: float

    def flux(self, s, eps: float = 0.0):
        raise NotImplementedError

    def flux_derivative(self, s, eps: float = 0.0):
        raise NotImplementedError


@dataclass(frozen=True)
class PLaplacian(OperatorKind):
    """a(s) = |s|^(p-2) s, regularized to (s^2 + eps^2)^((p-2)/2) s."""

    p: float

    def __post_init__(self):
        if not self.p > 1:
            raise PreconditionViolation(f"p-Laplacian needs p > 1, got {self.p}")

    def flux(self, s, eps: float = 0.0):
        s = np.asarray(s, dtype=float)
        return (s * s + eps * eps) ** ((self.p - 2.0) / 2.0) * s

    def flux_derivative(self, s, eps: float = 0.0):
        s = np.asarray(s, dtype=float)
        w = s * s + eps * eps
        return w ** ((self.p - 4.0) / 2.0) * ((self.p - 1.0) * s * s + eps * eps)


@dataclass(frozen=True)
class MeanCurvature(OperatorKind):
    """a(s) = s / sqrt(1 + s^2); growth order 2, flux bounded by 1."""

    @property
    def p(self) -> float:
        return 2.0

    def flux(self, s, eps: float = 0.0):
        s = np.asarray(s, dtype=float)
        return s / np.sqrt(1.0 + s * s)

    def flux_derivative(self, s, eps: float = 0.0):
        s = np.asarray(s, dtype=float)
        return (1.0 + s * s) ** -1.5


@dataclass(frozen=True)
class GeneralizedMeanCurvature(OperatorKind):
    """a(s) = s |s|^(k-2) / sqrt(1 + |s|^k) with k >= 2; growth order k/2."""

    k: float

    def __post_init__(self):
        if not self.k >= 2:
            raise PreconditionViolation(f"generalized mean curvature needs k >= 2, got {self.k}")

    @property
    def p(self) -> float:
        return self.k / 2.0

    def flux(self, s, eps: float = 0.0):
        s = np.asarray(s, dtype=float)
        q = np.sqrt(s * s + eps * eps)
        return s * q ** (self.k - 2.0) / np.sqrt(1.0 + q**self.k)

    def flux_derivative(self, s, eps: float = 0.0):
        s = np.asarray(s, dtype=float)
        k = self.k
        q = np.sqrt(s * s + eps * eps)
        safe = np.where(q == 0.0, 1.0, q)
        root = np.sqrt(1.0 + q**k)
        g = safe ** (k - 2.0) / root
        gprime = (k - 2.0) * safe ** (k - 3.0) / root - (k / 2.0) * safe ** (
            2.0 * k - 3.0
        ) / root**3
        out = g + (s * s / safe) * gprime
        # At q = 0 the flux derivative is 1 for k = 2 and 0 for k > 2.
        at_zero = 1.0 if k == 2.0 else 0.0
        return np.where(q == 0.0, at_zero, out)


# ---------------------------------------------------------------------------
# Pointwise operator evaluation
# ---------------------------------------------------------------------------


def radial_operator(kind: OperatorKind, profile: RadialProfile, r, dim: int):
    """Evaluate -div(a(V')) at radius r (scalar or array), r > 0.

    At a critical point V'(r) = 0 the p-Laplacian value is 0 for p > 2, the
    plain Laplacian value -V'' for p = 2, and undefined for p < 2 unless
    the profile is flat there (V'' = 0 as well, in which case the limit 0
    is returned). The bounded-flux kinds are smooth at V' = 0.
    """
    scalar = np.ndim(r) == 0
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(rr <= 0):
        raise PreconditionViolation("radial operator is evaluated at radii r > 0")
    v1 = np.atleast_1d(np.asarray(profile.derivative(rr), dtype=float))
    v2 = np.atleast_1d(np.asarray(profile.second_derivative(rr), dtype=float))
    if isinstance(kind, PLaplacian):
        p = kind.p
        zero = v1 == 0.0
        if p < 2 and np.any(zero & (v2 != 0.0)):
            raise DegeneratePoint(
                "p-Laplacian with p < 2 is singular at a nonflat critical point"
            )
        safe_v1 = np.where(zero, 1.0, v1)
        out = -np.abs(safe_v1) ** (p - 2.0) * ((p - 1.0) * v2 + (dim - 1) * v1 / rr)
        # p = 2 is the Laplacian, smooth through critical points; otherwise
        # the weight |V'|^(p-2) sends the value to 0 there.
        out = np.where(zero, -v2 if p == 2 else 0.0, out)
    else:
        out = -(
            kind.flux_derivative(v1) * v2 + (dim - 1) * kind.flux(v1) / rr
        )
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Explicit families
# ---------------------------------------------------------------------------


def sharpness_profile(dim: int, p: float, gamma: float) -> PowerProfile:
    """Explicit solution of -Delta_p u = |Du|^gamma on the unit ball.

    Returns V(r) = c (r^a - 1) with a = (gamma-p)/(gamma-(p-1)) in (0, 1) and

        c = -((gamma-(p-1))/(gamma-p)) * g^(1/(gamma-(p-1))),

    g = _growth_gap(dim, p, gamma) = (dim-1)(gamma-gamma*)/(gamma-(p-1)).
    Requires gamma > p and gamma > gamma* = _critical_gamma(dim, p). The
    profile's modulus of continuity at the origin is exactly r^a, which
    matches the gradient arm of the Holder exponent formula.
    """
    if not gamma > p:
        raise PreconditionViolation(
            f"sharpness profile needs gamma > p, got gamma={gamma}, p={p}"
        )
    if not gamma > _critical_gamma(dim, p):
        raise PreconditionViolation(
            f"sharpness profile needs (dim-1)*gamma > dim*(p-1), got dim={dim}, p={p}, gamma={gamma}"
        )
    a = _gradient_arm(p, gamma)
    c = -(_growth_gap(dim, p, gamma) ** (1.0 / (gamma - (p - 1)))) / a
    return PowerProfile(c=c, a=a, shift=1.0)


def nonconstant_entire_profile(dim: int, p: float, gamma: float, c_h: float = 1.0) -> PowerProfile:
    """Nonconstant entire solution of -Delta_p u + c_h |Du|^gamma = 0.

    Returns V(r) = c r^a with a = (gamma-p)/(gamma-(p-1)); the exponent is
    positive for gamma > p and negative for gamma < p, and the coefficient
    c (positive resp. negative) is balanced so the equation holds exactly
    on R^dim minus the origin. Exists precisely for gamma above the
    critical exponent and gamma != p; at gamma = p the family degenerates
    to a logarithm and no power profile is returned.
    """
    if not c_h > 0:
        raise PreconditionViolation(f"c_h must be positive, got {c_h}")
    gamma_star = liouville_threshold(dim, p)
    if not gamma > gamma_star:
        raise PreconditionViolation(
            f"entire profile needs gamma > {gamma_star}, got gamma={gamma}"
        )
    if gamma == p:
        raise PreconditionViolation(
            "gamma = p is the logarithmic case, no power profile exists"
        )
    a = _gradient_arm(p, gamma)
    magnitude = (_growth_gap(dim, p, gamma) / c_h) ** (1.0 / (gamma - (p - 1)))
    c = magnitude / a
    return PowerProfile(c=c, a=a)


def bump_profile_scale(dim: int, p: float, gamma: float, c_h: float, grid):
    """Largest scale c > 0 making c(1+r^2)^(-delta/2) a supersolution on R^dim.

    For the unit bump w, with A = -Delta_p w and B = |w'|^gamma, the
    (p-1)-homogeneity of the p-Laplacian turns the inequality
    -Delta_p (c w) >= c_h |D(c w)|^gamma into c^(gamma-p+1) <= A / (c_h B).
    In closed form

        A / B = delta^(p-1-gamma) (1 + 1/r^2)^((gamma-p)/2) (g + (dim+p-2)/r^2),

    with g = _growth_gap(dim, p, gamma), a multiple of gamma - gamma*. It
    falls strictly in r towards delta^(p-1-gamma) g, so the largest scale
    valid for every radius is

        c = (delta^(p-1-gamma) g / c_h)^(1/(gamma-p+1)),

    and none exists unless gamma > gamma* = _critical_gamma(dim, p) (at or
    below it A < 0 for r^2 > (dim+p-2)/(-g)). Where c underflows to 0, just
    above gamma*, NoAdmissibleScale is raised. Returns (c, ResidualReport),
    the report being the unit-scale certificate of c on ``grid``.
    """
    if not gamma < p:
        raise PreconditionViolation(
            f"bump witness needs gamma < p, got gamma={gamma}, p={p}"
        )
    if not gamma > p - 1:
        raise PreconditionViolation(
            f"bump witness needs gamma > p - 1, got gamma={gamma}, p={p}"
        )
    if not c_h > 0:
        raise PreconditionViolation(f"c_h must be positive, got {c_h}")
    gamma_star = _critical_gamma(dim, p)
    if not gamma > gamma_star:
        raise NoAdmissibleScale(
            f"no bump supersolution on R^{dim} for gamma={gamma}: "
            f"gamma is not above the critical exponent {gamma_star!r}"
        )
    delta = -_gradient_arm(p, gamma)
    base = delta ** (p - 1 - gamma) * _growth_gap(dim, p, gamma) / c_h
    c = base ** (1.0 / (gamma - (p - 1)))
    if not c > 0:
        raise NoAdmissibleScale(f"bump scale for gamma={gamma} underflows: it rounds to 0")
    return c, _certify_bump(dim, p, gamma, c_h, c, grid)


def _certify_bump(dim: int, p: float, gamma: float, c_h: float, c: float, grid):
    """Strict residual scan certifying c (1+r^2)^(-delta/2) at unit scale.

    The residual of c w is c^(p-1) (A - c_h c^(gamma-p+1) B) for the unit
    bump w, so scanning w with gradient constant c_h c^(gamma-p+1) decides
    the same inequality, in normal-range arithmetic even where c is
    subnormal. Only radii where w' is a normal float are scanned: past
    them (delta in the hundreds, p near 1) the residual has no significant
    digit, and for p < 2 the weight |w'|^(p-2) overflows.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0 or not np.all(grid > 0):
        raise PreconditionViolation("scan grid must contain radii > 0 only")
    unit = BumpProfile(c=1.0, delta=-_gradient_arm(p, gamma))
    grid = grid[np.abs(unit.derivative(grid)) >= np.finfo(float).tiny]
    if grid.size == 0:
        raise NoAdmissibleScale(f"bump slope for gamma={gamma} underflows on the whole scan grid")
    params = ProblemParams(dim=dim, p=p, gamma=gamma, lam=0.0, c_h=c_h * c ** (gamma - (p - 1)))
    return residual_scan(PLaplacian(p), unit, params, None, grid, tol=0.0)


# ---------------------------------------------------------------------------
# Residual scans
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ResidualReport:
    """Pointwise supersolution residuals over a scan grid."""

    grid: np.ndarray
    residuals: np.ndarray
    min_residual: float
    passed: bool
    tol: float

    @property
    def max_abs_residual(self) -> float:
        return float(np.max(np.abs(self.residuals)))


def residual_scan(
    kind: OperatorKind,
    profile: RadialProfile,
    params: ProblemParams,
    f,
    grid,
    tol: float = 1e-8,
) -> ResidualReport:
    """Evaluate -div(a(V')) - c_h |V'|^gamma + lam V + f on a grid of radii.

    ``f`` is any callable of r (or None for zero source). The report passes
    when the minimum residual is >= -tol; use tol = 0 for strict inequality
    witnesses and scan the negated profile to certify equality-form
    solutions with a two-sided bound on ``max_abs_residual``.
    """
    grid = np.asarray(grid, dtype=float)
    op = radial_operator(kind, profile, grid, params.dim)
    v1 = np.asarray(profile.derivative(grid), dtype=float)
    res = op - params.c_h * np.abs(v1) ** params.gamma + params.lam * np.asarray(
        profile.value(grid), dtype=float
    )
    if f is not None:
        res = res + np.asarray(f(grid), dtype=float)
    min_res = float(np.min(res))
    return ResidualReport(
        grid=grid,
        residuals=res,
        min_residual=min_res,
        passed=bool(min_res >= -tol),
        tol=tol,
    )
