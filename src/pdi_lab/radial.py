"""Radial profiles, divergence-form operators and residual scans.

For a radial function u(x) = V(|x|), ``radial_operator`` evaluates

    -Delta_p u = -|V'|^(p-2) [ (p - 1) V'' + (dim - 1) V' / r ]

at radii where the expression makes sense. The operator kinds (scalar
fluxes a(s)) are those of the solver.

The closed-form profile families below are the explicit objects used
throughout the package:

* ``sharpness_profile``: V(r) = c (r^a - 1) with a = (gamma-p)/(gamma-(p-1))
  and c < 0 chosen so that -Delta_p u = c_h |Du|^gamma exactly. Its Holder
  regularity is exactly a, which shows the interior exponent estimate is
  attained.
* ``nonconstant_entire_profile``: V(r) = c r^a, same a (negative when
  gamma < p), with c balanced so that -Delta_p u + c_h |Du|^gamma = 0 on
  all of R^dim. These exist exactly for gamma above the critical exponent.
* ``bump_profile_scale``: V(r) = c (1 + r^2)^(-delta/2) with
  delta = (p-gamma)/(gamma-(p-1)), a bounded positive supersolution of
  -Delta_p u >= c_h |Du|^gamma for every c > 0 up to a largest scale, again
  only above the critical exponent. One log-space closed form gives both
  witness scales, the closed form certifies both families, and one
  unit-scale scan (``_certify_witness``) cross-checks them.

Residual sign convention: a scan reports

    residual(r) = -Delta_p V - c_h |V'|^gamma + lam V,

so ``passed`` (min residual >= -tol) certifies a supersolution. A solution
of the equation -Delta_p V + c_h |V'|^gamma = 0 is certified by scanning
its negation, since the divergence term is odd under V -> -V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import (
    DegeneratePoint,
    DomainExceeded,
    NoAdmissibleScale,
    PreconditionViolation,
)
from .params import (
    ProblemParams,
    _check_count,
    _check_dim,
    _check_exponents,
    _check_positive,
    _critical_gamma,
    _gradient_arm,
    _growth_gap,
    _in_range,
    _p_ok,
    liouville_threshold,
)

__all__ = [
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


@dataclass(frozen=True)
class PowerProfile:
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


@dataclass(frozen=True)
class BumpProfile:
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


def _checked_samples(grid, values, what: str):
    """(grid, values) as float arrays after the one rule every sampled
    input shares: 1-D, at least 2 nodes, equal lengths, finite, and a
    strictly increasing grid of radii >= 0."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise PreconditionViolation(f"{what} needs at least 2 nodes")
    if values.shape != grid.shape:
        raise PreconditionViolation(f"{what}: grid and values must have equal length")
    if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
        raise PreconditionViolation(f"{what}: grid and values must be finite")
    if not np.all(np.diff(grid) > 0):
        raise PreconditionViolation(f"{what}: grid must be strictly increasing")
    _check_positive(f"{what}: radii", grid[0], zero_ok=True)
    return grid, values


@dataclass(eq=False)
class Gridded:
    """Data on a grid of radii, read as its piecewise-linear interpolant
    (``np.interp``): the one type of sampled profiles, sources and areas
    and of solver output. Construction applies ``_checked_samples``, and
    ``value``, the one read, applies ``within``, so no gridded data is read
    outside its grid or at NaN; ``what`` names the data in its error
    messages."""

    grid: np.ndarray
    values: np.ndarray
    what: ClassVar[str] = "gridded data"

    def __post_init__(self):
        self.grid, self.values = _checked_samples(self.grid, self.values, self.what)

    def value(self, r):
        return np.interp(self.within(r), self.grid, self.values)

    def within(self, r) -> np.ndarray:
        """r as a float array, after the one out-of-grid rule of gridded
        data, which ``value`` and the audits' integrals apply: it is read
        on the span [grid[0], grid[-1]] of its grid only, and a radius
        outside it, or NaN, raises DomainExceeded."""
        r = np.asarray(r, dtype=float)
        lo, hi = self.grid[0], self.grid[-1]
        if not (lo <= r.min(initial=lo) and r.max(initial=hi) <= hi):
            raise DomainExceeded(f"{self.what} queried outside its grid [{lo}, {hi}]")
        return r


class SampledProfile(Gridded):
    """A profile V given by samples, read through its grid and values."""

    what = "sampled profile"


# ---------------------------------------------------------------------------
# Operator kinds (scalar fluxes)
# ---------------------------------------------------------------------------


class OperatorKind:
    """A divergence-form operator given by its scalar flux a(s).

    Every kind satisfies the growth bound |a(s)| <= |s|^(p-1) with its own
    growth order p, which is the structural condition the estimates need
    with nu = 1. The solver calls each kind's ``flux(s, eps)`` and
    ``flux_derivative(s, eps)``, a(s) and a'(s) regularized by eps, by duck
    typing: this class declares neither. Each returns a new float array,
    which the solver overwrites in place.
    """

    p: float

    def order_for(self, gamma: float) -> float:
        """The growth order a problem with this gamma takes, gamma > p - 1."""
        return self.p


@dataclass(frozen=True)
class PLaplacian(OperatorKind):
    """a(s) = |s|^(p-2) s, regularized to (s^2 + eps^2)^((p-2)/2) s."""

    p: float

    def __post_init__(self):
        if not _p_ok(self.p):  # the rule and message of ProblemParams
            raise PreconditionViolation(f"p must be finite and exceed 1, got {self.p}")

    def flux(self, s, eps: float = 0.0):
        s = np.asarray(s, dtype=float)
        return (s * s + eps * eps) ** ((self.p - 2.0) / 2.0) * s

    def flux_derivative(self, s, eps: float = 0.0):
        s = np.asarray(s, dtype=float)
        w = s * s + eps * eps
        return w ** ((self.p - 4.0) / 2.0) * ((self.p - 1.0) * s * s + eps * eps)


@dataclass(frozen=True)
class GeneralizedMeanCurvature(OperatorKind):
    """a(s) = s |s|^(k-2) / sqrt(1 + |s|^k) with k >= 2; growth order k/2."""

    k: float

    def __post_init__(self):
        if not self.k >= 2:
            raise PreconditionViolation(f"generalized mean curvature needs k >= 2, got {self.k}")

    @property
    def p(self) -> float:
        """k/2, the order at infinity; at k = 2 that is 1, no growth order
        p > 1, and gmc:2 is mean curvature, taken at order 2 (|a(s)| <= |s|),
        the largest of its orders (``order_for``)."""
        return self.k / 2.0 if self.k > 2.0 else 2.0

    def order_for(self, gamma: float) -> float:
        """p, except that mean curvature is bounded by |s|^(p-1) for every p
        in (1, 2] (s / sqrt(1 + s^2) is below |s| for |s| <= 1 and below 1
        above), so it admits every gamma > 0, the k -> 2 limit of the rule
        gamma > k/2 - 1, with p = 1 + gamma/2 where gamma <= 1."""
        if self.k > 2.0 or not gamma <= 1.0:
            return self.p
        if not gamma > 0:
            raise PreconditionViolation(f"gamma must exceed 0 for mean curvature, got {gamma}")
        return 1.0 + gamma / 2.0

    def flux(self, s, eps: float = 0.0):
        s = np.asarray(s, dtype=float)
        if self.k == 2.0:  # s / sqrt(1 + q^2), q = sqrt(s^2 + eps^2) as below
            return s / np.sqrt((1.0 + eps * eps) + s * s)
        q = np.sqrt(s * s + eps * eps)
        return s * q ** (self.k - 2.0) / np.sqrt(1.0 + q**self.k)

    def flux_derivative(self, s, eps: float = 0.0):
        """q^(k-4) (1+q^k)^(-3/2) [eps^2 + (k-1) s^2 + q^k (eps^2 + (k/2-1) s^2)],
        no term negative, so nothing cancels; (1+eps^2) (1+q^2)^(-3/2) at k = 2."""
        s = np.asarray(s, dtype=float)
        k, s2, e2 = self.k, s * s, eps * eps
        if k == 2.0:
            return (1.0 + e2) * ((1.0 + e2) + s2) ** -1.5
        # q = 0 (s = eps = 0) zeroes the bracket, so any q > 0 there gives the limit 0.
        q2 = s2 + e2 if e2 > 0.0 else np.where(s2 == 0.0, 1.0, s2)
        qk = q2 ** (k / 2.0)
        return q2 ** (k / 2.0 - 2.0) * (1.0 + qk) ** -1.5 * (
            e2 + (k - 1.0) * s2 + qk * (e2 + (k / 2.0 - 1.0) * s2)
        )


@dataclass(frozen=True)
class MeanCurvature(GeneralizedMeanCurvature):
    """a(s) = s / sqrt(1 + s^2), gmc with k = 2 and growth order p = 2: |a(s)| <= |s|
    is the structure condition with p = 2; k/2 = 1 is only a's sharp order at infinity."""

    k: float = field(default=2.0, init=False)
    # perfbench/tracer.py wraps the flux methods in each class's own dict.
    flux = GeneralizedMeanCurvature.flux
    flux_derivative = GeneralizedMeanCurvature.flux_derivative


# ---------------------------------------------------------------------------
# Pointwise operator evaluation
# ---------------------------------------------------------------------------


def radial_operator(p: float, profile: PowerProfile | BumpProfile, r, dim: int):
    """-Delta_p V = -div(|V'|^(p-2) V') at radius r > 0 (scalar or array).

    At a critical point V'(r) = 0 the value is 0 for p > 2, the plain
    Laplacian value -V'' for p = 2, and undefined for p < 2 unless the
    profile is flat there (V'' = 0 as well), where the limit 0 is returned.
    ``profile`` is any V with ``derivative`` and ``second_derivative``
    methods (a scan also reads ``value``), such as a ``PowerProfile`` or a
    ``BumpProfile``.
    """
    _check_dim(dim)
    out, _ = _operator_and_slope(p, profile, r, dim)
    return float(out[0]) if np.ndim(r) == 0 else out


def _operator_and_slope(p: float, profile: PowerProfile | BumpProfile, r, dim: int):
    """(-Delta_p V, V') at the radii r as 1-d arrays, each derivative of V
    evaluated once."""
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all(rr > 0):  # NaN fails too
        raise PreconditionViolation("radial operator is evaluated at radii r > 0")
    v1 = np.atleast_1d(np.asarray(profile.derivative(rr), dtype=float))
    v2 = np.atleast_1d(np.asarray(profile.second_derivative(rr), dtype=float))
    zero = v1 == 0.0
    if p < 2 and np.any(zero & (v2 != 0.0)):
        raise DegeneratePoint("p-Laplacian with p < 2 is singular at a nonflat critical point")
    safe_v1 = np.where(zero, 1.0, v1)
    out = -np.abs(safe_v1) ** (p - 2.0) * ((p - 1.0) * v2 + (dim - 1) * v1 / rr)
    # p = 2 is the Laplacian, smooth through critical points; otherwise
    # the weight |V'|^(p-2) sends the value to 0 there.
    return np.where(zero, -v2 if p == 2 else 0.0, out), v1


# ---------------------------------------------------------------------------
# Explicit families
# ---------------------------------------------------------------------------


def sharpness_profile(dim: int, p: float, gamma: float, c_h: float = 1.0) -> PowerProfile:
    """Explicit solution of -Delta_p u = c_h |Du|^gamma on the unit ball.

    Returns V(r) = c (r^a - 1) with a = (gamma-p)/(gamma-(p-1)) in (0, 1) and

        c = -((gamma-(p-1))/(gamma-p)) * (g / c_h)^(1/(gamma-(p-1))),

    g = _growth_gap(dim, p, gamma) = (dim-1)(gamma-gamma*)/(gamma-(p-1)): the
    c_h = 1 solution times c_h^(-1/(gamma-(p-1))), exactly 1.0 at c_h = 1.
    Requires gamma > p, gamma > gamma* = _critical_gamma(dim, p) and a finite
    c. The profile's modulus of continuity at the origin is exactly r^a,
    which matches the gradient arm of the Holder exponent formula.
    """
    _check_dim(dim)
    if not gamma > p:
        raise PreconditionViolation(f"sharpness profile needs gamma > p, got gamma={gamma}, p={p}")
    if not gamma > _critical_gamma(dim, p):
        raise PreconditionViolation(
            f"sharpness profile needs (dim-1)*gamma > dim*(p-1), got dim={dim}, p={p}, gamma={gamma}"
        )
    _check_positive("c_h", c_h)
    a, e = _gradient_arm(p, gamma), 1.0 / (gamma - (p - 1))
    c = _in_range(f"the sharpness profile's c at c_h={c_h}",
                  lambda: -(_growth_gap(dim, p, gamma) ** e) / a * c_h**-e)
    return PowerProfile(c=c, a=a, shift=1.0)


def nonconstant_entire_profile(dim: int, p: float, gamma: float, c_h: float = 1.0) -> PowerProfile:
    """Nonconstant entire solution of -Delta_p u + c_h |Du|^gamma = 0.

    Returns V(r) = c r^a with a = (gamma-p)/(gamma-(p-1)); the exponent is
    positive for gamma > p and negative for gamma < p, and the coefficient
    c (positive resp. negative, ``_witness_scale``) is balanced so the
    equation holds exactly on R^dim minus the origin. Exists precisely for
    gamma above the critical exponent and gamma != p; at gamma = p the
    family degenerates to a logarithm and no power profile is returned.
    """
    _check_dim(dim)
    gamma_star = liouville_threshold(dim, p)
    if not gamma > gamma_star:
        raise PreconditionViolation(f"entire profile needs gamma > {gamma_star}, got gamma={gamma}")
    if gamma == p:
        raise PreconditionViolation("gamma = p is the logarithmic case, no power profile exists")
    c, _ = _witness_scale(dim, p, gamma, c_h, bounded=False)
    return PowerProfile(c=c, a=_gradient_arm(p, gamma))


def bump_profile_scale(dim: int, p: float, gamma: float, c_h: float):
    """Largest scale c > 0 making c(1+r^2)^(-delta/2) a supersolution on R^dim.

    For the unit bump w, with A = -Delta_p w and B = |w'|^gamma, the
    (p-1)-homogeneity of the p-Laplacian turns the inequality
    -Delta_p (c w) >= c_h |D(c w)|^gamma into c^(gamma-p+1) <= A / (c_h B).
    In closed form, with x = 1/r^2,

        A / B = K (1 + mu(x)),   mu(x) = (1+x)^(-m) (1 + c_b x) - 1,

    K = delta^(p-1-gamma) g, m = (p-gamma)/2, c_b = (dim+p-2)/g and
    g = _growth_gap(dim, p, gamma), a multiple of gamma - gamma*. This
    closed form is the certificate: mu(0) = 0 and d/dx log(1+mu) =
    c_b/(1+c_b x) - m/(1+x) > 0 when c_b > 1 > m, which gamma* < gamma < p
    gives (m < 1/2 as gamma > p-1, and g < dim-1), so the unit bump's
    residual with gradient constant K, K B mu(x), is positive at every
    r > 0 and c = (K / c_h)^(1/(gamma-p+1)) (``_witness_scale``) is the
    largest scale valid for every radius. At or below gamma* =
    _critical_gamma(dim, p), g <= 0 and no scale exists.
    """
    _check_dim(dim)
    _check_exponents(p, gamma)
    if not gamma < p:
        raise PreconditionViolation(f"bump witness needs gamma < p, got gamma={gamma}, p={p}")
    gamma_star = _critical_gamma(dim, p)
    if not gamma > gamma_star:
        raise NoAdmissibleScale(
            f"no bump supersolution on R^{dim} for gamma={gamma}: "
            f"gamma is not above the critical exponent {gamma_star!r}"
        )
    return _witness_scale(dim, p, gamma, c_h, bounded=True)[0]


def _witness_constants(dim: int, p: float, gamma: float, bounded: bool):
    """(a, K), a = _gradient_arm: with gradient constant K the unit bump
    (1+r^2)^(a/2) is a strict supersolution, K = (-a)^(p-1-gamma) g, and the
    unit entire power r^a / a is a solution, K = g = _growth_gap."""
    a, g = _gradient_arm(p, gamma), _growth_gap(dim, p, gamma)
    return a, ((-a) ** (p - 1 - gamma) * g if bounded else g)


def _witness_scale(dim: int, p: float, gamma: float, c_h: float, bounded: bool):
    """(c, log10 |c|) of a witness's coefficient c = c1 (K/c_h)^(1/(gamma-p+1)),
    c1 = 1 for the bump and 1/a for the entire power, computed in logs: c
    is 0.0 or +-inf where it leaves the float range, log10 |c| is finite."""
    _check_positive("c_h", c_h)
    a, K = _witness_constants(dim, p, gamma, bounded)
    c1 = 1.0 if bounded else 1.0 / a
    log_c = (math.log(K) - math.log(c_h)) / (gamma - (p - 1)) + math.log(abs(c1))
    try:
        c = math.exp(log_c)
    except OverflowError:
        c = math.inf
    return math.copysign(c, c1), log_c / math.log(10.0)


def _certify_witness(dim: int, p: float, gamma: float, bounded: bool, grid):
    """(ResidualReport, ok) of the one witness scan, the numerical check of
    the closed-form certificate: the unit profile w with gradient constant
    K (``_witness_constants``), reading neither c nor c_h. The bump must be
    a strict supersolution where w' is normal (past that, delta in the
    hundreds and p near 1, the residual keeps no digit and |w'|^(p-2) can
    overflow). The entire power is a solution: -w is scanned, each residual
    within 1e-8 of K |w'|^gamma. Both callers pass radii > 0 only; a
    radius <= 0 or NaN is dropped by the bump filter or refused by the scan."""
    grid = np.array(grid, dtype=float, ndmin=1)  # a copy: no report holds the caller's array
    a, K = _witness_constants(dim, p, gamma, bounded)
    unit = BumpProfile(1.0, -a) if bounded else PowerProfile(-1.0 / a, a)
    if bounded:
        with np.errstate(over="ignore", invalid="ignore"):  # r * r overflows on radii it drops
            grid = grid[np.abs(unit.derivative(grid)) >= np.finfo(float).tiny]
        if grid.size == 0:
            raise NoAdmissibleScale(f"bump slope for gamma={gamma} underflows on the whole scan grid")
    params = ProblemParams(dim=dim, p=p, gamma=gamma, lam=0.0, c_h=K)
    report = residual_scan(unit, params, grid, tol=0.0)
    if bounded:
        return report, report.passed
    gradient_term = K * grid ** ((a - 1.0) * gamma)
    return report, bool((np.abs(report.residuals) <= 1e-8 * gradient_term).all())


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

    @property
    def max_abs_residual(self) -> float:
        return float(np.max(np.abs(self.residuals)))


def residual_scan(profile: PowerProfile | BumpProfile, params: ProblemParams, grid,
                  tol: float = 1e-8) -> ResidualReport:
    """Evaluate -Delta_p V - c_h |V'|^gamma + lam V on a grid of radii, with
    p, c_h, gamma and lam read off ``params``.

    The report passes when the minimum residual is >= -tol, tol finite and
    >= 0; use tol = 0 for strict inequality witnesses and scan the negated
    profile to certify equality-form solutions with a two-sided bound on
    ``max_abs_residual``.
    """
    _check_positive("tol", tol, zero_ok=True)
    grid = np.asarray(grid, dtype=float)
    _check_count("grid size", grid.size, 1)
    op, v1 = _operator_and_slope(params.p, profile, grid, params.dim)
    res = op - params.c_h * np.abs(v1) ** params.gamma + params.lam * profile.value(grid)
    min_res = float(np.min(res))
    return ResidualReport(grid, res, min_res, bool(min_res >= -tol))
