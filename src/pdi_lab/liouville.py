"""Area-growth Liouville criteria and the sigma differential inequality.

The engine rests on one scalar comparison: a nonconstant supersolution of
the homogeneous inequality forces

    (p-1)/(gamma-(p-1)) * sigma(R)^(-e)  >=  C * int_R^r area(dB_t)^(-e) dt,

with e = (gamma-(p-1))/(p-1) and sigma(R) the gradient energy of a ball.
If the right side grows past the (finite, R-only) left side as r -> inf,
no nonconstant supersolution can exist. Divergence of the area integral
is therefore the Liouville criterion; in Euclidean space, where
area(dB_t) grows like t^(dim-1), it reduces to the closed-form threshold

    gamma <= gamma* = dim (p-1)/(dim-1),

and that reduction is kept structural here: every threshold comparison,
in the Euclidean classifier and in the analytic area test alike, compares
gamma with the one float ``params._critical_gamma`` returns, so the phase
diagrams agree identically, float ties included, and a verdict is
LIOUVILLE exactly when gamma <= the gamma_star it reports.

Above the threshold the classifier produces explicit nonconstant
witnesses (entire power profiles for gamma > p, scaled bumps for
gamma < p); at gamma = p the known construction is logarithmic and is
not fabricated here, so the verdict carries a witness-unavailable note.

The comparison constant is normalization-dependent; this module fixes
C = (c_H/nu)^(gamma/(gamma-(p-1))) * (gamma-(p-1))/(p-1), one admissible
outcome of the Holder/Young step, and everything downstream treats rhs
as proportional to C rather than relying on its absolute size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DomainExceeded, PreconditionViolation
from .params import (
    ProblemParams,
    _check_dim,
    _check_exponents,
    _check_finite,
    _check_positive,
    _critical_gamma,
    _energy_arm,
    _gradient_arm,
    _has_threshold,
    _in_range,
    liouville_threshold,
    unit_ball_volume,
)
from .quadrature import sample_panels
from .quadrature import gauss_legendre as quad  # noqa: F401 (no caller; perfbench rebinds it)
from .radial import (
    BumpProfile,
    Gridded,
    PowerProfile,
    _certify_witness,
    bump_profile_scale,
    nonconstant_entire_profile,
)

__all__ = [
    "EuclideanArea",
    "PowerArea",
    "ExponentialArea",
    "SampledArea",
    "IntegralVerdict",
    "Verdict",
    "Mechanism",
    "LiouvilleVerdict",
    "SigmaBoundReport",
    "power_area_diverges",
    "area_condition_test",
    "sigma_lower_bound",
    "find_contradiction_radius",
    "liouville_classify_euclidean",
    "liouville_classify_manifold",
    "verify_euclidean_witness",
]


# ---------------------------------------------------------------------------
# Area profiles
# ---------------------------------------------------------------------------


# Every area law is amplitude * shape(t): the comparison integral reads the
# shape alone, and the sigma bound multiplies it by the area factor
# amplitude^-e.


@dataclass(frozen=True)
class EuclideanArea:
    """area(dB_t) = amplitude * t^beta, with amplitude = dim * omega_dim and
    beta = dim - 1 computed on access, so the area test of a dim whose
    amplitude is below the normal floats reads beta alone."""

    dim: int

    def __post_init__(self):
        _check_dim(self.dim)

    @property
    def amplitude(self) -> float:
        return self.dim * unit_ball_volume(self.dim)

    @property
    def beta(self) -> float:
        return float(self.dim - 1)


@dataclass(frozen=True)
class PowerArea:
    """area(dB_t) = amplitude * t^beta, amplitude finite and > 0."""

    amplitude: float
    beta: float

    def __post_init__(self):
        _check_positive("amplitude", self.amplitude)
        _check_finite("beta", self.beta)


@dataclass(frozen=True)
class ExponentialArea:
    """area(dB_t) = amplitude * exp(kappa t), the hyperbolic model growth,
    amplitude finite and > 0."""

    amplitude: float
    kappa: float

    def __post_init__(self):
        _check_positive("amplitude", self.amplitude)
        _check_finite("kappa", self.kappa)


class SampledArea(Gridded):
    """Tabulated area data, amplitude 1; decisions from it are heuristic at
    best."""

    what = "sampled area"
    amplitude = 1.0

    def __post_init__(self):
        super().__post_init__()
        _check_positive(f"{self.what}: values", float(self.values.min()))


# ---------------------------------------------------------------------------
# Verdict vocabulary
# ---------------------------------------------------------------------------


class IntegralVerdict(Enum):
    DIVERGENT = "DIVERGENT"
    CONVERGENT = "CONVERGENT"
    INCONCLUSIVE = "INCONCLUSIVE"


class Verdict(Enum):
    LIOUVILLE = "LIOUVILLE"
    NO_LIOUVILLE = "NO_LIOUVILLE"
    INCONCLUSIVE = "INCONCLUSIVE"


class Mechanism(Enum):
    CLOSED_FORM_THRESHOLD = "CLOSED_FORM_THRESHOLD"
    AREA_INTEGRAL_DIVERGES = "AREA_INTEGRAL_DIVERGES"
    COUNTEREXAMPLE_WITNESS = "COUNTEREXAMPLE_WITNESS"
    AREA_INTEGRAL_CONVERGES = "AREA_INTEGRAL_CONVERGES"


@dataclass(eq=False)
class LiouvilleVerdict:
    """A classification, with its witness where one is built."""

    verdict: Verdict
    mechanism: Optional[Mechanism]
    dim: Optional[int]
    p: float
    gamma: float
    gamma_star: Optional[float]
    c_h: float = 1.0
    witness: Optional[PowerProfile | BumpProfile] = None
    witness_note: Optional[str] = None


# ---------------------------------------------------------------------------
# Area integral test
# ---------------------------------------------------------------------------


def _comparison_exponent(p: float, gamma: float) -> float:
    """e = (gamma - (p-1)) / (p-1), for p and gamma that passed
    ``_check_exponents``."""
    return (gamma - (p - 1)) / (p - 1)


def power_area_diverges(beta: float, p: float, gamma: float) -> bool:
    """Whether int^inf (t^beta)^(-e) dt diverges, e = (gamma-(p-1))/(p-1).

    The borderline beta*e = 1 is the logarithmic case and counts as
    divergent. beta*e <= 1 reads gamma <= (beta+1)(p-1)/beta, the critical
    exponent of dimension beta + 1, so the test compares gamma with
    ``params._critical_gamma(beta + 1, p)``, the float every threshold
    comparison reads; for beta = dim - 1 it is bit-identical to
    ``gamma <= liouville_threshold(dim, p)``. beta + 1 <= 1 (beta <= 0, or
    so small that beta + 1 rounds to 1) puts the threshold at +inf. Where
    (beta + 1)(p - 1) exceeds the float range (~1.8e308) and a finite beta
    overflows the threshold to +inf, the test compares gamma with
    (p - 1)((beta + 1)/beta) instead, the same threshold without the
    overflow.
    """
    _check_exponents(p, gamma)
    if beta + 1 <= 1:
        return True
    threshold = _critical_gamma(beta + 1, p)
    if threshold == math.inf and beta < math.inf:
        threshold = (p - 1) * ((beta + 1) / beta)
    return gamma <= threshold


# A sampled area's last slope a_k within this of 0 reads neither way: the
# data end too close to the borderline beta e = 1 to place the tail.
_SLOPE_BAND = 1e-2


def area_condition_test(
    profile,
    p: float,
    gamma: float,
    t_start: float = 1.0,
    mode: str = "analytic",
) -> IntegralVerdict:
    """Decide int_{t_start}^inf area(dB_t)^(-e) dt = +inf or < inf.

    The mode matters only for sampled areas. A closed-form area gets its
    exact verdict in both modes, which does not depend on t_start. A sampled
    area reads INCONCLUSIVE in analytic mode. In numeric mode it reads the
    increments I_k of the sigma bound's closed form over the doublings
    [T, 2T] from t_start, until 2T leaves the float range or the grid, by
    Cauchy condensation (a_k = log2(I_{k+1}/I_k)). Convergent: three
    increments <= 1e-12 of the total, or a last a_k <= -1e-2 with the last
    three within 1e-3 or decreasing. Divergent: the last three a_k within
    1e-3 and the last >= 1e-2, an increment past the float range after a
    finite one, or no finite one. Else inconclusive, so a last agreeing
    a_k inside the band (-1e-2, 1e-2) around the borderline reads neither.
    """
    _check_exponents(p, gamma)
    e = _comparison_exponent(p, gamma)
    _check_positive("t_start", t_start)
    if mode not in ("analytic", "numeric"):
        raise PreconditionViolation(f"mode must be 'analytic' or 'numeric', got {mode!r}")
    if isinstance(profile, (EuclideanArea, PowerArea)):
        diverges = power_area_diverges(profile.beta, p, gamma)
        return IntegralVerdict.DIVERGENT if diverges else IntegralVerdict.CONVERGENT
    if isinstance(profile, ExponentialArea):
        return IntegralVerdict.CONVERGENT if profile.kappa > 0 else IntegralVerdict.DIVERGENT
    if mode == "analytic":
        return IntegralVerdict.INCONCLUSIVE

    T, total, increments, overflowed = t_start, 0.0, [], False
    while 2.0 * T < math.inf:
        try:
            increment = _comparison_integral(profile, e, T)(2.0 * T)
        except OverflowError:
            increment = math.inf
        except DomainExceeded:
            if T < profile.grid[0]:  # a start below the first node
                raise
            break  # the doubling passes the last node
        T *= 2.0
        total += increment
        increments.append(increment)
        if not total < math.inf:
            if len(increments) > 1:
                return IntegralVerdict.DIVERGENT
            total, increments, overflowed = 0.0, [], True  # past it from the start: read on
            continue
        if 0 < total and max(increments[-3:]) <= 1e-12 * total:
            return IntegralVerdict.CONVERGENT
        if len(increments) >= 4 and min(increments[-4:]) > 0:
            a = [math.log2(y) - math.log2(x) for x, y in zip(increments[-4:], increments[-3:])]
            agree = max(a) - min(a) <= 1e-3
            if agree and a[2] >= _SLOPE_BAND:
                return IntegralVerdict.DIVERGENT
            if a[2] <= -_SLOPE_BAND and (agree or a[0] > a[1] > a[2]):
                return IntegralVerdict.CONVERGENT
    if overflowed and not increments:  # no finite increment in the whole walk
        return IntegralVerdict.DIVERGENT
    return IntegralVerdict.INCONCLUSIVE


# ---------------------------------------------------------------------------
# Sigma lower bound
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SigmaBoundReport:
    R: float
    r: float
    sigma_R: float
    lhs: float
    rhs: float
    constant_C: float
    comparison_integral: float
    area_integral: float  # int_R^r area(dB_t)^(-e) dt: area_factor times the above
    area_factor: float  # amplitude^-e
    exponent_e: float
    contradiction: bool


def _power_integral(x: float, R: float, r: float) -> float:
    """int_R^r t^(-x) dt, stable through the logarithmic point x = 1."""
    if r == R:
        return 0.0
    one_minus = 1.0 - x
    if 0.5 < r / R < 2.0:  # r - R is exact, and log(r / R) would lose digits near 1
        log_ratio = math.log1p((r - R) / R)
    else:
        log_ratio = math.log(r / R) if 0 < r / R < math.inf else math.log(r) - math.log(R)
    if one_minus == 0.0:
        return log_ratio
    try:
        return R**one_minus * math.expm1(one_minus * log_ratio) / one_minus
    except OverflowError:  # for R < 1 the expm1 can overflow before the integral
        return r**one_minus * -math.expm1(-one_minus * log_ratio) / one_minus


def _sampled_integral(area: SampledArea, e: float, R: float, r: float) -> float:
    """int_R^r area(t)^(-e) dt. The area is linear on each panel [a, b]
    between its nodes, so a panel is exact: (b - a) / (v_b - v_a)
    int_{v_a}^{v_b} v^(-e) dv, or (b - a) v_a^(-e)."""
    edges = sample_panels(area.grid, R, r).tolist()
    v = area.value(edges).tolist()  # DomainExceeded past the grid
    return sum((b - a) * (va**-e if va == vb else _power_integral(e, va, vb) / (vb - va))
               for a, b, va, vb in zip(edges, edges[1:], v, v[1:]))


def _comparison_integral(profile, e: float, R: float):
    """The function r -> int_R^r (area(t) / amplitude)^(-e) dt in closed
    form, with the area family read once."""
    if isinstance(profile, SampledArea):
        return functools.partial(_sampled_integral, profile, e, R)
    if isinstance(profile, (EuclideanArea, PowerArea)):
        return functools.partial(_power_integral, profile.beta * e, R)
    ke = profile.kappa * e
    return (lambda r: r - R) if ke == 0.0 else lambda r: (math.exp(-ke * R) - math.exp(-ke * r)) / ke


def _sigma_constants(sigma_R: float, params: ProblemParams, profile, R: float, r: float):
    """The sigma bound's refusals, all but the comparison integral's, in
    their order; then its r-independent constants (e, lhs, C, area_factor)."""
    _check_positive("sigma_R", sigma_R)
    _check_positive("R", R)
    if not R <= r:
        raise PreconditionViolation(f"need 0 < R <= r, got R={R}, r={r}")
    e = _comparison_exponent(params.p, params.gamma)  # ProblemParams has checked both
    lhs = _in_range("lhs", _lhs, sigma_R, e)
    arm = _energy_arm(params.p, params.gamma)
    constant_C = _in_range("constant_C", _constant_C, params.c_h / params.nu, arm, e)
    area_factor = _in_range("area_factor", pow, profile.amplitude, -e)
    return e, lhs, constant_C, area_factor


def _lhs(sigma_R: float, e: float) -> float:
    return sigma_R**-e / e


def _constant_C(ratio: float, arm: float, e: float) -> float:
    return ratio**arm * e


def _sigma_report(sigma_R: float, R: float, r: float, integral, e: float, lhs: float,
                  constant_C: float, area_factor: float) -> SigmaBoundReport:
    """The report at r from the function ``_comparison_integral`` returns
    and the constants ``_sigma_constants`` returns."""
    # An infinite integral times a tiny C would claim a contradiction that
    # no finite radius shows, so it is refused, not reported.
    comparison = _in_range("the comparison integral up to r={}", integral, r)
    rhs = constant_C * area_factor * comparison
    # Positional, in field order: eleven keywords took 0.79 us per report
    # against 0.29 us (CPython 3.11).
    return SigmaBoundReport(R, r, sigma_R, lhs, rhs, constant_C, comparison, area_factor * comparison,
                            area_factor, e, bool(rhs > lhs))


def sigma_lower_bound(
    sigma_R: float,
    params: ProblemParams,
    profile,
    R: float,
    r: float,
) -> SigmaBoundReport:
    """Both sides of the comparison sigma(R)^(-e)/e >= C int_R^r area^(-e).

    The exponentially weighted energy of a nonnegative supersolution (the
    e^(-u) multiplier) gives the identical comparison integral, so it
    needs no code path here. A sampled area's integral is exact per panel.
    sigma_R and R must be finite and > 0 (sigma_R > 0 is the nonconstant
    hypothesis), and R <= r. An lhs, a constant C, an area factor
    amplitude^-e or a comparison integral past the float range raises
    PreconditionViolation, the r-independent ones first: the constants
    and their refusals come from one helper, the report at r from
    another, which ``find_contradiction_radius`` shares.
    """
    constants = _sigma_constants(sigma_R, params, profile, R, r)
    return _sigma_report(sigma_R, R, r, _comparison_integral(profile, constants[0], R), *constants)


_LN2 = math.log(2.0)
# log(1 - 2^-26): a T this close below a convergent integral's limit has no
# crossing that the float integral can place to a doubling.
_NEAR_LIMIT = math.log1p(-(2.0**-26))


def _log1p_exp(u: float, negative: bool) -> float:
    """log1p(-e^u) if ``negative`` else log1p(e^u), without forming an e^u
    that would overflow, or taking the log of a rounded 1 - e^u."""
    if negative:
        return math.log(-math.expm1(u)) if u > -_LN2 else math.log1p(-math.exp(u))
    return u + math.log1p(math.exp(-u)) if u > 0 else math.log1p(math.exp(u))


def _crossing_doubling(profile, e: float, R: float, lhs: float, scale: float) -> Optional[int]:
    """k* = ceil(log2(r*/R)), r* the radius where the closed-form
    comparison integral from R reaches T = lhs / scale; None for a sampled
    area, where the integral stops short of T, or where a float fault stops
    the guess. Both closed forms read int_{s0}^{s} e^(a s') ds' = T, with
    s = log t, a = 1 - beta e for a power area and s = t, a = -kappa e for
    an exponential one, so s* - s0 = log1p(a T e^(-a s0)) / a, T at a = 0.
    The argument is taken in logs: R^(x - 1) or e^(kappa e R) alone can
    leave the float range where the crossing does not."""
    if isinstance(profile, SampledArea):
        return None
    power = isinstance(profile, (EuclideanArea, PowerArea))
    try:
        T = lhs / scale
        a, s0 = (1.0 - profile.beta * e, math.log(R)) if power else (-profile.kappa * e, R)
        if a == 0.0 or T == 0.0:  # s* - s0 = T, or r* = R where lhs underflows or the scale overflows
            step = T
        else:
            u = math.log(abs(a)) + math.log(T) - a * s0  # log |a T e^(-a s0)|
            if a < 0 and not u <= _NEAR_LIMIT:  # the limit T e^-u, near T or short of it
                return None
            step = _log1p_exp(u, a < 0) / a
        return max(1, math.ceil((step if power else math.log1p(step / R)) / _LN2))
    except (ArithmeticError, ValueError):  # a zero scale, an infinite or NaN guess
        return None


def find_contradiction_radius(
    sigma_R: float,
    params: ProblemParams,
    profile,
    R: float,
) -> Optional[SigmaBoundReport]:
    """The report at the first doubling r = 2^k R, k >= 1, where rhs
    overtakes lhs; None where no doubling does before 2^k R leaves the
    float range, the comparison integral does (PreconditionViolation), or
    r passes a sampled area's last node (DomainExceeded).

    The result is that of doubling r from 2R, found by bisection over k in
    [0, last + 1], last the last k with 2^k R finite. The walk stops at
    2^k R where the comparison integral I is refused or rhs =
    C area_factor I, built as the sigma bound builds it, exceeds lhs.
    Each of the two holds from some k on, so the first k where either holds
    is the walk's, and any probe inside the bracket keeps it: r/R = 2^k is
    exact; a closed-form I is built from log, expm1 and exp, all monotone
    in r, and stays refused once it overflows; the fixed positive factor
    C area_factor keeps rhs monotone in floating point. A sampled area's I
    sums nonnegative panel terms left to right; doubling r keeps the
    panels below the last node under r, lengthens the one r cuts and
    appends the rest, and every r past the last node is refused. That sum
    grows with r only up to the rounding of the lengthened panel, whose
    term can come out an ulp short where the integrand falls steeply
    across it: with lhs inside that ulp of rhs, the bisection can report
    another doubling than the walk.

    The probes: k* = ``_crossing_doubling``, where the closed form puts
    the crossing, then k* - 1 once k* (or the bracket's end) has stopped,
    each only strictly inside the bracket; then midpoints. A sampled area
    has no k* and is bisected from the start. The sigma bound's constants
    are validated once, as at r = R, and I is bound to (profile, e, R)
    once. I is evaluated at r = R, which refuses an R outside a sampled
    area's grid and an I past the float range there, then at each probe,
    and at the k found (the last one where none stops) for the report,
    built as the sigma bound builds it: at most 4 evaluations where the
    guess is right, at most 2 + ceil(log2(last + 1)) + 2 where it is not
    (where the float integral strays from the closed form), and
    2 + ceil(log2(last + 1)) without one (12 at R = 1).

    A None return on a divergent-area profile means the crossing lies past
    the float range; on a convergent one it is the expected outcome.
    """
    e, lhs, constant_C, area_factor = constants = _sigma_constants(sigma_R, params, profile, R, R)
    integral = _comparison_integral(profile, e, R)
    _in_range("the comparison integral up to r={}", integral, R)  # 0, so k = 0 goes on
    scale = constant_C * area_factor
    guess = _crossing_doubling(profile, e, R, lhs, scale)
    guesses = () if guess is None else (guess, guess - 1)
    last = 1024 - math.frexp(R)[1]  # the last k with 2^k R finite
    lo, hi = 0, last + 1  # the walk goes on at 2^lo R and has stopped by 2^hi R
    while hi - lo > 1:
        k = (lo + hi) // 2
        for g in guesses:  # a guess is probed while inside the bracket, which it then leaves
            if lo < g < hi:
                k = g
                break
        try:  # rhs as built; "not <=" stops an infinite or NaN I too
            stops = not scale * integral(math.ldexp(R, k)) <= lhs
        except (OverflowError, DomainExceeded):
            stops = True
        lo, hi = (lo, k) if stops else (k, hi)
    try:
        report = _sigma_report(sigma_R, R, math.ldexp(R, min(hi, last)), integral, *constants)
    except (PreconditionViolation, DomainExceeded):
        return None
    return report if report.contradiction else None


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

# The scan grids of the two witness families.
_BUMP_GRID = np.linspace(0.05, 10.0, 300)
_ENTIRE_GRID = np.linspace(0.1, 5.0, 200)


def liouville_classify_euclidean(
    dim: int,
    p: float,
    gamma: float,
    c_h: float = 1.0,
) -> LiouvilleVerdict:
    """Closed-form classification on R^dim with explicit witnesses.

    LIOUVILLE iff gamma <= gamma* = dim(p-1)/(dim-1) (threshold included);
    otherwise a nonconstant witness is attached: the entire power profile
    for gamma > p and a scaled bump for gamma < p, the mechanism
    COUNTEREXAMPLE_WITNESS. At gamma = p, whose known construction is
    logarithmic, the verdict rests on gamma > gamma* alone: the mechanism
    is CLOSED_FORM_THRESHOLD, with a witness-unavailable note.
    """
    _check_dim(dim)
    gamma_star = liouville_threshold(dim, p)
    _check_exponents(p, gamma)
    _check_positive("c_h", c_h)
    verdict = functools.partial(
        LiouvilleVerdict, dim=dim, p=p, gamma=gamma, gamma_star=gamma_star, c_h=c_h
    )
    if gamma <= gamma_star:
        return verdict(Verdict.LIOUVILLE, Mechanism.CLOSED_FORM_THRESHOLD)
    if gamma == p:
        return verdict(
            Verdict.NO_LIOUVILLE,
            Mechanism.CLOSED_FORM_THRESHOLD,
            witness_note="WITNESS_UNAVAILABLE",
        )
    if gamma > p:
        witness: PowerProfile | BumpProfile = nonconstant_entire_profile(dim, p, gamma, c_h)
    else:
        c = bump_profile_scale(dim, p, gamma, c_h)
        witness = BumpProfile(c=c, delta=-_gradient_arm(p, gamma))
    return verdict(Verdict.NO_LIOUVILLE, Mechanism.COUNTEREXAMPLE_WITNESS, witness=witness)


def liouville_classify_manifold(
    profile,
    p: float,
    gamma: float,
    t_start: float = 1.0,
    mode: str = "analytic",
) -> LiouvilleVerdict:
    """Verdict from area growth alone.

    Divergent comparison integral forces constancy. A convergent one
    proves nothing in general and stays INCONCLUSIVE, except on the
    Euclidean profile where the explicit witnesses settle the question.
    """
    test = area_condition_test(profile, p, gamma, t_start=t_start, mode=mode)
    dim = profile.dim if isinstance(profile, EuclideanArea) else None
    has_threshold = dim is not None and _has_threshold(dim, p)
    gamma_star = liouville_threshold(dim, p) if has_threshold else None
    verdict = functools.partial(LiouvilleVerdict, dim=dim, p=p, gamma=gamma, gamma_star=gamma_star)
    if test is IntegralVerdict.DIVERGENT:
        return verdict(Verdict.LIOUVILLE, Mechanism.AREA_INTEGRAL_DIVERGES)
    if test is IntegralVerdict.CONVERGENT:
        if has_threshold:
            return liouville_classify_euclidean(dim, p, gamma)
        return verdict(Verdict.INCONCLUSIVE, Mechanism.AREA_INTEGRAL_CONVERGES)
    return verdict(Verdict.INCONCLUSIVE, None)


def verify_euclidean_witness(verdict: LiouvilleVerdict) -> tuple:
    """Residual-check a NO_LIOUVILLE witness. Returns (report, ok).

    Both families go through ``_certify_witness``, one unit-scale scan of
    the family's grid (radii 0.05 to 10 for a bump, 0.1 to 5 for an entire
    power) that cross-checks the closed-form certificate the witness was
    built by. It reads neither the witness's scale c nor c_h, which only
    multiply the unit profile and its gradient term.
    """
    if verdict.witness is None:
        raise PreconditionViolation("verdict carries no witness profile")
    bounded = isinstance(verdict.witness, BumpProfile)
    grid = _BUMP_GRID if bounded else _ENTIRE_GRID
    return _certify_witness(verdict.dim, verdict.p, verdict.gamma, bounded, grid)
