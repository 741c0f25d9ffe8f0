"""Exponent calculus for inequalities of the form

    -div(A(x, u, Du)) >= c_H |Du|^gamma - lam*u - f(x),

with |A(x, s, xi)| <= nu |xi|^(p-1).

The three closed-form quantities computed here are

* the interior Holder exponent
      alpha = min(1 - dim/(q*gamma), (gamma - p)/(gamma - (p - 1))),
  valid for gamma > p and q > dim/gamma,
* the energy-growth exponent
      s = max(dim/q, gamma/(gamma - (p - 1))),
  valid for gamma > p - 1, which satisfies alpha = 1 - s/gamma, and
* the critical exponent
      gamma_star = dim*(p - 1)/(dim - 1),
  valid for 1 < p < dim, separating the constancy range from the range
  where explicit nonconstant solutions exist.

The formula functions (``holder_exponent``, ``caccioppoli_exponent``,
``liouville_threshold`` and the private arms) are pure arithmetic in the
caller's numeric type: float inputs give float results, fractions.Fraction
inputs give exact rational results. The integrability index q may be
INFINITY (math.inf), in which case dim/q is exactly 0 and no rounding
enters the branch selection.

Each formula is written once, here, and read by every other module: every
decision whether gamma lies above gamma_star compares gamma with the one
float ``_critical_gamma`` returns. The formulas, the admissibility tests
and the tie rule of the min and max are plain arithmetic and comparisons,
so they also apply elementwise to arrays. ``exponent_report`` and
``classify_regime`` have one body, over a ``ParamGrid`` of many points,
and answer with arrays of the same fields; a ``ProblemParams`` goes in as
a one-point grid and comes back as Python floats, None and enum members.
Both bundles are float64 whatever the input type.

The dimension field doubles as a homogeneous dimension: substituting the
homogeneous dimension of a stratified group for ``dim`` evaluates the
subelliptic versions of the same formulas with no other change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import PreconditionViolation

__all__ = [
    "INFINITY",
    "ProblemParams",
    "ParamGrid",
    "Branch",
    "GrowthRegime",
    "LiouvilleRegime",
    "Regime",
    "ExponentReport",
    "holder_exponent",
    "caccioppoli_exponent",
    "unit_ball_volume",
    "liouville_threshold",
    "exponent_report",
    "classify_regime",
]

INFINITY = math.inf


# Admissibility of each field, elementwise on arrays: ProblemParams raises
# where one fails, ParamGrid marks the point invalid. nan fails every test.


def _dim_ok(dim):
    """A dimension is an integer from 2 to 2**53, so an exact float."""
    return (2 <= dim) & (dim <= 2**53) & (dim % 1 == 0)


def _p_ok(p):
    return (1 < p) & (p < INFINITY)


def _gamma_ok(p, gamma):
    return (p - 1 < gamma) & (gamma < INFINITY)


def _q_ok(q):
    return q >= 1


def _check_dim(dim) -> None:
    if not _dim_ok(dim):
        raise PreconditionViolation(f"dim must be an integer from 2 to 2**53, got {dim}")


def _check_positive(name: str, value, zero_ok: bool = False) -> None:
    """The one refusal of a number that must be finite and > 0, or finite
    and >= 0 with ``zero_ok``: PreconditionViolation "<name> must be finite
    and positive, got <value>" (">= 0" for "positive" with ``zero_ok``).
    NaN, +-inf and an int past the float range are refused."""
    try:
        ok = math.isfinite(value) and (value >= 0 if zero_ok else value > 0)
    except OverflowError:  # an int past the float range
        ok = False
    if not ok:
        rule = ">= 0" if zero_ok else "positive"
        raise PreconditionViolation(f"{name} must be finite and {rule}, got {value}")


def _check_finite(name: str, value) -> None:
    """The one refusal of a number that must be finite: PreconditionViolation
    "<name> must be finite, got <value>". NaN, +-inf and an int past the
    float range are refused."""
    try:
        ok = math.isfinite(value)
    except OverflowError:  # an int past the float range
        ok = False
    if not ok:
        raise PreconditionViolation(f"{name} must be finite, got {value}")


def _check_count(name: str, value, least: int) -> None:
    """The one refusal of a count: PreconditionViolation "<name> must be an
    integer >= <least>, got <value>" for anything but an int or a numpy
    integer of at least ``least``. NaN and every float are refused."""
    if not (isinstance(value, (int, np.integer)) and value >= least):
        raise PreconditionViolation(f"{name} must be an integer >= {least}, got {value}")


def _in_range(name: str, compute, *args) -> float:
    """compute(*args), or PreconditionViolation naming ``name.format(*args)``
    where it leaves the float range: inf, NaN or an OverflowError (from
    ``**``, math.exp). The name is formatted only for the refusal, so a
    value in range costs no message and no closure."""
    try:
        value = compute(*args)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise PreconditionViolation(f"{name.format(*args)} leaves the float range")
    return value


def _check_exponents(p, gamma) -> None:
    """Finite growth orders with p > 1 and gamma > p - 1."""
    if not _p_ok(p):
        raise PreconditionViolation(f"p must be finite and exceed 1, got {p}")
    if not _gamma_ok(p, gamma):
        raise PreconditionViolation(
            f"gamma must be finite and exceed p - 1 = {p - 1}, got {gamma}"
        )


@dataclass(frozen=True)
class ProblemParams:
    """Coefficient tuple for one problem instance.

    dim    space dimension (or homogeneous dimension), integer from 2 to 2**53
    p      growth order of the flux, finite, p > 1
    gamma  gradient exponent, finite, gamma > p - 1
    lam    zero-order coefficient, finite, lam >= 0
    c_h    gradient-term constant, finite, c_h > 0
    nu     flux bound constant, finite, nu > 0
    q      integrability index of the source, q >= 1 or INFINITY
    """

    dim: int
    p: float
    gamma: float
    lam: float = 0.0
    c_h: float = 1.0
    nu: float = 1.0
    q: float = INFINITY

    def __post_init__(self):
        _check_dim(self.dim)
        _check_exponents(self.p, self.gamma)
        _check_positive("lam", self.lam, zero_ok=True)
        _check_positive("c_h", self.c_h)
        _check_positive("nu", self.nu)
        if not _q_ok(self.q):
            raise PreconditionViolation(f"q must be >= 1 or INFINITY, got {self.q}")

    @property
    def dim_over_q(self):
        # Exact zero for q = INFINITY, so the branch selection below never
        # sees rounding noise from a huge-but-finite q.
        if self.q == INFINITY:
            return 0
        return self.dim / self.q


@dataclass(frozen=True, eq=False)
class ParamGrid:
    """Many (dim, p, gamma, q) points at once, as float64 arrays that
    broadcast together, one point per element; lam, c_h and nu, which no
    exponent reads, take the ProblemParams defaults.

    Where ProblemParams would raise, the point is kept and ``valid`` is
    False there; ``exponent_report`` and ``classify_regime`` then give it
    no values.
    """

    dim: np.ndarray
    p: np.ndarray
    gamma: np.ndarray
    q: np.ndarray = INFINITY

    def __post_init__(self):
        for name in ("dim", "p", "gamma", "q"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    @cached_property
    def valid(self) -> np.ndarray:
        """The points ``ProblemParams(dim, p, gamma, q=q)`` accepts."""
        with np.errstate(invalid="ignore"):  # inf % 1
            return (
                _dim_ok(self.dim) & _p_ok(self.p) & _gamma_ok(self.p, self.gamma) & _q_ok(self.q)
            )


class Branch(Enum):
    """Which arm of a min/max selected the reported exponent."""

    INTEGRABILITY = "integrability"
    GRADIENT = "gradient"
    BOTH = "both"


class GrowthRegime(Enum):
    SUBNATURAL = "subnatural"        # p - 1 < gamma <= p
    SUPERNATURAL = "supernatural"    # gamma > p


class LiouvilleRegime(Enum):
    SUBCRITICAL = "subcritical"      # gamma < gamma_star
    CRITICAL = "critical"            # gamma = gamma_star
    SUPERCRITICAL = "supercritical"  # gamma > gamma_star


@dataclass(frozen=True)
class Regime:
    growth: GrowthRegime
    liouville: LiouvilleRegime


@dataclass(frozen=True)
class ExponentReport:
    """Holder exponent, energy exponent and threshold for one parameter tuple.

    alpha is None when gamma <= p or q <= dim/gamma (no interior Holder
    estimate there) and gamma_star is None unless 1 < p < dim; s is defined
    whenever the parameter tuple itself is valid. The report of a ParamGrid
    holds arrays: NaN for None and for every number of an invalid point,
    and the Branch values as strings, '' where the number is NaN.
    """

    alpha: float | None
    s: float
    gamma_star: float | None
    alpha_branch: Branch | None
    s_branch: Branch


def _gradient_arm(p, gamma):
    """The power of the sharp and entire profiles; minus the bump's delta."""
    return (gamma - p) / (gamma - (p - 1))


def _energy_arm(p, gamma):
    """Also the power of c_H/nu in the Liouville comparison constant."""
    return gamma / (gamma - (p - 1))


def _critical_gamma(dim, p):
    """gamma_star with no guards (``liouville_threshold`` checks 1 < p < dim)."""
    return dim * (p - 1) / (dim - 1)


def _growth_gap(dim, p, gamma):
    """Base of the witness scales, positive exactly when gamma > gamma_star."""
    return (dim - 1) * (gamma - _critical_gamma(dim, p)) / (gamma - (p - 1))


def _has_holder(p, gamma, dim_over_q):
    """The range of the Holder exponent: gamma > p and q > dim/gamma."""
    return (gamma > p) & (dim_over_q < gamma)


def _has_threshold(dim, p):
    """The range of gamma_star: 1 < p < dim."""
    return (1 < p) & (p < dim)


def _select_each(integrability_arm, gradient_arm, pick_min: bool):
    """The smaller (pick_min) or larger arm at each point, and the Branch
    values that gave it; the integrability arm wins a tie, as min and max do."""
    wins = integrability_arm <= gradient_arm if pick_min else gradient_arm <= integrability_arm
    branch = np.where(wins, Branch.INTEGRABILITY.value, Branch.GRADIENT.value)
    branch[integrability_arm == gradient_arm] = Branch.BOTH.value
    return np.where(wins, integrability_arm, gradient_arm), branch


def holder_exponent(params: ProblemParams):
    """Interior Holder exponent min(1 - dim/(q*gamma), (gamma-p)/(gamma-(p-1))).

    Requires gamma > p and q > dim/gamma; the result lies in (0, 1).
    """
    if not params.gamma > params.p:
        raise PreconditionViolation(
            f"holder exponent needs gamma > p, got gamma={params.gamma}, p={params.p}"
        )
    if not params.dim_over_q < params.gamma:
        raise PreconditionViolation(
            f"holder exponent needs q > dim/gamma, got q={params.q}"
        )
    return min(1 - params.dim_over_q / params.gamma, _gradient_arm(params.p, params.gamma))


def caccioppoli_exponent(params: ProblemParams):
    """Energy-growth exponent s = max(dim/q, gamma/(gamma - (p - 1)))."""
    return max(params.dim_over_q, _energy_arm(params.p, params.gamma))


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit ball, pi^(d/2) / Gamma(d/2 + 1), taken in logs
    where Gamma overflows (d >= 342); PreconditionViolation from d = 436 on,
    where the volume is below the normal floats (0 from d = 453)."""
    try:
        return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    except OverflowError:
        volume = math.exp(dim / 2.0 * math.log(math.pi) - math.lgamma(dim / 2.0 + 1.0))
    if volume < np.finfo(float).tiny:
        raise PreconditionViolation(f"the unit ball volume for dim={dim} is below the normal floats")
    return volume


def liouville_threshold(dim, p):
    """Critical gradient exponent gamma_star = dim*(p-1)/(dim-1) for 1 < p < dim."""
    if not 1 < p:
        raise PreconditionViolation(f"threshold needs p > 1, got p={p}")
    if not p < dim:
        raise PreconditionViolation(
            f"threshold needs p < dim, got p={p}, dim={dim}"
        )
    return _critical_gamma(dim, p)


def _as_grid(params: ProblemParams | ParamGrid) -> ParamGrid:
    """A ParamGrid as it is; a ProblemParams as a one-point ParamGrid, built
    anew on each call, since no caller reads one point's grid twice."""
    return (params if isinstance(params, ParamGrid)
            else ParamGrid(params.dim, params.p, params.gamma, q=params.q))


def _number(value) -> float | None:
    """A one-point array as a Python float, None where it is NaN."""
    value = float(value)
    return None if math.isnan(value) else value


def exponent_report(params: ProblemParams | ParamGrid) -> ExponentReport:
    """Bundle the three exponents with branch tags for one parameter tuple,
    or for every point of a ParamGrid, in float64 either way."""
    grid = _as_grid(params)
    p, gamma = grid.p, grid.gamma
    # An invalid point may divide by zero or overflow; its numbers are dropped.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dim_over_q = grid.dim / grid.q  # exactly 0 at q = INFINITY
        alpha, alpha_branch = _select_each(
            1 - dim_over_q / gamma, _gradient_arm(p, gamma), pick_min=True
        )
        s, s_branch = _select_each(dim_over_q, _energy_arm(p, gamma), pick_min=False)
        gamma_star = _critical_gamma(grid.dim, p)
    has_alpha = grid.valid & _has_holder(p, gamma, dim_over_q)
    for branch, defined in ((alpha_branch, has_alpha), (s_branch, grid.valid)):
        branch[~defined] = ""
    report = ExponentReport(
        alpha=np.where(has_alpha, alpha, np.nan),
        s=np.where(grid.valid, s, np.nan),
        gamma_star=np.where(grid.valid & _has_threshold(grid.dim, p), gamma_star, np.nan),
        alpha_branch=alpha_branch,
        s_branch=s_branch,
    )
    if grid is params:
        return report
    return ExponentReport(
        alpha=_number(report.alpha),
        s=float(report.s),
        gamma_star=_number(report.gamma_star),
        alpha_branch=Branch(alpha_branch.item()) if has_alpha else None,
        s_branch=Branch(s_branch.item()),
    )


def classify_regime(params: ProblemParams | ParamGrid) -> Regime:
    """Place (p, gamma) on both regime axes.

    The growth axis splits at gamma = p; the Liouville axis splits at
    gamma_star and requires 1 < p < dim, so a ProblemParams outside that
    range raises. For a ParamGrid both fields are arrays of the regimes'
    values, '' at the points where a ProblemParams would raise: the invalid
    points and those with no gamma_star.
    """
    if not isinstance(params, ParamGrid):
        liouville_threshold(params.dim, params.p)  # raises where there is no gamma_star
    grid = _as_grid(params)
    p, gamma = grid.p, grid.gamma
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gamma_star = _critical_gamma(grid.dim, p)
    growth = np.where(gamma > p, GrowthRegime.SUPERNATURAL.value, GrowthRegime.SUBNATURAL.value)
    liouville = np.where(
        gamma < gamma_star,
        LiouvilleRegime.SUBCRITICAL.value,
        np.where(
            gamma == gamma_star, LiouvilleRegime.CRITICAL.value, LiouvilleRegime.SUPERCRITICAL.value
        ),
    )
    undefined = ~(grid.valid & _has_threshold(grid.dim, p))
    growth[undefined] = ""
    liouville[undefined] = ""
    if grid is params:
        return Regime(growth=growth, liouville=liouville)
    return Regime(growth=GrowthRegime(growth.item()), liouville=LiouvilleRegime(liouville.item()))
