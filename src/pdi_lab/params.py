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

All operations are pure arithmetic in the caller's numeric type: float
inputs give float results, fractions.Fraction inputs give exact rational
results. The integrability index q may be INFINITY (math.inf), in which
case dim/q is exactly 0 and no rounding enters the branch selection.

The dimension field doubles as a homogeneous dimension: substituting the
homogeneous dimension of a stratified group for ``dim`` evaluates the
subelliptic versions of the same formulas with no other change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import PreconditionViolation

__all__ = [
    "INFINITY",
    "ProblemParams",
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


def _check_dim(dim) -> None:
    """A dimension is a finite integer >= 2 (nan and inf fail the chain)."""
    if not (2 <= dim < INFINITY and int(dim) == dim):
        raise PreconditionViolation(f"dim must be an integer >= 2, got {dim}")


def _check_exponents(p, gamma) -> None:
    """Finite growth orders with p > 1 and gamma > p - 1."""
    if not 1 < p < INFINITY:
        raise PreconditionViolation(f"p must be finite and exceed 1, got {p}")
    if not p - 1 < gamma < INFINITY:
        raise PreconditionViolation(
            f"gamma must be finite and exceed p - 1 = {p - 1}, got {gamma}"
        )


@dataclass(frozen=True)
class ProblemParams:
    """Coefficient tuple for one problem instance.

    dim    space dimension (or homogeneous dimension), integer >= 2
    p      growth order of the flux, finite, p > 1
    gamma  gradient exponent, finite, gamma > p - 1
    lam    zero-order coefficient, lam >= 0
    c_h    gradient-term constant, c_h > 0
    nu     flux bound constant, nu > 0
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
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise PreconditionViolation(f"lam must be finite and >= 0, got {self.lam}")
        if not (math.isfinite(self.c_h) and self.c_h > 0):
            raise PreconditionViolation(f"c_h must be finite and positive, got {self.c_h}")
        if not (math.isfinite(self.nu) and self.nu > 0):
            raise PreconditionViolation(f"nu must be finite and positive, got {self.nu}")
        if not self.q >= 1:
            raise PreconditionViolation(f"q must be >= 1 or INFINITY, got {self.q}")

    @property
    def dim_over_q(self):
        # Exact zero for q = INFINITY, so the branch selection below never
        # sees rounding noise from a huge-but-finite q.
        if self.q == INFINITY:
            return 0
        return self.dim / self.q


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

    alpha is None when gamma <= p (no interior Holder estimate in that range);
    s and gamma_star are defined whenever the parameter tuple itself is valid.
    """

    alpha: float | None
    s: float
    gamma_star: float | None
    alpha_branch: Branch | None
    s_branch: Branch


def _branch(integrability_arm, gradient_arm, pick_min: bool) -> Branch:
    if integrability_arm == gradient_arm:
        return Branch.BOTH
    if pick_min:
        winner_is_integrability = integrability_arm < gradient_arm
    else:
        winner_is_integrability = integrability_arm > gradient_arm
    return Branch.INTEGRABILITY if winner_is_integrability else Branch.GRADIENT


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
    integrability_arm = 1 - params.dim_over_q / params.gamma
    gradient_arm = (params.gamma - params.p) / (params.gamma - (params.p - 1))
    return min(integrability_arm, gradient_arm)


def caccioppoli_exponent(params: ProblemParams):
    """Energy-growth exponent s = max(dim/q, gamma/(gamma - (p - 1)))."""
    return max(
        params.dim_over_q,
        params.gamma / (params.gamma - (params.p - 1)),
    )


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit ball, pi^(d/2) / Gamma(d/2 + 1)."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def liouville_threshold(dim, p):
    """Critical gradient exponent gamma_star = dim*(p-1)/(dim-1) for 1 < p < dim."""
    if not 1 < p:
        raise PreconditionViolation(f"threshold needs p > 1, got p={p}")
    if not p < dim:
        raise PreconditionViolation(
            f"threshold needs p < dim, got p={p}, dim={dim}"
        )
    return dim * (p - 1) / (dim - 1)


def exponent_report(params: ProblemParams) -> ExponentReport:
    """Bundle the three exponents with branch tags for one parameter tuple."""
    s = caccioppoli_exponent(params)
    s_branch = _branch(
        params.dim_over_q,
        params.gamma / (params.gamma - (params.p - 1)),
        pick_min=False,
    )
    alpha = None
    alpha_branch = None
    if params.gamma > params.p and params.dim_over_q < params.gamma:
        alpha = holder_exponent(params)
        alpha_branch = _branch(
            1 - params.dim_over_q / params.gamma,
            (params.gamma - params.p) / (params.gamma - (params.p - 1)),
            pick_min=True,
        )
    gamma_star = None
    if 1 < params.p < params.dim:
        gamma_star = liouville_threshold(params.dim, params.p)
    return ExponentReport(
        alpha=alpha,
        s=s,
        gamma_star=gamma_star,
        alpha_branch=alpha_branch,
        s_branch=s_branch,
    )


def classify_regime(params: ProblemParams) -> Regime:
    """Place (p, gamma) on both regime axes.

    The growth axis splits at gamma = p; the Liouville axis splits at
    gamma_star and requires 1 < p < dim.
    """
    growth = (
        GrowthRegime.SUPERNATURAL
        if params.gamma > params.p
        else GrowthRegime.SUBNATURAL
    )
    gamma_star = liouville_threshold(params.dim, params.p)
    if params.gamma < gamma_star:
        liouville = LiouvilleRegime.SUBCRITICAL
    elif params.gamma == gamma_star:
        liouville = LiouvilleRegime.CRITICAL
    else:
        liouville = LiouvilleRegime.SUPERCRITICAL
    return Regime(growth=growth, liouville=liouville)
