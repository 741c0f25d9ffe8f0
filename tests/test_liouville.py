"""Area integral test, sigma comparison chain, and the constancy verdicts."""

import decimal
import itertools
import math
import pathlib
import re
import runpy
import warnings
from decimal import Decimal

import numpy as np
import pytest

from pdi_lab import liouville, params, radial
from pdi_lab.cli import _sweep_rows
from pdi_lab.errors import DomainExceeded, PreconditionViolation
from pdi_lab.liouville import (
    EuclideanArea,
    ExponentialArea,
    IntegralVerdict,
    Mechanism,
    PowerArea,
    SampledArea,
    Verdict,
    area_condition_test,
    find_contradiction_radius,
    liouville_classify_euclidean,
    liouville_classify_manifold,
    power_area_diverges,
    sigma_lower_bound,
    verify_euclidean_witness,
)
from pdi_lab.params import LiouvilleRegime, ProblemParams, classify_regime, liouville_threshold
from pdi_lab.radial import BumpProfile, PowerProfile

_AREA = {True: IntegralVerdict.DIVERGENT, False: IntegralVerdict.CONVERGENT}


# ---------------------------------------------------------------------------
# Area integral test
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "gamma, want",
    [
        (1.4, IntegralVerdict.DIVERGENT),
        (1.5, IntegralVerdict.DIVERGENT),  # borderline log case counts
        (1.6, IntegralVerdict.CONVERGENT),
    ],
)
def test_area_test_euclidean_threshold(gamma, want):
    # dim 3, p 2: beta (gamma - 1) <= 1 with beta = 2 flips at gamma = 1.5
    assert area_condition_test(EuclideanArea(3), 2.0, gamma) is want


def test_area_test_exponential_growth():
    assert (
        area_condition_test(ExponentialArea(1.0, 1.0), 2.0, 1.2)
        is IntegralVerdict.CONVERGENT
    )
    assert (
        area_condition_test(ExponentialArea(1.0, -0.5), 2.0, 1.2)
        is IntegralVerdict.DIVERGENT
    )
    assert (
        area_condition_test(ExponentialArea(2.0, 0.0), 2.0, 1.2)
        is IntegralVerdict.DIVERGENT
    )


# (profile, p, gamma, t_start): increments past the float range from the
# start or after a finite one, nan, zero and growing ones, doublings up to
# the end of the float range, and the two windows where a slope heuristic
# read a convergent integral as divergent. Numeric mode returns the
# analytic verdict on every one, silently.
_CLOSED_FORM_EDGES = [
    (ExponentialArea(1.0, 1.0), 2.0, 1.4, 1.0),  # exp overflows past t ~ 709
    (EuclideanArea(5), 3.0, 2.55, 1.0),  # beta e = 1.1 on t^4 past overflow
    (PowerArea(2.0, 4.0), 3.0, 2.55, 1.0),
    (PowerArea(1.0, 2.0), 2.0, 1.4, 1e300),  # 27 doublings to the float max
    (PowerArea(1.0, 1.0), 2.0, 2.00175, 1.0),  # beta e = 1.00175
    (PowerArea(1e-300, -3.0), 1.01, 5.0, 1.0),  # integrand t^1497 past the float range
    (ExponentialArea(1.0, -1e300), 1.01, 5.0, 1.0),
    (ExponentialArea(1.0, -0.5), 2.0, 2.5, 1.0),  # increments grow to inf
    (ExponentialArea(1.0, -0.01), 2.0, 1.4, 1.0),
    (ExponentialArea(1.0, 0.0), 1.5, 1.2, 1.0),
    (PowerArea(1.0, -1.0), 2.0, 1.4, 1.0),
    (ExponentialArea(1.0, -1e308), 2.0, 3.5, 1.0),  # kappa e = -inf: nan increments
    (PowerArea(1.0, -3.0), 1.01, 5.0, 0.01),  # t^1497 underflows to zero first
    (EuclideanArea(8), 2.0, 5.0, 1e-20),  # t^-28 overflows on the first doublings
    (EuclideanArea(8), 2.0, 5.0, 5e-324),
    (EuclideanArea(5), 2.0, 5.0, 1e100),  # every increment underflows to zero
    (ExponentialArea(1.0, 100.0), 2.0, 3.0, 5.0),
    (PowerArea(1.0, 3.0), 2.0, 5.0, 1e100),
    (ExponentialArea(1.0, 1e-4), 2.0, 2.0, 1.0),  # kappa e t_start = 1e-4
    (ExponentialArea(1.0, 3e-4), 2.0, 2.0, 1.0),
    (PowerArea(1.0, 1.0), 2.0, 2.0015, 1.0),  # beta e = 1.0015
    (PowerArea(1.0, 1.0), 2.0, 2.0021, 1.0),
    (PowerArea(1.0, 1.001), 2.0, 2.0, 1.0),  # beta e = 1.001
    (PowerArea(1.0, 2.0), 2.0, 1.5001, 1.0),  # just above gamma* = 1.5
]


@pytest.mark.parametrize("profile, p, gamma, t_start", _CLOSED_FORM_EDGES, ids=repr)
def test_numeric_area_test_reads_a_closed_form_area_analytically(profile, p, gamma, t_start):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = area_condition_test(profile, p, gamma, t_start=t_start, mode="numeric")
    assert verdict is area_condition_test(profile, p, gamma, t_start=t_start)


def test_numeric_area_test_refuses_an_infinite_start():
    with pytest.raises(PreconditionViolation):
        area_condition_test(PowerArea(1.0, 2.0), 2.0, 1.4, t_start=math.inf, mode="numeric")


def _count_rule_calls(monkeypatch):
    calls = []
    rule = liouville.quad

    def counting(*args):
        calls.append(1)
        return rule(*args)

    monkeypatch.setattr(liouville, "quad", counting)
    return calls


@pytest.mark.parametrize(
    "profile",
    [
        EuclideanArea(3),
        ExponentialArea(1.0, 0.5),
        SampledArea(np.linspace(1.0, 64.0, 200), np.linspace(1.0, 64.0, 200) ** 2),
    ],
    ids=["euclidean", "exp", "sampled"],
)
def test_numeric_area_test_makes_no_rule_call(monkeypatch, profile):
    # Every increment is the closed-form comparison integral.
    calls = _count_rule_calls(monkeypatch)
    area_condition_test(profile, 2.0, 1.6, mode="numeric")
    assert calls == []


def test_area_test_analytic_refuses_sampled_data():
    area = SampledArea(np.linspace(1.0, 8.0, 50), np.linspace(1.0, 8.0, 50) ** 2)
    assert area_condition_test(area, 2.0, 2.0) is IntegralVerdict.INCONCLUSIVE


@pytest.mark.parametrize(
    "beta, gamma, want",
    [
        (1.2, 2.2, IntegralVerdict.CONVERGENT),  # beta * e = 1.44
        (1.0, 2.0, IntegralVerdict.DIVERGENT),  # beta * e = 1, log case
        (1.005, 2.005, IntegralVerdict.CONVERGENT),  # beta * e = 1.010
    ],
)
def test_area_test_numeric_probe(beta, gamma, want):
    got = area_condition_test(PowerArea(1.0, beta), 2.0, gamma, mode="numeric")
    assert got is want


@pytest.mark.parametrize("gamma", [1.4, 1.6])
def test_area_test_numeric_agrees_with_analytic(gamma):
    area = EuclideanArea(3)
    assert area_condition_test(area, 2.0, gamma, mode="numeric") is (
        area_condition_test(area, 2.0, gamma)
    )


_GRID_AREAS = (
    [PowerArea(1.0, beta) for beta in (0.5, 1.0, 2.0, 3.0, 4.0, 6.0)]
    + [EuclideanArea(dim) for dim in (2, 3, 4, 5, 8)]
    + [ExponentialArea(1.0, kappa) for kappa in (-1.0, -0.1, 0.0, 0.05, 0.1, 0.5, 1.0, 2.0)]
)


def test_numeric_area_test_matches_analytic_on_a_grid():
    # 19 areas x 6 p x 8 e = 912 points, with e = gamma/(p-1) - 1 = g.
    mismatches = []
    for area, p, g in itertools.product(
        _GRID_AREAS, (1.2, 1.5, 2.0, 2.5, 3.0, 4.0), (0.1, 0.3, 0.6, 0.9, 1.1, 1.5, 2.5, 4.0)
    ):
        gamma = (p - 1) * (1 + g)
        got = area_condition_test(area, p, gamma, mode="numeric")
        if got is not area_condition_test(area, p, gamma):
            mismatches.append((area, p, g, got))
    assert mismatches == []


@pytest.mark.parametrize(
    "grid, shape, closed_form, borderline",
    [
        (np.geomspace(1.0, 1e6, 40), lambda t: t**2, PowerArea(1.0, 2.0), {0.5}),
        (np.linspace(1.0, 1e4, 2000), lambda t: t**2, PowerArea(1.0, 2.0), {0.5}),
        (np.geomspace(1.0, 1e6, 60), lambda t: t**2.6, PowerArea(1.0, 2.6), set()),
        (np.linspace(1.0, 200.0, 200), lambda t: np.exp(0.5 * t), ExponentialArea(1.0, 0.5), set()),
    ],
    ids=["t2-geom40", "t2-lin2000", "t2.6-geom60", "exp0.5-lin200"],
)
def test_numeric_sampled_area_reads_its_closed_form_verdict(grid, shape, closed_form, borderline):
    # The walk ends at the first doubling past the last node. At the
    # borderline g (beta e = 1 exactly) the slopes sit at 0, inside the band.
    area = SampledArea(grid, shape(grid))
    for p, g in itertools.product((1.5, 2.0, 3.0), (0.2, 0.5, 0.9, 1.2, 2.0, 4.0)):
        gamma = (p - 1) * (1 + g)
        got = area_condition_test(area, p, gamma, t_start=grid[0], mode="numeric")
        want = IntegralVerdict.INCONCLUSIVE if g in borderline else area_condition_test(closed_form, p, gamma)
        assert got is want, (p, g)


@pytest.mark.parametrize("beta, want", [
    (0.98, IntegralVerdict.DIVERGENT),
    (1.0, IntegralVerdict.INCONCLUSIVE),
    (1.001, IntegralVerdict.INCONCLUSIVE),
    (1.003, IntegralVerdict.INCONCLUSIVE),
    (1.01, IntegralVerdict.CONVERGENT),
    (1.02, IntegralVerdict.CONVERGENT),
])
def test_numeric_sampled_area_near_the_borderline_reads_inconclusive(beta, want):
    # t^beta on [1, 1e6] at e = 1: the slopes a_k sit near 1 - beta, and a
    # last one within 1e-2 of 0 decides nothing. t^1.001 converges, with
    # about 98.6% of its integral past the last node.
    grid = np.geomspace(1.0, 1e6, 60)
    assert area_condition_test(SampledArea(grid, grid**beta), 2.0, 2.0, mode="numeric") is want


def test_numeric_area_test_sampled_start_outside_the_grid():
    # A start below the first node is refused; one past the last node has
    # no doubling to read.
    grid = np.geomspace(1.0, 1e6, 40)
    area = SampledArea(grid, grid**2)
    with pytest.raises(DomainExceeded):
        area_condition_test(area, 2.0, 1.4, t_start=0.5, mode="numeric")
    verdict = area_condition_test(area, 2.0, 1.4, t_start=2e6, mode="numeric")
    assert verdict is IntegralVerdict.INCONCLUSIVE


_GRID_1E6 = np.geomspace(1.0, 1e6, 40)


@pytest.mark.parametrize("grid, values, p, gamma", [
    # e = 499 puts every increment of a constant area of 1e-300 past the
    # float range, up to the last node: no increment is finite.
    (_GRID_1E6, np.full(40, 1e-300), 1.01, 5.0),
    # e = 4: the increments underflow to zero until the area falls from
    # 1e300 to 1 near t = 1e3, and grow from there; on sampled data three
    # zero increments settle nothing.
    (_GRID_1E6, np.where(_GRID_1E6 < 1e3, 1e300, 1.0), 2.0, 5.0),
    # e = 499: the first increment, over [1, 2] where the area is 1, is
    # finite; the second, over [2, 4], reaches the area 1e-300 and passes
    # the float range, which settles divergence. Past it an area of t^2
    # would read convergent, so there the verdict rests on that rule alone.
    ([1.0, 2.5, 3.0, 1e6], [1.0, 1.0, 1e-300, 1e-300], 1.01, 5.0),
    ([1.0, 2.5, 3.0, *_GRID_1E6[5:]], [1.0, 1.0, 1e-300, *_GRID_1E6[5:] ** 2], 1.01, 5.0),
], ids=["no-finite-increment", "zero-then-growing", "finite-then-overflowing",
        "finite-then-overflowing-then-t2"])
def test_numeric_area_test_reads_a_sampled_area_divergent(grid, values, p, gamma):
    area = SampledArea(grid, values)
    assert area_condition_test(area, p, gamma, mode="numeric") is IntegralVerdict.DIVERGENT


@pytest.mark.parametrize("tail, want", [
    (np.ones_like, IntegralVerdict.DIVERGENT),
    (np.square, IntegralVerdict.CONVERGENT),
], ids=["then-one", "then-t2"])
def test_numeric_sampled_area_reads_on_past_an_overflowing_first_increment(tail, want):
    # e = 499: an area of 1e-300 at the first node puts the first increment
    # past the float range. The walk starts over at the next doubling and
    # reads the finite tail, an area of 1 or of t^2.
    values = np.concatenate([[1e-300], tail(_GRID_1E6[1:])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = area_condition_test(SampledArea(_GRID_1E6, values), 1.01, 5.0, mode="numeric")
    assert verdict is want


def test_area_test_guards():
    with pytest.raises(PreconditionViolation):
        area_condition_test(EuclideanArea(3), 2.0, 0.9)  # gamma <= p - 1
    with pytest.raises(PreconditionViolation):
        area_condition_test(EuclideanArea(3), 2.0, 2.0, t_start=0.0)
    with pytest.raises(PreconditionViolation):
        area_condition_test(EuclideanArea(3), 2.0, 2.0, mode="magic")
    for p, gamma in [(math.inf, 3.0), (math.nan, 3.0), (2.0, math.inf), (2.0, math.nan)]:
        with pytest.raises(PreconditionViolation):
            area_condition_test(EuclideanArea(3), p, gamma)


def _tie_grid():
    """(dim, p, gamma, gamma_star) at and next to the float gamma_star:
    dim 3..8, p = k/100 < dim, gamma in {gamma_star, both of its float
    neighbours, gamma_star rounded to 10 decimals} with gamma > p - 1."""
    points = []
    for dim in range(3, 9):
        for k in range(101, 100 * dim):
            p = k / 100
            star = liouville_threshold(dim, p)
            ties = {star, math.nextafter(star, 0), math.nextafter(star, math.inf), round(star, 10)}
            points += [(dim, p, gamma, star) for gamma in sorted(ties) if gamma > p - 1]
    return points


def test_power_area_divergence_predicate():
    assert power_area_diverges(2.0, 2.0, 1.5)
    assert not power_area_diverges(2.0, 2.0, 1.5 + 1e-12)
    assert power_area_diverges(0.0, 2.0, 100.0) and power_area_diverges(1e-17, 2.0, 100.0)
    # (beta + 1)(p - 1) overflows for beta = 1e308; the threshold is then
    # read without the overflow, just above p - 1 = 2
    assert not power_area_diverges(1e308, 3.0, 2.5) and not power_area_diverges(1e307, 3.0, 2.5)
    # Every threshold comparison reads params._critical_gamma, so on the tie
    # grid each verdict, regime and sweep row follows from gamma <= gamma_star.
    grid = _tie_grid()
    rows = _sweep_rows([(dim, p, gamma, math.inf) for dim, p, gamma, _ in grid])
    disagree = []
    for (dim, p, gamma, star), row in zip(grid, rows):
        constant = gamma <= star
        classified = liouville_classify_euclidean(dim, p, gamma).verdict is Verdict.LIOUVILLE
        regime = classify_regime(ProblemParams(dim=dim, p=p, gamma=gamma)).liouville
        agree = (
            classified == constant
            and area_condition_test(EuclideanArea(dim), p, gamma) is _AREA[constant]
            and power_area_diverges(dim - 1, p, gamma) == constant
            and area_condition_test(PowerArea(1.0, dim - 1), p, gamma) is _AREA[constant]
            and (regime is LiouvilleRegime.CRITICAL) == (gamma == star)
            and row[-2:] == (regime.value, "LIOUVILLE" if constant else "NO_LIOUVILLE")
        )
        if not agree:
            disagree.append((dim, p, gamma))
    assert len(grid) > 9_000 and disagree == []
    assert all(params._growth_gap(dim, p, g) > 0 for dim, p, g, star in grid if g > star)


# ---------------------------------------------------------------------------
# Area profile objects
# ---------------------------------------------------------------------------


def test_area_profile_guards():
    for dim in (1, 2.5, math.nan, math.inf):
        with pytest.raises(PreconditionViolation):
            EuclideanArea(dim)
    with pytest.raises(PreconditionViolation):
        PowerArea(0.0, 2.0)
    with pytest.raises(PreconditionViolation):
        ExponentialArea(-1.0, 1.0)
    area = SampledArea([1.0, 4.0], [1.0, 2.0])
    with pytest.raises(DomainExceeded):
        area.value(5.0)


def test_euclidean_area_values():
    # area(dB_t) = amplitude t^beta: 4 pi t^2 in R^3, 2 pi t in R^2
    area = EuclideanArea(3)
    assert area.amplitude == pytest.approx(4.0 * math.pi)
    assert area.beta == 2.0
    assert EuclideanArea(2).amplitude == pytest.approx(2.0 * math.pi)
    assert EuclideanArea(2).beta == 1.0


def test_exponential_area_values():
    # area(dB_t) = amplitude e^(kappa t)
    area = ExponentialArea(2.0, 0.5)
    assert area.amplitude == 2.0
    assert area.kappa == 0.5


def test_sampled_area_reads_its_nodes_and_interpolates_between_them():
    area = SampledArea([1.0, 2.0, 4.0], [3.0, 5.0, 6.0])
    assert area.amplitude == 1.0
    assert area.value([1.0, 2.0, 4.0]).tolist() == [3.0, 5.0, 6.0]
    assert area.value([1.5, 3.0]).tolist() == [4.0, 5.5]
    with pytest.raises(DomainExceeded):
        area.value(0.5)


# ---------------------------------------------------------------------------
# Sigma comparison chain
# ---------------------------------------------------------------------------


def _params(gamma, c_h=1.0):
    return ProblemParams(dim=3, p=2.0, gamma=gamma, c_h=c_h)


def test_sigma_bound_lhs_closed_form():
    rep = sigma_lower_bound(0.4, _params(2.0), EuclideanArea(3), 1.0, 10.0)
    # e = 1, so lhs = 1 / sigma
    assert rep.exponent_e == 1.0
    assert rep.lhs == 2.5


def test_sigma_bound_comparison_integral_closed_form():
    # gamma 1.4 gives e = 0.4, integrand t^(-0.8) on [1, 10]
    rep = sigma_lower_bound(1.0, _params(1.4), EuclideanArea(3), 1.0, 10.0)
    want = (10.0**0.2 - 1.0) / 0.2
    assert rep.comparison_integral == pytest.approx(want, rel=1e-10)


def test_sigma_bound_logarithmic_point():
    # gamma 1.5: beta * e = 1 exactly, integral of 1/t
    rep = sigma_lower_bound(1.0, _params(1.5), EuclideanArea(3), 1.0, math.e)
    assert rep.comparison_integral == pytest.approx(1.0, rel=1e-15)


def test_sigma_bound_degenerate_interval():
    rep = sigma_lower_bound(1.0, _params(1.4), EuclideanArea(3), 1.0, 1.0)
    assert rep.comparison_integral == 0.0
    assert rep.rhs == 0.0
    assert not rep.contradiction


def test_sigma_bound_rhs_scales_with_hamiltonian_constant():
    # C = (c_h/nu)^(gamma/(gamma-p+1)) * e; gamma 2 doubles c_h into factor 4
    base = sigma_lower_bound(1.0, _params(2.0), EuclideanArea(3), 1.0, 10.0)
    boosted = sigma_lower_bound(1.0, _params(2.0, c_h=2.0), EuclideanArea(3), 1.0, 10.0)
    assert boosted.constant_C / base.constant_C == pytest.approx(4.0, rel=1e-15)
    assert boosted.rhs / base.rhs == pytest.approx(4.0, rel=1e-15)
    assert boosted.comparison_integral == base.comparison_integral


@pytest.mark.parametrize("area", [
    EuclideanArea(3),
    PowerArea(2.0, 1.0),
    ExponentialArea(2.0, -0.5),
    SampledArea([1.0, 2.0, 64.0], [3.0, 4.0, 5.0]),
], ids=["euclidean", "power", "exponential", "sampled"])
def test_sigma_bound_rhs_is_the_product_of_its_reported_factors(area):
    # rhs = C * amplitude^-e * I, and the report holds each factor, so the
    # product of its fields is rhs to the bit, at a given r and at the
    # contradiction radius alike.
    for rep in (sigma_lower_bound(1.0, _params(1.4), area, 1.0, 10.0),
                find_contradiction_radius(1.0, _params(1.4), area, 1.0)):
        assert rep.area_factor == area.amplitude**-rep.exponent_e
        assert rep.rhs == rep.constant_C * rep.area_factor * rep.comparison_integral
        assert rep.area_integral == rep.area_factor * rep.comparison_integral


def test_sigma_bound_exponential_area_closed_form():
    rep = sigma_lower_bound(1.0, _params(2.0), ExponentialArea(1.0, 1.0), 1.0, 2.0)
    want = math.exp(-1.0) - math.exp(-2.0)
    assert rep.comparison_integral == pytest.approx(want, rel=1e-14, abs=0.0)


def test_sigma_bound_flat_exponential_area_is_the_interval_length():
    # kappa = 0: the area is constant, and int_R^r 1 dt = r - R exactly
    rep = sigma_lower_bound(1.0, _params(2.0), ExponentialArea(3.0, 0.0), 1.5, 7.25)
    assert rep.comparison_integral == 5.75


def test_sigma_bound_sampled_area_matches_exponential_closed_form():
    grid = np.linspace(1.0, 4.0, 4000)
    area = SampledArea(grid, 2.0 * np.exp(0.5 * grid))
    num = sigma_lower_bound(1.0, _params(1.4), area, 1.0, 4.0)
    ref = sigma_lower_bound(1.0, _params(1.4), ExponentialArea(2.0, 0.5), 1.0, 4.0)
    # a sampled amplitude is 1, so compare the full area integral instead
    assert num.area_integral == pytest.approx(ref.area_integral, rel=1e-6)


def test_sigma_bound_sampled_area_matches_power_closed_form():
    grid = np.linspace(1.0, 16.0, 4000)
    area = SampledArea(grid, 4.0 * math.pi * grid**2)
    num = sigma_lower_bound(1.0, _params(1.4), area, 1.0, 16.0)
    ref = sigma_lower_bound(1.0, _params(1.4), EuclideanArea(3), 1.0, 16.0)
    # a sampled amplitude is 1, so compare the full area integral instead
    assert num.area_integral == pytest.approx(ref.area_integral, rel=1e-6)
    with pytest.raises(DomainExceeded):
        sigma_lower_bound(1.0, _params(1.4), area, 1.0, 32.0)


def test_sigma_bound_sampled_area_is_exact_per_panel_without_a_rule_call(monkeypatch):
    # e = 1 and an area linear on each panel: int 1/(a + b t) is a log per
    # panel, which the closed form takes exactly, with no quadrature call.
    grid = np.array([1.0, 1.5, 3.0, 4.0, 8.0])
    values = np.array([2.0, 2.5, 7.0, 7.5, 10.0])
    area = SampledArea(grid, values)
    calls = _count_rule_calls(monkeypatch)
    rep = sigma_lower_bound(1.0, ProblemParams(dim=3, p=2.0, gamma=2.0), area, 1.25, 6.0)
    assert calls == []
    edges = [1.25, 1.5, 3.0, 4.0, 6.0]
    want = 0.0
    for a, b in zip(edges, edges[1:]):
        va, vb = np.interp([a, b], grid, values)
        want += (b - a) / (vb - va) * math.log(vb / va)
    assert rep.comparison_integral == pytest.approx(want, rel=1e-14, abs=0.0)


def test_sigma_bound_sampled_panel_whose_values_span_past_the_float_range():
    # v_b / v_a = 1e-600 underflows to 0 on the panel [1, 2]; its integral
    # 2 (sqrt(v_a) - sqrt(v_b)) / (v_a - v_b) is still about 2e-150.
    area = SampledArea(np.array([1.0, 2.0, 3.0]), np.array([1e300, 1e-300, 1.0]))
    rep = sigma_lower_bound(1.0, _params(1.5), area, 1.0, 2.0)
    assert rep.comparison_integral == pytest.approx(2e-150, rel=1e-14, abs=0.0)


_GEOMETRIC_9, _GEOMETRIC_33 = np.geomspace(1.0, 100.0, 9), np.geomspace(1.0, 100.0, 33)


@pytest.mark.parametrize("grid, values, e", [
    # The five tables of the exact-integral item, where the 8-node rule
    # read 2.7e-3 to 100% low (e = 9 is p = 1.2 with gamma = 2) ...
    ([1.0, 10.0], [1.0, 100.0], 0.4),
    ([1.0, 10.0], [1.0, 100.0], 9.0),
    ([1.0, 10.0, 100.0], [1.0, 100.0, 1e4], 19.0),
    (_GEOMETRIC_9, _GEOMETRIC_9**2, 19.0),
    (_GEOMETRIC_33, _GEOMETRIC_33**2, 59.0),
    # ... and a near-flat panel, where log(v_b / v_a) would lose digits,
    # beside a flat one.
    ([1.0, 2.0, 3.0], [7.3, 7.3 + 7.3e-12, 7.3 + 7.3e-12], 9.0),
], ids=["1-100-e0.4", "1-100-e9", "1-100-1e4-e19", "t2-9-nodes-e19", "t2-33-nodes-e59", "near-flat"])
def test_sampled_comparison_integral_matches_adaptive_quadrature(grid, values, e):
    from scipy.integrate import quad as adaptive_quad

    grid, values = np.asarray(grid, dtype=float), np.asarray(values, dtype=float)
    got = liouville._comparison_integral(SampledArea(grid, values), e, 1.0)(grid[-1])
    want = sum(
        adaptive_quad(lambda t: np.interp(t, grid, values) ** -e, a, b, epsabs=0.0, epsrel=1e-13,
                      limit=200)[0]
        for a, b in zip(grid, grid[1:])
    )
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("R, r", [(7.3, 7.3 + 7.3e-12), (1.1, 1.1 + 1e-13), (7.3 + 7.3e-12, 7.3)])
def test_power_integral_keeps_its_digits_on_a_near_flat_interval(R, r):
    # int_R^r t^-9 dt = (R^-8 - r^-8) / 8 for r/R within 1e-12 of 1, where
    # log(r / R) carried up to 2.2e-4 of rounding.
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        want = float((Decimal(R) ** -8 - Decimal(r) ** -8) / 8)
    assert liouville._power_integral(9.0, R, r) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_sigma_bound_guards():
    with pytest.raises(PreconditionViolation):
        sigma_lower_bound(0.0, _params(1.4), EuclideanArea(3), 1.0, 2.0)
    with pytest.raises(PreconditionViolation):
        sigma_lower_bound(1.0, _params(1.4), EuclideanArea(3), 2.0, 1.0)


def test_area_integral_monotone_in_gamma():
    # area >= 1 on [1, 10], so a larger comparison exponent only shrinks
    # the integrand; this is the quantity that decays toward threshold
    gammas = np.linspace(1.2, 3.0, 10)
    vals = [
        sigma_lower_bound(1.0, _params(float(g)), EuclideanArea(3), 1.0, 10.0).area_integral
        for g in gammas
    ]
    assert np.all(np.diff(vals) <= 0)


def test_rhs_nondecreasing_in_outer_radius():
    rs = [2.0, 4.0, 8.0, 16.0, 32.0]
    vals = [
        sigma_lower_bound(1.0, _params(1.4), EuclideanArea(3), 1.0, r).rhs for r in rs
    ]
    assert np.all(np.diff(vals) > 0)


def test_contradiction_radius_subcritical():
    # closed form: rhs(r) = 2 (4 pi)^(-0.4) (r^0.2 - 1) crosses lhs = 2.5
    # at r = (1 + 1.25 (4 pi)^0.4)^5 ~ 1.7e3, so doubling lands on 2^11
    rep = find_contradiction_radius(1.0, _params(1.4), EuclideanArea(3), 1.0)
    assert rep is not None
    assert rep.contradiction
    assert rep.r == 2048.0
    before = sigma_lower_bound(1.0, _params(1.4), EuclideanArea(3), 1.0, rep.r / 2)
    assert not before.contradiction


def test_contradiction_radius_critical_is_far():
    # log case: rhs = 0.5 (4 pi)^(-0.5) ln r crosses lhs = 2 near e^14.18
    rep = find_contradiction_radius(1.0, _params(1.5), EuclideanArea(3), 1.0)
    assert rep is not None
    assert rep.r == 2097152.0


def test_contradiction_radius_doubles_to_the_float_range():
    # sigma(R) = 1e-3 at gamma* puts lhs at 2 (1e-3)^(-1/2) ~ 63.2, and the
    # log case rhs 0.5 (4 pi)^(-1/2) ln r crosses it near e^448: past
    # 2^200, before the float range ends.
    params = ProblemParams(dim=3, p=2, gamma=1.5)
    rep = find_contradiction_radius(1e-3, params, EuclideanArea(3), 1.0)
    assert rep is not None and rep.contradiction
    assert rep.r == 2.0**647
    assert not sigma_lower_bound(1e-3, params, EuclideanArea(3), 1.0, rep.r / 2).contradiction


@pytest.mark.parametrize("profile, r", [(PowerArea(1.0, -1.0), 1e300), (ExponentialArea(1.0, -1.0), 1e4)])
def test_sigma_bound_refuses_a_comparison_integral_past_the_float_range(profile, r):
    # Areas t^-1 and e^-t make the integrands t^0.5 and e^(0.5 t), whose
    # integrals leave the float range there: math.expm1 and math.exp
    # overflow, and an infinite integral is not reported.
    params = ProblemParams(dim=3, p=2, gamma=1.5)
    with pytest.raises(PreconditionViolation, match=re.escape(f"up to r={r!r} leaves the float range")):
        sigma_lower_bound(1.0, params, profile, 1.0, r)


def test_sigma_bound_below_unit_inner_radius_reaches_the_float_range():
    # Area t^-1 makes the integrand t^0.5; from R = 1e-200 the factor
    # expm1(1.5 log(r/R)) overflows although the integral (r^1.5 -
    # R^1.5)/1.5 is about 6.7e149, which is reported. The R = 1 value,
    # 6.666666666666967e+149, carries the rounding of its expm1 argument
    # 345.4, about 4.5e-14 relative.
    params = ProblemParams(dim=3, p=2, gamma=1.5)
    tiny = sigma_lower_bound(1.0, params, PowerArea(1.0, -1.0), 1e-200, 1e100)
    assert tiny.comparison_integral == pytest.approx(1e150 / 1.5, rel=1e-15)
    at_one = sigma_lower_bound(1.0, params, PowerArea(1.0, -1.0), 1.0, 1e100).comparison_integral
    assert at_one == 6.666666666666967e+149
    assert tiny.comparison_integral == pytest.approx(at_one, rel=1e-13)


def _expm1_power_integral(x, R, r):
    # The expm1 form alone: the reference wherever it does not overflow.
    if r == R:
        return 0.0
    one_minus = 1.0 - x
    log_ratio = math.log(r / R)
    if one_minus == 0.0:
        return log_ratio
    return R**one_minus * math.expm1(one_minus * log_ratio) / one_minus


def test_power_integral_keeps_its_bits_where_the_expm1_form_stays_finite():
    # No two distinct radii lie within a factor 2 of each other, where
    # log1p replaces log(r / R) (see the near-flat test above).
    radii = (1e-300, 1e-200, 1e-20, 0.5, 1.0, 3.0, 1e20, 1e200)
    overflows = 0
    for x in (-3.0, -1.0, 0.0, 0.25, 0.999, 1.0, 1.001, 2.0, 5.0):
        for R, r in itertools.combinations_with_replacement(radii, 2):
            if r / R == math.inf:  # log(r / R) is inf: see the next test
                continue
            try:
                want = _expm1_power_integral(x, R, r)
            except OverflowError:
                overflows += 1
                continue
            assert liouville._power_integral(x, R, r).hex() == want.hex(), (x, R, r)
    assert overflows > 0


@pytest.mark.parametrize("x, R, r, want", [
    (-3.0, 1e-300, 1e20, 2.5e79),  # (r^4 - R^4) / 4
    (1.0, 1e-300, 1e20, 320 * math.log(10.0)),  # log(1e320)
    (0.5, 1e-300, 1e20, 2e10),  # 2 (sqrt(r) - sqrt(R))
    (1.001, 1e-300, 1e20, (1e-300 ** (1.0 - 1.001) - 1e20 ** (1.0 - 1.001)) / (1.001 - 1.0)),
])
def test_power_integral_where_r_over_R_overflows(x, R, r, want):
    # r / R = 1e320 is inf, but log(r) - log(R) is not; the expm1 form of
    # log(r / R) gave NaN for x < 1 and 1995.26 for x = 1.001.
    assert liouville._power_integral(x, R, r) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("sigma_R, params, field", [
    # e = 4999: 1e-3^-4999 is past the float range
    (1e-3, ProblemParams(dim=3, p=1.001, gamma=5), "lhs"),
    # (c_h / nu)^(gamma/(gamma-p+1)): ** overflows, or c_h / nu is inf
    (1.0, ProblemParams(dim=3, p=1.5, gamma=2, c_h=1e300), "constant_C"),
    (1.0, ProblemParams(dim=3, p=2, gamma=2, c_h=1e300, nu=1e-300), "constant_C"),
])
def test_sigma_bound_refuses_an_lhs_or_constant_past_the_float_range(sigma_R, params, field):
    with pytest.raises(PreconditionViolation, match=f"^{field} leaves the float range$"):
        sigma_lower_bound(sigma_R, params, EuclideanArea(3), 1.0, 2.0)
    # both are fixed before the doubling, so find_contradiction_radius refuses them too
    with pytest.raises(PreconditionViolation, match=f"^{field} leaves"):
        find_contradiction_radius(sigma_R, params, EuclideanArea(3), 1.0)


@pytest.mark.parametrize("sigma_R, params, profile, R, r, first, searched", [
    # sigma_R = 0 and R = -1
    (0.0, ProblemParams(dim=3, p=2, gamma=1.5), EuclideanArea(3), -1.0, 2.0,
     "sigma_R must be finite and positive, got 0.0", True),
    # R = 0 and r < R
    (1.0, ProblemParams(dim=3, p=2, gamma=1.5), EuclideanArea(3), 0.0, -1.0,
     "R must be finite and positive, got 0.0", False),
    # r < R and lhs = (1e-3)^-4999 / 4999
    (1e-3, ProblemParams(dim=3, p=1.001, gamma=5), EuclideanArea(3), 2.0, 1.0,
     "need 0 < R <= r, got R=2.0, r=1.0", False),
    # lhs as above, and constant_C from c_h / nu = inf
    (1e-3, ProblemParams(dim=3, p=1.001, gamma=5, c_h=1e300, nu=1e-300), EuclideanArea(3), 1.0, 2.0,
     "lhs leaves the float range", True),
    # constant_C from (1e300)^3 * 3, and area_factor = (1e-300)^-3
    (1.0, ProblemParams(dim=3, p=1.5, gamma=2, c_h=1e300), PowerArea(1e-300, 2.0), 1.0, 2.0,
     "constant_C leaves the float range", True),
    # area_factor = (1e-300)^-3, and an integrand e^(3t) whose integral
    # from R = 1e3 leaves the float range at r = R already
    (1.0, ProblemParams(dim=3, p=2, gamma=4), ExponentialArea(1e-300, -1.0), 1e3, 2e3,
     "area_factor leaves the float range", True),
], ids=["sigma_R-R", "R-r", "r-lhs", "lhs-C", "C-area_factor", "area_factor-integral"])
def test_sigma_bound_refuses_the_first_of_two_faults(sigma_R, params, profile, R, r, first, searched):
    # Each row breaks two rules; the refusal is the first in the sigma
    # bound's order, and the search's too where both rules are fixed before
    # the doubling.
    assert _outcome(sigma_lower_bound, sigma_R, params, profile, R, r) == (PreconditionViolation, first)
    if searched:
        assert _outcome(find_contradiction_radius, sigma_R, params, profile, R) == (PreconditionViolation, first)


@pytest.mark.parametrize("profile", [PowerArea(1.0, -1.0), ExponentialArea(1.0, -1.0)])
def test_contradiction_radius_ends_where_the_comparison_integral_leaves_the_float_range(profile):
    # c_h = 1e-300 makes C so small that rhs stays below lhs until the
    # integral itself is past the float range: no crossing is found.
    params = ProblemParams(dim=3, p=2, gamma=1.5, c_h=1e-300)
    assert find_contradiction_radius(1.0, params, profile, 1.0) is None


def test_contradiction_radius_ends_at_a_sampled_area_last_node():
    # The t^2 area of R^3 on [1, 10] has no crossing up to r = 8; r = 16
    # is past its last node, as 2R is from R = 6. An R outside the grid is
    # still refused.
    grid = np.linspace(1.0, 10.0, 10)
    area = SampledArea(grid, 4.0 * math.pi * grid**2)
    params = ProblemParams(dim=3, p=2, gamma=1.6)
    assert find_contradiction_radius(1.0, params, area, 1.0) is None
    assert find_contradiction_radius(1.0, params, area, 6.0) is None
    with pytest.raises(DomainExceeded):
        find_contradiction_radius(1.0, params, area, 0.5)


def test_contradiction_radius_supercritical_none():
    rep = find_contradiction_radius(1.0, _params(2.0), EuclideanArea(3), 1.0)
    assert rep is None


def _doubling_walk(sigma_R, params, profile, R):
    # The reference: double r from 2R until rhs overtakes lhs, None where
    # 2r leaves the float range or the sigma bound refuses r.
    r = R
    report = sigma_lower_bound(sigma_R, params, profile, R, r)
    while not report.contradiction:
        if not 2.0 * r < math.inf:
            return None
        r *= 2.0
        try:
            report = sigma_lower_bound(sigma_R, params, profile, R, r)
        except (PreconditionViolation, DomainExceeded):
            return None
    return report


def _outcome(search, *args):
    # Every report field by its bits, None, or the exception and its message.
    try:
        report = search(*args)
    except (PreconditionViolation, DomainExceeded) as exc:
        return type(exc), str(exc)
    return None if report is None else {k: v.hex() if isinstance(v, float) else v
                                        for k, v in vars(report).items()}


def _counted(monkeypatch):
    # The sigma bound calls, and the radii at which every comparison
    # integral the module binds is evaluated.
    bounds, evaluations = [], []
    sigma, bind = liouville.sigma_lower_bound, liouville._comparison_integral

    def counted_bind(*args):
        integral = bind(*args)
        return lambda r: evaluations.append(r) or integral(r)

    monkeypatch.setattr(liouville, "sigma_lower_bound", lambda *a, **k: bounds.append(a) or sigma(*a, **k))
    monkeypatch.setattr(liouville, "_comparison_integral", counted_bind)
    return bounds, evaluations


def _most_evaluations(R):
    # One at R, one per bisection probe over k in [0, last + 1], and one
    # for the report: 12 at R = 1.
    return 2 + math.ceil(math.log2(1024 - math.frexp(R)[1] + 1))


_SAMPLED_T2 = np.geomspace(1.0, 1e4, 30)
_PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


# The edges of the closed-form guess k* of find_contradiction_radius, at
# p = 2 on one area each: sigma_R, gamma, c_h, area, R and the evaluations
# of the integral the search makes (4 where k* is the walk's doubling).
_GUESS_EDGES = [
    (1.0, 1.25, 1.0, PowerArea(1.0, 4.0), 1.0, 4),  # beta e = 1: log(r*/R) = T
    (1e3, 1.25, 1.0, PowerArea(1.0, 4.0), 1e3, 4),
    (1.0, 1.2, 1.0, ExponentialArea(1.0, 0.0), 1.0, 4),  # kappa e = 0: r* = R + T
    (1.0, 1.2, 1.0, ExponentialArea(1.0, -1.0), 1.0, 4),
    (1e3, 1.5, 1.0, ExponentialArea(1.0, 0.5), 0.1, 4),  # kappa > 0: a crossing
    (1.0, 1.2, 1.0, ExponentialArea(2.0, 1e-3), 1.0, 4),
    (1.0, 1.2, 1.0, ExponentialArea(1.0, 1.0), 1.0, 12),  # kappa > 0: the limit is short of T
    (1.0, 1.4, 1.0, PowerArea(1.0, -2.475), 1.3 * 2.0**1000, 3),  # x = -0.99: R^(1 - x) overflows
    (1.0, 1.4, 1.0, PowerArea(1.0, -2.475), 1.7 * 2.0**-1000, 4),  # and R^(x - 1) here
    (1.0, 1.4, 1.0, PowerArea(1.0, 2.0), 1.7 * 2.0**-1000, 4),
    (1.0, 1.9, 1.0, PowerArea(1.0, 2.0), 1.3 * 2.0**1000, 7),  # x = 1.8: R^(1 - x) underflows
    (1.0, 1.9, 1.0, PowerArea(1.0, 2.0), 1.7 * 2.0**-1000, 3),
    (1.0, 1.5, 1e-300, PowerArea(1e-300, 2.0), 1.0, 12),  # the scale C area_factor underflows to 0
    (1e-300, 1.5, 1e-100, PowerArea(1.0, 2.0), 1.0, 12),  # lhs / scale overflows
    (1e-300, 1.5, 1.0, PowerArea(1.0, 2.0), 1.0, 12),  # k* = 5.8e150, past last
    (3.997e-4, 1.5, 1.0, EuclideanArea(3), 1.0, 3),  # k* = last + 1: k* - 1 = last is probed
    (1.0, 1.4, 1.0, EuclideanArea(3), 1e300, 3),  # k* = 1: k* - 1 = 0 is not
]


@pytest.mark.parametrize("sigma_R, gamma, c_h, area, R, count", _GUESS_EDGES)
def test_contradiction_radius_evaluations_at_the_guess_edges(monkeypatch, sigma_R, gamma, c_h, area, R,
                                                             count):
    # 3 where the probe at k* settles the bracket alone, 12 or 7 (the
    # bisection over [0, last + 1]) where no k* lies inside it.
    bounds, evaluations = _counted(monkeypatch)
    find_contradiction_radius(sigma_R, _params(gamma, c_h), area, R)
    assert len(evaluations) == count and not bounds


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_contradiction_radius_equals_the_doubling_walk(monkeypatch, d):
    # gamma just above p - 1, at gamma*, just above it and above p. The
    # non-Euclidean areas do not read dim and run at d = 3 only. The walk
    # to the end of the float range (c_h = 1e-300 underflows C to 0) takes
    # about a thousand calls, so those cases run at sigma_R = R = 1 only.
    # The search makes no sigma bound call, whatever the walk takes, and
    # evaluates the integral at most 2 + ceil(log2(last + 1)) times, at
    # most once where it refuses.
    areas = [EuclideanArea(d)]
    if d == 3:
        areas += [PowerArea(1.0, -1.0), PowerArea(1.0, 0.5),
                  ExponentialArea(1.0, -1.0), ExponentialArea(1.0, 0.0), ExponentialArea(1.0, 1.0),
                  SampledArea(_SAMPLED_T2, 4.0 * math.pi * _SAMPLED_T2**2)]
    cases = []
    for p in (1.5, 2.0, 3.0):
        gamma_star = params._critical_gamma(d, p)
        for gamma in (p - 1 + 1e-3 * (gamma_star - p + 1), gamma_star, gamma_star * (1 + 1e-9), p + 1.0):
            for sigma_R, R, c_h in itertools.product((1e-3, 1.0, 1e3), (1e-3, 1.0, 1e3), (1.0, 1e-300)):
                if c_h < 1 and (sigma_R, R) != (1.0, 1.0):
                    continue
                problem = ProblemParams(dim=d, p=p, gamma=gamma, c_h=c_h)
                cases += [(sigma_R, problem, area, R) for area in areas]
    if d == 3:  # at R = 1: crossings near and far, a convergent area, integrals refused
        cases += [(sigma_R, _params(gamma, c_h), area, 1.0) for sigma_R, gamma, c_h, area in [
            (1.0, 1.4, 1.0, EuclideanArea(3)), (1e-3, 1.5, 1.0, EuclideanArea(3)),
            (1.0, 2.0, 1.0, EuclideanArea(3)), (1.0, 1.5, 1e-300, PowerArea(1.0, -1.0)),
            (1.0, 1.5, 1e-300, ExponentialArea(1.0, -1.0)), (1e3, 1.2, 1.0, ExponentialArea(1.0, 0.0)),
        ]]
        # and the edges of the closed-form guess
        cases += [(sigma_R, _params(gamma, c_h), area, R) for sigma_R, gamma, c_h, area, R, _ in _GUESS_EDGES]
    bounds, evaluations = _counted(monkeypatch)
    crossings = nones = 0
    for case in cases:
        want = _outcome(_doubling_walk, *case)
        bounds.clear()
        evaluations.clear()
        got = _outcome(find_contradiction_radius, *case)
        assert got == want, case
        assert not bounds, case
        assert len(evaluations) <= (1 if isinstance(got, tuple) else _most_evaluations(case[3])), case
        crossings += isinstance(got, dict)
        nones += got is None
    assert crossings and nones


def test_contradiction_radius_near_a_convergent_limit_is_a_short_search(monkeypatch):
    # lhs / (C area_factor) lies within rounding of the limit of a
    # convergent integral: the closed form crosses at 2^38, the float
    # integral never does, and the walk ends past the float range. The
    # bisection finds that in at most 12 evaluations of the integral.
    problem, area = _params(2.000000000002, 1.0), PowerArea(1.0, 2.0)
    bounds, evaluations = _counted(monkeypatch)
    assert find_contradiction_radius(1.0, problem, area, 1.0) is None
    assert not bounds and len(evaluations) <= 12
    assert _doubling_walk(1.0, problem, area, 1.0) is None


@pytest.mark.parametrize("sigma_R, gamma, c_h, area, r, count", [
    (1.0, 1.4, 1.0, EuclideanArea(3), 2.0**11, 4),
    (1.0, 1.5, 1.0, EuclideanArea(3), 2.0**21, 4),
    (1e-3, 1.5, 1.0, EuclideanArea(3), 2.0**647, 4),
    (1.0, 2.0, 1.0, EuclideanArea(3), None, 12),
    (1.0, 1.5, 1e-300, PowerArea(1.0, -1.0), None, 12),
    (1.0, 1.5, 1e-300, ExponentialArea(1.0, -1.0), None, 12),
])
def test_contradiction_radius_evaluates_the_integral_four_times_at_a_closed_form_crossing(
        monkeypatch, sigma_R, gamma, c_h, area, r, count):
    # The walk takes 12, 22, 648, 1,024, 684 and 12 sigma bound calls here;
    # the search makes none. At a crossing: once at R, at k* and k* - 1,
    # and for the report. Without one (a convergent area; C underflows to
    # 0, so no k* is formed) the bisection over [0, 1024] takes 10 probes.
    bounds, evaluations = _counted(monkeypatch)
    report = find_contradiction_radius(sigma_R, _params(gamma, c_h), area, 1.0)
    assert (report and report.r) == r
    assert not bounds
    assert len(evaluations) == count <= _most_evaluations(1.0) == 12


def test_contradiction_radius_benchmark_cases_take_four_evaluations(monkeypatch):
    # perfbench/cases.py's CONTRADICTIONS: d, p, gamma, at sigma_R = R = 1
    # on R^d. Each closed-form guess is right: 12 evaluations became 4.
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    contradictions = runpy.run_path(str(_PERFBENCH / "cases.py"))["CONTRADICTIONS"]
    assert len(contradictions) == 4
    bounds, evaluations = _counted(monkeypatch)
    for d, p, gamma in contradictions:
        evaluations.clear()
        report = find_contradiction_radius(1.0, ProblemParams(dim=d, p=p, gamma=gamma), EuclideanArea(d), 1.0)
        assert report.contradiction and len(evaluations) == 4, (d, p, gamma)
    assert not bounds


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def test_classify_euclidean_liouville_range():
    for gamma in (1.2, 1.4, 1.5):
        v = liouville_classify_euclidean(3, 2.0, gamma)
        assert v.verdict is Verdict.LIOUVILLE
        assert v.mechanism is Mechanism.CLOSED_FORM_THRESHOLD
        assert v.gamma_star == 1.5
        assert v.witness is None


def test_classify_euclidean_bump_witness_below_p():
    v = liouville_classify_euclidean(3, 2.0, 1.8)
    assert v.verdict is Verdict.NO_LIOUVILLE
    assert v.mechanism is Mechanism.COUNTEREXAMPLE_WITNESS
    assert isinstance(v.witness, BumpProfile)
    assert v.witness.c > 0
    report, ok = verify_euclidean_witness(v)
    assert ok
    assert report.passed
    # a witness on R^dim, not only on the grid its scale was certified on
    assert radial._certify_witness(3, 2.0, 1.8, True, np.linspace(0.05, 40.0, 800))[1]
    assert radial._certify_witness(3, 2.0, 1.8, True, np.geomspace(0.05, 1e6, 400))[1]


def test_classification_builds_by_closed_form_and_each_verify_scans_once(monkeypatch):
    scans, scan = [], radial.residual_scan
    monkeypatch.setattr(radial, "residual_scan", lambda *a, **k: scans.append(1) or scan(*a, **k))
    for gamma in (1.8, 4.0):  # the bump and the entire power
        scans.clear()
        v = liouville_classify_euclidean(3, 2.0, gamma)
        assert v.witness is not None and len(scans) == 0
        report, ok = verify_euclidean_witness(v)
        assert ok and len(scans) == 1
        again, ok = verify_euclidean_witness(v)
        assert ok and len(scans) == 2
        assert np.array_equal(again.residuals, report.residuals)
        bounded = isinstance(v.witness, BumpProfile)
        assert radial._certify_witness(3, 2.0, gamma, bounded, np.linspace(0.05, 40.0, 800))[1]
        assert len(scans) == 3


def test_classify_euclidean_entire_witness_above_p():
    v = liouville_classify_euclidean(3, 2.0, 4.0)
    assert v.verdict is Verdict.NO_LIOUVILLE
    assert isinstance(v.witness, PowerProfile)
    report, ok = verify_euclidean_witness(v)
    assert ok
    assert report.max_abs_residual <= 1e-8


def test_classify_euclidean_gamma_equal_p():
    # gamma > gamma* decides the verdict, not a witness: none is built.
    for v in (liouville_classify_euclidean(3, 2.0, 2.0),
              liouville_classify_manifold(EuclideanArea(3), 2.0, 2.0)):
        assert v.verdict is Verdict.NO_LIOUVILLE
        assert v.mechanism is Mechanism.CLOSED_FORM_THRESHOLD
        assert v.witness is None
        assert v.witness_note == "WITNESS_UNAVAILABLE"
    with pytest.raises(PreconditionViolation):
        verify_euclidean_witness(v)


def test_classify_euclidean_every_no_liouville_has_witness_or_note():
    for gamma in (1.51, 1.7, 1.9, 2.0, 2.3, 3.0, 5.0):
        v = liouville_classify_euclidean(3, 2.0, gamma)
        assert v.verdict is Verdict.NO_LIOUVILLE
        if gamma == 2.0:
            assert v.witness_note == "WITNESS_UNAVAILABLE"
        else:
            assert v.witness is not None
            kind = BumpProfile if gamma < 2.0 else PowerProfile
            assert isinstance(v.witness, kind)


def _near_threshold_points():
    """d = 3..8, p = k/100 < min(4, d), gamma = gamma* rounded to 10
    digits and kept above gamma*: 1,694 bump points."""
    for d in range(3, 9):
        for k in range(101, min(4, d) * 100):
            p = k / 100
            gamma_star = params._critical_gamma(d, p)
            gamma = round(gamma_star, 10)
            if not gamma > gamma_star:
                gamma = round(gamma + 1e-10, 10)
            yield d, p, gamma


def test_near_threshold_bump_witnesses_are_certified_in_one_scan(monkeypatch):
    scans, scan = [], radial.residual_scan
    monkeypatch.setattr(radial, "residual_scan", lambda *a, **k: scans.append(1) or scan(*a, **k))
    grid = np.linspace(0.05, 10.0, 300)
    certified = underflowed = 0
    for d, p, gamma in _near_threshold_points():
        # log c of the closed-form scale, kept in logs so it cannot underflow
        delta = (p - gamma) / (gamma - (p - 1))
        g = (d - 1) * (gamma - params._critical_gamma(d, p)) / (gamma - (p - 1))
        log_c = ((p - 1 - gamma) * math.log(delta) + math.log(g)) / (gamma - (p - 1))
        scans.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            c = radial.bump_profile_scale(d, p, gamma, 1.0)
            verdict = liouville_classify_euclidean(d, p, gamma)
            assert not scans, (d, p, gamma)
            witness_report, ok = verify_euclidean_witness(verdict)
            assert len(scans) == 1, (d, p, gamma)
            report, _ = radial._certify_witness(d, p, gamma, True, grid)
        # c rounds to 0 only below half the least subnormal; its log10 is
        # reported all the same
        if c == 0.0:
            assert log_c < -744.0, (d, p, gamma)
            underflowed += 1
        else:
            assert c > 0 and log_c > -746.0, (d, p, gamma)
        log10_c = radial._witness_scale(d, p, gamma, 1.0, bounded=True)[1]
        assert log10_c * math.log(10.0) == pytest.approx(log_c, rel=1e-12), (d, p, gamma)
        assert verdict.witness.c == c
        assert ok and report.passed and witness_report.min_residual == report.min_residual
        certified += 1
    assert (certified, underflowed) == (1694, 83)


_C_H_SWEEP = (5e-324, 1e-310, 1e-200, 1e-100, 1e-8, 1e8, 1e100, 1e200, 1e300)


@pytest.mark.parametrize(
    "dim, p, gamma",
    [(3, 2.0, 1.8), (3, 2.0, 1.6), (4, 3.0, 2.8), (5, 1.5, 0.9), (3, 2.0, 3.0),
     (3, 2.0, 4.0), (4, 3.0, 3.5), (5, 2.5, 4.0), (6, 3.0, 3.3)],
)
def test_witness_scale_follows_c_h_and_its_certificate_does_not(dim, p, gamma):
    bounded = gamma < p
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        base_report, _ = verify_euclidean_witness(liouville_classify_euclidean(dim, p, gamma))
        base = radial._witness_scale(dim, p, gamma, 1.0, bounded)[1]
        for c_h in _C_H_SWEEP:
            verdict = liouville_classify_euclidean(dim, p, gamma, c_h=c_h)
            report, ok = verify_euclidean_witness(verdict)
            assert ok and report.min_residual == base_report.min_residual, c_h
            log10_c = radial._witness_scale(dim, p, gamma, c_h, bounded)[1]
            want = base - math.log10(c_h) / (gamma - (p - 1))
            assert log10_c == pytest.approx(want, rel=1e-12, abs=1e-12), c_h
            # c leaves the float range, to 0.0 or inf, exactly where its log does
            c = abs(verdict.witness.c)
            if c == 0.0 or c == math.inf:
                assert log10_c < -323.3 if c == 0.0 else log10_c > 308.25, c_h
            elif c >= np.finfo(float).tiny:
                assert math.log10(c) == pytest.approx(log10_c, abs=1e-12 * max(1.0, abs(log10_c)))
    for c_h in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(PreconditionViolation, match="c_h must be finite and positive"):
            liouville_classify_euclidean(dim, p, gamma, c_h=c_h)


def test_high_p_witnesses_are_certified_relative_to_their_gradient_term():
    # d in {8, 10}, p in {6, 8} below d: at (10, 8, 8.05) the entire
    # power's two terms are about 1e8 at r = 0.1, so its residual, roundoff
    # of order 1e-8, fails an absolute 1e-8 bound even at unit scale; the
    # bound is relative to the gradient term K |w'|^gamma.
    certified = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for dim, p, k in itertools.product((8, 10), (6.0, 8.0), range(1, 81)):
            gamma = round(p - 1 + 0.05 * k, 10)
            if p >= dim or gamma <= params._critical_gamma(dim, p) or gamma == p:
                continue
            verdict = liouville_classify_euclidean(dim, p, gamma)
            _, ok = verify_euclidean_witness(verdict)
            assert ok, (dim, p, gamma)
            if gamma > p:  # the coefficient of r^a against its closed form
                a = (gamma - p) / (gamma - (p - 1))
                g = params._growth_gap(dim, p, gamma)
                c = g ** (1.0 / (gamma - (p - 1))) / a
                assert verdict.witness.c == pytest.approx(c, rel=1e-12), (dim, p, gamma)
            certified += 1
    assert certified == 197


def test_classify_euclidean_guards():
    with pytest.raises(PreconditionViolation):
        liouville_classify_euclidean(3, 2.0, 1.0)
    with pytest.raises(PreconditionViolation):
        liouville_classify_euclidean(3, 2.0, 2.0, c_h=0.0)


def test_classify_manifold_divergent_forces_constancy():
    v = liouville_classify_manifold(EuclideanArea(3), 2.0, 1.4)
    assert v.verdict is Verdict.LIOUVILLE
    assert v.mechanism is Mechanism.AREA_INTEGRAL_DIVERGES
    assert v.gamma_star == 1.5
    w = liouville_classify_manifold(ExponentialArea(1.0, -1.0), 2.0, 1.4)
    assert w.verdict is Verdict.LIOUVILLE
    assert w.dim is None
    assert w.gamma_star is None


def test_classify_manifold_euclidean_delegates_to_witnesses():
    v = liouville_classify_manifold(EuclideanArea(3), 2.0, 1.8)
    assert v.verdict is Verdict.NO_LIOUVILLE
    assert v.mechanism is Mechanism.COUNTEREXAMPLE_WITNESS
    assert v.witness is not None


def test_classify_manifold_convergent_generic_stays_open():
    v = liouville_classify_manifold(ExponentialArea(1.0, 1.0), 2.0, 1.2)
    assert v.verdict is Verdict.INCONCLUSIVE
    assert v.mechanism is Mechanism.AREA_INTEGRAL_CONVERGES


def test_classify_manifold_sampled_numeric_runs_out_of_data():
    grid = np.linspace(1.0, 4.0, 64)
    area = SampledArea(grid, grid**2)
    v = liouville_classify_manifold(area, 2.0, 2.0, mode="numeric")
    assert v.verdict is Verdict.INCONCLUSIVE
    assert v.mechanism is None
