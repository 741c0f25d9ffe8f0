"""Area integral test, sigma comparison chain, and the constancy verdicts."""

import math
import warnings

import numpy as np
import pytest

from pdi_lab import liouville, params, radial
from pdi_lab.cli import _sweep_rows
from pdi_lab.errors import DomainExceeded, NoAdmissibleScale, PreconditionViolation
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


def test_numeric_exponential_area_past_overflow_is_silent():
    # The doublings pass t ~ 709 / kappa, where exp overflows to an
    # infinite area and the integrand is exactly 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = area_condition_test(ExponentialArea(1.0, 1.0), 2.0, 1.4, mode="numeric")
    assert verdict is IntegralVerdict.CONVERGENT


@pytest.mark.parametrize("profile", [EuclideanArea(5), PowerArea(2.0, 4.0)], ids=repr)
def test_numeric_power_area_past_overflow_is_silent(profile):
    # Late doublings reach t ~ 1e77, where t^4 overflows to an infinite
    # area; the pytest RuntimeWarning gate fails the test on any warning.
    verdict = area_condition_test(profile, 3.0, 2.55, mode="numeric")
    assert verdict is IntegralVerdict.INCONCLUSIVE


@pytest.mark.parametrize(
    "profile, p, gamma",
    [
        (ExponentialArea(1.0, -0.5), 2.0, 2.5),
        (ExponentialArea(1.0, -0.01), 2.0, 1.4),
        (ExponentialArea(1.0, 0.0), 1.5, 1.2),
        (PowerArea(1.0, -1.0), 2.0, 1.4),
    ],
    ids=repr,
)
def test_numeric_growing_increments_are_divergent(profile, p, gamma):
    # The doubling increments grow without bound; on the two kappa < 0
    # areas they overflow to inf (after 7.6e166 and 1.8e116). The verdict
    # must stay DIVERGENT, silently.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = area_condition_test(profile, p, gamma, mode="numeric")
    assert verdict is IntegralVerdict.DIVERGENT


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
def test_numeric_area_test_integrates_all_doublings_in_one_rule_call(monkeypatch, profile):
    calls = _count_rule_calls(monkeypatch)
    area_condition_test(profile, 2.0, 1.6, mode="numeric")
    assert len(calls) == 1


def test_area_test_analytic_refuses_sampled_data():
    area = SampledArea(np.linspace(1.0, 8.0, 50), np.linspace(1.0, 8.0, 50) ** 2)
    assert area_condition_test(area, 2.0, 2.0) is IntegralVerdict.INCONCLUSIVE


@pytest.mark.parametrize(
    "beta, gamma, want",
    [
        (1.2, 2.2, IntegralVerdict.CONVERGENT),  # beta * e = 1.44
        (1.0, 2.0, IntegralVerdict.DIVERGENT),  # beta * e = 1, log case
        (1.005, 2.005, IntegralVerdict.INCONCLUSIVE),  # decays too slowly to call
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
        try:
            classified = liouville_classify_euclidean(dim, p, gamma).verdict is Verdict.LIOUVILLE
        except NoAdmissibleScale:  # no representable bump scale, only above gamma_star
            classified = False
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
    with pytest.raises(PreconditionViolation):
        SampledArea([1.0, 2.0], [1.0, -1.0])
    with pytest.raises(PreconditionViolation):
        SampledArea([2.0, 1.0], [1.0, 1.0])
    area = SampledArea([1.0, 4.0], [1.0, 2.0])
    with pytest.raises(DomainExceeded):
        area.area(5.0)


def test_euclidean_area_values():
    area = EuclideanArea(3)
    assert area.area(1.0) == pytest.approx(4.0 * math.pi)
    assert area.area(2.0) == pytest.approx(16.0 * math.pi)
    assert EuclideanArea(2).area(1.0) == pytest.approx(2.0 * math.pi)


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
    # gamma 1.5: shape_power * e = 1 exactly, integral of 1/t
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


def test_sigma_bound_exponential_area_closed_form():
    rep = sigma_lower_bound(1.0, _params(2.0), ExponentialArea(1.0, 1.0), 1.0, 2.0)
    want = math.exp(-1.0) - math.exp(-2.0)
    assert rep.comparison_integral == pytest.approx(want, rel=1e-14)


def test_sigma_bound_sampled_area_matches_power_closed_form():
    grid = np.linspace(1.0, 16.0, 4000)
    area = SampledArea(grid, 4.0 * math.pi * grid**2)
    num = sigma_lower_bound(1.0, _params(1.4), area, 1.0, 16.0)
    ref = sigma_lower_bound(1.0, _params(1.4), EuclideanArea(3), 1.0, 16.0)
    # sampled coefficient is 1, so compare the full area integral instead
    assert num.area_integral == pytest.approx(ref.area_integral, rel=1e-6)
    with pytest.raises(DomainExceeded):
        sigma_lower_bound(1.0, _params(1.4), area, 1.0, 32.0)


def test_sigma_bound_sampled_area_is_one_rule_call_over_sample_panels(monkeypatch):
    # e = 1 and an area linear on each panel: int 1/(a + b t) is a log per
    # panel, which the panel rule approximates closely even on a coarse table.
    grid = np.array([1.0, 1.5, 3.0, 4.0, 8.0])
    values = np.array([2.0, 2.5, 7.0, 7.5, 10.0])
    area = SampledArea(grid, values)
    calls = _count_rule_calls(monkeypatch)
    rep = sigma_lower_bound(1.0, ProblemParams(dim=3, p=2.0, gamma=2.0), area, 1.25, 6.0)
    assert len(calls) == 1
    edges = [1.25, 1.5, 3.0, 4.0, 6.0]
    want = 0.0
    for a, b in zip(edges, edges[1:]):
        va, vb = np.interp([a, b], grid, values)
        want += (b - a) / (vb - va) * math.log(vb / va)
    assert rep.comparison_integral == pytest.approx(want, rel=1e-9)


def test_sigma_bound_guards():
    with pytest.raises(PreconditionViolation):
        sigma_lower_bound(0.0, _params(1.4), EuclideanArea(3), 1.0, 2.0)
    with pytest.raises(PreconditionViolation):
        sigma_lower_bound(1.0, _params(1.4), EuclideanArea(3), 2.0, 1.0)
    with pytest.raises(PreconditionViolation):
        sigma_lower_bound(1.0, _params(1.4), EuclideanArea(3), 1.0, 2.0, weight="bad")


def test_sigma_bound_weighted_variant_is_numerically_identical():
    plain = sigma_lower_bound(1.0, _params(1.4), EuclideanArea(3), 1.0, 10.0)
    weighted = sigma_lower_bound(
        1.0, _params(1.4), EuclideanArea(3), 1.0, 10.0, weight="exp"
    )
    assert weighted.weight == "exp"
    for field in ("lhs", "rhs", "constant_C", "comparison_integral", "area_integral"):
        assert getattr(weighted, field) == getattr(plain, field)


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


def test_contradiction_radius_supercritical_none():
    rep = find_contradiction_radius(1.0, _params(2.0), EuclideanArea(3), 1.0)
    assert rep is None


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
    assert verify_euclidean_witness(v, grid=np.linspace(0.05, 40.0, 800))[1]
    assert verify_euclidean_witness(v, grid=np.geomspace(0.05, 1e6, 400))[1]


def test_classify_euclidean_entire_witness_above_p():
    v = liouville_classify_euclidean(3, 2.0, 4.0)
    assert v.verdict is Verdict.NO_LIOUVILLE
    assert isinstance(v.witness, PowerProfile)
    report, ok = verify_euclidean_witness(v)
    assert ok
    assert report.max_abs_residual <= 1e-8


def test_classify_euclidean_gamma_equal_p():
    v = liouville_classify_euclidean(3, 2.0, 2.0)
    assert v.verdict is Verdict.NO_LIOUVILLE
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
        try:
            c, report = radial.bump_profile_scale(d, p, gamma, 1.0, grid)
        except NoAdmissibleScale as exc:
            assert "underflows" in str(exc) and scans == []
            assert log_c < -744.0, (d, p, gamma)  # below half the least subnormal
            underflowed += 1
            continue
        assert c > 0 and report.passed and len(scans) == 1, (d, p, gamma)
        assert log_c > -746.0, (d, p, gamma)
        verdict = liouville_classify_euclidean(d, p, gamma)
        assert verdict.witness.c == c
        witness_report, ok = verify_euclidean_witness(verdict)
        assert ok and witness_report.min_residual == report.min_residual
        certified += 1
    assert (certified, underflowed) == (1611, 83)


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
