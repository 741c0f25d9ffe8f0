"""Radial operator closed forms, the explicit solution families, and the
pointwise residual scanner."""

import math

import numpy as np
import pytest

from pdi_lab import radial
from pdi_lab.errors import (
    DegeneratePoint,
    DomainExceeded,
    NoAdmissibleScale,
    PreconditionViolation,
)
from pdi_lab.params import ProblemParams
from pdi_lab.radial import (
    BumpProfile,
    GeneralizedMeanCurvature,
    MeanCurvature,
    PLaplacian,
    PowerProfile,
    SampledProfile,
    bump_profile_scale,
    nonconstant_entire_profile,
    radial_operator,
    residual_scan,
    sharpness_profile,
)

ALL_KINDS = [PLaplacian(2.0), PLaplacian(3.0), MeanCurvature(), GeneralizedMeanCurvature(4.0)]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: type(k).__name__ + str(k.p))
def test_constant_profile_maps_to_zero(kind):
    flat = PowerProfile(c=0.0, a=0.5, shift=1.0)
    for r in (0.2, 1.0, 7.5):
        assert radial_operator(kind, flat, r, dim=3) == 0.0


def test_laplacian_of_r_squared():
    prof = PowerProfile(c=1.0, a=2.0)
    assert radial_operator(PLaplacian(2.0), prof, 1.0, dim=3) == pytest.approx(-6.0, abs=1e-14)


def test_shifted_family_closed_form_value():
    prof = sharpness_profile(3, 2.0, 4.0)
    c = prof.c
    # -(V'' + 2V'/r) for V = c(r^{2/3} - 1) collapses to -(10/9) c r^{-4/3}.
    want = -(10.0 / 9.0) * c * 0.5 ** (-4.0 / 3.0)
    got = radial_operator(PLaplacian(2.0), prof, 0.5, dim=3)
    assert got == pytest.approx(want, rel=1e-14)
    assert got > 0


def test_p2_matches_unweighted_second_order_form():
    prof = PowerProfile(c=-0.7, a=1.7)
    for r in np.geomspace(0.05, 20.0, 9):
        direct = -(prof.second_derivative(r) + 2.0 * prof.derivative(r) / r)
        assert radial_operator(PLaplacian(2.0), prof, r, dim=3) == pytest.approx(
            direct, rel=1e-13
        )


def test_vectorized_evaluation_matches_scalar():
    prof = sharpness_profile(4, 2.0, 3.0)
    rs = np.linspace(0.2, 0.9, 11)
    vec = radial_operator(PLaplacian(2.0), prof, rs, dim=4)
    scal = [radial_operator(PLaplacian(2.0), prof, float(r), dim=4) for r in rs]
    np.testing.assert_allclose(vec, scal, rtol=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: type(k).__name__ + str(k.p))
def test_flux_bound_with_nu_one(kind):
    s = np.geomspace(1e-6, 1e6, 121)
    a = np.abs(kind.flux(s))
    assert np.all(a <= s ** (kind.p - 1) * (1.0 + 1e-12))
    # odd symmetry
    np.testing.assert_allclose(kind.flux(-s), -kind.flux(s), rtol=1e-15)


def test_degenerate_and_zero_slope_semantics():
    # symmetric hump: slope vanishes exactly at the middle node
    g = np.linspace(0.1, 0.9, 41)
    hump = SampledProfile(g, 1.0 - (g - 0.5) ** 2)
    with pytest.raises(DegeneratePoint):
        radial_operator(PLaplacian(1.5), hump, 0.5, dim=3)
    # p = 2: the weight |V'|^{p-2} is identically 1, so the value is -V''
    assert radial_operator(PLaplacian(2.0), hump, 0.5, dim=3) == pytest.approx(2.0, rel=1e-6)
    # p > 2: the weight vanishes with the slope
    assert radial_operator(PLaplacian(3.0), hump, 0.5, dim=3) == 0.0


def test_sampled_profile_guards():
    with pytest.raises(PreconditionViolation):
        SampledProfile(np.array([0.1, 0.2, 0.3]), np.zeros(3))  # too short
    with pytest.raises(PreconditionViolation):
        SampledProfile(np.array([0.1, 0.3, 0.2, 0.4]), np.zeros(4))
    with pytest.raises(PreconditionViolation):
        SampledProfile(np.array([0.0, 0.1, 0.2, 0.3]), np.zeros(4))  # r = 0 node
    prof = SampledProfile(np.linspace(0.1, 1.0, 10), np.linspace(0.1, 1.0, 10))
    with pytest.raises(DomainExceeded):
        prof.derivative(0.55)  # derivatives live on nodes only
    with pytest.raises(DomainExceeded):
        prof.second_derivative(0.1)  # endpoint has no centered difference
    # values interpolate between nodes (consumers integrate off-node)
    assert prof.value(0.55) == pytest.approx(0.55)


def test_sampled_operator_converges_at_second_order():
    """Finite-difference re-evaluation of a closed-form profile tends to the
    closed-form operator value at O(h^2)."""
    prof = sharpness_profile(3, 2.0, 4.0)
    kind = PLaplacian(2.0)
    # eighths of [0.3, 0.9] are exact nodes of every grid size used below
    window = 0.3 + 0.6 * np.arange(1, 8) / 8.0
    exact = radial_operator(kind, prof, window, dim=3)
    errs = []
    sizes = (201, 401, 801)
    for n in sizes:
        g = np.linspace(0.3, 0.9, n)
        sampled = SampledProfile(g, prof.value(g))
        got = np.array([radial_operator(kind, sampled, float(r), dim=3) for r in window])
        errs.append(np.max(np.abs(got - exact)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.9


def test_sharpness_profile_334():
    prof = sharpness_profile(3, 2.0, 4.0)
    assert prof.a == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert abs(prof.c) ** 3 == pytest.approx(45.0 / 8.0, abs=1e-12)
    assert prof.c < 0


def test_sharpness_profile_gamma_three():
    prof = sharpness_profile(3, 2.0, 3.0)
    assert prof.a == pytest.approx(0.5, abs=1e-15)
    assert prof.c == pytest.approx(-2.0 * math.sqrt(1.5), rel=1e-14)


def test_sharpness_profile_guards():
    with pytest.raises(PreconditionViolation):
        sharpness_profile(3, 2.0, 2.0)  # gamma <= p
    with pytest.raises(PreconditionViolation):
        sharpness_profile(3, 3.5, 3.6)  # (dim-1)*gamma - dim*(p-1) < 0


def test_sharpness_residual_scan_is_equality():
    prof = sharpness_profile(3, 2.0, 4.0)
    params = ProblemParams(dim=3, p=2.0, gamma=4.0)
    grid = np.linspace(0.05, 0.95, 512)
    report = residual_scan(PLaplacian(2.0), prof, params, None, grid)
    assert report.passed
    assert report.max_abs_residual < 1e-8
    assert report.grid.size == 512


def test_zero_function_also_solves_the_zero_data_problem():
    # non-uniqueness: the trivial profile passes the same scan
    flat = PowerProfile(c=0.0, a=0.5, shift=1.0)
    params = ProblemParams(dim=3, p=2.0, gamma=4.0)
    report = residual_scan(PLaplacian(2.0), flat, params, None, np.linspace(0.05, 0.95, 64))
    assert report.passed
    assert report.max_abs_residual == 0.0


def test_residual_scan_flags_violations():
    # overscaled constant: the gradient term outgrows the diffusion term
    bad = PowerProfile(c=-10.0, a=2.0 / 3.0, shift=1.0)
    params = ProblemParams(dim=3, p=2.0, gamma=4.0)
    report = residual_scan(PLaplacian(2.0), bad, params, None, np.linspace(0.1, 0.9, 64), tol=0.0)
    assert not report.passed
    assert report.min_residual < 0


def test_entire_profile_supernatural_range():
    prof = nonconstant_entire_profile(3, 2.0, 4.0)
    sharp = sharpness_profile(3, 2.0, 4.0)
    assert prof.a == pytest.approx(sharp.a, abs=1e-15)
    params = ProblemParams(dim=3, p=2.0, gamma=4.0)
    grid = np.geomspace(0.1, 50.0, 400)
    report = residual_scan(PLaplacian(2.0), prof.negated(), params, None, grid)
    assert report.passed
    assert report.max_abs_residual < 1e-8


def test_entire_profile_between_threshold_and_p():
    """For gamma inside (gamma*, p) the balancing exponent is negative: only
    a = (gamma-p)/(gamma-(p-1)) makes the two terms of the equation scale
    with the same power of r."""
    prof = nonconstant_entire_profile(3, 2.0, 1.8)
    assert prof.a == pytest.approx(-0.25, abs=1e-12)
    params = ProblemParams(dim=3, p=2.0, gamma=1.8)
    grid = np.geomspace(0.2, 30.0, 300)
    report = residual_scan(PLaplacian(2.0), prof.negated(), params, None, grid)
    assert report.passed
    assert report.max_abs_residual < 1e-8


def test_entire_profile_guards():
    with pytest.raises(PreconditionViolation):
        nonconstant_entire_profile(3, 2.0, 1.4)  # below threshold
    with pytest.raises(PreconditionViolation):
        nonconstant_entire_profile(3, 2.0, 2.0)  # gamma = p has no power witness


def test_bump_scale_exists_above_threshold():
    grid = np.linspace(0.05, 10.0, 300)
    c, report = bump_profile_scale(3, 2.0, 1.8, 1.0, grid)
    assert c > 0
    assert report.passed
    assert report.min_residual >= 0


def _bump_scan(dim, p, gamma, scale, grid, c_h=1.0):
    delta = (p - gamma) / (gamma - (p - 1))
    params = ProblemParams(dim=dim, p=p, gamma=gamma, c_h=c_h)
    return residual_scan(PLaplacian(p), BumpProfile(scale, delta), params, None, grid, tol=0.0)


# A/(c_h B) falls towards its limit like 1/r^2, so a scale 1e-9 too large
# first fails near r ~ 1e5.
FAR_GRID = np.geomspace(0.05, 1e6, 400)


@pytest.mark.parametrize(
    "dim,p,gamma", [(3, 2.0, 1.6), (3, 2.0, 1.8), (3, 2.0, 1.95), (4, 3.0, 2.8)]
)
def test_bump_scale_is_the_largest_passing_scale(monkeypatch, dim, p, gamma):
    scans = []
    monkeypatch.setattr(
        radial, "residual_scan", lambda *a, **k: scans.append(1) or residual_scan(*a, **k)
    )
    c, report = bump_profile_scale(dim, p, gamma, 1.0, FAR_GRID)
    monkeypatch.undo()
    assert len(scans) == 1  # one certificate of the closed form, not a search
    # the certificate is the unit bump's scan with gradient constant c^(gamma-p+1)
    unit = _bump_scan(dim, p, gamma, 1.0, FAR_GRID, c_h=c ** (gamma - (p - 1)))
    assert report.passed and report.min_residual == unit.min_residual
    # scanned directly at scale c, the witness passes, and 1e-9 more fails
    assert _bump_scan(dim, p, gamma, c, FAR_GRID).passed
    assert not _bump_scan(dim, p, gamma, c * (1.0 + 1e-9), FAR_GRID).passed


@pytest.mark.parametrize(
    "dim,p,gamma", [(3, 2.0, 1.6), (3, 2.0, 1.8), (3, 2.0, 1.95), (4, 3.0, 2.8)]
)
def test_bump_scale_holds_beyond_its_build_grid(dim, p, gamma):
    c, _ = bump_profile_scale(dim, p, gamma, 1.0, np.linspace(0.05, 10.0, 300))
    assert c == bump_profile_scale(dim, p, gamma, 1.0, FAR_GRID)[0]
    assert _bump_scan(dim, p, gamma, c, FAR_GRID).passed


def test_grid_limited_bump_scale_fails_beyond_the_grid():
    # 0.27658346079093826 is the largest scale passing on [0.05, 10] at
    # (3, 2, 1.6), what a bisection over that grid converged to.
    c, _ = bump_profile_scale(3, 2.0, 1.6, 1.0, np.linspace(0.05, 10.0, 300))
    assert c < 0.27658346079093826
    assert _bump_scan(3, 2.0, 1.6, 0.27658346079093826, np.linspace(0.05, 10.0, 300)).passed
    assert not _bump_scan(3, 2.0, 1.6, 0.27658346079093826, FAR_GRID).passed


def test_bump_scale_absent_below_threshold():
    grid = np.linspace(0.05, 10.0, 300)
    with pytest.raises(NoAdmissibleScale):
        bump_profile_scale(3, 2.0, 1.4, 1.0, grid)


def test_bump_scale_stops_before_the_scale_underflows(monkeypatch):
    scanned = []

    def recording_scan(kind, profile, *args, **kwargs):
        scanned.append(profile.c)
        return residual_scan(kind, profile, *args, **kwargs)

    monkeypatch.setattr(radial, "residual_scan", recording_scan)
    grid = np.linspace(0.05, 10, 300)
    # gamma = 0.225 lies a few ulp above gamma* = 0.22499999999999992: the
    # closed-form scale is subnormal, about 4.55e-316, and one scan of the
    # unit bump certifies it.
    c, report = bump_profile_scale(5, 1.18, 0.225, 1.0, grid)
    assert 0 < c < 1e-315 and c == pytest.approx(4.55e-316, rel=1e-2)
    assert report.passed
    assert scanned == [1.0]
    # gamma = 0.0125000001 is 1e-10 above gamma* at (5, 1.01): the scale
    # rounds to 0, and there is nothing to scan.
    scanned.clear()
    with pytest.raises(NoAdmissibleScale, match="underflows"):
        bump_profile_scale(5, 1.01, 0.0125000001, 1.0, grid)
    assert scanned == []


def test_bump_certificate_stops_where_the_unit_slope_underflows():
    # delta is about 399 at (7, 1.01, 0.0125000001): the unit bump's slope
    # leaves the normal floats near r = 5.6, and |w'|^(p-2) would overflow
    # past it; the scale itself is about 6.5e117.
    dim, p, gamma = 7, 1.01, 0.0125000001
    grid = np.linspace(0.05, 10.0, 300)
    c, report = bump_profile_scale(dim, p, gamma, 1.0, grid)
    assert c > 1e100 and report.passed
    kept = report.grid.size
    assert 0 < kept < grid.size and np.array_equal(report.grid, grid[:kept])
    slope = np.abs(BumpProfile(1.0, (p - gamma) / (gamma - (p - 1))).derivative(grid))
    assert slope[kept - 1] >= np.finfo(float).tiny > slope[kept]
    with pytest.raises(NoAdmissibleScale, match="whole scan grid"):
        bump_profile_scale(dim, p, gamma, 1.0, np.linspace(20.0, 30.0, 5))


def test_bump_scale_guards():
    grid = np.linspace(0.05, 10.0, 300)
    with pytest.raises(PreconditionViolation):
        bump_profile_scale(3, 2.0, 2.0, 1.0, grid)  # gamma = p degenerates
    with pytest.raises(PreconditionViolation):
        bump_profile_scale(3, 2.0, 2.5, 1.0, grid)  # gamma > p unbounded profile


def test_bump_profile_shape():
    prof = BumpProfile(c=1.0, delta=0.25)
    assert prof.value(0.0) == pytest.approx(1.0)
    assert prof.derivative(1.0) < 0
    # finite-difference cross-check of the second derivative
    h = 1e-4
    fd = (prof.value(0.7 + h) - 2 * prof.value(0.7) + prof.value(0.7 - h)) / h**2
    assert prof.second_derivative(0.7) == pytest.approx(fd, rel=1e-6)


def test_negation_flips_sign_everywhere():
    prof = sharpness_profile(3, 2.0, 4.0)
    neg = prof.negated()
    rs = np.linspace(0.2, 0.9, 5)
    np.testing.assert_allclose(neg.value(rs), -prof.value(rs), rtol=1e-15)
    np.testing.assert_allclose(neg.derivative(rs), -prof.derivative(rs), rtol=1e-15)
