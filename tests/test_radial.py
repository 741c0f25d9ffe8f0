"""Radial operator closed forms, the explicit solution families, and the
pointwise residual scanner."""

import decimal
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest

from pdi_lab import radial
from pdi_lab.audit import gradient_energy
from pdi_lab.errors import (
    DegeneratePoint,
    DomainExceeded,
    NoAdmissibleScale,
    PreconditionViolation,
)
from pdi_lab.liouville import SampledArea, liouville_classify_euclidean, verify_euclidean_witness
from pdi_lab.params import ProblemParams, _critical_gamma, _growth_gap
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
from pdi_lab.solver import DiscreteRadialSolution, SampledSource

ALL_KINDS = [PLaplacian(2.0), PLaplacian(3.0), MeanCurvature(), GeneralizedMeanCurvature(4.0)]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_constant_profile_maps_to_zero(p):
    flat = PowerProfile(c=0.0, a=0.5, shift=1.0)
    for r in (0.2, 1.0, 7.5):
        assert radial_operator(p, flat, r, dim=3) == 0.0


def test_laplacian_of_r_squared():
    prof = PowerProfile(c=1.0, a=2.0)
    assert radial_operator(2.0, prof, 1.0, dim=3) == pytest.approx(-6.0, abs=1e-14)


def test_shifted_family_closed_form_value():
    prof = sharpness_profile(3, 2.0, 4.0)
    c = prof.c
    # -(V'' + 2V'/r) for V = c(r^{2/3} - 1) collapses to -(10/9) c r^{-4/3}.
    want = -(10.0 / 9.0) * c * 0.5 ** (-4.0 / 3.0)
    got = radial_operator(2.0, prof, 0.5, dim=3)
    assert got == pytest.approx(want, rel=1e-14)
    assert got > 0


def test_p2_matches_unweighted_second_order_form():
    prof = PowerProfile(c=-0.7, a=1.7)
    for r in np.geomspace(0.05, 20.0, 9):
        direct = -(prof.second_derivative(r) + 2.0 * prof.derivative(r) / r)
        assert radial_operator(2.0, prof, r, dim=3) == pytest.approx(
            direct, rel=1e-13
        )


def test_vectorized_evaluation_matches_scalar():
    prof = sharpness_profile(4, 2.0, 3.0)
    rs = np.linspace(0.2, 0.9, 11)
    vec = radial_operator(2.0, prof, rs, dim=4)
    scal = [radial_operator(2.0, prof, float(r), dim=4) for r in rs]
    np.testing.assert_allclose(vec, scal, rtol=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: type(k).__name__ + str(k.p))
def test_flux_bound_with_nu_one(kind):
    s = np.geomspace(1e-6, 1e6, 121)
    a = np.abs(kind.flux(s))
    assert np.all(a <= s ** (kind.p - 1) * (1.0 + 1e-12))
    # odd symmetry
    np.testing.assert_allclose(kind.flux(-s), -kind.flux(s), rtol=1e-15)


@pytest.mark.parametrize("k", [2.0, 2.0 + 1e-12, 2.0001, 3.0])
def test_gmc_gamma_floor_is_continuous_in_k(k):
    # gmc:k admits gamma > k/2 - 1, mean curvature (k = 2) every gamma > 0,
    # each through an order p with |a(s)| <= |s|^(p-1) and gamma > p - 1.
    kind = GeneralizedMeanCurvature(k)
    s = np.geomspace(1e-6, 1e6, 121)
    for gamma in (-0.5, 0.0, 1e-9, 1e-3, 0.5, 0.9, 1.0, 1.5, 3.0):
        if gamma > k / 2.0 - 1.0:
            p = kind.order_for(gamma)
            ProblemParams(dim=3, p=p, gamma=gamma)
            assert np.all(np.abs(kind.flux(s)) <= s ** (p - 1.0) * (1.0 + 1e-12))
        else:
            with pytest.raises(PreconditionViolation, match="^gamma must"):
                ProblemParams(dim=3, p=kind.order_for(gamma), gamma=gamma)
    assert MeanCurvature().order_for(0.5) == GeneralizedMeanCurvature(2.0).order_for(0.5)


def _gmc_derivative_reference(k: float, s: float, eps: float) -> float:
    """q^(k-4) (1+q^k)^(-3/2) [eps^2 + (k-1) s^2 + q^k (eps^2 + (k/2-1) s^2)],
    q^2 = s^2 + eps^2, in 40-digit decimal arithmetic from the exact floats."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        k, s2, e2 = Decimal(k), Decimal(s) ** 2, Decimal(eps) ** 2
        q2 = s2 + e2
        qk = q2 ** (k / 2)
        bracket = e2 + (k - 1) * s2 + qk * (e2 + (k / 2 - 1) * s2)
        return float(q2 ** (k / 2 - 2) * (1 + qk) ** Decimal("-1.5") * bracket)


@pytest.mark.parametrize("k", [2.0, 2.5, 4.0, 8.0])
@pytest.mark.parametrize("eps", [0.0, 1e-10])
def test_gmc_flux_derivative_matches_a_40_digit_evaluation(k, eps):
    # The form has no cancelling terms, so it keeps every digit from slope
    # 1e-8 to 1e8; the earlier g + (s^2/q) g' form lost all of them at 1e8.
    s = np.geomspace(1e-8, 1e8, 161)
    s = np.concatenate((-s, s))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = GeneralizedMeanCurvature(k).flux_derivative(s, eps)
    assert np.all(np.isfinite(got))
    want = np.array([_gmc_derivative_reference(k, x, eps) for x in s.tolist()])
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("k", [2.0, 2.5, 4.0, 8.0])
def test_gmc_flux_derivative_at_zero_slope(k):
    # q = 0 only without regularization: the limit is 1 for k = 2, else 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = GeneralizedMeanCurvature(k).flux_derivative(np.array([0.0, -0.0]))
    assert got.tolist() == 2 * [1.0 if k == 2.0 else 0.0]


def test_mean_curvature_is_gmc_two():
    # One flux: the class keeps p = 2 and binds the gmc kernels, which
    # read k = 2.
    mc = MeanCurvature()
    assert isinstance(mc, GeneralizedMeanCurvature) and mc.k == 2.0 and mc.p == 2.0
    assert MeanCurvature.flux is GeneralizedMeanCurvature.flux
    assert MeanCurvature.flux_derivative is GeneralizedMeanCurvature.flux_derivative
    s = np.geomspace(1e-6, 1e6, 61)
    for eps in (0.0, 1e-10):
        assert mc.flux(s, eps).tobytes() == (s / np.sqrt(1.0 + s * s)).tobytes()
        assert mc.flux_derivative(s, eps).tobytes() == ((1.0 + s * s) ** -1.5).tobytes()


class _Hump:
    """V = 1 - (r - 1/2)^2: V' = -2 (r - 1/2) vanishes at r = 1/2, V'' = -2."""

    def value(self, r):
        return 1.0 - (np.asarray(r, dtype=float) - 0.5) ** 2

    def derivative(self, r):
        return -2.0 * (np.asarray(r, dtype=float) - 0.5)

    def second_derivative(self, r):
        return np.full_like(np.asarray(r, dtype=float), -2.0)


def test_degenerate_and_zero_slope_semantics():
    hump = _Hump()
    with pytest.raises(DegeneratePoint):
        radial_operator(1.5, hump, 0.5, dim=3)
    # p = 2: the weight |V'|^{p-2} is identically 1, so the value is -V''
    assert radial_operator(2.0, hump, 0.5, dim=3) == pytest.approx(2.0, rel=1e-6)
    # p > 2: the weight vanishes with the slope
    assert radial_operator(3.0, hump, 0.5, dim=3) == 0.0


def test_sampled_profile_guards():
    # Two nodes and a first node at r = 0 (a ball solve's grid) are data.
    assert SampledProfile([0.0, 1.0], [1.0, 3.0]).value(0.25) == 1.5
    prof = SampledProfile(np.linspace(0.1, 1.0, 10), np.linspace(0.1, 1.0, 10))
    # values interpolate between nodes (consumers integrate off-node)
    assert prof.value(0.55) == pytest.approx(0.55)


@pytest.mark.parametrize("call, message", [
    (lambda: PowerProfile(c=1.0, a=0.0), "needs a != 0"),
    (lambda: BumpProfile(1.0, 0.0), "needs delta > 0"),
    (lambda: GeneralizedMeanCurvature(1.5), "needs k >= 2"),
    (lambda: radial_operator(2.0, PowerProfile(1.0, 2.0), 0.0, 3), "radii r > 0"),
    (lambda: radial_operator(2.0, PowerProfile(1.0, 2.0), math.nan, 3), "radii r > 0"),
    (lambda: residual_scan(sharpness_profile(3, 2.0, 4.0), ProblemParams(3, 2.0, 4.0), [0.5, math.nan]),
     "radii r > 0"),
    # A dimension is refused by the shared rule before it enters a formula,
    # where 0 read NaN, -1 read -inf and 2.5 read a number.
    (lambda: gradient_energy(SampledProfile([0.0, 1.0], [0.0, 1.0]), 2.0, 0.5, 0), "dim must be an integer"),
    (lambda: radial_operator(2.0, PowerProfile(1.0, 2.0), 0.5, 2.5), "dim must be an integer"),
    (lambda: sharpness_profile(0, 2.0, 4.0), "dim must be an integer"),
    (lambda: nonconstant_entire_profile(-1, 2.0, 4.0), "dim must be an integer"),
    (lambda: bump_profile_scale(0, 2.0, 1.8, 1.0), "dim must be an integer"),
], ids=["power-a0", "bump-delta0", "gmc-k1.5", "operator-at-0", "operator-at-nan", "scan-at-nan",
        "energy-dim0", "operator-dim2.5", "sharp-dim0", "entire-dim-1",
        "bump-scale-dim0"])
def test_profiles_operators_and_scans_refuse_what_they_cannot_evaluate(call, message):
    with pytest.raises(PreconditionViolation, match=message):
        call()


_BAD_SAMPLES = [
    ([0.5], [1.0], "at least 2 nodes"),
    ([[0.1, 0.2]], [[1.0, 1.0]], "at least 2 nodes"),
    ([0.1, 0.2, 0.3], [1.0, 1.0], "equal length"),
    ([0.1, 0.2], [1.0, math.nan], "finite"),
    ([0.1, math.inf], [1.0, 1.0], "finite"),
    ([0.2, 0.1], [1.0, 1.0], "strictly increasing"),
    ([0.1, 0.1, 0.3], [1.0, 1.0, 1.0], "strictly increasing"),
    ([-0.1, 0.2], [1.0, 1.0], r"radii must be finite and >= 0, got -0.1"),
]


@pytest.mark.parametrize("grid, values, message", _BAD_SAMPLES,
                         ids=["one-node", "2-d", "lengths", "nan", "inf", "decreasing",
                              "repeated", "negative-radius"])
@pytest.mark.parametrize("build", [SampledProfile, SampledSource, SampledArea],
                         ids=lambda b: b.__name__)
def test_every_sampled_input_shares_one_rule(build, grid, values, message):
    with pytest.raises(PreconditionViolation, match=f"{build.what}.*{message}"):
        build(grid, values)
    build([0.0, 1.0], [1.0, 2.0])  # the smallest admissible data, from r = 0


_READS = {
    "profile": lambda grid, values, r: SampledProfile(grid, values).value(r),
    "source": lambda grid, values, r: SampledSource(grid, values)(r),
    "area": lambda grid, values, r: SampledArea(grid, values).value(r),
    "solution": lambda grid, values, r: DiscreteRadialSolution(
        np.asarray(grid), np.asarray(values), ProblemParams(3, 2.0, 2.0), PLaplacian(2.0), {}).value(r),
    "energy": lambda grid, values, r: gradient_energy(SampledProfile(grid, values), 2.0, r, 3),
}


@pytest.mark.parametrize("read", _READS.values(), ids=_READS)
def test_every_sampled_read_shares_one_span_rule(read):
    # Data is read on [grid[0], grid[-1]] exactly: the ends pass, and the
    # next float past either end, or NaN, raises.
    grid, values = [0.5, 1.0, 2.0], [1.0, 2.0, 4.0]
    for r in (0.5, 2.0):
        read(grid, values, r)
    for r in (math.nextafter(0.5, 0.0), math.nextafter(2.0, 3.0)):
        with pytest.raises(DomainExceeded, match=r"queried outside its grid \[0\.5, 2\.0\]$"):
            read(grid, values, r)
    with pytest.raises(DomainExceeded):
        read(grid, values, math.nan)


@pytest.mark.parametrize("values", [[1.0, 0.0], [1.0, -1.0]])
def test_sampled_area_values_must_be_positive(values):
    with pytest.raises(PreconditionViolation, match="strictly positive"):
        SampledArea([1.0, 2.0], values)


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


@pytest.mark.parametrize(
    "dim, p, gamma, c_h", [(3, 2.0, 4.0, 2.0), (3, 2.0, 4.0, 1e-3), (5, 3.0, 5.0, 7.0), (4, 1.5, 3.0, 0.5)]
)
def test_sharpness_profile_solves_the_equation_with_its_c_h(dim, p, gamma, c_h):
    # k u solves -Delta_p v = c_h |Dv|^gamma for k = c_h^(-1/(gamma-p+1)),
    # and c_h = 1 keeps the default's bits.
    prof = sharpness_profile(dim, p, gamma, c_h)
    unit = sharpness_profile(dim, p, gamma)
    assert sharpness_profile(dim, p, gamma, 1.0) == unit
    assert prof.a == unit.a
    assert prof.c == pytest.approx(unit.c * c_h ** (-1.0 / (gamma - (p - 1))), rel=1e-15)
    params = ProblemParams(dim=dim, p=p, gamma=gamma, c_h=c_h)
    report = residual_scan(prof, params, np.linspace(0.05, 0.95, 512))
    assert report.max_abs_residual <= 3.5e-13


@pytest.mark.parametrize("c_h", [0.0, -1.0, math.nan, math.inf, 5e-324])
def test_sharpness_profile_refuses_its_c_h(c_h):
    # 5e-324^(-1/1.001) is past the float range
    with pytest.raises(PreconditionViolation):
        sharpness_profile(3, 2.0, 2.001, c_h)


def test_sharpness_residual_scan_is_equality():
    prof = sharpness_profile(3, 2.0, 4.0)
    params = ProblemParams(dim=3, p=2.0, gamma=4.0)
    grid = np.linspace(0.05, 0.95, 512)
    report = residual_scan(prof, params, grid)
    assert report.passed
    assert report.max_abs_residual < 1e-8
    assert report.grid.size == 512


def test_zero_function_also_solves_the_zero_data_problem():
    # non-uniqueness: the trivial profile passes the same scan
    flat = PowerProfile(c=0.0, a=0.5, shift=1.0)
    params = ProblemParams(dim=3, p=2.0, gamma=4.0)
    report = residual_scan(flat, params, np.linspace(0.05, 0.95, 64))
    assert report.passed
    assert report.max_abs_residual == 0.0


class _CountingDerivatives:
    def __init__(self, inner):
        self.inner, self.calls = inner, []

    def value(self, r):
        return self.inner.value(r)

    def derivative(self, r):
        self.calls.append("V'")
        return self.inner.derivative(r)

    def second_derivative(self, r):
        self.calls.append("V''")
        return self.inner.second_derivative(r)


@pytest.mark.parametrize("profile, dim, p, gamma, lam", [
    (BumpProfile(1.0, 0.25), 3, 2.0, 1.8, 0.0),
    (BumpProfile(0.3, 2.0), 4, 1.5, 1.0, 1.0),
    (PowerProfile(-4.0, -0.25), 3, 2.0, 1.8, 0.0),
    (sharpness_profile(5, 3.0, 5.0), 5, 3.0, 5.0, 0.5),
    (PowerProfile(0.0, 0.5, shift=1.0), 3, 2.0, 4.0, 0.0),
], ids=["bump", "bump-p1.5-lam", "entire", "sharp-p3", "flat"])
def test_residual_scan_evaluates_each_derivative_once(profile, dim, p, gamma, lam):
    # The residual -Delta_p V - c_h |V'|^gamma + lam V keeps the bits of its
    # evaluation through radial_operator, which takes V' and V'' itself.
    params = ProblemParams(dim=dim, p=p, gamma=gamma, lam=lam, c_h=2.5)
    grid = np.geomspace(0.05, 20.0, 257)
    counted = _CountingDerivatives(profile)
    report = residual_scan(counted, params, grid)
    assert sorted(counted.calls) == ["V'", "V''"]
    want = (radial_operator(p, profile, grid, dim) - 2.5 * np.abs(profile.derivative(grid)) ** gamma
            + lam * profile.value(grid))
    assert np.array_equal(report.residuals, want)


def test_residual_scan_flags_violations():
    # overscaled constant: the gradient term outgrows the diffusion term
    bad = PowerProfile(c=-10.0, a=2.0 / 3.0, shift=1.0)
    params = ProblemParams(dim=3, p=2.0, gamma=4.0)
    report = residual_scan(bad, params, np.linspace(0.1, 0.9, 64), tol=0.0)
    assert not report.passed
    assert report.min_residual < 0


def test_entire_profile_supernatural_range():
    prof = nonconstant_entire_profile(3, 2.0, 4.0)
    sharp = sharpness_profile(3, 2.0, 4.0)
    assert prof.a == pytest.approx(sharp.a, abs=1e-15)
    params = ProblemParams(dim=3, p=2.0, gamma=4.0)
    grid = np.geomspace(0.1, 50.0, 400)
    report = residual_scan(PowerProfile(-prof.c, prof.a), params, grid)
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
    report = residual_scan(PowerProfile(-prof.c, prof.a), params, grid)
    assert report.passed
    assert report.max_abs_residual < 1e-8


def test_entire_profile_guards():
    with pytest.raises(PreconditionViolation):
        nonconstant_entire_profile(3, 2.0, 1.4)  # below threshold
    with pytest.raises(PreconditionViolation):
        nonconstant_entire_profile(3, 2.0, 2.0)  # gamma = p has no power witness


def test_bump_scale_exists_above_threshold():
    grid = np.linspace(0.05, 10.0, 300)
    c = bump_profile_scale(3, 2.0, 1.8, 1.0)
    report, ok = radial._certify_witness(3, 2.0, 1.8, True, grid)
    assert c > 0
    assert ok and report.passed
    assert report.min_residual >= 0


def _bump_scan(dim, p, gamma, scale, grid, c_h=1.0):
    delta = (p - gamma) / (gamma - (p - 1))
    params = ProblemParams(dim=dim, p=p, gamma=gamma, c_h=c_h)
    return residual_scan(BumpProfile(scale, delta), params, grid, tol=0.0)


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
    c = bump_profile_scale(dim, p, gamma, 1.0)
    assert not scans  # the closed form builds the scale, no scan, no search
    report, _ = radial._certify_witness(dim, p, gamma, True, FAR_GRID)
    monkeypatch.undo()
    assert len(scans) == 1
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
    c = bump_profile_scale(dim, p, gamma, 1.0)
    assert _bump_scan(dim, p, gamma, c, np.linspace(0.05, 10.0, 300)).passed
    assert _bump_scan(dim, p, gamma, c, FAR_GRID).passed


def test_grid_limited_bump_scale_fails_beyond_the_grid():
    # 0.27658346079093826 is the largest scale passing on [0.05, 10] at
    # (3, 2, 1.6), what a bisection over that grid converged to.
    c = bump_profile_scale(3, 2.0, 1.6, 1.0)
    assert c < 0.27658346079093826
    assert _bump_scan(3, 2.0, 1.6, 0.27658346079093826, np.linspace(0.05, 10.0, 300)).passed
    assert not _bump_scan(3, 2.0, 1.6, 0.27658346079093826, FAR_GRID).passed


def test_bump_scale_absent_below_threshold():
    with pytest.raises(NoAdmissibleScale):
        bump_profile_scale(3, 2.0, 1.4, 1.0)


@pytest.mark.parametrize("dim,p", [(3, 2.0), (4, 2.0), (4, 2.5), (5, 3.0)])
def test_witness_constructors_refuse_exactly_the_critical_exponent(dim, p):
    # At gamma* itself the growth gap is 0 and no witness scale exists:
    # both constructors refuse with the library's own error there and one
    # ulp below, not with the math domain error of the scale's logarithm.
    # One ulp above, both build a finite witness.
    gamma_star = _critical_gamma(dim, p)
    for gamma in (math.nextafter(gamma_star, -math.inf), gamma_star):
        with pytest.raises(PreconditionViolation, match="entire profile needs gamma >"):
            nonconstant_entire_profile(dim, p, gamma)
        with pytest.raises(NoAdmissibleScale, match="not above the critical exponent"):
            bump_profile_scale(dim, p, gamma, 1.0)
    above = math.nextafter(gamma_star, math.inf)
    assert math.isfinite(nonconstant_entire_profile(dim, p, above).c)
    assert 0.0 < bump_profile_scale(dim, p, above, 1.0) < math.inf


def _log10_bump_scale(dim, p, gamma, c_h):
    """log10 of the closed-form bump scale, in logs so it cannot leave the
    float range."""
    delta = (p - gamma) / (gamma - (p - 1))
    g = (dim - 1) * (gamma - dim * (p - 1) / (dim - 1)) / (gamma - (p - 1))
    log_k = (p - 1 - gamma) * math.log(delta) + math.log(g) - math.log(c_h)
    return log_k / (gamma - (p - 1)) / math.log(10.0)


def test_bump_scale_below_the_float_range_is_certified_at_unit_scale(monkeypatch):
    scanned = []

    def recording_scan(profile, *args, **kwargs):
        scanned.append(profile.c)
        return residual_scan(profile, *args, **kwargs)

    monkeypatch.setattr(radial, "residual_scan", recording_scan)
    grid = np.linspace(0.05, 10, 300)
    # gamma = 0.225 lies a few ulp above gamma* = 0.22499999999999992: the
    # closed-form scale is subnormal, about 4.55e-316, and one scan of the
    # unit bump checks it.
    c = bump_profile_scale(5, 1.18, 0.225, 1.0)
    assert 0 < c < 1e-315 and c == pytest.approx(4.55e-316, rel=1e-2)
    assert radial._certify_witness(5, 1.18, 0.225, True, grid)[1]
    assert scanned == [1.0]
    # gamma = 0.0125000001 is 1e-10 above gamma* at (5, 1.01): the scale,
    # about 10^-2721, rounds to 0, its log10 stays finite, and the same one
    # scan of the unit bump checks it.
    scanned.clear()
    c = bump_profile_scale(5, 1.01, 0.0125000001, 1.0)
    assert c == 0.0 and scanned == []
    assert radial._certify_witness(5, 1.01, 0.0125000001, True, grid)[1] and scanned == [1.0]
    log10_c = radial._witness_scale(5, 1.01, 0.0125000001, 1.0, bounded=True)[1]
    assert log10_c == pytest.approx(_log10_bump_scale(5, 1.01, 0.0125000001, 1.0), rel=1e-12)
    assert -2722 < log10_c < -2720


@pytest.mark.parametrize("c_h", [1e-300, 5e-324])
def test_bump_scale_above_the_float_range_is_certified_at_unit_scale(monkeypatch, c_h):
    # At (3, 2, 1.8) c = (delta^(p-1-gamma) g / c_h)^5 exceeds the float
    # range for c_h = 1e-300 and for c_h = 5e-324 (where K / c_h itself is
    # inf): c is inf, its log10 is finite, and the certificate, which reads
    # neither c nor c_h, is the one of c_h = 1.
    grid = np.linspace(0.05, 10.0, 300)
    assert 1e250 < bump_profile_scale(3, 2.0, 1.8, 1e-200) < math.inf
    unit, ok = radial._certify_witness(3, 2.0, 1.8, True, grid)
    assert ok
    scanned = []
    monkeypatch.setattr(
        radial, "residual_scan", lambda *a, **k: scanned.append(a) or residual_scan(*a, **k)
    )
    c = bump_profile_scale(3, 2.0, 1.8, c_h)
    assert c == math.inf and scanned == []
    verdict = liouville_classify_euclidean(3, 2.0, 1.8, c_h=c_h)
    report, ok = verify_euclidean_witness(verdict)
    assert verdict.witness.c == c and len(scanned) == 1
    assert ok and report.min_residual == unit.min_residual
    log10_c = radial._witness_scale(3, 2.0, 1.8, c_h, bounded=True)[1]
    assert log10_c == pytest.approx(_log10_bump_scale(3, 2.0, 1.8, c_h), rel=1e-12)


def test_bump_certificate_stops_where_the_unit_slope_underflows():
    # delta is about 399 at (7, 1.01, 0.0125000001): the unit bump's slope
    # leaves the normal floats near r = 5.6, and |w'|^(p-2) would overflow
    # past it; the scale itself is about 6.5e117.
    dim, p, gamma = 7, 1.01, 0.0125000001
    grid = np.linspace(0.05, 10.0, 300)
    assert bump_profile_scale(dim, p, gamma, 1.0) > 1e100
    report, ok = radial._certify_witness(dim, p, gamma, True, grid)
    assert ok and report.passed
    kept = report.grid.size
    assert 0 < kept < grid.size and np.array_equal(report.grid, grid[:kept])
    slope = np.abs(BumpProfile(1.0, (p - gamma) / (gamma - (p - 1))).derivative(grid))
    assert slope[kept - 1] >= np.finfo(float).tiny > slope[kept]
    with pytest.raises(NoAdmissibleScale, match="whole scan grid"):
        radial._certify_witness(dim, p, gamma, True, np.linspace(20.0, 30.0, 5))


def test_bump_scale_guards():
    with pytest.raises(PreconditionViolation):
        bump_profile_scale(3, 2.0, 2.0, 1.0)  # gamma = p degenerates
    with pytest.raises(PreconditionViolation):
        bump_profile_scale(3, 2.0, 2.5, 1.0)  # gamma > p unbounded profile


def test_bump_residual_is_the_closed_form_certificate():
    # With x = 1/r^2, m = (p-gamma)/2 and c_b = (dim+p-2)/g, the unit bump's
    # residual is K |w'|^gamma mu(x), mu(x) = (1+x)^(-m) (1+c_b x) - 1,
    # positive for every x > 0 once c_b > 1 > m.
    rng = np.random.default_rng(28)
    grid = np.linspace(0.05, 10.0, 300)
    points = 0
    while points < 2000:
        dim, p = int(rng.integers(3, 11)), float(rng.uniform(1.05, 6.0))
        gamma_star = _critical_gamma(dim, p)
        gamma = float(rng.uniform(gamma_star, p)) if gamma_star < p else p
        if not gamma_star < gamma < p:
            continue
        m, c_b = (p - gamma) / 2, (dim + p - 2) / _growth_gap(dim, p, gamma)
        assert c_b > 1 > m, (dim, p, gamma)
        a, K = radial._witness_constants(dim, p, gamma, True)
        report, ok = radial._certify_witness(dim, p, gamma, True, grid)
        r = report.grid
        x = 1.0 / r**2
        mu = np.expm1(np.log1p(c_b * x) - m * np.log1p(x))
        want = K * np.abs(BumpProfile(1.0, -a).derivative(r)) ** gamma * mu
        assert ok and np.all(mu > 0), (dim, p, gamma)
        np.testing.assert_allclose(report.residuals, want, rtol=1e-12, atol=0)
        points += 1


def test_bump_profile_shape():
    prof = BumpProfile(c=1.0, delta=0.25)
    assert prof.value(0.0) == pytest.approx(1.0)
    assert prof.derivative(1.0) < 0
    # finite-difference cross-check of the second derivative
    h = 1e-4
    fd = (prof.value(0.7 + h) - 2 * prof.value(0.7) + prof.value(0.7 - h)) / h**2
    assert prof.second_derivative(0.7) == pytest.approx(fd, rel=1e-6)
