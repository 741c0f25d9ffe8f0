"""Energy quadrature, Caccioppoli growth audit, Holder fits, Morrey norms."""

import math
import warnings

import numpy as np
import pytest

from pdi_lab import audit
from pdi_lab.audit import (
    caccioppoli_audit,
    gradient_energy,
    holder_fit,
    morrey_norm,
    unit_ball_volume,
)
from pdi_lab.errors import (
    DomainExceeded,
    InsufficientScales,
    NonIntegrable,
    PreconditionViolation,
)
from pdi_lab.params import ProblemParams
from pdi_lab.radial import PowerProfile, SampledProfile, sharpness_profile
from pdi_lab.solver import (
    RadialPowerSource,
    SampledSource,
    SolverConfig,
    ZeroSource,
    solve_radial_dirichlet,
)
from pdi_lab.radial import PLaplacian


def test_unit_ball_volumes():
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0)


def test_energy_of_unit_slope_is_ball_volume():
    lin = PowerProfile(c=1.0, a=1.0)
    for t in (0.25, 0.5, 1.0):
        want = 4.0 / 3.0 * math.pi * t**3
        assert gradient_energy(lin, 2.0, t, 3) == pytest.approx(want, rel=1e-5)


def test_energy_of_constant_is_zero():
    # dyadic spacing keeps the finite differences free of rounding residue,
    # so the energy is exactly zero rather than ~1e-28 noise to the gamma
    g = np.arange(1, 65) / 64.0
    flat = SampledProfile(g, np.full(64, 2.5))
    assert gradient_energy(flat, 2.0, 0.8, 3) == 0.0


def test_energy_closed_form_sharpness():
    prof = sharpness_profile(3, 2.0, 4.0)
    target = 4.0 * math.pi * (45.0 / 8.0) ** (4.0 / 3.0) * (16.0 / 81.0) * (3.0 / 5.0)
    got = gradient_energy(prof, 4.0, 1.0, 3)
    assert got == pytest.approx(target, rel=1e-5)


_SHARP_TABLE = [
    (d, p, gamma)
    for d in (2, 3, 5)
    for p in (1.5, 2.0, 3.0)
    for gamma in (p + 0.1, p + 0.5, p + 2.0)
    if gamma > d * (p - 1.0) / (d - 1.0)
]


def test_sharp_table_is_the_admissible_grid():
    # d = 2, p = 3 leaves out gamma = 3.1 and 3.5, at or below gamma* = 4
    assert len(_SHARP_TABLE) == 25


@pytest.mark.parametrize("d, p, gamma", _SHARP_TABLE)
def test_energy_of_sharp_profiles_matches_closed_form(d, p, gamma):
    # |V'|^gamma r^(d-1) = |c a|^gamma r^(m-1), m = (a-1) gamma + d, so
    # sigma(1) = d omega_d |c a|^gamma / m; the integrand is close to
    # r^-1 where m is small (d = 2, p = 2, gamma = 2.1 has m = 0.09)
    prof = sharpness_profile(d, p, gamma)
    m = (prof.a - 1.0) * gamma + d
    want = d * unit_ball_volume(d) * abs(prof.c * prof.a) ** gamma / m
    assert gradient_energy(prof, gamma, 1.0, d) == pytest.approx(want, rel=1e-12)


def test_energy_of_bump_profile_matches_adaptive_quadrature():
    from scipy.integrate import quad

    from pdi_lab.radial import BumpProfile

    prof = BumpProfile(c=1.5, delta=0.7)
    gamma, t, dim = 2.5, 1.7, 3

    def density(r):
        return abs(float(prof.derivative(r))) ** gamma * 4.0 * math.pi * r * r

    want = quad(density, 0.0, t, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    assert gradient_energy(prof, gamma, t, dim) == pytest.approx(want, rel=1e-12)


def test_energy_not_integrable_at_the_axis_raises():
    # |V'|^4 r^2 = 0.2^4 r^-1.2 for V = r^0.2 in d = 3: the ball integral
    # is infinite, and no finite energy may come back
    prof = PowerProfile(1.0, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonIntegrable):
            gradient_energy(prof, 4.0, 1.0, 3)
        with pytest.raises(NonIntegrable):
            caccioppoli_audit(prof, ProblemParams(dim=3, p=2.0, gamma=4.0), 1.0, [0.2, 0.5])
        # gamma = 3 makes it r^-0.4, which is integrable
        assert math.isfinite(gradient_energy(prof, 3.0, 1.0, 3))


class _FlatCore:
    """V' = 0 on [0, 1/2), V' = 1 beyond: the integrand vanishes at the axis."""

    def value(self, r):
        return np.maximum(np.asarray(r, dtype=float) - 0.5, 0.0)

    def derivative(self, r):
        return np.where(np.asarray(r, dtype=float) < 0.5, 0.0, 1.0)


def test_energy_with_a_vanishing_axis_integrand_has_a_zero_tail():
    # f(r0) = f(r0/2) = 0 reads a 0/0 local exponent; the tail is 0 and no
    # warning escapes. 1/2 is a panel edge at t = 1, where the integrand
    # 4 pi r^2 of [1/2, 1] integrates exactly.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gradient_energy(_FlatCore(), 2.0, 1.0, 3)
    assert got == pytest.approx(4.0 / 3.0 * math.pi * (1.0 - 0.125), rel=1e-14)


def test_energy_monotone_and_shell_consistent_on_grid():
    g = np.linspace(1e-6, 1.0, 2001)
    prof = SampledProfile(g, g.copy())
    ts = np.linspace(0.05, 1.0, 40)
    es = np.array([gradient_energy(prof, 2.0, float(t), 3) for t in ts])
    assert np.all(np.diff(es) > 0)
    # prefix quadrature telescopes: E(b) - E(a) is the shell integral,
    # and chaining shells back together recovers E exactly
    e_mid = gradient_energy(prof, 2.0, 0.437, 3)
    e_hi = gradient_energy(prof, 2.0, 0.811, 3)
    shell = e_hi - e_mid
    rebuilt = e_mid + shell
    assert rebuilt == pytest.approx(e_hi, rel=1e-12)
    assert es[0] <= e_mid <= e_hi <= es[-1]


def test_energy_respects_trivial_gradient_bound():
    g = np.linspace(1e-6, 2.0, 3001)
    prof = SampledProfile(g, np.sin(g))
    gamma, dim = 2.5, 3
    m = float(np.max(np.abs(np.gradient(prof.values, g))))
    for t in (0.5, 1.0, 2.0):
        bound = m**gamma * unit_ball_volume(dim) * t**dim
        assert gradient_energy(prof, gamma, t, dim) <= bound * (1.0 + 1e-12)


def test_energy_domain_guard():
    g = np.linspace(0.01, 1.0, 32)
    prof = SampledProfile(g, g**2)
    with pytest.raises(DomainExceeded):
        gradient_energy(prof, 2.0, 1.5, 3)
    for t in (-0.5, math.nan):
        with pytest.raises(DomainExceeded):
            gradient_energy(prof, 2.0, t, 3)


def test_caccioppoli_sharpness_growth_and_stability():
    prof = sharpness_profile(3, 2.0, 4.0)
    params = ProblemParams(dim=3, p=2.0, gamma=4.0)
    rep = caccioppoli_audit(prof, params, R=1.0, t_list=np.geomspace(0.02, 0.95, 24))
    assert rep.predicted_s == pytest.approx(4.0 / 3.0)
    assert rep.fitted_growth == pytest.approx(5.0 / 3.0, abs=0.05)
    assert rep.k_stable
    assert rep.passed
    assert rep.fitted_K > 0


def test_caccioppoli_constant_profile():
    g = np.arange(1, 65) / 64.0
    flat = SampledProfile(g, np.full(64, 1.0))
    params = ProblemParams(dim=3, p=2.0, gamma=4.0)
    rep = caccioppoli_audit(flat, params, R=1.0, t_list=np.linspace(0.1, 0.9, 9))
    assert np.all(rep.energies == 0.0)
    assert rep.fitted_K == 0.0
    assert rep.k_stable
    assert math.isnan(rep.fitted_growth)
    assert rep.passed


def test_caccioppoli_flags_faster_growth():
    # gradient blows up near r = 1 harder than the predicted exponent allows
    g = np.linspace(1e-4, 0.999, 20001)
    steep = SampledProfile(g, (1.0 - g) ** -0.5)
    params = ProblemParams(dim=3, p=2.0, gamma=2.0)
    rep = caccioppoli_audit(steep, params, R=1.0, t_list=np.geomspace(0.02, 0.99, 24))
    assert not rep.k_stable


def test_caccioppoli_lambda_part_override():
    # u = -r < 0 everywhere, so with lam > 0 the audit adds the lam-term
    # lam int_{B_t} u^- = lam 4 pi t^4 / 4 on top of the gradient energy
    neg = PowerProfile(c=-1.0, a=1.0)
    params = ProblemParams(dim=3, p=2.0, gamma=2.0, lam=2.0)
    t_list = np.linspace(0.1, 0.9, 9)
    auto = caccioppoli_audit(neg, params, R=1.0, t_list=t_list)
    pure = np.array([gradient_energy(neg, 2.0, float(t), 3) for t in t_list])
    assert np.all(auto.energies > pure)
    want = pure + 2.0 * math.pi * t_list**4
    assert np.max(np.abs(auto.energies - want) / want) < 1e-13


# The CLI's t_list for radius 1.
_CLI_T_LIST = np.geomspace(0.02, 0.95, 24)


@pytest.mark.parametrize(
    "witness,dim,p,gamma",
    [("sharpness", *point) for point in (
        (5, 1.5, 3.5), (7, 1.5, 1.6), (7, 1.5, 2.0), (7, 1.5, 3.5),
        (7, 2.0, 2.1), (7, 2.0, 2.5), (7, 2.0, 4.0), (7, 3.0, 5.0),
    )]
    + [("linear", 5, p, p + gap) for p in (1.5, 2.0, 3.0) for gap in (0.1, 0.5, 1.0, 2.0)],
)
def test_caccioppoli_bounded_k_peaking_near_the_boundary_is_stable(witness, dim, p, gamma):
    """K(t) = E(t)(R-t)^s/R^dim is bounded for these profiles, but for
    dim - s large against s it peaks at t = (dim-s)R/dim, inside the last
    fifth of the list; it falls again before the largest radius."""
    params = ProblemParams(dim=dim, p=p, gamma=gamma)
    u = sharpness_profile(dim, p, gamma) if witness == "sharpness" else PowerProfile(c=1.0, a=1.0)
    rep = caccioppoli_audit(u, params, R=1.0, t_list=_CLI_T_LIST)
    k_values = rep.energies * (1.0 - rep.radii_t) ** rep.predicted_s
    assert np.argmax(k_values) < k_values.size - 1
    assert rep.k_stable and rep.passed


def test_caccioppoli_t_list_guard():
    prof = sharpness_profile(3, 2.0, 4.0)
    params = ProblemParams(dim=3, p=2.0, gamma=4.0)
    with pytest.raises(PreconditionViolation):
        caccioppoli_audit(prof, params, R=1.0, t_list=[0.5, 1.5])
    with pytest.raises(PreconditionViolation):
        caccioppoli_audit(prof, params, R=1.0, t_list=[0.5, math.nan])


def test_caccioppoli_integrability_branch_saturating_profile():
    """With q small enough the exponent comes from the integrability arm,
    s = dim/q, and u = r^(1 - s/gamma) saturates it: the energy integrand
    collapses to a constant, E(t) = (4 pi / 27) t, so the fitted growth
    must be dim - s exactly."""
    params = ProblemParams(dim=3, p=2.0, gamma=3.0, q=1.5)
    assert params.dim / params.q > params.gamma / (params.gamma - 1.0)
    prof = PowerProfile(c=1.0, a=1.0 / 3.0)
    t_list = np.geomspace(0.02, 0.9, 16)
    rep = caccioppoli_audit(prof, params, R=1.0, t_list=t_list)
    assert rep.predicted_s == pytest.approx(2.0)
    assert rep.fitted_growth == pytest.approx(1.0, abs=0.02)
    want = 4.0 * math.pi / 27.0 * t_list
    assert np.max(np.abs(rep.energies - want) / want) < 1e-13
    assert rep.k_stable
    assert rep.passed


def test_caccioppoli_bound_holds_on_solver_output():
    # singular source, q-branch active; the audit only promises the
    # two-ball bound with a stable constant, not a clean power law
    params, sol = _solver_output()
    rep = caccioppoli_audit(sol, params, R=1.0,
                            t_list=np.geomspace(0.02, 0.95, 20))
    assert rep.predicted_s == pytest.approx(2.0)
    assert rep.passed
    assert rep.k_stable
    assert np.all(np.diff(rep.energies) >= 0)


def _solver_output():
    params = ProblemParams(dim=3, p=2.0, gamma=3.0, q=1.5)
    return params, solve_radial_dirichlet(
        PLaplacian(2.0), params, RadialPowerSource(1.0, 2.0), (0.005, 1.0),
        bc_left=0.0, bc_right=0.0, config=SolverConfig(n_nodes=1024),
    )


@pytest.mark.parametrize("which", ["closed-form", "solver-output"])
def test_caccioppoli_energies_are_gradient_energies(which):
    # One ball-integral pass over all radii gives each radius the bits of
    # its own gradient_energy call.
    if which == "closed-form":
        params = ProblemParams(dim=3, p=2.0, gamma=4.0)
        u = sharpness_profile(3, 2.0, 4.0)
    else:
        params, u = _solver_output()
    t_list = np.geomspace(0.02, 0.95, 24)
    rep = caccioppoli_audit(u, params, R=1.0, t_list=t_list)
    single = np.array([gradient_energy(u, params.gamma, float(t), params.dim) for t in t_list])
    assert rep.energies.tobytes() == single.tobytes()


class _CountingProfile:
    def __init__(self, inner):
        self.inner = inner
        self.derivative_calls = 0

    def value(self, r):
        return self.inner.value(r)

    def derivative(self, r):
        self.derivative_calls += 1
        return self.inner.derivative(r)


def test_caccioppoli_audit_evaluates_the_derivative_once():
    params = ProblemParams(dim=3, p=2.0, gamma=4.0, lam=1.0)
    u = _CountingProfile(sharpness_profile(3, 2.0, 4.0))
    rep = caccioppoli_audit(u, params, R=1.0, t_list=np.geomspace(0.02, 0.95, 24))
    assert u.derivative_calls == 1
    assert rep.passed


class _InterpSolution:
    """A solver output whose lookup is np.interp, the reference route."""

    def __init__(self, sol):
        self.grid, self.values = sol.grid, sol.values

    def value(self, r):
        return np.interp(np.asarray(r, dtype=float), self.grid, self.values)


def test_holder_fit_on_solver_output_matches_the_np_interp_route():
    _, sol = _solver_output()
    got = holder_fit(sol, 20000, (1e-3, 0.25), seed=4)
    want = holder_fit(_InterpSolution(sol), 20000, (1e-3, 0.25), seed=4)
    assert got.scales.tobytes() == want.scales.tobytes()
    assert got.max_increments.tobytes() == want.max_increments.tobytes()
    assert got.fitted_alpha == want.fitted_alpha


@pytest.mark.parametrize("a", [0.3, 0.5, 0.8])
def test_holder_fit_recovers_power_exponent(a):
    prof = PowerProfile(c=1.0, a=a)
    rep = holder_fit(prof, pair_budget=10000, scale_range=(1e-4, 0.5), seed=3)
    assert abs(rep.fitted_alpha - a) <= 0.03


def test_holder_fit_sharpness_and_linear():
    sharp = sharpness_profile(3, 2.0, 4.0)
    rep = holder_fit(sharp, pair_budget=20000, scale_range=(1e-4, 0.5),
                     predicted_alpha=2.0 / 3.0)
    assert rep.passed
    assert rep.r_squared >= 0.99
    lin = PowerProfile(c=1.0, a=1.0)
    rep2 = holder_fit(lin, pair_budget=20000, scale_range=(1e-3, 0.5),
                      predicted_alpha=1.0, tolerance=0.02)
    assert rep2.passed


def test_holder_fit_smooth_bump_is_lipschitz_at_small_scales():
    from pdi_lab.radial import BumpProfile

    # smooth with bounded slope: sup-increments scale linearly in distance
    prof = BumpProfile(c=1.0, delta=(2.0 - 1.8) / (1.8 - 1.0))
    rep = holder_fit(prof, pair_budget=20000, scale_range=(1e-4, 0.1),
                     domain=(0.0, 5.0), predicted_alpha=1.0)
    assert abs(rep.fitted_alpha - 1.0) <= 0.05


def test_holder_fit_determinism_and_scale_guards():
    prof = sharpness_profile(3, 2.0, 4.0)
    a = holder_fit(prof, pair_budget=5000, scale_range=(1e-4, 0.5), seed=11)
    b = holder_fit(prof, pair_budget=5000, scale_range=(1e-4, 0.5), seed=11)
    assert a.fitted_alpha == b.fitted_alpha
    assert np.array_equal(a.max_increments, b.max_increments)
    with pytest.raises(InsufficientScales):
        holder_fit(prof, pair_budget=5000, scale_range=(0.3, 0.5))
    with pytest.raises(PreconditionViolation):
        holder_fit(prof, pair_budget=5000, scale_range=(1e-4, 2.0))
    with pytest.raises(PreconditionViolation):
        holder_fit(prof, pair_budget=5000, scale_range=(1e-4, 0.5), seed=-1)


def test_morrey_centered_power_oracle():
    norm = morrey_norm(RadialPowerSource(1.0, 1.0), s_index=1.0, theta=1.5,
                       omega_radius=1.0)
    assert norm.value == pytest.approx(2.0 * math.pi, rel=1e-9)
    assert norm.argmax_radius == pytest.approx(1.0)
    assert not norm.divergent


def test_morrey_divergence_flag():
    norm = morrey_norm(RadialPowerSource(1.0, 2.0), s_index=1.0, theta=1.5,
                       omega_radius=1.0)
    assert norm.divergent
    assert norm.value == math.inf


def test_morrey_zero_source():
    norm = morrey_norm(ZeroSource(), s_index=1.0, theta=1.5, omega_radius=1.0)
    assert norm.value == 0.0
    assert not norm.divergent


def test_morrey_theta_equal_dim_is_lebesgue_norm():
    # weight r^{(theta-dim)/s} = 1: the sup saturates at the full ball
    norm = morrey_norm(RadialPowerSource(1.0, 1.0), s_index=2.0, theta=3.0,
                       omega_radius=1.0)
    want = math.sqrt(4.0 * math.pi)  # (int_{B_1} |x|^{-2})^{1/2}
    assert norm.value == pytest.approx(want, rel=1e-9)
    assert norm.argmax_radius == pytest.approx(1.0)


def test_morrey_guards():
    with pytest.raises(NonIntegrable):
        morrey_norm(RadialPowerSource(1.0, 3.0), s_index=1.0, theta=1.5,
                    omega_radius=1.0)
    with pytest.raises(PreconditionViolation):
        morrey_norm(ZeroSource(), s_index=0.5, theta=1.5, omega_radius=1.0)
    with pytest.raises(PreconditionViolation):
        morrey_norm(ZeroSource(), s_index=1.0, theta=4.0, omega_radius=1.0)
    # the closed-form cap fraction needs an integer dimension >= 2
    for dim in (2.5, 1, 0, math.nan):
        with pytest.raises(PreconditionViolation):
            morrey_norm(RadialPowerSource(1.0, 1.0), 1.0, 1.5, 1.0, dim=dim)


# ---------------------------------------------------------------------------
# The off-centre cap path, which the centred oracles above never reach
# ---------------------------------------------------------------------------


def _lens_area(d, r, big):
    """Area of B_r(z) cap B_big(0) in the plane, |z| = d."""
    if d + r <= big:
        return math.pi * r * r
    if d + big <= r:
        return math.pi * big * big
    kite = math.sqrt((-d + r + big) * (d + r - big) * (d - r + big) * (d + r + big))
    return (
        r * r * math.acos((d * d + r * r - big * big) / (2.0 * d * r))
        + big * big * math.acos((d * d + big * big - r * r) / (2.0 * d * big))
        - 0.5 * kite
    )


def _lens_volume(d, r, big):
    """Volume of B_r(z) cap B_big(0) in R^3, |z| = d."""
    if d + r <= big:
        return 4.0 / 3.0 * math.pi * r**3
    if d + big <= r:
        return 4.0 / 3.0 * math.pi * big**3
    return (
        math.pi * (big + r - d) ** 2
        * (d * d + 2.0 * d * r - 3.0 * r * r + 2.0 * d * big + 6.0 * r * big - 3.0 * big * big)
        / (12.0 * d)
    )


_GRID = np.linspace(0.0, 1.0, 33)
_FINE = np.linspace(0.0, 1.0, 257)


@pytest.mark.parametrize(
    "one",
    [
        RadialPowerSource(1.0, 0.0),
        SampledSource(_GRID, np.ones_like(_GRID)),
        lambda rho: np.ones_like(rho),
    ],
    ids=["power", "sampled", "callable"],
)
@pytest.mark.parametrize("dim, lens", [(2, _lens_area), (3, _lens_volume)], ids=["d2", "d3"])
@pytest.mark.parametrize(
    "d, r",
    [(0.5, 0.3), (0.8, 0.5), (0.95, 0.06), (0.3, 0.5), (0.3, 0.9), (0.5, 1.4)],
    ids=[
        "r-below-z-inside", "r-below-z-sticks-out", "r-below-z-small",
        "r-above-z-inside", "r-above-z-sticks-out", "r-above-z-wide",
    ],
)
def test_mass_on_intersection_of_one_is_the_lens(one, dim, lens, d, r):
    mass = audit._mass_on_intersection(one, 1.0, dim, d, r, 1.0)
    assert float(mass) == pytest.approx(lens(d, r, 1.0), rel=1e-12)


def test_mass_on_intersection_is_vectorized():
    d, r = np.meshgrid([0.3, 0.8], [0.2, 0.5, 0.9, 1.5], indexing="ij")
    masses = audit._mass_on_intersection(RadialPowerSource(1.0, 0.0), 1.0, 3, d, r, 1.0)
    assert masses.shape == d.shape
    for i, j in np.ndindex(d.shape):
        assert masses[i, j] == pytest.approx(_lens_volume(d[i, j], r[i, j], 1.0), rel=1e-12)


@pytest.mark.parametrize("dim", range(2, 9))
def test_cap_fraction_matches_incomplete_beta(dim):
    from scipy.special import betainc

    c = np.linspace(-1.0, 1.0, 401)
    half = 0.5 * betainc((dim - 1) / 2.0, 0.5, 1.0 - c * c)
    want = np.where(c >= 0.0, half, 1.0 - half)
    assert np.max(np.abs(audit._cap_fraction(c, dim) - want)) <= 1e-13


def test_sampled_ball_mass_is_exact_for_the_interpolant():
    # s = 1 in d = 3: on each panel the interpolant times 4 pi rho^2 is a
    # cubic, which Simpson's rule integrates exactly.
    g = np.linspace(0.0, 1.0, 17)
    f = SampledSource(g, 1.0 + g**2)
    a, b = g[:-1], g[1:]
    m = 0.5 * (a + b)

    def w(rho):
        return f(rho) * 4.0 * math.pi * rho**2

    want = float(np.sum((b - a) / 6.0 * (w(a) + 4.0 * w(m) + w(b))))
    mass = audit._mass_on_intersection(f, 1.0, 3, 0.0, 1.0, 1.0)
    assert float(mass) == pytest.approx(want, rel=1e-14)


def test_morrey_d2_default_settings_is_two_pi():
    norm = morrey_norm(RadialPowerSource(1.0, 1.0), s_index=1.0, theta=1.5,
                       omega_radius=1.0, dim=2)
    assert norm.value == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert not norm.divergent


@pytest.mark.parametrize(
    "f, dim, centers, calls_wanted",
    [(RadialPowerSource(1.0, 1.0), dim, 8, 1) for dim in (2, 3, 4, 5)]
    + [
        (SampledSource(_FINE, 1.0 + _FINE**2), 3, 8, 3),
        (RadialPowerSource(1.0, 1.0), 3, 130, 3),
    ],
    ids=["power-d2", "power-d3", "power-d4", "power-d5", "sampled-d3", "power-130-centers"],
)
def test_morrey_scan_is_a_few_vectorized_rule_calls(monkeypatch, f, dim, centers, calls_wanted):
    # Every integral goes through the module's ``quad`` binding, one call
    # per kind of integral for a pass over up to 64 centers: the caps, and
    # for sampled data the whole panels and the partial last panels.
    calls = []
    rule = audit.quad

    def counting(*args):
        calls.append(1)
        return rule(*args)

    monkeypatch.setattr(audit, "quad", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = morrey_norm(f, s_index=1.0, theta=2.0, omega_radius=1.0,
                           center_samples=centers, dim=dim)
    assert math.isfinite(norm.value)
    assert len(calls) == calls_wanted
