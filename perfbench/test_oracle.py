"""Each oracle against its defining equation, by a second route.

    python3 -m pytest perfbench -q

Exact solutions are checked by high-resolution finite differences of the
flux written from its definition; closed-form integrals and Morrey norms
by direct numerical quadrature; the witness and area predicates on
inputs whose answer is known from the other side.
"""

import math

import numpy as np
import pytest

import oracle

H = 1e-3
R_IN = np.linspace(0.1, 0.95, 86)


def flux(spec, s):
    family, order = spec
    s = np.asarray(s, dtype=float)
    if family == "p":
        return np.abs(s) ** (order - 2.0) * s
    return s * np.abs(s) ** (order - 2.0) / np.sqrt(1.0 + np.abs(s) ** order)


def fd_slope(u, r):
    """Fourth-order central difference."""
    return (u(r - 2 * H) - 8.0 * u(r - H) + 8.0 * u(r + H) - u(r + 2 * H)) / (12.0 * H)


def fd_divergence(spec, slope, d, r):
    """-(1/r^(d-1)) d/dr [r^(d-1) a(V'(r))] by finite differences."""
    return -fd_slope(lambda x: x ** (d - 1) * flux(spec, slope(x)), r) / r ** (d - 1)


def test_cole_hopf_solves_its_equation():
    u = oracle.cole_hopf
    lap = fd_slope(lambda x: fd_slope(u, x), R_IN) + 2.0 / R_IN * fd_slope(u, R_IN)
    assert np.max(np.abs(-lap + fd_slope(u, R_IN) ** 2 - 1.0)) < 1e-8
    assert abs(float(u(1.0))) < 1e-15
    assert np.max(np.abs(oracle.cole_hopf_slope(R_IN) - fd_slope(u, R_IN))) < 1e-10
    assert float(oracle.cole_hopf_slope(0.0)) == 0.0


@pytest.mark.parametrize("spec,m,gamma", [
    (("p", 3.0), 2, 3.5), (("p", 1.5), 2, 1.2), (("p", 1.5), 3, 1.2), (("p", 2.0), 2, 2.0),
    (("gmc", 2.0), 2, 1.5), (("gmc", 4.0), 2, 2.5),
])
def test_manufactured_source_matches_divergence_form(spec, m, gamma):
    d = 3
    slope = lambda r: -m * r ** (m - 1.0)  # noqa: E731
    want = fd_divergence(spec, slope, d, R_IN) + np.abs(slope(R_IN)) ** gamma
    got = oracle.manufactured_source(spec, d, gamma, m)(R_IN)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-8


def test_manufactured_source_is_finite_on_the_axis_when_the_flux_is_smooth():
    for spec, m in ((("p", 3.0), 2), (("p", 1.5), 3), (("gmc", 2.0), 2), (("gmc", 4.0), 2)):
        assert np.isfinite(oracle.manufactured_source(spec, 3, 2.0, m)(np.array([0.0])))[0]


@pytest.mark.parametrize("d,p,gamma", [(3, 2.0, 4.0), (4, 2.0, 3.0), (3, 3.0, 5.0), (5, 2.5, 4.0)])
def test_sharp_profile_solves_the_equation_and_its_energy_integrates(d, p, gamma):
    c, a = oracle.sharp_profile(d, p, gamma)
    slope = lambda r: oracle.slope_power(c, a, r)  # noqa: E731
    lhs = fd_divergence(("p", p), slope, d, R_IN)
    rhs = np.abs(slope(R_IN)) ** gamma
    assert np.max(np.abs(lhs - rhs) / rhs) < 1e-7
    assert np.max(np.abs(fd_slope(lambda r: oracle.sharp_value(r, c, a), R_IN) - slope(R_IN))) < 1e-7
    assert oracle.sharp_value(1.0, c, a) == 0.0
    for t0, t in ((0.25, 0.9), (0.3, 1.0)):
        direct = oracle.energy_from_slope(slope, d, gamma, t0, t)
        assert math.isclose(oracle.sharp_energy(d, gamma, c, a, t, t0), direct, rel_tol=1e-9)


def test_power_and_bump_p_laplacians_match_the_divergence_form():
    for d, p, c, a in ((3, 2.0, 1.7, 0.4), (4, 3.0, -2.0, -0.4), (5, 1.5, 0.8, 1.3)):
        slope = lambda r: oracle.slope_power(c, a, r)  # noqa: E731
        want = fd_divergence(("p", p), slope, d, R_IN)
        got = oracle.p_laplacian_power(d, p, c, a, R_IN)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-7
    r = np.linspace(0.05, 9.0, 200)
    for d, p, c, delta in ((3, 2.0, 0.3, 2.0), (4, 3.0, 1.5, 0.7), (3, 1.5, 0.2, 1.5)):
        slope = lambda x: oracle.slope_bump(c, delta, x)  # noqa: E731
        value = lambda x: c * (1.0 + x * x) ** (-delta / 2.0)  # noqa: E731
        assert np.max(np.abs(fd_slope(value, r) - slope(r))) < 1e-9
        want = fd_divergence(("p", p), slope, d, r)
        got = oracle.p_laplacian_bump(d, p, c, delta, r)
        assert np.max(np.abs(got - want)) < 1e-7 * np.max(np.abs(want))


def test_witness_predicates_accept_solutions_and_reject_perturbations():
    grid = np.linspace(0.1, 5.0, 200)
    d, p, gamma = 3, 2.0, 2.5
    k = gamma - p + 1.0
    a = (gamma - p) / k
    # c r^a with |ca|^k = (d - 1) - (p - 1)/k balances the two terms.
    c = ((d - 1.0) - (p - 1.0) / k) ** (1.0 / k) / a
    assert oracle.entire_witness_ok(d, p, gamma, 1.0, c, a, grid)
    assert not oracle.entire_witness_ok(d, p, gamma, 1.0, 1.01 * c, a, grid)
    bump_grid = np.linspace(0.05, 10.0, 300)
    d, p, gamma = 3, 2.0, 1.8
    delta = (p - gamma) / (gamma - p + 1.0)
    assert oracle.bump_witness_ok(d, p, gamma, 1.0, 1e-3, delta, bump_grid)
    assert not oracle.bump_witness_ok(d, p, gamma, 1.0, 1e3, delta, bump_grid)
    # Below the critical exponent no scale works on a long enough grid.
    gamma = 1.4
    delta = (p - gamma) / (gamma - p + 1.0)
    assert not oracle.bump_witness_ok(d, p, gamma, 1.0, 1e-6, delta, np.linspace(0.05, 200.0, 4000))


def centred_morrey_direct(f, d, s, theta, radius):
    """max over r of r^((theta-d)/s) (int_{B_r} |f|^s)^(1/s), by cumulative
    trapezoid in rho on a grid graded toward the axis."""
    rho = radius * np.linspace(0.0, 1.0, 400001) ** 2
    dens = np.zeros_like(rho)
    dens[1:] = np.abs(f(rho[1:])) ** s * d * oracle.unit_ball_volume(d) * rho[1:] ** (d - 1)
    mass = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(rho))))
    r = rho[1:]
    return float(np.max(r ** ((theta - d) / s) * mass[1:] ** (1.0 / s)))


def test_morrey_closed_forms_match_direct_quadrature():
    cases = (
        (lambda x: 1.0 / x, 3, 1.0, 1.5, oracle.morrey_power(3, 1.0, 1.0, 1.5, 1.0), 2.0 * math.pi),
        (lambda x: np.ones_like(x), 3, 2.0, 3.0, oracle.morrey_power(3, 0.0, 2.0, 3.0, 1.0),
         math.sqrt(4.0 * math.pi / 3.0)),
        (lambda x: 1.0 / x, 4, 1.0, 2.5, oracle.morrey_power(4, 1.0, 1.0, 2.5, 1.0), 2.0 * math.pi**2 / 3.0),
        (lambda x: 1.0 + x * x, 3, 1.0, 2.0, oracle.morrey_one_plus_r2(3, 2.0, 1.0), 32.0 * math.pi / 15.0),
    )
    for f, d, s, theta, closed, quoted in cases:
        assert math.isclose(closed, quoted, rel_tol=1e-14)
        assert math.isclose(centred_morrey_direct(f, d, s, theta, 1.0), closed, rel_tol=1e-6)


def test_morrey_of_inverse_square_is_unbounded():
    assert math.isinf(oracle.morrey_power(3, 2.0, 1.0, 1.5, 1.0))
    # r^(-1.5) * 4 pi r grows without bound as r -> 0.
    small = [r ** -1.5 * 4.0 * math.pi * r for r in (1e-2, 1e-4, 1e-6)]
    assert small[0] < small[1] < small[2] and small[2] > 1e3


def tail_integral(area, e, t0, t1):
    t = np.geomspace(t0, t1, 200001)
    y = area(t) ** -e
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(t)))


def doubling_ratio(area, e, T):
    """Increment of the integral over [2T, 4T] over that over [T, 2T]."""
    return tail_integral(area, e, 2.0 * T, 4.0 * T) / tail_integral(area, e, T, 2.0 * T)


@pytest.mark.parametrize("family,rate,p,gamma", [
    ("power", 1.0, 2.0, 1.4), ("power", 1.0, 2.0, 2.5), ("power", 3.0, 2.0, 1.4), ("power", 3.0, 3.0, 2.5),
    ("power", 2.0, 1.5, 1.2), ("exp", 1.0, 2.0, 1.4), ("exp", 0.5, 3.0, 2.5), ("exp", -0.5, 2.0, 2.5),
    ("exp", 0.0, 1.5, 1.2),
])
def test_area_divergence_against_growth_of_the_integral(family, rate, p, gamma):
    """Far in the tail, consecutive doubling increments of a divergent
    integral do not shrink (power: ratio 2^(1 - beta e); exponential:
    ratio >= 2 for kappa <= 0), while a convergent one's fall below 1.
    For kappa > 0 the tail starts past the transient, at T = 8/(kappa e)."""
    e = (gamma - p + 1.0) / (p - 1.0)
    if family == "power":
        ratio = doubling_ratio(lambda t: t**rate, e, 1e3)
    else:
        ratio = doubling_ratio(lambda t: np.exp(rate * t), e, 8.0 / (rate * e) if rate > 0 else 8.0)
    diverges = oracle.area_integral_diverges((family, rate), p, gamma)
    assert (ratio >= 1.0 - 1e-6) == diverges


def test_sigma_sides_match_quadrature():
    for d, p, gamma, r in ((3, 2.0, 1.4, 10.0), (3, 2.0, 1.5, 10.0), (4, 3.0, 2.5, 64.0)):
        e = (gamma - p + 1.0) / (p - 1.0)
        lhs, rhs = oracle.sigma_sides(2.0, d, p, gamma, 1.0, r)
        area = lambda t: d * oracle.unit_ball_volume(d) * t ** (d - 1.0)  # noqa: E731
        direct = tail_integral(area, e, 1.0, r)
        C = e  # (c_h/nu)^(...) = 1
        assert math.isclose(rhs, C * direct, rel_tol=1e-8)
        assert math.isclose(lhs, 2.0**-e / e, rel_tol=1e-15)


def test_exponents_against_hand_values_and_identity():
    assert oracle.exponents_ok(3, 2.0, 4.0, math.inf, 2.0 / 3.0, 4.0 / 3.0, 1.5)
    assert oracle.exponents_ok(3, 2.0, 4.0, 6.0, 2.0 / 3.0, 4.0 / 3.0, 1.5)
    assert not oracle.exponents_ok(3, 2.0, 4.0, math.inf, 0.7, 4.0 / 3.0, 1.5)
    assert oracle.holder_exponent(3, 2.0, 1.8) is None and oracle.critical_exponent(3, 3.0) is None
    rng = np.random.default_rng(0)
    for _ in range(200):
        d, p = int(rng.integers(2, 9)), 1.0 + 3.0 * rng.random()
        gamma, q = p + 3.0 * rng.random() + 1e-3, 1.0 + 20.0 * rng.random()
        alpha, s = oracle.holder_exponent(d, p, gamma, q), oracle.energy_exponent(d, p, gamma, q)
        if alpha is not None:
            assert abs(alpha - (1.0 - s / gamma)) < 1e-12


def test_sweep_rows_check_accepts_truth_and_rejects_a_changed_cell():
    points = sorted((d, p, g, math.inf) for d in (3, 4) for p in (1.5, 3.0) for g in (0.4, 1.5, 2.0, 4.0))
    lines = ["dim,p,gamma,q,alpha,s,gamma_star,growth_regime,liouville_regime,verdict"]
    for d, p, g, q in points:
        if not oracle.valid_params(d, p, g, q):
            lines.append(f"{d},{p},{g},inf,,,,,,INVALID")
            continue
        alpha = oracle.holder_exponent(d, p, g, q)
        star = oracle.critical_exponent(d, p)
        cells = [str(d), repr(p), repr(g), "inf", "" if alpha is None else repr(alpha),
                 repr(oracle.energy_exponent(d, p, g, q)), "" if star is None else repr(star)]
        if star is None:
            cells += ["", "", "INVALID"]
        else:
            cells += ["supernatural" if g > p else "subnatural",
                      "subcritical" if g < star else "critical" if g == star else "supercritical",
                      "LIOUVILLE" if g <= star else "NO_LIOUVILLE"]
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    assert oracle.sweep_rows_ok(text, points)
    assert not oracle.sweep_rows_ok(text.replace("NO_LIOUVILLE", "LIOUVILLE", 1), points)
    assert not oracle.sweep_rows_ok(text, points[:-1])
    # q = 8 leaves alpha and s of this row unchanged, so only the q cell shows it.
    assert "\n3,1.5,4.0,inf," in text
    assert not oracle.sweep_rows_ok(text.replace("\n3,1.5,4.0,inf,", "\n3,1.5,4.0,8.0,"), points)


def test_error_bound_has_second_order_and_roundoff_parts():
    small, large = oracle.solution_error_bound(1025, 1.0, 1.0), oracle.solution_error_bound(16385, 1.0, 1.0)
    assert math.isclose(small, 1.0 / 1024**2 + oracle.EPS * 1024**2)
    assert large > oracle.EPS * 16384**2
