"""Independent reference computations for the benchmark's output checks.

Everything here is derived from the defining equations with ``math`` and
``numpy`` alone; nothing imports ``pdi_lab``. Each function states the
equation it comes from, and ``test_oracle.py`` checks each one against
that equation by a second route (finite differences or direct
quadrature).

Radial conventions: for u(x) = V(|x|) and a scalar flux a(s),

    -div(a(|Du|) Du/|Du|) = -(1/r^(d-1)) d/dr [ r^(d-1) a(V'(r)) ],

and the solver's model equation is -div(a(V')) + c_h |V'|^gamma = f.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)


def unit_ball_volume(d: int) -> float:
    """omega_d = pi^(d/2) / Gamma(d/2 + 1)."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def close(value, want, rel: float, absolute: float = 0.0) -> bool:
    """|value - want| <= rel*|want| + absolute, False for NaN or None."""
    if value is None or want is None:
        return False
    value, want = float(value), float(want)
    return abs(value - want) <= rel * abs(want) + absolute


# ---------------------------------------------------------------------------
# Exponent calculus
# ---------------------------------------------------------------------------


def energy_exponent(d, p, gamma, q=math.inf) -> float:
    """s = max(d/q, gamma/(gamma - p + 1))."""
    return max(0.0 if math.isinf(q) else d / q, gamma / (gamma - p + 1.0))


def holder_exponent(d, p, gamma, q=math.inf):
    """alpha = min(1 - d/(q gamma), (gamma-p)/(gamma-p+1)); None unless
    gamma > p and q > d/gamma."""
    d_over_q = 0.0 if math.isinf(q) else d / q
    if not (gamma > p and d_over_q < gamma):
        return None
    return min(1.0 - d_over_q / gamma, (gamma - p) / (gamma - p + 1.0))


def critical_exponent(d, p):
    """gamma* = d(p-1)/(d-1) for 1 < p < d, else None."""
    if not 1 < p < d:
        return None
    return d * (p - 1.0) / (d - 1.0)


def liouville_holds(d, p, gamma) -> bool:
    """Every supersolution on R^d is constant iff gamma <= gamma*."""
    return gamma <= critical_exponent(d, p)


def valid_params(d, p, gamma, q=math.inf) -> bool:
    return d >= 2 and p > 1 and gamma > p - 1 and (math.isinf(q) or q >= 1)


# ---------------------------------------------------------------------------
# Exact solutions of the radial model equation
# ---------------------------------------------------------------------------


def cole_hopf(r):
    """u(r) = ln(r sinh(1) / sinh(r)) solves -Delta u + |Du|^2 = 1 on the
    unit ball of R^3 with u(1) = 0: u = -ln w turns it into Delta w = w,
    whose regular radial solution is w = sinh(r)/r."""
    r = np.asarray(r, dtype=float)
    safe = np.where(r == 0.0, 1.0, r)
    return np.where(r == 0.0, math.log(math.sinh(1.0)), np.log(safe * math.sinh(1.0) / np.sinh(safe)))


def cole_hopf_slope(r):
    """u'(r) = 1/r - coth(r), which vanishes at the axis."""
    r = np.asarray(r, dtype=float)
    safe = np.where(r == 0.0, 1.0, r)
    return np.where(r == 0.0, 0.0, 1.0 / safe - 1.0 / np.tanh(safe))


def polynomial_profile(r, m):
    """V(r) = 1 - r^m, the manufactured solution."""
    return 1.0 - np.asarray(r, dtype=float) ** m


def manufactured_source(flux: tuple, d: int, gamma: float, m: float, c_h: float = 1.0):
    """f = -div(a(V')) + c_h |V'|^gamma for V = 1 - r^m, in closed form.

    ``flux`` is ("p", p) for a(s) = |s|^(p-2) s, or ("gmc", k) for
    a(s) = s |s|^(k-2) / sqrt(1 + |s|^k) (k = 2 is the mean curvature
    flux; only m = 2 is derived for it). With g = |V'| = m r^(m-1):

      p-Laplacian: r^(d-1) a(V') = -m^(p-1) r^((m-1)(p-1)+d-1), so
          -div = m^(p-1) ((m-1)(p-1)+d-1) r^((m-1)(p-1)-1);
      gmc, m = 2: r^(d-1) a(V') = -2^(k-1) r^(d+k-2) W^(-1/2), W = 1+(2r)^k, so
          -div = 2^(k-1) r^(k-2) W^(-3/2) [(d+k-2) + (d+k/2-2)(2r)^k].
    """
    family, order = flux

    def f(r):
        r = np.asarray(r, dtype=float)
        slope = m * r ** (m - 1.0)
        if family == "p":
            p = order
            e = (m - 1.0) * (p - 1.0) - 1.0
            with np.errstate(divide="ignore"):
                div = m ** (p - 1.0) * ((m - 1.0) * (p - 1.0) + d - 1.0) * r**e
        elif family == "gmc" and m == 2:
            k = order
            w = 1.0 + (2.0 * r) ** k
            div = 2.0 ** (k - 1.0) * r ** (k - 2.0) * w**-1.5 * (
                (d + k - 2.0) + (d + k / 2.0 - 2.0) * (2.0 * r) ** k
            )
        else:
            raise ValueError(f"no closed form for flux {flux} with m = {m}")
        return div + c_h * slope**gamma

    return f


def sharp_profile(d, p, gamma):
    """(c, a) with V = c (r^a - 1) solving -Delta_p V = |V'|^gamma.

    Matching powers of r forces a - 1 = -1/(gamma-p+1); matching the
    coefficients gives |c a|^(gamma-p+1) = d - 1 - (p-1)/(gamma-p+1).
    V decreases from the axis, so c < 0 for a > 0.
    """
    k = gamma - p + 1.0
    a = (gamma - p) / k
    gap = d - 1.0 - (p - 1.0) / k
    return -(gap ** (1.0 / k)) / a, a


def sharp_value(r, c, a):
    return c * (np.asarray(r, dtype=float) ** a - 1.0)


def sharp_energy(d, gamma, c, a, t, t0=0.0):
    """int over t0 < |x| < t of |DV|^gamma for V = c (r^a - 1):
    d omega_d |c a|^gamma (t^m - t0^m)/m with m = (a-1) gamma + d > 0."""
    m = (a - 1.0) * gamma + d
    return d * unit_ball_volume(d) * abs(c * a) ** gamma * (t**m - t0**m) / m


def solution_error_bound(n: int, width: float, c_h2: float, roundoff: float = 1.0) -> float:
    """Allowed max nodal error of a second-order solve on n uniform nodes of
    an interval of the given width: c_h2 h^2 plus the roundoff allowance
    roundoff * eps/h^2, the size of the rounding in a flux difference
    divided by the cell volume (``roundoff`` scales it to the solution's
    magnitude)."""
    h = width / (n - 1)
    return c_h2 * h * h + roundoff * EPS / (h * h)


def energy_from_slope(slope_fn, d, gamma, t0, t, nodes=20001):
    """int_{t0}^{t} |u'(r)|^gamma d omega_d r^(d-1) dr by composite Simpson."""
    if nodes % 2 == 0:
        nodes += 1
    r = np.linspace(t0, t, nodes)
    y = np.abs(slope_fn(r)) ** gamma * d * unit_ball_volume(d) * r ** (d - 1)
    h = (t - t0) / (nodes - 1)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


# ---------------------------------------------------------------------------
# Morrey norms
# ---------------------------------------------------------------------------


def morrey_power(d, beta, s, theta, radius):
    """sup_r r^((theta-d)/s) ||A |x|^-beta||_{L^s(B_r)} over 0 < r <= radius,
    A = 1, on balls centred at the origin.

    ||.||^s = d omega_d r^(d-s beta)/(d - s beta), so the weighted norm is
    (d omega_d/(d-s beta))^(1/s) r^((theta - s beta)/s): increasing when
    theta > s beta (sup at r = radius), unbounded as r -> 0 when
    theta < s beta. Returns math.inf for the unbounded case.
    """
    if theta < s * beta:
        return math.inf
    return (d * unit_ball_volume(d) / (d - s * beta)) ** (1.0 / s) * radius ** (
        (theta - s * beta) / s
    )


def morrey_one_plus_r2(d, theta, radius):
    """Same sup for f = 1 + |x|^2 with s = 1: r^(theta-d) d omega_d
    (r^d/d + r^(d+2)/(d+2)) = d omega_d (r^theta/d + r^(theta+2)/(d+2)),
    increasing for theta > 0."""
    return d * unit_ball_volume(d) * (radius**theta / d + radius ** (theta + 2) / (d + 2))


# ---------------------------------------------------------------------------
# Liouville witnesses and the area test
# ---------------------------------------------------------------------------


def p_laplacian_power(d, p, c, a, r):
    """-Delta_p of V = c r^a from the divergence form:
    r^(d-1)|V'|^(p-2)V' = sign(ca)|ca|^(p-1) r^((a-1)(p-1)+d-1)."""
    r = np.asarray(r, dtype=float)
    e = (a - 1.0) * (p - 1.0)
    return -math.copysign(1.0, c * a) * abs(c * a) ** (p - 1.0) * (e + d - 1.0) * r ** (e - 1.0)


def p_laplacian_bump(d, p, c, delta, r):
    """-Delta_p of V = c (1+r^2)^(-delta/2), c > 0, from the divergence form:
    r^(d-1)|V'|^(p-2)V' = -(c delta)^(p-1) r^(d+p-2) w^(-mu), w = 1+r^2,
    mu = (delta/2+1)(p-1)."""
    r = np.asarray(r, dtype=float)
    w = 1.0 + r * r
    mu = (delta / 2.0 + 1.0) * (p - 1.0)
    return (c * delta) ** (p - 1.0) * r ** (p - 2.0) * w ** (-mu - 1.0) * (
        (d + p - 2.0) * w - 2.0 * mu * r * r
    )


def slope_power(c, a, r):
    return c * a * np.asarray(r, dtype=float) ** (a - 1.0)


def slope_bump(c, delta, r):
    r = np.asarray(r, dtype=float)
    return -c * delta * r * (1.0 + r * r) ** (-delta / 2.0 - 1.0)


def entire_witness_ok(d, p, gamma, c_h, c, a, grid) -> bool:
    """V = c r^a (c != 0) solves -Delta_p V + c_h |V'|^gamma = 0 on grid,
    to 1e-9 of the size of its two terms."""
    lap = p_laplacian_power(d, p, c, a, grid)
    ham = c_h * np.abs(slope_power(c, a, grid)) ** gamma
    return bool(c != 0 and np.all(np.abs(lap + ham) <= 1e-9 * (np.abs(lap) + ham)))


def bump_witness_ok(d, p, gamma, c_h, c, delta, grid) -> bool:
    """V = c (1+r^2)^(-delta/2), c > 0, is a supersolution
    -Delta_p V >= c_h |V'|^gamma on grid, up to 1e-10 of the terms."""
    if not (c > 0 and delta > 0):
        return False
    lap = p_laplacian_bump(d, p, c, delta, grid)
    ham = c_h * np.abs(slope_bump(c, delta, grid)) ** gamma
    return bool(np.all(lap - ham >= -1e-10 * (np.abs(lap) + ham)))


def area_integral_diverges(area: tuple, p, gamma) -> bool:
    """Whether int^inf area(t)^(-e) dt = inf, e = (gamma-p+1)/(p-1).

    ("power", beta): t^(-beta e) is integrable at infinity iff beta e > 1.
    ("exp", kappa): exp(-kappa e t) is integrable iff kappa > 0.
    """
    e = (gamma - p + 1.0) / (p - 1.0)
    family, rate = area
    if family == "power":
        return rate * e <= 1.0
    return rate <= 0.0


def sigma_sides(sigma_R, d, p, gamma, R, r, c_h=1.0, nu=1.0):
    """(lhs, rhs) of sigma(R)^(-e)/e >= C int_R^r area(dB_t)^(-e) dt on R^d,
    area = d omega_d t^(d-1), C = (c_h/nu)^(gamma/(gamma-p+1)) e."""
    e = (gamma - p + 1.0) / (p - 1.0)
    x = (d - 1.0) * e
    integral = math.log(r / R) if x == 1.0 else (r ** (1.0 - x) - R ** (1.0 - x)) / (1.0 - x)
    C = (c_h / nu) ** (gamma / (gamma - p + 1.0)) * e
    return sigma_R**-e / e, C * (d * unit_ball_volume(d)) ** -e * integral


# ---------------------------------------------------------------------------
# Exponent report rows (sweep CSV and the exponents command)
# ---------------------------------------------------------------------------


def exponents_ok(d, p, gamma, q, alpha, s, gamma_star) -> bool:
    """alpha, s, gamma* against their formulas, plus alpha = 1 - s/gamma."""
    want_alpha = holder_exponent(d, p, gamma, q)
    want_star = critical_exponent(d, p)
    if not close(s, energy_exponent(d, p, gamma, q), 1e-12):
        return False
    if (alpha is None) != (want_alpha is None) or (gamma_star is None) != (want_star is None):
        return False
    if want_alpha is not None:
        if not close(alpha, want_alpha, 1e-12, 1e-15):
            return False
        if not close(alpha, 1.0 - s / gamma, 0.0, 1e-12):
            return False
    return want_star is None or close(gamma_star, want_star, 1e-12)


def sweep_rows_ok(text: str, points) -> bool:
    """Check a sweep CSV against the sorted parameter grid ``points``."""
    lines = text.strip().split("\n")
    if lines[0] != "dim,p,gamma,q,alpha,s,gamma_star,growth_regime,liouville_regime,verdict":
        return False
    rows = lines[1:]
    if len(rows) != len(points):
        return False
    for line, (d, p, gamma, q) in zip(rows, sorted(points)):
        cells = line.split(",")
        if int(cells[0]) != d or float(cells[1]) != p or float(cells[2]) != gamma or float(cells[3]) != q:
            return False
        if not valid_params(d, p, gamma, q):
            if cells[9] != "INVALID":
                return False
            continue

        def num(cell):
            return float(cell) if cell else None

        alpha, s, star = num(cells[4]), num(cells[5]), num(cells[6])
        if not exponents_ok(d, p, gamma, q, alpha, s, star):
            return False
        want_star = critical_exponent(d, p)
        if want_star is None:
            if any(cells[7:9]) or cells[9] != "INVALID":
                return False
            continue
        growth = "supernatural" if gamma > p else "subnatural"
        regime = (
            "subcritical" if gamma < want_star else "critical" if gamma == want_star else "supercritical"
        )
        verdict = "LIOUVILLE" if liouville_holds(d, p, gamma) else "NO_LIOUVILLE"
        if cells[7:10] != [growth, regime, verdict]:
            return False
    return True
