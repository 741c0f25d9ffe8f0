"""Acceptance gate: the nine headline checks, one printed line each.

Each test prints `[PASS|FAIL] criterion N: ...` through the capture
bypass so the verdict lines always reach the terminal, then asserts.
Tolerances here are contractual; do not widen them to make a failing
build green.
"""

import math
import time

import numpy as np

from pdi_lab.audit import caccioppoli_audit, gradient_energy, holder_fit, morrey_norm
from pdi_lab.cli import main
from pdi_lab.liouville import (
    EuclideanArea,
    IntegralVerdict,
    Verdict,
    area_condition_test,
    liouville_classify_euclidean,
    sigma_lower_bound,
    verify_euclidean_witness,
)
from pdi_lab.params import INFINITY, ProblemParams, exponent_report
from pdi_lab.radial import PLaplacian, PowerProfile, residual_scan, sharpness_profile
from pdi_lab.solver import (
    RadialPowerSource,
    SolverConfig,
    ZeroSource,
    solve_radial_dirichlet,
)


def announce(capsys, number, label, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label} ({detail})")


def test_criterion_1_exponent_identity(capsys):
    t0 = time.perf_counter()
    dims = (3, 4, 5, 6, 8)
    ps = (1.5, 2.0, 2.5, 3.0)
    dgammas = (0.3, 0.7, 1.2, 2.0, 3.5)
    worst = 0.0
    count = 0
    for dim in dims:
        for p in ps:
            for dg in dgammas:
                gamma = p + dg
                for q in (INFINITY, max(1.0, dim / gamma) * 1.5):
                    params = ProblemParams(dim=dim, p=p, gamma=gamma, q=q)
                    rep = exponent_report(params)
                    worst = max(worst, abs(rep.alpha - (1.0 - rep.s / gamma)))
                    count += 1
    elapsed = time.perf_counter() - t0
    ok = count == 200 and worst <= 1e-12 and elapsed < 1.0
    announce(capsys, 1, "alpha = 1 - s/gamma on 200 valid points", ok,
             f"max deviation {worst:.3e}, {count} points, {elapsed:.2f}s")
    assert ok


def test_criterion_2_sharpness_witness(capsys):
    t0 = time.perf_counter()
    profile = sharpness_profile(3, 2.0, 4.0)
    params = ProblemParams(dim=3, p=2.0, gamma=4.0)
    grid = np.linspace(0.05, 0.95, 512)
    report = residual_scan(profile, params, grid, tol=1e-8)
    cube_err = abs(abs(profile.c) ** 3 - 45.0 / 8.0)
    elapsed = time.perf_counter() - t0
    ok = report.max_abs_residual < 1e-8 and cube_err <= 1e-12 and elapsed < 1.0
    announce(capsys, 2, "explicit sharp solution residual and constant", ok,
             f"max residual {report.max_abs_residual:.3e}, |c|^3 error {cube_err:.3e}")
    assert ok


def test_criterion_3_solver_convergence(capsys):
    t0 = time.perf_counter()
    sizes = (64, 128, 256, 512)
    params = ProblemParams(dim=3, p=2.0, gamma=2.0)

    def source(r):
        return 6.0 + 4.0 * np.asarray(r, dtype=float) ** 2

    mms_errors = []
    for n in sizes:
        sol = solve_radial_dirichlet(
            PLaplacian(2.0), params, source, (0.0, 1.0),
            bc_left=None, bc_right=0.0, config=SolverConfig(n_nodes=n),
        )
        mms_errors.append(float(np.max(np.abs(sol.values - (1.0 - sol.grid**2)))))
    # midpoint fluxes with exact shell volumes reproduce quadratics to
    # rounding, which satisfies any order bound; orders are only measured
    # when the errors sit above the noise floor
    if max(mms_errors) <= 1e-12:
        mms_ok = True
        mms_note = f"quadratic exact (max err {max(mms_errors):.2e})"
    else:
        orders = [
            math.log(mms_errors[i] / mms_errors[i + 1]) / math.log(2.0)
            for i in range(len(sizes) - 1)
        ]
        mms_ok = min(orders) >= 1.9
        mms_note = "quadratic orders " + ",".join(f"{o:.2f}" for o in orders)

    prof = sharpness_profile(3, 2.0, 4.0)
    aparams = ProblemParams(dim=3, p=2.0, gamma=4.0)
    ann_errors = []
    for n in sizes:
        sol = solve_radial_dirichlet(
            PLaplacian(2.0), aparams, ZeroSource(), (0.25, 1.0),
            bc_left=-prof.value(0.25), bc_right=0.0, config=SolverConfig(n_nodes=n),
        )
        ann_errors.append(float(np.max(np.abs(sol.values - (-prof.value(sol.grid))))))
    ann_orders = [
        math.log(ann_errors[i] / ann_errors[i + 1]) / math.log(2.0)
        for i in range(len(sizes) - 1)
    ]
    elapsed = time.perf_counter() - t0
    ok = mms_ok and min(ann_orders) >= 1.9 and elapsed < 30.0
    announce(capsys, 3, "solver convergence orders", ok,
             f"{mms_note}; annulus orders "
             + ",".join(f"{o:.2f}" for o in ann_orders) + f"; {elapsed:.1f}s")
    assert ok


def test_criterion_4_energy_quadrature(capsys):
    profile = sharpness_profile(3, 2.0, 4.0)
    params = ProblemParams(dim=3, p=2.0, gamma=4.0)
    # |V'| = |c| a r^(a-1), so the ball integral collapses to
    # 4 pi |c|^4 a^4 int_0^1 r^(2-4/3) dr with a = 2/3, |c|^3 = 45/8
    closed = 4.0 * math.pi * (45.0 / 8.0) ** (4.0 / 3.0) * (16.0 / 81.0) * (3.0 / 5.0)
    value = gradient_energy(profile, 4.0, 1.0, 3)
    rel = abs(value - closed) / closed
    rep = caccioppoli_audit(profile, params, R=1.0,
                            t_list=np.geomspace(0.02, 0.95, 24))
    slope_err = abs(rep.fitted_growth - 5.0 / 3.0)
    ok = rel <= 1e-3 and slope_err <= 0.05
    announce(capsys, 4, "gradient energy closed form and small-t slope", ok,
             f"rel err {rel:.2e}, slope {rep.fitted_growth:.4f}")
    assert ok


def test_criterion_5_holder_fit(capsys):
    sharp = sharpness_profile(3, 2.0, 4.0)
    rep = holder_fit(sharp, pair_budget=20000, scale_range=(1e-4, 0.5),
                     predicted_alpha=2.0 / 3.0)
    lin = holder_fit(PowerProfile(c=1.0, a=1.0), pair_budget=20000,
                     scale_range=(1e-3, 0.5), predicted_alpha=1.0)
    sharp_err = abs(rep.fitted_alpha - 2.0 / 3.0)
    lin_err = abs(lin.fitted_alpha - 1.0)
    ok = sharp_err <= 0.05 and rep.r_squared >= 0.99 and lin_err <= 0.02
    announce(capsys, 5, "empirical Holder exponents", ok,
             f"sharp {rep.fitted_alpha:.4f} (r^2 {rep.r_squared:.4f}), "
             f"linear {lin.fitted_alpha:.4f}")
    assert ok


def test_criterion_6_morrey_norms(capsys):
    norm = morrey_norm(RadialPowerSource(1.0, 1.0), s_index=1.0, theta=1.5,
                       omega_radius=1.0)
    rel = abs(norm.value - 2.0 * math.pi) / (2.0 * math.pi)
    diverging = morrey_norm(RadialPowerSource(1.0, 2.0), s_index=1.0, theta=1.5,
                            omega_radius=1.0)
    ok = rel <= 1e-6 and not norm.divergent and diverging.divergent
    announce(capsys, 6, "Morrey norm oracle and divergence flag", ok,
             f"|x|^-1 rel err {rel:.2e}, |x|^-2 divergent {diverging.divergent}")
    assert ok


def test_criterion_7_liouville_phase_diagram(capsys):
    t0 = time.perf_counter()
    mismatches = 0
    witnesses = 0
    failures = 0
    points = 0
    for dim in (3, 4, 5):
        for p in (1.5, 2.0, 3.0):
            if not p < dim:
                continue
            for k in range(1, 61):
                gamma = round(p - 1.0 + 0.05 * k, 10)
                points += 1
                verdict = liouville_classify_euclidean(dim, p, gamma)
                area = area_condition_test(EuclideanArea(dim), p, gamma)
                agree = (verdict.verdict is Verdict.LIOUVILLE) == (
                    area is IntegralVerdict.DIVERGENT
                )
                if not agree:
                    mismatches += 1
                if verdict.verdict is Verdict.NO_LIOUVILLE and gamma != p:
                    witnesses += 1
                    _, witness_ok = verify_euclidean_witness(verdict)
                    if not witness_ok:
                        failures += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and failures == 0 and elapsed < 300.0
    announce(capsys, 7, "Liouville phase diagram consistency", ok,
             f"{points} points, {mismatches} mismatches, "
             f"{witnesses} witnesses ({failures} failed), {elapsed:.1f}s")
    assert ok


def test_criterion_8_sigma_bound_closed_forms(capsys):
    area = EuclideanArea(3)
    sub = sigma_lower_bound(
        1.0, ProblemParams(dim=3, p=2.0, gamma=1.4), area, 1.0, 10.0
    )
    want_sub = (10.0**0.2 - 1.0) / 0.2
    rel_sub = abs(sub.comparison_integral - want_sub) / want_sub
    crit = sigma_lower_bound(
        1.0, ProblemParams(dim=3, p=2.0, gamma=1.5), area, 1.0, 10.0
    )
    want_crit = math.log(10.0)
    rel_crit = abs(crit.comparison_integral - want_crit) / want_crit
    ok = rel_sub <= 1e-10 and rel_crit <= 1e-10
    announce(capsys, 8, "sigma comparison integrals", ok,
             f"power rel {rel_sub:.2e}, log rel {rel_crit:.2e}")
    assert ok


def test_criterion_9_determinism(capsys):
    battery = [
        ["exponents", "--dim", "3", "--p", "2", "--gamma", "4"],
        ["verify-sharpness", "--dim", "3", "--p", "2", "--gamma", "4"],
        ["audit-holder", "--dim", "3", "--p", "2", "--gamma", "4"],
        ["solve", "--dim", "3", "--p", "2", "--gamma", "4",
         "--source", "power:1,0", "--r-out", "1", "--bc-right", "0"],
        ["sigma-bound", "--dim", "3", "--p", "2", "--gamma", "1.4",
         "--sigma-r", "1", "--radius-inner", "1", "--radius-outer", "10"],
        ["sweep", "--dim", "3,4", "--p", "2", "--gamma", "1.4,2.5,4"],
    ]

    def run_all():
        chunks = []
        for argv in battery:
            chunks.append((main(list(argv)), capsys.readouterr().out))
        return chunks

    first = run_all()
    second = run_all()
    # A run that exits 2 prints no report, so two of them would match.
    identical = first == second and all(code == 0 for code, _ in first)
    prof = ProblemParams(dim=3, p=2.0, gamma=2.0)
    s1 = solve_radial_dirichlet(
        PLaplacian(2.0), prof, RadialPowerSource(1.0, 0.0), (0.0, 1.0),
        bc_left=None, bc_right=0.0,
    )
    s2 = solve_radial_dirichlet(
        PLaplacian(2.0), prof, RadialPowerSource(1.0, 0.0), (0.0, 1.0),
        bc_left=None, bc_right=0.0,
    )
    solver_same = np.array_equal(s1.values, s2.values) and s1.meta == s2.meta
    ok = identical and solver_same
    announce(capsys, 9, "repeated runs are bit-identical", ok,
             f"{len(battery)} CLI reports identical, each exit 0, {identical}, "
             f"solver bitwise {solver_same}")
    assert ok
