"""The three workloads: fixed case lists, each op with its independent check.

A case is one operation on fixed inputs. ``run`` calls the program
through module attributes looked up at call time (``solver.solve_...``),
so the traced run's wrappers see every call; ``check`` judges the result
with ``oracle`` alone. Inputs do not depend on the seed: the seed only
orders the ops within each pass and seeds ``holder_fit``'s pair draw,
which costs the same for every seed.

``known_fault`` marks an op that fails on every run because of a named
fault in the program (see README.md). Its failure is counted in
``failed`` and leaves ``correct`` true; any other failure makes the run
incorrect.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracle


@dataclass
class Case:
    name: str
    cls: str  # case class: the traced run groups spans by it
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    work: float = 0.0  # grid nodes of a solve, rows of a sweep
    known_fault: str = ""


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

# Stated error constants: the max nodal error of each family must stay below
# C h^2 plus the roundoff allowance eps/h^2 (oracle.solution_error_bound).
# Each C is 3.8 to 14 times the constant measured (in units of the grid's
# own h) on the grids below (128 to 4096 nodes), so a first-order or wrong
# solution fails by orders of magnitude.
ERROR_CONSTANTS = {
    "cole-hopf": 0.05,
    "p3-ball": 16.0,
    "p3-annulus": 1.0,
    "p1.5-annulus": 1.0,
    "mc-ball": 2.0,
    "mc-annulus": 0.5,
    "gmc4-ball": 24.0,
    "gmc4-annulus": 0.5,
    "sharp-annulus": 4.0,
    "p1.5-ball": 2.0,
}
# Grid sizes per family: small grids (128 and 256 nodes) where per-call
# overhead and continuation dominate, and large ones (4096 nodes) where
# per-node arithmetic does. Every op stays short (about 1 to 20 ms): on a
# shared host the fastest repetition of a short op repeats from run to
# run, while an op of 50 ms or more is slowed as a whole by the host's
# slow stretches (README.md). So the large grids hold the families that
# solve without continuation, and p1.5-ball runs at 128 nodes (passes)
# and 256 (the known fault).
GRIDS = {
    "cole-hopf": (128, 256, 4096),
    "p3-ball": (128, 256),
    "p3-annulus": (128, 256),
    "p1.5-annulus": (128, 256),
    "mc-ball": (128, 256, 4096),
    "mc-annulus": (128, 256, 4096),
    "gmc4-ball": (128, 256),
    "gmc4-annulus": (128, 256),
    "sharp-annulus": (128, 256, 4096),
    "p1.5-ball": (128, 256),
}
LARGE = 4096
P15_BALL_FAULT = 256
ANNULUS = (0.25, 1.0)


def solve_problems():
    """name -> (kind, ProblemParams, source, domain, bc_left, exact)."""
    from pdi_lab import radial, solver
    from pdi_lab.params import ProblemParams

    d = 3

    def mms(kind, flux, gamma, m, domain):
        params = ProblemParams(dim=d, p=kind.p, gamma=gamma)
        source = oracle.manufactured_source(flux, d, gamma, m)
        bc_left = None if domain[0] == 0.0 else float(oracle.polynomial_profile(domain[0], m))
        return kind, params, source, domain, bc_left, lambda r: oracle.polynomial_profile(r, m)

    sc, sa = oracle.sharp_profile(d, 2.0, 4.0)
    return {
        "cole-hopf": (
            radial.PLaplacian(2.0), ProblemParams(dim=d, p=2.0, gamma=2.0),
            solver.RadialPowerSource(1.0, 0.0), (0.0, 1.0), None, oracle.cole_hopf,
        ),
        "p3-ball": mms(radial.PLaplacian(3.0), ("p", 3.0), 3.5, 2, (0.0, 1.0)),
        "p3-annulus": mms(radial.PLaplacian(3.0), ("p", 3.0), 3.5, 2, ANNULUS),
        # 1 - r^2 gives a source ~ r^(-1/2) for p = 1.5, infinite on the
        # axis node, so the ball uses 1 - r^3, whose flux is smooth.
        "p1.5-ball": mms(radial.PLaplacian(1.5), ("p", 1.5), 1.2, 3, (0.0, 1.0)),
        "p1.5-annulus": mms(radial.PLaplacian(1.5), ("p", 1.5), 1.2, 2, ANNULUS),
        "mc-ball": mms(radial.MeanCurvature(), ("gmc", 2.0), 1.5, 2, (0.0, 1.0)),
        "mc-annulus": mms(radial.MeanCurvature(), ("gmc", 2.0), 1.5, 2, ANNULUS),
        "gmc4-ball": mms(radial.GeneralizedMeanCurvature(4.0), ("gmc", 4.0), 2.5, 2, (0.0, 1.0)),
        "gmc4-annulus": mms(radial.GeneralizedMeanCurvature(4.0), ("gmc", 4.0), 2.5, 2, ANNULUS),
        # -V_sharp solves -Delta u + |Du|^4 = 0; its annulus problem is exact.
        "sharp-annulus": (
            radial.PLaplacian(2.0), ProblemParams(dim=d, p=2.0, gamma=4.0), solver.ZeroSource(),
            ANNULUS, float(-oracle.sharp_value(ANNULUS[0], sc, sa)),
            lambda r: -oracle.sharp_value(r, sc, sa),
        ),
    }


def solve_once(problem, n):
    from pdi_lab import solver

    kind, params, source, domain, bc_left, _ = problem
    return solver.solve_radial_dirichlet(
        kind, params, source, domain, bc_left, 0.0, solver.SolverConfig(n_nodes=n)
    )


def check_solution(sol, problem, n, family) -> bool:
    _, _, _, domain, _, exact = problem
    grid = np.linspace(domain[0], domain[1], n)
    if sol.grid.shape != (n,) or not np.allclose(sol.grid, grid, rtol=0, atol=1e-15):
        return False
    err = float(np.max(np.abs(sol.values - exact(grid))))
    scale = max(1.0, float(np.max(np.abs(sol.values))))
    bound = oracle.solution_error_bound(n, domain[1] - domain[0], ERROR_CONSTANTS[family], scale)
    return bool(np.all(np.isfinite(sol.values)) and err <= bound)


def residual_ok(residual, sol) -> bool:
    """The recomputed residual is at the Newton tolerance or at the roundoff
    floor of a flux difference, 64 eps |V| / h^2."""
    h = float(sol.grid[1] - sol.grid[0])
    scale = max(1.0, float(np.max(np.abs(sol.values))))
    return 0.0 <= residual <= 1e-10 + 64.0 * oracle.EPS * scale / (h * h)


def solve_cases(seed: int) -> list[Case]:
    from pdi_lab import solver

    problems = solve_problems()
    cases = []

    def add(family, n, cls, known_fault=""):
        problem = problems[family]

        def run():
            sol = solve_once(problem, n)
            return sol, solver.solution_residual(sol, problem[2])

        def check(out):
            sol, residual = out
            return check_solution(sol, problem, n, family) and residual_ok(residual, sol)

        cases.append(Case(f"{family}/n={n}", cls, run, check, work=n, known_fault=known_fault))

    for family, sizes in GRIDS.items():
        for n in sizes:
            fault = ("NoConvergence at the roundoff floor (solver.py:334-341)"
                     if family == "p1.5-ball" and n == P15_BALL_FAULT else "")
            add(family, n, "solve-large" if n >= LARGE else "solve-small", fault)
    return cases


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

# (d, p, gamma, energy radii). Seven energy ops in all (with one per
# solver output) put the median op inside the cluster of Caccioppoli
# audits, above the trapezoid energies and the Holder fits on profiles and
# below the Morrey norms and the Holder fits on solver outputs.
SHARP_PROFILES = (
    (3, 2.0, 4.0, (0.5, 1.0)),
    (4, 2.0, 3.0, (1.0,)),
    (3, 3.0, 5.0, (1.0,)),
    (5, 2.5, 4.0, (1.0,)),
)
# Morrey scan: 2 centres and 8 radii instead of the defaults (8 and 48),
# which make one norm cost 0.14 to 1.9 s. The short scan keeps every op
# under about 20 ms, and each closed form is still attained on it: the
# sup sits at the origin with r = 1, a radius every scan includes, and
# |x|^-2 still grows through the two finest decades.
MORREY_CENTRES = 2
MORREY_RADII = 8
MORREY_SAMPLES = 257


def audit_cases(seed: int) -> list[Case]:
    from pdi_lab import audit, radial, solver
    from pdi_lab.params import ProblemParams

    cases = []
    # Morrey norms: (name, d, source, s, theta, closed form or math.inf
    # for divergent, relative tolerance).
    g = np.linspace(0.0, 1.0, MORREY_SAMPLES)
    h = g[1] - g[0]
    morrey = (
        ("inv-r/d3", 3, solver.RadialPowerSource(1.0, 1.0), 1.0, 1.5, oracle.morrey_power(3, 1.0, 1.0, 1.5, 1.0), 1e-6),
        ("one/d3", 3, solver.RadialPowerSource(1.0, 0.0), 2.0, 3.0, oracle.morrey_power(3, 0.0, 2.0, 3.0, 1.0), 1e-9),
        # Linear interpolation of 1 + r^2 is off by at most h^2/4.
        ("sampled-1+r2/d3", 3, solver.SampledSource(g, 1.0 + g**2), 1.0, 2.0,
         oracle.morrey_one_plus_r2(3, 2.0, 1.0), h * h / 4.0 + 1e-7),
        ("inv-r/d4", 4, solver.RadialPowerSource(1.0, 1.0), 1.0, 2.5, oracle.morrey_power(4, 1.0, 1.0, 2.5, 1.0), 1e-6),
        ("inv-r2/d3", 3, solver.RadialPowerSource(1.0, 2.0), 1.0, 1.5, oracle.morrey_power(3, 2.0, 1.0, 1.5, 1.0), 0.0),
    )
    for name, d, f, s, theta, want, rel in morrey:
        def check(norm, want=want, rel=rel):
            if math.isinf(want):
                return norm.divergent and math.isinf(norm.value)
            return not norm.divergent and oracle.close(norm.value, want, rel)

        cases.append(Case(f"morrey/{name}", "morrey",
                          lambda f=f, s=s, theta=theta, d=d: audit.morrey_norm(
                              f, s, theta, 1.0, center_samples=MORREY_CENTRES, dim=d, n_radii=MORREY_RADII),
                          check))

    t_list = np.geomspace(0.02, 0.95, 24)

    def energy_checks(energy_at, s_pred, growth_want, growth_tol, rel, t_list=t_list):
        def check_energy(value, t):
            return oracle.close(value, energy_at(t), rel)

        def check_cacc(rep):
            want = np.array([energy_at(t) for t in t_list])
            k_want = float(np.max(want * (1.0 - t_list) ** s_pred))
            return (
                np.all(np.abs(rep.energies - want) <= rel * want)
                and oracle.close(rep.predicted_s, s_pred, 1e-12)
                and abs(rep.fitted_growth - growth_want) <= growth_tol
                and oracle.close(rep.fitted_K, k_want, rel)
            )

        return check_energy, check_cacc

    rng_seed = seed
    for d, p, gamma, radii in SHARP_PROFILES:
        prof = radial.sharpness_profile(d, p, gamma)
        params = ProblemParams(dim=d, p=p, gamma=gamma)
        c, a = oracle.sharp_profile(d, p, gamma)
        s_pred = oracle.energy_exponent(d, p, gamma)
        # The energy of the sharp profile is a pure power t^(d-s), so the
        # fitted growth is checked against d - s itself.
        check_energy, check_cacc = energy_checks(
            lambda t, c=c, a=a, d=d, gamma=gamma: oracle.sharp_energy(d, gamma, c, a, t),
            s_pred, d - s_pred, 0.05, 2e-3,
        )
        tag = f"sharp-{d}-{p:g}-{gamma:g}"
        for t in radii:
            cases.append(Case(f"energy/{tag}/t={t}", "energy",
                              lambda prof=prof, gamma=gamma, t=t, d=d: audit.gradient_energy(prof, gamma, t, d),
                              lambda v, t=t, ce=check_energy: ce(v, t)))
        cases.append(Case(f"caccioppoli/{tag}", "caccioppoli",
                          lambda prof=prof, params=params: audit.caccioppoli_audit(prof, params, 1.0, t_list),
                          check_cacc))
        alpha = oracle.holder_exponent(d, p, gamma)
        rng_seed += 1
        cases.append(Case(f"holder/{tag}", "holder",
                          lambda prof=prof, alpha=alpha, k=rng_seed: audit.holder_fit(
                              prof, 20000, (1e-4, 0.5), seed=k, predicted_alpha=alpha),
                          lambda rep, alpha=alpha: abs(rep.fitted_alpha - alpha) <= 0.05 and rep.r_squared >= 0.99))

    # Solver outputs made during set-up; their exact solutions are smooth
    # (Lipschitz with a nonzero slope), so the fitted Holder exponent is 1.
    problems = solve_problems()
    sol_specs = (
        ("cole-hopf", 3, 2.0, oracle.cole_hopf_slope, 0.0, np.geomspace(0.05, 0.95, 24)),
        ("sharp-annulus", 3, 4.0, lambda r: oracle.slope_power(*oracle.sharp_profile(3, 2.0, 4.0), r),
         ANNULUS[0], np.geomspace(0.3, 0.95, 24)),
    )
    for family, d, gamma, slope, r0, sol_t in sol_specs:
        problem = problems[family]
        sol = solve_once(problem, 1024)
        if not check_solution(sol, problem, 1024, family):
            raise RuntimeError(f"set-up solve {family} failed its check")
        params = problem[1]
        s_pred = oracle.energy_exponent(d, params.p, gamma)
        energy_at = (lambda t, slope=slope, d=d, gamma=gamma, r0=r0:
                     oracle.energy_from_slope(slope, d, gamma, r0, max(t, r0)))
        want = np.array([energy_at(t) for t in sol_t])
        half = sol_t.size // 2
        growth_want = float(np.polyfit(np.log(sol_t[:half]), np.log(want[:half]), 1)[0])
        check_energy, check_cacc = energy_checks(energy_at, s_pred, growth_want, 0.02, 2e-3, sol_t)
        cases.append(Case(f"energy/{family}-solution/t=0.9", "energy",
                          lambda sol=sol, gamma=gamma, d=d: audit.gradient_energy(sol, gamma, 0.9, d),
                          lambda v, ce=check_energy: ce(v, 0.9)))
        cases.append(Case(f"caccioppoli/{family}-solution", "caccioppoli",
                          lambda sol=sol, params=params, sol_t=sol_t: audit.caccioppoli_audit(sol, params, 1.0, sol_t),
                          check_cacc))
        rng_seed += 1
        cases.append(Case(f"holder/{family}-solution", "holder",
                          lambda sol=sol, k=rng_seed: audit.holder_fit(sol, 20000, (1e-3, 0.25), seed=k),
                          lambda rep: abs(rep.fitted_alpha - 1.0) <= 0.05))
    return cases


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

# Euclidean phase points (d, p, gamma): the closed-form side (gamma <= gamma*,
# the tie gamma = gamma* included), the entire-power witness side
# (gamma > p), the bump witness side (gamma* < gamma < p, each a scale
# search) and gamma = p, where no witness is built.
PHASE_POINTS = (
    (3, 2.0, 1.2), (3, 2.0, 1.5), (4, 3.0, 2.4), (5, 2.0, 1.1), (3, 1.5, 0.7), (4, 2.0, 1.3),
    (3, 2.0, 2.5), (3, 2.0, 4.0), (4, 2.0, 3.0), (4, 3.0, 3.5), (5, 3.0, 4.0), (3, 1.5, 2.0),
    (5, 2.5, 3.0), (6, 2.0, 2.2), (3, 2.5, 3.5), (4, 1.5, 1.7), (5, 2.0, 2.8), (6, 3.0, 3.3),
    (3, 2.0, 1.6), (3, 2.0, 1.8), (4, 3.0, 2.8), (5, 3.0, 2.7), (3, 1.5, 1.0),
    (3, 2.0, 2.0), (4, 3.0, 3.0),
)
# Numeric area tests (area family, rate, p, gamma).
AREA_TESTS = (
    ("power", 1.0, 2.0, 1.4), ("power", 1.0, 2.0, 2.5), ("power", 3.0, 2.0, 1.4),
    ("power", 2.0, 2.0, 1.5), ("power", 3.0, 3.0, 2.5), ("power", 2.0, 1.5, 1.2),
    ("exp", 1.0, 2.0, 1.4), ("exp", 2.0, 3.0, 2.5), ("exp", -0.5, 2.0, 2.5), ("exp", 0.0, 1.5, 1.2),
)
# The numeric test's divergence rule accepts increment ratios >= 0.999, so
# a convergent exponential area with small kappa*e reads as divergent.
AREA_FAULT = ("exp", 0.5, 3.0, 2.5)
# find_contradiction_radius on R^d with sigma(R) = 1, R = 1 (divergent side).
CONTRADICTIONS = ((3, 2.0, 1.4), (3, 2.0, 1.5), (4, 3.0, 2.5), (5, 2.0, 1.2))
# In-process sweep chunks: (dims, p grid, gamma grid, q list).
SWEEPS = (
    ("3,4", "1.5:3:0.5", "0.6:6:0.2", "inf"),
    ("5", "1.5:4.5:0.5", "0.6:6:0.2", "inf,4"),
    ("3,6", "2", "1.1:4:0.1", "2,8,inf"),
)


def _values(text):
    """A sweep axis: 'a,b,c' (inf allowed) or the inclusive range
    'start:stop:step', whose values are rounded to 10 decimals."""
    if ":" in text:
        start, stop, step = (float(x) for x in text.split(":"))
        return [round(start + k * step, 10) for k in range(int(math.floor((stop - start) / step + 0.5)) + 1)]
    return [math.inf if x == "inf" else float(x) for x in text.split(",")]


def _points(dims, ps, gammas, qs):
    """The sorted parameter grid a sweep must report, one row per point."""
    return sorted(
        (int(d), p, g, q)
        for d in _values(dims) for p in _values(ps) for g in _values(gammas) for q in _values(qs)
    )


def run_cli_inprocess(argv):
    """(exit code, stdout) of cli.run in this process."""
    from pdi_lab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue()


def classify_cases(seed: int) -> list[Case]:
    from pdi_lab import liouville
    from pdi_lab.params import ProblemParams

    cases = []
    witness_grids = {"BumpProfile": np.linspace(0.05, 10.0, 300), "PowerProfile": np.linspace(0.1, 5.0, 200)}

    def classify_point(d, p, gamma):
        verdict = liouville.liouville_classify_euclidean(d, p, gamma)
        area = liouville.area_condition_test(liouville.EuclideanArea(d), p, gamma)
        witness = None
        if verdict.witness is not None:
            witness = liouville.verify_euclidean_witness(verdict)[1]
        return verdict, area, witness

    def check_point(out, d, p, gamma):
        verdict, area, witness_ok = out
        holds = oracle.liouville_holds(d, p, gamma)
        if verdict.verdict.value != ("LIOUVILLE" if holds else "NO_LIOUVILLE"):
            return False
        if area.value != ("DIVERGENT" if holds else "CONVERGENT"):
            return False
        if not oracle.close(verdict.gamma_star, oracle.critical_exponent(d, p), 1e-12):
            return False
        w = verdict.witness
        if holds or gamma == p:
            return w is None and witness_ok is None
        kind = type(w).__name__
        grid = witness_grids.get(kind)
        if kind == "PowerProfile":
            ok = oracle.entire_witness_ok(d, p, gamma, 1.0, w.c, w.a, grid)
        elif kind == "BumpProfile":
            ok = oracle.bump_witness_ok(d, p, gamma, 1.0, w.c, w.delta, grid)
        else:
            return False
        return ok and witness_ok is True

    for d, p, gamma in PHASE_POINTS:
        if oracle.liouville_holds(d, p, gamma):
            cls = "phase-closed"
        elif gamma > p:
            cls = "phase-power"
        elif gamma < p:
            cls = "phase-bump"
        else:
            cls = "phase-log"
        cases.append(Case(f"phase/{d}-{p:g}-{gamma:g}", cls,
                          lambda d=d, p=p, gamma=gamma: classify_point(d, p, gamma),
                          lambda out, d=d, p=p, gamma=gamma: check_point(out, d, p, gamma)))

    def area_case(family, rate, p, gamma, known_fault=""):
        profile = liouville.PowerArea(1.0, rate) if family == "power" else liouville.ExponentialArea(1.0, rate)
        diverges = oracle.area_integral_diverges((family, rate), p, gamma)

        def check(v):
            return v.value == "INCONCLUSIVE" or v.value == ("DIVERGENT" if diverges else "CONVERGENT")

        cases.append(Case(f"area/{family}:{rate:g}/{p:g}-{gamma:g}", "area-numeric",
                          lambda: liouville.area_condition_test(profile, p, gamma, mode="numeric"),
                          check, known_fault=known_fault))

    for spec in AREA_TESTS:
        area_case(*spec)
    area_case(*AREA_FAULT, known_fault="numeric exponential-area mis-verdict (liouville.py:315)")

    for d, p, gamma in CONTRADICTIONS:
        params = ProblemParams(dim=d, p=p, gamma=gamma)

        def check(rep, d=d, p=p, gamma=gamma):
            if rep is None or rep.R != 1.0:
                return False
            lhs, rhs = oracle.sigma_sides(1.0, d, p, gamma, 1.0, rep.r)
            if not (oracle.close(rep.lhs, lhs, 1e-10) and oracle.close(rep.rhs, rhs, 1e-10) and rhs > lhs):
                return False
            # r is the first doubling of R at which the sides cross.
            k = math.log2(rep.r)
            if k != round(k) or k < 1:
                return False
            return rep.r == 2.0 or oracle.sigma_sides(1.0, d, p, gamma, 1.0, rep.r / 2.0)[1] <= lhs

        cases.append(Case(f"contradiction/{d}-{p:g}-{gamma:g}", "contradiction",
                          lambda params=params, d=d: liouville.find_contradiction_radius(
                              1.0, params, liouville.EuclideanArea(d), 1.0),
                          check))

    for dims, ps, gammas, qs in SWEEPS:
        points = _points(dims, ps, gammas, qs)
        argv = ["sweep", "--dim", dims, "--p", ps, "--gamma", gammas, "--q", qs]
        cases.append(Case(f"sweep/{dims}/{ps}/{gammas}/{qs}", "sweep",
                          lambda argv=argv: run_cli_inprocess(argv),
                          lambda out, points=points: out[0] == 0 and oracle.sweep_rows_ok(out[1], points),
                          work=len(points)))
    return cases


# ---------------------------------------------------------------------------
# cli layer probe
# ---------------------------------------------------------------------------

OUT_DIR = ".perfbench"
SWEEP_OUT = os.path.join(OUT_DIR, "cli-sweep-{pid}.csv")
# One argv per subcommand, run through in-process ``cli.run`` by every
# traced run (``cli.run_ms``); ``{pid}`` is the worker's process id.
CLI_ARGVS = (
    ["exponents", "--dim", "3", "--p", "2", "--gamma", "4", "--q", "6"],
    ["liouville", "--dim", "3", "--p", "2", "--gamma", "1.4"],
    ["liouville", "--dim", "3", "--p", "2", "--gamma", "2.5"],
    ["manifold", "--profile", "power:1,2", "--p", "2", "--gamma", "1.4"],
    ["sigma-bound", "--dim", "3", "--p", "2", "--gamma", "1.4", "--sigma-r", "1",
     "--radius-inner", "1", "--radius-outer", "10"],
    ["verify-sharpness", "--dim", "3", "--p", "2", "--gamma", "4"],
    ["sweep", "--dim", "3,4", "--p", "1.5:3:0.5", "--gamma", "0.6:6:0.1", "--out", SWEEP_OUT],
    ["solve", "--dim", "3", "--p", "2", "--gamma", "2", "--source", "power:1,0",
     "--r-out", "1", "--bc-right", "0", "--nodes", "4096"],
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return env


WORKLOADS = {
    "solve": solve_cases,
    "audit": audit_cases,
    "classify": classify_cases,
}
