"""Command-line surface.

Each subcommand is declared once, as a row of ``COMMANDS``: its name,
help, flags and handler. The parser, the report's ``params`` and the
tests all read that table.

Every subcommand prints one JSON report on stdout and a one-line human
summary on stderr. ``params`` holds every flag of the subcommand, parsed
or defaulted, under argparse's default dest (``--s-index`` -> ``s_index``,
``--lambda`` -> ``lambda``), and ``provenance.config_hash`` hashes those
params, so two reports with one hash ran the same configuration. Exit
codes: 0 for a passing run, 1 when a verification or audit fails on the
science (residual too large, witness missing, mismatched verdicts, no
solver convergence), 2 for usage, precondition and file errors, which
print one ``error:`` line and no report. An exit-1 run that could not
finish (no admissible scale, no convergence, too few scales) reports
``results = {"error": message}``. Reports carry no timestamps and all
randomness is seeded, so identical invocations produce byte-identical
output; floats are serialized with shortest round-trip precision (up to
17 significant digits).

``sweep`` writes CSV (stdout or --out) over a parameter grid, its rows
sorted by parameters and computed in one array pass over the grid (one
``ParamGrid`` report); a NaN in any of its lists exits 2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from . import __version__
from .errors import (
    InsufficientScales,
    NoAdmissibleScale,
    NoConvergence,
    PdiLabError,
    PreconditionViolation,
)
from .params import (
    INFINITY,
    LiouvilleRegime,
    ParamGrid,
    ProblemParams,
    _gradient_arm,
    classify_regime,
    exponent_report,
    holder_exponent,
)
from .radial import (
    GeneralizedMeanCurvature,
    MeanCurvature,
    PLaplacian,
    PowerProfile,
    SampledProfile,
    _checked_samples,
    bump_profile_scale,
    residual_scan,
    sharpness_profile,
)
from .solver import (
    RadialPowerSource,
    SampledSource,
    SolverConfig,
    ZeroSource,
    solution_residual,
    solve_radial_dirichlet,
)
from .audit import caccioppoli_audit, holder_fit, morrey_norm
from .liouville import (
    EuclideanArea,
    ExponentialArea,
    IntegralVerdict,
    PowerArea,
    SampledArea,
    Verdict,
    area_condition_test,
    liouville_classify_euclidean,
    liouville_classify_manifold,
    sigma_lower_bound,
    verify_euclidean_witness,
)

__all__ = ["COMMANDS", "REQUIRED", "RunReport", "main", "run"]


@dataclass(frozen=True)
class RunReport:
    """One invocation's machine-readable record: what ran, with which
    parameters, what came out, and whether it passed. Everything in it is
    already JSON-safe, so ``as_dict`` round-trips losslessly."""

    command: str
    params: dict
    results: dict
    provenance: dict
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------


def _parse_floats(text: str, what: str, count: int):
    parts = text.split(",")
    if len(parts) != count:
        raise PreconditionViolation(f"{what} needs {count} number(s), got {text!r}")
    try:
        return tuple(float(x) for x in parts)
    except ValueError:
        raise PreconditionViolation(f"malformed {what} {text!r}") from None


def _read_two_column_csv(path: str):
    """Sample pairs from a CSV file; only the first row that is not blank
    or a ``#`` comment may be a non-numeric header."""
    rows = []
    first = True
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].strip().startswith("#"):
                continue
            if len(row) < 2:
                raise PreconditionViolation(f"{path}: need two columns r,value, got {row!r}")
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError:
                if not first:
                    raise PreconditionViolation(
                        f"{path}: line {reader.line_num}: not a number pair: {row!r}"
                    ) from None
            first = False
    return _checked_samples([r for r, _ in rows], [v for _, v in rows], path, 2)


def _parse_spec(text: str, what: str, families: dict, sampled=None):
    """The one spec grammar: ``name`` or ``name:x[,y]`` for a family in
    ``families`` (name -> (number count, constructor)), or ``file:path``
    for tabulated data when ``sampled`` builds it from (grid, values).
    Names are case-insensitive."""
    name, colon, rest = text.strip().partition(":")
    name = name.lower()
    if sampled is not None and name == "file" and colon:
        return sampled(*_read_two_column_csv(rest))
    count, build = families.get(name, (None, None))
    if count == 0 and not colon:
        return build()
    if count and colon:
        return build(*_parse_floats(rest, what, count))
    raise PreconditionViolation(f"unknown {what} {text!r}")


def _source(args):
    families = {"zero": (0, ZeroSource), "power": (2, RadialPowerSource)}
    return _parse_spec(args.source, "source", families, SampledSource)


def _area_profile(args):
    families = {
        "euclidean": (0, lambda: EuclideanArea(args.dim)),
        "power": (2, PowerArea),
        "exp": (2, ExponentialArea),
    }
    return _parse_spec(args.profile, "area profile", families, SampledArea)


def _witness(args):
    families = {
        "sharpness": (0, lambda: sharpness_profile(args.dim, args.p, args.gamma)),
        "linear": (0, lambda: PowerProfile(c=1.0, a=1.0)),
    }
    return _parse_spec(args.witness, "witness", families, SampledProfile)


def _parse_value_list(text: str):
    """Grid syntax: comma list '1,2,3' or range 'start:stop:step' (inclusive).
    NaN has no place in the sorted grid and is rejected; inf is allowed."""
    is_range = ":" in text
    try:
        values = [float(x) for x in text.split(":" if is_range else ",")]
    except ValueError:
        raise PreconditionViolation(f"malformed value list {text!r}") from None
    if not is_range:
        if any(map(math.isnan, values)):
            raise PreconditionViolation(f"value lists must not contain NaN, got {text!r}")
        return values
    if len(values) != 3:
        raise PreconditionViolation(f"range syntax is start:stop:step, got {text!r}")
    if not all(map(math.isfinite, values)):
        raise PreconditionViolation(f"range bounds and step must be finite, got {text!r}")
    start, stop, step = values
    if step <= 0:
        raise PreconditionViolation("range step must be positive")
    n = int(math.floor((stop - start) / step + 0.5)) + 1
    return [round(start + k * step, 10) for k in range(n) if start + k * step <= stop + step / 2]


def _jsonable(obj):
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
    return obj


def _emit(args, results: dict, passed: bool, note: str = "") -> int:
    """Write the one report of a run: its params are every flag of the
    subcommand's COMMANDS row, by dest (``args.dests``); ``note`` ends the
    stderr line."""
    params = {dest: getattr(args, dest) for dest in args.dests}
    params_clean = _jsonable(params)
    blob = json.dumps(params_clean, sort_keys=True).encode()
    report = RunReport(
        command=args.command,
        params=params_clean,
        results=_jsonable(results),
        provenance={
            "version": __version__,
            "seed": getattr(args, "seed", 0),
            "config_hash": hashlib.sha256(blob).hexdigest()[:12],
        },
        passed=bool(passed),
    )
    sys.stdout.write(json.dumps(report.as_dict(), allow_nan=False) + "\n")
    status = "PASS" if passed else "FAIL"
    sys.stderr.write(f"{args.command}: {status}{note}\n")
    return 0 if passed else 1


def _problem_params(args) -> ProblemParams:
    lam = getattr(args, "lambda")  # a keyword, so never args.lambda
    return ProblemParams(args.dim, args.p, args.gamma, lam, args.c_h, args.nu, args.q)


# ---------------------------------------------------------------------------
# Subcommand implementations: args -> (results, passed)
# ---------------------------------------------------------------------------


def _cmd_exponents(args):
    params = _problem_params(args)
    rep = exponent_report(params)
    results = {
        "alpha": rep.alpha,
        "s": rep.s,
        "gamma_star": rep.gamma_star,
        "alpha_branch": rep.alpha_branch.value if rep.alpha_branch else None,
        "s_branch": rep.s_branch.value,
    }
    if rep.gamma_star is not None:
        regime = classify_regime(params)
        results["growth_regime"] = regime.growth.value
        results["liouville_regime"] = regime.liouville.value
    return results, True


def _check_nodes(nodes: int) -> None:
    if not nodes >= 2:
        raise PreconditionViolation(f"--nodes must be at least 2, got {nodes}")


def _cmd_verify_sharpness(args):
    profile = sharpness_profile(args.dim, args.p, args.gamma)
    params = _problem_params(args)
    _check_nodes(args.nodes)
    grid = np.linspace(0.05, 0.95, args.nodes)
    report = residual_scan(PLaplacian(args.p), profile, params, None, grid, tol=args.tol)
    results = {
        "c": profile.c,
        "a": profile.a,
        "nodes": args.nodes,
        "min_residual": report.min_residual,
        "max_abs_residual": report.max_abs_residual,
    }
    return results, report.max_abs_residual <= args.tol


def _cmd_verify_bump(args):
    _problem_params(args)  # validates the problem flags
    _check_nodes(args.nodes)
    if not 0.05 < args.grid_max < math.inf:
        raise PreconditionViolation(f"--grid-max must be finite and exceed 0.05, got {args.grid_max}")
    grid = np.linspace(0.05, args.grid_max, args.nodes)
    c, report = bump_profile_scale(args.dim, args.p, args.gamma, args.c_h, grid)
    results = {
        "c": c,
        "delta": -_gradient_arm(args.p, args.gamma),
        "min_residual": report.min_residual,
        "grid_max": args.grid_max,
    }
    return results, report.passed


def _cmd_solve(args):
    params = _problem_params(args)
    operators = {
        "p-laplacian": (0, lambda: PLaplacian(args.p)),
        "mean-curvature": (0, MeanCurvature),
        "gmc": (1, GeneralizedMeanCurvature),
    }
    kind = _parse_spec(args.operator, "operator", operators)
    f = _source(args)
    bc_left = None
    if args.bc_left.strip().lower() != "none":
        (bc_left,) = _parse_floats(args.bc_left, "bc-left", 1)
    config = SolverConfig(n_nodes=args.nodes, newton_tol=args.tol)
    sol = solve_radial_dirichlet(
        kind, params, f, (args.r_in, args.r_out), bc_left, args.bc_right, config
    )
    recomputed = solution_residual(sol, f)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["r", "value"])
            for r, v in zip(sol.grid, sol.values):
                writer.writerow([repr(float(r)), repr(float(v))])
    mid = sol.grid.size // 2
    results = {
        "nodes": args.nodes,
        "iterations": sol.meta["iterations"],
        "final_residual": sol.meta["final_residual"],
        "roundoff_floor": sol.meta["roundoff_floor"],
        "recomputed_residual": recomputed,
        "u_left": float(sol.values[0]),
        "u_mid": float(sol.values[mid]),
        "u_right": float(sol.values[-1]),
        "u_min": float(np.min(sol.values)),
        "u_max": float(np.max(sol.values)),
    }
    # A returned solve converged by the solver's own rule; NoConvergence
    # is reported by run().
    return results, True


def _cmd_audit_caccioppoli(args):
    params = _problem_params(args)
    u = _witness(args)
    radius = args.radius
    if not (math.isfinite(radius) and radius > 0):
        raise PreconditionViolation(f"--radius must be finite and positive, got {radius}")
    t_list = np.geomspace(0.02 * radius, 0.95 * radius, 24)
    report = caccioppoli_audit(u, params, radius, t_list)
    results = {
        "predicted_s": report.predicted_s,
        "growth_target": params.dim - report.predicted_s,
        "fitted_growth": report.fitted_growth,
        "fitted_K": report.fitted_K,
        "k_stable": report.k_stable,
    }
    return results, report.passed and report.k_stable


def _cmd_audit_holder(args):
    params = _problem_params(args)
    u = _witness(args)
    name = args.witness.strip().lower()  # as _parse_spec reads it
    predicted = None
    if name == "sharpness":
        predicted = holder_exponent(params)
    elif name == "linear":
        predicted = 1.0
    report = holder_fit(
        u,
        pair_budget=args.pairs,
        scale_range=(args.scale_min, args.scale_max),
        seed=args.seed,
        predicted_alpha=predicted,
        tolerance=args.tol,
    )
    results = {
        "fitted_alpha": report.fitted_alpha,
        "r_squared": report.r_squared,
        "predicted_alpha": report.predicted_alpha,
        "bins": int(report.scales.size),
    }
    passed = report.passed if report.passed is not None else 0 < report.fitted_alpha <= 1 + args.tol
    return results, passed


def _cmd_morrey(args):
    f = _source(args)
    norm = morrey_norm(
        f,
        s_index=args.s_index,
        theta=args.theta,
        omega_radius=args.omega_radius,
        center_samples=args.centers,
        dim=args.dim,
    )
    results = {
        "value": "DIVERGENT" if norm.divergent else norm.value,
        "divergent": norm.divergent,
        "argmax_radius": norm.argmax_radius,
    }
    return results, True


def _cmd_liouville(args):
    verdict = liouville_classify_euclidean(args.dim, args.p, args.gamma, c_h=args.c_h)
    area = area_condition_test(EuclideanArea(args.dim), args.p, args.gamma)
    consistent = (verdict.verdict is Verdict.LIOUVILLE) == (
        area is IntegralVerdict.DIVERGENT
    )
    witness_ok = None
    witness_info = None
    if verdict.witness is not None:
        _, witness_ok = verify_euclidean_witness(verdict)
        witness_info = {
            "family": type(verdict.witness).__name__,
            "c": verdict.witness.c,
            "exponent": getattr(verdict.witness, "a", None),
            "delta": getattr(verdict.witness, "delta", None),
        }
    results = {
        "verdict": verdict.verdict,
        "mechanism": verdict.mechanism,
        "gamma_star": verdict.gamma_star,
        "area_test": area,
        "witness": witness_info,
        "witness_note": verdict.witness_note,
        "witness_ok": witness_ok,
    }
    return results, consistent and witness_ok is not False


def _cmd_manifold(args):
    profile = _area_profile(args)
    verdict = liouville_classify_manifold(
        profile, args.p, args.gamma, t_start=args.t_start, mode=args.mode
    )
    results = {
        "verdict": verdict.verdict,
        "mechanism": verdict.mechanism,
        "gamma_star": verdict.gamma_star,
    }
    return results, True


def _cmd_sigma_bound(args):
    params = _problem_params(args)
    profile = _area_profile(args)
    report = sigma_lower_bound(
        args.sigma_r, params, profile, args.radius_inner, args.radius_outer, weight=args.weight
    )
    results = {
        "lhs": report.lhs,
        "rhs": report.rhs,
        "constant_C": report.constant_C,
        "comparison_integral": report.comparison_integral,
        "area_integral": report.area_integral,
        "contradiction": report.contradiction,
        "weight": report.weight,
    }
    return results, True


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

_SWEEP_HEADER = (
    "dim",
    "p",
    "gamma",
    "q",
    "alpha",
    "s",
    "gamma_star",
    "growth_regime",
    "liouville_regime",
    "verdict",
)


def _sweep_rows(points):
    """Each (dim, p, gamma, q) point with integer dim, followed by its
    (alpha, s, gamma_star, growth_regime, liouville_regime, verdict) cells:
    the ``exponent_report`` and ``classify_regime`` of ``ProblemParams(dim,
    p, gamma, q=q)``, taken for all points at once through one ParamGrid. A
    point with no gamma_star, admissible or not, is INVALID."""
    d, p, gamma, q = np.array(points, dtype=float).reshape(-1, 4).T
    grid = ParamGrid(d, p, gamma, q=q)
    rep, regime = exponent_report(grid), classify_regime(grid)
    verdict = np.where(
        regime.liouville == LiouvilleRegime.SUPERCRITICAL.value, "NO_LIOUVILLE", "LIOUVILLE"
    )
    verdict[regime.liouville == ""] = "INVALID"
    cells = zip(
        map(_cell, rep.alpha.tolist()),
        map(_cell, rep.s.tolist()),
        map(_cell, rep.gamma_star.tolist()),
        regime.growth.tolist(),
        regime.liouville.tolist(),
        verdict.tolist(),
    )
    return list(map(tuple.__add__, points, cells))


def _cell(value: float) -> str:
    """A sweep number as its repr, or empty where the report has none."""
    return "" if math.isnan(value) else repr(value)


def _cmd_sweep(args):
    dims = _parse_value_list(args.dim)
    if not all(math.isfinite(d) and d == int(d) for d in dims):
        raise PreconditionViolation(f"sweep dims must be finite integers, got {args.dim!r}")
    ps = _parse_value_list(args.p)
    gammas = _parse_value_list(args.gamma)
    qs = _parse_value_list(args.q) if args.q else [INFINITY]
    points = sorted(
        (int(d), p, g, q) for d in dims for p in ps for g in gammas for q in qs
    )
    rows = _sweep_rows(points)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_SWEEP_HEADER)
    writer.writerows(rows)
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    sys.stderr.write(f"sweep: {len(rows)} rows\n")
    return None, True


# ---------------------------------------------------------------------------
# The subcommand table and the parser built from it
# ---------------------------------------------------------------------------

REQUIRED = object()  # the default slot of a flag that must be given

# A flag is (flag, type or choices, default or REQUIRED). The seven
# problem flags shared by most subcommands:
_PROBLEM = (
    ("--dim", int, REQUIRED),
    ("--p", float, REQUIRED),
    ("--gamma", float, REQUIRED),
    ("--lambda", float, 0.0),
    ("--c-h", float, 1.0),
    ("--nu", float, 1.0),
    ("--q", float, INFINITY),
)

# One row per subcommand: (name, help, flags, handler).
COMMANDS = (
    ("exponents", "closed-form exponent calculus", _PROBLEM, _cmd_exponents),
    ("verify-sharpness", "residual-check the explicit sharp solution",
     _PROBLEM + (("--nodes", int, 512), ("--tol", float, 1e-8)), _cmd_verify_sharpness),
    ("verify-bump", "largest bounded supersolution witness scale",
     _PROBLEM + (("--nodes", int, 300), ("--grid-max", float, 10.0)), _cmd_verify_bump),
    ("solve", "radial Dirichlet solve of the model equation", _PROBLEM + (
        ("--operator", str, "p-laplacian"), ("--source", str, "zero"),
        ("--r-in", float, 0.0), ("--r-out", float, 1.0),
        ("--bc-left", str, "none"), ("--bc-right", float, REQUIRED),
        ("--nodes", int, 256), ("--tol", float, 1e-10), ("--out", str, None),
    ), _cmd_solve),
    ("audit-caccioppoli", "energy growth vs the two-ball bound",
     _PROBLEM + (("--witness", str, "sharpness"), ("--radius", float, 1.0)),
     _cmd_audit_caccioppoli),
    ("audit-holder", "empirical Holder exponent fit", _PROBLEM + (
        ("--witness", str, "sharpness"), ("--pairs", int, 20000),
        ("--scale-min", float, 1e-3), ("--scale-max", float, 0.25),
        ("--seed", int, 0), ("--tol", float, 0.05),
    ), _cmd_audit_holder),
    ("morrey", "Morrey norm of a source term on a ball", (
        ("--source", str, REQUIRED), ("--s-index", float, 1.0),
        ("--theta", float, REQUIRED), ("--omega-radius", float, 1.0),
        ("--dim", int, 3), ("--centers", int, 8),
    ), _cmd_morrey),
    ("liouville", "Euclidean classification with witnesses",
     _PROBLEM[:3] + _PROBLEM[4:5], _cmd_liouville),  # --dim --p --gamma --c-h
    ("manifold", "area-growth Liouville test", (
        ("--profile", str, REQUIRED), ("--dim", int, 3),
        ("--p", float, REQUIRED), ("--gamma", float, REQUIRED),
        ("--t-start", float, 1.0), ("--mode", ("analytic", "numeric"), "analytic"),
    ), _cmd_manifold),
    ("sigma-bound", "both sides of the energy comparison", _PROBLEM + (
        ("--profile", str, "euclidean"), ("--sigma-r", float, REQUIRED),
        ("--radius-inner", float, REQUIRED), ("--radius-outer", float, REQUIRED),
        ("--weight", ("none", "exp"), "none"),
    ), _cmd_sigma_bound),
    ("sweep", "CSV exponent/verdict table over a parameter grid", (
        ("--dim", str, REQUIRED), ("--p", str, REQUIRED), ("--gamma", str, REQUIRED),
        ("--q", str, None), ("--out", str, None),
    ), _cmd_sweep),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``COMMANDS``, built once per process (argparse keeps
    no state between parses); callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="pdi-lab",
        description="Desk-scale verification of exponent formulas, explicit "
        "solutions, energy bounds and Liouville criteria for quasilinear "
        "elliptic inequalities with gradient terms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags, handler in COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        dests = []
        for flag, kind, default in flags:
            spec = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            spec.update({"required": True} if default is REQUIRED else {"default": default})
            dests.append(sp.add_argument(flag, **spec).dest)
        sp.set_defaults(func=handler, dests=tuple(dests))
    return parser


def run(argv) -> int:
    """Execute one invocation given its argument tokens and return the
    exit code. The report goes to stdout, the one-line summary to stderr."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    note = ""
    try:
        results, passed = args.func(args)
    except (NoAdmissibleScale, NoConvergence, InsufficientScales) as exc:
        # stopped on the science, not the input: a report, exit 1
        results, passed, note = {"error": str(exc)}, False, f" ({exc})"
    except (PdiLabError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if results is None:  # sweep wrote its CSV itself
        return 0
    return _emit(args, results, passed, note)


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
