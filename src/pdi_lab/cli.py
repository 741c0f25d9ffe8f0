"""Command-line surface.

Every subcommand prints one JSON report on stdout and a one-line human
summary on stderr. Exit codes: 0 for a passing run, 1 when a verification
or audit fails on the science (residual too large, witness missing,
mismatched verdicts, no solver convergence), 2 for usage, precondition
and file errors, which print one ``error:`` line and no report. Reports
carry no timestamps and all randomness is seeded, so identical
invocations produce byte-identical output; floats are serialized with
shortest round-trip precision (up to 17 significant digits).

``sweep`` writes CSV (stdout or --out) over a parameter grid.
"""

from __future__ import annotations

import argparse
import csv
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
    ProblemParams,
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
    power_area_diverges,
    sigma_lower_bound,
    verify_euclidean_witness,
)

__all__ = ["RunReport", "main", "run"]


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
    """Grid syntax: comma list '1,2,3' or range 'start:stop:step' (inclusive)."""
    is_range = ":" in text
    try:
        values = [float(x) for x in text.split(":" if is_range else ",")]
    except ValueError:
        raise PreconditionViolation(f"malformed value list {text!r}") from None
    if not is_range:
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


def _emit(args, params: dict, results: dict, passed: bool) -> int:
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
    sys.stderr.write(f"{args.command}: {status}\n")
    return 0 if passed else 1


def _problem_params(args) -> ProblemParams:
    return ProblemParams(
        dim=args.dim,
        p=args.p,
        gamma=args.gamma,
        lam=args.lam,
        c_h=args.c_h,
        nu=args.nu,
        q=args.q,
    )


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_exponents(args) -> int:
    params = _problem_params(args)
    rep = exponent_report(params)
    results = {
        "alpha": rep.alpha,
        "s": rep.s,
        "gamma_star": rep.gamma_star,
        "alpha_branch": rep.alpha_branch.value if rep.alpha_branch else None,
        "s_branch": rep.s_branch.value,
    }
    if 1 < params.p < params.dim:
        regime = classify_regime(params)
        results["growth_regime"] = regime.growth.value
        results["liouville_regime"] = regime.liouville.value
    return _emit(args, _params_dict(params), results, passed=True)


def _check_nodes(nodes: int) -> None:
    if not nodes >= 2:
        raise PreconditionViolation(f"--nodes must be at least 2, got {nodes}")


def _params_dict(params: ProblemParams) -> dict:
    # The report names the zero-order coefficient after its flag, --lambda.
    return {"lambda" if k == "lam" else k: v for k, v in asdict(params).items()}


def _cmd_verify_sharpness(args) -> int:
    profile = sharpness_profile(args.dim, args.p, args.gamma)
    params = _problem_params(args)
    _check_nodes(args.nodes)
    grid = np.linspace(0.05, 0.95, args.nodes)
    report = residual_scan(PLaplacian(args.p), profile, params, None, grid, tol=args.tol)
    passed = report.max_abs_residual <= args.tol
    results = {
        "c": profile.c,
        "a": profile.a,
        "nodes": args.nodes,
        "min_residual": report.min_residual,
        "max_abs_residual": report.max_abs_residual,
    }
    return _emit(args, _params_dict(params), results, passed)


def _cmd_verify_bump(args) -> int:
    params = _problem_params(args)
    _check_nodes(args.nodes)
    if not 0.05 < args.grid_max < math.inf:
        raise PreconditionViolation(f"--grid-max must be finite and exceed 0.05, got {args.grid_max}")
    grid = np.linspace(0.05, args.grid_max, args.nodes)
    c, report = bump_profile_scale(args.dim, args.p, args.gamma, args.c_h, grid)
    results = {
        "c": c,
        "delta": (args.p - args.gamma) / (args.gamma - (args.p - 1)),
        "min_residual": report.min_residual,
        "grid_max": args.grid_max,
    }
    return _emit(args, _params_dict(params), results, passed=report.passed)


def _cmd_solve(args) -> int:
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
        "recomputed_residual": recomputed,
        "u_left": float(sol.values[0]),
        "u_mid": float(sol.values[mid]),
        "u_right": float(sol.values[-1]),
        "u_min": float(np.min(sol.values)),
        "u_max": float(np.max(sol.values)),
    }
    # A returned solve converged by the solver's own rule; NoConvergence
    # is reported by run().
    return _emit(args, _params_dict(params), results, passed=True)


def _cmd_audit_caccioppoli(args) -> int:
    params = _problem_params(args)
    u = _witness(args)
    if not (math.isfinite(args.R) and args.R > 0):
        raise PreconditionViolation(f"--radius must be finite and positive, got {args.R}")
    t_list = np.geomspace(0.02 * args.R, 0.95 * args.R, 24)
    report = caccioppoli_audit(u, params, args.R, t_list)
    results = {
        "predicted_s": report.predicted_s,
        "growth_target": params.dim - report.predicted_s,
        "fitted_growth": report.fitted_growth,
        "fitted_K": report.fitted_K,
        "k_stable": report.k_stable,
    }
    return _emit(args, _params_dict(params), results, passed=report.passed and report.k_stable)


def _cmd_audit_holder(args) -> int:
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
    return _emit(args, _params_dict(params), results, passed)


def _cmd_morrey(args) -> int:
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
    params = {
        "source": args.source,
        "s_index": args.s_index,
        "theta": args.theta,
        "omega_radius": args.omega_radius,
        "dim": args.dim,
        "centers": args.centers,
    }
    return _emit(args, params, results, passed=True)


def _cmd_liouville(args) -> int:
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
    passed = consistent and witness_ok is not False
    params = {"dim": args.dim, "p": args.p, "gamma": args.gamma, "c_h": args.c_h}
    return _emit(args, params, results, passed)


def _cmd_manifold(args) -> int:
    profile = _area_profile(args)
    verdict = liouville_classify_manifold(
        profile, args.p, args.gamma, t_start=args.t_start, mode=args.mode
    )
    results = {
        "verdict": verdict.verdict,
        "mechanism": verdict.mechanism,
        "gamma_star": verdict.gamma_star,
    }
    params = {
        "profile": args.profile,
        "dim": args.dim,
        "p": args.p,
        "gamma": args.gamma,
        "t_start": args.t_start,
        "mode": args.mode,
    }
    return _emit(args, params, results, passed=True)


def _cmd_sigma_bound(args) -> int:
    params = _problem_params(args)
    profile = _area_profile(args)
    report = sigma_lower_bound(
        args.sigma_r, params, profile, args.R, args.r, weight=args.weight
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
    p = _params_dict(params)
    p.update({"profile": args.profile, "sigma_R": args.sigma_r, "R": args.R, "r": args.r})
    return _emit(args, p, results, passed=True)


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


def _sweep_row(point):
    """(alpha, s, gamma_star, growth_regime, liouville_regime, verdict)
    cells for one grid point; an inadmissible point is INVALID."""
    dim, p, gamma, q = point
    try:
        params = ProblemParams(dim=dim, p=p, gamma=gamma, q=q)
        rep = exponent_report(params)
    except PreconditionViolation:
        return point + ("", "", "", "", "", "INVALID")
    alpha = "" if rep.alpha is None else repr(rep.alpha)
    if rep.gamma_star is None:
        return point + (alpha, repr(rep.s), "", "", "", "INVALID")
    regime = classify_regime(params)
    verdict = "LIOUVILLE" if power_area_diverges(dim - 1, p, gamma) else "NO_LIOUVILLE"
    return point + (
        alpha,
        repr(rep.s),
        repr(rep.gamma_star),
        regime.growth.value,
        regime.liouville.value,
        verdict,
    )


def _cmd_sweep(args) -> int:
    dims = _parse_value_list(args.dim)
    if not all(math.isfinite(d) and d == int(d) for d in dims):
        raise PreconditionViolation(f"sweep dims must be finite integers, got {args.dim!r}")
    ps = _parse_value_list(args.p)
    gammas = _parse_value_list(args.gamma)
    qs = _parse_value_list(args.q) if args.q else [INFINITY]
    points = sorted(
        (int(d), p, g, q) for d in dims for p in ps for g in gammas for q in qs
    )
    rows = [_sweep_row(pt) for pt in points]

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
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_param_flags(sp):
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.0)
    sp.add_argument("--c-h", dest="c_h", type=float, default=1.0)
    sp.add_argument("--nu", type=float, default=1.0)
    sp.add_argument("--q", type=float, default=INFINITY)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdi-lab",
        description="Desk-scale verification of exponent formulas, explicit "
        "solutions, energy bounds and Liouville criteria for quasilinear "
        "elliptic inequalities with gradient terms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("exponents", help="closed-form exponent calculus")
    _add_param_flags(sp)
    sp.set_defaults(func=_cmd_exponents)

    sp = sub.add_parser("verify-sharpness", help="residual-check the explicit sharp solution")
    _add_param_flags(sp)
    sp.add_argument("--nodes", type=int, default=512)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.set_defaults(func=_cmd_verify_sharpness)

    sp = sub.add_parser("verify-bump", help="largest bounded supersolution witness scale")
    _add_param_flags(sp)
    sp.add_argument("--nodes", type=int, default=300)
    sp.add_argument("--grid-max", type=float, default=10.0)
    sp.set_defaults(func=_cmd_verify_bump)

    sp = sub.add_parser("solve", help="radial Dirichlet solve of the model equation")
    _add_param_flags(sp)
    sp.add_argument("--operator", default="p-laplacian")
    sp.add_argument("--source", default="zero")
    sp.add_argument("--r-in", type=float, default=0.0)
    sp.add_argument("--r-out", type=float, default=1.0)
    sp.add_argument("--bc-left", default="none")
    sp.add_argument("--bc-right", type=float, required=True)
    sp.add_argument("--nodes", type=int, default=256)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("audit-caccioppoli", help="energy growth vs the two-ball bound")
    _add_param_flags(sp)
    sp.add_argument("--witness", default="sharpness")
    sp.add_argument("--radius", dest="R", type=float, default=1.0)
    sp.set_defaults(func=_cmd_audit_caccioppoli)

    sp = sub.add_parser("audit-holder", help="empirical Holder exponent fit")
    _add_param_flags(sp)
    sp.add_argument("--witness", default="sharpness")
    sp.add_argument("--pairs", type=int, default=20000)
    sp.add_argument("--scale-min", type=float, default=1e-3)
    sp.add_argument("--scale-max", type=float, default=0.25)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=0.05)
    sp.set_defaults(func=_cmd_audit_holder)

    sp = sub.add_parser("morrey", help="Morrey norm of a source term on a ball")
    sp.add_argument("--source", required=True)
    sp.add_argument("--s-index", type=float, default=1.0)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--omega-radius", type=float, default=1.0)
    sp.add_argument("--centers", type=int, default=8)
    sp.add_argument("--dim", type=int, default=3)
    sp.set_defaults(func=_cmd_morrey)

    sp = sub.add_parser("liouville", help="Euclidean classification with witnesses")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--c-h", dest="c_h", type=float, default=1.0)
    sp.set_defaults(func=_cmd_liouville)

    sp = sub.add_parser("manifold", help="area-growth Liouville test")
    sp.add_argument("--profile", required=True)
    sp.add_argument("--dim", type=int, default=3)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--t-start", type=float, default=1.0)
    sp.add_argument("--mode", choices=("analytic", "numeric"), default="analytic")
    sp.set_defaults(func=_cmd_manifold)

    sp = sub.add_parser("sigma-bound", help="both sides of the energy comparison")
    _add_param_flags(sp)
    sp.add_argument("--profile", default="euclidean")
    sp.add_argument("--sigma-r", type=float, required=True)
    sp.add_argument("--radius-inner", dest="R", type=float, required=True)
    sp.add_argument("--radius-outer", dest="r", type=float, required=True)
    sp.add_argument("--weight", choices=("none", "exp"), default="none")
    sp.set_defaults(func=_cmd_sigma_bound)

    sp = sub.add_parser("sweep", help="CSV exponent/verdict table over a parameter grid")
    sp.add_argument("--dim", required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--q", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_sweep)

    return parser


def run(argv) -> int:
    """Execute one invocation given its argument tokens and return the
    exit code. The report goes to stdout, the one-line summary to stderr."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    try:
        return args.func(args)
    except (NoAdmissibleScale, NoConvergence, InsufficientScales) as exc:
        report = {
            "command": args.command,
            "error": str(exc),
            "provenance": {"version": __version__},
            "passed": False,
        }
        sys.stdout.write(json.dumps(report) + "\n")
        sys.stderr.write(f"{args.command}: FAIL ({exc})\n")
        return 1
    except (PdiLabError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
