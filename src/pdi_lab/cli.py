"""Command-line surface.

Each subcommand is declared once, as a row of ``COMMANDS``: its name,
help, flags (those its computation reads) and handler. The parser, the
report's ``params`` and the tests all read that table. A handler's
``results`` project its library report by field name (``_fields``).
Flags take their full spelling only.

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
``results = {"error": message}``. Reports carry no timestamps and no
number is drawn at random, so identical invocations produce byte-identical
output; floats are serialized with shortest round-trip precision (up to
17 significant digits).

``sweep`` writes CSV (stdout or --out) over a parameter grid, its rows
sorted by parameters and computed in one array pass over the grid (one
``ParamGrid`` report); each distinct number is formatted once and the CSV
is joined directly, since no cell needs quoting. A NaN in any of its
lists exits 2.

The solver and the audits are imported by the handlers that call them
(``solve``, ``morrey`` and the two ``audit-*`` subcommands), so no other
subcommand loads either module.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from decimal import Decimal
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
    _check_count,
    _gradient_arm,
    _in_range,
    classify_regime,
    exponent_report,
    holder_exponent,
)
from .radial import (
    BumpProfile,
    GeneralizedMeanCurvature,
    MeanCurvature,
    PLaplacian,
    PowerProfile,
    SampledProfile,
    _certify_witness,
    _witness_scale,
    bump_profile_scale,
    residual_scan,
    sharpness_profile,
)
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

__all__ = ["COMMANDS", "REQUIRED", "main", "run"]


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
    """The r and value columns of a CSV file, as floats; only the first row
    that is not blank or a ``#`` comment may be a non-numeric header."""
    rows = []
    first = True
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].strip().startswith("#"):
                continue
            if len(row) < 2:
                raise PreconditionViolation(f"need two columns r,value, got {row!r}")
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError:
                if not first:
                    raise PreconditionViolation(
                        f"line {reader.line_num}: not a number pair: {row!r}"
                    ) from None
            first = False
    return [r for r, _ in rows], [v for _, v in rows]


def _parse_spec(text: str, what: str, families: dict, sampled=None):
    """The one spec grammar: ``name`` or ``name:x[,y]`` for a family in
    ``families`` (name -> (number count, constructor)), or ``file:path``
    for tabulated data when ``sampled`` builds it from (grid, values);
    their errors name the path. Names are case-insensitive."""
    name, colon, rest = text.strip().partition(":")
    name = name.lower()
    if sampled is not None and name == "file" and colon:
        try:
            return sampled(*_read_two_column_csv(rest))
        except (PreconditionViolation, UnicodeDecodeError) as exc:
            raise PreconditionViolation(f"{rest}: {exc}") from None
    count, build = families.get(name, (None, None))
    if count == 0 and not colon:
        return build()
    if count and colon:
        return build(*_parse_floats(rest, what, count))
    raise PreconditionViolation(f"unknown {what} {text!r}")


def _source(args):
    from .solver import RadialPowerSource, SampledSource, ZeroSource

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


# The most rows a sweep holds: its peak memory grows by about 0.8 KB a row
# (CHANGES.md), so a full sweep peaks near 0.9 GB.
_SWEEP_ROWS = 10**6


def _check_rows(what: str, n: int):
    if n > _SWEEP_ROWS:
        raise PreconditionViolation(f"{what} gives more than the {_SWEEP_ROWS:,} rows a sweep holds")


def _range_count(text: str, start: float, stop: float, step: float) -> int:
    """The steps of the range ``text`` = start:stop:step, rounded; the text
    names the range in a refusal."""
    return math.floor((stop - start) / step + 0.5)


def _parse_value_list(text: str, integers: bool = False):
    """Grid syntax: comma list '1,2,3' or range 'start:stop:step' (inclusive)
    of exact decimal steps from the typed start, each rounded once to a
    float. NaN has no place in the sorted grid and is rejected; inf is allowed.
    With ``integers`` (the dims), each value must be an integer that its
    float holds exactly, as typed."""
    is_range = ":" in text
    parts = text.split(":" if is_range else ",")
    try:
        values = [float(x) for x in parts]
    except ValueError:
        raise PreconditionViolation(f"malformed value list {text!r}") from None
    if not is_range:
        if any(map(math.isnan, values)):
            raise PreconditionViolation(f"value lists must not contain NaN, got {text!r}")
        exact = map(Decimal, parts)
    else:
        if len(values) != 3:
            raise PreconditionViolation(f"range syntax is start:stop:step, got {text!r}")
        if not all(map(math.isfinite, values)):
            raise PreconditionViolation(f"range bounds and step must be finite, got {text!r}")
        start, stop, step = values
        if step <= 0:
            raise PreconditionViolation("range step must be positive")
        n = _in_range("the count of {!r}", _range_count, text, start, stop, step) + 1
        _check_rows(f"the range {text!r}", n)
        exact_start, exact_step = Decimal(parts[0]), Decimal(parts[2])
        exact = [exact_start + k * exact_step for k in range(n)
                 if start + k * step <= stop + step / 2]
        values = [float(x) for x in exact]
    if integers and not all(math.isfinite(v) and v == int(v) and Decimal(v) == x
                            for v, x in zip(values, exact)):
        raise PreconditionViolation(
            f"sweep dims must be integers that a float holds exactly, got {text!r}"
        )
    return values


def _jsonable(obj):
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
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
    stderr line. ``hashlib`` is imported here, so a run that writes no
    report (``sweep``) never loads OpenSSL."""
    import hashlib

    params = {dest: getattr(args, dest) for dest in args.dests}
    params_clean = _jsonable(params)
    blob = json.dumps(params_clean, sort_keys=True).encode()
    report = {
        "command": args.command,
        "params": params_clean,
        "results": _jsonable(results),
        "provenance": {
            "version": __version__,
            "config_hash": hashlib.sha256(blob).hexdigest()[:12],
        },
        "passed": bool(passed),
    }
    sys.stdout.write(json.dumps(report, allow_nan=False) + "\n")
    status = "PASS" if passed else "FAIL"
    sys.stderr.write(f"{args.command}: {status}{note}\n")
    return 0 if passed else 1


def _problem_params(args, **fixed) -> ProblemParams:
    """The ProblemParams of the problem flags the subcommand has, --lambda
    as lam, and of ``fixed``; the dataclass defaults stand for the rest."""
    given = {"lam" if dest == "lambda" else dest: value for dest, value in vars(args).items()}
    given.update(fixed)
    fields = ("dim", "p", "gamma", "lam", "c_h", "nu", "q")
    return ProblemParams(**{name: given[name] for name in fields if name in given})


# ---------------------------------------------------------------------------
# Subcommand implementations: args -> (results, passed)
# ---------------------------------------------------------------------------


def _fields(report, names: str, **derived) -> dict:
    """The results of a report: each of the space-separated ``names`` in
    order, read off ``report`` unless ``derived`` gives its value."""
    return {name: derived[name] if name in derived else getattr(report, name)
            for name in names.split()}


def _cmd_exponents(args):
    params = _problem_params(args)
    rep = exponent_report(params)
    results = _fields(rep, "alpha s gamma_star alpha_branch s_branch")
    if rep.gamma_star is not None:
        regime = classify_regime(params)
        results.update(growth_regime=regime.growth, liouville_regime=regime.liouville)
    return results, True


def _cmd_verify_sharpness(args):
    params = ProblemParams(dim=args.dim, p=args.p, gamma=args.gamma)
    _check_count("--nodes", args.nodes, 2)
    c = sharpness_profile(args.dim, args.p, args.gamma, args.c_h).c
    # The c_h profile is k u, k = c_h^(-1/(gamma-p+1)), its residual k^(p-1) times u's.
    u = sharpness_profile(args.dim, args.p, args.gamma)  # c_h = 1, as in params
    grid = np.linspace(0.05, 0.95, args.nodes)
    report = residual_scan(u, params, grid, tol=args.tol)
    results = _fields(u, "c a nodes", c=c, nodes=args.nodes)
    results.update(_fields(report, "min_residual max_abs_residual"))
    return results, report.max_abs_residual <= args.tol


def _cmd_verify_bump(args):
    _problem_params(args)  # validates the problem flags
    _check_count("--nodes", args.nodes, 2)
    if not 0.05 < args.grid_max < math.inf:
        raise PreconditionViolation(f"--grid-max must be finite and exceed 0.05, got {args.grid_max}")
    grid = np.linspace(0.05, args.grid_max, args.nodes)
    c = bump_profile_scale(args.dim, args.p, args.gamma, args.c_h)
    report, _ = _certify_witness(args.dim, args.p, args.gamma, True, grid)
    results = _fields(
        report, "c log10_c delta min_residual grid_max", c=c,
        log10_c=_witness_scale(args.dim, args.p, args.gamma, args.c_h, bounded=True)[1],
        delta=-_gradient_arm(args.p, args.gamma), grid_max=args.grid_max,
    )
    return results, report.passed


def _cmd_solve(args):
    from .solver import SolverConfig, solve_radial_dirichlet

    operators = {
        "p-laplacian": (0, lambda: PLaplacian(args.p)),
        "mean-curvature": (0, MeanCurvature),
        "gmc": (1, GeneralizedMeanCurvature),
    }
    kind = _parse_spec(args.operator, "operator", operators)
    params = _problem_params(args, p=kind.order_for(args.gamma))  # gmc:k's own, not --p
    f = _source(args)
    bc_left = None
    if args.bc_left.strip().lower() != "none":
        (bc_left,) = _parse_floats(args.bc_left, "bc-left", 1)
    config = SolverConfig(n_nodes=args.nodes, newton_tol=args.tol)
    sol = solve_radial_dirichlet(
        kind, params, f, (args.r_in, args.r_out), bc_left, args.bc_right, config
    )
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["r", "value"])
            # csv writes a float as its str, which is its round-trip repr
            writer.writerows(zip(sol.grid.tolist(), sol.values.tolist()))
    u = sol.values
    results = _fields(
        sol, "nodes iterations final_residual roundoff_floor u_left u_mid u_right u_min u_max",
        **sol.meta, nodes=args.nodes, u_left=u[0], u_mid=u[u.size // 2], u_right=u[-1],
        u_min=u.min(), u_max=u.max(),
    )
    # A returned solve converged by the solver's own rule; NoConvergence
    # is reported by run().
    return results, True


def _cmd_audit_caccioppoli(args):
    from .audit import caccioppoli_audit

    params = _problem_params(args)
    u = _witness(args)
    radius = args.radius
    if not (math.isfinite(radius) and 0.02 * radius > 0):  # 0.02 R is the smallest t
        raise PreconditionViolation(f"--radius must be finite with 0.02 * radius > 0, got {radius}")
    t_list = np.geomspace(0.02 * radius, 0.95 * radius, 24)
    report = caccioppoli_audit(u, params, radius, t_list)
    results = _fields(report, "predicted_s growth_target fitted_growth fitted_K k_stable",
                      growth_target=params.dim - report.predicted_s)
    return results, report.k_stable


def _cmd_audit_holder(args):
    from .audit import holder_fit

    params = _problem_params(args)
    u = _witness(args)
    name = args.witness.strip().lower()  # as _parse_spec reads it
    predicted = None
    if name == "sharpness":
        predicted = holder_exponent(params)
    elif name == "linear":
        predicted = 1.0
    # Both fits are exact; pair_budget is validated only, and stays in the
    # library for the benchmark's calls (ROADMAP item 19).
    report = holder_fit(
        u,
        pair_budget=1,
        scale_range=(args.scale_min, args.scale_max),
        predicted_alpha=predicted,
        tolerance=args.tol,
    )
    results = _fields(report, "fitted_alpha r_squared predicted_alpha bins",
                      bins=report.scales.size)
    passed = report.passed if report.passed is not None else 0 < report.fitted_alpha <= 1 + args.tol
    return results, passed


def _cmd_morrey(args):
    from .audit import morrey_norm

    f = _source(args)
    norm = morrey_norm(
        f,
        s_index=args.s_index,
        theta=args.theta,
        omega_radius=args.omega_radius,
        dim=args.dim,
    )
    results = _fields(norm, "value divergent argmax_radius exact",
                      value="DIVERGENT" if norm.divergent else norm.value)
    return results, True


def _cmd_liouville(args):
    verdict = liouville_classify_euclidean(args.dim, args.p, args.gamma, c_h=args.c_h)
    area = area_condition_test(EuclideanArea(args.dim), args.p, args.gamma)
    consistent = (verdict.verdict is Verdict.LIOUVILLE) == (
        area is IntegralVerdict.DIVERGENT
    )
    witness_ok = witness_info = None
    if verdict.witness is not None:
        _, witness_ok = verify_euclidean_witness(verdict)
        bounded = isinstance(verdict.witness, BumpProfile)
        witness_info = {
            "family": type(verdict.witness).__name__,
            "c": verdict.witness.c,
            "log10_c": _witness_scale(args.dim, args.p, args.gamma, args.c_h, bounded)[1],
            "exponent": getattr(verdict.witness, "a", None),
            "delta": getattr(verdict.witness, "delta", None),
        }
    results = _fields(
        verdict, "verdict mechanism gamma_star area_test witness witness_note witness_ok",
        area_test=area, witness=witness_info, witness_ok=witness_ok,
    )
    return results, consistent and witness_ok is not False


def _cmd_manifold(args):
    profile = _area_profile(args)
    verdict = liouville_classify_manifold(
        profile, args.p, args.gamma, t_start=args.t_start, mode=args.mode
    )
    return _fields(verdict, "verdict mechanism gamma_star"), True


def _cmd_sigma_bound(args):
    params = _problem_params(args)
    profile = _area_profile(args)
    report = sigma_lower_bound(args.sigma_r, params, profile, args.radius_inner, args.radius_outer)
    names = "lhs rhs constant_C comparison_integral area_integral contradiction"
    return _fields(report, names), True


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
    """The text cells of each (dim, p, gamma, q) point: its coordinates, then
    (alpha, s, gamma_star, growth_regime, liouville_regime, verdict), the
    ``exponent_report`` and ``classify_regime`` of ``ProblemParams(dim, p,
    gamma, q=q)``, taken for all points at once through one ParamGrid. A
    point with no gamma_star, admissible or not, is INVALID."""
    d, p, gamma, q = np.asarray(points, dtype=float).reshape(-1, 4).T
    grid = ParamGrid(d, p, gamma, q=q)
    rep, regime = exponent_report(grid), classify_regime(grid)
    verdict = np.where(
        regime.liouville == LiouvilleRegime.SUPERCRITICAL.value, "NO_LIOUVILLE", "LIOUVILLE"
    )
    verdict[regime.liouville == ""] = "INVALID"
    numbers = _text(np.stack([p, gamma, q, rep.alpha, rep.s, rep.gamma_star]), repr)
    dims = _text(d, lambda x: str(int(x)))
    return list(zip(dims, *numbers, regime.growth.tolist(), regime.liouville.tolist(),
                    verdict.tolist()))


def _text(values: np.ndarray, fmt) -> list:
    """``values`` as (nested) lists of ``fmt`` text, "" for NaN, formatting
    each distinct float64 bit pattern once (so -0.0 stays -0.0)."""
    keys, inverse = np.unique(values.ravel().view(np.int64), return_inverse=True)
    cells = np.array(["" if math.isnan(x) else fmt(x) for x in keys.view(float).tolist()], object)
    return cells[inverse.reshape(values.shape)].tolist()


def _cmd_sweep(args):
    dims = _parse_value_list(args.dim, integers=True)
    ps = _parse_value_list(args.p)
    gammas = _parse_value_list(args.gamma)
    qs = _parse_value_list(args.q) if args.q else [INFINITY]
    _check_rows("the product of the sweep's axes", len(dims) * len(ps) * len(gammas) * len(qs))
    # The product in loop order, sorted stably by (dim, p, gamma, q): the
    # order of sorted() over the point tuples, ties included.
    axes = np.meshgrid(dims, ps, gammas, qs, indexing="ij")
    points = np.stack([a.ravel() for a in axes], axis=1)
    rows = _sweep_rows(points[np.lexsort(points.T[::-1])])
    text = "\n".join(map(",".join, [_SWEEP_HEADER, *rows])) + "\n"
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

# A flag is (flag, type or choices, default or REQUIRED). The problem
# flags, each on the subcommands whose computation reads it:
_DIM = ("--dim", int, REQUIRED)
_P = ("--p", float, REQUIRED)
_GAMMA = ("--gamma", float, REQUIRED)
_LAMBDA = ("--lambda", float, 0.0)
_C_H = ("--c-h", float, 1.0)
_NU = ("--nu", float, 1.0)
_Q = ("--q", float, INFINITY)

# One row per subcommand: (name, help, flags, handler).
COMMANDS = (
    ("exponents", "closed-form exponent calculus", (_DIM, _P, _GAMMA, _Q), _cmd_exponents),
    ("verify-sharpness", "residual-check the explicit sharp solution",
     (_DIM, _P, _GAMMA, _C_H, ("--nodes", int, 512), ("--tol", float, 1e-8)),
     _cmd_verify_sharpness),
    ("verify-bump", "largest bounded supersolution witness scale",
     (_DIM, _P, _GAMMA, _C_H, ("--nodes", int, 300), ("--grid-max", float, 10.0)),
     _cmd_verify_bump),
    ("solve", "radial Dirichlet solve of the model equation", (
        _DIM, _P, _GAMMA, _LAMBDA, _C_H,
        ("--operator", str, "p-laplacian"), ("--source", str, "zero"),
        ("--r-in", float, 0.0), ("--r-out", float, 1.0),
        ("--bc-left", str, "none"), ("--bc-right", float, REQUIRED),
        ("--nodes", int, 256), ("--tol", float, 1e-10), ("--out", str, None),
    ), _cmd_solve),
    ("audit-caccioppoli", "energy growth vs the two-ball bound",
     (_DIM, _P, _GAMMA, _LAMBDA, _Q, ("--witness", str, "sharpness"), ("--radius", float, 1.0)),
     _cmd_audit_caccioppoli),
    ("audit-holder", "empirical Holder exponent fit", (
        _DIM, _P, _GAMMA, _Q,
        ("--witness", str, "sharpness"),
        ("--scale-min", float, 1e-3), ("--scale-max", float, 0.25), ("--tol", float, 0.05),
    ), _cmd_audit_holder),
    ("morrey", "Morrey norm of a source term on a ball", (
        ("--source", str, REQUIRED), ("--s-index", float, 1.0),
        ("--theta", float, REQUIRED), ("--omega-radius", float, 1.0),
        ("--dim", int, 3),
    ), _cmd_morrey),
    ("liouville", "Euclidean classification with witnesses", (_DIM, _P, _GAMMA, _C_H),
     _cmd_liouville),
    ("manifold", "area-growth Liouville test", (
        ("--profile", str, REQUIRED), ("--dim", int, 3),
        ("--p", float, REQUIRED), ("--gamma", float, REQUIRED),
        ("--t-start", float, 1.0), ("--mode", ("analytic", "numeric"), "analytic"),
    ), _cmd_manifold),
    ("sigma-bound", "both sides of the energy comparison", (
        _DIM, _P, _GAMMA, _C_H, _NU,
        ("--profile", str, "euclidean"), ("--sigma-r", float, REQUIRED),
        ("--radius-inner", float, REQUIRED), ("--radius-outer", float, REQUIRED),
    ), _cmd_sigma_bound),
    ("sweep", "CSV exponent/verdict table over a parameter grid", (
        ("--dim", str, REQUIRED), ("--p", str, REQUIRED), ("--gamma", str, REQUIRED),
        ("--q", str, None), ("--out", str, None),
    ), _cmd_sweep),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # for run's one error: line, not a usage block
        raise PreconditionViolation(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``COMMANDS``, built once per process (argparse keeps
    no state between parses); callers must not change it."""
    parser = _Parser(
        prog="pdi-lab",
        description="Desk-scale verification of exponent formulas, explicit "
        "solutions, energy bounds and Liouville criteria for quasilinear "
        "elliptic inequalities with gradient terms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags, handler in COMMANDS:
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
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
    note = ""
    try:
        args = build_parser().parse_args(argv)
        results, passed = args.func(args)
    except SystemExit:  # --help, the one way left for the parser to exit
        return 0
    except (NoAdmissibleScale, NoConvergence, InsufficientScales) as exc:
        # stopped on the science, not the input: a report, exit 1
        results, passed, note = {"error": str(exc)}, False, f" ({exc})"
    except (PdiLabError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if results is None:  # sweep wrote its CSV itself
        return 0
    return _emit(args, results, passed, note)


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
