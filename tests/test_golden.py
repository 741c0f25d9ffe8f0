"""A committed battery of CLI reports, held byte for byte across changes.

``tests/golden/cli.jsonl`` holds, after a first line naming the Python,
numpy and scipy versions it was written with, one JSON object per
invocation of ``BATTERY``: its argv, exit code, stdout and stderr, and the
warnings it raised, by category and message (the file and line a warning
names move with any edit, so they are left out). The test runs each
invocation in process through ``cli.run`` and compares every field exactly,
so a change that moves a printed digit shows as a diff of that file.

After a change that moves a report on purpose, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py

and name the moved reports in CHANGES.md. The file is written on the
recorded stack (numpy 2.4.6, scipy 1.17.1), which CI pins.
"""

import contextlib
import io
import os
import shlex
import warnings

from battery import (BUMP, FILES, GOLDEN, MORREY, MOVES, SET, SHARP, SIGMA, SOLVE, THRESHOLDS,
                     assert_unmoved, rewrite)

from pdi_lab import cli

# The four sharp profiles (dim, p, gamma) of the benchmark's audit workload.
_SHARP_PROFILES = ("3 2 4", "4 2 3", "3 3 5", "5 2.5 4")

# A line that two groups below share is run once, where it first appears.
BATTERY = list(dict.fromkeys([
    # One valid, small invocation of each subcommand.
    *(f"{command} {flags}" for command, flags in SET.items()),
    # Criterion 9's battery, where it differs from the lines above.
    f"verify-sharpness {SHARP}",
    "solve --dim 3 --p 2 --gamma 4 --source power:1,0 --r-out 1 --bc-right 0",
    "sweep --dim 3,4 --p 2 --gamma 1.4,2.5,4",
    # The closed-form audits of the four sharp profiles, both witnesses.
    *(
        f"{command} --dim {dim} --p {p} --gamma {gamma} --witness {witness}"
        for dim, p, gamma in (profile.split() for profile in _SHARP_PROFILES)
        for command in ("audit-holder", "audit-caccioppoli")
        for witness in ("sharpness", "linear")
    ),
    # One flag moved from a valid invocation, per flag of each subcommand.
    *(f"{command} {base} {flag} {other}".format(**FILES)
      for (command, flag), (base, other) in MOVES.items()),
    # The bases of those moves that no line above runs.
    "verify-bump --dim 5 --p 1.01 --gamma 0.0125000001 --nodes 3",
    f"liouville {SHARP}",
    "manifold --profile euclidean --dim 3 --p 2 --gamma 1.4",
    "manifold --profile power:1,2 --p 2 --gamma 1.6",
    # The exponents branches and regimes the moves miss: a tie, the
    # integrability arm, critical with no alpha, subcritical, no gamma_star.
    f"exponents {SHARP} --q 2.25",
    f"exponents {SHARP} --q 1",
    f"exponents {SHARP} --gamma 1.5",
    f"exponents {SHARP} --gamma 1.2",
    "exponents --dim 2 --p 3 --gamma 4",
    # More inputs the moves miss: --lambda on a witness that is nowhere
    # negative, and a power area just above gamma* = 1.5 in both modes,
    # which agree.
    f"audit-caccioppoli {SHARP} --witness linear --lambda 1",
    "manifold --profile power:1,2 --p 2 --gamma 1.5001",
    "manifold --profile power:1,2 --p 2 --gamma 1.5001 --mode numeric",
    # The CLI reproductions of the faults CHANGES.md marks MENDED.
    "solve --dim 3 --p 2 --gamma 2 --operator p-laplacian --source power:1,0 --r-out 1 "
    "--bc-right 0 --nodes 4096",
    f"solve {SOLVE} --lambda nan",
    "solve --dim 3 --p 2 --gamma 2 --bc-right 0 --source file:/nonexistent/source.csv",
    "manifold --profile exp:1,0.5 --p 3 --gamma 2.5 --mode numeric",
    f"morrey {MORREY} --omega-radius inf",
    f"sigma-bound {SIGMA} --c-h inf --nu inf",
    f"audit-caccioppoli {SHARP} --radius inf",
    "solve --dim 3 --p 1.5 --gamma 1.2 --source power:1,0 --r-out 1 --bc-right 0 --nodes 4096",
    "solve --dim 3 --p 8 --gamma 7.5 --source power:1e8,0 --bc-right 0 --nodes 64",
    "solve --dim 3 --p 8 --gamma 7.5 --operator gmc:8 --source power:1e9,0 --bc-right 0 --nodes 64",
    "manifold --profile power:1,1e308 --p 3 --gamma 2.5",
    "liouville --dim 5 --p 1.19 --gamma 0.2375",
    "audit-caccioppoli --dim 5 --p 1.5 --gamma 3.5",
    "audit-caccioppoli --dim 7 --p 3 --gamma 5",
    f"verify-bump {BUMP} --c-h 1e-300",
    f"liouville {BUMP} --c-h 1e-300",
    f"morrey {MORREY} --centers 8",
    "morrey --theta 1.5",
    "exponents --dim x --p 2 --gamma 4",
    "liouville --dim 5 --p 1.01 --gamma 0.0125000001",
    f"audit-holder {SHARP} --scale-min 1e-16",
    f"audit-holder {SHARP} --scale-min 1e-30",
    f"audit-holder {SHARP} --scale-min 1e-300",
    "sweep --dim 3 --p 2 --gamma -0:0:1",
    "sweep --dim 3 --p 2 --gamma=-0:0:1",
    "sigma-bound --dim 3 --p 2 --gamma 1.5 --profile power:1,-1 --sigma-r 1 --radius-inner 1 "
    "--radius-outer 1e300",
    "sigma-bound --dim 3 --p 2 --gamma 1.5 --profile power:1,-6 --sigma-r 1 "
    "--radius-inner 1e-300 --radius-outer 1e20",
    "solve --dim 3 --p 4 --gamma 2.5 --operator mean-curvature --source power:1,0 --bc-right 0",
    f"verify-sharpness {SHARP} --c-h 1e-30",
    f"verify-sharpness {SHARP} --c-h 1e-300",
    "sigma-bound --dim 3 --p 1.01 --gamma 5 --profile power:1e-10,1 --sigma-r 1 "
    "--radius-inner 1 --radius-outer 2",
    "manifold --profile power:1e-300,-3 --p 1.01 --gamma 5 --mode numeric",
    "solve --dim 3 --p 2 --gamma 2 --source power:1,0 --r-out 1e-120 --bc-right 0 --nodes 17",
    "solve --dim 3 --p 2 --gamma 2 --source power:1,0 --r-out 1e-107 --bc-right 0 --nodes 17",
    "solve --dim 3 --p 2 --gamma 2 --source power:1,0 --r-out 1e-105 --bc-right 0 --nodes 17",
    "solve --dim 344 --p 2 --gamma 2 --source power:1,0 --r-out 0.5 --bc-right 0 --nodes 17",
    f"exponents {SHARP} --dim 9007199254740993",  # 2**53 + 1 has no exact float
    "sweep --dim 9007199254740993 --p 2 --gamma 4",
    f"liouville {SHARP} --dim 1{'0' * 308}",
    f"manifold --profile euclidean --dim 1{'0' * 308} --p 2 --gamma 1.4",
    # The invocations CI checks after installing the console script.
    f"audit-holder {SHARP} --scale-min 5e-324",
    "sigma-bound --dim 3 --p 2 --gamma 1.5 --profile power:1,-1 --sigma-r 1 "
    "--radius-inner 1e-200 --radius-outer 1e100",
    "sigma-bound --dim 3 --p 2 --gamma 1.5 --profile power:1,-1 --sigma-r 1 --radius-inner 1 "
    "--radius-outer 1e100",
    "solve --dim 3 --p 2 --gamma 1.5 --operator gmc:2 --source power:2,0 --bc-right 0",
    "manifold --profile exp:1,0.05 --p 2 --gamma 1.4 --mode numeric",
    "manifold --profile euclidean --dim 5 --p 3 --gamma 2.55 --mode numeric",
    "manifold --profile power:1,2 --p 2 --gamma 1.4 --t-start 5e-324 --mode numeric",
    "manifold --profile euclidean --dim 5 --p 2 --gamma 5 --t-start 1e100 --mode numeric",
    f"verify-bump {BUMP} --grid-max 1.7976931348623157e308",
    "morrey --source power:1,1 --theta 2 --omega-radius 1e-200",
    "liouville --dim 10 --p 8 --gamma 8.1",
    f"solve {SOLVE} --nu 2",
    # The faults of ROADMAP items 2, 3 and 10.
    "solve --dim 3 --p 1.2 --gamma 2 --source power:1e8,0 --bc-right 0 --nodes 64",
    "solve --dim 3 --p 1.2 --gamma 2 --source power:1e8,0 --bc-right 0 --nodes 256",
    "solve --dim 3 --p 1.2 --gamma 2 --source power:1e8,0 --bc-right 0 --nodes 1024",
    "solve --dim 3 --p 8 --gamma 8 --source power:1,0 --r-out 1 --bc-right 0",
    "solve --dim 3 --p 2 --gamma 1.5 --operator mean-curvature --source power:1,0 --r-in 0.25 "
    "--r-out 1 --bc-left 0.5 --bc-right 0 --nodes 128",
    "solve --dim 3 --p 2 --gamma 1.5 --operator mean-curvature --source power:1,0 --r-in 0.25 "
    "--r-out 1 --bc-left 0.5 --bc-right 0 --nodes 256",
    "solve --dim 344 --p 2 --gamma 2 --source power:1,0 --r-in 1.5 --r-out 344 --bc-left 1 "
    "--bc-right 0 --nodes 17",
    f"solve {SOLVE} --r-out 1.7976931348623157e308",
    "solve --dim 3 --p 2 --gamma 2 --source power:1,0 --r-out 5e-324 --bc-right 0 --nodes 17",
    "solve --dim 3 --p 2 --gamma 2 --source power:1,0 --r-in 1 --r-out 1.000000000000001 "
    "--bc-left 1 --bc-right 0 --nodes 4096",
    "manifold --profile power:1,1.001 --p 2 --gamma 2",
    "manifold --profile power:1,1.001 --p 2 --gamma 2 --mode numeric",
    "manifold --profile exp:1,1e-4 --p 2 --gamma 2",
    "manifold --profile exp:1,1e-4 --p 2 --gamma 2 --mode numeric",
    "solve --dim 3 --p 2 --gamma 2 --source power:1,0 --r-in 0.5 --r-out 2.127894722981004e+52 "
    "--bc-left 1 --bc-right=-1e+300 --nodes 64 --tol 1e-300",
    # The rest of the invocations CI once checked by hand after installing
    # the console script.
    f"verify-bump {BUMP}",
    f"verify-sharpness {SHARP} --c-h 2",
    "solve --dim 3 --p 2 --gamma 1.5 --operator mean-curvature --source power:2,0 --bc-right 0",
    "solve --dim 3 --p 2 --gamma 2.5 --operator mean-curvature --source power:1,0 --bc-right 0",
    "solve --dim 3 --p 2 --gamma 2 --source power:1,0 --bc-right 0 --nu 2",
    # A continued annulus solve that passes only after 294 Newton steps at
    # 256 nodes and stalls at 512.
    "solve --dim 3 --p 3 --gamma 2.25 --source power:10,0 --r-in 0.25 --r-out 1 --bc-left 0.5 "
    "--bc-right 0 --nodes 256",
    "solve --dim 3 --p 3 --gamma 2.25 --source power:10,0 --r-in 0.25 --r-out 1 --bc-left 0.5 "
    "--bc-right 0 --nodes 512",
    # The committed file: inputs. ball_solve.csv is the --out file of
    # "solve --dim 3 --p 2 --gamma 2 --source power:1,0 --bc-right 0
    # --nodes 65"; cos6r.csv and area_t2.csv are battery.FILES.
    "audit-holder --dim 3 --p 2 --gamma 2 --witness file:{golden}/ball_solve.csv",
    "audit-caccioppoli --dim 3 --p 2 --gamma 2 --witness file:{golden}/ball_solve.csv",
    f"audit-holder {SHARP} --witness file:{{golden}}/cos6r.csv",
    f"audit-holder {SHARP} --witness file:{{golden}}/cos6r.csv --scale-max 0.5",
    "morrey --source file:{golden}/cos6r.csv --theta 1.5",
    "morrey --source file:{golden}/cos6r.csv --theta 2 --s-index 2 --omega-radius 0.5",
    "manifold --profile file:{golden}/area_t2.csv --p 2 --gamma 1.6 --mode numeric",
    # Sampled data is refused past the ends of its grid: a source, and a
    # witness whose largest energy radius 0.95 R passes r = 1 by 4e-10.
    "solve --dim 3 --p 2 --gamma 2 --source file:{golden}/cos6r.csv --r-out 2 --bc-right 0",
    "morrey --source file:{golden}/cos6r.csv --theta 1.5 --omega-radius 3",
    "audit-caccioppoli --dim 3 --p 2 --gamma 2 --witness file:{golden}/ball_solve.csv "
    "--radius 1.0526315794",
    # The refusals no line above reaches: a source with too few numbers, a
    # range with no step, a malformed value list, a range whose count leaves
    # the float range, a range and a product of axes past the rows a sweep
    # holds, and the bump witness at exactly gamma* = 1.5.
    "morrey --source power:1 --theta 1.5",
    "sweep --dim 3 --gamma 2 --p 2:3",
    "sweep --dim 3 --gamma 2 --p abc",
    "sweep --dim 3 --p 2 --gamma 0:1e300:1e-300",
    "sweep --dim 3 --p 2 --gamma 0:1:1e-300",
    "sweep --dim 3 --p 1:1000:1 --gamma 1:1001:1",
    "verify-bump --dim 3 --p 2 --gamma 1.5",
    # Each subcommand that reads an exponent threshold at gamma*, p and
    # p - 1 and their float neighbours (battery.THRESHOLDS).
    *THRESHOLDS,
    # An infinite tolerance, energy, radius or area amplitude is refused:
    # each of these once exited 0 with a report.
    "solve --dim 3 --p 2 --gamma 2 --source power:1,0 --bc-right 0 --tol inf",
    f"sigma-bound {SIGMA} --sigma-r inf",
    f"sigma-bound {SIGMA} --radius-inner inf --radius-outer inf",
    f"sigma-bound {SIGMA} --profile power:inf,2",
    "manifold --profile exp:inf,0.5 --p 2 --gamma 1.4",
    f"verify-sharpness {SHARP} --tol inf",
    f"audit-holder {SHARP} --tol inf",
    # A Euclidean area whose amplitude dim * omega_dim is below the normal
    # floats (dim >= 436): the manifold verdict reads only its exponent,
    # and the sigma bound, which reads the amplitude, refuses it.
    "manifold --profile euclidean --dim 1000 --p 2 --gamma 1.5",
    "sigma-bound --dim 1000 --p 2 --gamma 1.4 --sigma-r 1 --radius-inner 1 --radius-outer 10",
    # Feature branches no line above reaches: the exponential comparison
    # integral and its kappa = 0 branch, mean curvature's growth order
    # 1 + gamma/2 with the flat-slope Jacobian reset of gamma < 1, and the
    # log-space unit-ball volume.
    f"sigma-bound {SIGMA} --profile exp:1,0.5",
    f"sigma-bound {SIGMA} --profile exp:1,0",
    "solve --dim 3 --p 2 --gamma 0.5 --operator mean-curvature --source power:1,0 --bc-right 0",
    f"morrey {MORREY} --dim 400",
    # --radius-outer inf: accepted where the comparison integral converges,
    # which is then the exact improper integral (int_1^inf t^-3 dt = 0.5),
    # and refused where it diverges.
    "sigma-bound --dim 3 --p 2 --gamma 2.5 --sigma-r 1 --radius-inner 1 --radius-outer inf",
    "sigma-bound --dim 3 --p 2 --gamma 1.4 --sigma-r 1 --radius-inner 1 --radius-outer inf",
]))


def record(invocation: str) -> dict:
    """Run one invocation in process, from the tests directory, and
    return what it printed."""
    argv = shlex.split(invocation)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN.parent)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run([token.replace("{golden}", "golden") for token in argv])
    finally:
        os.chdir(cwd)
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
    }


def test_cli_reports_match_the_golden_battery():
    assert_unmoved(GOLDEN / "cli.jsonl", [shlex.split(i) for i in BATTERY], map(record, BATTERY))


if __name__ == "__main__":
    rewrite(GOLDEN / "cli.jsonl", map(record, BATTERY))
