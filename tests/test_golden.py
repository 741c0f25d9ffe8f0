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
import json
import os
import pathlib
import platform
import shlex
import sys
import warnings

import numpy as np
import scipy

from pdi_lab import cli

HERE = pathlib.Path(__file__).parent
GOLDEN = HERE / "golden" / "cli.jsonl"

_SHARP = "--dim 3 --p 2 --gamma 4"
_SOLVE = "--dim 3 --p 2 --gamma 2 --source power:1,0 --r-in 0.5 --bc-left 1 --bc-right 0 --nodes 17"
_SIGMA = "--dim 3 --p 2 --gamma 1.4 --sigma-r 1 --radius-inner 1 --radius-outer 10"
_BUMP = "--dim 3 --p 2 --gamma 1.8"
_MORREY = "--source power:1,1 --theta 1.5"
# The four sharp profiles (dim, p, gamma) of the benchmark's audit workload.
_SHARP_PROFILES = ("3 2 4", "4 2 3", "3 3 5", "5 2.5 4")

BATTERY = [
    # One valid, small invocation of each subcommand (``_SET`` of test_cli.py).
    f"exponents {_SHARP}",
    f"verify-sharpness {_SHARP} --nodes 17",
    f"verify-bump {_BUMP} --nodes 17",
    f"solve {_SOLVE}",
    f"audit-caccioppoli {_SHARP}",
    f"audit-holder {_SHARP}",
    f"morrey {_MORREY}",
    "liouville --dim 3 --p 2 --gamma 1.4",
    "manifold --profile power:1,2 --p 2 --gamma 1.4 --mode numeric",
    f"sigma-bound {_SIGMA}",
    "sweep --dim 3,4 --p 2 --gamma 1:2:0.5 --q inf",
    # Criterion 9's battery, where it differs from the lines above.
    f"verify-sharpness {_SHARP}",
    "solve --dim 3 --p 2 --gamma 4 --source power:1,0 --r-out 1 --bc-right 0",
    "sweep --dim 3,4 --p 2 --gamma 1.4,2.5,4",
    # The closed-form audits of the four sharp profiles, both witnesses.
    *(
        f"{command} --dim {dim} --p {p} --gamma {gamma} --witness {witness}"
        for dim, p, gamma in (profile.split() for profile in _SHARP_PROFILES)
        for command in ("audit-holder", "audit-caccioppoli")
        for witness in ("sharpness", "linear")
    ),
    # One flag moved from a valid invocation, per flag of each subcommand
    # (``_MOVES`` of test_cli.py, without its file: inputs).
    f"exponents {_SHARP} --dim 4",
    f"exponents {_SHARP} --p 2.5",
    f"exponents {_SHARP} --gamma 5",
    f"exponents {_SHARP} --q 2",
    f"verify-sharpness {_SHARP} --nodes 17 --dim 4",
    f"verify-sharpness {_SHARP} --nodes 17 --p 2.5",
    f"verify-sharpness {_SHARP} --nodes 17 --gamma 5",
    f"verify-sharpness {_SHARP} --nodes 17 --c-h 2",
    f"verify-sharpness {_SHARP} --nodes 18",
    f"verify-sharpness {_SHARP} --tol 1e-20",
    f"verify-bump {_BUMP} --dim 4",
    f"verify-bump {_BUMP} --p 2.2",
    f"verify-bump {_BUMP} --gamma 1.9",
    f"verify-bump {_BUMP} --c-h 2",
    "verify-bump --dim 5 --p 1.01 --gamma 0.0125000001 --nodes 3",
    "verify-bump --dim 5 --p 1.01 --gamma 0.0125000001 --nodes 300",
    f"verify-bump {_BUMP} --grid-max 20",
    f"solve {_SOLVE} --dim 4",
    f"solve {_SOLVE} --p 2.5",
    f"solve {_SOLVE} --gamma 2.5",
    f"solve {_SOLVE} --lambda 1",
    f"solve {_SOLVE} --c-h 2",
    f"solve {_SOLVE} --operator gmc:4",
    f"solve {_SOLVE} --source power:2,0",
    f"solve {_SOLVE} --r-in 0.25",
    f"solve {_SOLVE} --r-out 1.5",
    f"solve {_SOLVE} --bc-left 1.5",
    f"solve {_SOLVE} --bc-right 0.5",
    f"solve {_SOLVE} --nodes 18",
    f"solve {_SOLVE} --tol 1e-3",
    f"audit-caccioppoli {_SHARP} --dim 4",
    f"audit-caccioppoli {_SHARP} --p 2.5",
    f"audit-caccioppoli {_SHARP} --gamma 5",
    f"audit-caccioppoli {_SHARP} --q 1",
    f"audit-caccioppoli {_SHARP} --witness linear --lambda 1",
    f"audit-caccioppoli {_SHARP} --radius 0.5",
    f"audit-holder {_SHARP} --q 2",
    f"audit-holder {_SHARP} --q 2 --dim 4",
    f"audit-holder {_SHARP} --p 2.5",
    f"audit-holder {_SHARP} --gamma 5",
    f"audit-holder {_SHARP} --scale-min 1e-4",
    f"audit-holder {_SHARP} --scale-max 0.5",
    f"audit-holder {_SHARP} --q 2 --tol 0.01",
    "morrey --source power:2,1 --theta 1.5",
    f"morrey {_MORREY} --s-index 1.25",
    f"morrey {_MORREY} --omega-radius 0.5",
    "morrey --source power:1,1 --theta 2 --omega-radius 0.5",
    f"morrey {_MORREY} --dim 4",
    f"liouville {_SHARP}",
    f"liouville {_SHARP} --dim 4",
    f"liouville {_SHARP} --p 2.5",
    f"liouville {_SHARP} --gamma 5",
    f"liouville {_SHARP} --c-h 2",
    "manifold --profile power:1,2 --p 2 --gamma 1.4",
    "manifold --profile power:1,3 --p 2 --gamma 1.4",
    "manifold --profile euclidean --dim 3 --p 2 --gamma 1.4",
    "manifold --profile euclidean --dim 4 --p 2 --gamma 1.4",
    "manifold --profile power:1,2 --p 1.8 --gamma 1.4",
    "manifold --profile power:1,2 --p 2 --gamma 1.6",
    "manifold --profile power:1,2 --p 2 --gamma 1.5001",
    "manifold --profile power:1,2 --p 2 --gamma 1.5001 --mode numeric",  # both modes agree
    f"sigma-bound {_SIGMA} --dim 4",
    f"sigma-bound {_SIGMA} --p 1.8",
    f"sigma-bound {_SIGMA} --gamma 1.6",
    f"sigma-bound {_SIGMA} --c-h 2",
    f"sigma-bound {_SIGMA} --nu 2",
    f"sigma-bound {_SIGMA} --profile power:1,3",
    f"sigma-bound {_SIGMA} --sigma-r 2",
    f"sigma-bound {_SIGMA} --radius-inner 2",
    f"sigma-bound {_SIGMA} --radius-outer 20",
    # The CLI reproductions of the faults CHANGES.md marks MENDED.
    "solve --dim 3 --p 2 --gamma 2 --operator p-laplacian --source power:1,0 --r-out 1 "
    "--bc-right 0 --nodes 4096",
    f"solve {_SOLVE} --lambda nan",
    "solve --dim 3 --p 2 --gamma 2 --bc-right 0 --source file:/nonexistent/source.csv",
    "manifold --profile exp:1,0.5 --p 3 --gamma 2.5 --mode numeric",
    f"morrey {_MORREY} --omega-radius inf",
    f"sigma-bound {_SIGMA} --c-h inf --nu inf",
    f"audit-caccioppoli {_SHARP} --radius inf",
    "solve --dim 3 --p 1.5 --gamma 1.2 --source power:1,0 --r-out 1 --bc-right 0 --nodes 4096",
    "solve --dim 3 --p 8 --gamma 7.5 --source power:1e8,0 --bc-right 0 --nodes 64",
    "solve --dim 3 --p 8 --gamma 7.5 --operator gmc:8 --source power:1e9,0 --bc-right 0 --nodes 64",
    "manifold --profile power:1,1e308 --p 3 --gamma 2.5",
    "liouville --dim 5 --p 1.19 --gamma 0.2375",
    "audit-caccioppoli --dim 5 --p 1.5 --gamma 3.5",
    "audit-caccioppoli --dim 7 --p 3 --gamma 5",
    f"verify-bump {_BUMP} --c-h 1e-300",
    f"liouville {_BUMP} --c-h 1e-300",
    f"morrey {_MORREY} --centers 8",
    "morrey --theta 1.5",
    "exponents --dim x --p 2 --gamma 4",
    "liouville --dim 5 --p 1.01 --gamma 0.0125000001",
    f"audit-holder {_SHARP} --scale-min 1e-16",
    f"audit-holder {_SHARP} --scale-min 1e-30",
    f"audit-holder {_SHARP} --scale-min 1e-300",
    "sweep --dim 3 --p 2 --gamma -0:0:1",
    "sweep --dim 3 --p 2 --gamma=-0:0:1",
    "sigma-bound --dim 3 --p 2 --gamma 1.5 --profile power:1,-1 --sigma-r 1 --radius-inner 1 "
    "--radius-outer 1e300",
    "sigma-bound --dim 3 --p 2 --gamma 1.5 --profile power:1,-6 --sigma-r 1 "
    "--radius-inner 1e-300 --radius-outer 1e20",
    "solve --dim 3 --p 4 --gamma 2.5 --operator mean-curvature --source power:1,0 --bc-right 0",
    f"verify-sharpness {_SHARP} --c-h 1e-30",
    f"verify-sharpness {_SHARP} --c-h 1e-300",
    "sigma-bound --dim 3 --p 1.01 --gamma 5 --profile power:1e-10,1 --sigma-r 1 "
    "--radius-inner 1 --radius-outer 2",
    "manifold --profile power:1e-300,-3 --p 1.01 --gamma 5 --mode numeric",
    "solve --dim 3 --p 2 --gamma 2 --source power:1,0 --r-out 1e-120 --bc-right 0 --nodes 17",
    "solve --dim 3 --p 2 --gamma 2 --source power:1,0 --r-out 1e-107 --bc-right 0 --nodes 17",
    "solve --dim 3 --p 2 --gamma 2 --source power:1,0 --r-out 1e-105 --bc-right 0 --nodes 17",
    "solve --dim 344 --p 2 --gamma 2 --source power:1,0 --r-out 0.5 --bc-right 0 --nodes 17",
    # The invocations CI checks after installing the console script.
    f"audit-holder {_SHARP} --scale-min 5e-324",
    "sigma-bound --dim 3 --p 2 --gamma 1.5 --profile power:1,-1 --sigma-r 1 "
    "--radius-inner 1e-200 --radius-outer 1e100",
    "sigma-bound --dim 3 --p 2 --gamma 1.5 --profile power:1,-1 --sigma-r 1 --radius-inner 1 "
    "--radius-outer 1e100",
    "solve --dim 3 --p 2 --gamma 1.5 --operator gmc:2 --source power:2,0 --bc-right 0",
    "manifold --profile exp:1,0.05 --p 2 --gamma 1.4 --mode numeric",
    "manifold --profile euclidean --dim 5 --p 3 --gamma 2.55 --mode numeric",
    "manifold --profile power:1,2 --p 2 --gamma 1.4 --t-start 5e-324 --mode numeric",
    "manifold --profile euclidean --dim 5 --p 2 --gamma 5 --t-start 1e100 --mode numeric",
    f"verify-bump {_BUMP} --grid-max 1.7976931348623157e308",
    "morrey --source power:1,1 --theta 2 --omega-radius 1e-200",
    "liouville --dim 10 --p 8 --gamma 8.1",
    f"solve {_SOLVE} --nu 2",
    # The faults of ROADMAP items 2, 3, 10, 13 and 17.
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
    f"solve {_SOLVE} --r-out 1.7976931348623157e308",
    "solve --dim 3 --p 2 --gamma 2 --source power:1,0 --r-out 5e-324 --bc-right 0 --nodes 17",
    "solve --dim 3 --p 2 --gamma 2 --source power:1,0 --r-in 1 --r-out 1.000000000000001 "
    "--bc-left 1 --bc-right 0 --nodes 4096",
    "manifold --profile power:1,1.001 --p 2 --gamma 2",
    "manifold --profile power:1,1.001 --p 2 --gamma 2 --mode numeric",
    "manifold --profile exp:1,1e-4 --p 2 --gamma 2",
    "manifold --profile exp:1,1e-4 --p 2 --gamma 2 --mode numeric",
    # The rest of the invocations CI once checked by hand after installing
    # the console script.
    f"verify-bump {_BUMP}",
    f"verify-sharpness {_SHARP} --c-h 2",
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
    # --nodes 65"; cos6r.csv is cos(6 r) on 201 equispaced radii of [0, 1],
    # which changes sign twice; area_t2.csv is t^2 on 40 log-spaced radii
    # of [1, 1e6] (the {negative} and {area} inputs of test_cli.py's _MOVES).
    "audit-holder --dim 3 --p 2 --gamma 2 --witness file:{golden}/ball_solve.csv",
    "audit-caccioppoli --dim 3 --p 2 --gamma 2 --witness file:{golden}/ball_solve.csv",
    f"audit-holder {_SHARP} --witness file:{{golden}}/cos6r.csv",
    f"audit-holder {_SHARP} --witness file:{{golden}}/cos6r.csv --scale-max 0.5",
    f"audit-caccioppoli {_SHARP} --witness file:{{golden}}/cos6r.csv --lambda 1",
    "morrey --source file:{golden}/cos6r.csv --theta 1.5",
    "morrey --source file:{golden}/cos6r.csv --theta 2 --s-index 2 --omega-radius 0.5",
    "manifold --profile file:{golden}/area_t2.csv --p 2 --gamma 1.4 --mode numeric",
    "manifold --profile file:{golden}/area_t2.csv --p 2 --gamma 1.6 --mode numeric",
    "manifold --profile file:{golden}/area_t2.csv --p 2 --gamma 1.4 --t-start 2e6 --mode numeric",
]


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def record(invocation: str) -> dict:
    """Run one invocation in process, from this file's directory, and
    return what it printed."""
    argv = shlex.split(invocation)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
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


def _line(obj) -> str:
    return json.dumps(obj, ensure_ascii=False)


def test_cli_reports_match_the_golden_battery():
    header, *lines = GOLDEN.read_text().splitlines()
    assert [json.loads(line)["argv"] for line in lines] == [shlex.split(i) for i in BATTERY], (
        "BATTERY and tests/golden/cli.jsonl differ; rewrite the file"
    )
    moved = [
        f"{' '.join(expected['argv'])}\n  expected {line}\n  got      {_line(got)}"
        for line, expected, got in (
            (line, json.loads(line), record(i)) for line, i in zip(lines, BATTERY)
        )
        if _line(got) != line
    ]
    assert not moved, (
        f"{len(moved)} reports moved (recorded on {header}, running on {_line(versions())}):\n"
        + "\n".join(moved)
    )


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(_line(obj) + "\n" for obj in [versions(), *map(record, BATTERY)]))
    sys.stdout.write(f"wrote {len(BATTERY)} invocations to {GOLDEN}\n")
