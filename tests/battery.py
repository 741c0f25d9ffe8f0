"""The CLI invocation tables and the golden-file harness the tests share.

This is not a test module. It imports without pytest or hypothesis, so
that test_golden.py, test_solver_grid.py and test_acceptance.py also run
as plain scripts, which rewrite their golden files.

``SET`` holds one valid, small invocation of each subcommand. ``MOVES``
holds, per flag of each subcommand, an invocation and a second value of
that flag that changes the report's results or passed. test_cli.py runs
both sides of each move. test_golden.py holds each ``SET`` line and each
moved line byte for byte, so every flag has a golden line. ``THRESHOLDS``
runs each subcommand that reads an exponent threshold at that threshold's
float and its two neighbours, and test_golden.py holds those lines too.

A golden file is a first line naming the Python, numpy and scipy versions
it was written with, then one JSON object per case, whose first field
names the case. ``assert_unmoved`` compares a file with fresh records, and
``rewrite`` writes it.
"""

import json
import math
import pathlib
import platform
import sys

import numpy as np
import scipy

from pdi_lab.params import _critical_gamma

GOLDEN = pathlib.Path(__file__).parent / "golden"

SHARP = "--dim 3 --p 2 --gamma 4"
SOLVE = "--dim 3 --p 2 --gamma 2 --source power:1,0 --r-in 0.5 --bc-left 1 --bc-right 0 --nodes 17"
SIGMA = "--dim 3 --p 2 --gamma 1.4 --sigma-r 1 --radius-inner 1 --radius-outer 10"
BUMP = "--dim 3 --p 2 --gamma 1.8"
MORREY = "--source power:1,1 --theta 1.5"

# The flags a valid, small invocation of each subcommand sets; every
# other flag of its COMMANDS row keeps the table's default.
SET = {
    "exponents": SHARP,
    "verify-sharpness": SHARP + " --nodes 17",
    "verify-bump": BUMP + " --nodes 17",
    "solve": SOLVE,
    "audit-caccioppoli": SHARP,
    "audit-holder": SHARP,
    "morrey": MORREY,
    "liouville": "--dim 3 --p 2 --gamma 1.4",
    "manifold": "--profile power:1,2 --p 2 --gamma 1.4 --mode numeric",
    "sigma-bound": SIGMA,
    "sweep": "--dim 3,4 --p 2 --gamma 1:2:0.5 --q inf",
}

# The file: inputs of MOVES, committed under tests/golden ({golden}):
# cos6r.csv is cos(6 r) on 201 equispaced radii of [0, 1], a witness that
# changes sign twice; area_t2.csv is t^2 on 40 log-spaced radii of
# [1, 1e6], a tabulated area.
FILES = {"negative": "file:{golden}/cos6r.csv", "area": "file:{golden}/area_t2.csv"}

# One invocation per (command, flag), and a second value of that flag: the
# two runs must differ in results or passed. Many flags matter only in some
# configurations, so each flag gets its own: verify-bump --nodes only where
# the bump's slope underflows, liouville --c-h only above gamma*, manifold
# --dim only with --profile euclidean, audit-caccioppoli --lambda only for
# a witness that is negative somewhere ({negative}), and manifold --t-start
# and --mode only on tabulated data ({area}).
MOVES = {
    ("exponents", "--dim"): (SHARP, "4"),
    ("exponents", "--p"): (SHARP, "2.5"),
    ("exponents", "--gamma"): (SHARP, "5"),
    ("exponents", "--q"): (SHARP, "2"),
    ("verify-sharpness", "--dim"): (SHARP + " --nodes 17", "4"),
    ("verify-sharpness", "--p"): (SHARP + " --nodes 17", "2.5"),
    ("verify-sharpness", "--gamma"): (SHARP + " --nodes 17", "5"),
    ("verify-sharpness", "--c-h"): (SHARP + " --nodes 17", "2"),
    ("verify-sharpness", "--nodes"): (SHARP + " --nodes 17", "18"),
    ("verify-sharpness", "--tol"): (SHARP, "1e-20"),
    ("verify-bump", "--dim"): (BUMP, "4"),
    ("verify-bump", "--p"): (BUMP, "2.2"),
    ("verify-bump", "--gamma"): (BUMP, "1.9"),
    ("verify-bump", "--c-h"): (BUMP, "2"),
    ("verify-bump", "--nodes"): ("--dim 5 --p 1.01 --gamma 0.0125000001 --nodes 3", "300"),
    ("verify-bump", "--grid-max"): (BUMP, "20"),
    ("solve", "--dim"): (SOLVE, "4"),
    ("solve", "--p"): (SOLVE, "2.5"),
    ("solve", "--gamma"): (SOLVE, "2.5"),
    ("solve", "--lambda"): (SOLVE, "1"),
    ("solve", "--c-h"): (SOLVE, "2"),
    ("solve", "--operator"): (SOLVE, "gmc:4"),
    ("solve", "--source"): (SOLVE, "power:2,0"),
    ("solve", "--r-in"): (SOLVE, "0.25"),
    ("solve", "--r-out"): (SOLVE, "1.5"),
    ("solve", "--bc-left"): (SOLVE, "1.5"),
    ("solve", "--bc-right"): (SOLVE, "0.5"),
    ("solve", "--nodes"): (SOLVE, "18"),
    ("solve", "--tol"): (SOLVE, "1e-3"),
    ("audit-caccioppoli", "--dim"): (SHARP, "4"),
    ("audit-caccioppoli", "--p"): (SHARP, "2.5"),
    ("audit-caccioppoli", "--gamma"): (SHARP, "5"),
    ("audit-caccioppoli", "--lambda"): (SHARP + " --witness {negative}", "1"),
    ("audit-caccioppoli", "--q"): (SHARP, "1"),
    ("audit-caccioppoli", "--witness"): (SHARP, "linear"),
    ("audit-caccioppoli", "--radius"): (SHARP, "0.5"),
    ("audit-holder", "--dim"): (SHARP + " --q 2", "4"),
    ("audit-holder", "--p"): (SHARP, "2.5"),
    ("audit-holder", "--gamma"): (SHARP, "5"),
    ("audit-holder", "--q"): (SHARP, "2"),
    ("audit-holder", "--witness"): (SHARP, "linear"),
    ("audit-holder", "--scale-min"): (SHARP, "1e-4"),
    ("audit-holder", "--scale-max"): (SHARP, "0.5"),
    ("audit-holder", "--tol"): (SHARP + " --q 2", "0.01"),
    ("morrey", "--source"): (MORREY, "power:2,1"),
    ("morrey", "--s-index"): (MORREY, "1.25"),
    ("morrey", "--theta"): (MORREY + " --omega-radius 0.5", "2"),
    ("morrey", "--omega-radius"): (MORREY, "0.5"),
    ("morrey", "--dim"): (MORREY, "4"),
    ("liouville", "--dim"): (SHARP, "4"),
    ("liouville", "--p"): (SHARP, "2.5"),
    ("liouville", "--gamma"): (SHARP, "5"),
    ("liouville", "--c-h"): (SHARP, "2"),
    ("manifold", "--profile"): ("--profile power:1,2 --p 2 --gamma 1.4", "power:1,3"),
    ("manifold", "--dim"): ("--profile euclidean --dim 3 --p 2 --gamma 1.4", "4"),
    ("manifold", "--p"): ("--profile power:1,2 --p 2 --gamma 1.4", "1.8"),
    ("manifold", "--gamma"): ("--profile power:1,2 --p 2 --gamma 1.6", "1.4"),
    # a closed-form area's verdict does not depend on where the walk starts
    ("manifold", "--t-start"): ("--profile {area} --p 2 --gamma 1.4 --mode numeric", "2e6"),
    # only tabulated data get no analytic verdict
    ("manifold", "--mode"): ("--profile {area} --p 2 --gamma 1.4", "numeric"),
    ("sigma-bound", "--dim"): (SIGMA, "4"),
    ("sigma-bound", "--p"): (SIGMA, "1.8"),
    ("sigma-bound", "--gamma"): (SIGMA, "1.6"),
    ("sigma-bound", "--c-h"): (SIGMA, "2"),
    ("sigma-bound", "--nu"): (SIGMA, "2"),
    ("sigma-bound", "--profile"): (SIGMA, "power:1,3"),
    ("sigma-bound", "--sigma-r"): (SIGMA, "2"),
    ("sigma-bound", "--radius-inner"): (SIGMA, "2"),
    ("sigma-bound", "--radius-outer"): (SIGMA, "20"),
}


# The subcommands that read an exponent threshold, each with the flags of
# a valid invocation but --dim, --p and --gamma, and whether it reads --q.
_THRESHOLD_COMMANDS = {
    "exponents": ("", True),
    "liouville": ("", False),
    "verify-bump": ("", False),
    "verify-sharpness": ("", False),
    "audit-holder": ("", True),
    "audit-caccioppoli": ("", True),
    "manifold": ("--profile euclidean", False),
    "sigma-bound": ("--sigma-r 1 --radius-inner 1 --radius-outer 10", False),
}


def _thresholds():
    """Each threshold subcommand at d = 3, p = 2 (gamma* = 1.5) and p = 1.8
    (gamma* is not dyadic), with gamma at gamma*, p and p - 1, each at its
    float and both float neighbours; a subcommand that reads --q also runs
    at q = d / gamma. Every number is written with repr, so it parses back
    exactly."""
    dim = 3
    for command, (flags, reads_q) in _THRESHOLD_COMMANDS.items():
        for p in (2.0, 1.8):
            for edge in (_critical_gamma(dim, p), p, p - 1):
                for gamma in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)):
                    base = f"{command} --dim {dim} --p {p!r} --gamma {gamma!r} {flags}".rstrip()
                    yield base
                    if reads_q:
                        yield f"{base} --q {dim / gamma!r}"


THRESHOLDS = list(_thresholds())


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def line(obj) -> str:
    return json.dumps(obj, ensure_ascii=False)


def assert_unmoved(path, keys, records):
    """Compare the golden file at ``path`` with fresh records: first the
    first field of each line with ``keys``, one per case, then each line
    with its case's record, byte for byte. ``records`` is an iterator, so
    no case runs when the keys differ."""
    header, *lines = path.read_text().splitlines()
    assert [next(iter(json.loads(text).values())) for text in lines] == keys, (
        f"the cases and {path.name} differ; rewrite the file"
    )
    moved = [
        f"expected {text}\n  got      {got}"
        for text, got in ((text, line(record)) for text, record in zip(lines, records))
        if got != text
    ]
    assert not moved, (
        f"{len(moved)} records of {path.name} moved (recorded on {header}, running on "
        f"{line(versions())}):\n" + "\n".join(moved)
    )


def rewrite(path, records) -> None:
    """Write the golden file at ``path``: the versions, then ``records``."""
    lines = [line(obj) + "\n" for obj in [versions(), *records]]
    path.write_text("".join(lines))
    sys.stdout.write(f"wrote {len(lines) - 1} records to {path}\n")
