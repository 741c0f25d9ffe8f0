"""A committed battery of radial solves, held bit for bit across changes.

``tests/golden/solver_grid.jsonl`` holds, after a first line naming the
Python, numpy and scipy versions it was written with, one JSON object per
problem of ``PROBLEMS``: the problem's key and its outcome, either the
Newton steps and ``u`` at five fixed nodes of a converged solve, or the
``NoConvergence`` message of a failed one. The test reruns every problem
and compares each outcome exactly (floats are written with round-trip
precision), so a change to the solver that moves a step count, a digit of
a solution or which problems converge shows as a diff of that file.

The grid, d = 3 throughout:
- the p-Laplacian at p in {1.2, 1.5, 1.8, 2, 2.5, 3, 4, 6, 8} and gmc:k at
  k in {2, 3, 4, 6}, each at gamma = (p or k) - 1 + {0.25, 1, 2.5}, with
  the growth order the CLI's ``solve`` takes (``order_for``);
- the ball (0, 1) with a zero-flux axis, and the annulus (0.25, 1) with
  bc_left = 0.5; bc_right = 0 on both;
- n in {64, 256} nodes and the constant source f in {1, 10}.

That is 312 problems, and one more: the annulus problem p = 3, gamma =
2.25, f = 10 at 512 nodes, where Newton stalls although gamma < p is
natural growth (the CLI's ``solve`` exits 1 on it). After a change that moves an outcome on purpose,
rewrite the file with

    PYTHONPATH=src python tests/test_solver_grid.py

and name the moved problems in CHANGES.md.
"""

from battery import GOLDEN, assert_unmoved, rewrite

from pdi_lab import (
    GeneralizedMeanCurvature,
    NoConvergence,
    PLaplacian,
    ProblemParams,
    RadialPowerSource,
    SolverConfig,
    solve_radial_dirichlet,
)

_KINDS = [(f"p{p:g}", p, PLaplacian(p)) for p in (1.2, 1.5, 1.8, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0)] + [
    (f"gmc{k:g}", k, GeneralizedMeanCurvature(k)) for k in (2.0, 3.0, 4.0, 6.0)
]
_DOMAINS = [("ball", (0.0, 1.0), None), ("annulus", (0.25, 1.0), 0.5)]

PROBLEMS = [
    (f"{name}/gamma={order - 1 + shift:g}/{where}/n={n}/f={f:g}", kind, order - 1 + shift,
     domain, bc_left, n, f)
    for name, order, kind in _KINDS
    for shift in (0.25, 1.0, 2.5)
    for where, domain, bc_left in _DOMAINS
    for n in (64, 256)
    for f in (1.0, 10.0)
] + [("p3/gamma=2.25/annulus/n=512/f=10", PLaplacian(3.0), 2.25, (0.25, 1.0), 0.5, 512, 10.0)]


def outcome(problem) -> dict:
    """Solve one problem; its key and outcome as the file holds them."""
    key, kind, gamma, domain, bc_left, n, f = problem
    params = ProblemParams(dim=3, p=kind.order_for(gamma), gamma=gamma)
    try:
        sol = solve_radial_dirichlet(
            kind, params, RadialPowerSource(f, 0.0), domain, bc_left, 0.0, SolverConfig(n_nodes=n)
        )
    except NoConvergence as exc:
        return {"problem": key, "error": str(exc)}
    nodes = [(n - 1) * k // 5 for k in range(5)]
    return {"problem": key, "steps": sol.meta["iterations"], "u": sol.values[nodes].tolist()}


def test_solver_outcomes_match_the_battery():
    assert len(PROBLEMS) == 313
    assert_unmoved(GOLDEN / "solver_grid.jsonl", [p[0] for p in PROBLEMS], map(outcome, PROBLEMS))


if __name__ == "__main__":
    rewrite(GOLDEN / "solver_grid.jsonl", map(outcome, PROBLEMS))
