"""Span recorder for the traced run, installed from outside the package.

``Tracer.install`` replaces every binding of the traced functions in the
``pdi_lab`` module namespaces with a wrapper that records a span (name,
start, end, parent, failed). A function bound in several namespaces
(``residual_scan`` and ``bump_profile_scale`` in ``radial`` and
``liouville``, ``exponent_report`` in ``params`` and ``cli``) is wrapped
in each, so calls through any binding are seen. The scipy calls are
wrapped under the name they are bound to in the calling module
(``solver.solve_banded``, ``audit.quad``, ``liouville.quad``), and the
``flux``/``flux_derivative`` methods on each operator class. Nothing in
``src/`` changes; ``uninstall`` restores every binding.

Spans stay in memory and are written out once, at the end, by
``Tracer.save``. ``layer_sums`` reduces them to additive totals, so the
totals of several worker processes can be summed before the per-layer
ratios are formed in ``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("params", "radial", "solver", "audit", "liouville", "cli")

# (home module, function name): wrapped wherever the object is bound.
FUNCTIONS = (
    ("params", "exponent_report"),
    ("radial", "residual_scan"),
    ("radial", "bump_profile_scale"),
    ("solver", "solve_radial_dirichlet"),
    ("solver", "solution_residual"),
    ("audit", "morrey_norm"),
    ("audit", "gradient_energy"),
    ("audit", "caccioppoli_audit"),
    ("audit", "holder_fit"),
    ("liouville", "liouville_classify_euclidean"),
    ("liouville", "area_condition_test"),
    ("liouville", "verify_euclidean_witness"),
    ("liouville", "find_contradiction_radius"),
    ("liouville", "sigma_lower_bound"),
    ("cli", "run"),
)
# Third-party calls, wrapped only in the namespace that calls them.
FOREIGN = (("solver", "solve_banded"), ("audit", "quad"), ("liouville", "quad"))
OPERATOR_CLASSES = ("PLaplacian", "MeanCurvature", "GeneralizedMeanCurvature")
METHODS = ("flux", "flux_derivative")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple] = []  # (index, name id, start, end, parent index, failed)
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._next = 0
        self._restore: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self) -> tuple[int, int]:
        idx = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(idx)
        return idx, parent

    def _exit(self, idx, name_id, parent, start, failed):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((idx, name_id, start, end, parent, failed))

    def wrap(self, name: str, fn):
        name_id = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = tracer._enter()
            tracer.counts[name] += 1
            failed = True
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                tracer._exit(idx, name_id, parent, start, failed)

        return traced

    def op(self, cls: str, run):
        """Run one benchmark op as a root span named ``op:<cls>``; returns
        (result or exception, seconds, span index)."""
        name_id = self._id("op:" + cls)
        idx, parent = self._enter()
        failed = True
        start = time.perf_counter()
        try:
            out = run()
            failed = False
        except Exception as exc:  # the op's failure is data, judged by the caller
            out = exc
        self._exit(idx, name_id, parent, start, failed)
        return out, self.spans[-1][3] - start, idx

    def install(self):
        modules = {m: importlib.import_module(f"pdi_lab.{m}") for m in MODULES}
        namespaces = [importlib.import_module("pdi_lab")] + list(modules.values())
        for home, fname in FUNCTIONS:
            original = getattr(modules[home], fname)
            wrapper = self.wrap(f"{home}.{fname}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, attr, wrapper)
        for home, fname in FOREIGN:
            self._patch(modules[home], fname, self.wrap(f"{home}.{fname}", getattr(modules[home], fname)))
        for cls_name in OPERATOR_CLASSES:
            cls = getattr(modules["radial"], cls_name)
            for method in METHODS:
                self._patch(cls, method, self.wrap(f"radial.{method}", vars(cls)[method]))

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def arrays(self):
        """Spans as arrays in start order: name id, start, end, parent, failed."""
        spans = sorted(self.spans)
        if not spans:
            empty = np.zeros(0)
            return empty.astype(int), empty, empty, empty.astype(int), empty.astype(bool)
        _, name, start, end, parent, failed = (np.asarray(col) for col in zip(*spans))
        return name, start, end, parent, failed.astype(bool)

    def save(self, path: str):
        name, start, end, parent, failed = self.arrays()
        np.savez_compressed(
            path, names=np.asarray(self.names), name=name, start=start, end=end,
            parent=parent, failed=failed,
        )
        with open(path + ".counts.json", "w") as fh:
            json.dump(dict(self.counts), fh, sort_keys=True)


# Root op classes whose spans feed each group of layer metrics, so that a
# layer is measured on its own workload's ops only (the in-process cli
# probe also solves, classifies and sweeps).
OP_GROUPS = {
    "solve": ("solve-small", "solve-large"),
    "audit": ("morrey", "energy", "caccioppoli", "holder"),
    "classify": ("phase-closed", "phase-power", "phase-bump", "phase-log", "area-numeric", "contradiction", "sweep"),
    "cli": ("cli-inproc",),
}


def layer_sums(tracer: Tracer, op_work: dict) -> dict:
    """Additive totals behind every per-layer metric.

    ``op_work`` maps a root span index to the op's work size (grid nodes
    of a solve, rows of a sweep)."""
    name, start, end, parent, failed = tracer.arrays()
    dur = end - start
    n = name.size
    sums: dict = defaultdict(float)
    if n == 0:
        return sums
    label = np.asarray(tracer.names, dtype=object)[name]
    root = np.empty(n, dtype=int)
    for i in range(n):  # parents start before their children
        root[i] = i if parent[i] < 0 else root[parent[i]]
    root_label = label[root]
    top_level = parent >= 0
    top_level[top_level] = root[parent[top_level]] == parent[top_level]

    def pick(fn_name, group, root_cls=None):
        classes = [root_cls] if root_cls else OP_GROUPS[group]
        return (label == fn_name) & np.isin(root_label, ["op:" + c for c in classes])

    def children(fn_name, parents):
        return (label == fn_name) & np.isin(parent, np.flatnonzero(parents))

    def add(key, mask):
        sums[key + ".n"] += int(np.count_nonzero(mask))
        sums[key + ".t"] += float(dur[mask].sum())

    solve = pick("solver.solve_radial_dirichlet", "solve")
    add("solve", solve)
    sums["solve.failed"] += int(np.count_nonzero(solve & failed))
    banded = children("solver.solve_banded", solve)
    add("banded", banded)
    add("flux", children("radial.flux", solve))
    add("jac", children("radial.flux_derivative", solve))
    steps = np.bincount(parent[banded], minlength=n)
    large = solve & (root_label == "op:solve-large")
    sums["large.t"] += float(dur[large].sum())
    sums["large.node_steps"] += float(sum(op_work[root[i]] * steps[i] for i in np.flatnonzero(large)))
    add("residual", pick("solver.solution_residual", "solve"))

    morrey = pick("audit.morrey_norm", "audit")
    add("morrey", morrey)
    add("morrey_quad", children("audit.quad", morrey))
    add("energy", pick("audit.gradient_energy", "audit") & top_level)
    add("caccioppoli", pick("audit.caccioppoli_audit", "audit") & top_level)
    add("holder", pick("audit.holder_fit", "audit") & top_level)

    bump = pick("radial.bump_profile_scale", "classify")
    with_bump = np.isin(np.arange(n), parent[bump])
    add("closed_form", pick("liouville.liouville_classify_euclidean", "classify") & ~with_bump)
    add("bump", bump)
    add("bump_scans", children("radial.residual_scan", bump))
    add("scan", pick("radial.residual_scan", "classify"))
    add("verify", pick("liouville.verify_euclidean_witness", "classify"))
    area = pick("liouville.area_condition_test", "classify", root_cls="area-numeric")
    add("area", area)
    add("area_quad", children("liouville.quad", area))
    add("exponent_report", pick("params.exponent_report", "classify"))
    sweep = label == "op:sweep"
    sums["sweep.t"] += float(dur[sweep].sum())
    sums["sweep.rows"] += float(sum(op_work[i] for i in np.flatnonzero(sweep)))
    add("cli_run", pick("cli.run", "cli"))
    return sums


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else float("nan")


def layer_metrics(s: dict) -> dict:
    """Per-layer metrics from summed ``layer_sums`` totals (plus the
    import figures, which the cli probe adds to the same dict)."""
    solves = s["solve.n"]
    per_solve = lambda key: _ratio(s[key + ".t"], solves, 1e3)  # noqa: E731
    return {
        "solver.solve_ms": per_solve("solve"),
        "solver.newton_steps": _ratio(s["banded.n"], solves),
        "solver.assemblies_per_step": _ratio(s["flux.n"], s["banded.n"]),
        "solver.jacobians_per_step": _ratio(s["jac.n"], s["banded.n"]),
        "solver.banded_ms": per_solve("banded"),
        "radial.flux_ms": _ratio(s["flux.t"] + s["jac.t"], solves, 1e3),
        "solver.self_ms": _ratio(s["solve.t"] - s["banded.t"] - s["flux.t"] - s["jac.t"], solves, 1e3),
        "solver.ns_per_node_step": _ratio(s["large.t"], s["large.node_steps"], 1e9),
        "solver.residual_ms": _ratio(s["residual.t"], s["residual.n"], 1e3),
        "solver.failed_solves": _ratio(s["solve.failed"], s["solve.passes"]),
        "audit.morrey_ms": _ratio(s["morrey.t"], s["morrey.n"], 1e3),
        "audit.quad_calls_per_morrey": _ratio(s["morrey_quad.n"], s["morrey.n"]),
        "audit.quad_ms": _ratio(s["morrey_quad.t"], s["morrey.n"], 1e3),
        "audit.energy_ms": _ratio(s["energy.t"], s["energy.n"], 1e3),
        "audit.caccioppoli_ms": _ratio(s["caccioppoli.t"], s["caccioppoli.n"], 1e3),
        "audit.holder_ms": _ratio(s["holder.t"], s["holder.n"], 1e3),
        "liouville.classify_us": _ratio(s["closed_form.t"], s["closed_form.n"], 1e6),
        "radial.bump_scale_ms": _ratio(s["bump.t"], s["bump.n"], 1e3),
        "radial.scans_per_bump": _ratio(s["bump_scans.n"], s["bump.n"]),
        "radial.scan_us": _ratio(s["scan.t"], s["scan.n"], 1e6),
        "liouville.verify_witness_us": _ratio(s["verify.t"], s["verify.n"], 1e6),
        "liouville.area_test_ms": _ratio(s["area.t"], s["area.n"], 1e3),
        "liouville.quad_calls_per_area_test": _ratio(s["area_quad.n"], s["area.n"]),
        "params.exponent_report_us": _ratio(s["exponent_report.t"], s["exponent_report.n"], 1e6),
        "cli.sweep_rows_per_s": _ratio(s["sweep.rows"], s["sweep.t"]),
        "cli.run_ms": _ratio(s["cli_run.t"], s["cli_run.n"], 1e3),
    }
