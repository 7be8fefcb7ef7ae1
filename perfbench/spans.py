"""In-memory span tracing around the public functions of ``symnodes``.

``install`` replaces module-level functions of the package (and the two
``scipy.linalg`` LU entry points it calls) with wrappers that record one span
per call: name, start, end and the index of the enclosing span.  The wrappers
live here so that the program under test is not edited; every binding of a
wrapped function, including copies made by ``from .x import f``, is replaced.

``summarize`` turns the spans and the exact counters into the per-layer
metrics.  A layer is the first component of a span name.  Self time is a
span's duration minus the durations of its direct children; spans nest
strictly because the traced program is single-threaded Python, so children
never overlap.  ``remainder.self_s`` is the traced wall time that no span
covers, so that the layer self times add up to the traced wall time.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

LAYERS = (
    "cli", "optimizer", "lincon", "compatibility", "metrics", "basis",
    "symmetry", "quadrature", "baselines", "nodefile",
)


class Tracer:
    """Span store plus exact counters, filled by the installed wrappers."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = defaultdict(int)
        self.pairs = set()  # (element, degree) pairs seen by evaluate_metrics
        self._stack = [-1]

    def wrap(self, name, fn, hook=None):
        """Wrapper recording a span per call of ``fn``.

        ``name`` is a string, or a callable returning the span name from the
        calling frame.  ``hook(tracer, args, kwargs, result, exc)`` updates
        the counters after the span has ended.
        """
        names, starts, ends, parents = (
            self.names, self.starts, self.ends, self.parents,
        )
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name if isinstance(name, str) else name())
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                if hook is not None:
                    hook(self, args, kwargs, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path):
        """Write the spans as one JSON object of parallel arrays."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "starts": self.starts,
                    "ends": self.ends,
                    "parents": self.parents,
                },
                fh,
            )


# ---------------------------------------------------------------------------
# Counting hooks
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _points(name):
    def hook(tr, args, kwargs, result, exc):
        if exc is None:
            tr.counts[name + ".points"] += result.shape[0]

    return hook


def _lu_factor_flops(tr, args, kwargs, result, exc):
    if exc is None:
        n = _arg(args, kwargs, 0, "a").shape[0]
        tr.counts[tr.names[-1] + ".flop_computed"] += 2 * n**3 // 3


def _lu_solve_flops(tr, args, kwargs, result, exc):
    if exc is None:
        n = _arg(args, kwargs, 0, "lu_and_piv")[0].shape[0]
        b = _arg(args, kwargs, 1, "b")
        rhs = b.shape[1] if b.ndim == 2 else 1
        tr.counts[tr.names[-1] + ".rhs"] += rhs
        tr.counts[tr.names[-1] + ".flop_computed"] += 2 * n * n * rhs


def _restarts(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counts["optimizer.iterations"] += result.iterations
        tr.counts["optimizer.converged"] += result.status == "kkt-converged"


def _lp_failed(tr, args, kwargs, result, exc):
    tr.counts["lincon.lp.failed"] += exc is not None or not result.success


def _build_failed(tr, args, kwargs, result, exc):
    tr.counts["compatibility.build.failed"] += exc is not None


def _lebesgue_points(rule_of):
    """Sample-point count of one ``lebesgue_constant`` call.  ``rule_of`` is
    the unwrapped ``quadrature_rule``, so that counting records no spans."""
    from symnodes import metrics
    from symnodes.geometry import reference_element

    def hook(tr, args, kwargs, result, exc):
        if exc is not None:
            return
        space = _arg(args, kwargs, 0, "space")
        res = args[2] if len(args) > 2 else kwargs.get("resolution")
        elem = reference_element(space.kind)
        if res is None:
            res = metrics.default_resolution(elem.dim)
        tr.counts["metrics.lebesgue_constant.points"] += (
            metrics._lattice(space.kind, res).shape[0]
            + elem.vertices.shape[0]
            + rule_of(space.kind, 2 * space.degree).points.shape[0]
        )

    return hook


def _unisolvent(tr, args, kwargs, result, exc):
    if exc is None and not result:
        tr.counts["metrics.is_unisolvent.rejected"] += 1


def _metric_pair(tr, args, kwargs, result, exc):
    space = _arg(args, kwargs, 0, "space")
    tr.pairs.add((space.kind.value, space.degree))


def _file_bytes(name, pos, key):
    def hook(tr, args, kwargs, result, exc):
        if exc is None:
            tr.counts[name + ".bytes"] += os.path.getsize(
                _arg(args, kwargs, pos, key)
            )

    return hook


def _caller_layer(suffix):
    """Span name from the module that called the wrapped function."""

    def name():
        module = sys._getframe(2).f_globals.get("__name__", "")
        return module.rpartition(".")[2] + suffix

    return name


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def _targets(rule_of):
    return [
        ("symnodes.cli", "main", "cli.main", None),
        ("symnodes.optimizer", "optimize_nodes", "optimizer.optimize_nodes", None),
        ("symnodes.optimizer", "minimize", "optimizer.minimize", _restarts),
        ("symnodes.optimizer", "_objective_value", "optimizer.objective", None),
        ("symnodes.lincon", "minimize_linearly_constrained", "lincon.minimize", None),
        ("symnodes.lincon", "coordinate_intervals", "lincon.coordinate_intervals", None),
        ("symnodes.lincon", "feasible_point", "lincon.feasible_point", None),
        ("symnodes.lincon", "interior_point", "lincon.interior_point", None),
        ("symnodes.lincon", "project_onto", "lincon.project_onto", None),
        ("symnodes.lincon", "linprog", "lincon.lp", _lp_failed),
        ("symnodes.compatibility", "_orbit_reach", "compatibility.orbit_reach", None),
        ("symnodes.compatibility", "build_compatibility_constraints",
         "compatibility.build", _build_failed),
        ("symnodes.compatibility", "verify_face_match", "compatibility.verify", None),
        ("symnodes.metrics", "evaluate_metrics", "metrics.evaluate_metrics", _metric_pair),
        ("symnodes.metrics", "is_unisolvent", "metrics.is_unisolvent", _unisolvent),
        ("symnodes.metrics", "lebesgue_constant", "metrics.lebesgue_constant",
         _lebesgue_points(rule_of)),
        ("symnodes.metrics", "lebesgue_objective", "metrics.lebesgue_objective", None),
        ("symnodes.metrics", "mass_matrix", "metrics.mass_matrix", None),
        ("symnodes.basis", "basis_eval_many", "basis.eval", _points("basis.eval")),
        ("symnodes.basis", "basis_grad_many", "basis.grad", _points("basis.grad")),
        ("scipy.linalg", "lu_factor", _caller_layer(".lu_factor"), _lu_factor_flops),
        ("scipy.linalg", "lu_solve", _caller_layer(".lu_solve"), _lu_solve_flops),
        ("symnodes.symmetry", "enumerate_admissible_collections", "symmetry.enumerate", None),
        ("symnodes.symmetry", "evaluate_collection", "symmetry.evaluate_collection", None),
        ("symnodes.quadrature", "quadrature_rule", "quadrature.rule", None),
        ("symnodes.baselines", "baseline_distribution", "baselines.distribution", None),
        ("symnodes.nodefile", "read_node_file", "nodefile.read",
         _file_bytes("nodefile.read", 0, "path")),
        ("symnodes.nodefile", "write_node_file", "nodefile.write",
         _file_bytes("nodefile.write", 0, "path")),
    ]


def install(tracer):
    """Replace every binding of each target function with a span wrapper.

    Must run after ``symnodes.cli`` is imported (so that all submodules are
    loaded) and before the traced work starts.
    """
    import symnodes.cli  # noqa: F401  (loads every submodule)
    from symnodes.quadrature import quadrature_rule

    for module_name, attr, name, hook in _targets(quadrature_rule):
        fn = getattr(sys.modules[module_name], attr)
        wrapped = tracer.wrap(name, fn, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == module_name or mod_name.startswith("symnodes"):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)


# ---------------------------------------------------------------------------
# Summary
# ---------------------------------------------------------------------------


# Per-span metrics: "calls", "self_s" and "total_s" (inclusive time) come
# from the spans, every other field from the counter "<span>.<field>".
_SPAN_METRICS = (
    ("basis.eval", ("calls", "points", "self_s")),
    ("basis.grad", ("calls", "points", "self_s")),
    ("basis.lu_factor", ("calls", "self_s", "flop_computed")),
    ("basis.lu_solve", ("calls", "rhs", "self_s", "flop_computed")),
    ("optimizer.lu_factor", ("calls", "self_s", "flop_computed")),
    ("optimizer.lu_solve", ("calls", "rhs", "self_s", "flop_computed")),
    ("optimizer.objective", ("calls", "self_s")),
    ("lincon.minimize", ("self_s",)),
    ("lincon.lp", ("calls", "self_s", "failed")),
    ("compatibility.orbit_reach", ("calls", "self_s")),
    ("compatibility.build", ("calls", "self_s", "failed")),
    ("compatibility.verify", ("calls",)),
    ("metrics.lebesgue_constant", ("calls", "points", "total_s")),
    ("metrics.is_unisolvent", ("calls", "rejected")),
    ("metrics.evaluate_metrics", ("calls",)),
    ("symmetry.enumerate", ("self_s",)),
    ("symmetry.evaluate_collection", ("calls",)),
    ("quadrature.rule", ("calls", "self_s")),
    ("baselines.distribution", ("calls", "self_s")),
    ("nodefile.read", ("calls", "bytes", "self_s")),
    ("nodefile.write", ("calls", "bytes", "self_s")),
)


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(tracer, traced_wall_s):
    """Per-layer metrics from the spans and counters of one traced run."""
    names, starts, ends, parents = (
        tracer.names, tracer.starts, tracer.ends, tracer.parents,
    )
    n = len(names)
    child = [0.0] * n
    covered = 0.0
    for i in range(n):
        dur = ends[i] - starts[i]
        p = parents[i]
        if p < 0:
            covered += dur
        else:
            child[p] += dur
    per_span = {"calls": defaultdict(int), "self_s": defaultdict(float),
                "total_s": defaultdict(float)}
    layer_self = defaultdict(float)
    lp_in_intervals = 0
    for i in range(n):
        name = names[i]
        dur = ends[i] - starts[i]
        per_span["calls"][name] += 1
        per_span["total_s"][name] += dur
        per_span["self_s"][name] += dur - child[i]
        layer_self[name.partition(".")[0]] += dur - child[i]
        p = parents[i]
        if name == "lincon.lp" and p >= 0 and names[p] == "lincon.coordinate_intervals":
            lp_in_intervals += 1
    c = tracer.counts
    calls = per_span["calls"]
    out = {}
    for span, fields in _SPAN_METRICS:
        for field in fields:
            key = f"{span}.{field}"
            out[key] = per_span[field][span] if field in per_span else c[key]
    restarts = calls["optimizer.minimize"]
    out["optimizer.restarts"] = restarts
    out["optimizer.restarts.converged_ratio"] = _ratio(
        c["optimizer.converged"], restarts
    )
    out["optimizer.iterations"] = c["optimizer.iterations"]
    out["lincon.coordinate_intervals.lp_calls"] = lp_in_intervals
    out["metrics.evaluate_metrics.useful_ratio"] = _ratio(
        len(tracer.pairs), calls["metrics.evaluate_metrics"]
    )
    for layer in LAYERS:
        out[layer + ".self_s"] = layer_self[layer]
    out["remainder.self_s"] = traced_wall_s - covered
    out["trace.spans"] = n
    out["trace.wall_s"] = traced_wall_s
    return out
