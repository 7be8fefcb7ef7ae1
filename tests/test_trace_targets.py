"""The benchmark's span tracer finds every function it wraps.

``perfbench/spans.py`` looks its targets up by name with ``getattr``; a
function renamed or deleted in the package would break the traced benchmark
run.  These tests load the module from its file (without editing or
installing it), resolve each target, and run the counting hooks on real
results, so that what the hooks read at run time (``metrics._lattice``,
``metrics.default_resolution`` and the ``iterations`` and ``status`` of
the ``lincon.SolveResult`` that ``optimizer.minimize`` returns) is checked
as well.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    import symnodes.cli  # noqa: F401  (loads every submodule)
    from symnodes.quadrature import quadrature_rule

    targets = _spans_module()._targets(quadrature_rule)
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_counting_hooks_read_what_the_package_provides():
    from symnodes.basis import FunctionSpace
    from symnodes.baselines import baseline_distribution
    from symnodes.geometry import ElementKind, reference_element
    from symnodes.optimizer import (
        OptimizerConfig,
        assemble_problem,
        minimize,
    )
    from symnodes.quadrature import quadrature_rule
    from symnodes.symmetry import enumerate_admissible_collections

    spans = _spans_module()
    tracer = spans.Tracer()

    line = ElementKind.LINE
    (coll,) = enumerate_admissible_collections(line, 2)
    problem = assemble_problem(
        reference_element(line), coll, FunctionSpace(line, 2)
    )
    outcome = minimize(problem, OptimizerConfig(), np.array([0.5]))
    spans._restarts(tracer, (), {}, outcome, None)
    assert tracer.counts["optimizer.iterations"] == outcome.iterations
    assert tracer.counts["optimizer.converged"] == (
        outcome.status == "kkt-converged"
    )

    tri = ElementKind.TRIANGLE
    space = FunctionSpace(tri, 2)
    dist = baseline_distribution(tri, 2, "uniform")
    spans._lebesgue_points(quadrature_rule)(
        tracer, (space, dist), {}, 1.0, None
    )
    assert tracer.counts["metrics.lebesgue_constant.points"] > 0
