"""The benchmark's span tracer finds every function it wraps.

``perfbench/spans.py`` looks its targets up by name with ``getattr``; a
function renamed or deleted in the package would break the traced benchmark
run.  This test loads the module from its file (without editing or
installing it) and resolves each target.
"""

import importlib
import importlib.util
from pathlib import Path

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
