"""Smoke test of the benchmark itself, at a tiny size.

Run from the repository root with ``python3 perfbench/smoke.py`` or
``python3 -m pytest perfbench/smoke.py``.  The file name keeps it out of
the repository's own test collection.  It covers:

* the full ``run.py`` path on ``smoke-gen`` (line,tri p=2) and
  ``smoke-eval`` (two line files), with and without tracing;
* that the output checks pass on good outputs and catch damaged ones;
* the traced-run bookkeeping: every per-layer metric is reported, counts
  repeat exactly across two traced runs, and the layer self times plus the
  remainder add up to the traced wall time.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import spans  # noqa: E402
from symnodes import cli  # noqa: E402
from worker import EVAL  # noqa: E402


def _bench(workload, trace, seed=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _scratch():
    work = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work, exist_ok=True)
    return tempfile.mkdtemp(prefix="smoke-", dir=work)


def test_end_to_end_metrics():
    names = {m["name"] for m in _spec()["end_to_end"]}
    for workload in ("smoke-gen", "smoke-eval"):
        res = _bench(workload, 0)
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
        assert set(res["metrics"]) == names
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_bookkeeping():
    spec = _spec()
    names = {m["name"] for m in spec["per_layer"]}
    with open(os.path.join(HERE, "layers.json")) as fh:
        assert set(json.load(fh)) == names
    runs = [_bench("smoke-gen", 1) for _ in range(2)]
    for res in runs:
        assert res["correct"]
        assert set(res["metrics"]) == names
    values = [{k: v["value"] for k, v in r["metrics"].items()} for r in runs]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    counts = [k for k, u in units.items() if u in ("count", "flop", "B")]
    assert all(values[0][k] == values[1][k] for k in counts)
    assert values[0]["optimizer.restarts"] > 0
    assert values[0]["basis.eval.calls"] > 0
    assert values[0]["compatibility.orbit_reach.calls"] > 0
    for v in values:
        total = v["remainder.self_s"] + sum(
            v[f"{layer}.self_s"] for layer in spans.LAYERS
        )
        assert math.isclose(total, v["trace.wall_s"], rel_tol=1e-9)


def test_gen_checks_catch_damage():
    out = _scratch()
    try:
        assert cli.main(["tabulate", "--element", "line,tri",
                         "--degree-range", "2:2", "--out", out]) == 0
        good = checks.check_gen(out, "line,tri", "2:2")
        assert good.failed == 0 and good.attempted == 2 and good.objective_sum > 0

        # Move one tri node off its symmetric position.
        path = os.path.join(out, "tri_p2.nodes")
        with open(path) as fh:
            lines = fh.read().splitlines()
        x, y = map(float, lines[-1].split())
        lines[-1] = f"{x * 0.99!r} {y * 0.99!r}"
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        bad = checks.check_gen(out, "line,tri", "2:2")
        assert bad.failed == 1 and any("tri p=2" in p for p in bad.problems)

        os.remove(os.path.join(out, "line_p2.nodes"))
        bad = checks.check_gen(out, "line,tri", "2:2")
        assert bad.failed == 2
    finally:
        shutil.rmtree(out)


def test_eval_checks_catch_damage():
    from run import write_eval_inputs

    out = _scratch()
    try:
        degrees = EVAL["smoke-eval"]
        inputs = os.path.join(out, "input")
        write_eval_inputs(Path(inputs), degrees, seed=3)
        csv_path = os.path.join(out, "line.csv")
        assert cli.main(["compare", "--element", "line", "--degree-range", "1:2",
                         "--dist", f"in={inputs}", "--out", csv_path]) == 0
        reference = checks.load_reference()
        good = checks.check_eval(out, degrees, reference)
        assert good.failed == 0 and good.attempted == 2

        with open(csv_path) as fh:
            rows = fh.read().splitlines()
        rows[2] = "line,2,in,,,,"
        with open(csv_path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        bad = checks.check_eval(out, degrees, reference)
        assert bad.failed == 1 and bad.problems == ["line p=2: empty row"]

        off = dict(reference, line_p1=dict(reference["line_p1"]))
        off["line_p1"]["lebesgue_objective"] *= 1 + 1e-6
        bad = checks.check_eval(out, degrees, off)
        assert bad.failed == 2
    finally:
        shutil.rmtree(out)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
