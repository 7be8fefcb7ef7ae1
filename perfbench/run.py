"""Benchmark of the ``symnodes`` command line.

Usage, from the repository root::

    python3 perfbench/run.py --workload {gen-2d,gen-3d,eval-files,all} \
        --seed N --seconds S --trace {0,1}

Each repetition runs the workload's CLI calls in a fresh interpreter
(``worker.py``) with ``PYTHONPATH`` pointing at this checkout's ``src``.
Workloads (the seed is the only input that varies):

* ``gen-2d``: cold ``tabulate --element line,tri,quad --degree-range 7:9
  --seed N``.  Many small basis evaluations, small LU solves and HiGHS LPs:
  the per-call overhead path of the optimizer.
* ``gen-3d``: cold ``tabulate --element tet,hex,prism,pyramid
  --degree-range 4:4 --seed N``, which builds the line/tri/quad faces
  bottom-up first.  Face pinning (``_orbit_reach``), the fully pinned tet,
  mixed-face prism/pyramid and Vandermonde systems up to 125x125.
* ``eval-files``: ``compare --dist in=DIR`` for all seven elements in one
  process, on 47 uniform node files whose node order is permuted by the
  seed.  Large basis chunks and many-right-hand-side LU solves, and no
  optimizer at all: an optimizer-only change must leave it unchanged.

With ``--trace 0`` repetitions run until ``--seconds`` have passed and at
least ``MIN_REPS`` were made, plus bare interpreter starts until
``SETUP_SAMPLES`` set-up times exist; the end-to-end metrics are medians.
With ``--trace 1`` one untraced and one traced repetition run, and the
per-layer metrics come from the traced one (see ``spans.py``); its spans are
written to ``.perfbench-work/spans-<workload>.json``.  Every repetition's
outputs are checked (``checks.py``).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every check passed.

Workers run with one BLAS thread unless the caller set the thread
variables: on a host of two shared vCPUs, a second OpenBLAS thread that
spins while the other vCPU is taken makes ``wall_s`` track the host's
scheduler (about +50% on gen-3d with one vCPU busy, against +3% with one
thread).  The machine record reports the variables as found and as the
workers got them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import EVAL, GEN, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench-work"
# Repetitions and set-up samples per run, at least; medians are reported.
MIN_REPS = 2
SETUP_SAMPLES = 3
# Every worker must finish before this many seconds into the run.
DEADLINE_S = 170.0
# BLAS thread variables for the workers, where the caller left them unset.
WORKER_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    for name, value in WORKER_THREADS.items():
        env.setdefault(name, value)
    return env


def machine_record():
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    workers = worker_env()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "workers": {name: workers[name] for name in WORKER_THREADS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def write_eval_inputs(directory, degrees, seed):
    """Uniform node files up to ``degrees[element]``, rows permuted by
    ``seed`` (47 files for eval-files)."""
    import numpy as np
    from symnodes.baselines import baseline_distribution
    from symnodes.nodefile import write_node_file
    from symnodes.symmetry import NodalDistribution

    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True)
    for el, top in degrees.items():
        for p in range(1, top + 1):
            base = baseline_distribution(el, p, "uniform")
            nodes = base.nodes[rng.permutation(base.count)]
            dist = NodalDistribution(base.kind, p, nodes, source="uniform")
            write_node_file(directory / f"{el}_p{p}.nodes", dist,
                            config=f"permuted-seed-{seed}")


class Runner:
    """Spawns workers for one workload and checks what they wrote."""

    def __init__(self, workload, seed, work, started):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = started
        self.input = work / "input"
        self.env = worker_env()
        self.count = 0
        self.reference = None
        if workload in EVAL:
            from checks import load_reference

            write_eval_inputs(self.input, EVAL[workload], seed)
            self.reference = load_reference()

    def spawn(self, setup_only=False, trace_file=""):
        """One worker process; returns its record, or None if it failed."""
        self.count += 1
        out = self.work / f"rep{self.count}"
        out.mkdir()
        result = out / "result.json"
        cmd = [
            sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
            "--workload", self.workload, "--seed", str(self.seed),
            "--out", str(out), "--input", str(self.input),
            "--result", str(result),
        ]
        if setup_only:
            cmd.append("--setup-only")
        if trace_file:
            cmd += ["--trace", trace_file]
        remaining = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        with open(out / "log.txt", "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=out,
                                    env=self.env, stdout=log, stderr=log)
            try:
                code = proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = "timeout"
        if code != 0 or not result.is_file():
            tail = (out / "log.txt").read_text()[-2000:]
            print(f"worker failed ({code}):\n{tail}", file=sys.stderr)
            return None
        record = json.loads(result.read_text())
        if not setup_only:
            record["outcome"] = self.check(out)
            bad = [c for c in record["exit_codes"] if c != 0]
            if bad:
                record["outcome"].problems.append(f"CLI exit codes {bad}")
        return record

    def check(self, out):
        from checks import check_eval, check_gen

        if self.workload in GEN:
            return check_gen(out, *GEN[self.workload])
        return check_eval(out, EVAL[self.workload], self.reference)


def expected_items(workload):
    """Items a repetition attempts at least; all fail if its worker dies."""
    if workload in GEN:
        from checks import requested_items

        return len(requested_items(*GEN[workload]))
    return sum(EVAL[workload].values())


def run_workload(workload, seed, seconds, trace):
    started = time.monotonic()
    work = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reps, setups, traced = [], [], None
    try:
        runner = Runner(workload, seed, work, started)
        if trace:
            reps.append(runner.spawn())
            traced = runner.spawn(trace_file=str(WORK / f"spans-{workload}.json"))
        else:
            while len(reps) < MIN_REPS or time.monotonic() - started < seconds:
                reps.append(runner.spawn())
                if reps[-1] is None:
                    break
            setups = [r["setup_s"] for r in reps if r]
            while len(setups) < SETUP_SAMPLES:
                probe = runner.spawn(setup_only=True)
                if probe is None:
                    break
                setups.append(probe["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spawned = reps + ([traced] if trace else [])
    ok = all(r is not None for r in spawned)
    attempted = failed = 0
    for r in spawned:
        if r is None:
            attempted += expected_items(workload)
            failed += expected_items(workload)
            continue
        out = r["outcome"]
        attempted += out.attempted
        failed += out.failed
        for problem in out.problems:
            ok = False
            print(f"check failed: {workload}: {problem}", file=sys.stderr)
    good = [r for r in reps if r]
    samples = {}
    if good:
        samples = {
            "setup_s": setups or [r["setup_s"] for r in good],
            "wall_s": [r["wall_s"] for r in good],
            "cpu_s": [r["cpu_s"] for r in good],
            "peak_rss_mb": [r["peak_rss_mb"] for r in good],
            "objective_sum": [r["outcome"].objective_sum for r in good],
        }
    layers = {}
    if traced and good:
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = traced["wall_s"] / good[0]["wall_s"]
    return {
        "ok": ok and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "samples": samples,
        "layers": layers,
    }


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*GEN, *EVAL, "all"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "symnodes" / "__init__.py").is_file():
        print(f"error: no symnodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    print("machine " + json.dumps(machine_record(), sort_keys=True))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, correct = {}, 0, 0, True
    for workload in workloads:
        res = run_workload(workload, args.seed, args.seconds, args.trace)
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and res["ok"]
        runs = len(res["samples"].get("wall_s", [])) + args.trace
        print(f"{workload}: fail_ratio {res['failed'] / res['attempted']:.6g} 1 "
              f"({res['failed']} of {res['attempted']} items in {runs} runs)")
        e2e = {k: statistics.median(v) for k, v in res["samples"].items()}
        for m in spec["end_to_end"]:
            runs = res["samples"].get(m["name"], [])
            print(f"{workload}: {m['name']} {e2e.get(m['name'], math.nan):.6g} "
                  f"{m['unit']} (median of {len(runs)} runs: "
                  f"{' '.join(f'{v:.6g}' for v in runs)})")
        values = res["layers"] if args.trace else e2e
        for m in wanted:
            if m["name"] not in values:
                print(f"error: {workload}: metric {m['name']} not measured",
                      file=sys.stderr)
                correct = False
                continue
            key = m["name"] if len(workloads) == 1 else f"{workload}.{m['name']}"
            metrics[key] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
