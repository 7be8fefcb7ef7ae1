"""One measured repetition of a benchmark workload, in a fresh interpreter.

Started by ``run.py`` as ``python3 worker.py --root ROOT --workload NAME
--seed N --out DIR --t0 T --result FILE [--trace SPANS] [--setup-only]``.
``T`` is the parent's ``time.monotonic()`` just before the process was
spawned; CLOCK_MONOTONIC is system-wide on Linux, so ``setup_s`` covers
process start, interpreter start and the import of ``symnodes.cli``.
The CLI work then runs in this process and its wall time, user+system CPU
time (all threads, BLAS included) and peak resident memory are written to
``FILE`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

# tabulate workloads: (elements, degree range).  The smoke-* workloads are
# tiny versions that smoke.py runs to test the benchmark itself.
GEN = {
    "gen-2d": ("line,tri,quad", "7:9"),
    "gen-3d": ("tet,hex,prism,pyramid", "4:4"),
    "smoke-gen": ("line,tri", "2:2"),
}
# compare workloads: highest degree of the uniform input files, per element.
EVAL = {
    "eval-files": {
        "line": 9, "tri": 9, "quad": 9,
        "tet": 5, "hex": 5, "prism": 5, "pyramid": 5,
    },
    "smoke-eval": {"line": 2},
}
WORKLOADS = ("gen-2d", "gen-3d", "eval-files")


def cli_calls(workload, seed, out_dir, input_dir):
    """The argument lists passed to ``symnodes.cli.main`` for a workload."""
    if workload in GEN:
        elements, degrees = GEN[workload]
        return [[
            "tabulate", "--element", elements, "--degree-range", degrees,
            "--out", out_dir, "--seed", str(seed),
        ]]
    return [
        [
            "compare", "--element", kind, "--degree-range", f"1:{top}",
            "--dist", f"in={input_dir}",
            "--out", os.path.join(out_dir, f"{kind}.csv"),
        ]
        for kind, top in EVAL[workload].items()
    ]


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", choices=(*GEN, *EVAL), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--input", default="")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", default="")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    import symnodes.cli

    ready = time.monotonic()
    src = os.path.join(os.path.abspath(args.root), "src")
    if not os.path.abspath(symnodes.cli.__file__).startswith(src + os.sep):
        print(f"symnodes imported from {symnodes.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    record = {"setup_s": ready - args.t0}
    if not args.setup_only:
        calls = cli_calls(args.workload, args.seed, args.out, args.input)
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        w0 = time.perf_counter()
        codes = [symnodes.cli.main(call) for call in calls]
        wall = time.perf_counter() - w0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        record.update(
            wall_s=wall,
            cpu_s=(ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
            peak_rss_mb=ru1.ru_maxrss / 1024.0,
            exit_codes=codes,
        )
        if tracer is not None:
            record["layers"] = spans.summarize(tracer, wall)
            tracer.dump(args.trace)
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
