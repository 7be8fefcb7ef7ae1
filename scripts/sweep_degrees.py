"""Tabulate the degree sweep in two checkouts and compare the winners.

Usage, from the repository root::

    git archive <commit> | tar -x -C /tmp/other
    python3 scripts/sweep_degrees.py /tmp/other [--seeds 0 1 2]

At each seed, each checkout (with its own ``src`` on ``PYTHONPATH``, one
BLAS thread) runs ``symnodes tabulate`` over the sweep grid, one call per
kind in the order of ``GRID`` into one output directory, so that every
kind finds the faces that the kinds before it wrote (``--compat auto``,
the bottom-up pipeline).  The two sides run at the same time.  Each call's
``manifest.jsonl`` is moved aside before the next call; a call that writes
none fails its kind.  No trace is needed.

Prints one CSV row per (kind, p, seed): the objective ``||V^-1||_F^2`` on
this side and the other and its relative rise, the Lebesgue constant on
both sides, each side's optimizer status, and the distance between the two
node sets (nearest-neighbour matching, as ``check_identity.py`` measures
it; 0 where the files are the same bytes).  A summary line per seed counts
the node files that differ and the largest distance among them.

Exits 1 if an element fails on either side, or if an objective of this
checkout is above the other's by more than ``RISE`` relative.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from check_identity import _node_set_distance

ROOT = Path(__file__).resolve().parent.parent

GRID = {
    "line": 16, "tri": 15, "quad": 12, "tet": 8,
    "hex": 6, "prism": 7, "pyramid": 8,
}

RISE = 1e-12

CLI = "import sys; from symnodes.cli import main; sys.exit(main(sys.argv[1:]))"


def _sweep(checkout, out, seed):
    """One checkout's sweep at one seed: one ``tabulate`` per kind into
    ``out``, each manifest moved to ``manifest-<kind>.jsonl``.  Returns
    whether every call exited 0 and wrote its manifest; a call that dies
    before writing one leaves no manifest of its kind."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    manifest = out / "manifest.jsonl"
    ok = True
    for kind, top in GRID.items():
        manifest.unlink(missing_ok=True)
        ok &= subprocess.run(
            [sys.executable, "-c", CLI, "tabulate", "--element", kind,
             "--degree-range", f"1:{top}", "--seed", str(seed),
             "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL,
        ).returncode == 0
        if manifest.exists():
            manifest.replace(out / f"manifest-{kind}.jsonl")
        else:
            print(f"# {checkout}: tabulate {kind} wrote no manifest",
                  file=sys.stderr)
            ok = False
    return ok


def _rows(out):
    """The manifest rows of ``out`` by (kind, degree); a kind without a
    manifest has none, so its degrees read as failed."""
    rows = {}
    for kind in GRID:
        path = out / f"manifest-{kind}.jsonl"
        if not path.exists():
            continue
        with open(path) as fh:
            for line in fh:
                r = json.loads(line)
                rows[r["element"], r["degree"]] = r
    return rows


def _number(row, key):
    return float(row[key]) if row.get("status") == "ok" else float("nan")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", help="root of the checkout to compare against")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = ap.parse_args(argv)
    sides = {"this": ROOT, "other": Path(args.other).resolve()}
    ok = True
    print("kind,p,seed,objective,objective_other,objective_rise,lebesgue,"
          "lebesgue_other,status,status_other,node_distance")
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            outs = {side: Path(tmp) / f"{side}-{seed}" for side in sides}
            with ThreadPoolExecutor(len(sides)) as pool:
                ok &= all(pool.map(
                    lambda s: _sweep(sides[s], outs[s], seed), sides
                ))
            this, other = _rows(outs["this"]), _rows(outs["other"])
            moved, largest = 0, 0.0
            for key in sorted(this.keys() | other.keys(),
                              key=lambda k: (list(GRID).index(k[0]), k[1])):
                a, b = this.get(key, {}), other.get(key, {})
                failed = a.get("status") != "ok" or b.get("status") != "ok"
                dist = float("nan") if failed else 0.0
                if not failed:
                    fa, fb = outs["this"] / a["file"], outs["other"] / b["file"]
                    if not filecmp.cmp(fa, fb, shallow=False):
                        dist = _node_set_distance(fa, fb)
                        moved += 1
                        largest = max(largest, dist)
                obj, obj_other = (_number(r, "lebesgue_objective")
                                  for r in (a, b))
                rise = (obj - obj_other) / obj_other
                ok &= not failed and not rise > RISE
                print(f"{key[0]},{key[1]},{seed},{obj:.10g},{obj_other:.10g},"
                      f"{rise:.1e},{_number(a, 'lebesgue_constant'):.6g},"
                      f"{_number(b, 'lebesgue_constant'):.6g},"
                      f"{a.get('optimizer_status')},"
                      f"{b.get('optimizer_status')},{dist:.2e}")
            print(f"# seed {seed}: {moved} of {len(this)} node files differ, "
                  f"by at most {largest:.2e}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
