"""Check that two checkouts of symnodes produce bit-identical results.

Usage, from the repository root::

    git archive <commit> | tar -x -C /tmp/other
    python3 scripts/check_identity.py /tmp/other [--seeds 1 2]

Compares this checkout against the one at the given path (each with its own
``src`` on ``PYTHONPATH``, one BLAS thread):

* ``basis_eval_many`` / ``basis_grad_many`` and the second derivatives of
  ``basis_eval_with_grad`` for all seven kinds at p = 1..9, at the uniform
  nodes, at perturbed nodes, at random interior points and at the
  vertices; for tri p=9 at the default Lebesgue lattice and for pyramid
  p=5 at the screening lattice, sets that span many of the basis's point
  blocks; plus the unnormalized and normalized Jacobi tables of
  ``basis._sweep`` (value and derivative rows of five (a, b) families)
  and ``gll_1d`` (byte for byte);
* each ``reference_element(kind)``: its ``n_matrix``, ``nu``, ``b_lambda``,
  ``v_lower``, ``v_upper``, ``vertices``, ``measure``, ``_solve_matrix`` and
  ``_solve_rhs_vals``, and each face's kind, ``matrix`` and ``offset`` (byte
  for byte);
* ``baseline_distribution`` of both families on every kind they cover at
  p = 1..12 and ``quadrature_rule`` points and weights of every kind at
  q = 0..29 (byte for byte, so the rows and their order);
* ``is_symmetric`` at tol 1e-14 and 1e-10 on each of those baselines up
  to p = 6, perturbed by 1e-15 .. 1e-9 and with one node moved by 1e-3;
* the Lebesgue lattice ``metrics._lattice`` and its fundamental domain
  ``metrics._chamber`` of each kind at the default resolution, at the
  screening resolution and at r = 7 and 61 (byte for byte, so the
  points and their order);
* the output of ``compatibility._orbit_reach`` for every orbit of each
  kind at every uniform baseline node of p = 1..6 (byte for byte,
  ``None`` as a row of NaN);
* the face checks of tet, hex, prism and pyramid at p = 1..4 against
  uniform face prescriptions: ``verify_face_match`` on the uniform nodes
  with every node moved by 0.5 tol and with one face node moved by 2 tol
  further (tol 1e-10), and ``snap_face_nodes`` of each set it passes
  (byte for byte);
* every orbit of each kind: its stacked maps ``point_matrix()`` and
  ``point_offsets()`` (so its parameter count and multiplicity too), the
  ``matrix``, ``lower`` and ``upper`` arrays of its bounds, and
  ``optimizer._orbit_intervals``;
* the orbit-index lists of ``enumerate_admissible_collections`` at
  ``cap=64`` for each kind at every degree up to its ``generate`` cap;
* for each kind at p = 1..6, the matrix, lower and upper arrays of
  ``stacked_constraints()`` of the baseline collection, unpinned and
  pinned to the faces of its own baseline (GLL on line, quad and hex,
  uniform elsewhere); with those pins, the pinned values, the
  baseline start and the jittered restart starts at seed 1, and the value,
  gradient and Hessian of ``optimizer._objective_value`` at each of these
  starts (byte for byte), which do not depend on any optimized node file;
* ``LagrangeInterpolator.inverse()`` of the uniform nodes of each kind at
  p = 1..6 (byte for byte);
* on uniform sets of each kind at p = 1..5, perturbed by 0.25/p .. 8/p
  times uniform noise drawn at seeds 0..9: ``is_unisolvent``, and the
  ``mass_condition`` and Lebesgue constant of ``evaluate_metrics`` at
  resolution 20, or "refused" whatever the exception (byte for byte);
* ``lebesgue_constant`` at the default resolution on uniform p=4 of each
  kind with the node nearest the centroid moved by 1e-3, a set no symmetry
  maps onto itself, so its scan covers the whole lattice; and on uniform
  tri p=15, quad p=12, tet p=8, hex p=6, prism p=7 and pyramid p=7, both
  as they are (the chamber scan) and so moved, scans that take several
  chunks of the flat and the sum-factorized product (byte for byte);
* every file written by ``tabulate --element line,tri,quad --degree-range
  7:9`` and ``tabulate --element tet,hex,prism,pyramid --degree-range 4:4``
  at each seed (node files and manifest, byte for byte), the ``evaluate``
  row of each of those node files, and the jittered restart starts and
  pinned parameter values of every element those runs optimize
  (``optimizer._jittered_start`` and ``OptimizationProblem.pinned_values``,
  byte for byte), and the outcome of every restart those runs minimize
  (the ``parameters``, ``objective``, ``status``, ``iterations``,
  ``kkt_residual`` and ``message`` of each ``optimizer.MinimizeOutcome``,
  byte for byte), so that a last-bit change of a start, a pin or a losing
  restart shows even when the winning node file is unchanged;
* at each seed, the stdout line (without its ``wrote PATH`` tail) and the
  node file of ``generate`` for tet p=3 with ``--compat auto``, for tri
  p=6 and prism p=3 with ``--compat off`` (the start with free boundary
  orbits), and for tet p=4 with ``--compat`` naming the ``tri_p4.nodes``
  that the 3d ``tabulate`` wrote on the same side (a user face file);
* the ``compare`` CSVs of the benchmark's eval-files workload at each seed;
* one ``compare`` per kind over p = 1..9 (1..5 in 3D) with ``--dist
  uniform``, ``--dist gll`` and a set no symmetry maps onto itself at each
  degree (``--dist moved=DIR``, files written once by this checkout), so
  that rows of several degrees and distributions share a scan: the CSVs
  and the warning lines (byte for byte).

Prints one line per comparison and exits 1 if anything differs.  Where a
file differs it also prints how far apart the two are: the node-set
distance of a node file (nearest-neighbour matching, so independent of the
row order), or, for a manifest or CSV compared row by row and key by key,
the largest relative difference of each metric, the rows on one side only,
the keys added or removed (each on its own line) and every other key whose
values differ.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

DUMP = r"""
import sys
import numpy as np
from symnodes.baselines import BaselineKind, baseline_distribution, gll_1d
from symnodes.basis import (
    FunctionSpace, LagrangeInterpolator, basis_eval_many, basis_eval_with_grad,
    basis_grad_many, _sweep,
)
from symnodes import optimizer
from symnodes.cli import _DEGREE_CAPS
from symnodes.compatibility import (
    _orbit_reach, build_compatibility_constraints, face_prescriptions,
    snap_face_nodes, verify_face_match,
)
from symnodes.errors import SymnodesError
from symnodes.geometry import (
    ElementKind, contains, natural_solve, reference_element,
)
from symnodes.metrics import (
    _SCREEN_RESOLUTION, _chamber, _lattice, default_resolution,
    evaluate_metrics, is_unisolvent, lebesgue_constant,
)
from symnodes.quadrature import quadrature_rule
from symnodes.symmetry import (
    NodalDistribution, enumerate_admissible_collections, is_symmetric, orbits,
)


def second_derivatives(sp, pts):
    # The callable returns (gradients, second derivatives), or in older
    # checkouts the gradients alone and the second derivatives at order 2.
    derivatives = basis_eval_with_grad(sp, pts)[1]
    pair = derivatives()
    return pair[1] if isinstance(pair, tuple) else derivatives(2)


out = {}
for kind in ElementKind:
    elem = reference_element(kind)
    for name in ("n_matrix", "nu", "b_lambda", "v_lower", "v_upper", "vertices",
                 "measure", "_solve_matrix", "_solve_rhs_vals"):
        out[f"{kind.value}_element_{name}"] = np.array(getattr(elem, name))
    for i, face in enumerate(elem.faces):
        key = f"{kind.value}_face{i}"
        out[key + "_kind"] = np.array(getattr(face.face_kind, "value", "none"))
        out[key + "_matrix"] = face.matrix
        out[key + "_offset"] = face.offset
rng = np.random.default_rng(123)
for kind in ElementKind:
    elem = reference_element(kind)
    for p in range(1, 10):
        sp = FunctionSpace(kind, p)
        nodes = baseline_distribution(kind, p, BaselineKind.UNIFORM).nodes
        inside = []
        while len(inside) < 200:
            x = rng.uniform(-1.0, 1.0, size=elem.dim)
            if contains(elem, x, 0.0):
                inside.append(x)
        sets = {
            "nodes": nodes,
            "perturbed": nodes + 1e-3 * rng.standard_normal(nodes.shape),
            "interior": np.array(inside),
            "vertices": elem.vertices,
        }
        for name, pts in sets.items():
            key = f"{kind.value}_p{p}_{name}"
            with np.errstate(all="ignore"):
                out[key + "_V"] = basis_eval_many(sp, pts)
                out[key + "_G"] = basis_grad_many(sp, pts)
                out[key + "_H"] = second_derivatives(sp, pts)
for kind, p, res in [("tri", 9, 300), ("pyramid", 5, 20)]:
    pts = _lattice(ElementKind(kind), res)
    sp = FunctionSpace(ElementKind(kind), p)
    out[f"{kind}_p{p}_lattice{res}_V"] = basis_eval_many(sp, pts)
    out[f"{kind}_p{p}_lattice{res}_G"] = basis_grad_many(sp, pts)
    out[f"{kind}_p{p}_lattice{res}_H"] = second_derivatives(sp, pts)
for kind in ElementKind:
    dim = reference_element(kind).dim
    for res in sorted({default_resolution(dim), _SCREEN_RESOLUTION, 7, 61}):
        out[f"{kind.value}_lattice{res}"] = _lattice(kind, res)
        out[f"{kind.value}_chamber{res}"] = _chamber(kind, res)
for kind in ElementKind:
    elem = reference_element(kind)
    for p in range(1, 7):
        nodes = baseline_distribution(kind, p, BaselineKind.UNIFORM).nodes
        lam = np.atleast_2d(natural_solve(elem, nodes))
        for orbit in orbits(kind):
            none = np.full(orbit.param_count, np.nan)
            reach = [_orbit_reach(orbit, point) for point in lam]
            out[f"{kind.value}_p{p}_orbit{orbit.index}_reach"] = np.array(
                [none if xi is None else xi for xi in reach]
            )
# Face checks against uniform prescriptions: every node moved by 0.5 tol,
# then one face node moved by 2 tol further; the snapped nodes where the
# check passes.
moves = np.random.default_rng(11)
for kind in ("tet", "hex", "prism", "pyramid"):
    kind = ElementKind(kind)
    elem = reference_element(kind)
    for p in range(1, 5):
        key = f"{kind.value}_p{p}_face_check"
        pres = face_prescriptions(
            kind, p, lambda fk, q: baseline_distribution(fk, q, "uniform")
        )
        uni = baseline_distribution(kind, p, BaselineKind.UNIFORM)
        step = moves.standard_normal(uni.nodes.shape)
        step *= 0.5e-10 / np.linalg.norm(step, axis=1, keepdims=True)
        near = uni.nodes + step
        far = near.copy()
        face = np.flatnonzero(elem.faces[0].pullback(near)[1] <= 1e-10)
        far[moves.choice(face)] += 2e-10 * np.eye(elem.dim)[0]
        for name, nodes in (("near", near), ("far", far)):
            ok = verify_face_match(elem, NodalDistribution(kind, p, nodes), pres)
            out[f"{key}_{name}"] = np.array(ok)
            if ok:
                out[f"{key}_{name}_snapped"] = snap_face_nodes(elem, nodes, pres)
for kind in ElementKind:
    for p in range(1, _DEGREE_CAPS[kind] + 1):
        # Each collection's orbit indices, closed by -1.
        out[f"{kind.value}_p{p}_collections"] = np.array(
            [j for c in enumerate_admissible_collections(kind, p, cap=64)
             for j in (*c.indices, -1)]
        )
    for orbit in orbits(kind):
        key = f"{kind.value}_orbit{orbit.index}"
        out[key + "_maps_S"] = orbit.point_matrix()
        out[key + "_maps_sigma"] = orbit.point_offsets()
        for part in ("matrix", "lower", "upper"):
            out[f"{key}_bounds_{part}"] = getattr(orbit.bounds, part)
        lo, hi = optimizer._orbit_intervals(orbit)
        out[key + "_intervals"] = np.array([lo, hi])
tensor = (ElementKind.LINE, ElementKind.QUADRILATERAL, ElementKind.HEXAHEDRON)
for kind in ElementKind:
    elem = reference_element(kind)
    base = BaselineKind.GLL if kind in tensor else BaselineKind.UNIFORM
    for p in range(1, 7):
        key = f"{kind.value}_p{p}_baseline_faces"
        faces = face_prescriptions(
            kind, p, lambda fk, q: baseline_distribution(fk, q, base)
        )
        coll, entries = optimizer._baseline_collection(kind, p)
        pinned = build_compatibility_constraints(elem, coll, faces)
        for name, c in (("unpinned", coll), ("pinned", pinned)):
            cons = c.stacked_constraints()
            for part in ("matrix", "lower", "upper"):
                out[f"{key}_{name}_{part}"] = getattr(cons, part)
        coll = pinned
        problem = optimizer.assemble_problem(elem, coll, FunctionSpace(kind, p))
        y0 = optimizer._initial_parameters(problem, entries, faces)
        out[key + "_pinned"] = problem.pinned_values
        starts = {"start": y0}
        if problem.free_dimension:
            span = optimizer._jitter_spans(coll)
            for restart in range(1, optimizer.MULTISTART_COUNT + 1):
                starts[f"restart{restart}"] = optimizer._jittered_start(
                    problem, y0, span, (1, restart)
                )
        for name, y in starts.items():
            out[f"{key}_{name}"] = y
            f, derivatives = optimizer._objective_value(problem, y)
            g = derivatives()
            # (gradient, Hessian), or the gradient alone in older checkouts
            g, H = g if isinstance(g, tuple) else (g, None)
            out[f"{key}_{name}_objective"] = np.array(f)
            out[f"{key}_{name}_gradient"] = g if g is not None else np.nan
            if H is not None:
                out[f"{key}_{name}_hessian"] = H
    for p in range(1, 7):
        dist = baseline_distribution(kind, p, BaselineKind.UNIFORM)
        out[f"{kind.value}_p{p}_uniform_inverse"] = LagrangeInterpolator(
            FunctionSpace(kind, p), dist
        ).inverse()
def moved(kind, p):
    # Uniform nodes with the node nearest the centroid moved off every
    # mirror: no symmetry, so the Lebesgue scan covers the whole lattice.
    uni = baseline_distribution(kind, p, BaselineKind.UNIFORM)
    centre = reference_element(kind).vertices.mean(axis=0)
    nodes = uni.nodes.copy()
    nodes[np.argmin(np.linalg.norm(nodes - centre, axis=1)), 0] += 1e-3
    return NodalDistribution(kind, p, nodes, "moved")


for kind in ElementKind:
    out[f"{kind.value}_p4_asymmetric_lebesgue"] = np.array(
        lebesgue_constant(FunctionSpace(kind, 4), moved(kind, 4))
    )
# Scans over several chunks, flat and sum-factorized, of the chamber
# (uniform) and of the whole lattice (moved).
for kind, p in [("tri", 15), ("quad", 12), ("tet", 8), ("hex", 6),
                ("prism", 7), ("pyramid", 7)]:
    kind = ElementKind(kind)
    sp = FunctionSpace(kind, p)
    uni = baseline_distribution(kind, p, BaselineKind.UNIFORM)
    for name, dist in (("uniform", uni), ("moved", moved(kind, p))):
        out[f"{kind.value}_p{p}_{name}_lebesgue"] = np.array(
            lebesgue_constant(sp, dist)
        )
# Refusal decisions on perturbed uniform sets: the screen's answer, and the
# report's mass condition and Lebesgue constant or "refused" (whatever the
# exception class).
for kind in ElementKind:
    for p in range(1, 6):
        sp = FunctionSpace(kind, p)
        uni = baseline_distribution(kind, p, BaselineKind.UNIFORM)
        for seed in range(10):
            shift = np.random.default_rng(seed).uniform(-1, 1, uni.nodes.shape)
            for a in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
                dist = NodalDistribution(kind, p, uni.nodes + a / p * shift, "x")
                key = f"{kind.value}_p{p}_seed{seed}_a{a}"
                out[key + "_unisolvent"] = np.array(is_unisolvent(sp, dist))
                try:
                    r = evaluate_metrics(sp, dist, resolution=20)
                    report = [r.mass_condition, r.lebesgue_constant]
                except SymnodesError:
                    report = "refused"
                out[key + "_report"] = np.array(report)
x = np.tile(np.linspace(-1.0, 1.0, 101), (2, 1))
for a, b in [(0.0, 0.0), (1.0, 1.0), (3.0, 0.0), (2.0, 2.0), (1.3, 0.2)]:
    for normalized in (False, True):
        rows = ((a, b, False, 11), (a, b, True, 10))
        out[f"sweep_{a}_{b}_{normalized}"] = _sweep(11, rows, normalized, x)
sym = np.random.default_rng(7)
for kind in ElementKind:
    families = ["uniform", "gll"] if kind in tensor else ["uniform"]
    for which in families:
        for p in range(1, 13):
            nodes = baseline_distribution(kind, p, which).nodes
            out[f"{kind.value}_p{p}_{which}_baseline"] = nodes
            if p > 6:
                continue
            # is_symmetric on the set perturbed by 1e-15..1e-9 and with one
            # node moved by 1e-3, at tol 1e-14 and 1e-10.
            sets = [nodes + 10.0**e * sym.uniform(-1, 1, nodes.shape)
                    for e in range(-15, -8)]
            moved = nodes.copy()
            moved[sym.integers(len(nodes))] += 1e-3
            out[f"{kind.value}_p{p}_{which}_symmetric"] = np.array(
                [[is_symmetric(kind, pts, tol) for tol in (1e-14, 1e-10)]
                 for pts in sets + [moved]]
            )
    for q in range(30):
        rule = quadrature_rule(kind, q)
        out[f"{kind.value}_q{q}_points"] = rule.points
        out[f"{kind.value}_q{q}_weights"] = rule.weights
for p in range(1, 31):
    out[f"gll_{p}"] = gll_1d(p)
np.savez(sys.argv[1], **out)
"""

CLI = "import sys; from symnodes.cli import main; sys.exit(main(sys.argv[1:]))"

# ``main(argv[2:])`` with each jittered restart start recorded by element,
# degree and restart, the pinned values of each problem by element and
# degree, and each field of every restart's outcome by element, degree and
# run (the restarts whose start exists, in restart order), saved to the .npz
# file ``argv[1]``.  One problem is assembled per element, before its runs.
STARTS = r"""
import sys
import numpy as np
from symnodes import optimizer
from symnodes.cli import main
starts, jitter = {}, optimizer._jittered_start
assemble, outcome = optimizer.assemble_problem, optimizer.MinimizeOutcome
runs = []  # [element key, runs recorded]
FIELDS = ("parameters", "objective", "status", "iterations", "kkt_residual",
          "message")

def recording(problem, y0, span, seed_key):
    start = jitter(problem, y0, span, seed_key)
    coll = problem.collection
    starts[f"{coll.kind.value}_p{coll.degree}_restart{seed_key[1]}"] = start
    return start

def pins(elem, coll, space):
    problem = assemble(elem, coll, space)
    key = f"{coll.kind.value}_p{coll.degree}"
    starts[key + "_pinned"] = problem.pinned_values
    runs[:] = [key, 0]
    return problem

def outcomes(*args, **fields):
    fields.update(zip(FIELDS, args))  # the dataclass's field order
    key, run = runs
    runs[1] += 1
    for name in FIELDS:
        starts[f"{key}_run{run}_{name}"] = np.array(fields[name])
    return outcome(**fields)

optimizer._jittered_start = recording
optimizer.assemble_problem = pins
optimizer.MinimizeOutcome = outcomes
code = main(sys.argv[2:])
np.savez(sys.argv[1], **starts)
sys.exit(code)
"""

# The ``evaluate`` rows of the node files given as arguments, as one CSV.
EVALUATE = r"""
import sys
from symnodes.cli import CSV_HEADER, main
print(CSV_HEADER, flush=True)
for path in sys.argv[1:]:
    assert main(["evaluate", path]) == 0
"""

# ``generate`` runs by output file name.  ``{face}`` is one path on both
# sides (it enters the node file's config hash), holding the ``tri_p4.nodes``
# of the same side's 3d ``tabulate`` at the same seed.
GENERATE = {
    "tet_p3_auto": ["--element", "tet", "--degree", "3", "--compat", "auto"],
    "tri_p6_off": ["--element", "tri", "--degree", "6", "--compat", "off"],
    "prism_p3_off": ["--element", "prism", "--degree", "3", "--compat", "off"],
    "tet_p4_file": ["--element", "tet", "--degree", "4",
                    "--compat", "{face}"],
}

EVAL = r"""
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from run import write_eval_inputs
from worker import EVAL, cli_calls
from symnodes.cli import main
out, seed = sys.argv[2], int(sys.argv[3])
write_eval_inputs(Path(out) / "in", EVAL["eval-files"], seed)
for args in cli_calls("eval-files", seed, out, str(Path(out) / "in")):
    assert main(args) == 0
"""

# Node files for ``compare --dist moved=DIR`` in ``argv[1]``: each uniform
# node moved toward a point off every mirror by a random fraction, at most
# 0.1 / p, of the way there, so that the set stays inside and no symmetry
# maps it onto itself.
MOVED = r"""
import sys
from pathlib import Path
import numpy as np
from symnodes.baselines import baseline_distribution
from symnodes.geometry import ElementKind, reference_element
from symnodes.nodefile import write_node_file
from symnodes.symmetry import NodalDistribution
for n, kind in enumerate(ElementKind):
    elem = reference_element(kind)
    off = elem.vertices.mean(axis=0) + np.array([0.1, 0.03, 0.007])[: elem.dim]
    for p in range(1, 10 if elem.dim < 3 else 6):
        uni = baseline_distribution(kind, p, "uniform")
        t = np.random.default_rng([n, p]).uniform(0.0, 0.1 / p, (uni.count, 1))
        write_node_file(
            Path(sys.argv[1]) / f"{kind.value}_p{p}.nodes",
            NodalDistribution(kind, p, uni.nodes + t * (off - uni.nodes), "moved"),
        )
"""

# One ``compare`` per kind into ``argv[1]/<kind>.csv``, its warnings into
# ``<kind>.err``, with the moved sets of the directory ``argv[2]``.
COMPARE = r"""
import contextlib
import sys
from symnodes.cli import main
from symnodes.geometry import ElementKind, reference_element
for kind in ElementKind:
    top = 9 if reference_element(kind).dim < 3 else 5
    out = f"{sys.argv[1]}/{kind.value}"
    with open(out + ".err", "w") as err, contextlib.redirect_stderr(err):
        assert main([
            "compare", "--element", kind.value, "--degree-range", f"1:{top}",
            "--dist", "uniform", "--dist", "gll",
            "--dist", f"moved={sys.argv[2]}", "--out", out + ".csv",
        ]) == 0
"""


def _run(checkout, argv):
    """Run Python on ``checkout``'s ``src`` with ``argv``; return stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, *argv], env=env, check=True,
                          stdout=subprocess.PIPE, text=True).stdout


METRICS = ("lebesgue_constant", "lebesgue_objective", "mass_condition")


def _differing(a, b, names):
    return [n for n in names if not filecmp.cmp(a / n, b / n, shallow=False)]


def _node_set_distance(a, b):
    """Largest distance from a node of either file to its nearest node in
    the other; infinite when the counts differ."""
    x = np.loadtxt(a, comments="#", ndmin=2)
    y = np.loadtxt(b, comments="#", ndmin=2)
    if x.shape != y.shape:
        return np.inf
    d = np.sqrt(np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2))
    return float(max(d.min(axis=0).max(), d.min(axis=1).max()))


def _manifest_rows(path):
    with open(path) as fh:
        rows = [json.loads(line) for line in fh]
    return {(r["element"], r["degree"]): r for r in rows}


def _csv_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {(r["element"], r["degree"], r["distribution"]): r for r in rows}


def _rel(u, v):
    if u == v:
        return 0.0
    if u in ("", None) or v in ("", None):
        return np.inf
    u, v = float(u), float(v)
    return abs(u - v) / max(abs(u), abs(v))


def _row_report(rows_a, rows_b):
    """How two sets of rows keyed alike differ, key by key: the largest
    relative difference of each metric, then one line each for the rows
    found on one side only, the keys found only in this checkout's rows
    (added) or only in the other's (removed), and every other key whose
    values differ, with the rows where they do."""
    worst = dict.fromkeys(METRICS, 0.0)
    added, removed, differing = set(), set(), {}
    for row in sorted(set(rows_a) & set(rows_b), key=str):
        ra, rb = rows_a[row], rows_b[row]
        added |= ra.keys() - rb.keys()
        removed |= rb.keys() - ra.keys()
        for key in sorted(ra.keys() & rb.keys()):
            if key in METRICS:
                worst[key] = max(worst[key], _rel(ra[key], rb[key]))
            elif ra[key] != rb[key]:
                differing.setdefault(key, []).append(row)
    lines = [", ".join(f"{m} {worst[m]:.1e}" for m in METRICS)]
    only = sorted(set(rows_a) ^ set(rows_b), key=str)
    if only:
        lines.append(f"rows on one side only: {only}")
    if added:
        lines.append(f"keys added: {sorted(added)}")
    if removed:
        lines.append(f"keys removed: {sorted(removed)}")
    lines += [f"{key} differs in rows {rows}"
              for key, rows in sorted(differing.items())]
    return lines


def _explain(a, b, names):
    """Indented lines for each differing file: how far apart the two are."""
    lines = []
    for name in _differing(a, b, names):
        if name.endswith(".nodes"):
            dist = _node_set_distance(a / name, b / name)
            report = [f"node-set distance {dist:.1e}"]
        elif name.endswith(".jsonl"):
            report = _row_report(
                _manifest_rows(a / name), _manifest_rows(b / name)
            )
        elif name.endswith(".csv"):
            report = _row_report(_csv_rows(a / name), _csv_rows(b / name))
        else:
            report = ["differs"]
        lines.append(f"    {name}: {report[0]}")
        lines += [f"        {text}" for text in report[1:]]
    return lines


def _compare_starts(a, b):
    """Whether two .npz files of restart starts, pins and outcomes hold the
    same arrays byte for byte, and one line per array that differs or is on
    one side only."""
    a, b = np.load(a), np.load(b)
    lines = [f"    on one side only: {key}"
             for key in sorted(set(a.files) ^ set(b.files))]
    for key in sorted(set(a.files) & set(b.files)):
        if a[key].tobytes() != b[key].tobytes():
            if a[key].dtype.kind == "U" or b[key].dtype.kind == "U":
                lines.append(f"    {key}: {a[key]} against {b[key]}")
                continue
            size = (np.max(np.abs(a[key] - b[key]))
                    if a[key].shape == b[key].shape else np.inf)
            lines.append(f"    {key}: max abs difference {size:.1e}")
    lines.insert(0, f"    {len(a.files)} starts, pins and outcome fields")
    return len(lines) == 1, lines


def _compare_files(a, b, names_a, names_b):
    """Whether the two directories hold the same files byte for byte, and
    the lines explaining any difference."""
    if names_a != names_b:
        return False, [f"    file lists differ: {set(names_a) ^ set(names_b)}"]
    lines = _explain(a, b, names_a)
    return not lines, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", help="root of the checkout to compare against")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args(argv)
    sides = {"this": ROOT, "other": Path(args.other).resolve()}
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for side, checkout in sides.items():
            _run(checkout, ["-c", DUMP, str(tmp / f"{side}.npz")])
        a, b = np.load(tmp / "this.npz"), np.load(tmp / "other.npz")
        diff = sorted(set(a.files) ^ set(b.files)) + [
            k for k in sorted(set(a.files) & set(b.files))
            if (a[k].dtype, a[k].shape, a[k].tobytes())
            != (b[k].dtype, b[k].shape, b[k].tobytes())
        ]
        print(f"arrays: {len(a.files) - len(diff)}/{len(a.files)} "
              f"identical {diff[:5]}")
        for k in diff:
            if k in a.files and k in b.files and a[k].shape == b[k].shape:
                size = np.max(np.abs(a[k] - b[k].astype(float)))
                scale = np.max(np.abs(b[k]), where=np.isfinite(b[k]),
                               initial=0.0)
                with np.errstate(all="ignore"):
                    print(f"    {k}: max abs difference {size:.1e}, "
                          f"{size / scale:.1e} of the largest entry")
        ok &= not diff

        jobs = {
            "2d": ["tabulate", "--element", "line,tri,quad",
                   "--degree-range", "7:9"],
            "3d": ["tabulate", "--element", "tet,hex,prism,pyramid",
                   "--degree-range", "4:4"],
        }
        for seed in args.seeds:
            for name, cmd in jobs.items():
                for side, checkout in sides.items():
                    out = tmp / f"{side}-{name}-{seed}"
                    _run(checkout, ["-c", STARTS,
                                    str(tmp / f"{side}-starts-{name}.npz"),
                                    *cmd, "--seed", str(seed),
                                    "--out", str(out)])
                    files = sorted(str(f) for f in out.glob("*.nodes"))
                    rows = tmp / f"{side}-evaluate-{name}-{seed}"
                    rows.mkdir()
                    (rows / "evaluate.csv").write_text(
                        _run(checkout, ["-c", EVALUATE, *files])
                    )
                same, lines = _compare_starts(
                    tmp / f"this-starts-{name}.npz",
                    tmp / f"other-starts-{name}.npz",
                )
                print(f"starts {name} seed {seed}: "
                      f"{'identical' if same else 'DIFFERENT'}", *lines,
                      sep="\n")
                ok &= same
                for what in ("", "evaluate-"):
                    this = tmp / f"this-{what}{name}-{seed}"
                    other = tmp / f"other-{what}{name}-{seed}"
                    same, lines = _compare_files(
                        this, other, sorted(os.listdir(this)),
                        sorted(os.listdir(other)),
                    )
                    label = "evaluate rows" if what else "tabulate"
                    print(f"{label} {name} seed {seed}: "
                          f"{'identical' if same else 'DIFFERENT'}", *lines,
                          sep="\n")
                    ok &= same
            for job, cmd in GENERATE.items():
                generated = {}
                for side, checkout in sides.items():
                    face = tmp / "tri_p4.nodes"
                    shutil.copyfile(tmp / f"{side}-3d-{seed}" / face.name,
                                    face)
                    out = tmp / f"{side}-generate-{seed}"
                    stdout = _run(checkout, [
                        "-c", CLI, "generate",
                        *(arg.format(face=face) for arg in cmd),
                        "--seed", str(seed), "--cache-dir", str(out / "cache"),
                        "--out", str(out / f"{job}.nodes"),
                    ])
                    generated[side] = stdout.rpartition(", wrote ")[0]
                same, lines = _compare_files(
                    tmp / f"this-generate-{seed}",
                    tmp / f"other-generate-{seed}",
                    [f"{job}.nodes"], [f"{job}.nodes"],
                )
                if generated["this"] != generated["other"]:
                    same = False
                    lines += [f"    {side}: {line}"
                              for side, line in generated.items()]
                print(f"generate {job} seed {seed}: "
                      f"{'identical' if same else 'DIFFERENT'}", *lines,
                      sep="\n")
                ok &= same
            for side, checkout in sides.items():
                out = tmp / f"{side}-eval-{seed}"
                _run(checkout, ["-c", EVAL, str(ROOT / "perfbench"),
                                str(out), str(seed)])
            this, other = tmp / f"this-eval-{seed}", tmp / f"other-eval-{seed}"
            same, lines = _compare_files(
                this, other, sorted(p.name for p in this.glob("*.csv")),
                sorted(p.name for p in other.glob("*.csv")),
            )
            print(f"eval-files CSVs seed {seed}: "
                  f"{'identical' if same else 'DIFFERENT'}", *lines, sep="\n")
            ok &= same
        moved = tmp / "moved"
        moved.mkdir()
        _run(ROOT, ["-c", MOVED, str(moved)])
        for side, checkout in sides.items():
            (tmp / f"{side}-compare").mkdir()
            _run(checkout, ["-c", COMPARE, str(tmp / f"{side}-compare"),
                            str(moved)])
        this, other = tmp / "this-compare", tmp / "other-compare"
        same, lines = _compare_files(
            this, other, sorted(os.listdir(this)), sorted(os.listdir(other))
        )
        print(f"compare CSVs: {'identical' if same else 'DIFFERENT'}", *lines,
              sep="\n")
        ok &= same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
