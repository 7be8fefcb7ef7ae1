"""Output checks applied to every repetition of a workload.

An item is one (element, degree) pair: a manifest row or node file of a
gen-* run, or a CSV row of eval-files.  An item fails when any check on it
fails; ``fail_ratio`` is failed items over attempted items.

gen-*:
  * every requested manifest row has status ``ok`` and every node file the
    run wrote reads back through ``read_node_file``;
  * every node set maps to itself under its element's symmetry group, to
    ``SYMMETRY_TOL``;
  * every 2D/3D node set passes ``verify_face_match`` against the same run's
    lower-dimensional node sets of the same degree (line sets against the
    endpoint prescription), which is the cross-element compatibility claim.

eval-files:
  * no CSV row is empty, and every row matches the metrics of the
    unpermuted node set in ``eval_reference.json`` to a relative
    ``REFERENCE_RTOL``.  Permuting the nodes changes only the order of
    floating-point sums, so the metrics agree to far better than this.
"""

from __future__ import annotations

import csv
import json
import os
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from symnodes.compatibility import (
    FacePrescription,
    point_prescription,
    verify_face_match,
)
from symnodes.errors import NodeFileError
from symnodes.geometry import reference_element
from symnodes.nodefile import read_node_file
from symnodes.symmetry import cartesian_symmetry_group

SYMMETRY_TOL = 1e-10
REFERENCE_RTOL = 1e-9
REFERENCE_FILE = os.path.join(os.path.dirname(__file__), "eval_reference.json")
METRIC_COLUMNS = ("lebesgue_constant", "lebesgue_objective", "mass_condition")


@dataclass
class Outcome:
    attempted: int
    failed: int
    objective_sum: float
    problems: list = field(default_factory=list)


def _outcome(items, problems, objective_sum):
    lines = [f"{el} p={p}: {msg}" for (el, p), msgs in sorted(problems.items())
             for msg in msgs]
    return Outcome(len(set(items) | set(problems)), len(problems),
                   objective_sum, lines)


def maps_to_itself(dist, tol=SYMMETRY_TOL):
    """True when every symmetry of the element permutes the node set."""
    X = dist.nodes
    for A, b in cartesian_symmetry_group(dist.kind):
        Y = X @ A.T + b
        d = np.sqrt(np.sum((Y[:, None, :] - X[None, :, :]) ** 2, axis=2))
        if d.min(axis=1).max() > tol or d.min(axis=0).max() > tol:
            return False
    return True


def requested_items(elements, degree_range):
    """The (element, degree) pairs a ``tabulate`` call asks for."""
    lo, hi = degree_range.split(":")
    return {(el, p) for el in elements.split(",") for p in range(int(lo), int(hi) + 1)}


def check_gen(out_dir, elements, degree_range):
    requested = requested_items(elements, degree_range)
    problems = defaultdict(list)
    rows = {}
    try:
        with open(os.path.join(out_dir, "manifest.jsonl")) as fh:
            for line in fh:
                row = json.loads(line)
                rows[(row["element"], row["degree"])] = row
    except (OSError, ValueError, KeyError) as exc:
        problems[("manifest", 0)].append(f"unreadable manifest: {exc}")
    for key in sorted(requested):
        if rows.get(key, {}).get("status") != "ok":
            problems[key].append("manifest row missing or not ok")

    dists = {}
    names = sorted(n for n in os.listdir(out_dir) if n.endswith(".nodes"))
    for name in names:
        try:
            dist, _ = read_node_file(os.path.join(out_dir, name))
        except (NodeFileError, OSError) as exc:
            el, _, p = name[: -len(".nodes")].partition("_p")
            problems[(el, int(p) if p.isdigit() else 0)].append(
                f"does not read back: {exc}"
            )
            continue
        dists[(dist.kind.value, dist.degree)] = dist
    for key in sorted(requested - set(dists)):
        problems[key].append("node file missing")

    for key, dist in sorted(dists.items()):
        if not maps_to_itself(dist):
            problems[key].append("not invariant under the symmetry group")
        elem = reference_element(dist.kind)
        prescriptions = []
        for fk in {f.face_kind for f in elem.faces}:
            if fk is None:
                prescriptions.append(point_prescription(dist.degree))
                continue
            face = dists.get((fk.value, dist.degree))
            if face is None:
                problems[key].append(f"no {fk.value} file for its faces")
                break
            try:
                prescriptions.append(FacePrescription(fk, face))
            except ValueError as exc:
                problems[key].append(f"face set unusable: {exc}")
                break
        else:
            if not verify_face_match(elem, dist, prescriptions):
                problems[key].append("faces do not match the face node sets")

    objective_sum = sum(
        float(rows[key]["lebesgue_objective"])
        for key in requested
        if rows.get(key, {}).get("status") == "ok"
    )
    return _outcome(requested | set(dists), problems, objective_sum)


def load_reference():
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def check_eval(out_dir, degrees, reference):
    """``degrees`` maps each element name to the highest degree compared."""
    expected = {(el, p) for el, top in degrees.items() for p in range(1, top + 1)}
    problems = defaultdict(list)
    seen = set()
    objective_sum = 0.0
    for el in degrees:
        path = os.path.join(out_dir, f"{el}.csv")
        try:
            with open(path, newline="") as fh:
                table = list(csv.DictReader(fh))
        except OSError as exc:
            problems[(el, 0)].append(f"no CSV: {exc}")
            continue
        for row in table:
            try:
                key = (row["element"], int(row["degree"]))
            except (KeyError, TypeError, ValueError):
                problems[(el, 0)].append(f"malformed row {row}")
                continue
            seen.add(key)
            if any(not row.get(col) for col in METRIC_COLUMNS):
                problems[key].append("empty row")
                continue
            ref = reference.get(f"{key[0]}_p{key[1]}")
            if ref is None:
                problems[key].append("no reference value")
                continue
            for col in METRIC_COLUMNS:
                got, want = float(row[col]), ref[col]
                if not abs(got - want) <= REFERENCE_RTOL * abs(want):
                    problems[key].append(f"{col} {got!r} != reference {want!r}")
            objective_sum += float(row["lebesgue_objective"])
    for key in sorted(expected - seen):
        problems[key].append("row missing")
    return _outcome(expected | seen, problems, objective_sum)
