"""Command-line interface.

Subcommands:

* ``generate``  -- optimize one (element, degree) pair and write a node file.
* ``evaluate``  -- print the metrics CSV row for an existing node file.
* ``compare``   -- metrics CSV across degrees and distributions.
* ``tabulate``  -- batch-generate node files plus a JSON-lines manifest.

Cross-element compatibility is handled bottom-up: with ``--compat auto``
(the default) the lower-dimensional optimized distributions are generated
first (or loaded from the cache directory) and used as face prescriptions.

Exit codes: 0 success, 1 internal failure (an ``OSError`` included, such
as a ``--cache-dir`` that cannot be made), 2 input error (including a
numeric option out of range: ``--seed < 0``, ``--max-iters < 1``,
``--kkt-tol`` not in (0, inf), ``--resolution < 2`` or a ``--resolution``
whose lattice on the element holds more than ``_MAX_LATTICE`` (2^22)
points, a ``compare --dist NAME=DIR`` with an empty ``NAME``, and an
``--out`` that names a directory for ``generate`` and ``compare``, by
ending in a path separator or by being one, or for ``tabulate`` a file or
a directory that cannot be made; these are checked before any work).
Each error is one ``error:`` line.  CSV fields are quoted only where they
hold a comma, a quote or a line break.  The directory of a file ``--out``
is made before any work too.
``tabulate`` caches in its ``--out``; ``generate`` and ``compare`` cache
in ``--cache-dir``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .baselines import BaselineKind, baseline_distribution
from .basis import FunctionSpace
from .compatibility import (
    FacePrescription,
    face_prescriptions,
    point_prescription,
)
from .errors import NodeFileError, SymnodesError
from .geometry import ElementKind, reference_element
from .metrics import evaluate_metrics, evaluate_rows
from .nodefile import (
    FORMAT_VERSION,
    config_hash,
    format_float,
    read_node_file,
    write_atomic,
    write_node_file,
)
from .optimizer import OptimizerConfig, optimize_nodes

__all__ = ["main"]

CSV_HEADER = (
    "element,degree,distribution,lebesgue_constant,lebesgue_objective,"
    "mass_condition,resolution"
)

_ALIASES = {
    name: kind for kind in ElementKind for name in (kind.value, kind.name.lower())
}

# Generated ranges supported by default; --force-degree lifts the cap.
_DEGREE_CAPS = {
    ElementKind.LINE: 30,
    ElementKind.TRIANGLE: 23,
    ElementKind.QUADRILATERAL: 23,
    ElementKind.TETRAHEDRON: 9,
    ElementKind.HEXAHEDRON: 9,
    ElementKind.PRISM: 9,
    ElementKind.PYRAMID: 9,
}

# Lattice points (resolution ** dim) that --resolution may ask for; the
# defaults ask for 1000, 90,000 and 216,000.  At the limit, compare on
# uniform p=1 peaks at 221 MB resident on the line (r = 2^22), 134 MB on
# the triangle (r = 2048) and 115 MB on the pyramid (r = 161).
_MAX_LATTICE = 1 << 22


class InputError(Exception):
    """User-facing errors mapped to exit code 2."""


def _parse_element(name):
    try:
        return _ALIASES[name.lower()]
    except KeyError:
        raise InputError(
            f"unknown element {name!r} (choose from "
            f"{', '.join(sorted(set(_ALIASES)))})"
        ) from None


def _parse_degree_range(spec):
    try:
        if ":" in spec:
            a, b = spec.split(":", 1)
            lo, hi = int(a), int(b)
        else:
            lo = hi = int(spec)
    except ValueError:
        raise InputError(f"bad degree range {spec!r} (use A:B)") from None
    if lo < 1 or hi < lo:
        raise InputError(f"bad degree range {spec!r}")
    return range(lo, hi + 1)


def _check_degree(kind, degree, force):
    if degree < 1:
        raise InputError(f"degree must be >= 1, got {degree}")
    cap = _DEGREE_CAPS[kind]
    if degree > cap and not force:
        raise InputError(
            f"degree {degree} exceeds the supported cap {cap} for "
            f"{kind.value}; pass --force-degree to accept a long runtime"
        )


# The method that made a cached node set.  Another solver reaches other
# nodes from the same options, so its files must not load under this hash.
_SOLVER = "active-set-newton"


def _config_payload(kind, degree, args, compat):
    return {
        "solver": _SOLVER,
        "format": FORMAT_VERSION,
        "element": kind.value,
        "degree": degree,
        "compat": compat,
        "seed": args.seed,
        "kkt_tol": args.kkt_tol,
        "max_iters": args.max_iters,
    }


def _cache_path(cache_dir, kind, degree):
    return os.path.join(cache_dir, f"{kind.value}_p{degree}.nodes")


def _load_cached(path, expect_hash):
    if not os.path.exists(path):
        return None
    try:
        dist, header = read_node_file(path)
    except (NodeFileError, OSError):
        return None
    if header.config != expect_hash:
        return None
    return dist


def _make_ensure(args, cache_dir, statuses=None):
    """Recursive generate-or-load over the cache directory.

    With a ``statuses`` dict, the optimizer status of every distribution
    optimized here is stored under ``(kind, degree)``.
    """

    def ensure(kind, degree):
        cfg_hash = config_hash(_config_payload(kind, degree, args, "auto"))
        path = _cache_path(cache_dir, kind, degree)
        cached = _load_cached(path, cfg_hash)
        if cached is not None:
            return cached
        prescriptions = face_prescriptions(kind, degree, ensure)
        result = optimize_nodes(
            kind, degree, prescriptions, args.config
        )
        os.makedirs(cache_dir, exist_ok=True)
        write_node_file(path, result.distribution, config=cfg_hash)
        if statuses is not None:
            statuses[(kind, degree)] = result.status
        return result.distribution

    return ensure


def _metric_fields(report):
    """The metrics of one printed row, formatted, in CSV column order."""
    return {
        "lebesgue_constant": format_float(report.lebesgue_constant),
        "lebesgue_objective": format_float(report.lebesgue_objective),
        "mass_condition": format_float(report.mass_condition),
        "resolution": report.resolution,
    }


def _metrics_row(kind, degree, name, values):
    """One CSV line, ending in a newline, with a field quoted only where it
    holds a comma, a quote or a line break."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow(
        [kind.value, degree, name, *values]
    )
    return line.getvalue()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _check_resolution(resolution, kinds):
    """A ``--resolution`` whose lattice on one of ``kinds`` holds more than
    ``_MAX_LATTICE`` points is an input error."""
    if resolution is None:
        return
    for kind in kinds:
        dim = reference_element(kind).dim
        if resolution**dim > _MAX_LATTICE:
            raise InputError(
                f"--resolution {resolution} is too large for {kind.value}: "
                f"{resolution}^{dim} lattice points exceed {_MAX_LATTICE}"
            )


def _check_compat(kind, degree, files, prescriptions):
    """``--compat`` files must be of degree ``degree`` and prescribe each
    face kind of ``kind`` once; ``files`` pairs each path with its
    distribution."""
    for path, dist in files:
        if dist.degree != degree:
            raise InputError(
                f"--compat file {path} has degree {dist.degree}, "
                f"--degree is {degree}"
            )

    def names(kinds):
        return sorted(k.value if k else "point" for k in kinds)

    need = names({face.face_kind for face in reference_element(kind).faces})
    got = names(pres.face_kind for pres in prescriptions)
    if got != need:
        raise InputError(
            f"--compat files prescribe face kinds {got}, {kind.value} "
            f"needs {need}"
        )


def _check_out_file(path):
    """``--out`` of ``generate`` and ``compare`` names a file to write, not
    a directory; the directory it is written to is made here."""
    if not path:
        return
    if os.path.isdir(path):
        raise InputError(f"--out {path} is a directory")
    if path.endswith((os.sep, os.altsep or os.sep)):
        raise InputError(f"--out {path} names a directory")
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot make the directory of --out {path}: {exc}")


def cmd_generate(args):
    kind = _parse_element(args.element)
    _check_degree(kind, args.degree, args.force_degree)
    _check_resolution(args.resolution, [kind])
    cache_dir = args.cache_dir
    out = args.out or _cache_path(cache_dir, kind, args.degree)
    _check_out_file(out)
    compat = args.compat

    if compat == "auto":
        ensure = _make_ensure(args, cache_dir)
        prescriptions = face_prescriptions(kind, args.degree, ensure)
    elif compat == "off":
        prescriptions = []
    else:
        prescriptions, files = [], []
        for path in compat.split(","):
            path = path.strip()
            try:
                dist, _ = read_node_file(path)
            except OSError as exc:
                raise InputError(f"cannot read {path}: {exc}") from exc
            try:
                prescriptions.append(FacePrescription(dist.kind, dist))
            except ValueError as exc:
                raise InputError(f"bad prescription {path}: {exc}") from exc
            files.append((path, dist))
        if kind is ElementKind.LINE and not prescriptions:
            prescriptions = [point_prescription(args.degree)]
        _check_compat(kind, args.degree, files, prescriptions)

    result = optimize_nodes(
        kind, args.degree, prescriptions, args.config
    )
    m = _metric_fields(evaluate_metrics(
        FunctionSpace(kind, args.degree), result.distribution, args.resolution
    ))
    cfg_hash = config_hash(
        _config_payload(kind, args.degree, args, compat)
    )
    write_node_file(out, result.distribution, config=cfg_hash)
    print(
        f"{kind.value} p={args.degree}: {result.distribution.count} nodes, "
        f"lebesgue {m['lebesgue_constant']}, "
        f"objective {m['lebesgue_objective']}, "
        f"mass condition {m['mass_condition']}, "
        f"{result.status}, wrote {out}"
    )
    return 0


def cmd_evaluate(args):
    try:
        dist, header = read_node_file(args.nodefile)
    except OSError as exc:
        raise InputError(f"cannot read {args.nodefile}: {exc}") from exc
    _check_resolution(args.resolution, [dist.kind])
    fields = _metric_fields(evaluate_metrics(
        FunctionSpace(dist.kind, dist.degree), dist, args.resolution
    ))
    row = _metrics_row(dist.kind, dist.degree, header.source, fields.values())
    sys.stdout.write(row)
    return 0


def _external_distribution(directory, kind, degree):
    path = _cache_path(directory, kind, degree)
    dist, _ = read_node_file(path)
    if (dist.kind, dist.degree) != (kind, degree):
        raise NodeFileError(
            f"{path} holds {dist.kind.value} p={dist.degree}, expected "
            f"{kind.value} p={degree}"
        )
    return dist


def cmd_compare(args):
    kind = _parse_element(args.element)
    degrees = _parse_degree_range(args.degree_range)
    for d in degrees:
        _check_degree(kind, d, args.force_degree)
    _check_resolution(args.resolution, [kind])
    dists = args.dist or ["optimized", "gll", "uniform"]
    for spec in dists:
        if spec.startswith("="):
            raise InputError(f"--dist {spec!r} has an empty NAME")
    _check_out_file(args.out)
    ensure = _make_ensure(args, args.cache_dir)

    # Every row's distribution (or the error that stopped it) first, in
    # (degree, --dist) order, then one evaluation of them all.  An unknown
    # spec takes no row and keeps its warning in that order.
    entries = []
    for degree in degrees:
        for spec in dists:
            name = spec
            try:
                if spec == "optimized":
                    dist = ensure(kind, degree)
                elif spec in ("gll", "uniform"):
                    dist = baseline_distribution(
                        kind, degree, BaselineKind(spec)
                    )
                elif "=" in spec:
                    name, directory = spec.split("=", 1)
                    dist = _external_distribution(directory, kind, degree)
                else:
                    name, dist = None, spec
            except (SymnodesError, OSError) as exc:
                dist = exc
            entries.append((degree, name, dist))
    built = [
        (FunctionSpace(kind, degree), dist)
        for degree, name, dist in entries
        if name is not None and not isinstance(dist, Exception)
    ]
    reports = iter(evaluate_rows(built, args.resolution) if built else ())

    rows = [CSV_HEADER + "\n"]
    n_ok = 0
    for degree, name, dist in entries:
        if name is None:
            print(
                f"warning: unknown distribution {dist!r}, skipped",
                file=sys.stderr,
            )
            continue
        report = dist if isinstance(dist, Exception) else next(reports)
        if isinstance(report, Exception):
            print(
                f"warning: {kind.value} p={degree} {name}: {report}",
                file=sys.stderr,
            )
            rows.append(_metrics_row(kind, degree, name, [""] * 4))
        else:
            values = _metric_fields(report).values()
            rows.append(_metrics_row(kind, degree, name, values))
            n_ok += 1
    payload = "".join(rows)
    if args.out:
        write_atomic(args.out, payload)
    else:
        sys.stdout.write(payload)
    return 0 if n_ok > 0 else 1


def cmd_tabulate(args):
    # One row per kind, however often (or under whichever alias) it is named.
    kinds = list(dict.fromkeys(map(_parse_element, args.element.split(","))))
    degrees = _parse_degree_range(args.degree_range)
    for kind in kinds:
        for degree in degrees:
            _check_degree(kind, degree, args.force_degree)
    _check_resolution(args.resolution, kinds)
    out_dir = args.out
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise InputError(f"--out {out_dir} is not a directory")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot make --out {out_dir}: {exc}") from None
    statuses = {}
    ensure = _make_ensure(args, out_dir, statuses)

    records = []
    for kind in kinds:
        for degree in degrees:
            cfg_hash = config_hash(
                _config_payload(kind, degree, args, "auto")
            )
            path = _cache_path(out_dir, kind, degree)
            record = {
                "element": kind.value,
                "degree": degree,
                "file": os.path.basename(path),
                "config": cfg_hash,
            }
            try:
                dist = ensure(kind, degree)
                record.update(
                    status="ok",
                    # The winning restart's status; None when loaded from disk.
                    optimizer_status=statuses.get((kind, degree)),
                    count=dist.count,
                    **_metric_fields(evaluate_metrics(
                        FunctionSpace(kind, degree), dist, args.resolution
                    )),
                )
            except SymnodesError as exc:
                record.update(status="failed", error=str(exc))
            records.append(record)
            print(
                f"{record['element']} p={record['degree']}: "
                f"{record['status']}"
            )
    write_atomic(
        os.path.join(out_dir, "manifest.jsonl"),
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
    )
    return 0 if all(r["status"] == "ok" for r in records) else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--max-iters", type=int, default=200)
    sub.add_argument("--kkt-tol", type=float, default=1e-10)
    sub.add_argument("--resolution", type=int, default=None)
    sub.add_argument(
        "--force-degree",
        action="store_true",
        help="allow degrees beyond the supported caps (long runtimes)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="symnodes",
        description=(
            "Generate, evaluate, and tabulate symmetric optimized nodal "
            "distributions for reference finite elements."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="optimize one element/degree pair")
    g.add_argument("--element", required=True)
    g.add_argument("--degree", type=int, required=True)
    g.add_argument(
        "--compat",
        default="auto",
        help="auto (default), off, or comma-separated prescription files",
    )
    g.add_argument("--out", default=None)
    g.add_argument("--cache-dir", default=".symnodes-cache")
    _add_common(g)
    g.set_defaults(func=cmd_generate)

    e = sub.add_parser("evaluate", help="metrics CSV row for a node file")
    e.add_argument("nodefile")
    e.add_argument("--resolution", type=int, default=None)
    e.set_defaults(func=cmd_evaluate)

    c = sub.add_parser("compare", help="metrics CSV across distributions")
    c.add_argument("--element", required=True)
    c.add_argument("--degree-range", required=True)
    c.add_argument(
        "--dist",
        action="append",
        help="optimized | gll | uniform | NAME=DIR (repeatable)",
    )
    c.add_argument("--out", default=None)
    c.add_argument("--cache-dir", default=".symnodes-cache")
    _add_common(c)
    c.set_defaults(func=cmd_compare)

    t = sub.add_parser("tabulate", help="batch generation with a manifest")
    t.add_argument("--element", required=True, help="comma-separated kinds")
    t.add_argument("--degree-range", required=True)
    t.add_argument("--out", required=True)
    _add_common(t)
    t.set_defaults(func=cmd_tabulate)

    return parser


# The option that sets each OptimizerConfig field.
_CONFIG_OPTIONS = {"seed": "--seed", "max_major_iterations": "--max-iters",
                   "kkt_tol": "--kkt-tol"}


def _check_options(args):
    """Numeric options out of range are input errors.  The optimizer's are
    checked by building ``args.config``, whose messages name the field."""
    if hasattr(args, "seed"):
        try:
            args.config = OptimizerConfig(
                kkt_tol=args.kkt_tol,
                max_major_iterations=args.max_iters,
                seed=args.seed,
            )
        except ValueError as exc:
            field, _, rule = str(exc).partition(" ")
            raise InputError(f"{_CONFIG_OPTIONS[field]} {rule}") from None
    if args.resolution is not None and args.resolution < 2:
        raise InputError(f"--resolution must be >= 2, got {args.resolution}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        return args.func(args)
    except (InputError, NodeFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SymnodesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
