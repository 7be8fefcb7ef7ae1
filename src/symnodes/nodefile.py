"""Plain-text node file format.

Header lines are ``# key: value`` pairs (format version, element, degree,
count, source, config hash) followed by one node per line with
whitespace-separated coordinates printed to 17 significant digits, which
round-trips IEEE doubles exactly.  Files are written atomically
(:func:`write_atomic`, temp-then-rename) so interrupted runs never leave
partial files behind; a write that fails removes its temporary file.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import NodeFileError
from .geometry import ElementKind, node_count, reference_element
from .symmetry import NodalDistribution

__all__ = [
    "FORMAT_VERSION",
    "NodeFileHeader",
    "config_hash",
    "format_float",
    "write_node_file",
    "write_atomic",
    "read_node_file",
]

FORMAT_VERSION = "symnodes-nodes/1"


@dataclass
class NodeFileHeader:
    format_version: str
    element: ElementKind
    degree: int
    count: int
    source: str
    config: str


def format_float(v):
    """Shortest 17-significant-digit decimal; round-trips float64 exactly."""
    return f"{v:.17g}"


def config_hash(options: dict) -> str:
    """Stable 16-hex-digit digest of a generator configuration."""
    payload = json.dumps(options, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def write_node_file(path, dist: NodalDistribution, config="", source=None):
    """Write a distribution; validates invariants before touching the file."""
    dist.validate()
    source = source if source is not None else dist.source
    lines = [
        f"# format: {FORMAT_VERSION}",
        f"# element: {dist.kind.value}",
        f"# degree: {dist.degree}",
        f"# count: {dist.count}",
        f"# source: {source}",
        f"# config: {config}",
    ]
    for row in dist.nodes:
        lines.append(" ".join(format_float(v) for v in row))
    write_atomic(path, "\n".join(lines) + "\n")
    return path


def write_atomic(path, text):
    """Write ``text`` to ``path`` through a temporary file beside it and a
    rename, so that ``path`` is never left partial; a write or rename that
    fails removes the temporary file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _parse_header_line(raw, lineno, key):
    prefix = f"# {key}:"
    if not raw.startswith(prefix):
        raise NodeFileError(f"expected header '{key}', got {raw!r}", line=lineno)
    return raw[len(prefix) :].strip()


def read_node_file(path):
    """Parse a node file, returning ``(NodalDistribution, NodeFileHeader)``.

    Raises :class:`NodeFileError` with the offending line number on any
    structural problem; the distribution invariants (count, containment,
    distinctness) are enforced after parsing.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        raw_lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        line = data[: e.start].count(b"\n") + 1
        raise NodeFileError(f"not UTF-8 text: {e.reason}", line=line) from None
    if len(raw_lines) < 6:
        raise NodeFileError("file too short for a header", line=len(raw_lines))
    version = _parse_header_line(raw_lines[0], 1, "format")
    if version != FORMAT_VERSION:
        raise NodeFileError(f"unsupported format {version!r}", line=1)
    element_raw = _parse_header_line(raw_lines[1], 2, "element")
    try:
        kind = ElementKind(element_raw)
    except ValueError:
        raise NodeFileError(f"unknown element {element_raw!r}", line=2) from None
    degree_raw = _parse_header_line(raw_lines[2], 3, "degree")
    try:
        degree = int(degree_raw)
    except ValueError:
        degree = 0
    if degree < 1:
        raise NodeFileError(f"bad degree {degree_raw!r}", line=3)
    count_raw = _parse_header_line(raw_lines[3], 4, "count")
    try:
        count = int(count_raw)
    except ValueError:
        raise NodeFileError(f"bad count {count_raw!r}", line=4) from None
    source = _parse_header_line(raw_lines[4], 5, "source")
    config = _parse_header_line(raw_lines[5], 6, "config")

    body = raw_lines[6:]
    if len(body) != count:
        raise NodeFileError(
            f"header declares {count} nodes but body has {len(body)} lines",
            line=7,
        )
    if count != node_count(kind, degree):
        raise NodeFileError(
            f"node count mismatch: {count} vs {node_count(kind, degree)} "
            f"expected for {kind.value} degree {degree}",
            line=4,
        )
    d = reference_element(kind).dim
    nodes = np.empty((count, d))
    for i, raw in enumerate(body):
        parts = raw.split()
        if len(parts) != d:
            raise NodeFileError(
                f"expected {d} coordinates, got {len(parts)}", line=7 + i
            )
        try:
            nodes[i] = [float(v) for v in parts]
        except ValueError:
            raise NodeFileError(f"bad coordinate in {raw!r}", line=7 + i) from None
        if not np.all(np.isfinite(nodes[i])):
            raise NodeFileError("non-finite coordinate", line=7 + i)
    dist = NodalDistribution(
        kind=kind, degree=degree, nodes=nodes, source=source
    )
    try:
        dist.validate()
    except Exception as exc:
        raise NodeFileError(str(exc)) from exc
    header = NodeFileHeader(version, kind, degree, count, source, config)
    return dist, header
