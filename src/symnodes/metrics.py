"""Interpolation quality metrics for nodal distributions.

* Lebesgue constant: max over a deterministic dense sample of the domain of
  the sum of absolute cardinal function values.  The sample is a uniform
  lattice (``resolution`` points per dimension restricted to the domain)
  augmented with the element vertices and the degree-2p quadrature points,
  so the reported value is a lower bound.  It does not fall from
  ``resolution`` r to 2r - 1, whose lattice contains the one at r, but it
  is not monotone in r (uniform quad p=6: 20.26 at r=20, 19.13 at r=23).
  The cardinal values are ``phi(x)^T V^-1``.  Line, triangle, tetrahedron
  and pyramid take that product on chunks of the lattice, and every kind
  on chunks of its extra points.  Quad, hex and prism are extruded kinds:
  their lattice is the base kind's lattice times the axis and each mode is
  a base mode times a Legendre polynomial in the last coordinate, so their
  lattice is scanned by sum factorization, one axis at a time.  Sum
  factorization adds in another order than the flat product, with which
  it agrees only to rounding.
  When the element group maps the node set onto itself within
  ``_SYMMETRY_TOL`` (the optimized and uniform sets are symmetric to
  rounding), the Lebesgue function is symmetric too, and the lattice
  part of the sample is reduced to the points in one closed fundamental
  domain of the group (``_chamber``); an extruded kind reduces its base
  lattice by the base kind's domain and its axis to ``z >= 0``.  The
  group maps the lattice onto itself only up to rounding, so the reduced
  scan agrees with the full one to the last bits.  Other node sets are
  scanned over the whole lattice.
  Neither lattice is cut from the whole bounding box: each row along the
  last axis takes only the indices that the element's bounds and the
  domain's walls leave it, plus one on each side, and the exact tests
  then run on these (``_sample``).  So the sample is the box lattice
  restricted to the domain, bit for bit and in lattice order.
  ``evaluate_rows`` evaluates many sets of one kind, at any degrees, and
  ``evaluate_metrics`` is its one-row case.  The modal bases are
  hierarchical: the degree-p basis is a column mask of the basis at any
  higher degree, bit for bit (``basis.degree_columns``).  So the rows
  that share a lattice sample (the symmetric sets on the chamber, the
  others on the whole lattice) are scanned in passes, and a pass
  evaluates the basis at the highest degree among its rows only, once per
  chunk for all of them: each row's ``V`` is columns of it at the row's
  nodes, and each row takes its columns of the chunk's table into its
  ``L``.  A pass holds the inverses of at most ``_BUDGET`` entries
  together, or of one row that holds more alone, and no ``V``; an
  extruded kind scans each row alone.  The extra points stay per row.
  Every scan works on chunks of points sized so that no buffer holds more
  than ``_BUDGET`` entries (points x modes), at least one (base) point
  each.  The flat scan of a pass sizes its chunks by the pass's top
  degree and fills three buffers: the basis table, the columns of a row
  below that degree, and the cardinal values ``L``.  The extruded scan
  fills the base table, ``T`` and ``L``.  The buffers are allocated once
  per scan and filled in place on every chunk, the basis table by
  ``basis._basis(..., out)``, which writes each mode's product
  straight into it.  So a scan's memory does not grow with
  the sample or the degree: its buffers take at most 3 MiB, and one base
  point of an extruded scan needs more only when the axis times the modes
  exceeds the budget (on a quad set that is not symmetric, p >= 20 at
  resolution 300).
  The basis values at a point do not depend on the chunk, and the row
  sums do not either.  The BLAS products can, in the last bits: BLAS
  picks its kernel by the shape of the product (a matrix-vector product
  for one row, others for a few rows or a chunk's last rows).  From
  ``_BUDGET`` up to one chunk for the whole sample, and in a pass with
  rows of higher degree, the constant keeps its bits on every case of the
  tests and of ``scripts/check_identity.py``; at one point per chunk it
  moves by up to 3e-16 relative.
* Lebesgue objective: the smooth surrogate sum_i integral(l_i^2).  The
  modal basis is orthonormal, so it equals ``||V^-1||_F^2`` for the
  Vandermonde matrix ``V`` at the nodes.
* Mass matrix: the cardinal Gram matrix ``M = V^-T V^-1``.  Its eigenvalues
  are ``1 / sigma_i^2`` for the singular values ``sigma_i`` of ``V``, so its
  condition number is ``cond(V)^2``.
* Product sets.  A quad, hex or prism set that is, bit for bit, its
  leading-coordinate set times its last-coordinate set has ``V = V_base
  (x) V_line``, and its report is made of its factors' (``_records``):
  the constant is ``max_k Lambda_base,k * Lambda_line,k`` over the three
  product blocks of the sample (lattice, vertices, quadrature points).
* Every metric first factors ``V`` in ``_factor``, which builds the
  ``LagrangeInterpolator``, so all refuse its refused sets, before any
  scan.  The screen ``is_unisolvent`` also refuses a coarse Lebesgue
  estimate that blows up; ``evaluate_metrics`` does not run it.

Every metric is computed on the nodes in lexicographic coordinate order, so
the scalar results are identical floats whatever order the caller's nodes
come in; ``mass_matrix`` returns its matrix in the caller's node order.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import (
    FunctionSpace,
    LagrangeInterpolator,
    _basis,
    _tables,
    basis_eval_many,
    degree_columns,
    mass_condition,
)
from .errors import UnisolvencyError
from .geometry import (
    EXTRUDED, ElementKind, contains, natural_solve, reference_element,
)
from .quadrature import quadrature_rule
from .symmetry import NodalDistribution, is_symmetric, natural_symmetry_group

__all__ = [
    "MetricReport",
    "default_resolution",
    "lebesgue_constant",
    "lebesgue_objective",
    "mass_matrix",
    "is_unisolvent",
    "evaluate_metrics",
    "evaluate_rows",
]

_DEFAULT_RESOLUTION = {1: 1000, 2: 300, 3: 60}
_SCREEN_RESOLUTION = 20
_SCREEN_LIMIT = 1e12
# Entries (points x modes) of each buffer of a Lebesgue scan, 1 MiB, and
# of the inverses that one pass of ``evaluate_rows`` holds together.  Half
# of it slowed eval-files' compare calls by 12-17 % and hex p=9 by 10-22 %
# (its products then run on two base points at a time); twice it ran as
# fast and raised the eval-files peak by 2 MB.
_BUDGET = 1 << 17
# Node sets symmetric to this Cartesian distance scan one fundamental
# domain of the lattice; the optimized and uniform sets are symmetric to
# rounding (at most 4.5e-16).
_SYMMETRY_TOL = 1e-14
# Lattice points this close to a wall of the domain belong to it.
_CHAMBER_TOL = 1e-12
# Slack of the bounds that pick lattice candidates: above the tolerances of
# the exact tests and their rounding, far below a lattice step.
_LOOSE = 1e-9
# Offset from the vertex centroid to a point no group map fixes.
_GENERIC = np.array([0.1, 0.03, 0.007])


@dataclass
class MetricReport:
    lebesgue_constant: float
    lebesgue_objective: float
    mass_condition: float
    resolution: int


# A row's Lebesgue maxima per block of the sample, objective and the extreme
# singular values of V; a product's are its factors' multiplied.
_Record = namedtuple("_Record", "maxima objective singular")


def default_resolution(dim):
    return _DEFAULT_RESOLUTION[dim]


def _sample(kind, resolution, walls=()):
    """The points of the lattice ``np.linspace(-1, 1, resolution)`` per
    axis in the domain, and on the inner side of every chamber wall in
    ``walls``, in lattice order (last axis fastest).

    ``lam(x)`` is affine, so the natural bounds and the walls are rows
    ``A x >= beta``.  Each row of the lattice along the last axis takes the
    indices between the bounds they put on its last coordinate (loosened by
    ``_LOOSE``), widened by one index on each side; a row ``A`` without a
    last coefficient keeps or drops whole rows.  The exact tests of
    ``contains`` and of the walls then pick the points from these
    candidates.
    """
    elem = reference_element(kind)
    d, r = elem.dim, resolution
    axis = np.linspace(-1.0, 1.0, r)
    m0 = natural_solve(elem, np.zeros(d))
    M = natural_solve(elem, np.eye(d)) - m0
    R = np.vstack([elem.b_lambda, -elem.b_lambda, *walls])
    t = np.concatenate([elem.v_lower, -elem.v_upper, np.zeros(len(walls))])
    R, t = R[np.isfinite(t)], t[np.isfinite(t)]
    A, beta = M @ R.T, t - R @ m0 - _LOOSE
    outer = np.indices((r,) * (d - 1)).reshape(d - 1, r ** (d - 1)).T
    slack = axis[outer] @ A[:-1] - beta
    a, flat = A[-1], A[-1] == 0
    bound = -slack[:, ~flat] / a[~flat]
    up = a[~flat] > 0
    lo = np.max(bound[:, up], axis=1, initial=-1.0)
    hi = np.min(bound[:, ~up], axis=1, initial=1.0)
    scale = 0.5 * (r - 1)
    first = np.maximum(np.ceil((lo + 1.0) * scale).astype(int) - 1, 0)
    last = np.minimum(np.floor((hi + 1.0) * scale).astype(int) + 1, r - 1)
    counts = np.maximum(last - first + 1, 0)
    counts[~np.all(slack[:, flat] >= 0.0, axis=1)] = 0
    starts = np.cumsum(counts) - counts
    idx = np.repeat(np.column_stack([outer, first]), counts, axis=0)
    idx[:, -1] += np.arange(len(idx)) - np.repeat(starts, counts)
    pts = axis[idx]
    pts = pts[contains(elem, pts, 1e-12)]
    if len(walls):
        keep = natural_solve(elem, pts) @ walls.T >= -_CHAMBER_TOL
        pts = pts[np.all(keep, axis=1)]
    pts.setflags(write=False)
    return pts


@lru_cache(maxsize=32)
def _lattice(kind, resolution):
    """The lattice points in the domain, which the scan of a node set that
    is not symmetric covers."""
    return _sample(kind, resolution)


@lru_cache(maxsize=32)
def _chamber(kind, resolution):
    """The points of ``_lattice(kind, resolution)`` in one closed
    fundamental domain of the element group, in lattice order.

    The domain is the Dirichlet chamber ``<lam(x), c - P c> >= -tol`` of the
    generic point ``c`` in natural coordinates, for every ``P`` in
    ``natural_symmetry_group(kind)``.  Those ``P`` are orthogonal, so the
    image of ``lam`` with the largest ``<., c>`` lies in the chamber, and
    the group maps the lattice onto itself up to rounding: every group
    orbit of lattice points has a point here.
    """
    elem = reference_element(kind)
    c = natural_solve(elem, elem.vertices.mean(axis=0) + _GENERIC[: elem.dim])
    walls = np.stack([c - P @ c for P in natural_symmetry_group(kind)])
    return _sample(kind, resolution, walls)


def _canonical(dist):
    """Permutation sorting the nodes lexicographically by coordinate, and
    the distribution with its nodes in that order."""
    order = np.lexsort(dist.nodes.T[::-1])
    return order, NodalDistribution(
        dist.kind, dist.degree, dist.nodes[order], dist.source
    )


def _factor(space, dist, top):
    """``V^-1`` of ``dist``, the largest and smallest singular values of
    ``V`` and the objective, ``V`` taken as the columns of the
    degree-``top`` basis at the nodes that are the basis of ``space``
    (:func:`basis.degree_columns`); ``V`` is dropped here."""
    V = basis_eval_many(FunctionSpace(space.kind, top), dist.nodes)
    if space.degree < top:
        V = V[:, degree_columns(space.kind, top, space.degree)]
    interp = LagrangeInterpolator(space, dist, V)
    A = interp.inverse()
    return A, interp.singular, float(np.einsum("ij,ij->", A, A))


def _buffers(*shapes):
    """Arrays of ``shapes`` in one allocation.

    Freed as one block of a few MiB, a scan's buffers let glibc's malloc
    keep its heap between scans; three separate 1 MiB buffers raised the
    minor page faults of eval-files' ``compare`` calls on tri and pyramid
    two- to fourfold and cost 4 % of its wall time.
    """
    sizes = [math.prod(shape) for shape in shapes]
    flat = np.empty(sum(sizes))
    ends = np.cumsum(sizes)
    return [
        flat[end - size : end].reshape(shape)
        for shape, size, end in zip(shapes, sizes, ends)
    ]


def _flat_maxima(space, rows, pts, ends=None):
    """The maximum of sum_i |l_i| over ``pts`` for each row, ``(columns,
    V^-1)`` of a degree at most that of ``space``, on chunks of at most
    ``_BUDGET`` entries per buffer; with ``ends``, one maximum per block of
    ``pts`` that ends there.  Each chunk fills the basis table of
    ``space`` once; each row gathers its columns from it into a second
    buffer, sized for the largest row below the top degree (the table
    itself at the top degree), and takes ``L = table @ V^-1`` into a
    third."""
    blocks = [pts.shape[0]] if ends is None else ends
    n = space.dim
    step = max(1, _BUDGET // n)
    size = min(step, pts.shape[0])
    below = max((len(cols) for cols, _ in rows if len(cols) < n), default=0)
    table, gathered, L, sums = _buffers(
        (size, n), (size * below,), (size * n,), (size,)
    )
    best = np.zeros((len(rows), len(blocks)))
    for start in range(0, pts.shape[0], step):
        chunk = pts[start : start + step]
        k = len(chunk)
        _basis(space, chunk.shape, 0, _tables(space, chunk, 0), table[:k])
        for r, (cols, A) in enumerate(rows):
            m = len(cols)
            Tk = table[:k]
            if m < n:
                Tk = np.take(
                    Tk, cols, axis=1, mode="clip",
                    out=gathered[: k * m].reshape(k, m),
                )
            Lk = np.matmul(Tk, A, out=L[: k * m].reshape(k, m))
            np.sum(np.abs(Lk, out=Lk), axis=1, out=sums[:k])
            for b, (lo, hi) in enumerate(zip([0, *blocks], blocks)):
                part = sums[:k][max(lo - start, 0) : max(hi - start, 0)]
                # np.maximum, unlike max(), carries a NaN through.
                best[r, b] = np.maximum(best[r, b], np.max(part, initial=0.0))
    return best[:, 0] if ends is None else best


def _extruded_max(space, A, base_pts, axis):
    """The maximum over ``base_pts`` times ``axis`` on an extruded kind, by
    sum factorization, for ``V^-1 = A`` of the basis of ``space``.

    Mode ``(m, k)`` is base mode ``m`` times the ``k``-th Legendre
    polynomial in the last coordinate, ``k`` fastest.  So the cardinal
    values on a chunk of base points times ``axis`` are the base table
    times ``V^-1`` with its rows grouped by ``m``, then a contraction over
    ``k``.  Per base point, ``T`` takes (p + 1) n entries and ``L`` na n,
    the table fewer; a chunk keeps the larger within ``_BUDGET``.
    """
    p = space.degree
    base_space = FunctionSpace(EXTRUDED[space.kind], p)
    line_space, line_pts = FunctionSpace(ElementKind.LINE, p), axis[:, None]
    line = _basis(line_space, line_pts.shape, 0, _tables(line_space, line_pts, 0))
    n, na = A.shape[1], axis.size
    coeffs = A.reshape(base_space.dim, (p + 1) * n)
    step = max(1, _BUDGET // (n * max(na, p + 1)))
    size = min(step, base_pts.shape[0])
    table, T, L, sums = _buffers(
        (size, base_space.dim), (size, (p + 1) * n), (size, na, n), (size, na)
    )
    best = 0.0
    for start in range(0, base_pts.shape[0], step):
        chunk = base_pts[start : start + step]
        k = len(chunk)
        _basis(base_space, chunk.shape, 0, _tables(base_space, chunk, 0), table[:k])
        np.matmul(table[:k], coeffs, out=T[:k])
        Lk = np.matmul(line, T[:k].reshape(k, p + 1, n), out=L[:k])
        np.sum(np.abs(Lk, out=Lk), axis=2, out=sums[:k])
        best = np.maximum(best, np.max(sums[:k]))
    return best


def _axis(resolution, symmetric):
    """The last axis of an extruded kind's lattice, or its half ``z >= 0``
    for a symmetric node set."""
    axis = np.linspace(-1.0, 1.0, resolution)
    return axis[resolution // 2 :] if symmetric else axis


def _lebesgue_maxima(space, rows, symmetric, resolution):
    """Max of sum_i |l_i| for each row, ``(p, V^-1)`` of one kind with
    ``p`` at most the degree of ``space``, over each block of the sample:
    the lattice at ``resolution``, the element vertices and the degree-2p
    quadrature points.

    The rows are all ``symmetric`` or none is.  The element group maps a
    symmetric node set onto itself, so its Lebesgue function too, and the
    lattice part covers one fundamental domain: ``_chamber`` of the kind,
    or on an extruded kind that of the base kind times the half axis
    ``z >= 0``.  Line, triangle, tetrahedron and pyramid scan the lattice
    for every row in one pass of the basis of ``space``; an extruded kind
    scans it per row.  The extra points are scanned per row.
    """
    kind = space.kind
    elem = reference_element(kind)
    masked = [(degree_columns(kind, space.degree, p), A) for p, A in rows]
    base = EXTRUDED.get(kind)
    pts = (_chamber if symmetric else _lattice)(base or kind, resolution)
    if base is None:
        lattice = _flat_maxima(space, masked, pts)
    else:
        axis = _axis(resolution, symmetric)
        lattice = [
            _extruded_max(FunctionSpace(kind, p), A, pts, axis)
            for p, A in rows
        ]
    best = []
    for (p, _), row, most in zip(rows, masked, lattice):
        extra = np.vstack([elem.vertices, quadrature_rule(kind, 2 * p).points])
        ends = (len(elem.vertices), len(extra))
        (blocks,) = _flat_maxima(space, [row], extra, ends)
        best.append(np.array([most, *blocks]))
    return best


def _passes(kind, members):
    """``members``, (index, space, distribution) of rows that share a
    lattice sample, split into the passes scanned together: on an extruded
    kind one row each; else, by descending degree, as many rows as hold at
    most ``_BUDGET`` entries of ``V^-1`` together, or one row that holds
    more alone."""
    if kind in EXTRUDED:
        return [[member] for member in members]
    passes, held = [], _BUDGET
    for member in sorted(members, key=lambda member: -member[1].degree):
        size = member[1].dim ** 2
        if held + size > _BUDGET:
            passes.append([])
            held = 0
        passes[-1].append(member)
        held += size
    return passes


def _scan_pass(members, symmetric, resolution):
    """(index, :class:`_Record` or refusal) of each row of one pass: ``V``
    of each row is columns of the basis at the pass's top degree, and the
    inverses of the rows that the interpolator accepts are scanned
    together by :func:`_lebesgue_maxima` at that degree."""
    kind = members[0][1].kind
    top = max(space.degree for _, space, _ in members)
    held, out = [], []
    for i, space, dist in members:
        try:
            held.append((i, space.degree, *_factor(space, dist, top)))
        except (ValueError, UnisolvencyError) as exc:
            out.append((i, exc))
    if held:
        maxima = _lebesgue_maxima(
            FunctionSpace(kind, top), [(p, A) for _, p, A, _, _ in held],
            symmetric, resolution,
        )
        out += [
            (i, _Record(most, objective, singular))
            for (i, _, _, singular, objective), most in zip(held, maxima)
        ]
    return out


def _split(kind, dist):
    """The (space, distribution) rows of the base kind and the line whose
    product, rows base-major, is ``dist`` of the extruded ``kind`` in
    canonical order, bit for bit; else ``None``."""
    base = np.unique(dist.nodes[:, :-1], axis=0)
    line = np.unique(dist.nodes[:, -1:], axis=0)
    if len(base) * len(line) != dist.count or not np.array_equal(
        np.column_stack([np.repeat(base, len(line), axis=0),
                         np.tile(line, (len(base), 1))]), dist.nodes
    ):
        return None
    p = dist.degree
    return [
        (FunctionSpace(k, p), NodalDistribution(k, p, nodes, dist.source))
        for k, nodes in ((EXTRUDED[kind], base), (ElementKind.LINE, line))
    ]


def _records(kind, rows, resolution):
    """The :class:`_Record` of each row, (space, canonical distribution) of
    ``kind``, or the error that refused it.  A product set (:func:`_split`)
    multiplies its factors' records, block by block, unless a factor or
    :func:`basis.mass_condition` on the product refuses; all rows' factors
    of a kind go together.  Other rows are scanned in :func:`_passes`."""
    records = [None] * len(rows)
    products = {
        i: factors for i, (_, dist) in enumerate(rows)
        if kind in EXTRUDED and (factors := _split(kind, dist))
    }
    per_kind = [
        _records(factor[0][0].kind, list(factor), resolution)
        for factor in zip(*products.values())
    ]
    for i, base, line in zip(products, *per_kind):
        if isinstance(base, Exception) or isinstance(line, Exception):
            continue
        record = _Record(*map(np.multiply, base, line))
        try:
            mass_condition(*record.singular)
        except UnisolvencyError:
            continue
        records[i] = record
    groups = {}
    for i, (space, dist) in enumerate(rows):
        if records[i] is None:
            symmetric = is_symmetric(kind, dist.nodes, _SYMMETRY_TOL)
            groups.setdefault(symmetric, []).append((i, space, dist))
    for symmetric, members in groups.items():
        for batch in _passes(kind, members):
            for i, record in _scan_pass(batch, symmetric, resolution):
                records[i] = record
    return records


def evaluate_rows(rows, resolution=None):
    """Metric reports of ``rows``, (space, distribution) pairs of one
    element kind at any degrees, in order: each a :class:`MetricReport`,
    or the ``ValueError`` or :class:`UnisolvencyError` with which the
    interpolator refused the set.

    A product set takes its factors' reports (:func:`_records`); the other
    rows that share a lattice sample are scanned in passes
    (:func:`_passes`).  A pass evaluates the basis at the highest degree
    among its rows only: each ``V`` is columns of it at the row's nodes
    (:func:`basis.degree_columns`), and each chunk of the sample takes it
    once for every row of the pass.  Only the inverses of one pass are
    held, and each ``V`` is dropped after its LU.
    """
    kind = rows[0][0].kind
    if resolution is None:
        resolution = default_resolution(reference_element(kind).dim)
    canonical = [(space, _canonical(dist)[1]) for space, dist in rows]
    return [
        record if isinstance(record, Exception) else MetricReport(
            float(np.max(record.maxima)), float(record.objective),
            mass_condition(*record.singular), resolution,
        )
        for record in _records(kind, canonical, resolution)
    ]


def evaluate_metrics(space, dist, resolution=None):
    """Full metric report for a distribution: the one-row case of
    :func:`evaluate_rows`, which raises the error that refused the set.

    One interpolator, on the nodes in canonical order, serves every metric;
    the values equal those of the per-metric functions.
    """
    (report,) = evaluate_rows([(space, dist)], resolution)
    if isinstance(report, Exception):
        raise report
    return report


def lebesgue_constant(space, dist, resolution=None):
    """Max over the sample set of the cardinal-function absolute sum."""
    return evaluate_metrics(space, dist, resolution).lebesgue_constant


def lebesgue_objective(space, dist):
    """Sum of integrals of squared cardinal functions, ``||V^-1||_F^2``."""
    return _factor(space, _canonical(dist)[1], space.degree)[2]


def mass_matrix(space, dist):
    """Cardinal Gram matrix ``V^-T V^-1``, in the caller's node order, and
    its spectral condition number."""
    order, canonical = _canonical(dist)
    A, singular, _ = _factor(space, canonical, space.degree)
    M = A.T @ A
    M = 0.5 * (M + M.T)
    back = np.argsort(order)
    return M[np.ix_(back, back)], mass_condition(*singular)


def is_unisolvent(space, dist):
    """Fast screen: a set the interpolator accepts, with a bounded coarse
    Lebesgue estimate, so every metric is defined on a set that passes."""
    (report,) = evaluate_rows([(space, dist)], _SCREEN_RESOLUTION)
    if isinstance(report, Exception):
        return False
    coarse = report.lebesgue_constant
    return bool(np.isfinite(coarse) and coarse < _SCREEN_LIMIT)
