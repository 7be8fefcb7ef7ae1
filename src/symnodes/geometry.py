"""Bi-unit reference elements and their natural coordinate systems.

Seven element shapes are supported: line, triangle, quadrilateral,
tetrahedron, hexahedron, triangular prism, and square pyramid.  Each element
carries a linear map ``x = N @ lam`` from natural coordinates ``lam``
(barycentric for simplex-like shapes, Cartesian for tensor shapes) to
Cartesian coordinates ``x``, together with the linear bounds
``v_lower <= B @ lam <= v_upper`` that carve out the reference domain.

Each element comes from one row of ``_TABLES``: its vertices, its faces named
by their corner vertices, ``N``, ``B`` and the bounds, and its measure.  Three
rules derive the rows: ``_simplex`` (triangle, tetrahedron), ``_box`` (line,
quadrilateral) and ``_extrude`` (hexahedron from the quadrilateral, prism from
the triangle); the pyramid's row is literal data.

Conventions (fixed by this package, documented in the README):

* vertex order -- line: (-1), (1); triangle: (-1,-1), (1,-1), (-1,1);
  quadrilateral: counterclockwise from (-1,-1); tetrahedron: (-1,-1,-1),
  (1,-1,-1), (-1,1,-1), (-1,-1,1); hexahedron: bottom quad then top quad;
  prism: bottom triangle (z=-1) then top triangle (z=+1); pyramid: base quad
  (z=-1) counterclockwise, then apex (0,0,1).
* face order -- the order of the corner tuples in ``_TABLES`` below;
  hexahedron and prism faces are bottom, top, then one side per base edge in
  base-edge order.
* face maps are affine embeddings of the face's own reference domain that
  send its vertices onto the face's corners; a 0-dimensional face (line
  endpoint) has ``face_kind None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import NumericalError, OutsideDomainError

__all__ = [
    "ElementKind",
    "EXTRUDED",
    "FaceEmbedding",
    "ReferenceElement",
    "reference_element",
    "natural_to_cartesian",
    "cartesian_to_natural",
    "contains",
    "node_count",
    "face_node_count",
]

DEFAULT_TOL = 1e-10


class ElementKind(str, Enum):
    LINE = "line"
    TRIANGLE = "tri"
    QUADRILATERAL = "quad"
    TETRAHEDRON = "tet"
    HEXAHEDRON = "hex"
    PRISM = "prism"
    PYRAMID = "pyramid"


#: Kinds whose natural coordinates are Cartesian: tensor products of the line.
TENSOR_KINDS = (ElementKind.LINE, ElementKind.QUADRILATERAL, ElementKind.HEXAHEDRON)

#: Each extruded kind is its base kind times [-1, 1] in a last coordinate.
EXTRUDED = {
    ElementKind.QUADRILATERAL: ElementKind.LINE,
    ElementKind.HEXAHEDRON: ElementKind.QUADRILATERAL,
    ElementKind.PRISM: ElementKind.TRIANGLE,
}


def _ro(a):
    """Return a C-contiguous float array marked read-only."""
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class FaceEmbedding:
    """Affine embedding of a face reference domain into the parent element.

    ``face_kind`` is the element kind of the face geometry, or ``None`` for a
    0-dimensional face (the endpoints of a line).  A face reference point
    ``r`` maps to the parent coordinate ``matrix @ r + offset``.
    """

    face_kind: ElementKind | None
    matrix: np.ndarray  # (d_parent, d_face)
    offset: np.ndarray  # (d_parent,)

    def embed(self, r):
        r = np.atleast_2d(np.asarray(r, dtype=float))
        return r @ self.matrix.T + self.offset

    def pullback(self, x):
        """Least-squares face coordinates of parent points ``x`` and the
        residual distance of each point to the face's affine hull."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.matrix.shape[1] == 0:
            r = np.zeros((x.shape[0], 0))
        else:
            r, *_ = np.linalg.lstsq(self.matrix, (x - self.offset).T, rcond=None)
            r = r.T
        resid = np.linalg.norm(r @ self.matrix.T + self.offset - x, axis=1)
        return r, resid


@dataclass(frozen=True, eq=False)
class ReferenceElement:
    """Immutable geometric description of one reference element."""

    kind: ElementKind
    dim: int  # Cartesian
    natural_dim: int  # barycentric shapes carry one extra
    n_matrix: np.ndarray  # (dim, natural_dim)
    b_lambda: np.ndarray  # (c, natural_dim)
    v_lower: np.ndarray  # (c,), -inf allowed
    v_upper: np.ndarray  # (c,), +inf allowed
    vertices: np.ndarray  # (n_vertices, dim)
    faces: tuple[FaceEmbedding, ...]
    measure: float
    # Precomputed solve for natural coordinates: lam = solve_matrix @ [x; e]
    # where e stacks the equality rows of the bound table (barycentric sums).
    _solve_matrix: np.ndarray = field(repr=False, default=None)
    _solve_rhs_vals: np.ndarray = field(repr=False, default=None)

    def natural_violation(self, lam):
        """Componentwise violation of the natural bounds (0 when feasible)."""
        lam = np.atleast_2d(np.asarray(lam, dtype=float))
        y = lam @ self.b_lambda.T
        low = self.v_lower - y
        high = y - self.v_upper
        viol = np.maximum(np.maximum(low, high), 0.0)
        return np.max(viol, axis=1)


#: Face kind by the number of corners of a face.
_FACE_KINDS = (None, ElementKind.LINE, ElementKind.TRIANGLE, ElementKind.QUADRILATERAL)


def _face(vertices, corners):
    """Embedding of the face with these corner vertices ``(a, b, ..., last)``.

    Its axes are ``(b - a)/2`` and ``(last - a)/2`` (one axis on an edge, none
    on a point), so the face's own reference vertices land on the corners.
    """
    a, *others = vertices[list(corners)]
    if len(others) == 3 and not np.allclose(
        a + others[1], others[0] + others[2], atol=1e-14
    ):
        raise NumericalError("quadrilateral face is not a parallelogram")
    axes = [(v - a) / 2.0 for v in others[:1] + others[1:][-1:]]
    m = np.stack(axes, axis=1) if axes else np.zeros((len(a), 0))
    return FaceEmbedding(_FACE_KINDS[len(others)], _ro(m), _ro(a + m.sum(axis=1)))


def _element(kind, vertices, faces, n_matrix, b_lambda, v_lower, v_upper, measure):
    n_matrix, b_lambda, v_lower, v_upper, vertices = map(
        _ro, (n_matrix, b_lambda, v_lower, v_upper, vertices)
    )
    if np.any(v_lower > v_upper):
        raise NumericalError(f"{kind}: lower bound exceeds upper bound")
    # The inverse map for natural coordinates: the Cartesian map stacked with
    # the equality rows of the bounds (the barycentric partition of unity).
    eq = np.isfinite(v_lower) & (v_lower == v_upper)
    full = np.vstack([n_matrix, b_lambda[eq]])
    if full.shape[0] != full.shape[1]:
        raise NumericalError(f"natural-coordinate system is not square: {full.shape}")
    return ReferenceElement(
        kind=kind, dim=n_matrix.shape[0], natural_dim=n_matrix.shape[1],
        n_matrix=n_matrix, b_lambda=b_lambda, v_lower=v_lower, v_upper=v_upper,
        vertices=vertices, faces=tuple(_face(vertices, c) for c in faces),
        measure=measure,
        _solve_matrix=_ro(np.linalg.inv(full)),
        _solve_rhs_vals=_ro(v_lower[eq]),
    )


def _simplex(vertices, faces):
    """Barycentric row: ``N = Vᵀ``, ``0 <= lam_i <= 1`` and ``sum(lam) = 1``."""
    v = np.array(vertices, dtype=float)
    k, d = v.shape
    return dict(vertices=v, faces=faces, n_matrix=v.T,
                b_lambda=np.vstack([np.eye(k), np.ones(k)]),
                v_lower=[0.0] * k + [1.0], v_upper=[1.0] * (k + 1),
                measure=2.0**d / math.factorial(d))


def _box(vertices, faces):
    """Cartesian row: ``N = B = I`` and ``-1 <= x_i <= 1``."""
    v = np.array(vertices, dtype=float)
    d = v.shape[1]
    return dict(vertices=v, faces=faces, n_matrix=np.eye(d), b_lambda=np.eye(d),
                v_lower=[-1.0] * d, v_upper=[1.0] * d, measure=2.0**d)


def _extrude(base):
    """The row of ``base`` times ``[-1, 1]`` in a new last coordinate ``z``.

    Vertices at ``z = -1``, then at ``z = +1``; faces bottom, top, then
    ``(a, b, b+k, a+k)`` for each base edge ``(a, b)``.  ``N`` and ``B`` grow
    by one unit row and column, the bounds by ``-1 <= z <= 1``.
    """

    def grow(m):
        m = np.pad(np.asarray(m, dtype=float), ((0, 1), (0, 1)))
        m[-1, -1] = 1.0
        return m

    v = base["vertices"]
    k = len(v)
    sides = [(a, b, b + k, a + k) for a, b in base["faces"]]
    return dict(
        vertices=np.vstack([np.column_stack([v, np.full(k, z)]) for z in (-1, 1)]),
        faces=[tuple(range(k)), tuple(range(k, 2 * k)), *sides],
        n_matrix=grow(base["n_matrix"]), b_lambda=grow(base["b_lambda"]),
        v_lower=base["v_lower"] + [-1.0], v_upper=base["v_upper"] + [1.0],
        measure=2.0 * base["measure"],
    )


INF = np.inf

#: One row per kind: vertices, faces as corner-index tuples, the natural map
#: ``N``, the bound rows ``B`` with their bounds, and the measure.
_TABLES = {
    ElementKind.LINE: _box([[-1.0], [1.0]], [(0,), (1,)]),  # x = -1, x = +1
    ElementKind.TRIANGLE: _simplex(
        [[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]],
        [
            (0, 1),  # lam3 = 0 (y = -1)
            (1, 2),  # lam1 = 0 (hypotenuse)
            (2, 0),  # lam2 = 0 (x = -1)
        ],
    ),
    ElementKind.QUADRILATERAL: _box(
        [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]],
        [
            (0, 1),  # y = -1
            (1, 2),  # x = +1
            (2, 3),  # y = +1
            (3, 0),  # x = -1
        ],
    ),
    ElementKind.TETRAHEDRON: _simplex(
        [[-1.0, -1.0, -1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]],
        [
            (0, 1, 2),  # z = -1
            (0, 1, 3),  # y = -1
            (0, 2, 3),  # x = -1
            (1, 2, 3),  # x + y + z = -1
        ],
    ),
}
# z = -1, z = +1, then y = -1, x = +1, y = +1, x = -1.
_TABLES[ElementKind.HEXAHEDRON] = _extrude(_TABLES[ElementKind.QUADRILATERAL])
# z = -1, z = +1, then y = -1, x + y = 0, x = -1.
_TABLES[ElementKind.PRISM] = _extrude(_TABLES[ElementKind.TRIANGLE])
_TABLES[ElementKind.PYRAMID] = dict(
    vertices=[[-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1], [0, 0, 1]],
    faces=[
        (0, 1, 2, 3),  # z = -1 (base)
        (0, 1, 4),  # 2y - z = -1
        (1, 2, 4),  # 2x + z = 1
        (2, 3, 4),  # 2y + z = 1
        (3, 0, 4),  # 2x - z = -1
    ],
    n_matrix=np.eye(3),
    b_lambda=[[2, 0, 1], [2, 0, -1], [0, 2, 1], [0, 2, -1], [0, 0, 1]],
    v_lower=[-INF, -1.0, -INF, -1.0, -1.0],
    v_upper=[1.0, INF, 1.0, INF, 1.0],
    measure=8.0 / 3.0,
)


def reference_element(kind: ElementKind) -> ReferenceElement:
    """Return the immutable reference element table for ``kind``, an
    :class:`ElementKind` or its value: one object per kind."""
    return _reference_element(ElementKind(kind))


@lru_cache(maxsize=None)
def _reference_element(kind):
    return _element(kind, **_TABLES[kind])


def natural_to_cartesian(elem, lam, tol=DEFAULT_TOL):
    """Map natural coordinates to Cartesian coordinates.

    Raises :class:`OutsideDomainError` when ``lam`` violates the natural
    bounds by more than ``tol``.
    """
    lam = np.asarray(lam, dtype=float)
    single = lam.ndim == 1
    lam2 = np.atleast_2d(lam)
    viol = elem.natural_violation(lam2)
    if np.any(viol > tol):
        raise OutsideDomainError(
            f"natural coordinates violate {elem.kind.value} bounds by "
            f"{viol.max():.3e}"
        )
    x = lam2 @ elem.n_matrix.T
    return x[0] if single else x


def natural_solve(elem, x):
    """Invert the natural-to-Cartesian map without any feasibility check."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x2 = np.atleast_2d(x)
    e = elem._solve_rhs_vals
    rhs = np.hstack([x2, np.broadcast_to(e, (x2.shape[0], e.size))])
    lam = rhs @ elem._solve_matrix.T
    return lam[0] if single else lam


def cartesian_to_natural(elem, x, tol=DEFAULT_TOL):
    """Return the unique natural coordinates of a point in the element.

    For barycentric shapes the partition-of-unity row closes the otherwise
    under-determined linear system.  Raises :class:`OutsideDomainError` when
    ``x`` lies outside the domain beyond ``tol``.
    """
    lam = natural_solve(elem, x)
    viol = elem.natural_violation(np.atleast_2d(lam))
    if np.any(viol > tol):
        raise OutsideDomainError(
            f"point outside {elem.kind.value} domain (violation "
            f"{viol.max():.3e})"
        )
    # Consistency of the inverse: the forward map must reproduce x.
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    back = np.atleast_2d(lam) @ elem.n_matrix.T
    if not np.allclose(back, x2, atol=1e-12, rtol=0.0):
        raise NumericalError("inconsistent natural-coordinate solve")
    return lam


def contains(elem, x, tol=DEFAULT_TOL):
    """True when ``x`` lies inside the element within ``tol``.

    Accepts a single point or an array of points (returning a bool array).
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    lam = np.atleast_2d(natural_solve(elem, x))
    ok = elem.natural_violation(lam) <= tol
    return bool(ok[0]) if single else ok


def node_count(kind: ElementKind, p: int) -> int:
    """Closed-form node count of the degree-``p`` space on ``kind``."""
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    kind = ElementKind(kind)
    if kind is ElementKind.LINE:
        return p + 1
    if kind is ElementKind.TRIANGLE:
        return (p + 1) * (p + 2) // 2
    if kind is ElementKind.QUADRILATERAL:
        return (p + 1) ** 2
    if kind is ElementKind.TETRAHEDRON:
        return (p + 1) * (p + 2) * (p + 3) // 6
    if kind is ElementKind.HEXAHEDRON:
        return (p + 1) ** 3
    if kind is ElementKind.PRISM:
        return (p + 1) ** 2 * (p + 2) // 2
    if kind is ElementKind.PYRAMID:
        return (p + 1) * (p + 2) * (2 * p + 3) // 6
    raise ValueError(f"unknown element kind {kind!r}")


def face_node_count(face_kind, p):
    """Node count for a face geometry; a point face always holds one node."""
    if face_kind is None:
        return 1
    return node_count(face_kind, p)
