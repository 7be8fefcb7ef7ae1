"""Bi-unit reference elements and their natural coordinate systems.

Seven element shapes are supported: line, triangle, quadrilateral,
tetrahedron, hexahedron, triangular prism, and square pyramid.  Each element
carries a linear map ``x = N @ lam + nu`` from natural coordinates ``lam``
(barycentric for simplex-like shapes, Cartesian for tensor shapes) to
Cartesian coordinates ``x``, together with the linear bounds
``v_lower <= B @ lam <= v_upper`` that carve out the reference domain.

Conventions (fixed by this package, documented in the README):

* vertex order -- line: (-1), (1); triangle: (-1,-1), (1,-1), (-1,1);
  quadrilateral: counterclockwise from (-1,-1); tetrahedron: (-1,-1,-1),
  (1,-1,-1), (-1,1,-1), (-1,-1,1); hexahedron: bottom quad then top quad;
  prism: bottom triangle (z=-1) then top triangle (z=+1); pyramid: base quad
  (z=-1) counterclockwise, then apex (0,0,1).
* face order -- listed in each ``_make_*`` builder below; faces of mixed
  3D elements list triangles before quadrilaterals except where the
  geometric enumeration is more natural (see builders).
* face maps are affine embeddings of the face's own reference domain; a
  0-dimensional face (line endpoint) has ``face_kind None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import NumericalError, OutsideDomainError

__all__ = [
    "ElementKind",
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

#: Measure (length/area/volume) of each bi-unit reference domain.
MEASURE = {
    ElementKind.LINE: 2.0,
    ElementKind.TRIANGLE: 2.0,
    ElementKind.QUADRILATERAL: 4.0,
    ElementKind.TETRAHEDRON: 4.0 / 3.0,
    ElementKind.HEXAHEDRON: 8.0,
    ElementKind.PRISM: 4.0,
    ElementKind.PYRAMID: 8.0 / 3.0,
}


def _ro(a):
    """Return a float array marked read-only."""
    a = np.asarray(a, dtype=float)
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
    nu: np.ndarray  # (dim,)
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


def _solve_setup(n_matrix, b_lambda, v_lower, v_upper):
    """Build the inverse map for natural coordinates.

    Stacks the Cartesian map with any equality rows of the bound table (the
    barycentric partition-of-unity rows) to obtain a square invertible
    system.
    """
    d, dprime = n_matrix.shape
    eq = np.isfinite(v_lower) & np.isfinite(v_upper) & (v_upper - v_lower == 0.0)
    rows = b_lambda[eq]
    vals = v_lower[eq]
    full = np.vstack([n_matrix, rows])
    if full.shape[0] != dprime:
        raise NumericalError(
            f"natural-coordinate system is not square: {full.shape}"
        )
    inv = np.linalg.inv(full)
    return _ro(inv), _ro(vals)


def _element(kind, n_matrix, b_lambda, v_lower, v_upper, vertices, faces):
    n_matrix = np.asarray(n_matrix, dtype=float)
    b_lambda = np.asarray(b_lambda, dtype=float)
    v_lower = np.asarray(v_lower, dtype=float)
    v_upper = np.asarray(v_upper, dtype=float)
    if np.any(v_lower > v_upper):
        raise NumericalError(f"{kind}: lower bound exceeds upper bound")
    solve_matrix, rhs_vals = _solve_setup(
        n_matrix, b_lambda, v_lower, v_upper
    )
    return ReferenceElement(
        kind=kind,
        dim=n_matrix.shape[0],
        natural_dim=n_matrix.shape[1],
        n_matrix=_ro(n_matrix),
        nu=_ro(np.zeros(n_matrix.shape[0])),
        b_lambda=_ro(b_lambda),
        v_lower=_ro(v_lower),
        v_upper=_ro(v_upper),
        vertices=_ro(vertices),
        faces=tuple(faces),
        measure=MEASURE[kind],
        _solve_matrix=solve_matrix,
        _solve_rhs_vals=rhs_vals,
    )


def _point_face(position):
    return FaceEmbedding(None, _ro(np.zeros((1, 0))), _ro([position]))


def _edge_face(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return FaceEmbedding(
        ElementKind.LINE, _ro(((b - a) / 2.0).reshape(-1, 1)), _ro((a + b) / 2.0)
    )


def _tri_face(a, b, c):
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    m = np.column_stack([(b - a) / 2.0, (c - a) / 2.0])
    return FaceEmbedding(ElementKind.TRIANGLE, _ro(m), _ro(a + m.sum(axis=1)))


def _quad_face(a, b, c, d):
    a, b, c, d = (np.asarray(v, dtype=float) for v in (a, b, c, d))
    if not np.allclose(a + c, b + d, atol=1e-14):
        raise NumericalError("quadrilateral face is not a parallelogram")
    m = np.column_stack([(b - a) / 2.0, (d - a) / 2.0])
    return FaceEmbedding(ElementKind.QUADRILATERAL, _ro(m), _ro(a + m.sum(axis=1)))


INF = np.inf


def _make_line():
    verts = [[-1.0], [1.0]]
    faces = [_point_face(-1.0), _point_face(1.0)]
    return _element(
        ElementKind.LINE, [[1.0]], [[1.0]], [-1.0], [1.0], verts, faces
    )


def _make_triangle():
    # x = -l1 + l2 - l3, y = -l1 - l2 + l3; vertices are the unit barycentrics.
    n = [[-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    b = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    vl = [0.0, 0.0, 0.0, 1.0]
    vu = [1.0, 1.0, 1.0, 1.0]
    v = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    faces = [
        _edge_face(v[0], v[1]),  # lam3 = 0
        _edge_face(v[1], v[2]),  # lam1 = 0 (hypotenuse)
        _edge_face(v[2], v[0]),  # lam2 = 0
    ]
    return _element(ElementKind.TRIANGLE, n, b, vl, vu, v, faces)


def _make_quadrilateral():
    n = np.eye(2)
    v = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    faces = [
        _edge_face(v[0], v[1]),
        _edge_face(v[1], v[2]),
        _edge_face(v[2], v[3]),
        _edge_face(v[3], v[0]),
    ]
    return _element(
        ElementKind.QUADRILATERAL, n, np.eye(2), [-1.0, -1.0], [1.0, 1.0], v, faces
    )


def _make_tetrahedron():
    n = [
        [-1.0, 1.0, -1.0, -1.0],
        [-1.0, -1.0, 1.0, -1.0],
        [-1.0, -1.0, -1.0, 1.0],
    ]
    b = np.vstack([np.eye(4), np.ones(4)])
    vl = [0.0, 0.0, 0.0, 0.0, 1.0]
    vu = [1.0, 1.0, 1.0, 1.0, 1.0]
    v = np.array(
        [
            [-1.0, -1.0, -1.0],
            [1.0, -1.0, -1.0],
            [-1.0, 1.0, -1.0],
            [-1.0, -1.0, 1.0],
        ]
    )
    faces = [
        _tri_face(v[0], v[1], v[2]),  # z = -1
        _tri_face(v[0], v[1], v[3]),  # y = -1
        _tri_face(v[0], v[2], v[3]),  # x = -1
        _tri_face(v[1], v[2], v[3]),  # x + y + z = -1
    ]
    return _element(ElementKind.TETRAHEDRON, n, b, vl, vu, v, faces)


def _make_hexahedron():
    v = np.array(
        [
            [-1.0, -1.0, -1.0],
            [1.0, -1.0, -1.0],
            [1.0, 1.0, -1.0],
            [-1.0, 1.0, -1.0],
            [-1.0, -1.0, 1.0],
            [1.0, -1.0, 1.0],
            [1.0, 1.0, 1.0],
            [-1.0, 1.0, 1.0],
        ]
    )
    faces = [
        _quad_face(v[0], v[1], v[2], v[3]),  # z = -1
        _quad_face(v[4], v[5], v[6], v[7]),  # z = +1
        _quad_face(v[0], v[1], v[5], v[4]),  # y = -1
        _quad_face(v[1], v[2], v[6], v[5]),  # x = +1
        _quad_face(v[2], v[3], v[7], v[6]),  # y = +1
        _quad_face(v[3], v[0], v[4], v[7]),  # x = -1
    ]
    return _element(
        ElementKind.HEXAHEDRON,
        np.eye(3),
        np.eye(3),
        [-1.0] * 3,
        [1.0] * 3,
        v,
        faces,
    )


def _make_prism():
    # Barycentric triple for the triangular cross-section plus Cartesian z.
    n = [
        [-1.0, 1.0, -1.0, 0.0],
        [-1.0, -1.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
    b = [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [1, 1, 1, 0],
        [0, 0, 0, 1],
    ]
    vl = [0.0, 0.0, 0.0, 1.0, -1.0]
    vu = [1.0, 1.0, 1.0, 1.0, 1.0]
    v = np.array(
        [
            [-1.0, -1.0, -1.0],
            [1.0, -1.0, -1.0],
            [-1.0, 1.0, -1.0],
            [-1.0, -1.0, 1.0],
            [1.0, -1.0, 1.0],
            [-1.0, 1.0, 1.0],
        ]
    )
    faces = [
        _tri_face(v[0], v[1], v[2]),  # z = -1
        _tri_face(v[3], v[4], v[5]),  # z = +1
        _quad_face(v[0], v[1], v[4], v[3]),  # y = -1
        _quad_face(v[1], v[2], v[5], v[4]),  # x + y = 0
        _quad_face(v[2], v[0], v[3], v[5]),  # x = -1
    ]
    return _element(ElementKind.PRISM, n, b, vl, vu, v, faces)


def _make_pyramid():
    b = [
        [2, 0, 1],
        [2, 0, -1],
        [0, 2, 1],
        [0, 2, -1],
        [0, 0, 1],
    ]
    vl = [-INF, -1.0, -INF, -1.0, -1.0]
    vu = [1.0, INF, 1.0, INF, 1.0]
    v = np.array(
        [
            [-1.0, -1.0, -1.0],
            [1.0, -1.0, -1.0],
            [1.0, 1.0, -1.0],
            [-1.0, 1.0, -1.0],
            [0.0, 0.0, 1.0],
        ]
    )
    faces = [
        _quad_face(v[0], v[1], v[2], v[3]),  # base z = -1
        _tri_face(v[0], v[1], v[4]),
        _tri_face(v[1], v[2], v[4]),
        _tri_face(v[2], v[3], v[4]),
        _tri_face(v[3], v[0], v[4]),
    ]
    return _element(ElementKind.PYRAMID, np.eye(3), b, vl, vu, v, faces)


_BUILDERS = {
    ElementKind.LINE: _make_line,
    ElementKind.TRIANGLE: _make_triangle,
    ElementKind.QUADRILATERAL: _make_quadrilateral,
    ElementKind.TETRAHEDRON: _make_tetrahedron,
    ElementKind.HEXAHEDRON: _make_hexahedron,
    ElementKind.PRISM: _make_prism,
    ElementKind.PYRAMID: _make_pyramid,
}


@lru_cache(maxsize=None)
def reference_element(kind: ElementKind) -> ReferenceElement:
    """Return the immutable reference element table for ``kind``."""
    return _BUILDERS[ElementKind(kind)]()


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
    x = lam2 @ elem.n_matrix.T + elem.nu
    return x[0] if single else x


def natural_solve(elem, x):
    """Invert the natural-to-Cartesian map without any feasibility check."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x2 = np.atleast_2d(x)
    e = elem._solve_rhs_vals
    rhs = np.hstack([x2 - elem.nu, np.broadcast_to(e, (x2.shape[0], e.size))])
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
    back = np.atleast_2d(lam) @ elem.n_matrix.T + elem.nu
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
