"""Quadrature rules on the reference elements.

All rules are collapsed-coordinate tensor products: Gauss-Legendre in the
non-degenerate directions and Gauss-Jacobi rules absorbing the collapse
Jacobian (weight ``(1-t)`` for the triangle direction, ``(1-t)^2`` for the
tetrahedron/pyramid direction).  A rule built for exactness ``q`` integrates
every polynomial of (total or per-variable, as appropriate for the shape)
degree ``q`` exactly; the pyramid rule carries one extra point in the
collapsed direction so that products of the rational basis functions are
also integrated exactly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .geometry import ElementKind, MEASURE

__all__ = ["QuadratureRule", "gauss_legendre_1d", "quadrature_rule"]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    kind: ElementKind
    points: np.ndarray  # (nq, d)
    weights: np.ndarray  # (nq,)
    exactness: int

    @property
    def count(self):
        return self.points.shape[0]


def gauss_legendre_1d(n):
    """n-point Gauss-Legendre rule on [-1, 1], exact to degree 2n - 1.

    The points are scipy's; the weights are ``2 / ((1 - x^2) P_n'(x)^2)`` at
    those points, with ``P_n'`` from the three-term recurrence, which keeps
    them within a few ulps of the largest weight (scipy's own weights drift
    to ~4e-14 relative by n = 30).
    """
    if n < 1:
        raise ValueError(f"point count must be >= 1, got {n}")
    x, _ = roots_legendre(n)
    p_prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (p_prev - x * p) / (1.0 - x * x)
    return x, 2.0 / ((1.0 - x * x) * dp**2)


def _points_for_exactness(degree):
    return max(1, degree // 2 + 1)


def _tensor(rules):
    """Cartesian product of 1D rules: list of (x, w) -> (points, weights)."""
    grids = np.meshgrid(*[r[0] for r in rules], indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    w = np.ones(pts.shape[0])
    wgrids = np.meshgrid(*[r[1] for r in rules], indexing="ij")
    for wg in wgrids:
        w = w * wg.ravel()
    return pts, w


def _build_rule(kind, degree):
    n = _points_for_exactness(degree)
    xg, wg = gauss_legendre_1d(n)

    if kind is ElementKind.LINE:
        return xg.reshape(-1, 1), wg

    if kind is ElementKind.QUADRILATERAL:
        pts, w = _tensor([(xg, wg)] * 2)
        return pts, w

    if kind is ElementKind.HEXAHEDRON:
        pts, w = _tensor([(xg, wg)] * 3)
        return pts, w

    if kind is ElementKind.TRIANGLE:
        xb, wb = roots_jacobi(n, 1.0, 0.0)
        A, B = np.meshgrid(xg, xb, indexing="ij")
        WA, WB = np.meshgrid(wg, wb, indexing="ij")
        x = (1.0 + A) * (1.0 - B) / 2.0 - 1.0
        y = B
        pts = np.column_stack([x.ravel(), y.ravel()])
        w = (WA * WB).ravel() / 2.0
        return pts, w

    if kind is ElementKind.TETRAHEDRON:
        xb, wb = roots_jacobi(n, 1.0, 0.0)
        xc, wc = roots_jacobi(n, 2.0, 0.0)
        A, B, C = np.meshgrid(xg, xb, xc, indexing="ij")
        WA, WB, WC = np.meshgrid(wg, wb, wc, indexing="ij")
        x = (1.0 + A) * (1.0 - B) * (1.0 - C) / 4.0 - 1.0
        y = (1.0 + B) * (1.0 - C) / 2.0 - 1.0
        z = C
        pts = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
        w = (WA * WB * WC).ravel() / 8.0
        return pts, w

    if kind is ElementKind.PRISM:
        tri_pts, tri_w = _build_rule(ElementKind.TRIANGLE, degree)
        nq = tri_pts.shape[0]
        pts = np.empty((nq * n, 3))
        w = np.empty(nq * n)
        for i in range(n):
            pts[i * nq : (i + 1) * nq, :2] = tri_pts
            pts[i * nq : (i + 1) * nq, 2] = xg[i]
            w[i * nq : (i + 1) * nq] = tri_w * wg[i]
        return pts, w

    if kind is ElementKind.PYRAMID:
        # One extra point vertically: products of the rational basis become
        # polynomials of one degree higher in the collapsed direction.
        xc, wc = roots_jacobi(n + 1, 2.0, 0.0)
        A, B, C = np.meshgrid(xg, xg, xc, indexing="ij")
        WA, WB, WC = np.meshgrid(wg, wg, wc, indexing="ij")
        half = (1.0 - C) / 2.0
        pts = np.column_stack(
            [(A * half).ravel(), (B * half).ravel(), C.ravel()]
        )
        w = (WA * WB * WC).ravel() / 4.0
        return pts, w

    raise ValueError(f"unknown element kind {kind!r}")


_CACHE: dict[tuple, QuadratureRule] = {}
_CACHE_LOCK = threading.Lock()


def quadrature_rule(kind, degree) -> QuadratureRule:
    """A rule on ``kind`` exact for polynomials of degree ``degree``."""
    kind = ElementKind(kind)
    if degree < 0:
        raise ValueError(f"exactness degree must be >= 0, got {degree}")
    key = (kind, int(degree))
    with _CACHE_LOCK:
        rule = _CACHE.get(key)
    if rule is not None:
        return rule
    pts, w = _build_rule(kind, degree)
    if np.any(w <= 0.0):
        raise ValueError("quadrature weights must be positive")
    total = float(np.sum(w))
    if abs(total - MEASURE[kind]) > 1e-12 * MEASURE[kind] * max(1, len(w)):
        raise ValueError(
            f"weights sum to {total}, expected measure {MEASURE[kind]}"
        )
    pts.setflags(write=False)
    w.setflags(write=False)
    rule = QuadratureRule(kind, pts, w, int(degree))
    with _CACHE_LOCK:
        _CACHE.setdefault(key, rule)
        rule = _CACHE[key]
    return rule
