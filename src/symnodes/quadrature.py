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

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import mul

import numpy as np
import scipy.linalg

from .geometry import TENSOR_KINDS, ElementKind, reference_element

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


def _orthopoly_pair(n, a, b, x):
    """``P_{n-1}(x)`` and ``P_n(x)`` for ``n >= 1`` and integers ``a, b >= 0``,
    as scipy.special's integer-degree evaluators compute them for ``|x| >=
    1e-5``: ``eval_gegenbauer`` with ``alpha = a + 1/2`` for ``a = b`` (whose
    operations for ``alpha = 1/2`` are those of ``eval_legendre``), else
    ``eval_jacobi``.  One sweep of their operations, in their order, so with
    their bits."""
    if a == b:
        al, c = a + 0.5, 2 * a
        first, d, u = 2 * al * x, x - 1, x
    else:
        c = a
        first = 0.5 * (2 * (a + 1) + (a + b + 2) * (x - 1))
        d = (a + b + 2) * (x - 1) / (2 * (a + 1))
        u = d + 1
    pair = (np.ones_like(x), first)
    for k in range(1, n):
        if a == b:
            d = (2 * (k + al) / (k + 2 * al)) * (x - 1) * u + (
                k / (k + 2 * al)
            ) * d
        else:
            t = 2 * k + a + b
            d = (
                (t * (t + 1) * (t + 2)) * (x - 1) * u
                + 2 * k * (k + b) * (t + 2) * d
            ) / (2 * (k + a + 1) * (k + a + b + 1) * t)
        u = d + u
        pair = (pair[1], math.comb(k + 1 + c, k + 1) * u)
    return pair


@lru_cache(maxsize=None)
def _gauss_jacobi(m, a, b):
    """Points and weights of the ``m``-point Gauss-Jacobi rule for the
    weight ``(1 - x)^a (1 + x)^b``, integers ``a, b >= 0``, bit for bit as
    ``scipy.special.roots_jacobi`` computes them.

    The points are the eigenvalues of the Jacobi matrix (Golub & Welsch,
    Math. Comp. 23, 1969), improved by one Newton step on the recurrence of
    :func:`_orthopoly_pair`.  For ``a = b`` they are symmetrized and no
    weights are computed (``None``); otherwise the weights are scipy's
    Christoffel numbers scaled to the weight's integral.  Read-only arrays.
    """
    k = np.arange(1.0, m)
    band = np.zeros((2, m))
    if a == b == 0:
        band[0, 1:] = k * np.sqrt(1.0 / (4 * k * k - 1))
    elif a == b:
        al = a + 0.5
        band[0, 1:] = np.sqrt(
            k * (k + 2 * al - 1) / (4 * (k + al) * (k + al - 1))
        )
    else:
        tail = np.sqrt(k * (k + a + b) / (2.0 * k + a + b - 1))
        band[0, 1:] = (
            2.0 / (2.0 * k + a + b)
            * np.sqrt((k + a) * (k + b) / (2 * k + a + b + 1))
            * np.where(k == 1, 1.0, tail)
        )
        j = np.arange(m, dtype=float)
        band[1] = np.where(
            j == 0,
            (b - a) / (2 + a + b),
            (b * b - a * a) / ((2.0 * j + a + b) * (2.0 * j + a + b + 2)),
        )
    x = scipy.linalg.eigvals_banded(band, overwrite_a_band=True)
    w = None
    if a == b:
        prev, p = _orthopoly_pair(m, a, b, x)
        dy = (-m * x * p + (m + 2 * a) * prev) / (1 - x**2)
        x -= p / dy
        x = (x - x[::-1]) / 2
    else:
        y = _orthopoly_pair(m, a, b, x)[1]
        dy = 0.5 * (m + a + b + 1) * _orthopoly_pair(m, a + 1, b + 1, x)[0]
        x -= y / dy
        fm = _orthopoly_pair(m, a, b, x)[0]
        log_fm, log_dy = np.log(np.abs(fm)), np.log(np.abs(dy))
        fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
        dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
        w = 1.0 / (fm * dy)
        beta = (
            math.factorial(a) * math.factorial(b) / math.factorial(a + b + 1)
        )
        w *= 2.0 ** (a + b + 1) * beta / w.sum()
        w.setflags(write=False)
    x.setflags(write=False)
    return x, w


def gauss_legendre_1d(n):
    """n-point Gauss-Legendre rule on [-1, 1], exact to degree 2n - 1.

    The points are scipy's (``scipy.special.roots_legendre``, bit for bit,
    from :func:`_gauss_jacobi`); the weights are ``2 / ((1 - x^2)
    P_n'(x)^2)`` at those points, with ``P_n'`` from the three-term
    recurrence, which keeps them within a few ulps of the largest weight
    (scipy's own weights drift to ~4e-14 relative by n = 30).
    """
    if n < 1:
        raise ValueError(f"point count must be >= 1, got {n}")
    x = _gauss_jacobi(n, 0, 0)[0].copy()
    p_prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (p_prev - x * p) / (1.0 - x * x)
    return x, 2.0 / ((1.0 - x * x) * dp**2)


def _points_for_exactness(degree):
    return max(1, degree // 2 + 1)


def _tensor_grid(axes):
    """Cartesian product of 1D point sets as rows, last axis fastest."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def _build_rule(kind, degree):
    """Points and weights: products of 1D rules, the first axis slowest."""
    n = _points_for_exactness(degree)
    xg, wg = gauss_legendre_1d(n)
    if kind in TENSOR_KINDS:
        d = reference_element(kind).dim
        return _tensor_grid([xg] * d), reduce(mul, _tensor_grid([wg] * d).T)
    if kind is ElementKind.TRIANGLE:
        xb, wb = _gauss_jacobi(n, 1, 0)
        A, B = _tensor_grid([xg, xb]).T
        WA, WB = _tensor_grid([wg, wb]).T
        pts = np.column_stack([(1.0 + A) * (1.0 - B) / 2.0 - 1.0, B])
        return pts, WA * WB / 2.0
    if kind is ElementKind.TETRAHEDRON:
        xb, wb = _gauss_jacobi(n, 1, 0)
        xc, wc = _gauss_jacobi(n, 2, 0)
        A, B, C = _tensor_grid([xg, xb, xc]).T
        WA, WB, WC = _tensor_grid([wg, wb, wc]).T
        x = (1.0 + A) * (1.0 - B) * (1.0 - C) / 4.0 - 1.0
        y = (1.0 + B) * (1.0 - C) / 2.0 - 1.0
        return np.column_stack([x, y, C]), WA * WB * WC / 8.0
    if kind is ElementKind.PRISM:
        tri_pts, tri_w = _build_rule(ElementKind.TRIANGLE, degree)
        nq = tri_pts.shape[0]
        pts = np.column_stack([np.tile(tri_pts, (n, 1)), np.repeat(xg, nq)])
        return pts, np.tile(tri_w, n) * np.repeat(wg, nq)
    if kind is ElementKind.PYRAMID:
        # One extra point vertically: products of the rational basis become
        # polynomials of one degree higher in the collapsed direction.
        xc, wc = _gauss_jacobi(n + 1, 2, 0)
        A, B, C = _tensor_grid([xg, xg, xc]).T
        WA, WB, WC = _tensor_grid([wg, wg, wc]).T
        half = (1.0 - C) / 2.0
        return np.column_stack([A * half, B * half, C]), WA * WB * WC / 4.0
    raise ValueError(f"unknown element kind {kind!r}")


def quadrature_rule(kind, degree) -> QuadratureRule:
    """A rule on ``kind`` exact for polynomials of degree ``degree``."""
    kind = ElementKind(kind)
    if degree < 0:
        raise ValueError(f"exactness degree must be >= 0, got {degree}")
    return _rule(kind, int(degree))


@lru_cache(maxsize=None)
def _rule(kind, degree):
    pts, w = _build_rule(kind, degree)
    if np.any(w <= 0.0):
        raise ValueError("quadrature weights must be positive")
    total, measure = float(np.sum(w)), reference_element(kind).measure
    if abs(total - measure) > 1e-12 * measure * max(1, len(w)):
        raise ValueError(f"weights sum to {total}, expected measure {measure}")
    pts.setflags(write=False)
    w.setflags(write=False)
    return QuadratureRule(kind, pts, w, degree)
