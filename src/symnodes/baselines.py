"""Reference node distributions used for comparison and initialization.

Two families are provided: closed Gauss-Lobatto nodes (line, and their
tensor products on quadrilateral and hexahedron) and equispaced "uniform"
distributions on every element kind.  Both are symmetric and reduce to their
lower-dimensional counterparts on faces.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import UnsupportedBaselineError
from .geometry import ElementKind, node_count
from .quadrature import _gauss_jacobi
from .symmetry import NodalDistribution

__all__ = ["BaselineKind", "gll_1d", "baseline_distribution"]


class BaselineKind(str, Enum):
    GLL = "gll"
    UNIFORM = "uniform"


def gll_1d(p):
    """The p+1 closed Gauss-Lobatto nodes on [-1, 1], sorted ascending.

    The interior nodes are the roots of P_p', i.e. of P_{p-1}^{(1,1)}, as
    ``scipy.special.roots_jacobi(p - 1, 1, 1)`` computes them.
    """
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    interior = _gauss_jacobi(p - 1, 1, 1)[0] if p > 1 else []
    return np.concatenate([[-1.0], interior, [1.0]])


def _simplex_lattice(p, nbary):
    """Equispaced barycentric lattice points (compositions of p)."""
    if nbary == 3:
        combos = [
            (i, j, p - i - j)
            for i in range(p + 1)
            for j in range(p + 1 - i)
        ]
    else:
        combos = [
            (i, j, k, p - i - j - k)
            for i in range(p + 1)
            for j in range(p + 1 - i)
            for k in range(p + 1 - i - j)
        ]
    return np.array(combos, dtype=float) / p


def _uniform_nodes(kind, p):
    axis = np.linspace(-1.0, 1.0, p + 1)
    if kind is ElementKind.LINE:
        return axis.reshape(-1, 1)
    if kind is ElementKind.QUADRILATERAL:
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])
    if kind is ElementKind.HEXAHEDRON:
        xx, yy, zz = np.meshgrid(axis, axis, axis, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
    if kind is ElementKind.TRIANGLE:
        from .geometry import natural_to_cartesian, reference_element

        lam = _simplex_lattice(p, 3)
        return natural_to_cartesian(reference_element(kind), lam)
    if kind is ElementKind.TETRAHEDRON:
        from .geometry import natural_to_cartesian, reference_element

        lam = _simplex_lattice(p, 4)
        return natural_to_cartesian(reference_element(kind), lam)
    if kind is ElementKind.PRISM:
        tri = _uniform_nodes(ElementKind.TRIANGLE, p)
        out = []
        for z in axis:
            layer = np.column_stack([tri, np.full(tri.shape[0], z)])
            out.append(layer)
        return np.vstack(out)
    if kind is ElementKind.PYRAMID:
        # Level k (from the base) carries a (p - k + 1)^2 equispaced grid on
        # the cross-section square of half-width (1 - z) / 2.
        out = []
        for k in range(p + 1):
            z = -1.0 + 2.0 * k / p
            half = 0.5 * (1.0 - z)
            n_side = p - k + 1
            side = (
                np.linspace(-half, half, n_side)
                if n_side > 1
                else np.array([0.0])
            )
            xx, yy = np.meshgrid(side, side, indexing="ij")
            layer = np.column_stack(
                [xx.ravel(), yy.ravel(), np.full(xx.size, z)]
            )
            out.append(layer)
        return np.vstack(out)
    raise ValueError(kind)


def baseline_distribution(kind, p, which) -> NodalDistribution:
    """Construct a baseline node set for (kind, p)."""
    kind = ElementKind(kind)
    which = BaselineKind(which)
    if which is BaselineKind.GLL:
        if kind is ElementKind.LINE:
            nodes = gll_1d(p).reshape(-1, 1)
        elif kind is ElementKind.QUADRILATERAL:
            g = gll_1d(p)
            xx, yy = np.meshgrid(g, g, indexing="ij")
            nodes = np.column_stack([xx.ravel(), yy.ravel()])
        elif kind is ElementKind.HEXAHEDRON:
            g = gll_1d(p)
            xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
            nodes = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
        else:
            raise UnsupportedBaselineError(
                f"closed Gauss-Lobatto nodes are only defined for tensor "
                f"shapes, not {kind.value}"
            )
    else:
        nodes = _uniform_nodes(kind, p)
    dist = NodalDistribution(
        kind=kind, degree=p, nodes=nodes, source=which.value
    )
    assert dist.count == node_count(kind, p)
    return dist.validate()
