"""Reference node distributions used for comparison and initialization.

Two families are provided: closed Gauss-Lobatto nodes (line, and their
tensor products on quadrilateral and hexahedron) and equispaced "uniform"
distributions on every element kind.  Both are symmetric and reduce to their
lower-dimensional counterparts on faces.
"""

from __future__ import annotations

import itertools
from enum import Enum

import numpy as np

from .errors import UnsupportedBaselineError
from .geometry import (
    TENSOR_KINDS,
    ElementKind,
    natural_to_cartesian,
    node_count,
    reference_element,
)
from .quadrature import _gauss_jacobi, _tensor_grid
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
    """Equispaced barycentric lattice points (compositions of p), the
    first component slowest."""
    combos = [
        c + (p - sum(c),)
        for c in itertools.product(range(p + 1), repeat=nbary - 1)
        if sum(c) <= p
    ]
    return np.array(combos, dtype=float) / p


def _uniform_nodes(kind, p):
    """Equispaced nodes of the simplices, the prism and the pyramid."""
    if kind in (ElementKind.TRIANGLE, ElementKind.TETRAHEDRON):
        elem = reference_element(kind)
        lam = _simplex_lattice(p, elem.natural_dim)
        return natural_to_cartesian(elem, lam)
    if kind is ElementKind.PRISM:
        tri = _uniform_nodes(ElementKind.TRIANGLE, p)
        z = np.linspace(-1.0, 1.0, p + 1)
        return np.column_stack(
            [np.tile(tri, (p + 1, 1)), np.repeat(z, len(tri))]
        )
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
            layer = _tensor_grid([side, side])
            out.append(np.column_stack([layer, np.full(len(layer), z)]))
        return np.vstack(out)
    raise ValueError(kind)


def baseline_distribution(kind, p, which) -> NodalDistribution:
    """Construct a baseline node set for (kind, p)."""
    kind = ElementKind(kind)
    which = BaselineKind(which)
    if kind in TENSOR_KINDS:
        gll = which is BaselineKind.GLL
        axis = gll_1d(p) if gll else np.linspace(-1.0, 1.0, p + 1)
        nodes = _tensor_grid([axis] * reference_element(kind).dim)
    elif which is BaselineKind.GLL:
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
