"""The Lebesgue lattice and its fundamental domain against the box filter.

``metrics._lattice`` and ``metrics._chamber`` enumerate each row of the
last axis between bounds; the oracle builds the whole bounding-box lattice
and filters it, as the scan once did.  Both must give the same points, bit
for bit and in the same order.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symnodes.geometry import (
    ElementKind,
    contains,
    natural_solve,
    reference_element,
)
from symnodes.metrics import _CHAMBER_TOL, _GENERIC, _chamber, _lattice
from symnodes.symmetry import natural_symmetry_group

# Resolutions checked one by one, and the largest a draw may take.
_SWEEP = {1: 400, 2: 120, 3: 40}
_DRAW = {1: 1000, 2: 300, 3: 80}


def _box_lattice(kind, resolution):
    """Uniform lattice over the bounding box restricted to the domain."""
    elem = reference_element(kind)
    axis = np.linspace(-1.0, 1.0, resolution)
    grids = np.meshgrid(*[axis] * elem.dim, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    return pts[contains(elem, pts, 1e-12)]


def _box_chamber(kind, resolution):
    """The box lattice's points in the Dirichlet chamber of the generic
    point."""
    elem = reference_element(kind)
    c = natural_solve(elem, elem.vertices.mean(axis=0) + _GENERIC[: elem.dim])
    walls = np.stack([c - P @ c for P in natural_symmetry_group(kind)])
    pts = _box_lattice(kind, resolution)
    keep = np.all(natural_solve(elem, pts) @ walls.T >= -_CHAMBER_TOL, axis=1)
    return pts[keep]


def _assert_oracle(kind, r):
    assert np.array_equal(_lattice.__wrapped__(kind, r), _box_lattice(kind, r))
    assert np.array_equal(_chamber.__wrapped__(kind, r), _box_chamber(kind, r))


@pytest.mark.parametrize("kind", list(ElementKind))
def test_sample_equals_box_filter(kind):
    for r in range(2, _SWEEP[reference_element(kind).dim] + 1):
        _assert_oracle(kind, r)


@st.composite
def _kind_and_resolution(draw):
    kind = draw(st.sampled_from(list(ElementKind)))
    dim = reference_element(kind).dim
    return kind, draw(st.integers(2, _DRAW[dim]))


@settings(max_examples=15, deadline=None)
@given(_kind_and_resolution())
def test_sample_equals_box_filter_at_drawn_resolution(case):
    _assert_oracle(*case)


def test_samples_are_cached_and_read_only():
    kind = ElementKind.TRIANGLE
    for sample in (_lattice, _chamber):
        pts = sample(kind, 31)
        assert sample(kind, 31) is pts
        assert not pts.flags.writeable


def test_chamber_build_stays_small():
    # The bounding box of the tet at r=60 holds 216,000 points (a 57.7 MiB
    # peak when filtered whole); the chamber keeps 1,815 of them.
    kind = ElementKind.TETRAHEDRON
    _chamber.__wrapped__(kind, 5)  # element tables and group, built once
    tracemalloc.start()
    try:
        pts = _chamber.__wrapped__(kind, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pts) == 1815
    assert peak < 8 * 2**20
