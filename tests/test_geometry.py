import numpy as np
import pytest

from symnodes.errors import OutsideDomainError
from symnodes.geometry import (
    ElementKind,
    cartesian_to_natural,
    contains,
    face_node_count,
    natural_solve,
    natural_to_cartesian,
    node_count,
    reference_element,
)

ALL_KINDS = list(ElementKind)


def test_element_table_shapes():
    dims = {
        ElementKind.LINE: (1, 1),
        ElementKind.TRIANGLE: (2, 3),
        ElementKind.QUADRILATERAL: (2, 2),
        ElementKind.TETRAHEDRON: (3, 4),
        ElementKind.HEXAHEDRON: (3, 3),
        ElementKind.PRISM: (3, 4),
        ElementKind.PYRAMID: (3, 3),
    }
    for kind, (d, dprime) in dims.items():
        elem = reference_element(kind)
        assert elem.dim == d
        assert elem.natural_dim == dprime
        assert elem.n_matrix.shape == (d, dprime)
        assert np.all(elem.v_lower <= elem.v_upper)


def test_line_table_values():
    elem = reference_element(ElementKind.LINE)
    assert elem.n_matrix.tolist() == [[1.0]]
    assert elem.b_lambda.tolist() == [[1.0]]
    assert elem.v_lower.tolist() == [-1.0]
    assert elem.v_upper.tolist() == [1.0]


def test_triangle_table_values():
    elem = reference_element(ElementKind.TRIANGLE)
    assert elem.b_lambda.shape == (4, 3)
    assert elem.b_lambda[-1].tolist() == [1.0, 1.0, 1.0]
    assert elem.v_lower.tolist() == [0.0, 0.0, 0.0, 1.0]
    assert elem.v_upper.tolist() == [1.0, 1.0, 1.0, 1.0]


def test_pyramid_one_sided_bounds():
    elem = reference_element(ElementKind.PYRAMID)
    rows = [tuple(r) for r in elem.b_lambda]
    i = rows.index((2.0, 0.0, 1.0))
    assert elem.v_upper[i] == 1.0
    assert elem.v_lower[i] == -np.inf


def test_natural_to_cartesian_examples():
    tri = reference_element(ElementKind.TRIANGLE)
    np.testing.assert_allclose(
        natural_to_cartesian(tri, [1 / 3, 1 / 3, 1 / 3]),
        [-1 / 3, -1 / 3],
        atol=1e-15,
    )
    np.testing.assert_allclose(
        natural_to_cartesian(tri, [1, 0, 0]), [-1, -1], atol=1e-15
    )
    hexa = reference_element(ElementKind.HEXAHEDRON)
    np.testing.assert_allclose(
        natural_to_cartesian(hexa, [0.2, -0.3, 0.9]), [0.2, -0.3, 0.9]
    )


def test_natural_to_cartesian_rejects_infeasible():
    tri = reference_element(ElementKind.TRIANGLE)
    with pytest.raises(OutsideDomainError):
        natural_to_cartesian(tri, [0.8, 0.8, -0.6])


def test_cartesian_to_natural_examples():
    tri = reference_element(ElementKind.TRIANGLE)
    np.testing.assert_allclose(
        cartesian_to_natural(tri, [-1, -1]), [1, 0, 0], atol=1e-14
    )
    prism = reference_element(ElementKind.PRISM)
    np.testing.assert_allclose(
        cartesian_to_natural(prism, [-1 / 3, -1 / 3, 0.5]),
        [1 / 3, 1 / 3, 1 / 3, 0.5],
        atol=1e-14,
    )
    line = reference_element(ElementKind.LINE)
    np.testing.assert_allclose(cartesian_to_natural(line, [0.7]), [0.7])
    with pytest.raises(OutsideDomainError):
        cartesian_to_natural(tri, [0.5, 0.8])


def test_contains_examples():
    tri = reference_element(ElementKind.TRIANGLE)
    assert contains(tri, [-1 / 3, -1 / 3], 1e-12)
    assert not contains(tri, [0.1, 0.1], 1e-12)
    pyr = reference_element(ElementKind.PYRAMID)
    assert contains(pyr, [0, 0, 1], 1e-12)
    assert not contains(pyr, [0.5, 0.5, 0.5], 1e-12)


def test_node_count_formulas():
    assert node_count(ElementKind.TRIANGLE, 7) == 36
    assert node_count(ElementKind.PYRAMID, 4) == 55
    assert node_count(ElementKind.HEXAHEDRON, 4) == 125
    assert node_count(ElementKind.LINE, 3) == 4
    assert node_count(ElementKind.TETRAHEDRON, 3) == 20
    assert node_count(ElementKind.PRISM, 2) == 18
    with pytest.raises(ValueError):
        node_count(ElementKind.LINE, 0)
    assert face_node_count(None, 5) == 1


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_one_reference_element_per_kind(kind):
    # The kind and its value name one cached table.
    assert reference_element(kind.value) is reference_element(kind)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_roundtrip_random_feasible(kind):
    rng = np.random.default_rng(7)
    elem = reference_element(kind)
    count = 0
    while count < 1000:
        x = rng.uniform(-1.0, 1.0, size=(2000, elem.dim))
        inside = contains(elem, x, 0.0)
        x = x[inside][: 1000 - count]
        if x.shape[0] == 0:
            continue
        lam = np.array([cartesian_to_natural(elem, xi) for xi in x])
        back = natural_to_cartesian(elem, lam)
        np.testing.assert_allclose(back, x, atol=1e-12, rtol=0)
        count += x.shape[0]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_face_counts_and_embeddings(kind):
    expected = {
        ElementKind.LINE: 2,
        ElementKind.TRIANGLE: 3,
        ElementKind.QUADRILATERAL: 4,
        ElementKind.TETRAHEDRON: 4,
        ElementKind.HEXAHEDRON: 6,
        ElementKind.PRISM: 5,
        ElementKind.PYRAMID: 5,
    }
    elem = reference_element(kind)
    assert len(elem.faces) == expected[kind]
    if kind is ElementKind.PRISM:
        kinds = [f.face_kind for f in elem.faces]
        assert kinds.count(ElementKind.TRIANGLE) == 2
        assert kinds.count(ElementKind.QUADRILATERAL) == 3
    if kind is ElementKind.PYRAMID:
        kinds = [f.face_kind for f in elem.faces]
        assert kinds.count(ElementKind.QUADRILATERAL) == 1
        assert kinds.count(ElementKind.TRIANGLE) == 4
    rng = np.random.default_rng(3)
    for face in elem.faces:
        dface = face.matrix.shape[1]
        if dface == 0:
            samples = np.zeros((1, 0))
        elif face.face_kind is ElementKind.TRIANGLE:
            # Feasible points of the bi-unit triangle in face coordinates.
            u = rng.uniform(0, 1, size=(50, 2))
            u = u[u.sum(axis=1) <= 1.0]
            samples = 2.0 * u - 1.0
        else:
            samples = rng.uniform(-1.0, 1.0, size=(50, dface))
        pts = face.embed(samples)
        assert np.all(contains(elem, pts, 1e-10))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_vertices_on_boundary(kind):
    elem = reference_element(kind)
    assert np.all(contains(elem, elem.vertices, 1e-12))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_faces_are_facets(kind):
    # A face lies on the boundary, not across the interior: its corners are
    # element vertices, one inequality row is tight at all of them, and every
    # vertex is a corner of at least dim faces.
    elem = reference_element(kind)
    rows = np.flatnonzero(elem.v_lower != elem.v_upper)  # not sum(lam) = 1
    on = np.zeros(len(elem.vertices), dtype=int)
    for face in elem.faces:
        if face.face_kind is None:
            ref = np.zeros((1, 0))
        else:
            ref = reference_element(face.face_kind).vertices
        corners = face.embed(ref)
        hits = [np.flatnonzero((elem.vertices == x).all(axis=1)) for x in corners]
        assert all(len(h) == 1 for h in hits), (face.face_kind, corners)
        on[np.concatenate(hits)] += 1
        y = np.atleast_2d(natural_solve(elem, corners)) @ elem.b_lambda.T
        tight = [
            np.all(np.abs(y[:, i] - bound) <= 1e-14)
            for i in rows
            for bound in (elem.v_lower[i], elem.v_upper[i])
            if np.isfinite(bound)
        ]
        assert any(tight), (face.face_kind, corners)
    assert np.all(on >= elem.dim), on
