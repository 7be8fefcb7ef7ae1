import numpy as np
import pytest
import scipy.special

from symnodes.baselines import BaselineKind, baseline_distribution, gll_1d
from symnodes.compatibility import FacePrescription, verify_face_match
from symnodes.errors import UnsupportedBaselineError
from symnodes.geometry import (
    ElementKind,
    natural_to_cartesian,
    node_count,
    reference_element,
)
from symnodes.symmetry import cartesian_symmetry_group

ALL_KINDS = list(ElementKind)


def test_gll_examples():
    np.testing.assert_allclose(gll_1d(1), [-1, 1])
    np.testing.assert_allclose(gll_1d(2), [-1, 0, 1], atol=1e-15)
    s = np.sqrt(1.0 / 5.0)
    np.testing.assert_allclose(gll_1d(3), [-1, -s, s, 1], atol=1e-15)


@pytest.mark.parametrize("p", [2, 5, 9, 14, 20, 30])
def test_gll_residual_and_interlacing(p):
    nodes = gll_1d(p)
    assert nodes[0] == -1.0 and nodes[-1] == 1.0
    np.testing.assert_allclose(nodes, -nodes[::-1], atol=1e-15)
    interior = nodes[1:-1]
    # (1 - x^2) P_p'(x) = p (P_{p-1}(x) - x P_p(x)).
    legendre = scipy.special.eval_legendre
    resid = p * (legendre(p - 1, interior) - interior * legendre(p, interior))
    assert np.max(np.abs(resid)) <= 1e-13
    # Interlacing with the Legendre roots of the same degree.
    from symnodes.quadrature import gauss_legendre_1d

    roots, _ = gauss_legendre_1d(p)
    assert np.all(interior > roots[:-1]) and np.all(interior < roots[1:])


def test_baseline_examples():
    quad = baseline_distribution(ElementKind.QUADRILATERAL, 2, "gll")
    got = sorted(map(tuple, quad.nodes.tolist()))
    grid = sorted(
        (x, y) for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0)
    )
    assert got == grid

    tri = baseline_distribution(ElementKind.TRIANGLE, 2, "uniform")
    expected = {
        (-1, -1), (1, -1), (-1, 1),  # vertices
        (0, -1), (-1, 0), (0, 0),  # edge midpoints
    }
    got = {tuple(np.round(n, 12)) for n in tri.nodes}
    assert got == {(float(a), float(b)) for a, b in expected}

    pyr = baseline_distribution(ElementKind.PYRAMID, 1, "uniform")
    assert pyr.count == 5
    got = {tuple(np.round(n, 12)) for n in pyr.nodes}
    assert (0.0, 0.0, 1.0) in got


def test_gll_rejected_off_tensor_shapes():
    for kind in (
        ElementKind.TRIANGLE,
        ElementKind.TETRAHEDRON,
        ElementKind.PRISM,
        ElementKind.PYRAMID,
    ):
        with pytest.raises(UnsupportedBaselineError):
            baseline_distribution(kind, 2, BaselineKind.GLL)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_uniform_counts_and_symmetry(kind, p):
    dist = baseline_distribution(kind, p, "uniform")
    assert dist.count == node_count(kind, p)
    for A, b in cartesian_symmetry_group(kind):
        mapped = dist.nodes @ A.T + b
        assert _match(mapped, dist.nodes, 1e-12)


def _match(a, b, tol):
    used = np.zeros(len(b), dtype=bool)
    for x in a:
        d = np.linalg.norm(b - x, axis=1)
        d[used] = np.inf
        j = int(np.argmin(d))
        if d[j] > tol:
            return False
        used[j] = True
    return True


def test_baseline_face_restriction():
    # Tensor GLL restricts to GLL on faces; uniform restricts to uniform.
    hexa = reference_element(ElementKind.HEXAHEDRON)
    hex_gll = baseline_distribution(ElementKind.HEXAHEDRON, 3, "gll")
    quad_gll = baseline_distribution(ElementKind.QUADRILATERAL, 3, "gll")
    assert verify_face_match(
        hexa, hex_gll, [FacePrescription(ElementKind.QUADRILATERAL, quad_gll)]
    )
    prism = reference_element(ElementKind.PRISM)
    pu = baseline_distribution(ElementKind.PRISM, 3, "uniform")
    tu = baseline_distribution(ElementKind.TRIANGLE, 3, "uniform")
    qu = baseline_distribution(ElementKind.QUADRILATERAL, 3, "uniform")
    assert verify_face_match(
        prism,
        pu,
        [
            FacePrescription(ElementKind.TRIANGLE, tu),
            FacePrescription(ElementKind.QUADRILATERAL, qu),
        ],
    )
    pyr = reference_element(ElementKind.PYRAMID)
    pyu = baseline_distribution(ElementKind.PYRAMID, 2, "uniform")
    tu2 = baseline_distribution(ElementKind.TRIANGLE, 2, "uniform")
    qu2 = baseline_distribution(ElementKind.QUADRILATERAL, 2, "uniform")
    assert verify_face_match(
        pyr,
        pyu,
        [
            FacePrescription(ElementKind.TRIANGLE, tu2),
            FacePrescription(ElementKind.QUADRILATERAL, qu2),
        ],
    )


def _reference_rows(kind, p, which):
    """The baseline rows written out with nested loops and meshgrids: the
    order that node files and orbit entries depend on."""
    axis = (
        gll_1d(p) if which == "gll" else np.linspace(-1.0, 1.0, p + 1)
    )
    if kind is ElementKind.LINE:
        return axis.reshape(-1, 1)
    if kind is ElementKind.QUADRILATERAL:
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])
    if kind is ElementKind.HEXAHEDRON:
        return np.array([(x, y, z) for x in axis for y in axis for z in axis])
    if kind is ElementKind.TRIANGLE:
        lam = [
            (i, j, p - i - j) for i in range(p + 1) for j in range(p + 1 - i)
        ]
    if kind is ElementKind.TETRAHEDRON:
        lam = [
            (i, j, k, p - i - j - k)
            for i in range(p + 1)
            for j in range(p + 1 - i)
            for k in range(p + 1 - i - j)
        ]
    if kind in (ElementKind.TRIANGLE, ElementKind.TETRAHEDRON):
        lam = np.array(lam, dtype=float) / p
        return natural_to_cartesian(reference_element(kind), lam)
    if kind is ElementKind.PRISM:
        tri = _reference_rows(ElementKind.TRIANGLE, p, which)
        return np.array([(x, y, z) for z in axis for x, y in tri])
    layers = []
    for k in range(p + 1):
        z = -1.0 + 2.0 * k / p
        half = 0.5 * (1.0 - z)
        side = np.linspace(-half, half, p - k + 1) if k < p else [0.0]
        layers += [(x, y, z) for x in side for y in side]
    return np.array(layers)


@pytest.mark.parametrize(
    "kind,which",
    [(kind, "uniform") for kind in ALL_KINDS]
    + [
        (kind, "gll")
        for kind in (
            ElementKind.LINE, ElementKind.QUADRILATERAL, ElementKind.HEXAHEDRON
        )
    ],
)
def test_baseline_row_order(kind, which):
    top = 6 if reference_element(kind).dim < 3 else 4
    for p in range(1, top + 1):
        got = baseline_distribution(kind, p, which).nodes
        assert np.array_equal(got, _reference_rows(kind, p, which)), p
