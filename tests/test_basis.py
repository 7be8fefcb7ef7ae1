import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.spatial
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from symnodes.baselines import baseline_distribution
from symnodes.basis import (
    _BLOCK,
    _coordinates,
    _jacobi_norm,
    _sweep,
    FunctionSpace,
    LagrangeInterpolator,
    basis_eval_many,
    basis_eval_with_grad,
    basis_grad_many,
    degree_columns,
    lu_inverse,
)
from symnodes.errors import DegenerateDistributionError, UnisolvencyError
from symnodes.geometry import ElementKind, contains, node_count, reference_element
from symnodes.metrics import _objective
from symnodes.quadrature import quadrature_rule
from symnodes.symmetry import NodalDistribution

ALL_KINDS = list(ElementKind)


def _line_dist(nodes, p):
    return NodalDistribution(
        ElementKind.LINE, p, np.asarray(nodes, float).reshape(-1, 1), "test"
    )


def _random_interior(kind, n, seed=0):
    rng = np.random.default_rng(seed)
    elem = reference_element(kind)
    out = []
    while len(out) < n:
        x = rng.uniform(-0.999, 0.999, size=elem.dim)
        if contains(elem, x, 0.0):
            out.append(x)
    return np.array(out)


def _jacobi(n, a, b, x):
    """P_n^{(a,b)} at ``x``: the last entry of its unnormalized table row."""
    x = np.asarray(x, dtype=float)
    t = _sweep(n, ((float(a), float(b), False, n),), False, x.reshape(1, -1))
    return t[n, 0].reshape(x.shape)


def test_jacobi_values():
    assert _jacobi(0, 1.3, 0.2, 0.7) == 1.0
    assert _jacobi(1, 0.0, 0.0, 0.5) == pytest.approx(0.5)
    assert _jacobi(2, 0.0, 0.0, 1.0) == pytest.approx(1.0)
    # Legendre values at 1 are all 1.
    for n in range(8):
        assert _jacobi(n, 0.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-13)
    # Jacobi value at 1 is binom(n + a, n).
    assert _jacobi(2, 1.0, 0.0, 1.0) == pytest.approx(3.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("p", range(1, 10))
def test_dimension_matches_node_count(kind, p):
    assert FunctionSpace(kind, p).dim == node_count(kind, p)


def test_basis_eval_legendre_line():
    # Orthonormal Legendre at 0: 1/sqrt(2), sqrt(3/2) * 0, sqrt(5/2) * -1/2.
    sp = FunctionSpace(ElementKind.LINE, 2)
    np.testing.assert_allclose(
        basis_eval_many(sp, [[0.0]])[0],
        [1 / np.sqrt(2), 0.0, -np.sqrt(2.5) / 2],
        rtol=1e-15,
        atol=1e-15,
    )


def test_pyramid_constant_mode_is_constant_on_axis():
    sp = FunctionSpace(ElementKind.PYRAMID, 1)
    vals = basis_eval_many(sp, [[0, 0, -0.5], [0, 0, 0.2], [0, 0, 0.9]])
    col = 0  # (0,0,0) mode comes first in the index set
    v = vals[:, col]
    # P_000 has a Jacobi factor in z only through k; with k=0 it is constant.
    assert np.allclose(v, v[0])


def test_pyramid_space_size():
    sp = FunctionSpace(ElementKind.PYRAMID, 4)
    assert sp.dim == 55
    pts = _random_interior(ElementKind.PYRAMID, 4, seed=1)
    assert basis_eval_many(sp, pts).shape == (4, 55)


def test_vandermonde_examples():
    # Orthonormal Legendre P_0 = 1/sqrt(2), P_1 = sqrt(3/2) x at -1 and 1.
    sp = FunctionSpace(ElementKind.LINE, 1)
    v = basis_eval_many(sp, _line_dist([-1, 1], 1).nodes)
    a, b = 1 / np.sqrt(2), np.sqrt(1.5)
    np.testing.assert_allclose(v, [[a, -b], [a, b]], rtol=1e-15)
    assert np.linalg.det(v) == pytest.approx(np.sqrt(3.0), rel=1e-14)

    sp2 = FunctionSpace(ElementKind.LINE, 2)
    v2 = basis_eval_many(sp2, _line_dist([-1, 0, 1], 2).nodes)
    assert np.isfinite(np.linalg.cond(v2))
    assert abs(np.linalg.det(v2)) > 1e-10

    # Six triangle nodes on one edge: rank-deficient for the full space.
    sp3 = FunctionSpace(ElementKind.TRIANGLE, 2)
    xs = np.linspace(-1, 1, 6)
    dist = NodalDistribution(
        ElementKind.TRIANGLE,
        2,
        np.column_stack([xs, -np.ones(6)]),
        "degenerate",
    )
    v3 = basis_eval_many(sp3, dist.nodes)
    assert np.linalg.matrix_rank(v3, tol=1e-10) == 3
    with pytest.raises(UnisolvencyError, match="not positive definite"):
        LagrangeInterpolator(sp3, dist)

    with pytest.raises(ValueError):
        LagrangeInterpolator(sp3, _line_dist([-1, 0, 1], 2))


def _cardinal(interp, pts):
    """Cardinal function values at ``pts``: (n_points, n_nodes)."""
    return basis_eval_many(interp.space, pts) @ interp.inverse()


def test_lagrange_eval_examples():
    sp = FunctionSpace(ElementKind.LINE, 2)
    dist = _line_dist([-1, 0, 1], 2)
    interp = LagrangeInterpolator(sp, dist)
    np.testing.assert_allclose(
        _cardinal(interp, [[0.5]])[0], [-0.125, 0.75, 0.375], atol=1e-13
    )
    # Cardinal property at the nodes.
    for j, x in enumerate([-1.0, 0.0, 1.0]):
        e = np.zeros(3)
        e[j] = 1.0
        np.testing.assert_allclose(_cardinal(interp, [[x]])[0], e, atol=1e-13)


def test_lagrange_unisolvency_error():
    sp = FunctionSpace(ElementKind.LINE, 2)
    dist = _line_dist([-1, -1 + 1e-13, 1], 2)
    with pytest.raises(UnisolvencyError):
        LagrangeInterpolator(sp, dist)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_partition_of_unity_and_reproduction(kind, opt_cache):
    p = 3
    sp = FunctionSpace(kind, p)
    dist = opt_cache.dist(kind, p)
    interp = LagrangeInterpolator(sp, dist)
    pts = _random_interior(kind, 100, seed=2)
    L = _cardinal(interp, pts)
    np.testing.assert_allclose(L.sum(axis=1), 1.0, atol=1e-10)
    # Reproduction of random members of the space.
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=sp.dim)
    q_nodes = basis_eval_many(sp, dist.nodes) @ coeffs
    q_pts = basis_eval_many(sp, pts) @ coeffs
    np.testing.assert_allclose(L @ q_nodes, q_pts, atol=1e-9)


def _perturbed_uniform(kind, p, seed=0, amplitude=0.1):
    uni = baseline_distribution(kind, p, "uniform")
    shift = np.random.default_rng(seed).uniform(-1.0, 1.0, uni.nodes.shape)
    return NodalDistribution(
        kind, p, uni.nodes + amplitude / p * shift, "perturbed"
    )


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("p", range(1, 6))
def test_cardinal_gradients_match_finite_differences(kind, p):
    sp = FunctionSpace(kind, p)
    interp = LagrangeInterpolator(sp, _perturbed_uniform(kind, p))
    pts = _random_interior(kind, 12, seed=6)
    if kind is ElementKind.PYRAMID:
        pts = pts[pts[:, 2] < 0.85]
    grads = interp.eval_gradients(pts)
    assert grads.shape == (len(pts), sp.dim, pts.shape[1])
    scale = max(1.0, float(np.abs(grads).max()))
    # Partition of unity: the cardinal functions sum to 1, so their
    # gradients sum to 0.
    np.testing.assert_allclose(grads.sum(axis=1), 0.0, atol=1e-12 * scale)
    h = 1e-6
    for dd in range(pts.shape[1]):
        e = np.zeros(pts.shape[1])
        e[dd] = h
        fd = (_cardinal(interp, pts + e) - _cardinal(interp, pts - e)) / (2 * h)
        np.testing.assert_allclose(grads[:, :, dd], fd, atol=1e-8 * scale)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("p", range(1, 7))
def test_inverse_product_matches_transposed_lu_solve(kind, p):
    sp = FunctionSpace(kind, p)
    interp = LagrangeInterpolator(sp, _perturbed_uniform(kind, p, seed=p))
    lu = scipy.linalg.lu_factor(interp.matrix)
    pts = _random_interior(kind, 200, seed=3)
    ref = scipy.linalg.lu_solve(lu, basis_eval_many(sp, pts).T, trans=1).T
    tol = np.linalg.cond(interp.matrix) * 1e-14 * max(1.0, np.abs(ref).max())
    np.testing.assert_allclose(_cardinal(interp, pts), ref, rtol=0, atol=tol)
    # The objective is the same expression on the same factorization.
    A = scipy.linalg.lu_solve(lu, np.eye(sp.dim))
    assert _objective(interp) == float(np.einsum("ij,ij->", A, A))
    assert not interp.inverse().flags.writeable


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_orthonormal_mass_matrix(kind):
    p = 5
    sp = FunctionSpace(kind, p)
    rule = quadrature_rule(kind, 2 * p)
    phi = basis_eval_many(sp, rule.points)
    M = phi.T @ (rule.weights[:, None] * phi)
    off = M - np.diag(np.diag(M))
    assert np.max(np.abs(off)) < 1e-10
    if kind is not ElementKind.PYRAMID:
        np.testing.assert_allclose(np.diag(M), 1.0, atol=1e-10)


def test_pyramid_gram_condition():
    sp = FunctionSpace(ElementKind.PYRAMID, 6)
    rule = quadrature_rule(ElementKind.PYRAMID, 12)
    phi = basis_eval_many(sp, rule.points)
    M = phi.T @ (rule.weights[:, None] * phi)
    assert np.linalg.cond(M) < 1e12


def _away_from_boundary(kind, n, margin, seed):
    """``n`` random points at least ``margin`` from the boundary of the
    reference element (a convex polytope), by the distances to its facets."""
    V = reference_element(kind).vertices
    eq = (np.array([[1.0, -1.0], [-1.0, -1.0]]) if V.shape[1] == 1
          else scipy.spatial.ConvexHull(V).equations)  # unit normals
    pts = _random_interior(kind, 20 * n, seed)
    far = np.all(pts @ eq[:, :-1].T + eq[:, -1] <= -margin, axis=1)
    assert far.sum() >= n
    return pts[far][:n]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradients_match_finite_differences(kind):
    # Five-point differences with h = 1e-2 are exact up to rounding for
    # modes of degree <= 4 along each axis, which all but the pyramid's are;
    # the points lie 0.05 or more inside, beyond the stencil's 2h.  The
    # pyramid's modes are rational: central differences with h = 1e-6.
    for p in range(1, 5):
        sp = FunctionSpace(kind, p)
        pts = _away_from_boundary(kind, 10, 0.05, seed=5)
        g = basis_grad_many(sp, pts)
        d = pts.shape[1]
        for dd in range(d):
            e = np.zeros(d)
            e[dd] = 1.0
            if kind is ElementKind.PYRAMID:
                h = 1e-6
                fd = (basis_eval_many(sp, pts + h * e)
                      - basis_eval_many(sp, pts - h * e)) / (2 * h)
                np.testing.assert_allclose(g[:, :, dd], fd, atol=5e-7)
                continue
            h = 1e-2
            f = [basis_eval_many(sp, pts + s * h * e) for s in (-2, -1, 1, 2)]
            fd = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
            assert np.abs(g[:, :, dd] - fd).max() <= 1e-12 * np.abs(g).max()


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("p", [2, 5, 8])
def test_second_derivatives_match_differences_of_gradients(kind, p):
    # At random points and at the vertices moved 1e-3 of the way to the
    # centroid: near the collapsed vertices of the simplex coordinates and
    # the pyramid's apex, where its rational modes have second derivatives
    # of order 1 / (1 - z).
    sp = FunctionSpace(kind, p)
    V = reference_element(kind).vertices
    pts = np.vstack([
        V + 1e-3 * (V.mean(axis=0) - V), _random_interior(kind, 6, seed=3)
    ])
    H = basis_eval_with_grad(sp, pts)[1]()[1]
    d = pts.shape[1]
    assert H.shape == (len(pts), sp.dim, d, d)
    assert np.array_equal(H, H.transpose(0, 1, 3, 2))
    h = 1e-7
    fd = np.empty_like(H)
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        fd[..., k] = (
            basis_grad_many(sp, pts + e) - basis_grad_many(sp, pts - e)
        ) / (2 * h)
    scale = np.maximum(1.0, np.abs(fd).max(axis=(1, 2, 3)))
    assert np.all(np.abs(H - fd).max(axis=(1, 2, 3)) <= 1e-6 * scale)


# Every (a, b) family the shapes build table rows for: Legendre (line, quad,
# hex, triangle/tet a-factor, pyramid u/v), (2i+1, 0) (triangle and tet in
# b), (2(i+j)+2, 0) (tet in c), (2c+2, 0) (pyramid in z), and (1, 1) (the
# Legendre derivatives and the Gauss-Lobatto baseline).
JACOBI_FAMILIES = [
    ((0.0,), 0.0),
    (tuple(2.0 * i + 1.0 for i in range(11)), 0.0),
    (tuple(2.0 * s + 2.0 for s in range(11)), 0.0),
    (tuple(2.0 * (c + 1.0) for c in range(11)), 0.0),
    ((1.0,), 1.0),
]


@pytest.mark.parametrize("alphas,b", JACOBI_FAMILIES)
def test_jacobi_tables_match_scipy(alphas, b):
    n = 10
    x = np.linspace(-1.0, 1.0, 41)
    # One sweep: every value row, then every derivative row.
    rows = tuple((a, b, False, n) for a in alphas)
    rows += tuple((a, b, True, n - 1) for a in alphas)
    X = np.tile(x, (len(rows), 1))
    table = _sweep(n, rows, False, X)
    assert table.shape == (n + 1, 2 * len(alphas), x.size)
    for col, a in enumerate(alphas):
        dcol = len(alphas) + col
        for m in range(n + 1):
            ref = scipy.special.eval_jacobi(m, a, b, x)
            np.testing.assert_allclose(
                table[m, col], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max()
            )
            # The derivative of degree m sits at entry m - 1; P_0's, zero,
            # at the last entry.
            dref = scipy.special.jacobi(m, a, b).deriv()(x)
            scale = max(np.abs(dref).max(), 1.0)
            np.testing.assert_allclose(
                table[m - 1, dcol], dref, rtol=0, atol=1e-9 * scale
            )
    # A row stopped at a lower depth keeps the same entries up to it.
    short = tuple((a, b, False, n - q) for q, a in enumerate(alphas))
    staggered = _sweep(n, short, False, X[: len(alphas)])
    for col in range(len(alphas)):
        depth = n - col
        assert np.array_equal(
            staggered[: depth + 1, col], table[: depth + 1, col]
        )
        assert not staggered[depth + 1 :, col].any()


def _points_in(kind, weights):
    """Convex combinations of the element vertices (inside every shape)."""
    verts = reference_element(kind).vertices
    w = np.asarray(weights, dtype=float).reshape(-1, verts.shape[0]) + 1e-3
    return (w / w.sum(axis=1, keepdims=True)) @ verts


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(ALL_KINDS),
    st.integers(2, 9),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_lower_degree_basis_is_a_column_mask_of_a_higher(kind, top, seed, data):
    # The metrics take every row's V and Lebesgue scan from the basis at
    # the highest degree among the rows, so each mode must keep its bits
    # whatever the degree of its space, at the collapsed coordinates'
    # singular points too: the vertices (the pyramid's apex, the top of the
    # triangle and tetrahedron) and points on the edges, where the
    # tetrahedron's y + z = 0 or z = 1 and the triangle's y = 1.
    elem = reference_element(kind)
    top = min(top, 9 if elem.dim < 3 else 7)
    p = data.draw(st.integers(1, top - 1))
    rng = np.random.default_rng(seed)
    nv = elem.vertices.shape[0]
    ends = np.array(list(itertools.combinations(range(nv), 2)))
    t = rng.uniform(0.0, 1.0, (len(ends), 1))
    edges = (1 - t) * elem.vertices[ends[:, 0]] + t * elem.vertices[ends[:, 1]]
    pts = np.vstack([
        elem.vertices,
        edges,
        rng.dirichlet(np.ones(nv), 20) @ elem.vertices,
        _random_interior(kind, 20, seed),
    ])
    whole = basis_eval_many(FunctionSpace(kind, top), pts)
    cols = degree_columns(kind, top, p)
    assert len(cols) == node_count(kind, p)
    own = basis_eval_many(FunctionSpace(kind, p), pts)
    assert np.array_equal(whole[:, cols], own)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("p", range(1, 7))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_batched_rows_equal_single_point_rows(kind, p, data):
    nverts = reference_element(kind).vertices.shape[0]
    npts = data.draw(st.integers(2, 6))
    weights = data.draw(
        st.lists(
            st.floats(0.0, 1.0), min_size=npts * nverts, max_size=npts * nverts
        )
    )
    pts = _points_in(kind, weights)
    sp = FunctionSpace(kind, p)
    V = basis_eval_many(sp, pts)
    G = basis_grad_many(sp, pts)
    for r in range(npts):
        assert np.array_equal(V[r], basis_eval_many(sp, pts[r : r + 1])[0])
        assert np.array_equal(G[r], basis_grad_many(sp, pts[r : r + 1])[0])


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(max_examples=5, deadline=None)
@given(p=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_blocked_call_equals_concatenated_parts(kind, p, seed, data):
    # A set longer than one block (_BLOCK entries, points x modes), cut
    # anywhere: every part evaluated on its own gives the rows of the whole
    # call, bit for bit.
    sp = FunctionSpace(kind, p)
    step = max(1, _BLOCK // sp.dim)
    n = step + data.draw(st.integers(1, step))
    cuts = data.draw(st.lists(st.integers(1, n - 1), max_size=3))
    nverts = reference_element(kind).vertices.shape[0]
    weights = np.random.default_rng(seed).uniform(size=(n, nverts))
    pts = _points_in(kind, weights)
    parts = np.split(pts, sorted(cuts))
    for fn in (basis_eval_many, basis_grad_many):
        whole = fn(sp, pts)
        assert np.array_equal(whole, np.concatenate([fn(sp, q) for q in parts]))


def _closed_form_modes(kind, p, pts):
    """The modes of ``kind`` one at a time, each from its closed form, with
    the operands in the order the basis uses: the amplitude, the Jacobi
    factors, the powers, then the Legendre axes that vary fastest."""

    def ortho(n, a, x):
        return _jacobi(n, a, 0.0, x) / _jacobi_norm(n, a, 0.0)

    def triangle(a, b):
        return [
            np.sqrt(2.0) * ortho(i, 0.0, a) * ortho(j, 2.0 * i + 1.0, b)
            * (1.0 - b) ** i
            for i in range(p + 1)
            for j in range(p + 1 - i)
        ]

    coords = _coordinates(kind, pts)[0]
    cols = []
    if kind in (ElementKind.LINE, ElementKind.QUADRILATERAL, ElementKind.HEXAHEDRON):
        for idx in itertools.product(range(p + 1), repeat=pts.shape[1]):
            col = ortho(idx[0], 0.0, pts[:, 0])
            for n, x in zip(idx[1:], pts.T[1:]):
                col = col * ortho(n, 0.0, x)
            cols.append(col)
    elif kind is ElementKind.TRIANGLE:
        cols = triangle(*coords)
    elif kind is ElementKind.PRISM:
        for tri in triangle(*coords[:2]):
            cols += [tri * ortho(k, 0.0, pts[:, 2]) for k in range(p + 1)]
    elif kind is ElementKind.TETRAHEDRON:
        a, b, c = coords
        pb, pc = 0.5 * (1.0 - b), 0.5 * (1.0 - c)
        for i in range(p + 1):
            for j in range(p + 1 - i):
                amp = 2.0 * np.sqrt(2.0) * 2.0 ** (2 * i + j)
                fa, gb = ortho(i, 0.0, a), ortho(j, 2.0 * i + 1.0, b)
                for k in range(p + 1 - i - j):
                    hc = ortho(k, 2.0 * (i + j) + 2.0, c)
                    cols.append(amp * fa * gb * hc * pb**i * pc ** (i + j))
    else:
        u, v, z = coords
        w = 0.5 * (1.0 - z)
        for i in range(p + 1):
            for j in range(p + 1):
                c = max(i, j)
                fi, fj = _jacobi(i, 0.0, 0.0, u), _jacobi(j, 0.0, 0.0, v)
                for k in range(p + 1 - c):
                    den = (2 * i + 1) * (2 * j + 1) * (2 * k + 2 * c + 3)
                    amp = 1.0 / np.sqrt(8.0 / den)
                    hk = _jacobi(k, 2.0 * (c + 1.0), 0.0, z)
                    cols.append(amp * fi * fj * hk * w**c)
    return np.column_stack(cols)


def _collapse_points(kind):
    """Points where a collapsed coordinate meets its singular limit: the
    top edge of the prism, the tet edge x = -1, y + z = 0 and the pyramid
    apex, with points near it."""
    t = np.linspace(-1.0, 1.0, 5)[:, None]
    if kind is ElementKind.PRISM:
        return np.hstack([np.full_like(t, -1.0), np.ones_like(t), t])
    if kind is ElementKind.TETRAHEDRON:
        return np.hstack([np.full_like(t, -1.0), t, -t])
    if kind is ElementKind.PYRAMID:
        return np.array([[0.0, 0.0, 1.0], [1e-14, -1e-14, 1.0 - 2e-14],
                         [0.1, 0.05, 0.8]])
    return np.empty((0, reference_element(kind).dim))


@pytest.mark.parametrize(
    "kind,p",
    [pytest.param(kind, p, id=f"{p}-{kind.value}") for kind in ALL_KINDS
     for p in range(1, 10 if reference_element(kind).dim < 3 else 8)],
)
def test_gathered_modes_equal_closed_forms(kind, p):
    # The values keep the bits of the closed forms, powers as base**e and
    # the operands in form order, at interior points, at the vertices and
    # at the collapse points, also when taken from a table with derivative
    # rows (basis_eval_with_grad).
    pts = np.vstack([
        _random_interior(kind, 50, seed=p),
        reference_element(kind).vertices,
        _collapse_points(kind),
    ])
    sp = FunctionSpace(kind, p)
    ref = _closed_form_modes(kind, p, pts)
    assert np.isfinite(ref).all()
    assert np.array_equal(basis_eval_many(sp, pts), ref)
    assert np.array_equal(basis_eval_with_grad(sp, pts)[0], ref)


# ---------------------------------------------------------------------------
# One table for values and deferred gradients; the inverse helper
# ---------------------------------------------------------------------------


def _assert_same_as_separate_calls(sp, pts):
    values, gradients = basis_eval_with_grad(sp, pts)
    ref_v, ref_g = basis_eval_many(sp, pts), basis_grad_many(sp, pts)
    assert values.shape == ref_v.shape and np.array_equal(values, ref_v)
    g, H = gradients()
    assert g.shape == ref_g.shape and np.array_equal(g, ref_g)
    assert H.shape == ref_g.shape + ref_g.shape[-1:]


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("p", range(1, 10))
def test_one_table_equals_separate_value_and_gradient_calls(kind, p):
    # The value rows of a table with derivative rows hold the same bits as
    # those of a value-only table, at the collapse singularities too.
    sp = FunctionSpace(kind, p)
    nodes = baseline_distribution(kind, p, "uniform").nodes
    shift = np.random.default_rng(p).uniform(-1.0, 1.0, nodes.shape)
    elem = reference_element(kind)
    for pts in (nodes, nodes + 0.1 / p * shift, elem.vertices):
        _assert_same_as_separate_calls(sp, pts)
    values, gradients = basis_eval_with_grad(sp, np.zeros((0, elem.dim)))
    assert values.shape == (0, sp.dim)
    g, H = gradients()
    assert g.shape == (0, sp.dim, elem.dim)
    assert H.shape == (0, sp.dim, elem.dim, elem.dim)


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(max_examples=10, deadline=None)
@given(p=st.integers(1, 9), data=st.data())
def test_one_table_equals_separate_calls_at_random_points(kind, p, data):
    nverts = reference_element(kind).vertices.shape[0]
    npts = data.draw(st.integers(1, 40))
    weights = data.draw(
        st.lists(
            st.floats(0.0, 1.0), min_size=npts * nverts, max_size=npts * nverts
        )
    )
    pts = _points_in(kind, weights)
    _assert_same_as_separate_calls(FunctionSpace(kind, p), pts)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_deferred_gradients_keep_their_own_points(kind):
    # A callable called after later evaluations, and after its caller reused
    # the point array, still returns the gradients and second derivatives
    # at its own points.
    sp = FunctionSpace(kind, 5)
    first = _random_interior(kind, 30, seed=1)
    expected = basis_eval_with_grad(sp, first.copy())[1]()
    assert np.array_equal(expected[0], basis_grad_many(sp, first))
    _, gradients = basis_eval_with_grad(sp, first)
    first[...] = _random_interior(kind, 30, seed=2)
    for seed in (3, 4):
        _, later = basis_eval_with_grad(sp, _random_interior(kind, 30, seed))
        later()
    for _ in range(2):
        for got, want in zip(gradients(), expected, strict=True):
            assert np.array_equal(got, want)


def _lu_reference(M):
    return scipy.linalg.lu_solve(scipy.linalg.lu_factor(M), np.eye(len(M)))


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("p", range(1, 7))
def test_lu_inverse_equals_scipy_lu_solve(kind, p):
    sp = FunctionSpace(kind, p)
    V = basis_eval_many(sp, _perturbed_uniform(kind, p, seed=p).nodes)
    inv = lu_inverse(V)
    assert np.array_equal(inv, _lu_reference(V))
    # A non-contiguous column block, as the optimizer's ``WM[:, k:]``.
    n = V.shape[0]
    k = max(1, n // 3)
    Q, _ = np.linalg.qr(np.random.default_rng(p).standard_normal((n, n)))
    WM = V[k:] @ Q
    M = WM[:, k:]
    assert n - k == 1 or not (M.flags.c_contiguous or M.flags.f_contiguous)
    assert np.array_equal(lu_inverse(M), _lu_reference(M))


def test_lu_inverse_edge_cases():
    with pytest.raises(DegenerateDistributionError, match="not finite"):
        lu_inverse(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(DegenerateDistributionError, match="not finite"):
        lu_inverse(np.array([[np.inf]]))
    # An exactly singular matrix gives a non-finite inverse, silently.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inv = lu_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert not np.all(np.isfinite(inv))
    assert lu_inverse(np.zeros((0, 0))).shape == (0, 0)
