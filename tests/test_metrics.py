import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from scipy.spatial import KDTree
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symnodes.baselines import baseline_distribution
from symnodes.basis import FunctionSpace, LagrangeInterpolator, basis_eval_many
from symnodes.errors import SymnodesError, UnisolvencyError
from symnodes.geometry import ElementKind, reference_element
from symnodes.metrics import (
    _EXTRUDED as EXTRUDED_BASE,
    _SYMMETRY_TOL,
    _axis,
    _chamber,
    _extruded_max,
    _flat_maxima,
    _interpolator,
    _lattice,
    evaluate_metrics,
    is_unisolvent,
    lebesgue_constant,
    lebesgue_objective,
    mass_matrix,
)
from symnodes.quadrature import quadrature_rule
from symnodes.symmetry import (
    ConstrainedOrbit,
    NodalDistribution,
    OrbitCollection,
    cartesian_symmetry_group,
    evaluate_collection,
    is_symmetric,
    natural_symmetry_group,
    orbits,
)


def _line_dist(nodes, p):
    return NodalDistribution(
        ElementKind.LINE, p, np.asarray(nodes, float).reshape(-1, 1), "test"
    )


def symbolic_line_objective(nodes):
    """Independent oracle: sum of integrals of squared Lagrange functions."""
    x = sp.symbols("x")
    total = sp.Integer(0)
    for i, xi in enumerate(nodes):
        l = sp.prod(
            [
                (x - xj) / (xi - xj)
                for j, xj in enumerate(nodes)
                if j != i
            ]
        )
        total += sp.integrate(sp.expand(l**2), (x, -1, 1))
    return total


def symbolic_line_mass(nodes):
    x = sp.symbols("x")
    n = len(nodes)
    ls = []
    for i, xi in enumerate(nodes):
        ls.append(
            sp.prod(
                [(x - xj) / (xi - xj) for j, xj in enumerate(nodes) if j != i]
            )
        )
    M = sp.zeros(n, n)
    for i in range(n):
        for j in range(n):
            M[i, j] = sp.integrate(sp.expand(ls[i] * ls[j]), (x, -1, 1))
    return M


def dense_lebesgue_1d(nodes, samples=2_000_001):
    """Brute-force sampling oracle independent of the library code paths."""
    nodes = np.asarray(nodes, float)
    xs = np.linspace(-1.0, 1.0, samples)
    total = np.zeros_like(xs)
    for i, xi in enumerate(nodes):
        l = np.ones_like(xs)
        for j, xj in enumerate(nodes):
            if j != i:
                l *= (xs - xj) / (xi - xj)
        total += np.abs(l)
    return float(total.max())


def test_lebesgue_constant_examples():
    sp1 = FunctionSpace(ElementKind.LINE, 1)
    assert lebesgue_constant(sp1, _line_dist([-1, 1], 1)) == pytest.approx(
        1.0, abs=1e-12
    )
    sp2 = FunctionSpace(ElementKind.LINE, 2)
    got = lebesgue_constant(sp2, _line_dist([-1, 0, 1], 2), resolution=1000)
    oracle = dense_lebesgue_1d([-1, 0, 1])
    assert oracle == pytest.approx(1.25, abs=1e-10)
    assert got == pytest.approx(oracle, abs=1e-6)


def test_lebesgue_runge_growth():
    p = 10
    nodes = np.linspace(-1, 1, p + 1)
    spp = FunctionSpace(ElementKind.LINE, p)
    got = lebesgue_constant(spp, _line_dist(nodes, p), resolution=1000)
    assert got >= 25.0
    assert got == pytest.approx(dense_lebesgue_1d(nodes), rel=1e-4)


def test_lebesgue_does_not_fall_on_nested_lattices():
    # linspace(-1, 1, 2r - 1) holds every point of linspace(-1, 1, r), up
    # to the last bits of linspace, so the lattice maximum cannot fall.  As
    # the constant is >= 1, the absolute 1e-12 is also a relative bound.
    spp = FunctionSpace(ElementKind.TRIANGLE, 3)
    tri = orbits(ElementKind.TRIANGLE)
    ent = lambda o: ConstrainedOrbit(o)
    coll = OrbitCollection(
        ElementKind.TRIANGLE, 3, (ent(tri[0]), ent(tri[1]), ent(tri[2]))
    )
    cases = [(spp, evaluate_collection(coll, [0.3, 0.35, 0.12]), 26)]
    for kind in ElementKind:
        p, r = (5, 11) if reference_element(kind).dim < 3 else (3, 7)
        dist = baseline_distribution(kind, p, "uniform")
        cases.append((FunctionSpace(kind, p), dist, r))
    for spp, dist, r in cases:
        lo = lebesgue_constant(spp, dist, resolution=r)
        for _ in range(2):
            r = 2 * r - 1
            hi = lebesgue_constant(spp, dist, resolution=r)
            assert hi >= lo - 1e-12
            lo = hi


def test_lebesgue_not_monotone_in_resolution():
    # Lattices that do not nest can lower the maximum: the value is only a
    # lower bound.
    cases = [
        (ElementKind.QUADRILATERAL, 6, 20, 23),
        (ElementKind.TRIANGLE, 5, 40, 41),
    ]
    for kind, p, r1, r2 in cases:
        spp = FunctionSpace(kind, p)
        dist = baseline_distribution(kind, p, "uniform")
        lo = lebesgue_constant(spp, dist, resolution=r1)
        hi = lebesgue_constant(spp, dist, resolution=r2)
        assert hi < lo * (1.0 - 1e-4)


def test_lebesgue_objective_examples():
    sp1 = FunctionSpace(ElementKind.LINE, 1)
    got = lebesgue_objective(sp1, _line_dist([-1, 1], 1))
    oracle = float(symbolic_line_objective([-1, 1]))
    assert oracle == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert got == pytest.approx(oracle, abs=1e-13)

    sp2 = FunctionSpace(ElementKind.LINE, 2)
    got2 = lebesgue_objective(sp2, _line_dist([-1, 0, 1], 2))
    oracle2 = float(symbolic_line_objective([-1, 0, 1]))
    assert oracle2 == pytest.approx(8.0 / 5.0, abs=1e-15)
    assert got2 == pytest.approx(oracle2, abs=1e-13)


def test_mass_matrix_examples():
    sp1 = FunctionSpace(ElementKind.LINE, 1)
    M, cond = mass_matrix(sp1, _line_dist([-1, 1], 1))
    oracle = np.array(symbolic_line_mass([-1, 1]), dtype=float)
    np.testing.assert_allclose(M, oracle, atol=1e-14)
    np.testing.assert_allclose(oracle, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
    assert cond == pytest.approx(3.0, abs=1e-10)


@pytest.mark.parametrize(
    "kind,p", [(ElementKind.LINE, 4), (ElementKind.TRIANGLE, 3),
               (ElementKind.PYRAMID, 2)]
)
def test_mass_trace_and_sum_identities(kind, p, opt_cache):
    spp = FunctionSpace(kind, p)
    dist = opt_cache.dist(kind, p)
    M, _ = mass_matrix(spp, dist)
    obj = lebesgue_objective(spp, dist)
    assert np.trace(M) == pytest.approx(obj, abs=1e-10)
    measure = reference_element(kind).measure
    assert float(np.sum(M)) == pytest.approx(measure, abs=1e-10)


def test_objective_invariant_under_symmetry_maps(opt_cache):
    kind, p = ElementKind.TRIANGLE, 4
    spp = FunctionSpace(kind, p)
    dist = opt_cache.dist(kind, p)
    base = lebesgue_objective(spp, dist)
    rng = np.random.default_rng(0)
    perm = rng.permutation(dist.count)
    shuffled = NodalDistribution(kind, p, dist.nodes[perm], "shuffled")
    assert lebesgue_objective(spp, shuffled) == pytest.approx(
        base, abs=1e-10
    )
    for A, b in cartesian_symmetry_group(kind)[:3]:
        mapped = NodalDistribution(kind, p, dist.nodes @ A.T + b, "mapped")
        assert lebesgue_objective(spp, mapped) == pytest.approx(
            base, abs=1e-10
        )


@pytest.mark.parametrize(
    "kind,p,optimized",
    [(ElementKind.HEXAHEDRON, 3, False), (ElementKind.TRIANGLE, 4, True)],
)
def test_scalar_metrics_identical_under_node_permutation(
    kind, p, optimized, opt_cache
):
    spp = FunctionSpace(kind, p)
    if optimized:
        dist = opt_cache.dist(kind, p)
    else:
        dist = baseline_distribution(kind, p, "uniform")

    def scalars(d):
        _, cond = mass_matrix(spp, d)
        return (
            lebesgue_constant(spp, d, resolution=20),
            lebesgue_objective(spp, d),
            cond,
            is_unisolvent(spp, d),
        )

    M, _ = mass_matrix(spp, dist)
    base = scalars(dist)
    rng = np.random.default_rng(7)
    perms = [np.arange(dist.count)[::-1]]
    perms += [rng.permutation(dist.count) for _ in range(3)]
    for perm in perms:
        shuffled = NodalDistribution(kind, p, dist.nodes[perm], "shuffled")
        assert scalars(shuffled) == base
        M_perm, _ = mass_matrix(spp, shuffled)
        assert np.array_equal(M_perm, M[np.ix_(perm, perm)])


def test_is_unisolvent_examples():
    sp2 = FunctionSpace(ElementKind.LINE, 2)
    assert is_unisolvent(sp2, _line_dist([-1, 0, 1], 2))
    assert not is_unisolvent(sp2, _line_dist([-1, -1, 1], 2))


def test_is_unisolvent_rejects_conic_sextet():
    # Six nodes from a single full triangle orbit lie on a conic, so the
    # quadratic space is never unisolvent on them.
    tri = orbits(ElementKind.TRIANGLE)
    ent = ConstrainedOrbit(tri[2])
    coll = OrbitCollection(ElementKind.TRIANGLE, 2, (ent,))
    dist = evaluate_collection(coll, [0.22, 0.31])
    sp2 = FunctionSpace(ElementKind.TRIANGLE, 2)
    assert not is_unisolvent(sp2, dist)


def test_evaluate_metrics_bundle():
    spp = FunctionSpace(ElementKind.LINE, 2)
    report = evaluate_metrics(spp, _line_dist([-1, 0, 1], 2))
    assert report.lebesgue_constant >= 1.0
    assert report.mass_condition >= 1.0
    assert report.lebesgue_objective > 0.0
    assert report.resolution == 1000


_EXTRUDED = [
    (ElementKind.QUADRILATERAL, ElementKind.LINE),
    (ElementKind.HEXAHEDRON, ElementKind.QUADRILATERAL),
    (ElementKind.PRISM, ElementKind.TRIANGLE),
]


@pytest.mark.parametrize(
    "kind,base,r",
    [(k, b, r) for k, b in _EXTRUDED for r in (2, 3, 7, 20, 60)]
    + [(ElementKind.QUADRILATERAL, ElementKind.LINE, 300)],
)
def test_extruded_lattice_is_base_times_axis(kind, base, r):
    # The factorized scan walks the base lattice times the axis, the axis
    # fastest; it must be the same lattice, row for row.
    base_pts = _lattice(base, r)
    axis = np.linspace(-1.0, 1.0, r)
    product = np.column_stack(
        [np.repeat(base_pts, r, axis=0), np.tile(axis, len(base_pts))]
    )
    assert np.array_equal(_lattice(kind, r), product)


@pytest.mark.parametrize(
    "kind,base,p",
    [(k, b, p) for k, b in _EXTRUDED
     for p in range(1, 10 if k is ElementKind.QUADRILATERAL else 6)],
)
def test_extruded_basis_is_rowwise_kronecker(kind, base, p):
    # Mode (m, k) of the extruded kind is base mode m times the k-th
    # normalized Legendre polynomial in the last coordinate, k fastest.
    elem = reference_element(kind)
    rng = np.random.default_rng(p)
    pts = np.vstack([
        elem.vertices,
        quadrature_rule(kind, 2 * p).points,
        rng.uniform(-1.0, 1.0, (50, elem.dim)),
    ])
    base_table = basis_eval_many(FunctionSpace(base, p), pts[:, :-1])
    line = basis_eval_many(FunctionSpace(ElementKind.LINE, p), pts[:, -1:])
    kron = (base_table[:, :, None] * line[:, None, :]).reshape(len(pts), -1)
    assert np.array_equal(basis_eval_many(FunctionSpace(kind, p), pts), kron)


def _flat_lebesgue(spp, dist, r):
    """max(sum(|phi(lattice + extra) @ V^-1|)) with the nodes as given."""
    elem = reference_element(spp.kind)
    pts = np.vstack([
        _lattice(spp.kind, r),
        elem.vertices,
        quadrature_rule(spp.kind, 2 * spp.degree).points,
    ])
    L = basis_eval_many(spp, pts) @ LagrangeInterpolator(spp, dist).inverse()
    return float(np.max(np.sum(np.abs(L), axis=1)))


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from([k for k, _ in _EXTRUDED]),
    p=st.integers(1, 9),
    r=st.integers(2, 25),
    seed=st.integers(0, 2**32 - 1),
    amplitude=st.floats(0.01, 0.25),
)
def test_factorized_scan_matches_flat_product(kind, p, r, seed, amplitude):
    # Perturbed nodes break every symmetry; the factorized scan reorders
    # the sums, so it agrees with the flat product only to rounding.
    if reference_element(kind).dim == 3:
        p = 1 + p % 4
    rng = np.random.default_rng(seed)
    uni = baseline_distribution(kind, p, "uniform")
    shift = rng.uniform(-1.0, 1.0, uni.nodes.shape)
    dist = NodalDistribution(kind, p, uni.nodes + amplitude / p * shift, "x")
    spp = FunctionSpace(kind, p)
    assume(is_unisolvent(spp, dist))
    got = lebesgue_constant(spp, dist, resolution=r)
    assert got == pytest.approx(_flat_lebesgue(spp, dist, r), rel=1e-13)
    perm = rng.permutation(dist.count)
    shuffled = NodalDistribution(kind, p, dist.nodes[perm], "shuffled")
    assert lebesgue_constant(spp, shuffled, resolution=r) == got


@pytest.mark.parametrize(
    "kind,poison",
    [
        (ElementKind.QUADRILATERAL, "inverse"),
        (ElementKind.HEXAHEDRON, "table"),
    ],
)
def test_factorized_scan_carries_nan(kind, poison, monkeypatch):
    # One NaN in V^-1 or in the base table reaches only the lattice part
    # of the scan; the extra points stay finite.
    import symnodes.metrics as metrics

    spp = FunctionSpace(kind, 2)
    dist = baseline_distribution(kind, 2, "uniform")
    assert is_unisolvent(spp, dist)
    if poison == "inverse":
        real_inverse = LagrangeInterpolator.inverse

        def poisoned(self):
            A = real_inverse(self).copy()
            A[3, 5] = np.nan
            return A

        monkeypatch.setattr(LagrangeInterpolator, "inverse", poisoned)
    else:
        real_basis = metrics._basis

        def poisoned(space, shape, order, tables, out=None):
            table = real_basis(space, shape, order, tables, out)
            if space.kind is ElementKind.QUADRILATERAL:
                table[-1, 0] = np.nan
            return table

        monkeypatch.setattr(metrics, "_basis", poisoned)
    assert not is_unisolvent(spp, dist)
    assert np.isnan(lebesgue_constant(spp, dist, resolution=20))


def _pinned_pyramid_draw():
    # A pyramid p=5 node pushed near the apex and out of the element gives
    # cond(V) 2.5e9, at which the mass matrix is not positive definite.
    kind, p = ElementKind.PYRAMID, 5
    uni = baseline_distribution(kind, p, "uniform")
    shift = np.random.default_rng(361231056).uniform(-1.0, 1.0, uni.nodes.shape)
    dist = NodalDistribution(kind, p, uni.nodes + 0.25 / p * shift, "perturbed")
    return FunctionSpace(kind, p), dist


def test_screen_rejects_sets_without_a_mass_condition():
    # The mass matrix is not positive definite, so no metric is defined
    # and the screen must not pass the set.
    spp, dist = _pinned_pyramid_draw()
    assert 1e7 < np.linalg.cond(basis_eval_many(spp, dist.nodes)) < 1e12
    with pytest.raises(UnisolvencyError, match="not positive definite"):
        LagrangeInterpolator(spp, dist)
    with pytest.raises(UnisolvencyError, match="not positive definite"):
        mass_matrix(spp, dist)
    assert not is_unisolvent(spp, dist)


_METRICS = (
    LagrangeInterpolator,
    lambda spp, dist: lebesgue_constant(spp, dist, resolution=20),
    lebesgue_objective,
    mass_matrix,
    lambda spp, dist: evaluate_metrics(spp, dist, resolution=20),
)


def _refuses(metric, spp, dist):
    try:
        metric(spp, dist)
    except UnisolvencyError:
        return True
    return False


def _assert_one_refusal(spp, dist):
    """Every public metric raises UnisolvencyError and the screen says
    False, or every metric succeeds and the screen says True."""
    refused = [_refuses(metric, spp, dist) for metric in _METRICS]
    assert refused == [refused[0]] * len(_METRICS)
    assert is_unisolvent(spp, dist) is not refused[0]
    return refused[0]


def test_every_metric_refuses_the_pinned_draw():
    assert _assert_one_refusal(*_pinned_pyramid_draw())


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(list(ElementKind)),
    p=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    amplitude=st.floats(0.25, 8.0),
)
def test_every_metric_refuses_the_same_sets(kind, p, seed, amplitude):
    uni = baseline_distribution(kind, p, "uniform")
    shift = np.random.default_rng(seed).uniform(-1.0, 1.0, uni.nodes.shape)
    nodes = uni.nodes + amplitude / p * shift
    dist = NodalDistribution(kind, p, nodes, "perturbed")
    _assert_one_refusal(FunctionSpace(kind, p), dist)


def test_refused_set_costs_no_lebesgue_scan(monkeypatch):
    import symnodes.metrics as metrics

    calls = []
    real_basis = metrics._basis

    def counting(*args, **kwargs):
        calls.append(1)
        return real_basis(*args, **kwargs)

    monkeypatch.setattr(metrics, "_basis", counting)
    spp, dist = _pinned_pyramid_draw()
    with pytest.raises(SymnodesError, match="not positive definite"):
        evaluate_metrics(spp, dist)
    assert not is_unisolvent(spp, dist)
    assert len(calls) == 0


def test_failed_svd_refuses_the_set(monkeypatch, tmp_path, capsys):
    from symnodes.cli import main
    from symnodes.nodefile import write_node_file

    kind, p = ElementKind.TRIANGLE, 3
    spp, dist = FunctionSpace(kind, p), baseline_distribution(kind, p, "uniform")
    path = tmp_path / "tri_p3.nodes"
    write_node_file(path, dist)

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing)
    with pytest.raises(UnisolvencyError, match="SVD did not converge"):
        LagrangeInterpolator(spp, dist)
    assert not is_unisolvent(spp, dist)
    capsys.readouterr()
    assert main(["evaluate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "SVD did not converge" in err
    assert "Traceback" not in err


def test_screen_rejects_non_finite_cardinal_values(monkeypatch):
    # A NaN in the scan's basis table makes the cardinal values at that
    # point NaN; the interpolator's Vandermonde matrix stays finite.
    import symnodes.metrics as metrics

    spp = FunctionSpace(ElementKind.TRIANGLE, 3)
    dist = baseline_distribution(ElementKind.TRIANGLE, 3, "uniform")
    assert is_unisolvent(spp, dist)
    real_basis = metrics._basis

    def poisoned(space, shape, order, tables, out=None):
        table = real_basis(space, shape, order, tables, out)
        table[-1, 0] = np.nan
        return table

    monkeypatch.setattr(metrics, "_basis", poisoned)
    assert not is_unisolvent(spp, dist)
    assert np.isnan(lebesgue_constant(spp, dist, resolution=20))


@pytest.mark.parametrize(
    "kind,p", [(ElementKind.TRIANGLE, 4), (ElementKind.PYRAMID, 3)]
)
def test_evaluate_metrics_builds_one_interpolator(kind, p, monkeypatch):
    import symnodes.metrics as metrics

    spp = FunctionSpace(kind, p)
    dist = baseline_distribution(kind, p, "uniform")
    built = []
    real = metrics.LagrangeInterpolator

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    scans = []
    real_max = metrics._lebesgue_maxima

    def counting_scan(space, rows, symmetric, resolution):
        scans.append(resolution)
        return real_max(space, rows, symmetric, resolution)

    monkeypatch.setattr(metrics, "LagrangeInterpolator", counting)
    monkeypatch.setattr(metrics, "_lebesgue_maxima", counting_scan)
    report = evaluate_metrics(spp, dist, resolution=20)
    assert len(built) == 1
    # One lattice scan: no unisolvency screen rides along.
    assert scans == [20]
    # The shared interpolator gives the per-metric functions' floats.
    assert report.lebesgue_constant == lebesgue_constant(spp, dist, 20)
    assert report.lebesgue_objective == lebesgue_objective(spp, dist)
    assert report.mass_condition == mass_matrix(spp, dist)[1]


@pytest.mark.parametrize("kind", list(ElementKind))
@pytest.mark.parametrize("p", range(1, 7))
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.0, 0.25))
def test_vandermonde_identities_match_quadrature(kind, p, seed, amplitude):
    # Quadrature is the independent oracle: with L the cardinal values at
    # the points of an exact degree-2p rule, sum_i integral(l_i^2) is
    # sum_q w_q L_q.L_q and the mass matrix is L^T W L.  L is built from the
    # V^-1 the metrics factor (nodes in canonical order, mapped back): a
    # second factorization in another node order differs from it by about
    # eps * cond(V), which on near-singular draws passes the 1e-12 bound
    # for reasons unrelated to the identities.
    uni = baseline_distribution(kind, p, "uniform")
    shift = np.random.default_rng(seed).uniform(-1.0, 1.0, uni.nodes.shape)
    nodes = uni.nodes + amplitude / p * shift
    dist = NodalDistribution(kind, p, nodes, "perturbed")
    spp = FunctionSpace(kind, p)
    assume(is_unisolvent(spp, dist))
    rule = quadrature_rule(kind, 2 * p)
    order, interp = _interpolator(spp, dist)
    inverse = interp.inverse()[:, np.argsort(order)]
    # That V^-1, mapped back, inverts V at the caller's nodes, V built here:
    # a residual of the backward-stable solve, n eps |V| |V^-1| at most.
    V = basis_eval_many(spp, dist.nodes)
    residual = np.linalg.norm(V @ inverse - np.eye(len(V)))
    eps = np.finfo(float).eps
    assert residual <= len(V) * eps * np.linalg.norm(V) * np.linalg.norm(
        inverse
    )
    L = basis_eval_many(spp, rule.points) @ inverse
    oracle_obj = float(np.einsum("q,qi,qi->", rule.weights, L, L))
    oracle_M = L.T @ (rule.weights[:, None] * L)
    eigs = np.linalg.eigvalsh(0.5 * (oracle_M + oracle_M.T))

    assert lebesgue_objective(spp, dist) == pytest.approx(
        oracle_obj, rel=1e-12
    )
    M, cond = mass_matrix(spp, dist)
    assert np.linalg.norm(M - oracle_M) <= 1e-12 * np.linalg.norm(oracle_M)
    # eigvalsh finds the smallest eigenvalue only to about eps * eigs[-1],
    # so the oracle's ratio is no finer than eps * cond (near-singular
    # pyramid draws reach cond ~ 1e12).
    oracle_cond = eigs[-1] / eigs[0]
    rel = max(1e-10, np.finfo(float).eps * oracle_cond)
    assert cond == pytest.approx(oracle_cond, rel=rel)


def _reduced_lattice(kind, r):
    """The lattice points the scan of a symmetric set covers: the kind's
    chamber, or on an extruded kind the base chamber times ``z >= 0``."""
    base = EXTRUDED_BASE.get(kind)
    if base is None:
        return _chamber(kind, r), len(natural_symmetry_group(kind))
    base_pts = _chamber(base, r)
    axis = _axis(r, symmetric=True)
    pts = np.column_stack(
        [np.repeat(base_pts, axis.size, axis=0), np.tile(axis, len(base_pts))]
    )
    return pts, 2 * len(natural_symmetry_group(base))


@pytest.mark.parametrize("kind", list(ElementKind))
@pytest.mark.parametrize("parity", [0, 1])
def test_reduced_lattice_covers_every_orbit(kind, parity):
    # Every lattice point has a group image on a point the reduced scan
    # covers, so the Lebesgue function of a symmetric set takes its
    # lattice maximum there.
    r = {1: 100, 2: 30, 3: 14}[reference_element(kind).dim] + parity
    full = _lattice(kind, r)
    reduced, order = _reduced_lattice(kind, r)
    tree = KDTree(reduced)
    nearest = np.full(len(full), np.inf)
    for A, b in cartesian_symmetry_group(kind):
        nearest = np.minimum(nearest, tree.query(full @ A.T + b)[0])
    assert np.max(nearest) <= 1e-12
    # The reduced set is about 1/order of the lattice, walls included.
    assert len(reduced) * order < 2 * len(full)


def _interior_moved(dist, step=1e-3):
    """``dist`` with the node nearest the vertex centroid moved by ``step``
    along the first axis."""
    centre = reference_element(dist.kind).vertices.mean(axis=0)
    i = int(np.argmin(np.linalg.norm(dist.nodes - centre, axis=1)))
    nodes = dist.nodes.copy()
    nodes[i, 0] += step
    return NodalDistribution(dist.kind, dist.degree, nodes, "moved")


_SCAN_RESOLUTION = {1: 201, 2: 41, 3: 20}


@pytest.mark.parametrize("kind", list(ElementKind))
@pytest.mark.parametrize("optimized", [False, True])
def test_reduced_scan_matches_full_scan(kind, optimized, opt_cache):
    p = 4
    spp = FunctionSpace(kind, p)
    if optimized:
        dist = opt_cache.dist(kind, p)
    else:
        dist = baseline_distribution(kind, p, "uniform")
    assert is_symmetric(kind, dist.nodes, _SYMMETRY_TOL)
    r = _SCAN_RESOLUTION[reference_element(kind).dim]
    got = lebesgue_constant(spp, dist, resolution=r)
    assert got == pytest.approx(_flat_lebesgue(spp, dist, r), rel=1e-13)


@pytest.mark.parametrize("kind", list(ElementKind))
def test_asymmetric_set_scans_full_lattice(kind):
    # One interior node moved by 1e-3 breaks the symmetry, and the scan
    # covers the whole lattice exactly as the full-lattice path does.
    p = 4
    spp = FunctionSpace(kind, p)
    dist = _interior_moved(baseline_distribution(kind, p, "uniform"))
    assert not is_symmetric(kind, dist.nodes, _SYMMETRY_TOL)
    r = _SCAN_RESOLUTION[reference_element(kind).dim]
    every = [(np.arange(spp.dim), _interpolator(spp, dist)[1].inverse())]
    elem = reference_element(kind)
    extra = np.vstack([elem.vertices, quadrature_rule(kind, 2 * p).points])
    base = EXTRUDED_BASE.get(kind)
    if base is None:
        (oracle,) = _flat_maxima(
            spp, every, np.vstack([_lattice(kind, r), extra])
        )
    else:
        oracle = np.maximum(
            _extruded_max(spp, every[0][1], _lattice(base, r),
                          np.linspace(-1, 1, r)),
            _flat_maxima(spp, every, extra)[0],
        )
    got = lebesgue_constant(spp, dist, resolution=r)
    assert got == float(oracle)
    assert got == pytest.approx(_flat_lebesgue(spp, dist, r), rel=1e-13)


# (degree, resolution) per kind at which the default budget splits both the
# chamber scan and the full-lattice scan into several chunks (the line
# takes one), while one chunk for the whole sample stays within 34 MB.
_SPLIT = {
    ElementKind.LINE: (6, 1000),
    ElementKind.TRIANGLE: (6, 300),
    ElementKind.QUADRILATERAL: (6, 300),
    ElementKind.TETRAHEDRON: (7, 40),
    ElementKind.HEXAHEDRON: (6, 20),
    ElementKind.PRISM: (6, 30),
    ElementKind.PYRAMID: (6, 30),
}


@pytest.mark.parametrize("kind", list(ElementKind))
@pytest.mark.parametrize("moved", [False, True])
def test_lebesgue_constant_does_not_depend_on_the_budget(
    kind, moved, monkeypatch
):
    # The uniform set takes the chamber scan, the moved one the full
    # lattice.
    import symnodes.metrics as metrics

    p, r = _SPLIT[kind]
    spp = FunctionSpace(kind, p)
    dist = baseline_distribution(kind, p, "uniform")
    if moved:
        dist = _interior_moved(dist)
    assert is_symmetric(kind, dist.nodes, _SYMMETRY_TOL) != moved
    got = lebesgue_constant(spp, dist, resolution=r)
    monkeypatch.setattr(metrics, "_BUDGET", 2**62)  # one chunk
    assert np.array_equal(lebesgue_constant(spp, dist, resolution=r), got)
    # One point per chunk: BLAS takes a matrix-vector product for one row
    # (and other kernels for few rows), which moves the cardinal values
    # in the last bits.
    r = _SCAN_RESOLUTION[reference_element(kind).dim]
    whole = lebesgue_constant(spp, dist, resolution=r)
    monkeypatch.setattr(metrics, "_BUDGET", 1)
    assert lebesgue_constant(spp, dist, resolution=r) == pytest.approx(
        whole, rel=1e-14
    )


@pytest.mark.parametrize("kind,p", [("hex", 6), ("pyramid", 7)])
def test_scan_memory_does_not_grow_with_the_sample(kind, p):
    # Chunks of 16384 points took a 47.9 MiB peak on hex p=6 and 32.1 MiB
    # on pyramid p=7; with buffers of _BUDGET entries the peaks are about
    # 4 and 5 MiB.
    kind = ElementKind(kind)
    spp = FunctionSpace(kind, p)
    dist = baseline_distribution(kind, p, "uniform")
    evaluate_metrics(spp, dist, resolution=5)  # tables and plans, once
    tracemalloc.start()
    try:
        evaluate_metrics(spp, dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
