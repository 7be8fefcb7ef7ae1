import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symnodes.baselines import baseline_distribution
from symnodes.errors import (
    ConstraintConflictError,
    DegenerateDistributionError,
    InfeasibleParameterError,
    NumericalError,
)
from symnodes.geometry import ElementKind, contains, node_count, reference_element
from symnodes.symmetry import (
    ConstrainedOrbit,
    NodalDistribution,
    OrbitCollection,
    cartesian_symmetry_group,
    closest_pair,
    enumerate_admissible_collections,
    evaluate_collection,
    evaluate_orbit,
    is_symmetric,
    natural_symmetry_group,
    orbit_parameter_bounds,
    orbits,
    same_point_set,
)
from symnodes.symmetry import (
    MIN_NODE_SEPARATION,
    _nearest,
    _probe,
    _reflections,
    _require_separated,
)
from symnodes import lincon, symmetry

ALL_KINDS = list(ElementKind)

# (param_count, multiplicity) of each orbit, in table order.
EXPECTED_TABLE = {
    ElementKind.LINE: [(0, 1), (1, 2)],
    ElementKind.TRIANGLE: [(0, 1), (1, 3), (2, 6)],
    ElementKind.QUADRILATERAL: [(0, 1), (1, 4), (1, 4), (2, 8)],
    ElementKind.TETRAHEDRON: [(0, 1), (1, 4), (1, 6), (2, 12), (3, 24)],
    ElementKind.HEXAHEDRON: [
        (0, 1), (1, 6), (1, 8), (1, 12), (2, 24), (2, 24), (3, 48)
    ],
    ElementKind.PRISM: [(0, 1), (1, 2), (1, 3), (2, 6), (2, 6), (3, 12)],
    ElementKind.PYRAMID: [(1, 1), (2, 4), (2, 4), (3, 8)],
}


def _collection(kind, degree, indices):
    table = {o.index: o for o in orbits(kind)}
    return OrbitCollection(
        kind, degree, tuple(ConstrainedOrbit(table[i]) for i in indices)
    )


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_orbit_tables(kind):
    got = [(o.param_count, o.multiplicity) for o in orbits(kind)]
    assert got == EXPECTED_TABLE[kind]


@pytest.mark.parametrize(
    "kind, pattern, a, point",
    [
        (ElementKind.TRIANGLE, "AA*", 0.2, [0.2, 0.2, 0.6]),
        (ElementKind.TETRAHEDRON, "AA**", 0.1, [0.1, 0.1, 0.4, 0.4]),
        (ElementKind.PRISM, "***A", 0.5, [1 / 3, 1 / 3, 1 / 3, 0.5]),
    ],
)
def test_orbit_pattern_spells_its_generator(kind, pattern, a, point):
    # ``*`` shares what the partition of unity leaves after the letters.
    i = symmetry._ORBIT_PATTERNS[kind].split().index(pattern)
    S, sigma = orbits(kind)[i].maps[0]
    np.testing.assert_allclose(S @ [a] + sigma, point, rtol=0, atol=1e-15)


def test_orbit_multiplicity_falling_along_the_table_raises(monkeypatch):
    # Orbit matching takes the first orbit that reaches a point, which is
    # only right when no later orbit has fewer points.
    monkeypatch.setitem(
        symmetry._ORBIT_PATTERNS, ElementKind.TRIANGLE, "*** AB* AA*"
    )
    with pytest.raises(NumericalError, match="orbit 3 has 3 points"):
        orbits.__wrapped__(ElementKind.TRIANGLE)


def test_evaluate_orbit_examples():
    tri = orbits(ElementKind.TRIANGLE)
    pts = evaluate_orbit(tri[2], [0.3, 0.2])
    expected = set(itertools.permutations((0.3, 0.2, 0.5)))
    got = {tuple(np.round(p, 12)) for p in pts}
    assert got == {tuple(np.round(e, 12)) for e in expected}

    pyr = orbits(ElementKind.PYRAMID)
    pts = evaluate_orbit(pyr[2], [0.15, 0.5])
    got = {tuple(p) for p in np.round(pts, 12)}
    assert got == {
        (0.15, 0.15, 0.5),
        (-0.15, 0.15, 0.5),
        (0.15, -0.15, 0.5),
        (-0.15, -0.15, 0.5),
    }

    np.testing.assert_allclose(
        evaluate_orbit(tri[0], []), [[1 / 3, 1 / 3, 1 / 3]]
    )


def test_evaluate_orbit_first_point_is_generator():
    # The first map must be the generator itself; bound derivation and
    # constraint anchoring rely on it.
    tri = orbits(ElementKind.TRIANGLE)
    S, sigma = tri[1].maps[0]
    np.testing.assert_allclose(S.ravel(), [1.0, 1.0, -2.0])
    np.testing.assert_allclose(sigma, [0.0, 0.0, 1.0])
    S3, sigma3 = tri[2].maps[0]
    np.testing.assert_allclose(S3, [[1, 0], [0, 1], [-1, -1]])
    np.testing.assert_allclose(sigma3, [0, 0, 1])


def test_evaluate_orbit_infeasible_raises():
    tri = orbits(ElementKind.TRIANGLE)
    with pytest.raises(InfeasibleParameterError):
        evaluate_orbit(tri[1], [0.9])  # alpha <= 1/2


def _interval(cons, k):
    lo, hi = lincon.coordinate_intervals(cons.matrix, cons.lower, cons.upper)
    return lo[k], hi[k]


def test_orbit_parameter_bounds_examples():
    line = reference_element(ElementKind.LINE)
    b = orbit_parameter_bounds(line, orbits(ElementKind.LINE)[1])
    assert _interval(b, 0) == (-1.0, 1.0)

    tri_elem = reference_element(ElementKind.TRIANGLE)
    b2 = orbit_parameter_bounds(tri_elem, orbits(ElementKind.TRIANGLE)[1])
    lo, hi = _interval(b2, 0)
    assert (lo, hi) == (0.0, 0.5)

    b3 = orbit_parameter_bounds(tri_elem, orbits(ElementKind.TRIANGLE)[2])
    assert _interval(b3, 0) == (0.0, 1.0)
    assert _interval(b3, 1) == (0.0, 1.0)
    # alpha + beta <= 1: probe the sum through an LP on the same system.
    from scipy.optimize import linprog

    from symnodes.lincon import _lp_parts

    A_ub, b_ub = _lp_parts(b3.matrix, b3.lower, b3.upper)
    res = linprog(
        [-1.0, -1.0], A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * 2,
        method="highs",
    )
    assert abs(-res.fun - 1.0) < 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_bound_soundness_all_points(kind):
    # Bounds are derived from the first point map only; symmetry must make
    # every generated point satisfy the natural bounds.
    rng = np.random.default_rng(11)
    elem = reference_element(kind)
    for orbit in orbits(kind):
        b = orbit.bounds
        for _ in range(100):
            xi = _random_feasible(rng, b)
            pts = evaluate_orbit(orbit, xi)
            assert np.max(elem.natural_violation(pts)) <= 1e-12


def _random_feasible(rng, cons, margin=0.0):
    if cons.nvars == 0:
        return np.zeros(0)
    center = lincon.interior_point(cons.matrix, cons.lower, cons.upper)
    for _ in range(200):
        xi = center + rng.normal(scale=0.3, size=cons.nvars)
        if cons.violation(xi) <= margin:
            return xi
    return center


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_symmetry_closure_random_orbits(kind):
    rng = np.random.default_rng(5)
    group = cartesian_symmetry_group(kind)
    elem = reference_element(kind)
    from symnodes.geometry import natural_to_cartesian

    for orbit in orbits(kind):
        for _ in range(20):
            xi = _random_feasible(rng, orbit.bounds)
            lam = evaluate_orbit(orbit, xi)
            pts = natural_to_cartesian(elem, lam)
            pts = np.atleast_2d(pts)
            for A, b in group:
                mapped = pts @ A.T + b
                assert _match_sets(mapped, pts, 1e-12)


def _match_sets(a, b, tol):
    used = np.zeros(len(b), dtype=bool)
    for x in a:
        d = np.linalg.norm(b - x, axis=1)
        d[used] = np.inf
        j = int(np.argmin(d))
        if d[j] > tol:
            return False
        used[j] = True
    return True


def test_multiplicity_and_distinctness():
    rng = np.random.default_rng(17)
    for kind in ALL_KINDS:
        for orbit in orbits(kind):
            xi = _random_feasible(rng, orbit.bounds)
            # Nudge toward the strict interior for distinctness.
            if orbit.param_count:
                interior = lincon.interior_point(
                    orbit.bounds.matrix, orbit.bounds.lower, orbit.bounds.upper
                )
                xi = 0.5 * (xi + interior)
            pts = evaluate_orbit(orbit, xi)
            assert pts.shape[0] == orbit.multiplicity


def _enumeration_oracle(kind, p):
    """Brute-force multisets over orbit multiplicities (l=0 orbits once)."""
    orbs = orbits(kind)
    target = node_count(kind, p)
    sols = set()

    def rec(i, remaining, counts):
        if remaining == 0:
            combo = []
            for idx, c in enumerate(counts):
                combo.extend([orbs[idx].index] * c)
            sols.add(tuple(sorted(combo)))
            return
        if i == len(orbs):
            return
        max_use = remaining // orbs[i].multiplicity
        if orbs[i].param_count == 0:
            max_use = min(max_use, 1)
        for c in range(max_use + 1):
            rec(i + 1, remaining - c * orbs[i].multiplicity, counts + [c])

    rec(0, target, [])
    return sorted(sols)


def test_enumerate_admissible_examples():
    got = [c.indices for c in enumerate_admissible_collections(ElementKind.LINE, 4)]
    assert got == [(1, 2, 2)]
    got = [
        c.indices for c in enumerate_admissible_collections(ElementKind.TRIANGLE, 2)
    ]
    assert got == [(2, 2), (3,)]
    got = [
        c.indices for c in enumerate_admissible_collections(ElementKind.TRIANGLE, 3)
    ]
    assert got == [(1, 2, 2, 2), (1, 2, 3)]


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("p", [1, 2, 3])
def test_enumerate_matches_oracle(kind, p):
    oracle = _enumeration_oracle(kind, p)
    got = [
        c.indices
        for c in enumerate_admissible_collections(kind, p, cap=100000)
    ]
    assert sorted(got) == oracle
    assert got == sorted(got)  # lexicographic output order
    for c in enumerate_admissible_collections(kind, p, cap=100000):
        assert c.total_points == node_count(kind, p)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("p", [1, 2, 3])
def test_enumerate_cap_keeps_the_first_collections(kind, p):
    full = [
        c.indices
        for c in enumerate_admissible_collections(kind, p, cap=100000)
    ]
    for k in range(1, len(full) + 2):
        got = [
            c.indices for c in enumerate_admissible_collections(kind, p, cap=k)
        ]
        assert got == full[:k]


def test_evaluate_collection_examples():
    # Center plus a symmetric endpoint pair.
    coll = _collection(ElementKind.LINE, 2, (1, 2))
    dist = evaluate_collection(coll, [1.0])
    got = sorted(dist.nodes.ravel().tolist())
    assert got == [-1.0, 0.0, 1.0]

    # Vertices from the edge-midpoint orbit at alpha = 0.
    coll = _collection(ElementKind.TRIANGLE, 1, (2,))
    dist = evaluate_collection(coll, [0.0])
    assert _match_sets(
        dist.nodes, np.array([[-1, -1], [1, -1], [-1, 1]]), 1e-12
    )


def test_evaluate_collection_19_node_example():
    # Five orbits, six parameters; the classic demonstration set.
    coll = _collection(ElementKind.TRIANGLE, None, (1, 2, 2, 3, 3))
    xi = [0.25, 0.5, 0.1, 0.6, 0.7, 0.0]
    dist = evaluate_collection(coll, xi)
    assert dist.count == 19
    elem = reference_element(ElementKind.TRIANGLE)
    assert np.all(contains(elem, dist.nodes, 1e-10))
    # The alpha=0.5 ring is the three edge midpoints.
    mids = np.array([[0, -1], [-1, 0], [0, 0]], dtype=float)
    d = np.min(
        np.linalg.norm(dist.nodes[:, None, :] - mids[None, :, :], axis=2),
        axis=0,
    )
    assert np.max(d) < 1e-12


def test_evaluate_collection_degenerate():
    coll = _collection(ElementKind.LINE, 2, (1, 2))
    with pytest.raises(DegenerateDistributionError):
        evaluate_collection(coll, [1e-12])  # pair collapses onto the center


def _broadcast_closest_pair(x):
    """The n x n x d broadcast form that ``closest_pair`` replaces."""
    if x.shape[0] < 2:
        return np.inf, None
    d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    i, j = np.unravel_index(np.argmin(d2), d2.shape)
    return float(np.sqrt(d2[i, j])), (int(i), int(j))


@st.composite
def _point_sets(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(0, 24))
    coords = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    x = np.array(draw(st.lists(coords, min_size=n * d, max_size=n * d)))
    x = x.reshape(n, d)
    grid = draw(st.sampled_from([None, 1, 2, 4]))
    if grid is not None:  # many exact ties
        x = np.round(x * grid) / grid
    for _ in range(draw(st.integers(0, 3)) if n >= 2 else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        x[j] = x[i]  # duplicate rows
    return x


@settings(max_examples=300, deadline=None)
@given(_point_sets())
def test_closest_pair_matches_broadcast_form(x):
    sep, pair = closest_pair(x)
    want_sep, want_pair = _broadcast_closest_pair(x)
    assert sep == want_sep
    assert pair == want_pair
    if pair is not None:
        i, j = pair
        assert i < j
        assert sep == np.sqrt(np.sum((x[i] - x[j]) ** 2))


def _pdist_closest_pair(x):
    """The ``scipy.spatial.distance.pdist`` form ``closest_pair`` had."""
    from scipy.spatial.distance import pdist

    if x.shape[0] < 2:
        return np.inf, None
    d2 = pdist(x, "sqeuclidean")
    k = int(np.argmin(d2))
    i, j = np.triu_indices(x.shape[0], 1)
    return float(np.sqrt(d2[k])), (int(i[k]), int(j[k]))


@settings(max_examples=300, deadline=None)
@given(_point_sets())
def test_closest_pair_matches_pdist(x):
    sep, pair = closest_pair(x)
    want_sep, want_pair = _pdist_closest_pair(x)
    assert np.float64(sep).tobytes() == np.float64(want_sep).tobytes()
    assert pair == want_pair


def test_closest_pair_small_sets():
    assert closest_pair(np.zeros((0, 2))) == (np.inf, None)
    assert closest_pair(np.zeros((1, 3))) == (np.inf, None)
    assert closest_pair(np.array([[0.0], [0.5]])) == (0.5, (0, 1))
    # Ties go to the first pair in row-major order.
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert closest_pair(x) == (0.0, (1, 3))
    x = np.array([[0.0], [2.0], [1.0], [3.0]])
    assert closest_pair(x) == (1.0, (0, 2))


@settings(max_examples=300, deadline=None)
@given(_point_sets(), st.sampled_from([0.5, 0.9, 1.0, 1.1, 1.9, 2.1, 4.0]),
       st.booleans(), st.data())
def test_require_separated_raises_exactly_when_closest_pair_is_close(
    x, r, along_probe, data
):
    # The sorted-projection screen must not change the outcome: a pair at
    # about r * MIN_NODE_SEPARATION decides it either way, also when it
    # lies along the projection direction.
    if x.shape[0] >= 2:
        i, j = data.draw(st.lists(st.integers(0, x.shape[0] - 1),
                                  min_size=2, max_size=2, unique=True))
        d = x.shape[1]
        u = _probe(d) if along_probe else _direction(data.draw, d)
        x[j] = x[i] + r * MIN_NODE_SEPARATION * u
    sep, pair = closest_pair(x)
    if sep <= MIN_NODE_SEPARATION:
        with pytest.raises(DegenerateDistributionError) as exc:
            _require_separated(x)
        assert exc.value.pair == pair
    else:
        _require_separated(x)


def test_validate_names_the_colliding_pair():
    x = np.array([[0.0, 0.0], [0.5, 0.5], [0.0, 1e-9], [1.0, 0.0]])
    with pytest.raises(DegenerateDistributionError) as exc:
        NodalDistribution(None, 1, x).validate()
    assert exc.value.pair == (0, 2)


def test_pinned_orbit_examples():
    tri = orbits(ElementKind.TRIANGLE)
    pinned = ConstrainedOrbit(tri[2], [0.4, 0.0])
    assert pinned.pinned.tolist() == [0.4, 0.0]
    assert not pinned.pinned.flags.writeable
    pts = evaluate_orbit(pinned, [0.4, 0.0])
    assert pts.shape == (6, 3)
    # Parameters away from the pinned values do not realize the entry.
    with pytest.raises(InfeasibleParameterError):
        evaluate_orbit(pinned, [0.3, 0.0])

    # A free entry takes any parameters within the orbit bounds.
    free = ConstrainedOrbit(tri[2])
    assert free.pinned is None
    assert evaluate_orbit(free, [0.3, 0.1]).shape == (6, 3)

    with pytest.raises(ValueError):
        ConstrainedOrbit(tri[2], [0.4])  # two parameters


def test_pin_outside_bounds_raises():
    cases = [
        (ElementKind.LINE, 2, [1.2]),  # alpha <= 1
        (ElementKind.TRIANGLE, 2, [0.6]),  # alpha <= 1/2
        (ElementKind.TRIANGLE, 3, [0.7, 0.7]),  # alpha + beta <= 1
        (ElementKind.PYRAMID, 1, [-1.5]),  # z >= -1
    ]
    for kind, index, xi in cases:
        with pytest.raises(ConstraintConflictError, match="violate"):
            ConstrainedOrbit(orbits(kind)[index - 1], xi)
    # Within the pin tolerance of a bound is on the bound.
    ConstrainedOrbit(orbits(ElementKind.LINE)[1], [1.0 + 1e-12])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_orbit_bounds_have_no_equality_rows(kind):
    # A pin is a value, so no orbit carries a row with lower == upper.
    for orbit in orbits(kind):
        b = orbit.bounds
        assert not np.any(lincon.equality_rows(b.lower, b.upper))
        assert not np.any(b.lower == b.upper)


def test_collection_admissibility_enforced():
    with pytest.raises(ValueError):
        _collection(ElementKind.LINE, 4, (1, 2))  # 3 nodes != 5


def test_nodal_distribution_validation():
    d = NodalDistribution(
        ElementKind.LINE, 2, [[-1.0], [0.0], [1.0]], "test"
    )
    d.validate()
    bad = NodalDistribution(ElementKind.LINE, 2, [[-1.0], [1.0]], "test")
    with pytest.raises(ValueError):
        bad.validate()
    outside = NodalDistribution(
        ElementKind.LINE, 2, [[-1.0], [0.0], [1.5]], "test"
    )
    with pytest.raises(ValueError):
        outside.validate()


def test_natural_group_orders():
    orders = {
        ElementKind.LINE: 2,
        ElementKind.TRIANGLE: 6,
        ElementKind.QUADRILATERAL: 8,
        ElementKind.TETRAHEDRON: 24,
        ElementKind.HEXAHEDRON: 48,
        ElementKind.PRISM: 12,
        ElementKind.PYRAMID: 8,
    }
    for kind, n in orders.items():
        mats = natural_symmetry_group(kind)
        assert len(mats) == n
        keys = {m.tobytes() for m in mats}
        assert len(keys) == n


def _homogeneous(A, b):
    d = A.shape[0]
    H = np.eye(d + 1)
    H[:d, :d], H[:d, d] = A, b
    return H


def _key(H):
    return (np.round(H, 12) + 0.0).tobytes()


# The reflections that is_symmetric checks, per kind.
REFLECTION_COUNTS = {
    ElementKind.LINE: 1,
    ElementKind.TRIANGLE: 3,
    ElementKind.QUADRILATERAL: 4,
    ElementKind.TETRAHEDRON: 6,
    ElementKind.HEXAHEDRON: 9,
    ElementKind.PRISM: 4,
    ElementKind.PYRAMID: 4,
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_generator_maps_generate_the_group(kind):
    # The reflections of each element group, the maps is_symmetric checks,
    # generate the group: every element group is a reflection group.
    A, b = _reflections(kind)
    assert len(A) == REFLECTION_COUNTS[kind]
    for a, t in zip(A, b):  # involutions that fix a hyperplane
        assert np.allclose(a @ a, np.eye(len(a)), atol=1e-14)
        assert np.allclose(a @ t + t, 0.0, atol=1e-14)
        assert np.isclose(np.trace(a), len(a) - 2)
    gens = [_homogeneous(a, t) for a, t in zip(A, b)]
    group = {_key(_homogeneous(a, t)) for a, t in cartesian_symmetry_group(kind)}
    one = np.eye(A.shape[1] + 1)
    reached, frontier = {_key(one)}, [one]
    while frontier:
        products = [G @ H for H in frontier for G in gens]
        frontier = [H for H in products if _key(H) not in reached]
        reached |= {_key(H) for H in frontier}
    assert reached == group


def _loop_set_match(a, b, tol):
    """Reference: greedy one-to-one matching, one point at a time."""
    used = np.zeros(len(b), dtype=bool)
    for x in a:
        d = np.linalg.norm(b - x, axis=1)
        d[used] = np.inf
        j = int(np.argmin(d))
        if d[j] > tol:
            return False
        used[j] = True
    return True


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("p", [2, 3, 4])
def test_is_symmetric_matches_check_over_every_map(kind, p):
    uni = baseline_distribution(kind, p, "uniform").nodes
    moved = uni.copy()
    moved[len(uni) // 2, 0] += 1e-3
    for nodes in (uni, moved, uni[::-1]):
        want = all(
            _loop_set_match(nodes @ A.T + b, nodes, 1e-10)
            for A, b in cartesian_symmetry_group(kind)
        )
        assert is_symmetric(kind, nodes, 1e-10) == want
    assert is_symmetric(kind, uni, 1e-14)
    assert not is_symmetric(kind, moved, 1e-10)


def test_point_set_match_is_one_to_one():
    # 0.5 + 1e-12 and 0.5 are both within tol of the image of -0.5 once
    # mirrored, but only one of them may take it.
    nodes = np.array([[-0.5], [0.5], [0.5 + 1e-12]])
    assert not is_symmetric(ElementKind.LINE, nodes, 1e-10)
    assert not _loop_set_match(-nodes, nodes, 1e-10)
    a = np.array([[0.0], [0.0]])
    assert not same_point_set(a, np.array([[0.0], [1.0]]), 1e-10)
    assert same_point_set(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]), 0.0)
    assert not same_point_set(a, np.zeros((3, 1)), 1e-10)


def _kdtree_one_to_one(points, images, tol):
    """The ``scipy.spatial.KDTree`` matcher that ``same_point_set`` and
    ``is_symmetric`` used: each image takes its nearest point."""
    from scipy.spatial import KDTree

    n, d = points.shape
    dist, nearest = KDTree(points).query(images.reshape(-1, d))
    return bool(
        np.all(dist <= tol)
        and np.all(np.sort(nearest.reshape(-1, n), axis=1) == np.arange(n))
    )


def _direction(draw, d):
    v = np.array(draw(st.lists(
        st.floats(-1.0, 1.0, allow_nan=False), min_size=d, max_size=d
    )))
    norm = np.linalg.norm(v)
    return v / norm if norm > 1e-3 else np.eye(d)[0]


# Multiples of tol by which an image is moved: within, at and just beyond.
_MOVES = [0.0, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.5]


@st.composite
def _matching_cases(draw):
    """Points, ``tol`` and one or two slices of images of the points: each
    slice a permutation of them with every image moved by a multiple of
    ``tol``.  Some pairs of points lie about ``2 tol`` apart, so that an
    image can be nearly as far from two points (a near tie)."""
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(1, 16))
    tol = draw(st.sampled_from([1e-14, 1e-10, 1e-6, 1e-3]))
    coords = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    x = np.array(draw(st.lists(coords, min_size=n * d, max_size=n * d)))
    x = x.reshape(n, d)
    for _ in range(draw(st.integers(0, 2)) if n >= 2 else 0):
        i, j = draw(st.lists(
            st.integers(0, n - 1), min_size=2, max_size=2, unique=True
        ))
        gap = 2 * tol * draw(st.sampled_from([1 - 1e-6, 1.0, 1 + 1e-6]))
        x[j] = x[i] + gap * _direction(draw, d)
    slices = []
    for _ in range(draw(st.integers(1, 2))):
        perm = draw(st.permutations(range(n)))
        moves = [tol * draw(st.sampled_from(_MOVES)) * _direction(draw, d)
                 for _ in range(n)]
        slices.append(x[list(perm)] + np.array(moves))
    return x, np.stack(slices), tol


@settings(max_examples=300, deadline=None)
@given(_matching_cases())
def test_matching_agrees_with_kdtree(case):
    x, images, tol = case
    # With two points exactly as near, either may take the image.
    d = np.sort(np.linalg.norm(images[..., None, :] - x, axis=-1), axis=-1)
    if x.shape[0] > 1:
        assume(not np.any((d[..., 0] <= tol) & (d[..., 0] == d[..., 1])))
    for image in images:
        assert same_point_set(image, x, tol) == _kdtree_one_to_one(
            x, image, tol
        )


def _axis_distances(points, queries):
    """Reference: the distance of each query to each point, its squared
    coordinate differences summed over the axes in order."""
    d2 = np.zeros((len(queries), len(points)))
    for c in range(points.shape[1]):
        d2 += (queries[:, None, c] - points[None, :, c]) ** 2
    return np.sqrt(d2)


@settings(max_examples=300, deadline=None)
@given(_matching_cases())
def test_nearest_agrees_with_an_exhaustive_search(case):
    x, images, tol = case
    queries = images.reshape(-1, x.shape[1])
    dist = _axis_distances(x, queries)
    d = np.sort(dist, axis=1)
    # With two points exactly as near, either may be the nearest.
    if x.shape[0] > 1:
        assume(not np.any((d[:, 0] <= tol) & (d[:, 0] == d[:, 1])))
    want = np.where(d[:, 0] <= tol, np.argmin(dist, axis=1), -1)
    assert np.array_equal(_nearest(x, queries, tol), want)


def test_is_symmetric_near_tol_checks_every_reflection():
    # Uniform tri p=1 moved by up to tol/2 per coordinate (tol 1e-10): the
    # rotations and the reflection that swaps the last two barycentric
    # coordinates match the nodes within tol, the other two reflections do
    # not.  A test on a cycle and that transposition says symmetric; the
    # AND over the reflections says not, as the check over every map does.
    nodes = np.array([[float.fromhex(v) for v in row] for row in [
        ["-0x1.ffffffffe1e1cp-1", "0x1.ffffffffcd602p-1"],
        ["0x1.ffffffff9b0f2p-1", "-0x1.0000000035289p+0"],
        ["-0x1.ffffffffbb1c7p-1", "-0x1.ffffffffa53bfp-1"],
    ]])
    kind, tol = ElementKind.TRIANGLE, 1e-10
    each = [_loop_set_match(nodes @ a.T + t, nodes, tol)
            for a, t in zip(*_reflections(kind))]
    assert sorted(each) == [False, False, True]
    every = [_loop_set_match(nodes @ a.T + t, nodes, tol)
             for a, t in cartesian_symmetry_group(kind)]
    assert every.count(False) == 2
    assert is_symmetric(kind, nodes, tol) is False


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(ALL_KINDS),
    st.integers(1, 4),
    st.sampled_from([1e-14, 1e-10]),
    st.data(),
)
def test_is_symmetric_agrees_with_kdtree(kind, p, tol, data):
    nodes = baseline_distribution(kind, p, "uniform").nodes.copy()
    n, dim = nodes.shape
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, n - 1))
        r = data.draw(st.sampled_from(_MOVES + [2.0]))
        nodes[i] += r * tol * _direction(data.draw, dim)
    nodes = nodes[data.draw(st.permutations(range(n)))]
    A, b = _reflections(kind)
    want = _kdtree_one_to_one(
        nodes, nodes @ A.transpose(0, 2, 1) + b[:, None], tol
    )
    assert is_symmetric(kind, nodes, tol) == want
