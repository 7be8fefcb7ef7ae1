import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symnodes import lincon, optimizer
from symnodes.baselines import baseline_distribution, gll_1d
from symnodes import compatibility
from symnodes.baselines import BaselineKind
from symnodes.compatibility import (
    FacePrescription,
    _orbit_reach,
    build_compatibility_constraints,
    point_prescription,
    verify_face_match,
)
from symnodes.errors import (
    DegenerateDistributionError,
    IncompatibleCollectionError,
)
from symnodes.geometry import (
    ElementKind,
    contains,
    natural_solve,
    reference_element,
)
from symnodes.symmetry import (
    ConstrainedOrbit,
    NodalDistribution,
    OrbitCollection,
    evaluate_collection,
    evaluate_orbit,
    orbits,
    same_point_set,
)


def _collection(kind, degree, indices):
    table = {o.index: o for o in orbits(kind)}
    return OrbitCollection(
        kind, degree, tuple(ConstrainedOrbit(table[i]) for i in indices)
    )


def _realize(coll):
    from symnodes import lincon

    parts = []
    for e in coll.entries:
        if e.pinned is not None:
            parts.append(e.pinned)
        elif e.param_count == 0:
            parts.append(np.zeros(0))
        else:
            b = e.orbit.bounds
            parts.append(lincon.interior_point(b.matrix, b.lower, b.upper))
    xi = np.concatenate(parts) if parts else np.zeros(0)
    return evaluate_collection(coll, xi), xi


def _line_pres(nodes, p):
    dist = NodalDistribution(
        ElementKind.LINE, p, np.asarray(nodes, float).reshape(-1, 1), "test"
    )
    return FacePrescription(ElementKind.LINE, dist)


def test_triangle_p3_worked_case():
    elem = reference_element(ElementKind.TRIANGLE)
    pres = [_line_pres(gll_1d(3), 3)]
    coll = build_compatibility_constraints(
        elem, _collection(ElementKind.TRIANGLE, 3, (1, 2, 3)), pres
    )
    # Vertices pin the 3-point orbit at alpha = 0; the 6-point orbit carries
    # the interior edge pair; the centroid entry stays free (no parameters).
    assert coll.entries[1].pinned.tolist() == [0.0]
    assert coll.entries[2].pinned is not None
    dist, _ = _realize(coll)
    assert dist.count == 10
    assert verify_face_match(elem, dist, pres)
    # Exactly one interior node: the centroid.
    interior = [
        n
        for n in dist.nodes
        if min(
            abs(n[0] + 1), abs(n[1] + 1), abs(n[0] + n[1])
        ) > 1e-9
    ]
    np.testing.assert_allclose(interior, [[-1 / 3, -1 / 3]], atol=1e-12)


def test_line_p2_endpoint_pin():
    elem = reference_element(ElementKind.LINE)
    coll = build_compatibility_constraints(
        elem,
        _collection(ElementKind.LINE, 2, (1, 2)),
        [point_prescription(2)],
    )
    dist, _ = _realize(coll)
    assert sorted(dist.nodes.ravel().tolist()) == [-1.0, 0.0, 1.0]


def test_incompatible_collection_raises():
    elem = reference_element(ElementKind.TRIANGLE)
    with pytest.raises(IncompatibleCollectionError):
        build_compatibility_constraints(
            elem,
            _collection(ElementKind.TRIANGLE, 2, (3,)),
            [_line_pres([-1.0, 0.0, 1.0], 2)],
        )


def test_verify_face_match_examples():
    elem = reference_element(ElementKind.TRIANGLE)
    pres = [_line_pres(gll_1d(3), 3)]
    coll = build_compatibility_constraints(
        elem, _collection(ElementKind.TRIANGLE, 3, (1, 2, 3)), pres
    )
    dist, _ = _realize(coll)
    assert verify_face_match(elem, dist, pres)
    # Perturbing an edge node breaks the match.
    nodes = dist.nodes.copy()
    edge_idx = next(
        i for i, n in enumerate(nodes) if abs(n[1] + 1.0) < 1e-12 and abs(n[0]) < 0.9
    )
    nodes[edge_idx, 0] += 1e-3
    perturbed = NodalDistribution(ElementKind.TRIANGLE, 3, nodes, "perturbed")
    assert not verify_face_match(elem, perturbed, pres)

    hexa = reference_element(ElementKind.HEXAHEDRON)
    hex_gll = baseline_distribution(ElementKind.HEXAHEDRON, 2, "gll")
    quad_gll = baseline_distribution(ElementKind.QUADRILATERAL, 2, "gll")
    assert verify_face_match(
        hexa, hex_gll, [FacePrescription(ElementKind.QUADRILATERAL, quad_gll)]
    )


def test_face_choice_independence():
    # Pinned parameter values depend on which face receives the mapping, but
    # the realized node set must not.  The first face of each kind receives
    # it, so the face list is rotated to put each edge in turn first.
    elem = reference_element(ElementKind.TRIANGLE)
    pres = [_line_pres(gll_1d(4), 4)]
    base = None
    for face_idx in range(3):
        faces = elem.faces[face_idx:] + elem.faces[:face_idx]
        coll = build_compatibility_constraints(
            dataclasses.replace(elem, faces=faces),
            _collection(ElementKind.TRIANGLE, 4, (2, 2, 2, 3)),
            pres,
        )
        dist, _ = _realize(coll)
        nodes = np.array(
            sorted(map(tuple, np.round(dist.nodes, 11).tolist()))
        )
        if base is None:
            base = nodes
        else:
            np.testing.assert_allclose(nodes, base, atol=1e-10)


def test_constraint_count_conservation():
    elem = reference_element(ElementKind.TRIANGLE)
    p = 4
    pres = [_line_pres(gll_1d(p), p)]
    coll = build_compatibility_constraints(
        elem, _collection(ElementKind.TRIANGLE, p, (2, 2, 2, 3)), pres
    )
    dist, _ = _realize(coll)
    # Total prescribed face nodes = number of boundary nodes.
    boundary = 0
    for face in elem.faces:
        _, resid = face.pullback(dist.nodes)
        boundary += int(np.sum(resid <= 1e-10))
    # Each of the 3 vertices lies on two edges.
    assert boundary == 3 * (p + 1)
    pinned_pts = sum(
        e.multiplicity for e in coll.entries if e.pinned is not None
    )
    assert pinned_pts == 3 * (p + 1) - 3  # vertices counted once per orbit


def test_edge_transitivity_prism(opt_cache):
    # Edges of a 3D element inherit the 1D distribution that its 2D face
    # prescriptions were built from.
    p = 3
    line = opt_cache.dist(ElementKind.LINE, p)
    prism = opt_cache.dist(ElementKind.PRISM, p)
    elem = reference_element(ElementKind.PRISM)
    # Vertical edge from (-1,-1,-1) to (-1,-1,1): z values must match the
    # optimized line distribution.
    on_edge = prism.nodes[
        (np.abs(prism.nodes[:, 0] + 1) < 1e-10)
        & (np.abs(prism.nodes[:, 1] + 1) < 1e-10)
    ]
    got = np.sort(on_edge[:, 2])
    np.testing.assert_allclose(
        got, np.sort(line.nodes.ravel()), atol=1e-10
    )


def test_prescription_symmetry_enforced():
    lopsided = NodalDistribution(
        ElementKind.LINE, 2, np.array([[-1.0], [0.3], [1.0]]), "bad"
    )
    with pytest.raises(ValueError):
        FacePrescription(ElementKind.LINE, lopsided)


# Degrees the shared optimized cache builds for the acceptance suite.
_CACHED_DEGREES = {
    ElementKind.LINE: range(1, 11),
    ElementKind.TRIANGLE: range(1, 10),
    ElementKind.QUADRILATERAL: range(1, 10),
    ElementKind.TETRAHEDRON: range(1, 7),
    ElementKind.HEXAHEDRON: range(1, 7),
    ElementKind.PRISM: range(1, 7),
    ElementKind.PYRAMID: range(1, 7),
}


def test_face_nodes_equal_embedded_prescription_exactly(opt_cache):
    # Each face node is bit for bit a point of the embedded prescription of
    # the first face (in element face order) that holds it.
    for kind, degrees in _CACHED_DEGREES.items():
        elem = reference_element(kind)
        for p in degrees:
            nodes = opt_cache.dist(kind, p).nodes
            pres = {pr.face_kind: pr for pr in opt_cache.prescriptions(kind, p)}
            fixed = np.zeros(len(nodes), dtype=bool)
            for face in elem.faces:
                _, resid = face.pullback(nodes)
                expected = face.embed(pres[face.face_kind].dist.nodes)
                for i in np.flatnonzero((resid <= 1e-10) & ~fixed):
                    assert np.any(np.all(expected == nodes[i], axis=1)), (
                        f"{kind.value} p={p}: node {i} = {nodes[i]!r} is not "
                        f"an exact embedded prescription point"
                    )
                    fixed[i] = True
            assert fixed.any(), f"{kind.value} p={p}: no face nodes"


@pytest.mark.parametrize("kind", list(ElementKind))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_orbit_reach_recovers_parameters(kind, data):
    # Every point map has full column rank, so the parameters that put an
    # orbit point at a location are unique, and _orbit_reach finds them.
    orbit = data.draw(st.sampled_from(orbits(kind)))
    for S, _ in orbit.maps:
        assert np.linalg.matrix_rank(S) == orbit.param_count
    b = orbit.bounds
    lo, hi = lincon.coordinate_intervals(b.matrix, b.lower, b.upper)
    u = np.array(
        data.draw(st.lists(st.floats(0.0, 1.0), min_size=lo.size,
                           max_size=lo.size))
    )
    xi = lo + u * (hi - lo)
    assume(b.violation(xi) <= 0.0)
    got = _orbit_reach(orbit, evaluate_orbit(orbit, xi)[0])
    assert got is not None
    assert np.max(np.abs(got - xi), initial=0.0) <= 1e-12


def _orbit_reach_lstsq(orbit, lam_hat):
    """The unscreened matcher: one least-squares solve per point map, in
    orbit point order.  The oracle for :func:`_orbit_reach`."""
    for S, sigma in orbit.maps:
        rhs = lam_hat - sigma
        xi, *_ = np.linalg.lstsq(S, rhs, rcond=None)
        if (
            np.linalg.norm(S @ xi - rhs) <= compatibility._RESIDUAL_TOL
            and orbit.bounds.violation(xi) <= compatibility._FEAS_MARGIN
        ):
            return xi
    return None


@pytest.mark.parametrize("kind", list(ElementKind))
def test_screened_orbit_reach_equals_the_lstsq_loop(kind):
    # At the uniform and GLL baseline nodes (p <= 6) and at random points
    # of the element, every orbit returns the same bytes, or None on both.
    elem = reference_element(kind)
    sets = [
        baseline_distribution(kind, p, base).nodes
        for p in range(1, 7)
        for base in (BaselineKind.UNIFORM, BaselineKind.GLL)
        if base == BaselineKind.UNIFORM
        or kind in (ElementKind.LINE, ElementKind.QUADRILATERAL,
                    ElementKind.HEXAHEDRON)
    ]
    box = np.random.default_rng(7).uniform(-1.0, 1.0, (300, elem.dim))
    sets.append(box[contains(elem, box, 0.0)])
    lam = np.atleast_2d(natural_solve(elem, np.vstack(sets)))
    reached = 0
    for orbit in orbits(kind):
        for point in lam:
            got = _orbit_reach(orbit, point)
            want = _orbit_reach_lstsq(orbit, point)
            if want is None:
                assert got is None
            else:
                assert got.tobytes() == want.tobytes()
                reached += 1
    assert reached > lam.shape[0]


def test_prepinned_entry_holds_its_face_nodes():
    # The vertices are pinned beforehand on the second of three 3-point
    # entries.  They pin nothing more: the edge midpoints take the first
    # free 3-point entry and the third stays free.
    elem = reference_element(ElementKind.TRIANGLE)
    table = {o.index: o for o in orbits(ElementKind.TRIANGLE)}
    vertices = ConstrainedOrbit(table[2], [0.0])
    coll = OrbitCollection(ElementKind.TRIANGLE, 4, (
        ConstrainedOrbit(table[2]), vertices, ConstrainedOrbit(table[2]),
        ConstrainedOrbit(table[3]),
    ))
    pres = [_line_pres(gll_1d(4), 4)]
    pinned = build_compatibility_constraints(elem, coll, pres)
    assert pinned.entries[0].pinned == pytest.approx([0.5], abs=1e-15)
    assert pinned.entries[1] is vertices
    assert pinned.entries[2].pinned is None
    assert pinned.entries[3].pinned is not None
    dist, _ = _realize(pinned)
    assert verify_face_match(elem, dist, pres)


@pytest.mark.parametrize("kind", list(ElementKind))
def test_orbit_multiplicity_does_not_decrease(kind):
    # The first orbit that reaches a point is one of least multiplicity.
    mults = [o.multiplicity for o in orbits(kind)]
    assert mults == sorted(mults)


def _feasible(bounds, u):
    """A point of the orbit bounds: from their interior point toward the
    point ``u`` of the unit box over the parameter intervals, stopped short
    of the boundary."""
    B, lo, hi = bounds.matrix, bounds.lower, bounds.upper
    c = lincon.interior_point(B, lo, hi)
    a, b = lincon.coordinate_intervals(B, lo, hi)
    step = a + u * (b - a) - c
    rc, rd = B @ c, B @ step
    with np.errstate(divide="ignore", invalid="ignore"):
        room = np.where(rd > 0, (hi - rc) / rd, (lo - rc) / rd)
    return c + 0.99 * min(1.0, np.min(room[rd != 0], initial=1.0)) * step


@pytest.mark.parametrize("kind", list(ElementKind))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_decomposition_recovers_realized_collection(kind, data):
    p = data.draw(st.integers(1, 4))
    coll, _ = optimizer._baseline_collection(kind, p)
    xi = np.concatenate([np.zeros(0)] + [
        _feasible(e.orbit.bounds, np.array(data.draw(st.lists(
            st.floats(0.0, 1.0), min_size=e.param_count,
            max_size=e.param_count))))
        for e in coll.entries
    ])
    try:
        nodes = evaluate_collection(coll, xi).nodes
    except DegenerateDistributionError:
        assume(False)
    entries = optimizer._decompose_into_orbits(kind, nodes)
    assert entries is not None
    assert sorted(o.index for o, _ in entries) == sorted(coll.indices)
    found = OrbitCollection(
        kind, p, tuple(ConstrainedOrbit(o) for o, _ in entries)
    )
    xi_found = np.concatenate([np.zeros(0)] + [x for _, x in entries])
    assert same_point_set(
        evaluate_collection(found, xi_found).nodes, nodes, 1e-12
    )
    moved = nodes.copy()
    moved[data.draw(st.integers(0, len(nodes) - 1)), 0] += 1e-3
    assert optimizer._decompose_into_orbits(kind, moved) is None
