"""Cross-element compatibility: pinning orbits to prescribed face nodes.

:func:`_orbit_entries` answers which orbit, at which parameters, holds a
point given in natural coordinates: the first orbit of the element's table
that :func:`_orbit_reach` places there.  Every orbit point map has full
column rank, so those parameters are unique.  The optimizer decomposes
baseline node sets with it, and face pinning runs it over the prescribed
face nodes (mapped onto one face per face kind): each orbit through them
that no pinned entry holds pins the first free entry on that orbit.
Orbits are symmetric, so adjacent elements sharing the prescriptions have
coincident face nodes.  Every match within ``_MATCH_TOL`` here, of orbit
points and of face nodes, is :func:`symnodes.symmetry._nearest`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IncompatibleCollectionError, OutsideDomainError
from .geometry import (
    ElementKind,
    cartesian_to_natural,
    face_node_count,
    reference_element,
)
from .symmetry import (
    ConstrainedOrbit,
    NodalDistribution,
    OrbitCollection,
    _nearest,
    evaluate_orbit,
    is_symmetric,
    orbits,
    same_point_set,
)

__all__ = [
    "FacePrescription",
    "point_prescription",
    "face_prescriptions",
    "build_compatibility_constraints",
    "snap_face_nodes",
    "verify_face_match",
]

_RESIDUAL_TOL = 1e-10
_FEAS_MARGIN = 1e-12
_MATCH_TOL = 1e-10

# Mixed-face elements resolve triangle faces before quadrilateral faces.
_FACE_KIND_PRIORITY = {None: 0, ElementKind.LINE: 1, ElementKind.TRIANGLE: 2,
                       ElementKind.QUADRILATERAL: 3}


@dataclass(frozen=True, eq=False)
class FacePrescription:
    """A symmetric node distribution prescribed on one face geometry."""

    face_kind: ElementKind | None
    dist: NodalDistribution

    def __post_init__(self):
        if self.face_kind is None:
            return
        if self.dist.kind != self.face_kind:
            raise ValueError(
                f"prescription distribution is for {self.dist.kind}, "
                f"expected {self.face_kind}"
            )
        if not is_symmetric(self.face_kind, self.dist.nodes, _MATCH_TOL):
            raise ValueError(
                "prescribed face distribution is not symmetric under the "
                "face geometry's symmetry group"
            )


def point_prescription(degree=1):
    """The trivial prescription for 0-dimensional faces (line endpoints)."""
    dist = NodalDistribution(
        kind=None, degree=degree, nodes=np.zeros((1, 0)), source="point"
    )
    return FacePrescription(None, dist)


def face_prescriptions(kind, degree, dist_for):
    """Bottom-up prescriptions for ``kind``: one per face kind of the
    element, in ``_FACE_KIND_PRIORITY`` order.

    The line's endpoints take :func:`point_prescription`; every other face
    kind takes the distribution ``dist_for(face_kind, degree)``.
    """
    face_kinds = {f.face_kind for f in reference_element(kind).faces}
    return [
        point_prescription(degree)
        if fk is None
        else FacePrescription(fk, dist_for(fk, degree))
        for fk in sorted(face_kinds, key=_FACE_KIND_PRIORITY.__getitem__)
    ]


@lru_cache(maxsize=None)
def _complements(orbit):
    """Per point map, the projector onto the orthogonal complement of the
    column space of ``S``, stacked: (multiplicity, natural_dim,
    natural_dim), with the offsets ``sigma`` stacked alongside."""
    S = orbit.point_matrix()
    P = np.eye(S.shape[1]) - S @ np.linalg.pinv(S)
    return P, orbit.point_offsets()


def _orbit_reach(orbit, lam_hat):
    """Parameters within the bounds of ``orbit`` that place one of its
    points at ``lam_hat``, else ``None``.

    Every point map has full column rank, so the least-squares solution of
    a map is the only parameter vector that map can reach ``lam_hat`` with;
    the maps are tried in orbit point order.  A map whose least-squares
    residual, projected through :func:`_complements`, exceeds
    ``2 * _RESIDUAL_TOL`` is skipped without a solve: round-off moves that
    residual far less than ``_RESIDUAL_TOL``, so the screen never skips a
    map whose solve would pass.
    """
    P, sigma = _complements(orbit)
    rhs = lam_hat - sigma
    res = np.linalg.norm(np.einsum("mij,mj->mi", P, rhs), axis=1)
    for i in np.flatnonzero(res <= 2 * _RESIDUAL_TOL):
        S = orbit.maps[i][0]
        xi, *_ = np.linalg.lstsq(S, rhs[i], rcond=None)
        if (
            np.linalg.norm(S @ xi - rhs[i]) <= _RESIDUAL_TOL
            and orbit.bounds.violation(xi) <= _FEAS_MARGIN
        ):
            return xi
    return None


def _orbit_entries(kind, lam):
    """Orbits through the natural-coordinate points ``lam``.

    Yields ``(orbit, xi, i)`` for each point ``lam[i]`` that no orbit
    yielded before holds: the first orbit of ``orbits(kind)`` that
    :func:`_orbit_reach` places there and its parameters, or ``(None, None,
    i)`` when none does.  Multiplicities do not decrease along the table,
    so no orbit with fewer points reaches ``lam[i]``.
    """
    held = np.zeros(lam.shape[0], dtype=bool)
    for i in range(lam.shape[0]):
        if held[i]:
            continue
        for orbit in orbits(kind):
            xi = _orbit_reach(orbit, lam[i])
            if xi is not None:
                held |= _nearest(evaluate_orbit(orbit, xi), lam, _MATCH_TOL) >= 0
                yield orbit, xi, i
                break
        else:
            yield None, None, i


def build_compatibility_constraints(
    elem, collection: OrbitCollection, prescriptions
) -> OrbitCollection:
    """Pin collection entries so every face carries its prescribed nodes.

    ``prescriptions`` holds one :class:`FacePrescription` per face kind of
    the element.  The first face of each kind in ``elem.faces`` receives
    the node mapping (any choice yields the same node set, by symmetry).
    Each orbit through its nodes that no pinned entry holds pins the first
    free entry on that orbit.

    Raises :class:`IncompatibleCollectionError` when some prescribed node
    cannot be hosted by any remaining entry.
    """
    by_kind = {}
    for pres in prescriptions:
        if pres.face_kind in by_kind:
            raise ValueError(
                f"duplicate prescription for face kind {pres.face_kind}"
            )
        by_kind[pres.face_kind] = pres
    face_kinds = {f.face_kind for f in elem.faces}
    if face_kinds != set(by_kind):
        missing = face_kinds - set(by_kind)
        extra = set(by_kind) - face_kinds
        raise ValueError(
            f"prescription face kinds do not match element faces "
            f"(missing {missing or '{}'}, extraneous {extra or '{}'})"
        )

    entries = list(collection.entries)
    for fk in sorted(by_kind, key=_FACE_KIND_PRIORITY.__getitem__):
        face = next(f for f in elem.faces if f.face_kind == fk)
        lam = []
        for x in face.embed(by_kind[fk].dist.nodes):
            try:
                lam.append(cartesian_to_natural(elem, x, tol=1e-9))
            except OutsideDomainError as exc:
                raise ValueError(
                    f"prescribed face node {x} falls outside the element"
                ) from exc
        lam = np.array(lam)
        for e in entries:
            if e.pinned is not None:
                lam = lam[_nearest(evaluate_orbit(e, e.pinned), lam, _MATCH_TOL) < 0]
        for orbit, xi, i in _orbit_entries(elem.kind, lam):
            free = [j for j, e in enumerate(entries) if e.pinned is None
                    and orbit is not None and e.orbit.index == orbit.index]
            if not free:
                raise IncompatibleCollectionError(
                    f"collection {collection.indices} cannot place a "
                    f"prescribed {fk.value if fk else 'point'} node at "
                    f"natural coordinates {lam[i]}"
                )
            entries[free[0]] = ConstrainedOrbit(orbit, xi)
    return OrbitCollection(collection.kind, collection.degree, tuple(entries))


def _face_walk(elem, nodes, prescriptions, tol):
    """Per face of ``elem``: the face, the rows of ``nodes`` within ``tol``
    of its affine hull and the embedded prescription of its kind."""
    by_kind = {p.face_kind: p.dist.nodes for p in prescriptions}
    for face in elem.faces:
        rows = np.flatnonzero(face.pullback(nodes)[1] <= tol)
        yield face, rows, face.embed(by_kind[face.face_kind])


def snap_face_nodes(elem, nodes, prescriptions, tol=_MATCH_TOL):
    """Copy of ``nodes`` with every face node set to its exact prescription.

    A node within ``tol`` of a face takes the coordinates of the nearest
    point of that face's embedded prescription within ``tol``.  A node on
    several faces is set by the first of them in ``elem.faces`` order, so
    the result does not depend on the rounding of the other embeddings.
    Call only on node sets that pass :func:`verify_face_match` at ``tol``.
    """
    nodes = np.asarray(nodes, dtype=float)
    snapped, done = nodes.copy(), np.zeros(len(nodes), dtype=bool)
    for _, rows, expected in _face_walk(elem, nodes, prescriptions, tol):
        rows = rows[~done[rows]]
        nearest = _nearest(expected, nodes[rows], tol)
        snapped[rows[nearest >= 0]] = expected[nearest[nearest >= 0]]
        done[rows] = True
    return snapped


def verify_face_match(elem, dist: NodalDistribution, prescriptions, tol=_MATCH_TOL):
    """True when every face of ``dist`` carries exactly its prescribed nodes.

    A node belongs to a face when its distance to the face's affine hull is
    at most ``tol``; the per-face node subsets are compared against the
    embedded prescriptions as sets under ``tol``.
    """
    if {f.face_kind for f in elem.faces} - {p.face_kind for p in prescriptions}:
        return False
    return all(
        rows.size == face_node_count(face.face_kind, dist.degree)
        and same_point_set(dist.nodes[rows], expected, tol)
        for face, rows, expected in _face_walk(
            elem, dist.nodes, prescriptions, tol
        )
    )
