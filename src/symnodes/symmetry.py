"""Symmetry orbits of the reference elements, and the point matcher.

An orbit maps a small parameter vector ``xi`` through a fixed family of
affine maps ``S_i @ xi + sigma_i`` into natural coordinates, producing a
point set closed under the element's symmetry group.  Distributions are
unions of orbits gathered in an :class:`OrbitCollection`, whose stacked
parameter vector is the optimization variable elsewhere in the package.

An orbit's maps are the distinct images ``(P S_1, P sigma_1)`` of its
generator map under :func:`natural_symmetry_group`, in group order:
permutations in lexicographic order of the index tuple, varying slower than
sign patterns, which put ``+1`` before ``-1``.  The group's identity comes
first, so the first point of every orbit is the generator itself, the map
the parameter bounds are derived from.

Each orbit type is a pattern that spells its generator point in natural
coordinates: a letter is a parameter (same letter, same parameter), ``0``
is zero and ``*`` an equal share of what the partition of unity leaves, so
the triangle's ``AA*`` is ``(a, a, 1 - 2a)``.  The letters give the
parameter count and the distinct images the multiplicity, which must not
decrease along a kind's table, so no orbit with fewer points reaches a
point than the first orbit that does.

:func:`_nearest` matches points within a tolerance; :func:`is_symmetric`
runs it on the images of a node set under each reflection of the group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg

from . import lincon
from .errors import (
    ConstraintConflictError,
    DegenerateDistributionError,
    InfeasibleParameterError,
    NumericalError,
)
from .geometry import (
    ElementKind,
    ReferenceElement,
    natural_to_cartesian,
    node_count,
    reference_element,
)

__all__ = [
    "SymmetryOrbit",
    "LinearConstraintSet",
    "ConstrainedOrbit",
    "OrbitCollection",
    "NodalDistribution",
    "orbits",
    "evaluate_orbit",
    "orbit_parameter_bounds",
    "enumerate_admissible_collections",
    "evaluate_collection",
    "natural_symmetry_group",
    "cartesian_symmetry_group",
    "is_symmetric",
    "same_point_set",
    "closest_pair",
    "MIN_NODE_SEPARATION",
]

MIN_NODE_SEPARATION = 1e-8
_PIN_TOL = 1e-9  # bound violation allowed of pinned parameters


@lru_cache(maxsize=None)
def _probe(d):
    """A unit direction in ``d`` dimensions that no symmetry plane of an
    element contains, so that distinct nodes project apart."""
    v = np.sqrt(np.arange(1.0, d + 1.0))
    v /= np.linalg.norm(v)
    v.setflags(write=False)
    return v


def _slack(*arrays):
    """A bound on the rounding error of projecting rows of ``arrays``."""
    scale = max(float(np.abs(a).max(initial=0.0)) for a in arrays)
    return 1e-12 * (1.0 + scale)


@lru_cache(maxsize=None)
def _upper_pairs(n):
    """Row and column of each pair ``i < j`` of ``n`` rows, in row-major
    order."""
    i, j = np.triu_indices(n, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def _distances(x, i, y, j):
    """Distances between the rows ``x[i]`` and ``y[j]``: the square root of
    the sum of squared coordinate differences, summed in axis order."""
    d2 = (x[i, 0] - y[j, 0]) ** 2
    for c in range(1, x.shape[1]):
        d2 += (x[i, c] - y[j, c]) ** 2
    return np.sqrt(d2)


def closest_pair(x):
    """Smallest distance between two rows of ``x``, and the pair ``(i, j)``
    with ``i < j`` attaining it; ``(inf, None)`` for fewer than two rows.

    Ties go to the first pair in row-major order.  The distance is the
    square root of the sum of squared coordinate differences, summed in
    axis order, so it has the bits of the ``n x n x d`` broadcast form.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 2:
        return np.inf, None
    i, j = _upper_pairs(n)
    d = _distances(x, i, x, j)
    k = int(np.argmin(d))
    return float(d[k]), (int(i[k]), int(j[k]))


def _require_separated(x):
    """Raise :class:`DegenerateDistributionError` when two rows of ``x`` are
    at most ``MIN_NODE_SEPARATION`` apart.

    Two rows that close project closer than ``2 MIN_NODE_SEPARATION``, so
    :func:`closest_pair` only runs when two sorted projections are.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[0] < 2:
        return
    proj = np.sort(x @ _probe(x.shape[1]))
    if (proj[1:] - proj[:-1]).min() > 2 * MIN_NODE_SEPARATION + _slack(x):
        return
    sep, pair = closest_pair(x)
    if sep <= MIN_NODE_SEPARATION:
        raise DegenerateDistributionError(
            f"nodes {pair[0]} and {pair[1]} are {sep:.3e} apart", pair=pair
        )


@dataclass(frozen=True, eq=False)
class LinearConstraintSet:
    """Rows ``lower <= matrix @ xi <= upper``; infinite bounds allowed."""

    matrix: np.ndarray  # (r, l)
    lower: np.ndarray  # (r,)
    upper: np.ndarray  # (r,)

    def __post_init__(self):
        if np.any(self.lower > self.upper):
            raise ConstraintConflictError("lower bound exceeds upper bound")

    @property
    def nrows(self):
        return self.matrix.shape[0]

    @property
    def nvars(self):
        return self.matrix.shape[1]

    def violation(self, xi):
        return lincon.violation(self.matrix, self.lower, self.upper, xi)

    @staticmethod
    def empty(nvars):
        return LinearConstraintSet(
            np.zeros((0, nvars)), np.zeros(0), np.zeros(0)
        )


@dataclass(frozen=True, eq=False)
class SymmetryOrbit:
    """One symmetry orbit of one element kind.

    ``maps`` holds the ``multiplicity`` affine point maps ``(S_i, sigma_i)``
    acting on the ``param_count`` orbit parameters; ``bounds`` are the
    parameter constraints derived from the first point map.
    """

    kind: ElementKind
    index: int  # 1-based, as tabulated
    param_count: int
    multiplicity: int
    maps: tuple[tuple[np.ndarray, np.ndarray], ...]
    bounds: LinearConstraintSet = field(repr=False, default=None)

    def point_matrix(self):
        """All maps stacked: (multiplicity, natural_dim, param_count)."""
        return np.stack([s for s, _ in self.maps])

    def point_offsets(self):
        return np.stack([t for _, t in self.maps])


@dataclass(frozen=True, eq=False)
class ConstrainedOrbit:
    """An orbit whose parameters are free, or pinned to the values
    ``pinned`` (which must meet the orbit bounds)."""

    orbit: SymmetryOrbit
    pinned: np.ndarray | None = None

    def __post_init__(self):
        if self.pinned is None:
            return
        xi = np.array(self.pinned, dtype=float).ravel()
        if xi.size != self.param_count:
            raise ValueError(
                f"expected {self.param_count} pinned parameters, got {xi.size}"
            )
        v = self.orbit.bounds.violation(xi)
        if v > _PIN_TOL:
            raise ConstraintConflictError(
                f"pinned parameters violate orbit {self.orbit.index} bounds "
                f"(violation {v:.3e})"
            )
        xi.setflags(write=False)
        object.__setattr__(self, "pinned", xi)

    @property
    def param_count(self):
        return self.orbit.param_count

    @property
    def multiplicity(self):
        return self.orbit.multiplicity


@dataclass(frozen=True, eq=False)
class OrbitCollection:
    """Ordered multiset of constrained orbits with a stacked parameter layout.

    ``degree`` may be ``None`` for free-form collections; when set, the total
    multiplicity must equal the dimension of the degree-``degree`` space.
    """

    kind: ElementKind
    degree: int | None
    entries: tuple[ConstrainedOrbit, ...]
    offsets: tuple[int, ...] = None

    def __post_init__(self):
        offs, pos = [], 0
        for e in self.entries:
            offs.append(pos)
            pos += e.param_count
        object.__setattr__(self, "offsets", tuple(offs))
        object.__setattr__(self, "_total_params", pos)
        if self.degree is not None:
            want = node_count(self.kind, self.degree)
            have = sum(e.multiplicity for e in self.entries)
            if have != want:
                raise ValueError(
                    f"collection multiplicity {have} != space dimension "
                    f"{want} for {self.kind.value} degree {self.degree}"
                )

    @property
    def total_params(self):
        return self._total_params

    @property
    def total_points(self):
        return sum(e.multiplicity for e in self.entries)

    @property
    def indices(self):
        return tuple(e.orbit.index for e in self.entries)

    def slices(self):
        return [
            slice(off, off + e.param_count)
            for off, e in zip(self.offsets, self.entries)
        ]

    def stacked_constraints(self):
        """Block-diagonal assembly of the free entries' bounds, over the
        free parameters in collection order."""
        free = [e.orbit.bounds for e in self.entries if e.pinned is None]
        if not free:  # block_diag() of no blocks has shape (1, 0)
            return LinearConstraintSet.empty(0)
        return LinearConstraintSet(
            scipy.linalg.block_diag(*(b.matrix for b in free)),
            np.concatenate([b.lower for b in free]),
            np.concatenate([b.upper for b in free]),
        )


@dataclass(eq=False)
class NodalDistribution:
    """A realized Cartesian node set for one element kind and degree.

    ``kind`` is ``None`` for the trivial 0-dimensional point set used as the
    face prescription of line elements.
    """

    kind: ElementKind | None
    degree: int
    nodes: np.ndarray  # (n, d)
    source: str = "unspecified"

    def __post_init__(self):
        self.nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))

    @property
    def count(self):
        return self.nodes.shape[0]

    @property
    def dim(self):
        return self.nodes.shape[1]

    def validate(self, tol=1e-10):
        """Enforce the distribution invariants; raises on violation."""
        if self.kind is not None:
            want = node_count(self.kind, self.degree)
            if self.count != want:
                raise ValueError(
                    f"{self.kind.value} degree {self.degree}: expected "
                    f"{want} nodes, got {self.count}"
                )
            elem = reference_element(self.kind)
            from .geometry import contains

            inside = contains(elem, self.nodes, tol)
            if not np.all(inside):
                bad = int(np.argmin(inside))
                raise ValueError(
                    f"node {bad} at {self.nodes[bad]} lies outside the "
                    f"{self.kind.value} domain"
                )
        _require_separated(self.nodes)
        return self


# ---------------------------------------------------------------------------
# Orbit tables
# ---------------------------------------------------------------------------

# The generator pattern of each orbit type (see the module docstring), in
# table order.  No rule derives this order from the group: in their one tie,
# quad, hex and pyramid list the type fixed by a sign flip first, the prism
# the type fixed by a transposition.
_ORBIT_PATTERNS = {
    ElementKind.LINE: "0 A",
    ElementKind.TRIANGLE: "*** AA* AB*",
    ElementKind.QUADRILATERAL: "00 A0 AA AB",
    ElementKind.TETRAHEDRON: "**** AAA* AA** AAB* ABC*",
    ElementKind.HEXAHEDRON: "000 A00 AAA AA0 AB0 AAB ABC",
    ElementKind.PRISM: "***0 ***A AA*0 AA*B AB*0 AB*C",
    ElementKind.PYRAMID: "00A A0B AAB ABC",
}


def _generator(elem, pattern):
    """The map ``(S, sigma)`` of the point that ``pattern`` spells: 1 at
    each letter, and at the ``*`` of a partition-of-unity row of ``elem``
    (ones, with equal bounds) an equal share of the row's value less the
    same share of the row's letters."""
    letters = np.array([ord(c) - ord("A") if c.isalpha() else -1 for c in pattern])
    S = (letters[:, None] == np.arange(letters.max() + 1)).astype(float)
    sigma = np.zeros(len(pattern))
    stars = np.array([c == "*" for c in pattern])
    unity = elem.v_lower == elem.v_upper
    for row, value in zip(elem.b_lambda[unity] != 0.0, elem.v_lower[unity]):
        share = row & stars
        if share.any():
            sigma[share] = value / share.sum()
            S[share] -= S[row].sum(axis=0) / share.sum()
    return S, sigma


def _orbit_maps(generator, group):
    """The distinct images ``(P S, P sigma)`` of the generator map
    ``(S, sigma)`` under ``group``, in group order."""
    S0, s0 = generator
    maps = {}
    for P in group:
        # Adding 0.0 turns -0.0 into 0.0, so duplicate maps match bytewise.
        S = P @ S0 + 0.0
        sigma = P @ s0 + 0.0
        S.setflags(write=False)
        sigma.setflags(write=False)
        maps.setdefault((S.tobytes(), sigma.tobytes()), (S, sigma))
    return list(maps.values())


def orbit_parameter_bounds(elem: ReferenceElement, orbit) -> LinearConstraintSet:
    """Parameter constraints induced by the natural bounds via the first map.

    Rows come from ``B_lambda @ S_1`` with bounds shifted by
    ``B_lambda @ sigma_1``; identically-zero rows whose constant bounds hold
    are dropped, as are exact duplicate rows.
    """
    S1, s1 = orbit.maps[0]
    B = elem.b_lambda @ S1
    shift = elem.b_lambda @ s1
    lo = elem.v_lower - shift
    hi = elem.v_upper - shift
    keep, seen = [], set()
    for r in range(B.shape[0]):
        if np.all(B[r] == 0.0):
            if lo[r] > 1e-12 or hi[r] < -1e-12:
                raise NumericalError(
                    "orbit map violates a constant natural bound"
                )
            continue
        key = (B[r].tobytes(), float(lo[r]), float(hi[r]))
        if key in seen:
            continue
        seen.add(key)
        keep.append(r)
    return LinearConstraintSet(B[keep], lo[keep], hi[keep])


@lru_cache(maxsize=None)
def orbits(kind: ElementKind) -> tuple[SymmetryOrbit, ...]:
    """All symmetry orbits of ``kind``, with derived parameter bounds."""
    kind = ElementKind(kind)
    elem = reference_element(kind)
    group = natural_symmetry_group(kind)
    out = []
    for i, pattern in enumerate(_ORBIT_PATTERNS[kind].split(), start=1):
        maps = _orbit_maps(_generator(elem, pattern), group)
        if out and len(maps) < out[-1].multiplicity:
            raise NumericalError(
                f"{kind.value} orbit {i} has {len(maps)} points, fewer than "
                f"orbit {i - 1}"
            )
        orbit = SymmetryOrbit(
            kind=kind,
            index=i,
            param_count=maps[0][0].shape[1],
            multiplicity=len(maps),
            maps=tuple(maps),
        )
        object.__setattr__(orbit, "bounds", orbit_parameter_bounds(elem, orbit))
        out.append(orbit)
    return tuple(out)


def evaluate_orbit(orbit, xi, tol=1e-9):
    """Natural coordinates of every orbit point at parameters ``xi``.

    Accepts a :class:`SymmetryOrbit` or :class:`ConstrainedOrbit`; the
    parameters must satisfy the orbit bounds, and equal the pinned values
    of a pinned entry, within ``tol``.
    """
    xi = np.asarray(xi, dtype=float).ravel()
    pinned = None
    if isinstance(orbit, ConstrainedOrbit):
        orbit, pinned = orbit.orbit, orbit.pinned
    if xi.size != orbit.param_count:
        raise InfeasibleParameterError(
            f"expected {orbit.param_count} parameters, got {xi.size}"
        )
    v = orbit.bounds.violation(xi)
    if pinned is not None:
        v = max(v, float(np.max(np.abs(xi - pinned), initial=0.0)))
    if v > tol:
        raise InfeasibleParameterError(
            f"orbit {orbit.index} parameters infeasible (violation {v:.3e})"
        )
    return orbit.point_matrix() @ xi + orbit.point_offsets()


def enumerate_admissible_collections(kind, p, cap=64):
    """Orbit multisets whose total multiplicity matches the space dimension.

    Parameter-free orbits appear at most once (repeating one would duplicate
    its fixed points exactly).  Results are ordered lexicographically by the
    sorted orbit-index tuple and truncated at ``cap``.
    """
    kind = ElementKind(kind)
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    orbs = orbits(kind)

    @lru_cache(maxsize=None)
    def combos(start, remaining):
        """The first ``cap`` index tuples over ``orbs[start:]`` whose
        multiplicities sum to ``remaining``; a parameter-free orbit at most
        once."""
        if remaining == 0:
            return [()]
        out = []
        for j in range(start, len(orbs)):
            m = orbs[j].multiplicity
            if m <= remaining and len(out) < cap:
                rest = combos(j if orbs[j].param_count else j + 1, remaining - m)
                out += [(j,) + tail for tail in rest[: cap - len(out)]]
        return out

    return [
        OrbitCollection(kind, p, tuple(ConstrainedOrbit(orbs[j]) for j in combo))
        for combo in combos(0, node_count(kind, p))
    ]


def evaluate_collection(collection: OrbitCollection, xi_bar, tol=1e-9):
    """Realize a collection at stacked parameters ``xi_bar``.

    Nodes appear in collection order, then orbit-internal point order.
    Raises :class:`DegenerateDistributionError` when nodes (nearly) collide.
    """
    xi_bar = np.asarray(xi_bar, dtype=float).ravel()
    if xi_bar.size != collection.total_params:
        raise InfeasibleParameterError(
            f"expected {collection.total_params} stacked parameters, got "
            f"{xi_bar.size}"
        )
    elem = reference_element(collection.kind)
    pieces = []
    for entry, sl in zip(collection.entries, collection.slices()):
        lam = evaluate_orbit(entry, xi_bar[sl], tol=tol)
        pieces.append(lam)
    lam_all = np.vstack(pieces)
    nodes = natural_to_cartesian(elem, lam_all, tol=max(tol, 1e-9))
    dist = NodalDistribution(
        kind=collection.kind,
        degree=collection.degree,
        nodes=nodes,
        source="collection",
    )
    if collection.degree is not None:
        dist.validate()
    else:
        _require_separated(dist.nodes)
    return dist


# ---------------------------------------------------------------------------
# Symmetry groups
# ---------------------------------------------------------------------------


# Per kind: how many leading natural components the group permutes, and
# which components it flips in sign.
_GROUP_ACTION = {
    ElementKind.LINE: (1, (0,)),
    ElementKind.TRIANGLE: (3, ()),
    ElementKind.QUADRILATERAL: (2, (0, 1)),
    ElementKind.TETRAHEDRON: (4, ()),
    ElementKind.HEXAHEDRON: (3, (0, 1, 2)),
    ElementKind.PRISM: (3, (3,)),
    ElementKind.PYRAMID: (2, (0, 1)),
}


@lru_cache(maxsize=None)
def natural_symmetry_group(kind):
    """Orthogonal natural-coordinate transformations of the element group.

    Simplex-like shapes permute barycentric components; tensor shapes apply
    signed coordinate permutations; the prism combines a barycentric
    permutation with an axis flip; the pyramid applies the base square's
    signed permutations to (x, y).  Permutations are enumerated in
    lexicographic order and vary slower than signs, ``+1`` before ``-1``,
    so the identity comes first.
    """
    kind = ElementKind(kind)
    dprime = reference_element(kind).natural_dim
    nperm, flips = _GROUP_ACTION[kind]
    rows = np.arange(dprime)
    mats = []
    for perm in itertools.permutations(range(nperm)):
        cols = list(perm) + list(range(nperm, dprime))
        for signs in itertools.product([1.0, -1.0], repeat=len(flips)):
            diag = np.ones(dprime)
            diag[list(flips)] = signs
            P = np.zeros((dprime, dprime))
            P[rows, cols] = diag
            P.setflags(write=False)
            mats.append(P)
    return tuple(mats)


@lru_cache(maxsize=None)
def cartesian_symmetry_group(kind):
    """The element symmetry group as Cartesian affine maps ``(A, b)``."""
    kind = ElementKind(kind)
    elem = reference_element(kind)
    d = elem.dim
    G = elem._solve_matrix[:, :d]
    e = elem._solve_rhs_vals
    g_const = elem._solve_matrix[:, d:] @ e if e.size else np.zeros(
        elem.natural_dim
    )
    out = []
    for P in natural_symmetry_group(kind):
        A = elem.n_matrix @ P @ G
        b = elem.n_matrix @ P @ g_const + elem.nu
        A.setflags(write=False)
        b.setflags(write=False)
        out.append((A, b))
    return tuple(out)


@lru_cache(maxsize=None)
def _reflections(kind):
    """Cartesian maps ``(A, b)`` of the reflections of the element group,
    stacked as (r, d, d) and (r, d): the maps ``P`` of
    :func:`natural_symmetry_group` with ``P @ P = I`` and trace
    ``natural_dim - 2``.  Every element group is a finite reflection group,
    which its reflections generate (Humphreys 1990)."""
    group = natural_symmetry_group(kind)
    eye = np.eye(group[0].shape[0])
    A, b = (np.stack(m) for m in zip(*(
        g for P, g in zip(group, cartesian_symmetry_group(kind))
        if np.array_equal(P @ P, eye) and np.trace(P) == len(eye) - 2
    )))
    A.setflags(write=False)
    b.setflags(write=False)
    return A, b


def _nearest(points, queries, tol):
    """Per row of ``queries``, the index of its nearest row of ``points``
    within ``tol``, or -1.  Only the points whose projections lie within
    ``tol`` of the query's are tried, found by bisecting the sorted
    projections; distances are taken as :func:`closest_pair` takes them."""
    n, d = points.shape
    proj, qproj = points @ _probe(d), queries @ _probe(d)
    reach = tol + _slack(points, queries)
    order = np.argsort(proj, kind="stable")
    first = np.searchsorted(proj[order], qproj - reach, "left")
    stop = np.searchsorted(proj[order], qproj + reach, "right")
    nearest = np.full(queries.shape[0], -1)
    best = np.full(queries.shape[0], np.inf)
    for k in range(int(np.max(stop - first, initial=0))):
        cand = order[np.minimum(first + k, n - 1)]
        dist = _distances(queries, slice(None), points, cand)
        closer = (first + k < stop) & (dist <= tol) & (dist < best)
        nearest[closer] = cand[closer]
        best[closer] = dist[closer]
    return nearest


def _one_to_one(points, images, tol):
    """Whether each (n, d) slice of ``images`` matches the n rows of
    ``points`` one to one within ``tol``, each image taking its nearest
    point, as it does when the points are more than ``2 tol`` apart."""
    n, d = points.shape
    nearest = _nearest(points, images.reshape(-1, d), tol).reshape(-1, n)
    return bool(np.all(np.sort(nearest, axis=1) == np.arange(n)))


def same_point_set(a, b, tol):
    """Whether the rows of ``a`` and ``b`` match one to one within
    ``tol``."""
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    return a.shape == b.shape and _one_to_one(b, a, tol)


def is_symmetric(kind, nodes, tol):
    """Whether each reflection of the group of ``kind`` (:func:`_reflections`)
    matches ``nodes`` to their images one to one within ``tol``; the other
    maps, products of reflections, then match them within a small multiple
    of ``tol``."""
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    A, b = _reflections(ElementKind(kind))
    return _one_to_one(nodes, nodes @ A.transpose(0, 2, 1) + b[:, None], tol)
