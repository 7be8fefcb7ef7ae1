"""Optimization of orbit-collection parameters against the Lebesgue objective.

The objective is the sum of squared cardinal-function integrals.  The modal
basis is orthonormal, so it equals ``tr((V V^T)^-1) = ||V^-1||_F^2`` for the
Vandermonde matrix ``V`` at the nodes, and no quadrature is needed.  Its
gradient is ``d f / d V = -2 (A A^T A)^T`` with ``A = V^-1``, chained
through the basis gradients at the nodes and the affine orbit maps.
Minimization runs on the equality-eliminated (reduced) parameter space with
an active-set quasi-Newton method.

``optimize_nodes`` drives the full per-element pipeline: enumerate candidate
collections (augmented with a baseline-derived multiset and, when face
prescriptions are given, prescription-driven constructions), pin face
constraints, screen non-unisolvent initializations, minimize with a few
jittered restarts, and select the best converged run.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import lincon
from .basis import FunctionSpace, basis_eval_many, basis_grad_many
from .compatibility import (
    build_compatibility_constraints,
    snap_face_nodes,
    verify_face_match,
    _orbit_reach,
    _pin_entry,
    _pin_face_worklist,
)
from .errors import (
    ConstraintConflictError,
    DegenerateDistributionError,
    IncompatibleCollectionError,
    InfeasibleParameterError,
    NoViableCollectionError,
    NumericalError,
)
from .geometry import ElementKind, node_count, reference_element
from .metrics import (
    MetricReport,
    evaluate_metrics,
    is_unisolvent,
    lebesgue_constant,
)
from .symmetry import (
    ConstrainedOrbit,
    LinearConstraintSet,
    MIN_NODE_SEPARATION,
    NodalDistribution,
    OrbitCollection,
    enumerate_admissible_collections,
    evaluate_collection,
    natural_symmetry_group,
    orbits,
)

__all__ = [
    "OptimizerConfig",
    "OptimizationProblem",
    "OptimizedResult",
    "MinimizeOutcome",
    "assemble_problem",
    "objective_and_gradient",
    "minimize",
    "optimize_nodes",
]


@dataclass(frozen=True)
class OptimizerConfig:
    kkt_tol: float = 1e-10
    max_major_iterations: int = 50
    gradient_mode: str = "analytic"  # "analytic" | "fd"
    fd_step: float = 1e-6
    multistart_count: int = 3
    seed: int = 0
    collection_cap: int = 64
    fill_cap: int = 4
    resolution: int | None = None

    def __post_init__(self):
        if self.kkt_tol <= 0:
            raise ValueError("kkt_tol must be positive")
        if self.max_major_iterations < 1:
            raise ValueError("max_major_iterations must be >= 1")
        if self.gradient_mode not in ("analytic", "fd"):
            raise ValueError(f"unknown gradient mode {self.gradient_mode!r}")


@dataclass(eq=False)
class OptimizationProblem:
    """A concrete instance of the node-placement minimization."""

    element: object
    collection: OrbitCollection
    space: FunctionSpace
    constraints: LinearConstraintSet
    # Equality-eliminated parametrization xi = xi_p + Z @ y.
    xi_particular: np.ndarray = field(repr=False, default=None)
    null_basis: np.ndarray = field(repr=False, default=None)
    _node_jacobian: np.ndarray = field(repr=False, default=None)
    _node_offset: np.ndarray = field(repr=False, default=None)

    @property
    def free_dimension(self):
        return self.null_basis.shape[1]

    def nodes_at(self, xi_bar):
        x = self._node_jacobian @ xi_bar + self._node_offset
        return x.reshape(-1, self.element.dim)


@dataclass
class MinimizeOutcome:
    parameters: np.ndarray
    objective: float
    status: str  # "kkt-converged" | "iteration-limited" | "error"
    iterations: int
    kkt_residual: float


@dataclass
class OptimizedResult:
    """Outcome of :func:`optimize_nodes`.

    With face prescriptions, the face nodes of ``distribution`` are the
    exact embedded prescription points; ``parameters`` reproduce them
    through the orbit maps only to round-off.
    """

    distribution: NodalDistribution
    parameters: np.ndarray
    objective: float
    metrics: MetricReport
    collection: OrbitCollection
    status: str


def assemble_problem(elem, collection, space) -> OptimizationProblem:
    """Stack constraints and precompute the affine node map."""
    cons = collection.stacked_constraints()
    if lincon.feasible_point(cons.matrix, cons.lower, cons.upper) is None:
        raise ConstraintConflictError(
            f"stacked constraints of collection {collection.indices} are "
            f"infeasible"
        )
    L = collection.total_params
    d = elem.dim
    n = collection.total_points
    J = np.zeros((n * d, L))
    x0 = np.zeros(n * d)
    row = 0
    for entry, off in zip(collection.entries, collection.offsets):
        l = entry.param_count
        for S, sigma in entry.orbit.maps:
            NS = elem.n_matrix @ S
            J[row : row + d, off : off + l] = NS
            x0[row : row + d] = elem.n_matrix @ sigma + elem.nu
            row += d
    eq = (
        np.isfinite(cons.lower)
        & np.isfinite(cons.upper)
        & (cons.upper - cons.lower <= lincon.EQ_TOL)
    )
    xi_p, Z = lincon.null_space_parametrization(
        cons.matrix[eq], cons.lower[eq]
    )
    return OptimizationProblem(
        element=elem,
        collection=collection,
        space=space,
        constraints=cons,
        xi_particular=xi_p,
        null_basis=Z,
        _node_jacobian=J,
        _node_offset=x0,
    )


def _objective_value(problem, xi_bar, want_grad):
    """Objective ``||V^-1||_F^2`` (and full-space gradient) at stacked
    parameters.

    Raises :class:`DegenerateDistributionError` on node collisions, on a
    singular ``V`` and on a non-finite objective or gradient.
    """
    X = problem.nodes_at(xi_bar)
    n = X.shape[0]
    if n > 1:
        d2 = np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        i, j = np.unravel_index(np.argmin(d2), d2.shape)
        if d2[i, j] <= MIN_NODE_SEPARATION**2:
            raise DegenerateDistributionError(
                f"nodes {i} and {j} are {np.sqrt(d2[i, j]):.3e} apart",
                pair=(int(i), int(j)),
            )
    V = basis_eval_many(problem.space, X)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu = scipy.linalg.lu_factor(V)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise DegenerateDistributionError(
            f"singular Vandermonde matrix: {exc}"
        ) from exc
    A = scipy.linalg.lu_solve(lu, np.eye(n), check_finite=False)
    f = float(np.einsum("ij,ij->", A, A))
    if not np.isfinite(f):
        raise DegenerateDistributionError(
            "objective overflow (nearly singular Vandermonde matrix)"
        )
    if not want_grad:
        return f, None
    GV = -2.0 * (A @ (A.T @ A)).T
    Bgrad = basis_grad_many(problem.space, X)  # (n, n_basis, d)
    dfdX = np.einsum("rjd,rj->rd", Bgrad, GV)
    grad = problem._node_jacobian.T @ dfdX.ravel()
    if not np.all(np.isfinite(grad)):
        raise DegenerateDistributionError(
            "gradient overflow (nearly singular Vandermonde matrix)"
        )
    return f, grad


def objective_and_gradient(problem, xi_bar, mode="analytic", fd_step=1e-6):
    """Objective value and gradient in the free-parameter coordinates.

    Equality constraints are eliminated up front, so the returned gradient
    lives on the feasible manifold: its length is ``problem.free_dimension``
    (an empty vector for fully pinned problems).  The finite-difference mode
    steps along the equality null-space basis directions.
    """
    xi_bar = np.asarray(xi_bar, dtype=float).ravel()
    v = problem.constraints.violation(xi_bar)
    if v > 1e-9:
        raise InfeasibleParameterError(
            f"stacked parameters infeasible (violation {v:.3e})"
        )
    if mode == "analytic":
        f, grad = _objective_value(problem, xi_bar, want_grad=True)
        return f, problem.null_basis.T @ grad
    f, _ = _objective_value(problem, xi_bar, want_grad=False)
    return f, _fd_gradient(problem, xi_bar, fd_step)


def _fd_gradient(problem, xi_bar, h):
    """Central differences along the equality null-space basis directions:
    the gradient in the free-parameter coordinates."""
    Z = problem.null_basis
    g = np.empty(Z.shape[1])
    for k in range(Z.shape[1]):
        step = h * Z[:, k]
        fp, _ = _objective_value(problem, xi_bar + step, want_grad=False)
        fm, _ = _objective_value(problem, xi_bar - step, want_grad=False)
        g[k] = (fp - fm) / (2.0 * h)
    return g


def minimize(problem, config, xi0) -> MinimizeOutcome:
    """Minimize the objective over the stacked constraint set from ``xi0``.

    The starting point is projected onto the constraints when necessary.
    Deterministic for fixed inputs.
    """
    cons = problem.constraints
    xi0 = np.asarray(xi0, dtype=float).ravel()
    if cons.violation(xi0) > 1e-12:
        xi0 = lincon.project_onto(cons.matrix, cons.lower, cons.upper, xi0)

    use_fd = config.gradient_mode == "fd"

    def guarded(xi):
        try:
            if use_fd:
                f, _ = _objective_value(problem, xi, want_grad=False)
                g = problem.null_basis @ _fd_gradient(
                    problem, xi, config.fd_step
                )
            else:
                f, g = _objective_value(problem, xi, want_grad=True)
            if not np.isfinite(f):
                return np.inf, np.zeros(cons.nvars)
            return f, g
        except DegenerateDistributionError:
            return np.inf, np.zeros(cons.nvars)

    res = lincon.minimize_linearly_constrained(
        guarded,
        xi0,
        cons.matrix,
        cons.lower,
        cons.upper,
        tol=config.kkt_tol,
        max_iter=config.max_major_iterations,
    )
    return MinimizeOutcome(
        parameters=res.x,
        objective=res.fun,
        status=res.status,
        iterations=res.iterations,
        kkt_residual=res.kkt_residual,
    )


# ---------------------------------------------------------------------------
# Baseline decomposition and candidate construction
# ---------------------------------------------------------------------------


def _boundary_mask(elem, nodes, tol=1e-9):
    mask = np.zeros(nodes.shape[0], dtype=bool)
    for face in elem.faces:
        _, resid = face.pullback(nodes)
        mask |= resid <= tol
    return mask


def _decompose_into_orbits(kind, nodes, tol=1e-8):
    """Group a symmetric node set into (orbit index, parameters) entries.

    Returns ``None`` when some group cannot be matched to an orbit (the set
    is then not realizable by this package's orbit tables, e.g. it is not
    actually symmetric).
    """
    from .geometry import natural_solve

    elem = reference_element(kind)
    lam = np.atleast_2d(natural_solve(elem, nodes))
    group = natural_symmetry_group(kind)
    n = lam.shape[0]
    assigned = np.zeros(n, dtype=bool)
    orbs = orbits(kind)
    result = []
    for i in range(n):
        if assigned[i]:
            continue
        members = set()
        for P in group:
            img = P @ lam[i]
            dist = np.linalg.norm(lam - img, axis=1)
            j = int(np.argmin(dist))
            if dist[j] > tol:
                return None
            members.add(j)
        members = sorted(members)
        if any(assigned[j] for j in members):
            return None
        for j in members:
            assigned[j] = True
        m = len(members)
        rep = min(
            (tuple(lam[j]) for j in members), key=lambda t: t
        )
        rep = np.asarray(rep)
        placed = False
        for orb in orbs:
            if orb.multiplicity != m:
                continue
            entry = ConstrainedOrbit(
                orb, LinearConstraintSet.empty(orb.param_count)
            )
            xi = _orbit_reach(entry, rep)
            if xi is not None:
                result.append((orb.index, xi))
                placed = True
                break
        if not placed:
            return None
    result.sort(key=lambda t: (t[0], tuple(np.round(t[1], 12))))
    return result


def _baseline_for(kind, p):
    from .baselines import BaselineKind, baseline_distribution

    if kind in (
        ElementKind.LINE,
        ElementKind.QUADRILATERAL,
        ElementKind.HEXAHEDRON,
    ):
        return baseline_distribution(kind, p, BaselineKind.GLL)
    return baseline_distribution(kind, p, BaselineKind.UNIFORM)


def _pinned_face_entries(elem, prescriptions):
    """Greedy orbit pinning for every prescribed face node (smallest orbit
    index wins), independent of any fixed candidate collection."""
    orbs = orbits(elem.kind)
    pinned = []

    def first_orbit(lam_hat):
        for orb in orbs:
            entry = ConstrainedOrbit(
                orb, LinearConstraintSet.empty(orb.param_count)
            )
            xi = _orbit_reach(entry, lam_hat)
            if xi is not None:
                pinned.append(_pin_entry(entry, xi))
                return pinned[-1], xi
        return None

    _pin_face_worklist(
        elem, prescriptions, first_orbit, [], f"{elem.kind.value} orbit table"
    )
    return pinned


def _fill_multisets(kind, remaining, cap, exclude_l0=frozenset()):
    """Lexicographic multisets of orbit indices with total multiplicity
    ``remaining``; parameter-free orbits appear at most once overall."""
    if remaining == 0:
        return [()]
    orbs = orbits(kind)
    avail = [
        o
        for o in orbs
        if o.param_count > 0 or o.index not in exclude_l0
    ]
    out = []

    def dfs(start, rem, prefix, used_l0):
        if len(out) >= cap:
            return
        if rem == 0:
            out.append(tuple(prefix))
            return
        for idx in range(start, len(avail)):
            o = avail[idx]
            if o.multiplicity > rem:
                continue
            if o.param_count == 0 and o.index in used_l0:
                continue
            prefix.append(o.index)
            dfs(
                idx,
                rem - o.multiplicity,
                prefix,
                used_l0 | {o.index} if o.param_count == 0 else used_l0,
            )
            prefix.pop()
            if len(out) >= cap:
                return

    dfs(0, remaining, [], frozenset())
    return out


def _candidate_multisets(kind, p, prescriptions, config):
    """Ordered, deduplicated candidate orbit multisets for the pipeline."""
    enumerated = [
        c.indices
        for c in enumerate_admissible_collections(
            kind, p, config.collection_cap
        )
    ]
    extras = []
    baseline = _baseline_for(kind, p)
    base_entries = _decompose_into_orbits(kind, baseline.nodes)
    if base_entries is not None:
        extras.append(tuple(sorted(idx for idx, _ in base_entries)))
    if prescriptions:
        elem = reference_element(kind)
        try:
            pinned = _pinned_face_entries(elem, prescriptions)
        except IncompatibleCollectionError:
            pinned = None
        if pinned is not None:
            used = sum(e.multiplicity for e in pinned)
            remaining = node_count(kind, p) - used
            if remaining >= 0:
                pin_idx = [e.orbit.index for e in pinned]
                fills = []
                interior = baseline.nodes[
                    ~_boundary_mask(elem, baseline.nodes)
                ]
                if interior.shape[0] == remaining and remaining > 0:
                    dec = _decompose_into_orbits(kind, interior)
                    if dec is not None:
                        fills.append(tuple(sorted(i for i, _ in dec)))
                fills.extend(
                    _fill_multisets(kind, remaining, config.fill_cap)
                )
                for f in fills:
                    extras.append(tuple(sorted(pin_idx + list(f))))
    seen = set()
    ordered = []
    for ms in enumerated + extras:
        key = tuple(sorted(ms))
        if key not in seen:
            seen.add(key)
            ordered.append(key)
    # Fewest distinct orbit indices first, then lexicographic.
    ordered.sort(key=lambda ms: (len(set(ms)), ms))
    return ordered, base_entries


def _collection_from_multiset(kind, p, multiset):
    orbs = {o.index: o for o in orbits(kind)}
    entries = tuple(
        ConstrainedOrbit(
            orbs[i], LinearConstraintSet.empty(orbs[i].param_count)
        )
        for i in multiset
    )
    return OrbitCollection(kind, p, entries)


def _initial_parameters(problem, base_entries, prescriptions):
    """Baseline-derived starting parameters, projected onto the constraints.

    Pinned entries take their pinned values; free entries consume matching
    baseline orbit parameters (interior-node decomposition when face
    prescriptions pin the boundary), falling back to the most interior point
    of their own bounds.
    """
    coll = problem.collection
    pool: dict[int, list] = {}
    if base_entries:
        if prescriptions:
            elem = problem.element
            from .geometry import natural_to_cartesian

            interior = []
            for idx, xi in base_entries:
                orb = next(o for o in orbits(coll.kind) if o.index == idx)
                lam = orb.point_matrix() @ xi + orb.point_offsets()
                pts = natural_to_cartesian(elem, lam, tol=1e-6)
                if not np.any(_boundary_mask(elem, np.atleast_2d(pts))):
                    interior.append((idx, xi))
            source = interior
        else:
            source = base_entries
        for idx, xi in source:
            pool.setdefault(idx, []).append(np.asarray(xi, dtype=float))
    xi0 = np.zeros(coll.total_params)
    for entry, sl in zip(coll.entries, coll.slices()):
        if entry.extra.nrows and entry.is_pinned:
            xi0[sl] = entry.pinned_parameters()
            continue
        candidates = pool.get(entry.orbit.index)
        if candidates:
            xi0[sl] = candidates.pop(0)
            continue
        cons = entry.stacked_constraints()
        pt = lincon.interior_point(cons.matrix, cons.lower, cons.upper)
        if pt is None:
            raise ConstraintConflictError(
                f"entry for orbit {entry.orbit.index} has no feasible point"
            )
        xi0[sl] = pt
    cons = problem.constraints
    if cons.violation(xi0) > 1e-12:
        xi0 = lincon.project_onto(cons.matrix, cons.lower, cons.upper, xi0)
    return xi0


def _jittered_start(problem, xi0, intervals, seed_key):
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    lo, hi = intervals
    span = np.where(
        np.isfinite(hi - lo), hi - lo, 1.0
    )
    delta = 0.05 * span * rng.uniform(-1.0, 1.0, size=xi0.size)
    cons = problem.constraints
    return lincon.project_onto(cons.matrix, cons.lower, cons.upper, xi0 + delta)


def optimize_nodes(kind, p, prescriptions=(), config=None) -> OptimizedResult:
    """Full pipeline: enumerate, constrain, screen, optimize, select best.

    With ``prescriptions``, every node on a face is finally set to its exact
    ``face.embed(prescription)`` coordinate, taken from the first face in
    ``elem.faces`` order that holds it (see
    :func:`~symnodes.compatibility.snap_face_nodes`), so face nodes agree
    bit for bit with the prescriptions on that face.  The returned
    ``parameters`` reproduce these nodes only to round-off.
    """
    kind = ElementKind(kind)
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    config = config or OptimizerConfig()
    elem = reference_element(kind)
    space = FunctionSpace(kind, p)
    prescriptions = tuple(prescriptions)

    multisets, base_entries = _candidate_multisets(
        kind, p, prescriptions, config
    )

    runs = []  # (status_rank, objective, cand_pos, restart, outcome, coll)
    for cand_pos, multiset in enumerate(multisets):
        try:
            cand = _collection_from_multiset(kind, p, multiset)
        except ValueError:
            continue
        if prescriptions:
            try:
                coll = build_compatibility_constraints(
                    elem, cand, prescriptions
                )
            except (IncompatibleCollectionError, ValueError):
                continue
        else:
            coll = cand
        try:
            problem = assemble_problem(elem, coll, space)
            xi0 = _initial_parameters(problem, base_entries, prescriptions)
        except (ConstraintConflictError, NumericalError):
            continue

        # Reject collections whose initial node set is already hopeless.
        try:
            dist0 = evaluate_collection(coll, xi0)
        except DegenerateDistributionError:
            continue
        if not is_unisolvent(space, dist0):
            continue

        cons = problem.constraints
        try:
            intervals = lincon.coordinate_intervals(
                cons.matrix, cons.lower, cons.upper
            )
        except ConstraintConflictError:
            continue
        starts = [xi0]
        for r in range(config.multistart_count):
            starts.append(
                _jittered_start(
                    problem, xi0, intervals, (config.seed, cand_pos, r)
                )
            )
        for restart, start in enumerate(starts):
            outcome = minimize(problem, config, start)
            if outcome.status == "error":
                continue
            if cons.violation(outcome.parameters) > 1e-10:
                continue
            try:
                dist = evaluate_collection(coll, outcome.parameters)
            except DegenerateDistributionError:
                continue
            rank = 0 if outcome.status == "kkt-converged" else 1
            runs.append(
                (rank, outcome.objective, cand_pos, restart, outcome, coll, dist)
            )

    if not runs:
        raise NoViableCollectionError(
            f"no viable orbit collection for {kind.value} degree {p}"
        )

    runs.sort(key=lambda t: (t[0], t[1], t[2], t[3]))
    top_rank, top_f = runs[0][0], runs[0][1]
    ties = [
        r
        for r in runs
        if r[0] == top_rank and r[1] <= top_f + 1e-12 * max(1.0, abs(top_f))
    ]
    # Restarts usually coincide at the same minimizer; only genuinely
    # different node sets need the Lebesgue-constant tie-break.
    distinct = []
    for r in ties:
        if not any(
            r[6].nodes.shape == d[6].nodes.shape
            and np.allclose(r[6].nodes, d[6].nodes, atol=1e-11)
            for d in distinct
        ):
            distinct.append(r)
    if len(distinct) > 1:
        scored = []
        for r in distinct:
            leb = lebesgue_constant(space, r[6], resolution=50)
            scored.append((leb, tuple(sorted(r[5].indices)), r[2], r[3], r))
        scored.sort(key=lambda t: t[:4])
        best = scored[0][4]
    else:
        best = distinct[0]

    _, f_best, _, _, outcome, coll, dist = best
    dist.source = "optimized"
    if prescriptions:
        if not verify_face_match(elem, dist, prescriptions, tol=1e-10):
            raise NumericalError(
                "optimized distribution violates the face prescriptions"
            )
        dist.nodes = snap_face_nodes(elem, dist.nodes, prescriptions)
    report = evaluate_metrics(space, dist, resolution=config.resolution)
    return OptimizedResult(
        distribution=dist,
        parameters=outcome.parameters,
        objective=f_best,
        metrics=report,
        collection=coll,
        status=outcome.status,
    )
