"""Optimization of orbit-collection parameters against the Lebesgue objective.

The objective is the sum of squared cardinal-function integrals.  The modal
basis is orthonormal, so it equals ``tr((V V^T)^-1) = ||V^-1||_F^2`` for the
Vandermonde matrix ``V`` at the nodes, and no quadrature is needed.  Its
gradient is ``d f / d V = -2 (A A^T A)^T`` with ``A = V^-1``, chained
through the basis gradients at the nodes and the affine orbit maps.
Minimization runs on the equality-eliminated (reduced) parameter space with
an active-set quasi-Newton method.

``optimize_nodes`` drives the per-element pipeline on one orbit collection,
the orbit decomposition of the element's baseline nodes: pin its entries to
the face prescriptions, start from the baseline parameters, screen the
start for unisolvency, minimize from it and from a few jittered restarts,
and keep the run with the lowest objective.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg

from . import lincon
from .basis import FunctionSpace, basis_eval_many, basis_grad_many
from .compatibility import (
    build_compatibility_constraints,
    snap_face_nodes,
    verify_face_match,
    _orbit_reach,
)
from .errors import (
    ConstraintConflictError,
    DegenerateDistributionError,
    IncompatibleCollectionError,
    InfeasibleParameterError,
    NoViableCollectionError,
    NumericalError,
)
from .geometry import (
    ElementKind,
    natural_solve,
    natural_to_cartesian,
    reference_element,
)
from .metrics import MetricReport, evaluate_metrics, is_unisolvent
from .symmetry import (
    ConstrainedOrbit,
    LinearConstraintSet,
    NodalDistribution,
    OrbitCollection,
    _require_separated,
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
    multistart_count: int = 3
    seed: int = 0
    resolution: int | None = None

    def __post_init__(self):
        if self.kkt_tol <= 0:
            raise ValueError("kkt_tol must be positive")
        if self.max_major_iterations < 1:
            raise ValueError("max_major_iterations must be >= 1")


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
    eq = lincon.equality_rows(cons.lower, cons.upper)
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


def _objective_value(problem, xi_bar):
    """Objective ``||V^-1||_F^2`` at stacked parameters, and a zero-argument
    callable returning its full-space gradient there (``None`` when the
    gradient is not finite).

    The callable reuses the nodes and ``A = V^-1`` of this evaluation, so
    the line search of :func:`~symnodes.lincon.minimize_linearly_constrained`
    pays for the basis gradients only at the points it keeps.  Raises
    :class:`DegenerateDistributionError` on node collisions, on a singular
    ``V`` and on a non-finite objective.
    """
    X = problem.nodes_at(xi_bar)
    _require_separated(X)
    n = X.shape[0]
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

    def gradient():
        GV = -2.0 * (A @ (A.T @ A)).T
        Bgrad = basis_grad_many(problem.space, X)  # (n, n_basis, d)
        dfdX = np.einsum("rjd,rj->rd", Bgrad, GV)
        grad = problem._node_jacobian.T @ dfdX.ravel()
        return grad if np.all(np.isfinite(grad)) else None

    return f, gradient


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
    f, gradient = _objective_value(problem, xi_bar)
    if mode != "analytic":
        return f, _fd_gradient(problem, xi_bar, fd_step)
    grad = gradient()
    if grad is None:
        raise DegenerateDistributionError(
            "gradient overflow (nearly singular Vandermonde matrix)"
        )
    return f, problem.null_basis.T @ grad


def _fd_gradient(problem, xi_bar, h):
    """Central differences along the equality null-space basis directions:
    the gradient in the free-parameter coordinates."""
    Z = problem.null_basis
    g = np.empty(Z.shape[1])
    for k in range(Z.shape[1]):
        step = h * Z[:, k]
        fp, _ = _objective_value(problem, xi_bar + step)
        fm, _ = _objective_value(problem, xi_bar - step)
        g[k] = (fp - fm) / (2.0 * h)
    return g


def minimize(problem, config, xi0) -> MinimizeOutcome:
    """Minimize the objective over the stacked constraint set from ``xi0``.

    The starting point is projected onto the constraints when necessary
    (by :func:`~symnodes.lincon.minimize_linearly_constrained`).
    Deterministic for fixed inputs.
    """
    cons = problem.constraints

    def guarded(xi):
        try:
            return _objective_value(problem, xi)
        except DegenerateDistributionError:
            return np.inf, None

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
# Baseline decomposition and the start
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


def _baseline_collection(kind, p):
    """The orbit decomposition of ``_baseline_for(kind, p)``.

    Returns the collection (orbit indices ascending, nothing pinned) and the
    ``(orbit index, parameters)`` entries that seed the start.
    """
    base_entries = _decompose_into_orbits(kind, _baseline_for(kind, p).nodes)
    if base_entries is None:
        raise NoViableCollectionError(
            f"{kind.value} degree {p}: the baseline nodes do not decompose "
            f"into orbits"
        )
    table = {o.index: o for o in orbits(kind)}
    entries = tuple(
        ConstrainedOrbit(
            table[i], LinearConstraintSet.empty(table[i].param_count)
        )
        for i, _ in base_entries
    )
    return OrbitCollection(kind, p, entries), base_entries


def _initial_parameters(problem, base_entries, prescriptions):
    """Baseline parameters, projected onto the constraints.

    Pinned entries take their pinned values; every other entry takes the
    next baseline parameters of its orbit, drawn only from orbits off the
    boundary when face prescriptions pin the boundary.  Raises
    :class:`ValueError` when the baseline has none left for some entry.
    """
    coll = problem.collection
    elem = problem.element
    table = {o.index: o for o in orbits(coll.kind)}
    pool: dict[int, list] = {}
    for idx, xi in base_entries:
        if prescriptions:
            orb = table[idx]
            lam = orb.point_matrix() @ xi + orb.point_offsets()
            pts = natural_to_cartesian(elem, lam, tol=1e-6)
            if np.any(_boundary_mask(elem, np.atleast_2d(pts))):
                continue
        pool.setdefault(idx, []).append(np.asarray(xi, dtype=float))
    xi0 = np.zeros(coll.total_params)
    for entry, sl in zip(coll.entries, coll.slices()):
        if entry.extra.nrows and entry.is_pinned:
            xi0[sl] = entry.pinned_parameters()
        elif pool.get(entry.orbit.index):
            xi0[sl] = pool[entry.orbit.index].pop(0)
        else:
            raise ValueError(
                f"the baseline has no parameters left for orbit "
                f"{entry.orbit.index}"
            )
    cons = problem.constraints
    if cons.violation(xi0) > 1e-12:
        xi0 = lincon.project_onto(cons.matrix, cons.lower, cons.upper, xi0)
    return xi0


@lru_cache(maxsize=None)
def _orbit_intervals(orbit):
    """Per-parameter ``(min, max)`` over the orbit's own bounds.

    The stacked constraints are block diagonal, so for an entry without
    extra constraints these are its intervals in the stacked system.  They
    are finite: the element is bounded and the first point map injective.
    """
    b = orbit.bounds
    lo, hi = lincon.coordinate_intervals(b.matrix, b.lower, b.upper)
    lo.setflags(write=False)
    hi.setflags(write=False)
    return lo, hi


def _jitter_spans(collection):
    """Width of each stacked parameter's feasible interval: the orbit's own
    interval for free entries, zero for entries pinned to face nodes."""
    span = np.zeros(collection.total_params)
    for entry, sl in zip(collection.entries, collection.slices()):
        if entry.extra.nrows == 0:
            lo, hi = _orbit_intervals(entry.orbit)
            span[sl] = hi - lo
    return span


def _jittered_start(problem, xi0, span, seed_key):
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    delta = 0.05 * span * rng.uniform(-1.0, 1.0, size=xi0.size)
    cons = problem.constraints
    return lincon.project_onto(cons.matrix, cons.lower, cons.upper, xi0 + delta)


@contextmanager
def _stage(where, stage, *errors):
    """Re-raise ``errors`` as :class:`NoViableCollectionError` naming the
    element and the pipeline stage, with the cause chained."""
    try:
        yield
    except errors as exc:
        raise NoViableCollectionError(
            f"{where}: {stage} failed: {exc}"
        ) from exc


def optimize_nodes(kind, p, prescriptions=(), config=None) -> OptimizedResult:
    """Optimize the orbit decomposition of the element's baseline nodes.

    The collection is the orbit decomposition of the baseline (GLL tensor
    nodes on line/quad/hex, uniform nodes elsewhere).  With
    ``prescriptions`` its entries are pinned to the face nodes
    (:func:`~symnodes.compatibility.build_compatibility_constraints`).  The
    minimization starts from the baseline parameters and from
    ``config.multistart_count`` jittered copies, each seeded by
    ``(config.seed, restart)``; the jitter is up to 5 % of each free
    parameter's range over its orbit's bounds, and parameters pinned to
    face nodes are not jittered.  A fully pinned problem (free dimension 0) runs the
    baseline start only.  Among the runs that end feasible with a valid
    node set, the lowest objective wins whatever the run's status; the
    lower restart number breaks exact ties.  Every failure before the
    restarts, and a failure of all restarts, raises
    :class:`NoViableCollectionError` naming the stage, with the cause
    chained.

    The baseline's orbits host every unisolvent symmetric face set of
    degree ``p``: each face symmetry fixes as many nodes of such a set as
    the trace of its action on the face polynomial space, and these counts
    fix how many face orbits of each kind the set has, as they do for the
    baseline's faces.  A face set with other orbits (say six interior tri
    p=5 nodes in one orbit, which lie on a circle) is not unisolvent, so no
    element carrying it is; it fails at face pinning.

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
    where = f"{kind.value} degree {p}"

    coll, base_entries = _baseline_collection(kind, p)
    if prescriptions:
        with _stage(
            where, "face pinning", IncompatibleCollectionError, ValueError
        ):
            coll = build_compatibility_constraints(elem, coll, prescriptions)
    with _stage(where, "assembly", ConstraintConflictError):
        problem = assemble_problem(elem, coll, space)
    with _stage(where, "start", ValueError, DegenerateDistributionError):
        xi0 = _initial_parameters(problem, base_entries, prescriptions)
        dist0 = evaluate_collection(coll, xi0)
    if not is_unisolvent(space, dist0):
        raise NoViableCollectionError(f"{where}: the start is not unisolvent")
    starts = [xi0]
    if problem.free_dimension > 0:
        span = _jitter_spans(coll)
        starts += [
            _jittered_start(problem, xi0, span, (config.seed, restart))
            for restart in range(1, config.multistart_count + 1)
        ]
    cons = problem.constraints
    runs = []  # (objective, restart, outcome, distribution)
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
        runs.append((outcome.objective, restart, outcome, dist))

    if not runs:
        raise NoViableCollectionError(
            f"{where}: all {len(starts)} restarts failed"
        )

    f_best, _, outcome, dist = min(runs, key=lambda r: r[:2])
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
