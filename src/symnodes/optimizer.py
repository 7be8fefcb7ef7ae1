"""Optimization of orbit-collection parameters against the Lebesgue objective.

The objective is the sum of squared cardinal-function integrals.  The modal
basis is orthonormal, so it equals ``tr((V V^T)^-1) = ||V^-1||_F^2`` for the
Vandermonde matrix ``V`` at the nodes (one row per node), and no quadrature
is needed.  Entries pinned to face nodes keep their parameter values;
minimization runs over the parameters of the free entries with the
active-set Newton method of :mod:`~symnodes.lincon`, on the exact gradient
and Hessian (:func:`_hessian`).

Nodes split into fixed ones, which no free parameter moves (the nodes of
pinned entries and fixed points such as the vertices), and moving ones.
With ``B`` the basis at the fixed nodes, the complete QR
``B^T = [Q1 Q2] [R; 0]`` makes ``V [Q1 Q2]`` block lower triangular, so
with ``C`` the basis at the moving nodes, ``[W M] = C [K Q2]``,
``K = Q1 R^-T`` and ``G = M^-1``,

    ``||V^-1||_F^2 = ||R^-1||_F^2 + ||G||_F^2 + ||G W||_F^2``,
    ``d f / d C = 2 G^T G (W K^T - S G^T Q2^T)``,  ``S = I + W W^T``.

The QR is computed once per problem; each evaluation builds one Jacobi
table, only at the moving nodes, for ``C`` and for the basis gradients and
second derivatives where the gradient and Hessian are asked for, chained
through the affine orbit maps.  ``G``, as every Vandermonde inverse, comes
from :func:`~symnodes.basis.lu_inverse`.

``optimize_nodes`` drives the per-element pipeline on one orbit collection,
the orbit decomposition of the element's baseline nodes: pin its entries to
the face prescriptions, minimize from the baseline parameters and from a
few jittered restarts (the solver's first evaluation is the only screen of
a start, and of the fixed nodes' QR, whose ``||R^-1||_F^2`` every
objective holds), and keep the run with the lowest objective.  Each run's
record is the solver's :class:`~symnodes.lincon.SolveResult`.  It returns
the winner's node set; its metrics are left to
:func:`~symnodes.metrics.evaluate_metrics`.

The runs of an element go in lockstep (:class:`_Lockstep`): each round
evaluates the next point of every live run with one basis evaluation
(:func:`_objective_values`), and each run ends bit for bit as it does alone.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cache, lru_cache
from numbers import Integral

import numpy as np
import scipy.linalg

from . import lincon
from .baselines import BaselineKind, baseline_distribution
from .basis import (
    MASS_RATIO, FunctionSpace, basis_eval_many, basis_eval_with_grad,
    lu_inverse,
)
from .compatibility import (
    build_compatibility_constraints,
    snap_face_nodes,
    verify_face_match,
    _orbit_entries,
)
from .errors import (
    DegenerateDistributionError,
    IncompatibleCollectionError,
    NoViableCollectionError,
    NumericalError,
)
from .geometry import TENSOR_KINDS, ElementKind, natural_solve, reference_element
from .symmetry import (
    ConstrainedOrbit,
    LinearConstraintSet,
    NodalDistribution,
    OrbitCollection,
    _require_separated,
    evaluate_collection,
)

__all__ = [
    "OptimizerConfig",
    "OptimizationProblem",
    "OptimizedResult",
    "assemble_problem",
    "minimize",
    "optimize_nodes",
]


# Jittered restarts after the baseline start.
MULTISTART_COUNT = 3
# Basis-gradient entries up to which an element's runs share objective calls
# (``_Lockstep``): the benchmark's need 4 x 12800 at most, tri p=15 4 x 24480.
_ROUND_BUDGET = 1 << 16


@dataclass(frozen=True)
class OptimizerConfig:
    """Solver options; a :class:`ValueError` here names the field first."""

    kkt_tol: float = 1e-10
    max_major_iterations: int = 200
    seed: int = 0

    def __post_init__(self):
        for name, least in (("seed", 0), ("max_major_iterations", 1)):
            value = getattr(self, name)
            if not (isinstance(value, Integral) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, "
                                 f"got {value}")
        if not 0 < self.kkt_tol < np.inf:
            raise ValueError(f"kkt_tol must be finite and > 0, got "
                             f"{self.kkt_tol}")


@dataclass(eq=False)
class OptimizationProblem:
    """A concrete instance of the node-placement minimization.

    The variables ``y`` are the parameters of the collection's free entries,
    in collection order; ``constraints`` are their bounds.  Pinned entries
    keep their values, which ``_node_offset`` already holds.  Nodes whose
    rows of ``_node_jacobian`` are all zero are fixed; construction splits
    them from the moving nodes and factors the basis at them once (see the
    module docstring); the starts' objective judges that factor
    (:func:`_fixed_block`).
    """

    element: object
    collection: OrbitCollection
    space: FunctionSpace
    constraints: LinearConstraintSet
    free_mask: np.ndarray = field(repr=False, default=None)  # stacked params
    pinned_values: np.ndarray = field(repr=False, default=None)  # 0 if free
    _node_jacobian: np.ndarray = field(repr=False, default=None)
    _node_offset: np.ndarray = field(repr=False, default=None)
    _moving: np.ndarray = field(init=False, repr=False)  # node mask
    _moving_jacobian: np.ndarray = field(init=False, repr=False)
    _fixed_map: np.ndarray = field(init=False, repr=False)  # [K Q2]
    _fixed_objective: float = field(init=False, repr=False)  # ||R^-1||_F^2

    def __post_init__(self):
        d = self.element.dim
        J = self._node_jacobian
        n = J.shape[0] // d
        moving = np.any(J.reshape(n, d * J.shape[1]) != 0, axis=1)
        self._moving = moving
        self._moving_jacobian = J[np.repeat(moving, d)]
        fixed_nodes = self._node_offset.reshape(n, d)[~moving]
        self._fixed_map, self._fixed_objective = _fixed_block(
            self.space, fixed_nodes
        )

    @property
    def free_dimension(self):
        return self.constraints.nvars

    def stacked(self, y):
        """Stacked parameters: the pinned values, with ``y`` at the free
        entries."""
        xi = self.pinned_values.copy()
        xi[self.free_mask] = y
        return xi

    def nodes_at(self, y):
        x = self._node_jacobian @ y + self._node_offset
        return x.reshape(-1, self.element.dim)


def _fixed_block(space, fixed_nodes):
    """``[K Q2]`` and ``||R^-1||_F^2`` for the basis ``B`` at the fixed nodes,
    from the complete QR ``B^T = [Q1 Q2] [R; 0]`` with ``K = Q1 R^-T``
    (``Q1`` has orthonormal columns, so ``||K||_F = ||R^-1||_F``).

    A degenerate ``B`` is judged with every start, whose objective holds
    ``||R^-1||_F^2`` (see :func:`minimize`): dependent rows put it at or
    above ``1 / MASS_RATIO``, a non-finite ``B`` leaves it undefined, and
    an exactly zero pivot of ``R`` raises :class:`numpy.linalg.LinAlgError`
    here, a :class:`ValueError`.
    """
    B = basis_eval_many(space, fixed_nodes)
    k = B.shape[0]
    Q, R = scipy.linalg.qr(B.T, check_finite=False)
    K = scipy.linalg.solve_triangular(R[:k], Q[:, :k].T, check_finite=False).T
    Q[:, :k] = K
    return Q, float(np.einsum("ij,ij->", K, K))


# A start objective at or above this is near singular (see ``minimize``).
_SINGULAR_OBJECTIVE = 1.0 / MASS_RATIO


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
    collection: OrbitCollection
    status: str
    curvature: float = np.nan  # the winning run's (see lincon.SolveResult)


def assemble_problem(elem, collection, space) -> OptimizationProblem:
    """Split the stacked parameters into pinned values and free variables,
    precompute the affine node map of the free variables, and split the
    nodes into fixed and moving ones (see :class:`OptimizationProblem`)."""
    L = collection.total_params
    d = elem.dim
    n = collection.total_points
    J = np.zeros((n * d, L))
    x0 = np.zeros(n * d)
    free = np.ones(L, dtype=bool)
    pinned = np.zeros(L)
    row = 0
    for entry, sl in zip(collection.entries, collection.slices()):
        if entry.pinned is not None:
            free[sl] = False
            pinned[sl] = entry.pinned
        for S, sigma in zip(entry.orbit.S, entry.orbit.sigma):
            J[row : row + d, sl] = elem.n_matrix @ S
            x0[row : row + d] = elem.n_matrix @ sigma
            row += d
    return OptimizationProblem(
        element=elem,
        collection=collection,
        space=space,
        constraints=collection.stacked_constraints(),
        free_mask=free,
        pinned_values=pinned,
        _node_jacobian=J[:, free],
        _node_offset=J @ pinned + x0,
    )


def _objective_value(problem, y, basis=None):
    """Objective ``||V^-1||_F^2`` at free parameters ``y``, and a
    zero-argument callable returning its gradient and Hessian there
    (:func:`_hessian`; ``None`` when they are not finite).

    Only the moving nodes enter the work: with ``C`` the basis there,
    ``[W M] = C [K Q2]`` and ``G = M^-1``, the objective is
    ``||R^-1||_F^2 + ||G||_F^2 + ||G W||_F^2``, where ``R``, ``K`` and
    ``Q2`` come from the QR of the basis at the fixed nodes (see the module
    docstring); a fully pinned problem has no moving node and returns
    ``||R^-1||_F^2``.  ``basis`` is ``C`` and its derivatives callable, as
    :func:`~symnodes.basis.basis_eval_with_grad` gives them, when a batch
    has them (:func:`_objective_values`).  The callable reuses them, ``W``
    and ``G`` (:func:`~symnodes.basis.lu_inverse`), so the line search pays
    for the basis derivatives only at the points it keeps.  Raises
    :class:`DegenerateDistributionError` on node collisions (among all
    nodes), on a non-finite basis at the moving nodes and on a non-finite
    objective, which an exactly singular ``M`` gives.
    """
    X = problem.nodes_at(y)
    _require_separated(X)
    if basis is None:
        basis = basis_eval_with_grad(problem.space, X[problem._moving])
    C, basis_derivatives = basis
    KQ = problem._fixed_map
    k = KQ.shape[1] - C.shape[0]  # fixed nodes
    WM = C @ KQ
    W, M = WM[:, :k], WM[:, k:]
    G = lu_inverse(M)
    GW = G @ W
    f = problem._fixed_objective + float(
        np.einsum("ij,ij->", G, G) + np.einsum("ij,ij->", GW, GW)
    )
    if not np.isfinite(f):
        raise DegenerateDistributionError(
            "objective overflow (nearly singular Vandermonde matrix)"
        )

    def derivatives():
        T = np.hstack([W, -(G.T + W @ GW.T)])  # [W, -S G^T]
        dfdC = 2.0 * (G.T @ G @ T) @ KQ.T
        Bgrad, second = basis_derivatives()  # (m, n_basis, d (, d))
        dfdX = np.einsum("rjd,rj->rd", Bgrad, dfdC)
        grad = problem._moving_jacobian.T @ dfdX.ravel()
        hess = _hessian(problem, Bgrad, second, W, G)
        finite = np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))
        return (grad, hess) if finite else None

    return f, derivatives


def _hessian(problem, Bgrad, second, W, G):
    """Hessian of the objective in the free parameters, from the basis
    gradients ``Bgrad`` and second derivatives ``second`` at the moving
    nodes and the blocks ``W`` and ``G`` of :func:`_objective_value`.

    With ``A = V^-1``, ``u_i = A e_i`` and ``w_ia = A^T d_a phi(x_i)`` for
    moving nodes ``i`` and directions ``a``, the Hessian in the node
    coordinates is

        ``H_(ia)(jb) = 2 (u_i . u_j)(w_ia . w_jb) + 2 w_jb[i] (A w_ia) . u_j
        + 2 w_ia[j] (A w_jb) . u_i - 2 delta_ij d_ab phi(x_i) . (A A^T u_i)``.

    On the block, ``A = [K - Q2 G W, Q2 G]`` (fixed nodes first), so
    ``U = Q2 G``, ``U^T U = G^T G = P``, ``A^T U = [-W^T P; P]`` and
    ``A A^T U = [K Q2] [-W^T P; G S P]`` with ``S = I + W W^T``.  The nodes
    are affine in the parameters, so the Hessian there is ``J^T H J`` with
    ``J = _moving_jacobian``.
    """
    J = problem._moving_jacobian
    m, N, d = Bgrad.shape
    if m == 0:
        return np.zeros((J.shape[1],) * 2)
    KQ = problem._fixed_map
    k = N - m
    DKQ = Bgrad.transpose(0, 2, 1).reshape(m * d, N) @ KQ
    Z = DKQ[:, k:] @ G  # rows (i, a): w_ia at the moving nodes
    F = DKQ[:, :k] - Z @ W  # w_ia at the fixed nodes
    P = G.T @ G
    Y = (Z - F @ W.T) @ P  # rows (i, a): (A w_ia) . u_j
    H = (F @ F.T + Z @ Z.T).reshape(m, d, m, d)
    H *= P[:, None, :, None]
    T2 = Y.reshape(m, d, m)[:, :, :, None] * Z.reshape(m, d, m).transpose(
        2, 0, 1
    )[:, None]
    H += T2
    H += T2.transpose(2, 3, 0, 1)
    AAU = KQ @ np.vstack([-W.T @ P, G @ ((np.eye(m) + W @ W.T) @ P)])
    H[np.arange(m), :, np.arange(m)] -= np.einsum("inab,ni->iab", second, AAU)
    half = J.T @ H.reshape(m * d, m * d) @ J
    return half + half.T  # 2 H, symmetric to the bit


def _objective_values(problem, ys):
    """:func:`_objective_value` at each row of ``ys``, with one basis
    evaluation at the moving nodes of all rows, which has the bits of each
    row's own; ``(inf, error)`` where it raises the
    :class:`DegenerateDistributionError` ``error``.  The first gradient
    called computes the basis gradients and second derivatives of all
    rows."""
    X = np.concatenate([problem.nodes_at(y)[problem._moving] for y in ys])
    m = X.shape[0] // len(ys)
    C, basis_derivatives = basis_eval_with_grad(problem.space, X)
    # A lone row's derivatives go after use, as alone: kept, its gradients
    # tripled tri p=19's minor faults and cost it 8 %.
    if len(ys) > 1:
        basis_derivatives = cache(basis_derivatives)
    out = []
    for j, y in enumerate(ys):
        rows = slice(j * m, (j + 1) * m)

        def derivatives(rows=rows):
            return tuple(d[rows] for d in basis_derivatives())

        try:
            out.append(_objective_value(problem, y, (C[rows], derivatives)))
        except DegenerateDistributionError as exc:
            out.append((np.inf, exc))
    return out


def minimize(problem, config, y0, lockstep=None) -> lincon.SolveResult:
    """Minimize the objective over the free parameters from ``y0``.

    ``y0`` must meet the constraints (see
    :func:`~symnodes.lincon.minimize_linearly_constrained`).  Returns the
    solver's :class:`~symnodes.lincon.SolveResult` with ``x`` the stacked
    vector, pinned values included.  Deterministic for fixed inputs.  With
    ``lockstep`` (a :class:`_Lockstep` holding ``y0``), this runs its
    rounds until ``y0``'s run ends.

    A near-singular start ends ``"error"`` at once, with the reason in the
    result's ``message``: one whose objective, the solver's first value,
    is at or above ``1 / basis.MASS_RATIO`` (1e14).  The objective lies
    between ``1 / sigma_min^2`` and ``n / sigma_min^2``, and ``sigma_max
    >= 1`` for these bases, so the mass matrix of such a start has an
    eigenvalue ratio ``(sigma_min / sigma_max)^2`` within a factor ``n``
    of the one at which :class:`~symnodes.basis.LagrangeInterpolator`
    refuses a set.  A run from there stays near singular (quad p=9 at seed
    1 ended "kkt-converged" at 5.2e31 after 16 iterations).  A start with
    colliding nodes ends ``"error"`` at once too, its message naming them.
    The objective holds ``||R^-1||_F^2`` of the fixed nodes, so fixed
    nodes with (near-)dependent rows end every start so.
    """
    res = (lockstep or _Lockstep(problem, config, [y0])).result(y0)
    return replace(res, x=problem.stacked(res.x))


class _Lockstep:
    """The runs of :func:`minimize` from ``starts``, in rounds that evaluate
    the next point of every live run: in one :func:`_objective_values` call
    when the basis gradients of all runs (moving nodes x basis x dimension
    each) fit ``_ROUND_BUDGET`` entries, else in one call per run."""

    def __init__(self, problem, config, starts):
        cons = problem.constraints
        args = (cons.matrix, cons.lower, cons.upper, config.kkt_tol,
                config.max_major_iterations)
        self.problem, self.starts, self.ended = problem, starts, {}
        self.runs = [lincon.minimization(y0, *args) for y0 in starts]
        self.points = {r: next(run) for r, run in enumerate(self.runs)}
        entries = problem._moving_jacobian.shape[0] * problem.space.dim
        together = len(starts) * entries <= _ROUND_BUDGET
        self.chunk = len(starts) if together else 1
        self.first = True  # the round evaluates the starts

    def result(self, y0):
        """The SolveResult of the run from ``y0`` (by identity)."""
        r = next(r for r, start in enumerate(self.starts) if start is y0)
        while r not in self.ended:
            live = list(self.points)
            for i in range(0, len(live), self.chunk):
                self._advance(live[i : i + self.chunk])
            self.first = False
        return self.ended[r]

    def _advance(self, live):
        # The last chunk's values go only once these are made, as a run alone
        # keeps its last evaluation's: freed first, glibc trimmed its heap and
        # faulted it back in (tri p=19: 30 000 -> 180 000+ minor faults, +9 %).
        ys = np.array([self.points[r] for r in live])
        self.values = _objective_values(self.problem, ys)
        for r, (f, gradient) in zip(live, self.values):
            message = None
            if isinstance(gradient, DegenerateDistributionError):
                if self.first:
                    message = f"start objective undefined: {gradient}"
                gradient = None
            if self.first and _SINGULAR_OBJECTIVE <= f < np.inf:
                message = (f"start objective {f:.3e} is at or above "
                           f"{_SINGULAR_OBJECTIVE:.0e}: the Vandermonde "
                           "matrix is near singular")
                f, gradient = np.inf, None
            try:
                self.points[r] = self.runs[r].send((f, gradient))
            except StopIteration as stop:
                del self.points[r]
                self.ended[r] = replace(
                    stop.value, message=message or stop.value.message
                )


# ---------------------------------------------------------------------------
# Baseline decomposition and the start
# ---------------------------------------------------------------------------


def _decompose_into_orbits(kind, nodes):
    """Group a symmetric node set into (orbit, parameters) entries.

    The nodes are matched in lexicographic order of their natural
    coordinates, so each orbit is found at its smallest point.  Returns
    ``None`` when some node lies on no orbit or the orbits found hold more
    points than the set, which is then not symmetric or not realizable by
    this package's orbit tables.
    """
    lam = np.atleast_2d(natural_solve(reference_element(kind), nodes))
    lam = lam[np.lexsort(lam.T[::-1])]
    found = []
    for orbit, xi, _ in _orbit_entries(kind, lam):
        if orbit is None:
            return None
        found.append((orbit, xi))
    if sum(orbit.multiplicity for orbit, _ in found) != len(lam):
        return None
    found.sort(key=lambda t: (t[0].index, tuple(np.round(t[1], 12))))
    return found


def _baseline_collection(kind, p):
    """The orbit decomposition of the baseline: GLL tensor nodes on line,
    quad and hex, uniform nodes elsewhere.

    Returns the collection (orbit indices ascending, nothing pinned) and the
    ``(orbit, parameters)`` entries that seed the start.
    """
    family = BaselineKind.GLL if kind in TENSOR_KINDS else BaselineKind.UNIFORM
    base = baseline_distribution(kind, p, family)
    base_entries = _decompose_into_orbits(kind, base.nodes)
    if base_entries is None:
        raise NoViableCollectionError(
            f"{kind.value} degree {p}: the baseline nodes do not decompose "
            f"into orbits"
        )
    entries = tuple(ConstrainedOrbit(orbit) for orbit, _ in base_entries)
    return OrbitCollection(kind, p, entries), base_entries


def _initial_parameters(problem, base_entries, prescriptions):
    """Baseline parameters of the free entries.

    Each free entry takes the next baseline parameters of its orbit, drawn
    only from orbits off the boundary when face prescriptions pin the
    boundary.  An orbit lies on the boundary when one of its own bound rows
    is active.  The baseline parameters meet their orbit bounds (see
    :func:`~symnodes.compatibility._orbit_reach`).  Raises
    :class:`ValueError` when the baseline has none left for some entry.
    """
    pool: dict[int, list] = {}
    for orbit, xi in base_entries:
        b = orbit.bounds
        r = b.matrix @ xi
        active = np.minimum(r - b.lower, b.upper - r) <= 1e-9
        if prescriptions and np.any(active):
            continue
        pool.setdefault(orbit.index, []).append(xi)
    parts = [np.zeros(0)]
    for entry in problem.collection.entries:
        if entry.pinned is not None:
            continue
        if not pool.get(entry.orbit.index):
            raise ValueError(
                f"the baseline has no parameters left for orbit "
                f"{entry.orbit.index}"
            )
        parts.append(pool[entry.orbit.index].pop(0))
    return np.concatenate(parts)


@lru_cache(maxsize=None)
def _orbit_intervals(orbit):
    """Per-parameter ``(min, max)`` over the orbit's own bounds.

    The stacked constraints are block diagonal, so for a free entry these
    are its intervals in the stacked system.  The bounds of an orbit hold at
    most 3 parameters and 5 rows, and they bound a polytope (the element is
    bounded and the first point map injective), so the extremes lie at its
    vertices: the solutions of each ``param_count`` independent rows taken
    at a finite bound that meet every row.
    """
    b = orbit.bounds
    A, c = lincon._lp_parts(b.matrix, b.lower, b.upper)
    vertices = []
    for rows in itertools.combinations(range(c.size), orbit.param_count):
        M = A[list(rows)]
        if abs(np.linalg.det(M)) > 1e-12:
            x = np.linalg.solve(M, c[list(rows)])
            if b.violation(x) <= 1e-12:
                vertices.append(x)
    V = np.array(vertices)
    lo, hi = V.min(axis=0) + 0.0, V.max(axis=0) + 0.0
    lo.setflags(write=False)
    hi.setflags(write=False)
    return lo, hi


def _jitter_spans(collection):
    """Width of each free parameter's interval over its orbit's bounds."""
    spans = [np.zeros(0)]
    for entry in collection.entries:
        if entry.pinned is None:
            lo, hi = _orbit_intervals(entry.orbit)
            spans.append(hi - lo)
    return np.concatenate(spans)


def _jittered_start(problem, y0, span, seed_key):
    """``y0`` moved by up to 5 % of ``span`` per parameter, projected onto
    the bounds from the feasible ``y0``.  The draw covers every stacked
    parameter, pinned ones included, so a free parameter's jitter does not
    depend on the pins.  Raises :class:`NumericalError` when the projection
    does not converge."""
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    u = rng.uniform(-1.0, 1.0, size=problem.free_mask.size)
    delta = 0.05 * span * u[problem.free_mask]
    cons = problem.constraints
    return lincon.project_onto(
        cons.matrix, cons.lower, cons.upper, y0 + delta, y0
    )


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

    The collection is the orbit decomposition of the baseline
    (:func:`_baseline_collection`).  With
    ``prescriptions`` its entries are pinned to the face nodes
    (:func:`~symnodes.compatibility.build_compatibility_constraints`).  The
    minimization starts from the baseline parameters and from
    ``MULTISTART_COUNT`` jittered copies, each seeded by
    ``(config.seed, restart)``; the jitter is up to 5 % of each free
    parameter's range over its orbit's bounds.  Entries pinned to face
    nodes keep their values, and only the free parameters are optimized; a
    fully pinned problem (free dimension 0) runs the baseline start only.
    A jittered start whose projection onto the bounds does not converge
    drops its restart, as a run that ends in ``"error"`` does, the
    baseline's included (a near-singular or colliding start, see
    :func:`minimize`).  Among the runs that end feasible with a valid node
    set, the lowest objective wins whatever the run's status; the lower
    restart number breaks exact ties (node sets are built in that order
    until one is valid).  Every failure before the restarts (at the stages
    "face pinning" and "start") raises :class:`NoViableCollectionError`
    naming the stage, with the cause chained; a failure of all restarts
    raises it with each one's reason, which for fixed nodes with dependent
    or non-finite basis rows is every start's.

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

    The CLI's bottom-up path (``--compat auto``) does not call this for the
    extruded kinds: it builds quad, hex and prism as products of their
    factors' node sets (see :mod:`symnodes.cli`).
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
    with _stage(where, "start", ValueError):
        problem = assemble_problem(elem, coll, space)
        y0 = _initial_parameters(problem, base_entries, prescriptions)
    live = [(0, y0)]  # (restart, start)
    failed = []  # (restart, reason)
    restarts = range(1, MULTISTART_COUNT + 1) if problem.free_dimension else ()
    span = _jitter_spans(coll)
    for restart in restarts:
        try:
            start = _jittered_start(problem, y0, span, (config.seed, restart))
        except NumericalError as exc:
            failed.append((restart, f"unconverged projection: {exc}"))
        else:
            live.append((restart, start))
    lockstep = _Lockstep(problem, config, [start for _, start in live])
    cons = problem.constraints
    runs = []  # (objective, restart, result)
    for restart, start in live:
        res = minimize(problem, config, start, lockstep)
        if res.status == "error":
            failed.append((restart, res.message))
            continue
        violation = cons.violation(res.x[problem.free_mask])
        if violation > 1e-10:
            failed.append((restart, f"constraint violation {violation:.1e}"))
            continue
        runs.append((res.fun, restart, res))

    for f_best, restart, res in sorted(runs, key=lambda r: r[:2]):
        try:
            dist = evaluate_collection(coll, res.x)
            break
        except DegenerateDistributionError as exc:
            failed.append((restart, f"degenerate node set: {exc}"))
    else:
        reasons = "; ".join(f"restart {r}: {why}" for r, why in sorted(failed))
        raise NoViableCollectionError(
            f"{where}: all {1 + len(restarts)} restarts failed ({reasons})"
        )

    dist.source = "optimized"
    if prescriptions:
        if not verify_face_match(elem, dist, prescriptions, tol=1e-10):
            raise NumericalError(
                "optimized distribution violates the face prescriptions"
            )
        dist.nodes = snap_face_nodes(elem, dist.nodes, prescriptions)
    return OptimizedResult(
        distribution=dist,
        parameters=res.x,
        objective=f_best,
        collection=coll,
        status=res.status,
        curvature=res.curvature,
    )
