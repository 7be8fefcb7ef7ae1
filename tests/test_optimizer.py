import itertools
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symnodes import basis, lincon, optimizer
from symnodes.baselines import BaselineKind, baseline_distribution, gll_1d
from symnodes.basis import FunctionSpace, basis_eval_many, basis_grad_many
from symnodes.compatibility import (
    FacePrescription,
    build_compatibility_constraints,
    face_prescriptions,
    point_prescription,
)
from symnodes.errors import (
    DegenerateDistributionError,
    IncompatibleCollectionError,
    NoViableCollectionError,
    NumericalError,
)
from symnodes.geometry import (
    ElementKind,
    natural_to_cartesian,
    reference_element,
)
from symnodes.metrics import (
    is_unisolvent,
    lebesgue_constant,
    lebesgue_objective,
)
from symnodes.optimizer import (
    OptimizerConfig,
    assemble_problem,
    minimize,
    optimize_nodes,
)
from symnodes.symmetry import (
    ConstrainedOrbit,
    LinearConstraintSet,
    NodalDistribution,
    OrbitCollection,
    enumerate_admissible_collections,
    evaluate_collection,
    orbits,
)


def _collection(kind, degree, indices):
    table = {o.index: o for o in orbits(kind)}
    return OrbitCollection(
        kind,
        degree,
        tuple(ConstrainedOrbit(table[i]) for i in indices),
    )


def _problem(kind, p, indices, prescriptions=None):
    elem = reference_element(kind)
    coll = _collection(kind, p, indices)
    if prescriptions:
        coll = build_compatibility_constraints(elem, coll, prescriptions)
    space = FunctionSpace(kind, p)
    return assemble_problem(elem, coll, space), coll


# ---------------------------------------------------------------------------
# Core solver sanity (quadratic test problems)
# ---------------------------------------------------------------------------


def test_active_set_box_quadratic():
    fun = lambda x: (
        float((x[0] - 2) ** 2 + (x[1] - 2) ** 2),
        lambda: (np.array([2 * (x[0] - 2), 2 * (x[1] - 2)]), 2 * np.eye(2)),
    )
    res = lincon.minimize_linearly_constrained(
        fun, np.zeros(2), np.eye(2), [0, 0], [1, 1]
    )
    assert res.status == "kkt-converged"
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-10)


def test_equality_rows_raise():
    # A fixed value is substituted, never carried as a row lo == hi.
    fun = lambda x: (float(x @ x), lambda: (2 * x, 2 * np.eye(2)))
    B = np.vstack([np.eye(2), np.ones((1, 2))])
    lo, hi = [-10, -10, 1], [10, 10, 1]
    with pytest.raises(ValueError, match="equality rows"):
        lincon.minimize_linearly_constrained(
            fun, np.array([1.0, 0.0]), B, lo, hi
        )
    with pytest.raises(ValueError, match="equality rows"):
        lincon.project_onto(B, lo, hi, np.array([1.0, 0.0]), np.zeros(2))


def test_gradient_only_at_start_and_accepted_steps():
    # Rosenbrock with no inequality rows: every major iteration but the
    # last takes one step, so the accepted steps are iterations - 1.
    evals, grads = [], []

    def fun(x):
        x = x.copy()
        evals.append(x)

        def derivatives():
            assert x is evals[-1]  # only the latest point's derivatives
            grads.append(x)
            g = np.array([
                -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                200.0 * (x[1] - x[0] ** 2),
            ])
            H = np.array([
                [1200.0 * x[0] ** 2 - 400.0 * x[1] + 2.0, -400.0 * x[0]],
                [-400.0 * x[0], 200.0],
            ])
            return g, H

        f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
        return float(f), derivatives

    res = lincon.minimize_linearly_constrained(
        fun, np.array([-1.2, 1.0]), np.zeros((0, 2)), [], [], max_iter=200
    )
    assert res.status == "kkt-converged"
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-6)
    assert len(grads) == res.iterations  # the start plus each accepted step
    assert len({id(x) for x in grads}) == len(grads)
    assert len(evals) > len(grads)  # some trials were rejected
    assert np.array_equal(grads[-1], res.x)


def test_non_finite_gradient_rejects_the_trial():
    # f = (x - 2)^2 from 0: the trials at 4, 2, 1 and 0.5 follow; 2 and 1
    # pass the Armijo test on f, but their gradients are NaN, so the step
    # halves until 0.5.
    grads = []

    def fun(x):
        def derivatives():
            grads.append(float(x[0]))
            g = 2.0 * (x - 2.0) if x[0] < 0.9 else np.full(1, np.nan)
            return g, 2.0 * np.eye(1)

        return float((x[0] - 2.0) ** 2), derivatives

    res = lincon.minimize_linearly_constrained(
        fun, np.zeros(1), np.eye(1), [-10.0], [10.0], max_iter=1
    )
    assert grads == [0.0, 2.0, 1.0, 0.5]
    assert res.x.tolist() == [0.5]
    assert res.fun == 2.25


@pytest.mark.parametrize("derivatives", [
    None,
    (np.array([np.inf]), np.eye(1)),
    (np.zeros(1), np.full((1, 1), np.nan)),
])
def test_degenerate_gradient_at_start_is_an_error(derivatives):
    res = lincon.minimize_linearly_constrained(
        lambda x: (1.0, lambda: derivatives), np.zeros(1), np.eye(1), [-1.0],
        [1.0],
    )
    assert res.status == "error"
    assert res.fun == np.inf


def test_projection_and_feasibility():
    B = np.array([[1.0, 1.0]])
    x = lincon.project_onto(
        B, [-np.inf], [1.0], np.array([2.0, 2.0]), np.zeros(2)
    )
    np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-10)
    assert lincon.feasible_point(np.array([[1.0]]), [2.0], [1.0]) is None


def test_project_onto_returns_feasible_target_without_lp(monkeypatch):
    # The projection starts from the caller's feasible point: neither a
    # feasible nor an infeasible target calls a linear program.
    calls = []
    monkeypatch.setattr(lincon, "linprog", lambda *a, **k: calls.append(a))
    G = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    gl, gu = np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0])
    target = np.array([0.25, 0.5])
    out = lincon.project_onto(G, gl, gu, target, np.zeros(2))
    assert np.array_equal(out, target)
    out = lincon.project_onto(G, gl, gu, np.array([2.0, 0.0]), np.zeros(2))
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-9)
    assert calls == []


def test_unconverged_projection_raises(monkeypatch):
    # The quadratic program stops at its iteration limit: the projection
    # reports it instead of returning the last iterate.
    def limited(y0, G, gl, gu, tol, max_iter):
        f, _ = yield y0
        return lincon.SolveResult(y0, f, "iteration-limited", max_iter, 1.0)

    monkeypatch.setattr(lincon, "_active_set", limited)
    G = np.eye(2)
    gl, gu = -np.ones(2), np.ones(2)
    with pytest.raises(NumericalError, match="iteration-limited"):
        lincon.project_onto(G, gl, gu, np.array([2.0, 0.0]), np.zeros(2))
    # A feasible target needs no program.
    target = np.array([0.5, 0.0])
    assert np.array_equal(
        lincon.project_onto(G, gl, gu, target, np.zeros(2)), target
    )


def test_infeasible_start_raises():
    G = np.eye(2)
    gl, gu = -np.ones(2), np.ones(2)
    with pytest.raises(ValueError, match="start violates"):
        lincon.project_onto(G, gl, gu, np.array([2.0, 0.0]), [1.5, 0.0])
    fun = lambda x: (float(x @ x), lambda: (2 * x, 2 * np.eye(2)))
    with pytest.raises(ValueError, match="start violates"):
        lincon.minimize_linearly_constrained(fun, [1.0 + 1e-9, 0.0], G, gl, gu)
    # A start within FEAS_TOL of a bound is accepted as it is.
    res = lincon.minimize_linearly_constrained(
        fun, [1.0 + 1e-13, 0.0], G, gl, gu
    )
    assert res.status == "kkt-converged"


def _distance_to(c):
    """``f = |x - c|^2`` in the ``fun(x) -> (f, derivatives)`` form."""
    c = np.array(c, dtype=float)
    hessian = 2.0 * np.eye(c.size)
    return lambda x: (float((x - c) @ (x - c)), lambda: (2.0 * (x - c), hessian))


def _working_sets(monkeypatch):
    """The working-set matrices the active-set loop factors, in order."""
    seen, null_space = [], scipy.linalg.null_space

    def spy(A):
        seen.append(A.tolist())
        return null_space(A)

    monkeypatch.setattr(scipy.linalg, "null_space", spy)
    return seen


def test_rows_blocking_together_enter_lowest_first(monkeypatch):
    # From 0 towards (-2, 2) the lower bound of row 0 and the upper bound of
    # row 1 block at the same step: row 0 enters, row 1 at the next step.
    seen = _working_sets(monkeypatch)
    res = lincon.minimize_linearly_constrained(
        _distance_to([-2.0, 2.0]), np.zeros(2), np.eye(2),
        [-1.0, -10.0], [10.0, 1.0],
    )
    assert (res.status, res.iterations) == ("kkt-converged", 3)
    assert res.x.tolist() == [-1.0, 1.0]
    assert seen == [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]]


@pytest.mark.parametrize(
    "target, lo, hi, iterations, x",
    [
        ([3.0, 0.0], [-np.inf, -0.5], [1.0, np.inf], 3,
         [1.9999999999999998, -1.0]),
        ([-3.0, 0.5], [-1.0, -np.inf], [np.inf, 0.5], 3,
         [-2.25, 1.2499999999999998]),
    ],
)
def test_rows_with_one_infinite_bound(monkeypatch, target, lo, hi,
                                      iterations, x):
    # Row 1 is crossed towards its infinite bound on every step, so it never
    # blocks; row 0 blocks on its finite side, as on the pyramid.
    seen = _working_sets(monkeypatch)
    res = lincon.minimize_linearly_constrained(
        _distance_to(target), np.zeros(2), np.array([[1.0, 1.0], [1.0, -1.0]]),
        lo, hi,
    )
    assert (res.status, res.iterations) == ("kkt-converged", iterations)
    assert res.x.tolist() == x
    assert seen == [[[1.0, 1.0]]] * 2


@pytest.mark.parametrize(
    "fun, kept",
    [
        # Equal multipliers: the first row of the working set is dropped.
        (_distance_to([0.0, 0.0]), [0.0, 1.0]),
        # f = x0^2 + 2 x1^2: row 1 has the larger multiplier.
        (lambda x: (float(x[0] ** 2 + 2.0 * x[1] ** 2),
                    lambda: (np.array([2.0 * x[0], 4.0 * x[1]]),
                             np.diag([2.0, 4.0]))), [1.0, 0.0]),
    ],
)
def test_working_row_dropped_on_its_multiplier(monkeypatch, fun, kept):
    # Both upper bounds are active at the start (1, 1), and the gradient
    # pulls off both: one row leaves the working set, then the other.
    seen = _working_sets(monkeypatch)
    res = lincon.minimize_linearly_constrained(
        fun, np.ones(2), np.eye(2), [-1.0, -1.0], [1.0, 1.0]
    )
    assert (res.status, res.iterations) == ("kkt-converged", 5)
    assert res.x.tolist() == [0.0, 0.0]
    assert seen == [[[1.0, 0.0], [0.0, 1.0]], [kept], [kept]]


# ---------------------------------------------------------------------------
# Problem assembly
# ---------------------------------------------------------------------------


def test_assemble_worked_triangle_system():
    # Collection (1, 2, 2, 3, 3) with the second 6-point orbit pinned to an
    # edge point: the free system must reduce to the textbook intervals.
    kind = ElementKind.TRIANGLE
    table = {o.index: o for o in orbits(kind)}
    e = lambda i: ConstrainedOrbit(table[i])
    pinned = ConstrainedOrbit(table[3], [0.4, 0.0])
    coll = OrbitCollection(kind, None, (e(1), e(2), e(2), e(3), pinned))
    elem = reference_element(kind)
    problem = assemble_problem(elem, coll, FunctionSpace(kind, 3))
    assert problem.free_dimension == 4
    assert problem.free_mask.tolist() == [True] * 4 + [False] * 2
    assert problem.pinned_values.tolist() == [0, 0, 0, 0, 0.4, 0.0]
    cons = problem.constraints
    lo, hi = lincon.coordinate_intervals(cons.matrix, cons.lower, cons.upper)
    np.testing.assert_allclose(lo, [0, 0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(hi, [0.5, 0.5, 1, 1], atol=1e-12)
    # alpha3 + alpha4 <= 1 via an LP probe on the same free system.
    from scipy.optimize import linprog

    from symnodes.lincon import _lp_parts

    A_ub, b_ub = _lp_parts(cons.matrix, cons.lower, cons.upper)
    c = np.zeros(4)
    c[2] = c[3] = -1.0
    res = linprog(
        c, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * 4, method="highs"
    )
    assert abs(-res.fun - 1.0) < 1e-12
    # The pinned orbit's nodes sit at its pinned values whatever ``y``.
    y = np.array([0.1, 0.2, 0.15, 0.25])
    X = problem.nodes_at(y)
    want = evaluate_collection(coll, problem.stacked(y)).nodes
    np.testing.assert_allclose(X, want, atol=1e-15)


def test_assemble_fully_pinned_line():
    problem, coll = _problem(
        ElementKind.LINE, 2, (1, 2), [point_prescription(2)]
    )
    assert problem.free_dimension == 0
    assert coll.entries[1].pinned.tolist() == [-1.0]
    assert problem.stacked(np.zeros(0)).tolist() == [-1.0]


# ---------------------------------------------------------------------------
# Objective and gradient
# ---------------------------------------------------------------------------


def _value_and_gradient(problem, y):
    """The objective and its gradient at ``y``, from
    :func:`optimizer._objective_value` and its derivatives callable; raises
    where the gradient is not finite."""
    f, derivatives = optimizer._objective_value(problem, y)
    gH = derivatives()
    if gH is None:
        raise DegenerateDistributionError("the gradient is not finite")
    return f, gH[0]


def test_objective_fully_pinned_line():
    problem, coll = _problem(
        ElementKind.LINE, 2, (1, 2), [point_prescription(2)]
    )
    f, g = _value_and_gradient(problem, np.zeros(0))
    assert f == pytest.approx(8.0 / 5.0, abs=1e-12)
    assert g.size == 0


def _dense_objective(problem, y):
    """Objective and gradient through the whole Vandermonde matrix ``V``:
    ``f = ||A||_F^2`` and ``d f / d V = -2 (A A^T A)^T`` with ``A = V^-1``,
    chained through the basis gradients at every node.  The oracle for the
    block form of :func:`optimizer._objective_value`."""
    X = problem.nodes_at(y)
    n = X.shape[0]
    V = basis_eval_many(problem.space, X)
    A = scipy.linalg.lu_solve(scipy.linalg.lu_factor(V), np.eye(n))
    GV = -2.0 * (A @ (A.T @ A)).T
    dfdX = np.einsum("rjd,rj->rd", basis_grad_many(problem.space, X), GV)
    return float(np.einsum("ij,ij->", A, A)), (
        problem._node_jacobian.T @ dfdX.ravel()
    )


_TENSOR = (ElementKind.LINE, ElementKind.QUADRILATERAL, ElementKind.HEXAHEDRON)


@lru_cache(maxsize=None)
def _baseline_problem(kind, p, pinned):
    """The baseline collection of ``kind`` at degree ``p``, pinned to the
    faces of its own baseline when ``pinned``; with the baseline start and
    the jitter spans."""
    base = BaselineKind.GLL if kind in _TENSOR else BaselineKind.UNIFORM
    prescriptions = (
        face_prescriptions(
            kind, p, lambda fk, q: baseline_distribution(fk, q, base)
        )
        if pinned
        else ()
    )
    elem = reference_element(kind)
    coll, base_entries = optimizer._baseline_collection(kind, p)
    if prescriptions:
        coll = build_compatibility_constraints(elem, coll, prescriptions)
    problem = assemble_problem(elem, coll, FunctionSpace(kind, p))
    y0 = optimizer._initial_parameters(problem, base_entries, prescriptions)
    return problem, y0, optimizer._jitter_spans(coll)


@pytest.mark.parametrize("pinned", [False, True])
@pytest.mark.parametrize("kind", list(ElementKind))
@settings(max_examples=8, deadline=None)
@given(p=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_block_objective_matches_dense(kind, pinned, p, seed):
    # At random feasible parameters (a jittered start), the objective and
    # gradient from the moving block equal the dense ones.
    problem, y0, span = _baseline_problem(kind, p, pinned)
    y = y0
    if problem.free_dimension:
        try:
            y = optimizer._jittered_start(problem, y0, span, (seed, 1))
        except NumericalError:
            assume(False)
    f, gradient = optimizer._objective_value(problem, y)
    f_dense, g_dense = _dense_objective(problem, y)
    assert f == pytest.approx(f_dense, rel=1e-12)
    g = gradient()[0]
    assert g.shape == g_dense.shape
    assert np.linalg.norm(g - g_dense) <= 1e-10 * np.linalg.norm(g_dense)


def _assert_hessian_matches_differences(problem, y, derivatives):
    """The analytic Hessian at ``y`` equals the Richardson extrapolation of
    central differences of the analytic gradient at steps h and h / 2,
    whose error falls as h^4."""
    _, H = derivatives()
    assert np.array_equal(H, H.T)

    def central(k, h):
        step = np.zeros(y.size)
        step[k] = h
        g_plus = _value_and_gradient(problem, y + step)[1]
        g_minus = _value_and_gradient(problem, y - step)[1]
        return (g_plus - g_minus) / (2.0 * h)

    fd = np.empty_like(H)
    for k in range(y.size):
        h = 1e-6 * max(1.0, abs(y[k]))
        fd[:, k] = (4.0 * central(k, h / 2.0) - central(k, h)) / 3.0
    assert np.linalg.norm(H - fd) <= 1e-6 * np.linalg.norm(fd)


@pytest.mark.parametrize("pinned", [False, True])
@pytest.mark.parametrize("kind", list(ElementKind))
@settings(max_examples=8, deadline=None)
@given(p=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_hessian_matches_differences_of_the_gradient(kind, pinned, p, seed):
    # At random feasible parameters (a jittered start).
    problem, y0, span = _baseline_problem(kind, p, pinned)
    if not problem.free_dimension:
        return
    try:
        y = optimizer._jittered_start(problem, y0, span, (seed, 1))
    except NumericalError:
        assume(False)
    f, derivatives = optimizer._objective_value(problem, y)
    assume(f < 1e6)
    _assert_hessian_matches_differences(problem, y, derivatives)


@pytest.mark.parametrize("seed, objective", [
    (7067, 1218.9), (7142, 275.25), (7176, 2469.3),
])
def test_hessian_matches_differences_at_ill_conditioned_tet_starts(
    seed, objective
):
    # Jittered tet p=5 starts where plain central differences of the
    # gradient miss the Hessian by up to 1.4e-5.
    problem, y0, span = _baseline_problem(ElementKind.TETRAHEDRON, 5, False)
    y = optimizer._jittered_start(problem, y0, span, (seed, 1))
    f, derivatives = optimizer._objective_value(problem, y)
    assert f == pytest.approx(objective, rel=1e-3)
    _assert_hessian_matches_differences(problem, y, derivatives)


@pytest.mark.parametrize(
    "kind,p", [(ElementKind.TETRAHEDRON, 4), (ElementKind.QUADRILATERAL, 3)]
)
def test_fully_pinned_objective_is_the_dense_one(kind, p):
    base = BaselineKind.GLL if kind in _TENSOR else BaselineKind.UNIFORM
    problem, y0, _ = _baseline_problem(kind, p, True)
    if problem.free_dimension:  # pin the free entries where they start
        coll = problem.collection
        entries = tuple(
            ConstrainedOrbit(e.orbit, problem.stacked(y0)[sl])
            for e, sl in zip(coll.entries, coll.slices())
        )
        coll = OrbitCollection(kind, p, entries)
        problem = assemble_problem(
            reference_element(kind), coll, FunctionSpace(kind, p)
        )
        y0 = np.zeros(0)
    assert not problem._moving.any()
    f, gradient = optimizer._objective_value(problem, y0)
    V = basis_eval_many(
        problem.space, baseline_distribution(kind, p, base).nodes
    )
    assert f == pytest.approx(np.sum(np.linalg.inv(V) ** 2), rel=1e-12)
    assert [a.size for a in gradient()] == [0, 0]


def _edge_problem(edge_x, moving):
    """A hand-built tri p=2 problem: fixed nodes at ``(x, -1)`` for each
    ``x`` of ``edge_x``, and one moving node per row of ``moving``, whose
    first coordinate is a free variable added to the row's."""
    kind = ElementKind.TRIANGLE
    fixed = np.column_stack([edge_x, -np.ones(len(edge_x))])
    offset = np.vstack([fixed, moving]).ravel()
    m = len(moving)
    J = np.zeros((offset.size, m))
    for i in range(m):
        J[2 * (len(edge_x) + i), i] = 1.0
    cons = LinearConstraintSet(np.eye(m), -np.ones(m), np.ones(m))
    return optimizer.OptimizationProblem(
        element=reference_element(kind),
        collection=None,
        space=FunctionSpace(kind, 2),
        constraints=cons,
        _node_jacobian=J,
        _node_offset=offset,
    )


def test_dependent_fixed_rows_raise_when_the_problem_is_built():
    # Four fixed nodes on one edge: P2 restricted to the edge has dimension
    # three, so their Vandermonde rows are linearly dependent.
    with pytest.raises(DegenerateDistributionError, match="dependent"):
        _edge_problem([-1.0, -0.5, 0.5, 1.0], [[-0.5, -0.2], [0.0, 0.2]])
    # Three edge nodes are independent, and the objective is the dense one.
    problem = _edge_problem(
        [-1.0, 0.0, 1.0], [[-0.5, -0.2], [0.0, 0.2], [-0.4, 0.4]]
    )
    y = np.array([0.1, -0.2, 0.05])
    f, _ = optimizer._objective_value(problem, y)
    assert f == pytest.approx(_dense_objective(problem, y)[0], rel=1e-12)


def test_moving_node_on_a_fixed_node_raises():
    problem = _edge_problem(
        [-1.0, 0.0, 1.0], [[-0.5, -0.2], [0.0, 0.2], [-0.5, -1.0]]
    )
    optimizer._objective_value(problem, np.array([0.1, 0.1, 0.1]))
    # The third moving node reaches the fixed node at (0, -1).
    with pytest.raises(DegenerateDistributionError, match="apart"):
        optimizer._objective_value(problem, np.array([0.1, 0.1, 0.5]))


def test_objective_evaluates_the_basis_only_at_moving_nodes(monkeypatch):
    # One Jacobi table per objective call, at exactly the moving nodes; the
    # gradient reuses it and evaluates nothing more.
    problem, y0, _ = _baseline_problem(ElementKind.HEXAHEDRON, 4, True)
    moving = problem._moving
    assert (int(moving.sum()), moving.size) == (26, 125)
    calls, tables = [], []

    def entry(space, X):
        calls.append(X.copy())
        return real_entry(space, X)

    def factors(p, families, derivs, coords, normalized=True):
        tables.append(coords.shape[1])
        return real_factors(p, families, derivs, coords, normalized)

    real_entry, real_factors = basis.basis_eval_with_grad, basis._factors
    monkeypatch.setattr(optimizer, "basis_eval_with_grad", entry)
    monkeypatch.setattr(basis, "_factors", factors)
    _, gradient = optimizer._objective_value(problem, y0)
    assert len(calls) == 1
    assert np.array_equal(calls[0], problem.nodes_at(y0)[moving])
    assert tables == [26]
    gradient()
    assert len(calls) == 1 and tables == [26]


def fd_gradient(problem, y, h=1e-6):
    """Central differences of the objective along the free coordinates:
    the oracle for the analytic gradient."""
    g = np.empty(y.size)
    for k in range(y.size):
        step = np.zeros(y.size)
        step[k] = h
        fp, _ = optimizer._objective_value(problem, y + step)
        fm, _ = optimizer._objective_value(problem, y - step)
        g[k] = (fp - fm) / (2.0 * h)
    return g


def test_objective_at_nan_parameters_raises():
    problem, y0, _ = _baseline_problem(ElementKind.TRIANGLE, 4, True)
    assert problem.free_dimension
    y = y0.copy()
    y[0] = np.nan
    with pytest.raises(DegenerateDistributionError, match="not finite"):
        optimizer._objective_value(problem, y)


def test_fully_pinned_tet_p4_objective_is_silent(capfd):
    # No moving node: the 0x0 block never reaches LAPACK, whose dgetrf
    # prints an error on stderr for it.
    problem, y0, _ = _baseline_problem(ElementKind.TETRAHEDRON, 4, True)
    assert problem.free_dimension == 0 and not problem._moving.any()
    f, gradient = optimizer._objective_value(problem, y0)
    assert f == problem._fixed_objective
    assert [a.size for a in gradient()] == [0, 0]
    out, err = capfd.readouterr()
    assert (out, err) == ("", "")


def _random_feasible_points(problem, count, seed):
    rng = np.random.default_rng(seed)
    cons = problem.constraints
    center = lincon.interior_point(cons.matrix, cons.lower, cons.upper)
    pts = []
    attempts = 0
    while len(pts) < count and attempts < 100 * count:
        attempts += 1
        xi = center + rng.normal(scale=0.1, size=cons.nvars)
        if cons.violation(xi) > 0.0:
            continue
        try:
            f, _ = _value_and_gradient(problem, xi)
        except Exception:
            continue
        if np.isfinite(f) and f < 1e8:
            pts.append(xi)
    return pts


@pytest.mark.parametrize(
    "kind,p,indices",
    [
        (ElementKind.LINE, 3, (2, 2)),
        (ElementKind.TRIANGLE, 2, (2, 2)),
        (ElementKind.QUADRILATERAL, 2, (1, 2, 3)),
        (ElementKind.PYRAMID, 2, (1, 1, 2, 3, 3)),
    ],
)
def test_gradient_matches_fd(kind, p, indices):
    problem, _ = _problem(kind, p, indices)
    for xi in _random_feasible_points(problem, 5, seed=1):
        _, g_a = _value_and_gradient(problem, xi)
        g_f = fd_gradient(problem, xi)
        denom = max(np.linalg.norm(g_a), 1e-8)
        assert np.linalg.norm(g_a - g_f) / denom < 1e-5


def test_line_p4_objective_shape():
    # Along the free parameter the objective is stationary at the optimum
    # and grows on both sides.
    problem, coll = _problem(
        ElementKind.LINE, 4, (1, 2, 2), [point_prescription(4)]
    )
    res = minimize(problem, OptimizerConfig(), np.array([0.5]))
    y_star = res.parameters[problem.free_mask]
    f_star, g_star = _value_and_gradient(problem, y_star)
    assert np.max(np.abs(g_star)) < 1e-8
    for t in (1e-3, -1e-3):
        f_t, _ = _value_and_gradient(problem, y_star + t)
        assert f_t > f_star


# ---------------------------------------------------------------------------
# minimize / optimize_nodes
# ---------------------------------------------------------------------------


def test_minimize_line_p4_near_gll():
    problem, coll = _problem(
        ElementKind.LINE, 4, (1, 2, 2), [point_prescription(4)]
    )
    # Initialize the free symmetric pair at the uniform interior node.
    assert problem.free_dimension == 1
    res = minimize(problem, OptimizerConfig(), np.array([0.5]))
    assert res.status == "kkt-converged"
    # The pinned endpoint pair keeps its value bit for bit.
    pinned = ~problem.free_mask
    assert np.array_equal(
        res.parameters[pinned], problem.pinned_values[pinned]
    )
    alpha = abs(res.parameters[problem.free_mask][0])
    assert abs(alpha - 0.65) <= 0.05


def test_optimize_line_p2_forced():
    r = optimize_nodes(ElementKind.LINE, 2, [point_prescription(2)])
    np.testing.assert_allclose(
        np.sort(r.distribution.nodes.ravel()), [-1, 0, 1], atol=1e-12
    )
    assert r.status == "kkt-converged"


def test_optimize_triangle_p1_vertices():
    line = optimize_nodes(ElementKind.LINE, 1, [point_prescription(1)])
    r = optimize_nodes(
        ElementKind.TRIANGLE,
        1,
        [FacePrescription(ElementKind.LINE, line.distribution)],
    )
    got = sorted(map(tuple, np.round(r.distribution.nodes, 12).tolist()))
    assert got == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0)]


def test_optimize_monotone_improvement_and_feasibility():
    r = optimize_nodes(ElementKind.LINE, 5, [point_prescription(5)])
    gll = baseline_distribution(ElementKind.LINE, 5, "gll")
    sp = FunctionSpace(ElementKind.LINE, 5)
    # Initialized from the tensor baseline, so it can only improve on it.
    assert r.objective <= lebesgue_objective(sp, gll) + 1e-12
    coll = r.collection
    free = np.array([e.pinned is None for e in coll.entries])
    assert free.tolist() == [False, True, True]  # one parameter each
    assert coll.stacked_constraints().violation(r.parameters[free]) <= 1e-10
    assert evaluate_collection(coll, r.parameters).count == 6


def test_optimize_determinism():
    cfg = OptimizerConfig(seed=3)
    a = optimize_nodes(ElementKind.TRIANGLE, 2, (), cfg)
    b = optimize_nodes(ElementKind.TRIANGLE, 2, (), cfg)
    np.testing.assert_array_equal(a.distribution.nodes, b.distribution.nodes)
    assert a.objective == b.objective


def _gll(kind, p):
    return baseline_distribution(kind, p, "gll")


def test_optimize_builds_one_collection(monkeypatch):
    calls = {"build": 0, "assemble": 0, "minimize": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, attr in (
        ("build", "build_compatibility_constraints"),
        ("assemble", "assemble_problem"),
        ("minimize", "minimize"),
    ):
        monkeypatch.setattr(
            optimizer, attr, counted(name, getattr(optimizer, attr))
        )
    config = OptimizerConfig()
    pres = face_prescriptions(ElementKind.QUADRILATERAL, 4, _gll)
    optimize_nodes(ElementKind.QUADRILATERAL, 4, pres, config)
    assert calls == {
        "build": 1,
        "assemble": 1,
        "minimize": 1 + optimizer.MULTISTART_COUNT,
    }


def test_unhostable_prescription_names_stage_and_node():
    # Five line nodes per edge do not fit the ten nodes of a p=3 triangle.
    pres = [FacePrescription(ElementKind.LINE, _gll(ElementKind.LINE, 4))]
    with pytest.raises(NoViableCollectionError) as info:
        optimize_nodes(ElementKind.TRIANGLE, 3, pres)
    message = str(info.value)
    assert message.startswith("tri degree 3: face pinning failed:")
    assert "prescribed line node at natural coordinates" in message
    assert isinstance(info.value.__cause__, IncompatibleCollectionError)


def test_face_set_off_the_baseline_orbits_is_not_unisolvent():
    # A tri p=5 set whose six interior nodes form one 6-point orbit.  On a
    # tet its faces need a 24-point orbit, which uniform tet p=5 lacks.  No
    # collection can do better: the six nodes lie on a circle about the
    # centroid, so the set is not unisolvent, and neither is any element
    # with it on a face (see ``optimize_nodes``).
    tri = reference_element(ElementKind.TRIANGLE)
    line = gll_1d(5)[:, None]
    edges = np.vstack([face.embed(line) for face in tri.faces])
    edges = np.unique(np.round(edges, 14), axis=0)
    lam = np.array(list(itertools.permutations((0.2, 0.3, 0.5))))
    nodes = np.vstack([edges, natural_to_cartesian(tri, lam)])
    face_set = NodalDistribution(ElementKind.TRIANGLE, 5, nodes, "test")
    assert face_set.count == 21
    assert not is_unisolvent(FunctionSpace(ElementKind.TRIANGLE, 5), face_set)
    pres = [FacePrescription(ElementKind.TRIANGLE, face_set)]
    with pytest.raises(NoViableCollectionError) as info:
        optimize_nodes(ElementKind.TETRAHEDRON, 5, pres)
    assert str(info.value).startswith("tet degree 5: face pinning failed:")


def _tri4_faces():
    return face_prescriptions(ElementKind.TRIANGLE, 4, _gll)


def test_optimize_builds_only_the_winners_node_set(monkeypatch):
    # No screen judges the start before the solver: tri p=4 with faces
    # builds no interpolator and one node set, the winner's.
    built, evaluated = [], []
    real_init = basis.LagrangeInterpolator.__init__
    real_evaluate = optimizer.evaluate_collection

    def init(self, *args):
        built.append(args)
        real_init(self, *args)

    def counted(*args):
        evaluated.append(args)
        return real_evaluate(*args)

    monkeypatch.setattr(basis.LagrangeInterpolator, "__init__", init)
    monkeypatch.setattr(optimizer, "evaluate_collection", counted)
    r = optimize_nodes(ElementKind.TRIANGLE, 4, _tri4_faces())
    assert built == []
    assert len(evaluated) == 1
    assert np.array_equal(evaluated[0][1], r.parameters)


def test_all_restarts_failed_names_each_reason(monkeypatch):
    # With the near-singular limit at 1, every start of tri p=4 is refused
    # at its first evaluation, and the error says so for each restart.
    monkeypatch.setattr(optimizer, "_SINGULAR_OBJECTIVE", 1.0)
    with pytest.raises(NoViableCollectionError) as info:
        optimize_nodes(ElementKind.TRIANGLE, 4, _tri4_faces())
    message = str(info.value)
    assert message.startswith("tri degree 4: all 4 restarts failed (")
    for restart in range(4):
        assert f"restart {restart}: start objective " in message
    assert message.count("is at or above 1e+00") == 4


def test_fixed_block_failure_fails_the_start_stage(monkeypatch):
    # A basis that is not finite at the fixed nodes fails the problem's
    # construction, before any restart runs.
    def nan_basis(space, x):
        return np.full((len(x), space.dim), np.nan)

    monkeypatch.setattr(optimizer, "basis_eval_many", nan_basis)
    with pytest.raises(NoViableCollectionError) as info:
        optimize_nodes(ElementKind.TRIANGLE, 4, _tri4_faces())
    assert str(info.value) == (
        "tri degree 4: start failed: the basis is not finite at the fixed "
        "nodes"
    )
    assert isinstance(info.value.__cause__, DegenerateDistributionError)


@pytest.mark.parametrize("kwargs", [
    {"seed": -1},
    {"seed": 1.5},
    {"max_major_iterations": 0},
    {"kkt_tol": 0.0},
    {"kkt_tol": float("nan")},
    {"kkt_tol": float("inf")},
])
def test_config_out_of_range_raises_at_construction(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=f"^{name} must be "):
        OptimizerConfig(**kwargs)


# ---------------------------------------------------------------------------
# Restarts: jitter and selection
# ---------------------------------------------------------------------------


def _uniform(kind, p):
    return baseline_distribution(kind, p, "uniform")


@pytest.mark.parametrize("kind", list(ElementKind))
def test_orbit_intervals_equal_lp_intervals(kind):
    # Vertex enumeration gives the bits of the HiGHS probes it replaced.
    for orbit in orbits(kind):
        lo, hi = optimizer._orbit_intervals(orbit)
        b = orbit.bounds
        want_lo, want_hi = lincon.coordinate_intervals(
            b.matrix, b.lower, b.upper
        )
        assert lo.tobytes() == want_lo.tobytes()
        assert hi.tobytes() == want_hi.tobytes()


@pytest.mark.parametrize("kind", list(ElementKind))
@pytest.mark.parametrize("p", range(1, 6))
def test_jitter_intervals_match_stacked_system(kind, p):
    # The stacked constraints are block diagonal over the free entries, so
    # each free entry's intervals over its orbit's bounds are its
    # stacked-system intervals.
    elem = reference_element(kind)
    coll, _ = optimizer._baseline_collection(kind, p)
    pres = face_prescriptions(kind, p, _uniform)
    coll = build_compatibility_constraints(elem, coll, pres)
    cons = coll.stacked_constraints()
    lo, hi = lincon.coordinate_intervals(cons.matrix, cons.lower, cons.upper)
    span = optimizer._jitter_spans(coll)
    assert span.size == cons.nvars
    off = 0
    for entry in coll.entries:
        if entry.pinned is not None:
            continue
        sl = slice(off, off + entry.param_count)
        off = sl.stop
        olo, ohi = optimizer._orbit_intervals(entry.orbit)
        assert np.array_equal(olo, lo[sl])
        assert np.array_equal(ohi, hi[sl])
        assert np.array_equal(span[sl], hi[sl] - lo[sl])
    assert off == cons.nvars


def test_fully_pinned_problem_runs_one_minimization(monkeypatch):
    calls = []
    real = optimizer.minimize

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(optimizer, "minimize", counted)
    kind = ElementKind.TETRAHEDRON
    optimize_nodes(kind, 4, face_prescriptions(kind, 4, _uniform))
    assert len(calls) == 1


def test_lowest_objective_wins_whatever_the_status(monkeypatch):
    # Restart 0 reports "iteration-limited" at the lowest objective; the
    # jittered restarts report "kkt-converged" higher.  Restart 0 wins.
    real = optimizer.minimize
    outcomes = []

    def fake(problem, config, y0, lockstep):
        out = real(problem, config, y0, lockstep)
        if not outcomes:
            out.status = "iteration-limited"
            out.objective -= 1.0
        else:
            out.status = "kkt-converged"
        outcomes.append(out)
        return out

    monkeypatch.setattr(optimizer, "minimize", fake)
    r = optimize_nodes(ElementKind.LINE, 5, [point_prescription(5)])
    assert len(outcomes) == 4
    assert r.status == "iteration-limited"
    assert r.objective == outcomes[0].objective
    assert np.array_equal(r.parameters, outcomes[0].parameters)


def test_unconverged_projection_drops_only_its_restart(monkeypatch):
    # Restart 2's projection stops at the iteration limit of the
    # projection's quadratic program; restarts 0, 1 and 3 still run.
    real_active_set, real_jitter = lincon._active_set, optimizer._jittered_start
    started = []

    def jitter(problem, y0, span, seed_key):
        restart = seed_key[1]
        started.append(restart)
        if restart != 2:
            return real_jitter(problem, y0, span, seed_key)

        def limited(y, G, gl, gu, tol, max_iter):
            f, _ = yield y
            return lincon.SolveResult(y, f, "iteration-limited", max_iter, 1.0)

        monkeypatch.setattr(lincon, "_active_set", limited)
        try:
            # A target outside the bounds, so the program must run.
            far = np.full(problem.free_dimension, 1e3)
            cons = problem.constraints
            return lincon.project_onto(
                cons.matrix, cons.lower, cons.upper, far, y0
            )
        finally:
            monkeypatch.setattr(lincon, "_active_set", real_active_set)

    calls = []
    real_minimize = optimizer.minimize

    def counted(problem, config, y0, lockstep):
        calls.append(y0)
        return real_minimize(problem, config, y0, lockstep)

    monkeypatch.setattr(optimizer, "_jittered_start", jitter)
    monkeypatch.setattr(optimizer, "minimize", counted)
    r = optimize_nodes(ElementKind.LINE, 5, [point_prescription(5)])
    assert started == [1, 2, 3]
    assert len(calls) == 3
    assert r.status in ("kkt-converged", "iteration-limited")


def _same_outcome(a, b):
    return (
        np.array_equal(a.parameters, b.parameters)
        and a.objective == b.objective
        and (a.status, a.iterations, a.message)
        == (b.status, b.iterations, b.message)
        and a.kkt_residual == b.kkt_residual
    )


@pytest.mark.parametrize("budget", [None, 1, 1 << 30])
@pytest.mark.parametrize("pinned", [False, True])
@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("kind", list(ElementKind))
def test_lockstep_runs_equal_each_start_run_alone(kind, p, pinned, budget,
                                                  monkeypatch):
    # The baseline start and the jittered starts at seed 1, run together,
    # end as each ends alone, bit for bit, whether a round evaluates them
    # as the default budget has it, each alone (a budget of one entry) or
    # all in one call.  On line p=4 without pins a start with its free pair
    # 2e-8 from the vertices is near singular.
    if budget is not None:
        monkeypatch.setattr(optimizer, "_ROUND_BUDGET", budget)
    problem, y0, span = _baseline_problem(kind, p, pinned)
    starts = [y0]
    if problem.free_dimension:
        for restart in range(1, optimizer.MULTISTART_COUNT + 1):
            try:
                starts.append(
                    optimizer._jittered_start(problem, y0, span, (1, restart))
                )
            except NumericalError:
                pass
    singular = (kind, p, pinned) == (ElementKind.LINE, 4, False)
    if singular:
        starts.insert(1, np.array([y0[0], y0[0] + 2e-8]))
    config = OptimizerConfig()
    lockstep = optimizer._Lockstep(problem, config, starts)
    if budget == 1:
        assert lockstep.chunk == 1
    elif budget is not None:
        assert lockstep.chunk >= len(starts)
    together = [minimize(problem, config, start, lockstep) for start in starts]
    for start, outcome in zip(starts, together):
        assert _same_outcome(outcome, minimize(problem, config, start))
    if singular:
        assert together[1].status == "error"
        assert together[1].iterations == 0
        assert "1.270e+14 is at or above 1e+14" in together[1].message


def test_batched_objective_gives_a_collision_inf_and_the_rest_its_bits():
    # A batch of three jittered tri p=4 starts and, second, a point whose
    # first free orbit lies on its second: that point gets inf and, in
    # place of a gradient, the collision error; every other point the value
    # and gradient of its own call.
    problem, y0, span = _baseline_problem(ElementKind.TRIANGLE, 4, False)
    ys = [optimizer._jittered_start(problem, y0, span, (1, r))
          for r in (1, 2, 3)]
    collided = y0.copy()
    collided[:2] = y0[2:4]
    with pytest.raises(DegenerateDistributionError, match="apart"):
        optimizer._objective_value(problem, collided)
    ys.insert(1, collided)
    values = optimizer._objective_values(problem, np.array(ys))
    assert len(values) == 4
    f, error = values[1]
    assert f == np.inf
    assert isinstance(error, DegenerateDistributionError)
    assert "apart" in str(error)
    for i in (0, 2, 3):
        f, gradient = values[i]
        f_alone, gradient_alone = optimizer._objective_value(problem, ys[i])
        assert f == f_alone
        for a, a_alone in zip(gradient(), gradient_alone()):
            assert np.array_equal(a, a_alone)


def test_colliding_start_ends_with_the_collision_as_its_reason():
    # The unpinned tri p=4 baseline start with its first free orbit moved
    # onto its second: the run ends "error" at its first evaluation, and its
    # message says which nodes collide, not only that the objective is
    # undefined.
    problem, y0, _ = _baseline_problem(ElementKind.TRIANGLE, 4, False)
    collided = y0.copy()
    collided[:2] = y0[2:4]
    outcome = minimize(problem, OptimizerConfig(), collided)
    assert outcome.status == "error"
    assert outcome.iterations == 0
    assert "apart" in outcome.message


def test_near_singular_restart_is_dropped_with_its_reason(tmp_path, monkeypatch):
    # tabulate quad p=9 at seed 1: restart 1 starts at objective 2.7e35
    # (a round-off-level value that follows the last bits of line p=9) and
    # used to end "kkt-converged" near 5.2e31 after 16 iterations.  It now
    # ends "error" at its first evaluation, and another restart wins.
    from symnodes.cli import main

    real = optimizer.minimize
    outcomes = []

    def recorded(problem, config, y0, lockstep):
        out = real(problem, config, y0, lockstep)
        if problem.collection.kind is ElementKind.QUADRILATERAL:
            outcomes.append(out)
        return out

    monkeypatch.setattr(optimizer, "minimize", recorded)
    argv = ["tabulate", "--element", "quad", "--degree-range", "9:9",
            "--seed", "1", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert [o.status for o in outcomes] == [
        "kkt-converged", "error", "kkt-converged", "kkt-converged"
    ]
    dropped = outcomes[1]
    assert dropped.iterations == 0
    assert "2.687e+35 is at or above 1e+14" in dropped.message
    assert all(o.objective < 4.0 for o in outcomes if o.status != "error")


def test_gen_2d_winners_are_strict_local_minima(tmp_path, monkeypatch):
    # tabulate line, tri and quad p=7-9 at seed 1: every element's winning
    # run ends KKT-converged with a positive smallest eigenvalue of its
    # reduced Hessian, which certifies a strict local minimum.
    import symnodes.cli as cli

    results = {}

    def recorded(kind, p, *args):
        results[kind, p] = r = optimize_nodes(kind, p, *args)
        return r

    monkeypatch.setattr(cli, "optimize_nodes", recorded)
    argv = ["tabulate", "--element", "line,tri,quad", "--degree-range", "7:9",
            "--seed", "1", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert len(results) == 9
    for r in results.values():
        assert r.status == "kkt-converged"
        assert r.curvature > 0


@pytest.mark.parametrize("seed", [0, 1, 2, 42, 44])
def test_tri_p9_ends_in_one_minimum_at_every_seed(tmp_path, capsys, seed):
    # generate tri p=9 used to end in one of three basins by seed (2.2504,
    # 2.2992 or 2.2207, some iteration-limited).  Newton steps end every
    # seed KKT-converged at one objective.
    from symnodes.cli import main

    argv = ["generate", "--element", "tri", "--degree", "9", "--seed",
            str(seed), "--cache-dir", str(tmp_path / "cache"), "--out",
            str(tmp_path / "tri9.nodes")]
    assert main(argv) == 0
    fields = capsys.readouterr().out.split(", ")
    assert fields[4] == "kkt-converged"
    objective = float(fields[2].removeprefix("objective "))
    assert abs(objective - 2.25037228661348) <= 1e-12 * objective
