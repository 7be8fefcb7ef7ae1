"""Utilities for two-sided linear constraint systems ``lo <= B @ x <= hi``.

Smooth minimization over inequality systems uses the active-set Newton
method implemented here: rows enter and leave a working set, and each step
solves the caller's exact Hessian, reduced to the working set's null space,
with its eigenvalues taken in absolute value above a floor (Nocedal &
Wright, *Numerical Optimization*, section 3.4), and backtracks on an
Armijo test.  It starts from a feasible point the caller provides, and so
does the least-distance projection, a quadratic program whose Hessian is
the identity; neither solves a linear program.  The solver is a generator
(:func:`minimization`) that yields the points it needs evaluated, so a
caller can run several in rounds and evaluate the points of a round
together.  A fixed value is the
caller's to substitute: the minimizer and the projection reject a row with
``lo == hi``, and the linear programs treat it as two inequalities.

The linear-program helpers (:func:`feasible_point`, :func:`interior_point`
and :func:`coordinate_intervals`, HiGHS via scipy) are not on the path of
a run: the orbit intervals that size the restart jitter come from vertex
enumeration, and the jittered starts are projected from the feasible
baseline start.  They remain as references the tests check against, and
:func:`linprog` imports ``scipy.optimize`` only when one of them is called.
Their one-sided rows, :func:`_lp_parts`, also give the vertex enumeration
of ``optimizer._orbit_intervals`` its rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConstraintConflictError, NumericalError

EQ_TOL = 1e-13
FEAS_TOL = 1e-12  # violation a start may have


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog as highs

    return highs(*args, **kwargs)


def _as_system(B, lo, hi):
    B = np.atleast_2d(np.asarray(B, dtype=float))
    lo = np.asarray(lo, dtype=float).ravel()
    hi = np.asarray(hi, dtype=float).ravel()
    if B.shape[0] != lo.size or lo.size != hi.size:
        raise ValueError("inconsistent constraint system shapes")
    return B, lo, hi


def violation(B, lo, hi, x):
    """Largest componentwise violation of the system at ``x`` (0 if feasible)."""
    if B.shape[0] == 0:
        return 0.0
    y = B @ x
    v = np.maximum(np.maximum(lo - y, y - hi), 0.0)
    return float(np.max(v))


def equality_rows(lo, hi):
    """Mask of the rows whose two finite bounds agree to ``EQ_TOL``."""
    return np.isfinite(lo) & np.isfinite(hi) & (hi - lo <= EQ_TOL)


def _lp_parts(B, lo, hi):
    """The system as linprog's ``A_ub @ x <= b_ub``: one row per finite
    bound."""
    fin_hi, fin_lo = np.isfinite(hi), np.isfinite(lo)
    A_ub = np.vstack([B[fin_hi], -B[fin_lo]])
    return A_ub, np.concatenate([hi[fin_hi], -lo[fin_lo]])


def feasible_point(B, lo, hi, tol=1e-9):
    """A point satisfying the system, or ``None`` when it is infeasible.

    Phase-1 LP: minimize the uniform slack ``s`` added to every inequality.
    """
    B, lo, hi = _as_system(B, lo, hi)
    n = B.shape[1]
    if n == 0:
        return np.zeros(0) if violation(B, lo, hi, np.zeros(0)) <= tol else None
    if B.shape[0] == 0:
        return np.zeros(n)
    A_ub, b_ub = _lp_parts(B, lo, hi)
    m_ub = A_ub.shape[0]
    # Variables [x, s]; every inequality relaxed by s.
    c = np.zeros(n + 1)
    c[-1] = 1.0
    res = linprog(
        c,
        A_ub=np.hstack([A_ub, -np.ones((m_ub, 1))]) if m_ub else None,
        b_ub=b_ub if m_ub else None,
        bounds=[(None, None)] * n + [(0.0, None)],
        method="highs",
    )
    if not res.success or res.x[-1] > tol:
        return None
    x = res.x[:n]
    return x if violation(B, lo, hi, x) <= tol else None


def interior_point(B, lo, hi, tol=1e-9):
    """A point maximizing the smallest inequality margin (Chebyshev-like).

    Falls back to :func:`feasible_point` for systems with no interior.
    Returns ``None`` for infeasible systems.
    """
    B, lo, hi = _as_system(B, lo, hi)
    n = B.shape[1]
    if n == 0 or B.shape[0] == 0:
        return feasible_point(B, lo, hi, tol)
    A_ub, b_ub = _lp_parts(B, lo, hi)
    if A_ub.shape[0] == 0:
        return feasible_point(B, lo, hi, tol)
    scale = np.maximum(np.linalg.norm(A_ub, axis=1), 1e-30)
    c = np.zeros(n + 1)
    c[-1] = -1.0  # maximize margin t
    res = linprog(
        c,
        A_ub=np.hstack([A_ub, scale[:, None]]),
        b_ub=b_ub,
        bounds=[(None, None)] * n + [(0.0, 10.0)],
        method="highs",
    )
    if not res.success:
        return feasible_point(B, lo, hi, tol)
    x = res.x[:n]
    return x if violation(B, lo, hi, x) <= tol else feasible_point(B, lo, hi, tol)


def coordinate_intervals(B, lo, hi):
    """Per-coordinate min/max over the feasible set (LP probes).

    Unbounded directions yield +-inf entries.  Raises
    :class:`ConstraintConflictError` on infeasible systems.
    """
    B, lo, hi = _as_system(B, lo, hi)
    n = B.shape[1]
    A_ub, b_ub = _lp_parts(B, lo, hi)
    mins = np.empty(n)
    maxs = np.empty(n)

    def probe(c):
        return linprog(
            c,
            A_ub=A_ub if A_ub.shape[0] else None,
            b_ub=b_ub if A_ub.shape[0] else None,
            bounds=[(None, None)] * n,
            method="highs",
        )

    for k in range(n):
        c = np.zeros(n)
        c[k] = 1.0
        res = probe(c)
        if res.status == 3:  # unbounded below
            mins[k] = -np.inf
        elif not res.success:
            raise ConstraintConflictError("infeasible constraint system")
        else:
            mins[k] = res.fun
        res = probe(-c)
        if res.status == 3:  # unbounded above
            maxs[k] = np.inf
        elif not res.success:
            raise ConstraintConflictError("infeasible constraint system")
        else:
            maxs[k] = -res.fun
    return mins, maxs


def _inequalities(B, lo, hi):
    """The system as arrays; raises :class:`ValueError` on an equality row
    (a value that is fixed is a known value, not a variable)."""
    B, lo, hi = _as_system(B, lo, hi)
    if np.any(equality_rows(lo, hi)):
        raise ValueError(
            "equality rows are not supported: substitute the fixed values"
        )
    return B, lo, hi


@dataclass
class SolveResult:
    x: np.ndarray
    fun: float
    status: str  # "kkt-converged" | "iteration-limited" | "error"
    iterations: int
    kkt_residual: float
    message: str = ""
    # Smallest eigenvalue of the Hessian reduced to the null space of the
    # working set at ``x``, before the modification of the step (inf on an
    # empty null space).  Positive at a KKT point: a strict local minimum.
    curvature: float = np.nan


def minimize_linearly_constrained(fun, x0, B, lo, hi, tol=1e-10, max_iter=50):
    """Minimize a smooth function subject to ``lo <= B @ x <= hi``.

    ``fun(x) -> (f, derivatives)``, where the zero-argument
    ``derivatives()`` returns the gradient and the Hessian at ``x``, or
    ``None`` where they are undefined.  The solver calls ``derivatives``
    once at the start and once per accepted step, never at a line-search
    trial it rejects on ``f``, and never when ``f`` is not finite.
    ``f = inf`` rejects a point; so do derivatives that are ``None`` or not
    finite, and then the step is halved as for ``inf``.
    ``x0`` must meet the system to ``FEAS_TOL``.  Raises
    :class:`ValueError` on an equality row or an infeasible ``x0``; the
    inequalities are handled by an active-set strategy.  The method is
    deterministic.
    """
    return drive(minimization(x0, B, lo, hi, tol, max_iter), fun)


def minimization(x0, B, lo, hi, tol=1e-10, max_iter=50):
    """:func:`minimize_linearly_constrained` as a generator: it yields each
    point, takes ``(f, derivatives)`` there by ``send``, calls
    ``derivatives`` (if at all) before its next yield, and returns the
    :class:`SolveResult`."""
    B, lo, hi = _inequalities(B, lo, hi)
    return _active_set(_feasible_start(B, lo, hi, x0), B, lo, hi, tol,
                       max_iter)


def drive(solver, fun):
    """Run ``solver`` to its result, answering each point with ``fun``."""
    try:
        y = next(solver)
        while True:
            y = solver.send(fun(y))
    except StopIteration as stop:
        return stop.value


def project_onto(B, lo, hi, target, start):
    """Least-distance projection of ``target`` onto ``lo <= B x <= hi``.

    The projection's quadratic program starts from ``start``, which must
    meet the system to ``FEAS_TOL``; a feasible ``target`` is returned as
    it is.  Raises :class:`ValueError` on an equality row or an infeasible
    ``start``, and :class:`NumericalError` when the program does not end
    KKT-converged.
    """
    B, lo, hi = _inequalities(B, lo, hi)
    target = np.asarray(target, dtype=float).ravel()
    if violation(B, lo, hi, target) <= 1e-14:
        return target
    start = _feasible_start(B, lo, hi, start)

    identity = np.eye(target.size)

    def qp(x):
        d = x - target
        return 0.5 * float(d @ d), lambda: (d, identity)

    res = drive(_active_set(start, B, lo, hi, 1e-10, max_iter=200), qp)
    if res.status != "kkt-converged":
        raise NumericalError(
            f"the projection ended {res.status} after {res.iterations} "
            "iterations"
        )
    return res.x


def _feasible_start(B, lo, hi, x0):
    """``x0`` as a float vector; raises :class:`ValueError` when it violates
    the system by more than ``FEAS_TOL``."""
    x0 = np.asarray(x0, dtype=float).ravel()
    v = violation(B, lo, hi, x0)
    if v > FEAS_TOL:
        raise ValueError(f"the start violates the constraints by {v:.3e}")
    return x0


def _reduced_hessian_dir(H, Zw, g):
    """Newton direction restricted to the working-set null space ``Zw``,
    the reduced gradient, and the smallest eigenvalue of the reduced
    Hessian (inf when ``Zw`` has no column).  The step divides by the
    eigenvalues' absolute values, floored relative to the largest."""
    if Zw.shape[1] == 0:
        return np.zeros(H.shape[0]), np.zeros(0), np.inf
    Hz = Zw.T @ H @ Zw
    Hz = 0.5 * (Hz + Hz.T)
    w, V = np.linalg.eigh(Hz)
    floor = max(1e-12, 1e-10 * float(np.max(np.abs(w), initial=1.0)))
    gz = Zw.T @ g
    p = -V @ ((V.T @ gz) / np.maximum(np.abs(w), floor))
    return Zw @ p, gz, float(w[0])


def _screened(value, bound):
    """``f`` and ``derivatives()`` of ``value = (f, derivatives)``; the
    derivatives are ``None`` unless ``f`` is finite and at most ``bound``
    and they are finite.  No ``derivatives`` stays with the solver to keep
    its evaluation's arrays."""
    f, derivatives = value
    if not (np.isfinite(f) and f <= bound):
        return f, None
    gH = derivatives()
    finite = gH is not None and all(np.all(np.isfinite(a)) for a in gH)
    return f, gH if finite else None


def _active_set(y0, G, gl, gu, tol, max_iter):
    """Core active-set loop on pure inequality rows (no equalities): the
    generator of :func:`minimization`."""
    n = y0.size
    y = np.asarray(y0, dtype=float).copy()
    f, gH = _screened((yield y), np.inf)
    if gH is None:
        return SolveResult(
            y, np.inf, "error", 0, np.inf, "objective undefined at start"
        )
    if n == 0:
        return SolveResult(y, f, "kkt-converged", 0, 0.0, curvature=np.inf)
    g, H = gH
    m = G.shape[0]
    act_tol = 1e-11

    def active_rows(y):
        """Rows at a bound in row order, mapped to +1 (upper, tested first)
        or -1 (lower)."""
        vals = G @ y
        upper = np.isfinite(gu) & (vals >= gu - act_tol)
        lower = ~upper & np.isfinite(gl) & (vals <= gl + act_tol)
        rows = np.flatnonzero(upper | lower)
        return dict(zip(rows.tolist(), np.where(upper[rows], 1.0, -1.0)))

    def working_set(work):
        """The rows of ``work`` and a basis of their null space."""
        if not work:
            return np.zeros((0, n)), np.eye(n)
        A_w = G[list(work)]
        Zw = scipy.linalg.null_space(A_w)
        return A_w, Zw if Zw.size else np.zeros((n, 0))

    def limited(major):
        """The best iterate, or ``y``, reported iteration-limited, with the
        reduced gradient and curvature on the rows active there."""
        x, fx, gx, Hx = best if best[1] < f else (y, f, g, H)
        _, gz, curvature = _reduced_hessian_dir(
            Hx, working_set(active_rows(x))[1], gx
        )
        gz_norm = float(np.max(np.abs(gz))) if gz.size else 0.0
        resid = max(gz_norm, violation(G, gl, gu, x))
        return SolveResult(x, fx, "iteration-limited", major, resid,
                           curvature=curvature)

    # The working set: its rows in the order they entered, mapped to sides.
    work = active_rows(y)
    best = y.copy(), f, g, H

    for major in range(1, max_iter + 1):
        A_w, Zw = working_set(work)
        d, gz, curvature = _reduced_hessian_dir(H, Zw, g)
        gz_norm = float(np.max(np.abs(gz))) if gz.size else 0.0

        if gz_norm <= tol or float(np.linalg.norm(d)) <= 1e-15:
            # Stationary on the working set: check multiplier signs.
            if not work:
                return SolveResult(y, f, "kkt-converged", major, gz_norm,
                                   curvature=curvature)
            lam, *_ = np.linalg.lstsq(A_w.T, g, rcond=None)
            bad = lam * np.fromiter(work.values(), float)  # must be <= 0
            worst = int(np.argmax(bad))
            mult_tol = max(tol, 1e-12 * (1.0 + float(np.linalg.norm(g))))
            if bad[worst] <= mult_tol:
                resid = max(gz_norm, violation(G, gl, gu, y))
                return SolveResult(y, f, "kkt-converged", major, resid,
                                   curvature=curvature)
            del work[list(work)[worst]]
            continue

        # Ratio test against the rows outside the working set; on a tie the
        # lowest row blocks.
        Gd, Gy = G @ d, G @ y
        up = (Gd > 1e-14) & np.isfinite(gu)
        down = (Gd < -1e-14) & np.isfinite(gl)
        up[list(work)] = down[list(work)] = False
        ratio = np.full(m, np.inf)
        ratio[up] = (gu[up] - Gy[up]) / Gd[up]
        ratio[down] = (gl[down] - Gy[down]) / Gd[down]
        blocker = int(np.argmin(ratio)) if np.any(ratio < np.inf) else None
        alpha_max = np.inf if blocker is None else max(ratio[blocker], 0.0)

        if alpha_max <= 1e-14 and blocker is not None:
            work[blocker] = 1.0 if up[blocker] else -1.0
            continue

        # Backtracking Armijo search from the full (possibly clipped) step.
        # The acceptance test tolerates floating-point noise in f so that
        # progress continues on gradient information near the minimum.  The
        # derivatives are evaluated only at a point that passes the test on f.
        alpha = min(1.0, alpha_max)
        hit_boundary = alpha == alpha_max
        slope = float(g @ d)
        noise = 8.0 * np.finfo(float).eps * (1.0 + abs(f))
        for _ in range(40):
            y_new = y + alpha * d
            f_new, gH = _screened(
                (yield y_new), f + 1e-4 * alpha * slope + noise
            )
            if gH is not None:
                break
            alpha *= 0.5
            hit_boundary = False
        else:
            return limited(major)

        y, f, (g, H) = y_new, f_new, gH
        if f < best[1]:
            best = y.copy(), f, g, H
        if hit_boundary and blocker is not None:
            work[blocker] = 1.0 if up[blocker] else -1.0

    return limited(max_iter)
