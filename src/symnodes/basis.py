"""Local function spaces, modal bases, and Lagrange interpolation.

Each element kind carries a function space of degree ``p`` whose dimension
equals the node count of the element, spanned by an orthonormal modal
basis: tensor Legendre products on line/quad/hex, the collapsed-coordinate
simplex bases on triangle and tetrahedron, a triangle-times-Legendre
product on the prism, and the rational polynomial-trace space on the
pyramid.

Basis gradients are implemented analytically for every kind, which is what
makes the analytic objective gradient of the optimizer possible.  Every
mode is a product of 1D Jacobi factors; a call builds the tables
P_0..P_n^{(a,b)} once, one recurrence sweep per family of ``a``, with the
coefficients and norms cached per (n, family, b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import UnisolvencyError
from .geometry import ElementKind, node_count
from .symmetry import NodalDistribution

__all__ = [
    "FunctionSpace",
    "VandermondeMatrix",
    "space_dimension",
    "jacobi",
    "jacobi_derivative",
    "basis_eval",
    "basis_eval_many",
    "basis_grad_many",
    "vandermonde",
    "lagrange_eval",
    "LagrangeInterpolator",
    "UNISOLVENCY_CONDITION_LIMIT",
]

UNISOLVENCY_CONDITION_LIMIT = 1e12
_COLLAPSE_EPS = 1e-13


def space_dimension(kind: ElementKind, p: int) -> int:
    """Dimension of the degree-``p`` space; equals the element node count."""
    return node_count(kind, p)


@dataclass(frozen=True)
class FunctionSpace:
    kind: ElementKind
    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")

    @property
    def dim(self):
        return space_dimension(self.kind, self.degree)


# ---------------------------------------------------------------------------
# One-dimensional Jacobi tables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _jacobi_constants(n, alphas, b):
    """Recurrence coefficients (c1, c2, c3, c4) of degrees 2..n for every
    ``a`` in ``alphas``, as (len(alphas), 1) columns, and the norms of
    P_0..P_n^{(a,b)}, shaped (n + 1, len(alphas), 1)."""
    a = np.array(alphas)[:, None]
    coeffs = tuple(
        (
            2.0 * m * (m + a + b) * (2.0 * m + a + b - 2.0),
            (2.0 * m + a + b - 1.0) * (a * a - b * b),
            (2.0 * m + a + b - 2.0) * (2.0 * m + a + b - 1.0) * (2.0 * m + a + b),
            2.0 * (m + a - 1.0) * (m + b - 1.0) * (2.0 * m + a + b),
        )
        for m in range(2, n + 1)
    )
    norms = [[_jacobi_norm(m, v, b) for v in alphas] for m in range(n + 1)]
    return coeffs, np.array(norms)[:, :, None]


def _jacobi_table(n, alphas, b, x):
    """P_0..P_n^{(a,b)} at the 1D points ``x`` for every ``a`` in the tuple
    ``alphas``: (n + 1, len(alphas), len(x)), in one recurrence sweep."""
    a = np.array(alphas)[:, None]
    t = np.empty((n + 1, len(alphas), x.size))
    t[0] = 1.0
    if n > 0:
        t[1] = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
    for m, (c1, c2, c3, c4) in enumerate(_jacobi_constants(n, alphas, b)[0], 2):
        t[m] = ((c2 + c3 * x) * t[m - 1] - c4 * t[m - 2]) / c1
    return t


def _jacobi_derivative_table(n, alphas, b, x):
    """d/dx of :func:`_jacobi_table`: 0.5 (m + a + b + 1) P_{m-1}^{(a+1,b+1)}."""
    t = np.zeros((n + 1, len(alphas), x.size))
    if n > 0:
        a = np.array(alphas)[:, None]
        m = np.arange(1, n + 1)[:, None, None]
        lower = _jacobi_table(n - 1, tuple(v + 1.0 for v in alphas), b + 1.0, x)
        np.multiply(0.5 * (m + a + b + 1.0), lower, out=t[1:])
    return t


def _jacobi_norm(n, a, b):
    """L2 norm of P_n^{(a,b)} under the weight (1-x)^a (1+x)^b on [-1, 1]."""
    num = (
        (a + b + 1.0) * math.log(2.0)
        + math.lgamma(n + a + 1.0)
        + math.lgamma(n + b + 1.0)
        - math.lgamma(n + a + b + 1.0)
        - math.lgamma(n + 1.0)
    )
    return math.sqrt(math.exp(num) / (2.0 * n + a + b + 1.0))


def jacobi(n, a, b, x):
    """Jacobi polynomial P_n^{(a,b)}, the last row of the recurrence table.

    Standard normalization (P_n(1) = binom(n+a, n)); vectorized in ``x``.
    """
    x = np.asarray(x, dtype=float)
    t = _jacobi_table(n, (float(a),), float(b), x.ravel())
    return t[n, 0].reshape(x.shape)


def jacobi_derivative(n, a, b, x):
    """First derivative of P_n^{(a,b)}."""
    x = np.asarray(x, dtype=float)
    t = _jacobi_derivative_table(n, (float(a),), float(b), x.ravel())
    return t[n, 0].reshape(x.shape)


def _cols(n, alphas, x, deriv=False, normalized=True):
    """P_m^{(a,0)}(x), m = 0..n, for every ``a`` in ``alphas`` (or their
    derivatives; ``normalized`` divides by the norms), degree last:
    (points, len(alphas), n + 1)."""
    table = _jacobi_derivative_table if deriv else _jacobi_table
    t = table(n, alphas, 0.0, x)
    if normalized:
        t /= _jacobi_constants(n, alphas, 0.0)[1]
    return t.T


def _legendre(n, x, deriv=False, normalized=True):
    """Legendre P_0..P_n (or derivatives) at ``x`` as (points, n + 1)."""
    return _cols(n, (0.0,), x, deriv, normalized)[:, 0]


def _pow_or_zero(base, e):
    """base**e, with negative exponents mapped to 0.

    Negative exponents only appear multiplied by vanishing coefficients in
    the gradient formulas below; mapping them to zero avoids inf*0.
    """
    if e < 0:
        return np.zeros_like(base)
    if e == 0:
        return np.ones_like(base)
    return base**e


# ---------------------------------------------------------------------------
# Collapsed coordinates for the simplex bases
# ---------------------------------------------------------------------------


def _collapse_ratio(num, denom):
    """(num / denom) where |denom| is meaningful, -1 at the singular limit."""
    ok = np.abs(denom) > _COLLAPSE_EPS
    safe = np.where(ok, denom, 1.0)
    return np.where(ok, num / safe - 1.0, -1.0)


def _tri_collapse(x, y):
    return _collapse_ratio(2.0 * (1.0 + x), 1.0 - y), y


def _tet_collapse(x, y, z):
    a = _collapse_ratio(2.0 * (1.0 + x), -(y + z))
    b = _collapse_ratio(2.0 * (1.0 + y), 1.0 - z)
    return a, b, z


# ---------------------------------------------------------------------------
# Orthogonal modes
#
# Each function builds its 1D factor tables once, then writes the modes in
# index-set order, a block of consecutive modes at a time: per-point factors
# are (points, 1) columns and the innermost index runs along a table.  Every
# mode keeps the floating-point expression of its closed form (the same
# operands, multiplied in the same order), so V and its gradient depend
# neither on the batching of the modes nor on the other points of the call.
# With ``grads`` each function returns the gradients, (points, modes, d).
# ---------------------------------------------------------------------------


def _tensor_product(factors, out):
    """``out[:, (i, j, ...)] = (f0[:, i] * f1[:, j]) * ...`` for a list of
    (points, m_k) factors, last index fastest, without a temporary of
    ``out``'s size."""
    n = out.shape[0]
    acc = factors[0]
    for f in factors[1:-1]:
        acc = acc[:, :, None] * f[:, None, :]
        acc = acc.reshape(n, acc.shape[1] * acc.shape[2])
    if len(factors) == 1:
        out[...] = acc
        return out
    last = factors[-1][:, None, :]
    view = out.reshape((n, acc.shape[1], last.shape[2]), copy=False)
    np.multiply(acc[:, :, None], last, out=view)
    return out


def _tensor(p, pts, grads):
    """Line, quadrilateral, hexahedron: tensor Legendre products."""
    n, dim = pts.shape
    vals = [_legendre(p, pts[:, d]) for d in range(dim)]
    if not grads:
        return _tensor_product(vals, np.empty((n, (p + 1) ** dim)))
    ders = [_legendre(p, pts[:, d], deriv=True) for d in range(dim)]
    g = np.empty((n, (p + 1) ** dim, dim))
    for dd in range(dim):
        factors = [ders[d] if d == dd else vals[d] for d in range(dim)]
        _tensor_product(factors, g[:, :, dd])
    return g


def _triangle(p, pts, grads, with_values=False):
    """Orthonormal triangle modes; with ``grads`` their gradients, and with
    ``with_values`` too the pair (values, gradients)."""
    values = with_values or not grads
    a, b = _tri_collapse(pts[:, 0], pts[:, 1])
    nmodes = (p + 1) * (p + 2) // 2
    val = np.empty((a.size, nmodes)) if values else None
    g = np.empty((a.size, nmodes, 2)) if grads else None
    one_m_b = 1.0 - b
    s2 = math.sqrt(2.0)
    alphas = tuple(2.0 * i + 1.0 for i in range(p + 1))
    fa_all, gb_all = _legendre(p, a), _cols(p, alphas, b)
    if grads:
        dfa_all = _legendre(p, a, deriv=True)
        dgb_all = _cols(p, alphas, b, deriv=True)
        a = a[:, None]
    start = 0
    for i in range(p + 1):
        blk = slice(start, start + p + 1 - i)
        start = blk.stop
        fa, gb = fa_all[:, i : i + 1], gb_all[:, i, : p + 1 - i]
        pw_i = _pow_or_zero(one_m_b, i)[:, None]
        if values:
            val[:, blk] = s2 * fa * gb * pw_i
        if not grads:
            continue
        dfa, dgb = dfa_all[:, i : i + 1], dgb_all[:, i, : p + 1 - i]
        pw_im1 = _pow_or_zero(one_m_b, i - 1)[:, None]
        g[:, blk, 0] = s2 * 2.0 * dfa * gb * pw_im1
        g[:, blk, 1] = s2 * (
            dfa * (1.0 + a) * gb * pw_im1 + fa * dgb * pw_i - i * fa * gb * pw_im1
        )
    if with_values:
        return val, g
    return g if grads else val


def _tetrahedron(p, pts, grads):
    a, b, c = _tet_collapse(pts[:, 0], pts[:, 1], pts[:, 2])
    nmodes = (p + 1) * (p + 2) * (p + 3) // 6
    out = np.empty((a.size, nmodes, 3) if grads else (a.size, nmodes))
    pb = 0.5 * (1.0 - b)
    pc = 0.5 * (1.0 - c)
    pb_pow = [_pow_or_zero(pb, e)[:, None] for e in range(-1, p + 1)]
    pc_pow = [_pow_or_zero(pc, e)[:, None] for e in range(-1, p + 1)]
    # Factor tables: in b one per i, in c one per s = i + j.
    b_alphas = tuple(2.0 * i + 1.0 for i in range(p + 1))
    c_alphas = tuple(2.0 * s + 2.0 for s in range(p + 1))
    fa_all, gb_all, hc_all = (
        _legendre(p, a), _cols(p, b_alphas, b), _cols(p, c_alphas, c)
    )
    if grads:
        dfa_all = _legendre(p, a, deriv=True)
        dgb_all = _cols(p, b_alphas, b, deriv=True)
        dhc_all = _cols(p, c_alphas, c, deriv=True)
        a, b = a[:, None], b[:, None]
    start = 0
    for i in range(p + 1):
        for j in range(p + 1 - i):
            blk = slice(start, start + p + 1 - i - j)
            start = blk.stop
            amp = 2.0 * math.sqrt(2.0) * 2.0 ** (2 * i + j)
            fa, gb = fa_all[:, i : i + 1], gb_all[:, i, j : j + 1]
            hc = hc_all[:, i + j, : p + 1 - i - j]
            pb_i, pc_ij = pb_pow[i + 1], pc_pow[i + j + 1]
            if not grads:
                out[:, blk] = amp * fa * gb * hc * pb_i * pc_ij
                continue
            dfa, dgb = dfa_all[:, i : i + 1], dgb_all[:, i, j : j + 1]
            dhc = dhc_all[:, i + j, : p + 1 - i - j]
            pb_im1, pc_ijm1 = pb_pow[i], pc_pow[i + j]
            dx_core = dfa * gb * hc * pb_im1 * pc_ijm1
            tmp_b = dgb * pb_i - 0.5 * i * gb * pb_im1  # d/db of gb * pb^i
            out[:, blk, 0] = amp * dx_core
            out[:, blk, 1] = amp * (
                0.5 * (1.0 + a) * dx_core + fa * hc * pc_ijm1 * tmp_b
            )
            out[:, blk, 2] = amp * (
                0.5 * (1.0 + a) * dx_core
                + 0.5 * (1.0 + b) * fa * hc * pc_ijm1 * tmp_b
                + fa * gb * pb_i * (dhc * pc_ij - 0.5 * (i + j) * hc * pc_ijm1)
            )
    return out


def _prism(p, pts, grads):
    """Triangle modes times Legendre in z, z fastest."""
    tri, tri_g = _triangle(p, pts[:, :2], grads, with_values=True)
    leg = _legendre(p, pts[:, 2])
    n, nmodes = tri.shape[0], tri.shape[1] * (p + 1)
    if not grads:
        return _tensor_product([tri, leg], np.empty((n, nmodes)))
    g = np.empty((n, nmodes, 3))
    _tensor_product([tri_g[:, :, 0], leg], g[:, :, 0])
    _tensor_product([tri_g[:, :, 1], leg], g[:, :, 1])
    _tensor_product([tri, _legendre(p, pts[:, 2], deriv=True)], g[:, :, 2])
    return g


def _pyramid_uvw(pts):
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    w = 0.5 * (1.0 - z)
    safe = np.where(w > _COLLAPSE_EPS, w, 1.0)
    u = np.where(w > _COLLAPSE_EPS, x / safe, 0.0)
    v = np.where(w > _COLLAPSE_EPS, y / safe, 0.0)
    return u, v, w, z


@lru_cache(maxsize=None)
def _pyramid_norms(i, j, p):
    """Norms of the pyramid modes (i, j, k), k = 0..p - max(i, j)."""
    c = max(i, j)
    den = [(2 * i + 1) * (2 * j + 1) * (2 * k + 2 * c + 3) for k in range(p + 1 - c)]
    return np.array([math.sqrt(8.0 / d) for d in den])


def _pyramid(p, pts, grads):
    """Rational pyramid modes; unnormalized Jacobi factors, one z table per
    c = max(i, j)."""
    u, v, w, z = _pyramid_uvw(pts)
    nmodes = (p + 1) * (p + 2) * (2 * p + 3) // 6
    out = np.empty((u.size, nmodes, 3) if grads else (u.size, nmodes))
    w_pow = [_pow_or_zero(w, e)[:, None] for e in range(-1, p + 1)]
    h_alphas = tuple(2.0 * (c + 1.0) for c in range(p + 1))
    f_u = _legendre(p, u, normalized=False)
    f_v = _legendre(p, v, normalized=False)
    h_all = _cols(p, h_alphas, z, normalized=False)
    if grads:
        df_u = _legendre(p, u, deriv=True, normalized=False)
        df_v = _legendre(p, v, deriv=True, normalized=False)
        dh_all = _cols(p, h_alphas, z, deriv=True, normalized=False)
        u, v = u[:, None], v[:, None]
    start = 0
    for i in range(p + 1):
        for j in range(p + 1):
            c = max(i, j)
            blk = slice(start, start + p + 1 - c)
            start = blk.stop
            fi, fj = f_u[:, i : i + 1], f_v[:, j : j + 1]
            hk = h_all[:, c, : p + 1 - c]
            w_c, nrm = w_pow[c + 1], _pyramid_norms(i, j, p)
            if not grads:
                out[:, blk] = fi * fj * w_c * hk / nrm
                continue
            dfi, dfj = df_u[:, i : i + 1], df_v[:, j : j + 1]
            dhk, w_cm1 = dh_all[:, c, : p + 1 - c], w_pow[c]
            out[:, blk, 0] = dfi * fj * hk * w_cm1 / nrm
            out[:, blk, 1] = fi * dfj * hk * w_cm1 / nrm
            out[:, blk, 2] = (
                0.5 * dfi * u * fj * hk * w_cm1
                + 0.5 * fi * dfj * v * hk * w_cm1
                - 0.5 * c * fi * fj * hk * w_cm1
                + fi * fj * dhk * w_c
            ) / nrm
    return out


# ---------------------------------------------------------------------------
# Public evaluation API
# ---------------------------------------------------------------------------

_ORTHOGONAL = {
    ElementKind.LINE: _tensor,
    ElementKind.QUADRILATERAL: _tensor,
    ElementKind.HEXAHEDRON: _tensor,
    ElementKind.TRIANGLE: _triangle,
    ElementKind.TETRAHEDRON: _tetrahedron,
    ElementKind.PRISM: _prism,
    ElementKind.PYRAMID: _pyramid,
}


def basis_eval_many(space: FunctionSpace, pts):
    """Evaluate all basis functions at an (n, d) array of points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return _ORTHOGONAL[space.kind](space.degree, pts, False)


def basis_grad_many(space: FunctionSpace, pts):
    """Gradients of all basis functions: (n_points, dim, d)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return _ORTHOGONAL[space.kind](space.degree, pts, True)


def basis_eval(space: FunctionSpace, x):
    """Evaluate all basis functions at a single point."""
    return basis_eval_many(space, np.atleast_2d(x))[0]


@dataclass(eq=False)
class VandermondeMatrix:
    """Generalized Vandermonde matrix V[i, j] = phi_j(node_i)."""

    matrix: np.ndarray
    space: FunctionSpace
    nodes: np.ndarray
    _sv: np.ndarray | None = field(default=None, repr=False)

    @property
    def singular_values(self):
        """Singular values, largest first; all NaN when the SVD fails."""
        if self._sv is None:
            try:
                self._sv = np.linalg.svd(self.matrix, compute_uv=False)
            except np.linalg.LinAlgError:
                self._sv = np.full(min(self.matrix.shape), np.nan)
        return self._sv

    @property
    def condition(self):
        """Spectral condition number; infinite when ``V`` is singular."""
        s = self.singular_values
        with np.errstate(all="ignore"):
            cond = float(s[0] / s[-1])
        return np.inf if np.isnan(cond) else cond

    @property
    def determinant(self):
        return float(np.linalg.det(self.matrix))


def vandermonde(space: FunctionSpace, dist: NodalDistribution) -> VandermondeMatrix:
    if dist.count != space.dim:
        raise ValueError(
            f"distribution has {dist.count} nodes, space dimension is "
            f"{space.dim}"
        )
    V = basis_eval_many(space, dist.nodes)
    return VandermondeMatrix(V, space, dist.nodes)


class LagrangeInterpolator:
    """Lagrange evaluation for one (space, distribution) pair.

    ``V^-1`` is formed once and kept read-only; the cardinal functions at
    any batch of points are then one matrix product with the modal basis
    values there.  This is the workhorse behind the metrics.
    """

    def __init__(self, space, dist):
        self.space = space
        self.dist = dist
        self.vmatrix = vandermonde(space, dist)
        V = self.vmatrix.matrix
        if not np.all(np.isfinite(V)):
            raise UnisolvencyError("non-finite basis values at nodes")
        cond = self.vmatrix.condition
        if not np.isfinite(cond) or cond > UNISOLVENCY_CONDITION_LIMIT:
            raise UnisolvencyError(
                f"Vandermonde condition {cond:.3e} exceeds limit "
                f"{UNISOLVENCY_CONDITION_LIMIT:.1e}"
            )
        lu = scipy.linalg.lu_factor(V)
        self._inverse = scipy.linalg.lu_solve(lu, np.eye(V.shape[0]))
        self._inverse.setflags(write=False)

    def inverse(self):
        """``V^-1``: column ``i`` holds the modal coefficients of ``l_i``."""
        return self._inverse

    def eval_many(self, pts):
        """Cardinal function values: (n_points, n_nodes)."""
        # V^T ell(x) = phi(x)  =>  ell(x)^T = phi(x)^T V^-1.
        return basis_eval_many(self.space, pts) @ self._inverse

    def eval_gradients(self, pts):
        """Cardinal function gradients: (n_points, n_nodes, d)."""
        g = basis_grad_many(self.space, pts)
        npts, nb, d = g.shape
        flat = g.transpose(0, 2, 1).reshape(npts * d, nb)
        return (flat @ self._inverse).reshape(npts, d, nb).transpose(0, 2, 1)


def lagrange_eval(space, dist, x):
    """Values of all Lagrange cardinal functions of ``dist`` at ``x``.

    Raises :class:`UnisolvencyError` when the node set is not unisolvent for
    the space (Vandermonde condition above the screening limit).
    """
    interp = LagrangeInterpolator(space, dist)
    return interp.eval_many(np.atleast_2d(x))[0]
