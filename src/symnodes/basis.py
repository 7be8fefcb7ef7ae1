"""Local function spaces, modal bases, and Lagrange interpolation.

Each element kind carries a function space of degree ``p`` whose dimension
equals the node count of the element, spanned by an orthonormal modal
basis: tensor Legendre products on line/quad/hex, the collapsed-coordinate
simplex bases on triangle and tetrahedron, a triangle-times-Legendre
product on the prism, and the rational polynomial-trace space on the
pyramid.  :class:`LagrangeInterpolator` alone refuses node sets too near
singular.

Each kind has one description of its modes, its form: every mode is an
amplitude times 1D Jacobi factors of (collapsed) coordinates times powers
of bases affine in one coordinate.  One chain-rule plan (:func:`_plan`)
gives values, gradients and second derivatives from it, the values as
its order-0 term; the derivatives are analytic for every kind, which is
what makes the objective gradient and Hessian of the optimizer analytic.
A call works on blocks of points, at most ``_BLOCK`` (points x modes)
entries each.  For each block it runs one three-term-recurrence sweep
(:func:`_sweep`) over every (a, b) row it needs: all families, all
coordinates and, for derivatives, the (a + 1, b + 1) and (a + 2, b + 2)
rows, each stopped at the highest degree its modes use; the modes gather
their factors from that one table with index plans cached per degree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import DegenerateDistributionError, UnisolvencyError
from .geometry import ElementKind, node_count

__all__ = [
    "FunctionSpace",
    "basis_eval_many",
    "basis_grad_many",
    "basis_eval_with_grad",
    "degree_columns",
    "lu_inverse",
    "LagrangeInterpolator",
    "MASS_RATIO",
    "mass_condition",
]

# Eigenvalue ratio of the mass matrix ``V^-T V^-1`` at or below which it is
# not positive definite: cond(V) >= 1e7 when sigma_min <= 1.
MASS_RATIO = 1e-14
_COLLAPSE_EPS = 1e-13


@dataclass(frozen=True)
class FunctionSpace:
    kind: ElementKind
    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")

    @property
    def dim(self):
        return node_count(self.kind, self.degree)


# ---------------------------------------------------------------------------
# The Jacobi table
# ---------------------------------------------------------------------------


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


@lru_cache(maxsize=None)
def _recurrence(n, rows, normalized):
    """What :func:`_sweep` needs for ``rows``, (a, b, deriv, depth) sorted
    by depth, deepest first, cached per row set.

    For each degree m = 0..n: the number of rows whose sweep reaches m
    and, as columns, their coefficients (e0, e1) of degree 1 or (c1, c2,
    c3, c4) of P_m = ((c2 + c3 x) P_{m-1} - c4 P_{m-2}) / c1, on the
    (a + deriv, b + deriv) pair for derivative rows.  Then c3 and c2 of
    degrees m = 2..n over all rows, (n - 1, rows, 1), padded with 1 and 0
    past each row's depth (so an infinite coordinate there gives no
    0 * inf); the factors 0.5 (m + a + b + 1) of first and
    0.25 (m + a + b + 2) (m + a + b + 3) of second derivative rows,
    m = 1..n + 1, that turn the entries into derivatives (1 on value rows,
    None without derivative rows); and with ``normalized`` the norm of each
    entry.
    """
    a0, b0, d, depth = np.array(rows, dtype=float).T[:, :, None]
    a, b = a0 + d, b0 + d
    steps = [(int(np.count_nonzero(depth >= 0)), None)]
    for m in range(1, n + 1):
        r = int(np.count_nonzero(depth >= m))
        a, b = a[:r], b[:r]
        steps.append((r, (0.5 * (a - b), 0.5 * (a + b + 2.0)) if m == 1 else (
            2.0 * m * (m + a + b) * (2.0 * m + a + b - 2.0),
            (2.0 * m + a + b - 1.0) * (a * a - b * b),
            (2.0 * m + a + b - 2.0) * (2.0 * m + a + b - 1.0) * (2.0 * m + a + b),
            2.0 * (m + a - 1.0) * (m + b - 1.0) * (2.0 * m + a + b),
        )))
    c3 = np.ones((max(n - 1, 0), len(rows), 1))
    c2 = np.zeros_like(c3)
    for k, (r, coeffs) in enumerate(steps[2:]):
        c2[k, :r], c3[k, :r] = coeffs[1:3]
    m = np.arange(1, n + 2)[:, None, None]
    factor = np.select(
        [d == 1.0, d == 2.0],
        [0.5 * (m + a0 + b0 + 1.0),
         0.25 * (m + a0 + b0 + 2.0) * (m + a0 + b0 + 3.0)],
        1.0,
    ) if d.any() else None
    norms = None
    if normalized:
        norms = np.array(
            [[_jacobi_norm(m + d, a, b) for a, b, d, _ in rows] for m in range(n + 1)]
        )[:, :, None]
    return steps, (c3, c2), factor, norms


def _sweep(n, rows, normalized, X):
    """The Jacobi table of ``rows``, (a, b, deriv, depth) sorted by depth,
    deepest first, each at its own points ``X[r]``: (n + 1, R, P), from one
    three-term-recurrence sweep, in place, that stops each row at its depth.

    Entry m <= depth of a value row is P_m^{(a,b)}.  Entry m - 1 <= depth
    of a first derivative row is d/dx P_m^{(a,b)} = 0.5 (m + a + b + 1)
    P_{m-1}^{(a+1,b+1)}, and entry m - 2 <= depth of a second derivative
    row is d2/dx2 P_m^{(a,b)} = 0.25 (m + a + b + 1) (m + a + b + 2)
    P_{m-2}^{(a+2,b+2)}.  Entries past the depth are 0; the last ones of a
    derivative row are the derivatives of P_0 (and P_1).  With
    ``normalized`` every entry is divided by the norm of its P_m^{(a,b)}.

    ``c2 + c3 x`` of every degree comes from one product and one sum before
    the loop; each degree then takes four in-place operations, in the
    order of the recurrence.
    """
    steps, (c3, c2), factor, norms = _recurrence(n, rows, normalized)
    t = np.zeros((n + 1,) + X.shape)
    t[0, : steps[0][0]] = 1.0
    if n > 0:
        r, (e0, e1) = steps[1]
        np.multiply(e1, X[:r], out=t[1, :r])
        t[1, :r] += e0
    linear = c3 * X
    linear += c2
    tmp = np.empty_like(X)
    for m, (r, (c1, _, _, c4)) in enumerate(steps[2:], 2):
        row, buf = t[m, :r], tmp[:r]
        np.multiply(linear[m - 2, :r], t[m - 1, :r], out=row)
        np.multiply(c4, t[m - 2, :r], out=buf)
        row -= buf
        row /= c1
    if factor is not None:
        t *= factor
    if normalized:
        t /= norms
    return t


@lru_cache(maxsize=None)
def _layout(p, families, order):
    """The degree-``p`` table rows of a kind whose 1D factors are the
    ``families`` ((coordinate, alphas), ...) with b = 0, where the ``q``-th
    alpha of a family is needed up to degree p - q: every value row and
    the derivative rows of orders 1..``order``, sorted by depth.

    Returns the rows, the coordinate of each row, and ``entry(d, f, q,
    m)``: the row of the flattened (degree x row, P) table holding the
    ``d``-th derivative of P_m^{(a_q, 0)} of family ``f``.
    """
    keys = [
        (p - q - deriv, deriv, f, q)
        for deriv in range(1 + order)
        for f, (_, alphas) in enumerate(families)
        for q in range(len(alphas))
    ]
    keys.sort(key=lambda k: -k[0])
    rows = tuple((families[f][1][q], 0.0, d, depth) for depth, d, f, q in keys)
    coord = np.array([families[f][0] for _, _, f, _ in keys])
    where = {(d, f, q): r for r, (_, d, f, q) in enumerate(keys)}
    nrows = len(rows)

    def entry(d, f, q, m):
        row = np.vectorize(lambda q: where[d, f, q])(q)
        return (m - d) % (p + 1) * nrows + row

    return rows, coord, entry


def _factors(p, families, order, coords, normalized):
    """The table of :func:`_layout` at ``coords`` ((coordinates, P)),
    flattened to (degree x row, P)."""
    rows, coord = _layout(p, families, order)[:2]
    t = _sweep(p, rows, normalized, coords.take(coord, axis=0))
    return t.reshape(-1, coords.shape[1])


# ---------------------------------------------------------------------------
# Collapsed coordinates
# ---------------------------------------------------------------------------


def _collapse_ratio(num, denom):
    """(num / denom) where |denom| is meaningful, -1 at the singular limit."""
    ok = np.abs(denom) > _COLLAPSE_EPS
    safe = np.where(ok, denom, 1.0)
    return np.where(ok, num / safe - 1.0, -1.0)


def _coordinates(kind, pts):
    """The coordinates of the table of ``kind`` at ``pts``, (coordinates,
    points), and the bases of its powers in the order of its form: x, y, z
    on line, quadrilateral and hexahedron; a, b (and z on the prism) with
    1 - b, 1 + a on triangle and prism; a, b, c with (1 - b) / 2,
    (1 - c) / 2, 1 + a, 1 + b on the tetrahedron; u, v, z with w, u, v on
    the pyramid.  The bases are new arrays, not views of ``pts``."""
    x, y, z = (*pts.T, None, None)[:3]
    if kind in (ElementKind.TRIANGLE, ElementKind.PRISM):
        a = _collapse_ratio(2.0 * (1.0 + x), 1.0 - y)
        return np.stack((a, y, *pts.T[2:])), (1.0 - y, 1.0 + a)
    if kind is ElementKind.TETRAHEDRON:
        a = _collapse_ratio(2.0 * (1.0 + x), -(y + z))
        b = _collapse_ratio(2.0 * (1.0 + y), 1.0 - z)
        bases = (0.5 * (1.0 - b), 0.5 * (1.0 - z), 1.0 + a, 1.0 + b)
        return np.stack((a, b, z)), bases
    if kind is ElementKind.PYRAMID:
        w = 0.5 * (1.0 - z)
        ok = w > _COLLAPSE_EPS
        safe = np.where(ok, w, 1.0)
        u, v = (np.where(ok, t / safe, 0.0) for t in (x, y))
        return np.stack((u, v, z)), (w, u, v)
    return pts.T, ()


# ---------------------------------------------------------------------------
# Modes
#
# Each kind has one form (:class:`_Form`), which lists its modes in order.
# Every mode is ``amp * prod J(xi) * prod base^e``: Jacobi factors of the
# table's coordinates xi (a, b, c on the simplices, u, v, z on the pyramid)
# times powers of bases affine in one coordinate, whose exponents depend on
# the mode (1 - b, w) or start at 0 (the atoms 1 + a, 1 + b, u, v).  Per
# block of points, the table of every 1D factor (:func:`_factors`) and the
# bases are formed at once, so that neither reads the caller's points later.
#
# Each ``d xi / d x_k`` is a monomial in the bases, so the chain rule
# writes a derivative of any order as a short sum of products of the same
# kind (:func:`_plan`); the values are its order-0 term, the one product
# per mode.  Every order comes from one gather of the table and of a power
# table per base (:func:`_chain_rule`), operands as (modes, points) arrays
# and per-mode constants as (modes, 1) columns.  Two rules keep each value
# the floating-point expression of its closed form, so that V depends
# neither on how the modes are gathered, nor on the other points of the
# call, nor on the derivative rows of the table:
#
# * a power table holds ``base**e`` for e >= 0, not repeated products;
# * every term multiplies left to right in one order: the amplitude, the
#   leading Jacobi factors, the powers, then the trailing Legendre factors
#   (every axis of line, quadrilateral and hexahedron, z on the prism).
#
# A negative power multiplies a zero coefficient on the simplices, where
# the modes are polynomials, but is the pyramid's rational factor 1 / w for
# max(i, j) = 1; it reads 0 where its base is 0, as at the apex.
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


class _Form(NamedTuple):
    """The degree-p modes of one kind.

    ``families`` ((coordinate, alphas), ...) are the table's Jacobi
    families, with b = 0.  Per mode, as arrays over the modes: ``factors``
    (family, alpha index, degree) of each Jacobi factor, ``powers``
    (coordinate, slope, exponent) of each base, affine in that coordinate,
    and ``amp``.  ``dvar[c][k]``, ``d xi_c / d x_k``, is a monomial
    (coefficient, {base: exponent}), or None where it is 0.  The last
    ``legendre`` factors are Legendre axes that run over degrees 0..p,
    fastest; ``normalized`` is False where the table holds unnormalized
    Jacobi polynomials (the pyramid).
    """

    families: tuple
    factors: tuple
    powers: tuple
    dvar: tuple
    amp: np.ndarray
    legendre: int = 0
    normalized: bool = True


def _tensor_product_form(p, dim):
    """Legendre in each coordinate, the last fastest."""
    families = tuple((c, (0.0,)) for c in range(dim))
    idx = np.array(list(itertools.product(range(p + 1), repeat=dim))).T
    factors = tuple((c, 0 * idx[c], idx[c]) for c in range(dim))
    dvar = tuple(
        tuple((1.0, {}) if k == c else None for k in range(dim))
        for c in range(dim)
    )
    return _Form(families, factors, (), dvar, np.ones(idx.shape[1]), dim)


def _triangle_form(p, prism=False):
    """Legendre in a, (2i + 1, 0) in b; on the prism times Legendre in z,
    z fastest."""
    families = ((0, (0.0,)), (1, tuple(2.0 * i + 1.0 for i in range(p + 1))))
    families += ((2, (0.0,)),) if prism else ()
    ij = [(i, j) for i in range(p + 1) for j in range(p + 1 - i)]
    ijk = [(i, j, k) for i, j in ij for k in range(p + 1 if prism else 1)]
    i, j, k = np.array(ijk).T
    factors = ((0, 0 * i, i), (1, i, j)) + (((2, 0 * k, k),) if prism else ())
    powers = ((1, -1.0, i), (0, 1.0, 0 * i))  # 1 - b, 1 + a
    z = (None,) if prism else ()
    dvar = (
        ((2.0, {0: -1}), (1.0, {1: 1, 0: -1})) + z,  # a
        (None, (1.0, {})) + z,  # b
    ) + (((None, None, (1.0, {})),) if prism else ())  # z
    amp = np.full(i.size, _SQRT2)
    return _Form(families, factors, powers, dvar, amp, int(prism))


def _tetrahedron_form(p):
    """Legendre in a, (2i + 1, 0) in b, (2(i + j) + 2, 0) in c."""
    families = (
        (0, (0.0,)),
        (1, tuple(2.0 * i + 1.0 for i in range(p + 1))),
        (2, tuple(2.0 * s + 2.0 for s in range(p + 1))),
    )
    i, j, k = np.array([
        (i, j, k)
        for i in range(p + 1)
        for j in range(p + 1 - i)
        for k in range(p + 1 - i - j)
    ]).T
    factors = ((0, 0 * i, i), (1, i, j), (2, i + j, k))
    # (1 - b) / 2, (1 - c) / 2, 1 + a, 1 + b
    powers = ((1, -0.5, i), (2, -0.5, i + j), (0, 1.0, 0 * i), (1, 1.0, 0 * i))
    da_dyz = (0.5, {2: 1, 0: -1, 1: -1})
    dvar = (
        ((1.0, {0: -1, 1: -1}), da_dyz, da_dyz),  # a
        (None, (1.0, {1: -1}), (0.5, {3: 1, 1: -1})),  # b
        (None, None, (1.0, {})),  # c
    )
    amp = 2.0 * _SQRT2 * 2.0 ** (2 * i + j)
    return _Form(families, factors, powers, dvar, amp)


def _pyramid_form(p):
    """Legendre in u and in v, (2c + 2, 0) in z for c = max(i, j), all
    unnormalized, over the norm of the mode."""
    families = (
        (0, (0.0,)),
        (1, (0.0,)),
        (2, tuple(2.0 * (c + 1.0) for c in range(p + 1))),
    )
    i, j, c, k = np.array([
        (i, j, max(i, j), k)
        for i in range(p + 1)
        for j in range(p + 1)
        for k in range(p + 1 - max(i, j))
    ]).T
    factors = ((0, 0 * i, i), (1, 0 * j, j), (2, c, k))
    powers = ((2, -0.5, c), (0, 1.0, 0 * i), (1, 1.0, 0 * i))  # w, u, v
    dvar = (
        ((1.0, {0: -1}), None, (0.5, {1: 1, 0: -1})),  # u
        (None, (1.0, {0: -1}), (0.5, {2: 1, 0: -1})),  # v
        (None, None, (1.0, {})),  # z
    )
    norms = np.sqrt(8.0 / ((2 * i + 1) * (2 * j + 1) * (2 * k + 2 * c + 3)))
    return _Form(families, factors, powers, dvar, 1.0 / norms, normalized=False)


_FORMS = {
    ElementKind.LINE: lambda p: _tensor_product_form(p, 1),
    ElementKind.QUADRILATERAL: lambda p: _tensor_product_form(p, 2),
    ElementKind.HEXAHEDRON: lambda p: _tensor_product_form(p, 3),
    ElementKind.TRIANGLE: _triangle_form,
    ElementKind.PRISM: lambda p: _triangle_form(p, prism=True),
    ElementKind.TETRAHEDRON: _tetrahedron_form,
    ElementKind.PYRAMID: _pyramid_form,
}


@lru_cache(maxsize=None)
def _form(kind, p):
    return _FORMS[kind](p)


# The degree of each mode from the degrees of its Jacobi factors, in form
# order: the lowest p whose space holds the mode.
_MODE_DEGREE = {
    ElementKind.LINE: lambda i: i,
    ElementKind.QUADRILATERAL: np.maximum,
    ElementKind.HEXAHEDRON: lambda i, j, k: np.maximum(np.maximum(i, j), k),
    ElementKind.TRIANGLE: lambda i, j: i + j,
    ElementKind.TETRAHEDRON: lambda i, j, k: i + j + k,
    ElementKind.PRISM: lambda i, j, k: np.maximum(i + j, k),
    ElementKind.PYRAMID: lambda i, j, k: np.maximum(i, j) + k,
}


@lru_cache(maxsize=None)
def degree_columns(kind, top, p):
    """The columns of the degree-``top`` basis of ``kind`` that are the
    degree-``p`` basis, ``p <= top``, in its mode order.

    The modes are hierarchical: each is one closed form whatever the
    degree of its space, with the same operands in the same order, so the
    degree-``top`` values at these columns are the degree-``p`` values bit
    for bit.
    """
    form = _form(kind, top)
    degrees = _MODE_DEGREE[kind](*(m for _, _, m in form.factors))
    cols = np.flatnonzero(degrees <= p)
    cols.setflags(write=False)
    return cols


def _chain(factors, out=None):
    """``((f0 * f1) * f2) * ...``, left to right: one new array, then in
    place, the last product into ``out`` when given."""
    f0, f1, *rest = factors
    if not rest:
        return np.multiply(f0, f1, out=out)
    acc = f0 * f1
    for f in rest[:-1]:
        acc *= f
    return np.multiply(acc, rest[-1], out=acc if out is None else out)


def _power_table(base, lo, hi):
    """base**e for e = lo..hi, lo >= -2, in row e + 2 (the rows below are
    not set): ``base**e`` for e >= 0, the rule of the closed forms, and
    powers of 1 / base below, 0 where ``|base| <= _COLLAPSE_EPS``."""
    out = np.empty((hi + 3, base.size))
    if lo < 0:
        ok = np.abs(base) > _COLLAPSE_EPS
        inv = np.where(ok, 1.0 / np.where(ok, base, 1.0), 0.0)
    for e in range(lo, hi + 1):
        out[e + 2] = base**e if e >= 0 else inv**-e
    return out


@lru_cache(maxsize=None)
def _plan(kind, p, order, orders):
    """The derivatives of ``orders`` (0 the values) of the degree-``p``
    modes of ``kind`` as sums of gathered products, from the kind's table
    with derivative rows of orders 1..``order``.

    Returns the gathers that these orders use, (source, rows) with rows
    (modes,) into the kind's table (source 0) or into the power table of
    base ``source - 1`` (row e + 2 holds exponent e); per base the
    (lowest, highest) exponent taken from its power table, None where no
    term takes one; and per order, per component ``()``, ``(k,)`` or
    ``(k, l)``, k <= l, its terms ``(coefficient column, gather ids)``,
    the ids in the order of the values: the leading Jacobi factors, the
    powers, then the trailing Legendre axes.
    """
    form = _form(kind, p)
    families, factors, powers, dvar, amp = form[:5]
    entry = _layout(p, families, order)[2]
    lead = len(factors) - form.legendre
    deltas = [
        [None if m is None else (m[0], np.array(
            [m[1].get(q, 0) for q in range(len(powers))], dtype=int))
         for m in by_dir]
        for by_dir in dvar
    ]

    def derive(terms, k):
        out = {}

        def add(orders, offs, coef):
            if np.any(coef):
                key = (orders, tuple(offs))
                out[key] = out[key] + coef if key in out else coef

        for (orders, offs), coef in terms.items():
            for f, (family, _, _) in enumerate(factors):
                mono = deltas[families[family][0]][k]
                if mono is not None:
                    o = list(orders)
                    o[f] += 1
                    add(tuple(o), np.add(offs, mono[1]), mono[0] * coef)
            for q, (var, slope, e0) in enumerate(powers):
                mono = deltas[var][k]
                if mono is not None:
                    new = np.add(offs, mono[1])
                    new[q] -= 1
                    add(orders, new, slope * mono[0] * (e0 + offs[q]) * coef)
        return out

    gathers, ids = [], {}
    spans = [None] * len(powers)

    def gather(source, rows):
        key = (source, rows.tobytes())
        if key not in ids:
            ids[key] = len(gathers)
            gathers.append((source, rows))
        return ids[key]

    def term(orders, offs, coef):
        g = [gather(0, entry(o, f, q, m)) for o, (f, q, m) in zip(orders, factors)]
        by_base = []
        for n, ((_, _, e0), off) in enumerate(zip(powers, offs)):
            e = e0 + off
            if np.any(e):
                lo, hi = spans[n] or (0, 0)
                spans[n] = (min(lo, int(e.min())), max(hi, int(e.max())))
                by_base.append(gather(n + 1, e + 2))
        return coef[:, None], tuple(g[:lead] + by_base + g[lead:])

    dim = len(dvar[0])
    level = {(): {((0,) * len(factors), (0,) * len(powers)): amp}}
    plans = []
    for o in range(max(orders) + 1):
        if o:
            level = {
                c + (l,): derive(terms, l)
                for c, terms in level.items()
                for l in range(c[-1] if c else 0, dim)
            }
        if o in orders:
            plans.append([
                (c, [term(*key, coef) for key, coef in terms.items()])
                for c, terms in level.items()
            ])
    return gathers, spans, plans


def _chain_rule(kind, p, order, orders, T, bases, outs):
    """The derivatives of ``orders`` (0 the values) of the modes into
    ``outs``, (points, modes) + (d,) * order each and symmetric in the
    derivative axes, from the kind's table ``T`` with derivative rows of
    orders 1..``order`` and the ``bases`` of its powers (see
    :func:`_plan`): one gather of the factors these orders use, from ``T``
    and from a power table of each base they use.  A component of one
    term, as the values are, is written straight into ``outs``."""
    gathers, spans, plans = _plan(kind, p, order, orders)
    tables = [T] + [s and _power_table(b, *s) for b, s in zip(bases, spans)]
    factors = [tables[s].take(rows, axis=0) for s, rows in gathers]
    for out, components in zip(outs, plans):
        for c, terms in components:
            first, *rest = ([coef] + [factors[g] for g in ids]
                            for coef, ids in terms)
            acc = _chain(first, out=None if rest else out.T[c])
            for operands in rest:
                acc += _chain(operands)
            if rest:
                out.T[c] = acc
            if c != c[::-1]:
                out.T[c[::-1]] = acc


# ---------------------------------------------------------------------------
# Public evaluation API
# ---------------------------------------------------------------------------

# Entries (points x modes) per block: no temporary of a call grows with its
# point count, and a block's temporaries stay in cache.
_BLOCK = 1 << 15


def _tables(space, pts, order):
    """Each block of ``pts`` with ``order`` and what the kind builds there,
    lazily: its table with derivative rows of orders 1..``order`` and the
    bases of its powers (:func:`_coordinates`)."""
    kind, p = space.kind, space.degree
    form = _form(kind, p)
    step = max(1, _BLOCK // space.dim)
    for start in range(0, pts.shape[0], step):
        block = slice(start, start + step)
        coords, bases = _coordinates(kind, pts[block])
        T = _factors(p, form.families, order, coords, form.normalized)
        yield block, order, T, bases


def _basis(space, shape, order, tables, out=None):
    """The basis at points of (n, d) ``shape`` from their ``tables``
    (:func:`_tables`, which may hold derivative rows of higher orders than
    those asked): at ``order`` 0 its values, (n, dim), written into
    ``out`` when given, which must have their shape; else the tuple of its
    derivatives of orders 1..``order``, (n, dim) + (d,) * order each."""
    orders = tuple(range(1, order + 1)) or (0,)
    n, d = shape
    outs = [out] if out is not None else [
        np.empty((n, space.dim) + (d,) * o) for o in orders
    ]
    for block, table_order, T, bases in tables:
        _chain_rule(space.kind, space.degree, table_order, orders, T, bases,
                    [o[block] for o in outs])
    return tuple(outs) if order else outs[0]


def basis_eval_many(space: FunctionSpace, pts):
    """Evaluate all basis functions at an (n, d) array of points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return _basis(space, pts.shape, 0, _tables(space, pts, 0))


def basis_grad_many(space: FunctionSpace, pts):
    """Gradients of all basis functions: (n_points, dim, d)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return _basis(space, pts.shape, 1, _tables(space, pts, 1))[0]


def basis_eval_with_grad(space: FunctionSpace, pts):
    """:func:`basis_eval_many` at an (n, d) array of points, and a callable
    ``derivatives()`` that returns there the gradients, :func:`basis_grad_many`
    bit for bit, and the second derivatives, (n, dim, d, d) and symmetric
    in the last two axes: both from one gather of the same tables (with
    first and second derivative rows), computed only when called and
    independent of later changes to the caller's array."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    shape, tables = pts.shape, list(_tables(space, pts, 2))
    return _basis(space, shape, 0, tables), lambda: _basis(space, shape, 2, tables)


_GETRF, _GETRS = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), dtype=float)


def lu_inverse(M):
    """``M^-1`` from ``dgetrf`` and ``dgetrs``: the bits of ``lu_solve(
    lu_factor(M), I)`` of ``scipy.linalg``, without their wrappers.  Raises
    :class:`DegenerateDistributionError` when ``M`` is not finite; an
    exactly singular ``M`` gives a non-finite inverse, without a warning.
    A 0x0 ``M`` never reaches LAPACK, which prints an error for it."""
    m = M.shape[0]
    if m == 0:
        return np.empty((0, 0))
    if not np.isfinite(M).all():
        raise DegenerateDistributionError("the matrix is not finite")
    lu, piv, _ = _GETRF(M)
    # Solved in place into a fresh identity: no copy of it, none kept.
    return _GETRS(lu, piv, np.eye(m, order="F"), overwrite_b=True)[0]


def mass_condition(s_max, s_min):
    """Condition of the mass matrix ``V^-T V^-1`` for the largest and
    smallest singular values of ``V``; raises :class:`UnisolvencyError`
    when its eigenvalue ratio is at or below ``MASS_RATIO``."""
    with np.errstate(all="ignore"):
        eig_min, eig_max = 1.0 / s_max ** 2, 1.0 / s_min ** 2
    if eig_min <= MASS_RATIO * max(eig_max, 1.0):
        raise UnisolvencyError(
            f"mass matrix is not positive definite (min eig {eig_min:.3e})"
        )
    return float(s_max / s_min) ** 2


class LagrangeInterpolator:
    """Lagrange evaluation for one (space, distribution) pair.

    ``V^-1`` is formed once and kept read-only; the cardinal functions at
    any batch of points are then one matrix product with the modal basis
    values there, ``basis_eval_many(space, pts) @ inverse()`` (from
    ``V^T l(x) = phi(x)``).  The metrics form that product on chunks in
    buffers of their own.

    Raises :class:`UnisolvencyError` when ``V`` (kept as ``matrix``) is not
    finite, its SVD fails, or :func:`mass_condition` refuses its extreme
    singular values (kept as ``singular``).
    A caller that holds the basis of a higher degree at the nodes passes
    ``V`` as ``matrix``, its :func:`degree_columns`; else it is
    ``basis_eval_many(space, dist.nodes)``.
    """

    def __init__(self, space, dist, matrix=None):
        if dist.count != space.dim:
            raise ValueError(
                f"distribution has {dist.count} nodes, space dimension is "
                f"{space.dim}"
            )
        self.space = space
        self.dist = dist
        if matrix is None:
            matrix = basis_eval_many(space, dist.nodes)
        self.matrix = V = matrix
        if not np.all(np.isfinite(V)):
            raise UnisolvencyError("non-finite basis values at nodes")
        try:
            s = np.linalg.svd(V, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise UnisolvencyError(f"no singular values of V: {exc}") from exc
        self.singular = s[0], s[-1]
        self.mass_condition = mass_condition(*self.singular)
        self._inverse = lu_inverse(V)
        self._inverse.setflags(write=False)

    def inverse(self):
        """``V^-1``: column ``i`` holds the modal coefficients of ``l_i``."""
        return self._inverse

    def eval_gradients(self, pts):
        """Cardinal function gradients: (n_points, n_nodes, d)."""
        g = basis_grad_many(self.space, pts)
        npts, nb, d = g.shape
        flat = g.transpose(0, 2, 1).reshape(npts * d, nb)
        return (flat @ self._inverse).reshape(npts, d, nb).transpose(0, 2, 1)
