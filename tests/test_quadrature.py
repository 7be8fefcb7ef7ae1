import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import roots_legendre

from symnodes.basis import FunctionSpace, basis_eval_many
from symnodes.geometry import ElementKind, contains, reference_element
from symnodes.quadrature import gauss_legendre_1d, quadrature_rule

ALL_KINDS = list(ElementKind)

MEASURES = {
    ElementKind.LINE: Fraction(2),
    ElementKind.TRIANGLE: Fraction(2),
    ElementKind.QUADRILATERAL: Fraction(4),
    ElementKind.TETRAHEDRON: Fraction(4, 3),
    ElementKind.HEXAHEDRON: Fraction(8),
    ElementKind.PRISM: Fraction(4),
    ElementKind.PYRAMID: Fraction(8, 3),
}


# ---------------------------------------------------------------------------
# Exact monomial integrals over the bi-unit domains (independent oracle,
# evaluated in exact rational arithmetic).
# ---------------------------------------------------------------------------


def _line_int(i):
    return Fraction(2, i + 1) if i % 2 == 0 else Fraction(0)


def _simplex_moment(exps):
    # integral over the unit simplex of prod(u_i^m_i)
    num = 1
    for m in exps:
        num *= math.factorial(m)
    return Fraction(num, math.factorial(sum(exps) + len(exps)))


def _biunit_simplex_int(exps):
    """Integral of x^a y^b (z^c) over the bi-unit simplex via u = (x+1)/2."""
    d = len(exps)
    total = Fraction(0)
    ranges = [range(e + 1) for e in exps]
    for ms in itertools.product(*ranges):
        coef = Fraction(1)
        for e, m in zip(exps, ms):
            coef *= (
                math.comb(e, m) * Fraction(2) ** m * (-1) ** (e - m)
            )
        total += coef * _simplex_moment(ms)
    return total * Fraction(2) ** d


def _one_minus_z_power_int(M, c):
    # integral over [-1, 1] of (1 - z)^M z^c
    total = Fraction(0)
    for t in range(M + 1):
        k = c + t
        if k % 2 == 0:
            total += math.comb(M, t) * (-1) ** t * Fraction(2, k + 1)
    return total


def exact_monomial_integral(kind, exps):
    kind = ElementKind(kind)
    if kind is ElementKind.LINE:
        return _line_int(exps[0])
    if kind in (ElementKind.QUADRILATERAL, ElementKind.HEXAHEDRON):
        out = Fraction(1)
        for e in exps:
            out *= _line_int(e)
        return out
    if kind is ElementKind.TRIANGLE:
        return _biunit_simplex_int(exps)
    if kind is ElementKind.TETRAHEDRON:
        return _biunit_simplex_int(exps)
    if kind is ElementKind.PRISM:
        return _biunit_simplex_int(exps[:2]) * _line_int(exps[2])
    if kind is ElementKind.PYRAMID:
        a, b, c = exps
        if a % 2 or b % 2:
            return Fraction(0)
        scale = Fraction(4, (a + 1) * (b + 1)) * Fraction(1, 2) ** (a + b + 2)
        return scale * _one_minus_z_power_int(a + b + 2, c)
    raise ValueError(kind)


def monomial_set(kind, q):
    kind = ElementKind(kind)
    if kind is ElementKind.LINE:
        return [(i,) for i in range(q + 1)]
    if kind is ElementKind.QUADRILATERAL:
        return [(i, j) for i in range(q + 1) for j in range(q + 1)]
    if kind is ElementKind.HEXAHEDRON:
        return [
            (i, j, k)
            for i in range(q + 1)
            for j in range(q + 1)
            for k in range(q + 1)
        ]
    if kind is ElementKind.TRIANGLE:
        return [(i, j) for i in range(q + 1) for j in range(q + 1 - i)]
    if kind is ElementKind.TETRAHEDRON:
        return [
            (i, j, k)
            for i in range(q + 1)
            for j in range(q + 1 - i)
            for k in range(q + 1 - i - j)
        ]
    if kind is ElementKind.PRISM:
        return [
            (i, j, k)
            for i in range(q + 1)
            for j in range(q + 1 - i)
            for k in range(q + 1)
        ]
    if kind is ElementKind.PYRAMID:
        return [
            (i, j, k)
            for i in range(q + 1)
            for j in range(q + 1 - i)
            for k in range(q + 1 - i - j)
        ]
    raise ValueError(kind)


def quadrature_monomial_errors(kind, q):
    """Max scaled error of the degree-q rule over the degree-q monomials."""
    rule = quadrature_rule(kind, q)
    pts, w = rule.points, rule.weights
    d = pts.shape[1]
    powers = [
        np.vander(pts[:, dd], q + 1, increasing=True) for dd in range(d)
    ]
    worst = 0.0
    for exps in monomial_set(kind, q):
        vals = powers[0][:, exps[0]]
        for dd in range(1, d):
            vals = vals * powers[dd][:, exps[dd]]
        approx = float(w @ vals)
        exact = float(exact_monomial_integral(kind, exps))
        worst = max(worst, abs(approx - exact) / max(abs(exact), 1.0))
    return worst


def test_gauss_legendre_examples():
    x, w = gauss_legendre_1d(1)
    np.testing.assert_allclose(x, [0.0])
    np.testing.assert_allclose(w, [2.0])
    x, w = gauss_legendre_1d(2)
    np.testing.assert_allclose(np.abs(x), 1 / np.sqrt(3), atol=1e-15)
    np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-15)
    x, w = gauss_legendre_1d(3)
    assert float(w @ x**4) == pytest.approx(0.4, abs=1e-15)


@pytest.mark.parametrize("n", [10, 20, 30, 39])
def test_gauss_legendre_weights_match_40_digit_reference(n):
    # Points are scipy's unchanged; weights agree with the 40-digit weights
    # at the exact roots to a few ulps of the largest weight.
    x, w = gauss_legendre_1d(n)
    assert np.array_equal(x, roots_legendre(n)[0])
    with mpmath.workdps(40):
        ref = []
        for x0 in x:
            r = mpmath.findroot(lambda t: mpmath.legendre(n, t), x0)
            dp = n * (r * mpmath.legendre(n, r) - mpmath.legendre(n - 1, r))
            dp /= r * r - 1
            ref.append(2 / ((1 - r * r) * dp * dp))
        err = max(abs(mpmath.mpf(float(wi)) - ri) for wi, ri in zip(w, ref))
        assert float(err / max(ref)) <= 5e-15


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


@pytest.mark.parametrize("m", range(1, 41))
def test_roots_equal_scipy_special(m):
    # The points (and the Jacobi weights) are computed without
    # scipy.special, with its operations in its order: the same bits.
    from scipy.special import roots_jacobi

    from symnodes.baselines import gll_1d
    from symnodes.quadrature import _gauss_jacobi

    assert _same_bits(gauss_legendre_1d(m)[0], roots_legendre(m)[0])
    assert _same_bits(gll_1d(m + 1)[1:-1], roots_jacobi(m, 1.0, 1.0)[0])
    for a in (1, 2):
        x, w = _gauss_jacobi(m, a, 0)
        want_x, want_w = roots_jacobi(m, float(a), 0.0)
        assert _same_bits(x, want_x)
        assert _same_bits(w, want_w)


def test_gauss_legendre_high_order_exactness():
    for n in (10, 25, 40):
        x, w = gauss_legendre_1d(n)
        for k in range(0, 2 * n, 7):
            exact = float(_line_int(k))
            assert float(w @ x**k) == pytest.approx(exact, abs=1e-13)


def test_rule_examples():
    rule = quadrature_rule(ElementKind.LINE, 3)
    assert rule.count == 2
    tri = quadrature_rule(ElementKind.TRIANGLE, 0)
    assert np.sum(tri.weights) == pytest.approx(2.0)
    pyr = quadrature_rule(ElementKind.PYRAMID, 0)
    assert np.sum(pyr.weights) == pytest.approx(8.0 / 3.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_weights_positive_points_inside(kind):
    elem = reference_element(kind)
    for q in (2, 7, 12):
        rule = quadrature_rule(kind, q)
        assert np.all(rule.weights > 0)
        assert np.all(contains(elem, rule.points, 1e-10))
        assert np.sum(rule.weights) == pytest.approx(
            float(MEASURES[kind]), rel=1e-13
        )


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("p", [1, 3, 5, 9])
def test_exactness_degree_2p(kind, p):
    assert quadrature_monomial_errors(kind, 2 * p) <= 1e-12


def test_pyramid_rational_products_integrate_exactly():
    # Pairwise products of the rational basis functions must be handled by
    # the padded collapsed-direction rule: the Gram matrix it produces is
    # the (diagonal) exact one.
    for p in (2, 4, 6):
        sp = FunctionSpace(ElementKind.PYRAMID, p)
        rule = quadrature_rule(ElementKind.PYRAMID, 2 * p)
        phi = basis_eval_many(sp, rule.points)
        M = phi.T @ (rule.weights[:, None] * phi)
        np.testing.assert_allclose(M, np.eye(sp.dim), atol=1e-10)


def test_rule_cache_returns_same_object():
    a = quadrature_rule(ElementKind.TRIANGLE, 4)
    b = quadrature_rule(ElementKind.TRIANGLE, 4)
    assert a is b
