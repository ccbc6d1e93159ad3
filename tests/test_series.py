from fractions import Fraction

import numpy as np
import pytest

from hookium.polyops import Poly
from hookium.series import (EulerPolynomial, MonomialOperator, PowerSeries,
                            ResonanceError, indicial_roots, invert_euler, series_solve)


def euler_apply_direct(series, grid):
    """(D y)(x) = x y'(x) on a float grid, for cross-checking to_monomial."""
    return grid * series.evaluate(grid, deriv=1)


def test_power_series_basics():
    s = PowerSeries(1, [Fraction(2), Fraction(0), Fraction(-1)])
    assert s.coefficient(1) == 2
    assert s.coefficient(3) == -1
    assert s.coefficient(7) == 0
    assert s.max_exponent == 3
    assert s.truncated(2).max_exponent == 1


def test_power_series_addition_alignment():
    a = PowerSeries(0, [Fraction(1)])
    b = PowerSeries(2, [Fraction(5)])
    c = a + b
    assert c.coefficient(0) == 1 and c.coefficient(2) == 5
    assert (c + (-c)).is_zero() or all(c.coefficient(e) - c.coefficient(e) == 0
                                       for e in c.exponents())


def test_euler_polynomial_matches_operator():
    # F(D) x^s = F(s) x^s, so the Stirling expansion must reproduce x y'
    F = EulerPolynomial.from_roots([0, Fraction(-3)])
    y = PowerSeries(2, [Fraction(1), Fraction(-2), Fraction(4)])
    out = F.to_monomial().apply(y)
    for e in y.exponents():
        assert out.coefficient(e) == F(e) * y.coefficient(e)


def test_indicial_roots_sorted_descending():
    F = EulerPolynomial.from_roots([Fraction(-5), 0, Fraction(2)])
    roots = indicial_roots(F).all_sorted_desc()
    assert [float(r) for r in roots] == [2.0, 0.0, -5.0]


def test_invert_euler_two_sided():
    F = EulerPolynomial.from_roots([0, Fraction(-4)])
    y = PowerSeries(1, [Fraction(3), Fraction(5), Fraction(-1)])
    z = invert_euler(F, y)
    assert F.to_monomial().apply(z).truncated(y.max_exponent) == y


def test_invert_euler_resonance():
    F = EulerPolynomial.from_roots([0, Fraction(-2)])
    with pytest.raises(ResonanceError):
        invert_euler(F, PowerSeries(0, [Fraction(1)]))


def test_monomial_operator_net_shift():
    P = MonomialOperator([(Fraction(1), 2, 0), (Fraction(-2), 3, 1)])
    assert P.net_degree_shift == 2


def test_operator_requires_positive_shift():
    F = EulerPolynomial.from_roots([0])
    P = MonomialOperator([(Fraction(1), 0, 0)])
    with pytest.raises(ValueError):
        series_solve(F, P, 0, 8)


def test_series_solve_annihilates_order_by_order():
    F = EulerPolynomial.from_roots([0, Fraction(-2)])
    P = MonomialOperator([(Fraction(3), 2, 0), (Fraction(-1), 3, 1)])
    N = 14
    y = series_solve(F, P, 0, N)
    tail = F.to_monomial().apply(y) + P.apply(y)
    for e in tail.exponents():
        if e <= N:
            assert tail.coefficient(e) == 0


def test_series_solve_extension_is_consistent():
    # recomputing at larger N must not change earlier coefficients
    F = EulerPolynomial.from_roots([0, Fraction(-2)])
    P = MonomialOperator([(Fraction(3), 2, 0), (Fraction(-1), 3, 1)])
    short = series_solve(F, P, 0, 8)
    long = series_solve(F, P, 0, 18)
    for e in short.exponents():
        assert short.coefficient(e) == long.coefficient(e)


def test_series_solve_rejects_non_root():
    F = EulerPolynomial.from_roots([0, Fraction(-2)])
    P = MonomialOperator([(Fraction(1), 2, 0)])
    with pytest.raises(ValueError):
        series_solve(F, P, 1, 8)


def test_series_solve_second_root_leading_exponent():
    F = EulerPolynomial.from_roots([0, Fraction(-2)])
    P = MonomialOperator([(Fraction(1), 3, 0)])
    y = series_solve(F, P, -2, 9)
    assert y.coefficient(-2) == 1
    assert min(y.exponents()) == -2


def test_evaluate_derivative():
    s = PowerSeries(0, [Fraction(1), Fraction(0), Fraction(3)])  # 1 + 3 x^2
    x = np.array([0.5, 2.0])
    np.testing.assert_allclose(s.evaluate(x, deriv=1), 6.0 * x, rtol=1e-15)


def test_float_euler_polynomial_path():
    # irrational indicial structure falls back to float polynomial coefficients
    F = EulerPolynomial(Poly((0.0, 2.5, 1.0)))
    y = PowerSeries(2, [1.0])
    out = F.to_monomial().apply(y)
    assert out.coefficient(2) == pytest.approx(2 * (2 + 2.5), rel=1e-15)
