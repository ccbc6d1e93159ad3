import math
from fractions import Fraction

import pytest

from hookium.polyops import Poly, exact_sqrt, real_roots, sturm_count


def test_arithmetic_round_trip():
    p = Poly([Fraction(1), Fraction(-3), Fraction(2)])
    q = Poly([Fraction(0), Fraction(1)])
    prod = p * q
    quot, rem = divmod(prod, q)
    assert quot == p
    assert rem.is_zero()


def test_call_matches_horner():
    p = Poly([2.0, -1.0, 0.5])
    x = 1.75
    assert p(x) == pytest.approx(2.0 - 1.0 * x + 0.5 * x * x, rel=1e-15)


def test_symbol_and_constant():
    x = Poly.symbol()
    c = Poly.constant(Fraction(3))
    assert (x * x + c)(Fraction(2)) == Fraction(7)


def test_derivative():
    p = Poly([Fraction(5), Fraction(0), Fraction(3)])
    assert p.derivative() == Poly([Fraction(0), Fraction(6)])


def test_even_odd_parts():
    p = Poly([1, 2, 3, 4])
    even, odd = p.even_odd_parts()
    x = 1.3
    assert even(x * x) + x * odd(x * x) == pytest.approx(p(x), rel=1e-14)


def test_exact_sqrt():
    assert exact_sqrt(Fraction(4, 9)) == Fraction(2, 3)
    assert exact_sqrt(Fraction(2)) is None
    assert exact_sqrt(Fraction(0)) == 0


def test_sturm_count_open_closed_convention():
    # roots at 2 and 3; the count covers (lo, hi]
    p = Poly([Fraction(6), Fraction(-5), Fraction(1)])
    assert sturm_count(p, 0, 10) == 2
    assert sturm_count(p, 2, 3) == 1
    assert sturm_count(p, 0, 2) == 1
    assert sturm_count(p, 3, 10) == 0
    assert sturm_count(p, -math.inf, math.inf) == 2


def test_real_roots_rational():
    # 6 (x - 1/2) (x - 2/3) = 6x^2 - 7x + 2
    p = Poly([Fraction(2), Fraction(-7), Fraction(6)])
    rational, irrational = real_roots(p)
    assert rational == [Fraction(1, 2), Fraction(2, 3)]
    assert irrational == []


def test_real_roots_mixed():
    # (x^2 - 2)(x - 1): one rational root, two irrational
    p = Poly([Fraction(2), Fraction(-2), Fraction(-1), Fraction(1)])
    rational, irrational = real_roots(p)
    assert rational == [Fraction(1)]
    assert len(irrational) == 2
    assert irrational[0] == pytest.approx(-math.sqrt(2), abs=1e-12)
    assert irrational[1] == pytest.approx(math.sqrt(2), abs=1e-12)


def test_real_roots_float_coefficients_go_numeric():
    # float coefficients must not enter the rational-candidate hunt
    p = Poly([0.25, -1.25, 1.0])  # x^2 - 1.25 x + 0.25, roots 0.25 and 1
    rational, irrational = real_roots(p)
    assert rational == []
    roots = sorted(irrational)
    assert roots[0] == pytest.approx(0.25, abs=1e-10)
    assert roots[1] == pytest.approx(1.0, abs=1e-10)


def test_real_roots_huge_coefficients_do_not_hang():
    big = Fraction(10**15)
    p = Poly([-big, Fraction(0), Fraction(1)])  # x^2 = 10^15
    rational, irrational = real_roots(p)
    want = math.sqrt(1e15)
    assert any(abs(r - want) < 1e-3 for r in irrational) or any(
        abs(float(r) - want) < 1e-3 for r in rational)


def test_content_normalized_and_monic():
    p = Poly([Fraction(2), Fraction(4)])
    assert p.content_normalized() == Poly([Fraction(1), Fraction(2)])
