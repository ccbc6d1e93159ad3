import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hookium import hooke
from hookium.polyops import Poly, _integer_form, _primitive, exact_sqrt, real_roots, sturm_count


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


def test_sturm_count_rejects_empty_interval():
    p = Poly([Fraction(6), Fraction(-5), Fraction(1)])
    for lo, hi in ((10, 0), (math.inf, -math.inf), (Fraction(5, 2), 2.0)):
        with pytest.raises(ValueError, match="empty interval"):
            sturm_count(p, lo, hi)
    assert sturm_count(p, 2, 2) == 0
    assert sturm_count(p, math.inf, math.inf) == 0


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


@pytest.mark.parametrize("p, want_calls", [
    # 6 (x - 1/2) (x - 2/3) (x + 3): deflation leaves a constant, which has no roots
    (Poly([Fraction(2), Fraction(-7), Fraction(6)]) * Poly([Fraction(3), Fraction(1)]), [4]),
    # (x^2 - 2)(x - 1): the quadratic left by the deflation goes to the companion matrix
    (Poly([Fraction(2), Fraction(-2), Fraction(-1), Fraction(1)]), [4, 3]),
], ids=["rational", "mixed"])
def test_real_roots_companion_solves(monkeypatch, p, want_calls):
    calls = []
    companion = np.roots

    def spy(coeffs):
        calls.append(len(coeffs))
        return companion(coeffs)
    monkeypatch.setattr(np, "roots", spy)
    rational, irrational = real_roots(p)
    assert len(rational) + len(irrational) == p.degree
    assert calls == want_calls


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



def test_real_roots_rational_root_beside_huge_coefficients():
    # (7x - 3)(x^2 - 10^15): 3/7 is found exactly even though |a_0| = 3 * 10^15
    p = Poly([Fraction(3 * 10**15), Fraction(-7 * 10**15), Fraction(-3), Fraction(7)])
    rational, irrational = real_roots(p)
    assert rational == [Fraction(3, 7)]
    assert len(irrational) == 2
    assert irrational[0] == pytest.approx(-math.sqrt(1e15), rel=1e-15)
    assert irrational[1] == pytest.approx(math.sqrt(1e15), rel=1e-15)


@pytest.mark.parametrize("m", [0, 5, 10])
def test_s_polynomials_monic_and_branch_count_certified(m):
    # reconstruction is complete on the s-polynomials because their primitive
    # integer form is monic (rational roots are integers); no branch is lost
    # to the |imag| or positivity filters of real_roots / solve_frequencies
    for n in range(2, 33):
        even, odd = hooke.quantization_polynomial(n, m).even_odd_parts()
        s_poly = odd if n % 2 else even
        P, _ = _integer_form(s_poly)
        assert abs(_primitive(P)[-1]) == 1, (n, m)
        assert len(hooke.solve_frequencies(n, m, 1)) == sturm_count(s_poly, 0, math.inf), (n, m)

# Reference for the integer kernels: the Sturm chain, candidate test and
# Newton polish written over Fraction coefficients, one Fraction operation at
# a time. Only the +-inf test differs from a literal transcription: it compares
# by value, because `x is -math.inf` is never true and Horner at a float -inf
# overflows once the chain's coefficients pass the float range.

def _ref_sturm_chain(p):
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        _, rem = divmod(chain[-2], chain[-1])
        if rem.is_zero():
            break
        fracs = [-c for c in rem.coeffs]
        den = math.lcm(*(f.denominator for f in fracs))
        nums = [int(f * den) for f in fracs]
        g = math.gcd(*nums)
        chain.append(Poly([Fraction(k, g) for k in nums]))
    return chain


def _ref_variations(chain, x):
    signs = []
    for q in chain:
        if x == math.inf:
            v = q.leading
        elif x == -math.inf:
            v = q.leading * (-1) ** q.degree
        else:
            v = q(Fraction(x))
        if v:
            signs.append(v > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_divisors(k):
    small = [i for i in range(1, math.isqrt(k) + 1) if k % i == 0]
    return sorted(set(small + [k // i for i in small]))


def _ref_real_roots(p, polish_steps=4):
    inexact = any(isinstance(c, float) for c in p.coeffs)
    p = p.as_fractions()
    rational = []
    while p.degree > 0 and not p.coeffs[0]:
        rational.append(Fraction(0))
        p = Poly(p.coeffs[1:])
    cands = []
    if not inexact and p.degree > 0:
        den = math.lcm(*(c.denominator for c in p.coeffs))
        a0, an = (abs(int(c * den)) for c in (p.coeffs[0], p.coeffs[-1]))
        if max(a0, an) <= 10**12:
            cands = [Fraction(s * k, d) for k in _ref_divisors(a0)
                     for d in _ref_divisors(an) for s in (1, -1)]
    while p.degree > 0:
        hit = next((c for c in cands if p(c) == 0), None)
        if hit is None:
            break
        rational.append(hit)
        p, _ = divmod(p, Poly((-hit, Fraction(1))))
    irrational = []
    if p.degree > 0:
        dp = p.derivative()
        for z in np.roots([float(c) for c in p.coeffs][::-1]):
            if abs(z.imag) >= 1e-10:
                continue
            x = float(z.real)
            for _ in range(polish_steps):
                fx, dfx = float(p(Fraction(x))), float(dp(Fraction(x)))
                if dfx == 0.0:
                    break
                step = fx / dfx
                x -= step
                if abs(step) <= 1e-17 * max(1.0, abs(x)):
                    break
            irrational.append(x)
    return sorted(rational), sorted(irrational)


def _r_poly(b):
    """The r-polynomial of a branch with integer Z and m, as build_wavefunction builds it."""
    exact = b.omega_exact is not None
    w = b.omega_exact if exact else b.omega_tilde
    Zc = Fraction(int(b.Z)) if exact else b.Z
    m_abs = abs(Fraction(b.m)) if exact else float(b.m_abs)
    return Poly(hooke.recurrence_coefficients(Zc, 2 * (b.n - 1), m_abs, b.n, w))


def _oracle_polys():
    """Quantization s-polynomials and r-polynomials (n <= 16), then seeded random
    ones: products with repeated rational roots, their float copies, sparse ones."""
    for n in range(2, 17):
        for m in (0, 3):
            q = hooke.quantization_polynomial(n, m)
            even, odd = q.even_odd_parts()
            yield odd if n % 2 else even
        for Z in (1, -1):
            for b in hooke.solve_frequencies(n, 0, Z):
                yield _r_poly(b)
    rng = random.Random(20261018)
    for trial in range(150):
        p = Poly([Fraction(rng.choice([-2, -1, 1, 3]))])
        for _ in range(rng.randint(1, 4)):
            r = Poly([Fraction(rng.randint(-6, 6), rng.randint(1, 4)), Fraction(-1)])
            p = p * r if rng.random() < 0.5 else p * r * r
        extra = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 6))]
        p = p * Poly(extra + [Fraction(rng.choice([-1, 1, 2]))])
        if trial % 3 == 1:
            # float coefficients: the same polynomial a few ulps off
            p = Poly([float(c) * (1.0 + rng.uniform(-1e-12, 1e-12)) for c in p.coeffs])
        yield p
    for trial in range(60):
        # sparse: remainders skip degrees, so |lc|'s odd powers meet either sign
        body = [Fraction(rng.choice([-3, -2, -1, 0, 0, 0, 1, 2, 3])) for _ in range(rng.randint(2, 7))]
        yield Poly(body + [Fraction(rng.choice([-2, -1, 1, 2]))])


def test_integer_kernels_match_fraction_reference():
    finite = [(Fraction(-1, 3), Fraction(5, 2)), (Fraction(-7, 2), Fraction(3, 4)),
              (Fraction(0), Fraction(1, 8))]
    ends = [(0, math.inf), (float("-inf"), float("inf")), (-math.inf, 0)] + finite
    seen = 0
    for p in _oracle_polys():
        if p.degree < 1:
            continue
        chain = _ref_sturm_chain(p.as_fractions())
        for lo, hi in ends:
            want = _ref_variations(chain, lo) - _ref_variations(chain, hi)
            assert sturm_count(p, lo, hi) == want, (p, lo, hi)
        rational, irrational = real_roots(p)
        ref_rational, ref_irrational = _ref_real_roots(p)
        assert rational == ref_rational, p
        assert [x.hex() for x in irrational] == [x.hex() for x in ref_irrational], p
        seen += 1
    assert seen > 350


# sturm_count against the Fraction reference chain, on the families the integer
# kernels meet: random products with roots at, inside and between the interval
# ends, huge coefficients, a double root, and the spectrum ladder.

def _ladder_r_polys():
    """The r-polynomial of every branch of the spectrum ladder (n <= 32, m walking 0..10), Z = +-1."""
    for n in list(range(2, 15)) + list(range(16, 33, 2)):
        for Z in (1, -1):
            m = (n + (8 if Z > 0 else 9)) % 11
            for b in hooke.solve_frequencies(n, m, Z):
                yield _r_poly(b)


def _random_polys(rng):
    """Products of rational linear factors (some repeated) and x^2 + c factors (c > 0:
    a complex pair), with their roots; every third one in float coefficients."""
    for trial in range(120):
        p, roots = Poly([Fraction(rng.choice([-3, -1, 1, 2]))]), []
        for _ in range(rng.randint(1, 5)):
            r = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
            roots.append(r)
            factor = Poly([-r, Fraction(1)])
            p = p * factor if rng.random() < 0.6 else p * factor * factor
        if rng.random() < 0.4:
            p = p * Poly([Fraction(rng.randint(1, 9), rng.randint(1, 4)), Fraction(0), Fraction(1)])
        if trial % 3 == 2:
            p = Poly([float(c) for c in p.coeffs])
        yield p, roots


def test_sturm_count_matches_fraction_reference(monkeypatch):
    rng = random.Random(20261018)
    ends = [(0, math.inf), (-math.inf, math.inf), (-math.inf, 0), (float("-inf"), float("inf")),
            (Fraction(-1, 3), Fraction(5, 2)), (0.5, 2.25), (-1.5, Fraction(7, 4)),
            (Fraction(2, 3), Fraction(2, 3)), (1.0, 1.0), (math.inf, math.inf)]
    cases = [(p, [(0, math.inf)]) for p in _ladder_r_polys()]
    for p, roots in _random_polys(rng):
        # roots exactly at an end: (lo, hi] counts the root at hi and not the one at lo
        cases.append((p, ends + [(r, r + 1) for r in roots] + [(r - 1, r) for r in roots]
                      + [(r, r) for r in roots]))
    big = Poly([-1e-300, 0.0, 1e300])   # its integer form has entries past the float range
    cases.append((big, ends))
    cases.append((Poly([1e300, 0.0, -1e-300]), ends))
    cases.append((Poly([Fraction(6), Fraction(-5), Fraction(1)]) * Poly([Fraction(-2), Fraction(1)]),
                  ends))   # verify's (x-2)^2 (x-3)

    def no_companion_roots(*args):
        raise AssertionError("sturm_count reached np.roots")

    monkeypatch.setattr(np, "roots", no_companion_roots)
    for p, intervals in cases:
        chain = _ref_sturm_chain(p.as_fractions())
        for lo, hi in intervals:
            want = _ref_variations(chain, lo) - _ref_variations(chain, hi)
            assert sturm_count(p, lo, hi) == want, (p, lo, hi)
    assert sturm_count(big, 0, math.inf) == 1 and sturm_count(big, -math.inf, math.inf) == 2
