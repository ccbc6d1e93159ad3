"""Dense univariate polynomials over exact rationals (or floats), plus root tools.

The solver pipeline runs its recurrences over Fraction coefficients so that
quantization polynomials come out exact; the same class doubles as the value
type for series coefficients when a coupling is carried as a formal symbol.
The root tools work on one private integer form, p = P / D with P a list of
ints, so Sturm chains, rational-root tests and Newton polish stay exact without
Fraction arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "Poly",
    "exact_sqrt",
    "real_roots",
    "sturm_count",
]


def _trim(coeffs):
    n = len(coeffs)
    while n > 0 and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


class Poly:
    """Polynomial sum(c[i] * X**i); immutable, coefficient type is caller's choice."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim(list(coeffs))

    @classmethod
    def constant(cls, value):
        return cls((value,))

    @classmethod
    def symbol(cls):
        """The monomial X with rational coefficients."""
        return cls((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, float)):
            return self == Poly.constant(other) if other else self.is_zero()
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = a[i] + c
        return Poly(a)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else Poly.constant(-other))

    def __rsub__(self, other):
        return Poly.constant(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Poly(out)
        return Poly([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return Poly([c / scalar for c in self.coeffs])

    def __divmod__(self, other):
        """Exact polynomial division; coefficients must support true division."""
        if not isinstance(other, Poly):
            raise TypeError("divmod needs a Poly divisor")
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quot = [0] * (dq + 1)
        lead = other.leading
        for k in range(dq, -1, -1):
            c = rem[k + other.degree]
            if c:
                q = c / lead
                quot[k] = q
                for i, b in enumerate(other.coeffs):
                    rem[k + i] = rem[k + i] - q * b
        return Poly(quot), Poly(rem)

    def __call__(self, x):
        """Horner evaluation; works for scalars, Fractions, arrays, Polys."""
        if not self.coeffs:
            return 0 * x if isinstance(x, np.ndarray) else 0
        acc = self.coeffs[-1]
        if isinstance(x, np.ndarray):
            acc = float(acc) * np.ones_like(x, dtype=float)
            for c in reversed(self.coeffs[:-1]):
                acc = acc * x + float(c)
            return acc
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def even_odd_parts(self):
        """Coefficients of X**2 in p = e(X**2) + X*o(X**2)."""
        return Poly(self.coeffs[0::2]), Poly(self.coeffs[1::2])

    def as_fractions(self) -> "Poly":
        """Exact conversion; float coefficients become their binary rationals."""
        return Poly([Fraction(c) for c in self.coeffs])

    def as_floats(self) -> "Poly":
        return Poly([float(c) for c in self.coeffs])

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


_SPLIT = 2.0**27 + 1.0   # Dekker's splitter for float64


def _compensated_horner(p: Poly, x: np.ndarray) -> np.ndarray:
    """p(x) on a float array, as accurate as Horner run in twice the working precision.

    Compensated Horner (Graillat, Langlois & Louvet, 2005) on a double-double
    split of the exact coefficients: the rounding error of every product
    (Dekker's TwoProduct, without FMA) and every sum (Knuth's TwoSum) runs
    through a second Horner recurrence, whose value corrects the float one.
    """
    hi = [float(c) for c in p.coeffs]
    lo = [0.0 if isinstance(c, float) else float(Fraction(c) - Fraction(h))
          for c, h in zip(p.coeffs, hi)]
    xc = _SPLIT * x
    xh = xc - (xc - x)
    xl = x - xh
    s = np.full_like(x, hi[-1])
    err = np.full_like(x, lo[-1])
    for a, a_lo in zip(hi[-2::-1], lo[-2::-1]):
        prod = s * x
        sc = _SPLIT * s
        sh = sc - (sc - s)
        sl = s - sh
        prod_err = sl * xl - (((prod - sh * xh) - sl * xh) - sh * xl)
        s = prod + a
        z = s - prod
        sum_err = (prod - (s - z)) + (a - z)
        err = err * x + (prod_err + sum_err + a_lo)
    return s + err


def exact_sqrt(q) -> Fraction | None:
    """Square root of a nonnegative rational if it is itself rational, else None."""
    q = Fraction(q)
    if q < 0:
        return None
    a = math.isqrt(q.numerator)
    b = math.isqrt(q.denominator)
    if a * a == q.numerator and b * b == q.denominator:
        return Fraction(a, b)
    return None


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _integer_form(p: Poly):
    """(P, D) with p = P / D: P a list of ints, D > 0 the least common denominator.

    Float coefficients enter as their binary rationals.
    """
    fracs = [Fraction(c) for c in p.coeffs]
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _scaled_value(P, num: int, den: int) -> int:
    """den**deg(P) * P(num / den), exactly: the homogeneous Horner sum."""
    acc = P[-1]
    den_pow = den
    for c in reversed(P[:-1]):
        acc = acc * num + c * den_pow
        den_pow *= den
    return acc


def _derivative(P):
    return [i * c for i, c in enumerate(P)][1:]


def _primitive(P):
    g = math.gcd(*P)
    return [c // g for c in P]


def _pseudo_remainder(a, b):
    """|lc(b)|**(deg a - deg b + 1) * a mod b over the integers.

    The multiplier is positive, so the remainder has the signs of the true one.
    """
    n = len(b) - 1
    scale = abs(b[-1])
    sgn = 1 if b[-1] > 0 else -1
    r = list(a)
    for k in range(len(a) - 1 - n, -1, -1):
        top = r[k + n] * sgn
        r = [c * scale for c in r[:k + n]]
        if top:
            for i in range(n):
                r[k + i] -= top * b[i]
    while r and not r[-1]:
        r.pop()
    return r


def _sturm_chain(P):
    """Primitive Sturm sequence of the integer polynomial P (degree >= 1).

    Each member is a positive multiple of the classical one (Collins' primitive
    remainder sequence), so the sign pattern at every point is the same.
    """
    chain = [_primitive(P), _primitive(_derivative(P))]
    while len(chain[-1]) > 1:
        rem = _pseudo_remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_primitive([-c for c in rem]))
    return chain


def _variations(chain, x) -> int:
    if x == math.inf:
        signs = [_sign(q[-1]) for q in chain]
    elif x == -math.inf:
        signs = [_sign(q[-1]) * (-1) ** (len(q) - 1) for q in chain]
    else:
        signs = [_sign(_scaled_value(q, x.numerator, x.denominator)) for q in chain]
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(p: Poly, lo, hi) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    Endpoints may be +-math.inf; finite endpoints are evaluated exactly when
    given as rationals. The count ignores multiplicity.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    P, _ = _integer_form(p)
    if len(P) == 1:
        return 0
    chain = _sturm_chain(P)
    lo_x = lo if lo in (math.inf, -math.inf) else Fraction(lo)
    hi_x = hi if hi in (math.inf, -math.inf) else Fraction(hi)
    return _variations(chain, lo_x) - _variations(chain, hi_x)


def _divisors(n: int):
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            out.append(n // i)
        i += 1
    return sorted(set(out))


def _rational_root_candidates(P):
    """Candidates (num, den) for the rational roots of P, which has P[0] != 0."""
    a0, an = abs(P[0]), abs(P[-1])
    if a0 > 10**12 or an > 10**12:
        # divisor enumeration is hopeless; callers fall back to numerics
        return []
    dens = _divisors(an)
    return [(s * num, d) for num in _divisors(a0) for d in dens for s in (1, -1)]


def real_roots(p: Poly, polish_steps: int = 4):
    """All real roots of p with multiplicity: (rational list, float list).

    Rational roots are found exactly and deflated; whatever remains goes to the
    companion matrix, keeping roots with |imag| < 1e-10 and polishing each by
    Newton steps against the exact coefficients.
    """
    inexact = any(isinstance(c, float) for c in p.coeffs)
    p = p.as_fractions()
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    rational: list[Fraction] = []
    # deflate trailing zero coefficients: roots at 0
    while p.degree > 0 and not p.coeffs[0]:
        rational.append(Fraction(0))
        p = Poly(p.coeffs[1:])
    P, D = _integer_form(p)
    # float input: binary-expansion "rationals" are meaningless, go numeric
    cands = [] if inexact or p.degree < 1 else _rational_root_candidates(P)
    while p.degree > 0:
        hit = next((c for c in cands if not _scaled_value(P, *c)), None)
        if hit is None:
            break
        root = Fraction(*hit)
        rational.append(root)
        p, rem = divmod(p, Poly((-root, Fraction(1))))
        assert rem.is_zero()
        P, D = _integer_form(p)
    irrational: list[float] = []
    if p.degree > 0:
        coeffs = [float(c) for c in p.coeffs]
        roots = np.roots(coeffs[::-1])
        dP = _derivative(P)
        for z in roots:
            if abs(z.imag) >= 1e-10:
                continue
            x = float(z.real)
            for _ in range(polish_steps):
                # int / int rounds correctly, as float(Fraction) does
                num, den = x.as_integer_ratio()
                fx = _scaled_value(P, num, den) / (den ** (len(P) - 1) * D)
                dfx = _scaled_value(dP, num, den) / (den ** (len(dP) - 1) * D)
                if dfx == 0.0:
                    break
                step = fx / dfx
                x -= step
                if abs(step) <= 1e-17 * max(1.0, abs(x)):
                    break
            irrational.append(x)
    return sorted(rational), sorted(irrational)
