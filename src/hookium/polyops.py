"""Dense univariate polynomials over exact rationals (or floats), plus root tools.

The solver pipeline runs its recurrences over Fraction coefficients so that
quantization polynomials come out exact; the same class doubles as the value
type for series coefficients when a coupling is carried as a formal symbol.
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

    def content_normalized(self) -> "Poly":
        """Divide by the gcd of numerators over lcm of denominators (sign kept)."""
        fracs = [Fraction(c) for c in self.coeffs]
        if not fracs:
            return self
        den = math.lcm(*(f.denominator for f in fracs))
        nums = [int(f * den) for f in fracs]
        g = math.gcd(*(abs(n) for n in nums))
        return Poly([Fraction(n, g) for n in nums]) if g else self

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


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


def _sturm_chain(p: Poly):
    p = p.as_fractions()
    d = p.derivative()
    chain = [p, d]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        _, rem = divmod(chain[-2], chain[-1])
        if rem.is_zero():
            break
        # keep coefficients small; scaling by a positive rational is harmless
        chain.append((-rem).content_normalized())
    return [q for q in chain if not q.is_zero()]


def _variations(chain, x) -> int:
    signs = []
    for q in chain:
        if x is math.inf:
            s = _sign(q.leading)
        elif x is -math.inf:
            s = _sign(q.leading) * (-1 if q.degree % 2 else 1)
        else:
            s = _sign(q(x))
        if s:
            signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(p: Poly, lo, hi) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    Endpoints may be +-math.inf; finite endpoints are evaluated exactly when
    given as rationals. The count ignores multiplicity.
    """
    p = p.as_fractions()
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return 0
    chain = _sturm_chain(p)
    lo_x = lo if lo in (math.inf, -math.inf) else Fraction(lo)
    hi_x = hi if hi in (math.inf, -math.inf) else Fraction(hi)
    return _variations(chain, lo_x) - _variations(chain, hi_x)


def _rational_root_candidates(p: Poly):
    den = math.lcm(*(Fraction(c).denominator for c in p.coeffs))
    ints = [int(Fraction(c) * den) for c in p.coeffs]
    while ints and ints[0] == 0:
        ints = ints[1:]
    if not ints:
        return
    a0, an = abs(ints[0]), abs(ints[-1])
    if a0 > 10**12 or an > 10**12:
        # divisor enumeration is hopeless; callers fall back to numerics
        return

    def divisors(n):
        out = []
        i = 1
        while i * i <= n:
            if n % i == 0:
                out.append(i)
                out.append(n // i)
            i += 1
        return sorted(set(out))

    for num in divisors(a0):
        for d in divisors(an):
            yield Fraction(num, d)
            yield Fraction(-num, d)


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
    if inexact:
        # float input: binary-expansion "rationals" are meaningless, go numeric
        cands = []
    else:
        cands = None
    while p.degree > 0:
        if cands is None:
            cands = [c for c in _rational_root_candidates(p)]
        hit = None
        for c in cands:
            if p(c) == 0:
                hit = c
                break
        if hit is None:
            break
        rational.append(hit)
        p, rem = divmod(p, Poly((-hit, Fraction(1))))
        assert rem.is_zero()
    irrational: list[float] = []
    if p.degree > 0:
        coeffs = [float(c) for c in p.coeffs]
        roots = np.roots(coeffs[::-1])
        dp = p.derivative()
        for z in roots:
            if abs(z.imag) >= 1e-10:
                continue
            x = float(z.real)
            for _ in range(polish_steps):
                fx = float(p(Fraction(x)))
                dfx = float(dp(Fraction(x)))
                if dfx == 0.0:
                    break
                step = fx / dfx
                x -= step
                if abs(step) <= 1e-17 * max(1.0, abs(x)):
                    break
            irrational.append(x)
    return sorted(rational), sorted(irrational)
