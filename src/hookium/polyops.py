"""Dense univariate polynomials over exact rationals (or floats), plus root tools.

The solver pipeline runs its recurrences over Fraction coefficients so that
quantization polynomials come out exact; the same class doubles as the value
type for series coefficients when a coupling is carried as a formal symbol.
The root tools work on one private integer form, p = P / D with P a list of
ints, so Sturm chains, rational-root tests and Newton polish stay exact without
Fraction arithmetic. Every root count comes from the primitive Sturm chain of P.
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


def _integer_form(p: Poly):
    """(P, D) with p = P / D: P a list of ints, D > 0 the least common denominator.

    Float coefficients enter as their binary rationals.
    """
    fracs = [Fraction(c) for c in p.coeffs]
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _scaled_value(P, num: int, den: int) -> int:
    """den**deg(P) * P(num / den), exactly: the homogeneous Horner sum.

    A power-of-two den (every float, and midpoints of floats) scales by shifts.
    """
    acc = P[-1]
    if den & (den - 1):
        den_pow = den
        for c in reversed(P[:-1]):
            acc = acc * num + c * den_pow
            den_pow *= den
        return acc
    shift = den.bit_length() - 1
    for k, c in enumerate(reversed(P[:-1]), 1):
        acc = acc * num + (c << k * shift)
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
    given as rationals. The count ignores multiplicity; lo > hi raises
    ValueError. It is the drop in sign variations of p's primitive Sturm chain
    from lo to hi.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    lo_x = lo if lo in (math.inf, -math.inf) else Fraction(lo)
    hi_x = hi if hi in (math.inf, -math.inf) else Fraction(hi)
    if lo_x > hi_x:
        raise ValueError(f"empty interval: lo = {lo} > hi = {hi}")
    P, _ = _integer_form(p)
    if len(P) == 1:
        return 0
    chain = _sturm_chain(P)
    return _variations(chain, lo_x) - _variations(chain, hi_x)


_POLISH_STEPS = 4   # exact Newton steps per float root


def real_roots(p: Poly):
    """All real roots of p with multiplicity: (rational list, float list).

    Rational roots come by reconstruction and are deflated exactly. With L the
    |leading coefficient| of p's primitive integer form, every rational root
    is k / L for an integer k; each companion-matrix root z, complex ones
    included (a repeated root may split into a near-real pair), proposes
    k = round(Re z * L), kept if p(k / L) = 0 exactly. The search is complete
    when some companion root lies within 1 / (2L) of each rational root. That
    holds for the s-polynomials of `hooke.solve_frequencies`, whose primitive
    form is monic (L = 1). Float coefficients skip the search: their binary
    rationals mean nothing.

    What remains goes to the companion matrix again (only if something was
    deflated and a non-constant factor is left); roots with |imag| < 1e-10 are
    kept and polished by Newton steps against the exact coefficients.
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
    roots = np.roots([float(c) for c in reversed(p.coeffs)])
    if not inexact:
        L = abs(_primitive(P)[-1])
        degree = p.degree
        for k in dict.fromkeys(round(Fraction(z.real) * L) for z in roots):
            while p.degree > 0 and not _scaled_value(P, k, L):
                root = Fraction(k, L)
                rational.append(root)
                p, rem = divmod(p, Poly((-root, Fraction(1))))
                assert rem.is_zero()
                P, D = _integer_form(p)
        if p.degree < degree:
            roots = np.roots([float(c) for c in reversed(p.coeffs)]) if p.degree else np.empty(0)
    irrational: list[float] = []
    dP = _derivative(P)
    for z in roots:
        if abs(z.imag) >= 1e-10:
            continue
        x = float(z.real)
        for _ in range(_POLISH_STEPS):
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
