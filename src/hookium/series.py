"""Frobenius-style series solver built on inverting a scale-operator polynomial.

The central object is an equation [F(D) + P] y = 0 where D = x d/dx, F is a
polynomial in D, and P is a finite sum of monomial terms c * x**k * (d/dx)**j
that each raise the net power of x. Because F(D) x**s = F(s) x**s, F inverts
termwise on powers, and the solution with indicial exponent lam is

    y = x**lam - F^{-1} P x**lam + (F^{-1} P)^2 x**lam - ...

The iteration is exact over Fraction coefficients (symbolic couplings ride
along as Poly values) and degrades gracefully to float coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polyops import Poly, real_roots

__all__ = [
    "EulerPolynomial",
    "IndicialRoots",
    "MonomialOperator",
    "PowerSeries",
    "ResonanceError",
    "indicial_roots",
    "invert_euler",
    "series_solve",
]


class ResonanceError(ArithmeticError):
    """Inversion hit a root of F(D) with a nonzero source coefficient.

    The complementary solution there carries a logarithmic sector that a pure
    power series cannot represent, so the inversion refuses rather than lie.
    """


def _falling(s, j: int):
    out = 1
    for i in range(j):
        out = out * (s - i)
    return out


class PowerSeries:
    """Truncated generalized power series sum(c[i] * x**(base + i)).

    base is the leading exponent; offsets are integers. The leading stored
    coefficient is nonzero unless the series is identically zero. Coefficient
    values may be Fraction, Poly in a formal symbol, or any real scalar type.
    """

    __slots__ = ("base", "coeffs")

    def __init__(self, base, coeffs=()):
        coeffs = list(coeffs)
        lead = 0
        while lead < len(coeffs) and not coeffs[lead]:
            lead += 1
        tail = len(coeffs)
        while tail > lead and not coeffs[tail - 1]:
            tail -= 1
        coeffs = coeffs[lead:tail]
        if not coeffs:
            self.base = _as_exponent(0)
            self.coeffs = ()
        else:
            self.base = _as_exponent(base) + lead
            self.coeffs = tuple(coeffs)

    @classmethod
    def monomial(cls, exponent, coefficient=Fraction(1)) -> "PowerSeries":
        return cls(exponent, (coefficient,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def exponents(self):
        return [self.base + i for i in range(len(self.coeffs))]

    def coefficient(self, exponent):
        """Coefficient of x**exponent (0 if absent)."""
        off = exponent - self.base
        i = int(off)
        if i != off or not 0 <= i < len(self.coeffs):
            return 0
        return self.coeffs[i]

    @property
    def max_exponent(self):
        if not self.coeffs:
            raise ValueError("zero series has no exponents")
        return self.base + len(self.coeffs) - 1

    def truncated(self, max_exponent) -> "PowerSeries":
        """Drop all terms with exponent > max_exponent."""
        if self.is_zero():
            return self
        keep = int(math.floor(max_exponent - self.base)) + 1
        if keep >= len(self.coeffs):
            return self
        return PowerSeries(self.base, self.coeffs[:max(keep, 0)])

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        shift = other.base - self.base
        k = int(shift)
        if k != shift:
            raise ValueError("cannot add series with incommensurate bases")
        if k < 0:
            return other + self
        n = max(len(self.coeffs), k + len(other.coeffs))
        out = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[k + i] = out[k + i] + c
        return PowerSeries(self.base, out)

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(self.base, [-c for c in self.coeffs])

    def scaled(self, factor) -> "PowerSeries":
        return PowerSeries(self.base, [factor * c for c in self.coeffs])

    def evaluate(self, x, deriv: int = 0):
        """Termwise derivative of order deriv evaluated at x (scalar or array).

        Symbolic (Poly-valued) coefficients cannot be evaluated numerically.
        """
        if any(isinstance(c, Poly) for c in self.coeffs):
            raise TypeError("series has symbolic coefficients")
        xs = np.asarray(x, dtype=float)
        if self.is_zero():
            out = np.zeros_like(xs)
            return out if out.ndim else float(out)
        b = float(self.base)
        weights = [float(c) * float(_falling(self.base + i, deriv)) for i, c in enumerate(self.coeffs)]
        acc = np.zeros_like(xs)
        for wgt in reversed(weights):
            acc = acc * xs + wgt
        acc = acc * xs ** (b - deriv)
        return acc if acc.ndim else float(acc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.base == other.base and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.base, self.coeffs))

    def __repr__(self):
        return f"PowerSeries(base={self.base!r}, coeffs={list(self.coeffs)!r})"


def _as_exponent(value):
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float) and value.is_integer():
        return Fraction(int(value))
    return value


# Stirling numbers of the second kind, for rewriting D**k in x**j d**j form.
def _stirling2(k: int, j: int) -> int:
    if j in (0, k):
        return 1 if j == k else (1 if k == 0 else 0)
    if j > k or j == 0:
        return 0
    return j * _stirling2(k - 1, j) + _stirling2(k - 1, j - 1)


@dataclass(frozen=True)
class IndicialRoots:
    """Roots of F as an ordinary polynomial, rational ones listed exactly."""

    rational: tuple
    irrational: tuple

    def all_sorted_desc(self):
        vals = [(float(r), r) for r in self.rational] + [(r, r) for r in self.irrational]
        return [v for _, v in sorted(vals, key=lambda t: -t[0])]


class EulerPolynomial:
    """Polynomial F(D) in the scale operator D = x d/dx."""

    __slots__ = ("poly",)

    def __init__(self, coeffs):
        self.poly = coeffs if isinstance(coeffs, Poly) else Poly([Fraction(c) for c in coeffs])
        if self.poly.degree < 1:
            raise ValueError("F must be nonconstant")

    @classmethod
    def from_roots(cls, roots) -> "EulerPolynomial":
        """F(D) = product over (D - root)."""
        p = Poly.constant(Fraction(1))
        for r in roots:
            p = p * Poly((-Fraction(r), Fraction(1)))
        return cls(p)

    def __call__(self, s):
        return self.poly(s)

    def to_monomial(self) -> "MonomialOperator":
        """Expand F(D) into x**j d**j terms via Stirling numbers."""
        terms = []
        deg = self.poly.degree
        for j in range(deg + 1):
            c = sum(self.poly.coeffs[k] * _stirling2(k, j) for k in range(j, deg + 1))
            if c:
                terms.append((c, j, j))
        return MonomialOperator(terms)

    def __repr__(self):
        return f"EulerPolynomial({list(self.poly.coeffs)!r})"


def indicial_roots(F: EulerPolynomial) -> IndicialRoots:
    """Exponents lam with F(lam) = 0, sorted descending; rationals exact, with multiplicity."""
    rational, irrational = real_roots(F.poly)
    return IndicialRoots(tuple(sorted(rational, reverse=True)),
                         tuple(sorted(irrational, reverse=True)))


class MonomialOperator:
    """Sum of terms c * x**k * (d/dx)**j acting on generalized power series."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        cleaned = []
        for c, k, j in terms:
            if j < 0:
                raise ValueError("derivative order must be >= 0")
            if c:
                cleaned.append((c, int(k), int(j)))
        self.terms = tuple(cleaned)

    @property
    def net_degree_shift(self) -> int:
        """Minimum power shift k - j over all terms (inf for the zero operator)."""
        if not self.terms:
            return math.inf
        return min(k - j for _, k, j in self.terms)

    def __add__(self, other: "MonomialOperator") -> "MonomialOperator":
        return MonomialOperator(self.terms + other.terms)

    def scaled(self, factor) -> "MonomialOperator":
        return MonomialOperator([(factor * c, k, j) for c, k, j in self.terms])

    def apply(self, y: PowerSeries) -> PowerSeries:
        """Exact termwise action; monomial x**s maps to c*ff(s,j)*x**(s+k-j)."""
        if y.is_zero() or not self.terms:
            return PowerSeries(0, ())
        min_shift = self.net_degree_shift
        max_shift = max(k - j for _, k, j in self.terms)
        out = [0] * (len(y.coeffs) + (max_shift - min_shift))
        base = y.base + min_shift
        for c, k, j in self.terms:
            off = (k - j) - min_shift
            for i, a in enumerate(y.coeffs):
                if not a:
                    continue
                f = _falling(y.base + i, j)
                if not f:
                    continue
                out[i + off] = out[i + off] + c * f * a
        return PowerSeries(base, out)

    def __repr__(self):
        return f"MonomialOperator({list(self.terms)!r})"


def invert_euler(F: EulerPolynomial, y: PowerSeries) -> PowerSeries:
    """Solve F(D) z = y termwise: z coefficient at x**s is c_s / F(s)."""
    if y.is_zero():
        return y
    out = []
    for i, c in enumerate(y.coeffs):
        s = y.base + i
        fs = F(s)
        if not fs:
            if c:
                raise ResonanceError(f"F({s}) = 0 with nonzero coefficient {c!r}")
            out.append(c)
        else:
            out.append(c / fs)
    return PowerSeries(y.base, out)


def series_solve(F: EulerPolynomial, P: MonomialOperator, lam, N: int) -> PowerSeries:
    """Solution of [F(D) + P] y = 0 with leading term x**lam, exact through x**(lam+N).

    Requires F(lam) = 0 and that every term of P raise the power of x, so each
    sweep feeds strictly higher orders and N sweeps saturate the truncation.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    if P.terms and P.net_degree_shift < 1:
        raise ValueError("P must have net_degree_shift >= 1")
    lam = _as_exponent(lam)
    flam = F(lam)
    if isinstance(flam, (int, Fraction)):
        ok = flam == 0
    else:
        ok = abs(flam) < 1e-9
    if not ok:
        raise ValueError(f"lam = {lam} is not an indicial root: F(lam) = {flam}")
    top = lam + N
    total = PowerSeries.monomial(lam)
    z = total
    while not z.is_zero():
        z = P.apply(z).truncated(top)
        if z.is_zero():
            break
        z = -invert_euler(F, z)
        total = total + z
    return total
