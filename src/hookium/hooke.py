"""Closed-form bound states of two Coulomb-coupled particles in a planar trap.

Separating center-of-mass and relative motion leaves a radial problem

    -u''/2 + [(m^2 - 1/4)/(2 r^2) + w^2 r^2 / 2 + Z/(2 r)] u = eps_rel u

whose polynomial-times-Gaussian solutions exist only when the effective
frequency w and coupling Z satisfy a quantization condition. Everything here
is organized around that condition: given (n, m, Z) the admissible w follow
from the roots of an exact polynomial in kappa = Z / sqrt(w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .integrate import QuadratureNonConvergence, gauss_legendre
from .polyops import Poly, _compensated_horner, _integer_form, _scaled_value, real_roots, sturm_count
from .series import EulerPolynomial, MonomialOperator

__all__ = [
    "CenterOfMassState",
    "EnergyRecord",
    "HookeParams",
    "InconsistentParams",
    "NoBranchError",
    "QuantizationBranch",
    "RadialWavefunction",
    "build_wavefunction",
    "energies",
    "hooke_series_operator",
    "oscillator_branch",
    "quantization_polynomial",
    "recurrence_coefficients",
    "solve_frequencies",
    "verify_branch",
]


class NoBranchError(LookupError):
    """No admissible frequency exists for the requested (n, m, Z)."""


class InconsistentParams(ValueError):
    """Trap parameters disagree with the branch they are paired with."""


@dataclass(frozen=True)
class HookeParams:
    """Trap configuration: coupling Z, angular quantum number m, frequencies.

    omega0 is the confinement frequency and omegaL the Larmor frequency of a
    perpendicular field; the radial problem only sees their quadrature sum
    through omega_tilde = sqrt(omegaL**2 + omega0**2) / 2.
    """

    Z: float
    m: int
    omega0: float
    omegaL: float = 0.0

    @property
    def omega_tilde(self) -> float:
        return 0.5 * math.sqrt(self.omegaL**2 + self.omega0**2)

    @classmethod
    def for_branch(cls, branch: "QuantizationBranch", omegaL: float = 0.0) -> "HookeParams":
        """Trap that realizes the branch frequency at the given field."""
        disc = 4.0 * branch.omega_tilde**2 - omegaL**2
        if disc < 0:
            raise InconsistentParams("omegaL alone exceeds the branch frequency")
        return cls(Z=branch.Z, m=int(branch.m) if float(branch.m).is_integer() else branch.m,
                   omega0=math.sqrt(disc), omegaL=omegaL)


@dataclass(frozen=True)
class QuantizationBranch:
    """One admissible frequency for (n, m, Z), with exact values when they exist.

    n is the termination index: the radial polynomial has degree n - 1. kappa
    is Z / sqrt(omega_tilde) and always carries the sign of Z.
    """

    n: int
    m: float
    Z: float
    kappa: float
    omega_tilde: float
    kappa_sq_exact: Fraction | None = None
    omega_exact: Fraction | None = None

    @property
    def m_abs(self):
        return abs(self.m)

    @property
    def eps_prime(self):
        """Dimensionless level 2 (n + |m|): the radial eigenvalue in units of omega_tilde / 2."""
        return 2 * (self.n + self.m_abs)

    @property
    def eps_rel(self) -> float:
        return float(self.omega_tilde * (self.n + self.m_abs))

    @property
    def eps_rel_exact(self) -> Fraction | None:
        if self.omega_exact is None:
            return None
        m = Fraction(self.m).limit_denominator() if not isinstance(self.m, (int, Fraction)) else Fraction(self.m)
        return self.omega_exact * (self.n + abs(m))


def hooke_series_operator(m_abs, kappa, e_tilde):
    """Radial equation in scaled form, as (F, P) with [F(D) + P] t = 0.

    Written for the polynomial factor t of u = exp(-rho^2/2) rho^(|m|+1/2) t(rho)
    after multiplying through by rho^2: F(D) = D (D + 2|m|) and
    P = e_tilde * rho^2 - 2 rho^3 d/drho - kappa * rho.
    """
    two_m = 2 * Fraction(m_abs) if isinstance(m_abs, (int, Fraction)) else 2 * m_abs
    F = EulerPolynomial.from_roots([0, -two_m]) if isinstance(two_m, (int, Fraction)) \
        else EulerPolynomial(Poly((0.0, float(two_m), 1.0)))
    P = MonomialOperator([(e_tilde, 2, 0), (-2, 3, 1), (-kappa, 1, 0)])
    return F, P


def recurrence_coefficients(kappa, e_tilde, m_abs, count: int, omega=1):
    """First `count` series coefficients a_0..a_{count-1} of the radial polynomial factor.

    Three-term recurrence  j (j + 2|m|) a_j = kappa a_{j-1} + omega (2 (j-2) - e_tilde) a_{j-2}
    with a_0 = 1. This is the package's one recurrence: with omega = 1 it runs in
    the scaled variable rho (kappa = Z / sqrt(omega_tilde)); with omega = omega_tilde
    and kappa = Z it runs in r; under x^2 = r it gives the sextic sector series.
    Pass kappa=None to carry it as a formal symbol (exact Poly output).
    """
    symbolic = kappa is None
    kap = Poly.symbol() if symbolic else kappa
    one = Fraction(1) if symbolic or isinstance(kap, (int, Fraction, Poly)) else 1.0
    out = [one * 1]
    for j in range(1, count):
        term = kap * out[j - 1]
        if j >= 2:
            term = term + omega * (2 * (j - 2) - e_tilde) * out[j - 2]
        out.append(term / (j * (j + 2 * m_abs)))
    return out


def quantization_polynomial(n: int, m) -> Poly:
    """a_n as an exact polynomial in kappa at the level that terminates at degree n - 1.

    The termination level fixes e_tilde = 2 (n - 1). Its roots (with sign
    matching Z) are the admissible couplings; only powers kappa^n,
    kappa^(n-2), ... appear.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m_abs = abs(Fraction(m)) if isinstance(m, (int, Fraction)) else abs(m)
    return recurrence_coefficients(None, 2 * (n - 1), m_abs, n + 1)[n]


def _branch_from_s(n, m, Z, s_exact: Fraction | None, s_float: float) -> QuantizationBranch:
    omega_exact = None
    if s_exact is not None:
        s_float = float(s_exact)
        if _is_rational(Z):
            omega_exact = Fraction(Z) ** 2 / s_exact
    kappa = math.copysign(math.sqrt(s_float), Z)
    omega = Z * Z / s_float
    return QuantizationBranch(n=n, m=m, Z=float(Z), kappa=kappa, omega_tilde=omega,
                              kappa_sq_exact=s_exact, omega_exact=omega_exact)


def solve_frequencies(n: int, m, Z) -> list[QuantizationBranch]:
    """All admissible frequencies for a degree-(n-1) polynomial state, descending in omega.

    Frequencies follow from positive roots of the quantization polynomial in
    s = kappa^2; rational roots are kept exact so omega_tilde = Z^2 / s stays
    an exact Fraction where the closed forms are rational.
    """
    if n < 2:
        raise NoBranchError("n = 1 exists only at Z = 0; use oscillator_branch")
    if Z == 0:
        raise NoBranchError("Z = 0 has no quantized frequency; use oscillator_branch")
    q = quantization_polynomial(n, m)
    even, odd = q.even_odd_parts()
    # parity: a_n contains only kappa^n, kappa^(n-2), ...
    s_poly = odd if n % 2 else even
    if s_poly.is_zero() or s_poly.degree < 1:
        raise NoBranchError(f"no admissible coupling for n={n}, m={m}")
    rational, irrational = real_roots(s_poly)
    branches = []
    for s in rational:
        if s > 0:
            branches.append(_branch_from_s(n, m, Z, s, float(s)))
    for s in irrational:
        if s > 1e-12:
            branches.append(_branch_from_s(n, m, Z, None, s))
    if not branches:
        raise NoBranchError(f"no positive root of the quantization polynomial for n={n}, m={m}")
    branches.sort(key=lambda b: -b.omega_tilde)
    return branches


def oscillator_branch(m, omega_tilde) -> QuantizationBranch:
    """Coulomb-free nodeless state: n = 1, any frequency, Gaussian profile."""
    if omega_tilde <= 0:
        raise ValueError("omega_tilde must be positive")
    om = Fraction(omega_tilde) if isinstance(omega_tilde, (int, Fraction)) else None
    return QuantizationBranch(n=1, m=m, Z=0.0, kappa=0.0, omega_tilde=float(omega_tilde),
                              kappa_sq_exact=None, omega_exact=om)


@dataclass(frozen=True)
class CenterOfMassState:
    """Gaussian center-of-mass ground state, |xi(R)|^2 = (beta/pi) exp(-beta R^2).

    The width parameter is kept explicit: the trap convention fixes
    beta = omega_R = 2 omega0 (4 omega_tilde at zero field), but density
    comparisons fit beta rather than assume it.
    """

    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")

    @classmethod
    def from_trap(cls, params: HookeParams) -> "CenterOfMassState":
        return cls(beta=2.0 * params.omega0)

    def probability(self, R):
        R = np.asarray(R, dtype=float)
        out = (self.beta / math.pi) * np.exp(-self.beta * R * R)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class RadialWavefunction:
    """Normalized radial profile u(r) = norm * exp(-w r^2/2) r^(|m|+1/2) poly(r).

    poly keeps exact rational coefficients whenever the branch frequency is
    rational; evaluation is always in floats.
    """

    m_abs: float
    omega: float
    Z: float
    eps_rel: float
    poly: Poly
    norm: float
    branch: QuantizationBranch | None = None

    @property
    def nu(self) -> float:
        return float(self.m_abs) + 0.5

    def support_radius(self, log_tail: float = 80.0) -> float:
        """Radius beyond which exp(-w r^2) has dropped by e**-log_tail."""
        return math.sqrt(log_tail / self.omega)

    def u(self, r):
        r = np.asarray(r, dtype=float)
        out = self.norm * np.exp(-0.5 * self.omega * r * r) * r**self.nu * self.poly(r)
        return out if out.ndim else float(out)

    def u_squared(self, r):
        """u^2 written with r^(2|m|) * r, smooth at the origin."""
        r = np.asarray(r, dtype=float)
        out = (self.norm**2 * np.exp(-self.omega * r * r)
               * r ** (2 * float(self.m_abs) + 1) * self.poly(r) ** 2)
        return out if out.ndim else float(out)

    def density_radial(self, r):
        """u^2 / r = norm^2 exp(-w r^2) r^(2|m|) poly^2; finite everywhere."""
        r = np.asarray(r, dtype=float)
        out = self.norm**2 * np.exp(-self.omega * r * r) * r ** (2 * float(self.m_abs)) * self.poly(r) ** 2
        return out if out.ndim else float(out)

    def u_second(self, r):
        r = np.asarray(r, dtype=float)
        p = self.poly(r)
        dp = self.poly.derivative()(r)
        ddp = self.poly.derivative().derivative()(r)
        nu, w = self.nu, self.omega
        wv = r**nu * p
        wd = r ** (nu - 1) * (nu * p + r * dp)
        wdd = r ** (nu - 2) * (nu * (nu - 1) * p + 2 * nu * r * dp + r * r * ddp)
        out = self.norm * np.exp(-0.5 * w * r * r) * (wdd - 2 * w * r * wd + (w * w * r * r - w) * wv)
        return out if out.ndim else float(out)

    @property
    def nodes(self) -> int:
        """Positive real zeros of the polynomial factor."""
        if self.poly.degree < 1:
            return 0
        return sturm_count(self.poly.as_fractions(), 0, math.inf)


@lru_cache(maxsize=None)
def _pi(prec: int) -> Decimal:
    """pi to prec digits, by the series recipe of the `decimal` documentation."""
    with localcontext() as ctx:
        ctx.prec = prec + 2
        lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
        ctx.prec = prec
        return +s


def _moment_sums(a: int, omega, poly: Poly):
    """(E_int, O_int, L) with E = E_int / L and O = O_int / L exactly; see _norm_constant.

    Float coefficients and a float omega enter as their binary rationals.
    """
    P, D = _integer_form(poly)
    sq = [0] * (2 * len(P) - 1)
    for i, x in enumerate(P):
        for j, y in enumerate(P):
            sq[i + j] += x * y
    # even lags times (a)_j; odd lags times 2^j (a + 1/2)_j = (2a+1)(2a+3)...(2a+2j-1)
    even, odd, rise_e, rise_o = [], [], 1, 1
    for j, c in enumerate(sq[0::2]):
        even.append(c * rise_e)
        rise_e *= a + j
    for j, c in enumerate(sq[1::2]):
        odd.append(c * rise_o)
        rise_o *= 2 * a + 1 + 2 * j
    wn, wd = Fraction(omega).as_integer_ratio()
    de, do = len(even) - 1, max(len(odd) - 1, 0)
    # _scaled_value(Q, wd, den) = den^deg(Q) Q(wd / den), over the common L
    E_int = _scaled_value(even, wd, wn) * (2 * wn) ** do
    O_int = _scaled_value(odd, wd, 2 * wn) * wn**de if odd else 0
    return E_int, O_int, D * D * wn**de * (2 * wn) ** do


def _norm_constant(m_abs, omega, poly: Poly) -> float:
    """1 / sqrt(int_0^inf exp(-omega r^2) r^(2a-1) p(r)^2 dr) with a = |m| + 1.

    With p^2 = sum_k c_k r^k every power is a Gamma moment
    Gamma(a + k/2) / (2 omega^(a + k/2)), so the integral is
    Gamma(a) / (2 omega^a) [E + rho O] with E = sum_j c_2j (a)_j omega^-j,
    O = sum_j c_(2j+1) (a + 1/2)_j omega^-j and
    rho = Gamma(a + 1/2) / (Gamma(a) sqrt(omega)). E and O are exact integer
    sums; only rho, which carries sqrt(pi / omega), is rounded. E and rho O
    can cancel (by up to 34 digits for n <= 32), so `decimal` runs at a
    precision that keeps 20 digits beyond the cancellation it measures.
    """
    if not float(m_abs).is_integer():
        raise ValueError(f"the Gamma-moment norm needs an integer |m|, got {m_abs!r}")
    if poly.is_zero():
        raise ValueError("the zero polynomial has no norm")
    a = int(m_abs) + 1
    E_int, O_int, L = _moment_sums(a, omega, poly)
    wn, wd = Fraction(omega).as_integer_ratio()
    # rho = R sqrt(pi wd / wn) with R = (2a)! / (4^a a! (a-1)!)
    R = Fraction(math.factorial(2 * a), 4**a * math.factorial(a) * math.factorial(a - 1))
    prec = 60
    while True:
        with localcontext() as ctx:
            ctx.prec = prec
            rho = (_pi(prec) * (wd * R.numerator**2) / (wn * R.denominator**2)).sqrt()
            total = E_int + rho * O_int
            lost = max(Decimal(E_int).adjusted(), (rho * O_int).adjusted()) - total.adjusted()
            if total > 0 and lost + 20 <= prec:
                den = math.factorial(a - 1) * wd**a * total
                return float((2 * wn**a * L / den).sqrt())
        prec = 20 * (max(lost, prec) // 20 + 3)


def _u2_range(wf: "RadialWavefunction") -> float:
    """Radius past which u^2, polynomial factor included, is below e^-80 of its peak."""
    k = 2.0 * wf.m_abs + 1.0 + 2.0 * max(wf.poly.degree, 0)
    return math.sqrt((80.0 + 4.0 * k) / wf.omega)


_NORM_TOL = 1e-10   # allowed |int u^2 - 1| and integrated evaluation error of the float state


def _certify(wf: RadialWavefunction) -> None:
    """Raise QuadratureNonConvergence unless the state as evaluated in floats is normalized.

    The shared Gauss rule (4 against 8 panels) integrates u^2 and
    N^2 exp(-omega r^2) r^(2|m|+1) |p^2 - p~^2|, with p~ the compensated Horner
    value of the exact polynomial. Both must be within 1e-10: the first of 1,
    the second of 0. The second integral measures the float evaluation error
    of p directly, so a noisy state cannot pass by how its noise falls on the
    rule's nodes.
    """
    def rows(r):
        base = wf.norm**2 * np.exp(-wf.omega * r * r) * r ** (2 * wf.m_abs + 1)
        p = wf.poly(r)
        return np.stack([base * p**2, base * np.abs(p**2 - _compensated_horner(wf.poly, r) ** 2)])
    (total, error), _ = gauss_legendre(rows, 0.0, _u2_range(wf), panels=4,
                                       tol_abs=_NORM_TOL, tol_rel=0.0)
    if not (abs(total - 1.0) <= _NORM_TOL and error <= _NORM_TOL):
        raise QuadratureNonConvergence(
            f"the state as evaluated in floats integrates to {total:.17g} with float evaluation "
            f"error {error:.3e}; need both within {_NORM_TOL:.0e} (of 1 and of 0)")


def build_wavefunction(branch: QuantizationBranch) -> RadialWavefunction:
    """Normalized u for a branch; polynomial built by the recurrence run in r.

    In r the recurrence needs only Z and omega_tilde (kappa = Z, omega =
    omega_tilde), so coefficients stay exact rationals whenever omega_tilde is
    rational. The norm is exact up to its final rounding; `_certify` then
    rejects a state whose float evaluation is too noisy to be normalized.
    """
    exact = branch.omega_exact is not None and float(branch.Z).is_integer()
    w = branch.omega_exact if exact else branch.omega_tilde
    Zc = Fraction(int(branch.Z)) if exact else branch.Z
    m_abs = abs(Fraction(branch.m)) if exact and _is_rational(branch.m) else float(branch.m_abs)
    poly = Poly(recurrence_coefficients(Zc, 2 * (branch.n - 1), m_abs, branch.n, w))
    wf = RadialWavefunction(m_abs=float(branch.m_abs), omega=branch.omega_tilde,
                            Z=float(branch.Z), eps_rel=branch.eps_rel,
                            poly=poly, norm=_norm_constant(m_abs, w, poly), branch=branch)
    _certify(wf)
    return wf


def _is_rational(x) -> bool:
    return isinstance(x, (int, Fraction)) or (isinstance(x, float) and x.is_integer())


def verify_branch(wf: RadialWavefunction, params: HookeParams | None = None, grid=None) -> float:
    """Eigen-residual max |H u - eps_rel u| / max |u| over the grid.

    A direct check against the radial operator, evaluated from closed-form
    derivatives of the Gaussian-polynomial profile rather than the series
    pipeline that produced it.
    """
    if params is not None:
        if abs(params.omega_tilde - wf.omega) > 1e-12 * max(1.0, wf.omega) or params.Z != wf.Z:
            raise InconsistentParams("params do not match the wavefunction branch")
    if grid is None:
        grid = np.linspace(1e-3, 12.0, 600)
    r = np.asarray(grid, dtype=float)
    u = wf.u(r)
    hu = -0.5 * wf.u_second(r)
    cf = (wf.m_abs * wf.m_abs - 0.25) / 2.0
    hu = hu + (cf / (r * r) + 0.5 * wf.omega**2 * r * r + wf.Z / (2.0 * r)) * u
    return float(np.max(np.abs(hu - wf.eps_rel * u)) / np.max(np.abs(u)))


@dataclass(frozen=True)
class EnergyRecord:
    """Energy bookkeeping for one branch inside a full two-particle state."""

    eps_rel: float        # radial eigenvalue: omega_tilde * (n + |m|)
    eps: float            # eps_rel + m * omegaL / 2
    eps_rel_doubled: float  # 2 * eps_rel; the convention in which n=2 reads Z^2 (|m|+2)/(2|m|+1)
    e_cm: float           # center-of-mass oscillator energy omega_R * (cm_quanta + 1)
    e_total: float        # 2 * eps + e_cm / 2
    cm_quanta: int


def energies(branch: QuantizationBranch, params: HookeParams, cm_quanta: int = 0) -> EnergyRecord:
    """Assemble the level energies; params must realize the branch frequency."""
    if cm_quanta < 0:
        raise ValueError("cm_quanta must be >= 0")
    if abs(params.omega_tilde - branch.omega_tilde) > 1e-12 * max(1.0, branch.omega_tilde):
        raise InconsistentParams(
            f"params omega_tilde = {params.omega_tilde!r} but branch needs {branch.omega_tilde!r}"
        )
    eps_rel = branch.eps_rel
    eps = eps_rel + 0.5 * params.m * params.omegaL
    omega_R = 2.0 * params.omega0
    e_cm = omega_R * (cm_quanta + 1)
    return EnergyRecord(eps_rel=eps_rel, eps=eps, eps_rel_doubled=2.0 * eps_rel,
                        e_cm=e_cm, e_total=2.0 * eps + 0.5 * e_cm, cm_quanta=cm_quanta)
