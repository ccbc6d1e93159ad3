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
from fractions import Fraction

import numpy as np

from .integrate import adaptive_quad
from .polyops import Poly, real_roots, sturm_count
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


def _norm_constant(m_abs, omega, poly: Poly) -> float:
    two_nu = 2 * float(m_abs) + 1
    p = poly.as_floats()
    rmax = math.sqrt((80.0 + 4.0 * (two_nu + 2 * max(p.degree, 0))) / omega)
    val, _ = adaptive_quad(
        lambda r: math.exp(-omega * r * r) * r**two_nu * p(r) ** 2,
        0.0, rmax, tol_abs=1e-14, tol_rel=1e-13, limit=400,
        points=[1.0 / math.sqrt(omega)],
    )
    return 1.0 / math.sqrt(val)


def build_wavefunction(branch: QuantizationBranch) -> RadialWavefunction:
    """Normalized u for a branch; polynomial built by the recurrence run in r.

    In r the recurrence needs only Z and omega_tilde (kappa = Z, omega =
    omega_tilde), so coefficients stay exact rationals whenever omega_tilde is
    rational.
    """
    exact = branch.omega_exact is not None and float(branch.Z).is_integer()
    w = branch.omega_exact if exact else branch.omega_tilde
    Zc = Fraction(int(branch.Z)) if exact else branch.Z
    m_abs = abs(Fraction(branch.m)) if exact and _is_rational(branch.m) else float(branch.m_abs)
    poly = Poly(recurrence_coefficients(Zc, 2 * (branch.n - 1), m_abs, branch.n, w))
    norm = _norm_constant(branch.m_abs, branch.omega_tilde, poly)
    return RadialWavefunction(m_abs=float(branch.m_abs), omega=branch.omega_tilde,
                              Z=float(branch.Z), eps_rel=branch.eps_rel,
                              poly=poly, norm=norm, branch=branch)


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
