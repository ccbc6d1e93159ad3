"""Closed-form bound states of two Coulomb-coupled particles in a planar trap.

Separating center-of-mass and relative motion leaves a radial problem

    -u''/2 + [(m^2 - 1/4)/(2 r^2) + w^2 r^2 / 2 + Z/(2 r)] u = eps_rel u

whose polynomial-times-Gaussian solutions exist only when the effective
frequency w and coupling Z satisfy a quantization condition. Everything here
is organized around that condition: given (n, m, Z) the admissible w follow
from the roots of an exact polynomial in kappa = Z / sqrt(w).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .integrate import QuadratureNonConvergence, gauss_legendre
from .polyops import Poly, real_roots
from .series import EulerPolynomial, MonomialOperator

__all__ = [
    "CenterOfMassState",
    "EnergyRecord",
    "EquilibriumError",
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


class EquilibriumError(ArithmeticError):
    """A chamber's Stieltjes equilibrium did not converge, or its roots miss the branch's kappa."""


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


_NO_ROOTS = np.empty(0)
_NO_ROOTS.flags.writeable = False


@dataclass(frozen=True, slots=True)
class QuantizationBranch:
    """One admissible frequency for (n, m, Z), with exact values when they exist.

    n is the termination index: the radial polynomial has degree n - 1. kappa
    is Z / sqrt(omega_tilde) and always carries the sign of Z. chamber is N+,
    the number of positive roots (nodes) of that polynomial. In rho =
    sqrt(omega_tilde) r its roots are the one critical point of the Stieltjes
    energy in the chamber of configurations with N+ positive roots, and
    solve_frequencies reads N+ off the branch's rank (repulsive branch k of B,
    in descending omega, has B - 1 - k; attractive branch k has n - B + k).

    roots holds the read-only roots r_k of that polynomial, ascending: from
    solve_frequencies, zeta_k / sqrt(omega_tilde), on a branch built from them
    (integer |m|, and irrational omega or non-integer Z); from
    build_wavefunction, on the state's copy of an exact-route branch. It is
    empty otherwise, and takes no part in ==, hash or repr.
    """

    n: int
    m: float
    Z: float
    kappa: float
    omega_tilde: float
    kappa_sq_exact: Fraction | None = None
    omega_exact: Fraction | None = None
    chamber: int | None = None
    roots: np.ndarray = field(default_factory=lambda: _NO_ROOTS, compare=False, repr=False)

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


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of a rational; an int passes with no Fraction built."""
    return (x, 1) if isinstance(x, int) else Fraction(x).as_integer_ratio()


def _recurrence(kappa, e_tilde, m_abs, omega=1):
    """a_0, a_1, ... of the recurrence, without end; see recurrence_coefficients.

    A symbolic kappa (None) gives each a_j as (P, D): integer coefficients of
    kappa^0, kappa^1, ... over one common denominator D > 0, reduced by their
    gcd at every step, so no Fraction arithmetic runs.
    """
    if kappa is None:
        def step(prev, prev2, b, c):
            num, den = [0] + prev[0], prev[1]       # kappa a_{j-1}
            if prev2 is not None:
                (P2, d2), (bn, bd) = prev2, _ratio(b)
                den = math.lcm(den, d2 * bd)
                num = [x * (den // prev[1]) for x in num]
                f = bn * (den // (d2 * bd))
                for i, x in enumerate(P2):
                    num[i] += f * x
            cn, cd = _ratio(c)
            num, den = [x * cd for x in num], den * cn
            g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
            return [x // g for x in num], den // g
        prev = ([1], 1)
    else:
        def step(prev, prev2, b, c):
            term = kappa * prev
            if prev2 is not None:
                term = term + b * prev2
            return term / c
        prev = Fraction(1) if isinstance(kappa, (int, Fraction, Poly)) else 1.0
    prev2 = None
    for j in itertools.count(1):
        yield prev
        prev, prev2 = step(prev, prev2, omega * (2 * (j - 2) - e_tilde), j * (j + 2 * m_abs)), prev


def _kappa_poly(a) -> Poly:
    """A symbolic a_j from _recurrence as a Poly in kappa with Fraction coefficients."""
    P, den = a
    return Poly([Fraction(x, den) for x in P])


def recurrence_coefficients(kappa, e_tilde, m_abs, count: int, omega=1):
    """First `count` series coefficients a_0..a_{count-1} of the radial polynomial factor.

    Three-term recurrence  j (j + 2|m|) a_j = kappa a_{j-1} + omega (2 (j-2) - e_tilde) a_{j-2}
    with a_0 = 1. This is the package's one recurrence: with omega = 1 it runs in
    the scaled variable rho (kappa = Z / sqrt(omega_tilde)); with omega = omega_tilde
    and kappa = Z it runs in r; under x^2 = r it gives the sextic sector series.
    Pass kappa=None to carry it as a formal symbol (exact Poly output, built
    from integer coefficients over one common denominator).
    """
    out = list(itertools.islice(_recurrence(kappa, e_tilde, m_abs, omega), count))
    return [_kappa_poly(a) for a in out] if kappa is None else out


def quantization_polynomial(n: int, m) -> Poly:
    """a_n as an exact polynomial in kappa at the level that terminates at degree n - 1.

    The termination level fixes e_tilde = 2 (n - 1). Its roots (with sign
    matching Z) are the admissible couplings; only powers kappa^n,
    kappa^(n-2), ... appear.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m_abs = abs(m)
    if isinstance(m_abs, Fraction) and m_abs.denominator == 1:
        m_abs = int(m_abs)   # an integer |m| keeps every recurrence step on ints
    return _kappa_poly(next(itertools.islice(_recurrence(None, 2 * (n - 1), m_abs), n, None)))


def _branch_from_s(n, m, Z, s_exact: Fraction | None, s_float: float, chamber: int) -> QuantizationBranch:
    omega_exact = None
    if s_exact is not None:
        s_float = float(s_exact)
        if _is_rational(Z):
            omega_exact = Fraction(Z) ** 2 / s_exact
    kappa = math.copysign(math.sqrt(s_float), Z)
    omega = Z * Z / s_float
    return QuantizationBranch(n=n, m=m, Z=float(Z), kappa=kappa, omega_tilde=omega,
                              kappa_sq_exact=s_exact, omega_exact=omega_exact, chamber=chamber)


def solve_frequencies(n: int, m, Z) -> list[QuantizationBranch]:
    """All admissible frequencies for a degree-(n-1) polynomial state, descending in omega.

    Frequencies follow from positive roots of the quantization polynomial in
    s = kappa^2; rational roots are kept exact so omega_tilde = Z^2 / s stays
    an exact Fraction where the closed forms are rational. Each branch's
    chamber follows from its rank k among the B branches: B - 1 - k for
    Z > 0 and n - B + k for Z < 0. The chambers of every branch that
    build_wavefunction builds from its roots are solved together, in one
    damped Newton, and each such branch carries its roots; raises
    EquilibriumError when a chamber does not converge or misses its kappa.
    """
    return _with_roots(_exact_branches(n, m, Z))


def _exact_branches(n: int, m, Z) -> list[QuantizationBranch]:
    """solve_frequencies without the Stieltjes roots: every branch's roots array is empty."""
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
    roots = [(float(s), s) for s in rational if s > 0] + [(s, None) for s in irrational if s > 1e-12]
    if not roots:
        raise NoBranchError(f"no positive root of the quantization polynomial for n={n}, m={m}")
    roots.sort(key=lambda root: root[0])   # ascending s = Z^2 / omega: descending omega
    B = len(roots)
    return [_branch_from_s(n, m, Z, exact, s, B - 1 - k if Z > 0 else n - B + k)
            for k, (s, exact) in enumerate(roots)]


def oscillator_branch(m, omega_tilde) -> QuantizationBranch:
    """Coulomb-free nodeless state: n = 1, any frequency, Gaussian profile."""
    if not 0 < omega_tilde < math.inf:
        raise ValueError(f"omega_tilde must be positive and finite, got {omega_tilde!r}")
    om = Fraction(omega_tilde) if isinstance(omega_tilde, (int, Fraction)) else None
    return QuantizationBranch(n=1, m=m, Z=0.0, kappa=0.0, omega_tilde=float(omega_tilde),
                              kappa_sq_exact=None, omega_exact=om, chamber=0)


@dataclass(frozen=True)
class CenterOfMassState:
    """Gaussian center-of-mass ground state, |xi(R)|^2 = (beta/pi) exp(-beta R^2).

    The width parameter is kept explicit: the trap convention fixes
    beta = omega_R = 2 omega0 (4 omega_tilde at zero field), but density
    comparisons fit beta rather than assume it.
    """

    beta: float

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and positive, got {self.beta!r}")

    @classmethod
    def from_trap(cls, params: HookeParams) -> "CenterOfMassState":
        return cls(beta=2.0 * params.omega0)

    def probability(self, R):
        R = np.asarray(R, dtype=float)
        out = (self.beta / math.pi) * np.exp(-self.beta * R * R)
        return out if out.ndim else float(out)


class _RootProduct(Poly):
    """prod(1 - x / r_k) as a Poly: only the roots are stored, a call takes the
    product, and the coefficients (a_0 = 1) are expanded each time they are read."""

    __slots__ = ("roots",)

    def __init__(self, roots: np.ndarray):
        self.roots = roots

    def __reduce__(self):   # pickle and copy by the roots; Poly's coeffs slot is unused here
        return _RootProduct, (self.roots,)

    @property
    def coeffs(self) -> tuple:
        c = [1.0]
        for root in self.roots.tolist():
            c = [a - b / root for a, b in zip(c + [0.0], [0.0] + c)]
        return tuple(c)

    @property
    def degree(self) -> int:
        return len(self.roots)

    def __call__(self, x):
        if np.ndim(x) == 0:   # one point (the adaptive oracles): Python floats, same rounding
            x, p = float(x), 1.0
            for root in self.roots.tolist():
                p *= 1.0 - x / root
            return p
        p, f = np.ones_like(x), np.empty_like(x)   # one factor buffer: no array per root
        for root in self.roots.tolist():
            np.divide(x, root, out=f)
            np.subtract(1.0, f, out=f)
            p *= f
        return p


@dataclass(frozen=True, slots=True)
class RadialWavefunction:
    """Normalized radial profile u(r) = norm * exp(-w r^2/2) r^(|m|+1/2) p(r).

    A state built at irrational omega has a _RootProduct as poly: it stores
    the roots r_k of p, every evaluation uses p(r) = prod(1 - r / r_k), and
    the float coefficients (a_0 = 1) are expanded only for their readers.
    Otherwise (rational omega, and profiles built elsewhere) p is poly itself,
    with exact rational coefficients when the branch frequency is rational.
    Evaluation is always in floats, by poly's own call.
    """

    m_abs: float
    omega: float
    Z: float
    eps_rel: float
    poly: Poly
    norm: float
    branch: QuantizationBranch | None = None

    @property
    def roots(self) -> np.ndarray:
        """The n - 1 roots of p, ascending and read-only, on the state's branch.

        A profile with no branch (a sextic_state_to_hooke image, or one built
        by hand) has none, and reading them raises ValueError.
        """
        if self.branch is None:
            raise ValueError("the profile carries no roots; only build_wavefunction's states do")
        return self.branch.roots

    @property
    def nu(self) -> float:
        return float(self.m_abs) + 0.5

    def support_radius(self, log_tail: float = 80.0) -> float:
        """Radius beyond which exp(-w r^2) has dropped by e**-log_tail."""
        return math.sqrt(log_tail / self.omega)

    def _factor_derivatives(self, r):
        """(p, p', p'') on a float array; with roots, by the product rule, dividing by no factor."""
        if not isinstance(self.poly, _RootProduct):
            dpoly = self.poly.derivative()
            return self.poly(r), dpoly(r), dpoly.derivative()(r)
        p, dp, ddp = np.ones_like(r), np.zeros_like(r), np.zeros_like(r)
        f, t = np.empty_like(r), np.empty_like(r)   # the factor and one product: no array per root
        for root in self.poly.roots.tolist():
            df = -1.0 / root
            np.divide(r, root, out=f)
            np.subtract(1.0, f, out=f)
            ddp *= f
            ddp += np.multiply(2.0 * df, dp, out=t)
            dp *= f
            dp += np.multiply(df, p, out=t)
            p *= f
        return p, dp, ddp

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
        """u^2 / r = norm^2 exp(-w r^2) r^(2|m|) p^2; finite everywhere."""
        r = np.asarray(r, dtype=float)
        out = self.norm**2 * np.exp(-self.omega * r * r) * r ** (2 * float(self.m_abs)) * self.poly(r) ** 2
        return out if out.ndim else float(out)

    def _u_and_second(self, r):
        """(u, u'') on a float array from one _factor_derivatives pass.

        Each is rounded exactly as `u` and `u_second` round it.
        """
        p, dp, ddp = self._factor_derivatives(r)
        nu, w = self.nu, self.omega
        gauss, r_nu = self.norm * np.exp(-0.5 * w * r * r), r**nu
        wv = r_nu * p
        wd = r ** (nu - 1) * (nu * p + r * dp)
        wdd = r ** (nu - 2) * (nu * (nu - 1) * p + 2 * nu * r * dp + r * r * ddp)
        return gauss * r_nu * p, gauss * (wdd - 2 * w * r * wd + (w * w * r * r - w) * wv)

    def u_second(self, r):
        r = np.asarray(r, dtype=float)
        out = self._u_and_second(r)[1]
        return out if out.ndim else float(out)

    @property
    def nodes(self) -> int:
        """Positive real zeros of the polynomial factor: the count of its positive roots."""
        return int(np.count_nonzero(self.roots > 0))


def _u2_range(wf: "RadialWavefunction") -> float:
    """Radius past which u^2, polynomial factor included, is below e^-80 of its peak."""
    k = 2.0 * wf.m_abs + 1.0 + 2.0 * max(wf.poly.degree, 0)
    return math.sqrt((80.0 + 4.0 * k) / wf.omega)


_NOISE_TOL = 1e-10   # allowed integrated float evaluation error of an exact-coefficient state


def _certify(wf: RadialWavefunction) -> None:
    """Raise QuadratureNonConvergence unless p, as evaluated in floats, is its exact value.

    The shared Gauss rule (from 4 against 8 panels) integrates
    N^2 exp(-omega r^2) r^(2|m|+1) |p^2 - p~^2|, with p the Horner value of the
    exact coefficients and p~ = prod(1 - r / r_k) over the state's roots; it
    must be within 1e-10 of 0. This measures the float evaluation error of p
    directly, so a noisy state cannot pass by how its noise falls on the rule's
    nodes, and roots that are not p's fail it too. An integral the rule cannot
    certify fails with this certificate's message, chained to the rule's. That
    u^2 integrates to 1 is the normalization's own certificate (build_wavefunction).
    """
    def noise(r):
        return (wf.norm**2 * np.exp(-wf.omega * r * r) * r ** (2 * wf.m_abs + 1)
                * np.abs(wf.poly(r) ** 2 - _RootProduct(wf.roots)(r) ** 2))
    need = f"need it within {_NOISE_TOL:.0e}"
    try:
        error, _ = gauss_legendre(noise, 0.0, _u2_range(wf), panels=4, tol_abs=_NOISE_TOL, tol_rel=0.0)
    except QuadratureNonConvergence as exc:
        raise QuadratureNonConvergence(
            f"the state as evaluated in floats carries evaluation error the rule cannot bound; {need}"
        ) from exc
    if not error <= _NOISE_TOL:
        raise QuadratureNonConvergence(
            f"the state as evaluated in floats carries evaluation error {error:.3e}; {need}")


_NEWTON_STEPS = 100    # damped Newton steps allowed per chamber
_STEP_TOL = 1e-13      # converged: a full step below this times max |zeta|
_KAPPA_TOL = 1e-12     # allowed |-2 sum(zeta) - kappa| / |kappa|


def _equilibria(N: int, nu: float, chambers: list[int]) -> np.ndarray:
    """Row i: the N roots zeta (ascending, chambers[i] of them positive) of the factor in rho.

    At a root of p(rho) the radial equation reads
    zeta_k - nu / zeta_k - sum_(j != k) 1 / (zeta_k - zeta_j) = 0: zeta is a
    critical point of E = sum zeta^2 / 2 - nu sum ln|zeta| - sum_(j<k) ln|zeta_j - zeta_k|
    (Stieltjes 1885). E is strictly convex on each chamber, the ordered
    configurations with N+ positive roots, so the chamber holds exactly one.
    Damped Newton finds every requested chamber at once: one batched solve of
    the dense Hessians per step, from roots spread evenly on each side of 0 out
    to sqrt(2N + 2 nu + 1), each row's step halved until every root of the row
    stays in its chamber. A row stops once its full step is below 1e-13 of its
    max |zeta|; every operation is row by row, so the rows do not depend on
    which chambers are solved together.
    """
    n_neg = N - np.asarray(chambers)
    s = math.sqrt(2 * N + 2 * nu + 1)
    z = np.array([np.concatenate([-s * (np.arange(k, 0, -1) - 0.5) / max(k, 1),
                                  s * (np.arange(1, N - k + 1) - 0.5) / max(N - k, 1)])
                  for k in n_neg.tolist()])
    out = np.empty_like(z)
    active = np.arange(len(z))
    for _ in range(_NEWTON_STEPS):
        # one (rows, N, N) buffer holds the differences, their inverses, then the Hessians
        h = z[:, :, None] - z[:, None, :]
        diag = h.reshape(len(z), -1)[:, ::N + 1]
        diag[:] = 1.0
        np.divide(1.0, h, out=h)
        diag[:] = 0.0
        grad = z - nu / z - h.sum(2)
        np.negative(np.square(h, out=h), out=h)
        diag[:] = 1.0 + nu / (z * z) - h.sum(2)
        step = np.linalg.solve(h, grad[:, :, None])[:, :, 0]
        finite = np.isfinite(step).all(1)
        if not finite.all():
            active = active[~finite]
            break
        t = np.ones((len(z), 1))
        while True:
            new = z - t * step
            inside = ((new[:, 1:] > new[:, :-1]).all(1) & (np.sum(new < 0, 1) == n_neg[active])
                      & (np.sum(new > 0, 1) == N - n_neg[active]))
            if inside.all():
                break
            t[~inside] *= 0.5
        z = new
        done = (t[:, 0] == 1.0) & (abs(step).max(1) <= _STEP_TOL * abs(z).max(1))
        out[active[done]] = z[done]
        active, z = active[~done], z[~done]
        if not len(active):
            return out
    raise EquilibriumError(f"damped Newton did not converge in {_NEWTON_STEPS} steps on the "
                           f"chamber N+ = {N - n_neg[active[0]]} of N = {N} roots (nu = {nu})")


def _with_roots(branches: list[QuantizationBranch]) -> list[QuantizationBranch]:
    """The branches, each one that build_wavefunction builds from roots now carrying them.

    Their chambers are solved together (_equilibria), and kappa = -2 sum(zeta)
    ties each chamber to its branch: raises EquilibriumError unless
    |-2 sum(zeta) - kappa| <= 1e-12 |kappa|.
    """
    first = branches[0]
    if not float(first.m_abs).is_integer():
        return branches   # build_wavefunction builds no state at non-integer |m|
    todo = [k for k, b in enumerate(branches) if not _exact_route(b)]
    if not todo:
        return branches
    zeta = _equilibria(first.n - 1, float(first.m_abs) + 0.5, [branches[k].chamber for k in todo])
    out = list(branches)
    for k, row in zip(todo, zeta):
        b = branches[k]
        defect = abs(-2.0 * math.fsum(row) - b.kappa)
        bound = _KAPPA_TOL * abs(b.kappa)
        if not defect <= bound:
            raise EquilibriumError(
                f"the chamber N+ = {b.chamber} of (n, m) = ({b.n}, {b.m}) gives "
                f"|-2 sum(zeta) - kappa| = {defect:.3e}, above its bound {bound:.3e}")
        roots = row / math.sqrt(b.omega_tilde)
        roots.flags.writeable = False
        out[k] = replace(b, roots=roots)
    return out


def build_wavefunction(branch: QuantizationBranch) -> RadialWavefunction:
    """Normalized u for a branch with integer |m|; the routes differ only in p.

    Exact route, when omega_tilde is rational and Z an integer (the n = 2, 3
    closed forms and every rational root): the recurrence runs in r on exact
    rationals (kappa = Z, omega = omega_tilde), and p is its Horner value. One
    real_roots call gives its n - 1 roots, put on the state's copy of the
    branch, and `_certify` rejects a state whose p strays from their product.

    Root route, otherwise: p is prod(1 - r / r_k) on the branch's own roots
    array, which solve_frequencies found as the Stieltjes equilibrium of the
    branch's chamber; raises ValueError for a branch that carries no roots.

    Both are normalized by the shared Gauss rule on u^2, from 8 against 16
    panels, certified at 1e-13 relative. The node count and the entropy
    breaks of either read the state's roots (wf.roots).
    """
    if not float(branch.m_abs).is_integer():
        raise ValueError(f"a trap state needs an integer |m|, got {branch.m!r}")
    exact = _exact_route(branch)
    if exact:
        m_abs = abs(Fraction(branch.m)) if _is_rational(branch.m) else float(branch.m_abs)
        poly = Poly(recurrence_coefficients(Fraction(int(branch.Z)), 2 * (branch.n - 1), m_abs,
                                            branch.n, branch.omega_exact))
        rational, irrational = real_roots(poly)
        roots = np.array(sorted([float(x) for x in rational] + irrational))
        roots.flags.writeable = False
        branch = replace(branch, roots=roots)
    elif len(branch.roots) != branch.n - 1:
        raise ValueError("the branch carries no roots; take it from solve_frequencies")
    else:
        poly = _RootProduct(branch.roots)
    bare = RadialWavefunction(m_abs=float(branch.m_abs), omega=branch.omega_tilde, Z=float(branch.Z),
                              eps_rel=branch.eps_rel, poly=poly, norm=1.0, branch=branch)
    total, _ = gauss_legendre(bare.u_squared, 0.0, _u2_range(bare), panels=8,
                              tol_abs=sys.float_info.min, tol_rel=1e-13)
    wf = replace(bare, norm=1.0 / math.sqrt(total))
    if exact:
        _certify(wf)
    return wf


def _exact_route(branch: QuantizationBranch) -> bool:
    """Whether build_wavefunction runs the exact recurrence (rational omega, integer Z)."""
    return branch.omega_exact is not None and float(branch.Z).is_integer()


def _is_rational(x) -> bool:
    return isinstance(x, (int, Fraction)) or (isinstance(x, float) and x.is_integer())


def verify_branch(wf: RadialWavefunction, grid=None) -> float:
    """Eigen-residual max |H u - eps_rel u| / max |u| over the grid.

    A direct check against the radial operator, evaluated from closed-form
    derivatives of the Gaussian-polynomial profile rather than the series
    pipeline that produced it. u and u'' come from one product-rule pass over
    the polynomial factor and equal `wf.u` and `wf.u_second` bit for bit. The
    default grid is 600 points on [1e-3, 12], plus 600 on [12, _u2_range(wf)]
    when the support reaches past r = 12; the first 600 alone set a floor, so
    a peak past r = 12 cannot lower the result.
    """
    core = None  # the points whose own ratio is a floor; None: the whole grid
    if grid is None:
        core = 600
        grid = np.linspace(1e-3, 12.0, core)
        r_max = _u2_range(wf)
        if r_max > 12.0:
            grid = np.concatenate([grid, np.linspace(12.0, r_max, 600)])
    r = np.asarray(grid, dtype=float)
    u, u2 = wf._u_and_second(r)
    hu = -0.5 * u2
    cf = (wf.m_abs * wf.m_abs - 0.25) / 2.0
    hu = hu + (cf / (r * r) + 0.5 * wf.omega**2 * r * r + wf.Z / (2.0 * r)) * u
    err, size = np.abs(hu - wf.eps_rel * u), np.abs(u)
    return float(max(np.max(err) / np.max(size), np.max(err[:core]) / np.max(size[:core])))


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
