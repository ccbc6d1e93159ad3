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
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .integrate import gauss_legendre
from .polyops import Poly, _derivative, _integer_form, _polish, _primitive, _scaled_value
from .series import EulerPolynomial, MonomialOperator

__all__ = [
    "CenterOfMassState",
    "EquilibriumError",
    "NoBranchError",
    "QuantizationBranch",
    "RadialWavefunction",
    "build_wavefunction",
    "oscillator_branch",
    "quantization_polynomial",
    "solve_frequencies",
    "verify_branch",
]


class NoBranchError(LookupError):
    """No admissible frequency exists for the requested (n, m, Z)."""


class EquilibriumError(ArithmeticError):
    """A chamber's Stieltjes equilibrium did not converge, or its roots miss the branch's kappa."""


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
    solve_frequencies takes the branch from that chamber: kappa = -2 sum(zeta).

    roots holds the read-only roots r_k of that polynomial, ascending, as
    zeta_k / sqrt(omega_tilde): solve_frequencies gives them to every branch,
    and build_wavefunction to the state's copy of a branch that came without
    them. It is empty otherwise (n = 1, or a branch built by hand), and takes
    no part in ==, hash or repr.
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


def _jacobi(e_tilde, m_abs, n: int, omega=1):
    """(B, D, r, c): the Jacobi matrix J of the recurrence through level n, on integers.

    With P_j = c_1 ... c_j a_j (c_j = j (j + 2|m|)) the recurrence reads
    P_j = kappa P_(j-1) - beta_j P_(j-2), beta_j = omega (e_tilde + 4 - 2j)(j - 1)(j - 1 + 2|m|),
    so P_j = det(kappa I - J_j): J is tridiagonal with zero diagonal and
    off-diagonal sqrt(beta_2), ..., sqrt(beta_n) (Bender and Dunne 1996). beta_j
    = B[j - 2] / D, integers over one common D > 0 taken from the parameters'
    exact ratios (an int, a Fraction, or a float at its binary value). r[j][k]
    is D^k times the coefficient of kappa^(j - 2k) in P_j, for j = 0..n, built
    by r_j[k] = r_(j-1)[k] - B_j r_(j-2)[k-1] with no Fraction and no gcd; c is
    c_1 ... c_n, a Fraction, so a_n = P_n / c.
    """
    (on, od), (en, ed), (mn, md) = (x.as_integer_ratio() for x in (omega, e_tilde, m_abs))
    B = [on * (en + (4 - 2 * j) * ed) * (j - 1) * ((j - 1) * md + 2 * mn) for j in range(2, n + 1)]
    r = [[1], [1]]
    for b in B:
        r.append([x - b * y for x, y in zip(r[-1] + [0], [0] + r[-2])])
    c = Fraction(math.prod(j * (j * md + 2 * mn) for j in range(1, n + 1)), md**n)
    return B, od * ed * md, r, c


def recurrence_coefficients(kappa, e_tilde, m_abs, count: int, omega=1):
    """First `count` series coefficients a_0..a_{count-1} of the radial polynomial factor.

    Three-term recurrence  j (j + 2|m|) a_j = kappa a_{j-1} + omega (2 (j-2) - e_tilde) a_{j-2}
    with a_0 = 1. This is the package's one recurrence: with omega = 1 it runs in
    the scaled variable rho (kappa = Z / sqrt(omega_tilde)); with omega = omega_tilde
    and kappa = Z it runs in r; under x^2 = r it gives the sextic sector series.
    The parameters are always exact: a float one is its binary value, so
    b_j = omega (2 (j-2) - e_tilde) and c_j = j (j + 2|m|) are integer
    (numerator, denominator) pairs. The output's arithmetic follows kappa
    alone: an int or Fraction gives Fractions, and at a float kappa each b_j
    and c_j enters as one int / int division, rounded once. As a polynomial
    in kappa, a_j is det(kappa I - J_j) / (c_1 ... c_j) (see _jacobi).
    """
    (on, od), (en, ed), (mn, md) = (x.as_integer_ratio() for x in (omega, e_tilde, m_abs))
    div = Fraction if isinstance(kappa, (int, Fraction)) else (lambda n, d: n / d)
    out = [div(1, 1)]
    for j in range(1, count):
        term = kappa * out[-1]
        if j >= 2:
            term = term + div(on * (2 * (j - 2) * ed - en), od * ed) * out[-2]
        out.append(term / div(j * (j * md + 2 * mn), md))
    return out[:count]


def quantization_polynomial(n: int, m) -> Poly:
    """a_n as an exact polynomial in kappa at the level that terminates at degree n - 1.

    The termination level fixes e_tilde = 2 (n - 1), so beta_j = 2 (n + 1 - j)(j - 1)(j - 1 + 2|m|)
    > 0 and a_n = det(kappa I - J) / (c_1 ... c_n), J the n x n Jacobi matrix of
    _jacobi: its roots (with sign matching Z) are the admissible couplings,
    real, simple and symmetric about 0; only powers kappa^n, kappa^(n-2), ... appear.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _, D, r, c = _jacobi(2 * (n - 1), abs(m), n)
    coeffs = [Fraction(0)] * (n + 1)
    for k, x in enumerate(r[n]):
        coeffs[n - 2 * k] = Fraction(x, D**k) / c
    return Poly(coeffs)


def _branch_from_s(n, m, Z, s_exact: Fraction | None, s_float: float, chamber: int) -> QuantizationBranch:
    omega_exact = None
    if s_exact is not None:
        s_float = float(s_exact)
        if _is_rational(Z):
            omega_exact = Fraction(Z) ** 2 / s_exact
    z, omega = (math.inf if Z > 0 else -math.inf), math.inf
    try:
        z = float(Z)
        omega = Z * Z / s_float
    except OverflowError:   # an int or Fraction Z whose Z or Z^2 is beyond the float range
        pass
    if not 0 < omega < math.inf:
        raise ValueError(f"omega_tilde = Z^2 / kappa^2 must be positive and finite, "
                         f"got {omega!r} at Z = {z!r}")
    kappa = math.copysign(math.sqrt(s_float), Z)
    return QuantizationBranch(n=n, m=m, Z=z, kappa=kappa, omega_tilde=omega,
                              kappa_sq_exact=s_exact, omega_exact=omega_exact, chamber=chamber)


def solve_frequencies(n: int, m, Z) -> list[QuantizationBranch]:
    """All admissible frequencies for a degree-(n-1) polynomial state, descending in omega.

    The branches are the Stieltjes chambers (_equilibria) of the N = n - 1
    roots: N+ = B - 1, ..., 0 for Z > 0 and N - B + 1, ..., N for Z < 0, with
    B = n // 2, all solved in one damped Newton, in ascending s = kappa^2 =
    (2 sum zeta)^2. Each s is polished by exact Newton on the s-polynomial
    (the part of quantization_polynomial in kappa^2). A rational root is kept
    exact: with L the leading coefficient of the s-polynomial's primitive
    integer form, k = round(s L) is taken when k / L is a root, so omega_tilde
    = Z^2 / s stays an exact Fraction where the closed forms are rational.
    Every branch carries its chamber's roots; raises EquilibriumError when a
    chamber does not converge or misses its polished kappa.
    """
    return _solve_lattice(n, [m], [Z])[0]


def _solve_lattice(n: int, m_values, Z_values) -> list[list[QuantizationBranch]]:
    """solve_frequencies(n, m, Z) for each (m, Z), m-major and Z-minor, bit for bit.

    Roots depend on nu = |m| + 1/2 and N+, not Z: each distinct row is solved once, whole
    chamber sets sharing an _equilibria call while its (rows, N, N) buffer holds at most
    2^17 entries. The first failing (m, Z) decides the error.
    """
    pairs = [(m, Z) for m in m_values for Z in Z_values]
    if not pairs:
        return []
    if n < 1:
        raise ValueError("n must be >= 1")
    if n < 2:
        raise NoBranchError("n = 1 exists only at Z = 0; use oscillator_branch")
    stop = next((i for i, (_, Z) in enumerate(pairs) if Z == 0), len(pairs))
    solved, polys, zetas, out = pairs[:stop], {}, {}, []
    for m_abs in dict.fromkeys(abs(m) for m, _ in solved):
        even, odd = quantization_polynomial(n, m_abs).even_odd_parts()
        # parity: a_n contains only kappa^n, kappa^(n-2), ...
        P, D = _integer_form(odd if n % 2 else even)
        polys[m_abs] = P, _derivative(P), D, abs(_primitive(P)[-1])
    N, B = n - 1, n // 2
    sides = {True: range(B - 1, -1, -1), False: range(N - B + 1, N + 1)}
    sets = list(dict.fromkeys((float(abs(m)) + 0.5, Z > 0) for m, Z in solved))
    per_call = max(1, 2**17 // (B * N * N))
    for i in range(0, len(sets), per_call):
        rows = [(nu, c) for nu, positive in sets[i:i + per_call] for c in sides[positive]]
        zetas.update(zip(rows, _equilibria(N, [nu for nu, _ in rows], [c for _, c in rows])))
    for m, Z in solved:
        P, dP, D, L = polys[abs(m)]
        out.append([])
        for chamber in sides[Z > 0]:
            zeta = zetas[float(abs(m)) + 0.5, chamber]
            s = _polish(P, dP, D, (2.0 * math.fsum(zeta.tolist())) ** 2)
            k = round(Fraction(s) * L)
            exact = None if _scaled_value(P, k, L) else Fraction(k, L)
            out[-1].append(_rooted(_branch_from_s(n, m, Z, exact, s, chamber), zeta))
    if stop < len(pairs):
        raise NoBranchError("Z = 0 has no quantized frequency; use oscillator_branch")
    return out


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

    The width parameter is kept explicit: the convention for the ground
    center-of-mass mode is beta = 4 omega_tilde, but density comparisons fit
    beta rather than assume it.
    """

    beta: float

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and positive, got {self.beta!r}")

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

    A state from build_wavefunction has a _RootProduct as poly: it stores the
    roots r_k of p, every evaluation uses p(r) = prod(1 - r / r_k), and the
    float coefficients (a_0 = 1) are expanded only for their readers. A
    profile built elsewhere (a sextic_state_to_hooke image) has a Poly of
    coefficients. Evaluation is always in floats, by poly's own call.
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


_NEWTON_STEPS = 100    # damped Newton steps allowed per chamber
_STEP_TOL = 1e-13      # converged: a full step below this times max |zeta|
_KAPPA_TOL = 1e-12     # allowed |-2 sum(zeta) - kappa| / |kappa|


def _equilibria(N: int, nu, chambers: list[int]) -> np.ndarray:
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
    which chambers are solved together. A step costs a fixed number of numpy
    calls: the chamber test is one sign pattern and one order test, and the
    halving and finiteness tests run only for a step that leaves a chamber.
    nu = |m| + 1/2 is one float, or one per row as a (rows, 1) column for several |m|.
    """
    chambers = np.asarray(chambers)
    nu = np.broadcast_to(np.asarray(nu, dtype=float).reshape(-1, 1), (len(chambers), 1))
    n_neg, j = (N - chambers)[:, None], np.arange(N)
    neg = j < n_neg
    s = np.sqrt(2 * N + 2 * nu + 1)
    z = np.where(neg, -s * (n_neg - j - 0.5) / np.maximum(n_neg, 1),
                 s * (j - n_neg + 0.5) / np.maximum(N - n_neg, 1))
    sign = np.where(neg, -1.0, 1.0)   # each row's chamber: its roots' signs, ascending
    off_diagonal = ~np.eye(N, dtype=bool)
    out = np.empty_like(z)
    active = np.arange(len(z))

    def in_chamber(new, sign):
        return (np.sign(new) == sign).all(1) & (new[:, 1:] > new[:, :-1]).all(1)

    for _ in range(_NEWTON_STEPS):
        # one (rows, N, N) buffer holds the differences, their inverses, then the Hessians;
        # the diagonal keeps z_k - z_k = 0 until the Hessian's diagonal is written
        h = z[:, :, None] - z[:, None, :]
        np.divide(1.0, h, out=h, where=off_diagonal)
        grad = z - nu / z - h.sum(2)
        np.square(h, out=h)
        diag = 1.0 + nu / (z * z) + h.sum(2)
        np.negative(h, out=h)
        h.reshape(len(z), -1)[:, ::N + 1] = diag
        step = np.linalg.solve(h, grad[:, :, None])[:, :, 0]
        new, full = z - step, True
        inside = in_chamber(new, sign)
        if not inside.all():
            finite = np.isfinite(step).all(1)
            if not finite.all():
                active, nu = active[~finite], nu[~finite]
                break
            t = np.ones((len(z), 1))
            while not inside.all():
                t[~inside] *= 0.5
                new = z - t * step
                inside = in_chamber(new, sign)
            full = t[:, 0] == 1.0
        z = new
        done = full & (abs(step).max(1) <= _STEP_TOL * abs(z).max(1))
        if done.any():
            out[active[done]] = z[done]
            active, z, sign, nu = active[~done], z[~done], sign[~done], nu[~done]
            if not len(active):
                return out
    raise EquilibriumError(f"damped Newton did not converge in {_NEWTON_STEPS} steps on the "
                           f"chamber N+ = {chambers[active[0]]} of N = {N} roots (nu = {nu[0, 0]})")


def _rooted(branch: QuantizationBranch, zeta: np.ndarray) -> QuantizationBranch:
    """The branch carrying the roots zeta / sqrt(omega_tilde) of its chamber's equilibrium.

    kappa = -2 sum(zeta) ties the chamber to the branch: raises
    EquilibriumError unless |-2 sum(zeta) - kappa| <= 1e-12 |kappa|.
    """
    defect = abs(-2.0 * math.fsum(zeta.tolist()) - branch.kappa)
    bound = _KAPPA_TOL * abs(branch.kappa)
    if not defect <= bound:
        raise EquilibriumError(
            f"the chamber N+ = {branch.chamber} of (n, m) = ({branch.n}, {branch.m}) gives "
            f"|-2 sum(zeta) - kappa| = {defect:.3e}, above its bound {bound:.3e}")
    roots = zeta / math.sqrt(branch.omega_tilde)
    roots.flags.writeable = False
    return replace(branch, roots=roots)


def build_wavefunction(branch: QuantizationBranch) -> RadialWavefunction:
    """Normalized u for a branch with integer |m|, from the n - 1 roots of its p.

    p is prod(1 - r / r_k) on the branch's own roots array, which
    solve_frequencies found as the Stieltjes equilibrium of the branch's
    chamber; a branch that carries none (a copy made without them) has its
    chamber solved alone. Every state is built this way, the rational-omega
    closed forms of n = 2, 3 too: their frequencies stay exact on the branch,
    while p is evaluated from its roots like any other. u^2 is normalized by
    the shared Gauss rule, from 8 against 16 panels, certified at 1e-13
    relative; a norm integral that is not a finite positive number (u^2
    outside the float range at an extreme omega) raises ValueError. The node
    count and the entropy read the state's roots (wf.roots).
    """
    if not float(branch.m_abs).is_integer():
        raise ValueError(f"a trap state needs an integer |m|, got {branch.m!r}")
    if len(branch.roots) != branch.n - 1:   # no roots yet: solve this chamber alone
        branch = _rooted(branch, _equilibria(branch.n - 1, float(branch.m_abs) + 0.5,
                                             [branch.chamber])[0])
    bare = RadialWavefunction(m_abs=float(branch.m_abs), omega=branch.omega_tilde, Z=float(branch.Z),
                              eps_rel=branch.eps_rel, poly=_RootProduct(branch.roots), norm=1.0,
                              branch=branch)
    total, _ = gauss_legendre(bare.u_squared, 0.0, _u2_range(bare), panels=8,
                              tol_abs=sys.float_info.min, tol_rel=1e-13)
    if not 0.0 < total < math.inf:
        raise ValueError(f"the norm integral of u^2 is {float(total)!r}, not a finite positive number, "
                         f"at omega={bare.omega!r}, |m|={branch.m_abs}")
    return replace(bare, norm=1.0 / math.sqrt(total))


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
