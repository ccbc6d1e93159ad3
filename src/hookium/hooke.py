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

from .integrate import gauss_legendre
from .polyops import Poly, real_roots
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
    solve_frequencies reads N+ off the branch's rank (repulsive branch k of B,
    in descending omega, has B - 1 - k; attractive branch k has n - B + k).

    roots holds the read-only roots r_k of that polynomial, ascending, as
    zeta_k / sqrt(omega_tilde): solve_frequencies gives them to every branch
    with integer |m|, rational omega or not, and build_wavefunction to the
    state's copy of a branch that came without them. It is empty otherwise
    (non-integer |m|, n = 1, _exact_branches), and takes no part in ==, hash
    or repr.
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


def _recurrence(kappa, e_tilde, m_abs, omega=1):
    """a_0, a_1, ... of the recurrence, without end; see recurrence_coefficients.

    b_j = omega (2 (j-2) - e_tilde) and c_j = j (j + 2|m|) come as integer
    (numerator, denominator) pairs from the parameters' exact ratios: an int,
    a Fraction, or a float at its binary value. A symbolic kappa (None) gives
    each a_j as (P, D): integer coefficients of kappa^0, kappa^1, ... over one
    common denominator D > 0, reduced by their gcd at every step, so no
    Fraction arithmetic runs; an int or Fraction kappa makes each pair a
    Fraction, and a float kappa divides each pair once.
    """
    (on, od), (en, ed), (mn, md) = (x.as_integer_ratio() for x in (omega, e_tilde, m_abs))
    b_at = lambda j: (on * (2 * (j - 2) * ed - en), od * ed)
    c_at = lambda j: (j * (j * md + 2 * mn), md)
    if kappa is None:
        def step(prev, prev2, b, c):
            num, den = [0] + prev[0], prev[1]       # kappa a_{j-1}
            if prev2 is not None:
                (P2, d2), (bn, bd) = prev2, b
                den = math.lcm(den, d2 * bd)
                num = [x * (den // prev[1]) for x in num]
                f = bn * (den // (d2 * bd))
                for i, x in enumerate(P2):
                    num[i] += f * x
            cn, cd = c
            num, den = [x * cd for x in num], den * cn
            g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
            return [x // g for x in num], den // g
        prev = ([1], 1)
    else:
        div = Fraction if isinstance(kappa, (int, Fraction)) else (lambda n, d: n / d)

        def step(prev, prev2, b, c):
            term = kappa * prev
            if prev2 is not None:
                term = term + div(*b) * prev2
            return term / div(*c)
        prev = div(1, 1)
    prev2 = None
    for j in itertools.count(1):
        yield prev
        prev, prev2 = step(prev, prev2, b_at(j), c_at(j)), prev


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
    The parameters are always exact: a float one is its binary value. The
    output's arithmetic follows kappa alone: None carries it as a formal symbol
    (exact Poly output, built from integer coefficients over one common
    denominator), an int or Fraction gives Fractions, and at a float kappa each
    b_j and c_j enters as one int / int division, rounded once.
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
    return _kappa_poly(next(itertools.islice(_recurrence(None, 2 * (n - 1), abs(m)), n, None)))


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

    Frequencies follow from positive roots of the quantization polynomial in
    s = kappa^2; rational roots are kept exact so omega_tilde = Z^2 / s stays
    an exact Fraction where the closed forms are rational. Each branch's
    chamber follows from its rank k among the B branches: B - 1 - k for
    Z > 0 and n - B + k for Z < 0. At integer |m| the chambers of all B
    branches are solved together, in one damped Newton, and every branch
    carries its roots, exact frequency or not; raises EquilibriumError when a
    chamber does not converge or misses its kappa.
    """
    return _with_roots(_exact_branches(n, m, Z))


def _exact_branches(n: int, m, Z) -> list[QuantizationBranch]:
    """solve_frequencies without the Stieltjes roots: every branch's roots array is empty."""
    if n < 1:
        raise ValueError("n must be >= 1")
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
    which chambers are solved together. A step costs a fixed number of numpy
    calls: the chamber test is one sign pattern and one order test, and the
    halving and finiteness tests run only for a step that leaves a chamber.
    """
    chambers = np.asarray(chambers)
    n_neg, j = (N - chambers)[:, None], np.arange(N)
    neg = j < n_neg
    s = math.sqrt(2 * N + 2 * nu + 1)
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
                active = active[~finite]
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
            active, z, sign = active[~done], z[~done], sign[~done]
            if not len(active):
                return out
    raise EquilibriumError(f"damped Newton did not converge in {_NEWTON_STEPS} steps on the "
                           f"chamber N+ = {chambers[active[0]]} of N = {N} roots (nu = {nu})")


def _with_roots(branches: list[QuantizationBranch]) -> list[QuantizationBranch]:
    """The branches of one (n, m, Z), each carrying its roots when |m| is an integer.

    Their chambers are solved together (_equilibria), and kappa = -2 sum(zeta)
    ties each chamber to its branch: raises EquilibriumError unless
    |-2 sum(zeta) - kappa| <= 1e-12 |kappa|.
    """
    first = branches[0]
    if not float(first.m_abs).is_integer():
        return branches   # build_wavefunction builds no state at non-integer |m|
    zeta = _equilibria(first.n - 1, float(first.m_abs) + 0.5, [b.chamber for b in branches])
    out = []
    for b, row in zip(branches, zeta):
        defect = abs(-2.0 * math.fsum(row.tolist()) - b.kappa)
        bound = _KAPPA_TOL * abs(b.kappa)
        if not defect <= bound:
            raise EquilibriumError(
                f"the chamber N+ = {b.chamber} of (n, m) = ({b.n}, {b.m}) gives "
                f"|-2 sum(zeta) - kappa| = {defect:.3e}, above its bound {bound:.3e}")
        roots = row / math.sqrt(b.omega_tilde)
        roots.flags.writeable = False
        out.append(replace(b, roots=roots))
    return out


def build_wavefunction(branch: QuantizationBranch) -> RadialWavefunction:
    """Normalized u for a branch with integer |m|, from the n - 1 roots of its p.

    p is prod(1 - r / r_k) on the branch's own roots array, which
    solve_frequencies found as the Stieltjes equilibrium of the branch's
    chamber; a branch that carries none (as _exact_branches gives it) has its
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
        branch = _with_roots([branch])[0]
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
