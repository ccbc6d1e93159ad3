"""Sextic oscillator with a centrifugal barrier and its bridge to the trap problem.

The Hamiltonian

    H = -d^2/(2 dx^2) + alpha x^2/2 + gamma x^6/2 + m(m+1)/(2 x^2)

is quasi-exactly solvable: with alpha pinned by qes_condition, a finite
polynomial sector of eigenstates exists in closed form. The substitution
x^2 = r turns H into the radial trap equation, giving an exact dictionary
between the two problems. Levels outside the polynomial sector come from
Rayleigh-Ritz on psi0 q_j(x^2), with q_j orthonormal on one Gauss rule for
psi0^2 dx; the same rule gives the Ritz vector's node count and the trial
state's norm and residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .hooke import RadialWavefunction, _is_rational, _jacobi, recurrence_coefficients
from .integrate import _GL_W, _GL_X
from .polyops import Poly, _derivative, _polish, exact_sqrt, sturm_count
from .series import PowerSeries

__all__ = [
    "BracketError",
    "HookeEquivalence",
    "InverseMap",
    "NodeCountUnreachable",
    "SexticParams",
    "SexticWavefunction",
    "VariationalState",
    "condition_residual",
    "hooke_state_to_sextic",
    "map_from_hooke",
    "map_to_hooke",
    "node_count",
    "qes_condition",
    "qes_eigen_series",
    "rayleigh_quotient",
    "sector_degree",
    "sector_energies",
    "sextic_residual",
    "sextic_state_to_hooke",
    "variational_state",
]


class NodeCountUnreachable(RuntimeError):
    """The truncation gives no Ritz level whose vector has the requested number of nodes."""


class BracketError(RuntimeError):
    """The requested level lies outside the given energy bracket."""


def _sqrt_exact_or_float(value):
    if _is_rational(value):
        root = exact_sqrt(Fraction(value))
        if root is not None:
            return root
    return math.sqrt(value)


@dataclass(frozen=True)
class SexticParams:
    """Couplings of the sextic oscillator; gamma > 0 keeps the ground factor normalizable.

    sqrt_gamma and A are computed once, on first read, outside ==, hash and replace.
    The sector recurrence takes them and m exactly, a float one at its binary
    value, so the series' arithmetic follows the energy alone.
    """

    alpha: float
    gamma: float
    m: float = 0.0

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        for name in ("alpha", "m"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")

    @cached_property
    def sqrt_gamma(self):
        return _sqrt_exact_or_float(self.gamma)

    @cached_property
    def A(self):
        """Quadratic coefficient of the similarity-reduced operator."""
        sg = self.sqrt_gamma
        alpha = Fraction(self.alpha) if isinstance(self.alpha, int) else self.alpha
        return alpha / 2 + 3 * sg / 2 + (self.m + 1) * sg


def qes_condition(n: int, m, gamma) -> float:
    """The alpha that closes an n-indexed polynomial sector.

    alpha = -sqrt(gamma) (2n + 2m + 5), equivalently A = -n sqrt(gamma).
    A terminating polynomial state exists only for even n (degree n in x^2
    terms is n/2); odd n pins alpha without producing a closed state.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    sg = _sqrt_exact_or_float(gamma)
    return -sg * (2 * n + 2 * m + 5)


def _sector_arguments(p: SexticParams):
    """(e_tilde, m~, omega) of the sector recurrence: the trap's, under x^2 = r.

    The eigen-equation is the trap recurrence with kappa = -E/2, omega =
    sqrt(gamma)/2, 2|m~| = m + 1/2 and e_tilde = -A/sqrt(gamma). These are
    exact, a float sqrt(gamma), A or m at its binary value, so the series'
    arithmetic follows kappa alone (see recurrence_coefficients).
    """
    sg, A = Fraction(p.sqrt_gamma), Fraction(p.A)
    return -A / sg, (2 * Fraction(p.m) + 1) / 4, sg / 2


def qes_eigen_series(E, p: SexticParams, N: int) -> PowerSeries:
    """Even power series, exact through x^N, solving the reduced eigen-equation.

    Its coefficients solve (H_reduced - E) u = 0 order by order, with the
    similarity-reduced operator H_reduced = -d^2/2 + sqrt(gamma) x^3 d + A x^2
    - (m+1)(1/x) d; cutting the series leaves only the two terms written out in
    _trial_state. psi0 * u is then an eigenfunction candidate of the full
    sextic operator.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    e_tilde, m_tilde, omega = _sector_arguments(p)
    kappa = -(Fraction(E) if isinstance(E, int) else E) / 2
    c = recurrence_coefficients(kappa, e_tilde, m_tilde, N // 2 + 1, omega)
    coeffs = [0] * (2 * len(c) - 1)
    coeffs[::2] = c
    return PowerSeries(0, coeffs)


def sector_degree(p: SexticParams) -> int | None:
    """Polynomial degree (in x^2) of the closed sector, or None when it does not close.

    Termination requires A = -2 d sqrt(gamma) with d a nonnegative integer.
    """
    d = -float(p.A) / (2.0 * float(p.sqrt_gamma))
    rounded = round(d)
    if rounded >= 0 and abs(d - rounded) < 1e-9:
        return rounded
    return None


def sector_energies(p: SexticParams) -> list[float]:
    """Eigenvalues of the closed polynomial sector, ascending.

    At the closing level n = d + 1 the sector polynomial c_n(E) is
    det(kappa I - J) / (c_1 ... c_n) in kappa = -E/2 (hooke._jacobi), with the
    parameters exact (a float one at its binary value). For m > -3/2 every
    beta_j > 0, so J is a real symmetric tridiagonal matrix and its n
    eigenvalues (eigvalsh) are real and simple. Each start E = -2 kappa is
    polished by exact Newton steps (polyops._polish) on c_n written in E,
    built on integers. At odd n the middle start is E = +0.0, a root of c_n.
    """
    d = sector_degree(p)
    if d is None:
        raise ValueError("parameters do not close a polynomial sector (A is not -2d sqrt(gamma))")
    if p.m <= -1.5:
        raise ValueError("the sector's Jacobi matrix needs m > -3/2")
    n, h = d + 1, (d + 1) // 2
    e_tilde, m_tilde, omega = _sector_arguments(p)
    B, D, r, c = _jacobi(e_tilde, m_tilde, n, omega)
    # c_n(E) = sum_k r[n][k] (-1/2)^(n-2k) E^(n-2k) / (D^k c) = P(E) / ((-2)^n D^h c), P on integers
    P = [0] * (n + 1)
    for k, x in enumerate(r[n]):
        P[n - 2 * k] = c.denominator * x * 4**k * D ** (h - k)
    starts = (-2.0 * np.linalg.eigvalsh(np.diag(np.sqrt([b / D for b in B]), -1))).tolist()
    if n % 2:   # the spectrum is symmetric about 0, so at odd n its middle is E = 0 exactly
        starts[h] = 0.0
    return sorted(_polish(P, _derivative(P), (-2) ** n * D**h * c.numerator, E) for E in starts)


@dataclass(frozen=True)
class HookeEquivalence:
    """Dictionary image of a sextic problem under x^2 = r.

    The sextic eigenvalue becomes the Coulomb coupling, the quadratic coupling
    becomes the energy, and the sextic coupling becomes the trap frequency.
    """

    omega_tilde: float
    Z: float
    m_tilde: float
    eps_rel: float


def map_to_hooke(p: SexticParams, E) -> HookeEquivalence:
    """x^2 = r dictionary: omega = sqrt(gamma)/2, Z = -E/2, eps = -alpha/8, m~ = (2m+1)/4."""
    return HookeEquivalence(
        omega_tilde=float(p.sqrt_gamma) / 2.0,
        Z=-float(E) / 2.0,
        m_tilde=(2.0 * float(p.m) + 1.0) / 4.0,
        eps_rel=-float(p.alpha) / 8.0,
    )


@dataclass(frozen=True)
class InverseMap:
    """Sextic parameters recovered from a trap-side state."""

    params: SexticParams
    E: float
    integer_sextic_m: bool


def map_from_hooke(source) -> InverseMap:
    """Inverse dictionary: gamma = 4 omega^2, E = -2Z, alpha = -8 eps_rel.

    Accepts a QuantizationBranch or a HookeEquivalence. The sextic centrifugal
    index is m = (4 m~ - 1)/2, which is integer only when m~ is an odd multiple
    of 1/4; integer trap m gives half-integer sextic m, flagged but returned.
    """
    m_tilde = getattr(source, "m_tilde", None)
    if m_tilde is None:
        m_tilde = abs(float(source.m))
    omega = float(source.omega_tilde)
    sextic_m = (4.0 * m_tilde - 1.0) / 2.0
    is_int = abs(sextic_m - round(sextic_m)) < 1e-12 and round(sextic_m) >= 0
    params = SexticParams(alpha=-8.0 * float(source.eps_rel),
                          gamma=4.0 * omega * omega,
                          m=float(round(sextic_m)) if is_int else sextic_m)
    return InverseMap(params=params, E=-2.0 * float(source.Z), integer_sextic_m=is_int)


def condition_residual(p: SexticParams, n: int) -> float:
    """|alpha/2 + 3 sqrt(gamma)/2 + (m+1) sqrt(gamma) + n sqrt(gamma)| = |A + n sqrt(gamma)|."""
    return abs(float(p.A) + n * float(p.sqrt_gamma))


@dataclass(frozen=True)
class SexticWavefunction:
    """psi(x) = norm * exp(-sqrt(gamma) x^4/4) x^a s(x), with s even (s(x) = q(x^2))."""

    gamma: float
    a: float
    s: Poly
    norm: float = 1.0

    def psi(self, x):
        x = np.asarray(x, dtype=float)
        sg = math.sqrt(self.gamma)
        out = self.norm * np.exp(-sg * x**4 / 4.0) * x**self.a * self.s(x)
        return out if out.ndim else float(out)

    def psi_second(self, x):
        x = np.asarray(x, dtype=float)
        sg = math.sqrt(self.gamma)
        s = self.s(x)
        ds_poly = self.s.derivative()
        ds, dds = ds_poly(x), ds_poly.derivative()(x)
        a = self.a
        w = x**a * s
        wd = x ** (a - 1) * (a * s + x * ds)
        wdd = x ** (a - 2) * (a * (a - 1) * s + 2 * a * x * ds + x * x * dds)
        gp = sg * x**3
        gpp = 3.0 * sg * x * x
        out = self.norm * np.exp(-sg * x**4 / 4.0) * (wdd - 2 * gp * wd + (gp * gp - gpp) * w)
        return out if out.ndim else float(out)


def sextic_residual(p: SexticParams, E: float, sw: SexticWavefunction, grid=None) -> float:
    """max |H psi - E psi| / max |psi| for the full sextic operator on the grid."""
    if grid is None:
        x_hi = (40.0 / math.sqrt(p.gamma)) ** 0.25
        grid = np.linspace(0.05, x_hi, 400)
    x = np.asarray(grid, dtype=float)
    psi = sw.psi(x)
    hpsi = -0.5 * sw.psi_second(x)
    hpsi = hpsi + (0.5 * p.alpha * x * x + 0.5 * p.gamma * x**6
                   + p.m * (p.m + 1) / (2.0 * x * x)) * psi
    return float(np.max(np.abs(hpsi - E * psi)) / np.max(np.abs(psi)))


def _in_y(series: PowerSeries) -> list:
    """Coefficients q_0..q_d of an even series read as a polynomial in y = x^2 ([] if zero).

    The coefficients keep their type, so an exact series gives an exact polynomial.
    """
    if series.is_zero():
        return []
    if series.base < 0 or series.base % 2 or any(series.coeffs[1::2]):   # coeffs[0] != 0
        raise ValueError("the series must hold nonnegative even powers of x only")
    return [0] * (series.base // 2) + list(series.coeffs[::2])


def sextic_state_to_hooke(p: SexticParams, E: float, series: PowerSeries) -> RadialWavefunction:
    """Carry psi0 * series through x^2 = r into a radial trap profile.

    The even series in x becomes a polynomial in r; exponents and Gaussian
    widths follow the dictionary. The result is unnormalized (norm = 1), which
    residual checks do not care about.
    """
    eq = map_to_hooke(p, E)
    coeffs = [float(c) for c in _in_y(series)]
    return RadialWavefunction(m_abs=eq.m_tilde, omega=eq.omega_tilde, Z=eq.Z,
                              eps_rel=eq.eps_rel, poly=Poly(coeffs), norm=1.0, branch=None)


def hooke_state_to_sextic(wf: RadialWavefunction) -> SexticWavefunction:
    """Carry a radial trap profile through r = x^2 into a sextic-side function."""
    coeffs = [0.0] * max(2 * len(wf.poly.coeffs) - 1, 0)
    coeffs[::2] = [float(c) for c in wf.poly.coeffs]
    return SexticWavefunction(gamma=4.0 * wf.omega * wf.omega,
                              a=2.0 * float(wf.m_abs) + 0.5,
                              s=Poly(coeffs), norm=wf.norm)


def node_count(series: PowerSeries, domain=(0.0, math.inf)) -> int:
    """Distinct zeros of an even polynomial series in the half-open interval (lo, hi], lo >= 0.

    The series is a polynomial q in y = x^2, and x -> x^2 maps (lo, hi] onto
    (lo^2, hi^2], so an exact count of q there (sturm_count) counts the zeros in x;
    float coefficients enter as their binary rationals.
    """
    lo, hi = domain
    if lo < 0:
        raise ValueError("node_count needs lo >= 0")
    q = _in_y(series)
    if not q:
        return 0
    return sturm_count(Poly(q), Fraction(lo) ** 2, hi if hi == math.inf else Fraction(hi) ** 2)


@dataclass(frozen=True)
class VariationalState:
    """The target_nodes-th Rayleigh-Ritz level on N//2 + 1 functions and the eigen series there.

    residual_norm is R(E_star) = ||(H - E_star) psi||^2 / ||psi||^2 for that
    series truncated at x^N; node_count counts the sign changes of the level's
    Ritz vector (see variational_state).
    """

    E_star: float
    series: PowerSeries
    node_count: int
    residual_norm: float


def _rule(p: SexticParams, degree: int):
    """Nodes y = x^2 and weights of psi0^2 dx = x^(2m+2) exp(-sqrt(gamma) x^4/2) dx.

    The 48-point Gauss-Legendre rule runs on 2 + degree // 32 equal panels over
    [0, x_end], where psi0^2 y^degree has fallen e^-60 below its peak, so the
    weighted sums hold polynomials in y of that degree. x^(2m+2) is smooth at
    x = 0 when 2m is an integer (every dictionary image of an integer trap m);
    otherwise the first panel is split into decades toward 0, until the piece
    left next to 0 holds a 1e-17 share of it. That takes ceil(17 / (2m + 3))
    decades; past 300 (2m + 3 < 17/300) the edges would leave the normal
    floats, so such an m raises ValueError.
    """
    m, sg = float(p.m), float(p.sqrt_gamma)
    if m <= -1.5:
        raise ValueError("psi0^2 is not integrable at x = 0 for m <= -3/2")
    # in t = sqrt(gamma) x^4 / 2 the integrand is t^c e^-t with c = (m + 1 + degree)/2, peaked
    # at t = c; at t = 2c + 120 it is e^-60 below the peak or less, as ln(2 + 2u) <= 1 + u
    t_end = m + 1.0 + degree + 120.0
    panels = 2 + degree // 32
    edges = np.linspace(0.0, (2.0 * t_end / sg) ** 0.25, panels + 1)
    if (2.0 * m) % 1:
        decades = math.ceil(17.0 / (2.0 * m + 3.0))
        if decades > 300:   # 10^-300 is the last decade edge that stays a normal float
            raise ValueError(f"m = {m!r} is too close to -3/2: a non-half-integer m "
                             f"needs 2m + 3 >= 17/300 (m >= -1.47166...)")
        edges = np.concatenate([[0.0], edges[1] * 10.0 ** -np.arange(decades, 0, -1.0), edges[1:]])
    half = 0.5 * np.diff(edges)[:, None]
    x = (edges[:-1, None] + half * (1.0 + _GL_X)).ravel()
    return x * x, (half * _GL_W).ravel() * x ** (2.0 * m + 2.0) * np.exp(-0.5 * sg * x**4)


def _trial_state(p: SexticParams, E, N: int):
    """Trial series u, residual series (H - E) u, and (<psi|psi>, <psi|(H - E)|psi>,
    ||(H - E) psi||^2) with psi = psi0 * u, from u and (H - E) u evaluated once on _rule.

    u is the eigen series through x^(2K), K = N // 2. The recurrence run two
    terms further gives c_(K+1), c_(K+2); the terms cut off leave, with 2m~ = m + 1/2,
    (H - E) u = 2 (K+1)(K+1+2m~) c_(K+1) x^(2K)
              + [2 (K+2)(K+2+2m~) c_(K+2) + E c_(K+1)] x^(2K+2),
    in the series' own arithmetic, so an exact level leaves the zero series.
    """
    K = N // 2
    extended = qes_eigen_series(E, p, 2 * K + 4)
    u = extended.truncated(2 * K)
    c1, c2 = extended.coefficient(2 * K + 2), extended.coefficient(2 * K + 4)
    two_m = Fraction(p.m) + Fraction(1, 2)  # exact; the coefficients' type decides the arithmetic
    resid = PowerSeries(2 * K, [2 * (K + 1) * (K + 1 + two_m) * c1, 0,
                                2 * (K + 2) * (K + 2 + two_m) * c2 + E * c1])
    y, w = _rule(p, 2 * K + 2)
    uy, ry = (np.polyval([float(c) for c in reversed(_in_y(s))], y) for s in (u, resid))
    return u, resid, (float((w * uy) @ uy), float((w * uy) @ ry), float((w * ry) @ ry))


def rayleigh_quotient(p: SexticParams, E: float, N: int) -> float:
    """<psi_E|(H - E)|psi_E> / <psi_E|psi_E> for the truncated eigen series at E."""
    _, _, (norm, shifted, _) = _trial_state(p, E, N)
    return shifted / norm


def _ritz_matrix(p: SexticParams, N: int):
    """H on psi0 q_j(x^2), j = 0..N//2, with the q_j on the nodes of _rule and its weights.

    The q_j are polynomials in y = x^2, orthonormal on _rule by the discretized
    Stieltjes procedure (Gautschi 2004): q_0 is constant and b_(j+1) q_(j+1) =
    (y - a_j) q_j - b_j q_(j-1), with a_j = <y q_j, q_j> and b_(j+1) the norm of
    the right side; its derivative carries q_j' = dq_j/dy along. They span the
    monomials x^(2j), so S = I, and as H_red = -(1/(2 psi0^2)) d/dx psi0^2 d/dx
    + A x^2, integrating by parts gives H_ij = 2 <y q_i', q_j'> + A <y q_i, q_j>.
    The k-th eigenvalue of H bounds the k-th level from above and is exact once
    the basis holds the sector state (Hylleraas-Undheim, MacDonald).
    """
    size = N // 2 + 1
    y, w = _rule(p, 2 * size)
    q, dq = np.zeros((size, y.size)), np.zeros((size, y.size))
    q[0], b = 1.0 / math.sqrt(w.sum()), 0.0
    for j in range(size - 1):   # at j = 0, b = 0 drops the q_(j-1) terms
        a = (w * y * q[j]) @ q[j]
        v = (y - a) * q[j] - b * q[j - 1]
        dv = q[j] + (y - a) * dq[j] - b * dq[j - 1]
        b = math.sqrt((w * v) @ v)
        q[j + 1], dq[j + 1] = v / b, dv / b
    wy = w * y
    return 2.0 * (dq * wy) @ dq.T + float(p.A) * (q * wy) @ q.T, q, w


def variational_state(p: SexticParams, target_nodes: int, N: int,
                      E_bracket: tuple | None = None, *, scan_points=None) -> VariationalState:
    """The level with target_nodes nodes, as a Rayleigh-Ritz value on N//2 + 1 functions.

    E_star is the target_nodes-th eigenvalue of _ritz_matrix(p, N) (eigvalsh);
    its Ritz vector u = sum_j v_j q_j must change sign target_nodes times on
    the rule's nodes, in ascending y, among those where |u| sqrt(w) is at least
    1e-12 of its largest value (past them the state carries no weight, and the
    basis functions' own tails would add spurious sign changes). A given
    E_bracket only checks that it contains E_star. scan_points is accepted and
    unused (there is no energy scan).
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    if target_nodes < 0:
        raise ValueError(f"target_nodes must be >= 0, got {target_nodes}")
    lo, hi = (-math.inf, math.inf) if E_bracket is None else map(float, E_bracket)
    if not hi > lo:
        raise ValueError("empty bracket")
    H, q, w = _ritz_matrix(p, N)
    if target_nodes >= len(H):
        raise NodeCountUnreachable(
            f"truncation N={N} gives {len(H)} Ritz levels, too few for {target_nodes} nodes")
    # eigh's eigenvalues differ from eigvalsh's in the last bits, so the level comes from eigvalsh
    E_star = float(np.linalg.eigvalsh(H)[target_nodes])
    if not lo <= E_star <= hi:
        raise BracketError(f"level {target_nodes} at E={E_star!r} lies outside [{lo!r}, {hi!r}]")
    u = np.linalg.eigh(H)[1][:, target_nodes] @ q
    weighted = np.abs(u) * np.sqrt(w)
    nodes = int(np.count_nonzero(np.diff(np.signbit(u[weighted >= 1e-12 * weighted.max()]))))
    if nodes != target_nodes:
        raise NodeCountUnreachable(
            f"Ritz vector {target_nodes}, E={E_star!r}, has {nodes} nodes at truncation N={N}")
    u_star, _, (norm, _, resid2) = _trial_state(p, E_star, N)
    return VariationalState(E_star=E_star, series=u_star,
                            node_count=nodes, residual_norm=resid2 / norm)
