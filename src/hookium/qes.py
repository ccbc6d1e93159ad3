"""Sextic oscillator with a centrifugal barrier and its bridge to the trap problem.

The Hamiltonian

    H = -d^2/(2 dx^2) + alpha x^2/2 + gamma x^6/2 + m(m+1)/(2 x^2)

is quasi-exactly solvable: with alpha pinned by qes_condition, a finite
polynomial sector of eigenstates exists in closed form. The substitution
x^2 = r turns H into the radial trap equation, giving an exact dictionary
between the two problems. Levels outside the polynomial sector come from
Rayleigh-Ritz on the basis psi0 x^(2j), whose matrices are Gamma moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hooke import RadialWavefunction, _is_rational, recurrence_coefficients
from .polyops import Poly, exact_sqrt, real_roots, sturm_count
from .series import PowerSeries

__all__ = [
    "BracketError",
    "HookeEquivalence",
    "InverseMap",
    "NodeCountUnreachable",
    "SexticParams",
    "SexticWavefunction",
    "VariationalState",
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
    """The truncation gives no level whose eigen series has the requested number of nodes."""


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
    """Couplings of the sextic oscillator; gamma > 0 keeps the ground factor normalizable."""

    alpha: float
    gamma: float
    m: float = 0.0

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")

    @property
    def sqrt_gamma(self):
        return _sqrt_exact_or_float(self.gamma)

    @property
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
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    sg = _sqrt_exact_or_float(gamma)
    return -sg * (2 * n + 2 * m + 5)


def _sector_coefficients(p: SexticParams, kappa, count: int) -> list:
    """c_0..c_{count-1}, the x^(2j) coefficients of the reduced eigen-series.

    Under x^2 = r the eigen-equation is the trap recurrence with kappa = -E/2,
    omega = sqrt(gamma)/2, 2|m~| = m + 1/2 and e_tilde = -A/sqrt(gamma); the
    coefficients stay exact rationals when sqrt(gamma), A and m are rational.
    """
    sg, A = p.sqrt_gamma, p.A
    if isinstance(sg, Fraction) and isinstance(A, Fraction) and _is_rational(p.m):
        m_tilde = (2 * Fraction(p.m) + 1) / 4
    else:
        sg, A, m_tilde = float(sg), float(A), (2.0 * float(p.m) + 1.0) / 4.0
    return recurrence_coefficients(kappa, -A / sg, m_tilde, count, sg / 2)


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
    c = _sector_coefficients(p, -(Fraction(E) if isinstance(E, int) else E) / 2, N // 2 + 1)
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
    """Exact eigenvalues of the closed polynomial sector, ascending.

    The sector recurrence run with symbolic E gives c_{d+1}(E); its real roots
    are the sector energies.
    """
    d = sector_degree(p)
    if d is None:
        raise ValueError("parameters do not close a polynomial sector (A is not -2d sqrt(gamma))")
    c = _sector_coefficients(p, -Poly.symbol() / 2, d + 2)
    rational, irrational = real_roots(c[d + 1])
    return sorted([float(r) for r in rational] + list(irrational))


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


def sextic_state_to_hooke(p: SexticParams, E: float, series: PowerSeries) -> RadialWavefunction:
    """Carry psi0 * series through x^2 = r into a radial trap profile.

    The even series in x becomes a polynomial in r; exponents and Gaussian
    widths follow the dictionary. The result is unnormalized (norm = 1), which
    residual checks do not care about.
    """
    eq = map_to_hooke(p, E)
    coeffs = [float(series.coefficient(2 * j)) for j in range(int(series.max_exponent) // 2 + 1)]
    return RadialWavefunction(m_abs=eq.m_tilde, omega=eq.omega_tilde, Z=eq.Z,
                              eps_rel=eq.eps_rel, poly=Poly(coeffs), norm=1.0, branch=None)


def hooke_state_to_sextic(wf: RadialWavefunction) -> SexticWavefunction:
    """Carry a radial trap profile through r = x^2 into a sextic-side function."""
    coeffs = []
    for c in wf.poly.coeffs:
        coeffs.append(float(c))
        coeffs.append(0.0)
    if coeffs:
        coeffs.pop()
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
    if series.is_zero():
        return 0
    if any(c and (e < 0 or e % 2) for e, c in zip(series.exponents(), series.coeffs)):
        raise ValueError("node_count needs a series in nonnegative even powers of x")
    q = Poly([series.coefficient(e) for e in range(0, int(series.max_exponent) + 1, 2)])
    return sturm_count(q, Fraction(lo) ** 2, hi if hi == math.inf else Fraction(hi) ** 2)


@dataclass(frozen=True)
class VariationalState:
    """The target_nodes-th Rayleigh-Ritz level and the eigen series evaluated there.

    residual_norm is R(E_star) = ||(H - E_star) psi||^2 / ||psi||^2 for that
    series truncated at x^N; node_count counts its zeros on (0, x_max).
    """

    E_star: float
    series: PowerSeries
    node_count: int
    residual_norm: float


def _x_max(p: SexticParams) -> float:
    # nodes are counted on (0, x_max): beyond it psi0^2 = x^(2m+2) exp(-sqrt(gamma) x^4 / 2)
    # is below 1e-18, so sign changes of the trial series there carry no weight
    return (36.0 * math.log(10.0) / math.sqrt(p.gamma)) ** 0.25 + 1.0


def _moments(p: SexticParams, count: int) -> np.ndarray:
    """mu_k = int_0^inf psi0^2 x^k dx for k = 0..count-1.

    With psi0^2 = x^(2m+2) exp(-b x^4), b = sqrt(gamma)/2, this is the Gamma
    moment Gamma(q) / (4 b^q), q = (2m + 3 + k)/4.
    """
    from scipy import special   # imported where used: a cold `import hookium` skips SciPy

    q = (2.0 * float(p.m) + 3.0 + np.arange(count)) / 4.0
    if q[0] <= 0:
        raise ValueError("psi0^2 is not integrable at x = 0 for m <= -3/2")
    b = float(p.sqrt_gamma) / 2.0
    return special.gamma(q) / (4.0 * b**q)


def _inner(p: SexticParams, f: PowerSeries, g: PowerSeries) -> float:
    """<f, g> = int_0^inf psi0^2 f g dx for polynomial series f, g (zero if either is)."""
    if f.is_zero() or g.is_zero():
        return 0.0
    fg = np.convolve([float(c) for c in f.coeffs], [float(c) for c in g.coeffs])
    lo = int(f.base + g.base)
    return float(fg @ _moments(p, lo + fg.size)[lo:])


def _trial_state(p: SexticParams, E, N: int):
    """Trial series u, residual series (H - E) u and ||psi||^2, psi = psi0 * u.

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
    return u, resid, _inner(p, u, u)


def _residual_functional(p: SexticParams, E: float, N: int):
    """R(E) = ||(H - E) psi||^2 / ||psi||^2 with psi = psi0 * truncated eigen series."""
    u, resid, norm = _trial_state(p, E, N)
    return _inner(p, resid, resid) / norm, u, norm


def rayleigh_quotient(p: SexticParams, E: float, N: int) -> float:
    """<psi_E|(H - E)|psi_E> / <psi_E|psi_E> for the truncated eigen series at E."""
    u, resid, norm = _trial_state(p, E, N)
    return _inner(p, u, resid) / norm


# Cholesky pivots of the unit-diagonal Gram matrix (each basis function's squared
# distance from the span of the earlier ones) shrink about 5x per function down
# to ~1e-11, where rounding in the Gamma moments takes over. Past that point the
# generalized eigenvalues go spurious: cut only where S stops being positive
# definite (15-18 functions for m in {-1/2, 0, 1}), 89 of the 1,890 sector-grid
# searches returned levels off by up to 58 and 14 raised LinAlgError. Keeping
# pivots >= 1e-10 leaves 14 functions at m = -1/2 and 0, 13 at m = 1, 11 at m = 10.
_RITZ_PIVOT_FLOOR = 1e-10


def _ritz_levels(p: SexticParams, N: int) -> np.ndarray:
    """Rayleigh-Ritz values of H on the basis psi0 x^(2j), j = 0..N//2, ascending.

    With the moment vector mu of _moments, S_ij = <x^(2i), x^(2j)> = mu_(2i+2j) and,
    as H_red x^(2j) = -j (2j+1+2m) x^(2j-2) + (2j sqrt(gamma) + A) x^(2j+2),
    H_ij = <x^(2i), H_red x^(2j)> = -j (2j+1+2m) mu_(2i+2j-2) + (2j sqrt(gamma) + A) mu_(2i+2j+2).
    The k-th value bounds the k-th level from above and is exact once the basis
    holds the sector state (Hylleraas-Undheim, MacDonald). S is scaled to unit
    diagonal, and the basis stops at the first Cholesky pivot of S below
    _RITZ_PIVOT_FLOOR, so a large N can return fewer than N//2 + 1 values.
    """
    from scipy import linalg

    sg, A, m = float(p.sqrt_gamma), float(p.A), float(p.m)
    size = N // 2 + 1
    j = np.arange(size)
    mu = _moments(p, 4 * size - 1)
    k = 2 * (j[:, None] + j)
    S = mu[k]
    # the x^(2j-2) term vanishes at j = 0, where mu_0 only stands in for mu_(-2)
    H = -j * (2 * j + 1 + 2 * m) * mu[np.maximum(k - 2, 0)] + (2 * j * sg + A) * mu[k + 2]
    scale = 1.0 / np.sqrt(np.diag(S))
    S, H = S * np.outer(scale, scale), H * np.outer(scale, scale)
    L, info = linalg.lapack.dpotrf(S, lower=1)  # info > 0: the block of order info is not PD
    pivots = np.diag(L)[:info - 1 if info else size] ** 2
    small = np.flatnonzero(pivots < _RITZ_PIVOT_FLOOR)
    keep = small[0] if small.size else pivots.size
    return linalg.eigh(H[:keep, :keep], S[:keep, :keep], eigvals_only=True)


def variational_state(p: SexticParams, target_nodes: int, N: int,
                      E_bracket: tuple | None = None, *, scan_points=None) -> VariationalState:
    """The level with target_nodes nodes, as a Rayleigh-Ritz value on <= N//2 + 1 functions.

    E_star is the target_nodes-th value of _ritz_levels(p, N); the eigen series
    through x^N at E_star must have target_nodes zeros on (0, x_max). A given
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
    levels = _ritz_levels(p, N)
    if target_nodes >= len(levels):
        raise NodeCountUnreachable(
            f"truncation N={N} gives {len(levels)} Ritz levels, too few for {target_nodes} nodes")
    E_star = float(levels[target_nodes])
    if not lo <= E_star <= hi:
        raise BracketError(f"level {target_nodes} at E={E_star!r} lies outside [{lo!r}, {hi!r}]")
    r_star, u_star, _ = _residual_functional(p, E_star, N)
    nodes = node_count(u_star, (0.0, _x_max(p)))
    if nodes != target_nodes:
        raise NodeCountUnreachable(
            f"eigen series at Ritz level {target_nodes}, E={E_star!r}, has {nodes} nodes "
            f"at truncation N={N}")
    return VariationalState(E_star=E_star, series=u_star,
                            node_count=nodes, residual_norm=r_star)
