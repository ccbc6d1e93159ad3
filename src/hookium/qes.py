"""Sextic oscillator with a centrifugal barrier and its bridge to the trap problem.

The Hamiltonian

    H = -d^2/(2 dx^2) + alpha x^2/2 + gamma x^6/2 + m(m+1)/(2 x^2)

is quasi-exactly solvable: with alpha pinned by qes_condition, a finite
polynomial sector of eigenstates exists in closed form. The substitution
x^2 = r turns H into the radial trap equation, giving an exact dictionary
between the two problems. For energies outside the polynomial sector a
variational estimator minimizes the normalized operator residual over E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import optimize as _sciopt
from scipy import special as _special

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
    """No energy in the bracket produces the requested number of nodes."""


class BracketError(RuntimeError):
    """The residual functional has no interior minimum on the bracket."""


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
        if self.gamma <= 0:
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

    def ground_factor(self, x):
        """psi0 = x^(m+1) exp(-sqrt(gamma) x^4 / 4); the similarity weight."""
        x = np.asarray(x, dtype=float)
        out = x ** (self.m + 1) * np.exp(-float(self.sqrt_gamma) * x**4 / 4.0)
        return out if out.ndim else float(out)


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
        ds = self.s.derivative()(x)
        dds = self.s.derivative().derivative()(x)
        a = self.a
        w = x**a * s
        wd = x ** (a - 1) * (a * s + x * ds)
        wdd = x ** (a - 2) * (a * (a - 1) * s + 2 * a * x * ds + x * x * dds)
        gp = sg * x**3
        gpp = 3.0 * sg * x * x
        out = self.norm * np.exp(-sg * x**4 / 4.0) * (wdd - 2 * gp * wd + (gp * gp - gpp) * w)
        return out if out.ndim else float(out)


def _even_series_to_poly(series: PowerSeries) -> Poly:
    """Dense x-polynomial from an even power series based at 0."""
    if series.is_zero():
        return Poly()
    top = int(series.max_exponent)
    coeffs = [0.0] * (top + 1)
    for e in series.exponents():
        coeffs[int(e)] = series.coefficient(e)
    return Poly(coeffs)


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
    """Sign changes of the series' polynomial part inside the open interval.

    Exact Sturm count for rational coefficients. For float coefficients a dense
    sign scan is used instead of companion-matrix roots: truncated trial series
    have high degree, and near-real complex pairs would inflate the count.
    """
    lo, hi = domain
    if series.is_zero():
        return 0
    if not all(int(e) == e for e in series.exponents()):
        raise ValueError("series with non-integer exponents has no polynomial part")
    poly = _even_series_to_poly(series)
    if poly.degree < 1:
        return 0
    if series.coefficient_kind == "exact-rational":
        hi_x = hi if hi == math.inf else Fraction(hi)
        return sturm_count(poly.as_fractions(), Fraction(lo) if lo != -math.inf else -math.inf, hi_x)
    if hi == math.inf:
        _, roots = real_roots(poly)
        hi = max((r for r in roots if r > lo), default=float(lo) + 1.0) + 1.0
    xs = np.linspace(float(lo), float(hi), 4096)
    vals = poly(xs[1:-1])
    return int(np.sum(np.signbit(vals[1:]) != np.signbit(vals[:-1])))


@dataclass(frozen=True)
class VariationalState:
    """Outcome of the residual-minimizing energy search."""

    E_star: float
    series: PowerSeries
    node_count: int
    residual_norm: float


def _x_max(p: SexticParams) -> float:
    # nodes are counted on (0, x_max): beyond it psi0^2 = x^(2m+2) exp(-sqrt(gamma) x^4 / 2)
    # is below 1e-18, so sign changes of the trial series there carry no weight
    return (36.0 * math.log(10.0) / math.sqrt(p.gamma)) ** 0.25 + 1.0


def _inner(p: SexticParams, f: PowerSeries, g: PowerSeries) -> float:
    """<f, g> = int_0^inf psi0^2 f g dx for polynomial series f, g (neither zero).

    With psi0^2 = x^(2m+2) exp(-b x^4), b = sqrt(gamma)/2, the pair x^i, x^j
    contributes the Gamma moment Gamma(k) / (4 b^k), k = (2m + 3 + i + j)/4.
    """
    fg = np.convolve([float(c) for c in f.coeffs], [float(c) for c in g.coeffs])
    k = (2.0 * float(p.m) + 3.0 + float(f.base + g.base) + np.arange(fg.size)) / 4.0
    if k[0] <= 0:
        raise ValueError("psi0^2 is not integrable at x = 0 for m <= -3/2")
    b = float(p.sqrt_gamma) / 2.0
    return float(fg @ (_special.gamma(k) / (4.0 * b**k)))


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
    if resid.is_zero():
        return 0.0, u, norm
    return _inner(p, resid, resid) / norm, u, norm


def rayleigh_quotient(p: SexticParams, E: float, N: int) -> float:
    """<psi_E|(H - E)|psi_E> / <psi_E|psi_E>; zero-crossings locate candidate energies."""
    u, resid, norm = _trial_state(p, E, N)
    if resid.is_zero():
        return 0.0
    return _inner(p, u, resid) / norm


def _default_bracket(p: SexticParams) -> tuple:
    levels = sector_energies(p)
    if len(levels) < 2:
        raise ValueError("no default bracket: sector has fewer than two exact levels")
    spacing = max(b - a for a, b in zip(levels, levels[1:]))
    return (0.0, 3.0 * spacing)


def variational_state(p: SexticParams, target_nodes: int, N: int,
                      E_bracket: tuple | None = None, *, scan_points: int = 33,
                      tol: float = 1e-10) -> VariationalState:
    """Minimize R(E) over energies whose trial state has the requested node count.

    A scan over the bracket finds the window with target_nodes zeros of the
    trial series on (0, x_max); the window's interior residual minimum is then
    refined by bounded golden-section/parabolic search to `tol` in E.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    if scan_points < 2:
        raise ValueError("scan_points must be >= 2")
    if E_bracket is None:
        E_bracket = _default_bracket(p)
    lo, hi = float(E_bracket[0]), float(E_bracket[1])
    if not hi > lo:
        raise ValueError("empty bracket")
    x_max = _x_max(p)
    Es = np.linspace(lo, hi, scan_points)
    matches = []
    for Ev in Es:
        u = qes_eigen_series(float(Ev), p, N)
        if node_count(u, (0.0, x_max)) == target_nodes:
            matches.append(float(Ev))
    if not matches:
        raise NodeCountUnreachable(
            f"no E in [{lo!r}, {hi!r}] gives {target_nodes} nodes at truncation N={N}")
    rvals = {}
    for Ev in matches:
        rvals[Ev], _, _ = _residual_functional(p, Ev, N)
    best = min(matches, key=lambda e: rvals[e])
    step = (hi - lo) / (scan_points - 1)
    left, right = max(best - step, lo), min(best + step, hi)
    r_left = _residual_functional(p, left, N)[0] if left < best else math.inf
    r_right = _residual_functional(p, right, N)[0] if right > best else math.inf
    if rvals[best] > min(r_left, r_right):
        raise BracketError("residual functional has no interior minimum near the node window")
    # the quotient <psi|(H-E)psi>/<psi|psi> crosses zero linearly where the
    # residual bottoms out quadratically, so its root is the sharper locator
    rq_l = rayleigh_quotient(p, left, N)
    rq_r = rayleigh_quotient(p, right, N)
    if rq_l == 0.0:
        E_star = left
    elif rq_r == 0.0:
        E_star = right
    elif rq_l * rq_r < 0:
        E_star = float(_sciopt.brentq(lambda e: rayleigh_quotient(p, float(e), N),
                                      left, right, xtol=tol))
    else:
        res = _sciopt.minimize_scalar(
            lambda e: _residual_functional(p, float(e), N)[0],
            bounds=(left, right), method="bounded", options={"xatol": tol})
        E_star = float(res.x)
        # a result hugging the user's bracket edge means the true minimum
        # lies outside the bracket, not that the search converged there
        edge_pad = max(100.0 * tol, 1e-6 * (hi - lo))
        if E_star - lo < edge_pad or hi - E_star < edge_pad:
            raise BracketError(
                f"residual minimum pinned at bracket edge near E={E_star!r}; widen E_bracket")
    r_star, u_star, _ = _residual_functional(p, E_star, N)
    nodes = node_count(u_star, (0.0, x_max))
    if nodes != target_nodes:
        raise NodeCountUnreachable(
            f"refined energy {E_star!r} drifted to {nodes} nodes (wanted {target_nodes})")
    return VariationalState(E_star=E_star, series=u_star.truncated(N),
                            node_count=nodes, residual_norm=r_star)
