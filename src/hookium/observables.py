"""Pair correlation, single-particle density, and information entropy.

The relative-motion profile u fixes the pair correlation G = u^2/(2 pi r).
Folding G with the Gaussian center-of-mass cloud gives the single-particle
density n(r), computed here two independent ways: a closed catalog of
exponential-Bessel expressions, and direct convolution by a vectorized
Gauss-Legendre rule (with the angular integral done analytically or
numerically). Entropy
profiles and totals are Shannon functionals of these densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hooke import (
    CenterOfMassState,
    QuantizationBranch,
    RadialWavefunction,
    _RootProduct,
    _solve_lattice,
    _u2_range,
    build_wavefunction,
    solve_frequencies,
)
from .integrate import _GL_W, _GL_X, QuadratureNonConvergence, _check_budget, gauss_legendre

__all__ = [
    "CATALOG",
    "ClosedFormDensityCase",
    "CmWidthFit",
    "DensityComparison",
    "DensityProfile",
    "EntropyProfile",
    "EntropyScanRow",
    "EntropySurface",
    "bessel_i",
    "closed_form_density",
    "compare_density_routes",
    "default_grid",
    "density_quadrature",
    "entropy_density",
    "entropy_scan",
    "entropy_surface",
    "fit_cm_width",
    "total_entropy",
]


def bessel_i(order: int, x, scaled: bool = False):
    """Modified Bessel function I_0 or I_1, optionally exponentially scaled.

    The scaled form e^(-x) I_nu(x) stays finite for the r^2-sized arguments
    the density expressions produce.
    """
    from scipy import special   # imported where used: a cold `import hookium` skips SciPy

    if order == 0:
        return special.i0e(x) if scaled else special.i0(x)
    if order == 1:
        return special.i1e(x) if scaled else special.i1(x)
    raise ValueError("order must be 0 or 1")


_BLOCK = 1 << 15   # float64 entries of one (rows x nodes) block; its temporaries stay near 1 MiB


def _rule_rows(f, rows, b: float, tol_abs: float, tol_rel: float):
    """Gauss rule of f(rows[:, None], nodes) over [0, b] per row, in blocks of about _BLOCK.

    Each block starts from one panel against two (3 x 48 nodes in f's first
    call, no more in its later ones) and doubles until every row is certified.
    """
    step = _BLOCK // (3 * 48)
    return np.concatenate([
        gauss_legendre(lambda x: f(rows[i:i + step, None], x), 0.0, b, panels=1,
                       tol_abs=tol_abs, tol_rel=tol_rel)[0]
        for i in range(0, rows.size, step)])


def default_grid(omega: float):
    """512 log-spaced radii on [1e-4, 12/sqrt(omega)]."""
    if not omega > 0:
        raise ValueError("omega must be positive")
    return np.geomspace(1e-4, 12.0 / math.sqrt(omega), 512)


@dataclass(frozen=True)
class DensityProfile:
    """Sampled radial density with its normalization bookkeeping."""

    grid: np.ndarray
    values: np.ndarray
    normalization_target: float
    method: str
    beta: float | None = None
    scale_applied: float = 1.0

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.ndim != 1 or g.size < 2 or not np.all(np.diff(g) > 0):   # NaN fails too
            raise ValueError("grid must be strictly increasing")


def _angular_mean(z, tol_abs: float, tol_rel: float):
    """(1/pi) int_0^pi exp(-z (1 - cos t)) dt for every element of z.

    Equals the scaled Bessel i0e(z); evaluated by the Gauss rule to give the
    density pipeline a route that never touches the Bessel implementation.
    The rule runs on s = t / t_max, with the integrand below e^-50 of its peak
    past t_max, so its nodes follow the peak's 1/sqrt(z) width. Every z <= 25
    has t_max = pi, so a block's rows share few cut-offs: 1 - cos(t_max s) is
    evaluated once per distinct t_max and gathered back to the rows, which
    gives the same values as evaluating it row by row.
    """
    def f(zs, s):
        t_max = np.arccos(np.maximum(1.0 - 50.0 / np.maximum(zs[:, 0], 25.0), -1.0))
        t_max, rows = np.unique(t_max, return_inverse=True)
        return t_max[rows, None] * np.exp(-zs * (1.0 - np.cos(t_max[:, None] * s))[rows])
    return _rule_rows(f, z.ravel(), 1.0, tol_abs, tol_rel).reshape(z.shape) / math.pi


def _radii(grid) -> np.ndarray:
    """The grid as a float array; ValueError for a negative, NaN or infinite radius.

    Every profile takes its radii through here: the convolution kernel's
    i0e(beta r r') = e^(-|beta r r'|) I_0(beta r r') holds for r >= 0 only.
    """
    grid = np.asarray(grid, dtype=float)
    if not np.all((grid >= 0.0) & (grid < math.inf)):
        raise ValueError("density radii must be >= 0 and finite")
    return grid


def _convolve(wf: RadialWavefunction, beta: float, r, angular: str,
              tol_abs: float, tol_rel: float):
    """n(r) = (2 beta/pi) int u(r')^2 exp(-beta (r - r'/2)^2) i0e(beta r r') dr' on an ndarray r.

    The kernel is at most 1, so the support of u^2 bounds r' for every r.
    """
    if angular not in ("bessel", "numeric"):
        raise ValueError("angular must be 'bessel' or 'numeric'")
    from scipy import special

    def f(rows, rp):
        z = beta * rows * rp
        mean = special.i0e(z) if angular == "bessel" else _angular_mean(z, tol_abs, tol_rel)
        return wf.u_squared(rp) * np.exp(-beta * (rows - 0.5 * rp) ** 2) * mean
    return (2.0 * beta / math.pi) * _rule_rows(f, r, _u2_range(wf), tol_abs, tol_rel)


def _convolve_slope(wf: RadialWavefunction, beta: float, r, tol_abs: float, tol_rel: float):
    """(n(r), dn/dbeta) of the Bessel-route convolution from one Gauss-rule pass.

    With d = r - r'/2 and z = beta r r', and d i0e(z)/dz = i1e(z) - i0e(z),
    dn/dbeta = (2/pi) int u^2 exp(-beta d^2) [i0e(z) (1 - beta d^2 - z) + z i1e(z)] dr'.
    Both integrands go to the rule as stacked rows, each certified under the budget.
    """
    from scipy import special

    def f(rows, rp):
        z = beta * rows * rp
        bd2 = beta * (rows - 0.5 * rp) ** 2
        weight, i0 = wf.u_squared(rp) * np.exp(-bd2), special.i0e(z)
        return np.stack([weight * i0, weight * (i0 * (1.0 - bd2 - z) + z * special.i1e(z))],
                        axis=1)
    value, slope = (2.0 / math.pi) * _rule_rows(f, r, _u2_range(wf), tol_abs, tol_rel).T
    return beta * value, slope


def density_quadrature(wf: RadialWavefunction, cm: CenterOfMassState, grid=None, *,
                       angular: str = "bessel", tol_abs: float = 1e-15,
                       tol_rel: float = 1e-12, normalize: bool = True) -> DensityProfile:
    """Single-particle density n(r) = 2 int |xi(R)|^2 |phi(r')|^2, by convolution.

    Reduces to n(r) = (2 beta/pi) int u(r')^2 exp(-beta (r - r'/2)^2) i0e(beta r r') dr'
    after the angular integral; `angular="numeric"` does that inner integral by
    quadrature instead of the Bessel identity. Every integral is a composite
    Gauss-Legendre rule, from one panel against two, doubled until two
    successive panel counts agree; raises QuadratureNonConvergence when the
    requested tolerance cannot be met by 64 panels, and ValueError for a
    negative or non-finite radius (the convolution holds for r >= 0 only).
    """
    grid = _radii(default_grid(wf.omega) if grid is None else grid)
    values = _convolve(wf, cm.beta, grid, angular, tol_abs, tol_rel)
    scale = 1.0
    if normalize:
        # n(r) <= (2 beta/pi) exp(-beta (r - r'/2)^2) for every r' in the support of u^2
        r_max = 0.5 * _u2_range(wf) + math.sqrt(80.0 / cm.beta)
        total, _ = gauss_legendre(
            lambda r: 2.0 * math.pi * r * _convolve(wf, cm.beta, r, angular, tol_abs, tol_rel),
            0.0, r_max, panels=1, tol_abs=1e-9, tol_rel=1e-8)
        scale = 2.0 / float(total)
    return DensityProfile(grid=grid, values=values * scale, normalization_target=2.0,
                          method=f"quadrature-{angular}", beta=cm.beta, scale_applied=scale)


@dataclass(frozen=True)
class ClosedFormDensityCase:
    """One cataloged density expression.

    value(r) = exp(-gauss r^2) * [Pe(r^2) + sign sqrt(root_factor pi)
               (P0(r^2) i0e(bessel_scale r^2) + P1(r^2) i1e(bessel_scale r^2))],
    already rewritten with scaled Bessels sharing one Gaussian, so it is finite
    for every r. Prefactors are unnormalized; `scale` normalizes them.
    branch_Z records the Coulomb sign of the wavefunction whose convolved
    density the expression reproduces; for n3m0Zp1 that is Z = -1 even though
    the case id carries the conventional +1 label (the id is kept verbatim;
    the comparison pipeline pairs it with the matching branch).

    `state` and `scale` are constants of the case, computed on first read and
    kept on the instance, so every reader in a process shares one solve, one
    build and one normalization integral per case.
    """

    case_id: str
    n: int
    m: int
    branch_Z: int
    gauss: float
    bessel_scale: float
    root_factor: float
    pe: tuple
    p0: tuple
    p1: tuple
    sign: int

    def raw(self, r):
        from scipy import special

        r = np.asarray(r, dtype=float)
        r2 = r * r
        pe = np.polynomial.polynomial.polyval(r2, self.pe)
        p0 = np.polynomial.polynomial.polyval(r2, self.p0)
        p1 = np.polynomial.polynomial.polyval(r2, self.p1)
        root = math.sqrt(self.root_factor * math.pi)
        z = self.bessel_scale * r2
        out = np.exp(-self.gauss * r2) * (
            pe + self.sign * root * (p0 * special.i0e(z) + p1 * special.i1e(z)))
        return out if out.ndim else float(out)

    @property
    def omega(self) -> float:
        """Relative-motion frequency of the matching branch, read off its state."""
        return self.state.omega

    def branch(self) -> QuantizationBranch:
        return solve_frequencies(self.n, self.m, self.branch_Z)[0]

    @cached_property
    def state(self) -> RadialWavefunction:
        """The normalized state of the matching branch, built on first read."""
        return build_wavefunction(self.branch())

    @cached_property
    def scale(self) -> float:
        """2 / int 2 pi r raw(r) dr: the factor that normalizes raw to 2 particles."""
        total, _ = gauss_legendre(lambda r: 2.0 * math.pi * r * self.raw(r), 0.0,
                                  math.sqrt(140.0 / self.gauss), panels=1,
                                  tol_abs=1e-12, tol_rel=1e-11)
        return 2.0 / float(total)


CATALOG: dict[str, ClosedFormDensityCase] = {
    c.case_id: c for c in (
        ClosedFormDensityCase(
            case_id="n2m0Zp1", n=2, m=0, branch_Z=+1,
            gauss=2 / 5, bessel_scale=1 / 20, root_factor=10.0,
            pe=(65.0, 4.0), p0=(10.0, 1.0), p1=(0.0, 1.0), sign=+1),
        ClosedFormDensityCase(
            case_id="n2m0Zm1", n=2, m=0, branch_Z=-1,
            gauss=2 / 5, bessel_scale=1 / 20, root_factor=10.0,
            pe=(65.0, 4.0), p0=(10.0, 1.0), p1=(0.0, 1.0), sign=-1),
        ClosedFormDensityCase(
            case_id="n2m1Zp1", n=2, m=1, branch_Z=+1,
            gauss=2 / 15, bessel_scale=1 / 60, root_factor=30.0,
            pe=(13950.0, 705.0, 4.0), p0=(1350.0, 90.0, 1.0), p1=(0.0, 60.0, 1.0), sign=+1),
        ClosedFormDensityCase(
            case_id="n3m0Zp1", n=3, m=0, branch_Z=-1,
            gauss=1 / 15, bessel_scale=1 / 120, root_factor=15.0,
            pe=(106425.0, 2160.0, 4.0), p0=(15300.0, 435.0, 2.0), p1=(0.0, 315.0, 2.0), sign=-1),
    )
}


def _catalog_case(case) -> ClosedFormDensityCase:
    """The CATALOG entry of a case id (a case passes through); KeyError lists the ids."""
    if not isinstance(case, str):
        return case
    try:
        return CATALOG[case]
    except KeyError:
        raise KeyError(f"unknown density case {case!r}; "
                       f"have {', '.join(sorted(CATALOG))}") from None


def closed_form_density(case, grid=None) -> DensityProfile:
    """Evaluate a cataloged expression on the grid, normalized to 2 particles.

    The normalization is the case's `scale`, integrated once per case.
    """
    case = _catalog_case(case)
    grid = _radii(default_grid(case.omega) if grid is None else grid)
    scale = case.scale
    return DensityProfile(grid=grid, values=case.raw(grid) * scale,
                          normalization_target=2.0, method="closed-form",
                          beta=None, scale_applied=scale)


# fit_cm_width's step cap. The safeguard ends the loop first: a bisection halves the
# bracket's log-width (33 take ln 100 below 1e-9) and a Newton step halves the step
# before last; fits at bracket ends and on mismatched references take at most 34 steps.
_FIT_STEPS = 100


@dataclass(frozen=True)
class CmWidthFit:
    """Fitted center-of-mass Gaussian width against a reference profile."""

    beta: float
    beta_convention: float
    objective: float


def fit_cm_width(wf: RadialWavefunction, reference) -> CmWidthFit:
    """Width beta that best matches `reference(r)` (a normalized density callable).

    The reference is sampled on 25 points over [0, 6], and the points where it
    is at least 1e-6 of its peak are compared. The fit minimizes the mean
    squared relative deviation of the convolved density there over
    [omega/10, 10 omega] by Gauss-Newton steps from beta = omega, the width the
    catalog profiles carry. One `_convolve_slope` pass per step gives
    rel = (n - ref) / ref and J = (dn/dbeta) / ref; the step is
    -mean(rel J) / mean(J^2), and the sign of mean(rel J) shrinks the bracket.
    As in Numerical Recipes' rtsafe, a step that leaves the bracket or is more
    than half the step before last becomes the step to its geometric midpoint.
    The fit stops once a step is at most 1e-9 beta. objective is the relative
    RMS deviation at the fitted beta; the convention value beta = 4 omega_tilde
    (the ground center-of-mass width) is reported alongside.
    Raises ValueError when a sample is not finite or none is positive, and
    QuadratureNonConvergence if _FIT_STEPS steps leave the fit unconverged.
    """
    pts = np.linspace(0.0, 6.0, 25)
    ref = np.asarray([reference(float(r)) for r in pts], dtype=float)
    if not np.all(np.isfinite(ref)) or not ref.max() > 0:
        raise ValueError("the reference density needs finite samples on [0, 6], "
                         "at least one of them positive")
    mask = ref >= 1e-6 * ref.max()
    ref = ref[mask]
    lo, hi = wf.omega / 10.0, 10.0 * wf.omega
    beta = wf.omega
    older = last = hi - lo
    for _ in range(_FIT_STEPS):
        q, dq = _convolve_slope(wf, beta, pts[mask], 1e-13, 1e-10)
        rel, jac = (q - ref) / ref, dq / ref
        grad = np.mean(rel * jac)
        if grad > 0:
            hi = beta
        elif grad < 0:
            lo = beta
        step = float(-grad / np.mean(jac * jac))
        if not lo <= beta + step <= hi or abs(step) > 0.5 * abs(older):
            step = math.sqrt(lo * hi) - beta
        older, last = last, step
        beta += step
        if abs(step) <= 1e-9 * beta:
            break
    else:
        raise QuadratureNonConvergence(f"CM-width fit took {_FIT_STEPS} steps without converging")
    rel = (_convolve(wf, beta, pts, "bessel", 1e-13, 1e-10)[mask] - ref) / ref
    return CmWidthFit(beta=beta, beta_convention=4.0 * wf.omega,
                      objective=math.sqrt(np.mean(rel * rel)))


@dataclass(frozen=True)
class DensityComparison:
    """Closed-form vs quadrature densities for one cataloged case."""

    case_id: str
    grid: np.ndarray
    closed: DensityProfile
    quadrature_values: np.ndarray
    max_rel_deviation: float
    fit: CmWidthFit | None
    beta_used: float


def compare_density_routes(case, grid=None, *, fit_width: bool = True,
                           angular: str = "bessel", tol_abs: float = 1e-15,
                           tol_rel: float = 1e-12) -> DensityComparison:
    """Evaluate both density routes for a cataloged case and measure agreement.

    The routes are compared at beta = omega_tilde, the width the catalog
    profiles carry; the deviation is the max relative difference where the
    density is at least 1e-8 of its peak. fit_width adds the CM width fitted
    to the closed form as its own report (fit), with no further convolution.
    tol_abs and tol_rel are the convolution's budget, as in density_quadrature.
    The state and the closed form's normalization are the case's own (`state`,
    `scale`), computed once per case, so a call convolves and evaluates only.
    Raises ValueError for a negative or non-finite radius, before any work,
    and when the convolution underflows to 0 at every grid point.
    """
    case = _catalog_case(case)
    grid = _radii(np.linspace(0.0, 8.0, 81) if grid is None else grid)
    wf = case.state
    quad_vals = _convolve(wf, wf.omega, grid, angular, tol_abs, tol_rel)
    peak = quad_vals.max()
    if not peak > 0:
        raise ValueError(f"the convolved density of {case.case_id} is 0 on every grid point "
                         f"(largest radius {float(grid.max())!r}); no deviation to measure")
    closed = closed_form_density(case, grid)
    fit = fit_cm_width(wf, lambda r: case.raw(r) * case.scale) if fit_width else None
    mask = quad_vals >= 1e-8 * peak
    dev = float(np.max(np.abs(quad_vals[mask] - closed.values[mask]) / quad_vals[mask]))
    return DensityComparison(case_id=case.case_id, grid=grid,
                             closed=closed, quadrature_values=quad_vals,
                             max_rel_deviation=dev, fit=fit, beta_used=wf.omega)


@dataclass(frozen=True)
class EntropyProfile:
    """Radial entropy-density samples and the state's total position entropy.

    values hold S_G(r) = -G ln G in the radial convention G = u^2/r (the form
    whose origin value distinguishes the cataloged states); total is the
    planar Shannon entropy -int G ln G d^2r of the normalized G = u^2/(2 pi r).
    """

    grid: np.ndarray
    values: np.ndarray
    total: float


def _entropy_pointwise(g):
    g = np.asarray(g, dtype=float)
    safe = np.where(g > 0.0, g, 1.0)
    out = -safe * np.log(safe)
    out = np.where(g > 0.0, out, 0.0)
    return out if out.ndim else float(out)


def entropy_density(wf: RadialWavefunction, grid=None) -> EntropyProfile:
    """Entropy-density profile S_G(r) = -G ln G with 0 ln 0 = 0 of a radial state.

    Its .total is total_entropy(wf), computed again here, so a caller that needs
    both should read profile.total. Raises ValueError for a negative or
    non-finite radius.
    """
    grid = _radii(default_grid(wf.omega) if grid is None else grid)
    vals = _entropy_pointwise(wf.density_radial(grid))
    return EntropyProfile(grid=grid, values=vals, total=total_entropy(wf))


@dataclass(frozen=True)
class EntropySurface:
    """Cartesian grid of S_G values for surface plots."""

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray


def entropy_surface(wf: RadialWavefunction, extent: float | None = None,
                    points: int = 201) -> EntropySurface:
    """S_G on a points x points Cartesian grid over [-extent, extent]^2."""
    if points < 1:
        raise ValueError("surface points must be >= 1")
    if extent is None:
        extent = 12.0 / math.sqrt(wf.omega)
    elif not 0 < extent < math.inf:
        raise ValueError(f"surface extent must be finite and positive, got {extent!r}")
    axis = np.linspace(-extent, extent, points)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    R = np.hypot(X, Y)
    vals = _entropy_pointwise(wf.density_radial(R))
    return EntropySurface(x=axis, y=axis, values=vals)


_GRADING = 0.15 ** np.arange(6, 0, -1)   # geometric steps toward an end at 0 or a node


def _entropy_edges(wf: RadialWavefunction) -> np.ndarray:
    """Panel edges on [0, R], R = support_radius(140), graded at the origin and the nodes.

    The breaks are 0, each of the state's roots in (0, R) (its nodes),
    min(6/sqrt(omega), R) and R. Each interval is graded geometrically toward
    each end at 0 or at a node; with both ends such points, each side takes
    half the interval. The break at 6/sqrt(omega) is left out when a node lies
    within 0.5/sqrt(omega) of it: an ungraded panel starting there would begin
    next to the logarithmic singularity of ln p^2. A profile with no roots
    raises ValueError.
    """
    R = wf.support_radius(140.0)
    roots = wf.roots
    nodes = roots[(roots > 0) & (roots < R)]
    singular = {0.0, *nodes.tolist()}
    breaks = singular | {R}
    far = 6.0 / math.sqrt(wf.omega)
    if not np.any(np.abs(nodes - far) < far / 12):
        breaks.add(min(far, R))
    breaks = sorted(breaks)
    edges = [0.0]
    for a, b in zip(breaks, breaks[1:]):
        lo, hi = a in singular, b in singular
        h = (b - a) / (2 if lo and hi else 1)
        if lo:
            edges.extend(a + h * _GRADING)
        if lo and hi:
            edges.append(a + h)
        if hi:
            edges.extend(b - h * _GRADING[::-1])
        edges.append(b)
    return np.array(edges)


_SUM_CHUNK = 1 << 13   # terms per block of _exact_sum; its temporaries stay near 64 KiB each


def _exact_sum(v: np.ndarray) -> float:
    """Correctly rounded sum of a float array: for finite terms, bit for bit math.fsum.

    The terms go in blocks of _SUM_CHUNK (2^13), so the temporaries do not grow
    with v. A block with smallest exponent e0 bins its terms by 8 binary
    exponents: a term of exponent e0 + r is x 2^(e0 - 53 + 8 (r >> 3)), with
    x = frac 2^(53 + (r & 7)) an integer below 2^60 (np.frexp), split into two
    30-bit halves. np.bincount sums each half per bin, and every bin sum is an
    integer below 2^43, so those sums are exact. The bins of all blocks are
    combined as one Python int, and a single int / int division rounds it.
    Non-finite terms give np.sum's inf or nan.
    """
    total = 0   # the sum so far is total * 2**(-1073 - 53); -1073 is frexp's least exponent
    for i in range(0, v.size, _SUM_CHUNK):
        frac, exp = np.frexp(v[i:i + _SUM_CHUNK])
        if not np.isfinite(frac).all():
            return float(np.sum(v))
        e0 = int(exp.min())
        rel = exp - e0
        x = np.ldexp(frac, (rel & 7) + 53)
        hi = np.trunc(x * 2.0**-30)
        bins = rel >> 3
        sum_hi = np.bincount(bins, weights=hi)
        sum_lo = np.bincount(bins, weights=x - hi * 2.0**30)
        k = np.flatnonzero((sum_hi != 0) | (sum_lo != 0))
        part = 0
        for j, h, lo in zip(k.tolist(), sum_hi[k].tolist(), sum_lo[k].tolist()):
            part += ((int(h) << 30) + int(lo)) << (8 * j)
        total += part << (e0 + 1073)
    return total / (1 << 1126)


def _entropy_on(wf: RadialWavefunction, edges: np.ndarray, total) -> float:
    """S from the rule's four moments on panels in rho; `total` sums one moment's terms."""
    half = 0.5 * np.diff(edges)[:, None]
    rho = edges[:-1, None] + half * (1.0 + _GL_X)
    p2 = _RootProduct(wf.roots * math.sqrt(wf.omega))(rho) ** 2
    q = half * _GL_W * np.exp(-rho * rho) * rho ** (2 * wf.m_abs + 1) * p2
    weight = total(q.ravel())
    spread = total((q * (rho * rho)).ravel())
    if wf.m_abs:
        spread -= 2 * wf.m_abs * total((q * np.log(rho)).ravel())
    spread -= total((q * np.log(np.where(p2 > 0.0, p2, 1.0))).ravel())
    return math.log(2.0 * math.pi * weight / wf.omega) + spread / weight


def total_entropy(wf: RadialWavefunction, *, tol_abs: float = 1e-10,
                  tol_rel: float = 1e-9) -> float:
    """Position-space Shannon entropy S = -int u^2 ln(u^2/(2 pi r)) dr.

    This is the planar integral -int G ln G d^2r reduced to the radius, for
    u normalized; wf.norm is not read. In rho = sqrt(omega) r, with
    q = e^(-rho^2) rho^(2|m|+1) p(rho)^2 and the moments I = int q,
    M2 = int q rho^2, L = int q ln rho and P = int q ln p^2, the logarithm
    splits: S = ln(2 pi I / omega) + (M2 - 2|m| L - P) / I. The Gaussian and
    the power of rho never pass through a float log, and every moment is of
    order 1 whatever omega is, so S + ln omega does not depend on omega. p is
    the product over the state's roots scaled to rho (wf.roots). The moments
    are one pass of the 48-point Gauss-Legendre rule over panels graded toward
    the origin and the nodes of p, where q ln rho and q ln p^2 are not smooth,
    and one over their bisection. The finer value is returned;
    QuadratureNonConvergence is raised when the two differ by more than
    max(tol_abs, tol_rel |S|). A profile with no roots, such as a
    sextic_state_to_hooke image, raises ValueError.
    """
    edges = _entropy_edges(wf) * math.sqrt(wf.omega)
    fine = np.empty(2 * edges.size - 1)
    fine[0::2], fine[1::2] = edges, 0.5 * (edges[:-1] + edges[1:])
    # the returned pass is summed exactly; the coarse one only sizes the error
    value = _entropy_on(wf, fine, _exact_sum)
    _check_budget(value, abs(value - _entropy_on(wf, edges, np.sum)), tol_abs, tol_rel)
    return value


@dataclass(frozen=True)
class EntropyScanRow:
    m: int
    omega: float
    Z: float
    entropy: float


def entropy_scan(n: int, m_values, Z_values) -> list[EntropyScanRow]:
    """Total entropy for every branch over the (m, Z) lattice, sorted by omega.

    One row per branch (n >= 4 contributes several rows per pair); ties in
    omega are broken by Z then m so the table order is reproducible.
    """
    rows = []
    for branches in _solve_lattice(n, m_values, Z_values):
        for branch in branches:
            rows.append(EntropyScanRow(m=branch.m, omega=branch.omega_tilde, Z=branch.Z,
                                       entropy=total_entropy(build_wavefunction(branch))))
    rows.sort(key=lambda r: (r.omega, r.Z, r.m))
    return rows
