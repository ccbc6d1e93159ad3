import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from hookium import hooke, observables
from hookium.integrate import QuadratureNonConvergence, adaptive_quad


def bessel_series(order: int, x: Fraction, terms: int = 40) -> float:
    """Exact-rational ascending series for I_order, summed to `terms`."""
    total = Fraction(0)
    for k in range(terms):
        total += (x / 2) ** (2 * k + order) / (
            Fraction(math.factorial(k)) * math.factorial(k + order))
    return float(total)


def test_bessel_wrapper_against_series():
    for xf in (Fraction(1, 2), Fraction(1), Fraction(5)):
        x = float(xf)
        assert observables.bessel_i(0, x) == pytest.approx(bessel_series(0, xf), rel=1e-12)
        assert observables.bessel_i(1, x) == pytest.approx(bessel_series(1, xf), rel=1e-12)


def test_bessel_scaled_variant():
    x = 3.7
    plain = observables.bessel_i(0, x)
    scaled = observables.bessel_i(0, x, scaled=True)
    assert scaled == pytest.approx(plain * math.exp(-x), rel=1e-13)


def test_bessel_rejects_other_orders():
    with pytest.raises(ValueError):
        observables.bessel_i(2, 1.0)


def test_default_grid_shape():
    g = observables.default_grid(0.25)
    assert g.size == 512
    assert g[0] == pytest.approx(1e-4)
    assert g[-1] == pytest.approx(12.0 / math.sqrt(0.25))
    assert np.all(np.diff(np.log(g)) > 0)


def test_pair_correlation_normalized():
    wf = hooke.build_wavefunction(hooke.solve_frequencies(3, 1, -1)[0])
    pc = observables.pair_correlation(wf)
    assert pc.total_probability() == pytest.approx(1.0, abs=1e-9)
    r = 1.3
    assert pc(r) == pytest.approx(wf.density_radial(r) / (2.0 * math.pi), rel=1e-14)


def test_density_profile_guards():
    with pytest.raises(ValueError):
        observables.DensityProfile(grid=np.array([0.0, 0.0, 1.0]),
                                   values=np.zeros(3), normalization_target=2.0,
                                   method="closed-form")


def test_density_quadrature_frozen_points():
    # convolution values at beta = omega for the m = 1 cataloged state
    case = observables.CATALOG["n2m1Zp1"]
    wf = hooke.build_wavefunction(case.branch())
    cm = hooke.CenterOfMassState(beta=1.0 / 6.0)
    grid = np.array([0.0, 0.7, 2.3, 5.0])
    prof = observables.density_quadrature(wf, cm, grid)
    frozen = np.array([6.043056575253e-02, 5.800662499703e-02,
                       3.799520005209e-02, 5.194819110699e-03])
    np.testing.assert_allclose(prof.values, frozen, rtol=1e-10)
    assert prof.scale_applied == pytest.approx(1.0, abs=1e-8)


def test_density_angular_routes_agree():
    case = observables.CATALOG["n2m0Zp1"]
    wf = hooke.build_wavefunction(case.branch())
    cm = hooke.CenterOfMassState(beta=0.5)
    grid = np.array([0.3, 1.1, 2.9])
    bessel = observables.density_quadrature(wf, cm, grid, angular="bessel")
    direct = observables.density_quadrature(wf, cm, grid, angular="numeric")
    np.testing.assert_allclose(bessel.values, direct.values, rtol=1e-11)


def test_density_quadrature_unreachable_tolerance():
    case = observables.CATALOG["n2m0Zp1"]
    wf = hooke.build_wavefunction(case.branch())
    cm = hooke.CenterOfMassState(beta=0.5)
    with pytest.raises(QuadratureNonConvergence):
        observables.density_quadrature(wf, cm, np.array([0.5]),
                                       tol_abs=1e-30, tol_rel=1e-27)


def _oracle_density(wf, beta, r, angular):
    """n(r) at one point by adaptive quadrature, independent of the Gauss rule."""
    if angular == "bessel":
        def kernel(z):
            return scipy.special.i0e(z)
    else:
        def kernel(z):
            val, _ = scipy.integrate.quad(lambda t: math.exp(-z * (1.0 - math.cos(t))),
                                          0.0, math.pi, epsabs=1e-13, epsrel=1e-12, limit=200)
            return val / math.pi

    def f(rp):
        return wf.u_squared(rp) * math.exp(-beta * (r - 0.5 * rp) ** 2) * kernel(beta * r * rp)

    rmax = wf.support_radius(160.0) + 2.0 * r + math.sqrt(160.0 / beta)
    val, _ = adaptive_quad(f, 0.0, rmax, tol_abs=1e-15, tol_rel=1e-12, limit=400,
                           points=[2.0 * r, math.sqrt((wf.m_abs + 0.5) / wf.omega)])
    return (2.0 * beta / math.pi) * val


ORACLE_BRANCHES = [(c.n, c.m, c.branch_Z, 0) for c in observables.CATALOG.values()] \
    + [(5, 3, -1, 1)]


@pytest.mark.parametrize("branch", ORACLE_BRANCHES, ids=lambda b: "n%d,m%d,Z%d,i%d" % b)
@pytest.mark.parametrize("beta_factor", [1, 4])
@pytest.mark.parametrize("angular", ["bessel", "numeric"])
def test_density_rule_matches_adaptive_oracle(branch, beta_factor, angular):
    n, m, Z, index = branch
    wf = hooke.build_wavefunction(hooke.solve_frequencies(n, m, Z)[index])
    beta = beta_factor * wf.omega
    grid = np.linspace(0.0, wf.support_radius(30.0), 13)
    # the numeric route's normalization is a (radius x radius x angle) product that
    # takes seconds; its values are checked, the bessel route checks the scale
    prof = observables.density_quadrature(wf, hooke.CenterOfMassState(beta=beta), grid,
                                          angular=angular, normalize=angular == "bessel")
    assert abs(prof.scale_applied - 1.0) <= 1e-12
    want = np.array([_oracle_density(wf, beta, float(r), angular) for r in grid])
    mask = want >= 1e-8 * want.max()
    assert mask.sum() >= 8
    rel = np.abs(prof.values[mask] - want[mask]) / want[mask]
    assert rel.max() <= 1e-11


def test_closed_form_normalization():
    for case_id in sorted(observables.CATALOG):
        case = observables.CATALOG[case_id]
        prof = observables.closed_form_density(case, np.array([0.0, 1.0]))
        total, _ = adaptive_quad(
            lambda r: 2.0 * math.pi * r * case.raw(r) * prof.scale_applied,
            0.0, math.sqrt(140.0 / case.gauss), tol_abs=1e-10)
        assert total == pytest.approx(2.0, abs=1e-8), case_id


def test_closed_form_unknown_case():
    with pytest.raises(KeyError, match="n2m0Zp1"):
        observables.closed_form_density("missing")


def test_n3_case_belongs_to_attractive_branch():
    # the catalog id keeps the conventional label, the branch records the sign
    case = observables.CATALOG["n3m0Zp1"]
    assert case.branch_Z == -1
    assert case.branch().Z == -1


def test_compare_density_routes_tight():
    cmp = observables.compare_density_routes("n2m0Zp1", np.linspace(0.0, 8.0, 21),
                                             fit_width=False)
    assert cmp.max_rel_deviation < 1e-12
    assert cmp.beta_used == pytest.approx(0.5)


def test_fit_recovers_catalog_width():
    case = observables.CATALOG["n2m0Zp1"]
    cmp = observables.compare_density_routes(case, np.linspace(0.0, 6.0, 13),
                                             fit_width=True)
    assert cmp.fit.beta == pytest.approx(float(case.omega), rel=1e-4)
    assert cmp.fit.beta_convention == pytest.approx(4.0 * float(case.omega), rel=1e-14)
    assert not cmp.fit.matches_convention


def test_entropy_profile_origin_values():
    frozen = {(2, 0): -1.4319677143160672, (3, 0): 0.36772326065996835}
    for (n, m), want in frozen.items():
        wf = hooke.build_wavefunction(hooke.solve_frequencies(n, m, -1)[0])
        prof = observables.entropy_density(wf, np.array([1e-10, 1.0]))
        assert prof.values[0] == pytest.approx(want, abs=1e-9), (n, m)


def test_entropy_profile_vanishes_at_origin_for_nonzero_m():
    wf = hooke.build_wavefunction(hooke.solve_frequencies(2, 1, -1)[0])
    prof = observables.entropy_density(wf, np.array([1e-10, 1.0]))
    assert abs(prof.values[0]) < 1e-12


def test_total_entropy_coulomb_free():
    for om in (Fraction(1, 10), Fraction(1, 2), Fraction(2)):
        wf = hooke.build_wavefunction(hooke.oscillator_branch(0, om))
        want = 1.0 + math.log(math.pi / float(om))
        assert observables.total_entropy(wf) == pytest.approx(want, abs=1e-8), om


def test_total_entropy_frozen_interacting():
    wf = hooke.build_wavefunction(hooke.solve_frequencies(2, 0, -1)[0])
    assert observables.total_entropy(wf) == pytest.approx(3.4815302748714427, abs=1e-10)


def _oracle_entropy(wf):
    """S by adaptive quadrature: in t = ln r below r0, then split at the nodes of p."""
    def f(r):
        g_rad = wf.density_radial(r)
        if g_rad <= 0.0:
            return 0.0
        return -g_rad * r * math.log(g_rad / (2.0 * math.pi))

    r0 = 0.05 / math.sqrt(wf.omega)
    t_lo = -60.0 / (2.0 * wf.m_abs + 1.0)
    near, _ = adaptive_quad(lambda t: f(math.exp(t)) * math.exp(t),
                            t_lo + math.log(r0), math.log(r0), tol_abs=5e-11, tol_rel=1e-9)
    rmax = wf.support_radius(140.0)
    roots = np.polynomial.polynomial.polyroots([float(c) for c in wf.poly.coeffs])
    nodes = [float(z.real) for z in np.atleast_1d(roots)
             if abs(z.imag) <= 1e-9 * abs(z) and r0 < z.real < rmax]
    far, _ = adaptive_quad(f, r0, rmax, tol_abs=5e-11, tol_rel=1e-9, limit=400,
                           points=nodes + [1.0 / math.sqrt(wf.omega)])
    return near + far


@pytest.mark.parametrize("Z", [1, -1])
@pytest.mark.parametrize("m", [0, 3, 10])
@pytest.mark.parametrize("n", range(2, 15))
def test_total_entropy_matches_adaptive_oracle(n, m, Z):
    built = 0
    for branch in hooke.solve_frequencies(n, m, Z):
        try:
            wf = hooke.build_wavefunction(branch)
        except QuadratureNonConvergence:
            continue   # the adaptive norm fails on some attractive branches
        built += 1
        assert observables.total_entropy(wf) == pytest.approx(_oracle_entropy(wf),
                                                              rel=1e-10, abs=0.0)
    assert built


def test_total_entropy_tolerances():
    # its P and 2P panel sums differ by 2.3e-13 relative, so a zero budget must fail
    wf = hooke.build_wavefunction(hooke.solve_frequencies(10, 3, -1)[4])
    with pytest.raises(QuadratureNonConvergence):
        observables.total_entropy(wf, tol_abs=1e-30, tol_rel=0.0)
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError):
            observables.total_entropy(wf, tol_abs=bad)


def _sum_cases():
    rng = np.random.default_rng(20261018)
    wide = rng.standard_normal(300) * 10.0 ** rng.uniform(-300, 300, 300)
    subnormal = rng.integers(-1000, 1000, 200) * 5e-324
    x = rng.standard_normal(150) * 10.0 ** rng.uniform(-20, 20, 150)
    cancel = np.concatenate([x, -x * (1 + 1e-16)])
    rng.shuffle(cancel)
    return {
        "wide": wide,
        "subnormal": subnormal,
        "mixed": np.concatenate([wide, subnormal, cancel]),
        "cancel": cancel,
        "one": np.array([-3.7e-200]),
        "zeros": np.zeros(5),
        "signed_zeros": np.array([0.0, -0.0, -0.0]),
        "negative_zeros": np.array([-0.0, -0.0]),
        "empty": np.array([]),
        "gaussian": rng.standard_normal(20000) * np.exp(rng.uniform(-30, 0, 20000)),
    }


@pytest.mark.parametrize("case", sorted(_sum_cases()))
def test_exact_sum_matches_fsum(case):
    v = _sum_cases()[case]
    assert observables._exact_sum(v).hex() == math.fsum(v.tolist()).hex()


def test_exact_sum_non_finite_terms():
    assert observables._exact_sum(np.array([1.0, math.inf])) == math.inf
    assert math.isnan(observables._exact_sum(np.array([1.0, math.nan])))


def test_exact_sum_many_seeded_arrays():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 400))
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
        v[rng.random(n) < 0.3] *= -1e-16
        assert observables._exact_sum(v).hex() == math.fsum(v.tolist()).hex()


@pytest.mark.parametrize("bad", [
    math.nan,
    # the coarse pass's numpy sums warn on inf - inf before the budget check raises
    pytest.param(math.inf, marks=pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")),
])
def test_total_entropy_non_finite_term_is_loud(bad):
    import dataclasses
    from hookium.polyops import Poly
    wf = hooke.build_wavefunction(hooke.oscillator_branch(0, Fraction(1, 2)))
    broken = dataclasses.replace(wf, poly=Poly((bad,)))   # every moment's terms are non-finite
    with pytest.raises(QuadratureNonConvergence):
        observables.total_entropy(broken)


def test_entropy_scan_frozen_table():
    frozen = {
        (0, 1): 5.336897, (1, 1): 6.387913, (2, 1): 6.994282,
        (3, 1): 7.424033, (4, 1): 7.757432,
        (0, -1): 5.663739, (1, -1): 6.722793, (2, -1): 7.342804,
        (3, -1): 7.784880, (4, -1): 8.127824,
    }
    rows = observables.entropy_scan(3, range(0, 5), (1, -1))
    assert len(rows) == 10
    for row in rows:
        assert row.entropy == pytest.approx(frozen[(row.m, int(row.Z))], abs=5e-6)
    # sorted by frequency, then coupling
    key = [(row.omega, row.Z, row.m) for row in rows]
    assert key == sorted(key)


def test_entropy_scan_ordering_monotone():
    rows = observables.entropy_scan(3, range(0, 5), (1, -1))
    by_z = {1: {}, -1: {}}
    for row in rows:
        by_z[int(row.Z)][row.m] = row.entropy
    for Z in (1, -1):
        seq = [by_z[Z][m] for m in range(0, 5)]
        assert all(a < b for a, b in zip(seq, seq[1:])), Z
    for m in range(0, 5):
        assert by_z[-1][m] > by_z[1][m]


def test_entropy_surface_consistent_with_profile():
    wf = hooke.build_wavefunction(hooke.solve_frequencies(2, 0, 1)[0])
    surf = observables.entropy_surface(wf, extent=4.0, points=41)
    assert surf.values.shape == (41, 41)
    # along the positive x axis the surface reduces to the radial profile
    j_mid = 20
    xs = surf.x[j_mid + 1:]
    prof = observables.entropy_density(wf, xs)
    np.testing.assert_allclose(surf.values[j_mid + 1:, j_mid], prof.values,
                               rtol=1e-12, atol=1e-14)


def test_entropy_scan_rejects_z_zero():
    with pytest.raises(hooke.NoBranchError):
        observables.entropy_scan(2, (0,), (0.0,))
