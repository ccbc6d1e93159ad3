import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from hookium import hooke, observables
from hookium.integrate import (_GL_W, _GL_X, QuadratureNonConvergence, adaptive_quad,
                               gauss_legendre)


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


@pytest.mark.parametrize("value", [math.nan, 0.0, -1.0])
def test_default_grid_rejects_nonpositive_omega(value):
    with pytest.raises(ValueError, match="omega must be positive"):
        observables.default_grid(value)


@pytest.mark.parametrize("extent", [math.nan, math.inf, 0.0, -1.0])
def test_entropy_surface_rejects_bad_extent(extent):
    wf = hooke.build_wavefunction(hooke.solve_frequencies(2, 0, 1)[0])
    with pytest.raises(ValueError, match="surface extent must be finite and positive"):
        observables.entropy_surface(wf, extent=extent, points=5)


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
    # tol_abs far below 1e-11 of the smallest value the test compares (1e-8 of the peak)
    val, _ = adaptive_quad(f, 0.0, rmax, tol_abs=1e-25, tol_rel=1e-12, limit=400,
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
    prof = observables.density_quadrature(wf, hooke.CenterOfMassState(beta=beta), grid,
                                          angular=angular)
    assert abs(prof.scale_applied - 1.0) <= 1e-12
    want = np.array([_oracle_density(wf, beta, float(r), angular) for r in grid])
    mask = want >= 1e-8 * want.max()
    assert mask.sum() >= 8
    rel = np.abs(prof.values[mask] - want[mask]) / want[mask]
    assert rel.max() <= 1e-11


def _angular_rows(zs, s):
    """The angular integrand with its cut-off and cosines evaluated row by row."""
    t_max = np.arccos(np.maximum(1.0 - 50.0 / np.maximum(zs, 25.0), -1.0))
    return t_max * np.exp(-zs * (1.0 - np.cos(t_max * s)))


def test_angular_mean_is_bit_identical_to_row_by_row_cosines():
    # z on both sides of 25, where the cut-off leaves pi; several row blocks, 2-D shape
    z = np.concatenate([np.geomspace(1e-6, 5e3, 600), [25.0, np.nextafter(25.0, 0.0),
                                                        np.nextafter(25.0, 30.0), 0.0]])
    z = np.repeat(z, 2)[::-1].reshape(-1, 4)
    assert (z <= 25.0).any() and (z > 25.0).any()
    got = observables._angular_mean(z, 1e-15, 1e-12)
    want = observables._rule_rows(_angular_rows, z.ravel(), 1.0, 1e-15, 1e-12).reshape(z.shape) / math.pi
    assert got.shape == z.shape
    assert [v.hex() for v in got.ravel()] == [v.hex() for v in want.ravel()]


def _panel_rule(f, b, panels):
    """The 48-point rule on `panels` equal panels of [0, b], in one call of f."""
    h = 0.5 * b / panels
    x = (h * (2 * np.arange(panels)[:, None] + 1 + _GL_X)).ravel()
    return h * (f(x) @ np.tile(_GL_W, panels))


DOMAIN_EDGE = [(n, m, Z, end) for n in (32, 40, 50) for m in (0, 10) for Z in (1, -1)
               for end in (0, -1)]


@pytest.mark.parametrize("state", DOMAIN_EDGE, ids=lambda s: "n%d,m%d,Z%d,end%d" % s)
def test_density_rule_at_the_domain_edge(state):
    # the end branches of n = 32-50 once failed the default budget at a fixed 4 against 8 panels
    n, m, Z, end = state
    wf = hooke.build_wavefunction(hooke.solve_frequencies(n, m, Z)[end])
    grid = np.linspace(0.0, wf.support_radius(30.0), 13)
    # u^2 is at most C r^k exp(-omega r^2), k = 2|m| + 2n - 1: far below e^-120 of its peak here
    support = math.sqrt((120.0 + 6.0 * (2 * m + 2 * n - 1)) / wf.omega)
    for beta in (wf.omega, 4.0 * wf.omega):
        prof = observables.density_quadrature(wf, hooke.CenterOfMassState(beta=beta), grid)
        assert abs(prof.scale_applied - 1.0) <= 1e-12

        def f(rp):
            z = beta * grid[:, None] * rp
            return wf.u_squared(rp) * np.exp(-beta * (grid[:, None] - 0.5 * rp) ** 2) \
                * scipy.special.i0e(z)
        coarse, fine = ((2.0 * beta / math.pi) * _panel_rule(f, support, p) for p in (16, 32))
        mask = fine >= 1e-8 * fine.max()
        assert mask.sum() >= 8
        assert np.all(np.abs(fine - coarse)[mask] <= 1e-13 * fine[mask])
        rel = np.abs(prof.values[mask] - fine[mask]) / fine[mask]
        assert rel.max() <= 1e-11


def test_density_quadrature_rejects_negative_radii():
    wf = hooke.build_wavefunction(observables.CATALOG["n2m0Zp1"].branch())
    with pytest.raises(ValueError, match="radii must be >= 0"):
        observables.density_quadrature(wf, hooke.CenterOfMassState(beta=0.5),
                                       np.array([-1.0, 1.5, 4.0]))


def test_closed_form_normalization():
    for case_id in sorted(observables.CATALOG):
        case = observables.CATALOG[case_id]
        prof = observables.closed_form_density(case, np.array([0.0, 1.0]))
        total, _ = adaptive_quad(
            lambda r: 2.0 * math.pi * r * case.raw(r) * prof.scale_applied,
            0.0, math.sqrt(140.0 / case.gauss), tol_abs=1e-10)
        assert total == pytest.approx(2.0, abs=1e-8), case_id


def test_closed_form_unknown_case():
    # both readers of the catalog look a case id up once, with one message
    for read in (observables.closed_form_density, observables.compare_density_routes):
        with pytest.raises(KeyError) as exc:
            read("missing")
        assert exc.value.args == ("unknown density case 'missing'; "
                                  "have n2m0Zm1, n2m0Zp1, n2m1Zp1, n3m0Zp1",)


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


def test_compare_density_routes_rejects_negative_radii():
    # i0e(z) = e^(-|z|) I0(z) makes the Bessel kernel wrong for r < 0, so both routes refuse it
    for grid in ([-1.0, 0.0, 1.0], [0.0, math.nan]):
        with pytest.raises(ValueError, match="density radii must be >= 0"):
            observables.compare_density_routes("n2m0Zp1", grid, fit_width=False)


@pytest.mark.parametrize("fit_width", [False, True])
def test_compare_density_routes_rejects_an_all_zero_convolution(fit_width):
    # far out the convolution underflows to 0 everywhere: its peak is 0, and 0/0 once gave nan
    with pytest.raises(ValueError, match="0 on every grid point"):
        observables.compare_density_routes("n2m0Zp1", np.linspace(100.0, 200.0, 3),
                                           fit_width=fit_width)


def _oscillator_profile(m, omega):
    """The n = 1 profile with norm 1: total_entropy reads its shape, not its norm."""
    b = hooke.oscillator_branch(m, omega)
    return hooke.RadialWavefunction(m_abs=float(m), omega=omega, Z=0.0, eps_rel=b.eps_rel,
                                    poly=hooke._RootProduct(b.roots), norm=1.0, branch=b)


@pytest.mark.parametrize("m", [0, 3, 10])
def test_entropy_plus_log_omega_is_scale_free(m):
    # in rho = sqrt(omega) r every moment is of order 1, so S(omega) + ln omega equals its
    # omega = 1 value to the rounding of S and ln omega, from omega = 1e-300 to 1e300
    # (no float holds the norm there at |m| = 3 and 10)
    want = observables.total_entropy(_oscillator_profile(m, 1.0))
    for omega in [x * 10.0**e for e in range(-300, 301, 50) for x in (1.0, 3.7)]:
        if omega > 1e300:
            continue
        S = observables.total_entropy(_oscillator_profile(m, omega))
        scale = max(abs(S), abs(math.log(omega)), want)
        assert abs(S + math.log(omega) - want) <= 2 * math.ulp(scale), (m, omega)


@pytest.mark.parametrize("radius", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("profile", [
    lambda wf, grid: observables.density_quadrature(wf, hooke.CenterOfMassState(beta=0.5), grid),
    lambda wf, grid: observables.closed_form_density("n2m0Zp1", grid),
    lambda wf, grid: observables.compare_density_routes("n2m0Zp1", grid, fit_width=False),
    lambda wf, grid: observables.entropy_density(wf, grid),
], ids=["density_quadrature", "closed_form_density", "compare_density_routes", "entropy_density"])
def test_profiles_reject_negative_and_nonfinite_radii(profile, radius):
    # one radius check for all four profiles: finite and >= 0
    wf = observables.CATALOG["n2m0Zp1"].state
    with pytest.raises(ValueError, match="density radii must be >= 0"):
        profile(wf, [0.0, radius, 1.0])


@pytest.mark.parametrize("case_id", sorted(observables.CATALOG))
def test_catalog_case_solves_builds_and_normalizes_once(case_id, monkeypatch):
    case = dataclasses.replace(observables.CATALOG[case_id])   # a copy with nothing cached
    calls = {"solve": 0, "build": 0, "norm": 0}

    def spy(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    def rule(f, a, b, **kwargs):
        calls["norm"] += b == math.sqrt(140.0 / case.gauss)
        return gauss_legendre(f, a, b, **kwargs)

    monkeypatch.setattr(observables, "solve_frequencies", spy("solve", hooke.solve_frequencies))
    monkeypatch.setattr(observables, "build_wavefunction", spy("build", hooke.build_wavefunction))
    monkeypatch.setattr(observables, "gauss_legendre", rule)
    grid = np.linspace(0.0, 4.0, 5)
    for _ in range(2):
        for angular in ("bessel", "numeric"):
            observables.compare_density_routes(case, grid, fit_width=False, angular=angular)
        observables.closed_form_density(case, grid)
    assert calls == {"solve": 1, "build": 1, "norm": 1}


@pytest.mark.parametrize("case_id", sorted(observables.CATALOG))
def test_catalog_case_state_and_scale_are_the_fresh_ones(case_id):
    case = dataclasses.replace(observables.CATALOG[case_id])
    fresh = hooke.build_wavefunction(case.branch())
    assert case.state.norm.hex() == fresh.norm.hex()
    assert [x.hex() for x in case.state.roots.tolist()] == [x.hex() for x in fresh.roots.tolist()]
    assert case.state.poly.coeffs == fresh.poly.coeffs
    assert case.state is case.state
    total, _ = gauss_legendre(lambda r: 2.0 * math.pi * r * case.raw(r), 0.0,
                              math.sqrt(140.0 / case.gauss), panels=1,
                              tol_abs=1e-12, tol_rel=1e-11)
    prof = observables.closed_form_density(case, np.array([0.0, 1.0]))
    assert prof.scale_applied.hex() == (2.0 / float(total)).hex()


def test_cold_import_builds_no_catalog_state():
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import hookium.cli\n"
            "from hookium.observables import CATALOG\n"
            "print(sorted(k for c in CATALOG.values() for k in vars(c) if k in ('state', 'scale')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True).stdout
    assert out == "[]\n"


def test_catalog_omega_is_the_state_frequency():
    # the branch frequencies 1/2, 1/2, 1/6 and 1/12, to the bit
    want = {"n2m0Zp1": "0x1.0000000000000p-1", "n2m0Zm1": "0x1.0000000000000p-1",
            "n2m1Zp1": "0x1.5555555555555p-3", "n3m0Zp1": "0x1.5555555555555p-4"}
    assert {k: c.omega.hex() for k, c in observables.CATALOG.items()} == want
    for case in observables.CATALOG.values():
        assert case.omega is case.state.omega


# fit_cm_width's result on each catalog case (Gauss-Newton from beta = omega); the
# fit is a report beside the comparison and does not move with it
_CATALOG_FITTED_BETA = {"n2m0Zm1": 0.5, "n2m0Zp1": 0.49999999999999994,
                        "n2m1Zp1": 0.16666666666666669, "n3m0Zp1": 0.08333333333333635}


@pytest.mark.parametrize("fit_width", [False, True])
def test_compare_density_routes_at_catalog_width(fit_width):
    # the routes meet at the catalog width; at a fitted one they differ by its offset
    grid = np.linspace(0.0, 8.0, 161)
    for case_id, beta_fitted in _CATALOG_FITTED_BETA.items():
        cmp = observables.compare_density_routes(case_id, grid, fit_width=fit_width)
        assert cmp.beta_used == float(observables.CATALOG[case_id].omega)
        assert cmp.max_rel_deviation <= 1e-13, case_id
        if fit_width:
            assert cmp.fit.beta == pytest.approx(beta_fitted, rel=1e-10), case_id
            assert abs(cmp.fit.beta / cmp.beta_used - 1.0) <= 1e-12, case_id
        else:
            assert cmp.fit is None


def test_fit_recovers_catalog_width():
    case = observables.CATALOG["n2m0Zp1"]
    cmp = observables.compare_density_routes(case, np.linspace(0.0, 6.0, 13),
                                             fit_width=True)
    assert cmp.fit.beta == pytest.approx(float(case.omega), rel=1e-4)
    assert cmp.fit.beta_convention == pytest.approx(4.0 * float(case.omega), rel=1e-14)


def _catalog_fit_inputs(case_id):
    """The state and normalized reference compare_density_routes hands fit_cm_width."""
    case = observables.CATALOG[case_id]
    scale = observables.closed_form_density(case).scale_applied
    return case, hooke.build_wavefunction(case.branch()), lambda r: case.raw(r) * scale


def _spy(monkeypatch, name):
    """Record the beta of every call of observables.<name>."""
    calls, wrapped = [], getattr(observables, name)

    def spy(*args):
        calls.append(args[1])
        return wrapped(*args)

    monkeypatch.setattr(observables, name, spy)
    return calls


@pytest.mark.parametrize("case_id", sorted(observables.CATALOG))
def test_fit_cm_width_converges_on_smooth_objective(case_id, monkeypatch):
    case, wf, reference = _catalog_fit_inputs(case_id)
    slopes, convolutions = _spy(monkeypatch, "_convolve_slope"), _spy(monkeypatch, "_convolve")
    fit = observables.fit_cm_width(wf, reference)
    monkeypatch.undo()
    # the catalog width is the minimum, so the first Gauss-Newton step from it is below
    # 1e-9 beta; one convolution at the fitted beta gives the objective
    assert len(slopes) <= 3 and len(convolutions) == 1
    assert abs(fit.beta / float(case.omega) - 1.0) <= 1e-12

    pts = np.linspace(0.0, 6.0, 25)
    ref = np.asarray([reference(float(r)) for r in pts])
    mask = ref >= 1e-6 * ref.max()
    rel = (observables._convolve(wf, fit.beta, pts, "bessel", 1e-13, 1e-10)[mask]
           - ref[mask]) / ref[mask]
    assert fit.objective == math.sqrt(np.mean(rel * rel))


@pytest.mark.parametrize("case_id", sorted(observables.CATALOG))
def test_convolve_slope_matches_central_difference(case_id):
    wf = observables.CATALOG[case_id].state
    pts, beta = np.linspace(0.0, 6.0, 25), wf.omega
    value, slope = observables._convolve_slope(wf, beta, pts, 1e-13, 1e-10)
    h = 1e-5 * beta
    above, below = (observables._convolve(wf, b, pts, "bessel", 1e-13, 1e-10)
                    for b in (beta + h, beta - h))
    scale = np.max(np.abs(slope))
    assert np.max(np.abs(slope - (above - below) / (2.0 * h))) <= 1e-8 * scale
    at = observables._convolve(wf, beta, pts, "bessel", 1e-13, 1e-10)
    assert np.max(np.abs(value - at)) <= 1e-12 * at.max()


@pytest.mark.parametrize("factor", [0.3, 2.5, 8.0])
@pytest.mark.parametrize("case_id", sorted(observables.CATALOG))
def test_fit_cm_width_recovers_off_centre_width(case_id, factor):
    # a reference convolved at another width, reached from beta = omega through the bracket
    wf = observables.CATALOG[case_id].state
    beta = factor * wf.omega
    fit = observables.fit_cm_width(
        wf, lambda r: observables._convolve(wf, beta, np.array([r]), "bessel", 1e-13, 1e-10)[0])
    assert abs(fit.beta / beta - 1.0) <= 1e-9


@pytest.mark.parametrize("value", [0.0, math.nan, -1.0])
def test_fit_cm_width_rejects_reference_without_positive_samples(value):
    _, wf, _ = _catalog_fit_inputs("n2m1Zp1")
    with pytest.raises(ValueError, match="positive"):
        observables.fit_cm_width(wf, lambda r: value)


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


# S at 46 digits by mpmath at 50: kappa refined on the exact s-polynomial, the rho
# recurrence for p, and S = ln(2 pi I / omega) + (M2 - 2|m| L - P) / I from mpmath.quad
# moments split at p's positive roots. (n, m, Z, branch index) of closed forms whose
# error exceeded 10 ulp when the moments were taken in r, of nearby ones, of the README
# state, and of five branches solved only from their roots.
_ENTROPY_REFERENCES = {
    (2, 6, -2, 0): "5.652005245588420621004033698079092698858222952",
    (2, 10, 1, 0): "7.498570548049726883334993225046832829799829090",
    (3, 10, 2, 0): "7.550329300382165099018250404680310200700352631",
    (3, 10, -2, 0): "7.947640332897061760726944607594427430529971269",
    (2, 10, 2, 0): "6.112276186929836264500528982130479693648828821",
    (3, 8, 2, 0): "7.250032470326974635450404339438955461245184535",
    (2, 8, 1, 0): "7.186595817874236492201777430651685991607024427",
    (3, 9, -2, 0): "7.802427651971190749365621461916715900670732587",
    (2, 0, -1, 0): "3.481530274871590291810693822076709871291479943",
    (10, 10, 1, 2): "11.47611010706343353151622189971195903584270881",
    (12, 10, 1, 3): "12.23027547604307957301997959172807295777006036",
    (7, 10, -1, 2): "12.01918751595567099402185165830039583507615363",
    (7, 10, 1, 2): "11.32807495820163901841991792391605841806417268",
    (12, 10, 1, 5): "12.75684634739522143833539802445717424334355327",
}


@pytest.mark.parametrize("n, m, Z, k", sorted(_ENTROPY_REFERENCES))
def test_total_entropy_within_5_ulp_of_references(n, m, Z, k):
    from decimal import Decimal
    want = Fraction(Decimal(_ENTROPY_REFERENCES[n, m, Z, k]))
    got = observables.total_entropy(hooke.build_wavefunction(hooke.solve_frequencies(n, m, Z)[k]))
    assert abs(Fraction(got) - want) <= 5 * Fraction(math.ulp(float(want))), float(Fraction(got) - want)


# (n, m, Z, chamber): states with a node of p within 3e-3 of rho = 6, where the entropy's
# panels once broke next to ln p^2's singularity and missed the default budget; the
# references are 30-digit mpmath values rounded to doubles
_NODE_AT_FAR_BREAK = {
    (17, 5, -1, 11): 11.925915393355959,
    (21, 7, 1, 7): 12.213330202739676,
    (26, 2, 1, 8): 12.500493265526504,
    (45, 2, 1, 2): 16.177432669079646,
}


@pytest.mark.parametrize("n, m, Z, chamber", sorted(_NODE_AT_FAR_BREAK))
def test_total_entropy_with_a_node_at_the_far_break(n, m, Z, chamber):
    [branch] = [b for b in hooke.solve_frequencies(n, m, Z) if b.chamber == chamber]
    wf = hooke.build_wavefunction(branch)
    assert np.min(np.abs(wf.roots * math.sqrt(wf.omega) - 6.0)) < 3e-3
    want = _NODE_AT_FAR_BREAK[n, m, Z, chamber]
    assert abs(observables.total_entropy(wf) - want) <= math.ulp(want)


def test_total_entropy_tolerances():
    # its P and 2P panel sums differ by 2.0e-16 relative, so a zero budget must fail
    wf = hooke.build_wavefunction(hooke.solve_frequencies(8, 2, -1)[1])
    with pytest.raises(QuadratureNonConvergence):
        observables.total_entropy(wf, tol_abs=1e-30, tol_rel=0.0)
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError):
            observables.total_entropy(wf, tol_abs=bad)


def _binned(rng, size, e_low, span):
    """Terms of random sign whose np.frexp exponents cycle through e_low ... e_low + span - 1."""
    exps = e_low + np.arange(size) % span
    return rng.choice([-1.0, 1.0], size) * np.ldexp(rng.uniform(0.5, 1.0, size), exps)


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
        # blocks of _exact_sum that start high, drop far below, then cancel the first
        "blocks": np.concatenate([x[:1] * np.ones(9000) * 1e250, rng.standard_normal(9000) * 1e-250,
                                  x[:1] * np.ones(9000) * -1e250, rng.standard_normal(9000)]),
        # exponent spans of 19 starting at each residue of the block's least exponent
        # mod 8, so they cross two 8-exponent bin edges; half the terms then cancel
        **{f"bin_edges_{r}": np.concatenate([b, -b[:100]]) for r in range(8)
           for b in [_binned(rng, 200, -40 + r, 19)]},
        # two blocks whose least exponents differ by 3, not a multiple of 8
        "blocks_offset": np.concatenate([_binned(rng, observables._SUM_CHUNK, -40, 19),
                                         _binned(rng, observables._SUM_CHUNK, -37, 19)]),
        "one_exponent": _binned(rng, 1000, 7, 1),
    }


@pytest.mark.parametrize("case", sorted(_sum_cases()))
def test_exact_sum_matches_fsum(case):
    v = _sum_cases()[case]
    assert observables._exact_sum(v).hex() == math.fsum(v.tolist()).hex()


def test_exact_sum_where_fsum_overflows():
    rng = np.random.default_rng(20261021)
    near = np.ldexp(rng.uniform(0.5, 1.0, 2000), rng.integers(1000, 1024, 2000))
    for v in (np.array([1e308, 1e308, -1e308]),
              # one block of terms near 2^1000 that cancel, leaving a sum near 1
              np.concatenate([near, -near[::-1], rng.standard_normal(10)])):
        with pytest.raises(OverflowError):
            math.fsum(v.tolist())
        exact = float(sum(map(Fraction, v.tolist()), Fraction(0)))
        assert observables._exact_sum(v).hex() == exact.hex()


def test_exact_sum_non_finite_terms():
    assert observables._exact_sum(np.array([1.0, math.inf])) == math.inf
    assert math.isnan(observables._exact_sum(np.array([1.0, math.nan])))
    late = np.ones(3 * observables._SUM_CHUNK)
    late[-1] = -math.inf
    assert observables._exact_sum(late) == -math.inf


def test_exact_sum_many_seeded_arrays():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 400))
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
        v[rng.random(n) < 0.3] *= -1e-16
        assert observables._exact_sum(v).hex() == math.fsum(v.tolist()).hex()


@pytest.mark.parametrize("root", [
    pytest.param(math.nan, id="nan"),   # every factor 1 - rho / root is nan
    # every factor is 1 - rho / -0.0 = inf; the coarse pass's numpy sums warn on inf - inf
    pytest.param(-0.0, id="inf", marks=[
        pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning"),
        pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")]),
])
def test_total_entropy_non_finite_term_is_loud(root):
    import dataclasses
    wf = hooke.build_wavefunction(hooke.solve_frequencies(2, 0, 1)[0])
    broken = dataclasses.replace(wf, branch=dataclasses.replace(wf.branch, roots=np.array([root])))
    with pytest.raises(QuadratureNonConvergence):   # every moment's terms are non-finite
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


def test_nan_radius_is_rejected():
    # NaN compares False both ways, so a "no step <= 0" guard let it through
    with pytest.raises(ValueError):
        observables.closed_form_density("n2m0Zp1", [math.nan, 1.0, 2.0])
    wf = hooke.build_wavefunction(hooke.solve_frequencies(2, 0, 1)[0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            observables.entropy_density(wf, [bad, 1.0])


def test_entropy_scan_rejects_z_zero():
    with pytest.raises(hooke.NoBranchError):
        observables.entropy_scan(2, (0,), (0.0,))
