import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hookium import hooke
from hookium.integrate import QuadratureNonConvergence, adaptive_quad
from hookium.polyops import Poly
from hookium.series import series_solve


def test_frequency_n2_closed_form():
    for m in range(0, 6):
        for Z in (1, -1, 3, -3):
            branches = hooke.solve_frequencies(2, m, Z)
            assert len(branches) == 1
            assert branches[0].omega_exact == Fraction(Z * Z, 2 * (2 * m + 1))


def test_frequency_n3_closed_form():
    for m in range(0, 6):
        for Z in (1, -1, 3, -3):
            branches = hooke.solve_frequencies(3, m, Z)
            assert len(branches) == 1
            assert branches[0].omega_exact == Fraction(Z * Z, 4 * (4 * m + 3))


def test_frequency_n4_quadratic_pair():
    for m in range(0, 4):
        root = math.sqrt(73.0 + 128.0 * m + 64.0 * m * m)
        den = 18.0 * (4.0 * m * m + 8.0 * m + 3.0)
        want = sorted([(10.0 * (m + 1) + root) / den, (10.0 * (m + 1) - root) / den],
                      reverse=True)
        got = [b.omega_tilde for b in hooke.solve_frequencies(4, m, 1)]
        assert got == pytest.approx(want, rel=1e-14)


def test_branches_sorted_descending():
    for n in (4, 5, 6):
        oms = [b.omega_tilde for b in hooke.solve_frequencies(n, 0, -1)]
        assert oms == sorted(oms, reverse=True)


def test_frequency_scales_like_z_squared():
    b1 = hooke.solve_frequencies(4, 1, 1)
    b3 = hooke.solve_frequencies(4, 1, 3)
    for a, b in zip(b1, b3):
        assert b.omega_tilde == pytest.approx(9.0 * a.omega_tilde, rel=1e-13)


def test_no_branch_errors():
    with pytest.raises(hooke.NoBranchError):
        hooke.solve_frequencies(2, 0, 0)
    with pytest.raises(hooke.NoBranchError):
        hooke.solve_frequencies(1, 0, 1)


def test_kappa_carries_coulomb_sign():
    plus = hooke.solve_frequencies(3, 1, 1)[0]
    minus = hooke.solve_frequencies(3, 1, -1)[0]
    assert plus.kappa > 0 > minus.kappa
    assert plus.omega_tilde == minus.omega_tilde


def test_quantization_polynomial_degree_and_parity():
    for n in range(2, 7):
        q = hooke.quantization_polynomial(n, 1)
        assert q.degree == n
        even, odd = q.even_odd_parts()
        assert even.is_zero() or odd.is_zero()


def test_engine_matches_recurrence_random_tuples():
    rng = random.Random(20250816)
    for _ in range(6):
        m = rng.randrange(0, 4)
        n = rng.randrange(2, 6)
        kappa = Fraction(rng.randrange(-9, 10) or 1, rng.randrange(1, 7))
        e_tilde = 2 * (n - 1)
        F, P = hooke.hooke_series_operator(m, kappa, e_tilde)
        y = series_solve(F, P, 0, 24)
        a = hooke.recurrence_coefficients(kappa, e_tilde, m, 25)
        for j in range(25):
            assert y.coefficient(j) == a[j], (m, n, kappa, j)


def test_recurrence_symbolic_kappa():
    # with kappa left symbolic the coefficients are polynomials in kappa
    a = hooke.recurrence_coefficients(None, 2, 0, 5)
    assert a[1].degree == 1
    assert a[4].degree == 4


def test_termination_exact():
    branch = hooke.solve_frequencies(4, 1, -1)[0]
    assert branch.kappa_sq_exact is None or branch.kappa_sq_exact > 0
    a = hooke.recurrence_coefficients(branch.kappa, 2 * 3, 1, 16)
    for j in range(4, 16):
        assert abs(float(a[j])) < 1e-12


def test_node_count_tables():
    # descending frequency order; repulsion pushes nodes up the ladder
    want = {
        (4, 1): [1, 0], (4, -1): [2, 3],
        (5, 1): [1, 0], (5, -1): [3, 4],
        (6, 1): [2, 1, 0], (6, -1): [3, 4, 5],
    }
    for (n, Z), nodes in want.items():
        wfs = [hooke.build_wavefunction(b) for b in hooke.solve_frequencies(n, 0, Z)]
        assert [wf.nodes for wf in wfs] == nodes, (n, Z)


def _r_poly(b):
    """(omega, r-polynomial) of a branch exactly as build_wavefunction runs the recurrence."""
    exact = b.omega_exact is not None
    w = b.omega_exact if exact else b.omega_tilde
    Zc = Fraction(int(b.Z)) if exact else b.Z
    m_abs = Fraction(b.m) if exact else float(b.m)
    return w, Poly(hooke.recurrence_coefficients(Zc, 2 * (b.n - 1), m_abs, b.n, w))


def _ladder(n, m, Z):
    """(nodes, oscillation-ladder count) per branch of (n, m, Z), descending omega.

    The nodes are those of the r-polynomial exactly as build_wavefunction
    builds it; the state itself is not built (the float-evaluated states of
    some attractive branches fail its normalization guard).
    """
    branches = hooke.solve_frequencies(n, m, Z)
    B = len(branches)
    out = []
    for k, b in enumerate(branches):
        _, poly = _r_poly(b)
        wf = hooke.RadialWavefunction(m_abs=float(m), omega=b.omega_tilde, Z=b.Z,
                                      eps_rel=b.eps_rel, poly=poly, norm=1.0, branch=b)
        out.append((wf.nodes, B - 1 - k if Z > 0 else n - B + k))
    return out


# The float r-polynomial of this branch has 15 positive roots where the ladder
# wants 23 (CHANGES.md FOUND line on the node ladder); the count itself is exact.
LADDER_BREAK = (24, 10, -1, 11)


@pytest.mark.parametrize("case", [
    pytest.param(None, id="n2-24_m0,5,10_Z+-1"),
    pytest.param(LADDER_BREAK, id="n24_m10_Z-1_branch11", marks=pytest.mark.xfail(
        strict=True, reason="float r-polynomial loses roots (CHANGES.md FOUND)")),
])
def test_node_ladder(case):
    # repulsive branch k of B has B-1-k nodes, attractive branch k has n-B+k
    if case is not None:
        n, m, Z, k = case
        nodes, want = _ladder(n, m, Z)[k]
        assert nodes == want
        return
    for n in range(2, 25):
        for m in (0, 5, 10):
            for Z in (1, -1):
                for k, (nodes, want) in enumerate(_ladder(n, m, Z)):
                    if (n, m, Z, k) != LADDER_BREAK:
                        assert nodes == want, (n, m, Z, k)


def test_reference_branch_energies():
    branch = hooke.solve_frequencies(2, 0, 1)[0]
    assert branch.omega_exact == Fraction(1, 2)
    assert branch.eps_rel_exact == Fraction(1)
    assert branch.eps_prime == 4


def test_eps_rel_doubled_closed_form():
    # doubled radial eigenvalue at n = 2 reads Z^2 (|m| + 2) / (2 |m| + 1)
    for m in range(0, 5):
        for Z in (1, -2):
            b = hooke.solve_frequencies(2, m, Z)[0]
            assert 2 * b.eps_rel_exact == Fraction(Z * Z * (m + 2), 2 * m + 1)


def test_wavefunction_normalized():
    for n, m, Z in ((2, 0, 1), (3, 2, -1), (5, 1, 1)):
        wf = hooke.build_wavefunction(hooke.solve_frequencies(n, m, Z)[0])
        total, _ = adaptive_quad(wf.u_squared, 0.0, wf.support_radius(), tol_abs=1e-12)
        assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("Z", [1, -1])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_norm_moment_sums_exact(n, m, Z):
    # sqrt(pi) enters only through rho = Gamma(a + 1/2) / (Gamma(a) sqrt(omega)),
    # so E and O must equal their Fraction sums exactly
    b = hooke.solve_frequencies(n, m, Z)[0]
    w, poly = _r_poly(b)
    a = m + 1
    sq = poly * poly
    E = sum(c * math.prod(a + i for i in range(j)) / w**j
            for j, c in enumerate(sq.coeffs[0::2]))
    O = sum(c * math.prod(Fraction(2 * a + 1 + 2 * i, 2) for i in range(j)) / w**j
            for j, c in enumerate(sq.coeffs[1::2]))
    E_int, O_int, L = hooke._moment_sums(a, w, poly)
    assert (Fraction(E_int, L), Fraction(O_int, L)) == (E, O)
    rho = math.gamma(a + 0.5) / (math.gamma(a) * math.sqrt(w))
    integral = math.gamma(a) / (2 * float(w) ** a) * (float(E) + rho * float(O))
    assert hooke._norm_constant(m, w, poly) == pytest.approx(1 / math.sqrt(integral), rel=1e-14)


def _adaptive_norm(m_abs, omega, poly):
    """The norm as an adaptive quadrature of the float polynomial (the route it replaced)."""
    two_nu = 2 * float(m_abs) + 1
    p = poly.as_floats()
    rmax = math.sqrt((80.0 + 4.0 * (two_nu + 2 * max(p.degree, 0))) / omega)
    val, _ = adaptive_quad(lambda r: math.exp(-omega * r * r) * r**two_nu * p(r) ** 2,
                           0.0, rmax, tol_abs=1e-14, tol_rel=1e-13, limit=400,
                           points=[1.0 / math.sqrt(omega)])
    return 1.0 / math.sqrt(val)


@pytest.mark.parametrize("Z", [1, -1])
@pytest.mark.parametrize("m", [0, 3, 10])
def test_norm_matches_adaptive_quadrature(m, Z):
    compared = 0
    for n in range(2, 15):
        for b in hooke.solve_frequencies(n, m, Z):
            w, poly = _r_poly(b)
            try:
                want = _adaptive_norm(m, b.omega_tilde, poly)
            except QuadratureNonConvergence:
                continue   # the adaptive route cannot certify some attractive branches
            compared += 1
            assert hooke._norm_constant(m, w, poly) == pytest.approx(want, rel=1e-11, abs=0.0), \
                (n, m, Z, b.omega_tilde)
    assert compared


@pytest.mark.parametrize("n, m, Z, k", [
    (24, 10, -1, 11),   # float Horner is far off: int u^2 misses 1 by -1.7e-2
    (28, 10, -1, 12),   # and by +17
    # int u^2 is within 1e-10 of 1 on the rule's 4 and 8 panels, but the float
    # evaluation error integrates to 2.6e-9 (the virial identity misses by 2.5e-10)
    (11, 10, -1, 4),
])
def test_build_rejects_noisy_float_state(n, m, Z, k):
    with pytest.raises(QuadratureNonConvergence):
        hooke.build_wavefunction(hooke.solve_frequencies(n, m, Z)[k])


def test_norm_needs_integer_m():
    with pytest.raises(ValueError):
        hooke._norm_constant(0.5, 1.0, Poly((1.0,)))
    with pytest.raises(ValueError):
        hooke.build_wavefunction(hooke.oscillator_branch(1.5, 1.0))


_VIRIAL_X, _VIRIAL_W = np.polynomial.legendre.leggauss(64)


def _moments(wf):
    """(<r^2>, <1/r>) by a composite 64-point Gauss-Legendre rule on 32 equal panels."""
    deg = max(wf.poly.degree, 0)
    r_max = math.sqrt((200.0 + 4.0 * (2.0 * wf.m_abs + 1.0 + 2.0 * deg)) / wf.omega)
    half = 0.5 * r_max / 32
    r = half * (2 * np.arange(32)[:, None] + 1 + _VIRIAL_X)
    w = half * _VIRIAL_W
    return float(np.sum(w * wf.u_squared(r) * r * r)), float(np.sum(w * wf.density_radial(r)))


@pytest.mark.parametrize("Z", [1, -1, 2, -2])
@pytest.mark.parametrize("m", [0, 3, 10])
def test_virial_identity(m, Z):
    # eps_rel = 2 <V_harm> + <V_coul> / 2 = omega^2 <r^2> + (Z / 4) <1/r>
    built = 0
    for n in range(2, 15):
        for b in hooke.solve_frequencies(n, m, Z):
            try:
                wf = hooke.build_wavefunction(b)
            except QuadratureNonConvergence:
                continue
            built += 1
            r2, inv_r = _moments(wf)
            virial = wf.omega**2 * r2 + 0.25 * wf.Z * inv_r
            assert virial == pytest.approx(wf.eps_rel, rel=1e-10, abs=0.0), (n, m, Z, b.omega_tilde)
    assert built


def test_wavefunction_exact_coefficients():
    wf = hooke.build_wavefunction(hooke.solve_frequencies(2, 0, 1)[0])
    assert wf.poly.degree == 1
    assert wf.poly.coeffs[1] == Fraction(1)  # a1 = kappa/(2m+1) in r after sqrt(omega) scaling


def test_eigen_residual_sweep():
    for n in range(2, 7):
        for Z in (1, -1):
            for b in hooke.solve_frequencies(n, 1, Z):
                wf = hooke.build_wavefunction(b)
                assert hooke.verify_branch(wf) < 1e-9, (n, Z, b.omega_tilde)


def test_perturbed_frequency_fails_residual():
    import dataclasses
    wf = hooke.build_wavefunction(hooke.solve_frequencies(3, 0, 1)[0])
    bad = dataclasses.replace(wf, omega=wf.omega * (1.0 + 1e-3))
    assert hooke.verify_branch(bad) > 1e-6


def test_rho_series_matches_r_polynomial():
    # the kappa-space run (omega = 1) is the r-space run in rho = sqrt(omega) r
    branch = hooke.solve_frequencies(3, 1, -1)[0]
    wf = hooke.build_wavefunction(branch)
    a = hooke.recurrence_coefficients(branch.kappa, 2 * (3 - 1), 1, 3)
    for j, b in enumerate(wf.poly.coeffs):
        assert float(a[j]) * wf.omega ** (j / 2) == pytest.approx(float(b), rel=1e-13)


def test_hooke_params_round_trip():
    branch = hooke.solve_frequencies(2, 1, 1)[0]
    params = hooke.HookeParams.for_branch(branch, omegaL=0.3)
    assert params.omega_tilde == pytest.approx(branch.omega_tilde, rel=1e-14)
    with pytest.raises(hooke.InconsistentParams):
        hooke.HookeParams.for_branch(branch, omegaL=10.0)


def test_energy_record():
    branch = hooke.solve_frequencies(2, 1, 1)[0]   # omega = 1/6
    params = hooke.HookeParams.for_branch(branch)  # zero field
    rec = hooke.energies(branch, params, cm_quanta=0)
    assert rec.eps_rel == pytest.approx(0.5, abs=1e-14)
    assert rec.eps == pytest.approx(rec.eps_rel, abs=1e-15)  # no field, no Zeeman shift
    assert rec.eps_rel_doubled == pytest.approx(1.0, abs=1e-14)
    # CM ladder: omega_R = 2 omega0 = 4 omega_tilde
    assert rec.e_cm == pytest.approx(4.0 * branch.omega_tilde, rel=1e-14)
    assert rec.e_total == pytest.approx(2.0 * rec.eps + 0.5 * rec.e_cm, rel=1e-14)


def test_energy_record_with_field():
    branch = hooke.solve_frequencies(2, 1, 1)[0]
    params = hooke.HookeParams.for_branch(branch, omegaL=0.2)
    rec = hooke.energies(branch, params)
    assert rec.eps == pytest.approx(rec.eps_rel + 0.5 * 1 * 0.2, rel=1e-14)


def test_energy_record_rejects_mismatched_trap():
    branch = hooke.solve_frequencies(2, 1, 1)[0]
    params = hooke.HookeParams(Z=1, m=1, omega0=1.0)
    with pytest.raises(hooke.InconsistentParams):
        hooke.energies(branch, params)


def test_center_of_mass_state():
    params = hooke.HookeParams(Z=1, m=0, omega0=0.8)
    cm = hooke.CenterOfMassState.from_trap(params)
    assert cm.beta == pytest.approx(1.6, rel=1e-15)
    total, _ = adaptive_quad(lambda R: 2.0 * math.pi * R * cm.probability(R), 0.0, 20.0,
                             tol_abs=1e-12)
    assert total == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        hooke.CenterOfMassState(beta=-1.0)


def test_oscillator_branch():
    b = hooke.oscillator_branch(2, Fraction(1, 3))
    assert b.n == 1 and b.Z == 0
    wf = hooke.build_wavefunction(b)
    assert wf.poly.degree == 0
    assert wf.nodes == 0
    assert hooke.verify_branch(wf) < 1e-12
