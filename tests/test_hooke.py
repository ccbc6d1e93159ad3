import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from hookium import hooke
from hookium.integrate import QuadratureNonConvergence, adaptive_quad
from hookium.polyops import Poly, real_roots, sturm_count
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


def _fraction_recurrence(e_tilde, m_abs, count, omega=1):
    """The symbolic recurrence run directly in Fraction Poly arithmetic."""
    kappa = Poly.symbol()
    out = [Poly.constant(Fraction(1))]
    for j in range(1, count):
        term = kappa * out[j - 1]
        if j >= 2:
            term = term + omega * (2 * (j - 2) - e_tilde) * out[j - 2]
        out.append(term / (j * (j + 2 * m_abs)))
    return out


@pytest.mark.parametrize("m", [0, 1, 5, Fraction(1, 2), Fraction(3, 2), Fraction(-7, 3),
                               Fraction(-4, 2), 2.0])
def test_symbolic_recurrence_matches_fraction_reference(m):
    m_abs = abs(Fraction(m))
    for n in range(1, 40):
        want = _fraction_recurrence(2 * (n - 1), m_abs, n + 1)
        assert hooke.quantization_polynomial(n, m) == want[n], (n, m)
    assert hooke.recurrence_coefficients(None, 2 * 11, m_abs, 13) == _fraction_recurrence(22, m_abs, 13)
    # a rational omega and e_tilde, as the sextic sector series use them
    args = (Fraction(-7, 3), m_abs, 15, Fraction(5, 4))
    assert hooke.recurrence_coefficients(None, *args) == _fraction_recurrence(*args)


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
    """(omega, r-polynomial) of a branch by the recurrence in r: exact for rational omega, else in floats."""
    exact = b.omega_exact is not None
    w = b.omega_exact if exact else b.omega_tilde
    Zc = Fraction(int(b.Z)) if exact else b.Z
    m_abs = Fraction(b.m) if exact else float(b.m)
    return w, Poly(hooke.recurrence_coefficients(Zc, 2 * (b.n - 1), m_abs, b.n, w))


def _refined_kappa(b, s_poly):
    """kappa to about 1e-19 relative or better, as a Fraction with a denominator below 2**32.

    Two exact Newton steps on the s-polynomial, each rounded to 2**-128, take
    s = kappa^2 from 53 to over 100 correct bits; the best rational
    approximation of its square root then keeps the integers of a Sturm chain
    at that kappa short. A float kappa is not enough: at (24, 10, -1) branch
    11 a kappa 2.3e-16 off gives a rho-polynomial with 15 positive roots, not 23.
    """
    ds_poly = s_poly.derivative()
    s = Fraction(b.kappa) ** 2
    for _ in range(2):
        s -= s_poly(s) / ds_poly(s)
        s = Fraction(round(s * 2**128), 2**128)
    root = Fraction(math.isqrt(round(s * 4**128)), 2**128).limit_denominator(2**32)
    return root if b.Z > 0 else -root


def _positive_root_count(poly, near_roots):
    """Positive real roots of an exact polynomial, certified by signs around float roots.

    poly is evaluated exactly at 0, at the midpoints of the sorted near_roots and at
    +-(2 max|root| + 1). If the values change sign deg times, every gap between
    neighbouring points holds one simple root and no root lies elsewhere, so the
    positive count is the sign changes right of 0. Otherwise the Sturm chain counts.
    """
    edge = 2 * max(abs(r) for r in near_roots) + 1
    mids = [(a + b) / 2 for a, b in zip(near_roots, near_roots[1:])]
    points = sorted({Fraction(x) for x in (-edge, 0, edge, *mids)})
    values = [poly(x) for x in points]
    if all(values):
        gaps = [lo for lo, a, b in zip(points, values, values[1:]) if (a > 0) != (b > 0)]
        if len(gaps) == poly.degree:
            return sum(lo >= 0 for lo in gaps)
    return sturm_count(poly, 0, math.inf)


def _check_ladder(n, m, Z, only=None):
    """Node count of every built branch of (n, m, Z) against the ladder and an exact oracle.

    Repulsive branch k of B (descending omega) has B-1-k nodes, attractive
    branch k has n-B+k. The oracle does not use the chamber: it is the positive
    root count of the rho-polynomial the Fraction recurrence gives at the refined
    kappa, certified exactly around the state's own roots in rho = sqrt(omega) r.
    The roots must also give kappa = -2 sum(zeta), zeta = sqrt(omega) r.
    """
    branches = hooke.solve_frequencies(n, m, Z)
    B = len(branches)
    even, odd = hooke.quantization_polynomial(n, m).even_odd_parts()
    for k, b in enumerate(branches):
        if only is not None and k != only:
            continue
        wf = hooke.build_wavefunction(b)
        kappa = _refined_kappa(b, odd if n % 2 else even)
        rho_poly = Poly(hooke.recurrence_coefficients(kappa, 2 * (n - 1), m, n))
        want = B - 1 - k if Z > 0 else n - B + k
        rho_roots = math.sqrt(b.omega_tilde) * wf.roots
        assert wf.nodes == _positive_root_count(rho_poly, rho_roots.tolist()) == want, (n, m, Z, k)
        defect = abs(-2 * math.sqrt(b.omega_tilde) * math.fsum(wf.roots) - float(kappa))
        assert defect <= 1e-12 * abs(b.kappa), (n, m, Z, k, defect)


def test_positive_root_count_certificate_and_fallback():
    p = Poly([6, -5, -2, 1])   # (x + 2)(x - 1)(x - 3)
    assert _positive_root_count(p, [-2.0, 1.0, 3.0]) == 2
    # roots that miss the gaps, and a double root, leave the sign test short: Sturm counts
    assert _positive_root_count(p, [0.5, 0.6, 0.7]) == 2
    assert _positive_root_count(Poly([1, -2, 1]), [1.0, 1.0]) == 1


@pytest.mark.parametrize("case", [
    pytest.param(None, id="n2-24_m0,5,10_Z+-1"),
    # the float r-recurrence this state was once built from lost 8 of its 23 nodes
    pytest.param((24, 10, -1, 11), id="n24_m10_Z-1_branch11"),
])
def test_node_ladder(case):
    if case is not None:
        _check_ladder(*case[:3], only=case[3])
        return
    for n in range(2, 25):
        for m in (0, 5, 10):
            for Z in (1, -1):
                _check_ladder(n, m, Z)


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


_PI = Fraction("3.141592653589793238462643383279502884197169399375105820974944592")


def _gamma_moment_norm(m_abs, omega, poly):
    """Oracle: 1 / sqrt(int_0^inf exp(-omega r^2) r^(2a-1) p(r)^2 dr) with a = |m| + 1.

    With p^2 = sum_k c_k r^k every power is a Gamma moment, so the integral is
    Gamma(a) / (2 omega^a) [E + rho O] with E = sum_j c_2j (a)_j omega^-j and
    O = sum_j c_(2j+1) (a + 1/2)_j omega^-j as exact Fraction sums, and
    rho = Gamma(a + 1/2) / (Gamma(a) sqrt(omega)) = R sqrt(pi / omega) with
    R = (2a)! / (4^a a! (a-1)!). E and rho O cancel by up to 4 digits for
    attractive n = 3 (float Gamma values then miss by up to 1.1e-12), so rho
    is taken to 60 digits from a 64-digit pi and the sum is rounded once.
    """
    a = m_abs + 1
    sq = poly * poly
    E = sum(c * math.prod(a + i for i in range(j)) / omega**j
            for j, c in enumerate(sq.coeffs[0::2]))
    O = sum(c * math.prod(Fraction(2 * a + 1 + 2 * i, 2) for i in range(j)) / omega**j
            for j, c in enumerate(sq.coeffs[1::2]))
    R = Fraction(math.factorial(2 * a), 4**a * math.factorial(a) * math.factorial(a - 1))
    rho_sq, scale = R * R * _PI / omega, 10**60
    rho = Fraction(math.isqrt(rho_sq.numerator * scale**2 // rho_sq.denominator), scale)
    integral = Fraction(math.factorial(a - 1), 2) / omega**a * (E + rho * O)
    return 1 / math.sqrt(integral)


@pytest.mark.parametrize("Z", [1, -1, 2, -2])
@pytest.mark.parametrize("m", list(range(11)))
@pytest.mark.parametrize("n", [2, 3])
def test_norm_moment_sums_exact(n, m, Z):
    # the built exact-coefficient state: its poly is the exact r-polynomial, its roots
    # are that polynomial's real roots as floats, and the shared Gauss rule's norm
    # equals the closed-form Gamma-moment norm
    (b,) = hooke.solve_frequencies(n, m, Z)
    w, poly = _r_poly(b)
    wf = hooke.build_wavefunction(b)
    assert wf.poly == poly
    rational, irrational = real_roots(poly)
    assert wf.roots.tolist() == sorted([float(x) for x in rational] + irrational)
    assert len(wf.roots) == n - 1 and not wf.roots.flags.writeable
    assert wf.norm == pytest.approx(_gamma_moment_norm(m, w, poly), rel=1e-14, abs=0.0)


def _adaptive_norm(wf):
    """The state's norm as an adaptive quadrature of its own unnormalized u^2."""
    bare = dataclasses.replace(wf, norm=1.0)
    val, _ = adaptive_quad(bare.u_squared, 0.0, hooke._u2_range(wf), tol_abs=1e-14, tol_rel=1e-13,
                           limit=400, points=[1.0 / math.sqrt(wf.omega)])
    return 1.0 / math.sqrt(val)


@pytest.mark.parametrize("Z", [1, -1])
@pytest.mark.parametrize("m", [0, 3, 10])
def test_norm_matches_adaptive_quadrature(m, Z):
    compared = 0
    for n in range(2, 15):
        for b in hooke.solve_frequencies(n, m, Z):
            wf = hooke.build_wavefunction(b)
            try:
                want = _adaptive_norm(wf)
            except QuadratureNonConvergence:
                continue   # the adaptive route cannot certify some attractive branches
            compared += 1
            assert wf.norm == pytest.approx(want, rel=1e-11, abs=0.0), (n, m, Z, b.omega_tilde)
    assert compared


def test_norm_needs_integer_m():
    with pytest.raises(ValueError):
        hooke.build_wavefunction(hooke.oscillator_branch(1.5, 1.0))


def test_certify_runs_on_coefficient_states_only(monkeypatch):
    # the exact-coefficient states are certified against the product over their roots;
    # a root-product state is evaluated from its roots and has nothing to certify
    certified = []
    certify = hooke._certify
    monkeypatch.setattr(hooke, "_certify", lambda wf: certified.append(wf) or certify(wf))
    built = [hooke.build_wavefunction(b)
             for n in range(2, 7) for m in (0, 2) for Z in (1, -1, 2, -2)
             for b in hooke.solve_frequencies(n, m, Z)]
    built += [hooke.build_wavefunction(hooke.oscillator_branch(m, w))
              for m in (0, 3) for w in (Fraction(1, 2), 2, 0.3)]
    coefficient_form = [wf for wf in built if not isinstance(wf.poly, hooke._RootProduct)]
    assert coefficient_form and len(coefficient_form) < len(built)
    assert [id(wf) for wf in certified] == [id(wf) for wf in coefficient_form]


@pytest.mark.parametrize("n, m, Z", [(2, 0, 1), (3, 1, -1), (3, 4, 2)])
def test_certify_rejects_roots_that_are_not_the_polynomials(monkeypatch, n, m, Z):
    # one exact-route root 1e-6 relative off: p, by Horner on the exact coefficients,
    # no longer equals the product over the roots, and the build fails loudly
    (b,) = hooke.solve_frequencies(n, m, Z)
    assert b.omega_exact is not None and len(hooke.build_wavefunction(b).roots) == n - 1
    exact_roots = hooke.real_roots

    def shifted(p):
        rational, irrational = exact_roots(p)
        roots = sorted([float(x) for x in rational] + irrational)
        roots[-1] *= 1.0 + 1e-6
        return [], roots

    monkeypatch.setattr(hooke, "real_roots", shifted)
    # the certificate's own message, whether or not the rule could bound the integral
    with pytest.raises(QuadratureNonConvergence, match="as evaluated in floats carries evaluation error"):
        hooke.build_wavefunction(b)


_VIRIAL_X, _VIRIAL_W = np.polynomial.legendre.leggauss(64)


def _moments(wf):
    """(int u^2, <r^2>, <1/r>) by a composite 64-point Gauss-Legendre rule on 32 equal panels."""
    deg = max(wf.poly.degree, 0)
    r_max = math.sqrt((200.0 + 4.0 * (2.0 * wf.m_abs + 1.0 + 2.0 * deg)) / wf.omega)
    half = 0.5 * r_max / 32
    r = half * (2 * np.arange(32)[:, None] + 1 + _VIRIAL_X)
    w = half * _VIRIAL_W
    u2 = wf.u_squared(r)
    return float(np.sum(w * u2)), float(np.sum(w * u2 * r * r)), float(np.sum(w * wf.density_radial(r)))


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
            _, r2, inv_r = _moments(wf)
            virial = wf.omega**2 * r2 + 0.25 * wf.Z * inv_r
            assert virial == pytest.approx(wf.eps_rel, rel=1e-10, abs=0.0), (n, m, Z, b.omega_tilde)
    assert built


@pytest.mark.parametrize("n, m, Z, k", [
    # from float r-recurrence coefficients, u^2 of the first two integrated to
    # 1 - 1.7e-2 and to 18, and the third carried 2.6e-9 of evaluation error
    (24, 10, -1, 11),
    (28, 10, -1, 12),
    (11, 10, -1, 4),
])
def test_formerly_noisy_states_build(n, m, Z, k):
    branches = hooke.solve_frequencies(n, m, Z)
    wf = hooke.build_wavefunction(branches[k])
    assert wf.roots is not None and wf.nodes == n - len(branches) + k
    total, r2, inv_r = _moments(wf)
    assert abs(total - 1.0) < 1e-12
    assert hooke.verify_branch(wf) < 1e-12
    assert wf.omega**2 * r2 + 0.25 * wf.Z * inv_r == pytest.approx(wf.eps_rel, rel=1e-12, abs=0.0)


def test_root_state_round_trips():
    import copy
    import pickle
    wf = hooke.build_wavefunction(hooke.solve_frequencies(6, 1, -1)[1])
    r = np.linspace(0.0, 20.0, 9)
    for twin in (pickle.loads(pickle.dumps(wf)), copy.deepcopy(wf)):
        assert twin == wf and twin.nodes == wf.nodes
        assert np.array_equal(twin.u(r), wf.u(r))


DOMAIN_N = list(range(2, 15)) + list(range(16, 33, 2)) + [40, 50]


@pytest.mark.parametrize("m", [0, 5, 10])
def test_domain_invariants(m):
    # every branch of n in DOMAIN_N, Z = +-1 builds; residual < 1e-9, |int u^2 - 1| < 1e-12
    # by the 64-point rule (the build normalizes with the 48-point one), virial to 1e-10
    for n in DOMAIN_N:
        for Z in (1, -1):
            for b in hooke.solve_frequencies(n, m, Z):
                wf = hooke.build_wavefunction(b)
                key = (n, m, Z, b.omega_tilde)
                assert hooke.verify_branch(wf) < 1e-9, key
                total, r2, inv_r = _moments(wf)
                assert abs(total - 1.0) < 1e-12, key
                virial = wf.omega**2 * r2 + 0.25 * wf.Z * inv_r
                assert virial == pytest.approx(wf.eps_rel, rel=1e-10, abs=0.0), key


def _single_chamber_roots(N, nu, n_pos):
    """Reference: the chamber's equilibrium by damped Newton on that chamber alone.

    Same start, step halving and stopping rule as the batched solver, on one
    N-vector with one N x N Hessian per step.
    """
    n_neg = N - n_pos
    s = math.sqrt(2 * N + 2 * nu + 1)
    z = np.concatenate([-s * (np.arange(n_neg, 0, -1) - 0.5) / max(n_neg, 1),
                        s * (np.arange(1, n_pos + 1) - 0.5) / max(n_pos, 1)])
    for _ in range(100):
        d = z[:, None] - z
        d.flat[::N + 1] = 1.0
        inv = 1.0 / d
        inv.flat[::N + 1] = 0.0
        hess = -inv * inv
        hess.flat[::N + 1] = 1.0 + nu / (z * z) - hess.sum(1)
        step = np.linalg.solve(hess, z - nu / z - inv.sum(1))
        t = 1.0
        while True:
            new = z - t * step
            if (new[1:] > new[:-1]).all() and (n_neg == 0 or new[n_neg - 1] < 0) \
                    and (n_pos == 0 or new[n_neg] > 0):
                break
            t *= 0.5
        z = new
        if t == 1.0 and abs(step).max() <= 1e-13 * abs(z).max():
            return z
    raise AssertionError((N, nu, n_pos))


@pytest.mark.parametrize("m", [0, 5, 10])
def test_batched_roots_match_single_chamber_newton(m):
    # every chamber solved together equals its own solve bit for bit; exact branches carry none
    for n in DOMAIN_N:
        for Z in (1, -1, 2):
            for b in hooke.solve_frequencies(n, m, Z):
                if b.omega_exact is not None:
                    assert b.roots.size == 0
                    continue
                want = _single_chamber_roots(n - 1, m + 0.5, b.chamber) / math.sqrt(b.omega_tilde)
                assert b.roots.tobytes() == want.tobytes(), (n, m, Z, b.chamber)
                assert not b.roots.flags.writeable


def test_state_shares_the_branch_roots():
    b = hooke.solve_frequencies(7, 2, 1)[0]
    assert hooke.build_wavefunction(b).roots is b.roots
    assert hooke.oscillator_branch(0, 0.3).roots.size == 0
    assert hooke.build_wavefunction(hooke.oscillator_branch(0, 0.3)).nodes == 0
    with pytest.raises(ValueError):
        hooke.build_wavefunction(dataclasses.replace(b, roots=np.empty(0)))


def test_equilibrium_failures_are_loud(monkeypatch):
    monkeypatch.setattr(hooke, "_NEWTON_STEPS", 1)
    with pytest.raises(hooke.EquilibriumError):
        hooke.solve_frequencies(8, 0, -1)
    assert hooke.solve_frequencies(3, 0, 1)[0].roots.size == 0   # exact branches solve no chamber
    monkeypatch.setattr(hooke, "_NEWTON_STEPS", 100)
    monkeypatch.setattr(hooke, "_KAPPA_TOL", -1.0)
    with pytest.raises(hooke.EquilibriumError):
        hooke.solve_frequencies(8, 0, -1)


def test_branches_with_roots_round_trip():
    branches = hooke.solve_frequencies(6, 1, -1)
    assert all(b.roots.size == 5 for b in branches)
    assert {b: k for k, b in enumerate(branches)} == {b: k for k, b in enumerate(branches)}
    assert "roots" not in repr(branches[0])
    r = np.linspace(0.0, 20.0, 9)
    for b in branches:
        for twin in (pickle.loads(pickle.dumps(b)), copy.deepcopy(b)):
            assert twin == b and hash(twin) == hash(b)
            assert twin.roots.tobytes() == b.roots.tobytes()
            assert np.array_equal(hooke.build_wavefunction(twin).u(r), hooke.build_wavefunction(b).u(r))


def _residual_by_parts(wf):
    """verify_branch's default residual, with u and u'' from separate wf.u and wf.u_second calls."""
    r = np.linspace(1e-3, 12.0, 600)
    r_max = hooke._u2_range(wf)
    if r_max > 12.0:
        r = np.concatenate([r, np.linspace(12.0, r_max, 600)])
    u = wf.u(r)
    hu = -0.5 * wf.u_second(r)
    cf = (wf.m_abs * wf.m_abs - 0.25) / 2.0
    hu = hu + (cf / (r * r) + 0.5 * wf.omega**2 * r * r + wf.Z / (2.0 * r)) * u
    err, size = np.abs(hu - wf.eps_rel * u), np.abs(u)
    return float(max(np.max(err) / np.max(size), np.max(err[:600]) / np.max(size[:600])))


@pytest.mark.parametrize("n, m, Z", [(2, 0, 1), (3, 2, -1), (4, 1, 2), (6, 1, -1), (24, 10, -1)])
def test_residual_pass_matches_separate_calls(n, m, Z):
    for b in hooke.solve_frequencies(n, m, Z):
        wf = hooke.build_wavefunction(b)
        assert hooke.verify_branch(wf) == _residual_by_parts(wf), (n, m, Z, b.chamber)
    wf = hooke.build_wavefunction(hooke.oscillator_branch(1, 0.3))
    assert hooke.verify_branch(wf) == _residual_by_parts(wf)


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


# low-frequency ground states whose support reaches far past r = 12; the last
# two peak there and fail the 1e-9 residual bound on [1e-3, 12] alone
@pytest.mark.parametrize("n, m, Z", ((24, 10, 1), (26, 2, -2), (28, 3, 2)))
def test_default_residual_grid_covers_support(n, m, Z):
    wf = hooke.build_wavefunction(hooke.solve_frequencies(n, m, Z)[0])
    r_max = hooke._u2_range(wf)
    assert r_max > 40.0
    default = hooke.verify_branch(wf)
    assert default >= hooke.verify_branch(wf, grid=np.linspace(12.0, r_max, 600))
    assert default >= hooke.verify_branch(wf, grid=np.linspace(1e-3, 12.0, 600))


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_center_of_mass_width_must_be_finite_and_positive(value):
    with pytest.raises(ValueError, match="beta must be finite and positive"):
        hooke.CenterOfMassState(beta=value)


@pytest.mark.parametrize("value", [math.nan, 0.0, -1.0, math.inf])
def test_oscillator_branch_rejects_nonpositive_frequency(value):
    with pytest.raises(ValueError, match="omega_tilde must be positive"):
        hooke.oscillator_branch(0, value)


def test_oscillator_branch():
    b = hooke.oscillator_branch(2, Fraction(1, 3))
    assert b.n == 1 and b.Z == 0
    wf = hooke.build_wavefunction(b)
    assert wf.poly.degree == 0
    assert wf.nodes == 0
    assert hooke.verify_branch(wf) < 1e-12
