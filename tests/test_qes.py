import math
from fractions import Fraction

import numpy as np
import pytest

from hookium import hooke, qes
from hookium.integrate import adaptive_quad
from hookium.series import EulerPolynomial, MonomialOperator, PowerSeries


@pytest.fixture(scope="module")
def exact_sector():
    alpha = qes.qes_condition(2, 0, Fraction(4, 9))
    return qes.SexticParams(alpha=alpha, gamma=Fraction(4, 9), m=0)


@pytest.fixture(scope="module")
def mapped_sector():
    # the sextic image of the repulsive two-particle ground branch
    return qes.SexticParams(alpha=-8.0, gamma=1.0, m=-0.5)


def test_params_validation():
    with pytest.raises(ValueError):
        qes.SexticParams(alpha=1.0, gamma=-2.0, m=0)
    p = qes.SexticParams(alpha=-6, gamma=Fraction(4, 9), m=0)
    assert p.sqrt_gamma == Fraction(2, 3)
    assert p.A == Fraction(-4, 3)


def test_condition_closes_sector(exact_sector):
    p = exact_sector
    assert p.alpha == Fraction(-6)
    assert p.A == -2 * p.sqrt_gamma
    assert qes.condition_residual(p, 2) == 0
    assert qes.sector_degree(p) == 1


def test_condition_open_for_odd_shift():
    p = qes.SexticParams(alpha=qes.qes_condition(1, 0, 1.0), gamma=1.0, m=0)
    assert qes.sector_degree(p) is None
    with pytest.raises(ValueError):
        qes.sector_energies(p)


def test_sector_energies_symmetric_pair(exact_sector):
    es = qes.sector_energies(exact_sector)
    assert es == [-2.0, 2.0]
    want = math.sqrt(2.0 * float(exact_sector.sqrt_gamma) * 3.0)
    assert es[1] == pytest.approx(want, rel=1e-15)


def test_series_leading_coefficients():
    # x^2 and x^4 coefficients of the eigen-equation series, -2E/(2(2m+3)) and
    # 2A/(4(2m+5)) + (2E)^2/(8(2m+3)(2m+5)) at m = 0
    p = qes.SexticParams(alpha=-3.0, gamma=1.0, m=0)
    E = 1.7
    s = qes.qes_eigen_series(E, p, 8)
    A = float(p.A)
    assert s.coefficient(0) == 1
    assert s.coefficient(2) == pytest.approx(-E / 3.0, abs=1e-15)
    assert s.coefficient(4) == pytest.approx(A / 10.0 + E * E / 30.0, abs=1e-15)


def test_eigen_series_annihilated_below_truncation():
    p = qes.SexticParams(alpha=-3.0, gamma=1.0, m=0)
    N = 20
    E = 1.7
    u = qes.qes_eigen_series(E, p, N)
    # the reduced eigen-operator, written out independently of the recurrence
    F = EulerPolynomial.from_roots([0, -1])
    P = MonomialOperator([(2 * E, 2, 0), (-2 * float(p.A), 4, 0),
                          (-2 * float(p.sqrt_gamma), 5, 1)])
    tail = F.to_monomial().apply(u) + P.apply(u)
    low = max((abs(float(tail.coefficient(e))) for e in tail.exponents() if e <= N),
              default=0.0)
    high = max(abs(float(tail.coefficient(e))) for e in tail.exponents() if e > N)
    assert low < 1e-14
    assert high > 1e-4


@pytest.mark.parametrize("n", (2, 4, 6, 8))
@pytest.mark.parametrize("m", (Fraction(-1, 2), Fraction(0), Fraction(1)))
@pytest.mark.parametrize("gamma", (Fraction(1, 4), Fraction(4, 9), Fraction(1),
                                   Fraction(9, 4), Fraction(4)))
def test_closed_sector_levels_map_to_trap_states(gamma, m, n):
    p = qes.SexticParams(alpha=qes.qes_condition(n, m, gamma), gamma=gamma, m=m)
    levels = qes.sector_energies(p)
    assert len(levels) == n // 2 + 1
    for E in levels:
        u = qes.qes_eigen_series(E, p, n + 2)
        assert hooke.verify_branch(qes.sextic_state_to_hooke(p, E, u)) <= 1e-9, E


def test_exact_sector_states(mapped_sector):
    p = mapped_sector
    assert qes.sector_degree(p) == 1
    es = qes.sector_energies(p)
    assert es[0] == pytest.approx(-2.0, abs=1e-12)
    assert es[1] == pytest.approx(2.0, abs=1e-12)
    u_plus = qes.qes_eigen_series(2.0, p, 12)
    u_minus = qes.qes_eigen_series(-2.0, p, 12)
    assert u_plus.coefficient(2) == pytest.approx(-1.0, abs=1e-15)
    assert abs(u_plus.coefficient(4)) < 1e-15
    assert qes.node_count(u_plus, (0.0, 4.0)) == 1
    assert qes.node_count(u_minus, (0.0, 4.0)) == 0


def test_node_count_exact_rational_path(exact_sector):
    u = qes.qes_eigen_series(Fraction(2), exact_sector, 12)
    assert u.coefficient_kind == "exact-rational"
    assert qes.node_count(u, (0.0, 4.0)) == 1


def test_residual_functional_discriminates(mapped_sector):
    r_exact, _, _ = qes._residual_functional(mapped_sector, 2.0, 12)
    r_off, _, _ = qes._residual_functional(mapped_sector, 2.3, 12)
    assert r_exact <= 1e-12
    assert r_off > 1e-6


def _quadrature_inner(p, f, g):
    """int_0^x_max psi0^2 f g dx by adaptive quadrature over pointwise series values."""
    m, sg = float(p.m), float(p.sqrt_gamma)
    peak = max(((m + 1.0) / sg) ** 0.25, 0.3)
    val, _ = adaptive_quad(lambda x: x ** (2.0 * m + 2.0) * math.exp(-sg * x**4 / 2.0)
                           * f.evaluate(x) * g.evaluate(x),
                           0.0, qes._x_max(p), tol_abs=1e-13, tol_rel=1e-11, limit=300,
                           points=[peak])
    return val


def _operator_residual(p, E, u):
    """(H - E) u from the reduced operator [F(D) + 2E x^2 - 2A x^4 - 2 sqrt(gamma) x^5 d] u,
    which is -2 x^2 (H - E) u, built independently of the recurrence."""
    F = EulerPolynomial.from_roots([0, -(2 * p.m + 1)])
    P = MonomialOperator([(2 * E, 2, 0), (-2 * p.A, 4, 0), (-2 * p.sqrt_gamma, 5, 1)])
    tail = F.to_monomial().apply(u) + P.apply(u)
    return PowerSeries(tail.base - 2, tail.coeffs).scaled(-0.5)


@pytest.mark.parametrize("n", (2, 4, 6))
@pytest.mark.parametrize("m", (Fraction(-1, 2), Fraction(0), Fraction(1)))
@pytest.mark.parametrize("gamma", (Fraction(1, 4), Fraction(1), Fraction(4), 0.3))
def test_gamma_moments_match_quadrature(gamma, m, n):
    p = qes.SexticParams(alpha=qes.qes_condition(n, m, gamma), gamma=gamma, m=m)
    levels = qes.sector_energies(p)
    # below the ground level, between the two lowest levels, above the top one
    for E in (levels[0] - 0.5, (levels[0] + levels[1]) / 2, levels[-1] + 0.5):
        for N in (12, 16):
            u, _, norm = qes._trial_state(p, E, N)
            want_resid = _operator_residual(p, E, u)
            want_norm = _quadrature_inner(p, u, u)
            assert norm == pytest.approx(want_norm, rel=1e-12, abs=0)
            R = qes._residual_functional(p, E, N)[0]
            want_R = _quadrature_inner(p, want_resid, want_resid) / want_norm
            assert R == pytest.approx(want_R, rel=1e-9, abs=1e-20)
            rq = qes.rayleigh_quotient(p, E, N)
            want_rq = _quadrature_inner(p, u, want_resid) / want_norm
            assert rq == pytest.approx(want_rq, rel=1e-9, abs=1e-12)


def test_exact_level_residual_vanishes(exact_sector):
    u, resid, norm = qes._trial_state(exact_sector, Fraction(2), 12)
    assert resid.is_zero()
    assert norm > 0
    assert qes._residual_functional(exact_sector, Fraction(2), 12)[0] == 0.0
    assert qes.rayleigh_quotient(exact_sector, Fraction(2), 12) == 0.0


def test_rayleigh_quotient_crosses_zero(mapped_sector):
    rq_lo = qes.rayleigh_quotient(mapped_sector, 1.9, 16)
    rq_hi = qes.rayleigh_quotient(mapped_sector, 2.1, 16)
    assert rq_lo * rq_hi < 0


def test_variational_recovers_exact_state(mapped_sector):
    vs = qes.variational_state(mapped_sector, 1, 16)
    assert vs.E_star == pytest.approx(2.0, abs=1e-8)
    assert vs.residual_norm <= 1e-12
    assert vs.node_count == 1
    vs2 = qes.variational_state(mapped_sector, 1, 20)
    assert abs(vs2.E_star - vs.E_star) < 1e-4


def test_variational_ground_state(mapped_sector):
    vs = qes.variational_state(mapped_sector, 0, 16, E_bracket=(-6.0, 0.0))
    assert vs.E_star == pytest.approx(-2.0, abs=1e-8)
    assert vs.node_count == 0


def test_variational_unreachable_nodes(mapped_sector):
    with pytest.raises(qes.NodeCountUnreachable):
        qes.variational_state(mapped_sector, 6, 10)


def test_variational_bracket_excludes_minimum(mapped_sector):
    with pytest.raises(qes.BracketError):
        qes.variational_state(mapped_sector, 1, 16, E_bracket=(0.5, 1.9),
                              scan_points=9)


def test_dictionary_round_trip():
    br = hooke.solve_frequencies(2, 0, -1)[0]
    inv = qes.map_from_hooke(br)
    assert inv.params.gamma == pytest.approx(1.0, abs=1e-15)
    assert inv.E == pytest.approx(2.0, abs=1e-15)
    assert inv.params.alpha == pytest.approx(-8.0, abs=1e-15)
    assert inv.params.m == -0.5
    assert not inv.integer_sextic_m
    eq = qes.map_to_hooke(inv.params, inv.E)
    assert eq.omega_tilde == pytest.approx(br.omega_tilde, abs=1e-14)
    assert eq.Z == pytest.approx(br.Z, abs=1e-14)
    assert eq.eps_rel == pytest.approx(br.eps_rel, abs=1e-14)
    assert eq.m_tilde == pytest.approx(abs(br.m), abs=1e-14)


def test_sextic_state_maps_to_valid_trap_state(exact_sector):
    for Ev in (2.0, -2.0):
        useries = qes.qes_eigen_series(Ev, exact_sector, 12)
        wf = qes.sextic_state_to_hooke(exact_sector, Ev, useries)
        res = hooke.verify_branch(wf, grid=np.linspace(1e-3, 12.0, 600))
        assert res < 1e-9, Ev


def test_trap_state_maps_to_valid_sextic_state():
    for Z in (-1, 1):
        br = hooke.solve_frequencies(2, 0, Z)[0]
        inv = qes.map_from_hooke(br)
        sw = qes.hooke_state_to_sextic(hooke.build_wavefunction(br))
        res = qes.sextic_residual(inv.params, inv.E, sw)
        assert res < 1e-9, Z


def test_variable_change_identity():
    # the sextic image evaluates as x^{-1/2} u(x^2) pointwise
    br = hooke.solve_frequencies(2, 0, -1)[0]
    wf = hooke.build_wavefunction(br)
    sw = qes.hooke_state_to_sextic(wf)
    xs = np.linspace(0.3, 2.2, 7)
    lhs = np.array([sw.psi(x) for x in xs])
    rhs = np.array([wf.u(x * x) / np.sqrt(x) for x in xs])
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-14)
