import dataclasses
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg, special

from hookium import hooke, observables, polyops, qes
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
    with pytest.raises(ValueError, match="gamma must be positive"):
        qes.SexticParams(alpha=1.0, gamma=math.nan, m=0)
    with pytest.raises(ValueError, match="gamma must be positive"):
        qes.SexticParams(alpha=1.0, gamma=math.inf, m=0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="alpha must be finite"):
            qes.SexticParams(alpha=bad, gamma=1.0, m=0)
        with pytest.raises(ValueError, match="m must be finite"):
            qes.SexticParams(alpha=1.0, gamma=1.0, m=bad)
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


def test_sector_energies_need_m_above_minus_three_halves():
    # at m <= -3/2 some beta_j <= 0, and psi0 is not normalizable at x = 0 there either
    for m in (Fraction(-3, 2), -2, -2.75):
        p = qes.SexticParams(alpha=qes.qes_condition(4, m, 1), gamma=1, m=m)
        assert qes.sector_degree(p) == 2
        with pytest.raises(ValueError, match="m > -3/2"):
            qes.sector_energies(p)


def test_params_cache_takes_no_part_in_identity():
    # sqrt_gamma and A are computed once and kept; ==, hash, pickle and replace see the fields only
    read = qes.SexticParams(alpha=-6, gamma=Fraction(4, 9), m=0)
    assert (read.sqrt_gamma, read.A) == (Fraction(2, 3), Fraction(-4, 3))
    assert {"sqrt_gamma", "A"} <= vars(read).keys()
    fresh = qes.SexticParams(alpha=-6, gamma=Fraction(4, 9), m=0)
    assert not {"sqrt_gamma", "A"} & vars(fresh).keys()
    assert read == fresh and hash(read) == hash(fresh)
    for clone in (pickle.loads(pickle.dumps(read)), pickle.loads(pickle.dumps(fresh))):
        assert clone == fresh and hash(clone) == hash(fresh)
        assert (clone.sqrt_gamma, clone.A) == (Fraction(2, 3), Fraction(-4, 3))
    moved = dataclasses.replace(read, gamma=Fraction(9, 4))
    assert moved != read
    assert (moved.sqrt_gamma, moved.A) == (Fraction(3, 2), Fraction(3, 4))
    assert read.A == Fraction(-4, 3)


# sextic parameters on both sides of every exactness test: rational and irrational
# sqrt(gamma), int, Fraction and float gamma and m
GRID_GAMMAS = (Fraction(1, 4), Fraction(4, 9), Fraction(1), Fraction(9, 4), Fraction(4), 2, 2.0, 0.3)
GRID_MS = (Fraction(-1, 2), Fraction(0), Fraction(1), Fraction(1, 3), 0.25)
GRID_NS = (0, 2, 4, 6, 8)


def _bits(values) -> list:
    """Each value with its type; floats by float.hex, so equal lists are bit-identical."""
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]


def _fraction_step_recurrence(kappa, e_tilde, m_abs, count, omega=1):
    """The recurrence stepped on Fraction objects: b_j and c_j are built in the
    parameters' own types, and a float kappa meets them through Fraction's float
    fallback (float(b_j) a_(j-2), then a division by float(c_j)); a Poly kappa
    of Fractions gives Polys of Fractions."""
    out = [1.0 if isinstance(kappa, float) else Fraction(1)]
    for j in range(1, count):
        term = kappa * out[j - 1]
        if j >= 2:
            term = term + omega * (2 * (j - 2) - e_tilde) * out[j - 2]
        out.append(term / (j * (j + 2 * m_abs)))
    return out


def _exact_sector_arguments(p):
    """(e_tilde, m~, omega) of the sector recurrence from sqrt(gamma), A and m at their
    exact values, a float at its binary one."""
    sg, A = Fraction(p.sqrt_gamma), Fraction(p.A)
    return -A / sg, (2 * Fraction(p.m) + 1) / 4, sg / 2


def _sector_polynomial(p, d):
    """c_(d+1) as a Poly of Fractions in E: the Fraction-step recurrence at kappa = -E/2."""
    e_tilde, m_tilde, omega = _exact_sector_arguments(p)
    kappa = -polyops.Poly.symbol() / 2
    return _fraction_step_recurrence(kappa, e_tilde, m_tilde, d + 2, omega)[d + 1]


@pytest.mark.parametrize("gamma", GRID_GAMMAS)
@pytest.mark.parametrize("m", GRID_MS)
def test_eigen_series_matches_fraction_step_reference(gamma, m):
    # the parameters enter at their exact values, so the output's arithmetic follows kappa
    for n in GRID_NS:
        p = qes.SexticParams(alpha=qes.qes_condition(n, m, gamma), gamma=gamma, m=m)
        e_tilde, m_tilde, omega = _exact_sector_arguments(p)
        for E in (3, Fraction(-7, 3), 1.7, -0.1, *qes.sector_energies(p)):
            kappa = -(Fraction(E) if isinstance(E, int) else E) / 2
            want = _fraction_step_recurrence(kappa, e_tilde, m_tilde, n // 2 + 3, omega)
            got = hooke.recurrence_coefficients(kappa, e_tilde, m_tilde, n // 2 + 3, omega)
            assert _bits(got) == _bits(want), (gamma, m, n, E)
            assert all(type(c) is (float if isinstance(E, float) else Fraction) for c in got)
            while not want[-1]:   # the series drops the zeros that end a closed sector state
                want.pop()
            series = qes.qes_eigen_series(E, p, n + 4)
            assert _bits(series.coeffs[::2]) == _bits(want), (gamma, m, n, E)
            assert not any(series.coeffs[1::2])


def test_float_kappa_recurrence_with_integer_parameters_matches_fraction_step_reference():
    # verify's own calls: the float kappa of a solved branch, integer e_tilde and |m|
    for n in range(2, 7):
        for m in range(4):
            for Z in (1, -1):
                for b in hooke.solve_frequencies(n, m, Z):
                    for omega in (1, Fraction(3, 2), b.omega_tilde):
                        args = (b.kappa, 2 * (n - 1), m, n + 4, omega)
                        want = _fraction_step_recurrence(*args)
                        assert _bits(hooke.recurrence_coefficients(*args)) == _bits(want), args


@pytest.mark.parametrize("gamma", GRID_GAMMAS)
@pytest.mark.parametrize("m", GRID_MS)
def test_sector_energies_match_symbolic_energy_recurrence(gamma, m):
    # the recurrence run with kappa = -E/2 as a Poly of Fractions in E, on the exact parameters
    for n in GRID_NS:
        p = qes.SexticParams(alpha=qes.qes_condition(n, m, gamma), gamma=gamma, m=m)
        d = qes.sector_degree(p)
        assert d == n // 2
        rational, irrational = polyops.real_roots(_sector_polynomial(p, d))
        want = sorted([float(r) for r in rational] + irrational)
        assert _bits(qes.sector_energies(p)) == _bits(want), (gamma, m, n)
        assert len(want) == d + 1


def test_sector_energies_and_branches_use_no_companion_matrix(monkeypatch):
    # the sector energies come from the Jacobi matrix and the trap branches from their chambers
    def refuse(*args, **kwargs):
        raise AssertionError("companion-matrix root finding reached")
    monkeypatch.setattr(np, "roots", refuse)
    monkeypatch.setattr(polyops, "real_roots", refuse)
    for gamma in GRID_GAMMAS:
        for m in GRID_MS:
            for n in GRID_NS:
                p = qes.SexticParams(alpha=qes.qes_condition(n, m, gamma), gamma=gamma, m=m)
                assert len(qes.sector_energies(p)) == n // 2 + 1
    for Z in (1, -1):
        assert len(hooke.solve_frequencies(50, 10, Z)) == 25


def _newton_root(poly, x, steps=4, bits=256):
    """A root of a Poly of Fractions by Fraction Newton steps from x, each iterate
    rounded to a multiple of 2^-bits so the Fractions stay small."""
    dpoly, x = poly.derivative(), Fraction(x)
    for _ in range(steps):
        x -= poly(x) / dpoly(x)
        x = Fraction(round(x * 2**bits), 2**bits)
    return x


@pytest.mark.parametrize("gamma", (*GRID_GAMMAS, 3, Fraction(1, 2)))
def test_sector_energies_within_half_ulp_of_exact_root(gamma):
    # each level is within 0.5 ulp of its root of the exact sector polynomial: the one
    # of sqrt(gamma), A and m at their binary values, with alpha exact or float
    for m in (*GRID_MS, -0.5, 1.5):
        for n in GRID_NS:
            alpha = qes.qes_condition(n, m, gamma)
            for a in (alpha, float(alpha)):
                p = qes.SexticParams(alpha=a, gamma=gamma, m=m)
                d = qes.sector_degree(p)
                levels = qes.sector_energies(p)
                assert len(levels) == d + 1, (gamma, m, n, a)
                c = _sector_polynomial(p, d)
                roots = [_newton_root(c, E) for E in levels]
                assert all(lo < hi for lo, hi in zip(roots, roots[1:])), (gamma, m, n, a)
                for E, root in zip(levels, roots):
                    assert abs(Fraction(E) - root) <= Fraction(math.ulp(E)) / 2, (gamma, m, n, a, E)


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
    assert qes.node_count(u, (0.0, 4.0)) == 1


def test_node_count_resolves_close_pair():
    # (y - 1)(y - 1.0001) in y = x^2: both zeros lie within 5e-5 of x = 1
    u = PowerSeries(0, [1.0001, 0.0, -2.0001, 0.0, 1.0])
    assert qes.node_count(u, (0.0, 4.0)) == 2
    assert qes.node_count(u, (0.0, math.inf)) == 2
    assert qes.node_count(u, (1.00001, 4.0)) == 1


def test_node_count_domain():
    with pytest.raises(ValueError):
        qes.node_count(PowerSeries(0, [1.0, 0.0, -1.0]), (-1.0, 4.0))
    with pytest.raises(ValueError):
        qes.node_count(PowerSeries(0, [1.0, -1.0, -1.0]), (0.0, 4.0))


def test_in_y_reads_even_series_as_polynomial_in_y():
    assert qes._in_y(PowerSeries(0, [])) == []
    assert qes._in_y(PowerSeries(0, [Fraction(1, 3), 0, 2.5])) == [Fraction(1, 3), 2.5]
    # an even base > 0: the powers of y below it are zeros
    assert qes._in_y(PowerSeries(4, [3.0, 0.0, -1.0])) == [0, 0, 3.0, -1.0]
    assert qes._in_y(PowerSeries(Fraction(2), [Fraction(5)])) == [0, Fraction(5)]
    for odd_or_negative in (PowerSeries(1, [1.0]), PowerSeries(0, [1.0, 2.0, 3.0]),
                            PowerSeries(2, [1.0, 0.0, 0.0, 4.0]), PowerSeries(-2, [1.0]),
                            PowerSeries(-1, [1.0]), PowerSeries(Fraction(1, 2), [1.0])):
        with pytest.raises(ValueError, match="nonnegative even powers of x only"):
            qes._in_y(odd_or_negative)


def test_residual_functional_discriminates(mapped_sector):
    def residual_functional(E):   # R(E) = ||(H - E) psi||^2 / ||psi||^2
        _, _, (norm, _, resid2) = qes._trial_state(mapped_sector, E, 12)
        return resid2 / norm

    assert residual_functional(2.0) <= 1e-12
    assert residual_functional(2.3) > 1e-6


def _x_max(p):
    # past x_max, psi0^2 = x^(2m+2) exp(-sqrt(gamma) x^4 / 2) is below 1e-18
    return (36.0 * math.log(10.0) / math.sqrt(p.gamma)) ** 0.25 + 1.0


def _quadrature_inner(p, f, g):
    """int_0^x_max psi0^2 f g dx by adaptive quadrature over pointwise series values."""
    m, sg = float(p.m), float(p.sqrt_gamma)
    peak = max(((m + 1.0) / sg) ** 0.25, 0.3)
    val, _ = adaptive_quad(lambda x: x ** (2.0 * m + 2.0) * math.exp(-sg * x**4 / 2.0)
                           * f.evaluate(x) * g.evaluate(x),
                           0.0, _x_max(p), tol_abs=1e-13, tol_rel=1e-11, limit=300,
                           points=[peak])
    return val


def _operator_residual(p, E, u):
    """(H - E) u from the reduced operator [F(D) + 2E x^2 - 2A x^4 - 2 sqrt(gamma) x^5 d] u,
    which is -2 x^2 (H - E) u, built independently of the recurrence."""
    F = EulerPolynomial.from_roots([0, -(2 * p.m + 1)])
    P = MonomialOperator([(2 * E, 2, 0), (-2 * p.A, 4, 0), (-2 * p.sqrt_gamma, 5, 1)])
    tail = F.to_monomial().apply(u) + P.apply(u)
    return PowerSeries(tail.base - 2, tail.coeffs).scaled(-0.5)


def _gamma_inner(p, f, g):
    """int_0^inf psi0^2 f g dx for polynomial series f, g, summed over the Gamma moments
    int_0^inf x^(2m+2+k) exp(-b x^4) dx = Gamma(q) / (4 b^q), q = (2m+3+k)/4, b = sqrt(gamma)/2."""
    if f.is_zero() or g.is_zero():
        return 0.0
    fg = np.convolve([float(c) for c in f.coeffs], [float(c) for c in g.coeffs])
    b = float(p.sqrt_gamma) / 2.0
    q = (2.0 * float(p.m) + 3.0 + float(f.base + g.base) + np.arange(fg.size)) / 4.0
    return float(fg @ (special.gamma(q) / (4.0 * b**q)))


@pytest.mark.parametrize("n", (2, 4, 6))
@pytest.mark.parametrize("m", (Fraction(-1, 2), Fraction(0), Fraction(1)))
@pytest.mark.parametrize("gamma", (Fraction(1, 4), Fraction(1), Fraction(4), 0.3))
def test_gamma_moments_match_quadrature(gamma, m, n):
    # the Gauss rule's inner products, and the closed-form Gamma-moment sums that
    # the oracle _per_entry_ritz uses, against adaptive quadrature
    p = qes.SexticParams(alpha=qes.qes_condition(n, m, gamma), gamma=gamma, m=m)
    levels = qes.sector_energies(p)
    # below the ground level, between the two lowest levels, above the top one
    for E in (levels[0] - 0.5, (levels[0] + levels[1]) / 2, levels[-1] + 0.5):
        for N in (12, 16):
            u, _, (norm, _, resid2) = qes._trial_state(p, E, N)
            want_resid = _operator_residual(p, E, u)
            want_norm = _quadrature_inner(p, u, u)
            assert norm == pytest.approx(want_norm, rel=1e-12, abs=0)
            assert _gamma_inner(p, u, u) == pytest.approx(want_norm, rel=1e-12, abs=0)
            R = resid2 / norm
            want_R = _quadrature_inner(p, want_resid, want_resid) / want_norm
            assert R == pytest.approx(want_R, rel=1e-9, abs=1e-20)
            rq = qes.rayleigh_quotient(p, E, N)
            want_rq = _quadrature_inner(p, u, want_resid) / want_norm
            assert rq == pytest.approx(want_rq, rel=1e-9, abs=1e-12)


def test_exact_level_residual_vanishes(exact_sector):
    u, resid, (norm, shifted, resid2) = qes._trial_state(exact_sector, Fraction(2), 12)
    assert resid.is_zero()
    assert norm > 0 and shifted == resid2 == 0.0
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


def test_variational_rejects_negative_node_target(mapped_sector):
    # a negative index once selected the top Ritz level
    with pytest.raises(ValueError, match="target_nodes must be >= 0"):
        qes.variational_state(mapped_sector, -1, 16)


def test_variational_bracket_excludes_minimum(mapped_sector):
    with pytest.raises(qes.BracketError):
        qes.variational_state(mapped_sector, 1, 16, E_bracket=(0.5, 1.9),
                              scan_points=9)


def _ritz_levels(p, N):
    return np.linalg.eigvalsh(qes._ritz_matrix(p, N)[0])


SECTOR_GAMMAS = (Fraction(1, 4), Fraction(4, 9), Fraction(1), Fraction(9, 4), Fraction(4))


@pytest.mark.parametrize("n", (0, 2, 4, 6, 8))  # n = 0 has A = 0: H_red 1 is the zero series
@pytest.mark.parametrize("m", (Fraction(-1, 2), Fraction(0), Fraction(1)))
def test_variational_finds_every_sector_level(m, n):
    for gamma in SECTOR_GAMMAS:
        p = qes.SexticParams(alpha=qes.qes_condition(n, m, gamma), gamma=gamma, m=m)
        for k, level in enumerate(qes.sector_energies(p)):
            for N in (12, 16, 24, 40, 60):
                vs = qes.variational_state(p, k, N)
                assert abs(vs.E_star - level) <= 1e-8, (gamma, k, N)
                assert vs.node_count == k, (gamma, k, N)


def test_variational_search_builds_no_sturm_chain(monkeypatch, mapped_sector):
    # the node count is the Ritz vector's, so no search path reaches the exact counters
    def spy(*_):
        raise AssertionError("variational_state reached an exact root counter")

    for module, name in ((qes, "node_count"), (qes, "sturm_count"), (polyops, "sturm_count")):
        monkeypatch.setattr(module, name, spy)
    for k in (0, 1):
        assert qes.variational_state(mapped_sector, k, 16).node_count == k


# Cholesky pivots of the unit-diagonal monomial Gram matrix shrink about 5x per
# function down to ~1e-11, where rounding in the Gamma moments takes over; past
# that point the generalized eigenvalues go spurious, so the oracle stops its basis
# at the first pivot below this floor (14 functions at m = -1/2 and 0, 13 at m = 1)
_ORACLE_PIVOT_FLOOR = 1e-10


def _per_entry_ritz(p, N):
    """Ritz values on the monomial basis psi0 x^(2j), every matrix entry its own
    Gamma-moment sum over a product series."""
    sg, A, m = float(p.sqrt_gamma), float(p.A), float(p.m)
    size = N // 2 + 1
    basis = [PowerSeries(2 * j, [1]) for j in range(size)]
    images = [PowerSeries(2 * j - 2, [-j * (2 * j + 1 + 2 * m), 0, 0, 0, 2 * j * sg + A])
              for j in range(size)]
    S = np.array([[_gamma_inner(p, f, g) for g in basis] for f in basis])
    H = np.array([[_gamma_inner(p, f, h) for h in images] for f in basis])
    scale = 1.0 / np.sqrt(np.diag(S))
    S, H = S * np.outer(scale, scale), H * np.outer(scale, scale)
    L, info = linalg.lapack.dpotrf(S, lower=1)
    pivots = np.diag(L)[:info - 1 if info else size] ** 2
    small = np.flatnonzero(pivots < _ORACLE_PIVOT_FLOOR)
    keep = small[0] if small.size else pivots.size
    return linalg.eigh(H[:keep, :keep], S[:keep, :keep], eigvals_only=True)


@pytest.mark.parametrize("n", (0, 2, 4, 6, 8))
@pytest.mark.parametrize("m", (Fraction(-1, 2), Fraction(0), Fraction(1)))
def test_ritz_levels_match_per_entry_assembly(m, n):
    for gamma in SECTOR_GAMMAS:
        p = qes.SexticParams(alpha=qes.qes_condition(n, m, gamma), gamma=gamma, m=m)
        for N in (12, 16, 24):
            got, want = _ritz_levels(p, N), _per_entry_ritz(p, N)
            assert len(got) == len(want), (gamma, N)
            np.testing.assert_allclose(got[:n // 2 + 1], want[:n // 2 + 1], rtol=0, atol=1e-10)


def test_rule_rejects_m_too_close_to_minus_three_halves():
    # off the half-integers, x^(2m+2) next to 0 needs ceil(17/(2m+3)) decades; past
    # 300 the rule cannot resolve it and the levels would drift (5.2e-8 at m = -1.49)
    p = qes.SexticParams(alpha=-8.7, gamma=1.0, m=-1.49)
    for call in (lambda: _ritz_levels(p, 16), lambda: qes.rayleigh_quotient(p, -1.8, 16),
                 lambda: qes.variational_state(p, 0, 16)):
        with pytest.raises(ValueError, match="too close to -3/2"):
            call()
    # 284 decades: the lowest levels still match the oracle
    p = qes.SexticParams(alpha=-8.7, gamma=1.0, m=-1.47)
    np.testing.assert_allclose(_ritz_levels(p, 16)[:3], _per_entry_ritz(p, 16)[:3],
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("k, level", ((0, -2.44194036), (1, 1.65920619)))
def test_variational_off_sector_converges_from_above(k, level):
    p = qes.SexticParams(alpha=-8.7, gamma=1.0, m=-0.5)
    coarse = qes.variational_state(p, k, 16).E_star
    fine = qes.variational_state(p, k, 24).E_star
    assert 0.0 <= coarse - fine <= 1e-8
    assert fine == pytest.approx(level, abs=1e-8)


@pytest.mark.parametrize("N", (32, 40))
def test_variational_large_truncation_keeps_full_basis(mapped_sector, N):
    assert len(_ritz_levels(mapped_sector, N)) == N // 2 + 1
    vs = qes.variational_state(mapped_sector, 1, N)
    assert abs(vs.E_star - 2.0) <= 1e-8
    assert vs.node_count == 1


@pytest.mark.parametrize("m", (Fraction(-1, 2), Fraction(0), Fraction(1), Fraction(10), 0.3))
def test_ritz_levels_match_sector_energies(m):
    # every exact sector level is a Ritz value once the basis holds the sector
    # state; the error is relative to the sector's largest |level|, since some are 0
    for gamma in SECTOR_GAMMAS + (0.3,):
        for n in (2, 4, 6, 8):
            p = qes.SexticParams(alpha=qes.qes_condition(n, m, gamma), gamma=gamma, m=m)
            levels = qes.sector_energies(p)
            scale = max(abs(E) for E in levels)
            for N in (12, 16, 24, 40, 60):
                ritz = _ritz_levels(p, N)
                for k, E in enumerate(levels):
                    assert abs(ritz[k] - E) <= 1e-13 * scale, (gamma, n, N, k)


def test_variational_search_loads_no_scipy():
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from hookium import qes; "
            "vs = qes.variational_state(qes.SexticParams(alpha=-8.0, gamma=1.0, m=-0.5), 1, 16); "
            "assert vs.node_count == 1; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


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


def test_sextic_image_has_no_roots(exact_sector):
    # an image carries no branch and so no roots: its nodes are counted on the sextic
    # side (node_count), and its unnormalized profile has no entropy
    for Ev in (2.0, -2.0):
        wf = qes.sextic_state_to_hooke(exact_sector, Ev, qes.qes_eigen_series(Ev, exact_sector, 12))
        assert wf.poly.degree >= 1
        with pytest.raises(ValueError, match="no roots"):
            wf.nodes
        with pytest.raises(ValueError, match="no roots"):
            observables.total_entropy(wf)


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
