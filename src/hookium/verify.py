"""Self-contained consistency suite covering every layer of the package.

Each check is small, named, and independent; `run_checks` returns structured
results so callers can render text or JSON. The `detune` knob multiplies one
trap frequency by (1 + detune) before the eigen-residual test, which is the
standard way to confirm the suite actually measures the operator: any nonzero
detuning must make that single check fail loudly.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import hooke, observables, qes
from .integrate import adaptive_quad
from .polyops import Poly
from .series import EulerPolynomial, MonomialOperator, PowerSeries, indicial_roots, series_solve

__all__ = ["CheckResult", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail=""):
    return CheckResult(name=name, passed=bool(passed), detail=str(detail))


def _check_indicial_roots():
    F = EulerPolynomial.from_roots([0, -4])
    roots = indicial_roots(F).all_sorted_desc()
    ok = [float(r) for r in roots] == [0.0, -4.0]
    return _result("indicial-roots-descending", ok, f"roots={roots}")


def _check_inverse_identity():
    F = EulerPolynomial.from_roots([0, -3])
    y = PowerSeries(2, [Fraction(3), Fraction(0), Fraction(-1), Fraction(7)])
    from .series import invert_euler
    z = invert_euler(F, y)
    back = F.to_monomial().apply(z).truncated(y.max_exponent)
    ok = back == y
    return _result("euler-inverse-two-sided", ok)


def _check_series_annihilation():
    branch = hooke.solve_frequencies(3, 1, 1)[0]
    F, P = hooke.hooke_series_operator(1, branch.kappa, 2 * (3 - 1))
    lam = 0
    u = series_solve(F, P, lam, 12)
    tail = F.to_monomial().apply(u) + P.apply(u)
    bad = [e for e in tail.exponents() if e <= 12 and abs(float(tail.coefficient(e))) > 1e-13]
    return _result("series-order-by-order", not bad, f"nonzero at {bad}" if bad else "")


def _check_engine_vs_recurrence():
    branch = hooke.solve_frequencies(4, 0, 1)[0]
    F, P = hooke.hooke_series_operator(0, branch.kappa, 2 * (4 - 1))
    u = series_solve(F, P, 0, 8)
    a = hooke.recurrence_coefficients(branch.kappa, 2 * (4 - 1), 0, 9)
    dev = max(abs(float(u.coefficient(j)) - float(a[j])) for j in range(9))
    return _result("engine-matches-recurrence", dev < 1e-12, f"max dev {dev:.2e}")


def _check_frequency_n2():
    b = hooke.solve_frequencies(2, 0, 1)
    ok = len(b) == 1 and b[0].omega_exact == Fraction(1, 2)
    return _result("closed-form-frequency-n2", ok, f"omega={b[0].omega_exact}")


def _check_frequency_n3():
    b = hooke.solve_frequencies(3, 0, -1)
    ok = len(b) == 1 and b[0].omega_exact == Fraction(1, 12)
    return _result("closed-form-frequency-n3", ok, f"omega={b[0].omega_exact}")


def _check_frequency_n4():
    b = hooke.solve_frequencies(4, 0, 1)
    want = [(10.0 + math.sqrt(73.0)) / 54.0, (10.0 - math.sqrt(73.0)) / 54.0]
    dev = max(abs(x.omega_tilde - w) for x, w in zip(b, want))
    return _result("quadratic-frequency-n4", len(b) == 2 and dev < 1e-14, f"max dev {dev:.2e}")


def _check_quantization_parity():
    q = hooke.quantization_polynomial(5, 1)
    even, odd = q.even_odd_parts()
    ok = even.is_zero() or odd.is_zero()
    return _result("quantization-polynomial-parity", ok, f"degree={q.degree}")


def _check_termination():
    branch = hooke.solve_frequencies(3, 2, 1)[0]
    a = hooke.recurrence_coefficients(branch.kappa, 2 * (3 - 1), 2, 12)
    # beyond the closing coefficient everything must vanish identically
    tailsum = sum(abs(float(x)) for x in a[3:])
    return _result("coefficient-termination", tailsum < 1e-13, f"tail sum {tailsum:.2e}")


def _check_eigen_residual(detune: float):
    branch = hooke.solve_frequencies(3, 1, 1)[0]
    wf = hooke.build_wavefunction(branch)
    if detune:
        wf = dataclasses.replace(wf, omega=wf.omega * (1.0 + detune))
    res = hooke.verify_branch(wf)
    return _result("eigen-residual-n3-m1", res < 1e-9, f"residual {res:.3e}")


def _check_eigen_residual_excited():
    branch = hooke.solve_frequencies(5, 2, -1)[0]
    res = hooke.verify_branch(hooke.build_wavefunction(branch))
    return _result("eigen-residual-n5-m2", res < 1e-9, f"residual {res:.3e}")


def _check_reference_energy():
    branch = hooke.solve_frequencies(2, 0, 1)[0]
    return _result("reference-energy-n2", abs(branch.eps_rel - 1.0) < 1e-12,
                   f"eps_rel={branch.eps_rel!r}")


def _check_node_counts():
    wfs = [hooke.build_wavefunction(b) for b in hooke.solve_frequencies(4, 0, 1)]
    nodes = [wf.nodes for wf in wfs]
    return _result("node-counts-n4", nodes == [1, 0], f"nodes={nodes}")


def _check_normalization():
    wf = hooke.build_wavefunction(hooke.solve_frequencies(3, 1, -1)[0])
    total, _ = adaptive_quad(wf.u_squared, 0.0, wf.support_radius(), tol_abs=1e-12)
    return _result("radial-normalization", abs(total - 1.0) < 1e-9, f"integral={total!r}")


def _check_density_conservation():
    case = observables.CATALOG["n2m1Zp1"]
    cm = hooke.CenterOfMassState(beta=float(case.omega))
    prof = observables.density_quadrature(case.state, cm, np.linspace(0.5, 2.5, 3))
    # the convolution preserves the two-particle norm, so no rescaling is needed
    return _result("density-norm-conserved", abs(prof.scale_applied - 1.0) < 1e-6,
                   f"scale={prof.scale_applied!r}")


def _check_density_routes():
    case = observables.CATALOG["n2m0Zp1"]
    cmp = observables.compare_density_routes(case, grid=np.linspace(0.0, 8.0, 21),
                                             fit_width=False)
    return _result("density-two-routes", cmp.max_rel_deviation < 1e-5,
                   f"max rel dev {cmp.max_rel_deviation:.3e}")


def _check_cm_width_fit():
    case = observables.CATALOG["n2m0Zm1"]
    cmp = observables.compare_density_routes(case, grid=np.linspace(0.0, 8.0, 21),
                                             fit_width=True)
    rel = abs(cmp.fit.beta - case.omega) / case.omega
    return _result("cm-width-recovered", rel < 1e-3,
                   f"beta={cmp.fit.beta!r} vs omega={float(case.omega)!r}")


def _check_entropy_analytic():
    branch = hooke.oscillator_branch(0, Fraction(1, 2))
    wf = hooke.build_wavefunction(branch)
    total = observables.total_entropy(wf)
    want = 1.0 + math.log(2.0 * math.pi)
    return _result("entropy-coulomb-free", abs(total - want) < 1e-8,
                   f"{total!r} vs {want!r}")


def _check_entropy_signs():
    r0 = np.array([1e-9])

    def origin_value(n, m):
        wf = hooke.build_wavefunction(hooke.solve_frequencies(n, m, -1)[0])
        return float(observables._entropy_pointwise(wf.density_radial(r0))[0])

    s2, s3, s21 = origin_value(2, 0), origin_value(3, 0), origin_value(2, 1)
    ok = s2 < 0 and s3 > 0 and abs(s21) < 1e-12
    return _result("entropy-origin-signs", ok, f"{s2:.4f}, {s3:.4f}, {s21:.2e}")


def _check_bessel_series():
    x = 1.0
    want = sum((x / 2.0) ** (2 * k) / math.factorial(k) ** 2 for k in range(30))
    got = float(observables.bessel_i(0, x))
    return _result("bessel-series-oracle", abs(got - want) < 1e-10, f"{got!r} vs {want!r}")


def _check_bessel_derivative():
    h = 1e-6
    x = 0.8
    num = float(observables.bessel_i(0, x + h) - observables.bessel_i(0, x - h)) / (2 * h)
    return _result("bessel-derivative-identity", abs(num - observables.bessel_i(1, x)) < 1e-6,
                   f"dI0={num!r}")


def _check_qes_condition():
    p = qes.SexticParams(alpha=qes.qes_condition(2, 0, Fraction(4, 9)), gamma=Fraction(4, 9), m=0)
    return _result("qes-condition-residual", qes.condition_residual(p, 2) < 1e-12,
                   f"A={float(p.A)!r}")


def _check_qes_roundtrip():
    branch = hooke.solve_frequencies(2, 0, -1)[0]
    inv = qes.map_from_hooke(branch)
    eq = qes.map_to_hooke(inv.params, inv.E)
    dev = max(abs(eq.omega_tilde - branch.omega_tilde), abs(eq.Z - branch.Z),
              abs(eq.eps_rel - branch.eps_rel), abs(eq.m_tilde - abs(branch.m)))
    return _result("qes-dictionary-roundtrip", dev < 1e-14, f"max dev {dev:.2e}")


def _check_qes_sector():
    p = qes.SexticParams(alpha=-8.0, gamma=1.0, m=-0.5)
    es = qes.sector_energies(p)
    ok = len(es) == 2 and abs(es[0] + 2.0) < 1e-12 and abs(es[1] - 2.0) < 1e-12
    return _result("qes-sector-energies", ok, f"{es}")


def _check_qes_mapped_residual():
    p = qes.SexticParams(alpha=qes.qes_condition(2, 0, Fraction(4, 9)), gamma=Fraction(4, 9), m=0)
    u = qes.qes_eigen_series(2.0, p, 12)
    wf = qes.sextic_state_to_hooke(p, 2.0, u)
    res = hooke.verify_branch(wf)
    return _result("qes-mapped-residual", res < 1e-9, f"residual {res:.3e}")


def _check_variational_recovery():
    p = qes.SexticParams(alpha=-8.0, gamma=1.0, m=-0.5)
    vs = qes.variational_state(p, 1, 12, E_bracket=(1.0, 3.0))
    ok = abs(vs.E_star - 2.0) < 1e-8 and vs.residual_norm < 1e-12
    return _result("variational-recovery", ok,
                   f"E*={vs.E_star!r}, R={vs.residual_norm:.2e}")


def _check_cm_probability():
    cm = hooke.CenterOfMassState(beta=2.0)
    val, _ = adaptive_quad(lambda R: 2.0 * math.pi * R * cm.probability(R), 0.0, 12.0,
                           tol_abs=1e-12)
    return _result("cm-state-normalized", abs(val - 1.0) < 1e-10, f"integral={val!r}")


def _check_operator_linearity():
    P = MonomialOperator([(Fraction(2), 2, 0), (Fraction(-1), 3, 1)])
    y1 = PowerSeries(0, [Fraction(1), Fraction(2)])
    y2 = PowerSeries(1, [Fraction(3)])
    lhs = P.apply(y1 + y2)
    rhs = P.apply(y1) + P.apply(y2)
    return _result("operator-linearity", lhs == rhs)


def _check_sturm_nodes():
    from .polyops import sturm_count
    # distinct roots: the double root of (x-2)^2 (x-3) counts once, as in (x-2)(x-3)
    simple = Poly([Fraction(6), Fraction(-5), Fraction(1)])
    double = simple * Poly([Fraction(-2), Fraction(1)])
    ok = all(sturm_count(p, 0, 10) == 2 and sturm_count(p, 0, Fraction(5, 2)) == 1
             for p in (simple, double))
    return _result("sturm-root-count", ok)


def run_checks(detune: float = 0.0) -> list[CheckResult]:
    """All consistency checks in a stable order; detune poisons the residual check."""
    checks = [
        _check_indicial_roots(),
        _check_inverse_identity(),
        _check_operator_linearity(),
        _check_series_annihilation(),
        _check_engine_vs_recurrence(),
        _check_frequency_n2(),
        _check_frequency_n3(),
        _check_frequency_n4(),
        _check_quantization_parity(),
        _check_termination(),
        _check_eigen_residual(detune),
        _check_eigen_residual_excited(),
        _check_reference_energy(),
        _check_node_counts(),
        _check_sturm_nodes(),
        _check_normalization(),
        _check_cm_probability(),
        _check_density_conservation(),
        _check_density_routes(),
        _check_cm_width_fit(),
        _check_entropy_analytic(),
        _check_entropy_signs(),
        _check_bessel_series(),
        _check_bessel_derivative(),
        _check_qes_condition(),
        _check_qes_roundtrip(),
        _check_qes_sector(),
        _check_qes_mapped_residual(),
        _check_variational_recovery(),
    ]
    return checks
