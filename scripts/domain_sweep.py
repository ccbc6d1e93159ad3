"""Every invariant of every branch over the stated domain: n <= 50, |m| <= 10, Z = +-1, +-2.

    PYTHONPATH=src python scripts/domain_sweep.py

For each (n, m, Z) the number of branches must equal the Sturm count of the
positive roots of the quantization polynomial in s = kappa^2. Z = +-2 shares
the roots zeta of Z = +-1 and differs only in the scale omega_tilde = Z^2 / kappa^2.
For each of the 27,500 branches:
- residual: the eigen residual, verify_branch, at most 1e-9;
- norm: |int u^2 dr - 1| at most 1e-12, the integral by adaptive_quad, a
  rule and a subdivision independent of the Gauss-Legendre rule that
  normalized the state;
- virial: eps_rel = omega^2 <r^2> + (Z/4) <1/r> to 1e-10 relative;
- nodes: wf.nodes equals the branch's chamber;
- entropy: total_entropy is finite and its error estimate within its budget.
It prints the worst value of each invariant against its bound, with the state
(n, m, Z, chamber) where it occurs, and the wall time. Any failure is listed,
and the exit status is 1; a clean sweep exits 0.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

from hookium import hooke, observables
from hookium.integrate import adaptive_quad, gauss_legendre
from hookium.polyops import sturm_count

N_MAX, M_MAX, Z_VALUES = 50, 10, (1, -1, 2, -2)
BOUNDS = {"residual": 1e-9, "norm": 1e-12, "virial": 1e-10, "nodes": 0, "entropy": 1.0}


def _sturm_branch_count(n, m):
    """Sturm count of the positive roots of the s-polynomial, as solve_frequencies picks it."""
    even, odd = hooke.quantization_polynomial(n, m).even_odd_parts()
    return sturm_count(odd if n % 2 else even, 0, math.inf)


def _entropy_budget_ratio(wf):
    """(S, error estimate / budget) of total_entropy, read at its own budget check."""
    seen = []
    check = observables._check_budget

    def recorded(value, err, tol_abs, tol_rel):
        seen.append(err / max(tol_abs, tol_rel * abs(value)))
        check(value, err, tol_abs, tol_rel)
    observables._check_budget = recorded
    try:
        S = observables.total_entropy(wf)
    finally:
        observables._check_budget = check
    return S, seen[0]


def _invariants(branch):
    """The value of each invariant of one branch, keyed as BOUNDS."""
    wf = hooke.build_wavefunction(branch)
    r_max = hooke._u2_range(wf)
    norm, _ = adaptive_quad(wf.u_squared, 0.0, r_max, tol_abs=1e-13, tol_rel=1e-13)
    (total, r2, inv_r), _ = gauss_legendre(
        lambda r: wf.u_squared(r) * np.array([np.ones_like(r), r * r, 1.0 / r]),
        0.0, r_max, panels=8, tol_abs=1e-300, tol_rel=1e-13)
    virial = (wf.omega**2 * r2 + 0.25 * wf.Z * inv_r) / total
    S, entropy_ratio = _entropy_budget_ratio(wf)
    return {"residual": hooke.verify_branch(wf),
            "norm": abs(norm - 1.0),
            "virial": abs(virial - wf.eps_rel) / abs(wf.eps_rel),
            "nodes": abs(wf.nodes - branch.chamber),
            "entropy": entropy_ratio if math.isfinite(S) else math.inf}


def main() -> int:
    start = time.perf_counter()
    worst = {name: (-math.inf, None) for name in BOUNDS}
    failures, count = [], 0
    for n in range(2, N_MAX + 1):
        for m in range(M_MAX + 1):
            expected = _sturm_branch_count(n, m)
            for Z in Z_VALUES:
                branches = hooke.solve_frequencies(n, m, Z)
                if len(branches) != expected:
                    failures.append(f"({n}, {m}, {Z}): {len(branches)} branches, "
                                    f"Sturm count {expected}")
                for branch in branches:
                    count += 1
                    state = (n, m, Z, branch.chamber)
                    try:
                        values = _invariants(branch)
                    except (ArithmeticError, ValueError, RuntimeError) as exc:
                        failures.append(f"{state}: {type(exc).__name__}: {exc}")
                        continue
                    for name, value in values.items():
                        if not value <= BOUNDS[name]:
                            failures.append(f"{state}: {name} {value:.3e} over {BOUNDS[name]:.0e}")
                        if not value <= worst[name][0]:
                            worst[name] = (value, state)
        print(f"n = {n}: {count} branches, {time.perf_counter() - start:.1f} s", flush=True)
    print(f"{count} branches in {time.perf_counter() - start:.1f} s")
    for name, (value, state) in worst.items():
        print(f"{name}: worst {value:.3e} against bound {BOUNDS[name]:.0e} at (n, m, Z, chamber) = {state}")
    for line in failures:
        print("FAIL", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
