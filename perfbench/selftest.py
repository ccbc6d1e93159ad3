"""Self-test of the benchmark's gate: poisoned results must be counted as failed.

    PYTHONPATH=src python3 perfbench/selftest.py

Each case makes the program return a wrong answer for one input, the way
`hookium verify --detune` does, runs the affected operations through the same
runner and oracles as a benchmark run, and requires the operation to be
counted failed and reported as unexpected. A last case runs run.py in a
directory that holds only the benchmark and requires a non-zero exit with no
result line. Exits 1 if any case does not hold.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from hookium import hooke, observables  # noqa: E402
from worker import judge, run_pass  # noqa: E402


def poisoned(module, name, wrap):
    """Context manager replacing module.name by wrap(original) for the block."""
    class _Patch:
        def __enter__(self):
            self.orig = getattr(module, name)
            setattr(module, name, wrap(self.orig))

        def __exit__(self, *exc):
            setattr(module, name, self.orig)
    return _Patch()


def verdict(ops):
    _, _, outputs, _ = run_pass(ops)
    failed, unlisted, unexpected = judge(ops, outputs, {})
    return failed, unlisted, unexpected


def case_detuned_branch():
    """One branch's frequency detuned by 1e-3 before the residual check."""
    def wrap(build):
        def detuned(branch):
            wf = build(branch)
            return dataclasses.replace(wf, omega=wf.omega * (1.0 + 1e-3))
        return detuned
    ops = [W.spectrum_op(3, 1, 1)]
    clean = verdict(ops)
    with poisoned(hooke, "build_wavefunction", wrap):
        dirty = verdict(ops)
    return clean[0] == 0 and dirty[:2] == (1, 1) and ("3,1,1,0", "residual") in dirty[2]


def case_perturbed_density():
    """One closed-form density value off by 1e-3 relative."""
    def wrap(closed):
        def perturbed(case, grid=None):
            profile = closed(case, grid)
            values = profile.values.copy()
            values[40] *= 1.0 + 1e-3
            return dataclasses.replace(profile, values=values)
        return perturbed
    ops = W.density_case_ops(observables.CATALOG["n2m0Zp1"])[:2]
    clean = verdict(ops)
    with poisoned(observables, "closed_form_density", wrap):
        dirty = verdict(ops)
    return clean[0] == 0 and dirty[:2] == (1, 1) and ("n2m0Zp1,closed", "routes") in dirty[2]


def case_shifted_entropy():
    """The omega = 1/2 entropy moved by 1e-7, ten times its bound."""
    def wrap(total):
        return lambda wf, **kw: total(wf, **kw) + 1e-7
    ops = [W.oscillator_op()]
    clean = verdict(ops)
    with poisoned(observables, "total_entropy", wrap):
        dirty = verdict(ops)
    return clean[0] == 0 and dirty[:2] == (1, 1) and ("oscillator", "entropy") in dirty[2]


def case_no_program():
    """run.py next to no hookium sources exits non-zero and prints no result."""
    scratch = HERE.parent / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "cli",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180)
    return proc.returncode != 0 and '"correct"' not in proc.stdout


CASES = [case_detuned_branch, case_perturbed_density, case_shifted_entropy, case_no_program]


def main() -> int:
    ok = True
    for case in CASES:
        passed = case()
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {case.__name__}: {case.__doc__}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
