"""Rebuild known_failures.json from every input the workloads can draw.

    PYTHONPATH=src python3 perfbench/scan_known.py [workload ...]

Runs each operation of each workload's whole input domain once, checks it
with the same oracles as a benchmark run, and files every failure as
{input key: reason}. The file pins the failures of the commit it was made at:
a later fix shows up as a drop in fail_frac against the unchanged list, and a
new failure as an unlisted one. Rebuild it only when the inputs change (a new
workload or stratum), never to absorb a regression.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from hookium import observables  # noqa: E402
from worker import judge, run_pass  # noqa: E402

def domain(name: str, ctx: dict) -> list:
    if name == "spectrum":
        return [W.spectrum_op(n, W.stratum_m(n, Z), Z) for n in W.SPECTRUM_N for Z in W.Z_VALUES]
    if name == "entropy":
        return [W.oscillator_op()] + [op for n in W.ENTROPY_N for Z in W.Z_VALUES
                                      for op in W.entropy_stratum_ops(n, Z)]
    if name == "density":
        return [op for case in observables.CATALOG.values() for op in W.density_case_ops(case)] \
            + [W.custom_density_op(size) for size in (1, 2)]
    if name == "sextic":
        return [op for n in W.SEXTIC_NS for m in W.SEXTIC_MS for g in W.SEXTIC_GAMMAS
                for op in W.sector_ops(g, m, n)]
    if name == "cli":
        return W.cli_workload(0, ctx)
    raise ValueError(name)


def main(names) -> int:
    path = HERE / "known_failures.json"
    known = json.loads(path.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        ctx = {"root": HERE.parent, "out_dir": Path(tmp)}
        for name in names or W.WORKLOADS:
            ops = domain(name, ctx)
            _, _, outputs, _ = run_pass(ops)
            _, _, failures = judge(ops, outputs, {})
            filed = {}
            for key, reason in failures:
                filed.setdefault(key, set()).add(reason)
            known[name] = {key: "+".join(sorted(r)) for key, r in sorted(filed.items())}
            print(f"{name}: {len(ops)} operations, {len(known[name])} failing inputs", flush=True)
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
