"""hookium benchmark: one workload (or all five), end-to-end metrics or per-layer traces.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 14 --trace 1

Run from the root of a checkout. Each workload runs in its own fresh
interpreter with BLAS threads pinned to one; setup_s is the median wall time
of fresh interpreters that only import hookium.cli and generate the inputs.
Times are scaled to nominal machine speed (see speed.py).
Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones (spans are written to
.bench_out/). `failed` counts operations whose failure is not listed in
perfbench/known_failures.json; every failure, listed or not, is in fail_frac.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spectrum", "entropy", "density", "sextic", "cli")
SETUP_RUNS = 3
DEADLINE_S = 170.0          # per workload: a run must end within three minutes

# the metrics BENCHMARK.json gates; op_p50_ms, op_tail_ms and fail_frac are printed only
END_TO_END_UNITS = {
    "wall_s": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list, deadline: float) -> str:
    """Run worker.py with argv; returns its stdout, raises on failure or deadline."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("deadline passed before the child started")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setup = []
    if not trace:
        for _ in range(SETUP_RUNS):
            factor = speed.factor()
            t0 = time.perf_counter()
            run_child(["--setup-only", "--workload", name, "--seed", str(seed)], deadline)
            setup.append((time.perf_counter() - t0) / factor)
    out = run_child(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace)], deadline)
    result = json.loads(out.strip().splitlines()[-1])
    if setup:
        result["setup_s"] = statistics.median(setup)
    result["ok_frac"] = 1.0 - result["fail_frac"]
    return result


def report(result: dict, trace: int) -> dict:
    """Print the human-readable block; return the metrics for the JSON line."""
    name = result["workload"]
    print(f"== {name}: {result['ops']} operations x {result['passes']} timed pass(es)"
          f"{' + 1 traced' if trace else ''}; {result['attempted']} attempted")
    print(f"   fail_frac {result['fail_frac']:.6g} ({result['failed_ops']} failed operations, "
          f"{len(result['unexpected'])} failures not in known_failures.json)")
    for key, reason in result["unexpected"][:20]:
        print(f"   UNEXPECTED {key}: {reason}")
    print(f"   op_p50_ms {result['op_p50_ms']:.6g} ms over {result['ops']} operation latencies")
    if result["op_tail_ms"] is None:
        print(f"   op_tail_ms n/a: {result['ops']} operations are too few for a tail")
    else:
        print(f"   op_tail_ms {result['op_tail_ms']:.6g} ms at p{result['op_tail_pct']:.4g}")
    print(f"   {result['passes']} passes; machine slowdown {result['slowdown']:.3g}; raw wall_s "
          f"{result['raw_wall_s']:.6g} s (all times below are scaled to nominal speed)")
    if trace:
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k][0]}
                   for k, v in result["trace"].items()}
    else:
        metrics = {k: {"value": result[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}
    for key, m in metrics.items():
        print(f"   {key:44s} {m['value']:.6g} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hookium" / "__init__.py").is_file():
        print(f"error: no hookium sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, args.trace))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for result in results:
        block = report(result, args.trace)
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        metrics.update({prefix + k: v for k, v in block.items()})
    summary = {
        "correct": all(not r["unexpected"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["unlisted_failed_ops"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
