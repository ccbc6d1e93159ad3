"""Run one workload in this (fresh) process and print its result as one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and BLAS
threads pinned to one. Modes:

    worker.py --setup-only --workload W --seed S
        cold import of hookium.cli plus input generation, then exit; run.py
        times this whole process as setup_s.
    worker.py --workload W --seed S --seconds T --trace 0|1
        warm up, then repeat the workload's operation list at least MIN_PASSES
        times (more for short lists, to collect MIN_SAMPLES latencies) and
        while the next pass is predicted to end within T seconds.
        An operation's latency is its median over the passes; wall_s is their
        sum. Latencies are scaled to nominal machine speed (speed.py). With
        --trace 1 one more pass runs under the span tracer.

Every output of every pass is checked against its oracle after timing ends.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import speed
import workloads  # imports hookium.cli: the cold import setup_s measures

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3           # so that every median has a majority
MIN_SAMPLES = 50         # latency samples per run; workloads of few, long operations need more passes


def run_pass(ops, tracer=None):
    """Run every operation once.

    Returns (pass wall time, per-op latencies, outputs, machine slowdown
    factor), the factor being the median of reference-loop timings taken
    just before each operation.
    """
    latencies, outputs, refs = [], [], []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        refs.append(speed.reference_s())
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a typed failure is an outcome; the oracle step counts it
            out = exc
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    return (time.perf_counter() - start, latencies, outputs,
            statistics.median(refs) / speed.REF_NOMINAL_S)


def judge(ops, outputs, known: dict):
    """Oracle verdicts for one pass.

    Returns (operations that failed, operations with a failure not listed in
    `known`, the unlisted (input key, reason) pairs). A listed input counts as
    known whatever the reason it fails with now.
    """
    by_name = {op.name: out for op, out in zip(ops, outputs) if not isinstance(out, Exception)}
    failed, failed_unlisted, unexpected = 0, 0, []
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            found = [(op.key, type(out).__name__)]
        else:
            try:
                found = op.check(out, by_name)
            except Exception as exc:  # an oracle that cannot read the output is a failed output
                found = [(op.key, f"unreadable output: {type(exc).__name__}")]
        unlisted = [(key, reason) for key, reason in found if key not in known]
        failed += bool(found)
        failed_unlisted += bool(unlisted)
        unexpected.extend(unlisted)
    return failed, failed_unlisted, unexpected


def tail(latencies: list[float]):
    """(percentile, value): the highest percentile with ten samples beyond it.

    (None, None) below twenty samples, where that percentile is not above the median.
    """
    ordered = sorted(latencies)
    k = len(ordered)
    if k < 20:
        return None, None
    return 100.0 * (k - 10) / k, ordered[k - 11]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=14.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        ctx = {"root": ROOT, "out_dir": out_dir}
        ops = workloads.BUILDERS[args.workload](args.seed, ctx)
        if args.setup_only:
            return 0
        result = measure(args, ops, ctx, out_root)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, ops, ctx, out_root: Path) -> dict:
    known = json.loads((HERE / "known_failures.json").read_text(encoding="utf-8"))[args.workload]
    workloads.warm_up(args.workload, ctx)

    per_op, raw_op, passes, walls, factors = [[] for _ in ops], [[] for _ in ops], [], [], []
    min_passes = max(MIN_PASSES, math.ceil(MIN_SAMPLES / len(ops)))
    started = time.perf_counter()
    while True:
        wall, lat, outs, factor = run_pass(ops)
        passes.append(outs)
        walls.append(wall / factor)
        factors.append(factor)
        for scaled, raw, t in zip(per_op, raw_op, lat):
            scaled.append(t / factor)
            raw.append(t)
        if len(passes) >= min_passes and time.perf_counter() - started + wall > args.seconds:
            break
    # Latencies are scaled to nominal machine speed (speed.py); medians over
    # passes seconds apart then also ignore spells shorter than a pass.
    op_s = [statistics.median(s) for s in per_op]
    wall_s = sum(op_s)

    trace = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_wall, _, outs, factor = run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        passes.append(outs)
        tracer.write(out_root / f"spans-{args.workload}-seed{args.seed}.jsonl",
                     [op.name for op in ops])
        trace = tracer.metrics(traced_wall / factor - statistics.median(walls), factor)

    failed = failed_unlisted = 0
    unexpected = []
    for outs in passes:
        f, fu, u = judge(ops, outs, known)
        failed += f
        failed_unlisted += fu
        unexpected.extend(u)
    attempted = len(ops) * len(passes)
    op_ms = [1e3 * t for t in op_s]
    tail_pct, tail_ms = tail(op_ms)
    return {
        "workload": args.workload,
        "passes": len(per_op[0]),
        "ops": len(ops),
        "attempted": attempted,
        "failed_ops": failed,
        "unlisted_failed_ops": failed_unlisted,
        "unexpected": sorted(set(unexpected)),
        "wall_s": wall_s,
        "raw_wall_s": sum(statistics.median(s) for s in raw_op),
        "slowdown": statistics.median(factors),
        "op_p50_ms": statistics.median(op_ms),
        "op_tail_ms": tail_ms,
        "op_tail_pct": tail_pct,
        "fail_frac": failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": trace,
    }


if __name__ == "__main__":
    raise SystemExit(main())
