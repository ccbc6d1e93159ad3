"""The benchmark's view of the package: every name and keyword it calls still exists.

perfbench patches named functions (`tracing.SPANNED`, `PowerSeries.evaluate`)
and its warm-up calls the public API with keywords such as `scan_points`.
Installing the tracer and running every warm-up here makes a rename or
deletion fail in the test suite rather than only in a benchmark run. Nothing
under perfbench/ is edited.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patches_and_warm_ups_run(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name in workloads.WORKLOADS:
            workloads.warm_up(name, {"root": PERFBENCH.parent, "out_dir": tmp_path})
    finally:
        tracer.uninstall()
    spanned = {rec[3] for rec in tracer.spans}
    assert {"hooke.solve_frequencies", "qes.variational_state", "cli.main"} <= spanned
