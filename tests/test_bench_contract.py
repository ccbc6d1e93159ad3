"""The benchmark's view of the package: every name and keyword it calls still exists.

perfbench patches named functions (`tracing.SPANNED`, `PowerSeries.evaluate`)
and its warm-up calls the public API with keywords such as `scan_points`.
Installing the tracer and running every warm-up here makes a rename or
deletion fail in the test suite rather than only in a benchmark run. Its
state oracles run on one root-built state, so a `RadialWavefunction` change
that breaks them fails here too. Nothing under perfbench/ is edited.
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


def test_oracles_accept_an_irrational_state(monkeypatch):
    # the spectrum and entropy oracles read wf.poly.degree, u_squared and nodes
    # of a state built from its roots
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    from hookium import hooke

    n, Z = 5, 1
    branches = hooke.solve_frequencies(n, 1, Z)
    assert all(b.omega_exact is None for b in branches)
    for i, b in enumerate(branches):
        wf = hooke.build_wavefunction(b)
        assert wf.roots is not None and wf.poly.degree == n - 1
        assert workloads.state_failures(f"{n},1,{Z},{i}", wf, hooke.verify_branch(wf)) == []
        assert wf.nodes == workloads.expected_nodes(n, Z, i, len(branches))
