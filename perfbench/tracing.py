"""In-memory spans around calls into each hookium module, for the traced run.

The tracer replaces a public function by a wrapper in every `hookium.*`
namespace that holds it, so calls made between modules are seen too. Each
span records (id, parent id, operation id, name, start, end); self time is a
span's duration minus the time its direct children cover. Counters that are
not worth a span (integrand evaluations, `PowerSeries.evaluate` calls) are
plain counts. Nothing under `src/` is touched: `uninstall` puts every original
back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute) of every spanned function; metric prefix is "<module>.<attribute>"
SPANNED = [
    ("polyops", "real_roots"),
    ("polyops", "sturm_count"),
    ("hooke", "solve_frequencies"),
    ("hooke", "build_wavefunction"),
    ("hooke", "verify_branch"),
    ("observables", "total_entropy"),
    ("observables", "entropy_density"),
    ("observables", "density_quadrature"),
    ("observables", "fit_cm_width"),
    ("observables", "compare_density_routes"),
    ("observables", "closed_form_density"),
    ("series", "series_solve"),
    ("qes", "variational_state"),
    ("qes", "rayleigh_quotient"),
    ("qes", "qes_eigen_series"),
    ("qes", "sector_energies"),
    ("qes", "node_count"),
    ("cli", "main"),
    ("verify", "run_checks"),
    ("serialize", "render_csv"),
    ("serialize", "write_text"),
]

# name -> unit, better; the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = {
    "integrate.adaptive_quad.calls": ("count", "lower"),
    "integrate.adaptive_quad.evals": ("count", "lower"),
    "integrate.adaptive_quad.time_s": ("s", "lower"),
    "integrate.adaptive_quad.nonconverged": ("count", "lower"),
    "integrate.adaptive_quad.rel_err_max": ("ratio", "lower"),
    "polyops.real_roots.calls": ("count", "lower"),
    "polyops.real_roots.self_s": ("s", "lower"),
    "polyops.real_roots.rational_roots": ("count", "higher"),
    "polyops.real_roots.float_roots": ("count", "lower"),
    "polyops.sturm_count.calls": ("count", "lower"),
    "polyops.sturm_count.self_s": ("s", "lower"),
    "hooke.solve_frequencies.calls": ("count", "lower"),
    "hooke.solve_frequencies.self_s": ("s", "lower"),
    "hooke.solve_frequencies.branches": ("count", "higher"),
    "hooke.exact_branch_frac": ("ratio", "higher"),
    "hooke.build_wavefunction.calls": ("count", "lower"),
    "hooke.build_wavefunction.self_s": ("s", "lower"),
    "hooke.build_wavefunction.failed": ("count", "lower"),
    "hooke.verify_branch.self_s": ("s", "lower"),
    "hooke.verify_branch.residual_max": ("ratio", "lower"),
    "observables.total_entropy.calls": ("count", "lower"),
    "observables.total_entropy.self_s": ("s", "lower"),
    "observables.entropy_density.calls": ("count", "lower"),
    "observables.entropy_density.self_s": ("s", "lower"),
    "observables.density_quadrature.calls": ("count", "lower"),
    "observables.density_quadrature.self_s": ("s", "lower"),
    "observables.density_quadrature.points": ("count", "lower"),
    "observables.fit_cm_width.self_s": ("s", "lower"),
    "observables.compare_density_routes.self_s": ("s", "lower"),
    "observables.compare_density_routes.max_rel_dev": ("ratio", "lower"),
    "observables.closed_form_density.self_s": ("s", "lower"),
    "series.series_solve.calls": ("count", "lower"),
    "series.series_solve.self_s": ("s", "lower"),
    "series.PowerSeries.evaluate.calls": ("count", "lower"),
    "qes.variational_state.calls": ("count", "lower"),
    "qes.variational_state.self_s": ("s", "lower"),
    "qes.variational_state.failed": ("count", "lower"),
    "qes.rayleigh_quotient.calls": ("count", "lower"),
    "qes.qes_eigen_series.calls": ("count", "lower"),
    "qes.sector_energies.self_s": ("s", "lower"),
    "qes.node_count.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "verify.run_checks.self_s": ("s", "lower"),
    "serialize.render_csv.self_s": ("s", "lower"),
    "serialize.write_text.self_s": ("s", "lower"),
    "serialize.write_text.bytes": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Span recorder plus the patches that feed it; one per traced run."""

    def __init__(self):
        self.spans = []          # [id, parent, op, name, start, end]
        self.counts = defaultdict(int)
        self.maxima = defaultdict(float)
        self.op = None
        self._stack = []
        self._undo = []

    # ------------------------------------------------------------ spans

    def _call(self, name, fn, args, kwargs):
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, self.op, name,
               time.perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            return fn(*args, **kwargs)
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        tracer = self
        on_call = _ON_CALL.get(name)
        on_result = _ON_RESULT.get(name)
        counts_failures = name in _COUNTS_FAILURES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args, kwargs)
            try:
                out = tracer._call(name, fn, args, kwargs)
            except Exception:
                if counts_failures:
                    tracer.counts[f"{name}.failed"] += 1
                raise
            if on_result is not None:
                on_result(tracer, out)
            return out
        return wrapper

    def _wrap_quad(self, fn, nonconvergence):
        tracer = self

        @functools.wraps(fn)
        def traced_quad(f, a, b, **kwargs):
            evals = 0

            def counted(x):
                nonlocal evals
                evals += 1
                return f(x)

            try:
                value, err = tracer._call("integrate.adaptive_quad", fn, (counted, a, b), kwargs)
            except nonconvergence:
                tracer.counts["integrate.adaptive_quad.nonconverged"] += 1
                raise
            finally:
                tracer.counts["integrate.adaptive_quad.evals"] += evals
            # relative error only where the value clears the absolute tolerance
            if abs(value) > kwargs.get("tol_abs", 1e-12):
                rel = abs(err / value)
                if rel > tracer.maxima["integrate.adaptive_quad.rel_err_max"]:
                    tracer.maxima["integrate.adaptive_quad.rel_err_max"] = rel
            return value, err
        return traced_quad

    # ------------------------------------------------------------ patching

    def _replace_everywhere(self, orig, new):
        for modname, mod in list(sys.modules.items()):
            if modname != "hookium" and not modname.startswith("hookium."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))

    def install(self):
        import hookium.cli  # noqa: F401  (loads every module that gets patched)
        from hookium import integrate, series

        self._replace_everywhere(integrate.adaptive_quad,
                                 self._wrap_quad(integrate.adaptive_quad,
                                                 integrate.QuadratureNonConvergence))
        for modname, attr in SPANNED:
            mod = sys.modules[f"hookium.{modname}"]
            orig = getattr(mod, attr)
            self._replace_everywhere(orig, self._wrap(f"{modname}.{attr}", orig))

        evaluate = series.PowerSeries.evaluate
        counts = self.counts

        @functools.wraps(evaluate)
        def counted_evaluate(*args, **kwargs):
            counts["series.PowerSeries.evaluate.calls"] += 1
            return evaluate(*args, **kwargs)

        series.PowerSeries.evaluate = counted_evaluate
        self._undo.append((series.PowerSeries, "evaluate", evaluate))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # ------------------------------------------------------------ results

    def metrics(self, overhead_s: float, factor: float) -> dict:
        """Per-layer metrics of the traced pass.

        Times are divided by the pass's machine slowdown `factor`, as every
        time the benchmark reports is (speed.py).
        """
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child[sid]
        values = {}
        for metric in PER_LAYER:
            head, _, stat = metric.rpartition(".")
            if metric in self.counts:
                values[metric] = self.counts[metric]
            elif metric in self.maxima:
                values[metric] = self.maxima[metric]
            elif stat == "calls":
                values[metric] = calls[head]
            elif stat == "self_s":
                values[metric] = self_s[head]
            else:
                values[metric] = 0
        # nested quadratures are child spans, so summed self time is the time inside any quadrature
        values["integrate.adaptive_quad.time_s"] = self_s["integrate.adaptive_quad"]
        for metric in values:
            if metric.endswith("_s"):
                values[metric] /= factor
        branches = self.counts["hooke.solve_frequencies.branches"]
        values["hooke.exact_branch_frac"] = (self.counts["hooke.exact_branches"] / branches
                                             if branches else 0.0)
        values["trace.overhead_s"] = overhead_s
        return values

    def write(self, path, ops) -> None:
        """Spans as JSON lines: a header naming each operation id, then one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "op", "name", "start", "end"],
                                 "ops": ops}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _solve_stats(tracer, branches):
    tracer.counts["hooke.solve_frequencies.branches"] += len(branches)
    tracer.counts["hooke.exact_branches"] += sum(b.omega_exact is not None for b in branches)


def _roots_stats(tracer, out):
    tracer.counts["polyops.real_roots.rational_roots"] += len(out[0])
    tracer.counts["polyops.real_roots.float_roots"] += len(out[1])


def _track_max(metric, getter):
    def hook(tracer, out):
        tracer.maxima[metric] = max(tracer.maxima[metric], float(getter(out)))
    return hook


def _add_points(tracer, profile):
    tracer.counts["observables.density_quadrature.points"] += profile.grid.size


def _count_bytes(tracer, args, kwargs):
    text = kwargs["text"] if "text" in kwargs else args[1]
    tracer.counts["serialize.write_text.bytes"] += len(text.encode("utf-8"))


_ON_CALL = {"serialize.write_text": _count_bytes}

_ON_RESULT = {
    "polyops.real_roots": _roots_stats,
    "hooke.solve_frequencies": _solve_stats,
    "hooke.verify_branch": _track_max("hooke.verify_branch.residual_max", lambda r: r),
    "observables.density_quadrature": _add_points,
    "observables.compare_density_routes": _track_max(
        "observables.compare_density_routes.max_rel_dev", lambda c: c.max_rel_deviation),
}

_COUNTS_FAILURES = {"hooke.build_wavefunction", "qes.variational_state"}
