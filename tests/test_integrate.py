import math

import numpy as np
import pytest

from hookium import integrate
from hookium.integrate import _GL_W, _GL_X, QuadratureNonConvergence, _panel_table, gauss_legendre


def _fixed_pair(f, a, b, panels):
    """The rule before doubling: P against 2P panels in one call of f, the 2P sum returned."""
    counts = (panels, 2 * panels)
    halves = [0.5 * (b - a) / p for p in counts]
    nodes = [(a + h * (2 * np.arange(p)[:, None] + 1 + _GL_X)).ravel() for h, p in zip(halves, counts)]
    values = f(np.concatenate(nodes))
    passes = (values[..., :nodes[0].size], values[..., nodes[0].size:])
    sums = [h * (np.ascontiguousarray(v) @ np.tile(_GL_W, p)) for h, v, p in zip(halves, passes, counts)]
    return sums[1], np.abs(sums[1] - sums[0])


def _hex(x):
    return [float(v).hex() for v in np.ravel(x)]


def _recorder(f):
    sizes = []

    def g(x):
        sizes.append(x.size)
        return f(x)
    return g, sizes


RATES = np.array([0.5, 1.0, 3.0, 7.5])


@pytest.mark.parametrize("f, a, b, panels", [
    (np.exp, 0.0, 1.0, 1),
    (lambda x: np.exp(-x * x), -2.0, 3.0, 1),
    (lambda x: x ** 5 * np.exp(-x), 0.0, 40.0, 4),
    (lambda x: np.exp(-RATES[:, None] * x), 0.0, 20.0, 1),
    (lambda x: np.cos(RATES[:, None, None] * x) * np.exp(-x), 0.0, 30.0, 8),
], ids=["exp", "gauss", "gamma", "rows", "rows-3d"])
def test_first_pair_is_bit_identical_to_fixed_pair(f, a, b, panels):
    g, sizes = _recorder(f)
    value, err = gauss_legendre(g, a, b, panels=panels)
    want_value, want_err = _fixed_pair(f, a, b, panels)
    assert len(sizes) == 1
    assert _hex(value) == _hex(want_value)
    assert _hex(err) == _hex(want_err)


K = np.array([1.0, 60.0, 150.0])


def _within(value, err, tol_abs, tol_rel):
    return np.all(err <= np.maximum(tol_abs, tol_rel * np.abs(value)))


def test_failing_first_pair_certifies_deeper():
    # cos(k x) on [0, 1]: the k = 150 row oscillates too fast for 1 against 2 panels
    f = lambda x: np.cos(K[:, None] * x)   # noqa: E731
    assert not _within(*_fixed_pair(f, 0.0, 1.0, 1), 1e-13, 1e-12)
    g, sizes = _recorder(f)
    value, err = gauss_legendre(g, 0.0, 1.0, panels=1, tol_abs=1e-13, tol_rel=1e-12)
    exact = np.sin(K) / K
    assert len(sizes) > 1
    assert _within(value, err, 1e-13, 1e-12)
    assert _within(value, np.abs(value - exact), 1e-13, 1e-12)


@pytest.mark.parametrize("panels", [1, 3, 8])
def test_no_call_gets_more_nodes_than_the_first(panels):
    g, sizes = _recorder(np.sqrt)   # not smooth at 0: every level fails a tight budget
    with pytest.raises(QuadratureNonConvergence):
        gauss_legendre(g, 0.0, 1.0, panels=panels, tol_abs=1e-300, tol_rel=0.0)
    assert sizes[0] == 3 * 48 * panels
    assert len(sizes) > 1
    assert max(sizes[1:]) <= sizes[0]


def test_unattainable_budget_raises_at_the_cap_with_the_estimate():
    g, sizes = _recorder(np.sqrt)
    with pytest.raises(QuadratureNonConvergence, match=r"value=6\.66666\de-01"):
        gauss_legendre(g, 0.0, 1.0, panels=1, tol_abs=1e-300, tol_rel=0.0)
    # 1 and 2 panels in the first call, then 4, 8, 16, 32 and 64: the cap
    assert sum(sizes) == 48 * (1 + 2 + 4 + 8 + 16 + 32 + 64)


@pytest.mark.parametrize("f, doubles", [(np.exp, False), (lambda x: np.cos(K[:, None] * x), True)],
                         ids=["first-pair", "doubled"])
def test_converged_call_never_reaches_check_budget(f, doubles, monkeypatch):
    # the doubling loop's verdict certifies a converged call; only a call left over budget re-checks
    def check(*args):
        raise AssertionError("_check_budget ran")
    monkeypatch.setattr(integrate, "_check_budget", check)
    g, sizes = _recorder(f)
    value, err = gauss_legendre(g, 0.0, 1.0, panels=1, tol_abs=1e-13, tol_rel=1e-12)
    assert _within(value, err, 1e-13, 1e-12)
    assert (len(sizes) > 1) == doubles


def _reference_rule(f, a, b, panels, tol_abs, tol_rel):
    """The composite rule with nodes and weights built afresh in every sum, doubling as the rule does."""
    value, err = _fixed_pair(f, a, b, panels)
    level = chunk = 2 * panels
    while level < 64 and not _within(value, err, tol_abs, tol_rel):
        level *= 2
        h = 0.5 * (b - a) / level
        total = 0.0
        for first in range(0, level, chunk):
            x = (a + h * (2 * np.arange(first, first + chunk)[:, None] + 1 + _GL_X)).ravel()
            total = total + f(x) @ np.tile(_GL_W, chunk)
        value, err = h * total, np.abs(h * total - value)
    return value, err


@pytest.mark.parametrize("panels", [1, 4])
def test_doubled_sum_is_bit_identical_to_fresh_nodes_and_weights(panels):
    f = lambda x: np.cos(4 * panels * K[:, None] * x)   # noqa: E731
    g, sizes = _recorder(f)
    value, err = gauss_legendre(g, 0.5, 1.5, panels=panels, tol_abs=1e-13, tol_rel=1e-12)
    want_value, want_err = _reference_rule(f, 0.5, 1.5, panels, 1e-13, 1e-12)
    assert len(sizes) >= 1 + 2 + 4   # the first pair, then two doublings in 2 and 4 calls of f
    assert _hex(value) == _hex(want_value)
    assert _hex(err) == _hex(want_err)


def test_panel_tables_are_read_only():
    offsets, weights = _panel_table(4)
    assert offsets.size == weights.size == 4 * 48
    for table in (offsets, weights):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
    assert _panel_table(4)[0] is offsets


@pytest.mark.parametrize("tol_abs, tol_rel", [
    (math.nan, 1e-10), (1e-12, math.nan), (0.0, 1e-10), (-1.0, 1e-10),
    (math.inf, 1e-10), (1e-12, -1.0), (1e-12, math.inf),
])
def test_bad_tolerance_raises_before_f_runs(tol_abs, tol_rel):
    def f(x):
        raise AssertionError("f ran")
    with pytest.raises(ValueError, match="tolerances"):
        gauss_legendre(f, 0.0, 1.0, panels=1, tol_abs=tol_abs, tol_rel=tol_rel)
