"""Quadrature with an enforced error budget: adaptive, and a vectorized Gauss rule."""

from __future__ import annotations

import functools
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np

__all__ = ["QuadratureNonConvergence", "adaptive_quad", "gauss_legendre"]


def _legendre_rule(n: int):
    """n-point Gauss-Legendre nodes and weights (n even), correctly rounded.

    Newton's method on the recurrence in floats, then two Newton steps at 36
    digits in `decimal` on the positive nodes, mirrored to the negative ones.
    The weights 2 (1 - x^2) / (n P_{n-1}(x))^2 are taken at that precision,
    since in floats 1 - x^2 cancels near +-1 and costs single weights up to
    1e-13. An eigensolver (numpy's leggauss) would page in about 1 MB of
    LAPACK code.
    """
    def legendre(x):
        """(P_n(x), P_{n-1}(x)) for a float array or a Decimal x."""
        p0, p1 = 1, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, p0

    def newton(x):
        p1, p0 = legendre(x)
        return x - p1 * (x * x - 1) / (n * (x * p1 - p0))

    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(8):
        x = newton(x)
    with localcontext() as ctx:
        ctx.prec = 36
        t = [newton(newton(Decimal(v))) for v in x[n // 2:]]
        w = np.array([float(2 * (1 - v * v) / (n * legendre(v)[1]) ** 2) for v in t])
    t = np.array([float(v) for v in t])
    return np.concatenate([-t[::-1], t]), np.concatenate([w[::-1], w])


_GL_X, _GL_W = _legendre_rule(48)


class QuadratureNonConvergence(RuntimeError):
    """The integrator could not certify the requested tolerance."""


def _check_tolerances(tol_abs, tol_rel) -> None:
    """ValueError unless tol_abs is finite > 0 and tol_rel finite >= 0."""
    if not (0 < tol_abs < math.inf and 0 <= tol_rel < math.inf):
        raise ValueError(f"quadrature tolerances need finite tol_abs > 0 and tol_rel >= 0, "
                         f"got tol_abs={tol_abs!r}, tol_rel={tol_rel!r}")


def _within_budget(value, err, tol_abs, tol_rel):
    """Per row, err <= max(tol_abs, tol_rel * |value|); a NaN fails."""
    return err <= np.maximum(tol_abs, tol_rel * np.abs(value))


def _check_budget(value, err, tol_abs, tol_rel) -> None:
    """Raise unless err <= max(tol_abs, tol_rel * |value|) in every row; a NaN fails."""
    _check_tolerances(tol_abs, tol_rel)
    over = np.ravel(~_within_budget(value, err, tol_abs, tol_rel))
    if over.any():
        i = over.argmax()
        raise QuadratureNonConvergence(
            f"integral error estimate {np.ravel(err)[i]:.3e} exceeds budget "
            f"(tol_abs={tol_abs:.3e}, tol_rel={tol_rel:.3e}, value={np.ravel(value)[i]:.6e})"
        )


def adaptive_quad(f, a, b, *, tol_abs=1e-12, tol_rel=1e-10, limit=300, points=None):
    """Integrate f on [a, b]; returns (value, error_estimate).

    Raises QuadratureNonConvergence when the reported error estimate exceeds
    max(tol_abs, tol_rel * |value|). Interior breakpoints may be passed via
    points to help the subdivision.
    """
    import scipy.integrate   # only the oracles call this; the package's own routes do not

    kwargs = dict(limit=limit, epsabs=tol_abs, epsrel=tol_rel)
    if points is not None:
        kwargs["points"] = [p for p in points if a < p < b]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        value, err = scipy.integrate.quad(f, a, b, **kwargs)
    _check_budget(value, err, tol_abs, tol_rel)
    return value, err


_MAX_PANELS = 64   # gauss_legendre doubles its panel count up to this many


@functools.cache
def _panel_table(panels: int):
    """Read-only (offsets, weights) of the rule on `panels` equal panels, panel by panel.

    The nodes on [a, b] are a + h * offsets with h = (b - a) / (2 panels), so
    offsets holds 2k + 1 + x_i; weights is _GL_W repeated once per panel.
    """
    offsets = (2 * np.arange(panels)[:, None] + 1 + _GL_X).ravel()
    weights = np.tile(_GL_W, panels)
    offsets.flags.writeable = weights.flags.writeable = False
    return offsets, weights


def _panel_sum(f, a, b, panels, chunk):
    """The composite rule on `panels` equal panels, f called on `chunk` panels' nodes at a time."""
    h = 0.5 * (b - a) / panels
    offsets, weights = _panel_table(panels)[0], _panel_table(chunk)[1]
    total = 0.0
    for start in range(0, offsets.size, weights.size):
        total = total + f(a + h * offsets[start:start + weights.size]) @ weights
    return h * total


def gauss_legendre(f, a, b, *, panels, tol_abs=1e-12, tol_rel=1e-10):
    """Composite 48-point Gauss-Legendre integral of f on [a, b]; returns (value, err).

    f maps a 1-D array of nodes to values with the nodes on the last axis;
    each leading index is one row. The rule runs on `panels` and on 2 * panels
    equal panels, in one call of f, and certifies err = |fine - coarse| per
    row under the same budget as adaptive_quad. While any row fails, the
    panel count doubles: the last fine sum becomes the coarse one, and f runs
    only on the new level's nodes, 2 * panels panels at a time, so no call
    gets more nodes than the first. The finest sum is returned. The doubling
    stops at _MAX_PANELS panels, where QuadratureNonConvergence is raised
    with the last estimate; a call that converges is certified by the loop's
    own test alone. The tolerances are checked before f is called.
    Node offsets and weights come from _panel_table, built once per panel
    count, so a call costs f and two dot products, not their construction.
    """
    _check_tolerances(tol_abs, tol_rel)
    counts = (panels, 2 * panels)
    halves = [0.5 * (b - a) / p for p in counts]
    tables = [_panel_table(p) for p in counts]
    values = f(np.concatenate([a + h * offsets for h, (offsets, _) in zip(halves, tables)]))
    size = tables[0][0].size
    passes = (values[..., :size], values[..., size:])
    # contiguous copies keep the summation order that separate calls of f had
    coarse, fine = [h * (np.ascontiguousarray(v) @ weights)
                    for h, v, (_, weights) in zip(halves, passes, tables)]
    del values, passes   # a raised QuadratureNonConvergence keeps this frame alive
    err = np.abs(fine - coarse)
    level = counts[1]
    while not np.all(_within_budget(fine, err, tol_abs, tol_rel)):
        if level >= _MAX_PANELS:
            _check_budget(fine, err, tol_abs, tol_rel)   # raises: a row is over budget
        level *= 2
        coarse, fine = fine, _panel_sum(f, a, b, level, counts[1])
        err = np.abs(fine - coarse)
    return fine, err
