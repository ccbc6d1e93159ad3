"""Quadrature with an enforced error budget: adaptive, and a vectorized Gauss rule."""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.integrate

__all__ = ["QuadratureNonConvergence", "adaptive_quad", "gauss_legendre"]


def _legendre_rule(n: int):
    """n-point Gauss-Legendre nodes and weights by Newton's method on the recurrence.

    An eigensolver (numpy's leggauss) would page in about 1 MB of LAPACK code.
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(8):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1)
        x = x - p1 / dp
    return x, 2 / ((1 - x * x) * dp * dp)


_GL_X, _GL_W = _legendre_rule(48)


class QuadratureNonConvergence(RuntimeError):
    """The integrator could not certify the requested tolerance."""


def _check_budget(value, err, tol_abs, tol_rel) -> None:
    """Raise unless err <= max(tol_abs, tol_rel * |value|) in every row; a NaN fails."""
    if not (0 < tol_abs < math.inf and 0 <= tol_rel < math.inf):
        raise ValueError(f"quadrature tolerances need finite tol_abs > 0 and tol_rel >= 0, "
                         f"got tol_abs={tol_abs!r}, tol_rel={tol_rel!r}")
    over = np.ravel(~(err <= np.maximum(tol_abs, tol_rel * np.abs(value))))
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
    kwargs = dict(limit=limit, epsabs=tol_abs, epsrel=tol_rel)
    if points is not None:
        kwargs["points"] = [p for p in points if a < p < b]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        value, err = scipy.integrate.quad(f, a, b, **kwargs)
    _check_budget(value, err, tol_abs, tol_rel)
    return value, err


def gauss_legendre(f, a, b, *, panels, tol_abs=1e-12, tol_rel=1e-10):
    """Composite 48-point Gauss-Legendre integral of f on [a, b]; returns (value, err).

    f maps a 1-D array of nodes to values with the nodes on the last axis;
    each leading index is one row. The rule runs on `panels` and on 2 * panels
    equal panels and returns the finer sum, with err = |fine - coarse| per
    row, under the same budget as adaptive_quad.
    """
    sums = []
    for p in (panels, 2 * panels):
        half = 0.5 * (b - a) / p
        x = a + half * (2 * np.arange(p)[:, None] + 1 + _GL_X)
        sums.append(half * (f(x.ravel()) @ np.tile(_GL_W, p)))
    err = np.abs(sums[1] - sums[0])
    _check_budget(sums[1], err, tol_abs, tol_rel)
    return sums[1], err
