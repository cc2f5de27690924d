"""Piecewise cubics in numpy: local Hermite evaluation and not-a-knot slopes.

``hermite`` evaluates the cubic Hermite interpolant of values and slopes
given at increasing nodes, touching only the intervals that hold the
query times. Its arithmetic is that of SciPy's ``CubicHermiteSpline``
(the same coefficients, summed in the same order), so on the same data
it returns the same values. ``not_a_knot_slopes`` solves for the node
slopes of SciPy's default ``CubicSpline`` (not-a-knot ends), so
``hermite(x, y, not_a_knot_slopes(x, y), t)`` is that spline. Both work
along the last axis, one series per row of a stack.
"""

from __future__ import annotations

import numpy as np


def hermite(x, y, dydx, t, nu: int = 0):
    """Derivative ``nu`` (0, 1 or 2) at ``t`` of the cubic Hermite interpolant of ``(y, dydx)``.

    ``x`` holds n >= 2 strictly increasing nodes and ``y``, ``dydx`` the
    values and slopes there along their last axis. The result has shape
    ``y.shape[:-1] + t.shape``. A time outside ``[x[0], x[-1]]``
    extrapolates the end cubic; callers check their range.
    """
    t = np.asarray(t, dtype=float)
    # one time goes through with an int index, so the arithmetic below is on
    # NumPy scalars, several times cheaper than on 1-element arrays
    ts = float(t) if t.ndim == 0 else t.ravel()
    i = np.searchsorted(x[1:-1], ts, side="right")  # the interval x[i] <= t < x[i + 1]
    i = int(i) if t.ndim == 0 else i
    j = i + 1
    x0 = x[i]
    dx = x[j] - x0
    s = ts - x0
    y0, d0, d1 = y.take(i, -1), dydx.take(i, -1), dydx.take(j, -1)
    slope = (y.take(j, -1) - y0) / dx
    c = (d0 + d1 - 2 * slope) / dx
    c3 = c / dx  # the coefficients of s**3 and s**2 about x0
    c2 = (slope - d0) / dx - c
    if nu == 0:
        out = ((y0 + d0 * s) + c2 * (s * s)) + c3 * (s * s * s)
    elif nu == 1:
        out = (d0 + c2 * s * 2) + c3 * (s * s) * 3
    else:
        out = c2 * 2 + c3 * s * 6
    return out if t.ndim == 0 else out.reshape(out.shape[:-1] + t.shape)


def not_a_knot_slopes(x, y):
    """Node slopes of the not-a-knot cubic spline through ``(x, y)`` along the last axis.

    This is the tridiagonal system of SciPy's ``CubicSpline``, with its
    cases for n = 2 (a line) and n = 3 (a parabola), solved by one
    forward and one backward sweep. After the first elimination every
    pivot row is diagonally dominant except the last, whose pivot stays
    at least ``dx[-2]**2 / (2 dx[-2] + dx[-1])``, so the sweep needs no
    pivoting.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    dx = np.diff(x)
    slope = np.diff(y, axis=-1) / dx
    if n == 2:
        return np.concatenate([slope, slope], axis=-1)
    if n == 3:
        c = (slope[..., 1] - slope[..., 0]) / (dx[0] + dx[1])
        return np.stack([slope[..., 0] - c * dx[0], slope[..., 0] + c * dx[0],
                         slope[..., 1] + c * dx[1]], axis=-1)
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    h = dx.tolist()
    lower = [0.0] + h[1:] + [d1]  # lower[i] multiplies s[i - 1] in row i
    diag = [h[1]] + [2.0 * (a + b) for a, b in zip(h, h[1:])] + [h[-2]]
    upper = [d0] + h[:-1]  # upper[i] multiplies s[i + 1] in row i
    b = np.empty(y.shape[:-1] + (n,))
    b[..., 0] = ((dx[0] + 2 * d0) * dx[1] * slope[..., 0] + dx[0] ** 2 * slope[..., 1]) / d0
    b[..., 1:-1] = 3 * (dx[1:] * slope[..., :-1] + dx[:-1] * slope[..., 1:])
    b[..., -1] = (dx[-1] ** 2 * slope[..., -2] + (2 * d1 + dx[-1]) * dx[-2] * slope[..., -1]) / d1
    # rows[i]: row i of the right-hand side, a float for one series (the
    # sweep runs on Python floats) or an array across a stack
    rows = b.tolist() if b.ndim == 1 else list(np.moveaxis(b, -1, 0))
    for i in range(1, n):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rows[i] = rows[i] - w * rows[i - 1]
    rows[-1] = rows[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        rows[i] = (rows[i] - upper[i] * rows[i + 1]) / diag[i]
    return np.moveaxis(np.array(rows), 0, -1)
