"""Adaptive Dormand-Prince 5(4) integration onto a fixed output grid.

Works on complex or real arrays of any shape; steps are clipped so every
requested output time is hit exactly (no dense-output interpolation).
:func:`propagate_constant` is the one entry point for linear systems with a
constant generator, with the matrix exponential as its reference route.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import StiffnessError

# Dormand-Prince coefficients
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)

# Attempted steps, accepted and rejected, after which one call refuses.
# The most any test or acceptance criterion takes in one call is 2581
# (a 4-vector over tau in [0, 40] at rtol 1e-10).
_MAX_STEPS = 1_000_000


def integrate(f, y0, t_grid, rtol=1e-10, atol=1e-14, max_step=np.inf):
    """Integrate y' = f(t, y) from t_grid[0], returning y at every node.

    Raises StiffnessError when the step size underflows or after
    ``_MAX_STEPS`` attempted steps.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1:
        raise ValueError("t_grid must be a 1-d array with at least one node")
    if np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")
    y = np.asarray(y0, dtype=complex if np.iscomplexobj(y0) else float).copy()
    out = np.empty((len(t_grid),) + y.shape, dtype=y.dtype)
    out[0] = y
    if len(t_grid) == 1:
        return out

    t = t_grid[0]
    span = t_grid[-1] - t_grid[0]
    k = [None] * 7
    k[0] = np.asarray(f(t, y), dtype=y.dtype)
    h = min(span / 100.0, max_step)
    idx = 1
    target = t_grid[idx]
    n_comp = y.size

    for _ in range(_MAX_STEPS):
        if h <= 1e-14 * max(abs(t), span):
            raise StiffnessError(
                f"step size underflow at t={t:.6g} (h={h:.3e}); "
                "the system is too stiff for the requested tolerance"
            )
        h_try = h
        clipped = False
        if t + h_try >= target:
            h_try = target - t
            clipped = True
        for i in range(1, 7):
            yi = y.copy()
            for j, a in enumerate(_A[i]):
                yi += (h_try * a) * k[j]
            k[i] = np.asarray(f(t + _C[i] * h_try, yi), dtype=y.dtype)
        y5 = y.copy()
        for i in range(7):
            if _B5[i] != 0.0:
                y5 += (h_try * _B5[i]) * k[i]
        err = np.zeros_like(y)
        for i in range(7):
            d = _B5[i] - _B4[i]
            if d != 0.0:
                err += (h_try * d) * k[i]
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        enorm = float(np.sqrt(np.sum(np.abs(err / scale) ** 2) / n_comp))
        factor = 0.9 * (enorm ** -0.2) if enorm > 0.0 else 5.0
        if enorm <= 1.0:
            t = target if clipped else t + h_try
            y = y5
            k[0] = k[6]  # FSAL: last stage is f at the accepted point
            if clipped:
                out[idx] = y
                idx += 1
                if idx == len(t_grid):
                    return out
                target = t_grid[idx]
                # keep the controller step: a clip says nothing about error
            else:
                h = min(h_try * min(5.0, max(0.2, factor)), max_step)
        else:
            h = h_try * min(1.0, max(0.2, factor))
    raise StiffnessError(
        f"step budget of {_MAX_STEPS} attempted steps exhausted at t={t:.6g} "
        f"of [{t_grid[0]:.6g}, {t_grid[-1]:.6g}]; the system is too stiff or "
        "the span too long for the requested tolerance"
    )


def propagate_constant(matrix, y0, t_grid, rtol=1e-10, method="adaptive"):
    """Solve y' = M y for a constant matrix M, returning y at every node.

    ``method="adaptive"`` steps with :func:`integrate` at the relative
    tolerance ``rtol``; ``method="expm"`` evaluates ``expm(M t) @ y0`` at
    every node, the reference route for the adaptive one. ``y0`` is a
    vector or a matrix whose columns are propagated together.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if method == "expm":
        return np.stack([scipy.linalg.expm(matrix * t) @ y0 for t in t_grid])
    if method != "adaptive":
        raise ValueError(f"unknown method {method!r}")
    return integrate(lambda t, y: matrix @ y, y0, t_grid, rtol=rtol)
