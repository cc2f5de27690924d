"""Propagation onto a fixed output grid.

Two routes, each returning the state at every node of ``t_grid``:

- :func:`integrate` solves ``y' = f(t, y)`` by adaptive Dormand-Prince
  5(4) steps, clipped so every requested output time is hit exactly (no
  dense-output interpolation). It serves the coefficient windows, whose
  generator depends on time: the moment route
  (:func:`opendecay.qbm.moments.propagate_moments`, which also takes
  constant coefficients) and the number-basis route
  (:func:`opendecay.qbm.fock.truncated_basis_propagate`). Callers set
  ``rtol`` only; a component's error scale is
  ``rtol * max(|y|, |y5|) + 1e-14``, and the error norm is the root mean
  square of ``|err| / scale``. The last stage of an accepted step is the
  first of the next (first same as last). The state is stepped as a flat
  C-ordered copy, so the memory order of ``y0`` changes no bit.
- :func:`propagate_constant` solves ``y' = M y`` for a constant matrix
  ``M`` exactly to round-off, by a truncated Taylor series of
  ``exp(h M)`` (Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 488 (2011)).
  It reads no tolerance. For each output spacing ``h`` the degree ``m``
  and substep count ``s`` are chosen a priori so that ``||hM/s||_1 <=
  theta_m``; there the Taylor remainder is at most ``2^-53`` of the state
  (see ``_THETA``). A dense ``M`` forms ``E = exp(hM)`` once per distinct
  spacing, as ``T_m(hM / 2^k)`` squared ``k`` times with ``2^k >= s``
  (scaling and squaring, Higham, SIAM J. Matrix Anal. Appl. 26, 1179
  (2005)), and steps ``y <- E y``. A ``scipy.sparse`` ``M`` applies
  ``T_m(hM/s)`` to ``y`` ``s`` times per interval, in ``m`` sparse
  products each, so no power of ``M`` is formed. The state is copied to
  C order first, so the memory order of ``y0`` changes no bit.

The matrix exponential is the reference route of :func:`propagate_constant`;
it densifies a sparse ``M``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy  # SciPy >= 1.9 imports a submodule on its first attribute access

from .errors import IntegratorAccuracyError, StiffnessError, ValidationError
from .model import _checked_all_finite, _checked_finite, _checked_grid

# Dormand-Prince coefficients; an int quotient is the nearest float to it
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = [np.array(row) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_B54 = np.array([_B5, _B5 - _B4])  # weights of the trial pair [y5 - y, err]

# Attempted steps, accepted and rejected, after which one call of
# integrate refuses.
_MAX_STEPS = 1_000_000

# theta_m for m = 1..30: the largest theta with theta^(m+1) e^theta / (m+1)!
# <= 2^-53, found by bisection. With ||A||_1 <= theta_m the terms of exp(A)
# past degree m sum to at most that bound times ||y||_1.
_THETA = np.array([
    1.4901161082825398e-08, 8.73345115755366e-06, 0.0002271855482444527,
    0.0016779250295614237, 0.006556155374192009, 0.017725227918169623,
    0.03795820911731926, 0.06944931693563773, 0.11365313850770736,
    0.1713296719540245, 0.24267747932735625, 0.3274837131027528,
    0.42525776147482364, 0.5353375572742738, 0.6569684347661536,
    0.7893586814173491, 0.9317169257310868, 1.0832760936813923,
    1.2433077952828437, 1.4111300937950637, 1.5861108253433691,
    1.76766801650252, 1.9552684810602357, 2.148425337484402,
    2.3466949464971956, 2.5496735983548233, 2.756994161904439,
    2.9683228271146356, 3.1833560184777387, 3.401817520510592,
])
_DEGREES = np.arange(1, len(_THETA) + 1)

# Taylor substeps, summed over the output intervals, past which one call
# refuses before any product (the dense route takes log2 of them as squarings)
_MAX_SUBSTEPS = 1_000_000


def _check_slope_shape(k, y):
    # an array's own shape first: np.shape costs ~0.4 us a call, once per stage
    if getattr(k, "shape", None) != y.shape and np.shape(k) != y.shape:
        raise ValueError(
            f"right-hand side returned shape {np.shape(k)} for a state of "
            f"shape {y.shape}; it must return the state's shape"
        )


def _checked_state(y):
    """``y``; ValidationError naming ``y0`` when it is 0-d, has no component or is not finite."""
    if y.ndim == 0 or y.size == 0:
        raise ValidationError(
            f"y0 must be an array of at least one dimension and one component, "
            f"got shape {y.shape}"
        )
    return _checked_all_finite(y, "y0")


def integrate(f, y0, t_grid, rtol=1e-10):
    """Integrate y' = f(t, y) from t_grid[0], returning y at every node.

    Raises ValidationError unless ``rtol`` is finite and > 0, when
    ``t_grid`` is not a finite, strictly increasing 1-d grid (naming its
    first bad node) or when ``y0`` is 0-d, empty or not finite (naming its
    first non-finite entry), StiffnessError when the step size underflows
    or after ``_MAX_STEPS`` attempted steps, IntegratorAccuracyError when
    a step's error estimate is not finite (a NaN or infinite ``f``, or a
    state that overflows), and ValueError when a value of ``f`` does not
    have ``y0``'s shape or its first is complex for a real ``y0``.
    """
    y = _checked_state(np.asarray(y0, dtype=complex if np.iscomplexobj(y0) else float).copy())
    rtol = _checked_finite("rtol", rtol, "> 0")
    t_grid = _checked_grid(t_grid, "t_grid")
    shape = y.shape
    out = np.empty((len(t_grid),) + shape, dtype=y.dtype)
    out[0] = y
    if len(t_grid) == 1:
        return out

    t = float(t_grid[0])
    span = float(t_grid[-1]) - t
    h = span / 100.0
    idx = 1
    target = float(t_grid[idx])
    n_comp = y.size
    # the seven slopes in one C-ordered array, so a stage state and the
    # trial pair are each one small product with its flat rows
    k = np.empty((7,) + shape, dtype=y.dtype)
    slopes = k.reshape(7, -1)
    k0 = np.asarray(f(t, y))
    _check_slope_shape(k0, y)
    if np.iscomplexobj(k0) and not np.iscomplexobj(y):
        raise ValueError(
            f"right-hand side returned {k0.dtype} for a state of dtype "
            f"{y.dtype}; the real state would drop its imaginary part, "
            "so pass a complex y0"
        )
    k[0] = k0
    flat = y.reshape(-1)  # y is a C-ordered copy, so this is a view
    abs_y = np.abs(flat)

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
            yi = flat + (h_try * _A[i]) @ slopes[:i]
            ki = f(t + _C[i] * h_try, yi.reshape(shape))
            _check_slope_shape(ki, y)  # numpy would broadcast a scalar or a (1,) row
            k[i] = ki
        pair = (h_try * _B54) @ slopes  # [y5 - y, err]
        pair[0] += flat
        abs_y5, ratio = np.abs(pair)
        scale = np.maximum(abs_y, abs_y5)
        scale *= rtol
        scale += 1e-14
        ratio /= scale
        enorm = math.sqrt(ratio @ ratio / n_comp)
        if not math.isfinite(enorm):
            # a NaN estimate would be rejected forever without shrinking h
            raise IntegratorAccuracyError(
                f"error estimate is {enorm} in the step from t={t:.6g} "
                f"(h={h_try:.3e}): the state or the right-hand side is not finite"
            )
        factor = 0.9 * (enorm ** -0.2) if enorm > 0.0 else 5.0
        if enorm <= 1.0:
            t = target if clipped else t + h_try
            flat, abs_y = pair[0], abs_y5
            k[0] = k[6]  # first same as last: the last stage is f at the accepted point
            if clipped:
                out[idx] = flat.reshape(shape)
                idx += 1
                if idx == len(t_grid):
                    return out
                target = float(t_grid[idx])
                # keep the controller step: a clip says nothing about error
            else:
                h = h_try * min(5.0, max(0.2, factor))
        else:
            h = h_try * min(1.0, max(0.2, factor))
    raise StiffnessError(
        f"step budget of {_MAX_STEPS} attempted steps exhausted at t={t:.6g} "
        f"of [{t_grid[0]:.6g}, {t_grid[-1]:.6g}]; the system is too stiff or "
        "the span too long for the requested tolerance"
    )


def _taylor_plan(norms):
    """Degree ``m`` and substep count ``s`` of the Taylor series for each ``||hM||_1``.

    The pair of least cost ``m * s`` (products with ``M``) among those with
    ``norm / s <= theta_m``, the lower degree on a tie. ``s`` is a float,
    infinite for an infinite norm, so the budget can refuse it unconverted.
    """
    steps = np.maximum(np.ceil(norms[:, None] / _THETA), 1.0)
    best = np.argmin(steps * _DEGREES, axis=1)
    return _DEGREES[best], steps[np.arange(len(best)), best]


def _taylor_exp(a, degree, steps):
    """``exp(a)`` as ``T_m(a / 2^k)`` squared ``k`` times, with ``2^k >= steps``."""
    k = (int(steps) - 1).bit_length()
    a = a / 2.0**k
    eye = np.eye(len(a), dtype=a.dtype)
    e = eye
    for j in range(degree, 0, -1):  # Horner: T_m(a) = I + a (I + a/2 (... (I + a/m)))
        e = eye + (a @ e) / j
    for _ in range(k):
        e = e @ e
    return e


def _taylor_propagate(matrix, y, t_grid):
    """``exp((t - t_grid[0]) M) y`` at every node, by the plan of :func:`_taylor_plan`."""
    out = np.empty((len(t_grid),) + y.shape, dtype=y.dtype)
    out[0] = y
    spacings, which = np.unique(np.diff(t_grid), return_inverse=True)
    norm = float(abs(matrix).sum(axis=0).max())
    degrees, steps = _taylor_plan(spacings * norm)
    total = float(steps[which].sum())
    if total > _MAX_SUBSTEPS:
        raise StiffnessError(
            f"substep budget of {_MAX_SUBSTEPS} exceeded: ||M||_1 = {norm:.3e} over "
            f"[{t_grid[0]:.6g}, {t_grid[-1]:.6g}] takes {total:.3e} Taylor substeps; "
            "the system is too stiff or the span too long"
        )
    # an overflow is refused below, by the first node it reaches
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(matrix, np.ndarray):
            props = [_taylor_exp(h * matrix, m, s) for h, m, s in zip(spacings, degrees, steps)]
            for i, j in enumerate(which):
                np.matmul(props[j], out[i], out=out[i + 1])
        else:
            for i, j in enumerate(which):
                scale, y = spacings[j] / steps[j], out[i]
                for _ in range(int(steps[j])):
                    term, y = y, y.copy()
                    for p in range(1, degrees[j] + 1):
                        term = matrix @ term
                        term *= scale / p
                        y += term
                out[i + 1] = y
    finite = np.isfinite(out.reshape(len(t_grid), -1)).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise IntegratorAccuracyError(
            f"the propagated state is not finite at t={t_grid[bad]:.6g} (node {bad}): "
            "exp(t M) y0 overflows"
        )
    return out


def propagate_constant(matrix, y0, t_grid, method="taylor"):
    """Solve y' = M y for a constant matrix M, returning y at every node.

    ``M`` is a dense array or a ``scipy.sparse`` matrix. ``method="taylor"``
    applies a truncated Taylor series of ``exp(hM)`` whose remainder is
    bounded a priori by ``2^-53`` of the state (module docstring), so it is
    exact to round-off and reads no tolerance; ``method="expm"`` evaluates
    ``expm(M t) @ y0`` at every node (densifying a sparse ``M``), the
    reference route for the Taylor one. ``y0`` is a vector or a matrix
    whose columns are propagated together; a matrix that is not square or
    does not match ``y0``'s leading dimension raises ValueError, and an
    empty ``y0`` ValidationError. On either route ValidationError names
    ``matrix`` (``matrix.data`` when sparse) and ``y0`` unless their entries
    are finite, and ``t_grid`` and its first bad node unless it is a finite,
    strictly increasing 1-d grid. The Taylor route raises StiffnessError
    before any product when its substeps would exceed ``_MAX_SUBSTEPS``, and
    IntegratorAccuracyError naming the first node whose state is not finite.
    """
    # an ndarray is dense without asking scipy.sparse, which would load it
    if isinstance(matrix, np.ndarray) or not scipy.sparse.issparse(matrix):
        matrix = np.asarray(matrix)
        _checked_all_finite(matrix, "matrix")
    else:
        matrix = matrix.tocsr()
        _checked_all_finite(matrix.data, "matrix.data")
    y0 = np.asarray(y0)
    if (matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]
            or y0.ndim not in (1, 2) or y0.shape[0] != matrix.shape[0]):
        raise ValueError(
            f"generator of shape {matrix.shape} cannot propagate y0 of shape "
            f"{y0.shape}: it must be a square matrix whose size is the leading "
            "dimension of a vector or matrix y0"
        )
    _checked_state(y0)
    t_grid = _checked_grid(t_grid, "t_grid")
    if method == "expm":
        if not isinstance(matrix, np.ndarray):
            matrix = matrix.toarray()
        return np.stack([scipy.linalg.expm(matrix * t) @ y0 for t in t_grid])
    if method != "taylor":
        raise ValueError(f"unknown method {method!r}")
    dtype = complex if np.iscomplexobj(matrix) or np.iscomplexobj(y0) else float
    return _taylor_propagate(matrix.astype(dtype, copy=False),
                             np.ascontiguousarray(y0, dtype=dtype), t_grid)
