"""Adaptive Dormand-Prince 5(4) integration onto a fixed output grid.

Works on complex or real arrays of any shape; steps are clipped so every
requested output time is hit exactly (no dense-output interpolation).
Callers set ``rtol`` only; a component's error scale is ``1e-14 + rtol*|y|``.

One step controller (:func:`_advance`) serves two stage evaluators:

- :func:`integrate` evaluates the seven Runge-Kutta stages of a general
  right-hand side ``f(t, y)``, reusing the last stage of an accepted step
  as the first of the next (first same as last).
- :func:`propagate_constant` solves ``y' = M y`` for a constant matrix
  ``M``. There every stage is a polynomial in ``z = h M`` applied to
  ``y``: the 5th-order update is ``R5(z) y`` with the method's stability
  polynomial ``R5`` (degree 6) and the error estimate is ``E(z) y``
  (degree 7, no term below ``z^5``). Both polynomials are derived from
  the Butcher tableau in exact rational arithmetic. A step combines the
  block ``[y, M y, ..., M^7 y]`` with the coefficients scaled by ``h^p``
  in one small product. The block is formed once per step start, and a
  rejected retry from the same ``y`` reuses it. It is formed in one of
  two ways:

  - for a dense ``M``, as one product of ``y`` with the stack of powers
    ``[M^0, ..., M^7]``, formed once per call;
  - for a ``scipy.sparse`` ``M``, as a Krylov block of sparse
    matrix-vector products, so no power of ``M`` is ever formed. The
    first step start takes seven products and every later one six:
    ``R5`` has no ``z^7`` term, so ``M y5`` is a combination of rows
    1..7 of the accepted step's block, kept as row 1 of the next (the
    first-same-as-last property of the method, as in :func:`integrate`).

Each evaluator returns the trial pair ``[y5, err]`` as one ``(2, *y.shape)``
array, one small product with its slopes or its block. The controller
takes the error norm in one pass over that pair: one ``np.abs`` fills a
buffer with ``[|y5|, |err|]``, the scale ``rtol * max(|y|, |y5|) + 1e-14``
and ``|err| / scale`` are formed in place, and the norm is
``sqrt(r @ r / n)`` of the flat ratio row ``r``. The accepted step's
``|y5|`` becomes the next ``|y|`` by swapping two such buffers. They are
C-ordered whatever the order of ``y``: a transposed ``y`` (as
``lindblad.propagate_density`` passes) is Fortran-ordered, a buffer of
its order would make ``reshape(-1)`` a copy instead of a view, and the
norm would read stale values.

The matrix exponential is the reference route of :func:`propagate_constant`;
it densifies a sparse ``M``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy  # SciPy >= 1.9 imports a submodule on its first attribute access

from .errors import IntegratorAccuracyError, StiffnessError, ValidationError
from .model import _checked_finite, _checked_grid

# Dormand-Prince coefficients, exact; the stepper uses their nearest floats
_F = Fraction
_A_EXACT = (
    (),
    (_F(1, 5),),
    (_F(3, 40), _F(9, 40)),
    (_F(44, 45), _F(-56, 15), _F(32, 9)),
    (_F(19372, 6561), _F(-25360, 2187), _F(64448, 6561), _F(-212, 729)),
    (_F(9017, 3168), _F(-355, 33), _F(46732, 5247), _F(49, 176), _F(-5103, 18656)),
    (_F(35, 384), _F(0), _F(500, 1113), _F(125, 192), _F(-2187, 6784), _F(11, 84)),
)
_B5_EXACT = (_F(35, 384), _F(0), _F(500, 1113), _F(125, 192), _F(-2187, 6784),
             _F(11, 84), _F(0))
_B4_EXACT = (_F(5179, 57600), _F(0), _F(7571, 16695), _F(393, 640),
             _F(-92097, 339200), _F(187, 2100), _F(1, 40))

_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = [np.array([float(a) for a in row]) for row in _A_EXACT]
_B5 = np.array([float(b) for b in _B5_EXACT])
_B4 = np.array([float(b) for b in _B4_EXACT])
_B54 = np.array([_B5, _B5 - _B4])  # weights of the trial pair [y5 - y, err]

# Attempted steps, accepted and rejected, after which one call refuses.
# The most any test or acceptance criterion takes in one call is 2581
# (a 4-vector over tau in [0, 40] at rtol 1e-10).
_MAX_STEPS = 1_000_000


def _stage_polynomials():
    """Exact coefficients of ``(R5, E)`` in powers ``z^0 .. z^7``.

    For ``f(t, y) = M y`` stage ``i`` is ``h k_i = P_i(z) y`` with
    ``P_i(z) = z (1 + sum_j a_ij P_j(z))``, so ``R5 = 1 + sum_i b5_i P_i``
    and ``E = sum_i (b5_i - b4_i) P_i``. Stage ``i`` has degree ``i + 1``.
    """
    stages = []
    for row in _A_EXACT:
        inner = [_F(1)] + [_F(0)] * 7
        for a, p in zip(row, stages):
            inner = [c + a * q for c, q in zip(inner, p)]
        stages.append([_F(0)] + inner[:-1])
    r5 = [_F(1)] + [_F(0)] * 7
    err = [_F(0)] * 8
    for b5, b4, p in zip(_B5_EXACT, _B4_EXACT, stages):
        r5 = [c + b5 * q for c, q in zip(r5, p)]
        err = [c + (b5 - b4) * q for c, q in zip(err, p)]
    return r5, err


# rows R5 and E as floats, converted once from the exact coefficients
_STEP_POLY = np.array([[float(c) for c in poly] for poly in _stage_polynomials()])
_EXPONENTS = np.arange(_STEP_POLY.shape[1], dtype=float)


def _check_slope_shape(k, y):
    # an array's own shape first: np.shape costs ~0.4 us a call, once per stage
    if getattr(k, "shape", None) != y.shape and np.shape(k) != y.shape:
        raise ValueError(
            f"right-hand side returned shape {np.shape(k)} for a state of "
            f"shape {y.shape}; it must return the state's shape"
        )


class _RungeKuttaStages:
    """Dormand-Prince stages of a general right-hand side ``f(t, y)``.

    The seven slopes live in one preallocated array, so a stage state and
    the trial pair are each one small product with its rows.
    """

    def __init__(self, f, y):
        self.f = f
        self.k = np.empty((7,) + y.shape, dtype=y.dtype)
        self.slopes = self.k.reshape(7, -1)  # a view: k is C-ordered
        self.first = True  # k[0] is not yet f at the step start

    def __call__(self, t, h, y):
        """Return ``[y5, err]`` of one trial step of size ``h`` from ``(t, y)``."""
        f, k, slopes = self.f, self.k, self.slopes
        if self.first:
            k0 = np.asarray(f(t, y))
            _check_slope_shape(k0, y)
            if np.iscomplexobj(k0) and not np.iscomplexobj(y):
                raise ValueError(
                    f"right-hand side returned {k0.dtype} for a state of dtype "
                    f"{y.dtype}; the real state would drop its imaginary part, "
                    "so pass a complex y0"
                )
            k[0] = k0
            self.first = False
        flat = y.reshape(-1)
        for i in range(1, 7):
            yi = flat + (h * _A[i]) @ slopes[:i]
            ki = f(t + _C[i] * h, yi.reshape(y.shape))
            _check_slope_shape(ki, y)  # numpy would broadcast a scalar or a (1,) row
            k[i] = ki
        pair = (h * _B54) @ slopes
        pair[0] += flat
        return pair.reshape((2,) + y.shape)

    def accept(self):
        self.k[0] = self.k[6]  # FSAL: last stage is f at the accepted point


class _PolynomialStages:
    """Dormand-Prince stages of ``y' = M y``: ``[y5, err] = [R5(hM) y, E(hM) y]``.

    A sparse ``M`` forms the block ``[y, My, ..., M^7 y]`` by sparse
    products into one preallocated array. ``R5`` has degree 6, so
    ``M y5 = sum_j r5_j h^j M^(j+1) y`` combines the block's rows 1..7:
    :meth:`accept` keeps it as row 1 of the next block, which then takes
    six products instead of seven (first same as last). Only the first
    step start takes seven.
    """

    def __init__(self, matrix):
        self.matrix = matrix
        self.powers = None
        if isinstance(matrix, np.ndarray):
            powers = [np.eye(matrix.shape[0], dtype=matrix.dtype)]
            for _ in range(1, len(_EXPONENTS)):
                powers.append(matrix @ powers[-1])
            self.powers = np.concatenate(powers)  # rows of M^0, ..., M^7 in turn
        self.block = None  # [y, My, ..., M^7 y] of the current step start, flattened
        # rows R5, E scaled by h^p for the last trial step, in the dtype of
        # M (and so of the block), so no trial makes a mixed real/complex product
        self.coeffs = np.empty(_STEP_POLY.shape, dtype=matrix.dtype)
        self.krylov = None  # the sparse route's block, reused from step to step
        self.carried = None  # M y at the next step start, kept by accept()

    def _krylov_block(self, y):
        if self.krylov is None:
            self.krylov = np.empty((len(_EXPONENTS),) + y.shape, dtype=y.dtype)
        block = self.krylov
        block[0] = y
        block[1] = self.matrix @ y if self.carried is None else self.carried
        for j in range(2, len(_EXPONENTS)):
            block[j] = self.matrix @ block[j - 1]
        return block

    def __call__(self, t, h, y):
        """Return ``[y5, err]`` of one trial step of size ``h`` from ``y``."""
        if self.block is None:
            block = self._krylov_block(y) if self.powers is None else self.powers @ y
            self.block = block.reshape(len(_EXPONENTS), -1)
        np.multiply(_STEP_POLY, np.power(h, _EXPONENTS), out=self.coeffs)
        return (self.coeffs @ self.block).reshape((2,) + y.shape)

    def accept(self):
        if self.powers is None:
            # R5 has no z^7 term (_STEP_POLY[0, -1] == 0), so rows 1..7 give M y5
            self.carried = (self.coeffs[0, :-1] @ self.block[1:]).reshape(self.krylov.shape[1:])
        self.block = None  # the next step starts from a new y


def _advance(stages, y, t_grid, rtol):
    """Step ``y`` from ``t_grid[0]`` over the grid with DOPRI 5(4) step control.

    ``stages(t, h, y)`` returns the 5th-order update and the embedded error
    estimate of one trial step, stacked as ``[y5, err]`` in one array of
    shape ``(2, *y.shape)``; ``stages.accept()`` is called after each
    accepted one. Between two accepts every trial step starts from the
    same ``y``, so ``stages`` may keep work that depends on ``y`` alone.
    Raises ValidationError naming ``rtol`` unless it is finite and > 0, or
    naming ``t_grid`` and its first bad node unless it is a finite, strictly
    increasing 1-d grid with at least one node; StiffnessError when the
    step size underflows or after ``_MAX_STEPS`` attempted steps, and
    IntegratorAccuracyError on the first step whose error estimate is not
    finite.
    """
    rtol = _checked_finite("rtol", rtol, "> 0")
    t_grid = _checked_grid(t_grid, "t_grid")
    out = np.empty((len(t_grid),) + y.shape, dtype=y.dtype)
    out[0] = y
    if len(t_grid) == 1:
        return out

    t = float(t_grid[0])
    span = float(t_grid[-1]) - t
    h = span / 100.0
    idx = 1
    target = float(t_grid[idx])
    n_comp = y.size
    # [|y5|, |err|] of a trial step, and |y| of the step start in row 0 of
    # the other buffer, each with its rows as flat views: C-ordered, as a
    # buffer like a transposed (Fortran-ordered) y would not be
    trial, start = ((m, *m.reshape(2, -1)) for m in np.empty((2, 2) + y.shape))
    np.abs(y, out=start[0][0])
    scale = np.empty(n_comp)

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
        pair = stages(t, h_try, y)
        np.abs(pair, out=trial[0])
        _, abs_y5, ratio = trial
        np.maximum(start[1], abs_y5, out=scale)
        scale *= rtol
        scale += 1e-14
        np.divide(ratio, scale, out=ratio)  # |err| / scale
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
            y = pair[0]
            trial, start = start, trial  # the accepted |y5| is the next |y|
            stages.accept()
            if clipped:
                out[idx] = y
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


def _checked_state(y):
    """``y``; ValidationError naming ``y0`` when it is 0-d or has no component."""
    if y.ndim == 0 or y.size == 0:
        raise ValidationError(
            f"y0 must be an array of at least one dimension and one component, "
            f"got shape {y.shape}"
        )
    return y


def integrate(f, y0, t_grid, rtol=1e-10):
    """Integrate y' = f(t, y) from t_grid[0], returning y at every node.

    Raises ValidationError unless ``rtol`` is finite and > 0, when
    ``t_grid`` is not a finite, strictly increasing 1-d grid (naming its
    first bad node) or when ``y0`` is 0-d or empty, StiffnessError when the
    step size underflows or after ``_MAX_STEPS`` attempted steps,
    IntegratorAccuracyError when a step's error estimate is not finite (a
    NaN or infinite state or ``f``), and ValueError when the first value of
    ``f`` does not have ``y0``'s shape or is complex for a real ``y0``.
    """
    y = _checked_state(np.asarray(y0, dtype=complex if np.iscomplexobj(y0) else float).copy())
    return _advance(_RungeKuttaStages(f, y), y, t_grid, rtol)


def propagate_constant(matrix, y0, t_grid, rtol=1e-10, method="adaptive"):
    """Solve y' = M y for a constant matrix M, returning y at every node.

    ``M`` is a dense array or a ``scipy.sparse`` matrix. ``method="adaptive"``
    takes Dormand-Prince steps at the relative tolerance ``rtol``, with the
    same step control and refusals as :func:`integrate`; ``method="expm"``
    evaluates ``expm(M t) @ y0`` at every node (densifying a sparse ``M``),
    the reference route for the adaptive one. ``y0`` is a vector or a
    matrix whose columns are propagated together; a matrix that is not
    square or does not match ``y0``'s leading dimension raises ValueError,
    and an empty ``y0`` ValidationError. On either route a ``t_grid`` that is not a finite, strictly increasing
    1-d grid raises ValidationError naming its first bad node.
    """
    # an ndarray is dense without asking scipy.sparse, which would load it
    if isinstance(matrix, np.ndarray) or not scipy.sparse.issparse(matrix):
        matrix = np.asarray(matrix)
    y0 = np.asarray(y0)
    if (matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]
            or y0.ndim not in (1, 2) or y0.shape[0] != matrix.shape[0]):
        raise ValueError(
            f"generator of shape {matrix.shape} cannot propagate y0 of shape "
            f"{y0.shape}: it must be a square matrix whose size is the leading "
            "dimension of a vector or matrix y0"
        )
    _checked_state(y0)
    if method == "expm":
        t_grid = _checked_grid(t_grid, "t_grid")
        if not isinstance(matrix, np.ndarray):
            matrix = matrix.toarray()
        return np.stack([scipy.linalg.expm(matrix * t) @ y0 for t in t_grid])
    if method != "adaptive":
        raise ValueError(f"unknown method {method!r}")
    dtype = complex if np.iscomplexobj(matrix) or np.iscomplexobj(y0) else float
    return _advance(_PolynomialStages(matrix.astype(dtype)), y0.astype(dtype),
                    t_grid, rtol)
