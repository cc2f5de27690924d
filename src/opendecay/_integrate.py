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

The controller keeps ``|y5|`` of an accepted step as the next step's
``|y|`` and builds the error scale in place.

The matrix exponential is the reference route of :func:`propagate_constant`;
it densifies a sparse ``M``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy  # SciPy >= 1.9 imports a submodule on its first attribute access

from .errors import IntegratorAccuracyError, StiffnessError
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

_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [[float(a) for a in row] for row in _A_EXACT]
_B5 = np.array([float(b) for b in _B5_EXACT])
_B4 = np.array([float(b) for b in _B4_EXACT])

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


class _RungeKuttaStages:
    """Dormand-Prince stages of a general right-hand side ``f(t, y)``."""

    def __init__(self, f):
        self.f = f
        self.k = [None] * 7

    def __call__(self, t, h, y):
        """Return ``(y5, err)`` of one trial step of size ``h`` from ``(t, y)``."""
        f, k = self.f, self.k
        if k[0] is None:
            k0 = np.asarray(f(t, y))
            if np.iscomplexobj(k0) and not np.iscomplexobj(y):
                raise ValueError(
                    f"right-hand side returned {k0.dtype} for a state of dtype "
                    f"{y.dtype}; the real state would drop its imaginary part, "
                    "so pass a complex y0"
                )
            k[0] = k0.astype(y.dtype, copy=False)
        for i in range(1, 7):
            yi = y.copy()
            for j, a in enumerate(_A[i]):
                yi += (h * a) * k[j]
            k[i] = np.asarray(f(t + _C[i] * h, yi), dtype=y.dtype)
        y5 = y.copy()
        for i in range(7):
            if _B5[i] != 0.0:
                y5 += (h * _B5[i]) * k[i]
        err = np.zeros_like(y)
        for i in range(7):
            d = _B5[i] - _B4[i]
            if d != 0.0:
                err += (h * d) * k[i]
        return y5, err

    def accept(self):
        self.k[0] = self.k[6]  # FSAL: last stage is f at the accepted point


class _PolynomialStages:
    """Dormand-Prince stages of ``y' = M y``: ``(y5, err) = (R5(hM) y, E(hM) y)``.

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
        self.coeffs = None  # rows R5, E scaled by h^p for the last trial step
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
        """Return ``(y5, err)`` of one trial step of size ``h`` from ``y``."""
        if self.block is None:
            block = self._krylov_block(y) if self.powers is None else self.powers @ y
            self.block = block.reshape(len(_EXPONENTS), -1)
        self.coeffs = _STEP_POLY * h**_EXPONENTS
        y5, err = (self.coeffs @ self.block).reshape((2,) + y.shape)
        return y5, err

    def accept(self):
        if self.powers is None:
            # R5 has no z^7 term (_STEP_POLY[0, -1] == 0), so rows 1..7 give M y5
            self.carried = (self.coeffs[0, :-1] @ self.block[1:]).reshape(self.krylov.shape[1:])
        self.block = None  # the next step starts from a new y


def _advance(stages, y, t_grid, rtol):
    """Step ``y`` from ``t_grid[0]`` over the grid with DOPRI 5(4) step control.

    ``stages(t, h, y)`` returns the 5th-order update and the embedded error
    estimate of one trial step; ``stages.accept()`` is called after each
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

    t = t_grid[0]
    span = t_grid[-1] - t_grid[0]
    h = span / 100.0
    idx = 1
    target = t_grid[idx]
    n_comp = y.size
    abs_y = np.abs(y)  # |y| of the step start, kept from the accepted |y5|
    abs_y5 = np.empty_like(abs_y)
    scale = np.empty_like(abs_y)

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
        y5, err = stages(t, h_try, y)
        np.abs(y5, out=abs_y5)
        np.maximum(abs_y, abs_y5, out=scale)
        scale *= rtol
        scale += 1e-14
        enorm = float(np.sqrt(np.sum(np.abs(err / scale) ** 2) / n_comp))
        if not math.isfinite(enorm):
            # a NaN estimate would be rejected forever without shrinking h
            raise IntegratorAccuracyError(
                f"error estimate is {enorm} in the step from t={t:.6g} "
                f"(h={h_try:.3e}): the state or the right-hand side is not finite"
            )
        factor = 0.9 * (enorm ** -0.2) if enorm > 0.0 else 5.0
        if enorm <= 1.0:
            t = target if clipped else t + h_try
            y = y5
            abs_y, abs_y5 = abs_y5, abs_y
            stages.accept()
            if clipped:
                out[idx] = y
                idx += 1
                if idx == len(t_grid):
                    return out
                target = t_grid[idx]
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


def integrate(f, y0, t_grid, rtol=1e-10):
    """Integrate y' = f(t, y) from t_grid[0], returning y at every node.

    Raises ValidationError unless ``rtol`` is finite and > 0 or when
    ``t_grid`` is not a finite, strictly increasing 1-d grid (naming its
    first bad node), StiffnessError when the step size underflows or after
    ``_MAX_STEPS`` attempted steps, IntegratorAccuracyError when a step's
    error estimate is not finite (a NaN or infinite state or ``f``), and
    ValueError when ``f`` returns a complex value for a real ``y0``.
    """
    y = np.asarray(y0, dtype=complex if np.iscomplexobj(y0) else float).copy()
    return _advance(_RungeKuttaStages(f), y, t_grid, rtol)


def propagate_constant(matrix, y0, t_grid, rtol=1e-10, method="adaptive"):
    """Solve y' = M y for a constant matrix M, returning y at every node.

    ``M`` is a dense array or a ``scipy.sparse`` matrix. ``method="adaptive"``
    takes Dormand-Prince steps at the relative tolerance ``rtol``, with the
    same step control and refusals as :func:`integrate`; ``method="expm"``
    evaluates ``expm(M t) @ y0`` at every node (densifying a sparse ``M``),
    the reference route for the adaptive one. ``y0`` is a vector or a
    matrix whose columns are propagated together; a matrix that is not
    square or does not match ``y0``'s leading dimension raises ValueError.
    On either route a ``t_grid`` that is not a finite, strictly increasing
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
