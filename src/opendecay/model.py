"""Core parameter and state containers.

Conventions used throughout the package:

* natural units, ``hbar = kB = 1`` and unit mass unless stated otherwise;
* the two-level system ``H_S = (epsilon/2) sigma_z + (delta/2) sigma_x`` is
  given by ``epsilon`` and ``delta`` alone and stored in its energy
  eigenbasis, where the level splitting is
  ``omega0 = sqrt(epsilon**2 + delta**2)`` and the system side of the
  coupling becomes

      S = [[eps_tilde, delta_tilde], [delta_tilde, -eps_tilde]],

  with ``eps_tilde = epsilon/omega0`` and ``delta_tilde = delta/omega0``
  (so ``S @ S = identity``);
* density matrices are plain 2x2 complex arrays, trace one, refused by
  name where they enter unless Hermitian, of trace one and positive
  semidefinite, each to a tolerance (``_checked_density``).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSystemError, ValidationError

__all__ = [
    "SpinBosonParams",
    "OscillatorParams",
    "BathSpectrum",
    "GaussianState",
    "make_spin_params",
]

# Tolerances of _checked_density, the ones propagate_density holds each
# state to on entry.
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIG_TOL = -1e-10


def _checked_finite(name, value, bound="") -> float:
    """``value`` as a float; ValidationError naming ``name`` unless it is finite.

    ``bound`` ``"> 0"`` or ``">= 0"`` adds that sign bound. Every test is
    one that NaN fails, so a NaN is refused here rather than passed on,
    where it would pass every ``err > tol`` test and certify anything.
    """
    x = float(value)
    if not (math.isfinite(x) and {"": True, "> 0": x > 0.0, ">= 0": x >= 0.0}[bound]):
        raise ValidationError(f"{name} must be finite{' and ' + bound if bound else ''}, got {x}")
    return x


def _checked_all_finite(values, name) -> np.ndarray:
    """``values`` as an array; ValidationError naming ``name`` unless every entry is finite.

    The message names the first entry that is NaN or infinite: its node
    for a 1-d array, its index tuple otherwise.
    """
    a = np.asarray(values)
    finite = np.isfinite(a)
    if not finite.all():
        i = np.unravel_index(int(np.argmin(finite)), a.shape)
        where = f"node {i[0]}" if a.ndim == 1 else f"entry {tuple(map(int, i))}"
        raise ValidationError(f"{name} must be finite; {where} is {a[i]}")
    return a


def _checked_grid(values, name, *, min_nodes=1, start=None) -> np.ndarray:
    """``values`` as a 1-d float grid, checked once for every route that takes one.

    ValidationError naming ``name`` and the first bad node unless the grid
    has at least ``min_nodes`` nodes, all finite, strictly increasing and,
    when ``start`` is given, starting there; a stall also names the node
    before it.
    """
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size < min_nodes:
        nodes = "one node" if min_nodes == 1 else f"{min_nodes} nodes"
        raise ValidationError(f"{name} must be a 1-d array with at least {nodes}")
    _checked_all_finite(grid, name)
    rule = "be strictly increasing" if start is None else f"increase strictly from {start:g}"
    if start is not None and grid[0] != start:
        raise ValidationError(f"{name} must {rule}; node 0 is {grid[0]}")
    stalls = np.flatnonzero(np.diff(grid) <= 0.0)
    if stalls.size:
        i = int(stalls[0]) + 1
        raise ValidationError(f"{name} must {rule}; node {i} is {grid[i]} after {grid[i - 1]}")
    return grid


def _checked_coupling(lam) -> float:
    """The coupling scale ``lam`` as a float, restricted to 0 < lam <= 1.

    The kernels scale with lam**2, so a ``lam`` whose square is below the
    smallest normal float is refused too: lam**2 would reach them as 0 or
    a subnormal. (``lam`` because ``lambda`` is reserved in Python.)
    """
    lam = float(lam)
    if not (0.0 < lam <= 1.0):
        raise ValidationError(f"coupling scale lam must satisfy 0 < lam <= 1, got {lam}")
    if lam * lam < sys.float_info.min:
        raise ValidationError(
            f"coupling scale lam = {lam} is too small: lam**2 is below "
            f"the smallest normal float {sys.float_info.min:g}"
        )
    return lam


def _density_defects(rho):
    """``(hermiticity, trace, min_eigenvalue)`` defects of a 2x2 matrix or a (..., 2, 2) stack.

    ``max|rho - rho^dagger|``, ``|tr(rho) - 1|`` and the smallest
    eigenvalue of the Hermitian part ``(rho + rho^dagger)/2``, one value
    per matrix. The entries must be finite; a sum of two that overflows
    gives an infinite or NaN defect, without a warning.
    """
    rho = np.asarray(rho, dtype=complex)
    adj = np.conj(np.swapaxes(rho, -2, -1))
    with np.errstate(over="ignore", invalid="ignore"):
        herm = np.max(np.abs(rho - adj), axis=(-2, -1))
        trace = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
        min_eig = np.linalg.eigvalsh(0.5 * (rho + adj))[..., 0]
    return herm, trace, min_eig


def _checked_density(rho, name) -> np.ndarray:
    """``rho`` as a complex 2x2 array, or a (k, 2, 2) stack, each a density matrix.

    ValidationError naming ``name`` (``name state i`` in a stack) for
    another shape, for the first entry that is not finite, and for a
    state outside the tolerances: Hermiticity and trace to 1e-12, the
    smallest eigenvalue of the Hermitian part down to -1e-10.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (2, 2):
        raise ValidationError(f"{name} must be a 2x2 matrix, got shape {rho.shape}")
    states = rho.reshape(-1, 2, 2)

    def label(i):
        return name if rho.ndim == 2 else f"{name} state {i}"

    finite = np.isfinite(states).all(axis=(1, 2))
    if not finite.all():
        i = int(np.argmin(finite))
        _checked_all_finite(states[i], label(i))
    herm, trace, min_eig = _density_defects(states)
    bad = ~((herm <= _HERM_TOL) & (trace <= _TRACE_TOL) & (min_eig >= _EIG_TOL))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(
            f"{label(i)} is not a density matrix: "
            f"hermiticity defect {herm[i]:.3e}, "
            f"trace defect {trace[i]:.3e}, "
            f"min eigenvalue {min_eig[i]:.3e}"
        )
    return rho


@dataclass(frozen=True)
class SpinBosonParams:
    """Two-level system given by finite ``epsilon`` and ``delta``, not both 0.

    ``omega0``, ``eps_tilde`` and ``delta_tilde`` are derived from them.
    """

    epsilon: float
    delta: float
    omega0: float = field(init=False)
    eps_tilde: float = field(init=False)
    delta_tilde: float = field(init=False)

    def __post_init__(self):
        epsilon = _checked_finite("epsilon", self.epsilon)
        delta = _checked_finite("delta", self.delta)
        omega0 = math.hypot(epsilon, delta)
        if omega0 == 0.0:
            raise DegenerateSystemError(
                "epsilon = delta = 0: the two-level splitting vanishes"
            )
        for name, value in (("epsilon", epsilon), ("delta", delta),
                            ("omega0", omega0), ("eps_tilde", epsilon / omega0),
                            ("delta_tilde", delta / omega0)):
            object.__setattr__(self, name, value)

    def coupling_matrix(self) -> np.ndarray:
        """Eigenbasis coupling operator S (unit Pauli vector, S**2 = 1)."""
        return np.array(
            [
                [self.eps_tilde, self.delta_tilde],
                [self.delta_tilde, -self.eps_tilde],
            ],
            dtype=float,
        )

    def hamiltonian(self) -> np.ndarray:
        """Eigenbasis system Hamiltonian, diag(omega0, -omega0)/2."""
        return np.diag([0.5 * self.omega0, -0.5 * self.omega0]).astype(complex)


def make_spin_params(epsilon: float, delta: float) -> SpinBosonParams:
    """Two-level system of bias ``epsilon`` and tunneling ``delta``."""
    return SpinBosonParams(epsilon, delta)


@dataclass(frozen=True)
class OscillatorParams:
    """Harmonic oscillator (bare frequency, before bath renormalization).

    ``omega0`` must be finite and > 0, and so must ``omega0**2``, which
    every qbm route forms.
    """

    mass: float = 1.0
    omega0: float = 1.0

    def __post_init__(self):
        _checked_finite("mass", self.mass, "> 0")
        omega0 = _checked_finite("omega0", self.omega0, "> 0")
        if math.isinf(omega0 * omega0):
            raise ValidationError(f"omega0 = {omega0} is too large: omega0**2 overflows")


_BATH_SHAPES = ("exponential", "hard")


@dataclass(frozen=True)
class BathSpectrum:
    """Ohmic bath, Gamma(w) = eta * w * cutoff_function(w) for w > 0.

    ``shape`` selects the cutoff: ``"exponential"`` multiplies by
    ``exp(-w/cutoff)``, ``"hard"`` truncates at ``w = cutoff``.
    """

    eta: float
    cutoff: float
    shape: str = "exponential"
    temperature: float = 0.0

    def __post_init__(self):
        _checked_finite("eta", self.eta, ">= 0")
        _checked_finite("cutoff", self.cutoff, "> 0")
        if self.shape not in _BATH_SHAPES:
            raise ValidationError(
                f"shape must be one of {_BATH_SHAPES}, got {self.shape!r}"
            )
        _checked_finite("temperature", self.temperature, ">= 0")


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of a Gaussian oscillator state.

    ``cov_xp`` is the symmetrized covariance ``<{x,p}>/2 - <x><p>``. The
    Heisenberg bound ``var_xx*var_pp - cov_xp**2 >= hbar**2/4`` is checked
    with a small slack and reported as a warning only, so that slightly
    noisy numerical output can still be wrapped.
    """

    mean_x: float
    mean_p: float
    var_xx: float
    var_pp: float
    cov_xp: float = 0.0

    def __post_init__(self):
        for name in ("mean_x", "mean_p", "cov_xp"):
            _checked_finite(name, getattr(self, name))
        for name in ("var_xx", "var_pp"):
            _checked_finite(name, getattr(self, name), ">= 0")
        det = self.var_xx * self.var_pp - self.cov_xp**2
        if det < 0.25 - 1e-9:
            warnings.warn(
                f"covariance determinant {det:.6g} below the Heisenberg "
                "bound 1/4",
                stacklevel=2,
            )

    def as_array(self) -> np.ndarray:
        """Moments as (mean_x, mean_p, var_xx, cov_xp, var_pp)."""
        return np.array(
            [self.mean_x, self.mean_p, self.var_xx, self.cov_xp, self.var_pp]
        )
