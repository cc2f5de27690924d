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
* density matrices are plain 2x2 complex arrays, trace one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSystemError, ValidationError

__all__ = [
    "SpinBosonParams",
    "OscillatorParams",
    "BathSpectrum",
    "CouplingScale",
    "DensityMatrix2",
    "GaussianState",
    "DensityDiagnostics",
    "make_spin_params",
    "validate_density",
]

# Construction-time tolerances for density matrices.
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIG_TOL = -1e-10


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
        epsilon = float(self.epsilon)
        delta = float(self.delta)
        if not (math.isfinite(epsilon) and math.isfinite(delta)):
            raise ValidationError(f"epsilon={epsilon} and delta={delta} must be finite")
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
    """Harmonic oscillator (bare frequency, before bath renormalization)."""

    mass: float = 1.0
    omega0: float = 1.0

    def __post_init__(self):
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ValidationError(f"mass must be positive, got {self.mass}")
        if not (self.omega0 > 0.0 and math.isfinite(self.omega0)):
            raise ValidationError(f"omega0 must be positive, got {self.omega0}")


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
        if self.eta < 0.0 or not math.isfinite(self.eta):
            raise ValidationError(f"eta must be >= 0, got {self.eta}")
        if not (self.cutoff > 0.0 and math.isfinite(self.cutoff)):
            raise ValidationError(f"cutoff must be positive, got {self.cutoff}")
        if self.shape not in _BATH_SHAPES:
            raise ValidationError(
                f"shape must be one of {_BATH_SHAPES}, got {self.shape!r}"
            )
        if self.temperature < 0.0 or not math.isfinite(self.temperature):
            raise ValidationError(
                f"temperature must be >= 0, got {self.temperature}"
            )


@dataclass(frozen=True)
class CouplingScale:
    """System-bath coupling scale lambda, restricted to 0 < lambda <= 1.

    (``lam`` because ``lambda`` is reserved in Python.)
    """

    lam: float

    def __post_init__(self):
        if not (0.0 < self.lam <= 1.0):
            raise ValidationError(
                f"coupling scale must satisfy 0 < lambda <= 1, got {self.lam}"
            )


@dataclass(frozen=True)
class DensityDiagnostics:
    """Defect report for a candidate 2x2 density matrix."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    ok: bool


def validate_density(rho) -> DensityDiagnostics:
    """Measure how far ``rho`` is from a valid density matrix.

    Reports the largest entrywise deviation from Hermiticity, the trace
    defect ``|tr(rho) - 1|`` and the smallest eigenvalue of the
    Hermitian part. Does not raise; the ``ok`` flag applies the
    construction tolerances of :class:`DensityMatrix2`.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValidationError(f"expected a 2x2 matrix, got shape {rho.shape}")
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    trace = float(abs(rho.trace() - 1.0))
    sym = 0.5 * (rho + rho.conj().T)
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    ok = herm <= _HERM_TOL and trace <= _TRACE_TOL and min_eig >= _EIG_TOL
    return DensityDiagnostics(herm, trace, min_eig, ok)


@dataclass(frozen=True)
class DensityMatrix2:
    """Validated 2x2 density matrix (Hermitian, unit trace, positive)."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        entries = np.array(self.entries, dtype=complex)
        diag = validate_density(entries)
        if not diag.ok:
            raise ValidationError(
                "not a density matrix: "
                f"hermiticity defect {diag.hermiticity_defect:.3e}, "
                f"trace defect {diag.trace_defect:.3e}, "
                f"min eigenvalue {diag.min_eigenvalue:.3e}"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


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
        if self.var_xx < 0.0 or self.var_pp < 0.0:
            raise ValidationError("variances must be non-negative")
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
