"""Ohmic bath spectral functions and thermal rates.

The bath spectral function is ``Gamma(w) = eta * w * cutoff(w)`` for
``w > 0`` and zero otherwise. Thermal occupation dresses it into the
absorption/emission pair

    Gamma_plus(w)  = (1 + N(w)) * Gamma(w),
    Gamma_minus(w) = N(w) * Gamma(w),      N(w) = 1/(exp(w/T) - 1).

Both dressed rates tend to ``eta*T`` as ``w -> 0+`` and vanish for
``w < 0``; exactly at ``w = 0`` the midpoint value ``eta*T/2`` is used.
That convention fixes the three flat-band limit rates

    rate_pos = eta*T,  rate_zero = eta*T/2,  rate_neg = 0,

and the rapid-decay dephasing scale ``gamma_theta = 2*eta*T``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OverdampedRenormalizationError, ValidationError
from .model import BathSpectrum, SpinBosonParams, _checked_finite

__all__ = [
    "spectral_density",
    "gamma_theta",
    "gamma_theta_weak",
    "renormalized_frequency_sq",
]


def spectral_density(omega, bath: BathSpectrum):
    """Bath spectral function Gamma(omega); zero for omega <= 0.

    ValidationError names ``omega``, or its first non-finite entry (flat index).
    """
    w = np.asarray(omega, dtype=float)
    if w.ndim == 0:
        _checked_finite("omega", w)
    elif not np.isfinite(w).all():
        i = int(np.argmin(np.isfinite(w)))
        raise ValidationError(f"omega must be finite; entry {i} is {w.flat[i]}")
    if bath.shape == "exponential":
        # clip before exp() so w < 0 cannot overflow; those entries are
        # masked to zero anyway
        out = np.where(
            w > 0.0, bath.eta * w * np.exp(-np.maximum(w, 0.0) / bath.cutoff), 0.0
        )
    else:
        out = np.where((w > 0.0) & (w < bath.cutoff), bath.eta * w, 0.0)
    return float(out) if w.ndim == 0 else out


def gamma_theta(bath: BathSpectrum) -> float:
    """Rapid-decay dephasing rate, 2*eta*T (twice the positive limit rate)."""
    return 2.0 * bath.eta * bath.temperature


def gamma_theta_weak(spin: SpinBosonParams, bath: BathSpectrum) -> float:
    """Weak-coupling dephasing scale Gamma(omega0) * coth(omega0 / 2T)."""
    gam = spectral_density(spin.omega0, bath)
    if gam == 0.0:
        return 0.0
    if bath.temperature == 0.0:
        return gam
    return gam * (1.0 / math.tanh(0.5 * spin.omega0 / bath.temperature))


def renormalized_frequency_sq(bath: BathSpectrum, osc) -> float:
    """Bath-renormalized squared frequency of the oscillator.

    The shift ``2*omega0 * int_0^inf dw/(2 pi) Gamma(w)/w`` is
    ``omega0*eta*cutoff/pi`` for both cutoff shapes (the cutoff function
    integrates to ``cutoff``), so this returns
    ``omega0**2 - omega0*eta*cutoff/pi``, the ``s -> 0+`` limit of
    ``omega0**2 + 2*mu_hat(s)/M``. Raises
    :class:`OverdampedRenormalizationError` when the shift drives the
    square non-positive (the renormalized oscillator would not oscillate).
    """
    w2 = osc.omega0**2 - osc.omega0 * bath.eta * bath.cutoff / math.pi
    if w2 <= 0.0:
        raise OverdampedRenormalizationError(
            f"renormalized squared frequency {w2:.6g} <= 0 "
            f"(eta={bath.eta:g}, cutoff={bath.cutoff:g})"
        )
    return float(w2)
