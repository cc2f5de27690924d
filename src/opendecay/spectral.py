"""Ohmic bath spectral functions, thermal rates and the level self-energy.

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

The second-order level shift is the principal-value transform

    Re Sigma_b(w) = PV int_0^inf dw'/(2 pi) Gamma_b(w') / (w - w'),
    Im Sigma_b(w) = -Gamma_b(w) / 2,

evaluated with a symmetric-window subtraction around the pole plus
node-doubled Gauss-Legendre panels elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import integrate_to_tolerance, split_edges
from .errors import DivergenceError, OverdampedRenormalizationError, ValidationError
from .model import BathSpectrum, SpinBosonParams, _checked_finite

__all__ = [
    "LimitRates",
    "SelfEnergy",
    "bose_occupation",
    "spectral_density",
    "dressed_rate",
    "limit_rates",
    "gamma_theta",
    "gamma_theta_weak",
    "self_energy",
    "renormalized_frequency_sq",
]

_SELF_ENERGY_REL_TOL = 1e-10  # node-doubling target of the principal value


@dataclass(frozen=True)
class LimitRates:
    """Flat-band limits of the dressed rates at vanishing frequency."""

    rate_pos: float
    rate_zero: float
    rate_neg: float


@dataclass(frozen=True)
class SelfEnergy:
    """Second-order self-energy at a fixed frequency, one thermal branch."""

    real_part: float
    imag_part: float


def bose_occupation(omega: float, temperature: float) -> float:
    """Thermal occupation ``1/(exp(omega/T) - 1)``.

    Diverges at ``omega = 0`` (raises :class:`DivergenceError`); at
    ``T = 0`` the zero-temperature limit is returned. ValidationError names
    ``omega`` unless finite, ``temperature`` unless finite and >= 0.
    """
    omega = _checked_finite("omega", omega)
    temperature = _checked_finite("temperature", temperature, ">= 0")
    if omega == 0.0:
        raise DivergenceError("bose_occupation diverges at omega = 0")
    if temperature == 0.0:
        return 0.0 if omega > 0.0 else -1.0
    x = omega / temperature
    if x > 700.0:
        return math.exp(-x)
    if x < -700.0:
        return -1.0
    return 1.0 / math.expm1(x)


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


def dressed_rate(omega, bath: BathSpectrum, branch: str = "+"):
    """Thermally dressed rate Gamma_branch(omega).

    ``branch="+"`` gives the emission rate ``(1+N)*Gamma``, ``"-"`` the
    absorption rate ``N*Gamma``; at exactly zero frequency both take the
    midpoint value ``eta*T/2``.
    """
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    base = np.atleast_1d(spectral_density(omega, bath))  # checks omega
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    out = np.zeros_like(w)
    pos = w > 0.0
    if np.any(pos):
        if bath.temperature > 0.0:
            x = w[pos] / bath.temperature
            occ = np.where(x > 700.0, np.exp(-np.minimum(x, 745.0)), 0.0)
            small = x <= 700.0
            occ[small] = 1.0 / np.expm1(x[small])
        else:
            occ = np.zeros_like(w[pos])
        out[pos] = (1.0 + occ) * base[pos] if branch == "+" else occ * base[pos]
    out[w == 0.0] = 0.5 * bath.eta * bath.temperature
    return float(out[0]) if np.ndim(omega) == 0 else out


def limit_rates(bath: BathSpectrum) -> LimitRates:
    """Zero-frequency limits of the dressed rates (flat-band values)."""
    et = bath.eta * bath.temperature
    return LimitRates(rate_pos=et, rate_zero=0.5 * et, rate_neg=0.0)


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


def _support_upper(bath: BathSpectrum) -> float:
    if bath.shape == "hard":
        return bath.cutoff
    # exp(-46) ~ 1e-20: negligible tail relative to the eta*wc/2pi scale
    return 46.0 * bath.cutoff


def _graded_edges_toward(a: float, b: float, r: float) -> np.ndarray:
    """Edges on [a, b] refined geometrically toward the endpoint ``a``."""
    if b <= a:
        return np.array([a, b])
    pts = [a]
    d = r
    while a + d < b and len(pts) < 60:
        pts.append(a + d)
        d *= 2.0
    pts.append(b)
    return np.array(pts)


def _cap_widths(edges: np.ndarray, max_width: float) -> np.ndarray:
    """Subdivide any panel wider than ``max_width``."""
    out = [edges[0]]
    for e in edges[1:]:
        while e - out[-1] > max_width:
            out.append(out[-1] + max_width)
        out.append(e)
    return np.array(out)


def self_energy(omega: float, bath: BathSpectrum, branch: str = "+") -> SelfEnergy:
    """Second-order self-energy of a level at frequency ``omega``.

    The real part is the principal value of
    ``int dw'/(2 pi) Gamma_branch(w')/(omega - w')``; the window
    ``|w' - omega| < r`` is folded into
    ``-int_0^r [f(omega+u) - f(omega-u)]/u du``, which is smooth at
    ``u = 0``, and the remaining segments use graded panels. All pieces
    are node-doubled together until the total is stable to
    ``_SELF_ENERGY_REL_TOL`` (relative to ``max(|value|, eta*cutoff/2pi)``).

    At ``omega = 0`` with ``T > 0`` the dressed rate tends to ``eta*T`` as
    ``w' -> 0+``, so the principal value diverges logarithmically; that
    raises :class:`DivergenceError`.
    """
    omega = _checked_finite("omega", omega)
    if omega == 0.0 and bath.eta * bath.temperature > 0.0:
        raise DivergenceError(
            "self_energy diverges at omega=0: the dressed rate there is "
            f"eta*T/2 = {0.5 * bath.eta * bath.temperature:g}, not 0, so the "
            "principal value diverges like log|omega|"
        )
    upper = _support_upper(bath)

    def f(wp):
        return dressed_rate(wp, bath, branch) / (2.0 * math.pi)

    pieces = []  # (integrand, edges)
    if 0.0 < omega < upper:
        r = 0.5 * min(omega, upper - omega, bath.cutoff)

        def singular(u):
            return -(f(omega + u) - f(omega - u)) / u

        pieces.append((singular, split_edges(0.0, r, max(r / 4.0, 1e-300))))
        if omega - r > 0.0:
            # refine toward omega - r, where the integrand is steepest
            lo_edges = np.sort(omega - r - _graded_edges_toward(0.0, omega - r, r))
            pieces.append((lambda wp: f(wp) / (omega - wp), _cap_widths(lo_edges, bath.cutoff)))
        hi_edges = _graded_edges_toward(omega + r, upper, r)
        pieces.append((lambda wp: f(wp) / (omega - wp), _cap_widths(hi_edges, bath.cutoff)))
    else:
        pieces.append(
            (lambda wp: f(wp) / (omega - wp), split_edges(0.0, upper, 0.5 * bath.cutoff))
        )

    real = integrate_to_tolerance(
        pieces, rel_tol=_SELF_ENERGY_REL_TOL,
        scale=bath.eta * bath.cutoff / (2.0 * math.pi),
        what=f"self_energy principal value at omega={omega:g}",
    )
    imag = -0.5 * dressed_rate(omega, bath, branch)
    return SelfEnergy(real_part=real, imag_part=float(imag))


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
