"""Memory kernels of the oscillator-bath problem in rescaled time.

With the lab-frame spectral function ``Gamma(w) = eta w cutoff(w)`` and
time rescaled by the squared coupling (``tau = lam**2 t``), the
dissipation and noise kernels entering the reduced dynamics are

    mu(tau) = -M w0 int_0^inf dW/(2 pi) Gamma(lam**2 W) sin(W tau),
    nu(tau) = +M w0 int_0^inf dW/(2 pi) Gamma(lam**2 W)
                 coth(lam**2 W / 2 T) cos(W tau).

Both concentrate in a boundary layer of width ``lam**2/cutoff``
(and ``lam**2/T`` for the thermal part) around ``tau = 0``; the code
below evaluates them in closed form where possible:

* exponential cutoff, ``mu``:   ``-K 2 a tau / (a**2 + tau**2)**2`` with
  ``K = M w0 eta lam**2 / 2 pi`` and ``a = lam**2 / cutoff``;
* hard cutoff, ``mu``:          ``-K [sin(c tau) - c tau cos(c tau)]/tau**2``
  with ``c = cutoff / lam**2``;
* exponential cutoff, ``nu``:   via the sum over Matsubara-like images,
  ``nu = (M w0 eta / 2 pi lam**4) Re[ 1/z**2 + psi_1(1 + z/(2 b'))/(2 b'**2) ]``
  where ``z = (1/cutoff - i tau/lam**2)``, ``b' = 1/(2 T)`` and ``psi_1``
  is the trigamma function (the ``1/z**2`` term alone is the T = 0 noise);
* hard cutoff, ``nu``:          the Filon sum of :mod:`opendecay._quad` over
  ``[0, cutoff]``, on panels that resolve ``eta w coth(w/2T)/2 pi`` alone
  (``pi T`` wide up to ``40 T``, a quarter cutoff beyond), so a time costs
  the same at any ``tau/lam**2``; a second pass on halved panels must agree
  to 1e-11 of ``eta max(T, cutoff)``.

The Laplace transform of the unscaled dissipation kernel,
``mu_hat(s) = -M w0 int_0^inf dw/(2 pi) Gamma(w) w/(s**2 + w**2)``, has
closed forms for both cutoffs and is what the inverse-Laplace route for
the propagator consumes.
"""

from __future__ import annotations

import math

import numpy as np
import scipy

from .._quad import _leggauss, filon_sum, split_edges
from ..errors import AccuracyError
from ..model import BathSpectrum, OscillatorParams, _checked_coupling

__all__ = [
    "dissipation_kernel",
    "noise_kernel",
    "mu_laplace",
    "trigamma_complex",
]

_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def trigamma_complex(z):
    """Trigamma function for complex arguments with Re(z) >= 1.

    Uses the recurrence ``psi_1(z) = psi_1(z+1) + 1/z**2`` to push the
    argument to Re >= 12, then the asymptotic Bernoulli series. Relative
    accuracy is a few 1e-16 in that half-plane.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.real < 1.0):
        raise ValueError("trigamma_complex requires Re(z) >= 1")
    shift = int(max(0.0, np.ceil(12.0 - float(np.min(z.real)))))
    acc = np.zeros_like(z)
    w = z.copy()
    for _ in range(shift):
        acc += 1.0 / (w * w)
        w += 1.0
    inv = 1.0 / w
    inv2 = inv * inv
    series = inv + 0.5 * inv2
    term = inv * inv2
    for b in _BERNOULLI:
        series += b * term
        term *= inv2
    return acc + series


def dissipation_kernel(tau, bath: BathSpectrum, osc: OscillatorParams, lam):
    """Odd memory kernel mu(tau); vanishes at tau = 0 and at eta = 0."""
    lam = _checked_coupling(lam)
    t = np.asarray(tau, dtype=float)
    k0 = osc.mass * osc.omega0 * bath.eta * lam**2 / (2.0 * math.pi)
    if bath.eta == 0.0:
        out = np.zeros_like(t)
    elif bath.shape == "exponential":
        a = lam**2 / bath.cutoff
        out = -k0 * 2.0 * a * t / (a * a + t * t) ** 2
    else:
        c = bath.cutoff / lam**2
        x = c * t
        small = np.abs(x) < 1e-4
        with np.errstate(divide="ignore", invalid="ignore"):
            main = (np.sin(x) - x * np.cos(x)) / np.where(small, 1.0, t * t)
        series = (c**3) * t / 3.0 * (1.0 - 0.1 * x * x)
        out = -k0 * np.where(small, series, main)
    if np.ndim(tau) == 0:
        return float(out)
    return out


def noise_kernel(tau, bath: BathSpectrum, osc: OscillatorParams, lam):
    """Even thermal kernel nu(tau).

    Exponential cutoff uses the trigamma closed form; the hard cutoff uses
    two Filon passes over every time at once (module docstring), and
    AccuracyError names the time where they differ most if they disagree.
    """
    lam = _checked_coupling(lam)
    t = np.asarray(tau, dtype=float)
    theta = t / lam**2
    if bath.eta == 0.0:
        out = np.zeros_like(t)
    elif bath.shape == "exponential":
        pref = osc.mass * osc.omega0 * bath.eta / (2.0 * math.pi * lam**2)
        z = 1.0 / bath.cutoff - 1j * theta
        val = 1.0 / (z * z)
        if bath.temperature > 0.0:
            bprime = 0.5 / bath.temperature
            val = val + trigamma_complex(1.0 + z / (2.0 * bprime)) / (
                2.0 * bprime * bprime
            )
        out = pref * val.real
    else:
        wc, temp = bath.cutoff, bath.temperature
        knee = min(wc, 40.0 * temp)  # beyond it coth(w/2T) is 1 to double precision
        edges = np.concatenate([split_edges(0.0, knee, min(wc / 4.0, math.pi * temp)),
                                split_edges(knee, wc, wc / 4.0)[1:]])
        flat = np.abs(np.ravel(theta))
        passes = []
        for n_nodes in (16, 24):
            mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
            w = mid[:, None] + half[:, None] * _leggauss(n_nodes)[0]
            wcoth = w / np.tanh(0.5 * w / temp) if temp > 0.0 else w  # nodes avoid w = 0
            passes.append(filon_sum(flat, mid, half, bath.eta * wcoth[None] / (2.0 * math.pi))[0])
            edges = np.sort(np.concatenate([edges, mid]))  # halve every panel
        gap = np.abs(passes[1] - passes[0])
        target = 1e-11 * bath.eta * max(temp, wc)
        if not np.all(gap <= target):  # a NaN fails too, and argmax names it first
            worst = int(np.argmax(gap))
            raise AccuracyError(
                f"hard-cutoff noise kernel at tau={t.flat[worst]:g}: two Filon passes "
                f"differ by {gap[worst]:.3e} (target {target:.3e})"
            )
        out = (osc.mass * osc.omega0 / lam**2) * passes[1].reshape(np.shape(theta))
    return float(out) if np.ndim(tau) == 0 else out


def _arctan_complex(w):
    return 0.5j * (np.log(1.0 - 1j * w) - np.log(1.0 + 1j * w))


def mu_laplace(s, bath: BathSpectrum, osc: OscillatorParams):
    """Laplace transform of the unscaled dissipation kernel, Re(s) > 0.

    For the exponential cutoff,
    ``mu_hat(s) = -(M w0 eta / 2 pi) [wc - s**2 I2(s)]`` with
    ``I2 = [e^{-i s/wc} E1(-i s/wc) - e^{+i s/wc} E1(+i s/wc)] / (2 i s)``;
    for the hard cutoff the bracket is ``wc - s arctan(wc/s)``. Both decay
    like ``-(M w0 / pi s**2) int w Gamma(w) dw`` at large ``|s|``.
    """
    s = np.asarray(s, dtype=complex)
    pref = -osc.mass * osc.omega0 * bath.eta / (2.0 * math.pi)
    if bath.shape == "exponential":
        ias = 1j * s / bath.cutoff
        i2 = (np.exp(-ias) * scipy.special.exp1(-ias)
              - np.exp(ias) * scipy.special.exp1(ias)) / (2j * s)
        bracket = bath.cutoff - s * s * i2
    else:
        bracket = bath.cutoff - s * _arctan_complex(bath.cutoff / s)
    return pref * bracket
