"""First and second moments under the time-local master equation.

For a Gaussian (or any) state evolved by

    d rho/dtau = -i [p^2/2M + M W2(tau) x^2/2, rho]
                 - D_xx [x, [x, rho]] - 2 D_xp [x, [p, rho]]
                 - i G_xp [x, {p, rho}]

the means and covariances close on themselves:

    d<x>    =  <p>/M
    d<p>    = -M W2 <x> - 2 G_xp <p>
    d s_xx  =  2 s_xp / M
    d s_xp  =  s_pp / M - M W2 s_xx - 2 G_xp s_xp - 2 D_xp
    d s_pp  = -2 M W2 s_xp - 4 G_xp s_pp + 2 D_xx

(hbar = 1; D_xx pumps momentum variance, D_xp shifts the cross
covariance, G_xp is the friction).  This route costs nothing and is the
yardstick the truncated-basis evolution is checked against.
"""

from __future__ import annotations

import numpy as np

from .._cubic import hermite, not_a_knot_slopes
from .._integrate import integrate
from ..errors import ValidationError
from ..model import GaussianState, OscillatorParams, _checked_grid
from .coefficients import QBMCoefficients

__all__ = ["MOMENT_LABELS", "coefficient_weights", "propagate_moments"]

MOMENT_LABELS = ("mean_x", "mean_p", "var_xx", "cov_xp", "var_pp")


def coefficient_weights(coeffs: QBMCoefficients, tau_grid):
    """Callable ``t -> (1, W2, D_xx, D_xp, G_xp)`` covering ``tau_grid``.

    These are the weights of the five generator parts, as one array. A
    single-sample coefficient set gives constants; a window gives the
    not-a-knot cubic splines over it, evaluated together, and the requested
    grid must stay inside it (ValidationError otherwise).
    """
    if coeffs.tau.size == 1:
        weights = np.array([1.0, coeffs.omegaR_sq[0], coeffs.D_xx[0], coeffs.D_xp[0],
                            coeffs.Gamma_xp[0]])
        return lambda t: weights
    tau = np.asarray(tau_grid, dtype=float)
    if tau.min() < coeffs.tau[0] - 1e-12 or tau.max() > coeffs.tau[-1] + 1e-12:
        raise ValidationError(
            "tau grid extends outside the coefficient window "
            f"[{coeffs.tau[0]:g}, {coeffs.tau[-1]:g}]"
        )
    x = coeffs.tau
    # the constant row has slopes 0, so its spline is 1.0 exactly
    y = np.stack([np.ones_like(x), coeffs.omegaR_sq, coeffs.D_xx, coeffs.D_xp,
                  coeffs.Gamma_xp])
    slopes = not_a_knot_slopes(x, y)
    return lambda t: hermite(x, y, slopes, t)


def propagate_moments(
    coeffs: QBMCoefficients,
    osc: OscillatorParams,
    state0: GaussianState,
    tau_grid,
    rtol: float = 1e-10,
) -> np.ndarray:
    """Integrate the closed moment system; rows follow MOMENT_LABELS.

    The right-hand side reads the weights of :func:`coefficient_weights`
    at each stage time, constant or a window's splines, and
    :func:`opendecay._integrate.integrate` steps it at relative tolerance
    ``rtol``. ValidationError names ``tau_grid`` and its first bad node
    unless it is 1-d, finite and strictly increasing, and is raised when a
    window does not cover it.
    """
    tau = _checked_grid(tau_grid, "tau_grid")
    weights = coefficient_weights(coeffs, tau)
    m = osc.mass

    def rhs(t, y):
        # Python floats: this arithmetic on NumPy scalars takes twice as long
        mx, mp, sxx, sxp, spp = y.tolist()
        _, w2t, d_xx, d_xp, gt = weights(t).tolist()
        return np.array(
            [
                mp / m,
                -m * w2t * mx - 2.0 * gt * mp,
                2.0 * sxp / m,
                spp / m - m * w2t * sxx - 2.0 * gt * sxp - 2.0 * d_xp,
                -2.0 * m * w2t * sxp - 4.0 * gt * spp + 2.0 * d_xx,
            ]
        )

    y0 = state0.as_array()
    return integrate(rhs, y0, tau, rtol=rtol)
