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

__all__ = ["MOMENT_LABELS", "coefficient_functions", "propagate_moments"]

MOMENT_LABELS = ("mean_x", "mean_p", "var_xx", "cov_xp", "var_pp")


def coefficient_functions(coeffs: QBMCoefficients, tau_grid):
    """Callables (W2, D_xx, D_xp, G_xp) of time covering ``tau_grid``.

    Single-sample coefficient sets are treated as constants; otherwise
    not-a-knot cubic splines over the coefficient window are used and the
    requested grid must stay inside it.
    """
    tau = np.asarray(tau_grid, dtype=float)
    if coeffs.tau.size == 1:
        vals = (
            float(coeffs.omegaR_sq[0]),
            float(coeffs.D_xx[0]),
            float(coeffs.D_xp[0]),
            float(coeffs.Gamma_xp[0]),
        )
        return tuple((lambda t, v=v: v) for v in vals)
    if tau.min() < coeffs.tau[0] - 1e-12 or tau.max() > coeffs.tau[-1] + 1e-12:
        raise ValidationError(
            "tau grid extends outside the coefficient window "
            f"[{coeffs.tau[0]:g}, {coeffs.tau[-1]:g}]"
        )
    x = coeffs.tau
    y = np.stack([coeffs.omegaR_sq, coeffs.D_xx, coeffs.D_xp, coeffs.Gamma_xp])
    slopes = not_a_knot_slopes(x, y)
    return tuple((lambda t, k=k: float(hermite(x, y[k], slopes[k], t))) for k in range(4))


def propagate_moments(
    coeffs: QBMCoefficients,
    osc: OscillatorParams,
    state0: GaussianState,
    tau_grid,
    rtol: float = 1e-10,
) -> np.ndarray:
    """Integrate the closed moment system; rows follow MOMENT_LABELS.

    ValidationError names ``tau_grid`` and its first bad node unless it is
    1-d, finite and strictly increasing.
    """
    tau = _checked_grid(tau_grid, "tau_grid")
    w2, d_xx, d_xp, g_xp = coefficient_functions(coeffs, tau)
    m = osc.mass

    def rhs(t, y):
        mx, mp, sxx, sxp, spp = y
        w2t, gt = w2(t), g_xp(t)
        return np.array(
            [
                mp / m,
                -m * w2t * mx - 2.0 * gt * mp,
                2.0 * sxp / m,
                spp / m - m * w2t * sxx - 2.0 * gt * sxp - 2.0 * d_xp(t),
                -2.0 * m * w2t * sxp - 4.0 * gt * spp + 2.0 * d_xx(t),
            ]
        )

    y0 = state0.as_array()
    return integrate(rhs, y0, tau, rtol=rtol)
