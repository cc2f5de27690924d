"""Time-local coefficients of the reduced oscillator dynamics.

Given the fundamental solution ``G`` (see :mod:`.propagator`) the exact
reduced evolution is Gaussian and fully described by

* the phase matrix ``Lambda`` of the two-point kernel, assembled from
  ``G`` and its derivatives at the elapsed time:

      L_ff = L_ii = M G'/G,   L_fi = M (G'' G - G'**2)/G,   L_if = -M/G;

* the decoherence matrix ``Theta``, double integrals of the noise
  kernel against ``c_f(t') = G'(t') - (G'/G)(tau) G(t')`` and
  ``c_i(t') = G(t')/G(tau)``:

      Theta_kl(tau) = 1/2 int_0^tau int_0^tau c_k(t') nu(t'-t'') c_l(t'')

  Expanding ``c_f`` and ``c_i`` leaves three integrals over the square
  ``[0, tau]**2``, ``Q_gg = <G nu G>``, ``Q_dg = <G' nu G>`` and
  ``Q_dd = <G' nu G'>``. Each is a function of its upper limit (Hu, Paz
  and Zhang, Phys. Rev. D 45, 2843 (1992)), so one pass serves a whole
  window of times. One grid on ``[0, tau_last]``, fine enough for the
  noise-kernel boundary layer, carries one noise-kernel evaluation; its
  m0-, 2m0- and 4m0-panel subsamples are the three Richardson levels.
  Per level, the two FFT convolutions ``nu*(wG)`` and ``nu*(wG')``, one
  call of :func:`.propagator._convolve` (the package's only linear
  convolution, also behind the Volterra memory sums) that transforms
  ``nu`` once, give by running sums the trapezoidal Q ending at every
  node, and also their tau-derivatives (``nu`` is even):

      dQ_gg/dtau = 2 G (nu*G),   dQ_dg/dtau = G' (nu*G) + G (nu*G'),
      dQ_dd/dtau = 2 G' (nu*G').

  Each level's cubic Hermite interpolant on its own nodes, evaluated only
  on the intervals that hold the requested times, carries Q to those
  times. Richardson extrapolation in the grid step follows,
  and at every requested time the third level is the convergence check
  against that time's own scale. A time with fewer than 32 coarse
  panels below it gets a grid ending at itself, the grid a one-point
  window has. ``theta_coefficients`` and ``lambda_theta`` take one time
  or an increasing array of times, and make this one pass for all of
  them;

* the master-equation coefficients, obtained from Lambda/Theta and
  their time derivatives.  With ``W = G'' G - G'**2`` (note
  ``L_fi = M W / G``) the frequency and friction are pure ``G``
  expressions,

      Gamma_xp   = -W' / (2 W),
      OmegaR_sq  = (G'/G) (W'/W) - G''/G,

  while the diffusion coefficients mix in Theta and its time derivative.
  That derivative is the slope of the not-a-knot cubic spline across
  the requested window (its node slopes, ``_cubic.not_a_knot_slopes``),
  and a window needs at least 5 points because that spline does. The Q
  derivatives above would give it exactly, but they move D_xx on a
  5-point window by up to ~10% relative, so the spline slope stays the
  one this module reports, and with it the 5-point rule.

In the rapid-decay limit everything collapses to the constant
coefficients of ``limit_coefficients`` and the closed trigonometric
forms of ``limit_lambda_theta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._cubic import hermite, not_a_knot_slopes
from ..errors import AccuracyError, NodeSingularityError, ValidationError
from ..model import (
    BathSpectrum,
    OscillatorParams,
    _checked_all_finite,
    _checked_finite,
    _checked_grid,
)
from ..spectral import renormalized_frequency_sq
from .kernels import noise_kernel
from .propagator import PropagatorFunction, _convolve

__all__ = [
    "LambdaTheta",
    "QBMCoefficients",
    "theta_coefficients",
    "lambda_theta",
    "limit_lambda_theta",
    "exact_coefficients",
    "limit_coefficients",
]

_NODE_FRACTION = 1e-3  # |G| below this times max|G| counts as a node
_MIN_PANELS = 32  # fewest coarse Theta panels below any time
_THETA_REL_TOL = 1e-3  # Richardson agreement of Theta, relative to its scale
# Nodes of one Theta grid, ~5x criterion 9's 428 801 and ~540 MB at peak;
# at the default bath (step lam**2/40) a window ending at tau 2.9 reaches it
# near lam = 0.015.
_MAX_THETA_NODES = 1 << 21


@dataclass(frozen=True)
class LambdaTheta:
    """Phase (L_*) and decoherence (T_*) kernel entries: floats, or arrays over times."""

    L_ff: float
    L_fi: float
    L_if: float
    T_ff: float
    T_fi: float
    T_ii: float


@dataclass(frozen=True)
class QBMCoefficients:
    """Master-equation coefficients sampled on a time window.

    ``tau`` is one time or a finite, strictly increasing 1-d grid
    (ValidationError naming ``tau`` otherwise); each coefficient is
    broadcast onto it, and ValidationError names the coefficient and its
    first node that is NaN or infinite.
    """

    tau: np.ndarray
    omegaR_sq: np.ndarray
    D_xx: np.ndarray
    D_xp: np.ndarray
    Gamma_xp: np.ndarray

    def __post_init__(self):
        tau = _checked_grid(np.atleast_1d(self.tau), "tau")
        object.__setattr__(self, "tau", tau)
        for name in ("omegaR_sq", "D_xx", "D_xp", "Gamma_xp"):
            arr = np.broadcast_to(
                np.asarray(getattr(self, name), dtype=float), tau.shape
            ).copy()
            object.__setattr__(self, name, _checked_all_finite(arr, name))


def _check_tau(prop: PropagatorFunction, tau):
    """One time or an increasing 1-d array, as floats; raises naming its first bad node
    (``_checked_grid``), else its first time outside (0, tau_max] or near a node of G.
    G is evaluated at the times inside that window only."""
    tau = np.asarray(tau, dtype=float)
    t = _checked_grid(np.atleast_1d(tau), "tau")
    inside = (t > 0.0) & (t <= prop.tau_max)
    g = np.zeros_like(t)
    g[inside] = prop.g(t[inside])  # inside only: G refuses a time past tau_max
    bad = np.flatnonzero(~inside | (np.abs(g) < _NODE_FRACTION * prop.max_abs_g))
    if bad.size == 0:
        return tau
    i = bad[0]  # the first offending time; its range is checked before its node
    if not inside[i]:
        raise ValidationError(f"tau={t[i]:g} outside the solved window (0, {prop.tau_max:g}]")
    raise NodeSingularityError(
        f"G({t[i]:g}) = {g[i]:.3e} is too close to a node of the "
        "propagator; the kernel coefficients diverge there"
    )


def _theta_grid_step(prop: PropagatorFunction) -> float:
    lam, bath, osc = prop.lam, prop.bath, prop.osc
    layer = lam**2 / bath.cutoff
    if bath.temperature > 0.0:
        layer = min(layer, lam**2 / bath.temperature)
    return min(layer / 8.0, 0.03 / osc.omega0)


def _q_level(g, gd, nu, h):
    """Trapezoidal (Q_gg, Q_dg, Q_dd) ending at every node, and their tau-derivatives.

    ``g``, ``gd`` and ``nu`` hold G, G' and nu at the nodes ``h*n``. Column
    n of ``q`` is the double sum over ``[0, t_n]**2`` with end weight 1/2 at
    0 and at ``t_n``; column n of ``dq`` is the derivative of the double
    integral in its upper limit, with the inner integral taken by the same
    trapezoid (nu is even, so each is G or G' at ``t_n`` times one inner
    integral).
    """
    a = np.ones(g.size)
    a[0] = 0.5
    ag, ad = a * g, a * gd
    # c[n] = sum_{j <= n} nu(t_n - t_j) a_j f_j, full weight at j = n
    cg, cd = _convolve(nu, np.stack([ag, ad]), g.size)
    nu0 = nu[0]
    # Node n adds a row and a column to the square: the cumulative sums of
    # these increments are the double sums with full weight at t_n, and
    # subtracting the end terms halves that weight.
    inc = np.stack([2.0 * ag * cg - nu0 * ag * ag,
                    ad * cg + ag * cd - nu0 * ad * ag,
                    2.0 * ad * cd - nu0 * ad * ad])
    end = np.stack([g * cg - 0.25 * nu0 * g * g,
                    0.5 * (gd * cg + g * cd) - 0.25 * nu0 * gd * g,
                    gd * cd - 0.25 * nu0 * gd * gd])
    q = np.cumsum(inc, axis=1) - end
    inner_g = h * (cg - 0.5 * nu0 * g)
    inner_d = h * (cd - 0.5 * nu0 * gd)
    dq = np.stack([2.0 * g * inner_g,
                   gd * inner_g + g * inner_d,
                   2.0 * gd * inner_d])
    return h * h * q, dq


def _theta_window(prop: PropagatorFunction, tau: np.ndarray):
    """(T_ff, T_fi, T_ii) rows on an increasing window of checked times.

    The one implementation behind :func:`theta_coefficients` and
    :func:`exact_coefficients`; see the module docstring. AccuracyError
    names the first time whose last two Richardson pairs differ by more
    than ``_THETA_REL_TOL`` of its largest double integral.
    """
    if prop.bath.eta == 0.0:
        return np.zeros((3, tau.size))
    m0 = max(_MIN_PANELS, math.ceil(tau[-1] / _theta_grid_step(prop)))
    if 4 * m0 + 1 > _MAX_THETA_NODES:
        raise ValidationError(
            f"lam={prop.lam:g} is too small for a Theta pass up to tau={tau[-1]:g}: its "
            f"grid needs {4 * m0 + 1:.3e} nodes, beyond the budget _MAX_THETA_NODES="
            f"{_MAX_THETA_NODES}"
        )
    # Every time keeps at least _MIN_PANELS coarse panels below it, as a
    # grid ending at it has; short of that the interpolated levels lose
    # orders of magnitude of accuracy. Earlier times take such a grid of
    # their own, as one-point windows.
    k = int(np.searchsorted(tau, _MIN_PANELS * tau[-1] / m0))
    if k:
        parts = [_theta_window(prop, tau[i : i + 1]) for i in range(k)]
        return np.concatenate(parts + [_theta_window(prop, tau[k:])], axis=1)
    h = tau[-1] / (4 * m0)
    t = np.linspace(0.0, tau[-1], 4 * m0 + 1)
    g = prop.g(t)
    gd = prop.g_dot(t)
    nu = noise_kernel(t, prop.bath, prop.osc, prop.lam)
    finite = np.isfinite(nu)
    if not np.all(finite):
        # a NaN would reach the Richardson check below unnamed, as a
        # convergence failure of every later time
        i = int(np.argmin(finite))
        raise AccuracyError(f"noise kernel is {nu[i]} at t={t[i]:g}")
    # The m0-, 2m0- and 4m0-panel levels subsample one grid. Each level is
    # interpolated on its own nodes, so its interpolation error shrinks
    # with the level like the quadrature error and shows in the spread.
    q1, q2, q3 = (
        hermite(t[::s], *_q_level(g[::s], gd[::s], nu[::s], s * h), tau)
        for s in (4, 2, 1)
    )
    first = (4.0 * q2 - q1) / 3.0
    second = (4.0 * q3 - q2) / 3.0
    scale = np.max(np.abs(q3), axis=0)
    spread = np.abs(second - first)
    bad = np.argwhere(~(spread.T <= _THETA_REL_TOL * np.maximum(scale, 1e-300)[:, None]))
    if bad.size:
        i, j = bad[0]
        raise AccuracyError(
            f"noise double integral Q_{('gg', 'dg', 'dd')[j]} not converged at "
            f"tau={tau[i]:g}: Richardson levels differ by {spread[j, i]:.3e} "
            f"against scale {scale[i]:.3e}"
        )
    q_gg, q_dg, q_dd = second
    g_tau = prop.g(tau)
    r = prop.g_dot(tau) / g_tau
    t_ff = 0.5 * (q_dd - 2.0 * r * q_dg + r * r * q_gg)
    t_fi = (q_dg - r * q_gg) / (2.0 * g_tau)
    t_ii = q_gg / (2.0 * g_tau * g_tau)
    return np.array([t_ff, t_fi, t_ii])


def theta_coefficients(prop: PropagatorFunction, tau):
    """(T_ff, T_fi, T_ii) at one time or an increasing array of times, in one Theta pass.

    AccuracyError unless at each time the last two Richardson pairs agree to
    ``_THETA_REL_TOL`` (1e-3, fixed) of its largest double integral.
    """
    tau = _check_tau(prop, tau)
    rows = _theta_window(prop, np.atleast_1d(tau))
    return tuple(rows.reshape((3,) + tau.shape))


def lambda_theta(prop: PropagatorFunction, tau) -> LambdaTheta:
    """Both halves of the kernel at one time or an increasing array of times, in one Theta pass.

    :func:`theta_coefficients` checks ``tau`` and raises near nodes of G;
    the phase entries L_ff, L_fi and L_if are then formed from G, G' and G''
    at the same times.
    """
    theta = theta_coefficients(prop, tau)
    tau = np.asarray(tau, dtype=float)
    m = prop.osc.mass
    g, gd, gdd = prop.g(tau), prop.g_dot(tau), prop.g_ddot(tau)
    return LambdaTheta(m * gd / g, m * (gdd * g - gd * gd) / g, -m / g, *theta)


def limit_lambda_theta(
    bath: BathSpectrum, osc: OscillatorParams, tau_star: float
) -> LambdaTheta:
    """Rapid-decay closed forms of the kernel entries.

    The phase part is the renormalized free oscillator; the decoherence
    part is linear in the single thermal scale kappa = M w0 eta T.
    """
    wr = math.sqrt(renormalized_frequency_sq(bath, osc))
    tau_star = _checked_finite("tau_star", tau_star, "> 0")
    s, c = math.sin(wr * tau_star), math.cos(wr * tau_star)
    if abs(s) < 1e-12:
        raise NodeSingularityError(
            f"sin(wR tau) vanishes at tau={tau_star:g}; kernel entries diverge"
        )
    m = osc.mass
    kappa = m * osc.omega0 * bath.eta * bath.temperature
    t_diag = kappa * (wr * tau_star - s * c) / (4.0 * wr * s * s)
    t_off = -kappa * (wr * tau_star * c - s) / (4.0 * wr * s * s)
    return LambdaTheta(
        L_ff=m * wr * c / s,
        L_fi=-m * wr / s,
        L_if=-m * wr / s,
        T_ff=t_diag,
        T_fi=t_off,
        T_ii=t_diag,
    )


def exact_coefficients(prop: PropagatorFunction, tau_points) -> QBMCoefficients:
    """Master-equation coefficients on a window of times.

    ``tau_points`` needs at least 5 strictly increasing entries inside
    the solved window, none of them near a node of G. Theta comes from
    one pass over a grid ending at the last point (see the module
    docstring): one noise-kernel evaluation, two FFT convolutions per
    Richardson level, and a convergence check at every point that raises
    AccuracyError naming the first point whose last two Richardson pairs
    differ by more than ``_THETA_REL_TOL`` (1e-3, fixed) of its largest
    double integral. The Theta derivative is the slope of the not-a-knot
    cubic spline across the window, hence the 5 points. ValidationError
    names ``tau_points`` and its first bad node unless they are finite and
    strictly increasing. NodeSingularityError names the first window time
    where ``G''G - G'**2`` vanishes (below 1e-12 of the larger of ``G'**2``
    and ``|G''G|`` over the window).
    """
    tau = _checked_grid(tau_points, "tau_points", min_nodes=5)
    _check_tau(prop, tau)

    mass = prop.osc.mass
    g = prop.g(tau)
    gd = prop.g_dot(tau)
    gdd = prop.g_ddot(tau)
    gddd = prop.g_dddot(tau)
    w = gdd * g - gd * gd
    wdot = gddd * g - gd * gdd
    scale = max(np.max(gd * gd), np.max(np.abs(gdd * g)))
    vanished = np.flatnonzero(np.abs(w) < 1e-12 * scale)
    if vanished.size:
        raise NodeSingularityError(
            f"Wronskian-type denominator G''G - G'**2 vanishes at tau={tau[vanished[0]]:g}, "
            "the first such window time"
        )
    gamma_xp = -0.5 * wdot / w
    omega_sq = (gd / g) * (wdot / w) - gdd / g

    t_ff, t_fi, t_ii = theta = _theta_window(prop, tau)
    td_ff, td_fi, td_ii = not_a_knot_slopes(tau, theta)

    l_ff = mass * gd / g
    l_if = -mass / g
    bracket = t_ff - (t_fi / l_if) * l_ff
    d_xx = (
        4.0 * gamma_xp * bracket
        + td_ff
        - 2.0 * (td_fi / l_if) * l_ff
        + (td_ii / l_if**2) * l_ff**2
    )
    d_xp = (
        2.0 * (t_fi / l_if) * gamma_xp
        + bracket / mass
        + td_fi / l_if
        - (td_ii / l_if**2) * l_ff
    )
    return QBMCoefficients(tau, omega_sq, d_xx, d_xp, gamma_xp)


def limit_coefficients(
    bath: BathSpectrum, osc: OscillatorParams, tau_points
) -> QBMCoefficients:
    """Constant rapid-decay coefficients broadcast over ``tau_points``."""
    wr_sq = renormalized_frequency_sq(bath, osc)
    kappa = osc.mass * osc.omega0 * bath.eta * bath.temperature
    tau = _checked_grid(np.atleast_1d(tau_points), "tau_points")
    return QBMCoefficients(tau, wr_sq, 0.5 * kappa, 0.0, 0.0)
