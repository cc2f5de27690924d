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
  Per level, two FFT convolutions ``nu*(wG)`` and ``nu*(wG')``, each one
  call of :func:`.propagator._convolve` (the package's only linear
  convolution, also behind the Volterra memory sums), give by
  running sums the trapezoidal Q ending at every node, and also their
  tau-derivatives (``nu`` is even):

      dQ_gg/dtau = 2 G (nu*G),   dQ_dg/dtau = G' (nu*G) + G (nu*G'),
      dQ_dd/dtau = 2 G' (nu*G').

  Cubic Hermite interpolation on each level's own nodes carries Q to the
  requested times. Richardson extrapolation in the grid step follows,
  and at every requested time the third level is the convergence check
  against that time's own scale. A time with fewer than 32 coarse
  panels below it gets a grid ending at itself, the grid a one-point
  window has;

* the master-equation coefficients, obtained from Lambda/Theta and
  their time derivatives.  With ``W = G'' G - G'**2`` (note
  ``L_fi = M W / G``) the frequency and friction are pure ``G``
  expressions,

      Gamma_xp   = -W' / (2 W),
      OmegaR_sq  = (G'/G) (W'/W) - G''/G,

  while the diffusion coefficients mix in Theta and its time derivative.
  That derivative is still taken by a cubic spline across the requested
  window, which is why a window needs at least 5 points. The Q
  derivatives above would give it exactly, but they move D_xx on a
  5-point window by up to ~10% relative and so would change every
  coefficient this module has reported so far; that change is left to
  its own step.

In the rapid-decay limit everything collapses to the constant
coefficients of ``limit_coefficients`` and the closed trigonometric
forms of ``limit_lambda_theta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from ..errors import AccuracyError, NodeSingularityError, ValidationError
from ..model import BathSpectrum, OscillatorParams, _checked_finite, _checked_grid
from ..spectral import renormalized_frequency_sq
from .kernels import noise_kernel
from .propagator import PropagatorFunction, _convolve

__all__ = [
    "LambdaTheta",
    "QBMCoefficients",
    "lambda_coefficients",
    "theta_coefficients",
    "lambda_theta",
    "limit_lambda_theta",
    "exact_coefficients",
    "limit_coefficients",
    "kernel_logdensity",
]

_NODE_FRACTION = 1e-3  # |G| below this times max|G| counts as a node
_MIN_PANELS = 32  # fewest coarse Theta panels below any time
_THETA_REL_TOL = 1e-3  # Richardson agreement of Theta, relative to its scale


@dataclass(frozen=True)
class LambdaTheta:
    """Phase (L_*) and decoherence (T_*) entries of the two-point kernel."""

    L_ff: float
    L_fi: float
    L_if: float
    T_ff: float
    T_fi: float
    T_ii: float


@dataclass(frozen=True)
class QBMCoefficients:
    """Master-equation coefficients sampled on a time window."""

    tau: np.ndarray
    omegaR_sq: np.ndarray
    D_xx: np.ndarray
    D_xp: np.ndarray
    Gamma_xp: np.ndarray

    def __post_init__(self):
        tau = np.atleast_1d(np.asarray(self.tau, dtype=float))
        object.__setattr__(self, "tau", tau)
        for name in ("omegaR_sq", "D_xx", "D_xp", "Gamma_xp"):
            arr = np.broadcast_to(
                np.asarray(getattr(self, name), dtype=float), tau.shape
            ).copy()
            object.__setattr__(self, name, arr)


def _check_tau(prop: PropagatorFunction, tau):
    """``tau`` as floats; raises for the first time outside (0, tau_max] or near a node."""
    tau = np.asarray(tau, dtype=float)
    t = np.atleast_1d(tau)
    g = prop.g(t)
    outside = ~((t > 0.0) & (t <= prop.tau_max))
    bad = np.flatnonzero(outside | (np.abs(g) < _NODE_FRACTION * prop.max_abs_g))
    if bad.size == 0:
        return tau
    i = bad[0]  # the first offending time; its range is checked before its node
    if outside[i]:
        raise ValidationError(f"tau={t[i]:g} outside the solved window (0, {prop.tau_max:g}]")
    raise NodeSingularityError(
        f"G({t[i]:g}) = {g[i]:.3e} is too close to a node of the "
        "propagator; the kernel coefficients diverge there"
    )


def lambda_coefficients(prop: PropagatorFunction, tau_star: float):
    """(L_ff, L_fi, L_if) at one time; raises near nodes of G."""
    tau_star = float(_check_tau(prop, tau_star))
    m = prop.osc.mass
    g = float(prop.g(tau_star))
    gd = float(prop.g_dot(tau_star))
    gdd = float(prop.g_ddot(tau_star))
    return m * gd / g, m * (gdd * g - gd * gd) / g, -m / g


def _theta_grid_step(prop: PropagatorFunction) -> float:
    lam, bath, osc = prop.lam, prop.bath, prop.osc
    layer = lam**2 / bath.cutoff
    if bath.temperature > 0.0:
        layer = min(layer, lam**2 / bath.temperature)
    return min(layer / 8.0, 0.03 / osc.omega0)


def _q_level(g, gd, nu, h):
    """Trapezoidal (Q_gg, Q_dg, Q_dd) ending at every node, and their tau-derivatives.

    ``g``, ``gd`` and ``nu`` hold G, G' and nu at the nodes ``h*n``. Row n
    of ``q`` is the double sum over ``[0, t_n]**2`` with end weight 1/2 at
    0 and at ``t_n``; row n of ``dq`` is the derivative of the double
    integral in its upper limit, with the inner integral taken by the same
    trapezoid (nu is even, so each is G or G' at ``t_n`` times one inner
    integral).
    """
    a = np.ones(g.size)
    a[0] = 0.5
    ag, ad = a * g, a * gd
    # c[n] = sum_{j <= n} nu(t_n - t_j) a_j f_j, full weight at j = n
    cg = _convolve(nu, ag, g.size)
    cd = _convolve(nu, ad, g.size)
    nu0 = nu[0]
    # Node n adds a row and a column to the square: the cumulative sums of
    # these increments are the double sums with full weight at t_n, and
    # subtracting the end terms halves that weight.
    inc = np.stack([2.0 * ag * cg - nu0 * ag * ag,
                    ad * cg + ag * cd - nu0 * ad * ag,
                    2.0 * ad * cd - nu0 * ad * ad], axis=1)
    end = np.stack([g * cg - 0.25 * nu0 * g * g,
                    0.5 * (gd * cg + g * cd) - 0.25 * nu0 * gd * g,
                    gd * cd - 0.25 * nu0 * gd * gd], axis=1)
    q = np.cumsum(inc, axis=0) - end
    inner_g = h * (cg - 0.5 * nu0 * g)
    inner_d = h * (cd - 0.5 * nu0 * gd)
    dq = np.stack([2.0 * g * inner_g,
                   gd * inner_g + g * inner_d,
                   2.0 * gd * inner_d], axis=1)
    return h * h * q, dq


def _theta_window(prop: PropagatorFunction, tau: np.ndarray, rel_tol: float):
    """(T_ff, T_fi, T_ii) rows on an increasing window of checked times.

    The one implementation behind :func:`theta_coefficients` and
    :func:`exact_coefficients`; see the module docstring.
    """
    if prop.bath.eta == 0.0:
        return np.zeros((3, tau.size))
    m0 = max(_MIN_PANELS, math.ceil(tau[-1] / _theta_grid_step(prop)))
    # Every time keeps at least _MIN_PANELS coarse panels below it, as a
    # grid ending at it has; short of that the interpolated levels lose
    # orders of magnitude of accuracy. Earlier times take such a grid of
    # their own, as one-point windows.
    k = int(np.searchsorted(tau, _MIN_PANELS * tau[-1] / m0))
    if k:
        parts = [_theta_window(prop, tau[i : i + 1], rel_tol) for i in range(k)]
        return np.concatenate(parts + [_theta_window(prop, tau[k:], rel_tol)], axis=1)
    h = tau[-1] / (4 * m0)
    t = np.linspace(0.0, tau[-1], 4 * m0 + 1)
    g = prop.g(t)
    gd = prop.g_dot(t)
    nu = noise_kernel(t, prop.bath, prop.osc, prop.lam)
    finite = np.isfinite(nu)
    if not np.all(finite):
        # the level splines below would refuse a NaN without naming it
        i = int(np.argmin(finite))
        raise AccuracyError(f"noise kernel is {nu[i]} at t={t[i]:g}")
    # The m0-, 2m0- and 4m0-panel levels subsample one grid. Each level is
    # interpolated on its own nodes, so its interpolation error shrinks
    # with the level like the quadrature error and shows in the spread.
    q1, q2, q3 = (
        CubicHermiteSpline(t[::s], *_q_level(g[::s], gd[::s], nu[::s], s * h), axis=0)(tau)
        for s in (4, 2, 1)
    )
    first = (4.0 * q2 - q1) / 3.0
    second = (4.0 * q3 - q2) / 3.0
    scale = np.max(np.abs(q3), axis=1, keepdims=True)
    spread = np.abs(second - first)
    bad = np.argwhere(~(spread <= rel_tol * np.maximum(scale, 1e-300)))
    if bad.size:
        i, j = bad[0]
        raise AccuracyError(
            f"noise double integral Q_{('gg', 'dg', 'dd')[j]} not converged at "
            f"tau={tau[i]:g}: Richardson levels differ by {spread[i, j]:.3e} "
            f"against scale {scale[i, 0]:.3e}"
        )
    q_gg, q_dg, q_dd = second.T
    g_tau = prop.g(tau)
    r = prop.g_dot(tau) / g_tau
    t_ff = 0.5 * (q_dd - 2.0 * r * q_dg + r * r * q_gg)
    t_fi = (q_dg - r * q_gg) / (2.0 * g_tau)
    t_ii = q_gg / (2.0 * g_tau * g_tau)
    return np.array([t_ff, t_fi, t_ii])


def theta_coefficients(prop: PropagatorFunction, tau_star: float):
    """(T_ff, T_fi, T_ii) at one time, Richardson extrapolated.

    The one-point window of the pass that :func:`exact_coefficients` makes
    over a whole window: the grid ends at ``tau_star``, which is then a
    node of every level, and the last two Richardson pairs must agree to
    ``_THETA_REL_TOL`` relative to the largest double integral, else
    AccuracyError.
    """
    tau_star = float(_check_tau(prop, tau_star))
    t_ff, t_fi, t_ii = _theta_window(prop, np.array([tau_star]), _THETA_REL_TOL)
    return float(t_ff[0]), float(t_fi[0]), float(t_ii[0])


def lambda_theta(prop: PropagatorFunction, tau_star: float) -> LambdaTheta:
    """Both halves of the kernel at one time; Theta as in :func:`theta_coefficients`."""
    l_ff, l_fi, l_if = lambda_coefficients(prop, tau_star)
    t_ff, t_fi, t_ii = theta_coefficients(prop, tau_star)
    return LambdaTheta(l_ff, l_fi, l_if, t_ff, t_fi, t_ii)


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


def exact_coefficients(
    prop: PropagatorFunction, tau_points, rel_tol: float = _THETA_REL_TOL
) -> QBMCoefficients:
    """Master-equation coefficients on a window of times.

    ``tau_points`` needs at least 5 strictly increasing entries inside
    the solved window, none of them near a node of G. Theta comes from
    one pass over a grid ending at the last point (see the module
    docstring): one noise-kernel evaluation, two FFT convolutions per
    Richardson level, and a convergence check at every point that raises
    AccuracyError naming the first point whose last two Richardson pairs
    differ by more than ``rel_tol`` of its largest double integral. The
    Theta derivative is a cubic spline across the window, hence the 5
    points. ValidationError names ``rel_tol`` unless it is finite and > 0,
    and ``tau_points`` and its first bad node unless they are finite and
    strictly increasing.
    """
    rel_tol = _checked_finite("rel_tol", rel_tol, "> 0")
    tau = _checked_grid(tau_points, "tau_points", min_nodes=5)
    _check_tau(prop, tau)

    mass = prop.osc.mass
    g = prop.g(tau)
    gd = prop.g_dot(tau)
    gdd = prop.g_ddot(tau)
    gddd = prop.g_dddot(tau)
    w = gdd * g - gd * gd
    wdot = gddd * g - gd * gdd
    if np.any(np.abs(w) < 1e-12 * max(np.max(gd * gd), np.max(np.abs(gdd * g)))):
        raise NodeSingularityError("Wronskian-type denominator vanished in window")
    gamma_xp = -0.5 * wdot / w
    omega_sq = (gd / g) * (wdot / w) - gdd / g

    t_ff, t_fi, t_ii = _theta_window(prop, tau, rel_tol)
    td_ff = CubicSpline(tau, t_ff)(tau, 1)
    td_fi = CubicSpline(tau, t_fi)(tau, 1)
    td_ii = CubicSpline(tau, t_ii)(tau, 1)

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
    tau = np.atleast_1d(np.asarray(tau_points, dtype=float))
    return QBMCoefficients(tau, wr_sq, 0.5 * kappa, 0.0, 0.0)


def kernel_logdensity(
    prop: PropagatorFunction,
    tau_star: float,
    x_f: float,
    x_fp: float,
    x_i: float,
    x_ip: float,
) -> complex:
    """log of the two-point kernel at endpoints (x_f, x_f'; x_i, x_i').

    In sum/difference coordinates S = (x + x')/2, D = x - x':

        log J = log(|L_if| / 2 pi)
                + i [ D_f (L_ff S_f + L_fi S_i) + D_i (L_if S_f + L_ff S_i) ]
                - [ T_ff D_f**2 + 2 T_fi D_f D_i + T_ii D_i**2 ].

    The real part is bounded by the normalization term because the
    decoherence matrix is positive semidefinite. Theta is certified to
    ``_THETA_REL_TOL`` as in :func:`theta_coefficients`.
    """
    lt = lambda_theta(prop, tau_star)
    s_f, d_f = 0.5 * (x_f + x_fp), x_f - x_fp
    s_i, d_i = 0.5 * (x_i + x_ip), x_i - x_ip
    phase = d_f * (lt.L_ff * s_f + lt.L_fi * s_i) + d_i * (
        lt.L_if * s_f + lt.L_ff * s_i
    )
    damp = lt.T_ff * d_f * d_f + 2.0 * lt.T_fi * d_f * d_i + lt.T_ii * d_i * d_i
    return complex(math.log(abs(lt.L_if) / (2.0 * math.pi)) - damp, phase)
