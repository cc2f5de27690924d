"""Fundamental solution of the damped-oscillator memory equation.

The reduced dynamics are organized around a single scalar function
``G(tau)`` solving the linear Volterra integro-differential equation

    G''(tau) + w0**2 G(tau) + (2/M) int_0^tau mu(u) G(tau - u) du = 0,
    G(0) = 0,  G'(0) = 1,

with the dissipation kernel ``mu`` of :mod:`opendecay.qbm.kernels`.
Everything else (the time-local coefficients, the two-point kernel
exponents) is assembled from ``G`` and its first three derivatives.

Two independent routes are provided:

``solve_propagator``
    Direct time stepping.  The memory integral is discretized by
    *product integration*: on every step-size-``h`` panel the kernel
    ``mu`` is integrated exactly against the cubic Hermite interpolant
    of ``G`` (the kernel is concentrated in a boundary layer of width
    ``lam**2/cutoff`` that no polynomial rule on the ``G`` grid could
    resolve, but its monomial moments have closed forms).  Stepping is
    an Adams-Bashforth-4 predictor with two Adams-Moulton-4 corrector
    sweeps; the first three nodes come from a trapezoidal PECE run on a
    16x/32x finer subgrid, Richardson extrapolated.  Once the history is
    complete, ``G'''`` follows from the same product weights applied to
    ``(G', G'')``, all nodes at once by FFT convolution.  The whole solve
    is repeated on a half-step grid and the two solutions compared, so
    the returned accuracy is certified rather than hoped for.

``propagator_via_laplace``
    Numerical Bromwich inversion of
    ``G_hat(s) = 1 / (s**2 + w0**2 + 2 mu_hat(lam**2 s)/M)`` with the
    free-oscillator pole pair subtracted analytically, used to
    cross-check the time-domain solve.  The contour sum is streamed over
    the time grid: the phases ``e^{i beta tau}`` are advanced from node to
    node by one complex multiply and recomputed exactly every 64 nodes,
    so no time-by-frequency block is ever held.  Only ``G`` (and, with
    reduced accuracy, its derivatives) should be consumed from this route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.signal import fftconvolve
from scipy.special import sici

from .._quad import _leggauss
from ..errors import AccuracyError, InversionError, ValidationError
from ..model import BathSpectrum, OscillatorParams
from ..spectral import renormalized_frequency_sq
from .kernels import _lam_value, mu_laplace

__all__ = [
    "PropagatorFunction",
    "solve_propagator",
    "propagator_via_laplace",
]

_POINTS_PER_UNIT_PHASE = 409.6  # 4096 nodes per 10/w0 of elapsed phase
_MAX_NODES = 1 << 20
_ANCHOR_NODES = 64  # Bromwich phases are recomputed exactly this often


@dataclass(frozen=True)
class PropagatorFunction:
    """``G`` and its derivatives on a uniform grid, with spline access.

    ``G[0] == 0.0`` and ``G_dot[0] == 1.0`` hold exactly; construction
    refuses data that merely approximates the initial conditions.
    """

    tau_grid: np.ndarray
    G: np.ndarray
    G_dot: np.ndarray
    G_ddot: np.ndarray
    G_dddot: np.ndarray
    lam: float
    bath: BathSpectrum
    osc: OscillatorParams

    def __post_init__(self):
        tau = np.asarray(self.tau_grid, dtype=float)
        arrays = {"G": self.G, "G_dot": self.G_dot, "G_ddot": self.G_ddot,
                  "G_dddot": self.G_dddot}
        for name, arr in arrays.items():
            if np.shape(arr) != tau.shape:
                raise ValidationError(f"{name} does not match the tau grid")
        if tau.ndim != 1 or tau.size < 5:
            raise ValidationError("propagator grid needs at least 5 nodes")
        if tau[0] != 0.0 or np.any(np.diff(tau) <= 0.0):
            raise ValidationError("tau grid must increase strictly from 0")
        if self.G[0] != 0.0 or self.G_dot[0] != 1.0:
            raise ValidationError(
                "initial conditions G(0)=0, G'(0)=1 must hold exactly; got "
                f"G(0)={self.G[0]!r}, G'(0)={self.G_dot[0]!r}"
            )
        for name in ("tau_grid",) + tuple(arrays):
            a = np.ascontiguousarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @cached_property
    def _splines(self):
        return tuple(
            CubicSpline(self.tau_grid, y)
            for y in (self.G, self.G_dot, self.G_ddot, self.G_dddot)
        )

    def g(self, tau):
        return self._splines[0](tau)

    def g_dot(self, tau):
        return self._splines[1](tau)

    def g_ddot(self, tau):
        return self._splines[2](tau)

    def g_dddot(self, tau):
        return self._splines[3](tau)

    @property
    def tau_max(self) -> float:
        return float(self.tau_grid[-1])

    @property
    def max_abs_g(self) -> float:
        return float(np.max(np.abs(self.G)))


# ----------------------------------------------------------------------
# exact kernel moments
#
# R_j(panel) = int_panel mu(u) u**j du = -K * (g_j(u_hi) - g_j(u_lo)),
# with K = M w0 eta lam**2 / (2 pi).  The antiderivatives g_j below are
# normalized to decay (or grow as slowly as possible) as u -> inf:
# a large constant plateau in g_j would be amplified by the k**3 factor
# of the panel-recentering binomial below and wreck the late weights.


def _antiderivatives(u, bath: BathSpectrum, osc: OscillatorParams, lam: float):
    u = np.asarray(u, dtype=float)
    if bath.shape == "exponential":
        a = lam**2 / bath.cutoff
        den = a * a + u * u
        at = np.arctan(u / a) - 0.5 * math.pi
        g0 = -a / den
        g1 = -a * u / den + at
        g2 = a * (np.log1p((u / a) ** 2) - u * u / den)
        g3 = 2.0 * a * (u + 0.5 * a * a * u / den - 1.5 * a * at)
    else:
        c = bath.cutoff / lam**2
        x = c * u
        small = x < 1e-3
        xs = np.where(small, 1.0, x)
        us = np.where(small, 1.0, u)
        si, _ = sici(x)
        sx, cx = np.sin(xs), np.cos(xs)
        x2 = x * x
        g0 = np.where(small, -c * (1.0 - x2 / 6.0 + x2 * x2 / 120.0), -sx / us)
        g1 = np.where(small, x * x2 / 9.0 - 0.5 * math.pi, si - np.sin(x) - 0.5 * math.pi)
        g2 = np.where(
            small,
            (-2.0 + x2 * x2 / 12.0) / c,
            -2.0 * cx / c - us * sx,
        )
        g3 = np.where(
            small,
            x * x2 * x2 / (15.0 * c * c),
            3.0 * sx / (c * c) - 3.0 * us * cx / c - us * us * sx,
        )
    return g0, g1, g2, g3


def _raw_moments(edges, bath, osc, lam):
    """Panel integrals of mu(u) * u**j, j = 0..3, one row per j."""
    if bath.eta == 0.0:
        return np.zeros((4, len(edges) - 1))
    k0 = osc.mass * osc.omega0 * bath.eta * lam**2 / (2.0 * math.pi)
    gs = _antiderivatives(edges, bath, osc, lam)
    return np.stack([-k0 * np.diff(g) for g in gs])


def _hermite_weights(n: int, h: float, bath, osc, lam: float):
    """Cubic-Hermite product weights over n uniform age panels.

    Panel k covers age u in [k h, (k+1) h]; with x = u/h - k the history
    is G(tau - u) ~ H00(x) P0 + H01(x) P1 - h [H10(x) D0 + H11(x) D1],
    where (P0, D0) are (G, G') at lag k and (P1, D1) at lag k+1.
    Returns per-panel coefficient arrays (alpha, beta, gamma, delta) for
    (P0, D0, P1, D1) respectively, D-coefficients excluding the factor h.
    """
    edges = h * np.arange(n + 1)
    r0, r1, r2, r3 = _raw_moments(edges, bath, osc, lam)
    k = np.arange(n, dtype=float)
    m0 = r0
    m1 = r1 / h - k * r0
    m2 = r2 / h**2 - 2.0 * k * r1 / h + k * k * r0
    m3 = r3 / h**3 - 3.0 * k * r2 / h**2 + 3.0 * k * k * r1 / h - k**3 * r0
    alpha = 2.0 * m3 - 3.0 * m2 + m0
    beta = -(m3 - 2.0 * m2 + m1)
    gamma = -2.0 * m3 + 3.0 * m2
    delta = -(m3 - m2)
    return alpha, beta, gamma, delta


def _linear_weights(n: int, h: float, bath, osc, lam: float):
    """Piecewise-linear product weights (startup grid); lag-l weight on G."""
    edges = h * np.arange(n + 1)
    r0, r1, _, _ = _raw_moments(edges, bath, osc, lam)
    k = np.arange(n, dtype=float)
    m0 = r0
    m1 = r1 / h - k * r0
    w = m0 - m1
    w[1:] += m1[:-1]
    return w  # the lag-n weight m1[n-1] multiplies G(0) = 0 and is dropped


def _startup_nodes(h: float, w0sq: float, mass: float, bath, osc, lam: float):
    """(G, G') at tau = h, 2h, 3h from Richardson-paired fine PECE runs."""

    def run(nsub: int):
        hf = 3.0 * h / nsub
        w = _linear_weights(nsub, hf, bath, osc, lam)
        g = np.zeros(nsub + 1)
        gd = np.zeros(nsub + 1)
        gdd = np.zeros(nsub + 1)
        gd[0] = 1.0
        two_over_m = 2.0 / mass
        for j in range(nsub):
            gs = g[j] + hf * gd[j] + 0.5 * hf * hf * gdd[j]
            gds = gd[j] + hf * gdd[j]
            lagd = np.dot(w[1 : j + 1], g[j:0:-1]) if j >= 1 else 0.0
            for _ in range(4):
                gdds = -w0sq * gs - two_over_m * (lagd + w[0] * gs)
                gds = gd[j] + 0.5 * hf * (gdd[j] + gdds)
                gs = g[j] + 0.5 * hf * (gd[j] + gds)
            g[j + 1], gd[j + 1] = gs, gds
            gdd[j + 1] = -w0sq * gs - two_over_m * (lagd + w[0] * gs)
        return g, gd

    g16, gd16 = run(48)
    g32, gd32 = run(96)
    i16 = np.array([16, 32, 48])
    i32 = np.array([32, 64, 96])
    g = (4.0 * g32[i32] - g16[i16]) / 3.0
    gd = (4.0 * gd32[i32] - gd16[i16]) / 3.0
    return g, gd


def _volterra_solve(bath, osc, lam: float, tau_max: float, n: int):
    h = tau_max / n
    w0sq = osc.omega0**2
    mass = osc.mass
    two_over_m = 2.0 / mass
    alpha, beta, gamma, delta = _hermite_weights(n, h, bath, osc, lam)
    # collected lag weights: wg[l], wd[l] multiply (G, G') at lag l < n;
    # the oldest node keeps its own gamma/delta coefficient.
    wg = alpha.copy()
    wg[1:] += gamma[:-1]
    wd = h * beta
    wd[1:] += h * delta[:-1]

    G = np.zeros(n + 1)
    Gd = np.zeros(n + 1)
    Gdd = np.zeros(n + 1)
    Gd[0] = 1.0

    def lag(j, a, ad):
        # memory over history nodes j-1 .. 1 plus the tau=0 boundary node
        s = gamma[j - 1] * a[0] + h * delta[j - 1] * ad[0]
        if j > 1:
            s += np.dot(wg[1:j], a[j - 1 : 0 : -1])
            s += np.dot(wd[1:j], ad[j - 1 : 0 : -1])
        return s

    G[1:4], Gd[1:4] = _startup_nodes(h, w0sq, mass, bath, osc, lam)
    for i in (1, 2, 3):
        mem = lag(i, G, Gd) + wg[0] * G[i] + wd[0] * Gd[i]
        Gdd[i] = -w0sq * G[i] - two_over_m * mem

    for m in range(3, n):
        gp = G[m] + h * (55.0 * Gd[m] - 59.0 * Gd[m - 1] + 37.0 * Gd[m - 2] - 9.0 * Gd[m - 3]) / 24.0
        gdp = Gd[m] + h * (55.0 * Gdd[m] - 59.0 * Gdd[m - 1] + 37.0 * Gdd[m - 2] - 9.0 * Gdd[m - 3]) / 24.0
        base = lag(m + 1, G, Gd)
        gc, gdc = gp, gdp
        for _ in range(2):
            gddc = -w0sq * gc - two_over_m * (base + wg[0] * gc + wd[0] * gdc)
            gdc = Gd[m] + h * (9.0 * gddc + 19.0 * Gdd[m] - 5.0 * Gdd[m - 1] + Gdd[m - 2]) / 24.0
            gc = G[m] + h * (9.0 * gdc + 19.0 * Gd[m] - 5.0 * Gd[m - 1] + Gd[m - 2]) / 24.0
        G[m + 1], Gd[m + 1] = gc, gdc
        Gdd[m + 1] = -w0sq * gc - two_over_m * (base + wg[0] * gc + wd[0] * gdc)

    # third derivative: differentiating the memory term moves the same
    # product weights onto (G', G'') since mu(tau) G(0) vanishes.  With
    # the history complete, the lag sums of all nodes are one convolution.
    mem = fftconvolve(wg, Gd[1:])[:n] + fftconvolve(wd, Gdd[1:])[:n]
    mem += gamma * Gd[0] + h * delta * Gdd[0]
    Gddd = np.empty(n + 1)
    Gddd[0] = -w0sq * Gd[0]
    Gddd[1:] = -w0sq * Gd[1:] - two_over_m * mem

    # linspace keeps the interior nodes of h * arange(n + 1) and ends on
    # tau_max exactly, so a window ending at tau_max stays inside the grid
    return np.linspace(0.0, tau_max, n + 1), G, Gd, Gdd, Gddd


def solve_propagator(
    bath: BathSpectrum,
    osc: OscillatorParams,
    lam,
    tau_max: float,
    n_points: int | None = None,
    rel_tol: float = 1e-7,
    max_refinements: int = 3,
) -> PropagatorFunction:
    """Solve the memory equation on [0, tau_max] with certified accuracy.

    The grid is halved (node count doubled) until two consecutive
    solutions agree to ``rel_tol`` relative to ``max |G|``; the finer of
    the agreeing pair is returned.  Raises AccuracyError when agreement
    is not reached within ``max_refinements`` extra halvings.
    """
    lam = _lam_value(lam)
    if not tau_max > 0.0:
        raise ValidationError("tau_max must be positive")
    if n_points is None:
        n = max(16, math.ceil(_POINTS_PER_UNIT_PHASE * osc.omega0 * tau_max))
    else:
        n = max(16, int(n_points))
    if n > _MAX_NODES:
        raise ValidationError(f"requested grid of {n} nodes exceeds {_MAX_NODES}")

    coarse = _volterra_solve(bath, osc, lam, tau_max, n)
    err = math.inf
    for _ in range(max_refinements + 1):
        if 2 * n > _MAX_NODES:
            break
        fine = _volterra_solve(bath, osc, lam, tau_max, 2 * n)
        scale_g = max(np.max(np.abs(fine[1])), 1e-300)
        scale_gd = max(np.max(np.abs(fine[2])), 1e-300)
        err = max(
            np.max(np.abs(coarse[1] - fine[1][::2])) / scale_g,
            np.max(np.abs(coarse[2] - fine[2][::2])) / scale_gd,
        )
        if err <= rel_tol:
            tau, g, gd, gdd, gddd = fine
            return PropagatorFunction(tau, g, gd, gdd, gddd, lam, bath, osc)
        coarse = fine
        n *= 2
    raise AccuracyError(
        f"propagator grid halving stalled at n={n}: successive solutions "
        f"differ by {err:.3e} relative (target {rel_tol:g})"
    )


# ----------------------------------------------------------------------
# Bromwich route


def _panel_nodes(edges: np.ndarray, n_nodes: int):
    x, w = _leggauss(n_nodes)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _even_edges(a: float, b: float, width: float) -> np.ndarray:
    if b <= a:
        return np.array([a])
    m = max(1, int(math.ceil((b - a) / width)))
    return np.linspace(a, b, m + 1)


def _bromwich_sum(tau, beta, wts, vals, sigma):
    """(e^{sigma tau}/pi) Re sum_i w_i e^{i beta_i tau} v_i, streamed in tau.

    The phase vector is advanced by ``e^{i beta h}`` from node to node and
    recomputed exactly every ``_ANCHOR_NODES`` nodes, which keeps the
    rounding drift of the recurrence near 1e-14.  A grid whose nodes
    stray from uniform spacing ``h`` by more than 1e-12 h is anchored at
    every node instead.
    """
    n = tau.size
    h = (tau[-1] - tau[0]) / (n - 1)
    uniform = np.max(np.abs(tau - (tau[0] + h * np.arange(n)))) <= 1e-12 * h
    every = _ANCHOR_NODES if uniform else 1
    step = np.exp(1j * (h * beta))
    coef = np.stack([wts * vals, wts * ((sigma + 1j * beta) * vals)], axis=1)
    out = np.empty((n, 2))
    for k in range(n):
        if k % every:
            ph *= step
        else:
            ph = np.exp(1j * (tau[k] * beta))
        out[k] = (ph @ coef).real
    return out.T * (np.exp(sigma * tau) / math.pi)


def propagator_via_laplace(
    bath: BathSpectrum,
    osc: OscillatorParams,
    lam,
    tau_grid,
    rel_tol: float = 1e-7,
) -> PropagatorFunction:
    """Independent route to ``G`` by inverting its Laplace transform.

    The renormalized pole pair is subtracted and restored analytically:
    with ``R(s) = G_hat(s) - 1/(s**2 + wR**2)`` (which decays like
    ``s**-4`` along the contour),

        G(tau) = sin(wR tau)/wR
                 + (e^{sigma tau}/pi) Re int_0^B e^{i beta tau}
                                              R(sigma + i beta) dbeta.

    A second pass with 1.5x the frequency window and doubled panel
    density must agree to ``rel_tol``, else InversionError.  ``G'`` is
    produced the same way (one extra power of s); the stored second and
    third derivatives come from spline differentiation of ``G'`` and are
    diagnostic quality only -- use the time-domain route when the
    derivatives matter.
    """
    lam = _lam_value(lam)
    tau = np.asarray(tau_grid, dtype=float)
    if tau.ndim != 1 or tau.size < 5:
        raise ValidationError("tau_grid must be 1-D with at least 5 nodes")
    if tau[0] != 0.0 or np.any(np.diff(tau) <= 0.0):
        raise ValidationError("tau_grid must increase strictly from 0")
    tau_max = float(tau[-1])
    if tau_max > 1000.0:
        raise ValidationError("tau_grid extends beyond supported range")

    w0 = osc.omega0
    wr_sq = renormalized_frequency_sq(bath, osc)
    wr = math.sqrt(wr_sq)

    if bath.eta == 0.0:
        g = np.sin(w0 * tau) / w0
        gd = np.cos(w0 * tau)
        return PropagatorFunction(
            tau, g, gd, -w0**2 * g, -w0**2 * gd, lam, bath, osc
        )

    sigma = 3.5 / tau_max
    c_inf = abs(wr_sq - w0**2)
    tol_abs = rel_tol * max(1.0, 1.0 / wr) / 30.0
    bmax = (c_inf * math.exp(3.5) / (3.0 * math.pi * tol_abs)) ** (1.0 / 3.0)
    bmax = min(max(bmax, wr + 20.0, 80.0), 5000.0)
    tail_width = min(1.5, 15.0 / tau_max)

    def invert(bcut: float, n_nodes: int, shrink: float):
        lo, hi = max(0.0, wr - 3.0), wr + 3.0
        segs = [
            _even_edges(0.0, lo, 0.5 * shrink),
            _even_edges(lo, hi, 0.5 * sigma * shrink),
            _even_edges(hi, min(60.0, bcut), 0.5 * shrink),
            _even_edges(min(60.0, bcut), bcut, tail_width * shrink),
        ]
        edges = np.unique(np.concatenate(segs))
        beta, wts = _panel_nodes(edges, n_nodes)
        s = sigma + 1j * beta
        mu_hat = mu_laplace(lam**2 * s, bath, osc)
        numer = wr_sq - w0**2 - (2.0 / osc.mass) * mu_hat
        denom = (s * s + w0**2 + (2.0 / osc.mass) * mu_hat) * (s * s + wr_sq)
        vals = numer / denom
        res = _bromwich_sum(tau, beta, wts, vals, sigma)
        g = np.sin(wr * tau) / wr + res[0]
        gd = np.cos(wr * tau) + res[1]
        return g, gd

    g1, gd1 = invert(bmax, 16, 1.0)
    g2, gd2 = invert(1.5 * bmax, 32, 0.5)
    scale = max(np.max(np.abs(g2)), 1.0 / wr)
    err = np.max(np.abs(g1 - g2)) / scale
    if err > rel_tol:
        raise InversionError(
            f"Bromwich refinement moved G by {err:.3e} relative (target {rel_tol:g})"
        )
    if abs(g2[0]) > 50.0 * rel_tol * scale or abs(gd2[0] - 1.0) > 1e-4:
        raise InversionError(
            f"inverted transform violates initial data: G(0)={g2[0]:.3e}, "
            f"G'(0)-1={gd2[0] - 1.0:.3e}"
        )
    g2[0] = 0.0
    gd2[0] = 1.0
    sp = CubicSpline(tau, gd2)
    gdd = sp(tau, 1)
    gddd = sp(tau, 2)
    return PropagatorFunction(tau, g2, gd2, gdd, gddd, lam, bath, osc)
