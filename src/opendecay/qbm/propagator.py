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
    resolve, but its monomial moments have closed forms).  The first
    three nodes come from a trapezoidal PECE run on a 16x/32x finer
    subgrid, Richardson extrapolated; the later ones from an
    Adams-Bashforth-4 predictor with two Adams-Moulton-4 corrector
    sweeps.  Either step is linear with constant coefficients in the
    last nodes and in the memory sum, so each run is one causal 3x3
    matrix power-series equation ``M(z) X(z) = R(z)``.  It is solved by
    Newton's iteration for ``M^{-1}`` with FFT products rather than node
    by node, which gives the stepped solution to round-off.  Once the
    history is complete, ``G'''`` follows from the same product weights
    applied to ``(G', G'')``, all nodes at once.  Every memory sum, on
    the startup nodes and for ``G'''``, is one call of ``_convolve``, the
    package's only linear convolution.  The
    whole solve is repeated on a half-step grid and the two solutions
    compared, so the returned accuracy is certified rather than hoped for.

``propagator_via_laplace``
    Numerical Bromwich inversion of
    ``G_hat(s) = 1 / (s**2 + w0**2 + 2 mu_hat(lam**2 s)/M)`` with the
    free-oscillator pole pair subtracted analytically, used to
    cross-check the time-domain solve.  The contour integral is a
    Filon-Legendre sum: on each panel the transform is expanded in
    Legendre polynomials, and its product with ``e^{i beta tau}`` is
    integrated exactly through spherical Bessel functions, so the panels
    resolve the transform alone, whatever the time grid (Filon, Proc. R.
    Soc. Edinburgh 49, 38 (1928); Iserles and Norsett, Proc. R. Soc. A
    461, 1383 (2005)).  The sum runs over bounded blocks of times.  Only
    ``G`` (and, with reduced accuracy, its derivatives) should be consumed
    from this route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_triangular
from scipy.special import sici

from .._quad import _leggauss, legendre_projection
from ..errors import AccuracyError, InversionError, ValidationError
from ..model import BathSpectrum, OscillatorParams, _checked_finite, _checked_grid
from ..spectral import renormalized_frequency_sq
from .kernels import _lam_value, mu_laplace

__all__ = [
    "PropagatorFunction",
    "solve_propagator",
    "propagator_via_laplace",
]

_POINTS_PER_UNIT_PHASE = 409.6  # 4096 nodes per 10/w0 of elapsed phase
_MAX_NODES = 1 << 20
_REL_TOL = 1e-7  # agreement both routes certify G to, relative
_MAX_REFINEMENTS = 3  # grid halvings past the first before the solve refuses
_MAX_TAU = 1000.0  # longest tau_grid the Bromwich route accepts
_GEOMETRIC_RATIO = 1.25  # Bromwich panel width over its left edge beyond the pole pair
_MILLER_EXTRA = 20  # orders above the highest needed where the Bessel ratios start
_BLOCK_ENTRIES = 1 << 18  # panel-order-time entries in one block of the Filon sum
_DENSE_TERMS = 16  # terms of M^{-1} found by a dense solve before Newton


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
        tau = _checked_grid(self.tau_grid, "tau_grid", min_nodes=5, start=0.0)
        arrays = {"G": self.G, "G_dot": self.G_dot, "G_ddot": self.G_ddot,
                  "G_dddot": self.G_dddot}
        for name, arr in arrays.items():
            if np.shape(arr) != tau.shape:
                raise ValidationError(f"{name} does not match the tau grid")
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


def _trapezoid_step(h: float, w0sq: float, two_over_m: float, w0: float):
    """One trapezoidal PECE step (four corrector sweeps) of the startup grid."""

    def step(g, gd, gdd, base):  # values at node m; base: lag sum of node m + 1
        gs = g[0] + h * gd[0] + 0.5 * h * h * gdd[0]
        gds = gd[0] + h * gdd[0]
        for _ in range(4):
            gdds = -w0sq * gs - two_over_m * (base + w0 * gs)
            gds = gd[0] + 0.5 * h * (gdd[0] + gdds)
            gs = g[0] + 0.5 * h * (gd[0] + gds)
        return gs, gds, -w0sq * gs - two_over_m * (base + w0 * gs)

    return step


def _adams_step(h: float, w0sq: float, two_over_m: float, wg0: float, wd0: float):
    """One AB4 predictor and two AM4 corrector sweeps from node m to m + 1."""

    def step(g, gd, gdd, base):  # index k: node m - k; base: lag sum of node m + 1
        gc = g[0] + h * (55.0 * gd[0] - 59.0 * gd[1] + 37.0 * gd[2] - 9.0 * gd[3]) / 24.0
        gdc = gd[0] + h * (55.0 * gdd[0] - 59.0 * gdd[1] + 37.0 * gdd[2] - 9.0 * gdd[3]) / 24.0
        for _ in range(2):
            gddc = -w0sq * gc - two_over_m * (base + wg0 * gc + wd0 * gdc)
            gdc = gd[0] + h * (9.0 * gddc + 19.0 * gdd[0] - 5.0 * gdd[1] + gdd[2]) / 24.0
            gc = g[0] + h * (9.0 * gdc + 19.0 * gd[0] - 5.0 * gd[1] + gd[2]) / 24.0
        return gc, gdc, -w0sq * gc - two_over_m * (base + wg0 * gc + wd0 * gdc)

    return step


def _step_map(step, nodes: int):
    """Coefficients ``(K, v)`` of a linear step over ``nodes`` past nodes.

    A step of the schemes above is linear with constant coefficients in
    the last nodes ``x_{m-k} = (G, G', G'')_{m-k}``, k < nodes, and in the
    lag sum ``b`` of the older history: ``x_{m+1} = sum_k K[k] x_{m-k} + v b``.
    The columns are read off by pushing unit vectors through the step's
    own arithmetic.
    """
    unit = np.eye(3 * nodes + 1)
    x = unit[:-1].reshape(nodes, 3, -1)  # x[k, c]: component c of node m - k
    out = np.stack(step(x[:, 0], x[:, 1], x[:, 2], unit[-1]))
    return out[:, :-1].reshape(3, nodes, 3).transpose(1, 0, 2), out[:, -1]


def _startup_nodes(h: float, w0sq: float, mass: float, bath, osc, lam: float):
    """(G, G') at tau = h, 2h, 3h from Richardson-paired fine PECE runs."""

    def run(nsub: int):
        # the PECE recursion over nodes 1 .. nsub as one causal solve; only
        # node 1 sees the initial data x_0 = (0, 1, 0)
        hf = 3.0 * h / nsub
        w = _linear_weights(nsub, hf, bath, osc, lam)
        K, v = _step_map(_trapezoid_step(hf, w0sq, 2.0 / mass, w[0]), 1)
        rhs = np.zeros((3, nsub))
        rhs[:, 0] = K[0][:, 1]
        x = _causal_solve(K, v, np.stack([w, np.zeros(nsub)]), rhs)
        return x[0], x[1]

    g16, gd16 = run(48)
    g32, gd32 = run(96)
    i16 = np.array([15, 31, 47])  # nodes 16, 32, 48
    i32 = np.array([31, 63, 95])
    g = (4.0 * g32[i32] - g16[i16]) / 3.0
    gd = (4.0 * gd32[i32] - gd16[i16]) / 3.0
    return g, gd


def _convolve(a, b, m: int):
    """First ``m`` terms of the linear convolution of two real 1-D arrays.

    The one linear convolution of the package: the Volterra memory sums
    here and the Theta noise sums of :mod:`.coefficients`.  It is the rfft
    product at the next fast real length, step for step SciPy's FFT
    convolution of real 1-D input, whose values it returns to the bit.
    """
    n = next_fast_len(a.size + b.size - 1, real=True)
    return irfft(rfft(a, n) * rfft(b, n), n)[:m]


def _product(a_hat, b_hat, size: int):
    """Coefficients of A(z) B(z) from the rfft stacks of a (3, 3) and a (3, c) series."""
    return irfft(np.einsum("ijf,jcf->icf", a_hat, b_hat), size)


def _causal_solve(K, v, w, rhs):
    """Solve ``M(z) X(z) = R(z) mod z^N`` for the 3-vector series X.

    ``M(z) = I - sum_k K[k-1] z^k - v w(z)^T`` with the lag row
    ``w_l = (w[0, l], w[1, l], 0)`` for l >= 1 (entries l = 0 are
    ignored); ``rhs`` holds R as (3, N).  The first terms of
    ``Y = M^{-1}`` come from a dense block-triangular solve; Newton's
    iteration ``Y <- Y - Y (M Y - I)`` then doubles the number of correct
    terms per pass up to ``ceil(N/2)`` (Brent and Kung, J. ACM 25, 581
    (1978)), and one more correction ``X <- X + Y (R - M X)`` takes X
    from half to full length.  Products are cyclic rfft products of
    (3, c, len) stacks, sized so that wrap-around lands only on terms
    already known.
    """
    n = rhs.shape[1]
    half = (n + 1) // 2
    w = np.array(w, dtype=float)
    w[:, 0] = 0.0  # the lag-0 weights belong to K and v

    def tail(z, z_hat, lo, hi, size):
        # (M Z)[lo:hi] for a series Z of length lo (zero from lo on); the
        # lag product wraps only onto terms below lo
        w_hat = rfft(w[:, :size], size)
        wz = irfft(w_hat[0] * z_hat[0] + w_hat[1] * z_hat[1], size)[..., lo:hi]
        out = -v[:, None, None] * wz
        for k in range(1, len(K) + 1):
            first = max(0, k - lo)  # rows lo + r, r < k, reach back to Z[lo + r - k]
            last = min(k, hi - lo)
            if first < last:
                out[..., first:last] -= np.einsum(
                    "ij,jcr->icr", K[k - 1], z[..., lo - k + first : lo - k + last]
                )
        return out

    # dense start: block column 0 of the inverse of the lower-triangular
    # block-Toeplitz matrix of M's first terms
    m = min(half, _DENSE_TERMS)
    coef = np.zeros((m, 3, 3))
    coef[:, :, :2] = -v[None, :, None] * w[:, :m].T[:, None, :]
    coef[0] += np.eye(3)
    coef[1 : len(K) + 1] -= K[: m - 1]
    offset = np.subtract.outer(np.arange(m), np.arange(m))
    blocks = np.where((offset >= 0)[:, :, None, None], coef[np.maximum(offset, 0)], 0.0)
    e0 = np.zeros((3 * m, 3))
    e0[:3] = np.eye(3)
    y = solve_triangular(blocks.transpose(0, 2, 1, 3).reshape(3 * m, 3 * m), e0, lower=True)
    y = y.reshape(m, 3, 3).transpose(1, 2, 0)

    while y.shape[2] < half:
        lo = y.shape[2]
        hi = min(2 * lo, half)
        size = next_fast_len(hi, real=True)
        y_hat = rfft(y, size)
        err = tail(y, y_hat, lo, hi, size)  # (M Y - I)[lo:hi]; lower terms are 0
        y = np.concatenate([y, -_product(y_hat, rfft(err, size), size)[..., : hi - lo]], 2)

    size = next_fast_len(n, real=True)
    y_hat = rfft(y, size)
    x = _product(y_hat, rfft(rhs[:, None, :half], size), size)[..., :half]
    res = rhs[:, None, half:] - tail(x, rfft(x, size), half, n, size)
    x = np.concatenate([x, _product(y_hat, rfft(res, size), size)[..., : n - half]], 2)
    return x[:, 0, :]


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

    def memory(a, ad):
        # product-integration memory sum at nodes 1 .. len(a) - 1 applied
        # to the history (a, ad), the tau = 0 node through gamma/delta
        m = a.size - 1
        out = _convolve(wg[:m], a[1:], m) + _convolve(wd[:m], ad[1:], m)
        return out + gamma[:m] * a[0] + h * delta[:m] * ad[0]

    G = np.zeros(n + 1)
    Gd = np.zeros(n + 1)
    Gdd = np.zeros(n + 1)
    Gd[0] = 1.0
    G[1:4], Gd[1:4] = _startup_nodes(h, w0sq, mass, bath, osc, lam)
    Gdd[1:4] = -w0sq * G[1:4] - two_over_m * memory(G[:4], Gd[:4])

    # From node 4 on, one AB4/AM4 step is linear with constant
    # coefficients: x_j = (G, G', G'')_j obeys x_j = sum_k K_k x_{j-k} + v b_j,
    # where b_j is the memory sum over nodes j-1 .. 0.  Taking x_4 .. x_n as
    # one series X(z), this is M(z) X(z) = R(z) with
    # M = I - sum_k K_k z^k - v w(z)^T, and R holds every term on the known
    # nodes 0 .. 3.  Do not apply (I - sum_k K_k z^k)^{-1} as a rational
    # filter (lfilter): its determinant has a double root on the unit
    # circle, and the recursion loses digits (1.7e-10 relative).
    # The whole matrix series is inverted instead.
    K, v = _step_map(_adams_step(h, w0sq, two_over_m, wg[0], wd[0]), 4)
    known = np.stack([G[:4], Gd[:4], Gdd[:4]])
    b_known = gamma[3:n] * G[0] + h * delta[3:n] * Gd[0]
    for i in (1, 2, 3):
        b_known += wg[4 - i : n + 1 - i] * G[i] + wd[4 - i : n + 1 - i] * Gd[i]
    rhs = np.outer(v, b_known)
    for k in range(1, 5):
        rows = min(k, n - 3)  # node 3 + r, r < k, reaches back to node 3 + r - k
        rhs[:, :rows] += K[k - 1] @ known[:, 4 - k : 4 - k + rows]
    G[4:], Gd[4:], Gdd[4:] = _causal_solve(K, v, np.stack([wg, wd]), rhs)

    # third derivative: differentiating the memory term moves the same
    # product weights onto (G', G'') since mu(tau) G(0) vanishes.
    Gddd = np.empty(n + 1)
    Gddd[0] = -w0sq * Gd[0]
    Gddd[1:] = -w0sq * Gd[1:] - two_over_m * memory(Gd, Gdd)

    # linspace keeps the interior nodes of h * arange(n + 1) and ends on
    # tau_max exactly, so a window ending at tau_max stays inside the grid
    return np.linspace(0.0, tau_max, n + 1), G, Gd, Gdd, Gddd


def solve_propagator(
    bath: BathSpectrum,
    osc: OscillatorParams,
    lam,
    tau_max: float,
) -> PropagatorFunction:
    """Solve the memory equation on [0, tau_max] with certified accuracy.

    The first grid has ``_POINTS_PER_UNIT_PHASE`` nodes per unit of
    ``omega0 * tau_max`` (at least 16).  It is halved (node count
    doubled) until two consecutive solutions agree to ``_REL_TOL``
    relative to ``max |G|``; the finer of the agreeing pair is returned.
    Raises AccuracyError when agreement is not reached within
    ``_MAX_REFINEMENTS`` extra halvings or before a halving would exceed
    ``_MAX_NODES`` nodes, and ValidationError when already the first
    halving would exceed it or ``tau_max`` is not finite and positive.
    """
    lam = _lam_value(lam)
    tau_max = _checked_finite("tau_max", tau_max, "> 0")
    n = max(16, math.ceil(_POINTS_PER_UNIT_PHASE * osc.omega0 * tau_max))
    if 2 * n > _MAX_NODES:
        raise ValidationError(
            f"a grid of n={n} nodes cannot be certified: its first halving "
            f"needs {2 * n} nodes, beyond the budget _MAX_NODES={_MAX_NODES}"
        )

    coarse = _volterra_solve(bath, osc, lam, tau_max, n)
    err = math.inf
    for _ in range(_MAX_REFINEMENTS + 1):
        if 2 * n > _MAX_NODES:
            raise AccuracyError(
                f"propagator grid halving reached the budget _MAX_NODES="
                f"{_MAX_NODES} at n={n}: successive solutions differ by "
                f"{err:.3e} relative (target {_REL_TOL:g})"
            )
        fine = _volterra_solve(bath, osc, lam, tau_max, 2 * n)
        scale_g = max(np.max(np.abs(fine[1])), 1e-300)
        scale_gd = max(np.max(np.abs(fine[2])), 1e-300)
        err = max(
            np.max(np.abs(coarse[1] - fine[1][::2])) / scale_g,
            np.max(np.abs(coarse[2] - fine[2][::2])) / scale_gd,
        )
        if err <= _REL_TOL:
            tau, g, gd, gdd, gddd = fine
            return PropagatorFunction(tau, g, gd, gdd, gddd, lam, bath, osc)
        coarse = fine
        n *= 2
    raise AccuracyError(
        f"propagator grid halving stalled at n={n} after {_MAX_REFINEMENTS} "
        f"refinements: successive solutions differ by {err:.3e} relative "
        f"(target {_REL_TOL:g})"
    )


# ----------------------------------------------------------------------
# Bromwich route


def _spherical_jn(order: int, z):
    """``j_0(z) .. j_{order-1}(z)`` of real ``z >= 0``, stacked on a new first axis.

    Where ``k <= z`` the upward recurrence ``j_k = (2k-1)/z j_{k-1} - j_{k-2}``
    from the closed forms of ``j_0`` and ``j_1`` is stable.  Where ``k > z``
    it is not, and ``j_k = r_k j_{k-1}`` takes the ratios
    ``r_k = z / (2k+1 - z r_{k+1})`` of Miller's downward recurrence, started
    from ``r = 0`` ``_MILLER_EXTRA`` orders above the highest one needed.
    Below the first zero of ``j_{k-1}`` these ratios lie in [0, 1), so no
    denominator vanishes where they are used.
    """
    z = np.asarray(z, dtype=float)
    pos = z > 0.0
    inv = 1.0 / np.where(pos, z, 1.0)
    out = np.empty((order,) + z.shape)
    out[0] = np.where(pos, np.sin(z) * inv, 1.0)
    ratio = np.zeros_like(out)
    low = z < order - 1  # elsewhere every order is reached upward
    if np.any(low):
        zl = z[low]
        r = np.zeros_like(zl)
        # at orders k <= z the ratio meets the poles of j_k / j_{k-1}; those
        # values are never used, and a pole only turns the next one into -0
        with np.errstate(divide="ignore", over="ignore"):
            for k in range(order + _MILLER_EXTRA, 0, -1):
                r = zl / (2 * k + 1 - zl * r)
                if k < order:
                    ratio[k][low] = r
    for k in range(1, order):
        if k == 1:
            up = (out[0] - np.cos(z)) * inv
        else:
            up = (2 * k - 1) * inv * out[k - 1] - out[k - 2]
        out[k] = np.where(k <= z, up, ratio[k] * out[k - 1])
    return out


def _contour_panels(wr: float, sigma: float, bcut: float, shrink: float, kink):
    """Midpoints and half-widths of panels covering [0, bcut], sized by ``R`` alone.

    Panels are 0.5 wide below the pole pair, 0.5 sigma wide across
    ``wr +- 3`` and geometric beyond (each ``_GEOMETRIC_RATIO`` times its
    left edge).  A ``kink`` of ``R`` (the log branch point a distance sigma
    from the contour at ``cutoff/lam**2`` of the hard cutoff) is approached
    and left geometrically down to 0.5 sigma.  ``shrink`` 0.5 halves the
    widths and takes the square root of the ratio.  Panels of one width
    share one half-width value exactly, so the Bessel functions of the
    Filon sum are computed once per width.
    """
    lo, hi = max(0.0, wr - 3.0), wr + 3.0
    grow = _GEOMETRIC_RATIO**shrink - 1.0
    fine = 0.5 * sigma * shrink
    stops = sorted(x for x in (lo, hi, kink, bcut) if x is not None and 0.0 < x <= bcut)
    mid, half = [], []
    b = 0.0
    for stop in stops:
        while b < stop:
            width = 0.5 * shrink if b < lo else fine if b < hi else grow * b
            if kink is not None:
                width = min(width, max(fine, grow * abs(kink - b)))
            width = min(width, stop - b)
            mid.append(b + 0.5 * width)
            half.append(0.5 * width)
            b = stop if width == stop - b else b + width
    return np.array(mid), np.array(half)


def _bromwich_sum(tau, mid, half, vals, sigma):
    """``(e^{sigma tau}/pi) Re int e^{i beta tau} f(beta) dbeta`` by Filon panels.

    ``vals[c, p]`` holds integrand ``c`` at the n Gauss-Legendre nodes of
    panel ``p``, ``[mid - half, mid + half]``.  On a panel ``[m - h, m + h]``
    each integrand is replaced by the Legendre expansion ``sum_k a_k P_k`` of
    its degree ``n - 1`` interpolant, whose product with the phase
    integrates exactly (DLMF 10.60.7):

        int e^{i beta tau} sum_k a_k P_k((beta - m)/h) dbeta
            = h e^{i m tau} sum_k a_k 2 i^k j_k(h tau).

    The panels thus resolve ``f``, not ``e^{i beta tau}``, and any tau grid
    serves.  Returns one row per integrand.  The sum runs over blocks of
    tau of at most ``_BLOCK_ENTRIES`` panel-order-time entries, so no block
    grows with the grid.
    """
    c, _, n = vals.shape
    coef = vals @ legendre_projection(n).T
    coef *= 2.0 * half[:, None] * np.array([1.0, 1j, -1.0, -1j])[np.arange(n) % 4]
    coef = np.concatenate([coef.real, coef.imag]).transpose(1, 2, 0)  # (panel, order, 2c)
    widths, which = np.unique(half, return_inverse=True)
    out = np.empty((c, tau.size))
    step = max(1, _BLOCK_ENTRIES // (half.size * n))
    for lo in range(0, tau.size, step):
        t = tau[lo : lo + step]
        jn = _spherical_jn(n, np.outer(widths, t)).transpose(1, 2, 0)  # (width, time, order)
        part = np.matmul(jn[which], coef)
        phase = np.outer(mid, t)
        out[:, lo : lo + step] = (np.einsum("pt,ptc->ct", np.cos(phase), part[..., :c])
                                  - np.einsum("pt,ptc->ct", np.sin(phase), part[..., c:]))
    return out * (np.exp(sigma * tau) / math.pi)


def propagator_via_laplace(
    bath: BathSpectrum,
    osc: OscillatorParams,
    lam,
    tau_grid,
) -> PropagatorFunction:
    """Independent route to ``G`` by inverting its Laplace transform.

    The renormalized pole pair is subtracted and restored analytically:
    with ``R(s) = G_hat(s) - 1/(s**2 + wR**2)`` (which decays like
    ``s**-4`` along the contour),

        G(tau) = sin(wR tau)/wR
                 + (e^{sigma tau}/pi) Re int_0^B e^{i beta tau}
                                              R(sigma + i beta) dbeta.

    The integral is summed by Filon-Legendre panels (``_bromwich_sum``)
    laid out by ``_contour_panels``: their widths follow ``R``, not tau,
    so the node count does not grow with ``tau_grid[-1]``.  A second pass
    with 1.5x the frequency window, halved panels and 24 instead of 16
    nodes per panel must agree to ``_REL_TOL``, the target of the
    time-domain route, else InversionError; so must the initial data
    G(0) = 0, G'(0) = 1, and a NaN fails either check.  ``G'`` is
    produced the same way (one extra power of s); the stored second and
    third derivatives come from spline differentiation of ``G'`` and are
    diagnostic quality only -- use the time-domain route when the
    derivatives matter.  A bad grid raises ValidationError naming
    ``tau_grid`` and the offending node unless it is 1-D, finite and
    strictly increasing from 0 over at least 5 nodes, and naming the limit
    if it ends past ``_MAX_TAU``.
    """
    lam = _lam_value(lam)
    tau = _checked_grid(tau_grid, "tau_grid", min_nodes=5, start=0.0)
    tau_max = float(tau[-1])
    if tau_max > _MAX_TAU:
        raise ValidationError(
            f"tau_grid extends beyond supported range: last node {tau_max} > {_MAX_TAU:g}"
        )

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
    tol_abs = _REL_TOL * max(1.0, 1.0 / wr) / 30.0
    bmax = (c_inf * math.exp(3.5) / (3.0 * math.pi * tol_abs)) ** (1.0 / 3.0)
    bmax = min(max(bmax, wr + 20.0, 80.0), 5000.0)
    kink = bath.cutoff / lam**2 if bath.shape == "hard" else None

    def invert(bcut: float, n_nodes: int, shrink: float):
        mid, half = _contour_panels(wr, sigma, bcut, shrink, kink)
        beta = (mid[:, None] + half[:, None] * _leggauss(n_nodes)[0]).ravel()
        s = sigma + 1j * beta
        mu_hat = mu_laplace(lam**2 * s, bath, osc)
        numer = wr_sq - w0**2 - (2.0 / osc.mass) * mu_hat
        denom = (s * s + w0**2 + (2.0 / osc.mass) * mu_hat) * (s * s + wr_sq)
        r = numer / denom
        vals = np.stack([r, s * r]).reshape(2, -1, n_nodes)
        res = _bromwich_sum(tau, mid, half, vals, sigma)
        g = np.sin(wr * tau) / wr + res[0]
        gd = np.cos(wr * tau) + res[1]
        return g, gd

    g1, gd1 = invert(bmax, 16, 1.0)
    g2, gd2 = invert(1.5 * bmax, 24, 0.5)
    scale = max(np.max(np.abs(g2)), 1.0 / wr)
    err = np.max(np.abs(g1 - g2)) / scale
    if not err <= _REL_TOL:
        raise InversionError(
            f"Bromwich refinement moved G by {err:.3e} relative (target {_REL_TOL:g})"
        )
    if not (abs(g2[0]) <= 50.0 * _REL_TOL * scale and abs(gd2[0] - 1.0) <= 1e-4):
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
