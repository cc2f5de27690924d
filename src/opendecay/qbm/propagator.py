"""Fundamental solution of the damped-oscillator memory equation.

The reduced dynamics are organized around a single scalar function
``G(tau)`` solving the linear Volterra integro-differential equation

    G''(tau) + w0**2 G(tau) + (2/M) int_0^tau mu(u) G(tau - u) du = 0,
    G(0) = 0,  G'(0) = 1,

with the dissipation kernel ``mu`` of :mod:`opendecay.qbm.kernels`.
Everything else (the time-local coefficients, the two-point kernel
exponents) is assembled from ``G`` and its first three derivatives.
Each route stores ``G`` and its first four derivatives at the nodes, and
:class:`PropagatorFunction` reads every one of the first four between
the nodes as the cubic Hermite interpolant on the next.

Two independent routes are provided:

``solve_propagator``
    Direct time stepping.  The memory integral is discretized by
    *product integration*: on every step-size-``h`` panel the kernel
    ``mu`` is integrated exactly against the cubic Hermite interpolant
    of ``G`` (the kernel is concentrated in a boundary layer of width
    ``lam**2/cutoff`` that no polynomial rule on the ``G`` grid could
    resolve, but its monomial moments have closed forms, bar one sine
    integral of the hard cutoff taken by panel quadrature).  This one
    product rule (``_lag_weights``) carries every memory sum of the solve.
    The first three nodes are the first Picard iterate of the equation in
    closed form (``_startup_nodes``), its memory integrals running sums of
    the same kernel moments; the later ones come from an Adams-Bashforth-4
    predictor with two Adams-Moulton-4 corrector sweeps.  That step is
    linear with constant coefficients in the last four nodes and in the
    memory sum, so the march is one causal 3x3 matrix power-series
    equation ``M(z) X(z) = R(z)``, whose right side ``_march`` builds from
    the known nodes.  It is solved by Newton's iteration for ``M^{-1}``
    with FFT products rather than node by node, which gives the stepped
    solution to round-off.  The whole solve of ``(G, G', G'')`` is
    repeated on a half-step grid and the two solutions' ``G`` and ``G'``
    compared, so the returned accuracy is certified rather than hoped for.
    On the certified grid alone, once, ``G'''`` follows from the same
    product weights applied to ``(G', G'')``, all nodes at once, and
    ``G''''`` from them applied to ``(G'', G''')`` plus ``mu(tau)`` in
    closed form.  The memory sums at the first three nodes and for
    ``G'''`` and ``G''''`` are each one call of ``_convolve``, the
    package's only linear convolution.

``propagator_via_laplace``
    Numerical Bromwich inversion of
    ``G_hat(s) = 1 / (s**2 + w0**2 + 2 mu_hat(lam**2 s)/M)`` with the
    free-oscillator pole pair subtracted analytically, used to
    cross-check the time-domain solve.  The contour integral is the
    package's Filon-Legendre sum, ``_quad.filon_sum``: on each panel the
    transform is expanded in Legendre polynomials, and its product with
    ``e^{i beta tau}`` is integrated exactly, so the panels resolve the
    transform alone, whatever the time grid.  Only ``G`` (and, with
    reduced accuracy, its derivatives) should be consumed from this route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .._cubic import hermite, not_a_knot_slopes
from .._quad import _leggauss, filon_sum
from ..errors import AccuracyError, InversionError, ValidationError
from ..model import (
    BathSpectrum,
    OscillatorParams,
    _checked_all_finite,
    _checked_coupling,
    _checked_finite,
    _checked_grid,
)
from ..spectral import renormalized_frequency_sq
from .kernels import dissipation_kernel, mu_laplace

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
_DENSE_TERMS = 16  # terms of M^{-1} found by forward substitution before Newton


@dataclass(frozen=True)
class PropagatorFunction:
    """``G`` and its first four derivatives on a uniform grid, interpolated locally.

    ``G[0] == 0.0`` and ``G_dot[0] == 1.0`` hold exactly; construction
    refuses data that merely approximates the initial conditions, and
    names the array and its first node when an entry is NaN or infinite.
    ``g``, ``g_dot``, ``g_ddot`` and ``g_dddot`` evaluate the cubic
    Hermite interpolant of each array with the next one as its
    derivative, on the grid interval that holds each time. Each raises
    ValidationError naming ``tau`` and its first entry that is NaN or
    outside ``[0, tau_max]``.
    """

    tau_grid: np.ndarray
    G: np.ndarray
    G_dot: np.ndarray
    G_ddot: np.ndarray
    G_dddot: np.ndarray
    G_ddddot: np.ndarray
    lam: float
    bath: BathSpectrum
    osc: OscillatorParams

    def __post_init__(self):
        tau = _checked_grid(self.tau_grid, "tau_grid", min_nodes=5, start=0.0)
        arrays = ("G", "G_dot", "G_ddot", "G_dddot", "G_ddddot")
        for name in arrays:
            if np.shape(getattr(self, name)) != tau.shape:
                raise ValidationError(f"{name} does not match the tau grid")
            _checked_all_finite(getattr(self, name), name)
        if self.G[0] != 0.0 or self.G_dot[0] != 1.0:
            raise ValidationError(
                "initial conditions G(0)=0, G'(0)=1 must hold exactly; got "
                f"G(0)={self.G[0]!r}, G'(0)={self.G_dot[0]!r}"
            )
        for name in ("tau_grid",) + arrays:
            a = np.ascontiguousarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def _times(self, tau):
        t = np.asarray(tau, dtype=float)
        inside = (t >= 0.0) & (t <= self.tau_max)  # False for NaN
        if not inside.all():
            i = int(np.argmin(inside.ravel()))
            raise ValidationError(
                f"tau must lie in the solved window [0, {self.tau_max:g}]; "
                f"entry {i} is {t.ravel()[i]}"
            )
        return t

    def g(self, tau):
        return hermite(self.tau_grid, self.G, self.G_dot, self._times(tau))

    def g_dot(self, tau):
        return hermite(self.tau_grid, self.G_dot, self.G_ddot, self._times(tau))

    def g_ddot(self, tau):
        return hermite(self.tau_grid, self.G_ddot, self.G_dddot, self._times(tau))

    def g_dddot(self, tau):
        return hermite(self.tau_grid, self.G_dddot, self.G_ddddot, self._times(tau))

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
# At the hard cutoff, with x = c u and c = cutoff / lam**2, the first
# antiderivative g_1 = Si(x) - sin x - pi/2 needs the sine integral.
# ``_antiderivatives`` returns only its elementary part -sin x there, and
# ``_raw_moments`` adds the panel integral of sin t / t by Gauss-Legendre
# quadrature (``_sine_integral_panels``), so no special function is called.
# The exact difference of sin x stays at the edges: integrating
# sin t / t - cos t instead loses digits on the wide panels, where rounding
# the nodes near x ~ 1e3 moves cos.
#
# sin t / t is entire, and its k-th derivative is at most 1/(k+1) in size,
# so the n-node rule's remainder on a panel w wide is at most
# w**(2n+1) (n!)**4 / ((2n+1)**2 ((2n)!)**3).  Each rule below keeps that
# under 1e-18 w up to its reach in x.  A panel of the first grid spans
# cutoff / (409.6 w0 lam**2) rad: 0.076 at lam 0.4 and 4.9 at lam 0.05 with
# the default bath, so the narrow panels of large lam take 4 nodes.
_SI_RULES = ((4, 0.1), (8, 2.4), (16, 15.0))  # (nodes, widest panel in x)
# Quadrature points of one sine-integral pass: the 16-node rule over a grid
# at the node budget.  Split panels take ~16/15 points per radian of
# x = cutoff tau / lam**2, so at cutoff 5 and tau_max 2.9 this refuses lam
# below ~1e-3.
_MAX_SI_POINTS = 16 * _MAX_NODES


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
        us = np.where(small, 1.0, u)
        sx, cx = np.sin(x), np.cos(x)
        x2 = x * x
        g0 = np.where(small, -c * (1.0 - x2 / 6.0 + x2 * x2 / 120.0), -sx / us)
        g1 = -sx  # the Si(x) part of g_1 is added per panel by _raw_moments
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


def _si_rule(width: float):
    """``(nodes, parts)`` of ``_SI_RULES`` for panels ``width`` wide in x.

    ``parts`` is a float, so an infinite or NaN width gives an infinite or
    NaN count that the budget refuses.
    """
    nodes, reach = next((rule for rule in _SI_RULES if width <= rule[1]), _SI_RULES[-1])
    return nodes, float(np.ceil(width / reach))


def _sine_integral_panels(x):
    """``int sin t / t dt`` over each panel of a uniform grid ``x >= 0``.

    The first rule of ``_SI_RULES`` that reaches across a panel is applied
    to each; panels wider than every reach are split into equal parts for
    the last one.  The nodes are interior, so ``t > 0`` at every one.
    """
    n = x.size - 1
    nodes, parts = _si_rule((x[-1] - x[0]) / n)
    if parts > 1:
        x = np.linspace(x[0], x[-1], n * int(parts) + 1)
    xi, wi = _leggauss(nodes)
    half = 0.5 * np.diff(x)
    t = x[:-1] + (1.0 + xi)[:, None] * half  # (nodes, panels): long rows for numpy's loops
    return (half * (wi @ (np.sin(t) / t))).reshape(n, -1).sum(axis=1)


def _raw_moments(edges, bath, osc, lam):
    """Panel integrals of mu(u) * u**j, j = 0..3, one row per j.

    Row j is ``-K`` times the difference of ``g_j`` across each panel.  At
    the hard cutoff row 1 is ``-K (int sin t / t dt - (sin x_hi - sin x_lo))``
    over the panel's ``x = cutoff u / lam**2``; the integral is the
    quadrature of ``_sine_integral_panels``, rows 0, 2 and 3 stay closed
    forms, and the exponential cutoff is closed form throughout.
    ValidationError names ``lam`` and the cutoff when that quadrature would
    take more than ``_MAX_SI_POINTS`` points, checked before any row is
    formed, and when a row is not finite: at the exponential cutoff
    ``(u / a)**2``, with ``a = lam**2 / cutoff``, overflows for ``lam``
    below ~1e-77 at cutoff 5 and tau 2.9.
    """
    if bath.eta == 0.0:
        return np.zeros((4, len(edges) - 1))
    k0 = osc.mass * osc.omega0 * bath.eta * lam**2 / (2.0 * math.pi)
    # an overflow is refused below, by name, before any solve reads it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if bath.shape == "hard":
            x = bath.cutoff / lam**2 * edges
            points = math.prod(_si_rule((x[-1] - x[0]) / (x.size - 1))) * (x.size - 1)
            if not points <= _MAX_SI_POINTS:
                raise ValidationError(
                    f"lam={lam:g} is too small for the hard cutoff={bath.cutoff:g}: its sine "
                    f"integral up to tau={edges[-1]:g} needs {points:.3e} quadrature "
                    f"points, beyond the budget _MAX_SI_POINTS={_MAX_SI_POINTS}"
                )
        rows = np.stack([np.diff(g) for g in _antiderivatives(edges, bath, osc, lam)])
    if not np.isfinite(rows).all():
        raise ValidationError(
            f"lam={lam:g} is too small for the {bath.shape} cutoff={bath.cutoff:g}: "
            f"its kernel moments up to tau={edges[-1]:g} overflow"
        )
    if bath.shape == "hard":
        rows[1] += _sine_integral_panels(x)
    return -k0 * rows


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


def _lag_weights(n: int, h: float, bath, osc, lam: float):
    """The cubic-Hermite rule collected per lag: ``(wg, wd, gamma, hdelta)``.

    ``wg[l]``, ``wd[l]`` multiply (G, G') at lag l < n; the tau = 0 node
    keeps its own coefficients, ``gamma[j - 1]`` on G(0) and
    ``hdelta[j - 1]`` (h delta) on G'(0) in the memory sum at node j.
    """
    alpha, beta, gamma, delta = _hermite_weights(n, h, bath, osc, lam)
    wg = alpha.copy()
    wg[1:] += gamma[:-1]
    wd = h * beta
    wd[1:] += h * delta[:-1]
    return wg, wd, gamma, h * delta


def _memory(weights, a, ad):
    """Memory sum at nodes 1 .. len(a) - 1 of the history (a, ad), all at once."""
    wg, wd, gamma, hdelta = weights
    m = a.size - 1
    out = _convolve(wg[:m], a[1:], m) + _convolve(wd[:m], ad[1:], m)
    return out + gamma[:m] * a[0] + hdelta[:m] * ad[0]


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

    The Adams step above is linear with constant coefficients in
    the last nodes ``x_{m-k} = (G, G', G'')_{m-k}``, k < nodes, and in the
    lag sum ``b`` of the older history: ``x_{m+1} = sum_k K[k] x_{m-k} + v b``.
    The columns are read off by pushing unit vectors through the step's
    own arithmetic.
    """
    unit = np.eye(3 * nodes + 1)
    x = unit[:-1].reshape(nodes, 3, -1)  # x[k, c]: component c of node m - k
    out = np.stack(step(x[:, 0], x[:, 1], x[:, 2], unit[-1]))
    return out[:, :-1].reshape(3, nodes, 3).transpose(1, 0, 2), out[:, -1]


@lru_cache(maxsize=1024)
def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n, the real FFT length SciPy's ``next_fast_len`` picks."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power-of-two multiple of p35 reaching n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _convolve(a, b, m: int):
    """First ``m`` terms of the linear convolution of a real 1-D ``a`` with each row of ``b``.

    The one linear convolution of the package: the Volterra memory sums
    here and the Theta noise sums of :mod:`.coefficients`.  It is the rfft
    product at the next 5-smooth length, step for step SciPy's FFT
    convolution of real 1-D input (``scipy.signal.fftconvolve``), whose
    values it returns to the bit for each row on NumPy >= 2.0, which
    shares SciPy's pocketfft; ``a`` is transformed once for all rows.
    """
    n = _fast_len(a.size + b.shape[-1] - 1)
    return np.fft.irfft(np.fft.rfft(a, n) * np.fft.rfft(b, n), n)[..., :m]


def _product(a_hat, b_hat, size: int):
    """Coefficients of A(z) B(z) from the rfft stacks of a (3, 3) and a (3, c) series."""
    return np.fft.irfft(np.einsum("ijf,jcf->icf", a_hat, b_hat), size)


def _causal_solve(K, v, w, rhs):
    """Solve ``M(z) X(z) = R(z) mod z^N`` for the 3-vector series X.

    ``M(z) = I - sum_k K[k-1] z^k - v w(z)^T`` with the lag row
    ``w_l = (w[0, l], w[1, l], 0)`` for l >= 1 (entries l = 0 are
    ignored); ``rhs`` holds R as (3, N).  The first terms of
    ``Y = M^{-1}`` come from block forward substitution; Newton's
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
        w_hat = np.fft.rfft(w[:, :size], size)
        wz = np.fft.irfft(w_hat[0] * z_hat[0] + w_hat[1] * z_hat[1], size)[..., lo:hi]
        out = -v[:, None, None] * wz
        for k in range(1, len(K) + 1):
            first = max(0, k - lo)  # rows lo + r, r < k, reach back to Z[lo + r - k]
            last = min(k, hi - lo)
            if first < last:
                out[..., first:last] -= np.einsum(
                    "ij,jcr->icr", K[k - 1], z[..., lo - k + first : lo - k + last]
                )
        return out

    # dense start: the first terms of Y from M Y = I by block forward
    # substitution; M's first term coef[0] is I (w[:, 0] was zeroed)
    m = min(half, _DENSE_TERMS)
    coef = np.zeros((m, 3, 3))
    coef[:, :, :2] = -v[None, :, None] * w[:, :m].T[:, None, :]
    coef[0] += np.eye(3)
    coef[1 : len(K) + 1] -= K[: m - 1]
    y = np.zeros((m, 3, 3))
    y[0] = np.eye(3)
    for i in range(1, m):
        y[i] = -np.einsum("kab,kbc->ac", coef[1 : i + 1], y[i - 1 :: -1])
    # C order, as every later Y: einsum's summation order, so its last bits,
    # and its speed follow the layout numpy.fft hands on from its input
    y = np.ascontiguousarray(y.transpose(1, 2, 0))

    while y.shape[2] < half:
        lo = y.shape[2]
        hi = min(2 * lo, half)
        size = _fast_len(hi)
        y_hat = np.fft.rfft(y, size)
        err = tail(y, y_hat, lo, hi, size)  # (M Y - I)[lo:hi]; lower terms are 0
        y = np.concatenate(
            [y, -_product(y_hat, np.fft.rfft(err, size), size)[..., : hi - lo]], 2)

    size = _fast_len(n)
    y_hat = np.fft.rfft(y, size)
    x = _product(y_hat, np.fft.rfft(rhs[:, None, :half], size), size)[..., :half]
    res = rhs[:, None, half:] - tail(x, np.fft.rfft(x, size), half, n, size)
    x = np.concatenate([x, _product(y_hat, np.fft.rfft(res, size), size)[..., : n - half]], 2)
    return x[:, 0, :]


def _march(step, weights, known, n: int):
    """``(G, G', G'')`` at nodes k .. n of the main run, whose nodes 0 .. k - 1 are ``known``.

    The one run of a solve: ``step`` is ``_adams_step`` and ``known`` the
    (3, 4) start.  The step is linear over the last k nodes, so by
    ``_step_map`` the run obeys x_j = sum_i K_i x_{j-1-i} + v b_j, where b_j
    is the memory sum on ``weights`` (``_lag_weights``) over nodes
    j - 1 .. 0.  Taking x_k .. x_n as one series X(z), this is
    ``M(z) X(z) = R(z)`` of ``_causal_solve``, and R holds every term on the
    known nodes.  Do not apply (I - sum_i K_i z^{i+1})^{-1} as a rational
    filter (lfilter): for the AB4/AM4 step its determinant has a double
    root on the unit circle, and the recursion loses digits (1.7e-10
    relative).  The whole matrix series is inverted instead.
    """
    wg, wd, gamma, hdelta = weights
    k = known.shape[1]
    K, v = _step_map(step, k)
    b = gamma[k - 1 : n] * known[0, 0] + hdelta[k - 1 : n] * known[1, 0]
    for i in range(1, k):
        b += wg[k - i : n + 1 - i] * known[0, i] + wd[k - i : n + 1 - i] * known[1, i]
    rhs = np.outer(v, b)
    for i in range(1, k + 1):
        rows = min(i, n + 1 - k)  # node k + r, r < i, reaches back to node k + r - i
        rhs[:, :rows] += K[i - 1] @ known[:, k - i : k - i + rows]
    return _causal_solve(K, v, np.stack([wg, wd]), rhs)


def _startup_nodes(h: float, w0sq: float, two_over_m: float, bath, osc, lam: float):
    """(G, G') at tau = h, 2h, 3h from the first Picard iterate, in closed form.

    Integrating the memory equation twice with G(u) = u under the memory
    integral, and keeping the free oscillator's w0**4 term of the next
    iterate, gives

        G  = tau - w0**2 tau**3/6 + w0**4 tau**5/120 - (1/3M) int mu(u) (tau - u)**3 du,
        G' = 1 - w0**2 tau**2/2 + w0**4 tau**4/24 - (1/M) int mu(u) (tau - u)**2 du,

    the integrals over [0, tau].  Expanding (tau - u)**k leaves the running
    sums R_j(tau) = int_0^tau mu(u) u**j du of ``_raw_moments`` on the edges
    (0, h, 2h, 3h).  The neglected rest of the second iterate, the memory
    term acting on itself and on w0**2, is about
    tau**4 (w0**2 + (2/M) int |mu|)**2 / 120 relative to G, and five times
    that relative to G'.  At tau = 3h of a first grid (h = 1/(409.6 w0)),
    against a 256x finer solve, that is at most 2.4e-11 in G and 1.2e-10 in
    G' up to eta 0.6 (w_R**2 = 0.045) and down to lam 0.02, either cutoff.
    """
    tau = h * np.arange(1.0, 4.0)
    r0, r1, r2, r3 = np.cumsum(_raw_moments(h * np.arange(4.0), bath, osc, lam), axis=1)
    mem2 = tau * tau * r0 - 2.0 * tau * r1 + r2
    mem3 = tau * (tau * tau * r0 - 3.0 * tau * r1 + 3.0 * r2) - r3
    x = w0sq * tau * tau
    g = tau * (1.0 - x / 6.0 + x * x / 120.0) - two_over_m * mem3 / 6.0
    gd = 1.0 - x / 2.0 + x * x / 24.0 - two_over_m * mem2 / 2.0
    return g, gd


def _volterra_solve(bath, osc, lam: float, tau_max: float, n: int):
    """``(tau, G, G', G'', weights)`` on n steps of [0, tau_max], ``weights`` of ``_lag_weights``."""
    h = tau_max / n
    w0sq = osc.omega0**2
    two_over_m = 2.0 / osc.mass
    weights = _lag_weights(n, h, bath, osc, lam)
    G = np.zeros(n + 1)
    Gd = np.zeros(n + 1)
    Gdd = np.zeros(n + 1)
    Gd[0] = 1.0
    G[1:4], Gd[1:4] = _startup_nodes(h, w0sq, two_over_m, bath, osc, lam)
    Gdd[1:4] = -w0sq * G[1:4] - two_over_m * _memory(weights, G[:4], Gd[:4])
    # from node 4 on, one AB4 predictor and two AM4 corrector sweeps per node
    step = _adams_step(h, w0sq, two_over_m, weights[0][0], weights[1][0])
    G[4:], Gd[4:], Gdd[4:] = _march(step, weights, np.stack([G[:4], Gd[:4], Gdd[:4]]), n)
    # linspace keeps the interior nodes of h * arange(n + 1) and ends on
    # tau_max exactly, so a window ending at tau_max stays inside the grid
    return np.linspace(0.0, tau_max, n + 1), G, Gd, Gdd, weights


def _finish(tau, G, Gd, Gdd, weights, lam, bath, osc) -> PropagatorFunction:
    """The propagator of one solved grid, with G''' and G'''' from its memory sums.

    Differentiating the memory term moves the same weights onto (G', G''),
    as mu(tau) G(0) = 0, then onto (G'', G''') plus mu(tau) G'(0).
    """
    w0sq = osc.omega0**2
    two_over_m = 2.0 / osc.mass
    Gddd = -w0sq * Gd
    Gddd[1:] -= two_over_m * _memory(weights, Gd, Gdd)
    Gdddd = -w0sq * Gdd  # G''''(0) = 0, since mu(0) = 0 and G''(0) = 0
    Gdddd[1:] -= two_over_m * (dissipation_kernel(tau[1:], bath, osc, lam)
                               + _memory(weights, Gdd, Gddd))
    return PropagatorFunction(tau, G, Gd, Gdd, Gddd, Gdddd, lam, bath, osc)


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
    halving would exceed it, when ``tau_max`` is not finite and positive,
    or at once when a solved grid's G or G' is not finite (naming
    ``lam``, ``eta``, ``tau_max`` and the first bad node).
    """
    lam = _checked_coupling(lam)
    tau_max = _checked_finite("tau_max", tau_max, "> 0")
    n = max(16, math.ceil(_POINTS_PER_UNIT_PHASE * osc.omega0 * tau_max))
    if 2 * n > _MAX_NODES:
        raise ValidationError(
            f"a grid of n={n} nodes cannot be certified: its first halving "
            f"needs {2 * n} nodes, beyond the budget _MAX_NODES={_MAX_NODES}"
        )

    def solved(n):
        # a grid too fine for the kernel moments (h**3 underflows) or a bath
        # strong enough to overflow the memory sums solves to NaN: refused
        # by name at once, rather than compared through every halving
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            grid = _volterra_solve(bath, osc, lam, tau_max, n)
        where = f"lam={lam:g}, eta={bath.eta:g}, tau_max={tau_max:g} on n={n} steps"
        _checked_all_finite(grid[1], f"G at {where}")
        _checked_all_finite(grid[2], f"G' at {where}")
        return grid

    coarse = solved(n)
    err = math.inf
    for _ in range(_MAX_REFINEMENTS + 1):
        if 2 * n > _MAX_NODES:
            raise AccuracyError(
                f"propagator grid halving reached the budget _MAX_NODES="
                f"{_MAX_NODES} at n={n}: successive solutions differ by "
                f"{err:.3e} relative (target {_REL_TOL:g})"
            )
        fine = solved(2 * n)
        scale_g = max(np.max(np.abs(fine[1])), 1e-300)
        scale_gd = max(np.max(np.abs(fine[2])), 1e-300)
        err = max(
            np.max(np.abs(coarse[1] - fine[1][::2])) / scale_g,
            np.max(np.abs(coarse[2] - fine[2][::2])) / scale_gd,
        )
        if err <= _REL_TOL:
            return _finish(*fine, lam, bath, osc)
        coarse = fine
        n *= 2
    raise AccuracyError(
        f"propagator grid halving stalled at n={n} after {_MAX_REFINEMENTS} "
        f"refinements: successive solutions differ by {err:.3e} relative "
        f"(target {_REL_TOL:g})"
    )


# ----------------------------------------------------------------------
# Bromwich route


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

    The integral is the Filon-Legendre sum ``_quad.filon_sum`` over the
    panels of ``_contour_panels``, times ``e^{sigma tau}/pi``.  The panel
    widths follow ``R``, not tau, so the node count does not grow with
    ``tau_grid[-1]``.  A second pass
    with 1.5x the frequency window, halved panels and 24 instead of 16
    nodes per panel must agree to ``_REL_TOL``, the target of the
    time-domain route, else InversionError; so must the initial data
    G(0) = 0, G'(0) = 1, and a NaN fails either check.  ``G'`` is
    produced the same way (one extra power of s); the stored second and
    third derivatives come from spline differentiation of ``G'``, and the
    fourth is the slope of the not-a-knot spline through the third.  They
    are diagnostic quality only -- use the time-domain route when the
    derivatives matter.  A bad grid raises ValidationError naming
    ``tau_grid`` and the offending node unless it is 1-D, finite and
    strictly increasing from 0 over at least 5 nodes, and naming the limit
    if it ends past ``_MAX_TAU``.
    """
    lam = _checked_coupling(lam)
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
            tau, g, gd, -w0**2 * g, -w0**2 * gd, w0**4 * g, lam, bath, osc
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
        res = filon_sum(tau, mid, half, vals) * (np.exp(sigma * tau) / math.pi)
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
    gdd = not_a_knot_slopes(tau, gd2)  # the not-a-knot spline of G' and its derivatives
    gddd = hermite(tau, gd2, gdd, tau, nu=2)
    return PropagatorFunction(tau, g2, gd2, gdd, gddd, not_a_knot_slopes(tau, gddd),
                              lam, bath, osc)
