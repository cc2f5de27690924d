"""Composite Gauss-Legendre quadrature: one node-doubling loop, one Filon sum.

The one module that builds Gauss-Legendre panels, from numpy's rules.
``filon_sum`` is the one Fourier integral: it integrates a Legendre
interpolant of the integrand on each panel against ``e^{i beta tau}``
exactly, for the Bromwich route of the propagator and the hard-cutoff
noise kernel. ``integrate_to_tolerance``, the one node-doubling loop for
scalar integrals, is the reference quadrature of the tests.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from .errors import AccuracyError

_MILLER_EXTRA = 20  # orders above the highest needed where the Bessel ratios start
_BLOCK_ENTRIES = 1 << 18  # panel-order-time entries in one block of the Filon sum

_leggauss = lru_cache(maxsize=32)(legendre.leggauss)


@lru_cache(maxsize=8)
def legendre_projection(n_nodes: int):
    """Matrix taking values at the n GL nodes of [-1, 1] to Legendre coefficients.

    Row k holds ``(k + 1/2) w_j P_k(x_j)``.  The rule integrates every
    product ``P_k P_m`` with ``k, m < n`` exactly, so the coefficients are
    those of the degree ``n - 1`` interpolant of the values.
    """
    x, w = _leggauss(n_nodes)
    proj = (np.arange(n_nodes) + 0.5)[:, None] * legendre.legvander(x, n_nodes - 1).T * w
    proj.setflags(write=False)  # the cached matrix is shared by every caller
    return proj


def panel_nodes(edges, n_nodes):
    """Nodes and weights of the n-point GL rule on every panel, flattened."""
    edges = np.asarray(edges, dtype=float)
    x, w = _leggauss(n_nodes)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def panel_integral(f, edges, n_nodes):
    """Integrate f over the panels with the n-point GL rule on each."""
    nodes, weights = panel_nodes(edges, n_nodes)
    return float(np.sum(weights * f(nodes)))


def integrate_to_tolerance(pieces, rel_tol=1e-10, scale=0.0, n0=16,
                           max_doublings=8, what="integral"):
    """Sum of GL panel integrals, doubling the node count until stable.

    ``pieces`` is a list of ``(integrand, edges)`` pairs that are summed
    at a common node count per panel. Convergence is judged against
    ``max(|I|, scale)`` so integrals that legitimately vanish do not
    chase a relative target. Raises :class:`AccuracyError` naming
    ``what`` if doubling stalls.
    """
    n = n0
    prev = sum(panel_integral(f, edges, n) for f, edges in pieces)
    for _ in range(max_doublings):
        n *= 2
        cur = sum(panel_integral(f, edges, n) for f, edges in pieces)
        change = abs(cur - prev)
        ref = max(abs(cur), abs(scale))
        if ref == 0.0 or change <= rel_tol * ref:
            return cur
        prev = cur
    raise AccuracyError(
        f"{what}: node doubling did not converge to rel_tol={rel_tol:g} "
        f"(last change {change:.3e} at {n} nodes/panel)"
    )


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


def filon_sum(tau, mid, half, vals):
    """``Re sum_panels int e^{i beta tau} f(beta) dbeta`` for every tau, by Filon panels.

    ``vals[c, p]`` holds integrand ``c`` (real or complex) at the n
    Gauss-Legendre nodes of panel ``p``, ``[mid - half, mid + half]``.  On a
    panel ``[m - h, m + h]`` each integrand is replaced by the Legendre
    expansion ``sum_k a_k P_k`` of its degree ``n - 1`` interpolant, whose
    product with the phase integrates exactly (DLMF 10.60.7):

        int e^{i beta tau} sum_k a_k P_k((beta - m)/h) dbeta
            = h e^{i m tau} sum_k a_k 2 i^k j_k(h tau).

    The panels thus resolve ``f``, not ``e^{i beta tau}``, and the cost of a
    time does not depend on tau (Filon, Proc. R. Soc. Edinburgh 49, 38
    (1928); Iserles and Norsett, Proc. R. Soc. A 461, 1383 (2005)).  Tau
    must be >= 0.  Returns one row per integrand.  The sum runs over blocks
    of tau of at most ``_BLOCK_ENTRIES`` panel-order-time entries, so no
    block grows with the grid.
    """
    c, _, n = vals.shape
    coef = vals @ legendre_projection(n).T
    coef = coef * (2.0 * half[:, None] * np.array([1.0, 1j, -1.0, -1j])[np.arange(n) % 4])
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
    return out


def split_edges(a, b, max_width):
    """Uniform panel edges covering [a, b] with panels <= max_width; [a] if b <= a."""
    if b <= a:
        return np.array([float(a)])
    n = max(1, int(np.ceil((b - a) / max_width)))
    return np.linspace(a, b, n + 1)
