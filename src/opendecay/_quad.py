"""Composite Gauss-Legendre quadrature with node-doubling convergence."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import AccuracyError


@lru_cache(maxsize=32)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def panel_integral(f, edges, n_nodes):
    """Integrate f over the panels defined by ``edges`` with n-point GL."""
    edges = np.asarray(edges, dtype=float)
    x, w = _leggauss(n_nodes)
    lo = edges[:-1]
    hi = edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    # nodes shaped (panels, n): evaluate in one vectorized call
    nodes = mid[:, None] + half[:, None] * x[None, :]
    vals = f(nodes.ravel()).reshape(nodes.shape)
    return float(np.sum(half[:, None] * w[None, :] * vals))


def integrate_to_tolerance(pieces, rel_tol=1e-10, scale=0.0, n0=16,
                           max_doublings=8, what="integral"):
    """Sum of GL panel integrals, doubling the node count until stable.

    ``pieces`` is a list of ``(integrand, edges)`` pairs that are summed
    at a common node count per panel. Convergence is judged against
    ``max(|I|, scale)`` so integrals that legitimately vanish do not
    chase a relative target. Raises :class:`AccuracyError` if doubling
    stalls.
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


def split_edges(a, b, max_width):
    """Uniform panel edges covering [a, b] with panels <= max_width."""
    n = max(1, int(np.ceil((b - a) / max_width)))
    return np.linspace(a, b, n + 1)
