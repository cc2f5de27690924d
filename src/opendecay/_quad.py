"""Composite Gauss-Legendre quadrature with node-doubling convergence.

The one module that builds Gauss-Legendre panels. ``integrate_to_tolerance``
is the one node-doubling loop; it converges a vector of integrals at once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre
from scipy.linalg import eigvalsh_tridiagonal

from .errors import AccuracyError


@lru_cache(maxsize=32)
def _leggauss(n: int):
    # numpy's leggauss step for step, so bit for bit, but with the companion
    # eigenvalues from the O(n**2) tridiagonal solver, not the O(n**3) dense one
    c = np.zeros(n + 1)
    c[-1] = 1.0
    m = legendre.legcompanion(c)
    x = eigvalsh_tridiagonal(np.diag(m), np.diag(m, 1))
    dy = legendre.legval(x, c)
    df = legendre.legval(x, legendre.legder(c))
    x -= dy / df
    fm = legendre.legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


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
    """Integrate f, one value or one row of components per node, over the panels."""
    nodes, weights = panel_nodes(edges, n_nodes)
    vals = f(nodes)
    return float(np.sum(weights * vals)) if vals.ndim == 1 else weights @ vals


def integrate_to_tolerance(pieces, rel_tol=1e-10, scale=0.0, n0=16,
                           max_doublings=8, what="integral"):
    """Sum of GL panel integrals, doubling the node count until stable.

    ``pieces`` is a list of ``(integrand, edges)`` pairs that are summed
    at a common node count per panel. Each component converges against
    ``max(|I|, scale)`` so integrals that legitimately vanish do not
    chase a relative target. If doubling stalls, AccuracyError names the
    worst component, by ``what(index)`` if ``what`` is callable.
    """
    n = n0
    prev = sum(panel_integral(f, edges, n) for f, edges in pieces)
    for _ in range(max_doublings):
        n *= 2
        cur = sum(panel_integral(f, edges, n) for f, edges in pieces)
        change = np.abs(cur - prev)
        ref = np.maximum(np.abs(cur), abs(scale))
        ok = (ref == 0.0) | (change <= rel_tol * ref)
        if np.all(ok):
            return cur
        prev = cur
    worst = int(np.argmax(np.where(ok, 0.0, change / np.where(ok, 1.0, ref))))
    raise AccuracyError(
        f"{what(worst) if callable(what) else what}: node doubling did not converge "
        f"to rel_tol={rel_tol:g} (last change {np.ravel(change)[worst]:.3e} at {n} "
        "nodes/panel)"
    )


def split_edges(a, b, max_width):
    """Uniform panel edges covering [a, b] with panels <= max_width; [a] if b <= a."""
    if b <= a:
        return np.array([float(a)])
    n = max(1, int(np.ceil((b - a) / max_width)))
    return np.linspace(a, b, n + 1)
