"""Truncated number-basis evolution of the oscillator master equation.

A deliberately independent route: instead of the closed moment system,
the full density matrix is evolved in a truncated ladder basis at the
bare frequency and moments are extracted by tracing.  For quadratic
generators the moment equations hold exactly in infinite dimension, so
any discrepancy against :mod:`.moments` measures integrator and
truncation error alone -- which is exactly what makes the comparison a
useful end-to-end check.

The generator acts on ``vec(rho)`` in the row-major convention of
:mod:`opendecay._superop` (``vec(A X B) = (A kron B^T) vec(X)``). It has
five parts, one per coefficient, weighted by ``(1, W2, D_xx, D_xp,
G_xp)``: the kinetic term, ``x^2``, ``D_xx``, ``D_xp`` and ``G_xp``.
The ladder operators are tridiagonal and their products pentadiagonal,
so each part is built from the diagonals of its factors, with no
Kronecker product: a diagonal of ``A`` and one of ``B`` fill one
diagonal of the superoperator of ``rho -> A rho B``.  The parts share
at most nine superoperator diagonals, so a row holds at most nine
nonzeros out of ``d^2``.  A single-sample coefficient set weights the
diagonals and converts them once to one CSR constant generator for
:func:`opendecay._integrate.propagate_constant`, whose truncated Taylor
series is exact to round-off; a window converts each part to CSR and
weights the stacked parts at every stage time inside the adaptive
:func:`opendecay._integrate.integrate`.  :func:`fock_liouvillian` writes
the weighted diagonals out as one dense matrix, the frozen generator
whose complete positivity :mod:`opendecay._superop` inspects.

The truncation guard is blunt on purpose: if the boundary population
``rho[-1, -1]`` ever exceeds ``_BOUNDARY_TOL`` the basis was too small
and TruncationError is raised rather than returning quietly polluted
moments.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
import scipy

from .._integrate import integrate, propagate_constant
from ..errors import TruncationError, ValidationError
from ..model import OscillatorParams, _checked_all_finite, _checked_finite, _checked_grid
from .coefficients import QBMCoefficients
from .moments import coefficient_weights

__all__ = [
    "ladder_operators",
    "coherent_density",
    "truncated_basis_propagate",
    "fock_moments",
    "fock_liouvillian",
]

_BOUNDARY_TOL = 1e-8  # largest top-ladder population a result may carry


def ladder_operators(n_max: int, osc: OscillatorParams):
    """(x, p) in the (n_max + 1)-dimensional ladder basis at omega0."""
    if not isinstance(n_max, numbers.Integral) or n_max < 1:
        raise ValidationError(f"n_max must be an integer of at least 1, got {n_max!r}")
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1).astype(complex)
    ad = a.conj().T
    scale = math.sqrt(0.5 / (osc.mass * osc.omega0))
    x = scale * (a + ad)
    p = 1j * osc.mass * osc.omega0 * scale * (ad - a)
    return x, p


def coherent_density(osc: OscillatorParams, mean_x: float, mean_p: float,
                     n_max: int) -> np.ndarray:
    """Pure coherent state centered at (mean_x, mean_p), renormalized.

    ValidationError names ``n_max`` as :func:`ladder_operators` does, or a
    mean that is not finite.
    """
    ladder_operators(n_max, osc)  # only for its check of n_max
    mean_x = _checked_finite("mean_x", mean_x)
    mean_p = _checked_finite("mean_p", mean_p)
    mw = osc.mass * osc.omega0
    alpha = math.sqrt(0.5 * mw) * (mean_x + 1j * mean_p / mw)
    psi = np.empty(n_max + 1, dtype=complex)
    psi[0] = 1.0
    for n in range(1, n_max + 1):
        psi[n] = psi[n - 1] * alpha / math.sqrt(n)
    psi *= math.exp(-0.5 * abs(alpha) ** 2)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def _diagonals(m):
    """``{offset: diagonal}`` of the nonzero diagonals of the square matrix m."""
    rows, cols = np.nonzero(m)
    return {int(k): np.diagonal(m, k) for k in np.unique(cols - rows)}


def _band_product(a_bands, b_bands, d):
    """Diagonals of ``A B`` from the diagonals of two d x d matrices.

    ``(A B)[i, i + a + b]`` sums ``A[i, i + a] B[i + a, i + a + b]``; entry
    ``i`` of diagonal ``k`` is its row minus ``max(0, -k)``. For tridiagonal
    factors an entry adds at most two rounded products, so it does not
    depend on the BLAS, which may fuse a multiply into the addition.
    """
    out = {}
    for a, va in a_bands.items():
        for b, vb in b_bands.items():
            lo, hi = max(0, -a, -a - b), min(d, d - a, d - a - b)
            k = a + b
            band = out.setdefault(k, np.zeros(d - abs(k), dtype=complex))
            band[lo - max(0, -k):hi - max(0, -k)] += (
                va[lo - max(0, -a):hi - max(0, -a)]
                * vb[lo + a - max(0, -b):hi + a - max(0, -b)])
    return out


def _generator_parts(x, p, mass):
    """Diagonals of the superoperators weighted by ``(1, W2, D_xx, D_xp, G_xp)``.

    -i[H, rho] - D_xx [x, [x, rho]] - 2 D_xp [x, [p, rho]] - i G_xp [x, {p, rho}]
    with H = p^2 / 2m + m W2 x^2 / 2. Each part is a factor times a sum of
    sandwiches ``c A rho B``, whose superoperator entry at
    ``(i d + l, j d + k)`` is ``c A_ij B_kl``. So diagonal ``a`` of A
    (``j = i + a``) and diagonal ``b`` of B (``l = k + b``) fill the
    superoperator's diagonal ``a d - b`` at the columns ``j d + k``. Returns
    the sorted offsets and the ``(5, n_offsets, d^2)`` data of the parts in
    the DIA layout of ``scipy.sparse`` (``data[..., col]`` on column ``col``);
    :func:`_csr` converts one.
    """
    d = x.shape[0]
    xb, pb = _diagonals(x), _diagonals(p)
    x2, xp, px = _band_product(xb, xb, d), _band_product(xb, pb, d), _band_product(pb, xb, d)
    kin = {k: v / (2.0 * mass) for k, v in _band_product(pb, pb, d).items()}
    eye = {0: np.ones(d)}
    parts = (
        (-1j, ((1.0, kin, eye), (-1.0, eye, kin))),
        (-0.5j * mass, ((1.0, x2, eye), (-1.0, eye, x2))),
        (-1.0, ((1.0, x2, eye), (-2.0, xb, xb), (1.0, eye, x2))),
        (-2.0, ((1.0, xp, eye), (-1.0, xb, pb), (-1.0, pb, xb), (1.0, eye, px))),
        (-1j, ((1.0, xp, eye), (1.0, xb, pb), (-1.0, pb, xb), (-1.0, eye, px))),
    )
    pairs = [(n, c, a, va, b, vb) for n, (_, terms) in enumerate(parts)
             for c, a_bands, b_bands in terms
             for a, va in a_bands.items() for b, vb in b_bands.items()]
    offsets = sorted({a * d - b for _, _, a, _, b, _ in pairs})
    column = {k: i for i, k in enumerate(offsets)}
    data = np.zeros((len(parts), len(offsets), d, d), dtype=complex)  # over (j, k)
    for n, c, a, va, b, vb in pairs:
        grid = data[n, column[a * d - b], max(a, 0):d + min(a, 0), max(-b, 0):d + min(-b, 0)]
        grid += (c * va)[:, None] * vb
    data *= np.array([factor for factor, _ in parts])[:, None, None, None]
    data = data.reshape(len(parts), len(offsets), d * d)
    return np.array(offsets), data


def _csr(offsets, data):
    """CSR of the square superoperator with DIA ``data`` on ``offsets``, zeros dropped."""
    n = data.shape[-1]
    return scipy.sparse.dia_array((data, offsets), shape=(n, n)).tocsr()


def truncated_basis_propagate(
    coeffs: QBMCoefficients,
    osc: OscillatorParams,
    rho0: np.ndarray,
    tau_grid,
    rtol: float = 1e-10,
) -> np.ndarray:
    """Evolve rho0 on tau_grid; (n_tau, d, d) array of density matrices.

    The generator parts are weighted by :func:`.moments.coefficient_weights`.
    A single-sample (constant) set weights them once into one generator,
    propagated exactly to round-off. A window weights the stacked parts at
    each stage time of the adaptive steps, taken at relative tolerance
    ``rtol``; ``rtol`` is checked for every set but read only for a window.
    Raises TruncationError when the population of the top ladder state
    exceeds ``_BOUNDARY_TOL`` at any output time, and ValidationError naming
    ``rho0`` unless it is a finite square matrix of dimension >= 2, naming
    ``tau_grid`` and its first bad node unless it is 1-d, finite and
    strictly increasing, naming ``rtol`` unless it is finite and > 0, and
    when a window does not cover ``tau_grid``.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1] or rho0.shape[0] < 2:
        raise ValidationError("rho0 must be a square matrix of dimension >= 2")
    _checked_all_finite(rho0, "rho0")
    tau = _checked_grid(tau_grid, "tau_grid")
    rtol = _checked_finite("rtol", rtol, "> 0")
    d = rho0.shape[0]
    offsets, parts = _generator_parts(*ladder_operators(d - 1, osc), osc.mass)
    weights = coefficient_weights(coeffs, tau)
    if coeffs.tau.size == 1:
        gen = _csr(offsets, sum(w * part for w, part in zip(weights(tau[0]), parts)))
        flat = propagate_constant(gen, rho0.reshape(-1), tau)
    else:
        stacked = scipy.sparse.vstack([_csr(offsets, part) for part in parts], format="csr")

        def rhs(t, v):
            return weights(t) @ (stacked @ v).reshape(len(parts), -1)

        flat = integrate(rhs, rho0.reshape(-1), tau, rtol=rtol)
    states = flat.reshape(len(flat), d, d)
    edge = np.max(np.abs(states[:, -1, -1].real))
    if edge > _BOUNDARY_TOL:
        raise TruncationError(
            f"population {edge:.3e} reached the top ladder state (limit "
            f"{_BOUNDARY_TOL:g}); enlarge the basis"
        )
    return states


def fock_moments(states: np.ndarray, osc: OscillatorParams) -> np.ndarray:
    """Extract (mean_x, mean_p, var_xx, cov_xp, var_pp) rows from states."""
    states = np.asarray(states, dtype=complex)
    d = states.shape[-1]
    x, p = ladder_operators(d - 1, osc)
    sym = 0.5 * (x @ p + p @ x)

    def expect(op):
        return np.einsum("tij,ji->t", states, op).real

    mx = expect(x)
    mp = expect(p)
    var_xx = expect(x @ x) - mx * mx
    cov_xp = expect(sym) - mx * mp
    var_pp = expect(p @ p) - mp * mp
    return np.column_stack([mx, mp, var_xx, cov_xp, var_pp])


def fock_liouvillian(
    osc: OscillatorParams,
    n_max: int,
    omega_sq: float,
    d_xx: float,
    d_xp: float,
    gamma_xp: float,
) -> np.ndarray:
    """Dense superoperator of the frozen-coefficient generator.

    The parts of :func:`_generator_parts` weighted by ``(1, omega_sq,
    d_xx, d_xp, gamma_xp)``, as the constant path of
    :func:`truncated_basis_propagate` weights them, written out densely.
    Row-major vec convention, matching the superoperator helpers; feed
    the result to ``opendecay._superop.gks_block`` to inspect complete
    positivity of the truncated generator.
    """
    coefficients = {"omega_sq": omega_sq, "d_xx": d_xx, "d_xp": d_xp, "gamma_xp": gamma_xp}
    weights = [1.0] + [_checked_finite(name, value) for name, value in coefficients.items()]
    offsets, parts = _generator_parts(*ladder_operators(n_max, osc), osc.mass)
    data = sum(w * part for w, part in zip(weights, parts))
    n = data.shape[-1]
    # DIA layout: data[k, col] sits at (col - offsets[k], col)
    cols = np.broadcast_to(np.arange(n), data.shape)
    rows = cols - offsets[:, None]
    inside = (rows >= 0) & (rows < n)
    liouv = np.zeros((n, n), dtype=complex)
    liouv[rows[inside], cols[inside]] = data[inside]
    return liouv
