"""Truncated number-basis evolution of the oscillator master equation.

A deliberately independent route: instead of the closed moment system,
the full density matrix is evolved in a truncated ladder basis at the
bare frequency and moments are extracted by tracing.  For quadratic
generators the moment equations hold exactly in infinite dimension, so
any discrepancy against :mod:`.moments` measures integrator and
truncation error alone -- which is exactly what makes the comparison a
useful end-to-end check.

The generator acts on ``vec(rho)`` in the row-major convention of
:mod:`opendecay._superop` (``vec(A X B) = (A kron B^T) vec(X)``). It is
built once per call as five ``scipy.sparse`` CSR superoperators, one per
coefficient, weighted by ``(1, W2, D_xx, D_xp, G_xp)``: the kinetic term,
``x^2``, ``D_xx``, ``D_xp`` and ``G_xp``.  The ladder operators are
tridiagonal, so each row holds about nine nonzeros out of ``d^2``.  A
single-sample coefficient set sums the parts into one constant generator
for :func:`opendecay._integrate.propagate_constant`; a window weights
them at every stage time inside :func:`opendecay._integrate.integrate`.
:func:`fock_liouvillian` builds the frozen generator densely, by
another route, as the reference for both.

The truncation guard is blunt on purpose: if the boundary population
``rho[-1, -1]`` ever exceeds ``_BOUNDARY_TOL`` the basis was too small
and TruncationError is raised rather than returning quietly polluted
moments.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse

from .._integrate import integrate, propagate_constant
from .._superop import commutator_super, left_right
from ..errors import TruncationError, ValidationError
from ..model import OscillatorParams
from .coefficients import QBMCoefficients
from .moments import coefficient_functions

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
    if n_max < 1:
        raise ValidationError("n_max must be at least 1")
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1).astype(complex)
    ad = a.conj().T
    scale = math.sqrt(0.5 / (osc.mass * osc.omega0))
    x = scale * (a + ad)
    p = 1j * osc.mass * osc.omega0 * scale * (ad - a)
    return x, p


def coherent_density(osc: OscillatorParams, mean_x: float, mean_p: float,
                     n_max: int) -> np.ndarray:
    """Pure coherent state centered at (mean_x, mean_p), renormalized."""
    mw = osc.mass * osc.omega0
    alpha = math.sqrt(0.5 * mw) * (mean_x + 1j * mean_p / mw)
    psi = np.empty(n_max + 1, dtype=complex)
    psi[0] = 1.0
    for n in range(1, n_max + 1):
        psi[n] = psi[n - 1] * alpha / math.sqrt(n)
    psi *= math.exp(-0.5 * abs(alpha) ** 2)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def _left_right(a, b):
    """Sparse superoperator of X -> A X B (row-major vec)."""
    return scipy.sparse.kron(a, b.T, format="csr")


def _generator_parts(x, p, mass):
    """CSR superoperators weighted by ``(1, W2, D_xx, D_xp, G_xp)`` in the generator.

    -i[H, rho] - D_xx [x, [x, rho]] - 2 D_xp [x, [p, rho]] - i G_xp [x, {p, rho}]
    with H = p^2 / 2m + m W2 x^2 / 2.
    """
    x, p = scipy.sparse.csr_array(x), scipy.sparse.csr_array(p)
    eye = scipy.sparse.identity(x.shape[0], dtype=complex, format="csr")
    x2, xp, px = x @ x, x @ p, p @ x
    kin = (p @ p) / (2.0 * mass)
    return (
        -1j * (_left_right(kin, eye) - _left_right(eye, kin)),
        (-0.5j * mass) * (_left_right(x2, eye) - _left_right(eye, x2)),
        -(_left_right(x2, eye) - 2.0 * _left_right(x, x) + _left_right(eye, x2)),
        -2.0 * (_left_right(xp, eye) - _left_right(x, p)
                - _left_right(p, x) + _left_right(eye, px)),
        -1j * (_left_right(xp, eye) + _left_right(x, p)
               - _left_right(p, x) - _left_right(eye, px)),
    )


def truncated_basis_propagate(
    coeffs: QBMCoefficients,
    osc: OscillatorParams,
    rho0: np.ndarray,
    tau_grid,
    rtol: float = 1e-10,
) -> np.ndarray:
    """Evolve rho0 on tau_grid; (n_tau, d, d) array of density matrices.

    Raises TruncationError when the population of the top ladder state
    exceeds ``_BOUNDARY_TOL`` at any output time.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1] or rho0.shape[0] < 2:
        raise ValidationError("rho0 must be a square matrix of dimension >= 2")
    d = rho0.shape[0]
    parts = _generator_parts(*ladder_operators(d - 1, osc), osc.mass)
    tau = np.asarray(tau_grid, dtype=float)
    if coeffs.tau.size == 1:
        weights = (1.0, coeffs.omegaR_sq[0], coeffs.D_xx[0], coeffs.D_xp[0],
                   coeffs.Gamma_xp[0])
        gen = sum(w * part for w, part in zip(weights, parts))
        flat = propagate_constant(gen, rho0.reshape(-1), tau, rtol=rtol)
    else:
        w2, d_xx, d_xp, g_xp = coefficient_functions(coeffs, tau)
        stacked = scipy.sparse.vstack(parts, format="csr")

        def rhs(t, v):
            weights = np.array([1.0, w2(t), d_xx(t), d_xp(t), g_xp(t)])
            return weights @ (stacked @ v).reshape(len(parts), -1)

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

    Row-major vec convention, matching the superoperator helpers; feed
    the result to ``opendecay._superop.gks_block`` to inspect complete
    positivity of the truncated generator.
    """
    x, p = ladder_operators(n_max, osc)
    d = n_max + 1
    eye = np.eye(d, dtype=complex)
    ham = p @ p / (2.0 * osc.mass) + 0.5 * osc.mass * omega_sq * (x @ x)
    liouv = -1j * commutator_super(ham)
    liouv -= d_xx * (
        left_right(x @ x, eye) - 2.0 * left_right(x, x) + left_right(eye, x @ x)
    )
    liouv -= 2.0 * d_xp * (
        left_right(x @ p, eye)
        - left_right(x, p)
        - left_right(p, x)
        + left_right(eye, p @ x)
    )
    liouv -= 1j * gamma_xp * (
        left_right(x @ p, eye)
        + left_right(x, p)
        - left_right(p, x)
        - left_right(eye, p @ x)
    )
    return liouv
