"""Truncated number-basis evolution of the oscillator master equation.

A deliberately independent route: instead of the closed moment system,
the full density matrix is evolved in a truncated ladder basis at the
bare frequency and moments are extracted by tracing.  For quadratic
generators the moment equations hold exactly in infinite dimension, so
any discrepancy against :mod:`.moments` measures integrator and
truncation error alone -- which is exactly what makes the comparison a
useful end-to-end check.

The truncation guard is blunt on purpose: if the boundary population
``rho[-1, -1]`` ever exceeds ``boundary_tol`` the basis was too small
and TruncationError is raised rather than returning quietly polluted
moments.
"""

from __future__ import annotations

import math

import numpy as np

from .._integrate import integrate
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


def truncated_basis_propagate(
    coeffs: QBMCoefficients,
    osc: OscillatorParams,
    rho0: np.ndarray,
    tau_grid,
    rtol: float = 1e-10,
    boundary_tol: float = 1e-8,
) -> np.ndarray:
    """Evolve rho0 on tau_grid; (n_tau, d, d) array of density matrices."""
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1] or rho0.shape[0] < 2:
        raise ValidationError("rho0 must be a square matrix of dimension >= 2")
    d = rho0.shape[0]
    x, p = ladder_operators(d - 1, osc)
    tau = np.asarray(tau_grid, dtype=float)
    w2, d_xx, d_xp, g_xp = coefficient_functions(coeffs, tau)
    m = osc.mass
    x2, p2_2m, xp, px = x @ x, (p @ p) / (2.0 * m), x @ p, p @ x

    # -i[H, rho] - D_xx [x, [x, rho]] - 2 D_xp [x, [p, rho]] - i G_xp [x, {p, rho}]
    # expanded and regrouped by where the operators stand:
    #   K rho + rho K' + x rho (2 D_xx x + (2 D_xp - i G_xp) p)
    #         + (2 D_xp + i G_xp) p rho x,
    # with K = -iH - D_xx x^2 - (2 D_xp + i G_xp) x p and
    #      K' = iH - D_xx x^2 - (2 D_xp - i G_xp) p x;
    # six matrix products per evaluation.
    def rhs(t, rho):
        dxx, c_minus = d_xx(t), 2.0 * d_xp(t) - 1j * g_xp(t)
        c_plus = c_minus.conjugate()
        ham = p2_2m + (0.5 * m * w2(t)) * x2
        k_left = -1j * ham - dxx * x2 - c_plus * xp
        k_right = 1j * ham - dxx * x2 - c_minus * px
        out = k_left @ rho + rho @ k_right
        out += (x @ rho) @ (2.0 * dxx * x + c_minus * p)
        out += c_plus * ((p @ rho) @ x)
        return out

    states = integrate(rhs, rho0, tau, rtol=rtol)
    edge = np.max(np.abs(states[:, -1, -1].real))
    if edge > boundary_tol:
        raise TruncationError(
            f"population {edge:.3e} reached the top ladder state (limit "
            f"{boundary_tol:g}); enlarge the basis"
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
