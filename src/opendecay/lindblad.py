"""Schroedinger-picture master equation of the rapidly decaying two-level
system, and its consistency bridge to the Heisenberg triple evolution.

In the energy eigenbasis the density matrix obeys

    d rho / d tau = -i [H, rho] + (gamma_theta / 2) (S rho S - rho),

with ``H = (omega0/2) diag(1,-1)`` and the unit-Pauli coupling ``S``;
the dissipator is the double commutator ``-(gamma/4) [S, [S, rho]]``
written out using ``S@S = 1``. Everything is vectorized row-major, so a
sandwich ``A rho B`` becomes ``kron(A, B.T)``, and a Liouvillian is a
plain complex 4x4 array.

Because the triple generator of :mod:`opendecay.bloch` is the Heisenberg
adjoint of this Liouvillian, expectation values can be formed on either
side of the duality

    tr[rho(tau) X(0)] = tr[rho(0) X(tau)],

which gives the exact bridge relations checked by
:func:`bloch_density_bridge`:

    <-|rho|+> = tr[rho(0) D_plus(tau)],
    <+|rho|-> = tr[rho(0) D_minus(tau)],
    <+|rho|+> = (1 + tr[rho(0) D_zero(tau)]) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _superop as so
# ``integrate`` stays importable here: the benchmark's tracer test checks
# that its reference in this module is rebound (bench/tests/test_bench.py)
from ._integrate import integrate, propagate_constant  # noqa: F401
from .bloch import TRIPLE_AT_ZERO, rapid_generator
from .errors import (
    ConventionMismatchError,
    IntegratorAccuracyError,
    StructuralError,
)
from .model import (SpinBosonParams, _checked_all_finite, _checked_density,
                    _checked_finite, _checked_grid, _density_defects)

__all__ = [
    "GKSReport",
    "spin_liouvillian",
    "propagate_density",
    "random_density_matrix",
    "gks_check",
    "bloch_density_bridge",
]

_STRUCT_TOL = 1e-12


def _checked_liouvillian(liouv) -> np.ndarray:
    """``liouv`` as a complex 4x4 array, refused unless it is a qubit generator.

    StructuralError unless its shape is (4, 4), ValidationError naming
    ``liouv`` and its first non-finite entry, and StructuralError when it
    does not annihilate the trace functional from the left or does not
    commute with Hermitian conjugation (either defect above ``_STRUCT_TOL``).
    """
    m = np.asarray(liouv, dtype=complex)
    if m.shape != (4, 4):
        raise StructuralError(f"liouv must be a 4x4 superoperator, got shape {m.shape}")
    _checked_all_finite(m, "liouv")
    # "not <=" refuses a NaN defect too
    defect = so.trace_dual_defect(m, 2)
    if not defect <= _STRUCT_TOL:
        raise StructuralError(f"liouv does not preserve the trace (defect {defect:.3e})")
    if not so.hermiticity_involution_defect(m, 2) <= _STRUCT_TOL:
        raise StructuralError("liouv does not commute with Hermitian conjugation")
    return m


@dataclass(frozen=True)
class GKSReport:
    """Kossakowski matrix of the dissipative part, unnormalized Pauli basis."""

    gks_matrix: np.ndarray
    min_eigenvalue: float
    is_lindblad: bool


def spin_liouvillian(spin: SpinBosonParams, gamma_theta: float) -> np.ndarray:
    """Read-only 4x4 rapid-decay Liouvillian in the energy eigenbasis, gamma_theta >= 0."""
    gamma_theta = _checked_finite("gamma_theta", gamma_theta, ">= 0")
    h = spin.hamiltonian()
    s = spin.coupling_matrix().astype(complex)
    ham = -1j * so.commutator_super(h)
    diss = 0.5 * gamma_theta * (so.left_right(s, s) - np.eye(4))
    liouv = ham + diss
    liouv.setflags(write=False)
    return liouv


def propagate_density(liouv, rho0, tau_grid) -> np.ndarray:
    """Propagate one density matrix, or a stack of them in one solve.

    ``liouv`` is refused first, as :func:`gks_check` refuses it. Returns
    (n, 2, 2) for one 2x2 state and (n, k, 2, 2) for a (k, 2, 2) stack;
    another shape raises ValueError. Propagated by the truncated Taylor
    route, exact to round-off; the dense reference is
    ``propagate_constant(liouv, ..., method="expm")``.
    :class:`ValidationError` names ``rho0`` (``rho0 state i`` in a stack)
    and its first non-finite entry or its three defects unless each state
    is a density matrix (Hermitian and of trace one to 1e-12, smallest
    eigenvalue above -1e-10), and ``tau_grid`` and its first bad node
    unless it is 1-d, finite and strictly increasing. Every output state
    must stay within loose physicality bounds (trace defect below 1e-9,
    smallest eigenvalue above -1e-9) or :class:`IntegratorAccuracyError`,
    naming the tau and the state, is raised: the generator is then not a
    valid Lindblad generator (not completely positive or not trace
    preserving).
    """
    liouv = _checked_liouvillian(liouv)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim not in (2, 3) or rho0.shape[-2:] != (2, 2) or rho0.size == 0:
        raise ValueError(
            f"rho0 must have shape (2, 2) or (k, 2, 2) with k >= 1, got {rho0.shape}"
        )
    _checked_density(rho0, "rho0")
    tau_grid = _checked_grid(tau_grid, "tau_grid")
    # one state stays a 4-vector; a stack is a (4, k) block of columns
    flat = propagate_constant(liouv, rho0.reshape(rho0.shape[:-2] + (4,)).T,
                              tau_grid)
    states = np.swapaxes(flat, 1, -1).reshape((len(tau_grid),) + rho0.shape)

    def where(defects, pick):
        at = np.unravel_index(int(pick(defects)), defects.shape)
        state = f" in state {at[1]}" if rho0.ndim == 3 else ""
        return defects[at], f"at tau={tau_grid[at[0]]:g}{state}"

    _, traces, lowest = _density_defects(states)
    if np.any(traces > 1e-9):
        worst, at = where(traces, np.argmax)
        raise IntegratorAccuracyError(f"trace defect {worst:.3e} {at} exceeds 1e-9")
    if np.any(lowest < -1e-9):
        worst, at = where(lowest, np.argmin)
        raise IntegratorAccuracyError(
            f"negative eigenvalue {worst:.3e} {at} exceeds the -1e-9 bound"
        )
    return states


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random full-rank 2x2 density matrix (Ginibre construction)."""
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def gks_check(liouv) -> GKSReport:
    """Kossakowski (coefficient) matrix of the dissipative part.

    ``liouv`` is a 4x4 superoperator matrix. StructuralError refuses a
    shape other than (4, 4) and a map that does not preserve the trace or
    does not commute with Hermitian conjugation (no GKS form exists), and
    ValidationError names ``liouv`` and its first non-finite entry. The
    expansion uses the unnormalized Pauli basis (sigma_x, sigma_y,
    sigma_z); complete positivity of the generated semigroup is
    equivalent to the reported matrix being positive semidefinite
    (``min_eigenvalue >= -1e-12`` after scaling).
    """
    block_ortho, min_eig_ortho = so.gks_block(_checked_liouvillian(liouv), 2)
    # orthonormal basis is sigma/sqrt(2): rescale onto plain Paulis (halving
    # is exact, so the eigenvalue scales with the block bit for bit)
    block = 0.5 * block_ortho
    min_eig = 0.5 * min_eig_ortho
    # min_eig >= -1e-12 max(|block|, 1), all taken in units of 2**e, which
    # is exact: the norm of a large block cannot overflow to an infinite scale
    scaled, e = so.binary_scaled(block)
    unit = math.ldexp(1.0, -e)
    scale = max(float(np.linalg.norm(scaled)), unit)
    return GKSReport(
        gks_matrix=block,
        min_eigenvalue=min_eig,
        is_lindblad=bool(min_eig * unit >= -1e-12 * scale),
    )


def bloch_density_bridge(spin: SpinBosonParams, gamma_theta: float, rho0,
                         tau_grid, rtol: float = 1e-10):
    """Largest deviation between the triple route and the density route.

    ``rho0`` is one 2x2 state, giving a float, or a stack of shape
    (k, 2, 2), giving one deviation per state as a length-k array; each
    state is checked by :func:`propagate_density`, which names ``rho0``
    or ``rho0 state i``. The triple propagator is computed once per call
    (``propagate_constant`` of the rapid generator on the 3x3 identity)
    and the density route in one solve for all states. Both routes are
    exact to round-off, so ``rtol`` is only the refusal bound: a
    deviation beyond ``100 * rtol`` indicates inconsistent sign/phase
    conventions between the two generators rather than propagation error,
    and raises :class:`ConventionMismatchError`. ValidationError names
    ``rtol`` unless it is finite and > 0.
    """
    rtol = _checked_finite("rtol", rtol, "> 0")
    states = propagate_density(spin_liouvillian(spin, gamma_theta), rho0, tau_grid)
    props = propagate_constant(rapid_generator(spin, gamma_theta),
                               np.eye(3, dtype=complex), tau_grid)
    # D_alpha(tau) = sum_b M[a,b] D_b(0), then tr[rho0 D_alpha(tau)]
    d_t = np.einsum("tab,bij->taij", props, np.stack(TRIPLE_AT_ZERO))
    expect = np.einsum("...ij,taji->t...a", states[0], d_t)
    # <+|rho|+>, <+|rho|->, <-|rho|+>, <-|rho|-> (row-major) by the triple route
    bridged = np.stack([0.5 * (1.0 + expect[..., 1]), expect[..., 2], expect[..., 0],
                        0.5 * (1.0 - expect[..., 1])], axis=-1)
    devs = np.max(np.abs(states.reshape(bridged.shape) - bridged), axis=(0, -1))
    worst = float(np.max(devs))
    if worst > 100.0 * rtol:
        raise ConventionMismatchError(
            f"triple and density routes disagree by {worst:.3e} "
            f"(> 100 * rtol = {100 * rtol:.1e}); conventions are inconsistent"
        )
    return float(devs) if devs.ndim == 0 else devs
