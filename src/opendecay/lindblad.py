"""Schroedinger-picture master equation of the rapidly decaying two-level
system, and its consistency bridge to the Heisenberg triple evolution.

In the energy eigenbasis the density matrix obeys

    d rho / d tau = -i [H, rho] + (gamma_theta / 2) (S rho S - rho),

with ``H = (omega0/2) diag(1,-1)`` and the unit-Pauli coupling ``S``;
the dissipator is the double commutator ``-(gamma/4) [S, [S, rho]]``
written out using ``S@S = 1``. Everything is vectorized row-major, so a
sandwich ``A rho B`` becomes ``kron(A, B.T)``.

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

from dataclasses import dataclass, field

import numpy as np

from . import _superop as so
# ``integrate`` stays importable here: the benchmark's tracer test checks
# that its reference in this module is rebound (bench/tests/test_bench.py)
from ._integrate import integrate, propagate_constant  # noqa: F401
from .bloch import TRIPLE_AT_ZERO, propagator_matrix, rapid_generator
from .errors import (
    ConventionMismatchError,
    IntegratorAccuracyError,
    StructuralError,
)
from .model import DensityMatrix2, SpinBosonParams, _checked_finite

__all__ = [
    "Liouvillian2",
    "GKSReport",
    "spin_liouvillian",
    "propagate_density",
    "random_density_matrix",
    "steady_states",
    "gks_check",
    "bloch_density_bridge",
]

_STRUCT_TOL = 1e-12


@dataclass(frozen=True)
class Liouvillian2:
    """Validated 4x4 Liouvillian of a qubit (row-major vectorization).

    Built from its Hamiltonian and dissipator parts; ``matrix`` is their
    sum. Construction checks that the matrix annihilates the trace
    functional from the left and commutes with Hermitian conjugation.
    """

    hamiltonian_part: np.ndarray
    dissipator_part: np.ndarray
    matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        h = np.asarray(self.hamiltonian_part, dtype=complex)
        d = np.asarray(self.dissipator_part, dtype=complex)
        if h.shape != (4, 4) or d.shape != (4, 4):
            raise StructuralError("Liouvillian parts must be 4x4")
        m = h + d
        if so.trace_dual_defect(m, 2) > _STRUCT_TOL:
            raise StructuralError(
                "Liouvillian does not preserve the trace "
                f"(defect {so.trace_dual_defect(m, 2):.3e})"
            )
        if so.hermiticity_involution_defect(m, 2) > _STRUCT_TOL:
            raise StructuralError(
                "Liouvillian does not commute with Hermitian conjugation"
            )
        for name, a in (("matrix", m), ("hamiltonian_part", h), ("dissipator_part", d)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)


@dataclass(frozen=True)
class GKSReport:
    """Kossakowski matrix of the dissipative part, unnormalized Pauli basis."""

    gks_matrix: np.ndarray
    min_eigenvalue: float
    is_lindblad: bool


def spin_liouvillian(spin: SpinBosonParams, gamma_theta: float) -> Liouvillian2:
    """Rapid-decay Liouvillian in the energy eigenbasis, gamma_theta >= 0."""
    gamma_theta = _checked_finite("gamma_theta", gamma_theta, ">= 0")
    h = spin.hamiltonian()
    s = spin.coupling_matrix().astype(complex)
    ham = -1j * so.commutator_super(h)
    diss = 0.5 * gamma_theta * (so.left_right(s, s) - np.eye(4))
    return Liouvillian2(hamiltonian_part=ham, dissipator_part=diss)


def propagate_density(liouv: Liouvillian2, rho0, tau_grid,
                      rtol: float = 1e-10) -> np.ndarray:
    """Propagate a density matrix over ``tau_grid``; returns (n, 2, 2).

    Adaptive steps at the relative tolerance ``rtol``; the dense
    reference is ``propagate_constant(liouv.matrix, ..., method="expm")``.
    ``rho0`` is validated as a :class:`DensityMatrix2` (raising
    :class:`ValidationError` when it is not a density matrix). Every
    output state must stay within loose physicality bounds (trace
    defect below 1e-9, smallest eigenvalue above -1e-9) or
    :class:`IntegratorAccuracyError` is raised: violations mean the
    requested tolerance was not actually achieved.
    """
    if not isinstance(rho0, DensityMatrix2):
        rho0 = DensityMatrix2(rho0)
    tau_grid = np.asarray(tau_grid, dtype=float)
    flat = propagate_constant(liouv.matrix, so.vec(rho0.entries), tau_grid, rtol=rtol)
    states = flat.reshape(len(tau_grid), 2, 2)

    traces = np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)
    if np.any(traces > 1e-9):
        k = int(np.argmax(traces))
        raise IntegratorAccuracyError(
            f"trace defect {traces[k]:.3e} at tau={tau_grid[k]:g} exceeds 1e-9"
        )
    herm = 0.5 * (states + np.conj(np.swapaxes(states, 1, 2)))
    eigs = np.linalg.eigvalsh(herm)
    if np.any(eigs[:, 0] < -1e-9):
        k = int(np.argmin(eigs[:, 0]))
        raise IntegratorAccuracyError(
            f"negative eigenvalue {eigs[k, 0]:.3e} at tau={tau_grid[k]:g} "
            "exceeds the -1e-9 bound"
        )
    return states


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random full-rank 2x2 density matrix (Ginibre construction)."""
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def steady_states(liouv: Liouvillian2):
    """Null space of the Liouvillian as a list of 2x2 matrices.

    Vectors with singular value below ``1e-10 * smax`` count as null.
    The basis is orthonormal in the Hilbert-Schmidt inner product, with
    an arbitrary but deterministic phase.
    """
    u, s, vh = np.linalg.svd(liouv.matrix)
    smax = s[0] if len(s) else 0.0
    null = [vh[i].conj() for i in range(4) if s[i] <= 1e-10 * max(smax, 1e-300)]
    out = []
    for v in null:
        # fix the phase: largest-magnitude entry real positive
        k = int(np.argmax(np.abs(v)))
        v = v * np.exp(-1j * np.angle(v[k]))
        out.append(so.unvec(v, 2))
    return out


def gks_check(liouv) -> GKSReport:
    """Kossakowski (coefficient) matrix of the dissipative part.

    Accepts a :class:`Liouvillian2` or a raw 4x4 superoperator matrix.
    The expansion uses the unnormalized Pauli basis (sigma_x, sigma_y,
    sigma_z); complete positivity of the generated semigroup is
    equivalent to the reported matrix being positive semidefinite
    (``min_eigenvalue >= -1e-12`` after scaling).
    """
    if isinstance(liouv, Liouvillian2):
        m = liouv.matrix
    else:
        m = np.asarray(liouv, dtype=complex)
        if m.shape != (4, 4):
            raise StructuralError(f"expected a 4x4 superoperator, got {m.shape}")
        if so.trace_dual_defect(m, 2) > _STRUCT_TOL:
            raise StructuralError(
                "superoperator does not preserve the trace; no GKS form exists"
            )
    block_ortho, _ = so.gks_block(m, 2)
    # orthonormal basis is sigma/sqrt(2): rescale onto plain Paulis
    block = 0.5 * block_ortho
    min_eig = float(np.linalg.eigvalsh(block)[0])
    scale = max(float(np.linalg.norm(block)), 1.0)
    return GKSReport(
        gks_matrix=block,
        min_eigenvalue=min_eig,
        is_lindblad=bool(min_eig >= -1e-12 * scale),
    )


def bloch_density_bridge(spin: SpinBosonParams, gamma_theta: float, rho0,
                         tau_grid, rtol: float = 1e-10):
    """Largest deviation between the triple route and the density route.

    ``rho0`` is one state (a 2x2 matrix or :class:`DensityMatrix2`),
    giving a float, or a stack of shape (k, 2, 2), giving one deviation
    per state as a length-k array. The triple propagator is computed once
    per call; each state gets its own density solve. Both routes use the
    same tolerance. A deviation beyond ``100 * rtol`` indicates
    inconsistent sign/phase conventions between the two generators rather
    than integration error, and raises :class:`ConventionMismatchError`.
    """
    if isinstance(rho0, DensityMatrix2):
        rho0 = rho0.entries
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim not in (2, 3) or rho0.shape[-2:] != (2, 2) or rho0.size == 0:
        raise ValueError(
            f"rho0 must have shape (2, 2) or (k, 2, 2) with k >= 1, got {rho0.shape}"
        )
    tau_grid = np.asarray(tau_grid, dtype=float)

    liouv = spin_liouvillian(spin, gamma_theta)
    props = propagator_matrix(rapid_generator(spin, gamma_theta), tau_grid,
                              rtol=rtol)
    # D_alpha(tau) = sum_b M[a,b] D_b(0), then tr[rho0 D_alpha(tau)]
    base = np.stack(TRIPLE_AT_ZERO)  # (3, 2, 2)
    d_t = np.einsum("tab,bij->taij", props, base)

    devs = []
    for rho in rho0.reshape(-1, 2, 2):
        states = propagate_density(liouv, rho, tau_grid, rtol=rtol)
        expect = np.einsum("ij,taji->ta", rho, d_t)
        dev = 0.0
        dev = max(dev, float(np.max(np.abs(states[:, 1, 0] - expect[:, 0]))))
        dev = max(dev, float(np.max(np.abs(states[:, 0, 1] - expect[:, 2]))))
        pop_plus = 0.5 * (1.0 + expect[:, 1])
        dev = max(dev, float(np.max(np.abs(states[:, 0, 0] - pop_plus))))
        pop_minus = 0.5 * (1.0 - expect[:, 1])
        dev = max(dev, float(np.max(np.abs(states[:, 1, 1] - pop_minus))))
        devs.append(dev)
    worst = max(devs)
    if worst > 100.0 * rtol:
        raise ConventionMismatchError(
            f"triple and density routes disagree by {worst:.3e} "
            f"(> 100 * rtol = {100 * rtol:.1e}); conventions are inconsistent"
        )
    return devs[0] if rho0.ndim == 2 else np.array(devs)
