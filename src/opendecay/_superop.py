"""Row-major vectorization helpers and complete-positivity bookkeeping.

Conventions: ``vec`` stacks rows, so ``vec(A X B) = (A kron B^T) vec(X)``.
The reshuffle of a superoperator matrix ``L[(i,j),(k,l)] -> C[(i,k),(j,l)]``
turns ``A . B-sandwich`` terms into rank-one outer products
``vec(A) vec(B)^dagger`` (for Hermitian B), so expanding ``C`` in an
orthonormal operator basis exposes the coefficient ("Kossakowski") matrix.
"""

from __future__ import annotations

import math

import numpy as np


def vec(a):
    return np.asarray(a).reshape(-1)


def left_right(a, b):
    """Superoperator of X -> A X B."""
    # a contiguous B^T: the same entries, and np.kron runs about 3x faster
    return np.kron(a, np.ascontiguousarray(np.asarray(b).T))


def commutator_super(h):
    d = h.shape[0]
    eye = np.eye(d)
    return left_right(h, eye) - left_right(eye, h)


def reshuffle(mat, d):
    return mat.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def traceless_hermitian_basis(d):
    """Orthonormal traceless Hermitian basis (generalized Gell-Mann).

    For d = 2 the order is (sigma_x, sigma_y, sigma_z) / sqrt(2), so the
    coefficient matrix lines up with the Pauli convention after rescaling.
    """
    basis = []
    sym_pairs = []
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            sym_pairs.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = -1.0j / np.sqrt(2.0)
            m[j, i] = 1.0j / np.sqrt(2.0)
            sym_pairs.append(m)
    # diagonal members
    diags = []
    for k in range(1, d):
        v = np.zeros(d)
        v[:k] = 1.0
        v[k] = -k
        v /= np.sqrt(k * (k + 1))
        diags.append(np.diag(v).astype(complex))
    # off-diagonal pairs first, diagonals last; for d = 2 this is exactly
    # (sigma_x, sigma_y, sigma_z) / sqrt(2)
    return sym_pairs + diags


def coefficient_matrix(liouv_matrix, d):
    """Expand a superoperator in the orthonormal operator basis.

    Returns the full (d^2 x d^2) coefficient matrix with index 0 the
    identity direction ``I/sqrt(d)`` and indices 1.. the traceless basis.
    The lower-right traceless block is the Kossakowski matrix of the
    dissipative part; Hamiltonian and anticommutator pieces only occupy
    row/column 0.
    """
    basis = [np.eye(d, dtype=complex) / np.sqrt(d)] + traceless_hermitian_basis(d)
    c = reshuffle(np.asarray(liouv_matrix, dtype=complex), d)
    b = np.stack([vec(f) for f in basis], axis=1)  # (d^2, d^2)
    return b.conj().T @ c @ b


def gks_block(liouv_matrix, d):
    """Kossakowski block (orthonormal basis convention) and its minimum eigenvalue."""
    a_full = coefficient_matrix(liouv_matrix, d)
    block = a_full[1:, 1:]
    block = 0.5 * (block + block.conj().T)
    min_eig = float(np.linalg.eigvalsh(block)[0])
    return block, min_eig


def binary_scaled(m):
    """``(m * 2**-e, e)``, the power of two chosen so the largest entry lies in [0.5, 1).

    Scaling by a power of two is exact, so a ratio of norms taken on the
    scaled copy is the ratio on ``m`` to the bit, and no norm of it
    overflows. A zero or non-finite ``m`` comes back as it is, with e = 0.
    """
    m = np.asarray(m)
    peak = float(np.max(np.abs(m)))
    if not 0.0 < peak < np.inf:
        return m, 0
    # beyond 2**1000 the inverse power would overflow; entries that small stay below 1
    e = max(math.frexp(peak)[1], -1000)
    return m * math.ldexp(1.0, -e), e


def trace_dual_defect(liouv_matrix, d):
    """Norm of tr(L(X)) as a functional, relative to the matrix norm."""
    m, _ = binary_scaled(liouv_matrix)
    lhs = vec(np.eye(d)) @ m
    norm = np.linalg.norm(m)
    return float(np.linalg.norm(lhs) / norm) if norm > 0.0 else 0.0


def hermiticity_involution_defect(liouv_matrix, d):
    """How far L is from commuting with the adjoint involution X -> X^dagger."""
    m, _ = binary_scaled(np.asarray(liouv_matrix, dtype=complex))
    perm = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            perm[i * d + j, j * d + i] = 1.0
    norm = np.linalg.norm(m)
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(perm @ m.conj() @ perm - m) / norm)
