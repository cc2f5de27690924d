"""Heisenberg evolution of the eigenoperator triple of a two-level system.

The triple ``(D_plus, D_zero, D_minus)`` consists of the raising operator,
the population inversion and the lowering operator in the energy
eigenbasis (at time zero: ``[[0,1],[0,0]]``, ``diag(1,-1)``,
``[[0,0],[1,0]]``). The triple is closed under

    dX/dtau = i [H, X] - (gamma/4) [S, [S, X]],

with ``H = (omega0/2) diag(1,-1)`` and the unit-Pauli coupling ``S`` of
:class:`~opendecay.model.SpinBosonParams`, so the dynamics reduces to a
3x3 generator acting on coefficient vectors. In the rapid-decay regime
the generator is (writing ``e = eps_tilde``, ``d = delta_tilde``,
``g = gamma_theta``):

    [ -(d^2 + 2 e^2) g/2 + i omega0,   e d g / 2,    d^2 g / 2              ]
    [  e d g,                          -d^2 g,       e d g                  ]
    [  d^2 g / 2,                      e d g / 2,    -(d^2+2 e^2) g/2 - i omega0 ]

whose eigenvalue real parts always sum to ``-2 gamma_theta`` (its real
trace, since ``d^2 + e^2 = 1``). The weak coupling counterpart is
diagonal with dephasing rate ``gamma_D = d^2 gamma_w / 2`` on the
coherences and relaxation rate ``gamma_R = d^2 gamma_w`` on the
inversion (ratio exactly two), where ``gamma_w`` is
:func:`~opendecay.spectral.gamma_theta_weak`.

Either generator is a plain read-only complex 3x3 array; the routes that
take one pass it through one check of its shape and entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ``integrate`` stays importable here: the benchmark's tracer test checks
# that its reference in this module is rebound (bench/tests/test_bench.py)
from ._integrate import integrate, propagate_constant  # noqa: F401
from .errors import AccuracyError, StructuralError, ValidationError
from .model import (
    BathSpectrum,
    SpinBosonParams,
    _checked_all_finite,
    _checked_finite,
    _checked_grid,
)
from .spectral import gamma_theta_weak

__all__ = [
    "DecaySpectrum",
    "rapid_generator",
    "weak_generator",
    "propagate_bloch",
    "decay_spectrum",
    "find_classification_boundary",
    "TRIPLE_AT_ZERO",
]

# Operator representation of the triple at tau = 0, eigenbasis.
TRIPLE_AT_ZERO = (
    np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
)


def _checked_generator(gen) -> np.ndarray:
    """``gen`` as a complex 3x3 array, refused before any LAPACK call.

    StructuralError unless its shape is (3, 3), and ValidationError naming
    ``gen`` and its first non-finite entry.
    """
    m = np.asarray(gen, dtype=complex)
    if m.shape != (3, 3):
        raise StructuralError(f"gen must be a 3x3 triple generator, got shape {m.shape}")
    _checked_all_finite(m, "gen")
    return m


@dataclass(frozen=True)
class DecaySpectrum:
    """Eigenvalues of a Bloch generator, sorted by (Re, Im) ascending."""

    eigenvalues: np.ndarray
    classification: str


def rapid_generator(spin: SpinBosonParams, gamma_theta: float) -> np.ndarray:
    """Read-only 3x3 triple generator in the rapid-decay (flat-band) regime.

    ValidationError names ``gamma_theta`` unless it is finite and >= 0,
    and when it is so large that an entry of the generator overflows.
    """
    e, d, w0 = spin.eps_tilde, spin.delta_tilde, spin.omega0
    g = _checked_finite("gamma_theta", gamma_theta, ">= 0")
    # the entries are products of Python floats, which overflow to inf silently
    diag = -(d * d + 2.0 * e * e) * g / 2.0
    m = np.array(
        [
            [diag + 1j * w0, e * d * g / 2.0, d * d * g / 2.0],
            [e * d * g, -d * d * g, e * d * g],
            [d * d * g / 2.0, e * d * g / 2.0, diag - 1j * w0],
        ],
        dtype=complex,
    )
    if not np.isfinite(m).all():
        raise ValidationError(f"gamma_theta = {g:g} is too large: a generator entry overflows")
    m.setflags(write=False)
    return m


def weak_generator(spin: SpinBosonParams, bath: BathSpectrum) -> np.ndarray:
    """Read-only 3x3 triple generator from the secular weak-coupling treatment."""
    gw = gamma_theta_weak(spin, bath)
    d2 = spin.delta_tilde**2
    gamma_d = 0.5 * d2 * gw
    gamma_r = d2 * gw
    m = np.diag(
        [
            -gamma_d + 1j * spin.omega0,
            -gamma_r + 0.0j,
            -gamma_d - 1j * spin.omega0,
        ]
    )
    m.setflags(write=False)
    return m


def propagate_bloch(gen, triple0, tau_grid, method: str = "taylor") -> np.ndarray:
    """Evolve a coefficient triple over ``tau_grid``.

    ``gen`` is refused first, as :func:`decay_spectrum` refuses it.
    ``method="taylor"`` is the truncated Taylor propagator of
    :func:`~opendecay._integrate.propagate_constant`, exact to round-off;
    ``method="expm"`` evaluates the matrix exponential at every node
    (the reference route). ValidationError names ``triple0`` unless its
    entries are finite, and ``tau_grid`` unless it is 1-d, finite and
    strictly increasing; each message names the first bad node.
    """
    gen = _checked_generator(gen)
    tau_grid = _checked_grid(tau_grid, "tau_grid")
    v0 = np.asarray(triple0, dtype=complex)
    if v0.shape != (3,):
        raise ValueError(f"triple0 must have shape (3,), got {v0.shape}")
    _checked_all_finite(v0, "triple0")
    return propagate_constant(gen, v0, tau_grid, method=method)


def decay_spectrum(gen) -> DecaySpectrum:
    """Eigenvalues and oscillation classification of a triple generator.

    StructuralError refuses a shape other than (3, 3), and ValidationError
    names ``gen`` and its first non-finite entry. An eigenvalue counts as
    complex when ``|Im| > 1e-10 * gamma``, with the scale
    ``gamma = |Re tr gen| / 2`` read from the generator itself: the
    eigenvalue real parts sum to the real trace, which is
    ``-2 gamma_theta`` for :func:`rapid_generator`. By the conjugation
    symmetry of the generator the complex eigenvalues come in pairs, so
    the spectrum is labeled either ``"two_complex_one_real"`` or
    ``"three_real"``.
    """
    gen = _checked_generator(gen)
    eigs = np.linalg.eigvals(gen)
    order = np.lexsort((eigs.imag, eigs.real))
    eigs = eigs[order]
    # halving each entry first is exact and keeps the sum finite where
    # the trace of a finite rapid generator would overflow
    gamma = abs(float(np.sum(0.5 * gen.diagonal().real)))
    n_complex = int(np.sum(np.abs(eigs.imag) > 1e-10 * gamma))
    classification = "two_complex_one_real" if n_complex >= 2 else "three_real"
    return DecaySpectrum(eigenvalues=eigs, classification=classification)


def find_classification_boundary(spin: SpinBosonParams, gamma_lo: float,
                                 gamma_hi: float, tol: float) -> float:
    """Bisect for a gamma_theta where the oscillation classification flips.

    Requires the spectrum to oscillate at one end of the bracket and not
    at the other, in either order: at a small bias it oscillates, stops
    and oscillates again as gamma_theta grows. Raises
    :class:`AccuracyError` when both ends classify alike, and
    :class:`ValidationError` naming ``gamma_lo`` or ``gamma_hi`` unless it
    is finite and >= 0 (``gamma_hi`` also when below ``gamma_lo``), or
    ``tol`` unless it is finite and > 0. Bisection stops at a bracket of
    width ``tol`` or once the midpoint is no longer strictly inside it, so
    a ``tol`` below the float spacing ends there.
    A bracket holding several flips yields one of them.
    """
    lo = _checked_finite("gamma_lo", gamma_lo, ">= 0")
    hi = _checked_finite("gamma_hi", gamma_hi, ">= 0")
    if hi < lo:
        raise ValidationError(
            f"gamma_hi = {hi:g} is below gamma_lo = {lo:g}: the bracket is reversed"
        )
    tol = _checked_finite("tol", tol, "> 0")

    def oscillating(g: float) -> bool:
        return (
            decay_spectrum(rapid_generator(spin, g)).classification
            == "two_complex_one_real"
        )

    at_lo = oscillating(lo)
    if oscillating(hi) == at_lo:
        raise AccuracyError(
            "classification does not change over the supplied bracket "
            f"[{gamma_lo:g}, {gamma_hi:g}]"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if oscillating(mid) == at_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
