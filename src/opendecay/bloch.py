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

whose eigenvalue real parts always sum to ``-2 gamma_theta``. The weak
coupling counterpart is diagonal with dephasing rate
``gamma_D = d^2 gamma_w / 2`` on the coherences and relaxation rate
``gamma_R = d^2 gamma_w`` on the inversion (ratio exactly two), where
``gamma_w`` is :func:`~opendecay.spectral.gamma_theta_weak`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ``integrate`` stays importable here: the benchmark's tracer test checks
# that its reference in this module is rebound (bench/tests/test_bench.py)
from ._integrate import integrate, propagate_constant  # noqa: F401
from .errors import AccuracyError, ValidationError
from .model import (
    BathSpectrum,
    SpinBosonParams,
    _checked_all_finite,
    _checked_finite,
    _checked_grid,
)
from .spectral import gamma_theta_weak

__all__ = [
    "BlochGenerator",
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


@dataclass(frozen=True)
class BlochGenerator:
    """3x3 generator for the eigenoperator triple."""

    matrix: np.ndarray
    gamma_theta: float


@dataclass(frozen=True)
class DecaySpectrum:
    """Eigenvalues of a Bloch generator, sorted by (Re, Im) ascending."""

    eigenvalues: np.ndarray
    decay_constants: np.ndarray
    classification: str


def rapid_generator(spin: SpinBosonParams, gamma_theta: float) -> BlochGenerator:
    """Triple generator in the rapid-decay (flat-band) regime, gamma_theta >= 0."""
    e, d, w0 = spin.eps_tilde, spin.delta_tilde, spin.omega0
    g = _checked_finite("gamma_theta", gamma_theta, ">= 0")
    diag = -(d * d + 2.0 * e * e) * g / 2.0
    m = np.array(
        [
            [diag + 1j * w0, e * d * g / 2.0, d * d * g / 2.0],
            [e * d * g, -d * d * g, e * d * g],
            [d * d * g / 2.0, e * d * g / 2.0, diag - 1j * w0],
        ],
        dtype=complex,
    )
    return BlochGenerator(matrix=m, gamma_theta=g)


def weak_generator(spin: SpinBosonParams, bath: BathSpectrum) -> BlochGenerator:
    """Triple generator from the secular weak-coupling treatment."""
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
    return BlochGenerator(matrix=m, gamma_theta=gw)


def propagate_bloch(gen: BlochGenerator, triple0, tau_grid,
                    method: str = "taylor") -> np.ndarray:
    """Evolve a coefficient triple over ``tau_grid``.

    ``method="taylor"`` is the truncated Taylor propagator of
    :func:`~opendecay._integrate.propagate_constant`, exact to round-off;
    ``method="expm"`` evaluates the matrix exponential at every node
    (the reference route). ValidationError names ``triple0`` unless its
    entries are finite, and ``tau_grid`` unless it is 1-d, finite and
    strictly increasing; each message names the first bad node.
    """
    tau_grid = _checked_grid(tau_grid, "tau_grid")
    v0 = np.asarray(triple0, dtype=complex)
    if v0.shape != (3,):
        raise ValueError(f"triple0 must have shape (3,), got {v0.shape}")
    _checked_all_finite(v0, "triple0")
    return propagate_constant(gen.matrix, v0, tau_grid, method=method)


def decay_spectrum(gen: BlochGenerator) -> DecaySpectrum:
    """Eigenvalues, decay constants and oscillation classification.

    An eigenvalue counts as complex when ``|Im| > 1e-10 * gamma_theta``;
    by the conjugation symmetry of the generator the complex ones come in
    pairs, so the spectrum is labeled either ``"two_complex_one_real"``
    or ``"three_real"``.
    """
    eigs = np.linalg.eigvals(gen.matrix)
    order = np.lexsort((eigs.imag, eigs.real))
    eigs = eigs[order]
    threshold = 1e-10 * gen.gamma_theta
    n_complex = int(np.sum(np.abs(eigs.imag) > threshold))
    classification = "two_complex_one_real" if n_complex >= 2 else "three_real"
    return DecaySpectrum(
        eigenvalues=eigs,
        decay_constants=-eigs.real,
        classification=classification,
    )


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
