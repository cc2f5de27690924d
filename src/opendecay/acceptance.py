"""End-to-end physics checks with frozen parameters and tolerances.

Each criterion exercises one headline property of the package through
its public interface only, reports a measured number against a pinned
tolerance, and never adapts the tolerance to the data.  ``run_all``
catches exceptions per criterion so a broken routine shows up as a
failed criterion with the error text, not as an aborted run.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass

import numpy as np

from . import _superop as so
from .bloch import (
    decay_spectrum,
    find_classification_boundary,
    rapid_generator,
    weak_generator,
)
from .lindblad import (
    bloch_density_bridge,
    gks_check,
    propagate_density,
    random_density_matrix,
    spin_liouvillian,
)
from .model import BathSpectrum, GaussianState, OscillatorParams, make_spin_params
from .qbm.coefficients import (
    exact_coefficients,
    lambda_theta,
    limit_coefficients,
    limit_lambda_theta,
)
from .qbm.fock import coherent_density, fock_liouvillian, fock_moments, \
    truncated_basis_propagate
from .qbm.moments import propagate_moments
from .qbm.propagator import propagator_via_laplace, solve_propagator
from .spectral import renormalized_frequency_sq

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    elapsed: float
    detail: str


def _criterion_1():
    """Weak-coupling relaxation rate is exactly twice the dephasing rate."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        eps = rng.uniform(-3.0, 3.0)
        delta = rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])
        spin = make_spin_params(eps, delta)
        bath = BathSpectrum(
            eta=rng.uniform(0.01, 1.0),
            cutoff=rng.uniform(1.0, 10.0),
            shape="exponential",
            temperature=rng.uniform(0.1, 5.0),
        )
        gen = weak_generator(spin, bath)
        gamma_d = -gen[0, 0].real
        gamma_r = -gen[1, 1].real
        worst = max(worst, abs(gamma_r / gamma_d - 2.0))
    return worst < 1e-12, f"max |gamma_R/gamma_D - 2| = {worst:.3e} (tol 1e-12)"


def _criterion_2():
    """Real parts of the triple spectrum always sum to -2 gamma_theta."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        spin = make_spin_params(rng.uniform(-3.0, 3.0), rng.uniform(0.1, 3.0))
        g = rng.uniform(0.01, 5.0)
        spec = decay_spectrum(rapid_generator(spin, g))
        worst = max(worst, abs(float(np.sum(spec.eigenvalues.real)) + 2.0 * g))
    return worst < 1e-10, f"max |sum Re + 2 gamma| = {worst:.3e} (tol 1e-10)"


def _criterion_3():
    """At zero bias the oscillating regime ends at gamma_theta = 2 omega0."""
    spin = make_spin_params(0.0, 1.0)
    boundary = find_classification_boundary(spin, 1.0, 3.0, tol=1e-6)
    dev = abs(boundary - 2.0)
    return dev < 1e-4, f"flip at gamma = {boundary:.8f}, |dev from 2| = {dev:.2e} (tol 1e-4)"


def _criterion_4():
    """Generic states relax to 1/2, and pure dephasing decays at gamma_theta."""
    spin = make_spin_params(math.sqrt(3.0), math.sqrt(6.0))
    liouv = spin_liouvillian(spin, 0.5)
    rng = np.random.default_rng(404)
    tau = np.linspace(0.0, 40.0, 81)
    rho0s = np.stack([random_density_matrix(rng) for _ in range(20)])
    diff = propagate_density(liouv, rho0s, tau)[-1] - 0.5 * np.eye(2)
    worst_mix = 0.5 * float(np.max(np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)))

    spin_z = make_spin_params(2.0, 0.0)
    liouv_z = spin_liouvillian(spin_z, 0.5)
    rho0 = np.array([[0.7, 0.25 + 0.1j], [0.25 - 0.1j, 0.3]])
    tau2 = np.linspace(0.0, 4.0, 41)
    states = propagate_density(liouv_z, rho0, tau2)
    coh = np.abs(states[:, 0, 1])
    expected = abs(rho0[0, 1]) * np.exp(-0.5 * tau2)
    worst_deph = float(np.max(np.abs(coh - expected) / expected))
    ok = worst_mix < 1e-6 and worst_deph < 1e-8
    return ok, (
        f"trace distance to 1/2 at tau=40: {worst_mix:.3e} (tol 1e-6); "
        f"dephasing law rel dev {worst_deph:.3e} (tol 1e-8)"
    )


def _criterion_5():
    """Spin dissipator is Lindblad; frozen oscillator generator is not."""
    report = gks_check(spin_liouvillian(make_spin_params(1.0, 2.0), 0.8))
    eigs = np.linalg.eigvalsh(report.gks_matrix)
    ok_spin = (
        report.is_lindblad
        and abs(eigs[-1] - 0.4) < 1e-10
        and float(np.max(np.abs(eigs[:-1]))) <= 1e-10
    )

    osc = OscillatorParams(1.0, 1.0)
    full = fock_liouvillian(osc, n_max=6, omega_sq=1.0, d_xx=0.05,
                            d_xp=0.01, gamma_xp=0.03)
    _, min_full = so.gks_block(full, 7)
    ok_full = min_full < -1e-8

    diff_only = fock_liouvillian(osc, n_max=6, omega_sq=1.0, d_xx=0.05,
                                 d_xp=0.0, gamma_xp=0.0)
    block, min_diff = so.gks_block(diff_only, 7)
    scale = max(float(np.linalg.norm(block)), 1.0)
    ok_diff = min_diff >= -1e-12 * scale
    ok = ok_spin and ok_full and ok_diff
    return ok, (
        f"spin coefficient eigs {eigs[-1]:.12f} / max other {np.max(np.abs(eigs[:-1])):.1e} "
        f"(want 0.4 / 0); mixed-term min eig {min_full:.3e} (< -1e-8); "
        f"diffusion-only min eig {min_diff:.3e} (>= -1e-12 scaled)"
    )


def _criterion_6():
    """Heisenberg-triple and density routes agree for random states."""
    spin = make_spin_params(3.0, 4.0)
    rng = np.random.default_rng(606)
    tau = np.linspace(0.0, 10.0, 51)
    states = np.stack([random_density_matrix(rng) for _ in range(20)])
    worst = float(np.max(bloch_density_bridge(spin, 1.0, states, tau, rtol=1e-10)))
    return worst < 1e-8, f"max bridge deviation {worst:.3e} (tol 1e-8)"


_BATH = BathSpectrum(eta=0.2, cutoff=5.0, shape="exponential", temperature=5.0)
_OSC = OscillatorParams(mass=1.0, omega0=1.0)


def _criterion_7():
    """Memory-equation and Laplace-inversion propagators agree."""
    free = BathSpectrum(0.0, 5.0, "exponential", 5.0)
    pf0 = solve_propagator(free, _OSC, 0.5, 10.0)
    dev0 = float(np.max(np.abs(pf0.G - np.sin(pf0.tau_grid))))
    parts = [f"free dev {dev0:.2e} (tol 1e-8)"]
    worst = 0.0
    for lam in (0.4, 0.2, 0.1):
        pf = solve_propagator(_BATH, _OSC, lam, 10.0)
        stride = max(1, pf.tau_grid.size // 512)
        sub = pf.tau_grid[::stride]
        pl = propagator_via_laplace(_BATH, _OSC, lam, sub)
        dev = float(np.max(np.abs(pf.G[::stride] - pl.G)))
        worst = max(worst, dev)
        parts.append(f"lam={lam:g}: {dev:.2e}")
    ok = dev0 < 1e-8 and worst <= 1e-6
    return ok, "; ".join(parts) + " (route tol 1e-6)"


def _criterion_8():
    """Exact coefficients converge onto the flat plateau as lam shrinks."""
    window = np.linspace(0.9, 2.9, 101)
    dev_xx, dev_xp, dev_g = [], [], []
    for lam in (0.4, 0.2, 0.1):
        prop = solve_propagator(_BATH, _OSC, lam, 2.9)
        coeffs = exact_coefficients(prop, window)
        dev_xx.append(float(np.max(np.abs(coeffs.D_xx - 0.5))))
        dev_xp.append(float(np.max(np.abs(coeffs.D_xp))))
        dev_g.append(float(np.max(np.abs(coeffs.Gamma_xp))))

    def shrinks(seq):
        ratios = [a / b for a, b in zip(seq, seq[1:])]
        return all(2.5 <= r <= 6.0 for r in ratios)

    ok = shrinks(dev_xx) and shrinks(dev_xp) and shrinks(dev_g)
    fmt = lambda s: "/".join(f"{v:.2e}" for v in s)  # noqa: E731
    return ok, (
        f"lam=0.4/0.2/0.1 deviations D_xx {fmt(dev_xx)}, D_xp {fmt(dev_xp)}, "
        f"Gamma_xp {fmt(dev_g)}; successive ratios must lie in [2.5, 6]"
    )


def _criterion_9():
    """Kernel entries at small lam match the closed-form limit expressions."""
    wr = math.sqrt(renormalized_frequency_sq(_BATH, _OSC))
    prop = solve_propagator(_BATH, _OSC, 0.05, 7.5)
    phases = np.linspace(0.6, 6.0, 12)
    taus = [
        ph / wr
        for ph in phases
        if abs(math.sin(ph)) > 0.3 and abs(math.cos(ph)) > 0.2
    ]
    got = np.array(astuple(lambda_theta(prop, np.array(taus))))  # one Theta pass
    want = np.array([astuple(limit_lambda_theta(_BATH, _OSC, ts)) for ts in taus]).T
    worst = np.max(np.abs(got - want) / np.abs(want))
    return worst < 0.05, (
        f"max relative deviation {worst:.3%} over {len(taus)} times (tol 5%)"
    )


def _criterion_10():
    """Gaussian moment transport agrees with number-basis integration."""
    bath = BathSpectrum(0.1, 5.0, "exponential", 2.0)
    coeffs = limit_coefficients(bath, _OSC, [0.0])
    mw = _OSC.mass * _OSC.omega0
    state0 = GaussianState(1.0, 0.5, 0.5 / mw, 0.5 * mw)
    tau = np.linspace(0.0, 5.0, 51)
    mom_ode = propagate_moments(coeffs, _OSC, state0, tau, rtol=1e-10)
    rho0 = coherent_density(_OSC, 1.0, 0.5, n_max=40)
    states = truncated_basis_propagate(coeffs, _OSC, rho0, tau, rtol=1e-10)
    mom_fock = fock_moments(states, _OSC)
    rels = []
    for i in range(5):
        scale = float(np.max(np.abs(mom_ode[:, i])))
        rels.append(float(np.max(np.abs(mom_fock[:, i] - mom_ode[:, i]))) / scale)
    worst = max(rels)
    return worst <= 1e-4, (
        "per-moment relative deviations "
        + ", ".join(f"{r:.2e}" for r in rels)
        + " (tol 1e-4)"
    )


CRITERIA = (
    (1, "weak-coupling rate ratio", _criterion_1),
    (2, "triple spectrum trace law", _criterion_2),
    (3, "oscillation threshold at zero bias", _criterion_3),
    (4, "relaxation and pure dephasing laws", _criterion_4),
    (5, "complete-positivity fingerprints", _criterion_5),
    (6, "triple/density bridge", _criterion_6),
    (7, "propagator route agreement", _criterion_7),
    (8, "coefficient plateau convergence", _criterion_8),
    (9, "small-coupling closed-form kernel entries", _criterion_9),
    (10, "Gaussian vs number-basis transport", _criterion_10),
)


def run_all(indices=None):
    """Run the checks (all by default); returns a list of CriterionResult."""
    if indices is not None:
        known = {i for i, _, _ in CRITERIA}
        bad = sorted(set(indices) - known)
        if bad:
            raise ValueError(f"unknown criterion number(s): {bad}")
    results = []
    for index, name, fn in CRITERIA:
        if indices is not None and index not in indices:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, don't abort the run
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        results.append(CriterionResult(index, name, bool(passed), elapsed, detail))
    return results
