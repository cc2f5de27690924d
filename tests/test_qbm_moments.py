"""Moment transport and its truncated number-basis counterpart."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from opendecay._cubic import hermite
from opendecay._integrate import integrate
from opendecay._superop import commutator_super, left_right
from opendecay.errors import TruncationError, ValidationError
from opendecay.model import BathSpectrum, GaussianState, OscillatorParams
from opendecay.qbm import fock
from opendecay.qbm.coefficients import QBMCoefficients, limit_coefficients
from opendecay.qbm.fock import (
    coherent_density,
    fock_liouvillian,
    fock_moments,
    ladder_operators,
    truncated_basis_propagate,
)
from opendecay.qbm import moments
from opendecay.qbm.moments import (
    MOMENT_LABELS,
    coefficient_weights,
    propagate_moments,
)

OSC = OscillatorParams(1.0, 1.0)


def _free_coeffs():
    return QBMCoefficients(np.array([0.0]), OSC.omega0**2, 0.0, 0.0, 0.0)


def test_moment_labels_order():
    assert MOMENT_LABELS == ("mean_x", "mean_p", "var_xx", "cov_xp", "var_pp")


def test_free_oscillation_closed_form():
    # undamped harmonic transport: phase-space rotation of the means
    state0 = GaussianState(1.0, 0.0, 0.5, 0.5)
    tau = np.linspace(0.0, 7.0, 141)
    out = propagate_moments(_free_coeffs(), OSC, state0, tau)
    assert np.max(np.abs(out[:, 0] - np.cos(tau))) < 1e-9
    assert np.max(np.abs(out[:, 1] + np.sin(tau))) < 1e-9
    # the symmetric vacuum-width covariance is rotation invariant
    assert np.max(np.abs(out[:, 2] - 0.5)) < 1e-9
    assert np.max(np.abs(out[:, 3])) < 1e-9
    assert np.max(np.abs(out[:, 4] - 0.5)) < 1e-9


def test_constant_diffusion_heats_linearly():
    # diffusion without friction: mean energy grows exactly linearly,
    # dE/dtau = D_xx / M
    bath_like = QBMCoefficients(np.array([0.0]), OSC.omega0**2, 0.08, 0.0, 0.0)
    state0 = GaussianState(0.4, -0.3, 0.6, 0.7, cov_xp=0.05)
    tau = np.linspace(0.0, 9.0, 61)
    out = propagate_moments(bath_like, OSC, state0, tau)
    m, w2 = OSC.mass, OSC.omega0**2

    def energy(row, mx, mp):
        return (row[4] + mp**2) / (2.0 * m) + 0.5 * m * w2 * (row[2] + mx**2)

    e = np.array([energy(out[i], out[i, 0], out[i, 1]) for i in range(len(tau))])
    assert np.max(np.abs(e - e[0] - 0.08 / m * tau)) < 1e-8 * max(1.0, e[-1])


def test_friction_contracts_the_means():
    co = QBMCoefficients(np.array([0.0]), OSC.omega0**2, 0.0, 0.0, 0.25)
    state0 = GaussianState(1.0, 0.0, 0.5, 0.5)
    tau = np.linspace(0.0, 12.0, 25)
    out = propagate_moments(co, OSC, state0, tau)
    # underdamped envelope: |(x, p)| decays like exp(-Gamma_xp tau)
    r = np.hypot(out[:, 0], out[:, 1])
    assert r[-1] < 1.1 * math.exp(-0.25 * tau[-1])
    assert np.all(r[1:] < 1.0)


def test_coefficient_weights_constant_and_window_paths(monkeypatch):
    const = coefficient_weights(_free_coeffs(), np.linspace(0.0, 3.0, 7))
    assert const(2.1).tolist() == [1.0, 1.0, 0.0, 0.0, 0.0]

    window = np.linspace(1.0, 2.0, 11)
    co = QBMCoefficients(window, 1.0 + 0.1 * window, 0.02 * window, 0.003 * window**2,
                         0.05 / window)
    rows = np.stack([co.omegaR_sq, co.D_xx, co.D_xp, co.Gamma_xp])
    calls = []
    monkeypatch.setattr(moments, "hermite",
                        lambda *args: calls.append(1) or hermite(*args))
    weights = coefficient_weights(co, np.linspace(1.0, 2.0, 5))
    for k, t in enumerate(window):
        w = weights(t)
        assert w.shape == (5,) and w[0] == 1.0  # exactly, so the kinetic part is unscaled
        np.testing.assert_allclose(w[1:], rows[:, k], rtol=1e-14)
        assert weights(t + 0.05 if k < 10 else t - 0.05)[0] == 1.0
    assert len(calls) == 2 * len(window)  # one per evaluation, all five rows at once
    with pytest.raises(ValidationError, match="outside the coefficient window"):
        coefficient_weights(co, np.linspace(0.5, 1.5, 5))


def test_ladder_operators_commutator():
    x, p = ladder_operators(9, OSC)
    comm = x @ p - p @ x
    want = 1j * np.eye(10)
    want[-1, -1] = comm[-1, -1]  # truncation corrupts the corner entry
    assert np.allclose(comm, want, atol=1e-12)


def test_ladder_operators_reject_trivial_basis():
    with pytest.raises(ValidationError):
        ladder_operators(0, OSC)


@pytest.mark.parametrize("call, name", [
    (lambda: ladder_operators(2.5, OSC), "n_max"),
    (lambda: fock_liouvillian(OSC, 2.5, 1.0, 0.05, 0.0, 0.0), "n_max"),
    (lambda: fock_liouvillian(OSC, 6, math.nan, 0.05, 0.0, 0.0), "omega_sq"),
    (lambda: fock_liouvillian(OSC, 6, 1.0, math.inf, 0.0, 0.0), "d_xx"),
    (lambda: fock_liouvillian(OSC, 6, 1.0, 0.05, math.nan, 0.0), "d_xp"),
    (lambda: fock_liouvillian(OSC, 6, 1.0, 0.05, 0.0, -math.inf), "gamma_xp"),
    (lambda: coherent_density(OSC, 0.5, 0.1, 2.5), "n_max"),
    (lambda: coherent_density(OSC, 0.5, 0.1, -1), "n_max"),
    (lambda: coherent_density(OSC, math.nan, 0.1, 6), "mean_x"),
    (lambda: coherent_density(OSC, 0.5, math.inf, 6), "mean_p"),
])
def test_number_basis_refuses_bad_input_by_name(call, name):
    with pytest.raises(ValidationError, match=name):
        call()


def test_coherent_density_is_a_pure_state_at_the_right_spot():
    rho = coherent_density(OSC, 0.6, -0.4, 24)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
    mom = fock_moments(rho[None, :, :], OSC)[0]
    assert mom[0] == pytest.approx(0.6, abs=1e-9)
    assert mom[1] == pytest.approx(-0.4, abs=1e-9)
    # vacuum widths and no cross correlation
    mw = OSC.mass * OSC.omega0
    assert mom[2] == pytest.approx(0.5 / mw, abs=1e-9)
    assert mom[3] == pytest.approx(0.0, abs=1e-9)
    assert mom[4] == pytest.approx(0.5 * mw, abs=1e-9)


def test_truncated_basis_matches_moment_transport():
    co = QBMCoefficients(np.array([0.0]), 1.1, 0.03, 0.004, 0.02)
    tau = np.linspace(0.0, 3.0, 31)
    rho0 = coherent_density(OSC, 0.5, 0.3, 30)
    states = truncated_basis_propagate(co, OSC, rho0, tau)
    got = fock_moments(states, OSC)
    want = propagate_moments(
        co, OSC, GaussianState(0.5, 0.3, 0.5, 0.5), tau
    )
    assert np.max(np.abs(got - want)) < 1e-7


def _kronecker_liouvillian(osc, n_max, omega_sq, d_xx, d_xp, gamma_xp):
    # the frozen generator summed from dense Kronecker products, independent
    # of the band build of fock._generator_parts; kept as its reference
    x, p = ladder_operators(n_max, osc)
    d = n_max + 1
    eye = np.eye(d, dtype=complex)
    ham = p @ p / (2.0 * osc.mass) + 0.5 * osc.mass * omega_sq * (x @ x)
    liouv = -1j * commutator_super(ham)
    # a group whose coefficient is 0 adds nothing, so its products are not formed
    if d_xx:
        liouv -= d_xx * (
            left_right(x @ x, eye) - 2.0 * left_right(x, x) + left_right(eye, x @ x)
        )
    if d_xp:
        liouv -= 2.0 * d_xp * (
            left_right(x @ p, eye)
            - left_right(x, p)
            - left_right(p, x)
            + left_right(eye, p @ x)
        )
    if gamma_xp:
        liouv -= 1j * gamma_xp * (
            left_right(x @ p, eye)
            + left_right(x, p)
            - left_right(p, x)
            - left_right(eye, p @ x)
        )
    return liouv


def test_truncated_basis_matches_the_frozen_liouvillian(monkeypatch):
    # every term of the generator on (D_xp, G_xp != 0), against the dense
    # superoperator exponential in the same truncated basis
    w2, dxx, dxp, gxp = 1.1, 0.03, 0.02, 0.05
    co = QBMCoefficients(np.array([0.0]), w2, dxx, dxp, gxp)
    n_max = 8
    rho0 = coherent_density(OSC, 0.3, -0.2, n_max)
    tau = np.linspace(0.0, 1.5, 7)
    # the 9-state basis is too small for the truncation guard; lift it,
    # since the dense reference is truncated in the same basis
    monkeypatch.setattr(fock, "_BOUNDARY_TOL", 1.0)
    states = truncated_basis_propagate(co, OSC, rho0, tau, rtol=1e-12)
    liouv = _kronecker_liouvillian(OSC, n_max, w2, dxx, dxp, gxp)
    d = n_max + 1
    for t, rho in zip(tau, states):
        want = (scipy.linalg.expm(liouv * t) @ rho0.reshape(-1)).reshape(d, d)
        assert np.max(np.abs(rho - want)) < 1e-9


@pytest.mark.parametrize("mass", [1.0, 1.7])
@pytest.mark.parametrize("n_max", [1, 2, 6, 8, 40])
def test_fock_liouvillian_matches_the_kronecker_build(n_max, mass):
    # every coefficient off, each switched on alone, and all of them on
    osc = OscillatorParams(mass, 1.3)
    on = np.array([1.2, 0.05, 0.01, 0.03])
    for mask in np.vstack([np.zeros(4), np.eye(4), np.ones(4)]):
        coefficients = on * mask
        got = fock_liouvillian(osc, n_max, *coefficients)
        want = _kronecker_liouvillian(osc, n_max, *coefficients)
        assert got.shape == want.shape == ((n_max + 1) ** 2,) * 2
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n_max", [1, 2, 8, 40])
def test_band_built_parts_match_the_dense_liouvillian(n_max):
    # each part with its coefficient switched on alone, the others off; the
    # kinetic part is the generator with every coefficient off
    osc = OscillatorParams(1.7, 1.3)
    offsets, parts = fock._generator_parts(*ladder_operators(n_max, osc), osc.mass)
    assert parts.shape[:2] == (5, offsets.size)
    kinetic = _kronecker_liouvillian(osc, n_max, 0.0, 0.0, 0.0, 0.0)
    for k, part in enumerate(parts):
        got = fock._csr(offsets, part)
        fresh = scipy.sparse.csr_array((got.data, got.indices, got.indptr), shape=got.shape)
        assert fresh.has_canonical_format  # sorted indices, no duplicates
        assert got.dtype == np.complex128 and np.all(got.data != 0)
        coefficients = [0.0] * 4
        if k:
            coefficients[k - 1] = 1.0
        want = _kronecker_liouvillian(osc, n_max, *coefficients)
        if k:
            want -= kinetic
        assert np.max(np.abs(got.toarray() - want)) <= 1e-14 * np.max(np.abs(want))


def _matrix_form_propagate(coeffs, rho0, tau, rtol):
    # the number-basis generator as six dense matrix products on rho, the
    # form the sparse superoperator replaced; kept as its reference
    x, p = ladder_operators(rho0.shape[0] - 1, OSC)
    weights = coefficient_weights(coeffs, tau)
    m = OSC.mass
    x2, p2_2m, xp, px = x @ x, (p @ p) / (2.0 * m), x @ p, p @ x

    def rhs(t, rho):
        _, w2, dxx, dxp, gxp = weights(t)
        c_minus = 2.0 * dxp - 1j * gxp
        c_plus = c_minus.conjugate()
        ham = p2_2m + (0.5 * m * w2) * x2
        k_left = -1j * ham - dxx * x2 - c_plus * xp
        k_right = 1j * ham - dxx * x2 - c_minus * px
        out = k_left @ rho + rho @ k_right
        out += (x @ rho) @ (2.0 * dxx * x + c_minus * p)
        out += c_plus * ((p @ rho) @ x)
        return out

    return integrate(rhs, rho0, tau, rtol=rtol)


def test_sparse_generator_matches_the_matrix_form_on_the_acceptance_inputs():
    # the inputs of acceptance criterion 10, n_max 40, against SciPy's action
    # of the exponential of the Kronecker-built generator: another build of
    # the generator and another propagator
    co = limit_coefficients(BathSpectrum(0.1, 5.0, "exponential", 2.0), OSC, [0.0])
    rho0 = coherent_density(OSC, 1.0, 0.5, 40)
    tau = np.linspace(0.0, 5.0, 51)
    got = truncated_basis_propagate(co, OSC, rho0, tau)
    liouv = _kronecker_liouvillian(OSC, 40, co.omegaR_sq[0], co.D_xx[0], co.D_xp[0],
                                   co.Gamma_xp[0])
    want = scipy.sparse.linalg.expm_multiply(
        scipy.sparse.csr_array(liouv), rho0.reshape(-1), start=0.0, stop=5.0, num=51,
        endpoint=True).reshape(got.shape)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_windowed_coefficients_match_moment_transport():
    # time-varying coefficients take the spline path through both routes
    window = np.linspace(0.0, 3.0, 31)
    co = QBMCoefficients(window, 1.0 + 0.2 * np.sin(window),
                         0.02 * (1.0 + 0.5 * np.cos(window)),
                         0.005 * window / (1.0 + window),
                         0.03 * (1.0 - np.exp(-window)))
    tau = np.linspace(0.0, 3.0, 16)
    rho0 = coherent_density(OSC, 0.5, 0.3, 30)
    states = truncated_basis_propagate(co, OSC, rho0, tau)
    got = fock_moments(states, OSC)
    want = propagate_moments(co, OSC, GaussianState(0.5, 0.3, 0.5, 0.5), tau)
    # per-moment relative deviation, at acceptance criterion 10's tolerance
    dev = np.max(np.abs(got - want), axis=0) / np.max(np.abs(want), axis=0)
    assert np.all(dev <= 1e-4)
    reference = _matrix_form_propagate(co, rho0, tau, rtol=1e-10)
    assert np.max(np.abs(states - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_truncation_guard_trips_on_a_small_basis():
    co = QBMCoefficients(np.array([0.0]), 1.0, 0.3, 0.0, 0.0)  # strong heating
    tau = np.linspace(0.0, 4.0, 17)
    rho0 = coherent_density(OSC, 1.2, 0.0, 5)
    with pytest.raises(TruncationError):
        truncated_basis_propagate(co, OSC, rho0, tau)


def test_truncated_basis_input_validation():
    co = _free_coeffs()
    with pytest.raises(ValidationError):
        truncated_basis_propagate(co, OSC, np.ones(4), [0.0, 1.0])
    with pytest.raises(ValidationError):
        truncated_basis_propagate(co, OSC, np.ones((1, 1)), [0.0, 1.0])


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
def test_truncated_basis_refuses_a_non_finite_rho0_by_name(value):
    # refused where it enters: the stepper's refusal would name its error estimate
    rho0 = coherent_density(OSC, 0.5, 0.0, 6)
    rho0[2, 1] = value
    with pytest.raises(ValidationError, match=r"^rho0 must be finite; entry \(2, 1\) is "):
        truncated_basis_propagate(_free_coeffs(), OSC, rho0, [0.0, 1.0])


@pytest.mark.parametrize("rtol", [0.0, -1.0, float("nan"), float("inf")])
def test_truncated_basis_refuses_a_bad_rtol_by_name(rtol):
    # a constant set takes no adaptive step and never reads rtol, but it is
    # refused where it enters, as the moment route refuses it
    rho0 = coherent_density(OSC, 0.5, 0.0, 40)
    with pytest.raises(ValidationError, match=r"^rtol must be finite and > 0"):
        truncated_basis_propagate(_free_coeffs(), OSC, rho0, [0.0, 0.5, 1.0], rtol=rtol)


def test_limit_coefficients_plug_into_transport():
    bath_tau = np.linspace(0.0, 2.0, 5)
    from opendecay.model import BathSpectrum

    co = limit_coefficients(BathSpectrum(0.1, 5.0, "exponential", 2.0), OSC,
                            bath_tau)
    out = propagate_moments(co, OSC, GaussianState(0.0, 0.0, 0.5, 0.5),
                            bath_tau)
    # pure heating at zero friction: individual variances slosh at 2 wR,
    # but the oscillator energy climbs monotonically
    wr_sq = co.omegaR_sq[0]
    e = out[:, 4] / (2.0 * OSC.mass) + 0.5 * OSC.mass * wr_sq * out[:, 2]
    assert np.all(np.diff(e) > 0.0)
