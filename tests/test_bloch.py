import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from opendecay import _integrate
from opendecay.bloch import (
    TRIPLE_AT_ZERO,
    decay_spectrum,
    find_classification_boundary,
    propagate_bloch,
    propagator_matrix,
    rapid_generator,
    scan_decay_regimes,
    weak_generator,
)
from opendecay._integrate import integrate
from opendecay.errors import AccuracyError, StiffnessError, ValidationError
from opendecay.model import BathSpectrum, make_spin_params

eps_st = st.floats(-4.0, 4.0)
delta_st = st.floats(0.05, 4.0)
gamma_st = st.floats(0.0, 6.0)

# conjugation that swaps the raising/lowering coefficients
_J = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float)


def test_triple_basis_at_zero():
    dp, dz, dm = TRIPLE_AT_ZERO
    assert np.allclose(dp, [[0, 1], [0, 0]])
    assert np.allclose(dz, np.diag([1, -1]))
    assert np.allclose(dm, dp.conj().T)


@given(eps_st, delta_st, gamma_st)
def test_real_trace_is_minus_two_gamma(eps, delta, g):
    gen = rapid_generator(make_spin_params(eps, delta), g)
    assert float(np.trace(gen.matrix).real) == pytest.approx(
        -2.0 * g, abs=1e-12 * max(1.0, g)
    )
    assert float(np.trace(gen.matrix).imag) == pytest.approx(0.0, abs=1e-12)


@given(eps_st, delta_st, gamma_st)
def test_conjugation_symmetry(eps, delta, g):
    # swapping raising <-> lowering and conjugating returns the generator
    m = rapid_generator(make_spin_params(eps, delta), g).matrix
    assert np.allclose(_J @ m.conj() @ _J, m, atol=1e-14)


@given(eps_st, delta_st, gamma_st)
@settings(max_examples=60)
def test_spectrum_never_grows(eps, delta, g):
    spec = decay_spectrum(rapid_generator(make_spin_params(eps, delta), g))
    assert np.all(spec.eigenvalues.real <= 1e-10 * max(1.0, g))
    assert np.allclose(spec.decay_constants, -spec.eigenvalues.real)


@given(st.floats(0.05, 6.0), st.floats(0.25, 8.0))
@settings(max_examples=60)
def test_zero_bias_spectrum_closed_form(delta, g):
    # eps = 0: eigenvalues are -g and -g/2 +- sqrt(g^2/4 - omega0^2);
    # skip the defective point g = 2 omega0 where the pair merges
    spin = make_spin_params(0.0, delta)
    w0 = spin.omega0
    assume(abs(g - 2.0 * w0) > 1e-3 * w0)
    got = decay_spectrum(rapid_generator(spin, g)).eigenvalues
    disc = complex(g * g / 4.0 - w0 * w0) ** 0.5
    tol = 1e-10 * max(1.0, g, w0)
    for want in (-g, -g / 2.0 + disc, -g / 2.0 - disc):
        assert np.min(np.abs(got - want)) < tol


def test_zero_tunneling_generator_is_diagonal():
    spin = make_spin_params(2.0, 0.0)
    m = rapid_generator(spin, 0.7).matrix
    assert np.allclose(m, np.diag([-0.7 + 2.0j, 0.0, -0.7 - 2.0j]))


def test_weak_generator_rates():
    spin = make_spin_params(1.0, 1.0)
    bath = BathSpectrum(0.3, 5.0, "exponential", 2.0)
    gen = weak_generator(spin, bath)
    gamma_d = -gen.matrix[0, 0].real
    gamma_r = -gen.matrix[1, 1].real
    assert gamma_r == pytest.approx(2.0 * gamma_d, rel=1e-14)
    # delta_tilde^2 = 1/2 here
    assert gamma_r == pytest.approx(0.5 * 0.9417375717288882, rel=1e-12)
    assert gen.matrix[0, 0].imag == pytest.approx(spin.omega0)
    assert np.count_nonzero(gen.matrix - np.diag(np.diag(gen.matrix))) == 0


def test_propagation_routes_agree():
    gen = rapid_generator(make_spin_params(1.0, 2.0), 0.9)
    tau = np.linspace(0.0, 6.0, 25)
    c0 = np.array([0.3 + 0.1j, -0.2, 0.5j])
    adaptive = propagate_bloch(gen, c0, tau, rtol=1e-11)
    exact = propagate_bloch(gen, c0, tau, method="expm")
    assert np.max(np.abs(adaptive - exact)) < 1e-8


def test_integrator_refuses_a_stiff_system():
    with pytest.raises(StiffnessError, match="step size underflow"):
        integrate(lambda t, y: -1e16 * y, np.ones(2), [0.0, 1.0])


def test_integrator_refuses_past_its_step_budget(monkeypatch):
    # a smooth decay needs hundreds of steps at rtol 1e-12
    out = integrate(lambda t, y: -y, np.ones(2), [0.0, 10.0], rtol=1e-12)
    assert out[-1] == pytest.approx(np.exp(-10.0) * np.ones(2), rel=1e-10)
    monkeypatch.setattr(_integrate, "_MAX_STEPS", 50)
    with pytest.raises(StiffnessError, match="step budget of 50 attempted steps"):
        integrate(lambda t, y: -y, np.ones(2), [0.0, 10.0], rtol=1e-12)


def test_propagator_matrix_is_semigroup():
    gen = rapid_generator(make_spin_params(0.5, 1.5), 0.4)
    props = propagator_matrix(gen, [0.0, 1.25, 2.5], rtol=1e-12)
    assert np.allclose(props[0], np.eye(3), atol=1e-12)
    assert np.allclose(props[1] @ props[1], props[2], atol=1e-9)


def test_classification_flips_at_twice_splitting():
    spin = make_spin_params(0.0, 1.0)
    assert (
        decay_spectrum(rapid_generator(spin, 1.9)).classification
        == "two_complex_one_real"
    )
    assert decay_spectrum(rapid_generator(spin, 2.1)).classification == "three_real"
    boundary = find_classification_boundary(spin, 1.0, 3.0, tol=1e-8)
    assert boundary == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_boundary_refuses_a_bad_tol(tol):
    with pytest.raises(ValidationError, match=r"^tol must be finite and > 0"):
        find_classification_boundary(make_spin_params(0.0, 1.0), 1.0, 3.0, tol=tol)


def test_boundary_stops_where_the_bracket_stops_shrinking():
    # no bracket around the flip is 1e-300 wide; bisection ends when the
    # midpoint of two adjacent floats is one of them
    start = time.perf_counter()
    boundary = find_classification_boundary(make_spin_params(0.0, 1.0), 1.0, 3.0,
                                            tol=1e-300)
    assert time.perf_counter() - start < 1.0
    assert boundary == pytest.approx(2.0, abs=1e-12)


def test_boundary_requires_bracketing():
    spin = make_spin_params(0.0, 1.0)
    with pytest.raises(AccuracyError):
        find_classification_boundary(spin, 0.1, 0.2, tol=1e-8)
    with pytest.raises(AccuracyError):
        find_classification_boundary(spin, 4.0, 6.0, tol=1e-8)


def test_scan_decay_regimes_order_and_content():
    spin = make_spin_params(0.0, 1.0)
    out = scan_decay_regimes(spin, [0.5, 2.5])
    assert [g for g, _ in out] == [0.5, 2.5]
    assert out[0][1].classification == "two_complex_one_real"
    assert out[1][1].classification == "three_real"


def test_biased_system_oscillates_at_any_damping():
    # with eps != 0 the +-i omega0 pair survives arbitrarily strong damping
    spin = make_spin_params(1.0, 1.0)
    for g in (5.0, 50.0):
        spec = decay_spectrum(rapid_generator(spin, g))
        assert spec.classification == "two_complex_one_real"


def test_rejects_negative_gamma():
    # ValidationError is a ValueError; NaN and inf are refused with it
    for g in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="gamma_theta"):
            rapid_generator(make_spin_params(1.0, 1.0), g)


@pytest.mark.parametrize("method", ["adaptive", "expm"])
def test_propagate_bloch_refuses_a_non_finite_triple(method):
    gen = rapid_generator(make_spin_params(1.0, 1.0), 0.5)
    with pytest.raises(ValidationError, match="^triple0 must be finite"):
        propagate_bloch(gen, [0.0, np.nan, 0.0], [0.0, 1.0], method=method)
