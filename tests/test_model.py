import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from opendecay.errors import DegenerateSystemError, ValidationError
from opendecay.model import (
    BathSpectrum,
    CouplingScale,
    DensityMatrix2,
    GaussianState,
    OscillatorParams,
    SpinBosonParams,
    make_spin_params,
    validate_density,
)

finite = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


@given(finite, finite)
def test_eigenbasis_weights_are_normalized(eps, delta):
    if math.hypot(eps, delta) < 1e-6:
        delta = 1.0
    spin = make_spin_params(eps, delta)
    assert spin.eps_tilde**2 + spin.delta_tilde**2 == pytest.approx(1.0, abs=1e-12)
    assert spin.omega0 == pytest.approx(math.hypot(eps, delta))


@given(finite, finite)
def test_coupling_matrix_squares_to_identity(eps, delta):
    if math.hypot(eps, delta) < 1e-6:
        eps = 2.0
    s = make_spin_params(eps, delta).coupling_matrix()
    assert np.allclose(s @ s, np.eye(2), atol=1e-12)
    assert np.allclose(s, s.T)


def test_hamiltonian_is_half_splitting():
    spin = make_spin_params(3.0, 4.0)
    h = spin.hamiltonian()
    assert np.allclose(h, np.diag([2.5, -2.5]))


def test_degenerate_spin_rejected():
    with pytest.raises(DegenerateSystemError):
        make_spin_params(0.0, 0.0)


@pytest.mark.parametrize("eps, delta", [(3.0, 4.0), (-0.7, 0.2), (0.0, 1.5), (2, 0)])
def test_spin_params_derive_splitting_and_weights(eps, delta):
    spin = SpinBosonParams(eps, delta)
    assert dataclasses.astuple(spin) == dataclasses.astuple(make_spin_params(eps, delta))
    omega0 = math.hypot(eps, delta)
    assert dataclasses.astuple(spin) == (eps, delta, omega0, eps / omega0, delta / omega0)
    assert all(type(v) is float for v in dataclasses.astuple(spin))


@pytest.mark.parametrize("eps, delta", [
    (float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0), (1.0, -float("inf")),
])
def test_spin_params_reject_non_finite_input(eps, delta):
    with pytest.raises(ValidationError, match="and delta=.* must be finite"):
        SpinBosonParams(eps, delta)


def test_spin_params_take_only_bias_and_tunneling():
    with pytest.raises(TypeError):
        SpinBosonParams(1.0, 1.0, omega0=5.0)
    # inconsistent derived values cannot be supplied
    with pytest.raises(TypeError):
        SpinBosonParams(1.0, 1.0, 5.0, 0.3, 0.3)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(eta=-0.1, cutoff=1.0),
        dict(eta=0.1, cutoff=0.0),
        dict(eta=0.1, cutoff=1.0, shape="gauss"),
        dict(eta=0.1, cutoff=1.0, temperature=-2.0),
        dict(eta=float("nan"), cutoff=1.0),
    ],
)
def test_bath_validation_rejects(kwargs):
    with pytest.raises(ValidationError):
        BathSpectrum(**kwargs)


def test_bath_accepts_zero_coupling_and_temperature():
    bath = BathSpectrum(0.0, 3.0, "hard", 0.0)
    assert bath.eta == 0.0 and bath.temperature == 0.0


@pytest.mark.parametrize("lam", [0.0, -0.2, 1.5, float("inf")])
def test_coupling_scale_bounds(lam):
    with pytest.raises(ValidationError):
        CouplingScale(lam)


def test_oscillator_validation():
    with pytest.raises(ValidationError):
        OscillatorParams(mass=-1.0)
    with pytest.raises(ValidationError):
        OscillatorParams(omega0=0.0)


def test_density_matrix_accepts_valid_state():
    rho = DensityMatrix2(np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]]))
    assert rho.entries[0, 0] == 0.6
    # stored copy is frozen
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 1.0


@pytest.mark.parametrize(
    "mat",
    [
        [[0.6, 0.3], [0.2, 0.4]],          # not hermitian
        [[0.9, 0.0], [0.0, 0.4]],          # trace 1.3
        [[1.2, 0.0], [0.0, -0.2]],         # negative population
        [[0.5, 0.6], [0.6, 0.5]],          # negative eigenvalue
    ],
)
def test_density_matrix_rejects(mat):
    with pytest.raises(ValidationError):
        DensityMatrix2(np.array(mat, dtype=complex))


def test_validate_density_reports_defects_without_raising():
    diag = validate_density(np.array([[0.9, 0.0], [0.0, 0.4]]))
    assert not diag.ok
    assert diag.trace_defect == pytest.approx(0.3)
    assert diag.hermiticity_defect == 0.0


def test_gaussian_state_moment_order():
    state = GaussianState(1.0, -2.0, 0.7, 0.9, 0.1)
    assert np.allclose(state.as_array(), [1.0, -2.0, 0.7, 0.1, 0.9])


def test_gaussian_state_rejects_negative_variance():
    with pytest.raises(ValidationError):
        GaussianState(0.0, 0.0, -0.5, 0.5)


def test_gaussian_state_warns_below_uncertainty_bound():
    with pytest.warns(UserWarning):
        GaussianState(0.0, 0.0, 0.1, 0.1)
