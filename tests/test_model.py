import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from opendecay.errors import DegenerateSystemError, ValidationError
from opendecay.model import (
    BathSpectrum,
    GaussianState,
    OscillatorParams,
    SpinBosonParams,
    _checked_coupling,
    _checked_density,
    _checked_finite,
    _density_defects,
    make_spin_params,
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
    # each key is checked on its own, so the refusal names the bad one alone
    named, value = ("epsilon", eps) if not math.isfinite(eps) else ("delta", delta)
    with pytest.raises(ValidationError, match=f"^{named} must be finite, got {value}$"):
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


@pytest.mark.parametrize("lam", [0.0, -0.2, 1.5, float("inf"), float("nan"), 1e-200,
                                 1e-155, 5e-324])
def test_coupling_scale_bounds(lam):
    # lam**2 below the smallest normal float would reach the kernels as 0
    # or a subnormal, so the refusal names lam where it enters
    with pytest.raises(ValidationError, match="^coupling scale lam"):
        _checked_coupling(lam)


def test_coupling_scale_keeps_the_smallest_lam_with_a_normal_square():
    lam = math.sqrt(sys.float_info.min)
    while lam * lam < sys.float_info.min:
        lam = math.nextafter(lam, 1.0)
    assert _checked_coupling(lam) == lam
    with pytest.raises(ValidationError, match=r"lam\*\*2 is below the smallest normal float"):
        _checked_coupling(math.nextafter(lam, 0.0))


def test_oscillator_validation():
    with pytest.raises(ValidationError):
        OscillatorParams(mass=-1.0)
    with pytest.raises(ValidationError):
        OscillatorParams(omega0=0.0)
    # every qbm route forms omega0**2, which overflows above ~1.34e154
    OscillatorParams(omega0=1.3e154)
    with pytest.raises(ValidationError, match=r"^omega0 = 1\.35e\+154 is too large"):
        OscillatorParams(omega0=1.35e154)


def test_density_matrix_accepts_valid_state():
    rho = _checked_density([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]], "rho")
    assert rho.dtype == complex and rho[0, 0] == 0.6


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
    with pytest.raises(ValidationError, match="^rho is not a density matrix: hermiticity defect"):
        _checked_density(np.array(mat, dtype=complex), "rho")


def test_the_density_check_refuses_a_matrix_that_is_not_2x2():
    with pytest.raises(ValidationError, match=r"^rho must be a 2x2 matrix, got shape \(3, 3\)$"):
        _checked_density(np.eye(3), "rho")


def test_the_density_check_reports_its_three_defects():
    with pytest.raises(ValidationError) as refused:
        _checked_density(np.array([[0.9, 0.0], [0.0, 0.4]]), "rho")
    found = re.fullmatch(
        r"rho is not a density matrix: hermiticity defect (\S+), "
        r"trace defect (\S+), min eigenvalue (\S+)", str(refused.value))
    herm, trace, min_eig = map(float, found.groups())
    assert herm == 0.0 and trace == pytest.approx(0.3) and min_eig == 0.4


def test_gaussian_state_moment_order():
    state = GaussianState(1.0, -2.0, 0.7, 0.9, 0.1)
    assert np.allclose(state.as_array(), [1.0, -2.0, 0.7, 0.1, 0.9])


def test_gaussian_state_rejects_negative_variance():
    with pytest.raises(ValidationError):
        GaussianState(0.0, 0.0, -0.5, 0.5)


def test_gaussian_state_warns_below_uncertainty_bound():
    with pytest.warns(UserWarning):
        GaussianState(0.0, 0.0, 0.1, 0.1)


@pytest.mark.parametrize("value, bound, message", [
    (math.nan, "", "x must be finite, got nan"),
    (-math.inf, "", "x must be finite, got -inf"),
    (0.0, "> 0", "x must be finite and > 0, got 0.0"),
    (math.nan, "> 0", "x must be finite and > 0, got nan"),
    (-1e-300, ">= 0", "x must be finite and >= 0, got -1e-300"),
    (math.inf, ">= 0", "x must be finite and >= 0, got inf"),
])
def test_the_number_check_refuses_by_name(value, bound, message):
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        _checked_finite("x", value, bound)


def test_the_number_check_returns_a_float():
    assert _checked_finite("x", -2) == -2.0
    assert _checked_finite("x", 0, ">= 0") == 0.0
    assert type(_checked_finite("x", np.float32(0.5), "> 0")) is float


@pytest.mark.parametrize("field", ["mean_x", "mean_p", "var_xx", "var_pp", "cov_xp"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_gaussian_state_refuses_non_finite_moments_by_name(field, value):
    moments = {"mean_x": 0.0, "mean_p": 0.0, "var_xx": 0.5, "var_pp": 0.5, "cov_xp": 0.0}
    moments[field] = value
    with pytest.raises(ValidationError, match=f"^{field} must be finite"):
        GaussianState(**moments)


@pytest.mark.parametrize("entry", [math.inf, math.nan, complex(0.0, math.inf)])
def test_a_non_finite_matrix_is_no_density_matrix_and_raises_no_warning(entry):
    mat = np.array([[1.0, entry], [0.0, 0.0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"^rho must be finite; entry \(0, 1\) is "):
            _checked_density(mat, "rho")
        with pytest.raises(ValidationError, match=r"^rho state 2 must be finite; entry \(0, 1\) is "):
            _checked_density(np.stack([0.5 * np.eye(2), np.diag([1.5, -0.5]), mat]), "rho")


def _oracle_defects(rho):
    """The three defects of one 2x2 state, one formula at a time."""
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    # numpy's absolute, not Python's abs: the two can differ in the last bit
    trace = float(np.abs(rho.trace() - 1.0))
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    return herm, trace, min_eig


def test_the_stacked_defects_equal_the_per_state_formulas_bit_for_bit():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(40, 2, 2)) + 1j * rng.normal(size=(40, 2, 2))
    states = a @ np.conj(np.swapaxes(a, -2, -1))
    states /= np.trace(states, axis1=-2, axis2=-1).real[:, None, None]
    defective = np.array([
        [[0.6, 0.3], [0.2, 0.4]],                # not Hermitian
        [[0.9, 0.0], [0.0, 0.4]],                # trace 1.3
        [[0.5, 0.6], [0.6, 0.5]],                # eigenvalue -0.1
        [[0.7, 0.2 - 0.5j], [0.1 + 0.5j, 0.5]],  # all three
    ], dtype=complex)
    for stack in (states, defective, rng.normal(size=(3, 2, 2)) + 0j):
        expected = np.array([_oracle_defects(rho) for rho in stack]).T
        got = np.array(_density_defects(stack))
        assert got.shape == (3, len(stack))
        assert np.array_equal(got, expected)
        assert np.array_equal(np.array(_density_defects(stack[0])), expected[:, 0])
