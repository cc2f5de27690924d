import math

import numpy as np
import pytest

from opendecay._quad import integrate_to_tolerance, split_edges
from opendecay.errors import (
    OverdampedRenormalizationError,
    ValidationError,
)
from opendecay.model import BathSpectrum, OscillatorParams, make_spin_params
from opendecay.qbm.kernels import mu_laplace
from opendecay.spectral import (
    gamma_theta,
    gamma_theta_weak,
    renormalized_frequency_sq,
    spectral_density,
)

BATH = BathSpectrum(eta=0.3, cutoff=5.0, shape="exponential", temperature=2.0)
HARD = BathSpectrum(eta=0.3, cutoff=5.0, shape="hard", temperature=2.0)


def test_spectral_density_shapes():
    assert spectral_density(2.0, BATH) == pytest.approx(0.6 * math.exp(-0.4))
    assert spectral_density(2.0, HARD) == pytest.approx(0.6)
    assert spectral_density(7.0, HARD) == 0.0
    assert spectral_density(-1.0, BATH) == 0.0
    assert spectral_density(0.0, BATH) == 0.0
    arr = spectral_density(np.array([-1.0, 1.0]), BATH)
    assert arr[0] == 0.0 and arr[1] > 0.0
    # NaN would fail every comparison and read as "no bath"
    for bath in (BATH, HARD):
        with pytest.raises(ValidationError, match=r"^omega must be finite, got nan$"):
            spectral_density(math.nan, bath)
        with pytest.raises(ValidationError, match=r"^omega must be finite; entry 1 is nan$"):
            spectral_density(np.array([1.0, np.nan, np.inf]), bath)


def test_limit_rates_structure():
    # the rapid-decay dephasing rate is twice the flat-band limit rate eta*T
    assert gamma_theta(BATH) == pytest.approx(2.0 * 0.3 * 2.0)


def test_weak_dephasing_scale_frozen_values():
    # Gamma(omega0) * coth(omega0/2T) at omega0 = sqrt(2), eta=0.3, wc=5, T=2
    spin = make_spin_params(1.0, 1.0)
    assert gamma_theta_weak(spin, BATH) == pytest.approx(
        0.9417375717288882, rel=1e-12
    )
    assert gamma_theta_weak(spin, HARD) == pytest.approx(
        1.2495882324199198, rel=1e-12
    )
    cold = BathSpectrum(0.3, 5.0, "exponential", 0.0)
    assert gamma_theta_weak(spin, cold) == pytest.approx(
        0.31974165847163955, rel=1e-12
    )
    # outside the hard band the dressed rate vanishes
    assert gamma_theta_weak(make_spin_params(3.0, 5.0), HARD) == 0.0


@pytest.mark.parametrize("bath", [BATH, HARD])
def test_renormalized_frequency_closed_form(bath):
    # the frequency shift integral evaluates to eta*wc/(2 pi) for both
    # cutoffs: wR^2 = w0^2 - w0 * eta * wc / pi
    osc = OscillatorParams(1.0, 1.0)
    small = BathSpectrum(0.2, 5.0, bath.shape, bath.temperature)
    assert renormalized_frequency_sq(small, osc) == pytest.approx(
        0.6816901138162093, rel=1e-9
    )


@pytest.mark.parametrize("shape", ["exponential", "hard"])
@pytest.mark.parametrize("eta, cutoff, mass, omega0", [
    (0.2, 5.0, 1.0, 1.0), (0.3, 5.0, 1.0, 1.0), (0.1, 10.0, 2.0, 3.0), (0.05, 20.0, 1.0, 2.0),
])
def test_renormalized_frequency_matches_quadrature_and_laplace_limit(
        shape, eta, cutoff, mass, omega0):
    bath = BathSpectrum(eta, cutoff, shape, 1.0)
    osc = OscillatorParams(mass, omega0)
    closed = renormalized_frequency_sq(bath, osc)

    # reference: node-doubled quadrature of int_0^inf dw Gamma(w)/(2 pi w)
    upper = cutoff if shape == "hard" else 46.0 * cutoff
    shift = integrate_to_tolerance(
        [(lambda w: spectral_density(w, bath) / (2.0 * math.pi * w),
          split_edges(0.0, upper, 0.5 * cutoff))],
        rel_tol=1e-10, scale=eta * cutoff / (2.0 * math.pi), what="frequency shift",
    )
    assert abs(closed - (omega0**2 - 2.0 * omega0 * shift)) <= 1e-13 * closed

    # the renormalized frequency is the s -> 0+ limit of w0^2 + 2 mu_hat(s)/M;
    # mu_hat departs from that limit linearly in s
    limit = omega0**2 + 2.0 * mu_laplace(1e-12, bath, osc) / mass
    assert limit.real == pytest.approx(closed, rel=1e-11)


def test_renormalized_frequency_zero_coupling_exact():
    osc = OscillatorParams(2.0, 3.0)
    free = BathSpectrum(0.0, 5.0, "exponential", 1.0)
    assert renormalized_frequency_sq(free, osc) == 9.0


def test_overdamped_renormalization_raises():
    osc = OscillatorParams(1.0, 1.0)
    heavy = BathSpectrum(1.0, 4.0, "hard", 1.0)  # eta*wc = 4 > pi
    with pytest.raises(OverdampedRenormalizationError):
        renormalized_frequency_sq(heavy, osc)
