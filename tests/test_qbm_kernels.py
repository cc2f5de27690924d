"""Memory-kernel checks against quadrature oracles.

The frozen reference numbers were produced with mpmath (dps=30) from the
defining spectral integrals

    mu(tau) = -pref * int_0^inf dw Gamma_c(w) sin(w tau / lam^2),
    nu(tau) =  pref * int_0^inf dw Gamma_c(w) coth(w/2T) cos(w tau / lam^2),

with ``pref = M w0 eta / (2 pi lam^2)`` and ``Gamma_c`` the cutoff shape
(without the eta*w prefactor absorbed into Gamma_c here: the integrand
carries ``w * cutoff(w)``), oscillation-split into several hundred
panels so the quadrature itself is trustworthy.
"""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from opendecay._quad import filon_sum, integrate_to_tolerance, split_edges
from opendecay.errors import AccuracyError, ValidationError
from opendecay.model import BathSpectrum, OscillatorParams
from opendecay.qbm import kernels
from opendecay.qbm.kernels import (
    dissipation_kernel,
    mu_laplace,
    noise_kernel,
    trigamma_complex,
)

OSC = OscillatorParams(1.0, 1.0)
EXP2 = BathSpectrum(0.3, 4.0, "exponential", 2.0)
EXP0 = BathSpectrum(0.3, 4.0, "exponential", 0.0)
HARD2 = BathSpectrum(0.3, 4.0, "hard", 2.0)
LAM = 0.4


# mpmath reference values, see module docstring
MU_ORACLE = {
    ("exponential", 0.05): -1.8178315927212316756,
    ("exponential", 0.4): -0.0093611377173941476,
    ("hard", 0.05): -1.6954406838786442186,
    ("hard", 0.4): -0.37465204969726097736,
}
NU_ORACLE = {
    ("exponential", 2.0, 0.05): 1.3019544227268532112,
    ("exponential", 2.0, 0.4): 0.046337631702170956,
    ("exponential", 0.0, 0.05): -0.40901210836227712702,
    ("hard", 2.0, 0.05): 3.9189871067553075977,
    ("hard", 2.0, 0.4): -0.36361729233235977465,
}


@pytest.mark.parametrize("shape,tau", sorted(MU_ORACLE))
def test_dissipation_kernel_matches_oracle(shape, tau):
    bath = EXP2 if shape == "exponential" else HARD2
    got = dissipation_kernel(tau, bath, OSC, LAM)
    assert got == pytest.approx(MU_ORACLE[(shape, tau)], rel=1e-10)


@pytest.mark.parametrize("shape,temp,tau", sorted(NU_ORACLE))
def test_noise_kernel_matches_oracle(shape, temp, tau):
    bath = {("exponential", 2.0): EXP2, ("exponential", 0.0): EXP0,
            ("hard", 2.0): HARD2}[(shape, temp)]
    got = noise_kernel(tau, bath, OSC, LAM)
    assert got == pytest.approx(NU_ORACLE[(shape, temp, tau)], rel=1e-9)


@pytest.mark.parametrize("bath", [EXP2, HARD2, EXP0])
def test_kernel_parities(bath):
    taus = np.array([0.013, 0.11, 0.52, 1.7])
    mu_pos = dissipation_kernel(taus, bath, OSC, LAM)
    mu_neg = dissipation_kernel(-taus, bath, OSC, LAM)
    assert np.allclose(mu_neg, -mu_pos, rtol=1e-13)
    nu_pos = noise_kernel(taus, bath, OSC, LAM)
    nu_neg = noise_kernel(-taus, bath, OSC, LAM)
    assert np.allclose(nu_neg, nu_pos, rtol=1e-12)


def test_zero_coupling_kernels_vanish():
    free = BathSpectrum(0.0, 4.0, "exponential", 2.0)
    taus = np.linspace(-1.0, 1.0, 9)
    assert np.all(dissipation_kernel(taus, free, OSC, LAM) == 0.0)
    assert np.all(noise_kernel(taus, free, OSC, LAM) == 0.0)


def test_noise_kernel_integral_is_thermal_scale():
    # int_-inf^inf nu = M w0 eta T; the kernel is even, so double [0, inf).
    # Exponential cutoff only: the hard-cutoff kernel rings at the band edge
    # and its 1/tau tail cannot be truncated to this accuracy.
    f = lambda t: noise_kernel(t, EXP2, OSC, LAM)
    near, _ = scipy.integrate.quad(f, 0.0, 2.0, points=[0.01, 0.04, 0.16, 0.5],
                                   limit=200)
    far, _ = scipy.integrate.quad(f, 2.0, np.inf, limit=200)
    want = OSC.mass * OSC.omega0 * EXP2.eta * EXP2.temperature
    assert 2.0 * (near + far) == pytest.approx(want, rel=1e-6)


def test_dissipation_kernel_refuses_a_lam_above_one():
    with pytest.raises(ValidationError, match=r"^coupling scale lam must satisfy 0 < lam <= 1, got 1\.7$"):
        dissipation_kernel(0.2, EXP2, OSC, 1.7)


def test_hard_cutoff_small_time_series_is_smooth():
    # the series branch and the closed form must join without a visible seam
    c = HARD2.cutoff / LAM**2  # switch at x = c*tau = 1e-4
    tau_switch = 1e-4 / c
    # mu ~ const * tau here, so compare the slope across the seam
    left = dissipation_kernel(tau_switch * 0.999, HARD2, OSC, LAM)
    right = dissipation_kernel(tau_switch * 1.001, HARD2, OSC, LAM)
    assert left / 0.999 == pytest.approx(right / 1.001, rel=1e-6)
    assert dissipation_kernel(0.0, HARD2, OSC, LAM) == 0.0


# ------------------------------------------------------------- laplace image

MU_HAT_ORACLE = {
    ("exponential", 0.7 + 1.3j): -0.135102151939896535 + 0.0508713535818587528j,
    ("hard", 0.7 + 1.3j): -0.124728848171959584 + 0.0746798266101991773j,
    ("exponential", 2.0 + 0.0j): -0.108811678653354694 + 0.0j,
    ("hard", 2.0 + 0.0j): -0.0852610170054043852 + 0.0j,
}


@pytest.mark.parametrize("shape,s", sorted(MU_HAT_ORACLE, key=str))
def test_laplace_image_matches_oracle(shape, s):
    bath = EXP2 if shape == "exponential" else HARD2
    got = mu_laplace(s, bath, OSC)
    assert got == pytest.approx(MU_HAT_ORACLE[(shape, s)], rel=1e-12)


@pytest.mark.parametrize("bath", [EXP2, HARD2])
def test_laplace_image_zero_frequency_limit(bath):
    want = -OSC.mass * OSC.omega0 * bath.eta * bath.cutoff / (2.0 * math.pi)
    got = mu_laplace(1e-9, bath, OSC)
    assert got.real == pytest.approx(want, rel=1e-7)
    assert abs(got.imag) < 1e-12


@pytest.mark.parametrize("bath", [EXP2, HARD2])
def test_laplace_image_conjugate_symmetry(bath):
    for s in (0.3 + 2.0j, 1.5 + 0.4j, 0.05 + 11.0j):
        assert mu_laplace(np.conj(s), bath, OSC) == pytest.approx(
            np.conj(mu_laplace(s, bath, OSC)), rel=1e-13
        )


# ----------------------------------------------------------------- trigamma

TRIGAMMA_ORACLE = [
    (1.0 + 0.0j, 1.644934066848226436472 + 0.0j),
    (2.5 - 4.0j, 0.1009285135328495441161 + 0.2001549213496450531223j),
    (1.0 + 1450.0j, 2.378121284185493460166e-7 - 0.0006896551177443330941608j),
    (13.7 + 0.3j, 0.07568241663300705204546 - 0.001718416251828681935336j),
]


@pytest.mark.parametrize("z,want", TRIGAMMA_ORACLE)
def test_trigamma_matches_mpmath(z, want):
    got = trigamma_complex(np.array([z]))[0]
    assert got == pytest.approx(want, rel=1e-13)


@settings(max_examples=40)
@given(st.floats(1.0, 30.0), st.floats(-2000.0, 2000.0))
def test_trigamma_recurrence(re, im):
    z = complex(re, im)
    lhs = trigamma_complex(np.array([z]))[0]
    rhs = trigamma_complex(np.array([z + 1.0]))[0] + 1.0 / (z * z)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_trigamma_rejects_left_half_plane():
    with pytest.raises(ValueError):
        trigamma_complex(np.array([0.5 + 1.0j]))


def _per_tau_hard_noise(tau, bath, osc, lam):
    """The hard-cutoff noise kernel as one node-doubled quadrature per tau."""
    wc, temp = bath.cutoff, bath.temperature

    def weighted(w, th):
        if temp > 0.0:
            x = 0.5 * w / temp
            wcoth = np.where(
                x < 1e-4, 2.0 * temp * (1.0 + x * x / 3.0), w / np.tanh(np.maximum(x, 1e-300))
            )
        else:
            wcoth = w
        return bath.eta * wcoth * np.cos(w * th) / (2.0 * math.pi)

    flat = np.atleast_1d(np.asarray(tau, dtype=float) / lam**2).ravel()
    vals = np.empty_like(flat)
    for i, th in enumerate(flat):
        width = min(wc / 4.0, math.pi / (2.0 * abs(th) + 1e-300))
        edges = split_edges(0.0, wc, max(width, wc / 4096.0))
        vals[i] = integrate_to_tolerance(
            [(lambda w: weighted(w, th), edges)], rel_tol=1e-11,
            scale=bath.eta * max(temp, wc), n0=8, max_doublings=6,
        )
    return (osc.mass * osc.omega0 / lam**2) * vals.reshape(np.shape(tau))


@pytest.mark.parametrize("temp", [0.0, 0.05, 2.0, 20.0])
def test_hard_noise_blocks_match_the_per_tau_loop(temp):
    bath = BathSpectrum(0.3, 4.0, "hard", temp)
    lam = 0.4
    scale = OSC.mass * OSC.omega0 * bath.eta * max(temp, bath.cutoff) / lam**2
    # zero, negative, small and theta = tau/lam**2 up to 1.2e3, in one call
    tau = np.concatenate([
        [0.0, -1e-6, 3e-7, -0.02, 160.0, -190.0],
        np.linspace(-0.7, 2.3, 61),
        np.geomspace(1e-5, 1e-2, 9),
    ])
    want = _per_tau_hard_noise(tau, bath, OSC, lam)
    got = noise_kernel(tau, bath, OSC, lam)
    assert got.shape == tau.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * scale
    grid = tau[6:66].reshape(6, 10)
    got2 = noise_kernel(grid, bath, OSC, lam)
    assert got2.shape == (6, 10)
    assert np.max(np.abs(got2 - want[6:66].reshape(6, 10))) <= 1e-13 * scale
    got0 = noise_kernel(0.37, bath, OSC, lam)
    assert isinstance(got0, float)
    assert abs(got0 - _per_tau_hard_noise(0.37, bath, OSC, lam)) <= 1e-13 * scale


def test_hard_noise_matches_the_per_tau_loop_at_large_theta():
    # theta = tau/lam**2 from 200 to 4000, where the per-tau panels shrink
    # to wc/4096 and the Filon panels stay as they are
    bath = BathSpectrum(0.2, 5.0, "hard", 5.0)
    lam = 0.05
    scale = OSC.mass * OSC.omega0 * bath.eta * max(bath.temperature, bath.cutoff) / lam**2
    tau = np.geomspace(200.0, 4000.0, 12) * lam**2
    want = _per_tau_hard_noise(tau, bath, OSC, lam)
    assert np.max(np.abs(noise_kernel(tau, bath, OSC, lam) - want)) <= 1e-13 * scale


@pytest.mark.parametrize("bath,lam,theta", [
    (HARD2, LAM, np.linspace(0.0, 14.375, 453)),
    (BathSpectrum(0.2, 5.0, "hard", 5.0), 0.05, np.linspace(1700.0, 4000.0, 500)),
], ids=["theta-to-14", "theta-1700-to-4000"])
def test_hard_noise_makes_two_filon_sums_per_call(monkeypatch, bath, lam, theta):
    # one pass and its check, each over every time at once, at any theta
    calls = []  # times per call

    def counting(tau, *args):
        calls.append(tau.size)
        return filon_sum(tau, *args)

    monkeypatch.setattr(kernels, "filon_sum", counting)
    noise_kernel(theta * lam**2, bath, OSC, lam)
    assert calls == [theta.size, theta.size]


def test_hard_noise_far_from_the_boundary_layer_follows_the_band_edge():
    # theta = 4e6: int_0^wc f(w) cos(w theta) dw = f(wc) sin(wc theta)/theta
    # + O(1/theta**2) with f(w) = eta w coth(w/2T)/2 pi, so theta times the
    # integral is the band-edge term to O(1/theta)
    lam = 0.05
    theta = 10000.0 / lam**2
    got = noise_kernel(10000.0, HARD2, OSC, lam) * theta * lam**2 / (OSC.mass * OSC.omega0)
    wc, temp = HARD2.cutoff, HARD2.temperature
    f_wc = HARD2.eta * wc / math.tanh(0.5 * wc / temp) / (2.0 * math.pi)
    assert abs(got - f_wc * math.sin(wc * theta)) <= HARD2.eta / theta


def test_hard_noise_refusal_names_the_unresolved_tau(monkeypatch):
    # push the second pass away from the first, most at tau=-0.3
    passes = []

    def apart(*args):
        out = filon_sum(*args)
        passes.append(out)
        if len(passes) == 2:
            out[0, 0] += 1e-10
            out[0, 2] += 1e-9
        return out

    monkeypatch.setattr(kernels, "filon_sum", apart)
    tau = np.array([0.01, 10000.0, -0.3, 0.2])
    with pytest.raises(AccuracyError, match=r"noise kernel at tau=-0\.3: two Filon passes differ"):
        noise_kernel(tau, HARD2, OSC, 0.05)


@pytest.mark.parametrize("temp", [1e-3, 1e-6])
def test_cold_hard_noise_resolves_the_thermal_panels(temp):
    # coth(w/2T) turns over within w ~ 2 pi T; 20001 times to theta = 12000
    bath = BathSpectrum(0.3, 4.0, "hard", temp)
    lam = 0.1
    tau = np.linspace(0.0, 12000.0 * lam**2, 20001)
    got = noise_kernel(tau, bath, OSC, lam)
    assert np.all(np.isfinite(got))
    # the thermal part eta (w coth(w/2T) - w)/2 pi integrates to eta pi T**2/6,
    # which is its value at tau = 0 and bounds it elsewhere
    cold = noise_kernel(tau, BathSpectrum(0.3, 4.0, "hard", 0.0), OSC, lam)
    thermal = OSC.mass * OSC.omega0 * bath.eta * math.pi * temp**2 / 6.0 / lam**2
    slack = 1e-13 * np.max(np.abs(cold))
    assert abs(got[0] - cold[0] - thermal) <= slack
    assert np.max(np.abs(got - cold)) <= thermal + slack
