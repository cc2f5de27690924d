"""Tests for the two-point-kernel entries and master-equation coefficients."""

import math
import re

import numpy as np
import pytest
from scipy.signal import fftconvolve

from opendecay.errors import (
    AccuracyError,
    NodeSingularityError,
    ValidationError,
)
from opendecay.model import BathSpectrum, OscillatorParams
from opendecay.qbm import coefficients
from opendecay.qbm.coefficients import (
    LambdaTheta,
    QBMCoefficients,
    exact_coefficients,
    kernel_logdensity,
    lambda_coefficients,
    lambda_theta,
    limit_coefficients,
    limit_lambda_theta,
    theta_coefficients,
    _theta_grid_step,
    _theta_window,
)
from opendecay.qbm.kernels import noise_kernel
from opendecay.qbm.propagator import solve_propagator
from opendecay.spectral import renormalized_frequency_sq

OSC = OscillatorParams(1.0, 1.0)
EXP = BathSpectrum(0.2, 5.0, "exponential", 2.0)
FREE = BathSpectrum(0.0, 5.0, "exponential", 2.0)
HARD = BathSpectrum(0.2, 5.0, "hard", 2.0)


@pytest.fixture(scope="module")
def free_prop():
    return solve_propagator(FREE, OSC, 0.2, 4.0)


@pytest.fixture(scope="module")
def exp_prop():
    return solve_propagator(EXP, OSC, 0.2, 2.6)


def test_limit_kernel_entries_closed_form():
    wr = math.sqrt(renormalized_frequency_sq(EXP, OSC))
    kappa = OSC.mass * OSC.omega0 * EXP.eta * EXP.temperature
    for ts in (0.7, 1.9, 2.8):
        lt = limit_lambda_theta(EXP, OSC, ts)
        s, c = math.sin(wr * ts), math.cos(wr * ts)
        assert lt.L_ff == pytest.approx(OSC.mass * wr * c / s, rel=1e-13)
        assert lt.L_fi == pytest.approx(-OSC.mass * wr / s, rel=1e-13)
        assert lt.L_if == lt.L_fi
        assert lt.T_ff == lt.T_ii
        assert lt.T_ff == pytest.approx(
            kappa * (wr * ts - s * c) / (4.0 * wr * s * s), rel=1e-13
        )
        # decoherence matrix is positive semidefinite
        assert lt.T_ff >= 0.0
        assert lt.T_ff * lt.T_ii - lt.T_fi**2 >= -1e-15 * lt.T_ff**2


def test_limit_kernel_entries_guard_rails():
    wr = math.sqrt(renormalized_frequency_sq(EXP, OSC))
    with pytest.raises(NodeSingularityError):
        limit_lambda_theta(EXP, OSC, math.pi / wr)
    with pytest.raises(ValidationError):
        limit_lambda_theta(EXP, OSC, 0.0)
    with pytest.raises(ValidationError):
        limit_lambda_theta(EXP, OSC, -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="^tau_star must be finite and > 0"):
            limit_lambda_theta(EXP, OSC, bad)


def test_free_phase_entries_match_trigonometry(free_prop):
    # G = sin(tau) exactly, so Lambda collapses to the limit expressions
    for ts in (0.8, 1.6, 2.4):
        l_ff, l_fi, l_if = lambda_coefficients(free_prop, ts)
        assert l_ff == pytest.approx(1.0 / math.tan(ts), abs=1e-9)
        assert l_fi == pytest.approx(-1.0 / math.sin(ts), abs=1e-9)
        assert l_if == pytest.approx(-1.0 / math.sin(ts), abs=1e-9)


def test_free_decoherence_vanishes(free_prop):
    assert theta_coefficients(free_prop, 1.1) == (0.0, 0.0, 0.0)
    lt = lambda_theta(free_prop, 1.1)
    assert (lt.T_ff, lt.T_fi, lt.T_ii) == (0.0, 0.0, 0.0)


def test_node_guard_near_propagator_zero(free_prop):
    with pytest.raises(NodeSingularityError):
        lambda_coefficients(free_prop, math.pi)
    with pytest.raises(ValidationError):
        lambda_coefficients(free_prop, 5.0)  # beyond solved window
    with pytest.raises(ValidationError):
        lambda_coefficients(free_prop, 0.0)


def test_window_check_names_the_first_offending_point(free_prop):
    # one pass over the window still reports the first bad point: the third
    # sits on the node of G = sin(tau) at pi, the last beyond tau_max = 4
    tau = np.array([2.0, 2.5, math.pi, 3.5, 5.0])
    with pytest.raises(NodeSingularityError, match=r"^G\(3\.14159\) = "):
        exact_coefficients(free_prop, tau)
    with pytest.raises(ValidationError, match=r"^tau=5 outside"):
        exact_coefficients(free_prop, np.array([2.0, 2.5, 3.0, 3.5, 5.0]))


def test_decoherence_matrix_is_positive(exp_prop):
    for ts in (1.2, 2.2):
        t_ff, t_fi, t_ii = theta_coefficients(exp_prop, ts)
        assert t_ff > 0.0
        assert t_ii > 0.0
        assert t_ff * t_ii - t_fi * t_fi >= -1e-6 * (t_ff * t_ii + t_fi * t_fi)


def test_decoherence_refinement_guard(exp_prop, monkeypatch):
    monkeypatch.setattr(coefficients, "_THETA_REL_TOL", 1e-14)
    with pytest.raises(AccuracyError):
        theta_coefficients(exp_prop, 1.2)


def test_a_nan_noise_kernel_is_refused_by_name(exp_prop, monkeypatch):
    # the splines of the Richardson levels would refuse it without a name
    def poisoned(tau, *args):
        out = noise_kernel(tau, *args)
        out[len(out) // 2] = np.nan
        return out

    monkeypatch.setattr(coefficients, "noise_kernel", poisoned)
    with pytest.raises(AccuracyError, match=r"^noise kernel is nan at t="):
        theta_coefficients(exp_prop, 1.2)


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, float("nan"), float("inf")])
def test_exact_coefficients_refuse_a_bad_rel_tol(exp_prop, rel_tol):
    with pytest.raises(ValidationError, match=r"^rel_tol must be finite and > 0"):
        exact_coefficients(exp_prop, np.linspace(0.9, 1.4, 6), rel_tol=rel_tol)


def test_small_coupling_entries_approach_the_limit():
    lam = 0.1
    pf = solve_propagator(EXP, OSC, lam, 1.5)
    got = lambda_theta(pf, 1.3)
    want = limit_lambda_theta(EXP, OSC, 1.3)
    for name in ("L_ff", "L_fi", "L_if", "T_ff", "T_fi", "T_ii"):
        assert getattr(got, name) == pytest.approx(
            getattr(want, name), rel=0.05
        ), name


def test_free_coefficients_reduce_to_bare_oscillator(free_prop):
    tau = np.linspace(0.6, 1.4, 7)
    co = exact_coefficients(free_prop, tau)
    assert np.max(np.abs(co.omegaR_sq - OSC.omega0**2)) < 1e-8
    assert np.all(co.D_xx == 0.0)
    assert np.all(co.D_xp == 0.0)
    assert np.max(np.abs(co.Gamma_xp)) < 1e-9


def test_exact_coefficient_window_validation(exp_prop):
    with pytest.raises(ValidationError):
        exact_coefficients(exp_prop, np.linspace(0.9, 1.4, 4))  # too few
    with pytest.raises(ValidationError):
        exact_coefficients(exp_prop, np.array([0.9, 1.0, 1.0, 1.1, 1.2]))
    with pytest.raises(ValidationError):
        exact_coefficients(exp_prop, np.linspace(0.9, 3.4, 6))  # leaves window
    with pytest.raises(ValidationError, match="^tau_points must be finite; node 2 is nan$"):
        exact_coefficients(exp_prop, np.array([0.9, 1.0, np.nan, 1.1, 1.2]))
    with pytest.raises(ValidationError, match="node 3 is 1.0 after 1.1$"):
        exact_coefficients(exp_prop, np.array([0.9, 1.0, 1.1, 1.0, 1.2]))


def test_limit_coefficients_are_constant_and_broadcast():
    tau = np.linspace(0.5, 2.5, 9)
    co = limit_coefficients(EXP, OSC, tau)
    wr_sq = renormalized_frequency_sq(EXP, OSC)
    kappa = OSC.mass * OSC.omega0 * EXP.eta * EXP.temperature
    assert isinstance(co, QBMCoefficients)
    assert co.tau.shape == tau.shape
    assert np.all(co.omegaR_sq == wr_sq)
    assert np.all(co.D_xx == 0.5 * kappa)
    assert np.all(co.D_xp == 0.0)
    assert np.all(co.Gamma_xp == 0.0)
    single = limit_coefficients(EXP, OSC, 1.0)
    assert single.tau.shape == (1,)
    assert single.omegaR_sq.shape == (1,)


def test_kernel_logdensity_damping_bound(exp_prop):
    lt = lambda_theta(exp_prop, 1.2)
    cap = math.log(abs(lt.L_if) / (2.0 * math.pi))
    rng = np.random.default_rng(99)
    for _ in range(12):
        xf, xfp, xi, xip = rng.normal(scale=1.5, size=4)
        val = kernel_logdensity(exp_prop, 1.2, xf, xfp, xi, xip)
        assert val.real <= cap + 1e-12
    diag = kernel_logdensity(exp_prop, 1.2, 0.7, 0.7, -0.4, -0.4)
    assert diag.real == pytest.approx(cap)  # no damping on the diagonal
    assert diag.imag == 0.0


def test_kernel_logdensity_endpoint_symmetry(free_prop):
    # without damping the two-point kernel is symmetric under swapping
    # the final and initial slots (L_fi = L_if, Theta = 0)
    a = kernel_logdensity(free_prop, 1.1, 0.3, -0.2, 0.9, 0.5)
    b = kernel_logdensity(free_prop, 1.1, 0.9, 0.5, 0.3, -0.2)
    assert a == pytest.approx(b, rel=1e-12)


def test_lambda_theta_is_frozen(exp_prop):
    lt = limit_lambda_theta(EXP, OSC, 1.0)
    assert isinstance(lt, LambdaTheta)
    with pytest.raises(AttributeError):
        lt.T_ff = 1.0


def _per_time_theta(prop, tau_star):
    """Theta at one time by the per-time route: trapezoidal double sums on
    2m0- and 4m0-panel grids ending at tau_star (the symmetric noise kernel
    against w*G and w*G', one FFT convolution each), extrapolated once in
    the grid step."""
    m0 = max(32, math.ceil(tau_star / _theta_grid_step(prop)))
    levels = []
    for m in (2 * m0, 4 * m0):
        h = tau_star / m
        t = h * np.arange(m + 1)
        gv, gdv = prop.g(t), prop.g_dot(t)
        nu_half = noise_kernel(t, prop.bath, prop.osc, prop.lam)
        nu_full = np.concatenate([nu_half[m:0:-1], nu_half])
        w = np.ones(m + 1)
        w[0] = w[-1] = 0.5
        conv_g = fftconvolve(nu_full, w * gv)[m : 2 * m + 1]
        conv_gd = fftconvolve(nu_full, w * gdv)[m : 2 * m + 1]
        levels.append(h * h * np.array([np.dot(w * gv, conv_g), np.dot(w * gdv, conv_g),
                                        np.dot(w * gdv, conv_gd)]))
    q_gg, q_dg, q_dd = (4.0 * levels[1] - levels[0]) / 3.0
    g = float(prop.g(tau_star))
    r = float(prop.g_dot(tau_star)) / g
    return np.array([0.5 * (q_dd - 2.0 * r * q_dg + r * r * q_gg),
                     (q_dg - r * q_gg) / (2.0 * g), q_gg / (2.0 * g * g)])


@pytest.mark.parametrize("bath, lam, tau_last", [(EXP, 0.2, 1.6), (HARD, 0.4, 1.2)])
def test_window_theta_matches_the_per_time_route(bath, lam, tau_last):
    prop = solve_propagator(bath, OSC, lam, tau_last + 0.1)
    m0 = max(32, math.ceil(tau_last / _theta_grid_step(prop)))
    coarse, fine = tau_last / m0, tau_last / (4 * m0)
    on_grid = np.array([0.6 * m0, 0.8 * m0]).round() * coarse
    off_grid = np.array([0.5 * tau_last + 0.37 * fine, 0.7 * tau_last + 2.5 * fine,
                         tau_last - 0.5 * fine])
    tau = np.sort(np.concatenate([on_grid, off_grid, [tau_last]]))
    window = np.array(_theta_window(prop, tau, 1e-3)).T
    for ts, got in zip(tau, window):
        want = _per_time_theta(prop, ts)
        rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
        if ts in off_grid:
            # different grids: the routes differ by their Richardson
            # residuals and the window route's interpolation (<= 7.3e-9 here)
            assert rel < 1e-7, (ts, rel)
        else:
            # the same double sums, summed in another order
            assert rel < 1e-12, (ts, rel)


def test_window_refusal_names_a_time(exp_prop):
    tau = np.linspace(0.9, 1.4, 6)
    with pytest.raises(AccuracyError, match=r"not converged at tau=") as err:
        exact_coefficients(exp_prop, tau, rel_tol=1e-14)
    named = float(re.search(r"at tau=(\S+):", str(err.value)).group(1))
    assert np.min(np.abs(tau - named)) < 1e-5


def test_window_takes_one_noise_kernel_call(exp_prop, monkeypatch):
    sizes = []

    def counting(tau, *args):
        sizes.append(np.size(tau))
        return noise_kernel(tau, *args)

    monkeypatch.setattr(coefficients, "noise_kernel", counting)
    tau = np.linspace(0.9, 1.4, 11)
    exact_coefficients(exp_prop, tau)
    m0 = max(32, math.ceil(1.4 / _theta_grid_step(exp_prop)))
    assert len(sizes) == 1
    assert sizes[0] <= 4 * m0 + 1


def test_points_near_zero_take_a_grid_of_their_own(exp_prop, monkeypatch):
    # 0.004 lies 4 coarse panels into the 1.2-long window's grid; it is
    # computed as a one-point window, so a tight tolerance holds as before
    monkeypatch.setattr(coefficients, "_THETA_REL_TOL", 1e-6)
    tau = np.array([0.004, 0.9, 1.0, 1.1, 1.2])
    window = np.array(_theta_window(exp_prop, tau, 1e-6))
    assert tuple(window[:, 0]) == theta_coefficients(exp_prop, 0.004)
    assert tuple(window[:, -1]) == theta_coefficients(exp_prop, 1.2)
