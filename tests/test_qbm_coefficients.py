"""Tests for the two-point-kernel entries and master-equation coefficients."""

import math
import re
from dataclasses import astuple

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
    lambda_theta,
    limit_coefficients,
    limit_lambda_theta,
    theta_coefficients,
    _theta_grid_step,
    _theta_window,
)
from opendecay.qbm.kernels import noise_kernel
from opendecay.qbm.propagator import PropagatorFunction, solve_propagator
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
        lt = lambda_theta(free_prop, ts)
        assert lt.L_ff == pytest.approx(1.0 / math.tan(ts), abs=1e-9)
        assert lt.L_fi == pytest.approx(-1.0 / math.sin(ts), abs=1e-9)
        assert lt.L_if == pytest.approx(-1.0 / math.sin(ts), abs=1e-9)


def test_free_decoherence_vanishes(free_prop):
    assert theta_coefficients(free_prop, 1.1) == (0.0, 0.0, 0.0)
    lt = lambda_theta(free_prop, 1.1)
    assert (lt.T_ff, lt.T_fi, lt.T_ii) == (0.0, 0.0, 0.0)


def test_node_guard_near_propagator_zero(free_prop):
    with pytest.raises(NodeSingularityError):
        lambda_theta(free_prop, math.pi)
    with pytest.raises(ValidationError):
        lambda_theta(free_prop, 5.0)  # beyond solved window
    with pytest.raises(ValidationError):
        lambda_theta(free_prop, 0.0)


def test_window_check_names_the_first_offending_point(free_prop):
    # one pass over the window still reports the first bad point: the third
    # sits on the node of G = sin(tau) at pi, the last beyond tau_max = 4
    tau = np.array([2.0, 2.5, math.pi, 3.5, 5.0])
    for call in (exact_coefficients, theta_coefficients, lambda_theta):
        with pytest.raises(NodeSingularityError, match=r"^G\(3\.14159\) = "):
            call(free_prop, tau)
    with pytest.raises(ValidationError, match=r"^tau=5 outside"):
        exact_coefficients(free_prop, np.array([2.0, 2.5, 3.0, 3.5, 5.0]))


def test_decoherence_matrix_is_positive(exp_prop):
    for ts in (1.2, 2.2):
        t_ff, t_fi, t_ii = theta_coefficients(exp_prop, ts)
        assert t_ff > 0.0
        assert t_ii > 0.0
        assert t_ff * t_ii - t_fi * t_fi >= -1e-6 * (t_ff * t_ii + t_fi * t_fi)


def test_exact_coefficients_name_where_the_wronskian_vanishes():
    # G = tau exp(tau**2/2) has W = G''G - G'**2 = exp(tau**2) (tau**2 - 1),
    # zero at tau = 1 and nowhere else; no node of G lies in the window
    tau = np.linspace(0.0, 2.0, 9)
    e = np.exp(0.5 * tau**2)
    t2 = tau * tau
    derivs = (tau * e, (1.0 + t2) * e, (3.0 + t2) * tau * e, (3.0 + 6.0 * t2 + t2 * t2) * e,
              (15.0 + 10.0 * t2 + t2 * t2) * tau * e)
    prop = PropagatorFunction(tau, *derivs, 0.2, EXP, OSC)
    with pytest.raises(NodeSingularityError, match=r"vanishes at tau=1, the first"):
        exact_coefficients(prop, np.array([0.5, 0.75, 1.0, 1.25, 1.5]))


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


def test_theta_grid_refuses_beyond_its_node_budget(exp_prop, monkeypatch):
    # checked before the grid is laid, so the noise kernel is never taken;
    # a grid of exactly the budget runs
    nodes = 4 * math.ceil(1.2 / _theta_grid_step(exp_prop)) + 1
    calls = []
    monkeypatch.setattr(coefficients, "noise_kernel",
                        lambda *args: calls.append(1) or noise_kernel(*args))
    monkeypatch.setattr(coefficients, "_MAX_THETA_NODES", nodes - 1)
    with pytest.raises(ValidationError, match=(
            rf"^lam=0\.2 is too small for a Theta pass up to tau=1\.2: its grid needs "
            rf"{re.escape(f'{nodes:.3e}')} nodes, beyond the budget "
            rf"_MAX_THETA_NODES={nodes - 1}$")):
        theta_coefficients(exp_prop, 1.2)
    assert calls == []
    monkeypatch.setattr(coefficients, "_MAX_THETA_NODES", nodes)
    theta_coefficients(exp_prop, 1.2)
    assert calls == [1]


def test_exact_coefficients_take_no_theta_target(exp_prop):
    # the Richardson target is _THETA_REL_TOL, fixed in the module
    with pytest.raises(TypeError, match="rel_tol"):
        exact_coefficients(exp_prop, np.linspace(0.9, 1.4, 6), rel_tol=1e-3)


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
    with pytest.raises(ValidationError, match=r"^tau_points must be finite; node 1 is nan$"):
        limit_coefficients(EXP, OSC, [0.0, math.nan])


@pytest.mark.parametrize("tau, why", [
    (np.array([]), "be a 1-d array with at least one node"),
    (np.zeros((2, 2)), "be a 1-d array with at least one node"),
    (np.array([0.0, np.nan]), "be finite; node 1 is nan"),
    (np.array([1.0, 1.0]), "be strictly increasing; node 1 is 1.0 after 1.0"),
])
def test_coefficients_refuse_a_bad_tau_grid_by_name(tau, why):
    with pytest.raises(ValidationError, match=rf"^tau must {re.escape(why)}$"):
        QBMCoefficients(tau, 1.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("name", ["omegaR_sq", "D_xx", "D_xp", "Gamma_xp"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_coefficients_refuse_a_non_finite_entry_by_name(name, value):
    # refused where it enters: the stepper's refusal would name its error estimate
    tau = np.linspace(0.0, 1.0, 5)
    entries = dict(omegaR_sq=1.0, D_xx=0.1, D_xp=0.0, Gamma_xp=np.full(5, 0.2))
    entries[name] = np.where(tau == 0.75, value, entries[name])
    with pytest.raises(ValidationError, match=rf"^{name} must be finite; node 3 is {value}$"):
        QBMCoefficients(tau, **entries)
    with pytest.raises(ValidationError, match=rf"^{name} must be finite; node 0 is {value}$"):
        QBMCoefficients(np.array([0.0]), **dict(entries, **{name: value}))


def test_exact_decoherence_matrix_is_positive_semidefinite(exp_prop):
    # Theta is a double integral of the positive noise kernel, so the
    # two-point kernel's Gaussian damping never turns into growth
    t_ff, t_fi, t_ii = theta_coefficients(exp_prop, np.linspace(0.4, 2.6, 12))
    assert np.all(t_ff > 0.0) and np.all(t_ii > 0.0)
    assert np.all(t_ff * t_ii - t_fi**2 > 0.0)


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
    window = np.array(_theta_window(prop, tau)).T
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


def test_window_refusal_names_a_time(exp_prop, monkeypatch):
    monkeypatch.setattr(coefficients, "_THETA_REL_TOL", 1e-14)
    tau = np.linspace(0.9, 1.4, 6)
    with pytest.raises(AccuracyError, match=r"not converged at tau=") as err:
        exact_coefficients(exp_prop, tau)
    named = float(re.search(r"at tau=(\S+):", str(err.value)).group(1))
    assert np.min(np.abs(tau - named)) < 1e-5


def test_window_takes_one_noise_kernel_call(exp_prop, monkeypatch):
    sizes = []

    def counting(tau, *args):
        sizes.append(np.size(tau))
        return noise_kernel(tau, *args)

    monkeypatch.setattr(coefficients, "noise_kernel", counting)
    tau = np.linspace(0.9, 1.4, 11)
    m0 = max(32, math.ceil(1.4 / _theta_grid_step(exp_prop)))
    for call in (exact_coefficients, lambda_theta):
        sizes.clear()
        call(exp_prop, tau)
        assert len(sizes) == 1, call.__name__
        assert sizes[0] <= 4 * m0 + 1


def test_an_array_call_equals_the_per_time_calls(exp_prop):
    # The window ends at 1.2; 0.004 and 0.0213 lie below 32 of its coarse
    # panels and take grids of their own, the rest share its grid, on its
    # fine nodes or between them.
    m0 = max(32, math.ceil(1.2 / _theta_grid_step(exp_prop)))
    fine = 1.2 / (4 * m0)
    own = [0.004, 0.0213]
    on_node = [1240 * fine, 3600 * fine, 1.2]
    off_node = [0.31377, 0.77713, 1.2 - 0.4 * fine]
    tau = np.sort(own + on_node + off_node)
    got = lambda_theta(exp_prop, tau)
    for i, ts in enumerate(tau):
        one = lambda_theta(exp_prop, ts)
        assert (got.L_ff[i], got.L_fi[i], got.L_if[i]) == (one.L_ff, one.L_fi, one.L_if)
        want = np.array([one.T_ff, one.T_fi, one.T_ii])
        rel = np.max(np.abs(np.array([got.T_ff[i], got.T_fi[i], got.T_ii[i]]) - want))
        rel /= np.max(np.abs(want))
        if ts in own:
            assert rel == 0.0, ts  # the same one-point window
        elif ts in on_node:
            assert rel < 1e-12, (ts, rel)  # the same double sums
        else:
            # the window's Hermite interpolation against a grid ending at
            # ts (<= 2.3e-9 here), as in the per-time route test above
            assert rel < 1e-7, (ts, rel)


@pytest.mark.parametrize("call", [theta_coefficients, lambda_theta])
def test_a_float_call_is_a_one_element_array_call(exp_prop, call):
    def entries(result):
        return astuple(result) if isinstance(result, LambdaTheta) else result

    values = entries(call(exp_prop, 1.2))
    arrays = entries(call(exp_prop, np.array([1.2])))
    assert all(np.ndim(v) == 0 for v in values)
    assert all(a.shape == (1,) for a in arrays)
    assert values == tuple(a[0] for a in arrays)


@pytest.mark.parametrize("call", [theta_coefficients, lambda_theta])
@pytest.mark.parametrize("tau, message", [
    ([0.9, np.nan, 1.2], r"^tau must be finite; node 1 is nan$"),
    ([0.9, 1.0, 1.0, 1.2], r"^tau must be strictly increasing; node 2 is 1\.0 after 1\.0$"),
    ([0.9, 1.2, 1.1], r"^tau must be strictly increasing; node 2 is 1\.1 after 1\.2$"),
], ids=["nan", "repeated", "decreasing"])
def test_a_bad_time_array_is_refused_by_node(exp_prop, call, tau, message):
    with pytest.raises(ValidationError, match=message):
        call(exp_prop, np.array(tau))


def test_points_near_zero_take_a_grid_of_their_own(exp_prop, monkeypatch):
    # 0.004 lies 4 coarse panels into the 1.2-long window's grid; it is
    # computed as a one-point window, so a tight tolerance holds as before
    monkeypatch.setattr(coefficients, "_THETA_REL_TOL", 1e-6)
    tau = np.array([0.004, 0.9, 1.0, 1.1, 1.2])
    window = np.array(_theta_window(exp_prop, tau))
    assert tuple(window[:, 0]) == theta_coefficients(exp_prop, 0.004)
    assert tuple(window[:, -1]) == theta_coefficients(exp_prop, 1.2)


def test_hard_cutoff_coefficients_converge_onto_the_plateau():
    # criterion 8's window and bath with the hard cutoff: from lam = 0.1 to
    # 0.05 each deviation from the limit shrinks by a factor in [2.5, 6].
    # Above lam = 0.1 the hard-cutoff D_xx ratios (1.9, then 13.9) are not
    # yet in that regime.
    bath = BathSpectrum(0.2, 5.0, "hard", 5.0)
    window = np.linspace(0.9, 2.9, 101)
    limit = limit_coefficients(bath, OSC, window)
    devs = []
    for lam in (0.1, 0.05):
        coeffs = exact_coefficients(solve_propagator(bath, OSC, lam, 2.9), window)
        devs.append(np.array([
            np.max(np.abs(coeffs.D_xx - limit.D_xx)),
            np.max(np.abs(coeffs.D_xp)),
            np.max(np.abs(coeffs.Gamma_xp)),
        ]))
    ratios = devs[0] / devs[1]
    assert np.all((2.5 <= ratios) & (ratios <= 6.0)), ratios
