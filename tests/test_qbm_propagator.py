"""Checks for the memory-equation fundamental solution G(tau)."""

import math

import numpy as np
import pytest
import scipy.integrate

from opendecay.errors import AccuracyError, InversionError, ValidationError
from opendecay.model import BathSpectrum, CouplingScale, OscillatorParams
from opendecay.qbm.coefficients import exact_coefficients
from opendecay.qbm.kernels import dissipation_kernel
from opendecay.qbm.propagator import (
    PropagatorFunction,
    _bromwich_sum,
    _hermite_weights,
    propagator_via_laplace,
    solve_propagator,
)

OSC = OscillatorParams(1.0, 1.0)
EXP = BathSpectrum(0.3, 4.0, "exponential", 2.0)
HARD = BathSpectrum(0.3, 4.0, "hard", 2.0)
FREE = BathSpectrum(0.0, 4.0, "exponential", 2.0)


def test_free_oscillator_reduces_to_sine():
    pf = solve_propagator(FREE, OSC, 0.4, 3.0)
    tau = pf.tau_grid
    assert np.max(np.abs(pf.G - np.sin(tau))) < 1e-10
    assert np.max(np.abs(pf.G_dot - np.cos(tau))) < 1e-10
    assert np.max(np.abs(pf.G_ddot + np.sin(tau))) < 1e-9
    assert np.max(np.abs(pf.G_dddot + np.cos(tau))) < 1e-9


def test_initial_data_is_exact():
    pf = solve_propagator(EXP, OSC, 0.4, 1.0)
    assert pf.G[0] == 0.0
    assert pf.G_dot[0] == 1.0
    assert pf.G_ddot[0] == 0.0  # mu(0) = 0, so G''(0) = -w0^2 G(0)


@pytest.mark.parametrize("bath,points_hint", [
    (EXP, lambda a: [a, 3 * a, 10 * a]),
    (HARD, lambda a: list(np.pi * np.arange(1, 26) * a)),
])
def test_solution_satisfies_the_memory_equation(bath, points_hint):
    # residual of G'' + w0^2 G + (2/M) (mu * G) at off-grid times, with the
    # convolution done by adaptive quadrature against the spline -- this pits
    # the closed-form panel moments of the stepper against direct quadrature
    lam = 0.4
    pf = solve_propagator(bath, OSC, lam, 2.5)
    if bath.shape == "exponential":
        u_scale = lam**2 / bath.cutoff
    else:
        u_scale = lam**2 / bath.cutoff  # first zero spacing of mu
    for ts in (0.37, 1.1, 1.9, 2.4):
        mem, quad_err = scipy.integrate.quad(
            lambda u: dissipation_kernel(u, bath, OSC, lam) * pf.g(ts - u),
            0.0, ts, points=points_hint(u_scale), limit=400,
            epsabs=1e-13, epsrel=1e-12,
        )
        assert quad_err < 1e-10
        residual = pf.g_ddot(ts) + OSC.omega0**2 * pf.g(ts) + 2.0 / OSC.mass * mem
        assert abs(residual) < 1e-10 * max(1.0, pf.max_abs_g)


def test_time_domain_and_laplace_routes_agree():
    lam = 0.3
    grid = np.linspace(0.0, 4.0, 161)
    pf_t = solve_propagator(EXP, OSC, lam, 4.0)
    pf_l = propagator_via_laplace(EXP, OSC, lam, grid)
    scale = pf_t.max_abs_g
    assert np.max(np.abs(pf_t.g(grid) - pf_l.G)) < 1e-6 * scale
    assert np.max(np.abs(pf_t.g_dot(grid) - pf_l.G_dot)) < 1e-5


def test_laplace_route_free_case_is_exact():
    grid = np.linspace(0.0, 5.0, 101)
    pf = propagator_via_laplace(FREE, OSC, 0.4, grid)
    assert np.allclose(pf.G, np.sin(grid), atol=1e-14)
    assert np.allclose(pf.G_dot, np.cos(grid), atol=1e-14)


def test_laplace_refinement_check_raises_when_unreachable():
    # the two Bromwich passes cannot agree below double rounding
    with pytest.raises(InversionError, match="refinement"):
        propagator_via_laplace(EXP, OSC, 0.4, np.linspace(0.0, 2.0, 41),
                               rel_tol=1e-17)


def _dense_bromwich(tau, beta, wts, vals, sigma):
    # reference form: every phase e^{i beta tau} evaluated explicitly
    phase = np.exp(1j * np.outer(tau, beta))
    out = np.stack([(phase @ (wts * vals)).real,
                    (phase @ (wts * (sigma + 1j * beta) * vals)).real])
    return out * np.exp(sigma * tau) / math.pi


@pytest.mark.parametrize("grid", ["uniform", "nonuniform"])
def test_streamed_bromwich_sum_matches_dense_phases(grid):
    rng = np.random.default_rng(7)
    beta = np.sort(rng.uniform(0.0, 5000.0, 2000))
    wts = rng.uniform(0.1, 1.0, beta.size)
    vals = rng.standard_normal(beta.size) + 1j * rng.standard_normal(beta.size)
    sigma = 0.2
    if grid == "uniform":
        tau = np.linspace(0.0, 20.0, 300)  # > 3 anchor blocks, beta*tau to 1e5
    else:
        tau = np.sort(np.r_[0.0, rng.uniform(0.0, 20.0, 299)])
    got = _bromwich_sum(tau, beta, wts, vals, sigma)
    want = _dense_bromwich(tau, beta, wts, vals, sigma)
    # error relative to the sum of term magnitudes, the scale any
    # reordering or rephasing of the sum is judged against
    scale = np.array([np.sum(np.abs(wts * vals)),
                      np.sum(np.abs(wts * (sigma + 1j * beta) * vals))])
    scale = scale[:, None] * np.exp(sigma * tau) / math.pi
    assert np.max(np.abs(got - want) / scale) < 1e-12


def test_third_derivative_matches_the_lag_sum():
    lam, tau_max = 0.4, 1.5
    pf = solve_propagator(EXP, OSC, lam, tau_max)
    n = pf.tau_grid.size - 1
    h = tau_max / n
    alpha, beta, gamma, delta = _hermite_weights(n, h, EXP, OSC, lam)
    wg = alpha.copy()
    wg[1:] += gamma[:-1]
    wd = h * beta
    wd[1:] += h * delta[:-1]
    gd, gdd = pf.G_dot, pf.G_ddot
    # reference form: the product-integration memory sum node by node
    want = np.empty(n + 1)
    want[0] = -OSC.omega0**2 * gd[0]
    for j in range(1, n + 1):
        mem = (gamma[j - 1] * gd[0] + h * delta[j - 1] * gdd[0]
               + np.dot(wg[:j], gd[j:0:-1]) + np.dot(wd[:j], gdd[j:0:-1]))
        want[j] = -OSC.omega0**2 * gd[j] - 2.0 / OSC.mass * mem
    assert np.max(np.abs(pf.G_dddot - want)) < 1e-12 * np.max(np.abs(want))


def test_grid_ends_exactly_on_tau_max():
    # 0.86 / n * n rounds below 0.86 for some refinement levels n
    pf = solve_propagator(EXP, OSC, 0.4, 0.86)
    assert pf.tau_max == 0.86
    co = exact_coefficients(pf, np.linspace(0.5, 0.86, 5))
    assert co.tau[-1] == 0.86
    assert np.all(np.isfinite(co.D_xx))


def test_halving_certification_raises_when_unreachable():
    with pytest.raises(AccuracyError):
        solve_propagator(EXP, OSC, 0.4, 1.0, n_points=16,
                         rel_tol=1e-15, max_refinements=0)


def test_coupling_scale_wrapper_is_equivalent():
    a = solve_propagator(EXP, OSC, CouplingScale(0.4), 1.0, n_points=64,
                         rel_tol=1e-3)
    b = solve_propagator(EXP, OSC, 0.4, 1.0, n_points=64, rel_tol=1e-3)
    assert np.array_equal(a.G, b.G)


def test_solver_input_validation():
    with pytest.raises(ValidationError):
        solve_propagator(EXP, OSC, 0.4, -1.0)
    with pytest.raises(ValidationError):
        solve_propagator(EXP, OSC, 0.4, 1.0, n_points=1 << 21)
    with pytest.raises(ValidationError):
        solve_propagator(EXP, OSC, 1.3, 1.0)


def _valid_arrays():
    tau = np.linspace(0.0, 1.0, 6)
    return tau, np.sin(tau), np.cos(tau), -np.sin(tau), -np.cos(tau)


def test_propagator_function_validates_and_freezes():
    tau, g, gd, gdd, gddd = _valid_arrays()
    pf = PropagatorFunction(tau, g, gd, gdd, gddd, 0.4, EXP, OSC)
    assert pf.tau_max == 1.0
    assert pf.max_abs_g == pytest.approx(np.sin(1.0))
    with pytest.raises(ValueError):
        pf.G[2] = 5.0  # stored arrays are read-only

    with pytest.raises(ValidationError):  # grid must start at zero
        PropagatorFunction(tau + 0.1, g, gd, gdd, gddd, 0.4, EXP, OSC)
    with pytest.raises(ValidationError):  # G(0) must be exactly 0
        PropagatorFunction(tau, g + 1e-12, gd, gdd, gddd, 0.4, EXP, OSC)
    with pytest.raises(ValidationError):  # G'(0) must be exactly 1
        PropagatorFunction(tau, g, 0.999 * gd, gdd, gddd, 0.4, EXP, OSC)
    with pytest.raises(ValidationError):  # too few nodes
        PropagatorFunction(tau[:4], g[:4], gd[:4], gdd[:4], gddd[:4],
                           0.4, EXP, OSC)
    with pytest.raises(ValidationError):  # shape mismatch
        PropagatorFunction(tau, g[:-1], gd, gdd, gddd, 0.4, EXP, OSC)


def test_laplace_route_grid_validation():
    with pytest.raises(ValidationError):  # must start at 0
        propagator_via_laplace(EXP, OSC, 0.4, np.linspace(0.5, 2.0, 31))
    with pytest.raises(ValidationError):  # strictly increasing
        propagator_via_laplace(EXP, OSC, 0.4, np.array([0.0, 1.0, 1.0, 2.0, 3.0]))
    with pytest.raises(ValidationError):  # beyond supported horizon
        propagator_via_laplace(EXP, OSC, 0.4, np.linspace(0.0, 1500.0, 101))
    with pytest.raises(ValidationError):  # too few nodes
        propagator_via_laplace(EXP, OSC, 0.4, np.array([0.0, 1.0, 2.0]))


def test_damping_shrinks_the_envelope():
    # with coupling on, successive |G| maxima decay; free case stays put
    pf = solve_propagator(EXP, OSC, 0.5, 12.0)
    tau = pf.tau_grid
    first = np.max(np.abs(pf.G[tau < 4.0]))
    last = np.max(np.abs(pf.G[tau > 8.0]))
    assert last < 0.9 * first
