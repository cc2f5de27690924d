"""Checks for the memory-equation fundamental solution G(tau)."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from scipy.signal import fftconvolve
from scipy.special import spherical_jn

import opendecay
from opendecay._quad import panel_nodes
from opendecay.errors import AccuracyError, InversionError, ValidationError
from opendecay.model import BathSpectrum, CouplingScale, OscillatorParams
from opendecay.qbm import propagator
from opendecay.qbm.coefficients import exact_coefficients
from opendecay.qbm.kernels import dissipation_kernel, mu_laplace
from opendecay.qbm.propagator import (
    PropagatorFunction,
    _adams_step,
    _bromwich_sum,
    _contour_panels,
    _convolve,
    _hermite_weights,
    _linear_weights,
    _spherical_jn,
    _step_map,
    _trapezoid_step,
    _volterra_solve,
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


def test_laplace_refinement_check_raises_when_unreachable(monkeypatch):
    # the two Bromwich passes cannot agree below double rounding
    monkeypatch.setattr(propagator, "_REL_TOL", 1e-17)
    with pytest.raises(InversionError, match="refinement"):
        propagator_via_laplace(EXP, OSC, 0.4, np.linspace(0.0, 2.0, 41))


def test_laplace_route_refuses_a_nan_transform(monkeypatch):
    # a NaN in the transform fails the refinement check by name instead of
    # reaching the derivative spline
    def poisoned(s, *args):
        out = mu_laplace(s, *args)
        out[len(out) // 2] = np.nan
        return out

    monkeypatch.setattr(propagator, "mu_laplace", poisoned)
    # the injected NaN makes the complex division warn; the refusal is the point
    with np.errstate(invalid="ignore"), pytest.raises(
            InversionError, match="Bromwich refinement moved G by nan"):
        propagator_via_laplace(EXP, OSC, 0.4, np.linspace(0.0, 2.0, 41))


def test_laplace_route_refuses_a_contour_that_misses_its_start(monkeypatch):
    # both passes skip beta < 1 alike, so they agree with each other; only
    # the initial data show the missing piece of the contour
    panels = propagator._contour_panels

    def gapped(*args):
        mid, half = panels(*args)
        lo, hi = np.maximum(mid - half, 1.0), mid + half
        keep = hi > 1.0
        return 0.5 * (lo + hi)[keep], 0.5 * (hi - lo)[keep]

    monkeypatch.setattr(propagator, "_contour_panels", gapped)
    with pytest.raises(InversionError, match=r"violates initial data: G\(0\)=5\.\d+e-04"):
        propagator_via_laplace(EXP, OSC, 0.4, np.linspace(0.0, 2.0, 41))


_BESSEL_Z = np.unique(np.concatenate([
    [0.0, 1e-8, 1e-3, 0.5],
    # either side of every order, where the upward recurrence takes over
    np.arange(1.0, 25.0) - 1e-9, np.arange(1.0, 25.0), np.arange(1.0, 25.0) + 1e-9,
    np.linspace(0.0, 40.0, 4001),
    np.geomspace(1e-8, 1e4, 2001),
]))


@pytest.mark.parametrize("order", [16, 24])
def test_spherical_bessel_recurrence_matches_scipy(order):
    got = _spherical_jn(order, _BESSEL_Z)
    want = np.array([spherical_jn(k, _BESSEL_Z) for k in range(order)])
    assert got.shape == (order, _BESSEL_Z.size)
    assert np.max(np.abs(got - want)) <= 1e-13
    # the block shape is kept
    assert _spherical_jn(order, _BESSEL_Z[:12].reshape(3, 4)).shape == (order, 3, 4)


def _test_transform(s):
    # two pole pairs a distance 0.1 left of the imaginary axis; decays like s**-4
    return 1.0 / (((s + 0.1) ** 2 + 1.0) * ((s + 0.1) ** 2 + 6.25))


@pytest.mark.parametrize("n_nodes, shrink", [(16, 1.0), (24, 0.5)])
def test_filon_sum_matches_a_dense_gauss_legendre_sum(n_nodes, shrink):
    rng = np.random.default_rng(7)
    tau = np.sort(np.r_[0.0, rng.uniform(0.0, 10.0, 199)])
    sigma, bcut = 0.35, 80.0
    mid, half = _contour_panels(1.0, sigma, bcut, shrink, None)
    beta = (mid[:, None] + half[:, None] * np.polynomial.legendre.leggauss(n_nodes)[0]).ravel()
    s = sigma + 1j * beta
    vals = np.stack([_test_transform(s), s * _test_transform(s)]).reshape(2, -1, n_nodes)
    got = _bromwich_sum(tau, mid, half, vals, sigma)
    # reference form: 32-point panels 0.05 wide, every phase evaluated
    nodes, wts = panel_nodes(np.linspace(0.0, bcut, 1601), 32)
    s = sigma + 1j * nodes
    f = wts * _test_transform(s)
    want = np.stack([(np.exp(1j * np.outer(tau, nodes)) @ g).real for g in (f, s * f)])
    want *= np.exp(sigma * tau) / math.pi
    assert np.all(np.abs(got - want) <= 1e-10 * np.max(np.abs(want), axis=1, keepdims=True))


def test_contour_panels_tile_the_window_and_meet_the_kink():
    sigma, bcut, kink = 0.35, 900.0, 100.0
    for shrink in (1.0, 0.5):
        mid, half = _contour_panels(1.0, sigma, bcut, shrink, kink)
        lo, hi = mid - half, mid + half
        assert lo[0] == 0.0 and hi[-1] == pytest.approx(bcut, rel=1e-15)
        assert np.max(np.abs(lo[1:] - hi[:-1])) <= 1e-12
        at = int(np.argmin(np.abs(hi - kink)))
        assert hi[at] == kink  # the kink is a panel edge, between two fine panels
        assert np.all(2.0 * half[at : at + 2] <= 0.5 * sigma * shrink)
        # the panels across the pole pair share one half-width exactly
        assert np.unique(half[mid < 3.5]).size == 1


@pytest.mark.parametrize("lam", [0.4, 0.2])
def test_laplace_route_agrees_on_the_hard_cutoff(lam):
    # cutoff/lam**2 = 25 and 100: the branch point lies in the geometric tail
    grid = np.linspace(0.0, 4.0, 161)
    pf_t = solve_propagator(HARD, OSC, lam, 4.0)
    pf_l = propagator_via_laplace(HARD, OSC, lam, grid)
    assert np.max(np.abs(pf_t.g(grid) - pf_l.G)) < 1e-6 * pf_t.max_abs_g
    assert np.max(np.abs(pf_t.g_dot(grid) - pf_l.G_dot)) < 1e-5


def _lag_weights(n, h, bath, lam):
    alpha, beta, gamma, delta = _hermite_weights(n, h, bath, OSC, lam)
    wg = alpha.copy()
    wg[1:] += gamma[:-1]
    wd = h * beta
    wd[1:] += h * delta[:-1]
    return wg, wd, gamma, delta


_CONVOLVE_SIZES = (
    [(i, j) for i in range(2, 9) for j in range(2, 9)]
    + [(1023, 1023), (4097, 4097), (1200, 1199)]
)


@pytest.mark.parametrize("na, nb", _CONVOLVE_SIZES)
def test_convolve_is_the_fft_convolution_to_the_bit(na, nb):
    rng = np.random.default_rng(na * 10007 + nb)
    a, b = rng.normal(size=na), rng.normal(size=nb)
    for m in (1, min(na, nb), na + nb - 1):
        assert np.array_equal(_convolve(a, b, m), fftconvolve(a, b)[:m])


def test_import_leaves_scipy_signal_unloaded():
    # the package's convolutions go through scipy.fft alone; scipy.signal
    # would pull in scipy.stats and scipy.ndimage at every import
    src = str(Path(opendecay.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, opendecay; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_third_derivative_matches_the_lag_sum():
    lam, tau_max = 0.4, 1.5
    pf = solve_propagator(EXP, OSC, lam, tau_max)
    n = pf.tau_grid.size - 1
    h = tau_max / n
    wg, wd, gamma, delta = _lag_weights(n, h, EXP, lam)
    gd, gdd = pf.G_dot, pf.G_ddot
    # reference form: the product-integration memory sum node by node
    want = np.empty(n + 1)
    want[0] = -OSC.omega0**2 * gd[0]
    for j in range(1, n + 1):
        mem = (gamma[j - 1] * gd[0] + h * delta[j - 1] * gdd[0]
               + np.dot(wg[:j], gd[j:0:-1]) + np.dot(wd[:j], gdd[j:0:-1]))
        want[j] = -OSC.omega0**2 * gd[j] - 2.0 / OSC.mass * mem
    assert np.max(np.abs(pf.G_dddot - want)) < 1e-12 * np.max(np.abs(want))


def _loop_trapezoid_step(h, w0sq, two_over_m, w0, g, gd, gdd, lagd):
    # one trapezoidal PECE step with four corrector sweeps from node m
    gs = g + h * gd + 0.5 * h * h * gdd
    gds = gd + h * gdd
    for _ in range(4):
        gdds = -w0sq * gs - two_over_m * (lagd + w0 * gs)
        gds = gd + 0.5 * h * (gdd + gdds)
        gs = g + 0.5 * h * (gd + gds)
    return gs, gds, -w0sq * gs - two_over_m * (lagd + w0 * gs)


def _loop_startup(h, bath, lam):
    # (G, G') at h, 2h, 3h: fine PECE runs stepped node by node, Richardson paired
    w0sq, two_over_m = OSC.omega0**2, 2.0 / OSC.mass

    def run(nsub):
        hf = 3.0 * h / nsub
        w = _linear_weights(nsub, hf, bath, OSC, lam)
        g, gd, gdd = np.zeros(nsub + 1), np.zeros(nsub + 1), np.zeros(nsub + 1)
        gd[0] = 1.0
        for j in range(nsub):
            lagd = np.dot(w[1 : j + 1], g[j:0:-1]) if j >= 1 else 0.0
            g[j + 1], gd[j + 1], gdd[j + 1] = _loop_trapezoid_step(
                hf, w0sq, two_over_m, w[0], g[j], gd[j], gdd[j], lagd)
        return g, gd

    g16, gd16 = run(48)
    g32, gd32 = run(96)
    i16, i32 = np.array([16, 32, 48]), np.array([32, 64, 96])
    return (4.0 * g32[i32] - g16[i16]) / 3.0, (4.0 * gd32[i32] - gd16[i16]) / 3.0


def _loop_step(h, w0sq, two_over_m, wg0, wd0, g, gd, gdd, base):
    # one AB4 predictor and two AM4 corrector sweeps; index k is node m - k
    gp = g[0] + h * (55.0 * gd[0] - 59.0 * gd[1] + 37.0 * gd[2] - 9.0 * gd[3]) / 24.0
    gdp = gd[0] + h * (55.0 * gdd[0] - 59.0 * gdd[1] + 37.0 * gdd[2] - 9.0 * gdd[3]) / 24.0
    gc, gdc = gp, gdp
    for _ in range(2):
        gddc = -w0sq * gc - two_over_m * (base + wg0 * gc + wd0 * gdc)
        gdc = gd[0] + h * (9.0 * gddc + 19.0 * gdd[0] - 5.0 * gdd[1] + gdd[2]) / 24.0
        gc = g[0] + h * (9.0 * gdc + 19.0 * gd[0] - 5.0 * gd[1] + gd[2]) / 24.0
    return gc, gdc, -w0sq * gc - two_over_m * (base + wg0 * gc + wd0 * gdc)


def _loop_solve(bath, lam, tau_max, n):
    # reference form: the product-integration scheme stepped node by node
    h = tau_max / n
    w0sq, two_over_m = OSC.omega0**2, 2.0 / OSC.mass
    wg, wd, gamma, delta = _lag_weights(n, h, bath, lam)

    def lag(j, a, ad):
        # memory over history nodes j-1 .. 1 plus the tau=0 boundary node
        s = gamma[j - 1] * a[0] + h * delta[j - 1] * ad[0]
        if j > 1:
            s += np.dot(wg[1:j], a[j - 1 : 0 : -1])
            s += np.dot(wd[1:j], ad[j - 1 : 0 : -1])
        return s

    G, Gd, Gdd, Gddd = (np.zeros(n + 1) for _ in range(4))
    Gd[0] = 1.0
    G[1:4], Gd[1:4] = _loop_startup(h, bath, lam)
    for i in (1, 2, 3):
        mem = lag(i, G, Gd) + wg[0] * G[i] + wd[0] * Gd[i]
        Gdd[i] = -w0sq * G[i] - two_over_m * mem
    for m in range(3, n):
        back = slice(m, m - 4 if m > 3 else None, -1)
        G[m + 1], Gd[m + 1], Gdd[m + 1] = _loop_step(
            h, w0sq, two_over_m, wg[0], wd[0], G[back], Gd[back], Gdd[back],
            lag(m + 1, G, Gd))
    Gddd[0] = -w0sq * Gd[0]
    for j in range(1, n + 1):
        mem = lag(j, Gd, Gdd) + wg[0] * Gd[j] + wd[0] * Gdd[j]
        Gddd[j] = -w0sq * Gd[j] - two_over_m * mem
    return G, Gd, Gdd, Gddd


@pytest.mark.parametrize("n, tau_max", [(16, 1.0), (17, 1.0), (1000, 2.5), (8192, 20.0)])
@pytest.mark.parametrize("lam", [0.4, 0.1])
@pytest.mark.parametrize("bath", [EXP, HARD, FREE], ids=["exp", "hard", "free"])
def test_series_solve_matches_the_node_loop(bath, lam, n, tau_max):
    tau, *got = _volterra_solve(bath, OSC, lam, tau_max, n)
    want = _loop_solve(bath, lam, tau_max, n)
    assert tau.size == n + 1
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-11 * np.max(np.abs(w))


@pytest.mark.parametrize("scheme", ["adams", "trapezoid"])
def test_step_map_reproduces_one_loop_step(scheme):
    rng = np.random.default_rng(11)
    h, lam = 0.01, 0.4
    w0sq, two_over_m = OSC.omega0**2, 2.0 / OSC.mass
    wg, wd, _, _ = _lag_weights(64, h, EXP, lam)
    if scheme == "adams":
        nodes = 4
        K, v = _step_map(_adams_step(h, w0sq, two_over_m, wg[0], wd[0]), nodes)
        loop = lambda hist, b: _loop_step(  # noqa: E731
            h, w0sq, two_over_m, wg[0], wd[0], *hist, b)
    else:
        nodes = 1
        K, v = _step_map(_trapezoid_step(h, w0sq, two_over_m, wg[0]), nodes)
        loop = lambda hist, b: _loop_trapezoid_step(  # noqa: E731
            h, w0sq, two_over_m, wg[0], *hist[:, 0], b)
    assert K.shape == (nodes, 3, 3) and v.shape == (3,)
    for _ in range(5):
        hist = rng.standard_normal((3, nodes))  # rows G, G', G''; column k: node m - k
        base = rng.standard_normal()
        want = np.array(loop(hist, base))
        got = sum(K[k] @ hist[:, k] for k in range(nodes)) + v * base
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_grid_ends_exactly_on_tau_max():
    # 0.86 / n * n rounds below 0.86 for some refinement levels n
    pf = solve_propagator(EXP, OSC, 0.4, 0.86)
    assert pf.tau_max == 0.86
    co = exact_coefficients(pf, np.linspace(0.5, 0.86, 5))
    assert co.tau[-1] == 0.86
    assert np.all(np.isfinite(co.D_xx))


def test_halving_certification_raises_when_unreachable(monkeypatch):
    # the first grid on [0, 1] has ceil(409.6) = 410 nodes
    monkeypatch.setattr(propagator, "_REL_TOL", 1e-15)
    monkeypatch.setattr(propagator, "_MAX_REFINEMENTS", 0)
    with pytest.raises(AccuracyError, match="stalled at n=820 after 0 refinements"):
        solve_propagator(EXP, OSC, 0.4, 1.0)


def test_halving_refuses_a_first_step_past_the_node_budget(monkeypatch):
    monkeypatch.setattr(propagator, "_MAX_NODES", 800)
    with pytest.raises(ValidationError, match="n=410 .*_MAX_NODES=800"):
        solve_propagator(EXP, OSC, 0.4, 1.0)


def test_halving_names_the_node_budget_when_it_stops_there(monkeypatch):
    monkeypatch.setattr(propagator, "_MAX_NODES", 1000)
    monkeypatch.setattr(propagator, "_REL_TOL", 1e-14)
    with pytest.raises(AccuracyError, match="_MAX_NODES=1000 at n=820: .* differ by"):
        solve_propagator(EXP, OSC, 0.4, 1.0)


def test_coupling_scale_wrapper_is_equivalent():
    a = solve_propagator(EXP, OSC, CouplingScale(0.4), 1.0)
    b = solve_propagator(EXP, OSC, 0.4, 1.0)
    assert np.array_equal(a.G, b.G)


def test_solver_input_validation():
    for tau_max in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValidationError, match="tau_max must be finite and > 0"):
            solve_propagator(EXP, OSC, 0.4, tau_max)
    with pytest.raises(ValidationError, match="_MAX_NODES"):  # 2 * 1.3M nodes
        solve_propagator(EXP, OSC, 0.4, 3200.0)
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


@pytest.mark.parametrize("node, value, message", [
    (0, 0.1, "must increase strictly from 0; node 0 is 0.1$"),
    (3, 0.2, "must increase strictly from 0; node 3 is 0.2 after 0.4$"),
    (4, np.nan, "must be finite; node 4 is nan$"),
])
def test_propagator_function_names_the_bad_grid_node(node, value, message):
    tau, g, gd, gdd, gddd = _valid_arrays()
    tau[node] = value
    with pytest.raises(ValidationError, match="^tau_grid " + message):
        PropagatorFunction(tau, g, gd, gdd, gddd, 0.4, EXP, OSC)


def test_laplace_route_grid_validation():
    with pytest.raises(ValidationError, match="from 0; node 0 is 0.5$"):
        propagator_via_laplace(EXP, OSC, 0.4, np.linspace(0.5, 2.0, 31))
    with pytest.raises(ValidationError, match="from 0; node 2 is 1.0 after 1.0$"):
        propagator_via_laplace(EXP, OSC, 0.4, np.array([0.0, 1.0, 1.0, 2.0, 3.0]))
    with pytest.raises(ValidationError, match="from 0; node 3 is 0.5 after 2.0$"):
        propagator_via_laplace(EXP, OSC, 0.4, np.array([0.0, 1.0, 2.0, 0.5, 3.0]))
    with pytest.raises(ValidationError, match="beyond supported range: .*1500.0 > 1000$"):
        propagator_via_laplace(EXP, OSC, 0.4, np.linspace(0.0, 1500.0, 101))
    with pytest.raises(ValidationError):  # too few nodes
        propagator_via_laplace(EXP, OSC, 0.4, np.array([0.0, 1.0, 2.0]))
    grid = np.linspace(0.0, 2.0, 41)
    grid[7] = np.nan
    with pytest.raises(ValidationError, match="tau_grid must be finite; node 7 is nan"):
        propagator_via_laplace(EXP, OSC, 0.4, grid)


def test_damping_shrinks_the_envelope():
    # with coupling on, successive |G| maxima decay; free case stays put
    pf = solve_propagator(EXP, OSC, 0.5, 12.0)
    tau = pf.tau_grid
    first = np.max(np.abs(pf.G[tau < 4.0]))
    last = np.max(np.abs(pf.G[tau > 8.0]))
    assert last < 0.9 * first
