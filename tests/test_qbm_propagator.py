"""Checks for the memory-equation fundamental solution G(tau)."""

import math
import re

import numpy as np
import pytest
import scipy.fft
import scipy.integrate
from scipy.interpolate import CubicHermiteSpline, CubicSpline
from scipy.signal import fftconvolve
from scipy.special import sici, spherical_jn

from opendecay._quad import _spherical_jn, filon_sum, panel_nodes
from opendecay.errors import AccuracyError, InversionError, ValidationError
from opendecay.model import BathSpectrum, OscillatorParams
from opendecay.qbm import propagator
from opendecay.qbm.coefficients import exact_coefficients
from opendecay.qbm.kernels import dissipation_kernel, mu_laplace
from opendecay.qbm.propagator import (
    PropagatorFunction,
    _adams_step,
    _contour_panels,
    _convolve,
    _finish,
    _hermite_weights,
    _raw_moments,
    _sine_integral_panels,
    _startup_nodes,
    _step_map,
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
    assert np.max(np.abs(pf.G_ddddot - np.sin(tau))) < 1e-9


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
    assert np.allclose(pf.G_ddddot, np.sin(grid), atol=1e-14)


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
    got = filon_sum(tau, mid, half, vals) * (np.exp(sigma * tau) / math.pi)
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


HARD_DEFAULT = BathSpectrum(0.2, 5.0, "hard", 5.0)  # the scenarios' default bath, hard cutoff


def _si_minus_sin(x):
    # Si(x) - sin x from scipy's sici; below x = 0.5 the two cancel to
    # x**3/9, so there the Taylor series of the difference is summed
    si, _ = sici(x)
    out = si - np.sin(x)
    xs = x[x < 0.5]
    term, total = xs.copy(), np.zeros_like(xs)
    for k in range(1, 12):
        term *= -xs * xs / (2 * k * (2 * k + 1))
        total -= term * 2 * k / (2 * k + 1)
    out[x < 0.5] = total
    return out


def _moment_panels(tau_max):
    # edges of the coarse and fine grids of solve_propagator and of the
    # closed-form start of each (three panels, 0 .. 3h)
    n = max(16, math.ceil(propagator._POINTS_PER_UNIT_PHASE * OSC.omega0 * tau_max))
    for nodes in (n, 2 * n):
        h = tau_max / nodes
        yield h * np.arange(nodes + 1)
        yield h * np.arange(4.0)


@pytest.mark.parametrize("tau_max", [0.5, 2.9, 7.5])
@pytest.mark.parametrize("lam", [0.4, 0.1, 0.05])
def test_hard_first_moment_matches_the_sine_integral(lam, tau_max):
    # row 1 = -K * panel difference of Si(x) - sin x, x = cutoff u / lam**2.
    # Near x = 0 row 1 is ~K w x**2 / 3 on a panel w wide, while the
    # difference of sin x at its edges costs a few ulps of sin x: on the
    # start's three panels at lam 0.4 (x < 0.23) that is up to 7.5e-14 of
    # max|row 1|
    k0 = OSC.mass * OSC.omega0 * HARD_DEFAULT.eta * lam**2 / (2.0 * math.pi)
    for edges in _moment_panels(tau_max):
        x = HARD_DEFAULT.cutoff / lam**2 * edges
        got = _raw_moments(edges, HARD_DEFAULT, OSC, lam)[1]
        want = -k0 * np.diff(_si_minus_sin(x))
        assert np.max(np.abs(got - want)) <= 2e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("tau_max", [0.5, 2.9, 7.5])
@pytest.mark.parametrize("lam", [0.4, 0.1, 0.05])
def test_sine_integral_rules_are_converged(lam, tau_max, monkeypatch):
    # the rule each panel width picks, against 32 nodes on every panel
    x_all = [HARD_DEFAULT.cutoff / lam**2 * edges for edges in _moment_panels(tau_max)]
    got = [_sine_integral_panels(x) for x in x_all]
    monkeypatch.setattr(propagator, "_SI_RULES", ((32, 15.0),))
    for x, g in zip(x_all, got):
        assert np.max(np.abs(g - _sine_integral_panels(x))) <= 1e-15 * np.max(np.abs(g))


def test_sine_integral_splits_panels_beyond_the_widest_rule():
    # cutoff/lam**2 = 1.6e5: each of these panels spans ~390 rad, where one
    # 16-node rule would be meaningless; they are split into 27 parts
    x = 1.6e5 / propagator._POINTS_PER_UNIT_PHASE * np.arange(17)
    want = np.diff(sici(x)[0])
    assert np.max(np.abs(_sine_integral_panels(x) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("lam", [0.05, 0.02])
def test_sine_integral_refuses_beyond_its_point_budget(lam, monkeypatch):
    # the first grid at tau_max 2.9: 1188 panels 4.9 and 30.5 rad wide, 16
    # nodes on each part of a panel split at 15 rad.  The budget is checked
    # before any node is laid; a pass of exactly the budget runs.
    n = 1188
    edges = 2.9 / n * np.arange(n + 1)
    points = 16 * math.ceil(HARD_DEFAULT.cutoff / lam**2 * 2.9 / n / 15.0) * n
    calls = []
    monkeypatch.setattr(propagator, "_sine_integral_panels",
                        lambda x: calls.append(1) or _sine_integral_panels(x))
    monkeypatch.setattr(propagator, "_MAX_SI_POINTS", points - 1)
    message = (rf"^lam={lam:g} is too small for the hard cutoff=5: its sine integral up to "
               rf"tau=2\.9 needs {re.escape(f'{points:.3e}')} quadrature points, beyond the budget "
               rf"_MAX_SI_POINTS={points - 1}$")
    with pytest.raises(ValidationError, match=message):
        _raw_moments(edges, HARD_DEFAULT, OSC, lam)
    with pytest.raises(ValidationError, match=message):
        solve_propagator(HARD_DEFAULT, OSC, lam, 2.9)
    assert calls == []
    monkeypatch.setattr(propagator, "_MAX_SI_POINTS", points)
    assert np.all(np.isfinite(_raw_moments(edges, HARD_DEFAULT, OSC, lam)))
    assert calls == [1]


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
    stacked = np.stack([b, rng.normal(size=nb)])  # one transform of a for both rows
    for m in (1, min(na, nb), na + nb - 1):
        assert np.array_equal(_convolve(a, b, m), fftconvolve(a, b)[:m])
        rows = _convolve(a, stacked, m)
        assert rows.shape == (2, m)
        for got, row in zip(rows, stacked):
            assert np.array_equal(got, fftconvolve(a, row)[:m])


def test_fast_len_is_scipys_real_fft_length():
    n_all = list(range(1, 20001)) + np.random.default_rng(5).integers(1, 1 << 22, 2000).tolist()
    bad = [n for n in n_all if propagator._fast_len(n) != scipy.fft.next_fast_len(n, real=True)]
    assert bad == []


@pytest.mark.parametrize("bath, tols", [
    (EXP, (1e-12, 1e-12, 1e-12)),
    (HARD, (1e-12, 1e-10, 1e-8)),  # the ripple at cutoff/lam**2 is barely resolved
])
@pytest.mark.parametrize("lam", [0.4, 0.1])
def test_hermite_access_matches_the_cubic_spline(bath, tols, lam):
    # G, G' and G'' are Hermite cubics on the stored next derivative, the
    # not-a-knot CubicSpline of each array the oracle; from tau = 0.1 on,
    # past the boundary layer of width lam**2/cutoff that neither
    # interpolant resolves in G''.  G''' follows the same rule on the
    # stored G'''', so it is SciPy's Hermite spline of the two to the bit.
    pf = solve_propagator(bath, OSC, lam, 2.5)
    t = np.linspace(0.1, 2.5, 2001)
    pairs = [(pf.G, pf.g), (pf.G_dot, pf.g_dot), (pf.G_ddot, pf.g_ddot)]
    for (arr, access), tol in zip(pairs, tols):
        want = CubicSpline(pf.tau_grid, arr)(t)
        assert np.max(np.abs(access(t) - want)) <= tol * np.max(np.abs(want))
    want = CubicHermiteSpline(pf.tau_grid, pf.G_dddot, pf.G_ddddot)(t)
    assert np.array_equal(pf.g_dddot(t), want)


def test_stored_fourth_derivative_carries_g_dddot_between_the_nodes():
    # hard cutoff at lam 0.05: ~5 nodes per period of the cutoff/lam**2
    # ripple.  At the midpoints of the returned grid g_dddot is held to
    # nodes of a 4x finer solve, from tau = 0.2 on, past the start where
    # mu, decaying as 1/tau**2, still swings G''' across a few nodes.
    bath = BathSpectrum(0.2, 5.0, "hard", 5.0)
    pf = solve_propagator(bath, OSC, 0.05, 2.9)
    n = pf.tau_grid.size - 1
    fine = _finish(*_volterra_solve(bath, OSC, 0.05, 2.9, 4 * n), 0.05, bath, OSC)
    mid = 0.5 * (pf.tau_grid[:-1] + pf.tau_grid[1:])
    assert np.max(np.abs(fine.tau_grid[2::4] - mid)) < 1e-14
    keep = mid >= 0.2
    err = np.abs(pf.g_dddot(mid[keep]) - fine.G_dddot[2::4][keep])
    assert np.max(err) < 1e-4 * np.max(np.abs(fine.G_dddot))


def test_access_refuses_a_time_outside_the_grid_by_name():
    pf = solve_propagator(EXP, OSC, 0.4, 1.0)
    for access in (pf.g, pf.g_dot, pf.g_ddot, pf.g_dddot):
        for bad in (-0.1, 1.01 * pf.tau_max, math.nan):
            with pytest.raises(ValidationError, match=r"^tau must lie in the solved window "
                               r"\[0, 1\]; entry 0 is "):
                access(bad)
        with pytest.raises(ValidationError, match=r"entry 2 is nan$"):
            access([0.2, 0.5, math.nan, 2.0])
        assert np.all(np.isfinite(access([0.0, pf.tau_max])))


def test_third_derivative_matches_the_lag_sum():
    lam, tau_max = 0.4, 1.5
    pf = solve_propagator(EXP, OSC, lam, tau_max)
    n = pf.tau_grid.size - 1
    h = tau_max / n
    wg, wd, gamma, delta = _lag_weights(n, h, EXP, lam)

    def lag_sum(a, ad):
        # reference form: the product-integration memory sum node by node
        out = np.zeros(n + 1)
        for j in range(1, n + 1):
            out[j] = (gamma[j - 1] * a[0] + h * delta[j - 1] * ad[0]
                      + np.dot(wg[:j], a[j:0:-1]) + np.dot(wd[:j], ad[j:0:-1]))
        return out

    w0sq, two_over_m = OSC.omega0**2, 2.0 / OSC.mass
    want = -w0sq * pf.G_dot - two_over_m * lag_sum(pf.G_dot, pf.G_ddot)
    assert np.max(np.abs(pf.G_dddot - want)) < 1e-12 * np.max(np.abs(want))
    # G'''' takes the same sum on (G'', G''') plus mu(tau) G'(0) = mu(tau)
    mu = dissipation_kernel(pf.tau_grid, EXP, OSC, lam)
    want = -w0sq * pf.G_ddot - two_over_m * (mu + lag_sum(pf.G_ddot, pf.G_dddot))
    assert mu[0] == 0.0 and pf.G_ddddot[0] == 0.0
    assert np.max(np.abs(pf.G_ddddot - want)) < 1e-12 * np.max(np.abs(want))


def _loop_trapezoid_step(h, w0sq, two_over_m, wg0, wd0, g, gd, gdd, lagd):
    # one trapezoidal PECE step with four corrector sweeps from node m
    gs = g + h * gd + 0.5 * h * h * gdd
    gds = gd + h * gdd
    for _ in range(4):
        gdds = -w0sq * gs - two_over_m * (lagd + wg0 * gs + wd0 * gds)
        gds = gd + 0.5 * h * (gdd + gdds)
        gs = g + 0.5 * h * (gd + gds)
    return gs, gds, -w0sq * gs - two_over_m * (lagd + wg0 * gs + wd0 * gds)


def _loop_lag(weights, h, j, a, ad):
    # memory of node j over history nodes j-1 .. 1 plus the tau=0 boundary node
    wg, wd, gamma, delta = weights
    s = gamma[j - 1] * a[0] + h * delta[j - 1] * ad[0]
    if j > 1:
        s += np.dot(wg[1:j], a[j - 1 : 0 : -1])
        s += np.dot(wd[1:j], ad[j - 1 : 0 : -1])
    return s


def _loop_startup(h, bath, lam):
    # (G, G') at h, 2h, 3h by a second route, the oracle of the closed-form
    # start: trapezoidal PECE runs on 16x and 32x finer subgrids, stepped
    # node by node on each subgrid's Hermite lag weights, Richardson paired
    w0sq, two_over_m = OSC.omega0**2, 2.0 / OSC.mass

    def run(nsub):
        hf = 3.0 * h / nsub
        weights = _lag_weights(nsub, hf, bath, lam)
        wg, wd = weights[:2]
        g, gd, gdd = np.zeros(nsub + 1), np.zeros(nsub + 1), np.zeros(nsub + 1)
        gd[0] = 1.0
        for j in range(nsub):
            g[j + 1], gd[j + 1], gdd[j + 1] = _loop_trapezoid_step(
                hf, w0sq, two_over_m, wg[0], wd[0], g[j], gd[j], gdd[j],
                _loop_lag(weights, hf, j + 1, g, gd))
        return g, gd

    g16, gd16 = run(48)
    g32, gd32 = run(96)
    i16, i32 = np.array([16, 32, 48]), np.array([32, 64, 96])
    return (4.0 * g32[i32] - g16[i16]) / 3.0, (4.0 * gd32[i32] - gd16[i16]) / 3.0


@pytest.mark.parametrize("eta", [0.1, 0.2, 0.4, 0.6])  # w_R**2 down to 0.045
@pytest.mark.parametrize("shape", ["exponential", "hard"])
def test_closed_form_start_matches_the_pece_start(shape, eta):
    # the first Picard iterate against the node-by-node PECE start at the
    # step of a first grid and at half of it, the step of the returned grid
    # (largest differences seen 1.5e-10 and 1.2e-11), and against a 256x
    # finer solve at the first step (2.4e-11 in G, 1.2e-10 in G')
    bath = BathSpectrum(eta, 5.0, shape, 5.0)
    w0sq, two_over_m = OSC.omega0**2, 2.0 / OSC.mass
    for lam in (1.0, 0.4, 0.2, 0.1, 0.05, 0.02):
        for h, tol in ((1.0 / 409.6, 2e-10), (0.5 / 409.6, 2e-11)):
            got = _startup_nodes(h, w0sq, two_over_m, bath, OSC, lam)
            for g, w in zip(got, _loop_startup(h, bath, lam)):
                assert np.max(np.abs(g / w - 1.0)) <= tol
        h = 1.0 / 409.6
        got = _startup_nodes(h, w0sq, two_over_m, bath, OSC, lam)
        fine = _volterra_solve(bath, OSC, lam, 3.0 * h, 768)
        for g, w, tol in zip(got, fine[1:3], (4e-11, 2e-10)):
            assert np.max(np.abs(g / w[256::256] - 1.0)) <= tol


def test_closed_form_start_is_the_free_oscillator_to_round_off():
    for w0 in (1.0, 2.5):
        osc = OscillatorParams(1.0, w0)
        h = 1.0 / (409.6 * w0)
        g, gd = _startup_nodes(h, w0 * w0, 2.0, FREE, osc, 0.4)
        tau = h * np.arange(1, 4)
        assert np.max(np.abs(w0 * g / np.sin(w0 * tau) - 1.0)) <= 5e-16
        assert np.max(np.abs(gd - np.cos(w0 * tau))) <= 5e-16


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
    weights = _lag_weights(n, h, bath, lam)
    wg, wd = weights[:2]
    G, Gd, Gdd, Gddd = (np.zeros(n + 1) for _ in range(4))
    Gd[0] = 1.0
    G[1:4], Gd[1:4] = _startup_nodes(h, w0sq, two_over_m, bath, OSC, lam)
    for i in (1, 2, 3):
        mem = _loop_lag(weights, h, i, G, Gd) + wg[0] * G[i] + wd[0] * Gd[i]
        Gdd[i] = -w0sq * G[i] - two_over_m * mem
    for m in range(3, n):
        back = slice(m, m - 4 if m > 3 else None, -1)
        G[m + 1], Gd[m + 1], Gdd[m + 1] = _loop_step(
            h, w0sq, two_over_m, wg[0], wd[0], G[back], Gd[back], Gdd[back],
            _loop_lag(weights, h, m + 1, G, Gd))
    Gddd[0] = -w0sq * Gd[0]
    for j in range(1, n + 1):
        mem = _loop_lag(weights, h, j, Gd, Gdd) + wg[0] * Gd[j] + wd[0] * Gdd[j]
        Gddd[j] = -w0sq * Gd[j] - two_over_m * mem
    return G, Gd, Gdd, Gddd


@pytest.mark.parametrize("n, tau_max", [(16, 1.0), (17, 1.0), (1000, 2.5), (8192, 20.0)])
@pytest.mark.parametrize("lam", [0.4, 0.1])
@pytest.mark.parametrize("bath", [EXP, HARD, FREE], ids=["exp", "hard", "free"])
def test_series_solve_matches_the_node_loop(bath, lam, n, tau_max):
    pf = _finish(*_volterra_solve(bath, OSC, lam, tau_max, n), lam, bath, OSC)
    want = _loop_solve(bath, lam, tau_max, n)
    assert pf.tau_grid.size == n + 1
    for g, w in zip((pf.G, pf.G_dot, pf.G_ddot, pf.G_dddot), want):
        assert np.max(np.abs(g - w)) <= 1e-11 * np.max(np.abs(w))


def test_step_map_reproduces_one_loop_step():
    rng = np.random.default_rng(11)
    h, lam = 0.01, 0.4
    w0sq, two_over_m = OSC.omega0**2, 2.0 / OSC.mass
    wg, wd, _, _ = _lag_weights(64, h, EXP, lam)
    K, v = _step_map(_adams_step(h, w0sq, two_over_m, wg[0], wd[0]), 4)
    assert K.shape == (4, 3, 3) and v.shape == (3,)
    for _ in range(5):
        hist = rng.standard_normal((3, 4))  # rows G, G', G''; column k: node m - k
        base = rng.standard_normal()
        want = np.array(_loop_step(h, w0sq, two_over_m, wg[0], wd[0], *hist, base))
        got = sum(K[k] @ hist[:, k] for k in range(4)) + v * base
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_one_solve_evaluates_the_kernel_once(monkeypatch):
    # G''' and G'''' are formed on the certified grid alone, so mu is taken
    # at its nodes once, however many grids the halving solved
    solves, kernels = [], []
    volterra, kernel = propagator._volterra_solve, propagator.dissipation_kernel
    monkeypatch.setattr(propagator, "_volterra_solve",
                        lambda *args: solves.append(args[-1]) or volterra(*args))
    monkeypatch.setattr(propagator, "dissipation_kernel",
                        lambda tau, *args: kernels.append(tau.size) or kernel(tau, *args))
    pf = solve_propagator(EXP, OSC, 0.4, 1.0)
    assert len(solves) >= 2
    assert kernels == [pf.tau_grid.size - 1] == [solves[-1]]


@pytest.mark.parametrize("bath, tau_max", [
    (BathSpectrum(0.2, 5.0, temperature=5.0), 1e-299),  # h**3 underflows to 0
    (BathSpectrum(1e300, 5.0, temperature=5.0), 2.9),   # the memory sums overflow
])
def test_a_solve_that_is_not_finite_is_refused_at_once(bath, tau_max, monkeypatch):
    solves = []
    volterra = propagator._volterra_solve
    monkeypatch.setattr(propagator, "_volterra_solve",
                        lambda *args: solves.append(args[-1]) or volterra(*args))
    where = re.escape(f"lam=0.2, eta={bath.eta:g}, tau_max={tau_max:g}")
    pattern = (rf"^G at {where} on n=\d+ steps "
               r"must be finite; node \d+ is nan$")
    with pytest.raises(ValidationError, match=pattern):
        solve_propagator(bath, OSC, 0.2, tau_max)
    assert len(solves) == 1


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
    return tau, np.sin(tau), np.cos(tau), -np.sin(tau), -np.cos(tau), np.sin(tau)


def test_propagator_function_validates_and_freezes():
    tau, g, gd, gdd, gddd, gdddd = _valid_arrays()
    pf = PropagatorFunction(tau, g, gd, gdd, gddd, gdddd, 0.4, EXP, OSC)
    assert pf.tau_max == 1.0
    assert pf.max_abs_g == pytest.approx(np.sin(1.0))
    with pytest.raises(ValueError):
        pf.G[2] = 5.0  # stored arrays are read-only

    with pytest.raises(ValidationError):  # grid must start at zero
        PropagatorFunction(tau + 0.1, g, gd, gdd, gddd, gdddd, 0.4, EXP, OSC)
    with pytest.raises(ValidationError):  # G(0) must be exactly 0
        PropagatorFunction(tau, g + 1e-12, gd, gdd, gddd, gdddd, 0.4, EXP, OSC)
    with pytest.raises(ValidationError):  # G'(0) must be exactly 1
        PropagatorFunction(tau, g, 0.999 * gd, gdd, gddd, gdddd, 0.4, EXP, OSC)
    with pytest.raises(ValidationError):  # too few nodes
        PropagatorFunction(tau[:4], g[:4], gd[:4], gdd[:4], gddd[:4], gdddd[:4],
                           0.4, EXP, OSC)
    with pytest.raises(ValidationError):  # shape mismatch
        PropagatorFunction(tau, g[:-1], gd, gdd, gddd, gdddd, 0.4, EXP, OSC)
    with pytest.raises(ValidationError, match="^G_ddddot does not match the tau grid$"):
        PropagatorFunction(tau, g, gd, gdd, gddd, gdddd[:-1], 0.4, EXP, OSC)


_NODE_ARRAYS = ("G", "G_dot", "G_ddot", "G_dddot", "G_ddddot")


@pytest.mark.parametrize("name", _NODE_ARRAYS)
@pytest.mark.parametrize("node, value", [(0, np.nan), (3, np.inf), (5, -np.inf)])
def test_propagator_function_names_a_non_finite_node(name, node, value):
    # a NaN in G''' between window times would turn every Gamma_xp and D_xx
    # of exact_coefficients into NaN without an error
    tau, *arrays = _valid_arrays()
    arrays[_NODE_ARRAYS.index(name)][node] = value
    with pytest.raises(ValidationError, match=rf"^{name} must be finite; node {node} is {value}$"):
        PropagatorFunction(tau, *arrays, 0.4, EXP, OSC)


@pytest.mark.parametrize("node, value, message", [
    (0, 0.1, "must increase strictly from 0; node 0 is 0.1$"),
    (3, 0.2, "must increase strictly from 0; node 3 is 0.2 after 0.4$"),
    (4, np.nan, "must be finite; node 4 is nan$"),
])
def test_propagator_function_names_the_bad_grid_node(node, value, message):
    tau, *arrays = _valid_arrays()
    tau[node] = value
    with pytest.raises(ValidationError, match="^tau_grid " + message):
        PropagatorFunction(tau, *arrays, 0.4, EXP, OSC)


def test_laplace_route_grid_validation():
    with pytest.raises(ValidationError, match="from 0; node 0 is 0.5$"):
        propagator_via_laplace(EXP, OSC, 0.4, np.linspace(0.5, 2.0, 31))
    with pytest.raises(ValidationError, match="from 0; node 2 is 1.0 after 1.0$"):
        propagator_via_laplace(EXP, OSC, 0.4, np.array([0.0, 1.0, 1.0, 2.0, 3.0]))
    with pytest.raises(ValidationError, match="from 0; node 3 is 0.5 after 2.0$"):
        propagator_via_laplace(EXP, OSC, 0.4, np.array([0.0, 1.0, 2.0, 0.5, 3.0]))
    with pytest.raises(ValidationError, match="beyond supported range: .*1500.0 > 1000$"):
        propagator_via_laplace(EXP, OSC, 0.4, np.linspace(0.0, 1500.0, 101))
    with pytest.raises(ValidationError, match=r"range: last node 1001\.0 > 1000$"):
        propagator_via_laplace(EXP, OSC, 0.4, np.linspace(0.0, 1001.0, 101))
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
