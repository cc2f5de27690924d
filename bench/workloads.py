"""Seeded case lists for the three benchmark workloads, with their runners and checks.

Every draw comes from ``numpy.random.default_rng(seed)``; ``opendecay``
sees only the generated parameters.  Continuous parameters are drawn
stratified (one uniform draw per equal-width bin, bins shuffled), so a
case list covers each range the same way whatever the seed and the
work per pass moves little between seeds.

Package functions are always called through their module
(``scenarios.run_scenario``, not a name imported here), so the tracer's
rebinding of module attributes reaches the benchmark's own calls too.

A runner returns the case's output; a check raises ``CheckFailed`` when
the output breaks route agreement or an invariant; a fingerprint
reduces the output to a few named vectors, each with the tolerance its
computation certifies, for comparison with the stored reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from opendecay import bloch, model, scenarios
from opendecay.model import BathSpectrum, GaussianState, OscillatorParams
from opendecay.qbm import coefficients, fock, moments, propagator

WORKLOADS = ("spin", "qbm_window", "qbm_routes")
DEFAULT_SEED = 0

OSC = OscillatorParams(mass=1.0, omega0=1.0)
# bath of the exact-coefficient scenarios and acceptance criteria 7-9
BATH = dict(eta=0.2, cutoff=5.0, temperature=5.0)
# route tolerances of acceptance criteria 6, 7 and 10
BRIDGE_FACTOR = 100.0
PROPAGATOR_ROUTE_TOL = 1e-6
GAUSSIAN_ROUTE_TOL = 1e-4
# relative accuracy the Volterra solve certifies on G by grid halving
G_REL_TOL = 1e-7


class CheckFailed(Exception):
    """An output broke route agreement, an invariant or the reference."""


@dataclass(frozen=True)
class Kind:
    run: Callable[[dict], object]
    check: Callable[[dict, object], None]
    fingerprint: Callable[[dict, object], dict]


@dataclass(frozen=True)
class Case:
    id: str
    kind: str
    params: dict
    props: dict = field(default_factory=dict)


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def strata(rng, k, lo, hi, log=False):
    """k draws, one per equal bin of [lo, hi] (of log-space when ``log``), shuffled."""
    u = (np.arange(k) + rng.random(k)) / k
    rng.shuffle(u)
    if log:
        return lo * (hi / lo) ** u
    return lo + (hi - lo) * u


def int_strata(rng, k, lo, hi):
    return [int(round(v)) for v in strata(rng, k, lo, hi)]


def sub(values, n=12):
    """At most n evenly spaced entries, as plain floats."""
    values = np.asarray(values, dtype=float).ravel()
    idx = np.unique(np.linspace(0, values.size - 1, min(n, values.size)).round().astype(int))
    return [float(v) for v in values[idx]]


# ----------------------------------------------------------------------
# spin: driven-spin scenarios on the CLI path (parse -> run -> emit)


def _cli(name, params):
    overrides = [
        (k, "%.17g" % v if isinstance(v, float) else str(v)) for k, v in params.items()
    ]
    cfg = scenarios.parse_config(name, None, overrides)
    table = scenarios.run_scenario(name, cfg)
    return table, table.emit("csv")


def _cli_runner(name):
    return lambda params: _cli(name, params)


def _check_roundtrip(output):
    table, text = output
    back = scenarios.parse_csv(text)
    require(back.scenario == table.scenario, "scenario name lost in CSV round trip")
    for key, col in table.columns.items():
        require(list(back.columns[key]) == list(col),
                f"column {key} does not round-trip through CSV")


def _col(table, name):
    return np.asarray(table.columns[name], dtype=float)


def _check_spin_bloch(p, output):
    _check_roundtrip(output)
    table = output[0]
    tau = _col(table, "tau")
    traj = np.stack([
        _col(table, f"d_{n}_re") + 1j * _col(table, f"d_{n}_im")
        for n in ("plus", "zero", "minus")
    ], axis=1)
    gen = bloch.rapid_generator(model.make_spin_params(p["epsilon"], p["delta"]),
                                p["gamma_theta"])
    idx = np.unique(np.linspace(0, tau.size - 1, 8).round().astype(int))
    c0 = np.array([p["init_plus"], p["init_zero"], p["init_minus"]], dtype=complex)
    ref = bloch.propagate_bloch(gen, c0, tau[idx], method="expm")
    dev = float(np.max(np.abs(traj[idx] - ref)))
    require(dev <= BRIDGE_FACTOR * p["rtol"],
            f"adaptive and expm routes differ by {dev:.3e}")


def _check_spin_master(p, output):
    _check_roundtrip(output)
    t = output[0]
    ee, gg = _col(t, "rho_ee"), _col(t, "rho_gg")
    c2 = _col(t, "coh_re") ** 2 + _col(t, "coh_im") ** 2
    tol = BRIDGE_FACTOR * p["tol"]
    require(np.max(np.abs(ee + gg - 1.0)) <= tol, "trace departs from 1")
    # purity is formed from the full matrix; it equals ee^2 + gg^2 + 2|c|^2
    # only when the lower coherence is the conjugate of the upper one
    herm = np.max(np.abs(_col(t, "purity") - (ee**2 + gg**2 + 2.0 * c2)))
    require(herm <= tol, f"state is not Hermitian (purity defect {herm:.3e})")
    require(np.min(ee * gg - c2) >= -tol, "state is not positive")


def _check_bridge(p, output):
    _check_roundtrip(output)
    dev = np.asarray(output[0].columns["deviation"], dtype=float)
    require(dev.size == p["n_states"], "wrong number of bridge states")
    require(np.max(dev) <= BRIDGE_FACTOR * p["rtol"],
            f"bridge deviation {np.max(dev):.3e} above 100*rtol")


def _check_decay_scan(p, output):
    _check_roundtrip(output)
    t = output[0]
    g = _col(t, "gamma_theta")
    re = sum(_col(t, f"eig{i}_re") for i in (1, 2, 3))
    require(np.max(np.abs(re + 2.0 * g)) <= 1e-9 * max(1.0, float(np.max(g))),
            "eigenvalue real parts do not sum to -2 gamma_theta")
    im = np.stack([_col(t, f"eig{i}_im") for i in (1, 2, 3)])
    osc = (np.sum(np.abs(im) > 1e-10 * g, axis=0) >= 2).astype(int)
    require(list(osc) == list(t.columns["oscillating"]), "classification flags inconsistent")
    if "flip_gamma" in t.metadata:
        flip = float(t.metadata["flip_gamma"])
        require(p["gamma_min"] <= flip <= p["gamma_max"], "flip outside the scan")


def _check_weak(p, output):
    _check_roundtrip(output)
    t = output[0]
    rapid, weak = _col(t, "gamma_rapid"), _col(t, "gamma_weak")
    require(np.all(np.isfinite(weak)) and np.all(weak > 0.0), "weak rate not positive")
    require(np.allclose(rapid, 2.0 * p["eta"] * _col(t, "temperature"), rtol=1e-15, atol=0),
            "rapid rate is not 2 eta T")


def _fp_columns(names, tol, floor=1.0):
    def fingerprint(p, output):
        table = output[0]
        return {n: (sub(table.columns[n]), tol(p), floor) for n in names}
    return fingerprint


SPIN_KINDS = {
    "spin_bloch": Kind(
        _cli_runner("spin_bloch"), _check_spin_bloch,
        _fp_columns([f"d_{n}_{c}" for n in ("plus", "zero", "minus") for c in ("re", "im")],
                    lambda p: BRIDGE_FACTOR * p["rtol"]),
    ),
    "spin_master": Kind(
        _cli_runner("spin_master"), _check_spin_master,
        _fp_columns(["rho_ee", "coh_re", "coh_im", "purity"], lambda p: BRIDGE_FACTOR * p["tol"]),
    ),
    "bridge_check": Kind(
        _cli_runner("bridge_check"), _check_bridge,
        # deviations are round-off sized; only the bridge bound itself is certified
        _fp_columns(["deviation"], lambda p: BRIDGE_FACTOR * p["rtol"], floor=1.0),
    ),
    "decay_scan": Kind(
        _cli_runner("decay_scan"), _check_decay_scan,
        lambda p, out: {
            **{n: (sub(out[0].columns[n]), 1e-9, max(1.0, p["gamma_max"]))
               for n in ("eig1_re", "eig1_im", "eig2_re", "eig2_im", "eig3_re", "eig3_im")},
            "oscillating": (list(map(float, out[0].columns["oscillating"])), 0.0, 1.0),
            "flip_gamma": ([float(out[0].metadata.get("flip_gamma", -1.0))],
                           2e-9, p["gamma_max"] - p["gamma_min"]),
        },
    ),
    "weak_compare": Kind(
        _cli_runner("weak_compare"), _check_weak,
        _fp_columns(["gamma_weak"], lambda p: 1e-8, floor=0.0),
    ),
}


def _angle_split(rng, omega0, zero_bias):
    if zero_bias:
        return 0.0, float(omega0)
    phi = rng.uniform(0.15, 0.5 * math.pi)
    return float(omega0 * math.cos(phi)), float(omega0 * math.sin(phi))


def _spin_family(rng, n_regular, n_flip, omega_range, phases):
    """Regular cases stratified in gamma_theta/omega0 over [0.05, 10]; near-flip
    cases at zero bias with gamma_theta within 1% of 2 omega0.

    tau_max spans about ``phases`` radians of the free precession whatever
    omega0 is, so the stepper's work per case does not swing with the seed.
    """
    n = n_regular + n_flip
    omegas = strata(rng, n, *omega_range)
    ratios = list(strata(rng, n_regular, 0.05, 10.0, log=True))
    ratios += list(2.0 * (1.0 + strata(rng, n_flip, -0.01, 0.01)))
    out = []
    for i in range(n):
        flip = i >= n_regular
        eps, delta = _angle_split(rng, omegas[i], flip)
        tau_max = phases * rng.uniform(0.95, 1.05) / omegas[i]
        out.append((dict(epsilon=eps, delta=delta, gamma_theta=float(ratios[i] * omegas[i]),
                         tau_max=float(tau_max)),
                    dict(near_flip=flip, gamma_over_omega0=float(ratios[i]))))
    return out


def build_spin(rng):
    cases = []
    for p, props in _spin_family(rng, 12, 4, (0.8, 2.0), 16.0):
        c = rng.normal(size=3)
        c /= np.linalg.norm(c)
        p.update(tau_points=int(rng.integers(181, 222)), init_plus=float(c[0]),
                 init_zero=float(c[1]), init_minus=float(c[2]), rtol=1e-10)
        cases.append(("spin_bloch", p, props))
    for p, props in _spin_family(rng, 12, 4, (0.8, 2.0), 16.0):
        ee = float(rng.uniform(0.0, 1.0))
        r = 0.95 * math.sqrt(ee * (1.0 - ee)) * math.sqrt(rng.uniform())
        ph = rng.uniform(0.0, 2.0 * math.pi)
        p.update(tau_points=int(rng.integers(361, 442)), rho_ee=ee,
                 coh_re=float(r * math.cos(ph)), coh_im=float(r * math.sin(ph)), tol=1e-10)
        cases.append(("spin_master", p, props))
    for p, props in _spin_family(rng, 6, 2, (2.5, 4.5), 35.0):
        p.update(tau_points=101, n_states=2, seed=int(rng.integers(0, 2**31)), rtol=1e-10)
        cases.append(("bridge_check", p, props))
    omegas = strata(rng, 8, 0.8, 3.0)
    lo = strata(rng, 6, 0.05, 1.0, log=True)
    hi = strata(rng, 6, 3.0, 10.0, log=True)
    points = int_strata(rng, 8, 40, 80)
    for i in range(8):
        flip = i >= 6
        eps, delta = _angle_split(rng, omegas[i], flip)
        if flip:
            g_lo, g_hi = 2.0 * omegas[i] * 0.99, 2.0 * omegas[i] * 1.01
        else:
            g_lo, g_hi = lo[i] * omegas[i], hi[i] * omegas[i]
        p = dict(epsilon=eps, delta=delta, gamma_min=float(g_lo), gamma_max=float(g_hi),
                 points=points[i])
        cases.append(("decay_scan", p, dict(near_flip=flip)))
    etas = strata(rng, 4, 0.02, 0.3)
    for i in range(4):
        p = dict(epsilon=float(rng.uniform(-2, 2)), delta=float(rng.uniform(0.3, 2.0)),
                 eta=float(etas[i]), cutoff=float(rng.uniform(3.0, 8.0)),
                 shape=("exponential", "hard")[i % 2], t_min=0.5,
                 t_max=float(rng.uniform(4.0, 10.0)), points=int(rng.integers(10, 26)))
        cases.append(("weak_compare", p, dict(near_flip=False)))
    return cases


# ----------------------------------------------------------------------
# qbm_window: exact-coefficient windows, sweeps, single-time entries


def _check_coeff_table(p, output):
    _check_roundtrip(output)
    t = output[0]
    for name, col in t.columns.items():
        require(np.all(np.isfinite(np.asarray(col, dtype=float))), f"{name} not finite")
    if "tau" in t.columns:
        want = np.linspace(p["tau_min"], p["tau_max"], p["tau_points"])
        require(np.array_equal(_col(t, "tau"), want), "window grid changed")


def _coeff_fingerprint(p, output):
    t = output[0]
    if t.scenario == "qbm_sweep":
        return {n: (sub(t.columns[n]), 1e-3, 0.5) for n in ("dev_D_xx", "dev_D_xp", "dev_Gamma_xp")}
    out = {n: (sub(t.columns[n]), 1e-3, 0.0) for n in ("D_xx", "D_xp")}
    # frequency and friction depend on G alone (spline derivatives of a 1e-7 solve)
    out.update({n: (sub(t.columns[n]), 1e-5, 0.0) for n in ("omegaR_sq", "Gamma_xp")})
    return out


def _bath():
    return BathSpectrum(BATH["eta"], BATH["cutoff"], "exponential", BATH["temperature"])


def _check_initial_data(prop):
    require(prop.G[0] == 0.0 and prop.G_dot[0] == 1.0, "G(0)=0, G'(0)=1 violated")


def _run_single(p):
    prop = propagator.solve_propagator(_bath(), OSC, p["lam"], p["tau_end"])
    return prop, coefficients.lambda_theta(prop, p["tau"])


def _check_single(p, output):
    prop, lt = output
    _check_initial_data(prop)
    g = float(prop.g(p["tau"]))
    require(abs(lt.L_if + OSC.mass / g) <= 1e-12 * abs(lt.L_if), "L_if != -M/G")
    scale = max(abs(lt.T_ff), abs(lt.T_ii))
    require(lt.T_ff >= 0.0 and lt.T_ii >= 0.0
            and lt.T_ff * lt.T_ii - lt.T_fi**2 >= -1e-9 * scale**2,
            "decoherence matrix is not positive semidefinite")


def _fp_single(p, output):
    lt = output[1]
    return {
        "L": ([lt.L_ff, lt.L_fi, lt.L_if], 1e-5, 0.0),
        "T": ([lt.T_ff, lt.T_fi, lt.T_ii], 1e-3, 0.0),
    }


WINDOW_KINDS = {
    "qbm_exact": Kind(_cli_runner("qbm_exact"), _check_coeff_table, _coeff_fingerprint),
    "qbm_sweep": Kind(_cli_runner("qbm_sweep"), _check_coeff_table, _coeff_fingerprint),
    "lambda_theta": Kind(_run_single, _check_single, _fp_single),
}

POINT_LADDER = (5, 11, 23, 47, 101)  # window lengths, jittered down by up to 15%
LAMBDAS = (0.4, 0.2, 0.1)
# The solver's default grid: 4096 nodes per 10/omega0 of window, doubled
# on each refinement.  Used only to step around DEFECT_WINDOW below.
NODES_PER_UNIT_TAU = 409.6
# Known defect of the package at the benchmark's baseline: qbm_exact
# solves G up to the window end and then refuses the window's last point
# when the last grid node, (tau_max / n) * n, rounds one ulp below tau_max
# ("tau=0.86 outside the solved window (0, 0.86]").  About 7% of window
# ends hit it.  The timed cases move such an end up by ulps (see
# reachable_end); every qbm_window run also runs this input once, untimed,
# and reports whether it still fails.
DEFECT_WINDOW = dict(lam=0.4, shape="exponential", tau_min=0.5, tau_max=0.86, tau_points=5,
                     **BATH)


def reachable_end(t):
    """Smallest float >= t that the solver's last grid node does not round below."""
    n0 = max(16, math.ceil(NODES_PER_UNIT_TAU * t))
    while any((t / n) * n < t for n in (n0 * 2**j for j in range(6))):
        t = float(np.nextafter(t, np.inf))
    return t


def window(center, span):
    return float(center - 0.5 * span), reachable_end(float(center + 0.5 * span))


def defect_probe():
    """Run DEFECT_WINDOW once; returns the error text, or None once the defect is gone."""
    try:
        _cli("qbm_exact", DEFECT_WINDOW)
    except Exception as exc:  # noqa: BLE001 - reported, never fatal
        return f"{type(exc).__name__}: {exc}"
    return None


def build_qbm_window(rng):
    """Windows sit near tau = 1.2 with little spread in location: the per-point
    cost grows with tau, and the longest windows must not swing a pass's
    time from seed to seed."""
    cases = []
    n = len(LAMBDAS) * len(POINT_LADDER)
    centers = strata(rng, n, 1.0, 1.4)
    spans = strata(rng, n, 0.6, 1.2)
    i = 0
    for lam in LAMBDAS:
        for base in POINT_LADDER:
            pts = max(5, int(round(base * rng.uniform(0.85, 1.0))))
            t0, t1 = window(centers[i], spans[i])
            cases.append(("qbm_exact", dict(lam=lam, shape="exponential", tau_min=t0,
                                            tau_max=t1, tau_points=pts, **BATH),
                          dict(lam=[lam], window_points=pts, hard=False)))
            i += 1
    # hard cutoff: the noise kernel's per-node quadrature, ~0.25 s per case
    for c, span in zip(strata(rng, 5, 0.35, 0.45), strata(rng, 5, 0.1, 0.2)):
        t0, t1 = window(c, span)
        cases.append(("qbm_exact", dict(lam=0.4, shape="hard", tau_min=t0, tau_max=t1,
                                        tau_points=5, **BATH),
                      dict(lam=[0.4], window_points=5, hard=True)))
    centers = strata(rng, 3, 0.6, 0.8)
    spans = strata(rng, 3, 0.3, 0.5)
    for k, lams in enumerate([(0.4, 0.2), (0.4, 0.1), (0.4, 0.2, 0.1)]):
        lams = [float(x) for x in rng.permutation(lams)]
        pts = int(rng.integers(5, 8))
        t0, t1 = window(centers[k], spans[k])
        p = dict(lambda_list=",".join("%g" % x for x in lams), tau_min=t0, tau_max=t1,
                 tau_points=pts, **BATH)
        cases.append(("qbm_sweep", p, dict(lam=lams, window_points=pts, sweep=True)))
    for lam in LAMBDAS:
        for tau in strata(rng, 6, 0.3, 2.5):
            cases.append(("lambda_theta", dict(lam=lam, tau=float(tau), tau_end=float(tau) + 0.2),
                          dict(lam=[lam], window_points=1, single=True)))
    return cases


# ----------------------------------------------------------------------
# qbm_routes: two routes per case


def _run_propagator_pair(p):
    bath = BathSpectrum(BATH["eta"], BATH["cutoff"], "exponential", p["temperature"])
    pf = propagator.solve_propagator(bath, OSC, p["lam"], p["tau_max"])
    stride = max(1, pf.tau_grid.size // 512)
    pl = propagator.propagator_via_laplace(bath, OSC, p["lam"], pf.tau_grid[::stride])
    return pf, pl, stride


def _check_propagator_pair(p, output):
    pf, pl, stride = output
    _check_initial_data(pf)
    _check_initial_data(pl)
    dev = float(np.max(np.abs(pf.G[::stride] - pl.G)))
    require(dev <= PROPAGATOR_ROUTE_TOL, f"Volterra and Bromwich routes differ by {dev:.3e}")


def _fp_propagator_pair(p, output):
    pf, pl, stride = output
    tol = 10.0 * G_REL_TOL
    return {"G": (sub(pf.G), tol, 0.0), "G_laplace": (sub(pl.G), tol, 0.0),
            "nodes": ([float(pf.tau_grid.size)], 0.0, 1.0)}


def _run_gaussian_pair(p):
    bath = BathSpectrum(p["eta"], BATH["cutoff"], "exponential", p["temperature"])
    coeffs = coefficients.limit_coefficients(bath, OSC, [0.0])
    mw = OSC.mass * OSC.omega0
    state0 = GaussianState(p["x0"], p["p0"], 0.5 / mw, 0.5 * mw)
    tau = np.linspace(0.0, p["tau_end"], p["tau_points"])
    mom = moments.propagate_moments(coeffs, OSC, state0, tau, rtol=1e-10)
    rho0 = fock.coherent_density(OSC, p["x0"], p["p0"], p["n_max"])
    states = fock.truncated_basis_propagate(coeffs, OSC, rho0, tau, rtol=1e-10)
    return mom, fock.fock_moments(states, OSC), states


def _check_gaussian_pair(p, output):
    mom, mom_fock, states = output
    trace = np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)
    require(np.max(trace) <= 1e-8, "number-basis trace departs from 1")
    herm = np.max(np.abs(states - np.conj(np.swapaxes(states, 1, 2))))
    require(herm <= 1e-10, "number-basis state is not Hermitian")
    for i in range(mom.shape[1]):
        rel = np.max(np.abs(mom_fock[:, i] - mom[:, i])) / np.max(np.abs(mom[:, i]))
        require(rel <= GAUSSIAN_ROUTE_TOL, f"moment {i} routes differ by {rel:.3e} relative")


def _fp_gaussian_pair(p, output):
    mom, mom_fock, _ = output
    return {f"{name}": (sub(mom[:, i]), 1e-8, 0.0) for i, name in enumerate(moments.MOMENT_LABELS)}


ROUTE_KINDS = {
    "propagator_pair": Kind(_run_propagator_pair, _check_propagator_pair, _fp_propagator_pair),
    "gaussian_pair": Kind(_run_gaussian_pair, _check_gaussian_pair, _fp_gaussian_pair),
}


def build_qbm_routes(rng):
    cases = []
    # every lambda once, paired at random with one tau_max stratum each; the
    # strata cover [5, 20] narrowly, and the longest case sits near 20
    # because the Bromwich phase block of that case sets the peak memory
    lams = rng.permutation([0.4, 0.2, 0.1, 0.05])
    tau_maxes = [rng.uniform(lo, lo + 2.0) for lo in (5.0, 9.0, 13.0)] + [rng.uniform(19.0, 20.0)]
    temps = strata(rng, 4, 1.0, 5.0)
    for k in rng.permutation(4):
        p = dict(lam=float(lams[k]), tau_max=float(tau_maxes[k]), temperature=float(temps[k]))
        cases.append(("propagator_pair", p, dict(lam=[p["lam"]], tau_max=p["tau_max"])))
    n = 27
    n_max = int_strata(rng, n, 30, 40)
    temps = strata(rng, n, 1.0, 5.0)
    radius = strata(rng, n, 0.4, 1.0)
    mw = OSC.mass * OSC.omega0
    for k in range(n):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        alpha = radius[k] * complex(math.cos(angle), math.sin(angle))
        # over tau 0.8 the heating eta*T*tau stays below 0.4, so the
        # population at the basis edge stays below the truncation guard
        p = dict(eta=0.1, temperature=float(temps[k]), n_max=n_max[k], tau_end=0.8,
                 tau_points=17, x0=math.sqrt(2.0 / mw) * alpha.real,
                 p0=math.sqrt(2.0 * mw) * alpha.imag)
        cases.append(("gaussian_pair", p, dict(n_max=n_max[k])))
    return cases


# ----------------------------------------------------------------------

KINDS = {**SPIN_KINDS, **WINDOW_KINDS, **ROUTE_KINDS}
_CASE_LISTS = {"spin": build_spin, "qbm_window": build_qbm_window, "qbm_routes": build_qbm_routes}


def build(workload, seed):
    """The workload's case list for ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return [Case(f"{i:03d}-{kind}", kind, params, props)
            for i, (kind, params, props) in enumerate(_CASE_LISTS[workload](rng))]


def histogram(values, edges):
    counts, _ = np.histogram(values, bins=edges)
    return {f"[{lo:g},{hi:g})": int(c) for lo, hi, c in zip(edges, edges[1:], counts)}


def property_shares(cases):
    """Measured shares of the input properties a later gain may depend on."""
    n = len(cases)

    def share(key):
        return sum(1 for c in cases if c.props.get(key)) / n

    out = {
        "cases": n,
        "kinds": {k: sum(1 for c in cases if c.kind == k) for k in dict.fromkeys(c.kind for c in cases)},
        "near_flip_share": share("near_flip"),
        "hard_cutoff_share": share("hard"),
        "single_time_share": share("single"),
        "sweep_share": share("sweep"),
    }
    lams = [lam for c in cases for lam in c.props.get("lam", [])]
    if lams:
        out["lambda_histogram"] = {"%g" % v: lams.count(v) for v in sorted(set(lams), reverse=True)}
    points = [c.props["window_points"] for c in cases if "window_points" in c.props]
    if points:
        out["window_points_histogram"] = histogram(points, [1, 2, 9, 20, 40, 80, 102])
    taus = [c.props["tau_max"] for c in cases if "tau_max" in c.props]
    if taus:
        out["tau_max_histogram"] = histogram(taus, [5, 10, 15, 20.0001])
    return out


def compare(fingerprint, reference):
    """Names whose values moved beyond their certified tolerance."""
    bad = []
    for name, (values, tol, floor) in fingerprint.items():
        ref = reference.get(name)
        if ref is None or len(ref) != len(values):
            bad.append(f"{name}: shape differs from reference")
            continue
        ref = np.asarray(ref, dtype=float)
        allowed = tol * max(floor, float(np.max(np.abs(ref))))
        dev = float(np.max(np.abs(np.asarray(values, dtype=float) - ref)))
        if not dev <= allowed:
            bad.append(f"{name}: moved {dev:.3e} > {allowed:.3e}")
    return bad
