"""Named computations behind the command line, emitting plot-ready tables.

Each scenario has a key/value schema whose entries are
``(cast, default, bound)``; values come from defaults, then an optional
``key = value`` config file, then command-line overrides (last wins).
``parse_config`` casts each value and then checks it against its bound:
for a float one of ``_checked_finite``'s ``""``, ``"> 0"`` or ``">= 0"``
(so every float is at least finite), for an int its minimum, and
``None`` for a string or list.  A value that cannot be cast is a
ConfigError; one outside its bound is a ValidationError naming the key,
raised before any computation starts.  Results are returned as a
ResultTable and can be serialized to CSV (17-significant-digit floats,
'#'-prefixed metadata header) or JSON; both formats round-trip bit
exactly.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .bloch import (
    decay_spectrum,
    find_classification_boundary,
    propagate_bloch,
    rapid_generator,
    scan_decay_regimes,
)
from .errors import AccuracyError, ConfigError, ValidationError
from .lindblad import (
    bloch_density_bridge,
    propagate_density,
    random_density_matrix,
    spin_liouvillian,
)
from .model import (
    BathSpectrum,
    CouplingScale,
    GaussianState,
    OscillatorParams,
    _checked_finite,
    make_spin_params,
    validate_density,
)
from .qbm.coefficients import exact_coefficients, limit_coefficients
from .qbm.moments import MOMENT_LABELS, propagate_moments
from .qbm.propagator import solve_propagator
from .spectral import gamma_theta, gamma_theta_weak

__all__ = [
    "REQUIRED",
    "SCHEMAS",
    "ResultTable",
    "parse_config",
    "run_scenario",
    "parse_csv",
    "parse_json",
]

REQUIRED = object()


def _float_list(value) -> tuple:
    if isinstance(value, tuple):
        return value
    items = [s.strip() for s in str(value).split(",") if s.strip()]
    if not items:
        raise ConfigError("expected a comma-separated list of numbers")
    return tuple(float(s) for s in items)


SCHEMAS = {
    "spin_bloch": {
        "epsilon": (float, 1.0, ""),
        "delta": (float, 1.0, ""),
        "gamma_theta": (float, 0.5, ">= 0"),
        "tau_max": (float, 10.0, "> 0"),
        "tau_points": (int, 201, 1),
        "init_plus": (float, 0.0, ""),
        "init_zero": (float, 1.0, ""),
        "init_minus": (float, 0.0, ""),
        "rtol": (float, 1e-10, "> 0"),
    },
    "spin_master": {
        "epsilon": (float, 1.0, ""),
        "delta": (float, 1.0, ""),
        "gamma_theta": (float, 0.5, ">= 0"),
        "tau_max": (float, 10.0, "> 0"),
        "tau_points": (int, 400, 1),
        "rho_ee": (float, 1.0, ""),
        "coh_re": (float, 0.0, ""),
        "coh_im": (float, 0.0, ""),
        "tol": (float, 1e-10, "> 0"),
    },
    "weak_compare": {
        "epsilon": (float, 1.0, ""),
        "delta": (float, 1.0, ""),
        "eta": (float, 0.1, ">= 0"),
        "cutoff": (float, 5.0, "> 0"),
        "shape": (str, "exponential", None),
        "t_min": (float, 0.5, ">= 0"),
        "t_max": (float, 10.0, ">= 0"),
        "points": (int, 25, 1),
    },
    "decay_scan": {
        "epsilon": (float, 0.0, ""),
        "delta": (float, 1.0, ""),
        "gamma_min": (float, 0.2, "> 0"),
        "gamma_max": (float, 6.0, "> 0"),
        "points": (int, 60, 1),
    },
    "qbm_limit": {
        "eta": (float, 0.1, ">= 0"),
        "temperature": (float, 2.0, ">= 0"),
        "cutoff": (float, 5.0, "> 0"),
        "shape": (str, "exponential", None),
        "mass": (float, 1.0, "> 0"),
        "omega0": (float, 1.0, "> 0"),
        "x0": (float, 1.0, ""),
        "p0": (float, 0.0, ""),
        "tau_max": (float, 10.0, "> 0"),
        "tau_points": (int, 201, 1),
        "rtol": (float, 1e-10, "> 0"),
    },
    "qbm_exact": {
        "lam": (float, 0.2, "> 0"),
        "eta": (float, 0.2, ">= 0"),
        "temperature": (float, 5.0, ">= 0"),
        "cutoff": (float, 5.0, "> 0"),
        "shape": (str, "exponential", None),
        "mass": (float, 1.0, "> 0"),
        "omega0": (float, 1.0, "> 0"),
        "tau_min": (float, 0.9, "> 0"),
        "tau_max": (float, 2.9, "> 0"),
        "tau_points": (int, 41, 5),
        "rel_tol": (float, 1e-3, "> 0"),
    },
    "qbm_sweep": {
        "lambda_list": (_float_list, REQUIRED, None),
        "eta": (float, 0.2, ">= 0"),
        "temperature": (float, 5.0, ">= 0"),
        "cutoff": (float, 5.0, "> 0"),
        "shape": (str, "exponential", None),
        "mass": (float, 1.0, "> 0"),
        "omega0": (float, 1.0, "> 0"),
        "tau_min": (float, 0.9, "> 0"),
        "tau_max": (float, 2.9, "> 0"),
        "tau_points": (int, 41, 5),
        "rel_tol": (float, 1e-3, "> 0"),
    },
    "bridge_check": {
        "epsilon": (float, 3.0, ""),
        "delta": (float, 4.0, ""),
        "gamma_theta": (float, 1.0, ">= 0"),
        "tau_max": (float, 10.0, "> 0"),
        "tau_points": (int, 101, 1),
        "n_states": (int, 20, 1),
        "seed": (int, 7, 0),
        "rtol": (float, 1e-10, "> 0"),
    },
    "acceptance": {
        "criteria": (str, "", None),
    },
}


def parse_config(scenario: str, config_path=None, overrides=()):
    """Merge defaults, config file, and overrides into a typed, bound-checked dict."""
    if scenario not in SCHEMAS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; choose from {', '.join(sorted(SCHEMAS))}"
        )
    schema = SCHEMAS[scenario]
    raw = {}
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(
                    f"{config_path}:{lineno}: expected 'key = value', got {line!r}"
                )
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()
    for key, value in overrides:
        raw[key] = value

    cfg = {}
    for key, (cast, default, _) in schema.items():
        if key in raw:
            value = raw.pop(key)
            try:
                cfg[key] = cast(value)
            except ConfigError:
                raise
            except (TypeError, ValueError):
                raise ConfigError(
                    f"invalid value {value!r} for key '{key}' "
                    f"(expected {cast.__name__})"
                ) from None
        elif default is REQUIRED:
            raise ConfigError(f"scenario '{scenario}' requires a value for '{key}'")
        else:
            cfg[key] = default
    if raw:
        extra = ", ".join(sorted(raw))
        raise ConfigError(f"unknown key(s) for scenario '{scenario}': {extra}")
    # every key is read before any is checked, so text that cannot be read
    # into the schema is a ConfigError even beside a value out of bounds
    for key, (cast, _, bound) in schema.items():
        if cast is float:
            _checked_finite(key, cfg[key], bound)
        elif cast is int and cfg[key] < bound:
            raise ValidationError(f"{key} must be at least {bound}, got {cfg[key]}")
    return cfg


@dataclass
class ResultTable:
    """Columnar scenario output plus metadata; serializable both ways."""

    scenario: str
    columns: dict
    metadata: dict = field(default_factory=dict)

    def emit(self, fmt: str = "csv") -> str:
        if fmt == "csv":
            return self._emit_csv()
        if fmt == "json":
            return self._emit_json()
        raise ConfigError(f"unknown output format {fmt!r}")

    def _emit_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# scenario={self.scenario}\n")
        for key, value in self.metadata.items():
            buf.write(f"# {key}={_cell(value)}\n")
        names = list(self.columns)
        buf.write(",".join(names) + "\n")
        for row in zip(*(self.columns[n] for n in names)):
            buf.write(",".join(_cell(v) for v in row) + "\n")
        return buf.getvalue()

    def _emit_json(self) -> str:
        obj = {
            "scenario": self.scenario,
            "metadata": {k: _native(v) for k, v in self.metadata.items()},
            "columns": {k: [_native(v) for v in vs] for k, vs in self.columns.items()},
        }
        return json.dumps(obj, indent=2) + "\n"


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value).replace(",", ";").replace("\n", " ")


def _native(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return str(value)


def _parse_cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> ResultTable:
    """Inverse of CSV emission.

    Numeric column cells are type-inferred (17 significant digits make
    float cells round-trip exactly); metadata values stay strings.
    """
    scenario = ""
    metadata = {}
    header = None
    rows = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition("=")
            if key == "scenario" and not scenario:
                scenario = value
            else:
                metadata[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append([_parse_cell(c) for c in line.split(",")])
    if header is None:
        raise ConfigError("no header line found in CSV input")
    columns = {name: [r[i] for r in rows] for i, name in enumerate(header)}
    return ResultTable(scenario, columns, metadata)


def parse_json(text: str) -> ResultTable:
    obj = json.loads(text)
    return ResultTable(obj["scenario"], obj["columns"], obj["metadata"])


# ----------------------------------------------------------------------
# runners


def _spin_bath(cfg):
    return make_spin_params(cfg["epsilon"], cfg["delta"])


def _time_grid(cfg):
    """The output grid ``linspace(0, tau_max, tau_points)``."""
    return np.linspace(0.0, cfg["tau_max"], cfg["tau_points"])


def _scan_range(cfg, lo, hi, what):
    """``linspace(cfg[lo], cfg[hi], cfg["points"])``; ValidationError if reversed."""
    if cfg[hi] < cfg[lo]:
        raise ValidationError(
            f"{hi} = {cfg[hi]} is below {lo} = {cfg[lo]}: the {what} range is reversed"
        )
    return np.linspace(cfg[lo], cfg[hi], cfg["points"])


def _run_spin_bloch(cfg):
    spin = _spin_bath(cfg)
    gen = rapid_generator(spin, cfg["gamma_theta"])
    tau = _time_grid(cfg)
    c0 = np.array([cfg["init_plus"], cfg["init_zero"], cfg["init_minus"]], dtype=complex)
    traj = propagate_bloch(gen, c0, tau, rtol=cfg["rtol"])
    spec = decay_spectrum(gen)
    cols = {"tau": tau.tolist()}
    for i, name in enumerate(("d_plus", "d_zero", "d_minus")):
        cols[name + "_re"] = traj[:, i].real.tolist()
        cols[name + "_im"] = traj[:, i].imag.tolist()
    meta = {
        "classification": spec.classification,
        "eigenvalues": ";".join("%.17g%+.17gj" % (z.real, z.imag) for z in spec.eigenvalues),
    }
    return ResultTable("spin_bloch", cols, meta)


def _run_spin_master(cfg):
    spin = _spin_bath(cfg)
    liouv = spin_liouvillian(spin, cfg["gamma_theta"])
    tau = _time_grid(cfg)
    pe, coh = cfg["rho_ee"], cfg["coh_re"] + 1j * cfg["coh_im"]
    rho0 = np.array([[pe, coh], [np.conj(coh), 1.0 - pe]], dtype=complex)
    diag = validate_density(rho0)
    if not diag.ok:
        raise ValidationError(
            f"initial state is not a density matrix: rho_ee = {pe}, coh_re = {cfg['coh_re']} "
            f"and coh_im = {cfg['coh_im']} give min eigenvalue {diag.min_eigenvalue:.3e}"
        )
    states = propagate_density(liouv, rho0, tau, rtol=cfg["tol"])
    purity = np.einsum("tij,tji->t", states, states).real
    cols = {
        "tau": tau.tolist(),
        "rho_ee": states[:, 0, 0].real.tolist(),
        "rho_gg": states[:, 1, 1].real.tolist(),
        "coh_re": states[:, 0, 1].real.tolist(),
        "coh_im": states[:, 0, 1].imag.tolist(),
        "purity": purity.tolist(),
    }
    return ResultTable("spin_master", cols, {})


def _run_weak_compare(cfg):
    spin = _spin_bath(cfg)
    temps = _scan_range(cfg, "t_min", "t_max", "compared temperature")
    g_rapid, g_weak = [], []
    for t in temps:
        bath = BathSpectrum(cfg["eta"], cfg["cutoff"], cfg["shape"], float(t))
        g_rapid.append(gamma_theta(bath))
        g_weak.append(gamma_theta_weak(spin, bath))
    ratio = [r / w if w else float("nan") for r, w in zip(g_rapid, g_weak)]
    cols = {
        "temperature": temps.tolist(),
        "gamma_rapid": g_rapid,
        "gamma_weak": g_weak,
        "ratio": ratio,
    }
    return ResultTable("weak_compare", cols, {"omega0": spin.omega0})


def _run_decay_scan(cfg):
    spin = _spin_bath(cfg)
    gammas = _scan_range(cfg, "gamma_min", "gamma_max", "scanned gamma_theta")
    cols = {name: [] for name in (
        "gamma_theta",
        "eig1_re", "eig1_im", "eig2_re", "eig2_im", "eig3_re", "eig3_im",
        "oscillating",
    )}
    for g, spec in scan_decay_regimes(spin, gammas):
        cols["gamma_theta"].append(g)
        for i, z in enumerate(spec.eigenvalues, 1):
            cols[f"eig{i}_re"].append(z.real)
            cols[f"eig{i}_im"].append(z.imag)
        cols["oscillating"].append(
            int(spec.classification == "two_complex_one_real")
        )
    meta = {}
    if cols["oscillating"][0] != cols["oscillating"][-1]:
        try:
            meta["flip_gamma"] = find_classification_boundary(
                spin,
                cfg["gamma_min"],
                cfg["gamma_max"],
                tol=1e-9 * (cfg["gamma_max"] - cfg["gamma_min"]),
            )
        except AccuracyError:
            pass
    return ResultTable("decay_scan", cols, meta)


def _qbm_setup(cfg):
    bath = BathSpectrum(cfg["eta"], cfg["cutoff"], cfg["shape"], cfg["temperature"])
    osc = OscillatorParams(cfg["mass"], cfg["omega0"])
    return bath, osc


def _run_qbm_limit(cfg):
    bath, osc = _qbm_setup(cfg)
    coeffs = limit_coefficients(bath, osc, [0.0])
    mw = osc.mass * osc.omega0
    state0 = GaussianState(cfg["x0"], cfg["p0"], 0.5 / mw, 0.5 * mw)
    tau = _time_grid(cfg)
    traj = propagate_moments(coeffs, osc, state0, tau, rtol=cfg["rtol"])
    cols = {"tau": tau.tolist()}
    for i, name in enumerate(MOMENT_LABELS):
        cols[name] = traj[:, i].tolist()
    wr_sq = float(coeffs.omegaR_sq[0])
    energy = (
        0.5 * (traj[:, 4] + traj[:, 1] ** 2) / osc.mass
        + 0.5 * osc.mass * wr_sq * (traj[:, 2] + traj[:, 0] ** 2)
    )
    cols["energy"] = energy.tolist()
    meta = {
        "omegaR_sq": wr_sq,
        "heating_rate": float(coeffs.D_xx[0]) / osc.mass,
    }
    return ResultTable("qbm_limit", cols, meta)


def _coefficient_window(cfg):
    if cfg["tau_min"] >= cfg["tau_max"]:
        raise ValidationError(
            f"tau_min = {cfg['tau_min']} must be below tau_max = {cfg['tau_max']}"
        )
    return np.linspace(cfg["tau_min"], cfg["tau_max"], cfg["tau_points"])


def _run_qbm_exact(cfg):
    bath, osc = _qbm_setup(cfg)
    window = _coefficient_window(cfg)
    prop = solve_propagator(bath, osc, cfg["lam"], cfg["tau_max"])
    coeffs = exact_coefficients(prop, window, rel_tol=cfg["rel_tol"])
    limit = limit_coefficients(bath, osc, window[:1])
    cols = {
        "tau": coeffs.tau.tolist(),
        "omegaR_sq": coeffs.omegaR_sq.tolist(),
        "D_xx": coeffs.D_xx.tolist(),
        "D_xp": coeffs.D_xp.tolist(),
        "Gamma_xp": coeffs.Gamma_xp.tolist(),
    }
    meta = {
        "lam": cfg["lam"],
        "omegaR_sq_limit": float(limit.omegaR_sq[0]),
        "D_xx_limit": float(limit.D_xx[0]),
    }
    return ResultTable("qbm_exact", cols, meta)


def _run_qbm_sweep(cfg):
    lams = cfg["lambda_list"]
    for i, lam in enumerate(lams):
        # every entry before the first solve, so a bad one costs none
        try:
            CouplingScale(lam)
        except ValidationError as exc:
            raise ValidationError(f"lambda_list entry {i}: {exc}") from None
    bath, osc = _qbm_setup(cfg)
    window = _coefficient_window(cfg)
    limit = limit_coefficients(bath, osc, window[:1])
    d_xx_limit = float(limit.D_xx[0])

    def deviations(lam):
        prop = solve_propagator(bath, osc, lam, cfg["tau_max"])
        coeffs = exact_coefficients(prop, window, rel_tol=cfg["rel_tol"])
        return (
            float(np.max(np.abs(coeffs.D_xx - d_xx_limit))),
            float(np.max(np.abs(coeffs.D_xp))),
            float(np.max(np.abs(coeffs.Gamma_xp))),
        )

    rows = [deviations(lam) for lam in lams]
    cols = {
        "lam": list(lams),
        "dev_D_xx": [r[0] for r in rows],
        "dev_D_xp": [r[1] for r in rows],
        "dev_Gamma_xp": [r[2] for r in rows],
    }
    return ResultTable("qbm_sweep", cols, {"D_xx_limit": d_xx_limit})


def _run_bridge_check(cfg):
    spin = _spin_bath(cfg)
    rng = np.random.default_rng(cfg["seed"])
    tau = _time_grid(cfg)
    states = np.stack([random_density_matrix(rng) for _ in range(cfg["n_states"])])
    devs = bloch_density_bridge(spin, cfg["gamma_theta"], states, tau,
                                rtol=cfg["rtol"]).tolist()
    cols = {"state_index": list(range(cfg["n_states"])), "deviation": devs}
    return ResultTable("bridge_check", cols, {"max_deviation": max(devs)})


def _run_acceptance(cfg):
    from .acceptance import run_all

    indices = None
    if cfg["criteria"].strip():
        try:
            indices = tuple(int(s) for s in cfg["criteria"].split(","))
        except ValueError:
            raise ConfigError(
                f"criteria must be a comma-separated list of integers, got "
                f"{cfg['criteria']!r}"
            ) from None
    try:
        results = run_all(indices)
    except ValueError as exc:  # a number that names no criterion
        raise ValidationError(f"criteria: {exc}") from None
    cols = {
        "criterion": [r.index for r in results],
        "name": [r.name for r in results],
        "passed": [int(r.passed) for r in results],
        "elapsed_s": [r.elapsed for r in results],
        "detail": [r.detail for r in results],
    }
    meta = {"all_passed": all(r.passed for r in results)}
    return ResultTable("acceptance", cols, meta)


_RUNNERS = {
    "spin_bloch": _run_spin_bloch,
    "spin_master": _run_spin_master,
    "weak_compare": _run_weak_compare,
    "decay_scan": _run_decay_scan,
    "qbm_limit": _run_qbm_limit,
    "qbm_exact": _run_qbm_exact,
    "qbm_sweep": _run_qbm_sweep,
    "bridge_check": _run_bridge_check,
    "acceptance": _run_acceptance,
}


def run_scenario(scenario: str, cfg: dict) -> ResultTable:
    """Dispatch to a scenario runner and stamp common metadata."""
    from . import __version__

    if scenario not in _RUNNERS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    start = time.perf_counter()
    table = _RUNNERS[scenario](cfg)
    elapsed = time.perf_counter() - start
    meta = {"version": __version__}
    for key, value in cfg.items():
        meta[f"cfg_{key}"] = (
            ",".join("%.17g" % v for v in value)
            if isinstance(value, tuple)
            else value
        )
    meta.update(table.metadata)
    meta["elapsed_s"] = f"{elapsed:.3f}"
    table.metadata = meta
    return table
