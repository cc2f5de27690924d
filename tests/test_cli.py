"""Scenario configuration, table round trips, CLI exit codes."""

import contextlib
import io
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import opendecay.acceptance
import opendecay.qbm.propagator
import opendecay.scenarios
from opendecay.acceptance import CriterionResult
from opendecay.cli import main
from opendecay.errors import ConfigError, ValidationError
from opendecay.scenarios import (
    REQUIRED,
    SCHEMAS,
    parse_config,
    parse_csv,
    parse_json,
    run_scenario,
)


# ------------------------------------------------------------ configuration


def test_defaults_fill_in():
    cfg = parse_config("spin_bloch")
    assert cfg["epsilon"] == 1.0
    assert cfg["tau_points"] == 201
    assert isinstance(cfg["tau_points"], int)


def test_config_file_then_overrides_win(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "epsilon = 2.5\n"
        "tau_points = 11\n"
    )
    cfg = parse_config("spin_bloch", str(path), [("epsilon", "3.5")])
    assert cfg["epsilon"] == 3.5  # command line beats the file
    assert cfg["tau_points"] == 11  # file beats the default
    assert cfg["delta"] == 1.0


@pytest.mark.parametrize("overrides", [
    [("no_such_key", "1")],
    [("epsilon", "abc")],
    [("tau_points", "2.5")],
])
def test_bad_overrides_raise_config_error(overrides):
    with pytest.raises(ConfigError):
        parse_config("spin_bloch", None, overrides)


def test_missing_required_key():
    with pytest.raises(ConfigError, match="lambda_list"):
        parse_config("qbm_sweep")


def test_float_list_parsing():
    cfg = parse_config("qbm_sweep", None, [("lambda_list", "0.2, 0.1,0.05")])
    assert cfg["lambda_list"] == (0.2, 0.1, 0.05)
    with pytest.raises(ConfigError, match="^expected a comma-separated list of numbers$"):
        parse_config("qbm_sweep", None, [("lambda_list", ",")])


def test_config_file_problems(tmp_path):
    with pytest.raises(ConfigError):
        parse_config("spin_bloch", str(tmp_path / "missing.cfg"))
    bad = tmp_path / "bad.cfg"
    bad.write_text("epsilon 2.5\n")  # no '='
    with pytest.raises(ConfigError):
        parse_config("spin_bloch", str(bad))


def test_unknown_scenario():
    with pytest.raises(ConfigError):
        parse_config("not_a_scenario")
    # a cfg built by hand, past parse_config, names the scenario too
    with pytest.raises(ConfigError, match="^unknown scenario 'nope'$"):
        run_scenario("nope", {})


# ----------------------------------------------------------- table emission


@pytest.fixture(scope="module")
def small_bloch_table():
    cfg = parse_config("spin_bloch", None, [("tau_points", "9"),
                                            ("tau_max", "2.0")])
    return run_scenario("spin_bloch", cfg)


def test_csv_round_trip_is_byte_identical(small_bloch_table):
    text = small_bloch_table.emit("csv")
    again = parse_csv(text).emit("csv")
    assert again == text
    assert text.startswith("# scenario=spin_bloch\n")
    assert "# version=" in text


def test_json_round_trip_is_byte_identical(small_bloch_table):
    text = small_bloch_table.emit("json")
    assert parse_json(text).emit("json") == text


def test_string_columns_survive_round_trip():
    # the acceptance table mixes int, float and free-text columns
    cfg = parse_config("acceptance", None, [("criteria", "1")])
    table = run_scenario("acceptance", cfg)
    text = table.emit("csv")
    parsed = parse_csv(text)
    assert parsed.columns["name"] == table.columns["name"]
    assert all(isinstance(s, str) for s in parsed.columns["detail"])
    assert parsed.emit("csv") == text


def test_csv_cells_of_every_type_keep_their_bytes():
    # the column-wise writer against the per-cell, row-by-row formatting it replaced
    def cell(v):
        if isinstance(v, (bool, np.bool_)):
            return str(int(v))
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return "%.17g" % float(v)
        return str(v).replace(",", ";").replace("\n", " ")

    columns = {
        "py_float": [0.1, -2.5e-300, 1.0 / 3.0],
        "np_float": [np.float64(0.1), np.float64(-0.0), np.float64(7e22)],
        "int": [0, -3, 12345678901234567890],
        "np_int": [np.int64(5), np.int64(-1), np.int64(2**62)],
        "bool": [True, False, True],
        "np_bool": [np.bool_(False), np.bool_(True), np.bool_(False)],
        "text": ["a,b", "line\nbreak", "plain"],
        "mixed": [1.5, np.int64(2), "x,y\nz"],
    }
    metadata = {"rate": 0.25, "count": np.int64(4), "flag": np.bool_(True), "note": "p,q"}
    table = opendecay.scenarios.ResultTable("mixed", columns, metadata)
    expected = "# scenario=mixed\n"
    expected += "".join(f"# {k}={cell(v)}\n" for k, v in metadata.items())
    expected += ",".join(columns) + "\n"
    expected += "".join(",".join(cell(v) for v in row) + "\n" for row in zip(*columns.values()))
    text = table.emit("csv")
    assert text == expected
    parsed = parse_csv(text)
    assert parsed.emit("csv") == text
    for name in ("py_float", "np_float", "int", "np_int"):
        assert parsed.columns[name] == [float(v) if "float" in name else int(v)
                                        for v in columns[name]]
    assert parsed.columns["text"] == ["a;b", "line break", "plain"]


def test_decay_scan_reports_the_flip():
    cfg = parse_config("decay_scan", None, [("points", "7")])
    table = run_scenario("decay_scan", cfg)
    assert set(table.columns["oscillating"]) == {0, 1}
    assert table.metadata["flip_gamma"] == pytest.approx(2.0, abs=1e-6)
    text = table.emit("csv")
    assert parse_csv(text).emit("csv") == text


def test_decay_scan_reports_a_flip_back_to_oscillating(capsys):
    # at a small bias the spectrum stops oscillating near gamma 1.8955 and
    # oscillates again near 2.0012, so this scan starts non-oscillating
    argv = ["decay_scan", "--epsilon", "0.3", "--delta", "1", "--gamma_min", "1.95",
            "--gamma_max", "3", "--points", "12"]
    assert main(argv) == 0
    table = parse_csv(capsys.readouterr().out)
    assert table.columns["oscillating"][0] == 0 and table.columns["oscillating"][-1] == 1
    assert float(table.metadata["flip_gamma"]) == pytest.approx(2.0011670, abs=1e-6)


def test_parse_csv_refuses_text_without_a_header():
    with pytest.raises(ConfigError, match="^no header line found in CSV input$"):
        parse_csv("# scenario=spin_bloch\n# version=0.1.0\n")


def test_metadata_stamp(small_bloch_table):
    md = small_bloch_table.metadata
    assert md["cfg_tau_points"] == 9
    assert re.fullmatch(r"\d+\.\d{3}", md["elapsed_s"])
    assert "eigenvalues" in md


def test_emit_rejects_unknown_format(small_bloch_table):
    with pytest.raises(ConfigError):
        small_bloch_table.emit("yaml")


# -------------------------------------------------------------- cli surface


def test_cli_writes_csv_to_stdout(capsys):
    rc = main(["spin_bloch", "--tau_points", "9", "--tau_max", "2.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("# scenario=spin_bloch\n")
    assert parse_csv(out).scenario == "spin_bloch"


def test_cli_writes_output_file(tmp_path):
    target = tmp_path / "out.json"
    rc = main(["spin_bloch", "--tau_points=9", "--tau_max=2.0",
               "--format", "json", "--output", str(target)])
    assert rc == 0
    table = parse_json(target.read_text())
    assert len(table.columns["tau"]) == 9


def test_cli_unwritable_output_exits_1_naming_the_path(tmp_path, capsys):
    target = tmp_path / "missing" / "out.csv"
    assert main(["decay_scan", "--output", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("opendecay: error: cannot write output file:")
    assert str(target) in err and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["no_such_scenario"],
    ["spin_bloch", "--no_such_key", "1"],
    ["spin_bloch", "--epsilon"],          # missing value
    ["spin_bloch", "stray"],              # stray positional
    ["spin_bloch", "--format", "yaml"],
    ["spin_bloch", "--config", "/nonexistent/path.cfg"],
    ["qbm_sweep"],                        # missing required lambda_list
    ["acceptance", "--criteria", "x,y"],
    ["qbm_sweep", "--lambda_list", ","],  # a list with no number in it
])
def test_cli_usage_problems_exit_1(argv, capsys):
    # the text cannot be read into the schema; values outside a key's
    # bound exit 2 (test_cli_grid_and_scan_range_refusals_name_their_key)
    assert main(argv) == 1
    assert "opendecay: error:" in capsys.readouterr().err


def test_cli_unknown_criterion_exits_2_naming_it(capsys):
    assert main(["acceptance", "--criteria", "1,11"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("opendecay: ValidationError: criteria: ") and "[11]" in err


@pytest.mark.parametrize("override", [["--rho_ee", "1.5"], ["--coh_re", "0.9"]])
def test_cli_spin_master_rejects_a_non_density_initial_state(override, capsys):
    assert main(["spin_master", *override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("opendecay: ValidationError: initial state (rho_ee = ")
    assert err.count("density matrix") == 1
    assert all(key in err for key in ("rho_ee", "coh_re", "coh_im"))


@pytest.mark.parametrize("argv, named", [
    (["qbm_limit", "--omega0", "1e300"], "omega0 = 1e+300 is too large"),
    (["qbm_limit", "--omega0", "2e154"], "omega0 = 2e+154 is too large"),
    (["qbm_sweep", "--omega0", "1e300", "--lambda_list", "0.4", "--tau_points", "5"],
     "omega0 = 1e+300 is too large"),
    (["qbm_exact", "--omega0", "1e300", "--tau_min", "1e-300", "--tau_max", "1e-299",
      "--tau_points", "5"], "omega0 = 1e+300 is too large"),
    (["qbm_limit", "--x0", "1e300"], "energy of x0 = 1e+300, p0 = 0.0 and mass = 1.0"),
    (["qbm_limit", "--p0", "1e300"], "energy of x0 = 1.0, p0 = 1e+300 and mass = 1.0"),
    (["qbm_limit", "--mass", "1e300"], "energy of x0 = 1.0, p0 = 0.0 and mass = 1e+300"),
])
def test_cli_oscillator_inputs_that_overflow_exit_2_by_name(argv, named, capsys):
    # omega0**2 of a Python float raised OverflowError (exit 1), and an
    # energy that squares past the largest float was written as inf (exit 0)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("opendecay: ValidationError: ") and named in err, err


@pytest.mark.parametrize("argv", [
    ["qbm_exact", "--tau_min", "1e-300", "--tau_max", "1e-299", "--tau_points", "5"],
    ["qbm_exact", "--eta", "1e300", "--tau_points", "5"],
])
def test_cli_a_propagator_solve_that_is_not_finite_exits_2_by_name(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.match(r"opendecay: ValidationError: G at lam=0\.2, eta=\S+, tau_max=\S+ "
                    r"on n=\d+ steps must be finite; node \d+ is nan", err), err


@pytest.mark.parametrize("scenario", ["spin_master", "bridge_check"])
def test_cli_a_huge_bias_is_refused_without_an_overflow_warning(scenario, capsys):
    # the structural check's norms of the 1e300 Liouvillian no longer overflow
    assert main([scenario, "--epsilon", "1e300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("opendecay: StiffnessError: ") and "Warning" not in err, err


def test_cli_physics_failure_exits_2(capsys):
    # overdamped renormalization: the requested bath has no stable
    # renormalized frequency, so the computation refuses to run
    rc = main(["qbm_limit", "--eta", "1.0", "--cutoff", "4.0"])
    assert rc == 2
    assert "opendecay:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["spin_bloch", "--gamma_theta", "-1"], "gamma_theta"),
    (["decay_scan", "--gamma_max", "nan"], "gamma_max"),
    (["spin_bloch", "--epsilon", "nan"], "epsilon"),
])
def test_cli_invalid_spin_inputs_exit_2_promptly(argv, named, capsys):
    # refused where the input enters, before the step controller sees a NaN
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("opendecay: ValidationError:") and named in err


@pytest.mark.parametrize("argv, named", [
    (["qbm_limit", "--rtol", "0"], "rtol"),
    (["spin_master", "--tol", "nan"], "tol"),
    (["qbm_limit", "--rtol", "inf"], "rtol"),
    (["spin_bloch", "--rtol", "-1"], "rtol"),
    (["spin_bloch", "--rtol", "nan"], "rtol"),
    (["spin_master", "--tol", "0"], "tol"),
    (["bridge_check", "--rtol", "nan"], "rtol"),
])
def test_cli_bad_tolerances_exit_2_naming_the_key(argv, named, capsys):
    # a NaN tolerance certifies anything and inf or <= 0 is none at all
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"opendecay: ValidationError: {named} must be finite and > 0")


@pytest.mark.parametrize("argv, scenario", [
    (["qbm_exact", "--rel_tol", "1e-3"], "qbm_exact"),
    (["qbm_sweep", "--lambda_list", "0.4", "--rel_tol", "1e-3"], "qbm_sweep"),
])
def test_cli_theta_target_is_not_a_key(argv, scenario, capsys):
    # the Theta Richardson target is fixed in qbm.coefficients; no key sets it
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.rstrip().endswith(f"unknown key(s) for scenario '{scenario}': rel_tol"), err


def test_cli_qbm_limit_takes_no_cutoff_shape(capsys):
    # the rapid-decay limit is the same at either cutoff shape, so no key picks one
    assert main(["qbm_limit", "--shape", "hard"]) == 1
    err = capsys.readouterr().err
    assert err.rstrip().endswith("unknown key(s) for scenario 'qbm_limit': shape"), err


@pytest.fixture
def solves(monkeypatch):
    """Names of the propagator solves and steppers the scenario runners call."""
    calls = []
    for name in ("solve_propagator", "propagate_bloch", "propagate_density",
                 "propagate_moments", "bloch_density_bridge"):
        def counting(*args, _name=name, _real=getattr(opendecay.scenarios, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(opendecay.scenarios, name, counting)
    return calls


@pytest.mark.parametrize("bad", ["nan", "0", "1.5", "-0.1"])
def test_qbm_sweep_refuses_a_bad_lambda_entry_before_any_solve(bad, solves, capsys):
    assert main(["qbm_sweep", "--lambda_list", f"0.4,{bad}"]) == 2
    assert solves == []
    err = capsys.readouterr().err
    assert err.startswith("opendecay: ValidationError: lambda_list entry 1: ")
    assert f"got {float(bad)}" in err


_TOLERANCE_KEYS = [(name, key) for name, schema in SCHEMAS.items()
                   for key in schema if key in ("rtol", "tol", "rel_tol")]
_REQUIRED_VALUES = {"lambda_list": "0.4"}


def _overrides(scenario, key, value):
    """``key`` set to ``value``, and every required key of ``scenario`` set."""
    return [(key, value)] + [(name, _REQUIRED_VALUES[name])
                             for name, (_, default, _) in SCHEMAS[scenario].items()
                             if default is REQUIRED]


def _argv(scenario, key, value):
    return [scenario] + [arg for k, v in _overrides(scenario, key, value)
                         for arg in (f"--{k}", v)]


def test_every_tolerance_key_is_under_the_property_test():
    assert sorted(_TOLERANCE_KEYS) == [
        ("bridge_check", "rtol"), ("qbm_limit", "rtol"), ("spin_bloch", "rtol"),
        ("spin_master", "tol")]
    required = {key for schema in SCHEMAS.values()
                for key, (_, default, _) in schema.items() if default is REQUIRED}
    assert required == set(_REQUIRED_VALUES)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_TOLERANCE_KEYS),
       st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])
       | st.floats(max_value=0.0, allow_nan=False))
def test_no_scenario_certifies_with_a_bad_tolerance(scenario_key, value):
    scenario, key = scenario_key
    argv = _argv(scenario, key, repr(value))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2
    assert err.getvalue().startswith(f"opendecay: ValidationError: {key} must be finite and > 0")


_FLOAT_KEYS = [(name, key) for name, schema in SCHEMAS.items()
               for key, (cast, _, _) in schema.items() if cast is float]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("scenario, key", _FLOAT_KEYS)
def test_every_float_key_refuses_a_non_finite_value_by_name(scenario, key, value, capsys):
    # refused where the key enters: no traceback, no RuntimeWarning (an error
    # under the project's warning filters) and no stepper blaming its state
    assert main(_argv(scenario, key, value)) == 2
    err = capsys.readouterr().err
    assert err.startswith("opendecay: ") and "IntegratorAccuracyError" not in err
    assert re.search(rf"(?<!\w){key}(?!\w)", err), err


_BOUNDED_KEYS = [(name, key, cast, bound) for name, schema in SCHEMAS.items()
                 for key, (cast, _, bound) in schema.items() if bound is not None]


def test_every_number_key_declares_a_bound():
    for name, schema in SCHEMAS.items():
        for key, (cast, default, bound) in schema.items():
            if cast is float:
                assert bound in ("", "> 0", ">= 0"), (name, key)
            elif cast is int:
                assert type(bound) is int and 0 <= bound <= default, (name, key)
            else:
                assert bound is None, (name, key)


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _outside(cast, bound):
    """Values of ``cast`` just outside ``bound``, and NaN and +-inf for a float."""
    if cast is int:
        return st.integers(max_value=bound - 1)
    if bound == "> 0":
        return _NON_FINITE | st.sampled_from([0.0, -0.0]) | st.floats(max_value=0.0)
    if bound == ">= 0":
        return _NON_FINITE | st.floats(max_value=-math.ulp(0.0))
    return _NON_FINITE


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_BOUNDED_KEYS).flatmap(
    lambda entry: st.tuples(st.just(entry), _outside(entry[2], entry[3]))))
def test_every_bound_is_checked_when_the_config_is_parsed(entry_value):
    (scenario, key, _, _), value = entry_value
    refusal = rf"{key} must be (finite|at least)"
    with pytest.raises(ValidationError, match=f"^{refusal}"):
        parse_config(scenario, None, _overrides(scenario, key, repr(value)))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(_argv(scenario, key, repr(value)))
    assert code == 2
    assert re.match(f"opendecay: ValidationError: {refusal}", err.getvalue())
    # a cfg built by hand, past parse_config, meets the same check
    default = SCHEMAS[scenario][key][1]
    cfg = parse_config(scenario, None, _overrides(scenario, key, str(default)))
    cfg[key] = value
    with pytest.raises(ValidationError, match=f"^{refusal}"):
        run_scenario(scenario, cfg)


@pytest.mark.parametrize("argv, named", [
    (["spin_bloch", "--tau_max", "nan"], "tau_max"),
    (["spin_bloch", "--gamma_theta", "nan"], "gamma_theta"),
    (["qbm_exact", "--tau_min", "0"], "tau_min"),
    (["qbm_exact", "--lam", "0"], "lam"),
    (["qbm_exact", "--tau_max", "nan"], "tau_max"),
    (["qbm_sweep", "--lambda_list", "0.4", "--tau_min", "nan"], "tau_min"),
    (["qbm_exact", "--tau_points", "4"], "tau_points"),
    (["qbm_exact", "--tau_min", "2.9"], "tau_min"),
    (["bridge_check", "--seed", "-1"], "seed"),
    (["decay_scan", "--gamma_min", "0"], "gamma_min"),
    (["weak_compare", "--shape", "box"], "shape"),
    (["acceptance", "--criteria", "11"], "criteria"),
    # lam**2 would underflow: refused by the coupling check before the solve
    (["qbm_exact", "--lam", "1e-200"], "lam"),
    (["qbm_exact", "--shape", "hard", "--lam", "1e-200", "--tau_points", "5"], "lam"),
    # above the coupling scale's bound of 1
    (["qbm_exact", "--lam", "1.5"], "lam"),
])
def test_cli_bad_values_exit_2_before_any_solve(argv, named, solves, capsys):
    assert main(argv) == 2
    assert solves == []
    err = capsys.readouterr().err
    assert err.startswith("opendecay: ValidationError:")
    assert re.search(rf"(?<!\w){named}(?!\w)", err), err


@pytest.mark.parametrize("shape", ["exponential", "hard"])
@pytest.mark.parametrize("lam", ["1.6e-154", "2e-154", "1e-150", "1e-80"])
def test_cli_tiny_lam_exits_2_before_any_volterra_march(lam, shape, monkeypatch, capsys):
    # lam**2 is a normal float, so the coupling check accepts it, but the kernel
    # moments overflow (exponential) or the sine integral has no finite
    # budget (hard): each is refused by name, without a RuntimeWarning (an
    # error in this suite), before the first march of the Volterra stepper
    marches = []
    real = opendecay.qbm.propagator._causal_solve
    monkeypatch.setattr(opendecay.qbm.propagator, "_causal_solve",
                        lambda *args: marches.append(1) or real(*args))
    assert main(["qbm_exact", "--shape", shape, "--lam", lam, "--tau_points", "5"]) == 2
    assert marches == []
    err = capsys.readouterr().err
    assert err.startswith(f"opendecay: ValidationError: lam={float(lam):g} is too small "
                          f"for the {shape} cutoff=5"), err


_DROPPED = object()  # the key is deleted from the parsed cfg


@pytest.mark.parametrize("scenario, key, value, error, message", [
    pytest.param("bridge_check", "n_states", 0, ValidationError, "^n_states must be",
                 id="bridge_check-n_states-0"),
    pytest.param("spin_bloch", "tau_max", math.nan, ValidationError, "^tau_max must be",
                 id="spin_bloch-tau_max-nan"),
    pytest.param("spin_bloch", "rtol", _DROPPED, ConfigError,
                 "^scenario 'spin_bloch' requires a value for 'rtol'$",
                 id="spin_bloch-rtol-missing"),
    pytest.param("qbm_limit", "bogus", 1, ConfigError,
                 r"^unknown key\(s\) for scenario 'qbm_limit': bogus$",
                 id="qbm_limit-bogus-1"),
])
def test_run_scenario_refuses_a_hand_built_cfg_by_key(scenario, key, value, error, message,
                                                      solves):
    cfg = parse_config(scenario)
    if value is _DROPPED:
        del cfg[key]
    else:
        cfg[key] = value
    with pytest.raises(error, match=message):
        run_scenario(scenario, cfg)
    assert solves == []


@pytest.mark.parametrize("argv, code, named", [
    (["spin_master", "--tau_points", "0"], 2, "tau_points"),
    (["spin_master", "--tau_max", "-1"], 2, "tau_max"),
    (["bridge_check", "--tau_max", "nan"], 2, "tau_max"),
    (["qbm_limit", "--tau_points", "-3"], 2, "tau_points"),
    (["spin_bloch", "--tau_max", "inf"], 2, "tau_max"),
    (["decay_scan", "--points", "0"], 2, "points"),
    (["decay_scan", "--gamma_max", "nan"], 2, "gamma_max"),
    (["decay_scan", "--gamma_min", "nan"], 2, "gamma_min"),
    (["decay_scan", "--gamma_max", "inf"], 2, "gamma_max"),
    (["qbm_exact", "--tau_max", "inf"], 2, "tau_max"),
    (["decay_scan", "--gamma_min", "3", "--gamma_max", "1"], 2, "gamma_max"),
    (["weak_compare", "--t_max", "nan"], 2, "t_max"),
    (["weak_compare", "--t_min", "inf"], 2, "t_min"),
    (["weak_compare", "--points", "0"], 2, "points"),
    (["weak_compare", "--t_min", "-1"], 2, "t_min"),
    (["weak_compare", "--t_min", "5", "--t_max", "1"], 2, "t_max"),
    (["bridge_check", "--n_states", "0"], 2, "n_states"),
    (["spin_bloch", "--tau_points", "0"], 2, "tau_points"),
    (["spin_bloch", "--tau_max", "-1"], 2, "tau_max"),
    (["spin_bloch", "--tau_max", "nan"], 2, "tau_max"),
    (["qbm_limit", "--tau_max", "inf"], 2, "tau_max"),
    (["bridge_check", "--seed", "-1"], 2, "seed"),
])
def test_cli_grid_and_scan_range_refusals_name_their_key(argv, code, named, solves, capsys):
    # refused where the key enters, not by the stepper or rapid_generator
    assert main(argv) == code
    assert solves == []
    err = capsys.readouterr().err
    assert err.startswith("opendecay: ValidationError: ") and f"{named} " in err


def test_cli_decay_scan_refuses_a_gamma_theta_whose_generator_overflows(capsys):
    # at 1.7e308 the diagonal of the rapid generator overflows to -inf, which
    # LAPACK used to refuse with an uncaught LinAlgError (exit 1)
    argv = ["decay_scan", "--epsilon", "1", "--delta", "0.001",
            "--gamma_min", "1e300", "--gamma_max", "1.7e308", "--points", "3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == ("opendecay: ValidationError: gamma_theta = 1.7e+308 is too large: "
                   "a generator entry overflows\n"), err


def test_cli_single_node_grid_and_scan_are_accepted(capsys):
    assert main(["spin_bloch", "--tau_points", "1"]) == 0
    assert parse_csv(capsys.readouterr().out).columns["tau"] == [0.0]
    assert main(["decay_scan", "--points", "1"]) == 0
    assert parse_csv(capsys.readouterr().out).columns["gamma_theta"] == [0.2]
    assert main(["weak_compare", "--points", "1"]) == 0
    assert parse_csv(capsys.readouterr().out).columns["temperature"] == [0.5]


_WINDOW = ["--tau_min", "0.5", "--tau_max", "0.86", "--tau_points", "5"]
_SMALL_RUNS = {
    "spin_bloch": ["--tau_points", "11"],
    "spin_master": ["--tau_points", "11"],
    "weak_compare": ["--points", "3"],
    "decay_scan": ["--points", "5"],
    "qbm_limit": ["--tau_points", "11"],
    "qbm_exact": ["--lam", "0.4", *_WINDOW],
    "qbm_sweep": ["--lambda_list", "0.4,0.3", *_WINDOW],
    "bridge_check": ["--tau_points", "11", "--n_states", "2"],
    "acceptance": ["--criteria", "1"],
}


def test_small_runs_cover_every_scenario():
    assert sorted(_SMALL_RUNS) == sorted(SCHEMAS)


@pytest.mark.parametrize("scenario", sorted(_SMALL_RUNS))
def test_every_scenario_runs_to_completion(scenario, tmp_path):
    for fmt, parse in (("csv", parse_csv), ("json", parse_json)):
        target = tmp_path / f"out.{fmt}"
        argv = [scenario, *_SMALL_RUNS[scenario], "--format", fmt, "--output", str(target)]
        assert main(argv) == 0
        text = target.read_text()
        table = parse(text)
        assert table.scenario == scenario
        assert table.emit(fmt) == text
        lengths = {len(column) for column in table.columns.values()}
        assert len(lengths) == 1 and lengths.pop() >= 1


def test_cli_exact_window_may_end_on_tau_max(capsys):
    # the solve grid's last node is tau_max itself, so the window's last
    # point is inside the solved window at every refinement level
    rc = main(["qbm_exact", "--tau_min", "0.5", "--tau_max", "0.86",
               "--lam", "0.4", "--tau_points", "5"])
    assert rc == 0
    table = parse_csv(capsys.readouterr().out)
    assert table.columns["tau"][-1] == 0.86


def test_one_entry_sweep_matches_qbm_exact_on_its_window(capsys):
    # both scenarios read one window key table: a one-entry sweep is the
    # qbm_exact window reduced to its deviations from the limit
    window = ["--tau_min", "1.0", "--tau_max", "2.0", "--tau_points", "9"]
    assert main(["qbm_exact", "--lam", "0.3", *window]) == 0
    exact = parse_csv(capsys.readouterr().out)
    assert main(["qbm_sweep", "--lambda_list", "0.3", *window]) == 0
    sweep = parse_csv(capsys.readouterr().out)
    d_xx_limit = float(exact.metadata["D_xx_limit"])
    assert float(sweep.metadata["D_xx_limit"]) == d_xx_limit
    cols = {key: np.array(value) for key, value in exact.columns.items()}
    assert sweep.columns["lam"] == [0.3]
    assert sweep.columns["dev_D_xx"] == [np.max(np.abs(cols["D_xx"] - d_xx_limit))]
    assert sweep.columns["dev_D_xp"] == [np.max(np.abs(cols["D_xp"]))]
    assert sweep.columns["dev_Gamma_xp"] == [np.max(np.abs(cols["Gamma_xp"]))]


def test_cli_acceptance_failure_exits_3(tmp_path, monkeypatch, capsys):
    def fake_run_all(indices=None):
        return [CriterionResult(1, "stub", False, 0.01, "forced failure")]

    monkeypatch.setattr(opendecay.acceptance, "run_all", fake_run_all)
    target = tmp_path / "acc.csv"
    rc = main(["acceptance", "--output", str(target)])
    assert rc == 3
    # the table is still written before the failing status is reported
    table = parse_csv(target.read_text())
    assert table.columns["passed"] == [0]
    assert "failed" in capsys.readouterr().err


def test_cli_acceptance_subset_passes(capsys):
    rc = main(["acceptance", "--criteria", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    table = parse_csv(out)
    assert table.columns["criterion"] == [1]
    assert table.columns["passed"] == [1]


def test_cli_help_and_version_exit_cleanly(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    assert "scenario" in capsys.readouterr().out
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0


def test_cli_scenario_list_matches_schema():
    with pytest.raises(SystemExit):
        main(["--help"])
    # every schema entry is a valid choice (sorted into the usage string)
    assert sorted(SCHEMAS) == sorted(
        ["spin_bloch", "spin_master", "weak_compare", "decay_scan",
         "qbm_limit", "qbm_exact", "qbm_sweep", "bridge_check", "acceptance"]
    )
