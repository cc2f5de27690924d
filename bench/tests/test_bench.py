"""Tests of the benchmark harness itself: tracing, failure counting, metrics.

Run with ``python -m pytest bench/tests -q`` from the repository root.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import opendecay  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from opendecay import bloch, lindblad, scenarios  # noqa: E402
from opendecay.qbm import coefficients, fock, kernels, moments  # noqa: E402


def cheap_cases(n_spin=14):
    """Fast cases touching the spin scenarios and the QBM layers."""
    spin = [c for c in workloads.build("spin", 3)
            if c.kind in ("spin_bloch", "decay_scan", "weak_compare")][:n_spin]
    single = [c for c in workloads.build("qbm_window", 3)
              if c.kind == "lambda_theta" and c.params["lam"] == 0.4][:1]
    gauss = min((c for c in workloads.build("qbm_routes", 3) if c.kind == "gaussian_pair"),
                key=lambda c: c.params["n_max"] * c.params["tau_end"])
    return spin + single + [gauss]


def entry_point_references():
    """(module, attribute, function) for every loaded reference to a public entry point."""
    functions = {id(fn): fn for m in tracing.package_modules()
                 for owner, _, fn, _ in tracing.entry_points(m) if owner is m}
    return [(m, attr, value) for m in tracing.package_modules()
            for attr, value in vars(m).items()
            if id(value) in functions and functions[id(value)] is value]


def test_tracer_rebinds_every_loaded_reference_and_restores_it():
    before = entry_point_references()
    emit = scenarios.ResultTable.emit
    integrate = opendecay._integrate.integrate
    assert len(before) > 50
    tracer = tracing.Tracer()
    with tracer:
        for module, attr, original in before:
            now = getattr(module, attr)
            assert now is not original, f"{module.__name__}.{attr} not rebound"
            assert now.__wrapped__ is original
        for module in (bloch, lindblad, fock, moments):
            assert module.integrate.__wrapped__ is integrate
        assert coefficients.noise_kernel.__wrapped__ is kernels.noise_kernel.__wrapped__
        assert scenarios.ResultTable.emit.__wrapped__ is emit
    for module, attr, original in before:
        assert getattr(module, attr) is original
    assert scenarios.ResultTable.emit is emit


def test_tracer_restores_after_an_exception():
    noise = coefficients.noise_kernel
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            assert coefficients.noise_kernel is not noise
            1 / 0
    assert coefficients.noise_kernel is noise


def test_self_times_sum_to_no_more_than_wall():
    cases = cheap_cases()
    tracer = tracing.Tracer()
    with tracer:
        done = run.run_pass(cases, workloads.KINDS, tracer)
    assert not done.errors
    assert sum(s.self_s for s in tracer.spans) <= done.wall
    layers = tracer.layer_metrics()
    assert layers["integrate.calls"] > 0 and layers["integrate.rhs_evals"] > 0
    assert layers["qbm.coefficients.theta_calls"] == 1
    assert 0.0 < layers["integrate.self_s"] + layers["integrate.rhs_s"] <= done.wall
    assert {s.case for s in tracer.spans} == {c.id for c in cases}
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end


def test_exact_counts_repeat_across_traced_runs():
    cases = cheap_cases(6)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer:
            run.run_pass(cases, workloads.KINDS, tracer)
        layers = tracer.layer_metrics()
        counts.append({k: v for k, v in layers.items() if isinstance(v, int)})
    assert counts[0] == counts[1]
    assert counts[0]["integrate.rhs_evals"] > 0


def test_raising_and_failing_cases_are_counted_and_do_not_abort():
    def boom(params):
        raise RuntimeError("injected")

    def wrong(params, output):
        raise workloads.CheckFailed("injected check failure")

    spin = workloads.KINDS["spin_bloch"]
    kinds = dict(workloads.KINDS, boom=workloads.Kind(boom, None, None),
                 wrong=workloads.Kind(spin.run, wrong, spin.fingerprint))
    cases = cheap_cases(12)
    bad = [workloads.Case("boom", "boom", {}),
           workloads.Case("wrong", "wrong", cases[0].params)]
    cases = cases[:3] + bad + cases[3:]
    passes = []
    for _ in range(2):
        done = run.run_pass(cases, kinds)
        run.check_pass(cases, kinds, done)
        passes.append(done)
    for done in passes:
        assert set(done.errors) == {"boom", "wrong"}
        assert "RuntimeError: injected" in done.errors["boom"]
        assert set(done.times) == {c.id for c in cases}
    metrics, detail = run.end_to_end(passes, [1.0], [c.id for c in cases])
    assert detail["fail_ratio"] == pytest.approx(2 / len(cases))
    assert metrics["pass_ratio"] == pytest.approx(1 - 2 / len(cases))


def test_reference_comparison_flags_a_moved_output():
    case = workloads.build("spin", workloads.DEFAULT_SEED)[0]
    kind = workloads.KINDS[case.kind]
    fp = kind.fingerprint(case.params, kind.run(case.params))
    ref = {name: values for name, (values, _, _) in fp.items()}
    assert workloads.compare(fp, ref) == []
    name = next(iter(ref))
    ref[name] = [v + 1e-6 for v in ref[name]]
    assert workloads.compare(fp, ref)


def test_case_lists_are_seeded():
    for workload in workloads.WORKLOADS:
        a, b = workloads.build(workload, 5), workloads.build(workload, 5)
        assert [(c.kind, c.params) for c in a] == [(c.kind, c.params) for c in b]
        assert [c.params for c in a] != [c.params for c in workloads.build(workload, 6)]


def test_window_ends_step_around_the_grid_rounding_defect():
    t = workloads.DEFECT_WINDOW["tau_max"]
    end = workloads.reachable_end(t)
    assert t <= end <= t * (1 + 1e-14)


def test_tail_keeps_ten_samples_beyond_it():
    value, pct, n = run.tail([float(i) for i in range(40)])
    assert (value, n) == (29.0, 40)
    assert pct == pytest.approx(75.0)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)
