#!/usr/bin/env python3
"""opendecay benchmark: seeded workloads through the public entry points.

    python3 bench/run.py --workload spin --seed 0 --seconds 30 --trace 0

Runs the workload's case list (see ``workloads.py``) in passes until
``--seconds`` have elapsed, and never fewer than two passes.  Every
output is checked: route agreement and invariants on every seed, the
stored reference outputs on the default seed.  A case that raises or
fails its check is counted and the run continues.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A fuller record (environment stamp, property shares,
per-case times, failures) goes to ``bench/results/``.

Other modes:
    --record-reference   store the default seed's outputs in bench/reference/
    --acceptance-snapshot  run acceptance.run_all() once, ungated, and store it
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference"

MIN_PASSES = 2
SETUP_PROBES = 4
TAIL_BEYOND = 10  # the tail percentile keeps at least this many cases beyond it
PROBE_TIMEOUT_S = 60
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def limit_threads():
    """One BLAS thread; the qbm_sweep pool gets at most one thread per CPU.

    Must run before numpy is imported; child processes inherit it.
    """
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    os.environ["OPENDECAY_THREADS"] = str(cpu_count())
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path[:0] = [str(SRC), str(HERE)]


def import_package():
    """Import opendecay from this checkout's src/, refusing any other copy."""
    import opendecay

    where = Path(opendecay.__file__).resolve().parent
    if where != (SRC / "opendecay").resolve():
        raise ImportError(f"opendecay was imported from {where}, not from {SRC}")
    return opendecay


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment_stamp():
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": cpu_count(),
        "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS + ("OPENDECAY_THREADS",)},
        "processes": 1,
    }


# ----------------------------------------------------------------------
# set-up time


def setup_probe(workload, seed):
    """Child side: import the package and build the inputs, then report."""
    import_package()
    import workloads

    workloads.build(workload, seed)
    print("ready", flush=True)


def time_setup(workload, seed):
    """Wall time from starting a fresh interpreter until its first case could run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


# ----------------------------------------------------------------------
# passes


@dataclass
class Pass:
    wall: float
    times: dict
    errors: dict
    outputs: dict = field(default_factory=dict, repr=False)


def run_pass(cases, kinds, tracer=None):
    """Time every case once; a case that raises is recorded and skipped."""
    times, outputs, errors = {}, {}, {}
    start = perf_counter()
    for case in cases:
        run = kinds[case.kind].run
        if tracer is not None:
            tracer.case = case.id
        t0 = perf_counter()
        try:
            outputs[case.id] = run(case.params)
        except Exception as exc:  # noqa: BLE001 - a failed case is counted, not fatal
            errors[case.id] = f"raised {type(exc).__name__}: {exc}"
        times[case.id] = perf_counter() - t0
    wall = perf_counter() - start
    if tracer is not None:
        tracer.case = None
    return Pass(wall, times, errors, outputs)


def check_pass(cases, kinds, done, reference=None):
    """Check the outputs of a pass (untimed); failures join ``done.errors``."""
    from workloads import compare

    for case in cases:
        if case.id in done.errors:
            continue
        kind = kinds[case.kind]
        output = done.outputs.pop(case.id)
        try:
            kind.check(case.params, output)
            if reference is not None:
                moved = compare(kind.fingerprint(case.params, output), reference[case.id])
                if moved:
                    raise AssertionError("reference: " + "; ".join(moved))
        except Exception as exc:  # noqa: BLE001 - a failed check is counted, not fatal
            done.errors[case.id] = f"check {type(exc).__name__}: {exc}"
    done.outputs.clear()


def warm_up(cases, kinds):
    """Run the first case of each kind once, untimed, so lazy set-up is done."""
    first = {}
    for case in cases:
        first.setdefault(case.kind, case)
    run_pass(list(first.values()), kinds)


def measure(cases, kinds, seconds, reference=None):
    """Passes until ``seconds`` are spent (at least MIN_PASSES)."""
    warm_up(cases, kinds)
    deadline = perf_counter() + seconds
    passes = []
    while True:
        done = run_pass(cases, kinds)
        check_pass(cases, kinds, done, reference)
        passes.append(done)
        longest = max(p.wall for p in passes)
        if len(passes) >= MIN_PASSES and perf_counter() + longest > deadline:
            return passes


def measure_traced(cases, kinds, seconds, reference=None):
    """Alternate untraced and traced passes until ``seconds`` are spent (at least one pair)."""
    from tracing import Tracer

    tracer = Tracer()
    warm_up(cases, kinds)
    deadline = perf_counter() + seconds
    plain, traced, layers, spans = [], [], [], []
    pool_threads = os.environ["OPENDECAY_THREADS"]
    while True:
        done = run_pass(cases, kinds)
        check_pass(cases, kinds, done, reference)
        plain.append(done)
        tracer.reset()
        # spans nest on one stack: run the qbm_sweep pool inline
        os.environ["OPENDECAY_THREADS"] = "1"
        try:
            with tracer:
                done = run_pass(cases, kinds, tracer)
        finally:
            os.environ["OPENDECAY_THREADS"] = pool_threads
        check_pass(cases, kinds, done, reference)
        traced.append(done)
        layers.append(tracer.layer_metrics())
        spans.append(list(tracer.spans))
        longest = max(p.wall for p in plain) + max(p.wall for p in traced)
        if perf_counter() + longest > deadline:
            return plain, traced, layers, spans


# ----------------------------------------------------------------------
# metrics


def tail(samples):
    """(value, percentile, count): the highest percentile with TAIL_BEYOND values beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} cases for a tail, got {n}")
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def tally(passes, n_cases):
    """(attempted, failed) case executions over the passes."""
    return n_cases * len(passes), sum(len(p.errors) for p in passes)


def end_to_end(passes, setup_samples, case_ids):
    """Per-case time is the case's mean over the passes; p50 and tail run over cases.

    The mean, not the median: on a shared host the CPU speed can flip
    between two levels for seconds at a time, and a median over a few
    passes jumps with it where a mean moves smoothly.
    """
    per_case = [statistics.fmean(p.times[cid] for p in passes) for cid in case_ids]
    attempted, failed = tally(passes, len(case_ids))
    tail_s, tail_pct, tail_n = tail(per_case)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(p.wall for p in passes),
        "case_s.p50": statistics.median(per_case),
        "case_s.tail": tail_s,
        "pass_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "tail_percentile": tail_pct,
        "tail_cases": tail_n,
        "fail_ratio": failed / attempted,
        "pass_walls_s": [p.wall for p in passes],
        "setup_samples_s": setup_samples,
    }
    return metrics, detail


def per_layer(plain, traced, layers):
    times = {k for k, v in layers[0].items() if isinstance(v, float)}
    metrics = {
        k: statistics.median(layer[k] for layer in layers) if k in times else layers[0][k]
        for k in layers[0]
    }
    metrics["trace.overhead"] = (statistics.median(p.wall for p in traced)
                                 / statistics.median(p.wall for p in plain))
    counts_repeat = all(
        layer[k] == layers[0][k] for layer in layers for k in layers[0] if k not in times
    )
    return metrics, {"counts_repeat_across_passes": counts_repeat,
                     "traced_walls_s": [p.wall for p in traced],
                     "untraced_walls_s": [p.wall for p in plain]}


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def result_line(spec_metrics, values, attempted, failed):
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec_metrics},
    }


def load_reference(workload, seed):
    from workloads import DEFAULT_SEED

    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["cases"]


# ----------------------------------------------------------------------
# modes


def benchmark(args):
    spec = load_spec()
    setup_samples = [] if args.trace else [
        time_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)
    ]
    import_package()
    import workloads

    cases = workloads.build(args.workload, args.seed)
    reference = load_reference(args.workload, args.seed)
    kinds = workloads.KINDS
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment_stamp(),
        "properties": workloads.property_shares(cases),
        "reference_checked": reference is not None,
    }
    if args.trace:
        plain, traced, layers, spans = measure_traced(cases, kinds, args.seconds, reference)
        passes = plain + traced
        values, detail = per_layer(plain, traced, layers)
        record["layers_per_pass"] = layers
        spec_metrics = spec["per_layer"]
    else:
        passes = measure(cases, kinds, args.seconds, reference)
        values, detail = end_to_end(passes, setup_samples, [c.id for c in cases])
        spec_metrics = spec["end_to_end"]
    if args.workload == "qbm_window":
        record["known_defect"] = workloads.defect_probe()
    attempted, failed = tally(passes, len(cases))
    record.update(detail)
    record["metrics"] = values
    record["failures"] = {f"pass{i}:{cid}": msg for i, p in enumerate(passes)
                          for cid, msg in p.errors.items()}
    record["case_times_s"] = {c.id: [p.times[c.id] for p in passes] for c in cases}
    line = result_line(spec_metrics, values, attempted, failed)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(RESULTS / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for i, pass_spans in enumerate(spans):
                for s in pass_spans:
                    fh.write(json.dumps([i, *s]) + "\n")

    shares = record["properties"]
    print(f"workload {args.workload} seed {args.seed}: {len(cases)} cases x {len(passes)} passes, "
          f"{failed} failed, reference {'checked' if reference is not None else 'not checked'}")
    print("properties " + json.dumps(shares, sort_keys=True))
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    if not args.trace:
        print(f"case_s.tail is the p{detail['tail_percentile']:.1f} of {detail['tail_cases']} "
              f"per-case times; fail_ratio {detail['fail_ratio']:g}")
    if record.get("known_defect"):
        print(f"known defect still present (untimed probe): {record['known_defect']}")
    for name, msg in list(record["failures"].items())[:20]:
        print(f"FAILED {name}: {msg}")
    print(json.dumps(line))
    return 0


def record_reference(args):
    import_package()
    import workloads

    seed = workloads.DEFAULT_SEED
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        cases = workloads.build(workload, seed)
        done = run_pass(cases, workloads.KINDS)
        fingerprints = {}
        for case in cases:
            if case.id not in done.errors:
                kind = workloads.KINDS[case.kind]
                output = done.outputs[case.id]
                kind.check(case.params, output)
                fingerprints[case.id] = {
                    name: values for name, (values, _, _) in
                    kind.fingerprint(case.params, output).items()
                }
        if done.errors:
            raise SystemExit(f"{workload}: cases failed, no reference written: {done.errors}")
        REFERENCE.mkdir(exist_ok=True)
        with open(REFERENCE / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed, "commit": git_commit(),
                       "cases": fingerprints}, fh, indent=1)
        print(f"{workload}: {len(fingerprints)} reference fingerprints written")
    return 0


def acceptance_snapshot(args):
    opendecay = import_package()
    stamp = environment_stamp()
    results = opendecay.run_all()
    snapshot = {
        "environment": stamp,
        "criteria": [{"index": r.index, "name": r.name, "passed": r.passed,
                      "elapsed_s": r.elapsed, "detail": r.detail} for r in results],
    }
    RESULTS.mkdir(exist_ok=True)
    commit = stamp["commit"]
    path = RESULTS / f"acceptance-{'unknown' if commit.startswith('unknown') else commit[:12]}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=1)
    for r in results:
        print(f"criterion {r.index:2d} [{'PASS' if r.passed else 'FAIL'}] {r.name}: "
              f"{r.detail} ({r.elapsed:.2f} s)")
    print(f"written to {path}")
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("spin", "qbm_window", "qbm_routes"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-reference", action="store_true")
    ap.add_argument("--acceptance-snapshot", action="store_true")
    args = ap.parse_args(argv)
    if not (args.record_reference or args.acceptance_snapshot or args.workload):
        ap.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    limit_threads()
    if not (SRC / "opendecay" / "__init__.py").is_file():
        print(f"no opendecay sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.record_reference:
        return record_reference(args)
    if args.acceptance_snapshot:
        return acceptance_snapshot(args)
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
