"""Run one benchmark workload against the library in ``src/`` and print its metrics.

    python3 bench/run.py --workload design-scan --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

One process, one client, closed loop: the next request starts when the
previous one returns.  ``--trace 0`` prints the end-to-end metrics and
``--trace 1`` the per-layer ones from a separate traced pass.  Human-readable
lines start with ``#``; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when any answer is wrong and 2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
from array import array
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import speed as speed_probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = BENCH / "out"
SETUP_REPEATS = 11
# probe slices taken before and after each child process (set-up runs, CLI commands)
PROBES_AROUND_CHILD = 2

# (name, unit, better) of every end-to-end metric, in the order BENCHMARK.json lists them
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


class Pass(NamedTuple):
    # seconds per operation, in a compact array: per-operation records held as Python objects
    # would grow the runner's resident set with the number of operations, and so with the speed
    # of the machine
    latencies: array
    failures: list[tuple[str, str]]


def import_library() -> None:
    """Put the checkout's ``src`` first on the path and make sure that is what gets imported."""
    if not (SRC / "hyperoct" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'hyperoct'}; run from a checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import hyperoct

    if Path(hyperoct.__file__).resolve().parent != SRC / "hyperoct":
        print(f"error: imported hyperoct from {hyperoct.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_seconds(code: str, speed: speed_probe.SpeedProbe) -> float:
    """Median reference-speed wall time of fresh interpreters running the workload's set-up code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    times = []
    for _ in range(SETUP_REPEATS):
        speed.probe(PROBES_AROUND_CHILD)
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=120)
        end = perf_counter()
        speed.probe(PROBES_AROUND_CHILD)
        times.append(speed.scaled(start, end - start))
    return statistics.median(times)


def run_pass(workload, seed: int, seconds: float, tracer=None, speed=None) -> Pass:
    """Time the workload's requests for ``seconds``, stopping only between whole batches.

    With ``speed``, latencies are at reference speed: probe slices run on a
    timer throughout, and their time is taken out of the latency of the
    call they interrupt.  A workload that starts child processes also gets
    slices before each call and after the last one.
    """
    starts, latencies, failures = array("d"), array("d"), []
    in_child = speed is not None and workload.spawns
    # a child process runs on while the timer's slices run in this process, so only an
    # in-process call has their time taken out of its latency
    subtract = speed is not None and not workload.spawns
    start = perf_counter()
    with speed.ticking() if speed is not None else contextlib.nullcontext():
        for req in workload.requests(seed):
            if latencies and len(latencies) % workload.batch == 0 and perf_counter() - start >= seconds:
                break
            workload.before_call()
            if in_child:
                speed.probe(PROBES_AROUND_CHILD)
            stolen = speed.stolen if subtract else 0.0
            if tracer:
                tracer.enabled = True
            t0 = perf_counter()
            try:
                result = workload.execute(req)
            except Exception as exc:  # a raising request is a failed request, not a crashed benchmark
                result = exc
            t1 = perf_counter()
            if tracer:
                tracer.enabled = False
            starts.append(t0)
            latencies.append(t1 - t0 - (speed.stolen - stolen if subtract else 0.0))
            if isinstance(result, Exception):
                problem = f"raised {result!r}"
            else:
                try:
                    problem = workload.check(req, result)
                except Exception as exc:  # e.g. an answer missing a field the check reads
                    problem = f"check raised {exc!r}"
            if problem:
                failures.append((req.label, problem))
        if in_child:
            speed.probe(PROBES_AROUND_CHILD)
    if speed is not None:
        for i, t0 in enumerate(starts):
            latencies[i] = speed.scaled(t0, latencies[i])
    return Pass(latencies, failures)


def latency_metrics(run: Pass, op_requests: int) -> dict[str, float]:
    """Throughput (operations per second of library time) and nearest-rank latency
    percentiles over the whole pass; an operation is ``op_requests`` consecutive requests."""
    ops = [sum(run.latencies[i : i + op_requests]) for i in range(0, len(run.latencies), op_requests)]
    return {
        "ops_per_s": len(ops) / sum(ops),
        "latency_p50_ms": percentile(ops, 0.50) * 1e3,
        "latency_p90_ms": percentile(ops, 0.90) * 1e3,
        "latency_p99_ms": percentile(ops, 0.99) * 1e3,
    }


def peak_rss_mb(who: str) -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if who == "children" else resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Returns (passes, metrics, notes) for one workload."""
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[name]()
    notes = [f"why: {workload.why}"]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload.prepare(seed, Path(workdir))
        if not trace:
            workload.warm_up()
            speed = speed_probe.SpeedProbe()
            setup = setup_seconds(workload.setup_code, speed)
            run = run_pass(workload, seed, seconds, speed=speed)
            rss = peak_rss_mb(workload.rss_who)  # before the percentiles sort a copy of the latencies
            metrics = {"setup_s": setup, **latency_metrics(run, workload.op_requests), "peak_rss_mb": rss}
            notes.append(
                f"probe: {len(speed.took)} slices, median {statistics.median(speed.took) * 1e3:.4f} ms"
                f" (reference {speed_probe.REFERENCE_SLICE_S * 1e3:g} ms)"
            )
            return [run], metrics, notes + workload.notes(run.latencies)

        # traced run: an untraced pass and a traced pass on the same requests, same starting state
        workload.in_process = True
        caches = workloads.lru_caches()
        workload.warm_up()
        plain = run_pass(workload, seed, seconds)
        workloads.clear_caches(caches)
        workload.warm_up()
        workload.stdout_bytes = 0
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(workload, seed, seconds, tracer)
        finally:
            tracer.uninstall()
        spans_path = OUT / f"spans-{name}-seed{seed}.tsv.gz"
        tracer.write_spans(spans_path)
        layer = tracer.layer_metrics()
        layer["cli.stdout_bytes"] = workload.stdout_bytes
        plain_e2e, traced_e2e = latency_metrics(plain, workload.op_requests), latency_metrics(traced, workload.op_requests)
        for metric, _, _ in tracing.OVERHEAD_METRICS:
            layer[f"trace.overhead.{metric}"] = traced_e2e[metric] - plain_e2e[metric]
            notes.append(f"{metric}: untraced {plain_e2e[metric]:.6g}, traced {traced_e2e[metric]:.6g}")
        notes.append(f"spans: {len(tracer.span_name)} written to {spans_path.relative_to(ROOT)}")
        metrics = {metric: layer.get(metric, 0) for metric, _, _ in tracing.PER_LAYER}
        return [plain, traced], metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import tracer as tracing
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = set(names) - set(workloads.WORKLOADS)
    if unknown:
        parser.error(f"unknown workload {sorted(unknown)}; choose from {sorted(workloads.WORKLOADS)} or 'all'")
    units = {name: unit for name, unit, _ in (tracing.PER_LAYER if args.trace else END_TO_END)}

    attempted = failed = 0
    all_metrics = {}
    for name in names:
        passes, metrics, notes = run_workload(name, args.seed, args.seconds, bool(args.trace))
        ops = sum(len(p.latencies) for p in passes)
        bad = sum(len(p.failures) for p in passes)
        attempted, failed = attempted + ops, failed + bad
        print(f"# workload={name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        for note in notes:
            print(f"#   {note}")
        print(f"#   attempted={ops} failed={bad} error_rate={bad / ops:.6g}")
        for metric, value in metrics.items():
            print(f"#   {metric} = {value:.6g} {units[metric]}")
        for label, problem in (f for p in passes for f in p.failures[:5]):
            print(f"wrong answer in {name}: {label}: {problem}", file=sys.stderr)
        prefix = f"{name}." if len(names) > 1 else ""
        all_metrics.update({f"{prefix}{m}": {"value": v, "unit": units[m]} for m, v in metrics.items()})

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": all_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
