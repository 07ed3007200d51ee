"""Tests of the benchmark itself: python3 -m pytest -q bench"""

from __future__ import annotations

import itertools
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import pytest

import run
import speed as speed_probe

run.import_library()

import reference as ref  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from hyperoct import make_config, tight  # noqa: E402


def _stream(name, seed, workdir, count=40):
    workload = workloads.WORKLOADS[name]()
    workload.prepare(seed, workdir)
    return [(r.kind, r.args) for r in itertools.islice(workload.requests(seed), count)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed_and_differ_across_seeds(name, tmp_path):
    first = _stream(name, 1, tmp_path)
    assert first == _stream(name, 1, tmp_path)
    assert first != _stream(name, 2, tmp_path)


def _snapshot():
    """Every attribute of every hyperoct module and of every class they define."""
    snap = {}
    for module in tracing.hyperoct_modules():
        for attr, value in vars(module).items():
            snap[(module.__name__, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("hyperoct"):
                for cattr, cvalue in vars(value).items():
                    snap[(module.__name__, attr, cattr)] = cvalue
    return snap


@pytest.mark.parametrize("name", ["design-scan", "certify", "cli-session"])
def test_traced_run_restores_every_rebound_name(name):
    before = _snapshot()
    passes, metrics, _ = run.run_workload(name, seed=3, seconds=0.3, trace=True)
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert list(metrics) == [metric for metric, _, _ in tracing.PER_LAYER]
    assert all(not p.failures for p in passes)


def test_tracer_attributes_self_time_to_the_kernel():
    cfg = make_config(5, [(1, 1, 1), (3, 1, Fraction(3, 4))])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        assert workloads.moments.verify_strength(cfg, 7)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["moments.verify_strength.n5_J1-3.s"] > 0
    assert metrics["moments._orbit_monomial_sum.calls"] == 2 * metrics["moments.monomial_residual.calls"]
    assert 0 < metrics["moments.monomial_residual.all_even_share"] < 1


def test_gate_flags_planted_wrong_answers(tmp_path):
    non_design = make_config(4, [(1, 1, 1), (2, 2, 1)])
    assert ref.strength(4, [(1, 1, 1), (2, 2, 1)]) == 3
    scan = workloads.DesignScan()
    req = workloads.Request("classify", (non_design,), "planted")
    labelled_seven = workloads.strength.StrengthReport(strength=7, residuals={})
    assert scan.check(req, labelled_seven)
    assert scan.check(req, workloads.strength.classify(non_design)) is None

    oracle = workloads.OracleLarge()
    req = next(oracle.requests(1))
    right = [(True, workloads.moments.OracleFailure(4, (), Fraction(1)))] * len(req.args)
    assert oracle.check(req, right) is None
    assert oracle.check(req, [(True, None)] + right[1:])  # the perturbed twin must fail
    assert oracle.check(req, right[:2] + [(False, right[0][1])] + right[3:])

    certify = workloads.Certify()
    cert = tight.tightness_certificate(non_design)
    assert certify.check(workloads.Request("certificate", (non_design,), "planted"), cert)
    assert certify.check(workloads.Request("oracle", (non_design,), "planted"), 7)

    cli = workloads.CliSession()
    cli.prepare(1, tmp_path)
    req = workloads.Request("fisher", ("fisher", "--n", "3", "--p", "2", "--t", "5"), "planted")
    assert cli.check(req, (0, json.dumps({"n": 3, "p": 2, "t": 5, "value": 14, "per_k": [12, 2]}))) is None
    assert cli.check(req, (0, json.dumps({"n": 3, "p": 2, "t": 5, "value": 15, "per_k": [12, 3]})))
    assert cli.check(req, (1, json.dumps({"n": 3, "p": 2, "t": 5, "value": 14, "per_k": [12, 2]})))
    assert cli.check(req, (0, "Traceback (most recent call last):"))


def test_raising_request_counts_as_failed(monkeypatch):
    scan = workloads.DesignScan()

    def boom(req):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(scan, "execute", boom)
    result = run.run_pass(scan, seed=1, seconds=0.05)
    assert result.latencies and len(result.failures) == len(result.latencies)


def test_reference_reproduces_the_tight_families():
    for cfg, t, size in ((tight.tight_5_3d(1, 2), 5, 14), (tight.tight_7_3d(1, 3), 7, 26), (tight.tight_7_4d(1, 2), 7, 48)):
        layers = [(layer.k, layer.r_squared, layer.weight) for layer in cfg.layers]
        assert ref.strength(cfg.n, layers) == t
        assert ref.antipodal_fisher_bound(cfg.n, cfg.p, t) == size == cfg.size


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]


def test_missing_library_exits_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "workloads.py", "tracer.py", "reference.py", "speed.py"):
        (tmp_path / "bench" / name).write_text((run.BENCH / name).read_text())
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "design-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_speed_probe_scales_by_the_slices_around_each_piece():
    speed = speed_probe.SpeedProbe()
    ref = speed_probe.REFERENCE_SLICE_S
    # the machine runs at half speed for the first 10 s, then at reference speed
    speed.at = [0.1 * i for i in range(200)]
    speed.took = [2 * ref if t < 10 else ref for t in speed.at]
    assert speed.scaled(2.0, 0.001) == pytest.approx(0.0005)
    assert speed.scaled(15.0, 0.001) == pytest.approx(0.001)
    assert speed.scaled(5.0, 10.0) == pytest.approx(7.5, rel=0.05)


def test_ticking_takes_slices_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    speed = speed_probe.SpeedProbe()
    with speed.ticking():
        end = perf_counter() + 0.3
        while perf_counter() < end:
            pass
    assert len(speed.took) >= 2 and speed.stolen >= sum(speed.took)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
