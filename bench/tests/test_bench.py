"""Checks on the benchmark itself, at toy sizes.

Run with ``python -m pytest bench/tests -q`` from the repo root (kept out
of the tier-1 ``testpaths``).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402

TOY_SIZE = {
    "traffic_plain": 200,
    "traffic_fixed": 200,
    "paldb_kv": 300,
    "rmi_crossings": 200,
}

VIRTUAL = (
    "virt_us_per_op",
    "virt_p50_us",
    "virt_p999_us",
    "virt_goodput_rps",
    "crossings_per_op",
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORKDIR", str(tmp_path))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_identical_virtual_metrics(name):
    first = run.Run(name, 7, size=TOY_SIZE[name])
    second = run.Run(name, 7, size=TOY_SIZE[name])
    a = first.end_to_end(0)
    b = second.end_to_end(0)
    assert first.errors == [] and second.errors == []
    assert first.failed == 0 and first.attempted > 0
    assert {k: a[k] for k in VIRTUAL} == {k: b[k] for k in VIRTUAL}
    assert all(a[k] > 0 for k in VIRTUAL)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_other_seed_gives_other_inputs(name):
    size = TOY_SIZE[name]
    one = workloads.run_workload(name, 1, run.WORKDIR, size=size)
    two = workloads.run_workload(name, 2, run.WORKDIR, size=size)
    assert one.fingerprint() != two.fingerprint()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_matches_untraced_run(name):
    size = TOY_SIZE[name]
    plain = workloads.run_workload(name, 3, run.WORKDIR, size=size)
    recorder = run.SpanRecorder()
    with recorder.installed():
        traced = workloads.run_workload(name, 3, run.WORKDIR, size=size)
    assert recorder.missing == []
    assert traced.fingerprint() == plain.fingerprint()
    assert run.trace_checks(plain, traced, recorder) == []
    assert recorder.layer_calls("sgx.transitions") > 0
    assert recorder.layer_calls("runtime.context") > 0


def test_unwrapped_after_tracing():
    from repro.core import wire
    from repro.sgx.transitions import TransitionLayer

    dumps = wire.dumps
    ecall = TransitionLayer.ecall
    with run.SpanRecorder().installed():
        assert wire.dumps is not dumps
        assert TransitionLayer.ecall is not ecall
    assert wire.dumps is dumps
    assert TransitionLayer.ecall is ecall


def test_a_missed_transition_binding_fails_the_span_check():
    plain = workloads.run_workload("rmi_crossings", 3, run.WORKDIR, size=50)
    recorder = run.SpanRecorder()
    with recorder.installed():
        traced = workloads.run_workload("rmi_crossings", 3, run.WORKDIR, size=50)
    recorder.calls[run.LAYER_NAMES.index("sgx.transitions")] -= 1
    errors = run.trace_checks(plain, traced, recorder)
    assert len(errors) == 1 and "sgx.transitions" in errors[0]


@pytest.mark.parametrize("trace", (0, 1))
def test_printed_metrics_are_exactly_the_declared_ones(capsys, trace):
    declared = _benchmark_json()["per_layer" if trace else "end_to_end"]
    declared_units = {m["name"]: m["unit"] for m in declared}
    for name in workloads.NAMES:
        bench = run.Run(name, 5, size=TOY_SIZE[name])
        metrics = bench.per_layer(0) if trace else bench.end_to_end(0)
        assert bench.errors == []
        capsys.readouterr()
        units = dict(run.PER_LAYER if trace else run.END_TO_END)
        result = run.report(metrics, units, bench, True)
        lines = capsys.readouterr().out.splitlines()
        printed = {
            line.split()[0]: line.split()[-1]
            for line in lines
            if not line.startswith("#")
        }
        assert all(NAME.fullmatch(metric) for metric in printed)
        assert printed == declared_units
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared_units


def test_benchmark_json_follows_the_schema():
    doc = _benchmark_json()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in doc["workloads"]] == list(workloads.NAMES)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in doc["workloads"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))


def test_percentile_is_nearest_rank():
    histogram = Counter({10.0: 1, 20.0: 2, 30.0: 7})
    assert workloads.percentile_ns(histogram, 10.0) == 10.0
    assert workloads.percentile_ns(histogram, 30.0) == 20.0
    assert workloads.percentile_ns(histogram, 31.0) == 30.0
    assert workloads.percentile_ns(histogram, 100.0) == 30.0


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and bench/: no result, non-zero exit."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "traffic_plain", "--seconds", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode != 0
    assert "{" not in child.stdout
