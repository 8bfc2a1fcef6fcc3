"""Smoke test of the benchmark at tiny sizes, so the harness cannot rot.

Run from the repository root:

    python -m pytest bench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "trace_sweep": {"calls": 2, "phase_steps": 4},
    "cli_sweep": {"etas": 2, "phase_steps": 3},
    "validate": {"etas": 1},
}


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.PASSES)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_reports_every_metric(workload, trace, tmp_path):
    result = run.run_benchmark(workload, seed=7, seconds=0.05, trace=trace,
                               sizes=TINY[workload], setup_repeats=1, work=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in want]
    for spec in want:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert math.isfinite(metric["value"]), spec["name"]


def test_command_prints_the_result_last(tmp_path):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_sweep", "--seed", "3",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "validate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_speed_probe_scales_to_the_reference_kernel_time(monkeypatch):
    probe = run.SpeedProbe()
    monkeypatch.setattr(probe, "kernel_s", lambda: 2.0 * run.SpeedProbe.REFERENCE_S)
    probe.scale()
    assert probe.scale() == pytest.approx(0.5)


def test_self_time_excludes_children():
    tracer = tracing.Tracer()

    def child():
        time.sleep(0.01)

    child = tracer.wrap("m.child", child)
    parent = tracer.wrap("m.parent", lambda: child())
    tracer.root(parent)()
    spans = tracing.summarise(tracer)["spans"]
    calls, inclusive, own = spans["m.parent"]
    assert calls == 1 and inclusive >= spans["m.child"][1] >= 0.01
    assert own == pytest.approx(inclusive - spans["m.child"][1])
    assert tracing.summarise(tracer)["n_spans"] == 3


def test_missing_names_are_absent_not_errors():
    tracer = tracing.Tracer()
    package = types.SimpleNamespace(cli=types.SimpleNamespace(), validation=None)
    tracing.uninstall(tracing.install(tracer, package))
    assert "cli._emit" in tracer.absent and "cli._COMMANDS" in tracer.absent
    assert "validation._check_*" in tracer.absent
    assert tracing.summarise(tracer)["n_spans"] == 0
