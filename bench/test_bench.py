"""Smoke test of the benchmark itself, on a tiny config (1 qubit, m=1,
20 states, 3 iterations).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import BENCH, SPEC
from spans import Tracer, reduce_spans
from workloads import WORKLOADS, check_run


def bench(*args: str, cwd: Path = BENCH.parent) -> subprocess.CompletedProcess:
    command = [sys.executable, "bench/run.py", "--workload", "smoke", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=120)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(metrics: dict) -> dict:
    return {name: metric["unit"] for name, metric in metrics.items()}


def test_untraced_run_reports_every_end_to_end_metric():
    result = result_of(bench("--seed", "3", "--seconds", "0", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = result_of(bench("--seed", "3", "--seconds", "0", "--trace", "1"))
    assert result["correct"] and result["attempted"] == 2
    metrics = result["metrics"]
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["optimizer.grad_calls"]["value"] == WORKLOADS["smoke"].budget
    spans = json.loads((BENCH / "out/smoke/seed3-trace1/child1/spans.json").read_text())
    assert spans["run_id"] and {s[1] for s in spans["spans"]} >= {"cli.run", "optimizer.grad"}


def test_checks_catch_a_wrong_output():
    result_of(bench("--seed", "5", "--seconds", "0"))
    run_dir = BENCH / "out/smoke/seed5-trace0"
    child = max(run_dir.glob("child*"), key=lambda p: int(p.name[len("child") :]))
    assert check_run(WORKLOADS["smoke"], child)[1] == []
    path = child / "result.json"
    data = json.loads(path.read_text())
    data["fidelity_before"] += 1e-6
    path.write_text(json.dumps(data))
    assert any("fidelity_before" in f for f in check_run(WORKLOADS["smoke"], child)[1])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = bench("--seconds", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_self_time_excludes_child_spans():
    spans = [
        [0, "optimizer.learn", 0.0, 10.0, -1],
        [1, "optimizer.grad", 1.0, 5.0, 0],
        [2, "transforms.finite_transform", 2.0, 3.0, 1],
    ]
    table = reduce_spans(spans)
    assert table["optimizer.learn"]["self"] == 6.0
    assert table["optimizer.grad"]["self"] == 3.0
    assert table["transforms.finite_transform@grad"]["calls"] == 1


def test_tracing_a_missing_layer_fails():
    with pytest.raises(AttributeError):
        Tracer().wrap(object(), "generator_basis", "transforms.basis")
