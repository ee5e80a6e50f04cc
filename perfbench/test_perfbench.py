"""Tests of the benchmark itself (smoke mode: small inputs, a few seconds).

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def inner():
        return sum(range(20000))

    def outer():
        return wrapped_inner() + sum(range(20000))

    wrapped_inner = tracer.wrap("t.inner", inner)
    tracer.wrap("t.outer", outer)()
    out = tracer.to_json()
    (s_inner, s_outer) = sorted(out["spans"], key=lambda s: s["id"], reverse=True)
    assert s_inner["parent"] == s_outer["id"] and s_outer["parent"] is None
    assert s_outer["start"] <= s_inner["start"] <= s_inner["end"] <= s_outer["end"]
    stats = out["stats"]
    assert stats["t.outer"]["self_ms"] == pytest.approx(
        stats["t.outer"]["total_ms"] - stats["t.inner"]["total_ms"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_smoke_run_emits_every_layer_metric(workload):
    result = parse(run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", "1", "--smoke"))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    with open(os.path.join(HERE, "out", f"trace-{workload}-seed3.json")) as fh:
        trace = json.load(fh)
    spans = {s["id"]: s for s in trace["spans"]}
    assert spans
    for s in spans.values():
        assert s["start"] <= s["end"]
        parent = spans.get(s["parent"])
        if parent is not None:
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    for stat in trace["stats"].values():
        assert 0 <= stat["self_ms"] <= stat["total_ms"] + 1e-9


def test_untraced_smoke_run_emits_every_end_to_end_metric():
    result = parse(run_bench("--workload", "e2-bowen", "--seed", "3", "--seconds", "1",
                             "--trace", "0", "--smoke"))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "e2-bowen", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
