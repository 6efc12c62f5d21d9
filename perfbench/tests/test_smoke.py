"""Toy-size runs of every workload, traced and untraced."""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import lifecycle
import run

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)
#: every workload the benchmark can run, the ones not in BENCHMARK.json too
WORKLOADS = sorted(lifecycle.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = run.run(workload, seed=5, seconds=0.0, trace=False, toy=True)["result"]
    assert result["correct"]
    assert 1 <= result["attempted"] and 0 <= result["failed"] < result["attempted"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        value = metrics[spec["name"]]
        assert value["unit"] == spec["unit"]
        assert math.isfinite(value["value"]) and value["value"] > 0, spec["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = run.run(workload, seed=5, seconds=0.0, trace=True, toy=True)["result"]
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        value = metrics[spec["name"]]
        assert value["unit"] == spec["unit"]
        assert math.isfinite(value["value"]), spec["name"]
    # every layer that the workload's phases call was seen
    for name in ("ingest.update_batch_s", "compact.execute_plan_s", "query.plan_s",
                 "save.fsyncs", "open.containers_read", "recover.replayed_batches",
                 "agg.encode_s", "agg.decode_s", "agg.merges",
                 "runtime.dispatch_rounds", "runtime.shm_bytes"):
        assert metrics[name]["value"] > 0, name


def test_same_seed_gives_the_same_counts():
    first = run.run("cube_live", seed=9, seconds=0.0, trace=False, toy=True)["result"]
    again = run.run("cube_live", seed=9, seconds=0.0, trace=False, toy=True)["result"]
    for name in ("bytes_per_record", "wire_bytes"):
        assert first["metrics"][name] == again["metrics"][name]
    assert (first["attempted"], first["failed"]) == (again["attempted"], again["failed"])


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
