"""`BENCH_pipeline.json`, the repo's record of benchmark runs, agrees with itself.

The record is written by hand from `perfbench/run.py` output. Each pair
holds every parent and change run of one workload's metric and the
medians stated from them; these checks keep a stated median from drifting
away from the runs it summarizes, and a pair from naming a metric or a
workload the benchmark (`BENCHMARK.json`, read here, never written) does
not have.
"""
from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "BENCH_pipeline.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Workloads perfbench/run.py runs without a gate in BENCHMARK.json.
UNGATED_WORKLOADS = {"stream", "cold_load"}
HOST_KEYS = {"cpu_model", "nproc", "python", "host_speed"}
PAIR_KEYS = {
    "change", "workload", "metric", "unit", "claimed",
    "parent_runs", "change_runs", "parent_median", "change_median",
}


def load_pairs() -> list[dict]:
    return json.loads(RECORD.read_text(encoding="utf-8"))["pairs"]


def test_the_record_names_its_host_and_holds_pairs():
    doc = json.loads(RECORD.read_text(encoding="utf-8"))
    assert {"host", "pairs"} <= set(doc)
    assert set(doc["host"]) == HOST_KEYS
    assert isinstance(doc["host"]["nproc"], int) and doc["host"]["nproc"] >= 1
    assert doc["pairs"]


@pytest.mark.parametrize("n", range(len(load_pairs())))
def test_each_pair_has_equal_run_lists_and_the_medians_of_its_runs(n):
    pair = load_pairs()[n]
    assert set(pair) == PAIR_KEYS
    assert isinstance(pair["claimed"], bool)
    parent, change = pair["parent_runs"], pair["change_runs"]
    assert len(parent) == len(change) > 0
    assert pair["parent_median"] == statistics.median(parent)
    assert pair["change_median"] == statistics.median(change)


@pytest.mark.parametrize("n", range(len(load_pairs())))
def test_each_pair_names_a_benchmark_metric_with_its_unit_and_a_known_workload(n):
    pair = load_pairs()[n]
    units = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert units.get(pair["metric"]) == pair["unit"]
    workloads = {workload["name"] for workload in SPEC["workloads"]} | UNGATED_WORKLOADS
    assert pair["workload"] in workloads
