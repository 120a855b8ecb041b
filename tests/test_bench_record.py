"""`BENCH_pipeline.json`, the repo's record of benchmark runs, agrees with itself.

The record is written by hand from `perfbench/run.py` output. Each pair
holds every parent and change run of one workload's metric and the
medians stated from them; each `head` entry holds the runs of one
workload's metric at one commit on a stated number of CPUs, and their
median. These checks keep a stated median from drifting away from the
runs it summarizes, and an entry from naming a metric or a workload the
benchmark (`BENCHMARK.json`, read here, never written) does not have.
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
HEAD_KEYS = {"change", "workload", "metric", "unit", "cpus", "runs", "median"}


def load_pairs() -> list[dict]:
    return json.loads(RECORD.read_text(encoding="utf-8"))["pairs"]


def load_head() -> list[dict]:
    return json.loads(RECORD.read_text(encoding="utf-8"))["head"]


def names_a_benchmark_metric_and_workload(entry: dict) -> bool:
    units = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    workloads = {workload["name"] for workload in SPEC["workloads"]} | UNGATED_WORKLOADS
    return units.get(entry["metric"]) == entry["unit"] and entry["workload"] in workloads


def test_the_record_names_its_host_and_holds_pairs():
    doc = json.loads(RECORD.read_text(encoding="utf-8"))
    assert {"host", "head", "pairs"} <= set(doc)
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
    assert names_a_benchmark_metric_and_workload(load_pairs()[n])


@pytest.mark.parametrize("n", range(len(load_head())))
def test_each_head_entry_names_its_cpus_and_states_the_median_of_five_runs_or_more(n):
    entry = load_head()[n]
    assert set(entry) == HEAD_KEYS
    assert names_a_benchmark_metric_and_workload(entry)
    nproc = json.loads(RECORD.read_text(encoding="utf-8"))["host"]["nproc"]
    assert type(entry["cpus"]) is int and 1 <= entry["cpus"] <= nproc
    assert len(entry["runs"]) >= 5
    assert entry["median"] == statistics.median(entry["runs"])


def test_head_has_one_entry_per_workload_metric_and_cpu_count():
    keys = [(e["workload"], e["metric"], e["cpus"]) for e in load_head()]
    assert keys and len(keys) == len(set(keys))
