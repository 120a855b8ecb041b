"""`BENCH_pipeline.json`, the repo's record of benchmark runs, agrees with itself.

The record is written by hand from `perfbench/run.py` output. Each pair
holds every parent and change run of one workload's metric and the
medians stated from them; these checks keep a stated median from drifting
away from the runs it summarizes.
"""
from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

RECORD = Path(__file__).resolve().parents[1] / "BENCH_pipeline.json"
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
