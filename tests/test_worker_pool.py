"""`embed_plan` in worker processes: same bits, no pool unless it pays.

The executor splits a plan by video over worker processes when this process
may use more than one CPU and the plan embeds enough pixels. These tests
pin that the split changes no output bit, that a table or a small plan stays
in this process, and that importing the CLI loads no process machinery.
"""
from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from protopipe import protonet
from protopipe.adaptation import centering_adapter_weights
from protopipe.clip_sampling import SamplerConfig
from protopipe.config import build_runtime, load_config
from protopipe.embedding import make_patch_projection_spec
from protopipe.evaluation import evaluate_users, make_rigged_scenario
from protopipe.frame_validity import EdgeFilterConfig
from protopipe.protonet import (
    PipelineRuntime,
    VideoPlan,
    build_episode,
    classify_clip,
    embed_plan,
    personalize,
    plan_query,
    save_prototypes,
)

SRC = Path(protonet.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def rigged(tmp_path_factory):
    manifest, config_path = make_rigged_scenario(tmp_path_factory.mktemp("rigged"))
    return manifest, build_runtime(load_config(config_path))


def count_pools(monkeypatch) -> list[int]:
    """Worker counts of every pool `embed_plan` starts from now on."""
    started = []
    map_in_workers = protonet._map_in_workers

    def counting(plan, runtime, workers):
        started.append(workers)
        return map_in_workers(plan, runtime, workers)

    monkeypatch.setattr(protonet, "_map_in_workers", counting)
    return started


def use_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def small_runtime(table=None) -> PipelineRuntime:
    """A dim-16 pixel runtime for `small_dataset`, or the same with a table."""
    return PipelineRuntime(
        sampler=SamplerConfig(clip_length=4, clips_per_video=2),
        edge_filter=EdgeFilterConfig(),
        embedder=table or make_patch_projection_spec(grid=4, channels=3, dim=16, seed=0),
        adapter=centering_adapter_weights(16, 0.25),
        seed=0,
        digest="test",
    )


# A fork with live threads warns from Python 3.12 on; the pool must start
# before any thread of its own.
@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_serial_and_parallel_outputs_are_byte_identical(rigged, tmp_path, monkeypatch):
    manifest, runtime = rigged
    episode = build_episode(manifest, "user00")
    started = count_pools(monkeypatch)
    outputs = []
    for cpus in (1, 3):
        use_cpus(monkeypatch, cpus)
        report = evaluate_users(manifest, runtime)
        protos, audits = personalize(episode, runtime)
        save_prototypes(protos, tmp_path / f"protos{cpus}.json")
        clips, _ = embed_plan([plan_query(v, runtime) for v, _ in episode.query], runtime)
        # repr writes each float exactly, so equal text is equal bits.
        predictions = repr([classify_clip(clip, protos) for clip in clips.values()])
        outputs.append((
            json.dumps(report, sort_keys=True),
            (tmp_path / f"protos{cpus}.json").read_bytes(),
            repr(audits),
            predictions,
        ))
    # One CPU runs in this process; three run evaluate, personalize and
    # the query plan in three workers each.
    assert started == [3, 3, 3]
    assert outputs[0] == outputs[1]
    assert multiprocessing.active_children() == []


def test_a_table_or_a_small_plan_runs_in_this_process(
    small_dataset, small_table, monkeypatch
):
    manifest, _ = small_dataset
    use_cpus(monkeypatch, 2)
    started = count_pools(monkeypatch)
    evaluate_users(manifest, small_runtime(small_table))
    assert started == []
    pixels = small_runtime()
    episode = build_episode(manifest, "user00")
    small = [VideoPlan(v, (0, 1, 2)) for v, _ in episode.query]
    assert sum(len(part.embed) for part in small) < protonet.POOL_MIN_FRAMES
    embed_plan(small, pixels)
    assert started == []
    episodes = [build_episode(manifest, uid) for uid in manifest.user_ids()]
    big = [plan_query(v, pixels) for ep in episodes for v, _ in ep.query]
    assert sum(len(part.embed) for part in big) >= protonet.POOL_MIN_FRAMES
    threads = threading.enumerate()
    embed_plan(big, pixels)
    assert started == [2]
    # Joined before the call returns, not later when the pool is collected.
    assert multiprocessing.active_children() == []
    assert threading.enumerate() == threads


def test_importing_the_cli_loads_no_process_pool():
    code = (
        "import sys, protopipe.cli\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
