"""`map_split` in worker processes: same bits, no pool unless it pays.

An evaluate splits its users over worker processes, and a one-episode plan
its videos, when this process may use more than one CPU and the work has
enough planned frames. These tests pin that the split changes no output
bit, that a small evaluate or plan stays in this process, that a worker
starts no pool of its own, and that importing the CLI loads no process
machinery.
"""
from __future__ import annotations

import json
import multiprocessing
import os
import random
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from protopipe import protonet
from protopipe.adaptation import centering_adapter_weights
from protopipe.clip_sampling import SamplerConfig
from protopipe.config import build_runtime, load_config
from protopipe.embedding import PrecomputedTable, make_patch_projection_spec
from protopipe.evaluation import evaluate_users, make_rigged_scenario
from protopipe.frame_validity import EdgeFilterConfig
from protopipe.media_io.manifest import DatasetManifest
from protopipe.protonet import (
    PipelineRuntime,
    VideoPlan,
    build_episode,
    classify_clip,
    embed_plan,
    personalize,
    plan_query,
    planned_frames,
    save_prototypes,
)

SRC = Path(protonet.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def rigged(tmp_path_factory):
    manifest, config_path = make_rigged_scenario(tmp_path_factory.mktemp("rigged"))
    return manifest, build_runtime(load_config(config_path))


@pytest.fixture(scope="module")
def rigged_table(rigged) -> PipelineRuntime:
    """The rigged runtime with a table of seeded rows for every frame."""
    manifest, runtime = rigged
    rng = random.Random(0)
    dim = runtime.embedder.dim
    table = PrecomputedTable(dim, {
        v.video_id: [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(v.num_frames)]
        for v in manifest.all_videos()
    })
    return replace(runtime, embedder=table)


def count_pools(monkeypatch, tmp_path):
    """A reader of every pool started from now on, as "parent N" or "worker N".

    The log is a file, so that a pool started inside a worker process,
    whose memory the test never sees, is counted too.
    """
    log = tmp_path / "pools.log"
    log.write_text("")
    map_in_workers = protonet._map_in_workers
    parent = os.getpid()

    def counting(fn, items, workers):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{'parent' if os.getpid() == parent else 'worker'} {workers}\n")
        return map_in_workers(fn, items, workers)

    monkeypatch.setattr(protonet, "_map_in_workers", counting)
    return lambda: log.read_text(encoding="utf-8").splitlines()


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


def all_outputs(manifest, runtime, tmp_path, after_each) -> tuple:
    """The report, one user's prototypes, audits and predictions, as text.

    `after_each` runs after every call that may start a pool.
    """
    episode = build_episode(manifest, "user00")
    report = evaluate_users(manifest, runtime)
    after_each("evaluate")
    protos, audits = personalize(episode, runtime)
    after_each("personalize")
    save_prototypes(protos, tmp_path / "protos.json")
    clips, _ = embed_plan([plan_query(v, runtime) for v, _ in episode.query], runtime)
    after_each("query plan")
    # repr writes each float exactly, so equal text is equal bits.
    predictions = repr([classify_clip(clip, protos) for clip in clips.values()])
    return (
        json.dumps(report, sort_keys=True),
        (tmp_path / "protos.json").read_bytes(),
        repr(audits),
        predictions,
    )


# A fork with live threads warns from Python 3.12 on; the pool must start
# before any thread of its own.
@pytest.mark.filterwarnings("error::DeprecationWarning")
@pytest.mark.parametrize("embedder", ["pixels", "table"])
def test_serial_and_parallel_outputs_are_byte_identical(
    rigged, rigged_table, embedder, tmp_path, monkeypatch
):
    manifest, runtime = rigged
    if embedder == "table":
        runtime = rigged_table
    pools = count_pools(monkeypatch, tmp_path)
    threads = threading.enumerate()

    def joined(call):
        # Joined before the call returns, not later when the pool is collected.
        assert multiprocessing.active_children() == [], call
        assert threading.enumerate() == threads, call

    outputs = {}
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        outputs[cpus] = all_outputs(manifest, runtime, tmp_path, joined)
    # One CPU runs everything here. With more, evaluate maps its two users
    # over one pool of two workers, none of which starts a pool of its own,
    # and personalize and the query plan split their six videos.
    assert pools() == [
        "parent 2", "parent 2", "parent 2",
        "parent 2", "parent 3", "parent 3",
    ]
    assert outputs[1] == outputs[2] == outputs[3]


def test_a_one_user_evaluate_splits_its_plan_by_video(
    rigged, rigged_table, tmp_path, monkeypatch
):
    manifest, _ = rigged
    runtime = rigged_table
    one_user = DatasetManifest(manifest.users[:1])
    use_cpus(monkeypatch, 2)
    pools = count_pools(monkeypatch, tmp_path)
    report = evaluate_users(one_user, runtime)
    assert pools() == ["parent 2"]
    assert multiprocessing.active_children() == []
    use_cpus(monkeypatch, 1)
    assert report == evaluate_users(one_user, runtime)
    assert pools() == ["parent 2"]


def test_a_small_evaluate_or_plan_runs_in_this_process(
    small_dataset, small_table, rigged, rigged_table, tmp_path, monkeypatch
):
    manifest, _ = small_dataset
    use_cpus(monkeypatch, 2)
    pools = count_pools(monkeypatch, tmp_path)
    evaluate_users(manifest, small_runtime(small_table))
    evaluate_users(manifest, small_runtime())
    assert pools() == []
    pixels = small_runtime()
    episode = build_episode(manifest, "user00")
    small = [VideoPlan(v, ((0, 1, 2),)) for v, _ in episode.query]
    assert planned_frames(small) < protonet.POOL_MIN_FRAMES
    embed_plan(small, pixels)
    assert pools() == []
    rigged_manifest, _ = rigged
    big = [plan_query(v, pixels) for v in rigged_manifest.all_videos()]
    assert planned_frames(big) >= protonet.POOL_MIN_FRAMES
    threads = threading.enumerate()
    embed_plan(big, pixels)
    assert pools() == ["parent 2"]
    # A rigged-size evaluate from a table starts one pool too.
    evaluate_users(rigged_manifest, rigged_table)
    assert pools() == ["parent 2", "parent 2"]
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
