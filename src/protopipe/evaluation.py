"""Ablation harness: run the pipeline arm by arm and report frame accuracy.

Arms are cumulative, each adding one technique on top of the last:

    baseline  random clip sampling, no frame filter, no adapter
    adapt     + set-to-set prototype adaptation
    uniform   + uniform clip sampler (replaces random)
    filter    + invalid-frame filtering on the support side

The report carries per-user accuracy (micro-averaged over that user's query
frames), an aggregate (macro mean over users), and each arm's delta against
the previous arm.

The user is the unit of parallel work: each user's frames are planned,
embedded and scored under every arm by one function, mapped over forked
worker processes by `protonet.map_split` when the evaluate's planned frames
pay for a pool, and only the predicted labels come back. A one-user
evaluate runs here, and its plan is split by video instead.

The "rigged" scenario built by `make_rigged_scenario` is a synthetic dataset
plus config constructed so the ordering baseline <= uniform <= filter is a
property of the data rather than a hope:

* Half of every support video is an "object not present" stretch: one
  contiguous run of low-contrast color-wash frames (camera pointing at
  nothing), with a different wash per video. Support clips overlapping the
  run drag their class prototype toward that video's wash direction, and
  the class starts losing its own query frames.
* Random sampling with replacement can land most — sometimes all — of a
  video's clips inside the wash run, so the baseline arm's damage is
  concentrated and severe. The uniform sampler takes one clip per chunk,
  which structurally caps how much of any video's contribution can be
  wash: uniform recovers part of the loss.
* The edge filter removes wash-dominated clips outright (a wash has
  near-zero edge density), so the filter arm personalizes from pristine
  close-ups and classifies best of all.
* The adapter is the hand-built centering block at modest strength. It
  exercises the adaptation path end to end, but with nothing learned it is
  not expected to move accuracy, and the asserted ordering skips it.

Accuracies are still measured, not assumed: the harness logs every arm's
margin so a regression shows up as a number, not just a failed assert.
"""
from __future__ import annotations

import logging
from dataclasses import replace
from pathlib import Path

from .adaptation import centering_adapter_weights, save_transformer_weights
from .errors import ConfigError, write_json
from .media_io.manifest import DatasetManifest
from .media_io.synthetic import GeneratorSpec, generate_synthetic_dataset
from .protonet import (
    Episode,
    PipelineRuntime,
    VideoPlan,
    build_episode,
    classify_clip,
    embed_plan,
    map_split,
    per_user_accuracy,
    personalize,
    plan_query,
    plan_support,
    planned_frames,
)

logger = logging.getLogger(__name__)

ARM_ORDER = ("baseline", "adapt", "uniform", "filter")


def arm_runtime(base: PipelineRuntime, arm: str) -> PipelineRuntime:
    """Derive one cumulative arm from the fully-equipped base runtime."""
    if arm not in ARM_ORDER:
        raise ConfigError(f"unknown ablation arm {arm!r}; expected one of {', '.join(ARM_ORDER)}")
    sampler = base.sampler
    if arm in ("baseline", "adapt"):
        sampler = replace(sampler, policy="random")
    else:
        sampler = replace(sampler, policy="uniform")
    edge_filter = replace(base.edge_filter, enabled=(arm == "filter"))
    adapter = None if arm == "baseline" else base.adapter
    return replace(base, sampler=sampler, edge_filter=edge_filter, adapter=adapter)


def _user_predictions(
    episode: Episode,
    plan: list[VideoPlan],
    runtime: PipelineRuntime,
    runtimes: list[PipelineRuntime],
) -> list[list[list[str]]]:
    """One user's whole evaluate: per arm, per query video, each frame's label.

    The user's plan is run once: every clip is averaged once, in its
    video's job, as its mean depends only on the embedder, which no arm
    changes. The arms are then arithmetic over that result.
    """
    found = embed_plan(plan, runtime)
    means = found[0]
    windows = {part.video.video_id: part.clips for part in plan}
    queries = [[means[v.video_id, clip] for clip in windows[v.video_id]] for v, _ in episode.query]
    out = []
    for rt in runtimes:
        protos, _ = personalize(episode, rt, found)
        out.append([[classify_clip(clip, protos)[0] for clip in clips] for clips in queries])
    return out


def evaluate_users(
    manifest: DatasetManifest,
    runtime: PipelineRuntime,
    arms: tuple[str, ...] = ARM_ORDER,
) -> dict:
    """Personalize + recognize every user under every arm.

    Each user's plan holds the clips of their support videos that some arm
    samples (their frames gated too when an arm filters) and every query
    frame's causal window, and is made before any pixel is read.
    `map_split` runs `_user_predictions` over the users, split over worker
    processes when the planned frames of all users reach `POOL_MIN_FRAMES`,
    so the outputs do not depend on where it ran. Nothing outlives the
    call. An arm named twice is a ConfigError.
    """
    repeated = [arm for n, arm in enumerate(arms) if arm in arms[:n]]
    if repeated:
        raise ConfigError(f"ablation arm {repeated[0]!r} is named more than once")
    episodes = [build_episode(manifest, uid) for uid in manifest.user_ids()]
    runtimes = [arm_runtime(runtime, arm) for arm in arms]
    plans = [
        plan_support(ep, runtimes) + [plan_query(video, runtime) for video, _ in ep.query]
        for ep in episodes
    ]
    predictions = map_split(
        lambda item: _user_predictions(*item, runtime, runtimes),
        list(zip(episodes, plans)),
        planned_frames([part for plan in plans for part in plan]),
    )
    rows = []
    previous: float | None = None
    for k, arm in enumerate(arms):
        results = {
            ep.user_id: [(preds, list(truth)) for preds, (_, truth) in zip(labels[k], ep.query)]
            for ep, labels in zip(episodes, predictions)
        }
        per_user = per_user_accuracy(results)
        aggregate = sum(per_user.values()) / len(per_user)
        delta = 0.0 if previous is None else aggregate - previous
        logger.info(
            "arm %-8s aggregate %.4f (delta %+.4f)", arm, aggregate, delta
        )
        rows.append(
            {
                "name": arm,
                "aggregate": aggregate,
                "per_user": per_user,
                "delta_vs_previous": delta,
            }
        )
        previous = aggregate
    return {"config_digest": runtime.digest, "arms": rows}


RIGGED_GENERATOR = GeneratorSpec(
    num_users=2,
    objects_per_user=3,
    videos_per_object=2,
    frames_per_video=48,
    frame_size=32,
    blank_fraction=0.5,
    seed=15,
)
RIGGED_SEED = 15
RIGGED_DIM = 192
RIGGED_STRENGTH = 0.25


def make_rigged_scenario(out_dir) -> tuple[DatasetManifest, Path]:
    """Materialize the rigged dataset, adapter and config; see module docs."""
    out_dir = Path(out_dir)
    data_dir = out_dir / "data"
    manifest = generate_synthetic_dataset(RIGGED_GENERATOR, data_dir)
    save_transformer_weights(
        centering_adapter_weights(RIGGED_DIM, RIGGED_STRENGTH),
        out_dir / "centering_adapter.json",
    )
    config = {
        "sampler": {
            "clip_length": 8,
            "clips_per_video": 3,
            "policy": "uniform",
            "within_chunk": "middle",
        },
        "edge_filter": {"tau_mag": 32.0, "tau_density": 0.01, "enabled": True},
        "embedder": {
            "kind": "patch_projection",
            "grid": 8,
            "channels": 3,
            "dim": RIGGED_DIM,
            "seed": 0,
        },
        "adapter": "centering_adapter.json",
        "seed": RIGGED_SEED,
    }
    config_path = out_dir / "config.json"
    write_json(config_path, config)
    return manifest, config_path
