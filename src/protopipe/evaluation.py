"""Ablation harness: run the pipeline arm by arm and report frame accuracy.

Arms are cumulative, each adding one technique on top of the last:

    baseline  random clip sampling, no frame filter, no adapter
    adapt     + set-to-set prototype adaptation
    uniform   + uniform clip sampler (replaces random)
    filter    + invalid-frame filtering on the support side

The report carries per-user accuracy (micro-averaged over that user's query
frames), an aggregate (macro mean over users), and each arm's delta against
the previous arm.

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
    PipelineRuntime,
    build_episode,
    classify_clip,
    per_user_accuracy,
    personalize,
    query_clip_vectors,
)

logger = logging.getLogger(__name__)

ARM_ORDER = ("baseline", "adapt", "uniform", "filter")


class UnknownArm(ConfigError):
    def __init__(self, name: str):
        super().__init__(
            f"unknown ablation arm {name!r}; expected one of {', '.join(ARM_ORDER)}"
        )


def arm_runtime(base: PipelineRuntime, arm: str) -> PipelineRuntime:
    """Derive one cumulative arm from the fully-equipped base runtime."""
    if arm not in ARM_ORDER:
        raise UnknownArm(arm)
    sampler = base.sampler
    if arm in ("baseline", "adapt"):
        sampler = replace(sampler, policy="random")
    else:
        sampler = replace(sampler, policy="uniform")
    edge_filter = replace(base.edge_filter, enabled=(arm == "filter"))
    adapter = None if arm == "baseline" else base.adapter
    return replace(base, sampler=sampler, edge_filter=edge_filter, adapter=adapter)


def evaluate_users(
    manifest: DatasetManifest,
    runtime: PipelineRuntime,
    arms: tuple[str, ...] = ARM_ORDER,
) -> dict:
    """Personalize + recognize every user under every arm."""
    for arm in arms:
        if arm not in ARM_ORDER:
            raise UnknownArm(arm)
    episodes = [build_episode(manifest, uid) for uid in manifest.user_ids()]
    # A query clip's vector depends only on the embedder, which no arm
    # changes: average each one once. This runs before the frame memo
    # exists, so query frames are not kept once their clips are built.
    query_clips = {
        video.video_id: query_clip_vectors(video, runtime)
        for ep in episodes
        for video, _ in ep.query
    }
    # Every arm embeds the same support frames with the same embedder, so
    # this call keeps one frame memo for all of them. It ends with the call;
    # the caller's runtime is not touched.
    runtime = replace(runtime, frame_memo={})
    rows = []
    previous: float | None = None
    for arm in arms:
        rt = arm_runtime(runtime, arm)
        results = {}
        for ep in episodes:
            protos, _ = personalize(ep, rt)
            pairs = []
            for video, truth in ep.query:
                preds = [classify_clip(c, protos)[0] for c in query_clips[video.video_id]]
                pairs.append((preds, list(truth)))
            results[ep.user_id] = pairs
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
