"""Prototype construction, cosine classification, and the episode protocol.

An episode is one user's data split two ways: their clean videos form the
support set and their clutter videos the query set. Personalization samples
clips from each support video, drops clips dominated by invalid frames,
embeds the survivors and averages them per class into prototypes, then
optionally refines the stacked prototypes with a set-to-set adapter.
Recognition averages a causal window over a query video once per frame and
classifies every frame's clip against the adapted prototypes by cosine
similarity. A clip's vector depends only on the embedder, never on the
prototypes, so one set of clips serves any number of prototype sets.

Frames are read through a plan. The samplers are seeded per video, so the
frames a run reads are known before any pixel is: per video, the sampled
support frames to embed, the frames the edge filter gates, and every query
frame. `embed_plan` is the one executor: it decodes each planned frame
once, gates and embeds it, and returns vectors and validity keyed by
(video_id, index), splitting the videos over worker processes when that
pays. `personalize` and `recognize_video` run a plan of their own episode
or video; `evaluation.evaluate_users` runs one plan for every arm.
"""
from __future__ import annotations

import hashlib
import os
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

from .adaptation import TransformerWeights, adapt_prototypes
from .clip_sampling import SamplerConfig, causal_sliding_window, sample_clips
from .embedding import EmbedderSpec, PrecomputedTable, embed_frame
from .errors import ROWS, DataError, read_json, write_json
from .frame_validity import (
    ClipAudit,
    EdgeFilterConfig,
    SampledClip,
    filter_clips,
    is_frame_valid,
)
from .media_io.loader import LoaderConfig, load_frames_parallel
from .media_io.manifest import DatasetManifest, UserRecord, VideoRecord
from .media_io.pnm import Frame
from .numerics import (
    DimensionMismatch,
    Matrix,
    Vector,
    cosine_similarity,
    mean_vectors,
    norm,
)


class EmptyClass(DataError):
    def __init__(self, label: str):
        super().__init__(f"class {label!r} has no clip embeddings")


class LengthMismatch(DataError):
    pass


@dataclass(frozen=True)
class Prototypes:
    user_id: str
    labels: tuple[str, ...]
    raw: Matrix
    adapted: Matrix
    config_digest: str

    def __post_init__(self):
        n = len(self.labels)
        if n < 2:
            raise ValueError("need at least two classes")
        if len(set(self.labels)) != n:
            raise ValueError("class labels must be distinct")
        if self.raw.rows != n or self.adapted.rows != n:
            raise DimensionMismatch(
                f"{n} labels but {self.raw.rows}/{self.adapted.rows} prototype rows"
            )
        if self.raw.cols != self.adapted.cols:
            raise DimensionMismatch("raw/adapted dimension disagree")

    @property
    def dim(self) -> int:
        return self.raw.cols

    @cached_property
    def scoring_rows(self) -> list[tuple[Vector, float]]:
        """Each adapted row with its norm, computed on first use.

        A cached property, not a field: equality and the prototypes file
        see only the fields.
        """
        return [(row, norm(row)) for row in self.adapted.to_rows()]


@dataclass(frozen=True)
class Episode:
    user_id: str
    support: tuple[tuple[str, tuple[VideoRecord, ...]], ...]  # (label, clean videos)
    query: tuple[tuple[VideoRecord, tuple[str, ...]], ...]  # (video, per-frame truth)

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.support)


def build_episode(manifest: DatasetManifest, user_id: str) -> Episode:
    """Split one user's videos: clean -> support, clutter -> query.

    Every frame of a clutter video is labeled with the video's object —
    the benchmark convention; frames where the object happens to be absent
    still count against accuracy.
    """
    user: UserRecord = manifest.user(user_id)
    support = []
    query = []
    for obj in user.objects:
        support.append((obj.label, tuple(obj.videos_of_kind("clean"))))
        for video in obj.videos_of_kind("clutter"):
            query.append((video, (obj.label,) * video.num_frames))
    return Episode(user_id, tuple(support), tuple(query))


def compute_prototypes(per_class: list[tuple[str, list[Vector]]]) -> Matrix:
    """Row k = mean of class k's clip vectors, in the given class order."""
    rows = []
    for label, clips in per_class:
        if not clips:
            raise EmptyClass(label)
        rows.append(mean_vectors(clips))
    return Matrix.from_rows(rows)


def classify_clip(q: Vector, protos: Prototypes) -> tuple[str, list[float]]:
    """Cosine against every adapted prototype row; ties go to the lowest index."""
    if len(q) != protos.dim:
        raise DimensionMismatch(f"query dim {len(q)} != prototype dim {protos.dim}")
    nq = norm(q)
    scores = [cosine_similarity(q, row, nq, n) for row, n in protos.scoring_rows]
    best = max(range(len(scores)), key=lambda k: scores[k])
    return protos.labels[best], scores


def derive_video_seed(pipeline_seed: int, video_id: str) -> int:
    """Stable per-video sampling seed; independent of hash randomization."""
    digest = hashlib.sha256(f"{pipeline_seed}/{video_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class PipelineRuntime:
    """Everything personalize/recognize need, loaded and immutable."""

    sampler: SamplerConfig
    edge_filter: EdgeFilterConfig
    # Frames are embedded from pixels by a projection or looked up in a table.
    embedder: EmbedderSpec | PrecomputedTable
    adapter: TransformerWeights | None
    seed: int
    digest: str

    def frame_vector(self, video: VideoRecord, index: int, frame: Frame | None) -> Vector:
        """The one place that picks table row or pixels for a frame vector.

        A pixel vector is kept as an array('d') of the same floats, a
        quarter of a list's size, since a plan holds all of them at once.
        """
        if isinstance(self.embedder, PrecomputedTable):
            return self.embedder.vector(video.video_id, index)
        return array("d", embed_frame(frame, self.embedder))

    @property
    def needs_pixels(self) -> bool:
        return isinstance(self.embedder, EmbedderSpec)


def load_frames(video: VideoRecord, indices: list[int]) -> dict[int, Frame]:
    """Decode the given frames of one video in one loader call, if any."""
    if not indices:
        return {}
    paths = [video.frame_paths[i] for i in indices]
    return dict(zip(indices, load_frames_parallel(paths, LoaderConfig())))


@dataclass(frozen=True)
class VideoPlan:
    """One video's part of a plan: the frames to embed and the frames to gate.

    Both are sorted, distinct frame indices. With a `window` (a query video,
    whose `embed` is every frame) the executor returns each frame's causal
    clip mean over `window` frames in place of the frame's own vector.
    """

    video: VideoRecord
    embed: tuple[int, ...]
    gate: tuple[int, ...] = ()
    window: int = 0


def support_clips(
    episode: Episode, runtime: PipelineRuntime
) -> list[tuple[str, list[SampledClip]]]:
    """Each class's sampled clips, in support order.

    The sampler is seeded per video, so this reads no pixels.
    """
    out = []
    for label, videos in episode.support:
        clips = []
        for video in videos:
            cfg = replace(runtime.sampler, seed=derive_video_seed(runtime.seed, video.video_id))
            clips += [SampledClip(video.video_id, c) for c in sample_clips(video.num_frames, cfg)]
        out.append((label, clips))
    return out


def plan_support(episodes: list[Episode], runtimes: list[PipelineRuntime]) -> list[VideoPlan]:
    """Every support video's frames that some runtime samples, to embed.

    A runtime with the edge filter on adds its sampled frames to the gate.
    """
    videos = {v.video_id: v for ep in episodes for _, vs in ep.support for v in vs}
    embed: dict[str, set[int]] = {video_id: set() for video_id in videos}
    gate: dict[str, set[int]] = {video_id: set() for video_id in videos}
    for rt in runtimes:
        for ep in episodes:
            for _, clips in support_clips(ep, rt):
                for sc in clips:
                    embed[sc.video_id].update(sc.frames)
                    if rt.edge_filter.enabled:
                        gate[sc.video_id].update(sc.frames)
    return [
        VideoPlan(video, tuple(sorted(embed[video_id])), tuple(sorted(gate[video_id])))
        for video_id, video in videos.items()
    ]


def plan_query(video: VideoRecord, runtime: PipelineRuntime) -> VideoPlan:
    """Every frame of a query video, returned as causal clip means."""
    return VideoPlan(video, tuple(range(video.num_frames)), (), runtime.sampler.clip_length)


def video_frame_vectors(
    video: VideoRecord,
    runtime: PipelineRuntime,
    embed: Sequence[int],
    gate: Sequence[int] = (),
    window: int = 0,
) -> tuple[list[Vector], list[bool]]:
    """Decode, gate and embed one video's part of a plan.

    Returns the vectors of `embed` and the validity of `gate`, in order.
    Each frame whose pixels are read is decoded once. With a `window`, the
    vectors are every frame's causal clip mean instead (see VideoPlan).
    """
    to_decode = sorted(set(gate).union(embed)) if runtime.needs_pixels else list(gate)
    frames = load_frames(video, to_decode)
    # Only frames that a filter which is on reads are planned for the gate;
    # the arms of one run differ in `enabled` and share the thresholds.
    gate_cfg = replace(runtime.edge_filter, enabled=True)
    valid = [is_frame_valid(frames[i], gate_cfg) for i in gate]
    vectors = [runtime.frame_vector(video, i, frames.get(i)) for i in embed]
    if window:
        vectors = [
            array("d", mean_vectors([vectors[i] for i in clip]))
            for clip in causal_sliding_window(video.num_frames, window)
        ]
    return vectors, valid


# Below this many frames to embed, a plan runs in this process. On a 2-vCPU
# Intel Xeon VM (2.0 GHz), with the rigged 192x192 projection and two 32x32
# videos, two workers took 32-37 ms for 16 frames against 25-33 ms in this
# process, and 41-51 ms for 32 frames against 48-63 ms (medians of 9); see
# README, "Parallel embedding".
POOL_MIN_FRAMES = 32
_worker_runtime: PipelineRuntime | None = None  # a worker process's runtime


def _start_worker(runtime: PipelineRuntime) -> None:
    global _worker_runtime
    _worker_runtime = runtime


def _run_part(part: VideoPlan, runtime: PipelineRuntime | None = None):
    """One video's part of a plan, in this process or, without a runtime, in a worker."""
    runtime = runtime or _worker_runtime
    return video_frame_vectors(part.video, runtime, part.embed, part.gate, part.window)


def _map_in_workers(
    plan: Sequence[VideoPlan], runtime: PipelineRuntime, workers: int
) -> list[tuple[list[Vector], list[bool]]]:
    # Imported here, so that a run that starts no pool does not load them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, chosen rather than left to the platform default: the workers
    # start in milliseconds with the runtime already in memory, and the
    # initializer's argument is not pickled.
    pool = ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"), _start_worker, (runtime,)
    )
    try:
        return list(pool.map(_run_part, plan))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def embed_plan(
    plan: Sequence[VideoPlan], runtime: PipelineRuntime
) -> tuple[dict[tuple[str, int], Vector], dict[tuple[str, int], bool]]:
    """Decode, gate and embed a plan: vectors and validity by (video_id, index).

    Videos are split over one worker process per CPU this process may use,
    at most one per video. The plan runs in this process instead when that
    is one CPU, when the embedder is a table (no pixels to embed), or when
    the plan has fewer than POOL_MIN_FRAMES frames to embed. Each video's
    part is computed alike either way and merged in plan order, so the bits
    do not depend on the worker count. An error is the first in plan order.
    """
    workers = 1
    if runtime.needs_pixels and sum(1 for part in plan for _ in part.embed) >= POOL_MIN_FRAMES:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        workers = min(cpus, len(plan))
    if workers > 1:
        results = _map_in_workers(plan, runtime, workers)
    else:
        results = [_run_part(part, runtime) for part in plan]
    vectors: dict[tuple[str, int], Vector] = {}
    valid: dict[tuple[str, int], bool] = {}
    for part, (rows, flags) in zip(plan, results):
        video_id = part.video.video_id
        vectors.update(zip([(video_id, i) for i in part.embed], rows))
        valid.update(zip([(video_id, i) for i in part.gate], flags))
    return vectors, valid


def personalize(
    episode: Episode,
    runtime: PipelineRuntime,
    found: tuple[dict, dict] | None = None,
) -> tuple[Prototypes, list[ClipAudit]]:
    """Support-side stage: sample, filter, embed, average, adapt.

    `found` is `embed_plan`'s result for a plan that holds this episode's
    sampled frames under `runtime`; without it, the episode's own plan is
    run.
    """
    classes = support_clips(episode, runtime)
    if found is None:
        found = embed_plan(plan_support([episode], [runtime]), runtime)
    vectors, valid = found
    per_class: list[tuple[str, list[Vector]]] = []
    audits: list[ClipAudit] = []
    for label, clips in classes:
        retained, class_audits = filter_clips(clips, runtime.edge_filter, valid)
        audits.extend(class_audits)
        clip_vectors = [
            mean_vectors([vectors[sc.video_id, i] for i in sc.frames]) for sc in retained
        ]
        per_class.append((label, clip_vectors))
    raw = compute_prototypes(per_class)
    adapted = adapt_prototypes(raw, runtime.adapter) if runtime.adapter else raw
    protos = Prototypes(
        episode.user_id, episode.labels(), raw, adapted, runtime.digest
    )
    return protos, audits


@dataclass(frozen=True)
class FramePrediction:
    pred: str
    scores: tuple[float, ...]


def query_clip_vectors(video: VideoRecord, runtime: PipelineRuntime) -> list[array]:
    """Every frame's causal clip, averaged once, from a one-video plan."""
    vectors, _ = embed_plan([plan_query(video, runtime)], runtime)
    return [vectors[video.video_id, t] for t in range(video.num_frames)]


def recognize_video(
    video: VideoRecord, protos: Prototypes, runtime: PipelineRuntime
) -> list[FramePrediction]:
    """Query-side stage: one causal clip, one prediction, per frame."""
    out = []
    for clip in query_clip_vectors(video, runtime):
        label, scores = classify_clip(clip, protos)
        out.append(FramePrediction(label, tuple(scores)))
    return out


def per_user_accuracy(results: dict[str, list[tuple[list[str], list[str]]]]) -> dict[str, float]:
    """Micro-average within each user: pooled frames, one fraction per user."""
    out = {}
    for user_id, pairs in results.items():
        hits = total = 0
        for predicted, truth in pairs:
            if len(predicted) != len(truth):
                raise LengthMismatch(
                    f"user {user_id}: {len(predicted)} predictions vs {len(truth)} labels"
                )
            hits += sum(1 for p, t in zip(predicted, truth) if p == t)
            total += len(truth)
        if total == 0:
            raise LengthMismatch(f"user {user_id}: no frames to score")
        out[user_id] = hits / total
    return out


def save_prototypes(protos: Prototypes, path) -> None:
    doc = {
        "user_id": protos.user_id,
        "labels": list(protos.labels),
        "dim": protos.dim,
        "raw": protos.raw.to_rows(),
        "adapted": protos.adapted.to_rows(),
        "config_digest": protos.config_digest,
    }
    write_json(path, doc)


PROTOTYPES_KEYS = {
    "user_id": str, "labels": [str], "config_digest": str,
    "dim": int, "raw": ROWS, "adapted": ROWS,
}


def load_prototypes(path) -> Prototypes:
    """Prototypes JSON, read by PROTOTYPES_KEYS; every fault is a DataError."""
    doc = read_json(path, DataError, "prototypes file", PROTOTYPES_KEYS)
    try:
        protos = Prototypes(
            doc["user_id"], tuple(doc["labels"]), Matrix.from_rows(doc["raw"]),
            Matrix.from_rows(doc["adapted"]), doc["config_digest"],
        )
    except ValueError as exc:  # the dataclass's own checks raise either family
        raise DataError(f"bad prototypes file {path}: {exc}") from exc
    if doc["dim"] != protos.dim:
        raise DataError(f"declared dim {doc['dim']} != matrix dim {protos.dim}")
    return protos


def save_predictions(
    video_id: str, labels: tuple[str, ...], predictions: list[FramePrediction], path
) -> None:
    doc = {
        "video_id": video_id,
        "labels": list(labels),
        "per_frame": [
            {"pred": p.pred, "scores": list(p.scores)} for p in predictions
        ],
    }
    write_json(path, doc)
