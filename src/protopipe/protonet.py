"""Prototype construction, cosine classification, and the episode protocol.

An episode is one user's data split two ways: their clean videos form the
support set and their clutter videos the query set. Personalization samples
clips from each support video, drops clips dominated by invalid frames,
averages the survivors' clip means per class into prototypes, then
optionally refines the stacked prototypes with a set-to-set adapter.
Recognition classifies every query frame's causal clip against the adapted
prototypes by cosine similarity. A clip's mean depends only on the
embedder, never on the prototypes, so one set of clip means serves any
number of prototype sets.

Frames are read through a plan of clips. The samplers are seeded per
video, so the clips a run reads are known before any pixel is: per video,
the distinct sampled support clips or every query frame's causal window,
and the frames the edge filter gates. `embed_plan` is the one executor: per
video, it decodes each planned frame once, gates it and embeds it, and
returns each clip's mean keyed by (video_id, clip) and each gated frame's
validity keyed by (video_id, index); frame vectors never leave one video's
job. `personalize` and `recognize_video` run a plan of their own episode or
video; `evaluation.evaluate_users` runs one plan per user, for every arm.

`map_split` is the one pool: it maps a function over items in forked
worker processes when the planned work pays for them. In a one-episode
run the video is the unit of parallel work (`embed_plan` maps over the
plan's videos); in an evaluate the user is, and a worker runs its user's
plan in its own process.
"""
from __future__ import annotations

import hashlib
import math
import os
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

from .adaptation import TransformerWeights, adapt_prototypes
from .clip_sampling import SamplerConfig, causal_sliding_window, sample_clips
from .embedding import EmbedderSpec, PrecomputedTable, embed_frame
from .errors import ROWS, ConfigError, DataError, read_json, write_json
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
from .numerics import Matrix, Vector, cosine_similarity, mean_vectors, norm


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
            raise DataError("need at least two classes")
        if len(set(self.labels)) != n:
            raise DataError("class labels must be distinct")
        if self.raw.rows != n or self.adapted.rows != n:
            raise ConfigError(
                f"{n} labels but {self.raw.rows}/{self.adapted.rows} prototype rows"
            )
        if self.raw.cols != self.adapted.cols:
            raise ConfigError("raw/adapted dimension disagree")

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
            raise DataError(f"class {label!r} has no clip embeddings")
        rows.append(mean_vectors(clips))
    return Matrix.from_rows(rows)


def classify_clip(q: Vector, protos: Prototypes) -> tuple[str, list[float]]:
    """Cosine against every adapted prototype row; ties go to the lowest index."""
    if len(q) != protos.dim:
        raise ConfigError(f"query dim {len(q)} != prototype dim {protos.dim}")
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
        """The one place that picks table row or pixels for a frame vector."""
        if isinstance(self.embedder, PrecomputedTable):
            return self.embedder.vector(video.video_id, index)
        return _in_frame(video, index, embed_frame, frame, self.embedder)

    @property
    def needs_pixels(self) -> bool:
        return isinstance(self.embedder, EmbedderSpec)


def _in_frame(video: VideoRecord, index: int, fn, *args):
    """`fn(*args)` on one decoded frame; a fault there names the frame's file."""
    try:
        return fn(*args)
    except (ConfigError, DataError) as exc:
        raise type(exc)(f"{video.frame_paths[index]}: {exc}") from exc


def load_frames(video: VideoRecord, indices: list[int]) -> dict[int, Frame]:
    """Decode the given frames of one video in one loader call, if any."""
    if not indices:
        return {}
    paths = [video.frame_paths[i] for i in indices]
    return dict(zip(indices, load_frames_parallel(paths, LoaderConfig())))


@dataclass(frozen=True)
class VideoPlan:
    """One video's part of a plan: the clips to average and the frames to gate.

    A clip is a tuple of the video's frame indices: a sampled support clip,
    or a query frame's causal window. The executor returns each clip's mean
    and the validity of each frame in `gate`, a sorted tuple of distinct
    frame indices.
    """

    video: VideoRecord
    clips: tuple[tuple[int, ...], ...]
    gate: tuple[int, ...] = ()


def support_clips(
    episode: Episode, runtime: PipelineRuntime
) -> list[tuple[str, list[SampledClip]]]:
    """Each class's sampled clips, in support order.

    The sampler is seeded per video, so this reads no pixels. A video too
    short for one clip is a DataError that names it.
    """
    out = []
    for label, videos in episode.support:
        clips = []
        for video in videos:
            cfg = replace(runtime.sampler, seed=derive_video_seed(runtime.seed, video.video_id))
            try:
                sampled = sample_clips(video.num_frames, cfg)
            except DataError as exc:
                raise DataError(f"video {video.video_id!r}: {exc}") from exc
            clips += [SampledClip(video.video_id, c) for c in sampled]
        out.append((label, clips))
    return out


def plan_support(episode: Episode, runtimes: list[PipelineRuntime]) -> list[VideoPlan]:
    """Every support video's distinct clips that some runtime samples.

    A runtime with the edge filter on adds its sampled frames to the gate.
    """
    videos = {v.video_id: v for _, vs in episode.support for v in vs}
    clips: dict[str, set[tuple[int, ...]]] = {video_id: set() for video_id in videos}
    gate: dict[str, set[int]] = {video_id: set() for video_id in videos}
    for rt in runtimes:
        for _, sampled in support_clips(episode, rt):
            for sc in sampled:
                clips[sc.video_id].add(tuple(sc.frames))
                if rt.edge_filter.enabled:
                    gate[sc.video_id].update(sc.frames)
    return [
        VideoPlan(video, tuple(sorted(clips[video_id])), tuple(sorted(gate[video_id])))
        for video_id, video in videos.items()
    ]


def plan_query(video: VideoRecord, runtime: PipelineRuntime) -> VideoPlan:
    """A query video's causal windows, one per frame, in frame order."""
    windows = causal_sliding_window(video.num_frames, runtime.sampler.clip_length)
    return VideoPlan(video, tuple(map(tuple, windows)))


def video_frame_vectors(
    video: VideoRecord,
    runtime: PipelineRuntime,
    clips: Sequence[Sequence[int]],
    gate: Sequence[int] = (),
) -> tuple[list[array], list[bool]]:
    """Decode, gate and embed one video's part of a plan.

    Returns each clip's mean as an array('d'), in order, and the validity
    of `gate`. Each frame of the clips is embedded once, and each frame
    whose pixels are read is decoded once. A fault inside a frame, in the
    gate or the embedding, names the frame's file.
    """
    embed = sorted(set().union(*clips))
    to_decode = sorted(set(gate).union(embed)) if runtime.needs_pixels else list(gate)
    frames = load_frames(video, to_decode)
    # Only frames that a filter which is on reads are planned for the gate;
    # the arms of one run differ in `enabled` and share the thresholds.
    gate_cfg = replace(runtime.edge_filter, enabled=True)
    valid = [_in_frame(video, i, is_frame_valid, frames[i], gate_cfg) for i in gate]
    vectors = {i: runtime.frame_vector(video, i, frames.get(i)) for i in embed}
    means = [array("d", mean_vectors([vectors[i] for i in clip])) for clip in clips]
    return means, valid


# Below this many planned frames (`planned_frames`), `map_split` runs here.
# On a 2-vCPU Intel Xeon VM (2.0 GHz) two workers won an evaluate from 64
# planned frames with the rigged 192x192 projection or a dim-192 table, but
# lost below about 150 with the tests' dim-16 projection or table (84 ms
# against 66 ms in this process at 108 frames); see README, "Parallel work".
POOL_MIN_FRAMES = 128
_worker_fn = None  # the function a worker process maps, set when it starts


def _usable_cpus() -> int:
    """CPUs this process may use; one in a worker, which starts no pool."""
    if _worker_fn is not None or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def planned_frames(plan: Sequence[VideoPlan]) -> int:
    """How many frames a plan embeds or gates: its work, for `map_split`."""
    return sum(1 for part in plan for _ in set(part.gate).union(*part.clips))


def _start_worker(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _call_in_worker(item):
    return _worker_fn(item)


def _map_in_workers(fn, items: Sequence, workers: int) -> list:
    # Imported here, so that a run that starts no pool does not load them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, chosen rather than left to the platform default: the workers
    # start in milliseconds with the runtime already in memory, and the
    # initializer's argument, `fn` with all it holds, is not pickled.
    pool = ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"), _start_worker, (fn,)
    )
    try:
        return list(pool.map(_call_in_worker, items))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def map_split(fn, items: Sequence, frames: int) -> list:
    """`[fn(item) for item in items]`, split over worker processes if it pays.

    The items are split over one forked worker per CPU this process may
    use, at most one per item, when `frames`, the planned frames of all the
    items, is at least POOL_MIN_FRAMES; else they run here, as they do in a
    worker. This is the one pool in the package. Results come back in item
    order, and an error is the first in item order, either way.
    """
    workers = min(_usable_cpus(), len(items)) if frames >= POOL_MIN_FRAMES else 1
    if workers > 1:
        return _map_in_workers(fn, items, workers)
    return [fn(item) for item in items]


def embed_plan(
    plan: Sequence[VideoPlan], runtime: PipelineRuntime
) -> tuple[dict[tuple[str, tuple[int, ...]], array], dict[tuple[str, int], bool]]:
    """Run a plan: clip means by (video_id, clip), validity by (video_id, index).

    The videos are the items of `map_split`: a plan of at least
    POOL_MIN_FRAMES planned frames, with either embedder, is split by video
    over worker processes, unless this process is itself a worker. Each
    video's part is computed alike either way and merged in plan order, so
    the bits do not depend on the worker count. An error is the first in
    plan order.
    """
    results = map_split(
        lambda part: video_frame_vectors(part.video, runtime, part.clips, part.gate),
        plan,
        planned_frames(plan),
    )
    means: dict[tuple[str, tuple[int, ...]], array] = {}
    valid: dict[tuple[str, int], bool] = {}
    for part, (rows, flags) in zip(plan, results):
        video_id = part.video.video_id
        means.update(zip([(video_id, clip) for clip in part.clips], rows))
        valid.update(zip([(video_id, i) for i in part.gate], flags))
    return means, valid


def personalize(
    episode: Episode,
    runtime: PipelineRuntime,
    found: tuple[dict, dict] | None = None,
) -> tuple[Prototypes, list[ClipAudit]]:
    """Support-side stage: sample, filter, average, adapt.

    `found` is `embed_plan`'s result for a plan that holds this episode's
    sampled clips under `runtime`; without it, the episode's own plan is
    run. Each retained clip's mean is picked from it.
    """
    classes = support_clips(episode, runtime)
    if found is None:
        found = embed_plan(plan_support(episode, [runtime]), runtime)
    means, valid = found
    per_class: list[tuple[str, list[Vector]]] = []
    audits: list[ClipAudit] = []
    for label, clips in classes:
        retained, class_audits = filter_clips(clips, runtime.edge_filter, valid)
        audits.extend(class_audits)
        per_class.append((label, [means[sc.video_id, tuple(sc.frames)] for sc in retained]))
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
    """Every frame's causal clip mean, in frame order, from a one-video plan."""
    part = plan_query(video, runtime)
    means, _ = embed_plan([part], runtime)
    return [means[video.video_id, clip] for clip in part.clips]


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
                raise DataError(
                    f"user {user_id}: {len(predicted)} predictions vs {len(truth)} labels"
                )
            hits += sum(1 for p, t in zip(predicted, truth) if p == t)
            total += len(truth)
        if total == 0:
            raise DataError(f"user {user_id}: no frames to score")
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
    for key in ("raw", "adapted"):
        for i, row in enumerate(doc[key]):
            # A finite norm bounds every entry, as for a table row, so no
            # cosine against the row overflows later.
            if not math.isfinite(norm(row)):
                raise DataError(f"bad prototypes file {path}: {key}[{i}] has a non-finite norm")
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
