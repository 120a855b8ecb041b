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

Frames are read through a plan of clips. The sampler is seeded per
video, so the clips a run reads are known before any pixel is: per video,
the distinct sampled support clips or every query frame's causal window,
and the frames the edge filter gates. `plan_support` is the one place that
samples: each runtime samples each support video once, and its clips by
class come back with the plan. Whether a frame is gated is the plan's
decision alone. `embed_plan` is the one executor: per video, it decodes
each planned frame once, gates it and embeds it, and returns each clip's
mean keyed by (video_id, clip) and each gated frame's validity keyed by
(video_id, index); frame vectors never leave one video's job.
`personalize` and `recognize_video` run a plan of their own episode or
video; `evaluation.evaluate_users` runs one plan per user, for every arm.

`workers.map_split` maps a function over items in forked worker processes
when a plan has POOL_MIN_FRAMES planned frames or more (`plan_pays`). In a
one-episode run the video is the unit of parallel work
(`embed_plan` maps over the plan's videos); in an evaluate the user is, and
a worker runs its user's plan in its own process.
"""
from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass
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
from .workers import map_split


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


def classify_clip(q: Vector, nq: float, protos: Prototypes) -> tuple[str, list[float]]:
    """Cosine of q, of norm nq, against every adapted row; ties go to the lowest index."""
    if len(q) != protos.dim:
        raise ConfigError(f"query dim {len(q)} != prototype dim {protos.dim}")
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


def plan_support(
    episode: Episode, runtimes: list[PipelineRuntime]
) -> tuple[list[list[tuple[str, list[SampledClip]]]], list[VideoPlan]]:
    """Each runtime's sampled clips by class, and the plan that holds them all.

    Each runtime samples each support video once, seeded per video, so this
    reads no pixels; a video too short for one clip is a DataError that
    names it. The plan holds every support video's distinct sampled clips,
    and a runtime with the edge filter on adds its sampled frames to the gate.
    """
    parts = {v.video_id: (v, set(), set()) for _, vs in episode.support for v in vs}
    sampled = []
    for rt in runtimes:
        classes = []
        for label, videos in episode.support:
            clips = []
            for video in videos:
                seed = derive_video_seed(rt.seed, video.video_id)
                try:
                    picked = sample_clips(video.num_frames, rt.sampler, seed)
                except DataError as exc:
                    raise DataError(f"video {video.video_id!r}: {exc}") from exc
                _, planned, gate = parts[video.video_id]
                for clip in picked:
                    planned.add(tuple(clip.frame_indices()))
                    if rt.edge_filter.enabled:
                        gate.update(clip.frame_indices())
                clips += [SampledClip(video.video_id, c) for c in picked]
            classes.append((label, clips))
        sampled.append(classes)
    return sampled, [
        VideoPlan(video, tuple(sorted(clips)), tuple(sorted(gate)))
        for video, clips, gate in parts.values()
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
) -> tuple[list[Vector], list[bool]]:
    """Decode, gate and embed one video's part of a plan.

    Returns each clip's mean, in order, and the validity of `gate`. Each
    frame of the clips is embedded once, and each frame whose pixels are
    read is decoded once. A fault inside a frame, in the gate or the
    embedding, names the frame's file.
    """
    embed = sorted(set().union(*clips))
    to_decode = sorted(set(gate).union(embed)) if runtime.needs_pixels else list(gate)
    frames = load_frames(video, to_decode)
    valid = [_in_frame(video, i, is_frame_valid, frames[i], runtime.edge_filter) for i in gate]
    vectors = {i: runtime.frame_vector(video, i, frames.get(i)) for i in embed}
    means = [mean_vectors([vectors[i] for i in clip]) for clip in clips]
    return means, valid


# Below this many planned frames, `map_split` runs here.
# On a 2-vCPU Intel Xeon VM (2.0 GHz) two workers won an evaluate from 64
# planned frames with the rigged 192x192 projection or a dim-192 table, but
# lost below about 150 with the tests' dim-16 projection or table (84 ms
# against 66 ms in this process at 108 frames); see README, "Parallel work".
POOL_MIN_FRAMES = 128


def plan_pays(plan: Sequence[VideoPlan]) -> bool:
    """Whether a plan's work pays for worker processes in `map_split`.

    Its work is the frames it embeds or gates; POOL_MIN_FRAMES of them pay.
    """
    planned = sum(1 for part in plan for _ in set(part.gate).union(*part.clips))
    return planned >= POOL_MIN_FRAMES


def embed_plan(
    plan: Sequence[VideoPlan], runtime: PipelineRuntime
) -> tuple[dict[tuple[str, tuple[int, ...]], Vector], dict[tuple[str, int], bool]]:
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
        plan_pays(plan),
    )
    means: dict[tuple[str, tuple[int, ...]], Vector] = {}
    valid: dict[tuple[str, int], bool] = {}
    for part, (rows, flags) in zip(plan, results):
        video_id = part.video.video_id
        means.update(zip([(video_id, clip) for clip in part.clips], rows))
        valid.update(zip([(video_id, i) for i in part.gate], flags))
    return means, valid


def personalize(
    episode: Episode,
    runtime: PipelineRuntime,
    found: tuple[list, dict, dict] | None = None,
) -> tuple[Prototypes, list[ClipAudit]]:
    """Support-side stage: filter the sampled clips, average, adapt.

    `found` is `plan_support`'s clips by class for this episode under
    `runtime`, then `embed_plan`'s result for a plan that holds them;
    without it, the episode's own plan is made and run.
    """
    if found is None:
        (classes,), plan = plan_support(episode, [runtime])
        found = (classes, *embed_plan(plan, runtime))
    classes, means, valid = found
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


def recognize_video(
    video: VideoRecord, protos: Prototypes, runtime: PipelineRuntime
) -> list[FramePrediction]:
    """Query-side stage: per frame, its causal clip's mean from a one-video plan, classified."""
    part = plan_query(video, runtime)
    means, _ = embed_plan([part], runtime)
    out = []
    for clip in part.clips:
        mean = means[video.video_id, clip]
        label, scores = classify_clip(mean, norm(mean), protos)
        out.append(FramePrediction(label, tuple(scores)))
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
