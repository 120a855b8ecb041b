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
the distinct sampled support clips or every query frame's causal window.
`plan_support` is the one place that samples: each runtime samples each
support video once, and its clips by class come back with the plan. A
clip sampled by a runtime with the edge filter on is voted on, and one
sampled by a runtime without it is averaged. Whether a frame is gated is
the plan's decision alone. `embed_plan` is the one executor: per video, it
decodes each planned frame once, votes on each voted clip from as few
gated frames as fix the majority rule, gates any frame the plan lists in
full, and embeds and averages the averaged clips and the voted clips the
vote keeps. It returns clip means keyed by (video_id, clip), each voted
clip's (invalid, checked) keyed the same way, and each fully gated frame's
validity keyed by (video_id, index); frame vectors never leave one video's
job. `personalize` and `recognize_video` run a plan of their own episode or
video; `evaluation.evaluate_users` runs one plan per user, for every arm.
Only when votes drop every clip of a class does `personalize` run one more
plan, which gates those clips' unread frames so the override sees full
counts.

`workers.map_in_workers` maps a function over items in forked worker
processes, one per usable CPU when a plan's planned frames times the
embedding dim reach POOL_MIN_WORK (`plan_workers`). In a one-episode run
the video is the unit of parallel work (`embed_plan` maps over the plan's
videos); in an evaluate the user is, and a worker runs its user's plan in
its own process.

`Prototypes` and `PipelineRuntime` check themselves however they are
built: every prototype row has a finite norm, and an adapter's `d` is the
embedder's dim.
"""
from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from . import workers
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
    majority_invalid,
    vote,
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
    # Each adapted row with its norm; equality and the prototypes file skip it.
    scoring_rows: list[tuple[Vector, float]] = field(init=False, repr=False, compare=False)

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
        for key in ("raw", "adapted"):
            scoring_rows = []
            for i, row in enumerate(getattr(self, key).to_rows()):
                # A finite norm bounds every entry, as for a table row, so no
                # cosine against the row overflows later.
                if not math.isfinite(row_norm := norm(row)):
                    raise DataError(f"{key}[{i}] has a non-finite norm")
                scoring_rows.append((row, row_norm))
        # The loop ends on the adapted rows, the ones `classify_clip` scores.
        object.__setattr__(self, "scoring_rows", scoring_rows)

    @property
    def dim(self) -> int:
        return self.raw.cols


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

    def __post_init__(self):
        if self.adapter is not None and self.adapter.d != self.embedder.dim:
            raise ConfigError(f"adapter dim {self.adapter.d} != embedder dim {self.embedder.dim}")

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
    """One video's part of a plan: clips to average, clips to vote on, frames to gate.

    A clip is a tuple of the video's frame indices: a sampled support clip,
    or a query frame's causal window. The executor returns the mean of each
    clip in `clips` and of each clip in `voted` that the vote keeps, each
    voted clip's (invalid, checked), and the validity of each frame in
    `gate`, a sorted tuple of distinct frame indices.
    """

    video: VideoRecord
    clips: tuple[tuple[int, ...], ...]
    voted: tuple[tuple[int, ...], ...] = ()
    gate: tuple[int, ...] = ()


def plan_support(
    episode: Episode, runtimes: list[PipelineRuntime]
) -> tuple[list[list[tuple[str, list[SampledClip]]]], list[VideoPlan]]:
    """Each runtime's sampled clips by class, and the plan that holds them all.

    Each runtime samples each support video once, seeded per video, so this
    reads no pixels; a video too short for one clip is a DataError that
    names it. The plan holds every support video's distinct sampled clips:
    a runtime with the edge filter on adds its clips to those voted on, and
    any other runtime to those averaged.
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
                _, averaged, voted = parts[video.video_id]
                (voted if rt.edge_filter.enabled else averaged).update(
                    tuple(clip.frame_indices()) for clip in picked
                )
                clips += [SampledClip(video.video_id, c) for c in picked]
            classes.append((label, clips))
        sampled.append(classes)
    return sampled, [
        VideoPlan(video, tuple(sorted(clips)), tuple(sorted(voted)))
        for video, clips, voted in parts.values()
    ]


def plan_query(video: VideoRecord, runtime: PipelineRuntime) -> VideoPlan:
    """A query video's causal windows, one per frame, in frame order."""
    windows = causal_sliding_window(video.num_frames, runtime.sampler.clip_length)
    return VideoPlan(video, tuple(map(tuple, windows)))


def video_frame_vectors(
    video: VideoRecord,
    runtime: PipelineRuntime,
    clips: Sequence[Sequence[int]],
    voted: Sequence[Sequence[int]] = (),
    gate: Sequence[int] = (),
) -> tuple[dict[tuple[int, ...], Vector], list[tuple[int, int]], list[bool]]:
    """Decode, gate and embed one video's part of a plan.

    Returns the means of `clips` and of the voted clips the vote keeps,
    keyed by clip; each voted clip's (invalid, checked), in order, from
    `vote`; and the validity of `gate`. Every planned frame is decoded
    once, a frame that voted clips share is gated once, and each frame of
    an averaged clip is embedded once. A fault inside a frame, in the gate
    or the embedding, names the frame's file.
    """
    planned = set(gate).union(*voted)
    to_decode = sorted(planned.union(*clips) if runtime.needs_pixels else planned)
    frames = load_frames(video, to_decode)
    valid: dict[int, bool] = {}
    cfg = runtime.edge_filter
    votes = [
        vote(
            (
                valid[i] if i in valid
                else valid.setdefault(i, _in_frame(video, i, is_frame_valid, frames[i], cfg))
                for i in clip
            ),
            len(clip),
        )
        for clip in voted
    ]
    averaged = dict.fromkeys(map(tuple, clips))
    averaged.update(
        (tuple(clip), None)
        for clip, (invalid, _) in zip(voted, votes)
        if not majority_invalid(invalid, len(clip))
    )
    flags = [_in_frame(video, i, is_frame_valid, frames[i], cfg) for i in gate]
    embed = sorted(set().union(*averaged))
    vectors = {i: runtime.frame_vector(video, i, frames.get(i)) for i in embed}
    means = {clip: mean_vectors([vectors[i] for i in clip]) for clip in averaged}
    return means, votes, flags


# Below this much work, planned frames times the embedding dim, a plan runs
# here. On a 2-vCPU Intel Xeon VM (2.0 GHz) two workers lost an evaluate of
# 254 planned frames with the tests' dim-16 projection or table (4,064) and
# won from 64 planned frames with the rigged 192x192 projection or a
# dim-192 table (12,288); a split by video won from 32 rigged frames
# (6,144). See README, "Parallel work".
POOL_MIN_WORK = 6_144


def plan_workers(plan: Sequence[VideoPlan], dim: int) -> int:
    """The workers a plan's work pays for: every usable CPU, or 1 below POOL_MIN_WORK.

    Its work is the frames it may embed or gate, every frame of a voted
    clip included, times `dim`, the embedding dim.
    """
    planned = sum(
        1 for part in plan for _ in set(part.gate).union(*part.clips, *part.voted)
    )
    return workers.usable_cpus() if planned * dim >= POOL_MIN_WORK else 1


def embed_plan(
    plan: Sequence[VideoPlan], runtime: PipelineRuntime
) -> tuple[dict, dict, dict[tuple[str, int], bool]]:
    """Run a plan: clip means and votes by (video_id, clip), validity by (video_id, index).

    The videos are the items of `workers.map_in_workers`: a plan whose
    planned frames times the embedding dim reach POOL_MIN_WORK, with either
    embedder, is split by video over worker processes, unless this process
    is itself a worker.
    Each video's part is computed alike either way and merged in plan
    order, so the bits do not depend on the worker count. An error is the
    first in plan order.
    """
    results = workers.map_in_workers(
        lambda part: video_frame_vectors(
            part.video, runtime, part.clips, part.voted, part.gate
        ),
        plan,
        plan_workers(plan, runtime.embedder.dim),
    )
    means: dict[tuple[str, tuple[int, ...]], Vector] = {}
    votes: dict[tuple[str, tuple[int, ...]], tuple[int, int]] = {}
    valid: dict[tuple[str, int], bool] = {}
    for part, (rows, counts, flags) in zip(plan, results):
        video_id = part.video.video_id
        means.update(((video_id, clip), mean) for clip, mean in rows.items())
        votes.update(zip([(video_id, clip) for clip in part.voted], counts))
        valid.update(zip([(video_id, i) for i in part.gate], flags))
    return means, votes, valid


def complete_lost_classes(
    episode: Episode, classes: list, means: dict, votes: dict, runtime: PipelineRuntime
) -> tuple[dict, dict]:
    """Means and votes once every class whose votes drop all its clips is counted in full.

    The override needs each such clip's true invalid count, so one more
    plan gates the frames its vote left unread and averages it if it has
    no mean yet. Returns new dicts, or the given ones when no class needs
    that.
    """
    lost = set()
    for _, clips in classes:
        keys = [(sc.video_id, tuple(sc.frames)) for sc in clips]
        if keys and all(majority_invalid(votes[key][0], len(key[1])) for key in keys):
            lost.update(keys)
    lost = sorted(lost)
    if not lost:
        return means, votes
    videos = {v.video_id: v for _, vs in episode.support for v in vs}
    more, _, valid = embed_plan(
        [
            VideoPlan(
                videos[video_id],
                () if (video_id, clip) in means else (clip,),
                gate=clip[votes[video_id, clip][1]:],
            )
            for video_id, clip in lost
        ],
        runtime,
    )
    votes = dict(votes)
    for video_id, clip in lost:
        invalid, checked = votes[video_id, clip]
        invalid += sum(1 for i in clip[checked:] if not valid[video_id, i])
        votes[video_id, clip] = (invalid, len(clip))
    return {**means, **more}, votes


def personalize(
    episode: Episode,
    runtime: PipelineRuntime,
    found: tuple[list, dict, dict] | None = None,
) -> tuple[Prototypes, list[ClipAudit]]:
    """Support-side stage: filter the sampled clips, average, adapt.

    `found` is `plan_support`'s clips by class for this episode under
    `runtime`, then the clip means and votes of `embed_plan` for a plan
    that holds them; without it, the episode's own plan is made and run,
    so a clip the filter drops is embedded only if its class needs the
    override.
    """
    if found is None:
        (classes,), plan = plan_support(episode, [runtime])
        found = (classes, *embed_plan(plan, runtime)[:2])
    classes, means, votes = found
    if runtime.edge_filter.enabled:
        means, votes = complete_lost_classes(episode, classes, means, votes, runtime)
    per_class: list[tuple[str, list[Vector]]] = []
    audits: list[ClipAudit] = []
    for label, clips in classes:
        retained, class_audits = filter_clips(clips, runtime.edge_filter, votes)
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
    means, _, _ = embed_plan([part], runtime)
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
    """Prototypes JSON, read by PROTOTYPES_KEYS and `Prototypes`; every fault is a DataError."""
    def build(doc) -> Prototypes:
        protos = Prototypes(
            doc["user_id"], tuple(doc["labels"]), Matrix.from_rows(doc["raw"]),
            Matrix.from_rows(doc["adapted"]), doc["config_digest"],
        )
        if doc["dim"] != protos.dim:
            raise DataError(f"declared dim {doc['dim']} != matrix dim {protos.dim}")
        return protos

    return read_json(path, DataError, "prototypes file", PROTOTYPES_KEYS, build=build)


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
