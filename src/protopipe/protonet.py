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
"""
from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property

from .adaptation import TransformerWeights, adapt_prototypes
from .clip_sampling import SamplerConfig, causal_sliding_window, sample_clips
from .embedding import EmbedderSpec, PrecomputedTable, embed_frame
from .errors import ROWS, DataError, read_json, write_json
from .frame_validity import ClipAudit, EdgeFilterConfig, SampledClip, filter_clips
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
    # Pixel-path frame vectors by (video_id, index). `evaluate_users` gives
    # each call its own dict, which `replace` hands on to every arm (no arm
    # changes the embedder). None elsewhere: nothing is kept.
    frame_memo: dict[tuple[str, int], array] | None = field(
        default=None, compare=False, repr=False
    )

    def frame_vector(self, video: VideoRecord, index: int, frame: Frame | None) -> Vector:
        """The one place that picks table row or pixels for a frame vector.

        With a frame memo each (video_id, index) is embedded once; the memo
        keeps the vector as an array('d') of the same floats, a quarter of a
        list's size, and returns that array on every later call.
        """
        if isinstance(self.embedder, PrecomputedTable):
            return self.embedder.vector(video.video_id, index)
        key = (video.video_id, index)
        memo = self.frame_memo
        if memo is not None and key in memo:
            return memo[key]
        if frame is None:
            raise ValueError("pixel embedder needs a decoded frame")
        vector = embed_frame(frame, self.embedder)
        if memo is not None:
            vector = memo[key] = array("d", vector)
        return vector

    @property
    def needs_pixels(self) -> bool:
        return isinstance(self.embedder, EmbedderSpec)

    def must_embed(self, video: VideoRecord, index: int) -> bool:
        """True when `frame_vector` would embed this frame from its pixels."""
        memo = self.frame_memo
        return self.needs_pixels and (memo is None or (video.video_id, index) not in memo)


def load_frames(video: VideoRecord, indices: list[int]) -> dict[int, Frame]:
    """Decode the given frames of one video in one loader call, if any."""
    if not indices:
        return {}
    paths = [video.frame_paths[i] for i in indices]
    return dict(zip(indices, load_frames_parallel(paths, LoaderConfig())))


def personalize(
    episode: Episode, runtime: PipelineRuntime
) -> tuple[Prototypes, list[ClipAudit]]:
    """Support-side stage: sample, filter, embed, average, adapt.

    A frame is decoded only when something reads its pixels: the edge
    filter reads every sampled frame, the embedder only the frames it has
    no vector for yet.
    """
    gated = runtime.edge_filter.enabled
    per_class: list[tuple[str, list[Vector]]] = []
    audits: list[ClipAudit] = []
    for label, videos in episode.support:
        sampled: list[SampledClip] = []
        by_video: dict[str, tuple[VideoRecord, dict[int, Frame]]] = {}
        for video in videos:
            cfg = replace(runtime.sampler, seed=derive_video_seed(runtime.seed, video.video_id))
            clips = sample_clips(video.num_frames, cfg)
            needed = sorted({i for clip in clips for i in clip.frame_indices()})
            decoded = load_frames(
                video, [i for i in needed if gated or runtime.must_embed(video, i)]
            )
            by_video[video.video_id] = (video, decoded)
            for clip in clips:
                clip_frames = [decoded[i] for i in clip.frame_indices()] if gated else []
                sampled.append(SampledClip(video.video_id, clip, clip_frames))
        retained, class_audits = filter_clips(sampled, runtime.edge_filter)
        audits.extend(class_audits)
        clip_vectors = []
        for sc in retained:
            video, decoded = by_video[sc.video_id]
            vectors = [
                runtime.frame_vector(video, i, decoded.get(i))
                for i in sc.clip.frame_indices()
            ]
            clip_vectors.append(mean_vectors(vectors))
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


def video_frame_vectors(video: VideoRecord, runtime: PipelineRuntime) -> list[Vector]:
    """Every frame's vector, in order, decoding only the frames to embed."""
    indices = range(video.num_frames)
    frames = load_frames(video, [i for i in indices if runtime.must_embed(video, i)])
    return [runtime.frame_vector(video, i, frames.get(i)) for i in indices]


def query_clip_vectors(video: VideoRecord, runtime: PipelineRuntime) -> list[array]:
    """Every frame's causal clip, averaged once, kept as an array('d')."""
    vectors = video_frame_vectors(video, runtime)
    return [
        array("d", mean_vectors([vectors[i] for i in window]))
        for window in causal_sliding_window(video.num_frames, runtime.sampler.clip_length)
    ]


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
