"""Temporal sampling of fixed-length clips.

`sample_clips` is the one sampler of support videos, with two policies.
Support videos are split into non-overlapping L-frame candidates; the
uniform policy then partitions the candidates into equal chunks and picks
one clip per chunk, which guarantees temporal coverage at a constant rate.
The random policy (the older baseline behaviour) draws starts independently
and may over- or under-cover. The config holds the policy; the seed is an
argument, because `protonet.plan_support` derives one per video from the
pipeline seed. Query videos instead go through a causal sliding window: one
L-frame clip per frame, built only from the current and earlier frames.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ConfigError, DataError

POLICY_UNIFORM = "uniform"
POLICY_RANDOM = "random"

WITHIN_CHUNK_CHOICES = ("seeded_random", "first", "middle")


@dataclass(frozen=True)
class ClipIndex:
    """Half-open frame range [start, start + length)."""

    start: int
    length: int

    def frame_indices(self) -> list[int]:
        return list(range(self.start, self.start + self.length))


@dataclass(frozen=True)
class SamplerConfig:
    """A config file's `sampler` section; the seed is each call's own."""

    clip_length: int = 8
    clips_per_video: int = 4
    policy: str = POLICY_UNIFORM
    within_chunk: str = "middle"

    def __post_init__(self):
        if self.clip_length < 1:
            raise ConfigError("clip_length must be >= 1")
        if self.clips_per_video < 1:
            raise ConfigError("clips_per_video must be >= 1")
        if self.policy not in (POLICY_UNIFORM, POLICY_RANDOM):
            raise ConfigError(f"unknown policy {self.policy!r}")
        if self.within_chunk not in WITHIN_CHUNK_CHOICES:
            raise ConfigError(f"unknown within_chunk {self.within_chunk!r}")


def enumerate_candidates(num_frames: int, clip_length: int) -> list[ClipIndex]:
    """Non-overlapping candidates [0,L), [L,2L), ...; the remainder is dropped."""
    if clip_length < 1:
        raise ConfigError("clip_length must be >= 1")
    count = num_frames // clip_length
    return [ClipIndex(i * clip_length, clip_length) for i in range(count)]


def sample_clips(num_frames: int, cfg: SamplerConfig, seed: int) -> list[ClipIndex]:
    """`cfg.clips_per_video` clips of one video, drawn by `cfg.policy` from `seed`.

    Uniform: with C candidates and K requested clips, C <= K returns every
    candidate (short videos still contribute), and otherwise the first
    K*floor(C/K) candidates form K chunks of floor(C/K) each (trailing
    candidates dropped) with one pick per chunk. Random: K starts drawn
    uniformly (with replacement) from [0, num_frames - L], sorted. Under
    either policy a video shorter than one clip is a DataError.
    """
    if num_frames < cfg.clip_length:
        raise DataError(f"{num_frames} frames cannot fit a {cfg.clip_length}-frame clip")
    rng = random.Random(seed)
    k = cfg.clips_per_video
    if cfg.policy == POLICY_RANDOM:
        starts = sorted(rng.randint(0, num_frames - cfg.clip_length) for _ in range(k))
        return [ClipIndex(s, cfg.clip_length) for s in starts]
    candidates = enumerate_candidates(num_frames, cfg.clip_length)
    if len(candidates) <= k:
        return candidates
    chunk_size = len(candidates) // k
    picks = []
    for chunk in range(k):
        base = chunk * chunk_size
        if cfg.within_chunk == "seeded_random":
            offset = rng.randrange(chunk_size)
        else:
            offset = chunk_size // 2 if cfg.within_chunk == "middle" else 0
        picks.append(candidates[base + offset])
    return picks


def causal_sliding_window(num_frames: int, clip_length: int) -> list[list[int]]:
    """One clip per frame, using only current and past frames.

    The clip for frame t covers [t - L + 1, t]; indices below zero repeat
    frame 0, so early clips are left-padded with the first frame.
    """
    if num_frames < 1:
        raise DataError("num_frames must be >= 1")
    if clip_length < 1:
        raise ConfigError("clip_length must be >= 1")
    return [
        [max(0, i) for i in range(t - clip_length + 1, t + 1)]
        for t in range(num_frames)
    ]
