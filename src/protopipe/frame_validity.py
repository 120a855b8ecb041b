"""Invalid-frame detection.

A frame "contains something" when enough of its interior pixels have a
Sobel gradient magnitude above a threshold. Clips in which more than half
of the frames fail that check are dropped from the support set, except that
a class may never lose all of its clips: the least-invalid clip survives.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .clip_sampling import ClipIndex
from .errors import DataError
from .media_io.pnm import Frame
from .numerics import Matrix

logger = logging.getLogger(__name__)


class FrameTooSmall(DataError):
    pass


class UnsupportedChannels(DataError):
    pass


@dataclass(frozen=True)
class EdgeFilterConfig:
    tau_mag: float = 32.0  # Sobel magnitude threshold (8-bit scale, 0..~1443)
    tau_density: float = 0.01  # fraction of interior pixels that must exceed it
    enabled: bool = True

    def __post_init__(self):
        # Thresholds are held as floats, so 32 and 32.0 are one config.
        for name in ("tau_mag", "tau_density"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.tau_mag < 0:
            raise ValueError("tau_mag must be >= 0")
        if not 0.0 <= self.tau_density <= 1.0:
            raise ValueError("tau_density must be in [0, 1]")


def to_grayscale(frame: Frame) -> Frame:
    """BT.601 luma, rounded half-up; grayscale input passes through."""
    if frame.channels == 1:
        return frame
    if frame.channels != 3:
        raise UnsupportedChannels(f"{frame.channels} channels")
    px = frame.pixels
    gray = bytearray(frame.width * frame.height)
    for i in range(len(gray)):
        base = 3 * i
        y = 0.299 * px[base] + 0.587 * px[base + 1] + 0.114 * px[base + 2]
        gray[i] = min(255, int(y + 0.5))
    return Frame(frame.width, frame.height, 1, bytes(gray))


def sobel_magnitude(gray: Frame) -> Matrix:
    """Gradient magnitude sqrt(Gx^2 + Gy^2) for every interior pixel.

    Border pixels are excluded rather than padded, so the result is
    (height-2) x (width-2).
    """
    if gray.channels != 1:
        raise UnsupportedChannels("sobel_magnitude needs a grayscale frame")
    w, h = gray.width, gray.height
    if w < 3 or h < 3:
        raise FrameTooSmall(f"{w}x{h}: Sobel needs at least 3x3")
    px = gray.pixels
    out = [0.0] * ((h - 2) * (w - 2))
    pos = 0
    for y in range(1, h - 1):
        up = (y - 1) * w
        mid = y * w
        dn = (y + 1) * w
        for x in range(1, w - 1):
            a = px[up + x - 1]
            b = px[up + x]
            c = px[up + x + 1]
            d = px[mid + x - 1]
            f = px[mid + x + 1]
            g = px[dn + x - 1]
            i = px[dn + x]
            j = px[dn + x + 1]
            gx = (c + 2 * f + j) - (a + 2 * d + g)
            gy = (g + 2 * i + j) - (a + 2 * b + c)
            out[pos] = math.sqrt(gx * gx + gy * gy)
            pos += 1
    return Matrix(h - 2, w - 2, out)


def edge_density(gray: Frame, tau_mag: float) -> float:
    """Fraction of interior pixels whose Sobel magnitude exceeds tau_mag."""
    magnitudes = sobel_magnitude(gray)
    total = len(magnitudes.values)
    hits = sum(1 for m in magnitudes.values if m > tau_mag)
    return hits / total


def is_frame_valid(frame: Frame, cfg: EdgeFilterConfig) -> bool:
    """True when the frame's edge density clears cfg.tau_density."""
    if not cfg.enabled:
        return True
    return edge_density(to_grayscale(frame), cfg.tau_mag) >= cfg.tau_density


@dataclass(frozen=True)
class SampledClip:
    """A sampled clip and, when the edge filter is on, its decoded frames.

    The filter is the only reader of `frames`, so clips sampled with it off
    carry none; a clip's length is always `clip.length`.
    """

    video_id: str
    clip: ClipIndex
    frames: list[Frame]


@dataclass(frozen=True)
class ClipAudit:
    video_id: str
    clip_start: int
    invalid: int
    length: int
    removed: bool
    override: bool

    def to_json_obj(self) -> dict:
        return {
            "video_id": self.video_id,
            "clip_start": self.clip_start,
            "invalid": self.invalid,
            "L": self.length,
            "removed": self.removed,
            "override": self.override,
        }


def filter_clips(
    clips: list[SampledClip], cfg: EdgeFilterConfig
) -> tuple[list[SampledClip], list[ClipAudit]]:
    """Drop clips whose invalid-frame count is strictly more than half.

    If that would remove every clip, the clip with the fewest invalid frames
    (ties: earliest start, then input order) is kept anyway so downstream
    prototype computation always has material to work with.
    """
    if not clips:
        return [], []
    counts = []
    for sc in clips:
        invalid = sum(1 for f in sc.frames if not is_frame_valid(f, cfg))
        counts.append(invalid)
    removed = [inv * 2 > sc.clip.length for sc, inv in zip(clips, counts)]
    override_idx = None
    if all(removed):
        override_idx = min(
            range(len(clips)), key=lambda i: (counts[i], clips[i].clip.start, i)
        )
        removed[override_idx] = False
        logger.warning(
            "every clip of video(s) %s failed the edge filter; keeping clip "
            "start=%d of %s (%d/%d invalid frames)",
            sorted({sc.video_id for sc in clips}),
            clips[override_idx].clip.start,
            clips[override_idx].video_id,
            counts[override_idx],
            clips[override_idx].clip.length,
        )
    audits = [
        ClipAudit(
            video_id=sc.video_id,
            clip_start=sc.clip.start,
            invalid=inv,
            length=sc.clip.length,
            removed=rm,
            override=(i == override_idx),
        )
        for i, (sc, inv, rm) in enumerate(zip(clips, counts, removed))
    ]
    retained = [sc for sc, rm in zip(clips, removed) if not rm]
    return retained, audits
