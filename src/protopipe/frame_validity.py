"""Invalid-frame detection.

A frame "contains something" when enough of its interior pixels have a
Sobel gradient magnitude above a threshold. Clips in which more than half
of the frames fail that check are dropped from the support set, except that
a class may never lose all of its clips: the least-invalid clip survives.

The gate is exact integer arithmetic. The Sobel gradients gx and gy are
integer sums of pixel bytes, and math.sqrt is correctly rounded, hence
monotone, so sqrt(gx*gx + gy*gy) > tau_mag holds exactly when gx*gx + gy*gy
reaches the smallest integer whose square root exceeds tau_mag. That integer
is found once per threshold, so each pixel costs integer adds and one
compare, and the count is the one the float magnitudes give.

A frame is gated where it is decoded, by the executor in `protonet`, when
its plan lists it; a sampled clip holds frame indices only, and
`filter_clips` reads each frame's validity by (video_id, index).
"""
from __future__ import annotations

import functools
import logging
import math
from collections.abc import Mapping
from dataclasses import dataclass
from operator import sub

from .clip_sampling import ClipIndex
from .errors import ConfigError, DataError
from .media_io.pnm import Frame

logger = logging.getLogger(__name__)


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
                raise ConfigError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.tau_mag < 0:
            raise ConfigError("tau_mag must be >= 0")
        if not 0.0 <= self.tau_density <= 1.0:
            raise ConfigError("tau_density must be in [0, 1]")


# Each channel's weighted value, by byte value: the products the BT.601 sum
# adds, computed once.
_LUMA_R = [0.299 * v for v in range(256)]
_LUMA_G = [0.587 * v for v in range(256)]
_LUMA_B = [0.114 * v for v in range(256)]


def to_grayscale(frame: Frame) -> Frame:
    """BT.601 luma of an RGB frame, rounded half-up; a grayscale one passes through."""
    if frame.channels == 1:
        return frame
    px = frame.pixels
    # No clamp to 255 is needed: every table grows with its byte and float
    # addition is monotone, so the largest luma is (255, 255, 255)'s, and
    # that sum is exactly 255.0.
    gray = [
        int(_LUMA_R[r] + _LUMA_G[g] + _LUMA_B[b] + 0.5)
        for r, g, b in zip(px[0::3], px[1::3], px[2::3])
    ]
    return Frame(frame.width, frame.height, 1, bytes(gray))


# gx and gy each lie in [-1020, 1020] (4 * 255), so gx*gx + gy*gy is at most
# 2 * 1020**2 and one more than that counts no pixel at any threshold.
_NO_HIT = 2 * 1020**2 + 1


@functools.cache
def _min_edge_square(tau_mag: float) -> int:
    """The smallest integer n with math.sqrt(n) > tau_mag, or _NO_HIT.

    math.sqrt is correctly rounded, so it is monotone on the integers and
    sqrt(s) > tau_mag holds exactly for the integers s >= n.
    """
    lo, hi = 0, _NO_HIT
    while lo < hi:
        mid = (lo + hi) // 2
        if math.sqrt(mid) > tau_mag:
            hi = mid
        else:
            lo = mid + 1
    return lo


def edge_density(gray: Frame, tau_mag: float) -> float:
    """Fraction of interior pixels whose Sobel magnitude exceeds tau_mag.

    Border pixels are excluded rather than padded. A pixel counts when
    sqrt(gx*gx + gy*gy) > tau_mag, tested exactly in integers as
    gx*gx + gy*gy >= _min_edge_square(tau_mag).
    """
    if gray.channels != 1:
        raise DataError("edge_density needs a grayscale frame")
    w, h = gray.width, gray.height
    if w < 3 or h < 3:
        raise DataError(f"{w}x{h}: Sobel needs at least 3x3")
    n_min = _min_edge_square(tau_mag)
    px = gray.pixels
    rows = [px[y * w : (y + 1) * w] for y in range(h)]
    # The 3x3 Sobel kernels are separable: (1, 2, 1) across each row for
    # gy, and (1, 2, 1) down each column of three rows for gx.
    across = [[a + 2 * b + c for a, b, c in zip(r, r[1:], r[2:])] for r in rows]
    down = [
        [a + 2 * b + c for a, b, c in zip(r0, r1, r2)]
        for r0, r1, r2 in zip(rows, rows[1:], rows[2:])
    ]
    # At an interior pixel, gx is the difference of the column sums on its
    # right and left, and gy of the row sums below and above it.
    hits = sum(
        1
        for d, above, below in zip(down, across, across[2:])
        for gx, gy in zip(map(sub, d[2:], d), map(sub, below, above))
        if gx * gx + gy * gy >= n_min
    )
    return hits / ((h - 2) * (w - 2))


def is_frame_valid(frame: Frame, cfg: EdgeFilterConfig) -> bool:
    """True when the frame's edge density clears cfg.tau_density; `enabled` is not read."""
    return edge_density(to_grayscale(frame), cfg.tau_mag) >= cfg.tau_density


@dataclass(frozen=True)
class SampledClip:
    """A sampled clip of one video, by frame index; it holds no pixels."""

    video_id: str
    clip: ClipIndex

    @property
    def frames(self) -> list[int]:
        """The clip's frame indices, in order."""
        return self.clip.frame_indices()


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
    clips: list[SampledClip], cfg: EdgeFilterConfig, valid: Mapping[tuple[str, int], bool]
) -> tuple[list[SampledClip], list[ClipAudit]]:
    """Drop clips whose invalid-frame count is strictly more than half.

    `valid` holds each gated frame's `is_frame_valid`, keyed by (video_id,
    index); it is read only when the filter is enabled. If the rule would
    remove every clip, the clip with the fewest invalid frames (ties:
    earliest start, then input order) is kept anyway so downstream
    prototype computation always has material to work with.
    """
    if not clips:
        return [], []
    if cfg.enabled:
        counts = [sum(1 for i in sc.frames if not valid[sc.video_id, i]) for sc in clips]
    else:
        counts = [0] * len(clips)
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
