"""Invalid-frame detection.

A frame "contains something" when enough of its interior pixels have a
Sobel gradient magnitude above a threshold. Clips in which more than half
of the frames fail that check are dropped from the support set, except that
a class may never lose all of its clips: the least-invalid clip survives.
`majority_invalid` is that rule, written once.

The gate is exact integer arithmetic. The Sobel gradients gx and gy are
integer sums of pixel bytes, and math.sqrt is correctly rounded, hence
monotone, so sqrt(gx*gx + gy*gy) > tau_mag holds exactly when gx*gx + gy*gy
reaches the smallest integer whose square root exceeds tau_mag. That integer
is found once per threshold, so each pixel costs integer adds and one
compare, and the count is the one the float magnitudes give.

`is_frame_valid` is the package's one gate. The density k / area is correctly
rounded, hence monotone in the count k, so the gate scans rows from the top
and stops as soon as the count reaches the least k that clears tau_density,
found once per frame area and threshold: only a failing frame is read to
its last row.

A frame is gated where it is decoded, by the executor in `protonet`, when
its plan lists it. A clip the filter will judge is voted on: `vote` reads
its frames' validity in frame order and stops once the rule is fixed, after
4 valid or 5 invalid frames of an 8-frame clip. A sampled clip holds frame
indices only, and `filter_clips` reads each clip's vote by (video_id,
frames).
"""
from __future__ import annotations

import functools
import logging
import math
from bisect import bisect_left
from collections.abc import Iterable, Mapping
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


# gx and gy each lie in [-1020, 1020] (4 * 255), so gx*gx + gy*gy is at most
# 2 * 1020**2 and one more than that counts no pixel at any threshold.
_NO_HIT = 2 * 1020**2 + 1


@functools.cache
def _min_edge_square(tau_mag: float) -> int:
    """The smallest integer n with math.sqrt(n) > tau_mag, or _NO_HIT.

    math.sqrt is correctly rounded, so it is monotone on the integers and
    sqrt(s) > tau_mag holds exactly for the integers s >= n.
    """
    return bisect_left(range(_NO_HIT), True, key=lambda n: math.sqrt(n) > tau_mag)


@functools.lru_cache(maxsize=64)
def _min_edge_count(area: int, tau_density: float) -> int:
    """The smallest integer k with k / area >= tau_density, at most area.

    k / area is correctly rounded, so it is monotone in k and the density
    clears tau_density exactly when the count of edge pixels reaches k.
    """
    return bisect_left(range(area), True, key=lambda k: k / area >= tau_density)


def is_frame_valid(frame: Frame, cfg: EdgeFilterConfig) -> bool:
    """True when the frame's edge density clears cfg.tau_density; `enabled` is not read.

    The density is the fraction of interior pixels (the border is excluded,
    not padded) whose Sobel magnitude exceeds cfg.tau_mag, on the frame's
    BT.601 luma rounded half-up; see the module docs for the early stop.
    """
    w, h = frame.width, frame.height
    if w < 3 or h < 3:
        raise DataError(f"{w}x{h}: Sobel needs at least 3x3")
    need = _min_edge_count((w - 2) * (h - 2), cfg.tau_density)
    n_min = _min_edge_square(cfg.tau_mag)
    px, stride = frame.pixels, w * frame.channels
    rows, across, hits = [], [], 0
    for y in range(h):
        row = px[y * stride : (y + 1) * stride]
        if frame.channels == 3:
            # No clamp to 255 is needed: every table grows with its byte and
            # float addition is monotone, so the largest luma is
            # (255, 255, 255)'s, and that sum is exactly 255.0.
            row = [int(_LUMA_R[r] + _LUMA_G[g] + _LUMA_B[b] + 0.5)
                   for r, g, b in zip(row[0::3], row[1::3], row[2::3])]
        rows.append(row)
        # The 3x3 Sobel kernels are separable: (1, 2, 1) across each row for
        # gy, and (1, 2, 1) down each column of three rows for gx.
        across.append([a + 2 * b + c for a, b, c in zip(row, row[1:], row[2:])])
        if y < 2:
            continue
        down = [a + 2 * b + c for a, b, c in zip(rows[y - 2], rows[y - 1], row)]
        # At interior pixel (x + 1, y - 1), gx is the difference of the column
        # sums on its right and left, and gy of the row sums below and above.
        hits += sum(
            1
            for gx, gy in zip(map(sub, down[2:], down), map(sub, across[y], across[y - 2]))
            if gx * gx + gy * gy >= n_min
        )
        if hits >= need:
            return True
    return False


def majority_invalid(invalid: int, length: int) -> bool:
    """The majority rule: a clip of `length` frames with `invalid` invalid ones is dropped."""
    return invalid * 2 > length


def vote(flags: Iterable[bool], length: int) -> tuple[int, int]:
    """(invalid, checked): a clip's frame validities, read in order until the rule is fixed.

    `flags` holds the clip's `length` validities and is read lazily: the
    rule is fixed once `majority_invalid(invalid, length)` holds whatever
    the unread frames are, or fails even if every one of them is invalid.
    """
    invalid = checked = 0
    flags = iter(flags)
    while majority_invalid(invalid + length - checked, length) and not majority_invalid(
        invalid, length
    ):
        invalid += not next(flags)
        checked += 1
    return invalid, checked


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
    """One sampled clip's filter outcome: `invalid` of its first `checked` frames failed."""

    video_id: str
    clip_start: int
    invalid: int
    checked: int
    length: int
    removed: bool
    override: bool

    def to_json_obj(self) -> dict:
        return {
            "video_id": self.video_id,
            "clip_start": self.clip_start,
            "invalid": self.invalid,
            "checked": self.checked,
            "L": self.length,
            "removed": self.removed,
            "override": self.override,
        }


def filter_clips(
    clips: list[SampledClip],
    cfg: EdgeFilterConfig,
    votes: Mapping[tuple[str, tuple[int, ...]], tuple[int, int]],
) -> tuple[list[SampledClip], list[ClipAudit]]:
    """Drop clips whose invalid-frame count is strictly more than half.

    `votes` holds each clip's (invalid, checked) keyed by (video_id,
    frames), as `vote` counts them; it is read only when the filter is
    enabled. If the rule would remove every clip, the clip with the fewest
    invalid frames (ties: earliest start, then input order) is kept anyway
    so downstream prototype computation always has material to work with;
    that choice needs every clip counted in full, with `checked` equal to
    its length.
    """
    if not clips:
        return [], []
    if cfg.enabled:
        counts = [votes[sc.video_id, tuple(sc.frames)] for sc in clips]
    else:
        counts = [(0, 0)] * len(clips)
    removed = [majority_invalid(inv, sc.clip.length) for sc, (inv, _) in zip(clips, counts)]
    override_idx = None
    if all(removed):
        override_idx = min(
            range(len(clips)), key=lambda i: (counts[i][0], clips[i].clip.start, i)
        )
        removed[override_idx] = False
        logger.warning(
            "every clip of video(s) %s failed the edge filter; keeping clip "
            "start=%d of %s (%d/%d invalid frames)",
            sorted({sc.video_id for sc in clips}),
            clips[override_idx].clip.start,
            clips[override_idx].video_id,
            counts[override_idx][0],
            clips[override_idx].clip.length,
        )
    audits = [
        ClipAudit(
            video_id=sc.video_id,
            clip_start=sc.clip.start,
            invalid=inv,
            checked=checked,
            length=sc.clip.length,
            removed=rm,
            override=(i == override_idx),
        )
        for i, (sc, (inv, checked), rm) in enumerate(zip(clips, counts, removed))
    ]
    retained = [sc for sc, rm in zip(clips, removed) if not rm]
    return retained, audits
