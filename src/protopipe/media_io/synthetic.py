"""Procedural dataset generator.

Builds a small users/objects/videos tree in the manifest format. Each object
gets a distinctive striped texture (hue + stripe orientation vary per
object). Clean videos are close-ups, the object filling the frame; clutter
videos show it mid-frame on a plain background next to 1-3 distractor
objects of the same user. A configurable fraction of clean-video frames is
rendered as a low-contrast color wash ("object not present" — the camera
drifted off its subject); their indices go to a sidecar file so filtering
behaviour can be cross-checked against ground truth.

Everything is derived from the spec seed via per-video string-seeded RNGs,
so two runs with the same spec produce byte-identical trees.
"""
from __future__ import annotations

import colorsys
import random
from dataclasses import dataclass
from pathlib import Path

from ..errors import ConfigError, write_json
from .manifest import DatasetManifest, parse_manifest
from .pnm import Frame, encode_pnm

MANIFEST_NAME = "manifest.json"
SIDECAR_NAME = "blank_frames.json"

# Stripe direction (dx, dy) cycles with the object index.
_ORIENTATIONS = [(1, 0), (0, 1), (1, 1), (1, -1)]
_STRIPE_PERIOD = 8
# Blank runs in clean videos start on this boundary (scene-cut granularity).
_RUN_ALIGN = 8
_USER_HUE_STEP = 0.381966  # ~1/golden ratio, spreads user palettes


@dataclass(frozen=True)
class GeneratorSpec:
    num_users: int = 2
    objects_per_user: int = 3
    videos_per_object: int = 1  # per kind: N clean plus N clutter
    frames_per_video: int = 16
    frame_size: int = 32
    blank_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if min(self.num_users, self.videos_per_object, self.frames_per_video) < 1:
            raise ConfigError("all counts must be >= 1")
        if self.objects_per_user < 2:
            raise ConfigError("objects_per_user must be >= 2")
        if self.frame_size < 16:
            raise ConfigError("frame_size must be >= 16")
        if not 0.0 <= self.blank_fraction <= 1.0:
            raise ConfigError("blank_fraction must be in [0, 1]")


@dataclass(frozen=True)
class _Texture:
    bright: bytes  # 3-byte RGB stripe color
    dark: bytes
    dx: int
    dy: int


def _rgb(h: float, s: float, v: float) -> bytes:
    r, g, b = colorsys.hsv_to_rgb(h % 1.0, s, v)
    return bytes((round(r * 255), round(g * 255), round(b * 255)))


def _rgb_energy(h: float, s: float, energy: float) -> bytes:
    """Hue at fixed L2 energy, so no color is intrinsically 'louder'."""
    r, g, b = colorsys.hsv_to_rgb(h % 1.0, s, 1.0)
    k = energy / (255.0 * (r * r + g * g + b * b) ** 0.5)
    return bytes((round(r * 255 * k), round(g * 255 * k), round(b * 255 * k)))


def _object_texture(user_idx: int, obj_idx: int, objects_per_user: int) -> _Texture:
    hue = obj_idx / objects_per_user + user_idx * _USER_HUE_STEP
    dx, dy = _ORIENTATIONS[obj_idx % len(_ORIENTATIONS)]
    return _Texture(
        _rgb_energy(hue, 0.85, 240.0), _rgb_energy(hue, 0.85, 100.0), dx, dy
    )


def _background(user_idx: int) -> bytes:
    return _rgb(user_idx * _USER_HUE_STEP, 0.06, 0.82)


def _paint_stripes(
    buf: bytearray,
    size: int,
    x0: int,
    y0: int,
    x1: int,
    y1: int,
    tex: _Texture,
    row_cache: dict,
) -> None:
    period2 = 2 * _STRIPE_PERIOD
    for y in range(y0, y1):
        k = y * tex.dy
        key = (tex.bright, tex.dx, k % period2, x0, x1)
        row = row_cache.get(key)
        if row is None:
            if tex.dx == 0:
                color = tex.bright if (k // _STRIPE_PERIOD) % 2 == 0 else tex.dark
                row = color * (x1 - x0)
            else:
                row = b"".join(
                    tex.bright if ((x + k) // _STRIPE_PERIOD) % 2 == 0 else tex.dark
                    for x in range(x0, x1)
                )
            row_cache[key] = row
        base = (y * size + x0) * 3
        buf[base : base + len(row)] = row


def _clean_frame(size: int, tex: _Texture) -> Frame:
    # Support recordings are close-ups: the object fills the whole frame.
    buf = bytearray(size * size * 3)
    _paint_stripes(buf, size, 0, 0, size, size, tex, {})
    return Frame(size, size, 3, bytes(buf))


def _wash_frame(size: int, rng: random.Random) -> Frame:
    """An 'object not present' frame: a low-contrast color wash.

    The camera is pointing at nothing in particular — content varies video
    to video, but the luminance gradient is kept shallow enough that the
    default edge thresholds always rate these frames invalid.
    """
    hue = rng.random()
    sat = 0.3 + 0.5 * rng.random()
    v0 = 0.35 + 0.3 * rng.random()
    v1 = v0 + rng.choice((-0.2, 0.2))
    dx, dy = rng.choice(((1, 0), (0, 1), (1, 1)))
    span = (dx + dy) * (size - 1)
    buf = bytearray()
    row_cache: dict[int, bytes] = {}
    for y in range(size):
        if dx == 0:
            buf += _rgb(hue, sat, v0 + (v1 - v0) * (y / span)) * size
            continue
        key = y * dy
        row = row_cache.get(key)
        if row is None:
            row = b"".join(
                _rgb(hue, sat, v0 + (v1 - v0) * ((x * dx + y * dy) / span))
                for x in range(size)
            )
            row_cache[key] = row
        buf += row
    return Frame(size, size, 3, bytes(buf))


def _clutter_frame(
    size: int,
    tex: _Texture,
    distractors: list[tuple[_Texture, tuple[int, int]]],
    jitter: tuple[int, int],
    bg: bytes,
    cache: dict,
) -> Frame:
    buf = bytearray(bg * (size * size))
    dsize = max(4, size // 5)
    for dtex, (dx0, dy0) in distractors:
        _paint_stripes(buf, size, dx0, dy0, dx0 + dsize, dy0 + dsize, dtex, cache)
    half = round(size * 0.32)
    cx = size // 2 + jitter[0]
    cy = size // 2 + jitter[1]
    x0, x1 = max(0, cx - half), min(size, cx + half)
    y0, y1 = max(0, cy - half), min(size, cy + half)
    _paint_stripes(buf, size, x0, y0, x1, y1, tex, cache)
    return Frame(size, size, 3, bytes(buf))


def _corner_slots(size: int) -> list[tuple[int, int]]:
    dsize = max(4, size // 5)
    lo, hi = 1, size - 1 - dsize
    return [(lo, lo), (hi, lo), (lo, hi), (hi, hi)]


def generate_synthetic_dataset(spec: GeneratorSpec, out_dir) -> DatasetManifest:
    """Write frames + manifest + blank-frame sidecar under out_dir."""
    out = Path(out_dir)
    n_blank = int(spec.blank_fraction * spec.frames_per_video + 0.5)
    try:
        out.mkdir(parents=True, exist_ok=True)
        users = []
        sidecar: dict[str, list[int]] = {}
        for u in range(spec.num_users):
            user_id = f"user{u:02d}"
            bg = _background(u)
            textures = [
                _object_texture(u, k, spec.objects_per_user)
                for k in range(spec.objects_per_user)
            ]
            objects = []
            for k in range(spec.objects_per_user):
                label = f"obj{k:02d}"
                videos = []
                for kind in ("clean", "clutter"):
                    for v in range(spec.videos_per_object):
                        video_id = f"{user_id}_{label}_{kind}{v:02d}"
                        rng = random.Random(f"{spec.seed}/{video_id}")
                        video_dir = out / "frames" / user_id / label / video_id
                        video_dir.mkdir(parents=True, exist_ok=True)
                        if kind == "clean":
                            # Blank frames come as one contiguous run, the way
                            # a recording drifts off its subject and back. Runs
                            # start on a _RUN_ALIGN boundary (scene-cut
                            # granularity), never mid-segment.
                            start = (
                                rng.randrange(spec.frames_per_video - n_blank + 1)
                                // _RUN_ALIGN
                                * _RUN_ALIGN
                                if n_blank
                                else 0
                            )
                            blanks = list(range(start, start + n_blank))
                            if blanks:
                                sidecar[video_id] = blanks
                            frames = _render_clean_video(
                                spec, textures[k], set(blanks), rng
                            )
                        else:
                            frames = _render_clutter_video(
                                spec, k, textures, bg, rng
                            )
                        rel_paths = []
                        for t, frame in enumerate(frames):
                            name = f"f{t:05d}.ppm"
                            (video_dir / name).write_bytes(encode_pnm(frame))
                            rel_paths.append(
                                f"frames/{user_id}/{label}/{video_id}/{name}"
                            )
                        videos.append({"video_id": video_id, "kind": kind, "frames": rel_paths})
                objects.append({"label": label, "videos": videos})
            users.append({"user_id": user_id, "objects": objects})
        doc = {"users": users}
        write_json(out / MANIFEST_NAME, doc)
        write_json(out / SIDECAR_NAME, sidecar)
    except OSError as exc:
        raise OSError(f"cannot write dataset under {out}: {exc}") from exc
    return parse_manifest(doc, out)


def _render_clean_video(spec, tex, blank_indices, rng):
    # Objects are static within a video: every non-blank frame of a clean
    # video is the same close-up, so where a clip lands only matters through
    # how many blank frames it catches. That isolates sampling and filtering
    # effects from appearance drift.
    close_up = _clean_frame(spec.frame_size, tex)
    wash = _wash_frame(spec.frame_size, rng) if blank_indices else None
    return [
        wash if t in blank_indices else close_up for t in range(spec.frames_per_video)
    ]


def _render_clutter_video(spec, obj_idx, textures, bg, rng):
    others = [i for i in range(len(textures)) if i != obj_idx]
    n_d = rng.randint(1, min(3, len(others)))
    chosen = rng.sample(others, n_d)
    slots = rng.sample(_corner_slots(spec.frame_size), n_d)
    distractors = [(textures[i], slot) for i, slot in zip(chosen, slots)]
    cache: dict = {}
    frames = []
    for _ in range(spec.frames_per_video):
        jitter = (rng.randint(-2, 2), rng.randint(-2, 2))
        frames.append(
            _clutter_frame(spec.frame_size, textures[obj_idx], distractors, jitter, bg, cache)
        )
    return frames

