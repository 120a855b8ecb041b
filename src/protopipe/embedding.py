"""Frame and clip embedding.

The trained CNN backbone is out of scope here; frames are embedded by a
deterministic linear map instead: box-average the frame down to a G x G
grid per channel, scale samples to [0, 1], flatten channel-major and
multiply by a fixed projection matrix. The default projection is a seeded
Gaussian with orthonormalized columns (a near-isometry, so distinct
textures stay distinct). Users with real features can load them through
the precomputed table instead.

Both steps are cheap per frame because their layout work is done once.
The box-average's byte spans (each cell's run of pixels in each row it
covers, per channel) are computed once per frame size, channel count and
grid, and each cell sums its spans straight from the PNM payload; the sums
are exact integers, so the order does not matter. The projection's columns
are sliced once per `EmbedderSpec`, and each output entry is
`numerics.dot` of the downsampled frame with one column, in the summation
order `numerics` documents.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import ROWS, ConfigError, DataError, finite_floats, read_json
from .media_io.pnm import Frame
from .numerics import Matrix, Vector, dot, norm


@dataclass(frozen=True)
class EmbedderSpec:
    """Box-average to grid x grid per channel, then project to dim."""

    grid: int
    channels: int
    dim: int
    projection: Matrix

    def __post_init__(self):
        if self.dim < 2:
            raise ConfigError("embedding dim must be >= 2")
        if self.grid < 1 or self.channels not in (1, 3):
            raise ConfigError("bad grid/channels for patch projection")
        n = self.grid * self.grid * self.channels
        p = self.projection
        if (p.rows, p.cols) != (n, self.dim):
            raise ConfigError(
                f"projection must be {n}x{self.dim}, got {(p.rows, p.cols)}"
            )

    @cached_property
    def columns(self) -> list[Vector]:
        """The projection's columns, sliced on first use and kept with the spec."""
        return self.projection.columns()


def _orthonormal_columns(n: int, d: int, seed: int) -> Matrix:
    # Seeded Gaussian, then modified Gram-Schmidt over the d columns.
    rng = random.Random(f"projection/{seed}")
    cols = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(d)]
    for j in range(d):
        col = cols[j]
        for p in range(j):
            prev = cols[p]
            proj = dot(col, prev)
            for i in range(n):
                col[i] -= proj * prev[i]
        norm = dot(col, col) ** 0.5
        if norm < 1e-12:
            raise ValueError("degenerate projection draw")  # pragma: no cover
        for i in range(n):
            col[i] /= norm
    return Matrix(d, n, [x for col in cols for x in col]).transpose()


def make_patch_projection_spec(
    grid: int = 8, channels: int = 3, dim: int = 16, seed: int = 0
) -> EmbedderSpec:
    n = grid * grid * channels
    if dim > n:
        raise ConfigError(f"dim {dim} exceeds flattened size {n}")
    return EmbedderSpec(grid, channels, dim, _orthonormal_columns(n, dim, seed))


PROJECTION_FILE_KEYS = {"grid": int, "channels": int, "dim": int, "projection": ROWS}


def load_projection_spec(path) -> EmbedderSpec:
    """Projection weights JSON, read by PROJECTION_FILE_KEYS."""
    doc = read_json(path, ConfigError, "projection file", PROJECTION_FILE_KEYS)
    projection = Matrix.from_rows(doc["projection"])
    return EmbedderSpec(doc["grid"], doc["channels"], doc["dim"], projection)


@lru_cache(maxsize=64)
def _box_spans(
    w: int, h: int, c: int, grid: int
) -> tuple[tuple[tuple[tuple[int, int], ...], float], ...]:
    """Per output entry, channel-major: byte spans and divisor.

    Entry (ch, cell) holds one (start, stop) span per frame row the cell
    covers; px[start:stop:c] is that row's run of channel ch inside the
    cell. The divisor is the cell's pixel count times 255.
    """
    xbin = [min(grid - 1, x * grid // w) for x in range(w)]
    ybin = [min(grid - 1, y * grid // h) for y in range(h)]
    # Both bin maps are nondecreasing and, with w, h >= grid, hit every bin,
    # so each cell is one run of columns in each of one run of rows.
    xs = [xbin.index(b) for b in range(grid)] + [w]
    ys = [ybin.index(b) for b in range(grid)] + [h]
    return tuple(
        (
            tuple(
                ((y * w + xs[gx]) * c + ch, (y * w + xs[gx + 1]) * c)
                for y in range(ys[gy], ys[gy + 1])
            ),
            (xs[gx + 1] - xs[gx]) * (ys[gy + 1] - ys[gy]) * 255.0,
        )
        for ch in range(c)
        for gy in range(grid)
        for gx in range(grid)
    )


def downsample_boxes(frame: Frame, grid: int) -> Vector:
    """Box-average to grid x grid per channel, scaled to [0, 1].

    Returns the channel-major flattening: all cells of channel 0, then
    channel 1, and so on. Pixel x of a w-wide frame falls in column bin
    min(grid - 1, x * grid // w), and likewise for rows.
    """
    w, h, c = frame.width, frame.height, frame.channels
    if w < grid or h < grid:
        raise ConfigError(f"{w}x{h} frame is smaller than grid {grid}")
    px = frame.pixels
    return [
        sum([sum(px[start:stop:c]) for start, stop in spans]) / divisor
        for spans, divisor in _box_spans(w, h, c, grid)
    ]


def embed_frame(frame: Frame, spec: EmbedderSpec) -> Vector:
    """Project the normalized downsampled frame through spec.projection."""
    if frame.channels != spec.channels:
        raise ConfigError(
            f"frame has {frame.channels} channels, spec expects {spec.channels}"
        )
    flat = downsample_boxes(frame, spec.grid)
    vector = [dot(flat, col) for col in spec.columns]
    if not all(map(math.isfinite, vector)):
        raise DataError("non-finite frame embedding: the projection overflows")
    return vector


@dataclass(frozen=True)
class PrecomputedTable:
    dim: int
    videos: dict[str, list[Vector]]

    def vector(self, video_id: str, frame_index: int) -> Vector:
        rows = self.videos.get(video_id)
        if rows is None or not 0 <= frame_index < len(rows):
            raise DataError(f"no embedding for frame {frame_index} of video {video_id!r}")
        return rows[frame_index]


def load_precomputed(path) -> PrecomputedTable:
    """Precomputed embeddings JSON: {"dim", "videos": {id: [[...], ...]}}.

    Every frame row must be present, numeric, of the declared dimension and
    finite, with a finite norm; holes, NaNs and rows whose norm overflows
    are a load-time error, not a lookup-time surprise.
    """
    doc = read_json(path, ConfigError, "embeddings file", {"dim": int, "videos": dict})
    where = f"bad embeddings file {path}"
    dim = doc["dim"]
    if dim < 2:
        raise ConfigError(f"{where}: dim must be >= 2, got {dim}")
    videos: dict[str, list[Vector]] = {}
    for video_id, rows in doc["videos"].items():
        if not isinstance(rows, list):
            raise ConfigError(f"{where}: video {video_id!r}: frame rows must be an array")
        table_rows: list[Vector] = []
        for idx, row in enumerate(rows):
            if row is None:
                raise DataError(f"no embedding for frame {idx} of video {video_id!r}")
            label = f"{where}: video {video_id!r} frame {idx}"
            vector = finite_floats(row, ConfigError, label, DataError)
            if len(vector) != dim:
                raise ConfigError(f"{label} has dim {len(vector)}, expected {dim}")
            # A finite norm bounds every entry, so no cosine or clip mean of
            # finite-norm rows overflows later, far from this file.
            if not math.isfinite(norm(vector)):
                raise DataError(f"{label} has a non-finite norm")
            table_rows.append(vector)
        videos[video_id] = table_rows
    return PrecomputedTable(dim, videos)
