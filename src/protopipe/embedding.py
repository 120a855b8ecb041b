"""Frame and clip embedding.

The trained CNN backbone is out of scope here; frames are embedded by a
deterministic linear map instead: box-average the frame down to a G x G
grid per channel, scale samples to [0, 1], flatten channel-major and
multiply by a fixed projection matrix. The default projection is a seeded
Gaussian with orthonormalized columns (a near-isometry, so distinct
textures stay distinct). Users with real features can load them through
the precomputed table instead, which checks its own rows however it is
built, from a file or in code.

Both steps are cheap per frame because their layout work is done once.
The box-average's layout is one `operator.itemgetter` over the frame's byte
offsets in cell order, with each cell's run and divisor, made once per
frame size, channel count and grid; a frame's bytes are gathered in one
call, and each cell sums its contiguous run of them. The sums are exact
integers, so the order does not matter. The projection's columns
are sliced once per `EmbedderSpec`, and each output entry is
`numerics.dot` of the downsampled frame with one column, in the summation
order `numerics` documents.

Building the default projection is the one large step of setting up a run:
modified Gram-Schmidt over d columns of n entries, about n * d * d
multiply-adds. From GRAM_SCHMIDT_MIN_WORK on, with two usable CPUs or
more, its columns are split over two ranks, each a forked worker of
`workers.map_in_workers` pinned to a CPU; finished columns pass between
them over one pipe into each rank. Every column sees the same sequence of
dot products, subtractions and division as in one rank, so the bits do not
change. Rank 0 hands the projection back packed, row-major, and the `Matrix`
keeps that array: this process makes none of its floats until it embeds a
frame, when `EmbedderSpec.columns` unpacks each column once. Where a pool
embeds, as in an evaluate on two CPUs, only its workers ever do.
"""
from __future__ import annotations

import math
import os
import random
from array import array
from dataclasses import InitVar, dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import accumulate, chain
from operator import itemgetter

from . import workers
from .errors import ROWS, ConfigError, DataError, all_finite, finite_floats, read_json
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
        """The projection's columns, unpacked on first use and kept with the spec."""
        # Each column's floats are made together, as an embedding reads them.
        return self.projection.columns()


# Below this much work, n * d * d for an n x d projection, Gram-Schmidt runs
# in one rank here. On a 2-vCPU Intel Xeon VM (2.0 GHz), at n = 192, two
# pinned ranks lost at d = 32 (17 ms against 11 ms here), won or lost by
# 5 ms at d = 48, and won from d = 64 (45 ms against 60 ms); see README,
# "Parallel work".
GRAM_SCHMIDT_MIN_WORK = 600_000


def _orthonormal_columns(n: int, d: int, seed: int) -> Matrix:
    """Seeded Gaussian, then modified Gram-Schmidt over the d columns.

    The columns are split over two ranks when the work reaches
    GRAM_SCHMIDT_MIN_WORK and this process may use two CPUs or more, else
    one rank runs here; see `_gram_schmidt_rank`. One pipe goes into each
    rank, opened here as a reader and a writer that the ranks inherit.
    Rank 0 returns the projection row-major in one `array('d')`, which the
    `Matrix` keeps, so with two ranks this process never holds the draw.
    """
    ranks = 2 if n * d * d >= GRAM_SCHMIDT_MIN_WORK and workers.usable_cpus() > 1 else 1
    pipes = [(open(r, "rb"), open(w, "wb")) for r, w in (os.pipe() for _ in range(ranks))]
    try:
        rank = partial(_gram_schmidt_rank, n, d, seed, pipes)
        done = workers.map_in_workers(rank, range(ranks), ranks)[0]
    finally:
        for f in chain(*pipes):
            f.close()
    return Matrix(n, d, done)


def _gram_schmidt_rank(n: int, d: int, seed: int, pipes: list, rank: int) -> array | None:
    """Finish the columns j with j % len(pipes) == rank of the seeded draw.

    Right-looking: the owner of column p finishes it (divides it by its
    norm) and writes it as array('d') bytes into the other rank's pipe, if
    there is one, and every rank subtracts its projection from each column
    it owns after p. A rank that owns column p + 1 updates and finishes it
    first and the rest after (one column of look-ahead). Every column takes
    off its projections on columns 0 .. j - 1 in order and is then divided
    by its norm, as in the serial sweep, so the bits do not depend on the
    rank count. Two ranks run in forked workers, each pinned to one CPU of
    this process's, shared if one is left. Each rank writes every finished
    column into one row-major array; rank 0 returns it, and rank 1 None. A rank
    that fails writes the other an all-NaN column, on which it stops, and
    re-raises, so no rank is left waiting on a pipe.
    """
    ranks = len(pipes)
    inbox = pipes[rank][0]
    peer = [pipes[1 - rank][1]] if ranks > 1 else []  # the other rank's pipe
    mine = range(rank, d, ranks)
    done = array("d", [0.0]) * (n * d)  # column j is every d-th value from j

    def finish(j: int) -> None:
        col = cols[j]
        norm = dot(col, col) ** 0.5
        if norm < 1e-12:
            raise ConfigError("degenerate projection draw")
        for i in range(n):
            col[i] /= norm
        message = array("d", col)
        done[j::d] = message
        for out in peer:
            out.write(message)
            out.flush()

    try:
        if ranks > 1:
            cpus = sorted(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {cpus[rank % len(cpus)]})
        rng = random.Random(f"projection/{seed}")
        cols = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(d)]
        if rank == 0:
            finish(0)
        for p in range(d):  # every column sent is read, the last one too
            if p % ranks == rank:
                prev = cols[p]
            else:
                message = array("d")
                message.fromfile(inbox, n)
                if math.isnan(message[0]):
                    return None  # the other rank failed and raises the error
                done[p::d] = message
                prev = message.tolist()
            for j in mine[(p - rank) // ranks + 1 :]:
                col = cols[j]
                proj = dot(col, prev)
                for i in range(n):
                    col[i] -= proj * prev[i]
                if j == p + 1:
                    finish(j)
    except BaseException:
        for out in peer:
            out.write(array("d", [math.nan]) * n)
            out.flush()
        raise
    return done if rank == 0 else None


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
    return read_json(
        path, ConfigError, "projection file", PROJECTION_FILE_KEYS,
        build=lambda doc: EmbedderSpec(
            doc["grid"], doc["channels"], doc["dim"], Matrix.from_rows(doc["projection"])
        ),
    )


@lru_cache(maxsize=64)
def _box_gather(
    w: int, h: int, c: int, grid: int
) -> tuple[itemgetter, tuple[tuple[int, int, float], ...]]:
    """A getter of every cell's bytes, and per cell its (start, stop, divisor).

    The getter takes a frame's bytes in cell order, channel-major: cell
    (ch, gy, gx) is items start:stop of what it returns, one byte per pixel
    of the cell. The divisor is the cell's pixel count times 255.
    """
    xbin = [min(grid - 1, x * grid // w) for x in range(w)]
    ybin = [min(grid - 1, y * grid // h) for y in range(h)]
    # Both bin maps are nondecreasing and, with w, h >= grid, hit every bin,
    # so each cell is one run of columns in each of one run of rows.
    xs = [xbin.index(b) for b in range(grid)] + [w]
    ys = [ybin.index(b) for b in range(grid)] + [h]
    runs = [
        [(y * w + x) * c + ch for y in range(ys[gy], ys[gy + 1])
         for x in range(xs[gx], xs[gx + 1])]
        for ch in range(c)
        for gy in range(grid)
        for gx in range(grid)
    ]
    stops = list(accumulate(map(len, runs)))
    cells = tuple((stop - len(run), stop, len(run) * 255.0) for run, stop in zip(runs, stops))
    # One offset more, so that the getter returns a tuple even for one byte.
    return itemgetter(*[i for run in runs for i in run], 0), cells


def downsample_boxes(frame: Frame, grid: int) -> Vector:
    """Box-average to grid x grid per channel, scaled to [0, 1].

    Returns the channel-major flattening: all cells of channel 0, then
    channel 1, and so on. Pixel x of a w-wide frame falls in column bin
    min(grid - 1, x * grid // w), and likewise for rows.
    """
    w, h, c = frame.width, frame.height, frame.channels
    if w < grid or h < grid:
        raise ConfigError(f"{w}x{h} frame is smaller than grid {grid}")
    gather, cells = _box_gather(w, h, c, grid)
    got = gather(frame.pixels)
    return [sum(got[start:stop]) / divisor for start, stop, divisor in cells]


def embed_frame(frame: Frame, spec: EmbedderSpec) -> Vector:
    """Project the normalized downsampled frame through spec.projection."""
    if frame.channels != spec.channels:
        raise ConfigError(
            f"frame has {frame.channels} channels, spec expects {spec.channels}"
        )
    flat = downsample_boxes(frame, spec.grid)
    vector = [dot(flat, col) for col in spec.columns]
    if not all_finite(vector):
        raise DataError("non-finite frame embedding: the projection overflows")
    return vector


@dataclass(frozen=True)
class PrecomputedTable:
    """Embedding rows by video id, dim floats per frame.

    The constructor is the one check of a table's rows, from a file or
    code: `dim` >= 2, and each row present, numeric, `dim` long and finite,
    with a finite norm; an integer becomes a float. Each video's rows are
    packed as they pass into one array('d'), 8 bytes a value where a list
    of floats takes 32. A lookup returns a fresh list of its frame's
    floats, so later sums see lists, as from the projection, and add the
    same floats.
    """

    dim: int
    rows: InitVar[dict[str, list[Vector]]]
    videos: dict[str, array] = field(init=False)

    def __post_init__(self, rows: dict[str, list[Vector]]):
        dim, videos = self.dim, {}
        if dim < 2:
            raise ConfigError(f"dim must be >= 2, got {dim}")
        for video_id, vectors in rows.items():
            if not isinstance(vectors, list):
                raise ConfigError(f"video {video_id!r}: frame rows must be an array")
            packed = videos[video_id] = array("d")
            for idx, row in enumerate(vectors):
                if row is None:
                    raise DataError(f"no embedding for frame {idx} of video {video_id!r}")
                label = f"video {video_id!r} frame {idx}"
                vector = finite_floats(row, ConfigError, label, DataError)
                if len(vector) != dim:
                    raise ConfigError(f"{label} has dim {len(vector)}, expected {dim}")
                # A finite norm bounds every entry, so no cosine or clip mean of
                # finite-norm rows overflows later, far from the table.
                if not math.isfinite(norm(vector)):
                    raise DataError(f"{label} has a non-finite norm")
                packed.fromlist(vector)
        object.__setattr__(self, "videos", videos)

    def vector(self, video_id: str, frame_index: int) -> Vector:
        packed = self.videos.get(video_id)
        start = frame_index * self.dim
        if packed is None or not 0 <= start < len(packed):
            raise DataError(f"no embedding for frame {frame_index} of video {video_id!r}")
        return packed[start : start + self.dim].tolist()


def load_precomputed(path) -> PrecomputedTable:
    """Precomputed embeddings JSON: {"dim", "videos": {id: [[...], ...]}}.

    The rows are checked by `PrecomputedTable`, so holes, NaNs and rows
    whose norm overflows are a load-time error, not a lookup-time surprise;
    a fault keeps its family and names the file.
    """
    return read_json(
        path, ConfigError, "embeddings file", {"dim": int, "videos": dict},
        build=lambda doc: PrecomputedTable(doc["dim"], doc["videos"]),
    )
