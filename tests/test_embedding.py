from __future__ import annotations

import json
import math
from array import array
import random
import re

import numpy as np
import pytest
from _oracles import loop_matmul, np_downsample_boxes, ref_orthonormal_columns
from hypothesis import given, settings, strategies as st

from protopipe.clip_sampling import SamplerConfig
from protopipe.embedding import (
    EmbedderSpec,
    PrecomputedTable,
    downsample_boxes,
    embed_frame,
    load_precomputed,
    load_projection_spec,
    make_patch_projection_spec,
)
from protopipe.errors import ConfigError, DataError
from protopipe.frame_validity import EdgeFilterConfig
from protopipe.media_io.manifest import VideoRecord
from protopipe.media_io.pnm import Frame
from protopipe.numerics import Matrix
from protopipe.protonet import PipelineRuntime, compute_prototypes, video_frame_vectors


def identity_spec(grid=2, channels=1):
    n = grid * grid * channels
    return EmbedderSpec(grid, channels, n, Matrix.identity(n))


def rgb_frame(w, h, rng):
    return Frame(w, h, 3, bytes(rng.randrange(256) for _ in range(w * h * 3)))


class TestDownsample:
    def test_exact_quadrants(self):
        # 4x4 grayscale, grid 2: each cell is a 2x2 box average
        px = [0, 0, 100, 100,
              0, 0, 100, 100,
              200, 200, 50, 50,
              200, 200, 50, 50]
        frame = Frame(4, 4, 1, bytes(px))
        got = downsample_boxes(frame, 2)
        want = [v / 255.0 for v in (0, 100, 200, 50)]
        assert got == pytest.approx(want, abs=1e-12)

    def test_channel_major_layout(self):
        frame = Frame(2, 2, 3, bytes([10, 20, 30] * 4))
        got = downsample_boxes(frame, 2)
        assert got == pytest.approx(
            [10 / 255] * 4 + [20 / 255] * 4 + [30 / 255] * 4
        )

    def test_matches_numpy_oracle_on_awkward_sizes(self):
        # Bit for bit: box sums are exact integers, so only the final
        # division rounds, once, in both.
        rng = random.Random(5)
        sizes = [(7, 5, 2), (9, 9, 4), (32, 32, 8), (10, 17, 3),
                 (33, 17, 8), (33, 17, 5), (9, 8, 8), (9, 8, 3), (9, 8, 1)]
        for w, h, grid in sizes:
            for channels in (1, 3):
                frame = Frame(w, h, channels,
                              bytes(rng.randrange(256) for _ in range(w * h * channels)))
                arr = np.frombuffer(frame.pixels, dtype=np.uint8).reshape(h, w, channels)
                want = np_downsample_boxes(arr, grid).tolist()
                assert downsample_boxes(frame, grid) == want, (w, h, grid, channels)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 9), st.sampled_from((1, 3)), st.data())
    def test_is_bitwise_the_numpy_oracle(self, grid, channels, data):
        # Any size from the grid up, a 1x1 frame at grid 1 among them.
        w, h = data.draw(st.integers(grid, 40)), data.draw(st.integers(grid, 40))
        n = w * h * channels
        frame = Frame(w, h, channels, data.draw(st.binary(min_size=n, max_size=n)))
        arr = np.frombuffer(frame.pixels, dtype=np.uint8).reshape(h, w, channels)
        want = np_downsample_boxes(arr, grid).tolist()
        assert list(map(float.hex, downsample_boxes(frame, grid))) == list(map(float.hex, want))

    def test_frame_smaller_than_grid(self):
        with pytest.raises(ConfigError, match="^3x3 frame is smaller than grid 4$"):
            downsample_boxes(Frame(3, 3, 1, bytes(9)), 4)

    def test_range(self):
        rng = random.Random(1)
        frame = rgb_frame(16, 16, rng)
        assert all(0.0 <= v <= 1.0 for v in downsample_boxes(frame, 4))


class TestProjection:
    def test_columns_are_orthonormal(self):
        spec = make_patch_projection_spec(grid=4, channels=3, dim=12, seed=3)
        p = np.array(spec.projection.values).reshape(48, 12)
        np.testing.assert_allclose(p.T @ p, np.eye(12), atol=1e-9)

    def test_seed_changes_projection(self):
        a = make_patch_projection_spec(dim=8, seed=0)
        b = make_patch_projection_spec(dim=8, seed=1)
        assert a.projection.values != b.projection.values

    def test_deterministic(self):
        a = make_patch_projection_spec(dim=8, seed=4)
        b = make_patch_projection_spec(dim=8, seed=4)
        assert a.projection.values == b.projection.values

    @pytest.mark.parametrize(
        "grid, channels, dim, seed", [(8, 3, 192, 0), (8, 3, 16, 0), (4, 1, 16, 3)]
    )
    def test_matches_the_generator_sum_reference(self, grid, channels, dim, seed):
        spec = make_patch_projection_spec(grid, channels, dim, seed)
        want = ref_orthonormal_columns(grid * grid * channels, dim, seed)
        assert [x.hex() for x in spec.projection.values] == [x.hex() for x in want]

    def test_dim_cannot_exceed_flattened_size(self):
        with pytest.raises(ConfigError, match="^dim 5 exceeds flattened size 4$"):
            make_patch_projection_spec(grid=2, channels=1, dim=5)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            EmbedderSpec(2, 1, 1, Matrix.identity(4))
        with pytest.raises(ConfigError, match=re.escape("projection must be 4x4, got (3, 3)")):
            EmbedderSpec(2, 1, 4, Matrix.identity(3))

    def test_a_shape_fault_at_load_names_the_file(self, tmp_path):
        path = tmp_path / "proj.json"
        doc = {"grid": 2, "channels": 3, "dim": 4, "projection": [[0.5] * 4] * 11}
        path.write_text(json.dumps(doc))
        message = f"bad projection file {path}: projection must be 12x4, got (11, 4)"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_projection_spec(path)

    def test_load_matches_constructed_spec(self, tmp_path):
        spec = make_patch_projection_spec(grid=3, channels=1, dim=4, seed=9)
        path = tmp_path / "proj.json"
        path.write_text(
            json.dumps(
                {
                    "grid": 3,
                    "channels": 1,
                    "dim": 4,
                    "projection": spec.projection.to_rows(),
                }
            )
        )
        again = load_projection_spec(path)
        assert again == spec

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("{/")
        with pytest.raises(ConfigError):
            load_projection_spec(path)
        path.write_text(json.dumps({"grid": 2}))
        with pytest.raises(ConfigError):
            load_projection_spec(path)


class TestEmbedFrame:
    def test_identity_projection_returns_normalized_cells(self):
        spec = identity_spec(grid=2, channels=1)
        px = [0, 0, 100, 100,
              0, 0, 100, 100,
              200, 200, 50, 50,
              200, 200, 50, 50]
        got = embed_frame(Frame(4, 4, 1, bytes(px)), spec)
        assert got == pytest.approx([0, 100 / 255, 200 / 255, 50 / 255], abs=1e-12)

    def test_all_black_maps_to_zero(self):
        spec = make_patch_projection_spec(grid=4, channels=3, dim=8, seed=0)
        got = embed_frame(Frame(8, 8, 3, bytes(192)), spec)
        assert got == pytest.approx([0.0] * 8, abs=1e-12)

    def test_locality_of_single_cell_change(self):
        # With an identity projection, brightening pixels inside one grid
        # cell moves exactly one coordinate.
        spec = identity_spec(grid=2, channels=1)
        base = Frame(4, 4, 1, bytes(16))
        changed = bytearray(16)
        changed[0] = changed[1] = changed[4] = changed[5] = 255
        a = embed_frame(base, spec)
        b = embed_frame(Frame(4, 4, 1, bytes(changed)), spec)
        diffs = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
        assert diffs == [0]

    def test_linearity_in_pixel_intensity(self):
        spec = make_patch_projection_spec(grid=2, channels=1, dim=3, seed=6)
        dim_px = bytes([60] * 16)
        bright_px = bytes([180] * 16)
        a = embed_frame(Frame(4, 4, 1, dim_px), spec)
        b = embed_frame(Frame(4, 4, 1, bright_px), spec)
        assert b == pytest.approx([3 * v for v in a], rel=1e-9)

    def test_is_bitwise_the_accumulate_loop(self):
        # A frame with black cells, so zero inputs are skipped by the loop.
        spec = make_patch_projection_spec(grid=4, channels=3, dim=12, seed=2)
        rng = random.Random(3)
        half = bytes(rng.randrange(256) for _ in range(33 * 8 * 3))
        frame = Frame(33, 17, 3, half + bytes(33 * 9 * 3))
        flat = downsample_boxes(frame, 4)
        assert 0.0 in flat
        want = loop_matmul(flat, spec.projection.values, 1, 48, 12)
        assert [x.hex() for x in embed_frame(frame, spec)] == [x.hex() for x in want]

    def test_overflowing_projection_is_a_data_error(self):
        n = 2 * 2 * 1
        spec = EmbedderSpec(2, 1, 2, Matrix(n, 2, [1e308] * (n * 2)))
        with pytest.raises(DataError, match="non-finite"):
            embed_frame(Frame(4, 4, 1, bytes([255] * 16)), spec)

    def test_channel_mismatch(self):
        spec = make_patch_projection_spec(grid=2, channels=3, dim=4)
        with pytest.raises(ConfigError, match="^frame has 1 channels, spec expects 3$"):
            embed_frame(Frame(4, 4, 1, bytes(16)), spec)

def clip_vector(frames, spec):
    """A clip's vector: its frame embeddings averaged by compute_prototypes."""
    return compute_prototypes([("clip", [embed_frame(f, spec) for f in frames])]).row(0)


class TestEmbedClip:
    def test_identical_frames_idempotent(self):
        spec = make_patch_projection_spec(grid=2, channels=1, dim=4, seed=2)
        frame = Frame(4, 4, 1, bytes(range(16)))
        single = embed_frame(frame, spec)
        assert clip_vector([frame] * 5, spec) == pytest.approx(single, abs=1e-12)

    def test_mean_of_two(self):
        spec = make_patch_projection_spec(grid=2, channels=1, dim=4, seed=2)
        f1 = Frame(4, 4, 1, bytes([0] * 16))
        f2 = Frame(4, 4, 1, bytes([200] * 16))
        u = embed_frame(f1, spec)
        v = embed_frame(f2, spec)
        got = clip_vector([f1, f2], spec)
        assert got == pytest.approx([(a + b) / 2 for a, b in zip(u, v)], abs=1e-12)

    def test_frame_order_does_not_matter(self):
        rng = random.Random(8)
        spec = make_patch_projection_spec(grid=2, channels=3, dim=6, seed=1)
        frames = [rgb_frame(4, 4, rng) for _ in range(4)]
        a = clip_vector(frames, spec)
        b = clip_vector(list(reversed(frames)), spec)
        assert a == pytest.approx(b, abs=1e-12)


# fault -> (dim, videos, family, message). A table read from a file and one
# built in code meet one check, so each fault raises the same family and
# message either way, the file's named in front.
TABLE_FAULTS = {
    "null-row": (2, {"v0": [[1.0, 2.0], None]}, DataError,
                 "no embedding for frame 1 of video 'v0'"),
    "non-number": (2, {"v0": [["x", 1.0]]}, ConfigError,
                   "video 'v0' frame 0 must be an array of numbers"),
    "bool": (2, {"v0": [[True, 1.0]]}, ConfigError,
             "video 'v0' frame 0 must be an array of numbers"),
    "nan": (2, {"v0": [[math.nan, 1.0]]}, DataError,
            "video 'v0' frame 0 holds a non-finite number"),
    "infinity": (2, {"v0": [[1.0, -math.inf]]}, DataError,
                 "video 'v0' frame 0 holds a non-finite number"),
    "huge-integer": (2, {"v0": [[10**400, 1.0]]}, ConfigError,
                     "video 'v0' frame 0 holds an integer too large for a float"),
    "short-row": (2, {"v0": [[1.0, 2.0], [1.0]]}, ConfigError,
                  "video 'v0' frame 1 has dim 1, expected 2"),
    "dim-1": (1, {"v0": [[1.0]]}, ConfigError, "dim must be >= 2, got 1"),
    "rows-not-an-array": (2, {"v0": {"0": [1.0, 2.0]}}, ConfigError,
                          "video 'v0': frame rows must be an array"),
    "norm-overflows": (2, {"v0": [[1e308, 1e308]]}, DataError,
                       "video 'v0' frame 0 has a non-finite norm"),
}


class TestPrecomputed:
    def write_table(self, tmp_path, doc):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc))
        return path

    def test_load_and_lookup(self, tmp_path):
        path = self.write_table(
            tmp_path, {"dim": 2, "videos": {"v0": [[1.0, 2.0], [3.0, 4.0]]}}
        )
        table = load_precomputed(path)
        assert table.dim == 2
        assert table.vector("v0", 1) == [3.0, 4.0]

    def test_lookups_return_the_file_values_bit_for_bit(self, tmp_path):
        rng = random.Random(4)
        videos = {
            f"v{k}": [[rng.uniform(-1e3, 1e3) for _ in range(5)] + [k, -7] for _ in range(k + 2)]
            for k in range(3)
        }
        table = load_precomputed(self.write_table(tmp_path, {"dim": 7, "videos": videos}))
        for video_id, rows in videos.items():
            for i, row in enumerate(rows):
                got = table.vector(video_id, i)
                assert type(got) is list and all(type(x) is float for x in got)
                assert list(map(float.hex, got)) == [float(x).hex() for x in row]

    def test_each_video_is_packed_in_one_array(self, tmp_path):
        path = self.write_table(tmp_path, {"dim": 2, "videos": {
            "v0": [[1.0, 2.0], [3, 4.5], [5.0, 6.0]], "v1": [[7.0, 8.0]], "v2": [],
        }})
        for table in (load_precomputed(path), PrecomputedTable(2, {"v0": [[1.0, 2.0]] * 3})):
            for packed in table.videos.values():
                assert type(packed) is array and packed.typecode == "d"
        table = load_precomputed(path)
        lengths = {video_id: len(packed) for video_id, packed in table.videos.items()}
        assert lengths == {"v0": 6, "v1": 2, "v2": 0}
        assert table.videos["v0"] == array("d", [1.0, 2.0, 3.0, 4.5, 5.0, 6.0])
        # Each lookup is a fresh list: changing it leaves the table as it was.
        table.vector("v1", 0)[0] = -1.0
        assert table.vector("v1", 0) == [7.0, 8.0]

    def test_a_built_row_of_the_wrong_length_is_rejected(self):
        with pytest.raises(ConfigError, match="^video 'v0' frame 1 has dim 3, expected 2$"):
            PrecomputedTable(2, {"v0": [[1.0, 2.0], [1.0, 2.0, 3.0]]})
        with pytest.raises(ConfigError, match="^video 'v1' frame 0 has dim 1, expected 2$"):
            PrecomputedTable(2, {"v0": [[1.0, 2.0]], "v1": [[1.0]]})

    @pytest.mark.parametrize("source", ["file", "code"])
    @pytest.mark.parametrize("fault", list(TABLE_FAULTS))
    def test_a_fault_is_the_same_from_a_file_or_from_code(self, tmp_path, fault, source):
        dim, videos, family, message = TABLE_FAULTS[fault]
        if source == "file":
            path = self.write_table(tmp_path, {"dim": dim, "videos": videos})
            message = f"bad embeddings file {path}: {message}"
        with pytest.raises(family, match=f"^{re.escape(message)}$") as info:
            if source == "file":
                load_precomputed(path)
            else:
                PrecomputedTable(dim, videos)
        assert type(info.value) is family

    def test_lookup_bounds(self):
        table = PrecomputedTable(2, {"v0": [[1.0, 2.0]]})
        with pytest.raises(DataError, match="^no embedding for frame 1 of video 'v0'$"):
            table.vector("v0", 1)
        with pytest.raises(DataError, match="^no embedding for frame -1 of video 'v0'$"):
            table.vector("v0", -1)
        with pytest.raises(DataError, match="^no embedding for frame 0 of video 'missing'$"):
            table.vector("missing", 0)

    def test_null_row_rejected_at_load(self, tmp_path):
        path = self.write_table(tmp_path, {"dim": 2, "videos": {"v0": [None]}})
        message = f"bad embeddings file {path}: no embedding for frame 0 of video 'v0'"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_precomputed(path)

    def test_mixed_dims_rejected(self, tmp_path):
        path = self.write_table(
            tmp_path, {"dim": 2, "videos": {"v0": [[1.0, 2.0], [1.0]]}}
        )
        with pytest.raises(ConfigError, match=re.escape(
            f"bad embeddings file {path}: video 'v0' frame 1 has dim 1, expected 2"
        )):
            load_precomputed(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_is_a_data_error(self, tmp_path, bad):
        path = self.write_table(
            tmp_path, {"dim": 2, "videos": {"v0": [[1.0, 2.0], [bad, 1.0]]}}
        )
        with pytest.raises(DataError, match="frame 1"):
            load_precomputed(path)

    def test_finite_row_whose_sum_overflows_is_rejected_for_its_norm(self, tmp_path):
        # Every entry is finite, so the row passes the number check, but its
        # squared norm overflows: a cosine or clip mean of it would too.
        path = self.write_table(tmp_path, {"dim": 2, "videos": {"v0": [[1e308, 1e308]]}})
        with pytest.raises(
            DataError, match=re.escape(f"{path}: video 'v0' frame 0 has a non-finite norm")
        ):
            load_precomputed(path)
        path = self.write_table(tmp_path, {"dim": 3, "videos": {"v0": [[1e308, 1e308, math.nan]]}})
        with pytest.raises(DataError, match="frame 0"):
            load_precomputed(path)

    def test_parse_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_precomputed(tmp_path / "absent.json")
        path = self.write_table(tmp_path, {"videos": {}})
        with pytest.raises(ConfigError):
            load_precomputed(path)
        path = self.write_table(tmp_path, {"dim": 1, "videos": {}})
        with pytest.raises(ConfigError):
            load_precomputed(path)
        malformed_videos = (
            [],
            {"v0": [["x", 1.0]]},
            {"v0": [[[1.0], 1.0]]},
            {"v0": [[10**400, 1.0]]},
        )
        for videos in malformed_videos:
            path = self.write_table(tmp_path, {"dim": 2, "videos": videos})
            with pytest.raises(ConfigError):
                load_precomputed(path)

    def test_validate_coverage(self):
        # Coverage is checked where a video's frame vectors are resolved.
        table = PrecomputedTable(2, {"v0": [[0.0, 0.0]]})
        runtime = PipelineRuntime(
            SamplerConfig(), EdgeFilterConfig(), table, None, 0, "digest"
        )
        good = VideoRecord("v0", "clean", ["f0"])
        long = VideoRecord("v0", "clean", ["f0", "f1"])
        other = VideoRecord("v1", "clean", ["f0"])
        assert video_frame_vectors(good, runtime, [(0,)]) == ({(0,): [0.0, 0.0]}, [], [])
        with pytest.raises(DataError, match="^no embedding for frame 1 of video 'v0'$"):
            video_frame_vectors(long, runtime, [(0, 1)])
        with pytest.raises(DataError, match="^no embedding for frame 0 of video 'v1'$"):
            video_frame_vectors(other, runtime, [(0,)])
