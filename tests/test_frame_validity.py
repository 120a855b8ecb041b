from __future__ import annotations

import math
import random

import numpy as np
import pytest
from _oracles import (
    np_sobel_magnitude,
    ref_edge_density,
    ref_sobel_magnitude,
    ref_to_grayscale,
)
from hypothesis import given, settings, strategies as st

from protopipe.clip_sampling import ClipIndex
from protopipe.errors import DataError
from protopipe.frame_validity import (
    _NO_HIT,
    ClipAudit,
    EdgeFilterConfig,
    SampledClip,
    _min_edge_square,
    filter_clips,
    is_frame_valid,
    majority_invalid,
    vote,
)
from protopipe.media_io.pnm import Frame


def gray(rows):
    h, w = len(rows), len(rows[0])
    return Frame(w, h, 1, bytes(v for row in rows for v in row))


def random_gray(rng, w, h):
    return Frame(w, h, 1, bytes(rng.randrange(256) for _ in range(w * h)))


def valid_at(frame, tau_mag=32.0, tau_density=0.01):
    return is_frame_valid(frame, EdgeFilterConfig(tau_mag=tau_mag, tau_density=tau_density))


def gate_luma(rgb):
    """The luma the gate sees for one RGB pixel.

    In a 3x3 frame whose left column is black and whose other pixels are
    `rgb`, the one interior pixel has gx = 4 * luma and gy = 0, so it clears
    tau_mag = 4 * v + 2 exactly for the v below the luma.
    """
    frame = Frame(3, 3, 3, bytes([0, 0, 0, *rgb, *rgb] * 3))
    return sum(valid_at(frame, 4 * v + 2, 1.0) for v in range(256))


STEP = gray([[0, 0, 0, 0, 255, 255, 255, 255] for _ in range(8)])  # edge density 1/3
ABOVE_THIRD = math.nextafter(1 / 3, 1.0)


class TestGrayscale:
    def test_grayscale_passes_through(self):
        # A gray frame is gated on its own bytes: the same frame as RGB with
        # r = g = b has the same luma, so the same decisions.
        rng = random.Random(5)
        for _ in range(50):
            frame = random_gray(rng, rng.randint(3, 9), rng.randint(3, 9))
            rgb = Frame(frame.width, frame.height, 3, bytes(v for v in frame.pixels for _ in "rgb"))
            for tau_mag in (0.0, 32.0, 300.0):
                for tau_density in (0.01, 0.3, 1.0):
                    assert valid_at(frame, tau_mag, tau_density) == valid_at(
                        rgb, tau_mag, tau_density
                    )

    def test_white_and_black(self):
        assert (gate_luma((255, 255, 255)), gate_luma((0, 0, 0))) == (255, 0)

    def test_pure_red(self):
        # 0.299 * 255 = 76.245, rounded half-up
        assert gate_luma((255, 0, 0)) == 76

    def test_rounding_half_up(self):
        # 0.299*1 + 0.587*1 + 0.114*1 = 1.0 exactly
        assert gate_luma((1, 1, 1)) == 1

    @pytest.mark.parametrize("blue", [0, 255])
    def test_every_red_green_pair_matches_the_reference(self, blue):
        # Row r, column g; with blue 255 this includes the brightest pixel,
        # (255, 255, 255), whose luma is exactly 255.0. The gate must agree
        # with the reference luma's density on each side of every boundary.
        frame = Frame(
            256, 256, 3, bytes(v for r in range(256) for g in range(256) for v in (r, g, blue))
        )
        assert ref_to_grayscale(frame)[-1] == (255 if blue else 226)
        for tau_mag in (4.5, 6.0):  # luma steps make magnitudes of about 4 to 7
            density = ref_edge_density(frame, tau_mag)
            assert 0.0 < density < 1.0
            assert valid_at(frame, tau_mag, density)
            assert not valid_at(frame, tau_mag, math.nextafter(density, 2.0))


class TestSobel:
    def test_constant_frame_is_flat(self):
        mags = ref_sobel_magnitude(gray([[7] * 5] * 5))
        assert mags.values == [0.0] * 9

    def test_vertical_step_edge(self):
        # 8x8, left half 0, right half 255: the 3x3 kernel sees the step
        # only from interior columns 3 and 4, where |Gx| = 4*255 = 1020.
        mags = ref_sobel_magnitude(STEP)
        assert (mags.rows, mags.cols) == (6, 6)
        hits = 0
        for y in range(6):
            for x in range(6):
                m = mags.values[y * mags.cols + x]
                if x + 1 in (3, 4):  # interior column coordinate
                    assert m == pytest.approx(1020.0, abs=1e-12)
                    hits += 1
                else:
                    assert m == 0.0
        assert hits == 12

    def test_step_density_is_one_third(self):
        assert ref_edge_density(STEP, 32.0) == 1 / 3
        assert valid_at(STEP, 32.0, 1 / 3)
        assert not valid_at(STEP, 32.0, ABOVE_THIRD)

    def test_transpose_symmetry(self):
        rng = random.Random(3)
        frame = random_gray(rng, 7, 5)
        transposed = gray(
            [[frame.pixels[y * 7 + x] for y in range(5)] for x in range(7)]
        )
        a = ref_sobel_magnitude(frame)
        b = ref_sobel_magnitude(transposed)
        for y in range(a.rows):
            for x in range(a.cols):
                assert a.values[y * a.cols + x] == pytest.approx(
                    b.values[x * b.cols + y], abs=1e-9
                )

    def test_block_checkerboard_saturates_density(self):
        # A 1-pixel checkerboard is invisible to a 3x3 Sobel (columns x-1 and
        # x+1 agree everywhere), so the smallest pattern the kernel can see
        # is the 2x2-block checkerboard; that one trips every interior pixel.
        rows = [
            [255 if ((x // 2) + (y // 2)) % 2 else 0 for x in range(8)]
            for y in range(8)
        ]
        assert valid_at(gray(rows), 32.0, 1.0)

    def test_single_pixel_checkerboard_is_invisible(self):
        rows = [[255 if (x + y) % 2 else 0 for x in range(8)] for y in range(8)]
        # One edge pixel would clear the smallest positive density.
        assert not valid_at(gray(rows), 0.0, math.ulp(0.0))

    def test_matches_convolution_oracle(self):
        rng = random.Random(11)
        for _ in range(20):
            w, h = rng.randint(3, 12), rng.randint(3, 12)
            frame = random_gray(rng, w, h)
            got = ref_sobel_magnitude(frame)
            want = np_sobel_magnitude(
                np.frombuffer(frame.pixels, dtype=np.uint8).reshape(h, w)
            )
            np.testing.assert_allclose(
                np.array(got.values).reshape(h - 2, w - 2), want, atol=1e-9
            )

    def test_too_small(self):
        with pytest.raises(DataError, match="^2x2: Sobel needs at least 3x3$"):
            valid_at(gray([[0, 0], [0, 0]]))
        with pytest.raises(DataError, match="^3x2: Sobel needs at least 3x3$"):
            valid_at(gray([[0, 0, 0], [0, 0, 0]]))
        # The size is checked before anything else, at any density.
        with pytest.raises(DataError, match="^2x5: Sobel needs at least 3x3$"):
            valid_at(Frame(2, 5, 3, bytes(30)), 32.0, 0.0)


# Square roots of integers (32.0 is sqrt(1024)), the floats beside them,
# values between them, the largest magnitude sqrt(2 * 1020**2) and past it.
SOBEL_THRESHOLDS = (
    0.0,
    32.0,
    math.nextafter(32.0, 0.0),
    math.nextafter(32.0, math.inf),
    math.sqrt(2),
    math.sqrt(1023),
    math.sqrt(1025),
    1.5,
    31.5,
    500.25,
    1020.0,
    math.sqrt(2 * 1020**2),
    1442.5,
    1e308,
)


class ReadLog(bytes):
    """Frame bytes that note how far into them a slice has reached."""

    reach = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.reach = max(self.reach, len(self) if key.stop is None else key.stop)
        return bytes.__getitem__(self, key)


class TestDensity:
    def test_threshold_is_strict(self):
        # one interior pixel at magnitude exactly tau must not count
        assert not valid_at(STEP, 1020.0, 1 / 3)
        assert valid_at(STEP, 1019.999, 1 / 3)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.sampled_from((1, 3)),
        st.integers(3, 20),
        st.integers(3, 20),
        st.sampled_from((1, 4, 16, 255)),
        st.data(),
    )
    def test_equals_the_oracle_decision(self, channels, w, h, top, data):
        # Low-contrast frames reach the small square sums. Magnitudes sit on,
        # just below and just above a square root of an integer (where
        # _min_edge_square moves), densities on and beside a count / area
        # (where the least edge count moves).
        pixels = data.draw(st.binary(min_size=w * h * channels, max_size=w * h * channels))
        frame = Frame(w, h, channels, bytes(v % (top + 1) for v in pixels))
        gray_frame = frame if channels == 1 else Frame(w, h, 1, ref_to_grayscale(frame))
        mags = ref_sobel_magnitude(gray_frame).values
        area = len(mags)
        edge = data.draw(st.sampled_from(mags))
        root = math.sqrt(data.draw(st.integers(0, _NO_HIT)))
        k = data.draw(st.integers(0, area))
        for tau_mag in SOBEL_THRESHOLDS + (
            edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf),
            root, math.nextafter(root, -math.inf),
        ):
            if tau_mag < 0:
                continue
            density = ref_edge_density(frame, tau_mag)
            for tau_density in (
                0.0, 1.0, density, math.nextafter(density, 0.0),
                min(1.0, math.nextafter(density, 2.0)), k / area,
                math.nextafter(k / area, 0.0), min(1.0, math.nextafter(k / area, 2.0)),
            ):
                want = density >= tau_density
                assert valid_at(frame, tau_mag, tau_density) == want, (tau_mag, tau_density)

    def test_min_edge_square_is_the_least_root_above(self):
        for tau in SOBEL_THRESHOLDS:
            n = _min_edge_square(tau)
            assert n == _NO_HIT or math.sqrt(n) > tau
            assert n == 0 or not math.sqrt(n - 1) > tau

    def test_monotone_in_both_thresholds(self):
        rng = random.Random(23)
        for _ in range(500):
            frame = random_gray(rng, rng.randint(3, 10), rng.randint(3, 10))
            lo = rng.uniform(0, 1400)
            hi = lo + rng.uniform(0, 1400 - lo)
            d_lo = rng.random()
            d_hi = d_lo + rng.uniform(0, 1 - d_lo)
            assert valid_at(frame, hi, d_lo) <= valid_at(frame, lo, d_lo)
            assert valid_at(frame, lo, d_hi) <= valid_at(frame, lo, d_lo)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_decided_before_the_last_row_is_read(self, channels):
        # Edges in the first four rows, flat below: the gate has its answer
        # from the top rows and reads no further.
        rows = [[0] * 10 + [255] * 10] * 4 + [[128] * 20] * 16
        pixels = ReadLog(bytes(v for row in rows for v in row for _ in range(channels)))
        frame = Frame(20, 20, channels, pixels)
        assert valid_at(frame)
        assert 0 < pixels.reach <= 4 * 20 * channels
        flat = ReadLog(bytes([128] * 400 * channels))
        assert not valid_at(Frame(20, 20, channels, flat))
        assert flat.reach == len(flat)  # a failing frame is read to its end


class TestValidity:
    def test_valid_and_invalid(self):
        cfg = EdgeFilterConfig(tau_mag=32.0, tau_density=0.01)
        flat = gray([[128] * 8] * 8)
        assert is_frame_valid(STEP, cfg)
        assert not is_frame_valid(flat, cfg)

    def test_boundary_is_inclusive(self):
        assert is_frame_valid(STEP, EdgeFilterConfig(tau_mag=32.0, tau_density=1 / 3))
        assert not is_frame_valid(
            STEP, EdgeFilterConfig(tau_mag=32.0, tau_density=1 / 3 + 1e-9)
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EdgeFilterConfig(tau_mag=-1.0)
        with pytest.raises(ValueError):
            EdgeFilterConfig(tau_density=1.5)


def dropped_by_full_count(flags) -> bool:
    """The majority rule applied to every frame of a clip, True meaning valid."""
    return 2 * flags.count(False) > len(flags)


class Reads:
    """An iterator over flags that records how many were read."""

    def __init__(self, flags):
        self.flags, self.read = flags, 0

    def __iter__(self):
        for flag in self.flags:
            self.read += 1
            yield flag


class TestVote:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.lists(st.booleans(), min_size=1, max_size=16))
    def test_reads_only_until_the_majority_is_fixed(self, flags):
        length = len(flags)
        reads = Reads(flags)
        invalid, checked = vote(reads, length)
        # The vote decides as a count of every frame does.
        assert majority_invalid(invalid, length) == dropped_by_full_count(flags)
        # It stops at the first prefix whose every completion decides alike:
        # the decision is monotone in the invalid count, so the all-valid
        # and all-invalid completions are the two extremes.
        fixed = next(
            k for k in range(length + 1)
            if dropped_by_full_count(flags[:k] + [True] * (length - k))
            == dropped_by_full_count(flags[:k] + [False] * (length - k))
        )
        assert reads.read == checked == fixed
        assert invalid == flags[:fixed].count(False)

    @pytest.mark.parametrize("flags, counted", [
        ([True] * 8, (0, 4)),
        ([False] * 8, (5, 5)),
        ([False] * 4 + [True] * 4, (4, 8)),
        ([True, False] * 4, (3, 7)),
        ([False], (1, 1)),
        ([True], (0, 1)),
    ])
    def test_counts_of_known_clips(self, flags, counted):
        assert vote(flags, len(flags)) == counted

    def test_majority_is_strictly_more_than_half(self):
        assert [majority_invalid(k, 8) for k in range(9)] == [False] * 5 + [True] * 4
        assert [majority_invalid(k, 7) for k in range(8)] == [False] * 4 + [True] * 4


def make_clip(video_id, start, frames):
    """A sampled clip and its (invalid, checked) under CFG, every frame counted."""
    clip = SampledClip(video_id, ClipIndex(start, len(frames)))
    invalid = sum(1 for f in frames if not is_frame_valid(f, CFG))
    return clip, {(video_id, tuple(clip.frames)): (invalid, len(frames))}


def run_filter(made, cfg=None):
    """filter_clips over clips from make_clip, given every clip's full count."""
    counts = {key: count for _, counted in made for key, count in counted.items()}
    return filter_clips([clip for clip, _ in made], cfg or CFG, counts)


VALID = gray([[0, 0, 0, 0, 255, 255, 255, 255] for _ in range(8)])
INVALID = gray([[128] * 8] * 8)
CFG = EdgeFilterConfig(tau_mag=32.0, tau_density=0.01)


class TestFilterClips:
    def test_majority_invalid_removed(self):
        clip = make_clip("v", 0, [INVALID] * 5 + [VALID] * 3)
        keeper = make_clip("v", 8, [VALID] * 8)
        retained, audits = run_filter([clip, keeper])
        assert retained == [keeper[0]]
        assert [a.removed for a in audits] == [True, False]
        assert audits[0].invalid == 5

    def test_exactly_half_retained(self):
        clip = make_clip("v", 0, [INVALID] * 4 + [VALID] * 4)
        retained, audits = run_filter([clip])
        assert retained == [clip[0]]
        assert not audits[0].removed
        assert not audits[0].override

    def test_all_removed_keeps_least_invalid(self):
        worst = make_clip("v", 0, [INVALID] * 8)
        best = make_clip("v", 8, [INVALID] * 5 + [VALID] * 3)
        retained, audits = run_filter([worst, best])
        assert retained == [best[0]]
        assert [a.override for a in audits] == [False, True]
        assert [a.removed for a in audits] == [True, False]

    def test_override_tie_breaks_on_start_then_order(self):
        a = make_clip("v", 16, [INVALID] * 8)
        b = make_clip("v", 0, [INVALID] * 8)
        retained, audits = run_filter([a, b])
        assert retained == [b[0]]  # equal counts: earliest start wins
        assert sum(a.override for a in audits) == 1

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("v0", "v1")),
                st.integers(0, 64),
                st.lists(st.booleans(), min_size=1, max_size=6),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_a_class_always_keeps_a_clip(self, shapes):
        # Validity is per frame of a video, so each drawn clip gets a video
        # of its own: two overlapping clips may disagree about a frame here.
        made = [
            make_clip(f"{video}/{n}", start, [VALID if ok else INVALID for ok in frames])
            for n, (video, start, frames) in enumerate(shapes)
        ]
        clips = [clip for clip, _ in made]
        retained, audits = run_filter(made)
        assert retained
        assert retained == [sc for sc, a in zip(clips, audits) if not a.removed]
        passing = [
            sc for sc, (_, _, ok) in zip(clips, shapes) if 2 * ok.count(False) <= len(ok)
        ]
        if passing:
            assert retained == passing
            assert not any(a.override for a in audits)
        else:
            assert len(retained) == 1 and sum(a.override for a in audits) == 1

    def test_disabled_filter_keeps_everything(self):
        clip = make_clip("v", 0, [INVALID] * 8)
        retained, audits = filter_clips([clip[0]], EdgeFilterConfig(enabled=False), {})
        assert retained == [clip[0]]
        assert audits[0].invalid == 0

    def test_empty_input(self):
        assert filter_clips([], CFG, {}) == ([], [])

    def test_clip_frames_are_its_indices(self):
        assert SampledClip("v", ClipIndex(3, 4)).frames == [3, 4, 5, 6]

    def test_audit_json_shape(self):
        audit = ClipAudit(
            video_id="v", clip_start=8, invalid=2, checked=6, length=8, removed=False,
            override=False,
        )
        assert audit.to_json_obj() == {
            "video_id": "v",
            "clip_start": 8,
            "invalid": 2,
            "checked": 6,
            "L": 8,
            "removed": False,
            "override": False,
        }
