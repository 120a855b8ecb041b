from __future__ import annotations

import math
import random

import numpy as np
import pytest
from _oracles import np_sobel_magnitude, ref_sobel_magnitude, ref_to_grayscale
from hypothesis import given, settings, strategies as st

from protopipe.clip_sampling import ClipIndex
from protopipe.frame_validity import (
    ClipAudit,
    EdgeFilterConfig,
    FrameTooSmall,
    SampledClip,
    UnsupportedChannels,
    edge_density,
    filter_clips,
    is_frame_valid,
    to_grayscale,
)
from protopipe.media_io.pnm import Frame


def gray(rows):
    h, w = len(rows), len(rows[0])
    return Frame(w, h, 1, bytes(v for row in rows for v in row))


def random_gray(rng, w, h):
    return Frame(w, h, 1, bytes(rng.randrange(256) for _ in range(w * h)))


class TestGrayscale:
    def test_grayscale_passes_through(self):
        frame = gray([[1, 2], [3, 4]])
        assert to_grayscale(frame) is frame

    def test_white_and_black(self):
        frame = Frame(2, 1, 3, bytes([255, 255, 255, 0, 0, 0]))
        assert to_grayscale(frame).pixels == bytes([255, 0])

    def test_pure_red(self):
        frame = Frame(1, 1, 3, bytes([255, 0, 0]))
        # 0.299 * 255 = 76.245, rounded half-up
        assert to_grayscale(frame).pixels == bytes([76])

    def test_rounding_half_up(self):
        # 0.299*1 + 0.587*1 + 0.114*1 = 1.0 exactly
        frame = Frame(1, 1, 3, bytes([1, 1, 1]))
        assert to_grayscale(frame).pixels == bytes([1])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 12), st.integers(1, 12), st.data())
    def test_matches_the_per_pixel_reference(self, w, h, data):
        pixels = data.draw(st.binary(min_size=3 * w * h, max_size=3 * w * h))
        frame = Frame(w, h, 3, pixels)
        assert to_grayscale(frame).pixels == ref_to_grayscale(frame)

    @pytest.mark.parametrize("blue", [0, 255])
    def test_every_red_green_pair_matches_the_reference(self, blue):
        # Row r, column g; with blue 255 this includes the brightest pixel,
        # (255, 255, 255), whose luma is exactly 255.0.
        frame = Frame(
            256, 256, 3, bytes(v for r in range(256) for g in range(256) for v in (r, g, blue))
        )
        got = to_grayscale(frame).pixels
        assert got == ref_to_grayscale(frame)
        assert got[-1] == (255 if blue else 226)

    def test_sobel_rejects_rgb(self):
        with pytest.raises(UnsupportedChannels):
            edge_density(Frame(3, 3, 3, bytes(27)), 32.0)


class TestSobel:
    def test_constant_frame_is_flat(self):
        mags = ref_sobel_magnitude(gray([[7] * 5] * 5))
        assert mags.values == [0.0] * 9

    def test_vertical_step_edge(self):
        # 8x8, left half 0, right half 255: the 3x3 kernel sees the step
        # only from interior columns 3 and 4, where |Gx| = 4*255 = 1020.
        rows = [[0, 0, 0, 0, 255, 255, 255, 255] for _ in range(8)]
        mags = ref_sobel_magnitude(gray(rows))
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
        rows = [[0, 0, 0, 0, 255, 255, 255, 255] for _ in range(8)]
        assert edge_density(gray(rows), 32.0) == pytest.approx(1 / 3, abs=1e-12)

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
        assert edge_density(gray(rows), 32.0) == 1.0

    def test_single_pixel_checkerboard_is_invisible(self):
        rows = [[255 if (x + y) % 2 else 0 for x in range(8)] for y in range(8)]
        assert edge_density(gray(rows), 0.0) == 0.0

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
        with pytest.raises(FrameTooSmall):
            edge_density(gray([[0, 0], [0, 0]]), 32.0)
        with pytest.raises(FrameTooSmall):
            edge_density(gray([[0, 0, 0], [0, 0, 0]]), 32.0)


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


class TestDensity:
    def test_threshold_is_strict(self):
        # one interior pixel at magnitude exactly tau must not count
        rows = [[0, 0, 0, 0, 255, 255, 255, 255] for _ in range(8)]
        frame = gray(rows)
        assert edge_density(frame, 1020.0) == 0.0
        assert edge_density(frame, 1019.999) == pytest.approx(1 / 3)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(3, 40), st.integers(3, 40), st.sampled_from((1, 4, 16, 255)), st.data())
    def test_is_bitwise_the_float_sobel_count(self, w, h, top, data):
        # Low-contrast frames reach the small square sums; thresholds sit on,
        # just below and just above a magnitude that occurs in the frame.
        pixels = data.draw(st.binary(min_size=w * h, max_size=w * h))
        frame = Frame(w, h, 1, bytes(v % (top + 1) for v in pixels))
        mags = ref_sobel_magnitude(frame).values
        hit = data.draw(st.sampled_from(mags))
        thresholds = SOBEL_THRESHOLDS + (
            hit,
            math.nextafter(hit, -math.inf),
            math.nextafter(hit, math.inf),
            data.draw(st.floats(0.0, 1500.0)),
        )
        for tau in thresholds:
            want = sum(1 for m in mags if m > tau) / len(mags)
            assert edge_density(frame, tau) == want, tau

    def test_monotone_in_threshold_and_bounded(self):
        rng = random.Random(23)
        for _ in range(500):
            frame = random_gray(rng, rng.randint(3, 10), rng.randint(3, 10))
            lo = rng.uniform(0, 1400)
            hi = lo + rng.uniform(0, 1400 - lo)
            d_lo = edge_density(frame, lo)
            d_hi = edge_density(frame, hi)
            assert 0.0 <= d_hi <= d_lo <= 1.0


class TestValidity:
    def test_valid_and_invalid(self):
        cfg = EdgeFilterConfig(tau_mag=32.0, tau_density=0.01)
        step = gray([[0, 0, 0, 0, 255, 255, 255, 255] for _ in range(8)])
        flat = gray([[128] * 8] * 8)
        assert is_frame_valid(step, cfg)
        assert not is_frame_valid(flat, cfg)

    def test_boundary_is_inclusive(self):
        step = gray([[0, 0, 0, 0, 255, 255, 255, 255] for _ in range(8)])
        assert is_frame_valid(step, EdgeFilterConfig(tau_mag=32.0, tau_density=1 / 3))
        assert not is_frame_valid(
            step, EdgeFilterConfig(tau_mag=32.0, tau_density=1 / 3 + 1e-9)
        )

    def test_disabled_filter_accepts_anything(self):
        flat = gray([[0] * 8] * 8)
        assert is_frame_valid(flat, EdgeFilterConfig(enabled=False))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EdgeFilterConfig(tau_mag=-1.0)
        with pytest.raises(ValueError):
            EdgeFilterConfig(tau_density=1.5)


def make_clip(video_id, start, frames):
    """A sampled clip and its frames' validity under CFG, by (video_id, index)."""
    clip = SampledClip(video_id, ClipIndex(start, len(frames)))
    return clip, {(video_id, start + k): is_frame_valid(f, CFG) for k, f in enumerate(frames)}


def run_filter(made, cfg=None):
    """filter_clips over clips from make_clip, given every frame's validity."""
    valid = {key: ok for _, gated in made for key, ok in gated.items()}
    return filter_clips([clip for clip, _ in made], cfg or CFG, valid)


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
            video_id="v", clip_start=8, invalid=2, length=8, removed=False,
            override=False,
        )
        assert audit.to_json_obj() == {
            "video_id": "v",
            "clip_start": 8,
            "invalid": 2,
            "L": 8,
            "removed": False,
            "override": False,
        }
