from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from protopipe.clip_sampling import (
    WITHIN_CHUNK_CHOICES,
    ClipIndex,
    SamplerConfig,
    causal_sliding_window,
    enumerate_candidates,
    sample_clips,
)
from protopipe.errors import DataError


def starts(clips):
    return [c.start for c in clips]


class TestCandidates:
    def test_exact_multiple(self):
        assert starts(enumerate_candidates(16, 8)) == [0, 8]

    def test_remainder_dropped(self):
        assert starts(enumerate_candidates(20, 8)) == [0, 8]

    def test_too_short(self):
        assert enumerate_candidates(7, 8) == []

    def test_length_one(self):
        assert starts(enumerate_candidates(3, 1)) == [0, 1, 2]

    def test_frame_indices(self):
        assert ClipIndex(8, 4).frame_indices() == [8, 9, 10, 11]


class TestUniformSampler:
    def test_all_candidates_when_video_short(self):
        for within in ("first", "middle", "seeded_random"):
            cfg = SamplerConfig(clip_length=8, clips_per_video=2, within_chunk=within)
            assert starts(sample_clips(16, cfg, 0)) == [0, 8]

    def test_forty_frames_two_clips_first(self):
        cfg = SamplerConfig(clip_length=8, clips_per_video=2, within_chunk="first")
        assert starts(sample_clips(40, cfg, 0)) == [0, 16]

    def test_forty_frames_two_clips_middle(self):
        # 5 candidates, chunks of 2: middle pick is index 1 of each chunk
        cfg = SamplerConfig(clip_length=8, clips_per_video=2, within_chunk="middle")
        assert starts(sample_clips(40, cfg, 0)) == [8, 24]

    def test_fewer_candidates_than_requested(self):
        cfg = SamplerConfig(clip_length=8, clips_per_video=5)
        assert starts(sample_clips(24, cfg, 0)) == [0, 8, 16]

    def test_too_short_raises(self):
        cfg = SamplerConfig(clip_length=8, clips_per_video=2)
        with pytest.raises(DataError, match="^7 frames cannot fit a 8-frame clip$"):
            sample_clips(7, cfg, 0)

    def test_seeded_random_is_reproducible(self):
        cfg = SamplerConfig(clip_length=4, clips_per_video=3, within_chunk="seeded_random")
        assert sample_clips(100, cfg, 99) == sample_clips(100, cfg, 99)

    def test_random_triples_structure(self):
        # Whatever the shape of the video, picks are one-per-chunk, sorted,
        # non-overlapping, and there are exactly min(K, C) of them.
        rng = random.Random(42)
        for _ in range(1000):
            length = rng.randint(1, 16)
            num_frames = rng.randint(length, 400)
            k = rng.randint(1, 10)
            within = rng.choice(("first", "middle", "seeded_random"))
            cfg = SamplerConfig(clip_length=length, clips_per_video=k, within_chunk=within)
            clips = sample_clips(num_frames, cfg, rng.randint(0, 10**6))
            c = num_frames // length
            assert len(clips) == min(k, c)
            ss = starts(clips)
            assert ss == sorted(ss)
            for a, b in zip(clips, clips[1:]):
                assert a.start + a.length <= b.start  # non-overlapping
            for clip in clips:
                assert clip.start % length == 0
                assert clip.start + clip.length <= num_frames
            if c > k:
                chunk_size = c // k
                for i, clip in enumerate(clips):
                    idx = clip.start // length
                    assert i * chunk_size <= idx < (i + 1) * chunk_size
                # one pick per chunk keeps temporal coverage even: no two
                # consecutive picks more than two chunks apart
                for a, b in zip(ss, ss[1:]):
                    assert b - a <= 2 * chunk_size * length


class TestRandomSampler:
    def test_video_exactly_clip_length(self):
        cfg = SamplerConfig(policy="random", clip_length=8, clips_per_video=3)
        assert starts(sample_clips(8, cfg, 0)) == [0, 0, 0]

    def test_reproducible_and_sorted(self):
        cfg = SamplerConfig(policy="random", clip_length=8, clips_per_video=6)
        a = sample_clips(100, cfg, 5)
        assert a == sample_clips(100, cfg, 5)
        assert starts(a) == sorted(starts(a))

    def test_too_short_raises(self):
        cfg = SamplerConfig(policy="random", clip_length=8)
        with pytest.raises(DataError, match="^7 frames cannot fit a 8-frame clip$"):
            sample_clips(7, cfg, 0)

    def test_starts_are_uniform_over_valid_range(self):
        # 18 frames, length 8 -> starts live in {0..10}; draw a lot of them
        # across seeds and check the histogram against a flat distribution.
        counts = [0] * 11
        for seed in range(2500):
            cfg = SamplerConfig(policy="random", clip_length=8, clips_per_video=4)
            for s in starts(sample_clips(18, cfg, seed)):
                counts[s] += 1
        assert sum(counts) == 10_000
        result = stats.chisquare(counts)
        assert result.pvalue > 0.01, counts


class TestDispatch:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        num_frames=st.integers(1, 300),
        length=st.integers(1, 16),
        k=st.integers(1, 10),
        policy=st.sampled_from(("uniform", "random")),
        within=st.sampled_from(WITHIN_CHUNK_CHOICES),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_clips_are_in_range_contiguous_and_seeded(
        self, num_frames, length, k, policy, within, seed
    ):
        # One clip per chunk under uniform is test_random_triples_structure.
        cfg = SamplerConfig(length, k, policy, within)
        if num_frames < length:
            message = f"^{num_frames} frames cannot fit a {length}-frame clip$"
            with pytest.raises(DataError, match=message):
                sample_clips(num_frames, cfg, seed)
            return
        clips = sample_clips(num_frames, cfg, seed)
        assert sample_clips(num_frames, cfg, seed) == clips
        wanted = k if policy == "random" else min(k, num_frames // length)
        assert len(clips) == wanted
        for clip in clips:
            indices = clip.frame_indices()
            assert indices == list(range(indices[0], indices[0] + length))
            assert 0 <= indices[0] and indices[-1] < num_frames

    def test_sample_clips_routes_by_policy(self):
        uniform = sample_clips(64, SamplerConfig(policy="uniform", clips_per_video=2), 0)
        rand = sample_clips(64, SamplerConfig(policy="random", clips_per_video=2), 0)
        assert len(uniform) == len(rand) == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(clip_length=0)
        with pytest.raises(ValueError):
            SamplerConfig(clips_per_video=0)
        with pytest.raises(ValueError):
            SamplerConfig(policy="stratified")
        with pytest.raises(ValueError):
            SamplerConfig(within_chunk="last")


class TestCausalWindow:
    def test_three_frames_length_two(self):
        assert causal_sliding_window(3, 2) == [[0, 0], [0, 1], [1, 2]]

    def test_length_one_is_identity(self):
        assert causal_sliding_window(4, 1) == [[0], [1], [2], [3]]

    def test_short_video_long_clip(self):
        windows = causal_sliding_window(5, 8)
        assert windows[0] == [0] * 8
        assert windows[-1] == [0, 0, 0, 0, 1, 2, 3, 4]

    def test_random_shapes_are_causal(self):
        rng = random.Random(7)
        for _ in range(200):
            num_frames = rng.randint(1, 60)
            length = rng.randint(1, 12)
            windows = causal_sliding_window(num_frames, length)
            assert len(windows) == num_frames
            for t, window in enumerate(windows):
                assert len(window) == length
                assert window[-1] == t  # ends at the frame it predicts
                assert max(window) == t  # never peeks ahead
                assert min(window) >= 0
                assert t - window[0] < length  # spans at most `length` frames
                assert window == sorted(window)

    def test_stride(self):
        with pytest.raises(ValueError):
            causal_sliding_window(0, 2)
