from __future__ import annotations

import os
from collections import Counter
from dataclasses import replace

import pytest

from protopipe import evaluation, protonet
from protopipe.adaptation import centering_adapter_weights
from protopipe.clip_sampling import SamplerConfig, causal_sliding_window, sample_clips
from protopipe.config import build_runtime, load_config
from protopipe.embedding import PrecomputedTable, make_patch_projection_spec
from protopipe.evaluation import ARM_ORDER, arm_runtime, evaluate_users, make_rigged_scenario
from protopipe.frame_validity import EdgeFilterConfig
from protopipe.media_io.manifest import DatasetManifest, ObjectRecord, UserRecord
from protopipe.numerics import norm
from protopipe.protonet import (
    PipelineRuntime,
    build_episode,
    derive_video_seed,
    personalize,
    recognize_video,
)


def pixel_runtime() -> PipelineRuntime:
    return PipelineRuntime(
        sampler=SamplerConfig(clip_length=4, clips_per_video=2),
        edge_filter=EdgeFilterConfig(),
        embedder=make_patch_projection_spec(grid=4, channels=3, dim=16, seed=0),
        adapter=centering_adapter_weights(16, 0.25),
        seed=0,
        digest="test",
    )


def swap_frames(manifest: DatasetManifest, kind: str) -> DatasetManifest:
    """Same video ids, but each object's `kind` video shows the next object."""
    users = []
    for user in manifest.users:
        donors = [obj.videos_of_kind(kind)[0] for obj in user.objects]
        objects = []
        for i, obj in enumerate(user.objects):
            donor = donors[(i + 1) % len(donors)]
            videos = [
                replace(v, frame_paths=donor.frame_paths) if v.kind == kind else v
                for v in obj.videos
            ]
            objects.append(ObjectRecord(obj.label, videos))
        users.append(UserRecord(user.user_id, objects))
    return DatasetManifest(users)


def sampled_clips(video, runtime):
    """The clips one runtime's sampler picks from a support video, found independently."""
    return sample_clips(
        video.num_frames, runtime.sampler, derive_video_seed(runtime.seed, video.video_id)
    )


def dummy_table(manifest) -> PrecomputedTable:
    """A dim-2 row for every frame: sampling and gating do not depend on the embedder."""
    return PrecomputedTable(2, {
        v.video_id: [[1.0, float(i)] for i in range(v.num_frames)]
        for v in manifest.all_videos()
    })


def in_one_process(monkeypatch) -> None:
    """Keep `embed_plan` in this process, where spies see every call."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


@pytest.fixture(scope="module")
def rigged(tmp_path_factory):
    manifest, config_path = make_rigged_scenario(tmp_path_factory.mktemp("rigged"))
    return manifest, build_runtime(load_config(config_path))


class TestRigged:
    def test_the_plan_alone_decides_which_frames_are_gated(self, rigged):
        manifest, runtime = rigged
        report = evaluate_users(manifest, runtime)
        assert [arm["name"] for arm in report["arms"]] == list(ARM_ORDER)
        assert report["arms"][-1]["aggregate"] == 1.0
        # The arms set `enabled` themselves; the config's value reaches no gate.
        off = replace(runtime, edge_filter=replace(runtime.edge_filter, enabled=False))
        assert evaluate_users(manifest, off) == report

    def test_each_arm_samples_each_support_video_once(self, rigged, monkeypatch):
        in_one_process(monkeypatch)
        manifest, runtime = rigged
        # Sampling does not depend on the embedder, so a table keeps this quick.
        runtime = replace(runtime, embedder=dummy_table(manifest), adapter=None)
        sampled = []
        sample_clips = protonet.sample_clips

        def counting(num_frames, cfg, seed):
            sampled.append(seed)
            return sample_clips(num_frames, cfg, seed)

        monkeypatch.setattr(protonet, "sample_clips", counting)
        evaluate_users(manifest, runtime)
        support = [v for v in manifest.all_videos() if v.kind == "clean"]
        assert len(sampled) == len(ARM_ORDER) * len(support) == 48

    def test_each_query_clip_norm_is_taken_once(self, rigged, monkeypatch):
        in_one_process(monkeypatch)
        manifest, runtime = rigged
        runtime = replace(runtime, embedder=dummy_table(manifest), adapter=None)
        query_norms = []

        def counting(v):
            query_norms.append(v)
            return norm(v)

        # `evaluation` takes only the query clips' norms; a prototype row's
        # comes from `protonet`, which this spy does not see.
        monkeypatch.setattr(evaluation, "norm", counting)
        evaluate_users(manifest, runtime)
        queries = [v for v in manifest.all_videos() if v.kind == "clutter"]
        assert len(query_norms) == sum(v.num_frames for v in queries) == 576

    def test_votes_gate_162_of_the_288_filtered_frames(self, rigged, monkeypatch):
        in_one_process(monkeypatch)
        manifest, runtime = rigged
        runtime = replace(runtime, embedder=dummy_table(manifest), adapter=None)
        gated = []
        is_frame_valid = protonet.is_frame_valid

        def counting(frame, cfg):
            gated.append(frame)
            return is_frame_valid(frame, cfg)

        monkeypatch.setattr(protonet, "is_frame_valid", counting)
        evaluate_users(manifest, runtime)
        # The filter arm samples 36 clips of 8 frames; gating each in full
        # would read all 288 frames.
        assert len(gated) == 162

    def test_personalize_embeds_only_the_clips_the_vote_keeps(self, rigged, monkeypatch):
        in_one_process(monkeypatch)
        manifest, runtime = rigged
        runtime = replace(runtime, embedder=dummy_table(manifest), adapter=None)
        embedded = Counter()
        frame_vector = PipelineRuntime.frame_vector

        def counting(self, video, index, frame):
            embedded[video.video_id, index] += 1
            return frame_vector(self, video, index, frame)

        monkeypatch.setattr(PipelineRuntime, "frame_vector", counting)
        audits = []
        for user_id in manifest.user_ids():
            audits += personalize(build_episode(manifest, user_id), runtime)[1]
        # The filter drops 18 of the 36 sampled clips and overrides none,
        # so half of the 288 sampled support frames are embedded, each once.
        assert (sum(a.removed for a in audits), len(audits)) == (18, 36)
        assert not any(a.override for a in audits)
        assert sum(embedded.values()) == len(embedded) == 144


class TestOnePlan:
    def test_each_frame_is_embedded_once(self, small_dataset, monkeypatch):
        in_one_process(monkeypatch)
        manifest, _ = small_dataset
        used, embedded, plans = Counter(), [], []
        frame_vector, embed_frame = PipelineRuntime.frame_vector, protonet.embed_frame
        embed_plan = evaluation.embed_plan

        def spy_frame_vector(self, video, index, frame):
            used[video.video_id, index] += 1
            return frame_vector(self, video, index, frame)

        def counting_embed_frame(frame, spec):
            embedded.append(frame)
            return embed_frame(frame, spec)

        def spy_embed_plan(plan, runtime):
            plans.append(plan)
            return embed_plan(plan, runtime)

        monkeypatch.setattr(PipelineRuntime, "frame_vector", spy_frame_vector)
        monkeypatch.setattr(protonet, "embed_frame", counting_embed_frame)
        monkeypatch.setattr(evaluation, "embed_plan", spy_embed_plan)
        evaluate_users(manifest, pixel_runtime())
        assert len(embedded) == len(used) > 0
        assert set(used.values()) == {1}
        # One plan per user, holding that user's videos and no other's.
        episodes = [build_episode(manifest, uid) for uid in manifest.user_ids()]
        assert [{part.video.video_id for part in plan} for plan in plans] == [
            {v.video_id for _, vs in ep.support for v in vs} | {v.video_id for v, _ in ep.query}
            for ep in episodes
        ]

    def test_arms_match_their_solo_runs(self, small_dataset):
        manifest, _ = small_dataset
        runtime = pixel_runtime()
        full = evaluate_users(manifest, runtime)
        for row in full["arms"]:
            (solo,) = evaluate_users(manifest, runtime, (row["name"],))["arms"]
            assert (solo["aggregate"], solo["per_user"]) == (
                row["aggregate"], row["per_user"],
            ), row["name"]

    def test_query_vectors_do_not_outlive_one_call(self, small_dataset):
        manifest, _ = small_dataset
        swapped = swap_frames(manifest, "clutter")
        runtime = pixel_runtime()
        first = evaluate_users(manifest, runtime)
        second = evaluate_users(swapped, runtime)
        # The swapped queries show the wrong object under the same ids:
        # vectors carried over from the first call would score them as before.
        assert second["arms"][-1]["aggregate"] < first["arms"][-1]["aggregate"]
        assert second == evaluate_users(swapped, pixel_runtime())
        assert first == evaluate_users(manifest, pixel_runtime())

    def test_support_vectors_do_not_outlive_one_call(self, small_dataset):
        manifest, _ = small_dataset
        swapped = swap_frames(manifest, "clean")
        runtime = pixel_runtime()
        first = evaluate_users(manifest, runtime)
        second = evaluate_users(swapped, runtime)
        # Each class's prototype now shows the next object: support vectors
        # carried over from the first call would keep every arm as it was.
        for before, after in zip(first["arms"], second["arms"]):
            assert after["aggregate"] < before["aggregate"], before["name"]
        assert second == evaluate_users(swapped, pixel_runtime())

    def test_each_clip_is_averaged_once(self, small_dataset, monkeypatch):
        in_one_process(monkeypatch)
        manifest, _ = small_dataset
        averaged = []
        mean_vectors = protonet.mean_vectors

        def counting(vectors):
            averaged.append(len(vectors))
            return mean_vectors(vectors)

        monkeypatch.setattr(protonet, "mean_vectors", counting)
        runtime = pixel_runtime()
        evaluate_users(manifest, runtime)
        runtimes = [arm_runtime(runtime, arm) for arm in ARM_ORDER]
        want = 0
        for user_id in manifest.user_ids():
            episode = build_episode(manifest, user_id)
            # Each distinct support clip of any arm and each query frame's
            # window is averaged once; then every arm averages each class.
            support = {
                (video.video_id, tuple(clip.frame_indices()))
                for _, videos in episode.support
                for video in videos
                for rt in runtimes
                for clip in sampled_clips(video, rt)
            }
            want += len(support) + sum(video.num_frames for video, _ in episode.query)
            want += len(runtimes) * len(episode.support)
        assert len(averaged) == want


class TestFrameSource:
    """Each planned frame is decoded once; a table embedder decodes only the gate's."""

    def record_loads(self, monkeypatch) -> list[list[str]]:
        in_one_process(monkeypatch)
        calls = []
        load_frames_parallel = protonet.load_frames_parallel

        def recording(paths, cfg):
            calls.append(list(paths))
            return load_frames_parallel(paths, cfg)

        monkeypatch.setattr(protonet, "load_frames_parallel", recording)
        return calls

    def sampled_paths(self, manifest, runtime, arm) -> set[str]:
        """Every support frame one arm's sampler picks, found independently."""
        rt = arm_runtime(runtime, arm)
        paths = set()
        for user_id in manifest.user_ids():
            for _, videos in build_episode(manifest, user_id).support:
                for video in videos:
                    for clip in sampled_clips(video, rt):
                        paths.update(video.frame_paths[i] for i in clip.frame_indices())
        return paths

    def test_pixel_embedder(self, small_dataset, monkeypatch):
        manifest, _ = small_dataset
        runtime = pixel_runtime()
        calls = self.record_loads(monkeypatch)
        evaluate_users(manifest, runtime)
        query = [p for v in manifest.all_videos() if v.kind == "clutter" for p in v.frame_paths]
        # The filter arm's frames are gated and embedded; the uniform arm
        # samples them too, so one decode serves both.
        support = set().union(*(self.sampled_paths(manifest, runtime, a) for a in ARM_ORDER))
        loaded = Counter(p for call in calls for p in call)
        assert loaded == Counter(query) + Counter(support)
        assert len(calls) == len(manifest.all_videos())

    def test_table_embedder(self, small_dataset, small_table, monkeypatch):
        manifest, _ = small_dataset
        runtime = replace(pixel_runtime(), embedder=small_table)
        calls = self.record_loads(monkeypatch)
        evaluate_users(manifest, runtime)
        loaded = Counter(p for call in calls for p in call)
        assert loaded == Counter(self.sampled_paths(manifest, runtime, "filter"))
        assert all(calls)

    def test_no_frame_is_gated_without_the_filter_arm(self, small_dataset, monkeypatch):
        in_one_process(monkeypatch)
        manifest, _ = small_dataset
        gated = []
        is_frame_valid = protonet.is_frame_valid

        def counting(frame, cfg):
            gated.append(frame)
            return is_frame_valid(frame, cfg)

        monkeypatch.setattr(protonet, "is_frame_valid", counting)
        evaluate_users(manifest, pixel_runtime(), ("baseline", "adapt", "uniform"))
        assert gated == []
        evaluate_users(manifest, pixel_runtime(), ("filter",))
        assert gated


class TestQueryClips:
    def test_arms_equal_personalize_then_recognize_video(self, small_dataset, monkeypatch):
        in_one_process(monkeypatch)
        manifest, _ = small_dataset
        scored = []
        classify_clip = evaluation.classify_clip

        def spy_classify_clip(q, nq, protos):
            label, scores = classify_clip(q, nq, protos)
            scored.append((label, tuple(scores)))
            return label, scores

        monkeypatch.setattr(evaluation, "classify_clip", spy_classify_clip)
        runtime = pixel_runtime()
        evaluate_users(manifest, runtime)
        monkeypatch.undo()
        episodes = [build_episode(manifest, uid) for uid in manifest.user_ids()]
        want = []
        # Each user is scored under every arm in turn.
        for ep in episodes:
            for arm in ARM_ORDER:
                rt = arm_runtime(runtime, arm)
                protos, _ = personalize(ep, rt)
                for video, _ in ep.query:
                    want += [(p.pred, p.scores) for p in recognize_video(video, protos, rt)]
        assert scored == want

    def test_each_video_is_read_once(self, small_dataset, monkeypatch):
        in_one_process(monkeypatch)
        manifest, _ = small_dataset
        reads = Counter()
        clips_read, voted_read = {}, {}
        video_frame_vectors = protonet.video_frame_vectors

        def counting(video, runtime, clips, voted=(), gate=()):
            reads[video.video_id] += 1
            clips_read[video.video_id] = sorted({*clips, *voted})
            voted_read[video.video_id] = list(voted)
            return video_frame_vectors(video, runtime, clips, voted, gate)

        monkeypatch.setattr(protonet, "video_frame_vectors", counting)
        runtime = pixel_runtime()
        evaluate_users(manifest, runtime)
        # No video is read twice. A query video's clips are its causal
        # windows, one per frame in frame order; a support video's are the
        # distinct clips that some arm samples from it, and those of the
        # filter arm are voted on.
        assert reads == Counter(v.video_id for v in manifest.all_videos())
        for video in manifest.all_videos():
            voted = []
            if video.kind == "clutter":
                want = causal_sliding_window(video.num_frames, runtime.sampler.clip_length)
            else:
                want = sorted({
                    tuple(clip.frame_indices())
                    for arm in ARM_ORDER
                    for clip in sampled_clips(video, arm_runtime(runtime, arm))
                })
                voted = sorted({
                    tuple(clip.frame_indices())
                    for clip in sampled_clips(video, arm_runtime(runtime, "filter"))
                })
            assert clips_read[video.video_id] == [tuple(c) for c in want], video.video_id
            assert voted_read[video.video_id] == voted, video.video_id
