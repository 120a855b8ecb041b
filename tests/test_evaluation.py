from __future__ import annotations

import os
from collections import Counter
from dataclasses import replace

from protopipe import evaluation, protonet
from protopipe.adaptation import centering_adapter_weights
from protopipe.clip_sampling import SamplerConfig, sample_clips
from protopipe.embedding import make_patch_projection_spec
from protopipe.evaluation import ARM_ORDER, arm_runtime, evaluate_users
from protopipe.frame_validity import EdgeFilterConfig
from protopipe.media_io.manifest import DatasetManifest, ObjectRecord, UserRecord
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


def in_one_process(monkeypatch) -> None:
    """Keep `embed_plan` in this process, where spies see every call."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


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
        assert len(plans) == 1

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
                    cfg = replace(rt.sampler, seed=derive_video_seed(rt.seed, video.video_id))
                    for clip in sample_clips(video.num_frames, cfg):
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
        manifest, _ = small_dataset
        scored = []
        classify_clip = evaluation.classify_clip

        def spy_classify_clip(q, protos):
            label, scores = classify_clip(q, protos)
            scored.append((label, tuple(scores)))
            return label, scores

        monkeypatch.setattr(evaluation, "classify_clip", spy_classify_clip)
        runtime = pixel_runtime()
        evaluate_users(manifest, runtime)
        monkeypatch.undo()
        episodes = [build_episode(manifest, uid) for uid in manifest.user_ids()]
        want = []
        for arm in ARM_ORDER:
            rt = arm_runtime(runtime, arm)
            for ep in episodes:
                protos, _ = personalize(ep, rt)
                for video, _ in ep.query:
                    want += [(p.pred, p.scores) for p in recognize_video(video, protos, rt)]
        assert scored == want

    def test_each_video_is_read_once(self, small_dataset, monkeypatch):
        in_one_process(monkeypatch)
        manifest, _ = small_dataset
        reads = Counter()
        video_frame_vectors = protonet.video_frame_vectors

        def counting(video, runtime, embed, gate=(), window=0):
            reads[video.video_id, video.kind, window] += 1
            return video_frame_vectors(video, runtime, embed, gate, window)

        monkeypatch.setattr(protonet, "video_frame_vectors", counting)
        runtime = pixel_runtime()
        evaluate_users(manifest, runtime)
        # Query videos come back as causal clip means, support videos as
        # frame vectors; no video is read twice.
        clip_length = runtime.sampler.clip_length
        assert reads == Counter(
            (v.video_id, v.kind, clip_length if v.kind == "clutter" else 0)
            for v in manifest.all_videos()
        )
