from __future__ import annotations

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


class TestFrameMemo:
    def test_each_frame_is_embedded_once(self, small_dataset, monkeypatch):
        manifest, _ = small_dataset
        used, embedded = set(), []
        frame_vector, embed_frame = PipelineRuntime.frame_vector, protonet.embed_frame

        def spy_frame_vector(self, video, index, frame):
            used.add((video.video_id, index))
            return frame_vector(self, video, index, frame)

        def counting_embed_frame(frame, spec):
            embedded.append(frame)
            return embed_frame(frame, spec)

        monkeypatch.setattr(PipelineRuntime, "frame_vector", spy_frame_vector)
        monkeypatch.setattr(protonet, "embed_frame", counting_embed_frame)
        runtime = pixel_runtime()
        evaluate_users(manifest, runtime)
        assert len(embedded) == len(used) > 0
        assert runtime.frame_memo is None

    def test_arms_match_their_solo_runs(self, small_dataset):
        manifest, _ = small_dataset
        runtime = pixel_runtime()
        full = evaluate_users(manifest, runtime)
        for row in full["arms"]:
            (solo,) = evaluate_users(manifest, runtime, (row["name"],))["arms"]
            assert (solo["aggregate"], solo["per_user"]) == (
                row["aggregate"], row["per_user"],
            ), row["name"]

    def test_memo_does_not_outlive_one_call(self, small_dataset):
        manifest, _ = small_dataset
        swapped = swap_frames(manifest, "clutter")
        runtime = pixel_runtime()
        first = evaluate_users(manifest, runtime)
        second = evaluate_users(swapped, runtime)
        # The swapped queries show the wrong object under the same ids: a
        # memo carried over from the first call would score them as before.
        assert second["arms"][-1]["aggregate"] < first["arms"][-1]["aggregate"]
        assert second == evaluate_users(swapped, pixel_runtime())
        assert first == evaluate_users(manifest, pixel_runtime())

    def test_support_memo_does_not_outlive_one_call(self, small_dataset):
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
    """A frame is decoded when the edge filter or a frame-memo miss reads it."""

    def record_loads(self, monkeypatch) -> list[list[str]]:
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
        gated = self.sampled_paths(manifest, runtime, "filter")
        # With the filter off every sampled clip is embedded, so the frames
        # to embed are those the gate-off arms sample; the filter arm comes
        # last and finds its frames' vectors in the memo.
        embedded = set().union(
            *(self.sampled_paths(manifest, runtime, a) for a in ("baseline", "adapt", "uniform"))
        )
        loaded = Counter(p for call in calls for p in call)
        assert loaded == Counter(query) + Counter(gated) + Counter(embedded)
        assert all(call and len(set(call)) == len(call) for call in calls)

    def test_table_embedder(self, small_dataset, small_table, monkeypatch):
        manifest, _ = small_dataset
        runtime = replace(pixel_runtime(), embedder=small_table)
        calls = self.record_loads(monkeypatch)
        evaluate_users(manifest, runtime)
        loaded = Counter(p for call in calls for p in call)
        assert loaded == Counter(self.sampled_paths(manifest, runtime, "filter"))
        assert all(calls)


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

    def test_each_query_video_is_averaged_once(self, small_dataset, monkeypatch):
        manifest, _ = small_dataset
        built, memo_kinds = Counter(), set()
        query_clip_vectors = evaluation.query_clip_vectors
        frame_vector = PipelineRuntime.frame_vector

        def counting_query_clip_vectors(video, runtime):
            built[video.video_id] += 1
            return query_clip_vectors(video, runtime)

        def spy_frame_vector(self, video, index, frame):
            if self.frame_memo is not None:
                memo_kinds.add(video.kind)
            return frame_vector(self, video, index, frame)

        monkeypatch.setattr(evaluation, "query_clip_vectors", counting_query_clip_vectors)
        monkeypatch.setattr(PipelineRuntime, "frame_vector", spy_frame_vector)
        evaluate_users(manifest, pixel_runtime())
        query_ids = [v.video_id for v in manifest.all_videos() if v.kind == "clutter"]
        assert built == Counter(query_ids)
        assert memo_kinds == {"clean"}  # query frames never enter the memo
