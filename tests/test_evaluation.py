from __future__ import annotations

from dataclasses import replace

from protopipe import protonet
from protopipe.adaptation import centering_adapter_weights
from protopipe.clip_sampling import SamplerConfig
from protopipe.embedding import make_patch_projection_spec
from protopipe.evaluation import evaluate_users
from protopipe.frame_validity import EdgeFilterConfig
from protopipe.media_io.manifest import DatasetManifest, ObjectRecord, UserRecord
from protopipe.protonet import PipelineRuntime


def pixel_runtime() -> PipelineRuntime:
    return PipelineRuntime(
        sampler=SamplerConfig(clip_length=4, clips_per_video=2),
        edge_filter=EdgeFilterConfig(),
        embedder=make_patch_projection_spec(grid=4, channels=3, dim=16, seed=0),
        table=None,
        adapter=centering_adapter_weights(16, 0.25),
        seed=0,
        digest="test",
    )


def swap_clutter_frames(manifest: DatasetManifest) -> DatasetManifest:
    """Same video ids, but each object's clutter video shows the next object."""
    users = []
    for user in manifest.users:
        clutter = [obj.videos_of_kind("clutter")[0] for obj in user.objects]
        objects = []
        for i, obj in enumerate(user.objects):
            donor = clutter[(i + 1) % len(clutter)]
            videos = [
                replace(v, frame_paths=donor.frame_paths) if v.kind == "clutter" else v
                for v in obj.videos
            ]
            objects.append(ObjectRecord(obj.label, videos))
        users.append(UserRecord(user.user_id, objects))
    return DatasetManifest(users, manifest.base_dir)


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
        swapped = swap_clutter_frames(manifest)
        runtime = pixel_runtime()
        first = evaluate_users(manifest, runtime)
        second = evaluate_users(swapped, runtime)
        # The swapped queries show the wrong object under the same ids: a
        # memo carried over from the first call would score them as before.
        assert second["arms"][-1]["aggregate"] < first["arms"][-1]["aggregate"]
        assert second == evaluate_users(swapped, pixel_runtime())
        assert first == evaluate_users(manifest, pixel_runtime())
