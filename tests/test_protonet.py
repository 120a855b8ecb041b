from __future__ import annotations

import hashlib
import json
import re
import sys

import pytest
from _oracles import ref_cosine_similarity
from hypothesis import example, given, settings, strategies as st

from protopipe.adaptation import centering_adapter_weights
from protopipe.clip_sampling import SamplerConfig
from protopipe.config import build_runtime, load_config
from protopipe.embedding import PrecomputedTable, make_patch_projection_spec
from protopipe.errors import ConfigError, DataError
from protopipe.evaluation import make_rigged_scenario
from protopipe.frame_validity import EdgeFilterConfig
from protopipe.media_io.manifest import VideoRecord
from protopipe.numerics import Matrix, cosine_similarity, norm
from protopipe.protonet import (
    Episode,
    FramePrediction,
    PipelineRuntime,
    Prototypes,
    build_episode,
    classify_clip,
    compute_prototypes,
    derive_video_seed,
    embed_plan,
    load_prototypes,
    personalize,
    plan_query,
    recognize_video,
    save_predictions,
    save_prototypes,
)


def classify(q, protos):
    """`classify_clip` with the query's norm taken here, as its callers do."""
    return classify_clip(q, norm(q), protos)


def toy_prototypes(rows=((1.0, 0.0), (0.0, 1.0)), labels=("a", "b")):
    m = Matrix.from_rows([list(r) for r in rows])
    return Prototypes("u", tuple(labels), m, m, "digest")


def make_runtime(manifest_dim=16, adapter=None, edge=None, sampler=None, embedder=None):
    return PipelineRuntime(
        sampler=sampler or SamplerConfig(clip_length=8, clips_per_video=2),
        edge_filter=edge or EdgeFilterConfig(enabled=False),
        embedder=embedder
        or make_patch_projection_spec(grid=8, channels=3, dim=manifest_dim, seed=0),
        adapter=adapter,
        seed=0,
        digest="test",
    )


class TestPrototypes:
    def test_single_clip_class(self):
        m = compute_prototypes([("a", [[1.0, 2.0]]), ("b", [[0.0, 1.0]])])
        assert m.to_rows() == [[1.0, 2.0], [0.0, 1.0]]

    def test_mean_of_two_clips(self):
        m = compute_prototypes([("a", [[1.0, 0.0], [0.0, 1.0]]), ("b", [[2.0, 2.0]])])
        assert m.row(0) == [0.5, 0.5]

    def test_duplicating_a_clip_set_changes_nothing(self):
        clips = [[1.0, 3.0], [2.0, 0.0]]
        a = compute_prototypes([("a", clips), ("b", [[0.0, 1.0]])])
        b = compute_prototypes([("a", clips * 3), ("b", [[0.0, 1.0]])])
        assert a.row(0) == pytest.approx(b.row(0), abs=1e-12)

    def test_empty_class(self):
        with pytest.raises(DataError, match="^class 'a' has no clip embeddings$"):
            compute_prototypes([("a", [])])

    def test_validation(self):
        m = Matrix.from_rows([[1.0, 0.0], [0.0, 1.0]])
        single = Matrix(1, 2, [1.0, 0.0])
        with pytest.raises(ValueError):
            Prototypes("u", ("a",), single, single, "d")
        with pytest.raises(ValueError):
            Prototypes("u", ("a", "a"), m, m, "d")
        with pytest.raises(ConfigError, match="^3 labels but 2/2 prototype rows$"):
            Prototypes("u", ("a", "b", "c"), m, m, "d")


COSINE_ENTRIES = st.one_of(
    st.floats(min_value=-1e100, max_value=1e100, allow_nan=False),
    st.sampled_from((0.0, -0.0, 1e-300, -1e-300)),
)


@st.composite
def classify_cases(draw):
    """A query and two to four prototype rows of one length."""
    n = draw(st.integers(1, 8))
    vector = st.lists(COSINE_ENTRIES, min_size=n, max_size=n)
    return draw(vector), draw(st.lists(vector, min_size=2, max_size=4))


class TestClassify:
    def test_scores_and_argmax(self):
        label, scores = classify([0.9, 0.1], toy_prototypes())
        assert label == "a"
        assert scores == pytest.approx([0.99388, 0.11043], abs=1e-5)

    def test_query_equal_to_prototype(self):
        label, scores = classify([0.0, 1.0], toy_prototypes())
        assert label == "b"
        assert scores[1] == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        _, a = classify([0.9, 0.1], toy_prototypes())
        _, b = classify([2.7, 0.3], toy_prototypes())
        assert a == pytest.approx(b, abs=1e-12)

    def test_tie_goes_to_lowest_index(self):
        protos = toy_prototypes(rows=((1.0, 0.0), (1.0, 0.0)), labels=("x", "y"))
        label, scores = classify([1.0, 0.0], protos)
        assert label == "x"
        assert scores[0] == scores[1]

    def test_raw_vs_adapted_selection(self):
        raw = Matrix.from_rows([[1.0, 0.0], [0.0, 1.0]])
        adapted = Matrix.from_rows([[0.0, 1.0], [1.0, 0.0]])  # swapped
        protos = Prototypes("u", ("a", "b"), raw, adapted, "d")
        assert classify([1.0, 0.0], protos)[0] == "b"  # the adapted rows

    def test_dim_mismatch(self):
        with pytest.raises(ConfigError, match="^query dim 3 != prototype dim 2$"):
            classify([1.0, 0.0, 0.0], toy_prototypes())

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(classify_cases())
    @example(([-0.0, 0.0], [[0.0, -0.0], [1e-300, -2.5]]))
    @example(([1e-300, -1e-300], [[-0.0, 3.0], [4.0, -0.0], [1.0, 1.0]]))
    def test_scores_are_bitwise_the_reference_cosine(self, case):
        q, rows = case
        m = Matrix.from_rows(rows)
        labels = tuple(f"c{k}" for k in range(len(rows)))
        _, scores = classify(q, Prototypes("u", labels, m, m, "d"))
        assert [x.hex() for x in scores] == [
            ref_cosine_similarity(q, row).hex() for row in rows
        ]

    def test_each_prototypes_scores_with_its_own_norms(self):
        # Two prototype sets with the same shape but rows of different
        # lengths: a norm kept from the first would misscale the second.
        short = toy_prototypes(rows=((1.0, 0.0), (0.0, 1.0)))
        long_ = toy_prototypes(rows=((3.0, 4.0), (0.0, 10.0)))
        for protos in (short, long_, short):
            _, scores = classify([0.6, 0.8], protos)
            assert [x.hex() for x in scores] == [
                ref_cosine_similarity([0.6, 0.8], row).hex()
                for row in protos.adapted.to_rows()
            ]


class TestVideoSeed:
    def test_deterministic_and_distinct(self):
        a = derive_video_seed(7, "u0_obj0_clean00")
        assert a == derive_video_seed(7, "u0_obj0_clean00")
        assert a != derive_video_seed(8, "u0_obj0_clean00")
        assert a != derive_video_seed(7, "u0_obj0_clean01")
        assert 0 <= a < 2**64


class TestEpisode:
    def test_partition_and_truth(self, small_dataset):
        manifest, _ = small_dataset
        episode = build_episode(manifest, manifest.user_ids()[0])
        assert episode.labels() == ("obj00", "obj01")
        for label, videos in episode.support:
            assert all(v.kind == "clean" for v in videos)
        for video, truth in episode.query:
            assert video.kind == "clutter"
            assert len(truth) == video.num_frames
            assert set(truth) == {video.video_id.split("_")[1]}


class TestPersonalize:
    def test_structure_and_determinism(self, small_dataset):
        manifest, _ = small_dataset
        runtime = make_runtime()
        episode = build_episode(manifest, "user00")
        protos, audits = personalize(episode, runtime)
        assert protos.user_id == "user00"
        assert protos.labels == ("obj00", "obj01")
        assert protos.dim == 16
        assert protos.raw.rows == 2 and protos.adapted.rows == 2
        assert protos.adapted.values == protos.raw.values  # no adapter
        # filter disabled -> every clip audited but none removed
        assert len(audits) == 4
        assert not any(a.removed for a in audits)
        again, _ = personalize(episode, runtime)
        assert again.raw.values == protos.raw.values

    def test_classes_separate_in_embedding_space(self, small_dataset):
        # Each object has its own texture, so the two class prototypes
        # should be far closer to themselves than to each other.
        manifest, _ = small_dataset
        runtime = make_runtime()
        for user_id in manifest.user_ids():
            protos, _ = personalize(build_episode(manifest, user_id), runtime)
            a, b = protos.raw.row(0), protos.raw.row(1)
            cross = cosine_similarity(a, b, norm(a), norm(b))
            assert cross < 0.995

    def test_adapter_changes_rows_but_keeps_alignment(self, small_dataset):
        manifest, _ = small_dataset
        episode = build_episode(manifest, "user00")
        plain, _ = personalize(episode, make_runtime())
        adapted, _ = personalize(
            episode, make_runtime(adapter=centering_adapter_weights(16, 0.5))
        )
        assert adapted.raw.values == plain.raw.values
        assert adapted.adapted.values != adapted.raw.values
        assert adapted.labels == plain.labels

    def test_audit_length_is_the_clip_length_for_every_embedder(
        self, small_dataset, small_table
    ):
        manifest, _ = small_dataset
        episode = build_episode(manifest, "user00")
        _, by_table = personalize(episode, make_runtime(embedder=small_table))
        _, by_pixels = personalize(episode, make_runtime())
        assert by_table == by_pixels
        assert [a.length for a in by_table] == [8] * 4

    def test_filter_audits_wash_clips(self, tmp_path):
        from protopipe.media_io.synthetic import GeneratorSpec, generate_synthetic_dataset

        spec = GeneratorSpec(
            num_users=1, objects_per_user=2, videos_per_object=1,
            frames_per_video=16, frame_size=32, blank_fraction=0.5, seed=4,
        )
        manifest = generate_synthetic_dataset(spec, tmp_path)
        runtime = make_runtime(edge=EdgeFilterConfig())
        protos, audits = personalize(build_episode(manifest, "user00"), runtime)
        # Half of each clean video is a wash run aligned to the candidate
        # grid, so exactly one of the two clips per video gets dropped.
        assert len(audits) == 4
        assert sum(a.removed for a in audits) == 2
        assert all(a.invalid in (0, 8) for a in audits)
        assert protos.raw.rows == 2


class TestRecognize:
    def make_video(self, num_frames):
        return VideoRecord("q", "clutter", [f"f{i}" for i in range(num_frames)])

    def recognize(self, vectors):
        runtime = make_runtime(embedder=PrecomputedTable(2, {"q": vectors}))
        return recognize_video(self.make_video(len(vectors)), toy_prototypes(), runtime)

    def test_one_prediction_per_frame(self):
        preds = self.recognize([[1.0, 0.0]] * 4 + [[0.0, 1.0]] * 4)
        assert len(preds) == 8
        assert preds[0].pred == "a"
        assert all(isinstance(p, FramePrediction) for p in preds)

    def test_single_frame_video(self):
        preds = self.recognize([[0.2, 0.9]])
        assert [p.pred for p in preds] == ["b"]

    def test_predictions_are_causal(self):
        # Rewriting the tail of the vector stream must not disturb any
        # prediction made before the rewritten frames.
        base = [[1.0, 0.0]] * 10
        changed = [list(v) for v in base]
        changed[9] = [0.0, 1.0]
        a = self.recognize(base)
        b = self.recognize(changed)
        assert [p.pred for p in a[:9]] == [p.pred for p in b[:9]]
        assert [p.scores for p in a[:9]] == [p.scores for p in b[:9]]
        assert a[9].scores != b[9].scores

    def test_query_clips_are_causal_window_means(self):
        runtime = make_runtime(
            sampler=SamplerConfig(clip_length=2, clips_per_video=1),
            embedder=PrecomputedTable(2, {"q": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}),
        )
        part = plan_query(self.make_video(3), runtime)
        assert part.clips == ((0, 0), (0, 1), (1, 2)) and part.gate == ()
        means, valid = embed_plan([part], runtime)
        clips = [means["q", clip] for clip in part.clips]
        assert clips == [[1.0, 0.0], [0.5, 0.5], [0.5, 1.0]]
        assert all(type(c) is list for c in clips)
        assert valid == {}

    def test_uses_precomputed_table(self):
        assert [p.pred for p in self.recognize([[0.0, 1.0]] * 3)] == ["b"] * 3

    def test_end_to_end_on_synthetic_support(self, small_dataset):
        # Sanity link between the two stages: clean-video frames classify
        # as their own object once prototypes exist.
        manifest, _ = small_dataset
        runtime = make_runtime()
        episode = build_episode(manifest, "user00")
        protos, _ = personalize(episode, runtime)
        for label, videos in episode.support:
            preds = recognize_video(videos[0], protos, runtime)
            assert [p.pred for p in preds] == [label] * videos[0].num_frames


# sha256 over the float.hex of the rigged scenario's user00 prototypes, raw
# then adapted, and of every per-frame score of its query videos, one value
# a line: the pixel embedder and the centering adapter at the rigged seed 15.
RIGGED_USER_SHA256 = "78aee8a48b5ebd1638db4973956a64984315a962e881ee9af8ff69e9264e4d0e"


class TestPinnedOutputs:
    @pytest.mark.xfail(
        sys.version_info >= (3, 12),
        reason="builtin sum compensates float rounding from CPython 3.12 on, "
        "so dot products can differ in the last bits (ROADMAP item 4)",
        strict=False,
    )
    def test_rigged_user_output_bits_are_pinned(self, tmp_path):
        manifest, config_path = make_rigged_scenario(tmp_path)
        runtime = build_runtime(load_config(config_path))
        episode = build_episode(manifest, "user00")
        protos, _ = personalize(episode, runtime)
        assert protos.adapted != protos.raw
        values = protos.raw.values + protos.adapted.values
        for video, _ in episode.query:
            for pred in recognize_video(video, protos, runtime):
                values.extend(pred.scores)
        assert len(values) == 2 * 3 * 192 + 6 * 48 * 3
        digest = hashlib.sha256("".join(f"{x.hex()}\n" for x in values).encode())
        assert digest.hexdigest() == RIGGED_USER_SHA256


class TestSerialization:
    def test_prototypes_round_trip(self, tmp_path):
        protos = toy_prototypes()
        path = tmp_path / "p.json"
        save_prototypes(protos, path)
        again = load_prototypes(path)
        assert again == protos
        doc = json.loads(path.read_text())
        assert set(doc) == {"user_id", "labels", "dim", "raw", "adapted", "config_digest"}

    def test_prototypes_load_errors(self, tmp_path):
        path = tmp_path / "p.json"
        with pytest.raises(DataError):
            load_prototypes(path)
        save_prototypes(toy_prototypes(), path)
        doc = json.loads(path.read_text())
        doc["dim"] = 5
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="declared dim"):
            load_prototypes(path)
        del doc["raw"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            load_prototypes(path)
        # Shape faults are the file's: a DataError that names it.
        for fault in (
            {"raw": [[1.0, 0.0], [1.0]]},
            {"raw": [[1.0, 0.0], [0.0, 1.0]], "labels": ["a", "b", "c"]},
        ):
            path.write_text(json.dumps({**doc, **fault}))
            with pytest.raises(DataError, match=re.escape(f"bad prototypes file {path}")):
                load_prototypes(path)

    def test_cached_norms_leave_equality_and_the_file_alone(self, tmp_path):
        rows = ((3.0, 4.0), (0.0, 2.0))
        protos, fresh = toy_prototypes(rows), toy_prototypes(rows)
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        save_prototypes(protos, before)
        classify([1.0, 1.0], protos)
        assert protos.scoring_rows == [([3.0, 4.0], 5.0), ([0.0, 2.0], 2.0)]
        assert protos == fresh and fresh == protos
        assert protos != toy_prototypes(rows=((3.0, 4.0), (0.0, 3.0)))
        save_prototypes(protos, after)
        assert after.read_bytes() == before.read_bytes()
        again = load_prototypes(after)
        assert again == protos
        assert again.scoring_rows == protos.scoring_rows

    def test_predictions_schema(self, tmp_path):
        path = tmp_path / "preds.json"
        preds = [FramePrediction("a", (0.9, 0.1)), FramePrediction("b", (0.2, 0.8))]
        save_predictions("vid", ("a", "b"), preds, path)
        doc = json.loads(path.read_text())
        assert doc["video_id"] == "vid"
        assert doc["labels"] == ["a", "b"]
        assert doc["per_frame"] == [
            {"pred": "a", "scores": [0.9, 0.1]},
            {"pred": "b", "scores": [0.2, 0.8]},
        ]
