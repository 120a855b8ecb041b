"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (visible under ``pytest -s``) so the whole gate can be read
at a glance.
"""
from __future__ import annotations

import json
import random
import re
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from _oracles import np_transformer_block, random_transformer_weights, ref_sobel_magnitude

from protopipe.adaptation import adapt_prototypes, attention_matrices
from protopipe.cli import EXIT_OK, main
from protopipe.clip_sampling import (
    SamplerConfig,
    causal_sliding_window,
    uniform_sample_clips,
)
from protopipe.config import build_runtime, load_config
from protopipe.embedding import make_patch_projection_spec
from protopipe.evaluation import evaluate_users, make_rigged_scenario
from protopipe.frame_validity import (
    EdgeFilterConfig,
    SampledClip,
    edge_density,
    filter_clips,
    is_frame_valid,
)
from protopipe.media_io.loader import LoaderConfig, load_frames_parallel
from protopipe.media_io.pnm import Frame, decode_pnm, encode_pnm
from protopipe.media_io.synthetic import GeneratorSpec, generate_synthetic_dataset
from protopipe.numerics import Matrix, layer_norm_rows
from protopipe.protonet import (
    PipelineRuntime,
    build_episode,
    per_user_accuracy,
    personalize,
    recognize_video,
)

README = Path(__file__).parent.parent / "README.md"


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"\nFAIL criterion {number}: {summary}")
        raise
    print(f"\nPASS criterion {number}: {summary}")


def test_criterion_01_reproducibility_statement():
    with criterion(1, "README states published accuracy figures are out of reach here"):
        text = " ".join(README.read_text(encoding="utf-8").split())
        assert "cannot reproduce those numbers" in text


def test_criterion_02_synthetic_accuracy_gate(tmp_path):
    with criterion(2, "full pipeline reaches >= 0.95 frame accuracy in <= 30 s"):
        start = time.perf_counter()
        spec = GeneratorSpec(
            num_users=4,
            objects_per_user=3,
            videos_per_object=2,
            frames_per_video=32,
            frame_size=32,
            blank_fraction=0.25,
            seed=7,
        )
        manifest = generate_synthetic_dataset(spec, tmp_path)
        runtime = PipelineRuntime(
            sampler=SamplerConfig(clip_length=8, clips_per_video=2),
            edge_filter=EdgeFilterConfig(),
            embedder=make_patch_projection_spec(grid=8, channels=3, dim=192, seed=0),
            adapter=None,
            seed=7,
            digest="acceptance",
        )
        results = {}
        for user_id in manifest.user_ids():
            episode = build_episode(manifest, user_id)
            protos, _ = personalize(episode, runtime)
            pairs = []
            for video, truth in episode.query:
                preds = recognize_video(video, protos, runtime)
                pairs.append(([p.pred for p in preds], list(truth)))
            results[user_id] = pairs
        per_user = per_user_accuracy(results)
        aggregate = sum(per_user.values()) / len(per_user)
        elapsed = time.perf_counter() - start
        print(f"\n  aggregate accuracy {aggregate:.4f} in {elapsed:.1f}s")
        assert aggregate >= 0.95, per_user
        assert elapsed <= 30.0


def test_criterion_03_ablation_ordering(tmp_path, caplog):
    with criterion(3, "ablation accuracies are non-decreasing with logged margins"):
        manifest, config_path = make_rigged_scenario(tmp_path)
        runtime = build_runtime(load_config(config_path))
        with caplog.at_level("INFO", logger="protopipe.evaluation"):
            report = evaluate_users(manifest, runtime)
        by_name = {arm["name"]: arm["aggregate"] for arm in report["arms"]}
        print(
            "\n  baseline {baseline:.4f} <= uniform {uniform:.4f} "
            "<= filter {filter:.4f}".format(**by_name)
        )
        assert by_name["baseline"] <= by_name["uniform"] <= by_name["filter"]
        logged = [r.message for r in caplog.records if r.message.startswith("arm ")]
        assert len(logged) == len(report["arms"])
        for line in logged:
            assert re.search(r"aggregate \d\.\d{4} \(delta [+-]\d\.\d{4}\)", line)


def test_criterion_04_uniform_sampler_properties():
    with criterion(4, "uniform sampler: chunked picks, worked example 40/8/2 -> {0, 16}"):
        cfg = SamplerConfig(clip_length=8, clips_per_video=2, within_chunk="first")
        assert [c.start for c in uniform_sample_clips(40, cfg)] == [0, 16]

        rng = random.Random(1001)
        for _ in range(1000):
            length = rng.randint(1, 16)
            num_frames = rng.randint(length, 400)
            k = rng.randint(1, 10)
            cfg = SamplerConfig(
                clip_length=length,
                clips_per_video=k,
                within_chunk=rng.choice(("first", "middle", "seeded_random")),
                seed=rng.randint(0, 10**6),
            )
            clips = uniform_sample_clips(num_frames, cfg)
            c = num_frames // length
            assert len(clips) == min(k, c)
            for a, b in zip(clips, clips[1:]):
                assert a.start + a.length <= b.start
            if c > k:
                size = c // k
                for i, clip in enumerate(clips):
                    assert i * size <= clip.start // length < (i + 1) * size


def test_criterion_05_causal_sliding_window():
    with criterion(5, "per-frame clips are causal; 3 frames / length 2 worked example"):
        assert causal_sliding_window(3, 2) == [[0, 0], [0, 1], [1, 2]]
        rng = random.Random(55)
        for _ in range(200):
            num_frames = rng.randint(1, 80)
            length = rng.randint(1, 12)
            windows = causal_sliding_window(num_frames, length)
            assert len(windows) == num_frames
            for t, window in enumerate(windows):
                assert window[-1] == t and max(window) == t and min(window) >= 0


def test_criterion_06_sobel_step_oracle():
    with criterion(6, "Sobel step edge: 12 pixels at 1020, density 1/3; monotone in tau"):
        step = Frame(8, 8, 1, bytes([0, 0, 0, 0, 255, 255, 255, 255] * 8))
        mags = ref_sobel_magnitude(step)
        hot = [v for v in mags.values if v != 0.0]
        assert len(hot) == 12
        assert all(v == pytest.approx(1020.0, abs=1e-12) for v in hot)
        assert edge_density(step, 32.0) == pytest.approx(1 / 3, abs=1e-12)

        flat = Frame(8, 8, 1, bytes([128] * 64))
        assert ref_sobel_magnitude(flat).values == [0.0] * 36

        rng = random.Random(66)
        for _ in range(500):
            w, h = rng.randint(3, 10), rng.randint(3, 10)
            frame = Frame(w, h, 1, bytes(rng.randrange(256) for _ in range(w * h)))
            lo = rng.uniform(0, 1400)
            hi = lo + rng.uniform(0, 1400 - lo)
            assert 0.0 <= edge_density(frame, hi) <= edge_density(frame, lo) <= 1.0


def test_criterion_07_clip_filter_majority_rule():
    with criterion(7, "clips drop past half-invalid; override keeps exactly one"):
        from protopipe.clip_sampling import ClipIndex

        valid = Frame(8, 8, 1, bytes([0, 0, 0, 0, 255, 255, 255, 255] * 8))
        invalid = Frame(8, 8, 1, bytes([128] * 64))
        cfg = EdgeFilterConfig()

        gated = {}

        def clip(video_id, start, frames):
            for k, frame in enumerate(frames):
                gated[video_id, start + k] = is_frame_valid(frame, cfg)
            return SampledClip(video_id, ClipIndex(start, len(frames)))

        majority = clip("v", 0, [invalid] * 5 + [valid] * 3)
        half = clip("v", 8, [invalid] * 4 + [valid] * 4)
        retained, audits = filter_clips([majority, half], cfg, gated)
        assert retained == [half]
        assert [a.removed for a in audits] == [True, False]

        all_bad = [clip("w", 0, [invalid] * 8), clip("w", 8, [invalid] * 7 + [valid])]
        retained, audits = filter_clips(all_bad, cfg, gated)
        assert len(retained) == 1 and retained[0].clip.start == 8
        assert sum(a.override for a in audits) == 1


def test_criterion_08_adapter_invariants():
    with criterion(8, "adapter: equivariant, rows sum to 1, golden output matches"):
        w = random_transformer_weights(8, h=2, seed=5)
        p_rows = [
            [random.Random(i).gauss(0.0, 1.0) for _ in range(8)] for i in range(3)
        ]
        base = adapt_prototypes(Matrix.from_rows(p_rows), w).to_rows()
        perm = [2, 0, 1]
        permuted = adapt_prototypes(
            Matrix.from_rows([p_rows[i] for i in perm]), w
        ).to_rows()
        for out_row, src in zip(permuted, perm):
            assert out_row == pytest.approx(base[src], abs=1e-9)

        for a in attention_matrices(Matrix.from_rows(p_rows), w):
            for row in a.to_rows():
                assert sum(row) == pytest.approx(1.0, abs=1e-9)

        single = Matrix.from_rows([p_rows[0]])
        for a in attention_matrices(single, w):
            assert a.values == [1.0]

        d = 8
        zeros = Matrix.zeros(d, d)
        from protopipe.adaptation import TransformerWeights

        wz = TransformerWeights(
            d=d, h=1, d_ff=d,
            w_q=[zeros], w_k=[zeros], w_v=[zeros], w_o=zeros,
            w1=zeros, b1=[0.0] * d, w2=zeros, b2=[0.0] * d,
            ln1_gain=[1.0] * d, ln1_bias=[0.0] * d,
            ln2_gain=[1.0] * d, ln2_bias=[0.0] * d,
        )
        p = Matrix.from_rows(p_rows[:2])
        ones, zs = [1.0] * d, [0.0] * d
        want = layer_norm_rows(layer_norm_rows(p, ones, zs, wz.eps), ones, zs, wz.eps)
        assert adapt_prototypes(p, wz).values == pytest.approx(want.values, abs=1e-12)

        golden = json.loads(
            (Path(__file__).parent / "data" / "golden_adapter_seed5.json").read_text()
        )
        gw = random_transformer_weights(golden["d"], h=golden["heads"], seed=golden["seed"])
        got = adapt_prototypes(Matrix.from_rows(golden["input"]), gw)
        expected = np.array(golden["expected"])
        np.testing.assert_allclose(
            np.array(got.values).reshape(expected.shape), expected, atol=1e-10
        )
        oracle = np_transformer_block(np.array(golden["input"]), gw)
        np.testing.assert_allclose(oracle, expected, atol=1e-10)


def test_criterion_09_loader_speedup(tmp_path):
    with criterion(9, "16-thread loader >= 5x over 1 thread at 1 ms latency, same bytes"):
        paths = []
        for i in range(300):
            path = tmp_path / f"f{i:04d}.pgm"
            path.write_bytes(encode_pnm(Frame(4, 4, 1, bytes([i % 256] * 16))))
            paths.append(str(path))

        sequential = load_frames_parallel(paths, LoaderConfig(num_threads=1))
        threaded = load_frames_parallel(paths, LoaderConfig(num_threads=16))
        assert threaded == sequential  # same files, same order, same pixels

        def timed(threads):
            cfg = LoaderConfig(num_threads=threads, injected_latency_ms=1.0)
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                load_frames_parallel(paths, cfg)
                best = min(best, time.perf_counter() - t0)
            return best

        slow, fast = timed(1), timed(16)
        speedup = slow / fast
        print(f"\n  1 thread {slow * 1000:.1f} ms, 16 threads {fast * 1000:.1f} ms "
              f"({speedup:.2f}x)")
        assert speedup >= 5.0

        from protopipe.media_io.bench import BenchRow

        row = BenchRow(threads=16, latency_ms=1.0, median_ms=fast * 1000, speedup=speedup)
        assert re.fullmatch(r"\d+(\.\d)? \(\d+\.\d{2}x\)", row.format_cell())


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "repeated CLI runs produce byte-identical outputs"):
        data = tmp_path / "data"
        assert main(
            [
                "gen-synthetic", "--out", str(data),
                "--users", "2", "--objects", "2", "--videos", "1",
                "--frames", "16", "--size", "32", "--seed", "3",
            ]
        ) == EXIT_OK
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "sampler": {"clip_length": 8, "clips_per_video": 2},
                    "embedder": {"grid": 8, "channels": 3, "dim": 16, "seed": 0},
                    "adapter": "none",
                    "seed": 0,
                }
            )
        )
        outputs = {}
        for attempt in ("a", "b"):
            protos = tmp_path / f"protos_{attempt}.json"
            preds = tmp_path / f"preds_{attempt}.json"
            report = tmp_path / f"report_{attempt}.json"
            assert main(
                [
                    "personalize", "--dataset", str(data), "--user", "user00",
                    "--config", str(config), "--out", str(protos),
                ]
            ) == EXIT_OK
            assert main(
                [
                    "recognize", "--prototypes", str(protos),
                    "--dataset", str(data), "--video", "user00_obj01_clutter00",
                    "--config", str(config), "--out", str(preds),
                ]
            ) == EXIT_OK
            assert main(
                [
                    "evaluate", "--dataset", str(data), "--config", str(config),
                    "--out", str(report),
                ]
            ) == EXIT_OK
            outputs[attempt] = (
                protos.read_bytes(), preds.read_bytes(), report.read_bytes()
            )
        assert outputs["a"] == outputs["b"]


def test_criterion_11_codec_round_trip():
    with criterion(11, "100-frame codec corpus (including 1x1 and 3x3) round-trips"):
        from test_pnm import make_corpus

        corpus = make_corpus(count=100)
        assert len(corpus) == 100
        sizes = {(f.width, f.height) for f in corpus}
        assert (1, 1) in sizes and (3, 3) in sizes
        for frame in corpus:
            data = encode_pnm(frame)
            assert decode_pnm(data) == frame
            assert encode_pnm(decode_pnm(data)) == data
