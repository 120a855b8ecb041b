from __future__ import annotations

import json
import re
import sys

import pytest

from protopipe.errors import DataError, write_json
from protopipe.media_io.loader import LoaderConfig, bench_loader, load_frames_parallel
from protopipe.media_io.pnm import Frame, encode_pnm


def write_corpus(dirpath, count, width=4, height=4):
    paths = []
    for i in range(count):
        payload = bytes((i + j) % 256 for j in range(width * height))
        path = dirpath / f"f{i:04d}.pgm"
        path.write_bytes(encode_pnm(Frame(width, height, 1, payload)))
        paths.append(str(path))
    return paths


def test_single_thread_matches_sequential_read(tmp_path):
    paths = write_corpus(tmp_path, 8)
    frames = load_frames_parallel(paths, LoaderConfig(num_threads=1))
    assert len(frames) == 8
    for i, frame in enumerate(frames):
        assert frame.pixels[0] == i % 256


def test_parallel_preserves_input_order(tmp_path):
    paths = write_corpus(tmp_path, 64)
    sequential = load_frames_parallel(paths, LoaderConfig(num_threads=1))
    parallel = load_frames_parallel(paths, LoaderConfig(num_threads=16))
    assert parallel == sequential


def test_decode_error_wraps_cause_and_names_path(tmp_path):
    paths = write_corpus(tmp_path, 4)
    bad = tmp_path / "f0002.pgm"
    bad.write_bytes(b"P5 2 2 255 \x00")  # truncated
    message = f"{bad}: payload is 1 bytes, expected 4"
    with pytest.raises(DataError, match=re.escape(message)) as info:
        load_frames_parallel(paths, LoaderConfig(num_threads=1))
    assert str(bad) in str(info.value)
    assert isinstance(info.value.__cause__, DataError)


def test_earliest_index_error_wins_under_threads(tmp_path):
    # Two corrupt files; the one earlier in the input list must be the one
    # reported, no matter which worker finishes first.
    paths = write_corpus(tmp_path, 32)
    (tmp_path / "f0005.pgm").write_bytes(b"P9 1 1 255 \x00")
    (tmp_path / "f0029.pgm").write_bytes(b"P9 1 1 255 \x00")
    for _ in range(5):
        bad = tmp_path / "f0005.pgm"
        with pytest.raises(DataError, match=f"^{re.escape(str(bad))}: unknown magic b'P9'$"):
            load_frames_parallel(paths, LoaderConfig(num_threads=16))


@pytest.mark.parametrize("first, second", [(2, 61), (40, 41)])
def test_earliest_index_error_wins_for_distant_and_adjacent_failures(
    tmp_path, first, second
):
    # The earlier corrupt file is large, so it is still being read when the
    # later one has already failed: the error recorded first is not the one
    # that must be raised. A short switch interval interleaves workers finely.
    paths = write_corpus(tmp_path, 64)
    (tmp_path / f"f{first:04d}.pgm").write_bytes(b"P9 1 1 255 " + bytes(8 << 20))
    (tmp_path / f"f{second:04d}.pgm").write_bytes(b"P9 1 1 255 \x00")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            bad = tmp_path / f"f{first:04d}.pgm"
            with pytest.raises(DataError, match=f"^{re.escape(str(bad))}: unknown magic b'P9'$"):
                load_frames_parallel(paths, LoaderConfig(num_threads=16))
    finally:
        sys.setswitchinterval(interval)


def test_missing_file_raises_in_caller_under_threads(tmp_path):
    # A worker's error must reach the caller, not die with its thread.
    paths = write_corpus(tmp_path, 32)
    (tmp_path / "f0017.pgm").unlink()
    with pytest.raises(FileNotFoundError):
        load_frames_parallel(paths, LoaderConfig(num_threads=16))


def test_unreadable_path_error_names_the_path(tmp_path):
    paths = write_corpus(tmp_path, 4)
    paths[2] = str(tmp_path)
    with pytest.raises(IsADirectoryError) as info:
        load_frames_parallel(paths, LoaderConfig(num_threads=16))
    assert str(tmp_path) in str(info.value)


def test_fewer_paths_than_threads(tmp_path):
    paths = write_corpus(tmp_path, 3)
    sequential = load_frames_parallel(paths, LoaderConfig(num_threads=1))
    parallel = load_frames_parallel(paths, LoaderConfig(num_threads=16))
    assert parallel == sequential
    assert [f.pixels[0] for f in parallel] == [0, 1, 2]


def test_empty_input():
    assert load_frames_parallel([], LoaderConfig()) == []


def test_config_validation():
    with pytest.raises(ValueError):
        LoaderConfig(num_threads=0)
    with pytest.raises(ValueError):
        LoaderConfig(injected_latency_ms=-1.0)


def test_threaded_speedup_with_injected_latency(tmp_path):
    # With a 1 ms stall per file the workload is latency-bound, so t threads
    # over n files should come in at least 0.5 * min(t, n) times faster.
    paths = write_corpus(tmp_path, 300)
    one, sixteen = bench_loader(
        paths,
        [
            LoaderConfig(num_threads=1, injected_latency_ms=1.0),
            LoaderConfig(num_threads=16, injected_latency_ms=1.0),
        ],
        repetitions=3,
    )
    assert one["speedup"] == pytest.approx(1.0)
    assert sixteen["speedup"] >= 0.5 * min(16, len(paths))


def test_bench_output_formats(tmp_path):
    paths = write_corpus(tmp_path, 8)
    rows = bench_loader(paths, [LoaderConfig(num_threads=1)], repetitions=1)
    assert set(rows[0]) == {"threads", "latency_ms", "median_ms", "speedup"}
    assert (rows[0]["threads"], rows[0]["latency_ms"]) == (1, 0.0)
    doc = {"configs": rows}
    out = tmp_path / "bench.json"
    write_json(out, doc)
    assert json.loads(out.read_text()) == doc
    assert out.read_text().endswith("\n")


def test_bench_validation(tmp_path):
    paths = write_corpus(tmp_path, 8)
    with pytest.raises(ValueError):
        bench_loader(paths, [LoaderConfig()], repetitions=0)


def test_bench_row_speedup_relative_to_first(tmp_path):
    paths = write_corpus(tmp_path, 8)
    configs = [LoaderConfig(num_threads=t) for t in (1, 4, 2)]
    first, *later = bench_loader(paths, configs, repetitions=2)
    assert first["speedup"] == 1.0
    for row in later:
        assert row["speedup"] == first["median_ms"] / row["median_ms"]
    assert [row["threads"] for row in (first, *later)] == [1, 4, 2]
