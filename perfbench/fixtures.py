"""Seeded benchmark inputs: the rigged dataset, its configs and a table.

The dataset, adapter and pixel config are `evaluation.make_rigged_scenario`'s,
with its generator and pipeline seed replaced by --seed; at the default seed
they are byte-identical to it. The precomputed table holds one row per
frame, computed with numpy from the PNM bytes and the runtime's projection
matrix, without calling `embed_frame`. Its box sums are exact integers and
its projection accumulates rows in the same order as `numerics.matmul`, so
the table path is an independent oracle for the pixel path.

Run as a child process by run.py so that numpy and the generator never count
towards the benchmark's own memory:

    python3 perfbench/fixtures.py --out DIR --seed N [--table]
"""
from __future__ import annotations

import argparse
import json
import shutil
import time
from dataclasses import replace
from pathlib import Path

from common import import_protopipe

PIXEL_CONFIG = "config.json"  # where make_rigged_scenario writes its config
TABLE_CONFIG = "config_table.json"
TABLE_NAME = "embeddings.json"
INFO_NAME = "fixture_info.json"


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def table_rows(manifest, projection, grid: int) -> dict[str, list[list[float]]]:
    """One embedding row per frame: box average then projection, in numpy."""
    import numpy as np

    proj = np.array(projection.values, dtype=np.float64).reshape(
        projection.rows, projection.cols
    )
    videos = {}
    for video in manifest.all_videos():
        pixels = []
        for path in video.frame_paths:
            # Canonical P6 header: "P6\n<w> <h>\n255\n".
            magic, size, maxval, payload = Path(path).read_bytes().split(b"\n", 3)
            if magic != b"P6" or maxval != b"255":
                raise ValueError(f"{path}: not a canonical P6 frame")
            w, h = (int(t) for t in size.split())
            pixels.append(np.frombuffer(payload, dtype=np.uint8).reshape(h * w, 3))
        px = np.stack(pixels).astype(np.float64)  # frames x pixels x channels
        ybin = np.minimum(grid - 1, np.arange(h) * grid // h)
        xbin = np.minimum(grid - 1, np.arange(w) * grid // w)
        cell = (ybin[:, None] * grid + xbin[None, :]).ravel()
        onehot = (cell[:, None] == np.arange(grid * grid)[None, :]).astype(np.float64)
        counts = onehot.sum(axis=0)
        # Integer sums below 2**53 are exact in any order.
        flat = np.concatenate(
            [px[:, :, ch] @ onehot / (counts * 255.0) for ch in range(3)], axis=1
        )
        # Accumulate one input row at a time, in order, like numerics.matmul
        # (numpy's matmul sums in another order): each step rounds the product,
        # then the sum. Inputs that matmul skips as zero add a signed zero
        # here, which never changes the sum.
        acc = np.zeros((len(pixels), proj.shape[1]))
        for p in range(proj.shape[0]):
            acc += flat[:, p, None] * proj[p]
        videos[video.video_id] = acc.tolist()
    return videos


def write_fixtures(out: Path, seed: int, with_table: bool) -> dict:
    """Write the rigged scenario under out at this seed, and optionally the table."""
    import_protopipe()
    from protopipe.config import build_runtime, load_config
    from protopipe.evaluation import RIGGED_GENERATOR, make_rigged_scenario
    from protopipe.media_io import synthetic

    # The rigged adapter and config as evaluation writes them; then the seed
    # moves to this one and the dataset is generated again with it.
    _, config_path = make_rigged_scenario(out)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["seed"] = seed
    _write_json(config_path, config)
    _write_json(out / TABLE_CONFIG,
                {**config, "embedder": {"kind": "precomputed", "table": TABLE_NAME}})
    shutil.rmtree(out / "data")
    written = 0
    encode = synthetic.encode_pnm

    def counting_encode(frame):
        nonlocal written
        written += 1
        return encode(frame)

    synthetic.encode_pnm = counting_encode
    try:
        start = time.perf_counter()
        manifest = synthetic.generate_synthetic_dataset(
            replace(RIGGED_GENERATOR, seed=seed), out / "data"
        )
        generate_s = time.perf_counter() - start
    finally:
        synthetic.encode_pnm = encode
    info = {"generate_s": generate_s, "frames_written": written}
    if with_table:
        start = time.perf_counter()
        projection = build_runtime(load_config(config_path)).embedder.projection
        rows = table_rows(manifest, projection, config["embedder"]["grid"])
        (out / TABLE_NAME).write_text(
            json.dumps({"dim": projection.cols, "videos": rows}), encoding="utf-8"
        )
        info["table_s"] = time.perf_counter() - start
    _write_json(out / INFO_NAME, info)
    return info


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--table", action="store_true")
    args = parser.parse_args()
    write_fixtures(args.out, args.seed, args.table)


if __name__ == "__main__":
    main()
