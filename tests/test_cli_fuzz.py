"""Fuzz the CLI end to end: a damaged input file exits 0, 2 or 3, never a traceback.

One input file of a tiny generated dataset is damaged: truncated, one byte
changed, or, in a JSON file, one key dropped, duplicated or retyped. The
adapter's packed values file is damaged the same way: a cut file or a NaN
or an infinity ends a run with 2, and a changed value that stays finite
with 0, or with 3 if it makes a prototype non-finite. Then
`personalize`, `recognize` and `evaluate` run through `cli.main`. Each must
return 0, 2 or 3. Any other exception, such as a plain ValueError from a
raise site outside the two error classes, fails the test with its traceback.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from protopipe.adaptation import centering_adapter_weights, save_transformer_weights
from protopipe.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from protopipe.embedding import make_patch_projection_spec
from protopipe.errors import write_json

CONFIG_DOC = {
    "sampler": {
        "clip_length": 3, "clips_per_video": 2, "policy": "uniform", "within_chunk": "middle",
    },
    "edge_filter": {"tau_mag": 32.0, "tau_density": 0.01, "enabled": True},
    "embedder": {"weights": "projection.json"},
    "adapter": "adapter.json",
    "seed": 0,
}
CLEAN = "frames/user00/obj00/user00_obj00_clean00/f00002.ppm"
CLUTTER = "frames/user00/obj00/user00_obj00_clutter00/f00004.ppm"
# Each input file by name: its path under the workspace, the config the
# three commands run with when it is the one damaged, and how many damaged
# copies to try. A damaged frame mostly changes pixels, so most of its runs
# go to the end: it gets fewer.
INPUTS = {
    "manifest": ("data/manifest.json", "config.json", 20),
    "config": ("config.json", "config.json", 20),
    "projection": ("projection.json", "config.json", 15),
    "adapter": ("adapter.json", "config.json", 15),
    "adapter values": ("adapter.f64", "config.json", 15),
    "table": ("table.json", "table_config.json", 15),
    "prototypes": ("prototypes.json", "config.json", 12),
    "clean frame": (f"data/{CLEAN}", "config.json", 10),
    "clutter frame": (f"data/{CLUTTER}", "config.json", 10),
}
# Values that stand in for a retyped or duplicated key. Numbers stay small,
# so that a count or a size read from them cannot make a run slow.
OTHER_VALUES = [None, True, 7, 0.5, "x", [], {}]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """1 user x 2 objects, 6-frame 16x16 videos, dim 8: every input file of a run.

    Every run's planned frames times dim stay below `protonet.POOL_MIN_WORK`,
    so it starts no worker processes, which would cost more than the run.
    """
    root = tmp_path_factory.mktemp("fuzz")
    assert main(
        [
            "gen-synthetic", "--out", str(root / "data"), "--users", "1", "--objects", "2",
            "--frames", "6", "--size", "16", "--seed", "1",
        ]
    ) == EXIT_OK
    spec = make_patch_projection_spec(grid=4, channels=3, dim=8, seed=0)
    write_json(root / "projection.json", {
        "grid": 4, "channels": 3, "dim": 8, "projection": spec.projection.to_rows(),
    })
    save_transformer_weights(centering_adapter_weights(8, 0.25), root / "adapter.json")
    write_json(root / "config.json", CONFIG_DOC)
    manifest = json.loads((root / "data" / "manifest.json").read_text())
    write_json(root / "table.json", {"dim": 8, "videos": {
        video["video_id"]: [[1.0 + n, 0.5 * k] + [0.25] * 6 for n in range(6)]
        for user in manifest["users"] for k, obj in enumerate(user["objects"])
        for video in obj["videos"]
    }})
    write_json(
        root / "table_config.json",
        dict(CONFIG_DOC, embedder={"kind": "precomputed", "table": "table.json"}),
    )
    (root / "out").mkdir()
    assert main(
        [
            "personalize", "--dataset", str(root / "data"), "--user", "user00",
            "--config", str(root / "config.json"), "--out", str(root / "prototypes.json"),
        ]
    ) == EXIT_OK
    for config in ("config.json", "table_config.json"):
        assert run_commands(root, config) == [EXIT_OK] * 3
    return root


def run_commands(root: Path, config: str) -> list[int]:
    data, config, out = str(root / "data"), str(root / config), root / "out"
    return [
        main(["personalize", "--dataset", data, "--user", "user00", "--config", config,
              "--out", str(out / "prototypes.json")]),
        main(["recognize", "--prototypes", str(root / "prototypes.json"), "--dataset", data,
              "--video", "user00_obj00_clutter00", "--config", config,
              "--out", str(out / "predictions.json")]),
        main(["evaluate", "--dataset", data, "--config", config,
              "--out", str(out / "report.json")]),
    ]


def key_paths(doc, at=()):
    """The path of every key of every object in a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield at + (key,)
            yield from key_paths(value, at + (key,))
    elif isinstance(doc, list):
        for n, value in enumerate(doc):
            yield from key_paths(value, at + (n,))


def dumps_with_duplicate(doc, path: tuple, value, at=()) -> str:
    """JSON text of `doc`, with the key at `path` given twice, `value` second."""
    if isinstance(doc, dict):
        pairs = [(key, dumps_with_duplicate(v, path, value, at + (key,))) for key, v in doc.items()]
        if path[:-1] == at:
            pairs.append((path[-1], json.dumps(value)))
        return "{" + ", ".join(f"{json.dumps(key)}: {text}" for key, text in pairs) + "}"
    if isinstance(doc, list):
        return "[" + ", ".join(
            dumps_with_duplicate(v, path, value, at + (n,)) for n, v in enumerate(doc)
        ) + "]"
    return json.dumps(doc)


@st.composite
def damaged(draw, original: bytes) -> bytes:
    """`original` damaged once: truncated, one byte changed or, in JSON, one key
    dropped, duplicated or retyped."""
    kinds = ["truncate", "change a byte"]
    if original.startswith(b"{"):
        kinds += ["drop a key", "duplicate a key", "retype a key"]
    kind = draw(st.sampled_from(kinds))
    # A header or a top-level key comes first: half the draws stay near the start.
    at = draw(st.integers(0, min(len(original), 16) - 1) | st.integers(0, len(original) - 1))
    if kind == "truncate":
        return original[:at]
    if kind == "change a byte":
        return original[:at] + bytes([original[at] ^ draw(st.integers(1, 255))]) + original[at + 1:]
    doc = json.loads(original)
    paths = list(key_paths(doc))
    # A key near the top shapes the whole file: half the draws pick one.
    path = draw(st.sampled_from([p for p in paths if len(p) <= 3]) | st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop a key":
        del parent[path[-1]]
        return json.dumps(doc).encode()
    old = parent[path[-1]]
    if kind == "retype a key":
        others = [v for v in OTHER_VALUES if type(v) is not type(old)]
        parent[path[-1]] = draw(st.sampled_from(others))
        return json.dumps(doc).encode()
    return dumps_with_duplicate(doc, path, draw(st.sampled_from(OTHER_VALUES + [old]))).encode()


@pytest.mark.parametrize("name", list(INPUTS))
def test_a_damaged_input_file_exits_0_2_or_3(workspace, name):
    path, config, examples = INPUTS[name]
    target = workspace / path
    original = target.read_bytes()

    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(damaged(original))
    def check(damaged_bytes):
        target.write_bytes(damaged_bytes)
        try:
            codes = run_commands(workspace, config)
        finally:
            target.write_bytes(original)
        assert set(codes) <= {EXIT_OK, EXIT_CONFIG, EXIT_DATA}

    check()
