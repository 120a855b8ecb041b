from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from _oracles import ref_edge_density

from protopipe.evaluation import make_rigged_scenario
from protopipe.media_io.manifest import load_manifest
from protopipe.media_io.pnm import decode_pnm
from protopipe.media_io.synthetic import (
    SIDECAR_NAME,
    GeneratorSpec,
    generate_synthetic_dataset,
)

SMALL = GeneratorSpec(
    num_users=1,
    objects_per_user=2,
    videos_per_object=1,
    frames_per_video=16,
    frame_size=32,
    blank_fraction=0.25,
    seed=7,
)


def load_blank_sidecar(dataset_dir: Path) -> dict[str, list[int]]:
    return json.loads((dataset_dir / SIDECAR_NAME).read_text(encoding="utf-8"))


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# sha256 of the rigged scenario's tree (data, config, adapter header and values), each file
# hashed as its relative path then its bytes, in sorted path order. The
# benchmark's reference digests rest on this tree.
RIGGED_TREE_SHA256 = "a23bfbf2a08fe52e60884fb08c5db4b256f5152a78e2d654752b01e5a85581c7"


def test_rigged_scenario_tree_is_pinned(tmp_path):
    make_rigged_scenario(tmp_path)
    assert tree_digest(tmp_path) == RIGGED_TREE_SHA256


def test_generation_is_deterministic(tmp_path):
    generate_synthetic_dataset(SMALL, tmp_path / "a")
    generate_synthetic_dataset(SMALL, tmp_path / "b")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


def test_different_seed_differs(tmp_path):
    generate_synthetic_dataset(SMALL, tmp_path / "a")
    from dataclasses import replace

    generate_synthetic_dataset(replace(SMALL, seed=8), tmp_path / "b")
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "b")


def test_manifest_loads_and_matches_return_value(tmp_path):
    manifest = generate_synthetic_dataset(SMALL, tmp_path)
    reloaded = load_manifest(tmp_path / "manifest.json")
    assert reloaded.user_ids() == manifest.user_ids() == ["user00"]
    assert [v.video_id for v in reloaded.all_videos()] == [
        v.video_id for v in manifest.all_videos()
    ]
    for video in reloaded.all_videos():
        assert video.num_frames == SMALL.frames_per_video
        for path in video.frame_paths:
            frame = decode_pnm(Path(path).read_bytes())
            assert (frame.width, frame.height) == (32, 32)
            assert frame.channels == 3


def test_blank_sidecar_counts_and_runs(tmp_path):
    generate_synthetic_dataset(SMALL, tmp_path)
    sidecar = load_blank_sidecar(tmp_path)
    # bf=0.25 over 16 frames -> exactly 4 blanks per clean video
    clean_ids = {v for v in sidecar}
    assert clean_ids  # every clean video has a blank run at this fraction
    for video_id, blanks in sidecar.items():
        assert "clean" in video_id
        assert len(blanks) == 4
        start = blanks[0]
        assert blanks == list(range(start, start + 4))
        assert start % 8 == 0  # runs land on scene-cut boundaries


def test_clutter_videos_never_in_sidecar(tmp_path):
    generate_synthetic_dataset(SMALL, tmp_path)
    sidecar = load_blank_sidecar(tmp_path)
    assert not any("clutter" in vid for vid in sidecar)


def test_zero_blank_fraction_means_empty_sidecar(tmp_path):
    from dataclasses import replace

    generate_synthetic_dataset(replace(SMALL, blank_fraction=0.0), tmp_path)
    assert load_blank_sidecar(tmp_path) == {}


def test_blank_frames_fail_edge_gate_and_others_pass(tmp_path):
    # The generator's contract with the validity gate: "object not present"
    # frames are low-contrast washes that land under the default thresholds,
    # everything else clears them with room to spare.
    manifest = generate_synthetic_dataset(SMALL, tmp_path)
    sidecar = load_blank_sidecar(tmp_path)
    tau_mag, tau_density = 32.0, 0.01
    for video in manifest.all_videos():
        blanks = set(sidecar.get(video.video_id, []))
        for t, path in enumerate(video.frame_paths):
            density = ref_edge_density(decode_pnm(Path(path).read_bytes()), tau_mag)
            if t in blanks:
                assert density < tau_density, (video.video_id, t, density)
            else:
                assert density >= 2 * tau_density, (video.video_id, t, density)


def test_spec_validation():
    from dataclasses import replace

    for field, value in (
        ("num_users", 0),
        ("objects_per_user", 1),
        ("videos_per_object", 0),
        ("frames_per_video", 0),
        ("frame_size", 8),
        ("blank_fraction", -0.1),
        ("blank_fraction", 1.5),
    ):
        with pytest.raises(ValueError):
            replace(SMALL, **{field: value})


def test_video_counts(tmp_path):
    spec = GeneratorSpec(
        num_users=2,
        objects_per_user=3,
        videos_per_object=2,
        frames_per_video=8,
        frame_size=32,
        blank_fraction=0.0,
        seed=1,
    )
    manifest = generate_synthetic_dataset(spec, tmp_path)
    assert len(manifest.user_ids()) == 2
    for uid in manifest.user_ids():
        user = manifest.user(uid)
        assert len(user.objects) == 3
        for obj in user.objects:
            assert len(obj.videos_of_kind("clean")) == 2
            assert len(obj.videos_of_kind("clutter")) == 2
