from __future__ import annotations

import json
from pathlib import Path

import pytest

from protopipe.media_io.manifest import (
    InvariantViolation,
    ManifestError,
    SchemaViolation,
    UnknownId,
    load_manifest,
    parse_manifest,
)


def make_doc(*, labels=("mug", "keys"), user_ids=("u0",)):
    users = []
    for uid in user_ids:
        objects = []
        for label in labels:
            objects.append(
                {
                    "label": label,
                    "videos": [
                        {
                            "video_id": f"{uid}_{label}_clean",
                            "kind": "clean",
                            "frames": [f"{uid}/{label}/c0.pgm"],
                        },
                        {
                            "video_id": f"{uid}_{label}_clutter",
                            "kind": "clutter",
                            "frames": [f"{uid}/{label}/q0.pgm"],
                        },
                    ],
                }
            )
        users.append({"user_id": uid, "objects": objects})
    return {"users": users}


def test_minimal_manifest_parses():
    manifest = parse_manifest(make_doc(), Path("/data"))
    assert manifest.user_ids() == ["u0"]
    user = manifest.user("u0")
    assert user.labels() == ["mug", "keys"]
    assert len(manifest.all_videos()) == 4


def test_frame_paths_resolved_against_base_dir():
    manifest = parse_manifest(make_doc(), Path("/data/run1"))
    video = manifest.all_videos()[0]
    assert video.frame_paths[0] == str(Path("/data/run1/u0/mug/c0.pgm"))


def test_duplicate_labels_rejected():
    with pytest.raises(InvariantViolation, match="duplicate labels"):
        parse_manifest(make_doc(labels=("mug", "mug")), Path("."))


def test_single_object_rejected():
    with pytest.raises(InvariantViolation, match="at least 2"):
        parse_manifest(make_doc(labels=("mug",)), Path("."))


def test_duplicate_user_ids_rejected():
    with pytest.raises(InvariantViolation, match="duplicate user_ids"):
        parse_manifest(make_doc(user_ids=("u0", "u0")), Path("."))


def test_duplicate_video_ids_rejected():
    doc = make_doc(user_ids=("u0", "u1"))
    # Another user's video, and another video of the same object.
    doc["users"][1]["objects"][0]["videos"][1]["video_id"] = "u0_mug_clutter"
    doc["users"][0]["objects"][1]["videos"][1]["video_id"] = "u0_keys_clean"
    with pytest.raises(
        InvariantViolation,
        match=r"duplicate video_ids \['u0_keys_clean', 'u0_mug_clutter'\]",
    ):
        parse_manifest(doc, Path("."))


def test_missing_clean_video_rejected():
    doc = make_doc()
    videos = doc["users"][0]["objects"][0]["videos"]
    doc["users"][0]["objects"][0]["videos"] = [v for v in videos if v["kind"] != "clean"]
    with pytest.raises(InvariantViolation, match="no clean video"):
        parse_manifest(doc, Path("."))


def test_missing_clutter_video_rejected():
    doc = make_doc()
    videos = doc["users"][0]["objects"][1]["videos"]
    doc["users"][0]["objects"][1]["videos"] = [v for v in videos if v["kind"] != "clutter"]
    with pytest.raises(InvariantViolation, match="no clutter video"):
        parse_manifest(doc, Path("."))


def test_empty_frame_list_rejected():
    doc = make_doc()
    doc["users"][0]["objects"][0]["videos"][0]["frames"] = []
    with pytest.raises(InvariantViolation, match="no frames"):
        parse_manifest(doc, Path("."))


def test_schema_violations_carry_pointers():
    doc = make_doc()
    doc["users"][0]["objects"][1]["label"] = 17
    with pytest.raises(SchemaViolation) as info:
        parse_manifest(doc, Path("."))
    assert info.value.pointer == "/users/0/objects/1/label"

    doc = make_doc()
    doc["users"][0]["objects"][0]["videos"][0]["kind"] = "blurry"
    with pytest.raises(SchemaViolation) as info:
        parse_manifest(doc, Path("."))
    assert info.value.pointer == "/users/0/objects/0/videos/0/kind"

    doc = make_doc()
    doc["users"][0]["objects"][0]["videos"][1]["frames"][0] = "f\0.ppm"
    with pytest.raises(SchemaViolation) as info:
        parse_manifest(doc, Path("."))
    assert info.value.pointer == "/users/0/objects/0/videos/1/frames/0"

    with pytest.raises(SchemaViolation) as info:
        parse_manifest({"users": "nope"}, Path("."))
    assert info.value.pointer == "/users"

    with pytest.raises(SchemaViolation):
        parse_manifest([], Path("."))


def test_lookup_by_id():
    manifest = parse_manifest(make_doc(), Path("."))
    assert manifest.video("u0_keys_clutter").frame_paths == ["u0/keys/q0.pgm"]
    for lookup, name in ((manifest.user, "ghost_user"), (manifest.video, "ghost_video")):
        with pytest.raises(UnknownId, match=name):
            lookup(name)


def test_videos_of_kind_partitions():
    manifest = parse_manifest(make_doc(), Path("."))
    obj = manifest.user("u0").objects[0]
    assert [v.kind for v in obj.videos_of_kind("clean")] == ["clean"]
    assert [v.kind for v in obj.videos_of_kind("clutter")] == ["clutter"]


def test_load_manifest_round_trip(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(make_doc()))
    manifest = load_manifest(path)
    assert manifest.user_ids() == ["u0"]
    # paths resolve relative to the manifest's own directory
    assert manifest.all_videos()[0].frame_paths[0].startswith(str(tmp_path))


def test_load_manifest_errors(tmp_path):
    with pytest.raises(ManifestError, match="cannot read"):
        load_manifest(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ManifestError, match="not valid JSON"):
        load_manifest(bad)
