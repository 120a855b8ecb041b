from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from protopipe.errors import DataError
from protopipe.media_io.manifest import load_manifest, parse_manifest


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
    assert [obj.label for obj in user.objects] == ["mug", "keys"]
    assert len(manifest.all_videos()) == 4


def test_frame_paths_resolved_against_base_dir():
    manifest = parse_manifest(make_doc(), Path("/data/run1"))
    video = manifest.all_videos()[0]
    assert video.frame_paths[0] == str(Path("/data/run1/u0/mug/c0.pgm"))


def test_duplicate_labels_rejected():
    with pytest.raises(DataError, match=re.escape(
        "bad manifest: users[0].objects[0].label: user 'u0' has duplicate labels ['mug']"
    )):
        parse_manifest(make_doc(labels=("mug", "mug")), Path("."))


def test_single_object_rejected():
    with pytest.raises(DataError, match=re.escape(
        "bad manifest: users[0].objects: user 'u0' has 1 object(s); an episode needs at least 2"
    )):
        parse_manifest(make_doc(labels=("mug",)), Path("."))


def test_no_users_rejected():
    message = "bad manifest: users: a dataset needs at least one user"
    with pytest.raises(DataError, match=re.escape(message)):
        parse_manifest({"users": []}, Path("."))


def test_duplicate_user_ids_rejected():
    with pytest.raises(DataError, match=re.escape(
        "bad manifest: users[0].user_id: duplicate user_ids ['u0']"
    )):
        parse_manifest(make_doc(user_ids=("u0", "u0")), Path("."))


def test_duplicate_video_ids_rejected():
    doc = make_doc(user_ids=("u0", "u1"))
    # Another user's video, and another video of the same object.
    doc["users"][1]["objects"][0]["videos"][1]["video_id"] = "u0_mug_clutter"
    doc["users"][0]["objects"][1]["videos"][1]["video_id"] = "u0_keys_clean"
    with pytest.raises(
        DataError,
        match=r"^bad manifest: users\[0\]\.objects\[0\]\.videos\[1\]\.video_id: "
        r"duplicate video_ids \['u0_keys_clean', 'u0_mug_clutter'\]$",
    ):
        parse_manifest(doc, Path("."))


def test_missing_clean_video_rejected():
    doc = make_doc()
    videos = doc["users"][0]["objects"][0]["videos"]
    doc["users"][0]["objects"][0]["videos"] = [v for v in videos if v["kind"] != "clean"]
    with pytest.raises(DataError, match=re.escape(
        "bad manifest: users[0].objects[0].videos: object 'mug' of user 'u0' has no clean video"
    )):
        parse_manifest(doc, Path("."))


def test_missing_clutter_video_rejected():
    doc = make_doc()
    videos = doc["users"][0]["objects"][1]["videos"]
    doc["users"][0]["objects"][1]["videos"] = [v for v in videos if v["kind"] != "clutter"]
    with pytest.raises(DataError, match=re.escape(
        "bad manifest: users[0].objects[1].videos: object 'keys' of user 'u0' has no clutter video"
    )):
        parse_manifest(doc, Path("."))


def test_empty_frame_list_rejected():
    doc = make_doc()
    doc["users"][0]["objects"][0]["videos"][0]["frames"] = []
    with pytest.raises(DataError, match=re.escape(
        "bad manifest: users[0].objects[0].videos[0].frames: video 'u0_mug_clean' has no frames"
    )):
        parse_manifest(doc, Path("."))


def raises_at(key_path: str):
    """Expect a DataError naming `key_path`, and no key below it, in its message."""
    return pytest.raises(DataError, match=re.escape(f": {key_path}") + r"(?![\w.\[])")


def test_schema_violations_carry_pointers():
    doc = make_doc()
    doc["users"][0]["objects"][1]["label"] = 17
    with raises_at("users[0].objects[1].label"):
        parse_manifest(doc, Path("."))

    doc = make_doc()
    doc["users"][0]["objects"][0]["videos"][0]["kind"] = "blurry"
    with raises_at("users[0].objects[0].videos[0].kind"):
        parse_manifest(doc, Path("."))

    doc = make_doc()
    doc["users"][0]["objects"][0]["videos"][1]["frames"][0] = "f\0.ppm"
    with raises_at("users[0].objects[0].videos[1].frames[0]"):
        parse_manifest(doc, Path("."))

    with raises_at("users"):
        parse_manifest({"users": "nope"}, Path("."))

    with pytest.raises(DataError, match="^bad manifest: the document must be an object$"):
        parse_manifest([], Path("."))


@pytest.mark.parametrize(
    "path", ["/etc/hostname", "../../x.pgm", "u0/../q0.pgm", "./q0.pgm", "u0//q0.pgm", "u0/"]
)
def test_frame_path_may_not_leave_the_manifest_directory(path):
    doc = make_doc()
    doc["users"][0]["objects"][1]["videos"][1]["frames"][0] = path
    with raises_at("users[0].objects[1].videos[1].frames[0]"):
        parse_manifest(doc, Path("/data/run1"))


def test_plain_relative_paths_join_as_before():
    doc = make_doc()
    frames = ["q0.pgm", "a/b/c.pgm", "..x/y..", "a.b/.c"]
    doc["users"][0]["objects"][1]["videos"][1]["frames"] = frames
    video = parse_manifest(doc, Path("/data/run1")).video("u0_keys_clutter")
    assert video.frame_paths == [str(Path("/data/run1") / p) for p in frames]


# A plain component: no '/', no NUL, not '.' or '..'.
COMPONENT = st.text(
    st.characters(blacklist_characters="/\0", blacklist_categories=("Cs",)), min_size=1, max_size=5
).filter(lambda c: c not in (".", ".."))
FRAME_PATH = st.lists(COMPONENT, min_size=1, max_size=3).map("/".join)
# Any base: '.', '/', '//', relative or absolute, with '.', '..', doubled or
# trailing slashes that Path normalizes away.
BASE = st.builds(
    lambda lead, parts, tail: lead + "/".join(parts) + tail,
    st.sampled_from(["", "/", "//", "./"]),
    st.lists(COMPONENT | st.sampled_from([".", "..", ""]), max_size=3),
    st.sampled_from(["", "/"]),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from([".", "/", "//", "data", "/data/run1"]) | BASE,
    st.lists(FRAME_PATH, min_size=1, max_size=3),
)
def test_frame_paths_join_as_pathlib_does(base, frames):
    doc = make_doc()
    doc["users"][0]["objects"][1]["videos"][1]["frames"] = frames
    video = parse_manifest(doc, Path(base)).video("u0_keys_clutter")
    assert video.frame_paths == [str(Path(base) / p) for p in frames]


def test_lookup_by_id():
    manifest = parse_manifest(make_doc(), Path("."))
    assert manifest.video("u0_keys_clutter").frame_paths == ["u0/keys/q0.pgm"]
    for lookup, name in ((manifest.user, "ghost_user"), (manifest.video, "ghost_video")):
        with pytest.raises(DataError, match=f"^unknown (user|video) '{name}' in dataset$"):
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
    absent = tmp_path / "absent.json"
    with pytest.raises(DataError, match=re.escape(f"cannot read manifest {absent}: ")):
        load_manifest(absent)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataError, match=re.escape(f"manifest {bad} is not valid JSON: ")):
        load_manifest(bad)


def test_invariant_fault_loaded_from_a_file_names_it(tmp_path):
    doc = make_doc()
    doc["users"][0]["objects"][1]["videos"][0]["frames"] = []
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=re.escape(f"bad manifest {path}: ")) as info:
        load_manifest(path)
    assert "users[0].objects[1].videos[0].frames: video 'u0_keys_clean' has no frames" in str(
        info.value
    )
