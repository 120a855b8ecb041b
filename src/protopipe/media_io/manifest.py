"""Dataset manifest: users own objects, objects own clean/clutter videos.

The on-disk form is JSON with frame paths relative to the manifest file;
loading resolves them and validates every structural invariant eagerly so
later stages never see a half-formed dataset.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from ..errors import DataError, read_json


class ManifestError(DataError):
    pass


class SchemaViolation(ManifestError):
    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


class InvariantViolation(ManifestError):
    pass


class UnknownId(ManifestError):
    def __init__(self, what: str, name: str):
        super().__init__(f"unknown {what} {name!r} in dataset")


KIND_CLEAN = "clean"
KIND_CLUTTER = "clutter"


@dataclass(frozen=True)
class VideoRecord:
    video_id: str
    kind: str  # "clean" (support candidate) or "clutter" (query candidate)
    frame_paths: list[str]

    @property
    def num_frames(self) -> int:
        return len(self.frame_paths)


@dataclass(frozen=True)
class ObjectRecord:
    label: str
    videos: list[VideoRecord]

    def videos_of_kind(self, kind: str) -> list[VideoRecord]:
        return [v for v in self.videos if v.kind == kind]


@dataclass(frozen=True)
class UserRecord:
    user_id: str
    objects: list[ObjectRecord]

    def labels(self) -> list[str]:
        return [o.label for o in self.objects]


@dataclass(frozen=True)
class DatasetManifest:
    users: list[UserRecord]

    def user(self, user_id: str) -> UserRecord:
        for u in self.users:
            if u.user_id == user_id:
                return u
        raise UnknownId("user", user_id)

    def video(self, video_id: str) -> VideoRecord:
        for v in self.all_videos():
            if v.video_id == video_id:
                return v
        raise UnknownId("video", video_id)

    def user_ids(self) -> list[str]:
        return [u.user_id for u in self.users]

    def all_videos(self) -> list[VideoRecord]:
        return [v for u in self.users for o in u.objects for v in o.videos]


def _expect(value, typ, pointer: str, what: str):
    if not isinstance(value, typ):
        raise SchemaViolation(pointer, f"expected {what}, got {type(value).__name__}")
    return value


def _expect_str(value, pointer: str) -> str:
    s = _expect(value, str, pointer, "string")
    if not s:
        raise SchemaViolation(pointer, "empty string")
    if "\0" in s:  # no file path can hold one: os.open raises ValueError
        raise SchemaViolation(pointer, "NUL character")
    return s


def _parse_video(node, pointer: str, base_dir: Path) -> VideoRecord:
    obj = _expect(node, dict, pointer, "object")
    video_id = _expect_str(obj.get("video_id"), f"{pointer}/video_id")
    kind = _expect_str(obj.get("kind"), f"{pointer}/kind")
    if kind not in (KIND_CLEAN, KIND_CLUTTER):
        raise SchemaViolation(f"{pointer}/kind", f"must be 'clean' or 'clutter', got {kind!r}")
    frames = _expect(obj.get("frames"), list, f"{pointer}/frames", "array")
    paths = [
        str(base_dir / _expect_str(p, f"{pointer}/frames/{i}"))
        for i, p in enumerate(frames)
    ]
    if not paths:
        raise InvariantViolation(f"video {video_id!r} has no frames")
    return VideoRecord(video_id, kind, paths)


def _parse_object(node, pointer: str, base_dir: Path) -> ObjectRecord:
    obj = _expect(node, dict, pointer, "object")
    label = _expect_str(obj.get("label"), f"{pointer}/label")
    videos_node = _expect(obj.get("videos"), list, f"{pointer}/videos", "array")
    videos = [
        _parse_video(v, f"{pointer}/videos/{i}", base_dir)
        for i, v in enumerate(videos_node)
    ]
    return ObjectRecord(label, videos)


def _duplicates(names: list[str]) -> list[str]:
    return sorted(name for name, n in Counter(names).items() if n > 1)


def _check_user_invariants(user: UserRecord) -> None:
    dupes = _duplicates(user.labels())
    if dupes:
        raise InvariantViolation(
            f"user {user.user_id!r} has duplicate labels {dupes}"
        )
    if len(user.objects) < 2:
        raise InvariantViolation(
            f"user {user.user_id!r} has {len(user.objects)} object(s); "
            "an episode needs at least 2"
        )
    for obj in user.objects:
        if not obj.videos_of_kind(KIND_CLEAN):
            raise InvariantViolation(
                f"object {obj.label!r} of user {user.user_id!r} has no clean video"
            )
        if not obj.videos_of_kind(KIND_CLUTTER):
            raise InvariantViolation(
                f"object {obj.label!r} of user {user.user_id!r} has no clutter video"
            )


def parse_manifest(document, base_dir: Path) -> DatasetManifest:
    root = _expect(document, dict, "", "object")
    users_node = _expect(root.get("users"), list, "/users", "array")
    users = []
    for i, u in enumerate(users_node):
        pointer = f"/users/{i}"
        obj = _expect(u, dict, pointer, "object")
        user_id = _expect_str(obj.get("user_id"), f"{pointer}/user_id")
        objects_node = _expect(obj.get("objects"), list, f"{pointer}/objects", "array")
        objects = [
            _parse_object(o, f"{pointer}/objects/{j}", base_dir)
            for j, o in enumerate(objects_node)
        ]
        users.append(UserRecord(user_id, objects))
    dupes = _duplicates([u.user_id for u in users])
    if dupes:
        raise InvariantViolation(f"duplicate user_ids {dupes}")
    for user in users:
        _check_user_invariants(user)
    # Frame vectors, sampling seeds and embedding-table rows are all keyed by
    # video_id, so two videos sharing one would be scored as each other.
    dupes = _duplicates([v.video_id for u in users for o in u.objects for v in o.videos])
    if dupes:
        raise InvariantViolation(f"duplicate video_ids {dupes}")
    return DatasetManifest(users)


def load_manifest(path) -> DatasetManifest:
    """Load and validate a manifest JSON file."""
    path = Path(path)
    return parse_manifest(read_json(path, ManifestError, "manifest"), path.parent)
