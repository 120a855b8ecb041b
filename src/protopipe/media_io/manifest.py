"""Dataset manifest: users own objects, objects own clean/clutter videos.

The on-disk form is JSON with frame paths relative to the manifest file.
Loading reads it by MANIFEST_KEYS with `errors.read_object`, resolves the
paths and checks every structural invariant eagerly, so later stages never
see a half-formed dataset; each fault names the file and the key path. A
frame path may not leave the manifest's directory: an absolute path, or one
with a '.', '..' or empty component, is rejected.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from ..errors import DataError, read_json, read_object


class ManifestError(DataError):
    pass


class InvariantViolation(ManifestError):
    pass


class UnknownId(ManifestError):
    def __init__(self, what: str, name: str):
        super().__init__(f"unknown {what} {name!r} in dataset")


KINDS = ("clean", "clutter")
# The one schema of a manifest file, read by `errors.read_object`.
MANIFEST_KEYS = {
    "users": [{
        "user_id": str,
        "objects": [{
            "label": str,
            "videos": [{"video_id": str, "kind": str, "frames": [str]}],
        }],
    }],
}


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


LEVELS = ("users", "objects", "videos")


def _key_path(indices: tuple, key: str) -> str:
    """`key` of the entry at `indices` down LEVELS, as in users[0].objects[1].label."""
    return ".".join([f"{level}[{n}]" for level, n in zip(LEVELS, indices)] + [key])


def _duplicates(names: list[str]) -> tuple[list[str], int]:
    """The names given more than once, sorted, and the index of the first of them."""
    counts = Counter(names)
    dupes = sorted(name for name, n in counts.items() if n > 1)
    return dupes, next((n for n, name in enumerate(names) if counts[name] > 1), -1)


def _stays_inside(path: str) -> bool:
    """True for a relative path of plain components, which stays in the manifest's directory."""
    return not {"", ".", ".."}.intersection(path.split("/"))


def parse_manifest(document, base_dir: Path, where: str = "manifest") -> DatasetManifest:
    """`document` read by MANIFEST_KEYS into records, every invariant checked.

    Frame paths resolve against `base_dir`. A fault raises a ManifestError
    naming `where` and the key path at fault, which is built only then.
    """
    doc = read_object(document, MANIFEST_KEYS, ManifestError, where)

    def fault(indices: tuple, key: str, message: str) -> InvariantViolation:
        return InvariantViolation(f"bad {where}: {_key_path(indices, key)}: {message}")

    def name(value: str, indices: tuple, key: str) -> str:
        if not value or "\0" in value:  # os.open raises ValueError on a NUL
            raise fault(indices, key, f"{value!r} must be nonempty with no NUL character")
        return value

    users, video_at = [], []
    for i, u in enumerate(doc["users"]):
        user_id = name(u["user_id"], (i,), "user_id")
        objects = []
        for j, o in enumerate(u["objects"]):
            label = name(o["label"], (i, j), "label")
            videos = []
            for k, v in enumerate(o["videos"]):
                at, kind, frames = (i, j, k), v["kind"], v["frames"]
                video_id = name(v["video_id"], at, "video_id")
                if kind not in KINDS:
                    raise fault(at, "kind", f"{kind!r} is not 'clean' or 'clutter'")
                if not frames:
                    raise fault(at, "frames", f"video {video_id!r} has no frames")
                if not all(map(_stays_inside, frames)) or "\0" in "".join(frames):
                    for n, path in enumerate(frames):
                        name(path, at, f"frames[{n}]")
                        if not _stays_inside(path):
                            raise fault(at, f"frames[{n}]", f"{path!r} must be a relative "
                                        "path with no '.', '..' or empty component")
                videos.append(VideoRecord(video_id, kind, [str(base_dir / p) for p in frames]))
                video_at.append(at)
            for kind in KINDS:
                if not any(v.kind == kind for v in videos):
                    message = f"object {label!r} of user {user_id!r} has no {kind} video"
                    raise fault((i, j), "videos", message)
            objects.append(ObjectRecord(label, videos))
        dupes, j = _duplicates([o.label for o in objects])
        if dupes:
            raise fault((i, j), "label", f"user {user_id!r} has duplicate labels {dupes}")
        if len(objects) < 2:
            raise fault((i,), "objects", f"user {user_id!r} has {len(objects)} object(s); "
                        "an episode needs at least 2")
        users.append(UserRecord(user_id, objects))
    dupes, i = _duplicates([u.user_id for u in users])
    if dupes:
        raise fault((i,), "user_id", f"duplicate user_ids {dupes}")
    manifest = DatasetManifest(users)
    # Frame vectors, sampling seeds and embedding-table rows are all keyed by
    # video_id, so two videos sharing one would be scored as each other.
    dupes, n = _duplicates([v.video_id for v in manifest.all_videos()])
    if dupes:
        raise fault(video_at[n], "video_id", f"duplicate video_ids {dupes}")
    return manifest


def load_manifest(path) -> DatasetManifest:
    """Load and validate a manifest JSON file."""
    path = Path(path)
    return parse_manifest(read_json(path, ManifestError, "manifest"), path.parent, f"manifest {path}")
