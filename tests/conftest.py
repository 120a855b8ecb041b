from __future__ import annotations

import os
import signal
from contextlib import suppress

import pytest

from protopipe.embedding import PrecomputedTable
from protopipe.media_io.pnm import Frame
from protopipe.media_io.synthetic import GeneratorSpec, generate_synthetic_dataset

from _children import live_children


@pytest.fixture(autouse=True)
def no_worker_outlives_its_test():
    """Fail a test that leaves a child process of this process running.

    A worker left behind would block on its pipes, or run on into the next
    test. It is killed and reaped here, so only the test that left it fails.
    """
    yield
    left = live_children()
    for pid in left:
        with suppress(ProcessLookupError, ChildProcessError):  # reaped meanwhile
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if left:
        pytest.fail(f"the test left {len(left)} child process(es) running: {left}")


def gray_frame(rows):
    """Build a grayscale Frame from a list of row lists."""
    h = len(rows)
    w = len(rows[0])
    return Frame(w, h, 1, bytes(v for row in rows for v in row))


def rgb_frame(rows):
    """Build an RGB Frame from rows of (r, g, b) tuples."""
    h = len(rows)
    w = len(rows[0])
    return Frame(w, h, 3, bytes(v for row in rows for px in row for v in px))


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory):
    """2 users x 2 objects, 16-frame videos, no blanks. Shared read-only."""
    root = tmp_path_factory.mktemp("small_ds")
    spec = GeneratorSpec(
        num_users=2,
        objects_per_user=2,
        videos_per_object=1,
        frames_per_video=16,
        frame_size=32,
        blank_fraction=0.0,
        seed=3,
    )
    manifest = generate_synthetic_dataset(spec, root)
    return manifest, root


@pytest.fixture(scope="session")
def small_table(small_dataset):
    """A dim-16 embedding row for every frame of `small_dataset`."""
    manifest, _ = small_dataset
    return PrecomputedTable(16, {
        v.video_id: [[float(k + 1), float(i + 1)] + [0.5] * 14 for i in range(v.num_frames)]
        for k, v in enumerate(manifest.all_videos())
    })
