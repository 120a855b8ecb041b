"""`workers.map_in_workers` in worker processes: same bits, no pool unless it pays.

An evaluate splits its users over worker processes, and a one-episode plan
its videos, when this process may use more than one CPU and the work,
planned frames times the embedding dim, is large enough; the projection's
Gram-Schmidt splits its columns over two ranks when its work reaches
`embedding.GRAM_SCHMIDT_MIN_WORK`.
These tests pin that the split changes no output bit, that a small
evaluate, plan or projection stays in this process, as does a map left
with fewer than two workers, that a worker starts no pool of its own, that
a failing rank stops its peer, that a rank killed from outside ends the
build, that the projection comes back packed and this process holds no
more of it, that a fault in a worker or in the caller reaches the caller in item
order and leaves no worker behind, that neither importing the package's
entry modules nor a rigged evaluate loads a pool module, and that `conftest.py`'s guard fails a test that leaves a child
process running. A pool is counted only when it forks (`counting_forks`).
Every test that forks workers runs them in a child interpreter in a
session of its own, through `run_isolated`, so a worker left waiting fails
its test and is killed instead of outliving the run.
"""
from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from _children import counting_forks, live_children

from protopipe import protonet, workers
from protopipe.adaptation import centering_adapter_weights
from protopipe.clip_sampling import SamplerConfig
from protopipe.config import build_runtime, load_config
from protopipe.embedding import PrecomputedTable, make_patch_projection_spec
from protopipe.evaluation import evaluate_users, make_rigged_scenario
from protopipe.frame_validity import EdgeFilterConfig
from protopipe.media_io.manifest import DatasetManifest, VideoRecord, load_manifest
from protopipe.numerics import norm
from protopipe.protonet import (
    PipelineRuntime,
    VideoPlan,
    build_episode,
    classify_clip,
    embed_plan,
    personalize,
    plan_query,
    plan_workers,
    save_prototypes,
)

SRC = Path(protonet.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent


def load_rigged(root: str) -> tuple[DatasetManifest, PipelineRuntime]:
    """The rigged scenario that `make_rigged_scenario` wrote under `root`."""
    manifest = load_manifest(Path(root, "data", "manifest.json"))
    return manifest, build_runtime(load_config(Path(root, "config.json")))


def with_table(manifest: DatasetManifest, runtime: PipelineRuntime) -> PipelineRuntime:
    """The runtime with a table of seeded rows for every frame."""
    rng = random.Random(0)
    dim = runtime.embedder.dim
    table = PrecomputedTable(dim, {
        v.video_id: [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(v.num_frames)]
        for v in manifest.all_videos()
    })
    return replace(runtime, embedder=table)


@pytest.fixture(scope="module")
def rigged_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("rigged")
    make_rigged_scenario(root)
    return root


def count_pools(monkeypatch, tmp_path):
    """A reader of every pool that forks from now on, as "parent N" or "worker N".

    The log is a file, so that a pool started inside a worker process,
    whose memory the test never sees, is counted too.
    """
    log = tmp_path / "pools.log"
    log.write_text("")
    parent = os.getpid()

    def note(n):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{'parent' if os.getpid() == parent else 'worker'} {n}\n")

    monkeypatch.setattr(workers, "map_in_workers", counting_forks(workers.map_in_workers, note))
    return lambda: log.read_text(encoding="utf-8").splitlines()


def use_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def small_runtime() -> PipelineRuntime:
    """A dim-16 pixel runtime for `small_dataset`."""
    return PipelineRuntime(
        sampler=SamplerConfig(clip_length=4, clips_per_video=2),
        edge_filter=EdgeFilterConfig(),
        embedder=make_patch_projection_spec(grid=4, channels=3, dim=16, seed=0),
        adapter=centering_adapter_weights(16, 0.25),
        seed=0,
        digest="test",
    )


def all_outputs(manifest, runtime, tmp_path, after_each) -> tuple:
    """The report, one user's prototypes, audits and predictions, as text.

    `after_each` runs after every call that may start a pool.
    """
    episode = build_episode(manifest, "user00")
    report = evaluate_users(manifest, runtime)
    after_each("evaluate")
    protos, audits = personalize(episode, runtime)
    after_each("personalize")
    save_prototypes(protos, tmp_path / "protos.json")
    clips, _, _ = embed_plan([plan_query(v, runtime) for v, _ in episode.query], runtime)
    after_each("query plan")
    # repr writes each float exactly, so equal text is equal bits.
    predictions = repr([classify_clip(clip, norm(clip), protos) for clip in clips.values()])
    return (
        json.dumps(report, sort_keys=True),
        (tmp_path / "protos.json").read_bytes(),
        repr(audits),
        predictions,
    )


# argv: the name of a check below, a scratch directory and the check's own
# arguments.
IN_CHILD = """
import sys, warnings
from pathlib import Path
import pytest
import test_worker_pool

# A fork with live threads warns from Python 3.12 on; the pool must start
# before any thread of its own.
warnings.simplefilter("error", DeprecationWarning)
name, tmp_path, *args = sys.argv[1:]
with pytest.MonkeyPatch.context() as monkeypatch:
    getattr(test_worker_pool, name)(Path(tmp_path), monkeypatch, *args)
print("passed")
"""


def passes_in_child(name: str, tmp_path: Path, *args) -> bool:
    """Whether the check `name` passes when run through `IN_CHILD`."""
    return run_isolated(IN_CHILD, name, str(tmp_path), *map(str, args)) == ["passed"]


def serial_and_parallel_outputs(tmp_path, monkeypatch, rigged_dir, embedder):
    manifest, runtime = load_rigged(rigged_dir)
    if embedder == "table":
        runtime = with_table(manifest, runtime)
    pools = count_pools(monkeypatch, tmp_path)
    threads = threading.enumerate()

    def joined(call):
        # Reaped before the call returns, and no thread started.
        assert live_children() == [], call
        assert threading.enumerate() == threads, call

    outputs = {}
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        outputs[cpus] = all_outputs(manifest, runtime, tmp_path, joined)
    # One CPU runs everything here. With more, evaluate maps its two users
    # over one pool of two workers, none of which starts a pool of its own,
    # and personalize and the query plan split their six videos.
    assert pools() == [
        "parent 2", "parent 2", "parent 2",
        "parent 2", "parent 3", "parent 3",
    ]
    assert outputs[1] == outputs[2] == outputs[3]


@pytest.mark.parametrize("embedder", ["pixels", "table"])
def test_serial_and_parallel_outputs_are_byte_identical(rigged_dir, embedder, tmp_path):
    assert passes_in_child("serial_and_parallel_outputs", tmp_path, rigged_dir, embedder)


def one_user_evaluate(tmp_path, monkeypatch, rigged_dir):
    manifest, runtime = load_rigged(rigged_dir)
    runtime = with_table(manifest, runtime)
    one_user = DatasetManifest(manifest.users[:1])
    use_cpus(monkeypatch, 2)
    pools = count_pools(monkeypatch, tmp_path)
    report = evaluate_users(one_user, runtime)
    assert pools() == ["parent 2"]
    assert live_children() == []
    use_cpus(monkeypatch, 1)
    assert report == evaluate_users(one_user, runtime)
    assert pools() == ["parent 2"]


def test_a_one_user_evaluate_splits_its_plan_by_video(rigged_dir, tmp_path):
    assert passes_in_child("one_user_evaluate", tmp_path, rigged_dir)


def small_evaluate_or_plan(tmp_path, monkeypatch, rigged_dir, small_dir):
    manifest = load_manifest(Path(small_dir, "manifest.json"))
    # Built before the count starts: the rigged projection may start its own pool.
    rigged_manifest, rigged = load_rigged(rigged_dir)
    use_cpus(monkeypatch, 2)
    pools = count_pools(monkeypatch, tmp_path)
    pixels = small_runtime()
    evaluate_users(manifest, with_table(manifest, pixels))
    evaluate_users(manifest, pixels)
    assert pools() == []
    episode = build_episode(manifest, "user00")
    small = [VideoPlan(v, ((0, 1, 2),)) for v, _ in episode.query]
    assert plan_workers(small, 16) == 1
    embed_plan(small, pixels)
    assert pools() == []
    big = [plan_query(v, pixels) for v in rigged_manifest.all_videos()]
    assert plan_workers(big, 16) == 2
    threads = threading.enumerate()
    embed_plan(big, pixels)
    assert pools() == ["parent 2"]
    # A rigged-size evaluate from a table starts one pool too.
    evaluate_users(rigged_manifest, with_table(rigged_manifest, rigged))
    assert pools() == ["parent 2", "parent 2"]
    assert live_children() == []
    assert threading.enumerate() == threads


def test_a_small_evaluate_or_plan_runs_in_this_process(small_dataset, rigged_dir, tmp_path):
    _, small_dir = small_dataset
    assert passes_in_child("small_evaluate_or_plan", tmp_path, rigged_dir, small_dir)


@pytest.mark.parametrize("frames, dim, want", [
    (31, 192, 1),
    (32, 192, 2),  # the rigged projection's split by video won from 32 frames
    (254, 16, 1),  # a dim-16 evaluate of 254 planned frames lost with a table
    (384, 16, 2),
])
def test_the_pool_threshold_weighs_planned_frames_by_the_dim(frames, dim, want, monkeypatch):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    video = VideoRecord("v", "clutter", [f"f{i}" for i in range(frames)])
    assert plan_workers([VideoPlan(video, (tuple(range(frames)),))], dim) == want


# The tests' projections, (grid, channels, dim, seed): 192x16, 48x16 and 12x4.
TEST_PROJECTIONS = [(8, 3, 16, 0), (4, 3, 16, 0), (2, 3, 4, 0)]


def run_isolated(code: str, *args: str) -> list[str]:
    """Run `code` in a child interpreter in a session of its own; its stdout lines.

    Workers forked there that are left waiting, such as a rank on a pipe,
    fail the test by the 60 s timeout instead of hanging the run, and the
    session is killed afterwards, so no worker outlives the test.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    child = subprocess.Popen(
        [sys.executable, "-c", code, *args], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=60)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()
    assert child.returncode == 0, stderr
    return stdout.splitlines()


# argv: CPUs to report.
RANK_BITS = f"""
import os, sys
from _children import counting_forks, live_children
from _oracles import ref_orthonormal_columns
from protopipe import embedding, workers

os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))
os.sched_setaffinity = lambda pid, cpus: None
embedding.GRAM_SCHMIDT_MIN_WORK = 0
pools = []
workers.map_in_workers = counting_forks(workers.map_in_workers, pools.append)
for grid, channels, dim, seed in {TEST_PROJECTIONS!r}:
    spec = embedding.make_patch_projection_spec(grid, channels, dim, seed)
    want = ref_orthonormal_columns(grid * grid * channels, dim, seed)
    print(list(map(float.hex, spec.projection.values)) == list(map(float.hex, want)))
print(pools, live_children())
"""


@pytest.mark.parametrize("cpus, ranks", [(1, 1), (2, 2), (3, 2), (12, 2)])
def test_every_rank_count_gives_the_reference_projection_bits(cpus, ranks):
    # However many CPUs are usable, at most two ranks start, even for the
    # 12x4 projection, whose 4 columns are fewer than 12 CPUs.
    pools = [ranks] * len(TEST_PROJECTIONS) if ranks > 1 else []
    want = ["True"] * len(TEST_PROJECTIONS) + [f"{pools} []"]
    assert run_isolated(RANK_BITS, str(cpus)) == want


def projection_pools(tmp_path, monkeypatch):
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    pools = count_pools(monkeypatch, tmp_path)
    for grid, channels, dim, seed in TEST_PROJECTIONS:
        make_patch_projection_spec(grid, channels, dim, seed)
    assert pools() == []
    make_patch_projection_spec(8, 3, 192, 0)  # the rigged projection
    assert pools() == ["parent 2"]
    assert live_children() == []


def test_only_a_projection_past_the_break_even_starts_a_pool(tmp_path):
    assert passes_in_child("projection_pools", tmp_path)


# argv: CPUs to report.
PACKED_PROJECTION = """
import os, sys
from array import array
from _oracles import ref_orthonormal_columns
from protopipe import embedding

os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))
os.sched_setaffinity = lambda pid, cpus: None
values = embedding.make_patch_projection_spec(8, 3, 192, 0).projection.values
print(type(values) is array and values.typecode == "d")
print(list(map(float.hex, values)) == list(map(float.hex, ref_orthonormal_columns(192, 192, 0))))
"""


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_rigged_projection_is_handed_over_packed_with_the_reference_bits(cpus):
    assert run_isolated(PACKED_PROJECTION, str(cpus)) == ["True", "True"]


def projection_memory(tmp_path, monkeypatch):
    # With two ranks, the spec this process keeps holds only the packed
    # 192x192 result, 0.28 MiB, and none of the draw's or the columns'
    # floats: unpacking the result here took the build to 1.15 MiB held and
    # 1.74 MiB at peak. Only this process is measured, so each forked rank
    # stops the tracing it inherits, which would slow it some twentyfold.
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    work = workers._work

    def untraced_work(*args):
        tracemalloc.stop()
        work(*args)

    monkeypatch.setattr(workers, "_work", untraced_work)
    tracemalloc.start()
    try:
        spec = make_patch_projection_spec(8, 3, 192, 0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.projection.rows == spec.projection.cols == 192
    assert held < 0.4 * 2**20
    assert peak < 1.2 * 2**20
    assert live_children() == []


def test_this_process_holds_only_the_packed_projection(tmp_path):
    assert passes_in_child("projection_memory", tmp_path)


# The CPU count falls from two to one after its first read, as when the
# affinity mask shrinks while a projection is built.
SHRINKING_CPUS = f"""
import os
from _children import counting_forks, live_children
from _oracles import ref_orthonormal_columns
from protopipe import embedding, workers

os.sched_setaffinity = lambda pid, cpus: None
embedding.GRAM_SCHMIDT_MIN_WORK = 0
pools = []
workers.map_in_workers = counting_forks(workers.map_in_workers, pools.append)
for grid, channels, dim, seed in {TEST_PROJECTIONS!r}:
    reads = iter([{{0, 1}}])
    os.sched_getaffinity = lambda pid: next(reads, {{0}})
    spec = embedding.make_patch_projection_spec(grid, channels, dim, seed)
    want = ref_orthonormal_columns(grid * grid * channels, dim, seed)
    print(list(map(float.hex, spec.projection.values)) == list(map(float.hex, want)))
print(pools, live_children())
"""


def test_ranks_started_match_the_cpu_count_read_once():
    # Both ranks start though one CPU is left, and share it: one rank run
    # here would wait forever for its peer's columns.
    want = ["True"] * len(TEST_PROJECTIONS) + [f"{[2] * len(TEST_PROJECTIONS)} []"]
    assert run_isolated(SHRINKING_CPUS) == want


FAILING_RANK = """
import os, random, sys
from _children import live_children
from protopipe import embedding
from protopipe.errors import ConfigError

os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))
os.sched_setaffinity = lambda pid, cpus: None
embedding.GRAM_SCHMIDT_MIN_WORK = 0
# Column 1 of the 48x16 draw is all zeros, so the rank that owns it finds
# its norm degenerate. Each rank draws in its own process, from draw 0.
draws = iter(range(10**6))
gauss = random.Random.gauss
random.Random.gauss = lambda rng, mu, sigma: (
    0.0 * gauss(rng, mu, sigma) if 48 <= next(draws) < 96 else gauss(rng, mu, sigma)
)
try:
    embedding.make_patch_projection_spec(grid=4, channels=3, dim=16, seed=0)
except ConfigError as exc:
    print(type(exc).__name__, exc)
print(live_children())
"""


@pytest.mark.parametrize("cpus", [1, 3])
def test_a_failing_rank_stops_its_peers_and_its_error_reaches_the_caller(cpus):
    # Rank 1 of 2 fails on column 1, which rank 0 waits for.
    lines = run_isolated(FAILING_RANK, str(cpus))
    assert lines == ["ConfigError degenerate projection draw", "[]"]


KILLED_RANK = """
import os, signal, time
from _children import live_children
from protopipe import embedding

os.sched_getaffinity = lambda pid: {0, 1}
os.sched_setaffinity = lambda pid, cpus: None
embedding.GRAM_SCHMIDT_MIN_WORK = 0
rank = embedding._gram_schmidt_rank

def killed(n, d, seed, pipes, r):
    if r == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return rank(n, d, seed, pipes, r)

embedding._gram_schmidt_rank = killed
start = time.monotonic()
try:
    embedding.make_patch_projection_spec(grid=4, channels=3, dim=16, seed=0)
except RuntimeError as exc:
    print(repr(exc), time.monotonic() - start < 10)
print(live_children())
"""


def test_a_rank_killed_from_outside_ends_the_build_and_no_rank_is_left():
    # Rank 0 waits on its inbox for column 1, whose write ends this process
    # and rank 0 itself hold, so only the pool's reading every result pipe
    # at once sees rank 1 die; rank 0 is then killed, not waited for.
    assert run_isolated(KILLED_RANK) == [
        "RuntimeError('the worker for item 1 exited with status -9 "
        "before returning its results') True",
        "[]",
    ]


@pytest.mark.parametrize(
    "items, n", [(range(3), 1), (range(0), 2), (range(1), 2)],
    ids=["one worker", "no items", "one item, two workers"],
)
def test_a_map_left_with_fewer_than_two_workers_runs_here(items, n, monkeypatch):
    # Capped at one worker per item, fewer than two run every item in this
    # process, in order, and fork nothing.
    def forbidden():
        raise AssertionError("the map forked")

    monkeypatch.setattr(os, "fork", forbidden)
    ran = []

    def fn(item):
        ran.append(item)
        return item, os.getpid()

    assert workers.map_in_workers(fn, items, n) == [(i, os.getpid()) for i in items]
    assert ran == list(items)
    assert live_children() == []


# argv: the fault to plant. Each map runs over items 0-3 in two workers;
# what reaches the caller is printed, then this process's live children.
POOL_FAULTS = """
import os, signal, sys, time
from _children import live_children
from protopipe import workers
from protopipe.errors import DataError

def fails(item, after):
    time.sleep(after)
    raise DataError(f"item {item}")

def interrupt(signum, frame):
    raise KeyboardInterrupt

FAULTS = {
    # Worker 1 dies at its first item, with a failing status, then with 0.
    "dies": [lambda item: os._exit(1) if item == 1 else item,
             lambda item: os._exit(0) if item == 1 else item],
    # Item 1 fails before item 0; worker 0 fails at item 2 before worker 1
    # fails at item 1; worker 1 fails at item 3 after worker 0 at item 2.
    "order": [
        lambda item: fails(item, 0.3 if item == 0 else 0.0),
        lambda item: item if item == 0 else fails(item, 0.3 if item == 1 else 0.0),
        lambda item: item if item < 2 else fails(item, 0.3 if item == 3 else 0.0),
    ],
    # This process is interrupted while every worker sleeps.
    "interrupt": [lambda item: time.sleep(30)],
}
signal.signal(signal.SIGALRM, interrupt)
for fn in FAULTS[sys.argv[1]]:
    signal.setitimer(signal.ITIMER_REAL, 0.5 if sys.argv[1] == "interrupt" else 0)
    start = time.monotonic()
    try:
        workers.map_in_workers(fn, range(4), 2)
    except BaseException as exc:
        print(repr(exc), time.monotonic() - start < 10)
print(live_children())
"""


@pytest.mark.parametrize("fault, raised", [
    ("dies", [
        f"RuntimeError('the worker for item 1 exited with status {status} "
        "before returning its results') True"
        for status in (1, 0)
    ]),
    ("order", [f"DataError('item {i}') True" for i in range(3)]),
    ("interrupt", ["KeyboardInterrupt() True"]),
])
def test_a_pool_fault_reaches_the_caller_and_no_worker_is_left(fault, raised):
    # The error raised is the first in item order, not in time; a worker's
    # death is an error at its first item; on an exception here, every
    # worker is killed at once, not waited for, and each is reaped.
    assert run_isolated(POOL_FAULTS, fault) == raised + ["[]"]


# argv: the directory `make_rigged_scenario` wrote.
RIGGED_EVALUATE = """
import os, sys, threading
from pathlib import Path
from _children import counting_forks
from protopipe import workers
from protopipe.config import build_runtime, load_config
from protopipe.evaluation import evaluate_users
from protopipe.media_io.manifest import load_manifest

os.sched_getaffinity = lambda pid: {0, 1}
os.sched_setaffinity = lambda pid, cpus: None
pools = []
workers.map_in_workers = counting_forks(workers.map_in_workers, pools.append)
threads = threading.enumerate()
runtime = build_runtime(load_config(Path(sys.argv[1], "config.json")))
evaluate_users(load_manifest(Path(sys.argv[1], "data", "manifest.json")), runtime)
print(pools, threading.enumerate() == threads)
print(sorted(m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules))
"""


def test_a_rigged_evaluate_imports_no_pool_module(rigged_dir):
    # Two pools start, the projection's ranks and the users' split, and
    # neither loads a pool module or leaves a thread behind.
    assert run_isolated(RIGGED_EVALUATE, str(rigged_dir)) == ["[2, 2] True", "[]"]


PLANTED_LEAK = """
import os, time
from pathlib import Path

def test_leaves_a_child_running():
    pid = os.fork()
    if pid == 0:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
        time.sleep(60)
        os._exit(0)
    Path("leaked.pid").write_text(str(pid))

def test_the_next_test_is_not_blamed():
    pass
"""

# argv: a directory holding the suite's conftest and the planted tests.
RUN_PLANTED = """
import os, sys, pytest
os.chdir(sys.argv[1])
print("exit", int(pytest.main(["-q", "-p", "no:cacheprovider", "test_planted.py"])))
"""


def test_the_guard_fails_a_test_that_leaves_a_child_running(tmp_path):
    shutil.copy(TESTS / "conftest.py", tmp_path)
    (tmp_path / "test_planted.py").write_text(PLANTED_LEAK)
    lines = run_isolated(RUN_PLANTED, str(tmp_path))
    pid = int((tmp_path / "leaked.pid").read_text())
    # Both tests pass; the one that left the child errs at its teardown.
    assert lines[-1] == "exit 1"
    assert lines[-2].startswith("2 passed, 1 error in ")
    assert any(" ERROR at teardown of test_leaves_a_child_running " in line for line in lines)
    failed = f"Failed: the test left 1 child process(es) running: [{pid}]"
    assert any(line.endswith(failed) for line in lines)
    # Killed and reaped by the guard, so gone before its session is.
    assert not Path(f"/proc/{pid}").exists()


def test_importing_the_cli_loads_no_process_pool():
    # Each module in a fresh interpreter: the pool's home is imported by
    # `embedding`, `protonet` and `evaluation`, and must itself load neither
    # module.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    pools = ("multiprocessing", "concurrent.futures")
    for module in ("protopipe.cli", "protopipe.config", "protopipe.embedding"):
        code = f"import sys, {module}\nprint(sorted(m for m in {pools} if m in sys.modules))"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]", module


@pytest.mark.parametrize("cpu_max, want", [
    ("max 100000\n", 4),
    ("150000 100000\n", 2),
    ("50000 100000\n", 1),
    ("400000 100000\n", 4),
    ("900000 100000\n", 4),
    (None, 4),
    ("", 4),
    ("garbage\n", 4),
])
def test_a_cgroup_cpu_quota_caps_the_usable_cpus(cpu_max, want, tmp_path, monkeypatch):
    use_cpus(monkeypatch, 4)
    path = tmp_path / "cpu.max"
    if cpu_max is not None:
        path.write_text(cpu_max)
    assert workers.usable_cpus(path) == want
    monkeypatch.setattr(workers, "_in_worker", True)
    assert workers.usable_cpus(path) == 1
