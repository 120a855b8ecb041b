"""One implementation per job: JSON, float sums, pools, means and sampling each have one home.

`errors.write_json` is the package's one writer of indented JSON,
`numerics.dot` is its one float dot product and norm (see the `numerics`
docstring), and `errors.read_object` is the one reader of the numbers in an
input file. This AST scan fails when a second copy grows back:

* a `json.dumps(..., indent=...)` outside `errors.py`;
* a builtin `sum(` outside `numerics.py` that is neither a count,
  `sum(1 for ...)`, nor in ALLOWED_SUMS below;
* an `except` clause naming `OverflowError` outside `errors.py`: an integer
  too large for a float is caught once, where the reader turns numbers into
  floats;
* a reference to `fork` (`os.fork`) outside `workers.map_in_workers`, the
  one pool, which the video split, the user split and the Gram-Schmidt
  ranks all call as `workers.map_in_workers`;
* an import of `map_in_workers` by name outside `workers.py`: the tests'
  pool counters patch the module attribute, so a call through such a name
  would start pools that no "starts no pool" assertion sees;
* a reference to `ProcessPoolExecutor` or `multiprocessing` anywhere, the
  pool's home included: the pool forks its workers itself;
* a call of `mean_vectors` outside `protonet.video_frame_vectors`, which
  averages every clip, and `protonet.compute_prototypes`, which averages
  each class's clip means;
* a call of `sample_clips` outside `protonet.plan_support`, which samples
  each runtime's support clips once and plans them;
* a reference to `is_frame_valid` outside `protonet.video_frame_vectors`,
  the executor, which gates each frame where it is decoded, and a
  comparison against a doubled or halved value, the majority rule's shape,
  outside `frame_validity.majority_invalid`, where that rule is written;
* a `ValueError(...)` call anywhere: every fault is a `ConfigError` or a
  `DataError`, the two families the CLI maps to its exit codes;
* a `math.isfinite(norm(...))` outside `PrecomputedTable.__post_init__`
  and `Prototypes.__post_init__`: each record checks its own rows' norms,
  whether it is read from a file or built in code;
* a reference to a clock (`perf_counter`, `perf_counter_ns`, `monotonic`,
  `monotonic_ns`, `process_time` or `time.time`) outside
  `loader.bench_loader`, the loader's timing table: the package has one
  source of timing truth;
* an `array.frombytes` or `array.fromfile` call outside
  `errors.read_float64`, the one reader of packed float64 input, which
  checks a file's size and every value's finiteness, and the Gram-Schmidt
  rank's pipe read in PACKED_HOMES.
"""
from __future__ import annotations

import ast
from pathlib import Path

import protopipe

PACKAGE_DIR = Path(protopipe.__file__).parent
JSON_HOME = "errors.py"
SUM_HOME = "numerics.py"
OVERFLOW_HOME = "errors.py"
POOL_HOME = ("workers.py", "map_in_workers")
POOL_NAMES = {"fork"}
FOREIGN_POOLS = {"ProcessPoolExecutor", "multiprocessing"}
MEAN_HOMES = {("protonet.py", "video_frame_vectors"), ("protonet.py", "compute_prototypes")}
SAMPLE_HOME = {("protonet.py", "plan_support")}
GATE_HOME = {("protonet.py", "video_frame_vectors")}
RULE_HOME = {("frame_validity.py", "majority_invalid")}
ROW_NORM_HOMES = {
    ("embedding.py", "PrecomputedTable.__post_init__"), ("protonet.py", "Prototypes.__post_init__"),
}
CLOCK_HOME = {("loader.py", "bench_loader")}
CLOCK_NAMES = {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns", "process_time"}
# (module, function) -> what it reads packed; see the module docs.
PACKED_HOMES = {
    ("errors.py", "read_float64"): "every packed float64 input file",
    ("embedding.py", "_gram_schmidt_rank"): "a column from the other rank's pipe, not a file",
}
PACKED_READS = {"frombytes", "fromfile"}

# (module, function) -> why its sums are not a dot product or a norm.
ALLOWED_SUMS = {
    ("embedding.py", "downsample_boxes"): "integer pixel sums, exact in any order",
    ("errors.py", "all_finite"): "a finiteness test whose value never reaches an output",
    ("evaluation.py", "evaluate_users"): "each user's frame count; the mean accuracy over users",
}


def nodes_by_function(tree: ast.AST, owner: str | None = None, cls: str = ""):
    """(innermost enclosing def name, node) for every node below a tree.

    A method's name is `Class.method`.
    """
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from nodes_by_function(node, cls + node.name)
            continue
        yield owner, node
        yield from nodes_by_function(
            node, owner, f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        )


def calls_by_function(tree: ast.AST):
    """(innermost enclosing def name, call) for every call in a tree."""
    return ((owner, node) for owner, node in nodes_by_function(tree) if isinstance(node, ast.Call))


def is_count(call: ast.Call) -> bool:
    arg = call.args[0] if call.args else None
    return (
        isinstance(arg, ast.GeneratorExp)
        and isinstance(arg.elt, ast.Constant)
        and arg.elt.value == 1
    )


def second_copies(package_dir: Path) -> list[str]:
    """Every indented dump or float sum outside its home, as "file:line what"."""
    found = []
    for path in sorted(package_dir.rglob("*.py")):
        module = path.name
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for owner, call in calls_by_function(tree):
            func = call.func
            where = f"{path.relative_to(package_dir).as_posix()}:{call.lineno}"
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "dumps"
                and any(k.arg == "indent" for k in call.keywords)
                and module != JSON_HOME
            ):
                found.append(f"{where} json.dumps(indent=)")
            if (
                isinstance(func, ast.Name)
                and func.id == "sum"
                and module != SUM_HOME
                and not is_count(call)
                and (module, owner) not in ALLOWED_SUMS
            ):
                found.append(f"{where} sum in {owner}")
    return found


def test_no_second_json_writer_or_dot_product():
    assert len(list(PACKAGE_DIR.rglob("*.py"))) > 10
    assert second_copies(PACKAGE_DIR) == []


def test_every_allowed_sum_is_still_there():
    seen = set()
    for path in PACKAGE_DIR.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        seen.update(
            (path.name, owner)
            for owner, call in calls_by_function(tree)
            if isinstance(call.func, ast.Name) and call.func.id == "sum"
        )
    assert set(ALLOWED_SUMS) <= seen


def test_the_guard_sees_planted_copies(tmp_path):
    (tmp_path / "errors.py").write_text("import json\nX = json.dumps({}, indent=2)\n")
    (tmp_path / "numerics.py").write_text("def dot(a, b):\n    return sum(map(mul, a, b))\n")
    (tmp_path / "report.py").write_text(
        "import json\n"
        "def save(doc):\n"
        "    return json.dumps(doc, indent=2, sort_keys=True)\n"
        "def norm(v):\n"
        "    hits = sum(1 for x in v if x)\n"
        "    return sum(x * x for x in v) ** 0.5, hits\n"
        "def evaluate_users(per_user):\n"
        "    return sum(per_user) / len(per_user)\n"
    )
    assert second_copies(tmp_path) == [
        "report.py:3 json.dumps(indent=)",
        "report.py:6 sum in norm",
        "report.py:8 sum in evaluate_users",
    ]


def overflow_catches(package_dir: Path) -> list[str]:
    """Every `except` naming OverflowError outside its home, as "file:line"."""
    found = []
    for path in sorted(package_dir.rglob("*.py")):
        if path.name == OVERFLOW_HOME:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(t, ast.Name) and t.id == "OverflowError" for t in caught):
                found.append(f"{path.relative_to(package_dir).as_posix()}:{node.lineno}")
    return found


def test_no_overflow_catch_outside_the_reader():
    assert overflow_catches(PACKAGE_DIR) == []


def test_the_guard_sees_a_planted_overflow_catch(tmp_path):
    (tmp_path / "errors.py").write_text(
        "def finite(x):\n    try:\n        return float(x)\n    except OverflowError:\n"
        "        raise ValueError(x)\n"
    )
    (tmp_path / "loader.py").write_text(
        "def load(doc):\n"
        "    try:\n"
        "        return float(doc['eps'])\n"
        "    except (KeyError, TypeError, ValueError, OverflowError) as exc:\n"
        "        raise ValueError(exc)\n"
        "def vector(values):\n"
        "    try:\n"
        "        return list(map(float, values))\n"
        "    except OverflowError:\n"
        "        return None\n"
        "    except ValueError:\n"
        "        return []\n"
        "    except:\n"
        "        return ()\n"
    )
    assert overflow_catches(tmp_path) == ["loader.py:4", "loader.py:9"]


def named(node: ast.AST) -> set[str]:
    """The names a node refers to, dotted module names split."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return set(node.name.split("."))
    if isinstance(node, ast.ImportFrom) and node.module:
        return set(node.module.split("."))
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return set(node.value.split("."))  # importlib.import_module("multiprocessing")
    return set()


def pool_references(package_dir: Path) -> list[str]:
    """Every fork outside the one helper, every import of the helper by name
    outside its module and every foreign pool, as "file:line"."""
    found = set()
    for path in package_dir.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for owner, node in nodes_by_function(tree):
            names = named(node)
            by_name = isinstance(node, ast.alias) and node.name == POOL_HOME[1]
            if (
                names & FOREIGN_POOLS
                or (names & POOL_NAMES and (path.name, owner) != POOL_HOME)
                or (by_name and path.name != POOL_HOME[0])
            ):
                found.add((path.relative_to(package_dir).as_posix(), node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_one_process_pool():
    assert pool_references(PACKAGE_DIR) == []
    tree = ast.parse((PACKAGE_DIR / POOL_HOME[0]).read_text(encoding="utf-8"))
    assert any(named(node) & POOL_NAMES for owner, node in nodes_by_function(tree)
               if owner == POOL_HOME[1])


def test_the_guard_sees_a_planted_pool(tmp_path):
    (tmp_path / "workers.py").write_text(
        "import os\n"
        "def map_in_workers(fn, items, workers):\n"
        "    pid = os.fork()\n"
        "    import multiprocessing\n"
        "    from concurrent.futures import ProcessPoolExecutor\n"
        "    return ProcessPoolExecutor(workers, multiprocessing.get_context('fork'))\n"
        "def embed_plan(plan):\n"
        "    return os.fork()\n"
    )
    (tmp_path / "protonet.py").write_text(
        "from . import workers\n"
        "from .workers import map_in_workers\n"
        "def embed_plan(plan, n):\n"
        "    from protopipe.workers import usable_cpus, map_in_workers as pool\n"
        "    return workers.map_in_workers(len, plan, n), pool, usable_cpus\n"
    )
    (tmp_path / "evaluation.py").write_text(
        "import importlib\n"
        "from os import fork\n"
        "from multiprocessing import Pool\n"
        "import multiprocessing.pool as mpp\n"
        "def evaluate_users(users):\n"
        "    ctx = importlib.import_module('multiprocessing')\n"
        "    return Pool, mpp, ctx, fork\n"
    )
    assert pool_references(tmp_path) == [
        "evaluation.py:2", "evaluation.py:3", "evaluation.py:4",
        "evaluation.py:6", "evaluation.py:7",
        "protonet.py:2", "protonet.py:4",
        "workers.py:4", "workers.py:5", "workers.py:6", "workers.py:8",
    ]


def called(call: ast.Call) -> str | None:
    """The name a call calls, for `f(...)` and `module.f(...)`."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def calls_outside(package_dir: Path, name: str, homes=frozenset()) -> list[str]:
    """Every call of `name` outside the (module, function) pairs in `homes`."""
    found = []
    for path in sorted(package_dir.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for owner, call in calls_by_function(tree):
            if called(call) == name and (path.name, owner) not in homes:
                found.append(f"{path.relative_to(package_dir).as_posix()}:{call.lineno}")
    return found


def test_clips_are_averaged_in_one_place():
    assert calls_outside(PACKAGE_DIR, "mean_vectors", MEAN_HOMES) == []
    assert len(calls_outside(PACKAGE_DIR, "mean_vectors")) == len(MEAN_HOMES)


def test_the_guard_sees_a_planted_mean(tmp_path):
    (tmp_path / "protonet.py").write_text(
        "def video_frame_vectors(video, clips):\n"
        "    return [mean_vectors([video[i] for i in clip]) for clip in clips]\n"
        "def compute_prototypes(per_class):\n"
        "    return [mean_vectors(clips) for _, clips in per_class]\n"
        "def personalize(found, retained):\n"
        "    return [mean_vectors([found[i] for i in sc]) for sc in retained]\n"
    )
    (tmp_path / "evaluation.py").write_text(
        "from . import numerics\n"
        "def _user_predictions(frames):\n"
        "    return numerics.mean_vectors(frames)\n"
    )
    assert calls_outside(tmp_path, "mean_vectors", MEAN_HOMES) == [
        "evaluation.py:3", "protonet.py:6",
    ]


def test_clips_are_sampled_in_one_place():
    assert calls_outside(PACKAGE_DIR, "sample_clips", SAMPLE_HOME) == []
    assert len(calls_outside(PACKAGE_DIR, "sample_clips")) == len(SAMPLE_HOME)


def test_the_guard_sees_a_planted_sampling(tmp_path):
    (tmp_path / "protonet.py").write_text(
        "def plan_support(episode, rts):\n"
        "    return [sample_clips(v.num_frames, rt.sampler, 0) for rt in rts for v in episode]\n"
        "def personalize(episode, rt):\n"
        "    return [clip_sampling.sample_clips(v.num_frames, rt.sampler, 0) for v in episode]\n"
    )
    assert calls_outside(tmp_path, "sample_clips", SAMPLE_HOME) == ["protonet.py:4"]


def test_no_plain_value_error():
    assert calls_outside(PACKAGE_DIR, "ValueError") == []


def test_the_guard_sees_a_planted_value_error(tmp_path):
    (tmp_path / "clip_sampling.py").write_text(
        "import builtins\n"
        "class ConfigError(ValueError):\n"
        "    pass\n"
        "def check(n):\n"
        "    try:\n"
        "        int(n)\n"
        "    except ValueError:\n"
        "        raise ConfigError(n)\n"
        "    if n < 1:\n"
        "        raise ValueError('n must be >= 1')\n"
        "    return builtins.ValueError(n)\n"
    )
    assert calls_outside(tmp_path, "ValueError") == ["clip_sampling.py:10", "clip_sampling.py:11"]


def is_halving_rule(node: ast.AST) -> bool:
    """A comparison with a side doubled or halved: `a * 2 > b`, `a > b / 2` and the like."""
    if not isinstance(node, ast.Compare):
        return False
    for side in (node.left, *node.comparators):
        if isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult):
            operands = (side.left, side.right)
        elif isinstance(side, ast.BinOp) and isinstance(side.op, (ast.Div, ast.FloorDiv)):
            operands = (side.right,)
        else:
            continue
        if any(isinstance(x, ast.Constant) and x.value == 2 for x in operands):
            return True
    return False


def gate_copies(package_dir: Path) -> list[str]:
    """Every gate reference outside GATE_HOME and majority rule outside RULE_HOME."""
    found = []
    for path in sorted(package_dir.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for owner, node in nodes_by_function(tree):
            if (
                isinstance(node, (ast.Name, ast.Attribute))
                and named(node) == {"is_frame_valid"}
                and (path.name, owner) not in GATE_HOME
            ):
                what = "gate"
            elif is_halving_rule(node) and (path.name, owner) not in RULE_HOME:
                what = "majority rule"
            else:
                continue
            found.append(f"{path.relative_to(package_dir).as_posix()}:{node.lineno} {what} in {owner}")
    return found


def test_frames_are_gated_and_clips_judged_in_one_place():
    assert gate_copies(PACKAGE_DIR) == []
    homes = set()
    for path in PACKAGE_DIR.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for owner, node in nodes_by_function(tree):
            if isinstance(node, ast.Name) and node.id == "is_frame_valid":
                homes.add(("gate", path.name, owner))
            if is_halving_rule(node):
                homes.add(("rule", path.name, owner))
    assert homes == {("gate", *home) for home in GATE_HOME} | {("rule", *h) for h in RULE_HOME}


def test_the_guard_sees_a_planted_gate_and_rule(tmp_path):
    (tmp_path / "frame_validity.py").write_text(
        "def majority_invalid(invalid, length):\n"
        "    return invalid * 2 > length\n"
        "def filter_clips(clips, counts):\n"
        "    return [c for c, n in zip(clips, counts) if not 2 * n > len(c)]\n"
    )
    (tmp_path / "protonet.py").write_text(
        "from . import frame_validity\n"
        "from .frame_validity import is_frame_valid\n"
        "def video_frame_vectors(frames, cfg):\n"
        "    return [is_frame_valid(f, cfg) for f in frames]\n"
        "def personalize(frames, cfg, clip):\n"
        "    bad = sum(1 for f in frames if not frame_validity.is_frame_valid(f, cfg))\n"
        "    gate = is_frame_valid\n"
        "    return bad > len(clip) / 2 or bad >= len(clip) // 2 + 1, gate\n"
    )
    assert gate_copies(tmp_path) == [
        "frame_validity.py:4 majority rule in filter_clips",
        "protonet.py:6 gate in personalize",
        "protonet.py:7 gate in personalize",
        "protonet.py:8 majority rule in personalize",
    ]


def is_row_norm_check(node: ast.AST) -> bool:
    """`isfinite(norm(...))`, the norm perhaps named on the way: `isfinite(n := norm(row))`."""
    if not (isinstance(node, ast.Call) and called(node) == "isfinite" and node.args):
        return False
    arg = node.args[0]
    arg = arg.value if isinstance(arg, ast.NamedExpr) else arg
    return isinstance(arg, ast.Call) and called(arg) == "norm"


def row_norm_checks(package_dir: Path, homes=frozenset()) -> list[str]:
    """Every row norm check outside the (module, owner) pairs in `homes`, as "file:line owner"."""
    found = []
    for path in sorted(package_dir.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for owner, node in nodes_by_function(tree):
            if is_row_norm_check(node) and (path.name, owner) not in homes:
                found.append(f"{path.relative_to(package_dir).as_posix()}:{node.lineno} {owner}")
    return found


def test_each_record_checks_its_own_row_norms():
    assert row_norm_checks(PACKAGE_DIR, ROW_NORM_HOMES) == []
    assert len(row_norm_checks(PACKAGE_DIR)) == len(ROW_NORM_HOMES)


def test_the_guard_sees_a_planted_row_norm_check(tmp_path):
    (tmp_path / "embedding.py").write_text(
        "import math\n"
        "from math import isfinite\n"
        "class PrecomputedTable:\n"
        "    def __post_init__(self, rows):\n"
        "        return [math.isfinite(norm(row)) for row in rows]\n"
        "def load_precomputed(rows):\n"
        "    return [isfinite(norm(row)) for row in rows]\n"
    )
    (tmp_path / "protonet.py").write_text(
        "class Prototypes:\n"
        "    def __post_init__(self):\n"
        "        return math.isfinite(n := norm(self.raw))\n"
        "class Episode:\n"
        "    def __post_init__(self):\n"
        "        return math.isfinite(norm(self.rows))\n"
        "def load_prototypes(doc):\n"
        "    for row in doc:\n"
        "        if not math.isfinite(numerics.norm(row)):\n"
        "            raise DataError(row)\n"
    )
    assert row_norm_checks(tmp_path, ROW_NORM_HOMES) == [
        "embedding.py:7 load_precomputed",
        "protonet.py:6 Episode.__post_init__",
        "protonet.py:9 load_prototypes",
    ]


def is_clock(node: ast.AST) -> bool:
    """A reference to a clock: `time.perf_counter`, an imported `monotonic`, `time.time`."""
    if isinstance(node, ast.Attribute) and node.attr == "time":
        return isinstance(node.value, ast.Name) and node.value.id == "time"
    if isinstance(node, ast.ImportFrom) and node.module == "time":
        return any(alias.name == "time" for alias in node.names)
    return isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and bool(named(node) & CLOCK_NAMES)


def clock_references(package_dir: Path, homes=frozenset()) -> list[str]:
    """Every clock reference outside the (module, owner) pairs in `homes`, as "file:line"."""
    found = set()
    for path in package_dir.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for owner, node in nodes_by_function(tree):
            if is_clock(node) and (path.name, owner) not in homes:
                found.add((path.relative_to(package_dir).as_posix(), node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_one_clock():
    assert clock_references(PACKAGE_DIR, CLOCK_HOME) == []
    assert clock_references(PACKAGE_DIR) != []  # the home still reads its clock


def test_the_guard_sees_a_planted_clock(tmp_path):
    (tmp_path / "loader.py").write_text(
        "import time\n"
        "from time import perf_counter as clock\n"
        "def bench_loader(paths):\n"
        "    return time.perf_counter(), time.monotonic_ns()\n"
        "def load_frames_parallel(paths):\n"
        "    return time.sleep(0), clock\n"
    )
    (tmp_path / "evaluation.py").write_text(
        "import time\n"
        "from time import time as now, sleep\n"
        "def evaluate_users(users):\n"
        "    start = time.time()\n"
        "    return time.monotonic() - start, perf_counter_ns, now, sleep\n"
        "def arm_runtime(rt):\n"
        "    return time.process_time(), rt.time\n"
    )
    assert clock_references(tmp_path, CLOCK_HOME) == [
        "evaluation.py:2", "evaluation.py:4", "evaluation.py:5", "evaluation.py:7", "loader.py:2",
    ]


def packed_reads(package_dir: Path, homes=frozenset()) -> list[str]:
    """Every `frombytes` or `fromfile` call outside the (module, owner) pairs in `homes`."""
    return sorted(
        found for name in PACKED_READS for found in calls_outside(package_dir, name, homes)
    )


def test_one_reader_of_packed_floats():
    assert packed_reads(PACKAGE_DIR, PACKED_HOMES) == []
    assert len(packed_reads(PACKAGE_DIR)) == len(PACKED_HOMES)


def test_the_guard_sees_a_planted_packed_read(tmp_path):
    (tmp_path / "errors.py").write_text(
        "from array import array\n"
        "def read_float64(path, count):\n"
        "    values = array('d')\n"
        "    with open(path, 'rb') as f:\n"
        "        values.fromfile(f, count)\n"
        "    return values\n"
    )
    (tmp_path / "embedding.py").write_text(
        "import array\n"
        "def load_precomputed(path):\n"
        "    rows = array.array('d')\n"
        "    rows.frombytes(open(path, 'rb').read())\n"
        "    return rows, rows.tobytes()\n"
        "class PrecomputedTable:\n"
        "    def __post_init__(self, f):\n"
        "        self.rows.fromfile(f, 8)\n"
    )
    assert packed_reads(tmp_path, PACKED_HOMES) == ["embedding.py:4", "embedding.py:8"]
