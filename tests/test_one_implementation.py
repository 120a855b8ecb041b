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
  one pool, which `workers.map_split` drives for the video split and the
  user split, and `embedding` for the Gram-Schmidt ranks;
* a reference to `ProcessPoolExecutor` or `multiprocessing` anywhere, the
  pool's home included: the pool forks its workers itself;
* a call of `mean_vectors` outside `protonet.video_frame_vectors`, which
  averages every clip, and `protonet.compute_prototypes`, which averages
  each class's clip means;
* a call of `sample_clips` outside `protonet.plan_support`, which samples
  each runtime's support clips once and plans them;
* a `ValueError(...)` call anywhere: every fault is a `ConfigError` or a
  `DataError`, the two families the CLI maps to its exit codes.
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

# (module, function) -> why its sums are not a dot product or a norm.
ALLOWED_SUMS = {
    ("embedding.py", "downsample_boxes"): "integer pixel sums, exact in any order",
    ("errors.py", "finite_floats"): "a finiteness test whose value never reaches an output",
    ("evaluation.py", "evaluate_users"): "each user's frame count; the mean accuracy over users",
}


def nodes_by_function(tree: ast.AST, owner: str | None = None):
    """(innermost enclosing def name, node) for every node below a tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from nodes_by_function(node, node.name)
            continue
        yield owner, node
        yield from nodes_by_function(node, owner)


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
    """Every fork outside the one helper and every foreign pool, as "file:line"."""
    found = set()
    for path in package_dir.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for owner, node in nodes_by_function(tree):
            names = named(node)
            if names & FOREIGN_POOLS or (names & POOL_NAMES and (path.name, owner) != POOL_HOME):
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
