"""Smoke test of the benchmark itself; exits non-zero on the first failure.

    python3 perfbench/smoke.py          # about half a minute
    python3 perfbench/smoke.py --full   # adds traced ablation and stream (~1.5 min)

It checks that the default-seed fixtures are byte-identical to
`evaluation.make_rigged_scenario`, that short runs print the metrics named
in BENCHMARK.json and pass their output checks, and that the benchmark
refuses to run without the protopipe sources. It also reports any count of
a traced default-seed run that differs from baseline.json.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

from common import DEFAULT_SEED, ROOT, WORK, import_protopipe

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BASELINE = json.loads((ROOT / "perfbench" / "baseline.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def result(args: list[str]) -> dict:
    code, out = bench(*args)
    doc = json.loads(out.strip().splitlines()[-1])
    assert code == 0 and doc["correct"] and doc["failed"] == 0, (args, out[-2000:])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc.keys()
    return doc["metrics"]


def tree_digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def check_fixtures(scratch: Path) -> None:
    import_protopipe()
    from fixtures import write_fixtures
    from protopipe.evaluation import make_rigged_scenario

    make_rigged_scenario(scratch / "rigged")
    write_fixtures(scratch / "bench", DEFAULT_SEED, with_table=False)
    rigged, ours = tree_digests(scratch / "rigged"), tree_digests(scratch / "bench")
    assert all(ours.get(k) == v for k, v in rigged.items()), "fixtures differ from rigged"
    print("ok: default-seed fixtures equal make_rigged_scenario")


def check_metrics(metrics: dict, section: str, what: str) -> None:
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in metrics.items()}
    assert got == expected, (what, sorted(set(got) ^ set(expected)))
    print(f"ok: {what} reports every {section} metric")


def check_counts(workload: str) -> None:
    metrics = result(["--workload", workload, "--seed", str(DEFAULT_SEED),
                      "--seconds", "1", "--trace", "1"])
    check_metrics(metrics, "per_layer", f"traced {workload}")
    # A commit that changes the work done changes these counts on purpose,
    # so a difference is reported, not failed.
    differ = {name: (metrics[name]["value"], value)
              for name, value in BASELINE["default_seed_counts"][workload].items()
              if metrics[name]["value"] != value}
    if differ:
        print(f"note: traced {workload} counts differ from baseline.json (now, then): {differ}")
    else:
        print(f"ok: traced {workload} reproduces the baseline default-seed counts")


def check_refuses_without_sources(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, out = bench("--workload", "table", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
    assert code != 0 and '"metrics"' not in out, (code, out)
    print("ok: refuses to run without src/")


def main() -> None:
    scratch = WORK / "smoke"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        check_fixtures(scratch)
        check_refuses_without_sources(scratch)
        check_metrics(result(["--workload", "table", "--seed", "3", "--seconds", "1",
                              "--trace", "0"]), "end_to_end", "table")
        check_counts("table")
        check_counts("cold_load")
        if "--full" in sys.argv:
            check_counts("ablation")
            check_counts("stream")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
