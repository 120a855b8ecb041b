"""Compare two source trees with the same benchmark code, in alternating pairs.

    python3 perfbench/compare.py --parent TREE_A --change TREE_B \\
        --workload ablation --pairs 10

Each TREE is a plain copy of a commit (for example made with
``git archive <rev> | tar -x -C TREE``). This script first copies its own
perfbench/ directory into both trees, so that both sides run identical
benchmark code at the run length BENCHMARK.json sets. Then it runs pair i on
seed i for both sides, alternating which side goes first. For every end-to-end metric it prints each side's median and
quartiles and how many pairs the change won. It calls a difference a gain
only when the change wins at least nine tenths of the pairs and the medians
differ by more than the parent's own quartile spread. When the parent's
spread is wider than the metric's bound it calls the metric unresolved,
unless every run of the change beat every run of the parent.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: run failed (exit {proc.returncode})\n{proc.stderr}")
    doc = json.loads(lines[-1])
    if not doc["correct"]:
        raise SystemExit(f"{tree}: output checks failed on seed {seed}")
    return doc["metrics"]


def main() -> None:
    parser = argparse.ArgumentParser(description="parent-against-change comparison")
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for tree in (args.parent, args.change):
        shutil.copytree(HERE, tree / "perfbench", dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(HERE.parent / "BENCHMARK.json", tree / "BENCHMARK.json")
    sides = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            tree = args.parent if side == "parent" else args.change
            sides[side].append(run_once(tree, args.workload, i + 1, spec["run_seconds"]))
        print(f"pair {i + 1}: done ({order[0]} first)", flush=True)
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        a = [m[name]["value"] for m in sides["parent"]]
        b = [m[name]["value"] for m in sides["change"]]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if lower else (ma - mb) / ma
        all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
        if wins >= 0.9 * len(a) and worse < 0 and abs(mb - ma) > qa[2] - qa[0]:
            verdict = "gain"
        elif (qa[2] - qa[0]) / ma > metric["bound"] and not all_better:
            verdict = "unresolved (parent spread wider than the bound)"
        elif worse > metric["bound"]:
            verdict = "regression"
        else:
            verdict = "within bound"
        print(f"{args.workload} {name} [{metric['unit']}]: parent {ma:.6g} "
              f"(q1 {qa[0]:.6g}, q3 {qa[2]:.6g}); change {mb:.6g} "
              f"(q1 {qb[0]:.6g}, q3 {qb[2]:.6g}); change won {wins}/{len(a)}; {verdict}")


if __name__ == "__main__":
    main()
