"""protopipe benchmark: four closed-loop workloads on the rigged scenario.

    python3 perfbench/run.py --workload ablation --seed 15 --seconds 45 --trace 0

Inputs are generated from --seed by fixtures.py (in a child process, outside
every timed region). One caller thread sets up and then runs the workload's
operation again and again, each call starting when the previous one
returned, until --seconds have passed, and at least twice so that repeated
passes can be compared. Set-up and pass are timed apart, in seconds
calibrated against the host's speed during each of them (clock.py), and
both are reported as medians over the whole run. Outputs are checked and
every failed check counts in `failed`.

With --trace 0 the last line of output is one JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of one
traced set-up and pass (see tracer.py) plus the tracing overhead. See
README.md for the metrics and how to compare two commits.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from clock import CalibratedTimer
from common import DEFAULT_SEED, WORK, MissingSources, import_protopipe
from fixtures import INFO_NAME, PIXEL_CONFIG, TABLE_CONFIG

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
WORKLOADS = ("ablation", "stream", "table", "cold_load")
MIN_PASSES = 2
COLD_LOAD_THREADS = 16
COLD_LOAD_LATENCY_MS = 1.0
# The clock.py probe shaped like the hot loop of each workload's pass: the
# embedding product over the projection, or small in-cache loops. Set-up
# (Gram-Schmidt or table parsing) is calibrated by "loop" everywhere: on
# ablation, "matrix" moved it by a fifth between runs whose pass_s agreed.
PASS_PROBE = {"ablation": "matrix", "stream": "matrix", "table": "loop", "cold_load": "loop"}


def digest(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def accuracies(report: dict) -> list:
    return [(a["name"], a["aggregate"], a["per_user"]) for a in report["arms"]]


def summarize(samples: list[float]) -> dict:
    """Median plus the highest of p50/p90/p99 with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered), "tail": None}
    for pct in (99, 90, 50):
        rank = math.ceil(pct / 100 * n)  # nearest rank, 1-based
        if n - rank >= 10:
            out["tail"] = (pct, ordered[rank - 1])
            break
    return out


@dataclass
class Pass:
    """One pass of a workload: its timed operations and its checked output."""

    ops: dict[str, list[float]]  # wall seconds of each operation
    output: str  # sha256 of the canonical output
    accuracy: float | None = None
    frames: int = 0
    seconds: float = 0.0  # calibrated, set by Bench.timed_pass
    wall_s: float = 0.0
    speed: float = 0.0


@dataclass
class Run:
    workload: str
    seed: int
    work: Path
    setup_s: list[float] = field(default_factory=list)
    passes: list[Pass] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """A check that is not part of any timed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED check: {what}")


class Bench:
    """Set-up and passes of one workload against the protopipe modules."""

    def __init__(self, workload: str, work: Path):
        # Calls go through the module objects, so that the tracer's rebinding
        # of module attributes reaches them.
        from protopipe import config, evaluation, protonet
        from protopipe.media_io import loader, manifest

        self.config, self.evaluation, self.protonet = config, evaluation, protonet
        self.loader, self.manifest_mod = loader, manifest
        self.workload = workload
        self.work = work
        self.config_path = work / (TABLE_CONFIG if workload == "table" else PIXEL_CONFIG)

    def setup(self) -> None:
        """load_config + build_runtime + load_manifest."""
        self.cfg = self.config.load_config(self.config_path)
        self.runtime = self.config.build_runtime(self.cfg)
        self.manifest = self.manifest_mod.load_manifest(self.work / "data" / "manifest.json")

    def timed_setup(self, sample: bool = True) -> CalibratedTimer:
        # Free the previous set-up, cycles too, outside the timed regions, so
        # that no set-up or pass pays for collecting its predecessor.
        self.cfg = self.runtime = self.manifest = None
        gc.collect()
        with CalibratedTimer("loop", sample) as timer:
            self.setup()
        return timer

    def timed_pass(self, sample: bool = True) -> Pass:
        with CalibratedTimer(PASS_PROBE[self.workload], sample) as timer:
            p = self.run_pass()
        p.seconds, p.wall_s, p.speed = timer.seconds, timer.wall_s, timer.speed
        return p

    def run_pass(self) -> Pass:
        return {
            "ablation": self._pass_evaluate,
            "table": self._pass_evaluate,
            "stream": self._pass_stream,
            "cold_load": self._pass_cold_load,
        }[self.workload]()

    def _evaluate(self, manifest, runtime) -> tuple[dict, float]:
        start = time.perf_counter()
        report = self.evaluation.evaluate_users(manifest, runtime)
        return report, time.perf_counter() - start

    def _pass_evaluate(self) -> Pass:
        report, seconds = self._evaluate(self.manifest, self.runtime)
        self.report = report
        return Pass({"evaluate_s": [seconds]}, digest(report), report["arms"][-1]["aggregate"])

    def _pass_stream(self) -> Pass:
        ops: dict[str, list[float]] = {"personalize_s": [], "recognize_video_s": []}
        outputs, hits, frames = [], 0, 0
        for user_id in self.manifest.user_ids():
            runtime = self.config.build_runtime(self.cfg)
            episode = self.protonet.build_episode(self.manifest, user_id)
            t0 = time.perf_counter()
            protos, _ = self.protonet.personalize(episode, runtime)
            ops["personalize_s"].append(time.perf_counter() - t0)
            for video, truth in episode.query:
                t0 = time.perf_counter()
                preds = self.protonet.recognize_video(video, protos, runtime)
                ops["recognize_video_s"].append(time.perf_counter() - t0)
                outputs.append([video.video_id, [[p.pred, list(p.scores)] for p in preds]])
                hits += sum(p.pred == t for p, t in zip(preds, truth))
                frames += len(truth)
        return Pass(ops, digest(outputs), hits / frames, frames)

    def _pass_cold_load(self) -> Pass:
        cfg = self.loader.LoaderConfig(
            num_threads=COLD_LOAD_THREADS, injected_latency_ms=COLD_LOAD_LATENCY_MS
        )
        paths = [p for v in self.manifest.all_videos() for p in v.frame_paths]
        start = time.perf_counter()
        frames = self.loader.load_frames_parallel(paths, cfg)
        seconds = time.perf_counter() - start
        self.frames, self.paths = frames, paths
        h = hashlib.sha256()
        for f in frames:
            h.update(b"%d %d %d\n" % (f.width, f.height, f.channels))
            h.update(f.pixels)
        return Pass({"load_s": [seconds]}, h.hexdigest(), None, len(frames))

    def standalone_checks(self, run: Run) -> None:
        """Checks of the last pass against an independent computation."""
        if self.workload == "ablation":
            # The table rows were computed without embed_frame, bit for bit
            # as the pixel path computes them, so every accuracy must agree.
            table_rt = self.config.build_runtime(
                self.config.load_config(self.work / TABLE_CONFIG)
            )
            oracle, _ = self._evaluate(self.manifest, table_rt)
            run.check(accuracies(oracle) == accuracies(self.report),
                      "ablation accuracies equal the precomputed-table oracle")
        elif self.workload == "cold_load":
            # Payloads cut straight from the file bytes, without decode_pnm.
            ok = len(self.frames) == len(self.paths)
            for path, frame in zip(self.paths, self.frames):
                raw = Path(path).read_bytes()
                ok &= frame.pixels == raw[len(raw) - len(frame.pixels):]
                ok &= raw.startswith(b"P6\n%d %d\n255\n" % (frame.width, frame.height))
            run.check(ok, "loaded frames equal the raw PNM payloads, in input order")


def make_fixtures(run: Run) -> dict:
    """Generate the seeded inputs in a child process and wait for it."""
    cmd = [sys.executable, str(HERE / "fixtures.py"), "--out", str(run.work),
           "--seed", str(run.seed)]
    if run.workload in ("ablation", "table"):
        cmd.append("--table")
    subprocess.run(cmd, check=True, timeout=170)
    return json.loads((run.work / INFO_NAME).read_text(encoding="utf-8"))


def closed_loop(bench: Bench, run: Run, seconds: float, reference: str | None,
                min_passes: int = MIN_PASSES) -> list[Pass]:
    """Set up and run a pass, back to back, until `seconds` have passed (and min_passes)."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        try:
            run.setup_s.append(bench.timed_setup().seconds)
            p = bench.timed_pass()
        except Exception:
            traceback.print_exc()
            run.attempted += 1
            run.failed += 1
            run.notes.append("FAILED: a pass raised")
            break
        n_ops = sum(len(v) for v in p.ops.values())
        run.attempted += n_ops
        expected = reference or (passes[0].output if passes else p.output)
        if p.output != expected:
            run.failed += n_ops
            run.notes.append(
                f"FAILED: pass {len(passes) + 1} output {p.output[:12]} != {expected[:12]}"
            )
        passes.append(p)
    return passes


def load_reference(workload: str, seed: int) -> str | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(BASELINE.read_text(encoding="utf-8"))["reference"][workload]["output_sha256"]


def execute(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    """Run one workload; returns the run record and its metrics (value, unit)."""
    work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run(workload, seed, work)
    try:
        info = make_fixtures(run)
        bench = Bench(workload, work)
        reference = load_reference(workload, seed)
        passes = closed_loop(bench, run, seconds / 2 if trace else seconds, reference,
                             min_passes=1 if trace else MIN_PASSES)
        if not passes:
            raise RuntimeError(f"{workload}: no pass completed")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.passes = passes
        if trace:
            metrics = traced_pass(bench, run, info, passes)
        else:
            metrics = {
                "setup_s": (statistics.median(run.setup_s), "s"),
                "pass_s": (statistics.median(p.seconds for p in passes), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        bench.standalone_checks(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run, metrics


def traced_pass(bench: Bench, run: Run, info: dict, untraced: list[Pass]) -> dict:
    """One traced set-up and pass; per-layer metrics and tracing overhead.

    No probe interrupts the traced pass (its speed comes from the probes
    just before and after it), so the probe's time is in no span.
    """
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        bench.timed_setup(sample=False)
        traced = bench.timed_pass(sample=False)
    finally:
        tracer.uninstall()
    run.check(traced.output == untraced[0].output, "traced pass output equals untraced")
    metrics = layer_metrics(tracer)
    base = statistics.median(p.seconds for p in untraced)
    metrics["synthetic.generate_s"] = (info["generate_s"], "s")
    metrics["synthetic.frames_written"] = (info["frames_written"], "count")
    metrics["trace.overhead_frac"] = (traced.seconds / base - 1.0, "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    path = WORK / "traces" / f"{run.workload}-seed{run.seed}.jsonl"
    tracer.write_spans(path)
    print(f"# {len(tracer.spans)} spans written to {path.relative_to(WORK.parent)}")
    print(f"# {'span':40s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s}")
    for name, row in sorted(tracer.per_name().items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"# {name:40s} {row['calls']:7d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    return metrics


def report(run: Run, metrics: dict) -> None:
    """Human-readable block: every metric of this workload with its unit."""
    print(f"== {run.workload} (seed {run.seed}, {len(run.passes)} passes)")

    def timing(name, samples, unit="s"):
        s = summarize(samples)
        tail = f"p{s['tail'][0]} {s['tail'][1]:.6g}" if s["tail"] else "tail n/a"
        print(f"  {name:22s} median {s['median']:.6g} {unit}  {tail}  (n={s['n']})")

    timing("setup_s", run.setup_s)
    timing("pass_s", [p.seconds for p in run.passes])
    timing("pass_wall_s", [p.wall_s for p in run.passes])
    timing("host_speed", [p.speed for p in run.passes], "x")
    ops: dict[str, list[float]] = {}
    for p in run.passes:
        for k, v in p.ops.items():
            ops.setdefault(k, []).extend(v)
    for name, samples in ops.items():
        timing(name, samples)
    rate = {"stream": "stream_fps", "cold_load": "load_files_per_s"}.get(run.workload)
    if rate:
        timing(rate, [p.frames / p.seconds for p in run.passes], "1/s")
    accuracy = run.passes[-1].accuracy
    if accuracy is not None:
        print(f"  {'accuracy':22s} {accuracy:.4f}")
    print(f"  {'output_sha256':22s} {run.passes[0].output}")
    print(f"  {'ops_failed':22s} {run.failed} / {run.attempted} attempted")
    for note in run.notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value!r} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="protopipe benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_protopipe()
    except MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    out: dict[str, dict] = {}
    for name in names:
        run, metrics = execute(name, args.seed, args.seconds, bool(args.trace))
        report(run, metrics)
        attempted += run.attempted
        failed += run.failed
        prefix = f"{name}." if args.workload == "all" else ""
        out.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
