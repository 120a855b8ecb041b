"""Span tracer that wraps protopipe's public functions from the outside.

`Tracer.install` replaces each target function with a timing wrapper in
every protopipe module that binds it, so calls made through a
``from module import name`` binding are traced too; `uninstall` puts the
originals back. Each call becomes a span (id, parent id, name, start and end
in ns, thread) kept in memory; observers add counts at the same boundary.
`layer_metrics` turns the spans and counts into the per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

ARMS = ("baseline", "adapt", "uniform", "filter")


def _observe_frame_vector(tracer, args, kwargs, result, start):
    runtime, video, index = args[0], args[1], args[2]
    if runtime.needs_pixels:
        tracer.keys["embed"].add((video.video_id, index))


def _observe_video_frame_vectors(tracer, args, kwargs, result, start):
    video, runtime = args[0], args[1]
    if runtime.needs_pixels:
        tracer.keys["embed"] |= {(video.video_id, i) for i in range(video.num_frames)}


def _observe_matmul(tracer, args, kwargs, result, start):
    a, b = args[0], args[1]
    tracer.counts["numerics.matmul_flops"] += 2 * a.rows * a.cols * b.cols


def _observe_filter_clips(tracer, args, kwargs, result, start):
    clips, cfg = args[0], args[1]
    _, audits = result
    if cfg.enabled:
        for sc in clips:
            tracer.counts["validity.frames_checked"] += len(sc.frames)
            tracer.keys["validity"] |= {
                (sc.video_id, i) for i in sc.clip.frame_indices()
            }
    tracer.counts["validity.clips_removed"] += sum(a.removed for a in audits)
    tracer.counts["validity.clips_overridden"] += sum(a.override for a in audits)


def _observe_sample_clips(tracer, args, kwargs, result, start):
    tracer.counts["clip_sampling.clips"] += len(result)


def _observe_windows(tracer, args, kwargs, result, start):
    tracer.counts["clip_sampling.windows"] += len(result)


def _observe_load(tracer, args, kwargs, result, start):
    paths, cfg = args[0], args[1]
    tracer.counts["loader.files"] += len(paths)
    # What the call would take with zero per-file overhead: the injected
    # latency spread perfectly over the threads.
    tracer.counts["loader.ideal_s"] += (
        len(paths) * cfg.injected_latency_ms / 1000.0 / cfg.num_threads
    )


def _observe_arm(tracer, args, kwargs, result, start):
    tracer.arm_marks.append((start, args[1]))


# (module, attribute or Class.method, span name, observer)
TARGETS = (
    ("protopipe.config", "load_config", "config.load_config", None),
    ("protopipe.config", "build_runtime", "config.build_runtime", None),
    ("protopipe.media_io.manifest", "load_manifest", "manifest.load_manifest", None),
    ("protopipe.evaluation", "evaluate_users", "evaluation.evaluate_users", None),
    ("protopipe.evaluation", "arm_runtime", "evaluation.arm_runtime", _observe_arm),
    ("protopipe.protonet", "personalize", "protonet.personalize", None),
    ("protopipe.protonet", "recognize_video", "protonet.recognize_video", None),
    ("protopipe.protonet", "video_frame_vectors", "protonet.video_frame_vectors",
     _observe_video_frame_vectors),
    ("protopipe.protonet", "classify_clip", "protonet.classify_clip", None),
    ("protopipe.protonet", "PipelineRuntime.frame_vector", "protonet.frame_vector",
     _observe_frame_vector),
    ("protopipe.embedding", "embed_frame", "embedding.embed_frame", None),
    ("protopipe.embedding", "downsample_boxes", "embedding.downsample_boxes", None),
    ("protopipe.embedding", "PrecomputedTable.vector", "embedding.table_vector", None),
    ("protopipe.numerics", "matmul", "numerics.matmul", _observe_matmul),
    ("protopipe.numerics", "cosine_similarity", "numerics.cosine_similarity", None),
    ("protopipe.numerics", "mean_vectors", "numerics.mean_vectors", None),
    ("protopipe.frame_validity", "filter_clips", "validity.filter_clips",
     _observe_filter_clips),
    ("protopipe.adaptation", "adapt_prototypes", "adaptation.adapt_prototypes", None),
    ("protopipe.clip_sampling", "sample_clips", "clip_sampling.sample_clips",
     _observe_sample_clips),
    ("protopipe.clip_sampling", "causal_sliding_window",
     "clip_sampling.causal_sliding_window", _observe_windows),
    ("protopipe.media_io.loader", "load_frames_parallel", "loader.load_frames_parallel",
     _observe_load),
    ("protopipe.media_io.pnm", "decode_pnm", "pnm.decode_pnm", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, str, int, int, int]] = []
        self.counts: Counter = Counter()
        self.keys: defaultdict[str, set] = defaultdict(set)
        self.arm_marks: list[tuple[int, str]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, observe):
        ids, local, spans = self._ids, self._local, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((span_id, parent, name, start, end, threading.get_ident()))
            if observe is not None:
                observe(self, args, kwargs, result, start)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target and rebind it wherever protopipe imported it."""
        for module_name, attr, name, observe in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, method, self._wrap(owner.__dict__[method], name, observe))
                continue
            original = getattr(module, attr)
            traced = self._wrap(original, name, observe)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "protopipe":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def per_name(self) -> dict[str, dict]:
        """calls, total seconds and self seconds for each span name.

        Self time is a span's duration minus that of its direct children in
        the same thread.
        """
        child_ns: Counter = Counter()
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span_id, _, name, start, end, _ in self.spans:
            row = out[name]
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[span_id]) / 1e9
        return out

    def arm_seconds(self) -> dict[str, float]:
        """Each arm runs from its arm_runtime call to the next one, or to the
        end of the evaluate_users call it belongs to."""
        arm_s = dict.fromkeys(ARMS, 0.0)
        for _, _, name, start, end, _ in self.spans:
            if name != "evaluation.evaluate_users":
                continue
            marks = sorted(m for m in self.arm_marks if start <= m[0] <= end)
            bounds = [t for t, _ in marks[1:]] + [end]
            for (t, arm), stop in zip(marks, bounds):
                arm_s[arm] += (stop - t) / 1e9
        return arm_s

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, thread in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "thread": thread}) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit).

    Times are totals over the traced region, except the set-up layers
    (config.*, manifest.*), which are seconds per call.
    """
    rows = tracer.per_name()

    def calls(name):
        return rows[name]["calls"] if name in rows else 0

    def total(name):
        return rows[name]["total_s"] if name in rows else 0.0

    def self_s(name):
        return rows[name]["self_s"] if name in rows else 0.0

    def per_call(name):
        return total(name) / calls(name) if calls(name) else 0.0

    c = tracer.counts
    embedded = calls("embedding.embed_frame")
    distinct = len(tracer.keys["embed"])
    loads, files = calls("loader.load_frames_parallel"), c["loader.files"]
    busy = total("loader.load_frames_parallel")
    m = {
        "embedding.frames_embedded": (embedded, "count"),
        "embedding.distinct_frames": (distinct, "count"),
        "embedding.reuse_ratio": (distinct / embedded if embedded else 1.0, "ratio"),
        "embedding.embed_s": (total("embedding.embed_frame"), "s"),
        "embedding.downsample_s": (total("embedding.downsample_boxes"), "s"),
        "embedding.table_lookups": (calls("embedding.table_vector"), "count"),
        "numerics.matmul_calls": (calls("numerics.matmul"), "count"),
        "numerics.matmul_s": (total("numerics.matmul"), "s"),
        "numerics.matmul_flops": (c["numerics.matmul_flops"], "flop"),
        "numerics.cosine_calls": (calls("numerics.cosine_similarity"), "count"),
        "numerics.cosine_s": (total("numerics.cosine_similarity"), "s"),
        "numerics.mean_vectors_s": (total("numerics.mean_vectors"), "s"),
        "validity.frames_checked": (c["validity.frames_checked"], "count"),
        "validity.distinct_frames": (len(tracer.keys["validity"]), "count"),
        "validity.clips_removed": (c["validity.clips_removed"], "count"),
        "validity.clips_overridden": (c["validity.clips_overridden"], "count"),
        "validity.s": (total("validity.filter_clips"), "s"),
        "adaptation.calls": (calls("adaptation.adapt_prototypes"), "count"),
        "adaptation.s": (total("adaptation.adapt_prototypes"), "s"),
        "protonet.classify_calls": (calls("protonet.classify_clip"), "count"),
        "protonet.classify_s": (total("protonet.classify_clip"), "s"),
        "protonet.personalize.self_s": (self_s("protonet.personalize"), "s"),
        "protonet.recognize_video.self_s": (self_s("protonet.recognize_video"), "s"),
        "protonet.video_frame_vectors.self_s": (self_s("protonet.video_frame_vectors"), "s"),
        "clip_sampling.clips": (c["clip_sampling.clips"], "count"),
        "clip_sampling.windows": (c["clip_sampling.windows"], "count"),
        "clip_sampling.s": (
            total("clip_sampling.sample_clips")
            + total("clip_sampling.causal_sliding_window"), "s"),
        "loader.calls": (loads, "count"),
        "loader.files": (files, "count"),
        "loader.files_per_call": (files / loads if loads else 0.0, "files/call"),
        "loader.busy_s": (busy, "s"),
        "loader.overhead_s_per_file": (
            (busy - c["loader.ideal_s"]) / files if files else 0.0, "s"),
        "pnm.decode_calls": (calls("pnm.decode_pnm"), "count"),
        "pnm.decode_s": (total("pnm.decode_pnm"), "s"),
        "config.load_s": (per_call("config.load_config"), "s"),
        "config.build_runtime_s": (per_call("config.build_runtime"), "s"),
        "manifest.load_s": (per_call("manifest.load_manifest"), "s"),
    }
    for arm, seconds in tracer.arm_seconds().items():
        m[f"evaluation.arm_s.{arm}"] = (seconds, "s")
    return m
