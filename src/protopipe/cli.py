"""Command-line entry point.

Subcommands cover the whole pipeline: generate a synthetic dataset,
personalize (build prototypes for one user), recognize (classify one clutter
video frame by frame), evaluate (ablation report over all users), and
bench-loader (threaded-loader timing table).

Exit codes: 0 success, 2 for a ConfigError (bad config, flags, weights or
embedding-table layout), 3 for a DataError or OSError (bad dataset, frames
or prototypes, missing files, unknown ids, a non-finite embedding). Any
other exception is a bug and surfaces as a traceback. The seed is the
--seed flag, else the config file's seed.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .config import build_runtime, load_config
from .errors import ConfigError, DataError, write_json, write_text
from .evaluation import ARM_ORDER, evaluate_users
from .media_io.loader import LoaderConfig, bench_loader
from .media_io.manifest import DatasetManifest, load_manifest
from .media_io.synthetic import GeneratorSpec, generate_synthetic_dataset
from .protonet import (
    PipelineRuntime,
    build_episode,
    load_prototypes,
    personalize,
    recognize_video,
    save_predictions,
    save_prototypes,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_dataset(path_arg: str) -> DatasetManifest:
    path = Path(path_arg)
    if path.is_dir():
        path = path / "manifest.json"
    return load_manifest(path)


def cmd_gen_synthetic(args) -> int:
    spec = GeneratorSpec(
        num_users=args.users,
        objects_per_user=args.objects,
        videos_per_object=args.videos,
        frames_per_video=args.frames,
        frame_size=args.size,
        blank_fraction=args.blank_fraction,
        seed=args.seed,
    )
    manifest = generate_synthetic_dataset(spec, args.out)
    total = len(manifest.all_videos())
    print(f"wrote {len(manifest.users)} users, {total} videos to {args.out}")
    return EXIT_OK


def _runtime(args) -> PipelineRuntime:
    """The runtime `--config` describes, at `--seed` if given, else the config's seed."""
    return build_runtime(load_config(args.config), seed=args.seed)


def cmd_personalize(args) -> int:
    runtime = _runtime(args)
    episode = build_episode(_load_dataset(args.dataset), args.user)
    protos, audits = personalize(episode, runtime)
    save_prototypes(protos, args.out)
    if args.audit:
        write_text(
            args.audit,
            "".join(json.dumps(a.to_json_obj(), sort_keys=True) + "\n" for a in audits),
        )
    removed = sum(1 for a in audits if a.removed)
    print(
        f"user {args.user}: {len(protos.labels)} prototypes "
        f"({removed} clips removed) -> {args.out}"
    )
    return EXIT_OK


def cmd_recognize(args) -> int:
    runtime = _runtime(args)
    protos = load_prototypes(args.prototypes)
    if protos.dim != runtime.embedder.dim:
        raise ConfigError(f"prototypes dim {protos.dim} != embedder dim {runtime.embedder.dim}")
    video = _load_dataset(args.dataset).video(args.video)
    predictions = recognize_video(video, protos, runtime)
    save_predictions(video.video_id, protos.labels, predictions, args.out)
    print(f"video {args.video}: {len(predictions)} frame predictions -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    runtime = _runtime(args)
    manifest = _load_dataset(args.dataset)
    arms = tuple(a.strip() for a in args.ablation.split(",") if a.strip())
    if not arms:
        raise ConfigError("--ablation named no arms")
    report = evaluate_users(manifest, runtime, arms)
    write_json(args.out, report)
    for row in report["arms"]:
        print(
            f"{row['name']:<8} accuracy {row['aggregate']:.4f} "
            f"(delta {row['delta_vs_previous']:+.4f})"
        )
    print(f"report -> {args.out}")
    return EXIT_OK


def cmd_bench_loader(args) -> int:
    manifest = _load_dataset(args.dataset)
    try:
        threads = [int(t) for t in args.threads.split(",") if t.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --threads list: {args.threads!r}") from exc
    if not threads:
        raise ConfigError("--threads named no thread counts")
    configs = [
        LoaderConfig(num_threads=t, injected_latency_ms=args.latency_ms)
        for t in threads
    ]
    paths = [p for video in manifest.all_videos() for p in video.frame_paths]
    rows = bench_loader(paths, configs, repetitions=args.reps)
    for row in rows:
        print(f"{row['threads']:>3} threads: {row['median_ms']:.1f} ({row['speedup']:.2f}x)")
    if args.out:
        write_json(args.out, {"configs": rows})
        print(f"report -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protopipe",
        description="Few-shot per-frame video object recognition pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--users", type=int, default=2)
    p.add_argument("--objects", type=int, default=3, help="objects per user")
    p.add_argument("--videos", type=int, default=1, help="videos per object and kind")
    p.add_argument("--frames", type=int, default=16, help="frames per video")
    p.add_argument("--size", type=int, default=32, help="square frame edge, pixels")
    p.add_argument("--blank-fraction", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("personalize", help="build one user's prototypes")
    p.add_argument("--dataset", required=True, help="dataset dir or manifest path")
    p.add_argument("--user", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="prototypes JSON path")
    p.add_argument("--audit", help="optional clip-filter audit JSONL path")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_personalize)

    p = sub.add_parser("recognize", help="classify one clutter video per frame")
    p.add_argument("--prototypes", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--video", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="predictions JSON path")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("evaluate", help="ablation report over every user")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--ablation", default=",".join(ARM_ORDER), help="comma list of arms")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench-loader", help="time the frame loader")
    p.add_argument("--dataset", required=True)
    p.add_argument("--threads", default="1,16", help="comma list of thread counts")
    p.add_argument("--latency-ms", type=float, default=0.0)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--out", help="optional report JSON path")
    p.set_defaults(func=cmd_bench_loader)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except (DataError, OSError) as exc:
        return _fail(EXIT_DATA, str(exc))


if __name__ == "__main__":
    sys.exit(main())
