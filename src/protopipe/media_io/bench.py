"""Data-loading benchmark: median wall time per loader config, plus speedup
relative to the first (baseline) config, presented the same way speed tables
usually are: "86.0 (2.7x)".
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from statistics import median

from ..errors import ConfigError
from .loader import LoaderConfig, load_frames_parallel
from .manifest import DatasetManifest


@dataclass(frozen=True)
class BenchRow:
    threads: int
    latency_ms: float
    median_ms: float
    speedup: float

    def format_cell(self) -> str:
        return f"{self.median_ms:.1f} ({self.speedup:.2f}x)"


@dataclass(frozen=True)
class BenchReport:
    rows: list[BenchRow]

    def to_json_obj(self) -> dict:
        """The report file's document: one entry per loader config."""
        return {"configs": [asdict(r) for r in self.rows]}


def bench_loader(
    manifest: DatasetManifest,
    cfg_list: list[LoaderConfig],
    repetitions: int = 3,
) -> BenchReport:
    """Time loading every frame of every video once, per config."""
    if repetitions < 1:
        raise ConfigError("repetitions must be >= 1")
    if not cfg_list:
        raise ConfigError("need at least one loader config")
    paths = [p for video in manifest.all_videos() for p in video.frame_paths]
    rows: list[BenchRow] = []
    baseline_ms: float | None = None
    for cfg in cfg_list:
        times = []
        for _ in range(repetitions):
            start = time.perf_counter()
            load_frames_parallel(paths, cfg)
            times.append((time.perf_counter() - start) * 1000.0)
        med = max(median(times), 1e-6)  # keep ratios finite on instant runs
        if baseline_ms is None:
            baseline_ms = med
        rows.append(
            BenchRow(
                threads=cfg.num_threads,
                latency_ms=cfg.injected_latency_ms,
                median_ms=med,
                speedup=baseline_ms / med,
            )
        )
    return BenchReport(rows)
