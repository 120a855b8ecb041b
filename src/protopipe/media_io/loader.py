"""Multi-threaded frame loading, and its timing table.

Episode assembly is dominated by per-file read latency, so reads are fanned
out over up to num_threads plain worker threads. Each worker claims the next
input index from one shared counter and stores its result at that index of a
preallocated list, so results come back in input order without any per-file
task objects. An optional injected per-read latency simulates slow disks,
which keeps the speedups that `bench_loader`, the package's one clock,
measures deterministic across machines.
"""
from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass
from statistics import median

from ..errors import ConfigError, DataError
from .pnm import Frame, decode_pnm


@dataclass(frozen=True)
class LoaderConfig:
    num_threads: int = 1
    injected_latency_ms: float = 0.0

    def __post_init__(self):
        if self.num_threads < 1:
            raise ConfigError("num_threads must be >= 1")
        if not 0 <= self.injected_latency_ms < float("inf"):
            raise ConfigError("injected_latency_ms must be finite and >= 0")


def _read_bytes(path: str) -> bytes:
    # Raw os-level reads: a buffered file object takes about twice as long per
    # small file, mostly while holding the GIL that the loader threads share.
    fd = os.open(path, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        chunks = []
        while chunk := os.read(fd, max(size, 1 << 16)):
            chunks.append(chunk)
        return b"".join(chunks)
    except OSError as exc:
        exc.filename = path  # os.read names no file (a directory, say)
        raise
    finally:
        os.close(fd)


def _read_one(path: str, cfg: LoaderConfig) -> Frame:
    if cfg.injected_latency_ms > 0:
        time.sleep(cfg.injected_latency_ms / 1000.0)
    data = _read_bytes(path)
    try:
        return decode_pnm(data)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_frames_parallel(paths: list[str], cfg: LoaderConfig) -> list[Frame]:
    """Load every path, in input order, using up to cfg.num_threads workers.

    The first failure by input position is the one raised, so the report is
    deterministic regardless of completion order. Once any file has failed,
    workers claim no further files; files already claimed are finished.
    """
    if not paths:
        return []
    if cfg.num_threads == 1:
        return [_read_one(p, cfg) for p in paths]
    results: list = [None] * len(paths)
    errors: dict[int, BaseException] = {}
    claims = itertools.count()  # next() on it is atomic under the GIL

    def work() -> None:
        # Indices are claimed in increasing order and the error check comes
        # before each claim, so every index below a failed one was claimed
        # and is finished by the time all workers are joined.
        while not errors:
            i = next(claims)
            if i >= len(paths):
                return
            try:
                results[i] = _read_one(paths[i], cfg)
            except BaseException as exc:  # re-raised in the calling thread
                errors[i] = exc

    workers = [
        threading.Thread(target=work, name=f"frame-loader-{n}")
        for n in range(min(cfg.num_threads, len(paths)))
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    if errors:
        raise errors[min(errors)]
    return results


def bench_loader(paths: list[str], configs: list[LoaderConfig], repetitions: int = 3) -> list[dict]:
    """Time loading every path once, per config: one row per config.

    A row is {"threads", "latency_ms", "median_ms", "speedup"}: the median
    wall time over the repetitions, and the first config's median over it.
    """
    if repetitions < 1:
        raise ConfigError("repetitions must be >= 1")
    rows = []
    for cfg in configs:
        times = []
        for _ in range(repetitions):
            start = time.perf_counter()
            load_frames_parallel(paths, cfg)
            times.append((time.perf_counter() - start) * 1000.0)
        med = max(median(times), 1e-6)  # keep ratios finite on instant runs
        first = rows[0]["median_ms"] if rows else med
        rows.append(dict(threads=cfg.num_threads, latency_ms=cfg.injected_latency_ms,
                         median_ms=med, speedup=first / med))
    return rows
