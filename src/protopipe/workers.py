"""The package's one process pool.

`map_split` maps a function over items in forked worker processes, one per
CPU this process may use, when its caller says the work pays for them (the
frame plan's `protonet.POOL_MIN_FRAMES`); else the items run here. The
projection's Gram-Schmidt ranks wait on each other, so `embedding` starts
exactly one worker per rank with `map_in_workers`.
A worker starts no pool of its own. `multiprocessing` and
`concurrent.futures` are imported only when a pool starts.
"""
from __future__ import annotations

import os
from collections.abc import Sequence

_worker_fn = None  # the function a worker process maps, set when it starts


def usable_cpus() -> int:
    """CPUs this process may use; one in a worker, which starts no pool."""
    if _worker_fn is not None or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _start_worker(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _call_in_worker(item):
    return _worker_fn(item)


def map_in_workers(fn, items: Sequence, workers: int) -> list:
    """`[fn(item) for item in items]` in exactly `workers` forked workers."""
    # Imported here, so that a run that starts no pool does not load them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, chosen rather than left to the platform default: the workers
    # start in milliseconds with the runtime already in memory, and the
    # initializer's argument, `fn` with all it holds, is not pickled.
    pool = ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"), _start_worker, (fn,)
    )
    try:
        return list(pool.map(_call_in_worker, items))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def map_split(fn, items: Sequence, pays: bool) -> list:
    """`[fn(item) for item in items]`, split over worker processes if it pays.

    When `pays`, the items are split over one forked worker per CPU this
    process may use, at most one per item; else they run here, as they do
    in a worker. With as many CPUs as items, each item has a worker of its
    own. Results come back in item order, and an error is the first in item
    order, either way.
    """
    workers = min(usable_cpus(), len(items)) if pays else 1
    if workers > 1:
        return map_in_workers(fn, items, workers)
    return [fn(item) for item in items]
