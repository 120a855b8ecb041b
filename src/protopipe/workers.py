"""The package's one process pool.

`map_split` maps a function over items in forked worker processes, one per
CPU this process may use, when its caller says the work pays for them (the
frame plan's `protonet.POOL_MIN_FRAMES`); else the items run here. The
projection's Gram-Schmidt ranks wait on each other, so `embedding` starts
exactly one worker per rank with `map_in_workers`.

`map_in_workers` forks each worker straight from this process with
`os.fork`: a worker inherits the function and the items, so neither is
pickled, and only its results come back, pickled down a pipe of its own.
No thread starts, and neither `multiprocessing` nor `concurrent.futures` is
imported. A worker starts no pool of its own.
"""
from __future__ import annotations

import os
import pickle
import signal
from collections.abc import Sequence
from contextlib import suppress
from traceback import format_exc
from typing import NoReturn

_in_worker = False  # set in a worker process when it starts


def usable_cpus() -> int:
    """CPUs this process may use; one in a worker, which starts no pool."""
    if _in_worker or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _work(fn, items: Sequence, first: int, step: int, out: int) -> NoReturn:
    """A worker's life: items first, first + step, ... up to the first error.

    Its `(index, ok, value)` results are pickled down the pipe `out`. It
    never returns: it leaves with `os._exit`, so none of the parent's
    cleanup runs twice, and with status 1 if it could not write them.
    """
    global _in_worker
    _in_worker = True
    status = 1
    try:
        results = []
        for i in range(first, len(items), step):
            try:
                results.append((i, True, fn(items[i])))
            except Exception as exc:
                # A traceback is not pickled; its text goes with the error as a note.
                exc.__notes__ = [*getattr(exc, "__notes__", ()), format_exc()]
                results.append((i, False, exc))
                break
        with open(out, "wb") as pipe:
            pickle.dump(results, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def map_in_workers(fn, items: Sequence, workers: int) -> list:
    """`[fn(item) for item in items]` in exactly `workers` forked workers.

    Worker w runs items w, w + workers, ... in order and stops at its first
    error. The results come back in item order, and the error raised is the
    first in item order; a worker that dies before it writes its results is
    an error at its first item. Every worker still running when this
    returns or raises, on an exception here too, is killed, and all are
    reaped.
    """
    running = []  # (pid, result pipe) of each worker not yet reaped
    try:
        for w in range(workers):
            r, out = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, items, w, workers, out)
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(out)
            running.append((pid, open(r, "rb")))
        results = [None] * len(items)
        error = None  # (index, exception) of the first error in item order
        for w in range(workers):
            if error is not None and error[0] < w:
                break  # worker w and later ones run no earlier item
            pid, pipe = running[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del running[0]
            if code == 0 and data:
                done = pickle.loads(data)
            else:
                done = [(w, False, RuntimeError(
                    f"the worker for item {w} exited with status {code} "
                    "before returning its results"
                ))]
            for i, ok, value in done:
                if ok:
                    results[i] = value
                elif error is None or i < error[0]:
                    error = (i, value)
        if error is not None:
            raise error[1]
        return results
    finally:
        for pid, pipe in running:
            pipe.close()
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)


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
