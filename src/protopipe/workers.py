"""The package's one process pool.

`map_in_workers(fn, items, workers)` maps a function over items in forked
worker processes, at most one per item. Its caller picks `workers`: the
frame plan asks for one per usable CPU when its planned frames pay for them
(`protonet.plan_workers`), and the projection's Gram-Schmidt for one per
rank. With fewer than two workers the items run here, as they do in a
worker, which starts no pool of its own.

Each worker is forked straight from this process with `os.fork`: it
inherits the function and the items, so neither is pickled, and only its
results come back, pickled down a pipe of its own; every pipe is waited on
at once, so a worker's death is seen when it happens. No thread starts, and
neither `multiprocessing` nor `concurrent.futures` is imported.
"""
from __future__ import annotations

import os
import pickle
import selectors
import signal
from collections.abc import Sequence
from contextlib import suppress
from traceback import format_exc
from typing import NoReturn

_in_worker = False  # set in a worker process when it starts


def usable_cpus(cpu_max="/sys/fs/cgroup/cpu.max") -> int:
    """CPUs this process may use; one in a worker, which starts no pool.

    That is the affinity mask's count, capped by a cgroup v2 CPU quota:
    ceil(quota / period) from the `cpu.max` file at `cpu_max`, whose quota
    `max`, like a missing or unreadable file, sets no cap.
    """
    if _in_worker or not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    try:
        with open(cpu_max, encoding="ascii") as f:
            quota, period = f.read().split()
        return max(1, min(cpus, -(-int(quota) // int(period))))
    except (OSError, ValueError, ZeroDivisionError):
        return cpus


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
    """`[fn(item) for item in items]` in `workers` forked workers, at most one per item.

    With fewer than two workers left after that cap, the items run here.
    Else worker w runs items w, w + workers, ... in order and stops at its
    first error. Either way the results come back in item order, and the
    error raised is the first in item order. Every worker's pipe is read
    as its results come, so a worker that exits before it writes them
    (killed, say) ends the map at once: that is an error at its first item,
    raised unless an error at an earlier item is already back, and the
    workers still running are not waited for, as they may wait on it.
    Every worker still running when this returns or raises, on an exception
    here too, is killed, and all are reaped.
    """
    workers = min(workers, len(items))
    if workers < 2:
        return [fn(item) for item in items]
    running = {}  # worker -> (pid, result pipe) of each worker not yet reaped
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
            running[w] = (pid, r)
        results = [None] * len(items)
        error = None  # (index, exception) of the first error in item order
        dead = False  # whether a worker exited without its results
        chunks = {w: [] for w in running}
        with selectors.DefaultSelector() as ready:
            for w, (_, r) in running.items():
                ready.register(r, selectors.EVENT_READ, w)
            # Worker w and later ones run no item before a known error.
            while not dead and any(error is None or w < error[0] for w in running):
                for key, _ in ready.select():
                    w = key.data
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        chunks[w].append(chunk)
                        continue
                    ready.unregister(key.fd)
                    pid, r = running.pop(w)
                    os.close(r)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    data = b"".join(chunks.pop(w))
                    if code == 0 and data:
                        done = pickle.loads(data)
                    else:
                        dead = True
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
        for pid, r in running.values():
            os.close(r)
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
