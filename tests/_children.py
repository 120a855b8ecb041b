"""This process's child processes, as the OS lists them, and the pools that fork them.

`workers.map_in_workers` forks its workers with `os.fork`, which
`multiprocessing` does not track, so a worker left behind is found by its
parent pid in `/proc` (Linux). A child that has exited but was never reaped
is listed too: it would still hold a process slot.

The pool runs its items here when fewer than two workers are left after its
cap at one per item, so a pool counter notes only the calls that fork.
"""
from __future__ import annotations

import os


def live_children() -> list[int]:
    """The pids of this process's children not yet reaped, in order."""
    me = os.getpid()
    found = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:  # it was reaped since the listing
            continue
        # After the command, which is in parentheses: the state, then the parent pid.
        if int(stat.rsplit(b")", 1)[1].split()[1]) == me:
            found.append(int(entry.name))
    return sorted(found)


def counting_forks(map_in_workers, note):
    """`map_in_workers`, calling `note(n)` first on each call that forks n workers."""

    def counting(fn, items, workers):
        forked = min(workers, len(items))
        if forked > 1:
            note(forked)
        return map_in_workers(fn, items, workers)

    return counting
