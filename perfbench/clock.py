"""Timing calibrated against the host's speed at the moment of the run.

The benchmark runs on a share of a larger machine whose speed drifts: the
same pure-Python loop takes from 1x to 2x as long, in phases of a few
seconds to a minute, with no steal time reported. Wall time then follows
the phase more than the program, and medians cannot average out phases
that outlast a run.

`CalibratedTimer` times one block of code. While it runs, a SIGALRM fires
every `Probe.interval_s` and its handler runs a fixed pure-Python probe,
timed by the thread's own CPU time, so that a wait for the GIL or for a
vCPU does not read as a slow host. The probe also runs just before and
just after the block. The block's speed factor is the mean of
reference_s / probe time over these probes; since the probes are evenly
spaced in wall time, that is the host's mean speed over the block. The
block's calibrated seconds are its wall time, less the probes' own time,
times that factor: the time the block would take on a host that runs the
probe in reference_s. The program's own work is timed as it is; only the
host's speed is divided out.

Code slows by different amounts in the host's slow phases, depending on
how much memory it touches, so there are two probes, each shaped like the
hot loop of the workloads it calibrates:

- "loop": 40 rows of a 192-wide multiply-add on one small list; it stays
  in the first-level cache, like the Sobel gate, the cosines and the table
  look-ups of the `table` workload;
- "matrix": a 160 x 192 vector-matrix product over a list of floats whose
  objects lie in scattered order, about 1 MB, like `embed_frame`'s product
  with the projection. It runs twice and the second, warm run is timed.
"""
from __future__ import annotations

import random
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

_ROW = [0.5 + j * 1e-3 for j in range(192)]
_rng = random.Random(0)
_MATRIX = [_rng.gauss(0.0, 1.0) for _ in range(160 * 192)]
_rng.shuffle(_MATRIX)
_VECTOR = [_rng.random() for _ in range(160)]


def _loop() -> None:
    out = [0.0] * 192
    for r in range(40):
        x = 0.25 + r
        for j in range(192):
            out[j] += x * _ROW[j]


def _product() -> None:
    out = [0.0] * 192
    for p in range(160):
        x, base = _VECTOR[p], p * 192
        for j in range(192):
            out[j] += x * _MATRIX[base + j]


@dataclass(frozen=True)
class Probe:
    kernel: Callable[[], None]
    warm_up: bool
    # The kernel's CPU time in the fast phases of a 2-vCPU Intel Xeon VM
    # (2.0 GHz) with CPython 3.11: calibrated seconds are seconds on that
    # host at that speed.
    reference_s: float
    interval_s: float

    def run(self) -> tuple[float, float]:
        """Run the probe once; returns its (wall, thread CPU) seconds."""
        wall = time.perf_counter()
        if self.warm_up:
            self.kernel()
        cpu = time.thread_time()
        self.kernel()
        return time.perf_counter() - wall, time.thread_time() - cpu


PROBES = {
    "loop": Probe(_loop, warm_up=False, reference_s=0.0004, interval_s=0.025),
    "matrix": Probe(_product, warm_up=True, reference_s=0.0023, interval_s=0.1),
}
_active: "CalibratedTimer | None" = None


def _on_alarm(signum, frame) -> None:
    timer = _active  # an alarm left pending after a block ends finds None
    if timer is not None:
        wall, cpu = timer.probe.run()
        timer.probe_wall_s += wall
        timer.probe_cpu_s.append(cpu)


class CalibratedTimer:
    """Times one block: `wall_s` as measured, `seconds` calibrated.

    With sample=False only the probes before and after the block run, so
    nothing interrupts the block itself (the traced pass uses this).
    Blocks do not nest; the timer must be used from the main thread.
    """

    def __init__(self, probe: str, sample: bool = True):
        self.probe = PROBES[probe]
        self.sample = sample
        self.probe_wall_s = 0.0
        self.probe_cpu_s: list[float] = []

    def __enter__(self) -> "CalibratedTimer":
        global _active
        if _active is not None:
            raise RuntimeError("calibrated timers do not nest")
        self.probe_cpu_s.append(self.probe.run()[1])
        if self.sample:
            signal.signal(signal.SIGALRM, _on_alarm)
            _active = self
            interval = self.probe.interval_s
            signal.setitimer(signal.ITIMER_REAL, interval, interval)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        global _active
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            _active = None
        end = time.perf_counter()
        self.wall_s = end - self._start - self.probe_wall_s
        self.probe_cpu_s.append(self.probe.run()[1])
        reference = self.probe.reference_s
        self.speed = statistics.fmean(reference / c for c in self.probe_cpu_s)
        self.seconds = self.wall_s * self.speed
