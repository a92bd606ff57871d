"""Core speed sampled during a timed execution, to take machine drift out of wall time.

On a shared machine the speed of a core drifts by a factor of up to two
within minutes (NOTES.md, "Noise").  ``SpeedProbe`` pins the process to one
CPU and, from a second thread, times a fixed piece of small-array numpy work
every ``INTERVAL_S`` by that thread's CPU time.  The main thread's busy time
(wall time minus the probe's own wall time) times the mean sampled speed is
the work done, and ``ref_s`` expresses it in seconds at the reference speed:
the speed at which the probe takes ``REFERENCE_PROBE_S`` of CPU time.

The probe work is small numpy calls driven from Python, the same mix as the
package's replicate loop; a pure-Python loop tracks the drift of these
workloads less well.  The probe uses its own generator and no package code,
so it changes neither the package's outputs nor its speed beyond the
probe's own time.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

INTERVAL_S = 0.05
REFERENCE_PROBE_S = 1e-3


def _probe_work(rng) -> float:
    total = 0.0
    for _ in range(60):
        a = rng.random((8, 2))
        d = a[:, None, :] - a[None, :, :]
        total += float(np.sqrt((d * d).sum(-1)).sum())
    return total


class SpeedProbe:
    """Context manager; after it exits, ``ref_s`` is the busy time at the reference speed."""

    def __init__(self):
        self.cpu_s = []  # probe CPU time per sample
        self.probe_wall_s = 0.0
        self.ref_s = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        rng = np.random.default_rng(0)
        while not self._stop.wait(INTERVAL_S):
            w0 = time.perf_counter()
            c0 = time.thread_time()
            _probe_work(rng)
            self.cpu_s.append(time.thread_time() - c0)
            self.probe_wall_s += time.perf_counter() - w0

    def __enter__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._t0 = time.perf_counter()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        wall_s = time.perf_counter() - self._t0
        if not self.cpu_s:  # shorter than one interval: take one sample now
            c0 = time.thread_time()
            _probe_work(np.random.default_rng(0))
            self.cpu_s.append(time.thread_time() - c0)
        speed = statistics.fmean(REFERENCE_PROBE_S / c for c in self.cpu_s)
        self.ref_s = (wall_s - self.probe_wall_s) * speed
        return False
