"""Host-speed yardstick: scales measured times to one nominal host speed.

The shared 2-vCPU hosts this benchmark was written on switch between a
fast and a slow state: every kind of code (interpreter loops, small and
large numpy calls, the package's own operations) runs about 1.6x slower in
the slow one, and CPU time slows with wall time.  A state lasts from a few
milliseconds to tens of seconds.  A run that happens to fall in a slow
spell reads up to 50% worse than one that does not, which hides any real
change.

So a fixed reference kernel that never touches ``oam_eraser`` is timed
every ``PERIOD_S`` from a SIGALRM handler, in the process doing the work,
also in the middle of an operation.  The time spent in the kernel is taken
out of the operation's time, and what remains is multiplied by
``NOMINAL_S / r``, where ``r`` is the mean reference time over the
operation and ``WINDOW_S`` on either side.  The scaled time is what the
operation would take on a host whose reference kernel takes
``NOMINAL_S``: about the fast state of a 2-vCPU x86 VM (Xeon, Python 3.11,
numpy 2.4).  A change to the program moves its own time and not the
kernel's, so it shows in the scaled time in full.  Raw times are kept next
to the scaled ones in every result.

A child process (a ``cli`` command, a set-up probe) runs its own timer and
saves its samples; the parent ``absorb``\\ s them, so the samples come from
the process that does the work and not from an idle parent.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import time

import numpy as np

NOMINAL_S = 1.1e-3
PERIOD_S = 0.02
WINDOW_S = 0.02

_MAT = (np.random.default_rng(0).standard_normal((8, 8))
        + 1j * np.random.default_rng(1).standard_normal((8, 8))) / 8.0
_VEC = np.linspace(0.0, 6.0, 8192)


def kernel() -> float:
    """Fixed mix of interpreter work, small numpy calls and one array pass."""
    acc = 0.0
    for i in range(2500):
        acc += (i * 0.5) % 7.0
    m = _MAT
    for _ in range(90):
        m = (m @ _MAT) * 2.0 + _MAT.conj()
        m /= np.abs(m).max()
    acc += float(np.sum(np.cos(_VEC) * np.sin(_VEC)))
    return acc + float(m.real[0, 0])


class Yardstick:
    """Reference-kernel samples as (midpoint, duration), in time order.

    ``paused`` is the total time spent sampling in this process, so an
    interval's own time is its length minus the growth of ``paused``.
    """

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.paused = 0.0
        self._previous = None

    def start(self) -> None:
        """Sample now and then every ``PERIOD_S`` until ``stop``."""
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        self._on_timer(signal.SIGALRM, None)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_timer(self, signum, frame):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.times.append((start + end) / 2.0)
        self.durations.append(end - start)
        self.paused += time.perf_counter() - start
        # one-shot, re-armed here, so a slow sample never nests in another
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"times": self.times, "durations": self.durations,
                       "paused": self.paused}, fh)

    def absorb(self, path: str) -> float:
        """Merge a child's saved samples; return the child's sampling time.

        A child that saved nothing (it failed early) adds nothing.
        """
        try:
            with open(path, encoding="utf-8") as fh:
                child = json.load(fh)
        except (OSError, ValueError):
            return 0.0
        merged = sorted(zip(self.times + child["times"],
                            self.durations + child["durations"]))
        self.times = [t for t, _ in merged]
        self.durations = [d for _, d in merged]
        os.remove(path)
        return child["paused"]

    def factor(self, start: float, end: float) -> float:
        """``NOMINAL_S`` over the mean reference time around [start, end].

        Uses every sample from ``WINDOW_S`` before the start to
        ``WINDOW_S`` after the end, and at least the nearest sample on
        each side.
        """
        times = self.times
        lo = min(bisect.bisect_left(times, start - WINDOW_S),
                 max(bisect.bisect_left(times, start) - 1, 0))
        hi = max(bisect.bisect_right(times, end + WINDOW_S),
                 min(bisect.bisect_right(times, end) + 1, len(times)))
        if lo >= hi:
            raise RuntimeError("no reference samples around a measured interval")
        return NOMINAL_S * (hi - lo) / sum(self.durations[lo:hi])
