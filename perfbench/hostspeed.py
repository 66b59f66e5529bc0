"""The host's speed, measured by a fixed reference task between commands.

The benchmark runs on a few cores of a host shared with other tenants.
Their load changes how fast the same code runs, by a quarter and more
over minutes, and for most code alike: a run of the walkthrough that
finds the host slow is slow in every command, and so is this reference
task (perfbench/README.md has where it does not follow).
A run's times are therefore reported at the reference speed: they are
multiplied by REFERENCE_S over the (trimmed) mean time of the reference
tasks run between its commands, and its rates divided by that. The unscaled
figures go to standard error.

The task is the benchmark's own and never changes with the program, so
a faster program still reads faster. It mixes the kinds of work ddsi
does, in about its proportions: small numpy products, softmax and
argmax over a (32, 64) x (64, 1101) batch, a pure-Python integer
generator, and tokenizing and counting words. It allocates no large
arrays, whose first use would time the allocator instead.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the reference speed, in seconds per reference task: about its time on a
# quiet two-vCPU host (Xeon, Python 3.11, numpy 2.4, one BLAS thread); a
# run that finds the host at that speed reports its times unscaled
REFERENCE_S = 0.020
# one reference task per this many seconds of the run, taken between
# commands; after a long command, up to MAX_BATCH at once
EVERY_S = 1.0
MAX_BATCH = 8
# unrecorded tasks before the first: the first calls run slow
WARM_UP = 5
# share of the reference times left out at each end before averaging
TRIM = 0.1


class Gauge:
    """The reference task, its times through a run, and the time they cost."""

    def __init__(self):
        gen = np.random.default_rng(0)
        self._a = gen.standard_normal((32, 64))
        self._b = gen.standard_normal((64, 1101))
        # preallocated: a fresh 280 KB array per call is mapped and unmapped
        # each time, and that would time the allocator
        self._x = np.empty((32, 1101))
        self._row = np.empty((32, 1))
        self._text = " ".join(f"w{(i * 7919) % 613}" for i in range(3000))
        self.times: list[float] = []
        self.spent = 0.0  # seconds spent in reference tasks, to leave out of timings
        self._last = float("-inf")

    def reference_task(self) -> int:
        """A fixed amount of mixed numpy and pure-Python work; returns a checksum."""
        x, row = self._x, self._row
        top = 0
        for _ in range(40):
            np.matmul(self._a, self._b, out=x)
            np.max(x, axis=1, keepdims=True, out=row)
            np.subtract(x, row, out=x)
            np.exp(x, out=x)
            np.sum(x, axis=1, keepdims=True, out=row)
            np.divide(x, row, out=x)
            top += int(x.argmax(axis=1).sum())
        s = 0x9E3779B9
        for _ in range(30000):
            s = (s * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            s ^= s >> 29
        counts: dict[str, int] = {}
        for _ in range(6):
            for w in self._text.split():
                counts[w] = counts.get(w, 0) + 1
        return top + (s & 0xFF) + len(counts)

    def sample(self, force: bool = False) -> None:
        """Run the reference task once per EVERY_S since the last one ran
        (at least once if force)."""
        start = time.perf_counter()
        if not self.times:
            for _ in range(WARM_UP):
                self.reference_task()
        due = int(min(MAX_BATCH, (time.perf_counter() - self._last) / EVERY_S))
        for _ in range(max(due, int(force))):
            t0 = time.perf_counter()
            self.reference_task()
            self.times.append(time.perf_counter() - t0)
        end = time.perf_counter()
        self.spent += end - start
        if due or force:
            self._last = end

    def mean(self) -> float:
        """Mean reference time without the highest and lowest TRIM of them.

        A mean, not a median: the host switches between faster and slower
        spells, and a command's time is the sum over the spells it runs
        in, which a mean follows and a median of two clusters does not.
        """
        times = sorted(self.times)
        cut = int(len(times) * TRIM)
        return statistics.fmean(times[cut:len(times) - cut])

    def scale(self) -> float:
        """Factor that takes this run's times to the reference speed."""
        return REFERENCE_S / self.mean()
