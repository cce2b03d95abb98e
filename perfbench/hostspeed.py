"""How fast the host runs while an op runs, sampled from inside the op.

On a shared VM the same deterministic op can take a third longer a minute
later, or half as long again for a few seconds, while CPU time tracks wall
time and the steal share stays near zero: the vCPU itself runs slower (its
hardware is shared with other tenants).  The slowdown is per vCPU, so a probe
in another process does not see it, and it changes within seconds, so a probe
between ops misses it.  :class:`Sampler` therefore runs a fixed reference
kernel every ``INTERVAL_S`` of real time from a ``SIGALRM`` handler, in the
thread doing the op's work.  An op's time divided by the mean kernel time
taken during it, times ``REFERENCE_S``, is the op's time at the reference
host speed.  On the defining VM this cut a repeated op's run-to-run IQR from
18% to 5% of its median.

The kernel does what the measured program spends its time on: exact
``Fraction`` arithmetic (the ``ir`` size algebra) and tuple hashing into a
dict (signatures, caches).  It runs with the collector paused, so the heap the
program has grown does not slow it.  Forked shard workers sample too when
``follow_forks`` is on: each starts its own timer after the fork and writes
its samples to ``probes-<pid>.json`` when it exits.
"""

from __future__ import annotations

import gc
import glob
import json
import multiprocessing.util
import os
import signal
import statistics
import time
from fractions import Fraction

#: real-time interval between kernel samples.
INTERVAL_S = 0.05

#: kernel seconds at the reference host speed: the kernel's fast-state time
#: on the 2-vCPU VM the benchmark was defined on (Python 3.11).  Normalized
#: timings are seconds at this speed.
REFERENCE_S = 0.0015

_SIZES = [Fraction(i % 11 + 1, i % 5 + 1) for i in range(16)]


def kernel() -> int:
    table: dict[tuple, int] = {}
    total = Fraction(0)
    for step in range(1, 300):
        product = _SIZES[step % 16] * _SIZES[(step * 7) % 16]
        total += product
        key = (step % 16, product.denominator % 17)
        table[key] = table.get(key, 0) + step
    return len(table) + total.denominator % 97


class Sampler:
    """Kernel samples ``(start, seconds)`` taken every ``INTERVAL_S``."""

    def __init__(self, spill_dir: str | None = None) -> None:
        #: where forked workers write their samples; ``None``: they do not sample.
        self.spill_dir = spill_dir
        self.samples: list[tuple[float, float]] = []
        self.worker_samples: list[tuple[float, float]] = []
        self.running = False
        self._previous = None
        if spill_dir is not None:
            multiprocessing.util.register_after_fork(self, Sampler._after_fork)

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))
        if collecting:
            gc.enable()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.running = True

    def stop(self) -> None:
        if not self.running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.running = False

    def __enter__(self) -> "Sampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- forked workers -------------------------------------------------------

    def _after_fork(self) -> None:
        """In a forked worker: sample this process, spilled at worker exit."""
        if not self.running:
            return
        self.samples = []
        # Timers are not inherited across fork; the handler is.
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        multiprocessing.util.Finalize(None, self._spill, exitpriority=100)

    def _spill(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        path = os.path.join(self.spill_dir, f"probes-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.samples, handle)

    def absorb_worker_spills(self) -> None:
        for path in sorted(glob.glob(os.path.join(self.spill_dir or "", "probes-*.json"))):
            with open(path, encoding="utf-8") as handle:
                self.worker_samples += [tuple(sample) for sample in json.load(handle)]
            os.remove(path)

    # -- reading --------------------------------------------------------------

    def probe_seconds(self, start: float, end: float) -> float:
        """Time this process spent in the kernel between ``start`` and ``end``."""
        return sum(seconds for at, seconds in self.samples if start <= at < end)

    def scale(self, start: float, end: float) -> float:
        """Factor from this window's host speed to the reference speed.

        Worker samples stand for the window when there are any (the parent
        only waits on them then); a window too short to hold a sample uses
        every sample taken so far.
        """
        window = [seconds for at, seconds in self.worker_samples if start <= at < end]
        window = window or [seconds for at, seconds in self.samples if start <= at < end]
        window = window or [seconds for _, seconds in self.samples] or [REFERENCE_S]
        return REFERENCE_S / statistics.fmean(window)
