"""Machine-speed sampling, so that times taken on a host whose speed drifts
stay comparable from run to run.

On a shared host the same Python code can run twice as slowly for stretches
of seconds to minutes: a fixed 3-million-step loop took from 0.23 s to
0.71 s within one hour on the 2-core box this benchmark was written on, with
no steal time reported.  So while a pass runs, every process of it (this
one and any worker forked from it) runs a short fixed kernel on SIGALRM
every INTERVAL_S seconds and reports how long the kernel took.  A pass's
times are then rescaled by the mean of REFERENCE_S / kernel time over its
samples: the result is the time the pass would have taken at the speed at
which the kernel takes REFERENCE_S.  The kernel mixes small-integer and
Fraction arithmetic, the two kinds of work torusapprox does.
"""

from __future__ import annotations

import os
import signal
import statistics
import struct
import time
from fractions import Fraction

INTERVAL_S = 0.025
REFERENCE_S = 0.0006
_SAMPLE = struct.Struct("d")


def kernel() -> Fraction:
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    total = Fraction(acc)
    for i in range(1, 100):
        total += Fraction(i % 5 + 1, i)
    return total


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def factor_from(samples) -> float:
    """Rescaling factor for times measured while `samples` were taken."""
    return statistics.fmean(REFERENCE_S / k for k in samples)


class SpeedSampler:
    """Samples the kernel in this process and in every process forked from
    it while a pass is running.  Create one per process, before any fork."""

    def __init__(self):
        self._read, self._write = os.pipe()
        os.set_blocking(self._read, False)
        os.set_blocking(self._write, False)
        self._active = False
        self.own_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        os.register_at_fork(after_in_child=self._start_in_child)

    def _sample(self, signum, frame) -> None:
        took = kernel_seconds()
        self.own_s += took
        try:
            os.write(self._write, _SAMPLE.pack(took))
        except BlockingIOError:
            pass  # a full pipe drops samples rather than blocking the pass

    def _start_in_child(self) -> None:
        # Interval timers are not inherited across fork; restart ours so
        # pool workers of a sampled pass are sampled too.
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _drain(self) -> bytes:
        chunks = []
        while True:
            try:
                chunk = os.read(self._read, 1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)

    def start(self) -> None:
        self._drain()
        self.own_s = 0.0
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> list[float]:
        """Stop sampling; return the kernel times taken since `start`."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._active = False
        return [k for (k,) in _SAMPLE.iter_unpack(self._drain())]
