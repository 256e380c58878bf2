"""Reference clock: wall time rescaled by a fixed computation.

The 2-vCPU virtual machine this benchmark was built on changes speed by
10-20% for minutes at a time (other tenants share its host), and every
wall-clock figure of a run moves with it: over ten runs per workload, the
wall-clock throughput spread by 10-19% (quartile distance over median). A
fixed reference computation timed in the same process moves the same way,
so latencies are reported in reference milliseconds: each operation's wall
time scaled by ``REF_SAMPLE_MS`` over the mean time of the reference
samples taken just before and just after it. That brought the spread of
throughput to 3-6%.

A sample lasts about 20 ms and is taken between operations once half a
second has passed since the last one. Set-up times are rescaled by samples
taken right after the set-up, with SETUP_EXPONENT. The wall-clock figures
are kept too, in the details line.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Nominal duration of one reference sample; it defines the reference
# millisecond. A round figure near the sample's wall time on the build
# machine, 19-24 ms.
REF_SAMPLE_MS = 20.0
SAMPLE_EVERY_S = 0.5
_REPEATS = 64
# Reference samples taken after a set-up; their median scales it.
SETUP_REF_SAMPLES = 3
# A set-up (imports, file reads, first calls) moves with about the square
# root of the reference sample's time on the build machine: over 180 fresh
# processes the fitted exponent was 0.39-0.56 per workload. Over ten runs of
# five set-ups each, the spread of their median was 0.14-0.22 in wall time,
# 0.06-0.16 scaled by the full ratio and 0.04-0.08 by its square root.
SETUP_EXPONENT = 0.5

_rng = np.random.default_rng(20241017)
_g = _rng.standard_normal((16, 12, 12)) + 1j * _rng.standard_normal((16, 12, 12))
_HERMITIAN = _g + np.conj(np.swapaxes(_g, -1, -2))


def reference_sample() -> float:
    """Seconds taken by the fixed reference computation: a mix of
    interpreter work and small Hermitian eigensolves, like numrad's own."""
    start = time.perf_counter()
    for _ in range(_REPEATS):
        acc = 0
        for i in range(1000):
            acc += i % 7
        np.linalg.eigvalsh(_HERMITIAN)
    return time.perf_counter() - start


def setup_reference_seconds(wall_s: float) -> float:
    """A set-up of ``wall_s``, just measured, in reference seconds."""
    t = statistics.median(reference_sample() for _ in range(SETUP_REF_SAMPLES))
    return wall_s * (REF_SAMPLE_MS / 1e3 / t) ** SETUP_EXPONENT


class ReferenceClock:
    """Converts operation latencies to reference seconds as they arrive."""

    def __init__(self):
        self.samples = [reference_sample()]
        self._sampled_at = time.perf_counter()
        self._pending: list[float] = []
        self.scaled: list[float] = []

    def record(self, latencies: list[float]) -> None:
        """Take the wall latencies of the operation that just finished."""
        self._pending += latencies
        if time.perf_counter() - self._sampled_at >= SAMPLE_EVERY_S:
            self.sample()

    def sample(self) -> None:
        """Take a reference sample and scale every latency since the last."""
        t = reference_sample()
        factor = REF_SAMPLE_MS / 1e3 / ((self.samples[-1] + t) / 2.0)
        self.scaled += [x * factor for x in self._pending]
        self._pending = []
        self.samples.append(t)
        self._sampled_at = time.perf_counter()
