"""Host-speed sampling, for timings that do not move with the host.

The benchmark's host is shared: its speed changes from one second to the
next and drifts over minutes, by up to half, and interpreted Python slows
more than numpy's compiled loops do. While a ``Sampler`` is active, a
SIGALRM handler runs every INTERVAL_S and times two short reference loops
owned by the benchmark (one interpreted, one numpy; neither calls finhyp).
Python runs the handler between bytecodes of the main thread, so it never
interrupts a numpy call and touches none of the program's data.

``Sampler.span`` times a call and returns its raw wall seconds and its
normalised seconds: the wall time minus the handler's own time, divided by
the host factor over the call, the weighted mean slowdown of the reference
loops sampled during it against their nominal times. That is the time the
call would take on the host running at nominal speed.

The nominal times are roughly what each loop takes on a 2-vCPU x86-64 VM at
its fastest (Python 3.11, numpy 2.4, one BLAS thread). They set the scale
of a normalised time, not its steadiness; compare only results recorded
with the same ones.
"""
from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05
# Weight of the interpreted loop in the host factor, the numpy loop taking
# the rest. Every workload mixes interpreted code (edit distances, store
# parsing, the n-gram index) with numpy products (model fits); on a 2-vCPU
# VM, 0.5 kept the normalised times of repeated identical calls within
# 3-6% (interquartile range over median) on all three workloads, where
# their raw times spread by 15-40%.
PY_WEIGHT = 0.5
PY_ITERS = 6_000
NP_ITERS = 25
PY_NOMINAL_S = 0.0008
NP_NOMINAL_S = 0.0011


class Sampler:
    """Host-speed samples (start, python slowdown, numpy slowdown, handler
    seconds) taken every INTERVAL_S between ``start`` and ``stop``."""

    def __init__(self):
        rng = np.random.default_rng(0)
        # About the shape of a desk-cv model fit's products.
        self._a = rng.standard_normal((200, 80))
        self._b = rng.standard_normal((80, 17))
        self.samples: list[tuple[float, float, float, float]] = []
        # per span: (wall s, handler s, mean python and numpy slowdowns)
        self.spans: list[tuple[float, float, float, float]] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        total = 0
        word = "abcdefghijklmnop"
        for i in range(PY_ITERS):
            total += len(word[i % 7 :]) * i
        mid = time.perf_counter()
        for _ in range(NP_ITERS):
            z = self._a @ self._b
            np.exp(z - z.max(axis=1, keepdims=True)).sum(axis=1)
        end = time.perf_counter()
        self.samples.append(
            (start, (mid - start) / PY_NOMINAL_S, (end - mid) / NP_NOMINAL_S, end - start)
        )

    def start(self) -> None:
        self._sample()  # a span shorter than INTERVAL_S uses the latest sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def span(self, fn, *args) -> tuple[float, float]:
        """Run fn(*args); returns (wall seconds, normalised seconds)."""
        first = len(self.samples)
        start = time.perf_counter()
        fn(*args)
        wall = time.perf_counter() - start
        taken = self.samples[first:]
        inside = taken or self.samples[-1:]
        handler_s = sum(s[3] for s in taken)
        py = sum(s[1] for s in inside) / len(inside)
        compiled = sum(s[2] for s in inside) / len(inside)
        host = PY_WEIGHT * py + (1.0 - PY_WEIGHT) * compiled
        self.spans.append((wall, handler_s, py, compiled))
        return wall, (wall - handler_s) / host
