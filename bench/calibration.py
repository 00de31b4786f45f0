"""Machine speed from a fixed calibration task, sampled while drops run.

On a shared machine the same drop can take 30% longer from one minute to the
next, CPU time included, because neighbours contend for the core and its
caches; the speed also changes within a drop of a few seconds. A fixed task
that no library change touches (small complex solves, inner products and
dict updates, like the dual solver's inner loop) slows down with the drops.
It runs in short slices right before and after each drop and, from a timer
signal, every PERIOD_S seconds during it; the slices' time is taken out of
the drop's time. A drop's time divided by the task's mean time per rep over
the slices within WINDOW_S of the drop cancels most of the drift: on a
2-core shared Xeon the coefficient of variation of 2.5 s of drop_small work
fell from 15% raw to 3.6% normalised.

Normalised times are in reference seconds: the drop's seconds scaled to a
machine on which one rep takes REF_REP_S.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

REF_REP_S = 1e-3
PERIOD_S = 0.1
WINDOW_S = 1.0
SLICE_REPS = 4


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._systems = [
            (
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 8 * n * np.eye(n),
                rng.standard_normal(n) + 0j,
            )
            for n in (4, 8, 16, 40)
        ]
        self.sink = 0.0
        self.slices: list[tuple[float, float, float]] = []  # (start, end, CPU seconds)
        self._slice()

    def _slice(self) -> None:
        table = {}
        t0, c0 = time.perf_counter(), time.process_time()
        for rep in range(SLICE_REPS):
            for k, (mat, rhs) in enumerate(self._systems):
                for j in range(12):
                    x = np.linalg.solve(mat, rhs)
                    self.sink += float(np.real(np.vdot(x, rhs)))
                    table[(rep, k, j)] = abs(complex(x[0])) ** 2
            self.sink += sum(v for v in table.values() if v > 0.0) * 1e-9
            table.clear()
        self.slices.append((t0, time.perf_counter(), time.process_time() - c0))

    @contextlib.contextmanager
    def around(self):
        """Sample the machine's speed before, during and after the block."""
        self._slice()
        previous = signal.signal(signal.SIGALRM, lambda *_: self._slice())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self._slice()

    def busy(self, start: float, end: float) -> tuple[float, float]:
        """(wall, CPU) seconds of the slices that ran within [start, end]."""
        within = [(e - s, c) for s, e, c in self.slices if start <= s and e <= end]
        return sum(w for w, _ in within), sum(c for _, c in within)

    def rep_time(self, start: float, end: float) -> tuple[float, float]:
        """Mean (wall, CPU) seconds per rep of the slices within WINDOW_S of
        [start, end]."""
        near = [
            (e - s, c) for s, e, c in self.slices if start - WINDOW_S <= s and e <= end + WINDOW_S
        ]
        reps = SLICE_REPS * len(near)
        return sum(w for w, _ in near) / reps, sum(c for _, c in near) / reps
