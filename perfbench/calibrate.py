"""Calibration samples that measure how fast the host runs right now.

The hosts this benchmark runs on are shared. On a 2-vCPU VM the same
operation took 5.5 s in one minute and 9 s a few minutes later, and the
median of a 36-second run moved by up to 30 % between runs. So while an
operation runs, a timer interrupts it every ``INTERVAL_S`` seconds and
times one short calibration sample in the signal handler. The operation's
time net of the samples, divided by the mean sample time and multiplied by
``NOMINAL_S``, is its time on a host where a sample takes ``NOMINAL_S``.
The samples are spread over the operation itself, so both the minutes-long
drift and the seconds-long bursts of other tenants cancel in that ratio.
Set-up runs in a child interpreter, so it is scaled instead by blocks of
samples taken just before and just after it.

A sample never touches chaoscast, so no change to the package can move
it. It mixes the kinds of work the pipeline does: Lorenz-96 RK4 steps on
36-site numpy vectors, small least-squares solves, and plain Python
integer arithmetic. Samples take about 3 % of an operation's wall time.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

# The reference speed. On a shared 2-vCPU VM with Python 3.11 and numpy 2.4
# the mean sample of a run lies between 5.4 and 7.4 ms.
NOMINAL_S = 0.0065
INTERVAL_S = 0.2
RK4_STEPS = 30
SOLVES = 20
PY_ITERS = 6_000

_X0 = np.sin(np.arange(36.0))
_A = np.cos(np.outer(np.arange(40.0), np.arange(1.0, 9.0)))
_B = np.sin(np.arange(40.0))


def _l96(x: np.ndarray, forcing: float = 8.0) -> np.ndarray:
    return (np.roll(x, -1) - np.roll(x, 2)) * np.roll(x, 1) - x + forcing


def calibration_sample() -> float:
    """Wall seconds of one fixed piece of work."""
    start = time.perf_counter()
    x, h = _X0.copy(), 0.05
    for _ in range(RK4_STEPS):
        k1 = _l96(x)
        k2 = _l96(x + h / 2 * k1)
        k3 = _l96(x + h / 2 * k2)
        k4 = _l96(x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    for _ in range(SOLVES):
        np.linalg.lstsq(_A, _B, rcond=None)
    acc = 0
    for i in range(PY_ITERS):
        acc += (i * i) % 7
    return time.perf_counter() - start


def calibration_mean(n: int) -> float:
    """Mean wall seconds of ``n`` samples taken back to back."""
    return sum(calibration_sample() for _ in range(n)) / n


def scaled(work_s: float, sample_s: float) -> float:
    """``work_s`` as it would read on a host where a sample takes NOMINAL_S."""
    return work_s / sample_s * NOMINAL_S


class Sampler:
    """Collects calibration samples while ``sampling()`` is active."""

    def __init__(self):
        self.samples: list[float] = []
        self._busy = False

    def _on_timer(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside a sample is dropped
            return
        self._busy = True
        try:
            self.samples.append(calibration_sample())
        finally:
            self._busy = False

    @property
    def spent(self) -> float:
        """Seconds spent in samples so far."""
        return sum(self.samples)

    @contextmanager
    def sampling(self):
        """Take a sample every INTERVAL_S seconds until the block exits."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, work_s: float) -> float:
        """``work_s`` scaled by the mean of the samples taken so far."""
        return scaled(work_s, self.spent / len(self.samples))
