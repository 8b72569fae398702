"""Calibrated time: seconds of a timed region at the host's full speed.

The hosts this benchmark runs on switch between a full-speed and a
throttled state (about 1.6 times slower) every few seconds; raw medians of
two runs of the same code then differ by up to half.  So every timed
region is scaled by ``CALIBRATION_S`` over the mean time of a fixed stdlib
loop of exact rational arithmetic measured just before and just after it.
The loop uses no tricurves code, so a change to tricurves moves calibrated
times as much as raw ones.  ``CALIBRATION_S`` is the loop's time at full
speed on a 2-vCPU x86-64 host with CPython 3.11, so calibrated seconds
read as seconds at full speed there.
"""

from __future__ import annotations

import time
from fractions import Fraction

CALIBRATION_S = 0.0019


def _calibration_loop() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 700):
        acc += Fraction(i * i + 1, 2 * i + 3)
    return acc


def loop_time() -> float:
    """Best of three timings of the calibration loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def timed(fn, *args):
    """(fn(*args), calibrated seconds it took)."""
    rec = Recorder()
    result = fn(*args)
    rec.finish()
    return result, rec.wall


class Recorder:
    """Times one pass and the ops in it, in calibrated seconds.

    The pass is cut into segments at calibration points: its start and
    end, and with ``per_op`` also the end of every op, which suits ops long
    enough that the host's state can change within a pass.  Each segment
    is scaled by the calibrations at its two ends; the calibration loops
    themselves are not counted.
    """

    def __init__(self, per_op: bool = False):
        self.per_op = per_op
        self.lat: list[float] = []   # latencies of the ops that completed
        self.wall = 0.0
        self.raw_wall = 0.0
        self._raw_lat: list[float] = []
        self._loop = loop_time()
        self._t0 = time.perf_counter()

    def _cut(self) -> tuple[float, float]:
        """Close the current segment; (its raw seconds, its factor)."""
        raw = time.perf_counter() - self._t0
        loop = loop_time()
        factor = 2 * CALIBRATION_S / (self._loop + loop)
        self._loop = loop
        self.wall += raw * factor
        self.raw_wall += raw
        self._t0 = time.perf_counter()
        return raw, factor

    def call(self, fn, args, answers=()):
        """``fn(*args)``, or the exception it raised.

        The latency is recorded when the op completed: it returned, or
        raised one of the ``answers`` exception types, which are refusals
        the program documents (the workload's check tells which was due).
        """
        t0 = time.perf_counter()
        try:
            result = fn(*args)
            completed = True
        except answers as exc:
            result, completed = exc, True
        except Exception as exc:  # the op failed; the check reports it
            result, completed = exc, False
        raw = time.perf_counter() - t0
        if self.per_op:
            _, factor = self._cut()
            if completed:
                self.lat.append(raw * factor)
        elif completed:
            self._raw_lat.append(raw)
        return result

    def finish(self) -> None:
        """End the pass."""
        _, factor = self._cut()
        self.lat.extend(x * factor for x in self._raw_lat)
        self._raw_lat.clear()
