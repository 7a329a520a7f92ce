"""Timing at reference host speed: a fixed pure-Python probe reads how fast
the host runs while a timed region runs.

The benchmark runs on a few vCPUs of a shared host whose speed moves in
phases of seconds to minutes: a fixed pure-Python loop took from 1.15 to
1.65 times its best time within one 90-second window, and ten 30-second
runs of one workload spread up to 0.24 (quartile distance over median) in
wall-clock throughput.  That is host noise, not the program.

``probe`` times a small fixed piece of work that uses nothing of capnet:
integer arithmetic, ``Fraction`` arithmetic and small allocations, the
three things capnet's solvers spend their time on.  ``Meter`` probes a
few times right before and right after a timed region and, from a
SIGALRM handler, every ``INTERVAL_S`` inside it, so that an instance of
ten seconds is read through the phases it runs in.  The region's time is
its wall time minus the handler's, scaled by the mean host speed the
probes read (``REFERENCE_S`` over a probe's time).  A change to capnet
moves the region's time and not the probe's, so it shows in full; a
change in host speed moves both and cancels.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# The probe's time at reference speed: about its fastest time on the
# 2-vCPU Xeon VM the benchmark was defined on.  Only a unit: scaled times
# are wall times at that speed.
REFERENCE_S = 0.0006
INTERVAL_S = 0.05   # between probes inside a timed region
EDGE_PROBES = 5     # probes right before and right after it

_now = time.perf_counter


def _work():
    total = 0
    for i in range(3000):
        total += i * i % 7
    fraction = Fraction(0)
    for i in range(1, 120):
        fraction += Fraction(i, i + 1)
    table = {}
    for i in range(800):
        table[(i, i + 1)] = [i] * 3
    return total, fraction, len(table)


def probe():
    """Seconds the fixed work takes now."""
    started = _now()
    _work()
    return _now() - started


class Meter:
    """Times regions at reference host speed.

        meter = Meter()
        with meter:
            ...
        meter.wall, meter.scaled   # seconds: without the probes, and scaled

    The SIGALRM handler stays installed for the process's life, so that an
    alarm still pending when a region ends is taken, never fatal."""

    def __init__(self):
        self._active = False
        self._samples = []
        self._spent = 0.0
        self.wall = self.scaled = self.speed = None
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._active:
            started = _now()
            self._samples.append(probe())
            self._spent += _now() - started

    def __enter__(self):
        self._samples = [probe() for _ in range(EDGE_PROBES)]
        self._spent = 0.0
        self._active = True
        self._started = _now()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._active = False
        self.wall = _now() - self._started - self._spent
        self._samples += [probe() for _ in range(EDGE_PROBES)]
        self.speed = statistics.fmean(REFERENCE_S / p for p in self._samples)
        self.scaled = self.wall * self.speed
        return False
