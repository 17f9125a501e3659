"""A gauge of how fast the CPU runs at each moment, to calibrate task times.

The benchmark runs on shared machines whose CPU speed switches between a
fast and a slow state, often several times a second, and whose share of
slow time drifts over minutes: the same task took 1.6 s in one hour and
2.4 s in the next, with CPU time following wall time.  Neither clock alone
can tell a slower program from a slower machine.

So every benchmark worker runs next to a gauge process on the same CPU.
About fifty times a second the gauge wakes, runs the yardstick once to
take its caches back from the worker, and times a second call.  The
yardstick is a fixed Euclidean gcd of two polynomials over ``Fraction``
(the kind of work gaudin's tasks do most), in code of its own that no
change to gaudin touches.  A task's calibrated time is its CPU seconds
times ``REFERENCE_S`` over the mean yardstick seconds sampled while it
ran: the time it would take on a CPU where one yardstick call takes
``REFERENCE_S``.

    python3 bench/yardstick.py    # gauge until stdin closes

prints one ``end seconds`` line per sample (end on the ``perf_counter``
clock, seconds of CPU time) when its standard input closes.  Changing the
yardstick or ``REFERENCE_S`` changes the unit of every reported time, so a
baseline taken before such a change no longer applies.
"""

from __future__ import annotations

import random
import select
import statistics
import sys
import time
from fractions import Fraction

# About the median yardstick CPU seconds on a 2-CPU x86_64 machine, Python 3.11.
REFERENCE_S = 0.0006
INTERVAL_S = 0.02


def _rem(a: list, b: list) -> list:
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for k, c in enumerate(b):
            a[shift + k] -= q * c
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def _mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _monic(rng: random.Random, degree: int) -> list:
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree)] + [Fraction(1)]


def yardstick() -> float:
    """CPU seconds one fixed gcd of two degree-9 and -10 polynomials takes."""
    start = time.process_time()
    rng = random.Random(1809)
    common = _monic(rng, 3)
    a, b = _mul(common, _monic(rng, 6)), _mul(common, _monic(rng, 7))
    while b:
        a, b = b, _rem(a, b)
    if len(a) != len(common):
        raise AssertionError("yardstick gcd has the wrong degree")
    return time.process_time() - start


def pace(samples, start: float, end: float) -> float | None:
    """Mean yardstick seconds over the samples taken within [start, end]."""
    inside = [s for t, s in samples if start <= t <= end]
    return statistics.fmean(inside) if inside else None


def calibrated(seconds: float, samples, start: float, end: float) -> float:
    """``seconds`` of CPU time spent in [start, end], at the reference pace.

    An interval no sample fell in takes the pace of the nearest sample.
    """
    local = pace(samples, start, end)
    if local is None:
        local = min(samples, key=lambda row: min(abs(row[0] - start), abs(row[0] - end)))[1]
    return seconds * REFERENCE_S / local


def gauge() -> None:
    rows = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        yardstick()
        seconds = yardstick()
        rows.append(f"{time.perf_counter():.6f} {seconds:.9f}")
    sys.stdout.write("\n".join(rows) + "\n")


if __name__ == "__main__":
    gauge()
