"""A fixed reference loop that measures how fast the host runs Python right now.

The host this benchmark runs on is shared: the speed of its cores drifts
by up to 2x, for seconds to minutes at a time, with no steal time and
process CPU time equal to wall time, so neither CPU time nor a statistic
over one run's samples removes it. The benchmark therefore times this
loop next to every job and every set-up sample, and scales each time by
the loop's speed at that moment (see `scale`). The loop does the kind of
work amencert does, `Fraction` arithmetic and dictionaries keyed by small
tuples, and imports nothing from amencert, so no change to the program
changes it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# share of the timed work's time spent in the loop after it, and the fewest
# passes of the loop on each side of it
SHARE = 0.25
LEAST = 2
# the loop's time on a quiet core of the 2-vCPU Xeon this benchmark was built
# on; scaled times are seconds on a host that runs the loop this fast
NOMINAL_S = 0.0023


def loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i % 97 + 1)
    table: dict = {}
    for i in range(4000):
        key = (i % 500, i & 7)
        table[key] = table.get(key, 0) + i
    return total


def sample() -> float:
    """Seconds one pass of the loop takes now."""
    start = time.perf_counter()
    loop()
    return time.perf_counter() - start


def samples(after_s: float = 0.0) -> list[float]:
    """Times of passes of the loop run after `after_s` seconds of timed work.

    At least LEAST passes, and until SHARE of `after_s` has been spent in them.
    """
    out: list[float] = []
    while len(out) < LEAST or sum(out) < SHARE * after_s:
        out.append(sample())
    return out


def scale(seconds: float, around: list[float]) -> float:
    """`seconds` as it would read on a host that runs the loop in NOMINAL_S.

    `around` holds the loop's times taken just before and just after the
    timed work.
    """
    return seconds * NOMINAL_S / statistics.median(around)
