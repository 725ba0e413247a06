"""Correction for the machine's changing speed.

On a shared machine the speed of one core drifts by up to 40% over tens of
seconds, with the load of other tenants.  So every time the benchmark
reports is scaled to a reference speed: measured time x REFERENCE_S / the
time of a fixed calibration mix, run in the same process alongside the
measured work.  The mix is stdlib-only code shaped like the package's work:
exact arithmetic on frozen slotted value objects (products of integer
pairs, gcds, hashing of small tuples), and passes over a list and a dict
of 100,000 entries, like the dense Dirichlet tables.  Other tenants slow
the first kind of work more than the second, so the mix holds both.
It shares no code with a4csl, so no change to a4csl can change its time.
The raw times are recorded beside the scaled ones.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from math import gcd
from time import perf_counter

#: Time of one mix at the reference speed, about the median on the 2-core
#: machine the baseline was measured on.
REFERENCE_S = 0.014
REPEATS = 5


@dataclass(frozen=True, slots=True)
class _Pair:
    a: int
    b: int

    def __mul__(self, o: _Pair) -> _Pair:
        bd = self.b * o.b
        return _Pair(self.a * o.a + bd, self.a * o.b + self.b * o.a + bd)

    def __add__(self, o: _Pair) -> _Pair:
        return _Pair(self.a + o.a, self.b + o.b)


def _arith() -> int:
    x, acc, seen = _Pair(1, 1), _Pair(0, 0), set()
    for i in range(1, 1500):
        acc = acc + x * _Pair(i % 7 - 3, i % 5 - 2)
        g = gcd(acc.a, acc.b) or 1
        seen.add((acc.a // g % 97, acc.b // g % 89))
        x = _Pair(x.b % 1000 + 1, (x.a + i) % 1000)
    return len(seen)


def _tables() -> int:
    xs = list(range(100_000))
    table = {i: xs[i] * 3 for i in range(0, 100_000, 7)}
    return sum(xs) + len(table)


def _median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t = perf_counter()
        fn()
        times.append(perf_counter() - t)
    return statistics.median(times)


def speed_factor() -> float:
    """REFERENCE_S over the time of the mix, each part timed as the median
    of REPEATS runs: multiply a time measured now by it to get
    reference-speed time."""
    return REFERENCE_S / (_median_time(_arith) + _median_time(_tables))
