"""A fixed pure-Python yardstick for the speed of the CPU the benchmark runs on.

On a shared host the speed of one vCPU moves by tens of percent, from second
to second and over minutes, so two runs of the same code can differ by more than any change worth
measuring. The worker times ``unit()`` between requests and after each
set-up, and ``run.py`` scales each time by ``REFERENCE_UNIT_S`` over the
mean unit time measured next to it. The metrics then read as seconds at the
reference speed: a slower or faster CPU moves the unit and the requests
alike, while a change to the program moves only the requests.

The unit does the kind of work the program does (bitset breadth-first search
over Python ints, list indexing and small-int arithmetic) and allocates no
container objects, so garbage collection cannot land inside it. It is part of
the benchmark, not of the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

# Mean unit time on a 2-vCPU Intel Xeon (Python 3.11.7); it only sets the scale.
REFERENCE_UNIT_S = 0.017

_N = 256


def _graph() -> list[int]:
    """Adjacency bitsets of a fixed pseudo-random graph, 6 out-edges a vertex."""
    adj = [0] * _N
    state = 12345
    for v in range(_N):
        for _ in range(6):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            w = state % _N
            adj[v] |= 1 << w
            adj[w] |= 1 << v
    return adj


_ADJ = _graph()


def unit() -> int:
    """One fixed amount of work: breadth-first search from every vertex."""
    adj = _ADJ
    total = 0
    for src in range(_N):
        seen = frontier = 1 << src
        depth = 0
        while frontier:
            reach = 0
            m = frontier
            while m:
                low = m & -m
                reach |= adj[low.bit_length() - 1]
                m ^= low
            frontier = reach & ~seen
            seen |= reach
            depth += 1
        total += depth * seen.bit_count() % 97
    return total


def timed_units(seconds: float) -> list[float]:
    """Run whole units for about ``seconds`` (at least one); their times."""
    times = []
    end = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        unit()
        now = time.perf_counter()
        times.append(now - start)
        if now >= end:
            return times
