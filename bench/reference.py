"""A fixed reference loop that measures the current speed of the host.

The shared host this benchmark was tuned on runs the same Python code up
to 1.7 times slower for seconds to minutes at a time, on either vCPU and
with no steal time reported.  A run that lands in a slow stretch reads
slow whatever the program does.  The benchmark therefore times this loop
next to every operation and reports times in units of it, converted back
to seconds at the loop's nominal speed REF_S.  The loop uses no heckecell
code, so a change to the library moves the operations and not the loop.

The loop is small-dict Laurent-style arithmetic in pure Python: integer
keys and coefficients, dictionary reads and writes, and allocation, the
mix that dominates the library's own time.
"""

from __future__ import annotations

import time

# Seconds one reference loop takes at the host's nominal speed: its
# fast-state time on the 2-vCPU Intel Xeon VM (Python 3.11.7) on which the
# benchmark was tuned.  Only a unit: it turns reference units into seconds.
REF_S = 1.35e-4

_A = {i: (7 * i + 3) % 11 - 5 for i in range(-6, 7)}
_B = {i: (5 * i + 1) % 13 - 6 for i in range(-5, 6)}


def _loop() -> dict:
    acc = {}
    for _ in range(6):
        out = {}
        for i, x in _A.items():
            for j, y in _B.items():
                k = i + j
                v = out.get(k, 0) + x * y
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
        for k, v in out.items():
            acc[k] = acc.get(k, 0) + v
    return acc


def calibrate() -> float:
    """Seconds the reference loop takes now: the faster of two runs."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best
