"""Machine-speed probe, timed in every sample next to the program.

The benchmark host is shared: in spells from under a second to minutes,
the same interpreter work takes up to twice as long (measured 16-42 ms for
this probe within two minutes). The program's time follows the probe's,
though less than in proportion: regressing log program time on log probe
time over 100 runs of the four workloads gave slopes of 0.78-0.97. Each
sample's host times are therefore reported at a reference speed, multiplied
by ``(PROBE_REF_S / probe time) ** PROBE_EXPONENT``. Over those runs this
cut the spread of a 10-run median from up to 36 % (unscaled) to 7 % or less,
against 13 % with exponent 1. The probe runs no program code, so a change
to the program cannot move it.
"""

from __future__ import annotations

import heapq
import time

# Probe time on this machine in a quiet spell; reported host times are
# seconds at that speed.
PROBE_REF_S = 0.016
# How strongly the program's time follows the probe's (fitted, see above).
PROBE_EXPONENT = 0.85


def probe() -> float:
    """Time a fixed piece of generic interpreter work: tuples, strings, a
    dict and a bounded heap, as in an event loop's inner path."""
    t0 = time.perf_counter()
    for _ in range(3):
        heap: list = []
        index = {}
        for i in range(6000):
            item = (i * 7919 % 1013, i, str(i))
            heapq.heappush(heap, item)
            index[item[2]] = item
            if len(heap) > 64:
                heapq.heappop(heap)
        [index.get(str(i)) for i in range(6000)]
    return time.perf_counter() - t0
