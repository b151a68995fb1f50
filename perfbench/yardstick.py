"""Host-speed yardstick: the HS06 idea of timing a fixed piece of work.

On a shared host the speed of one core drifts, by tens of percent, over
seconds and minutes.  ``rep.py`` times the yardstick right before and
right after each sweep, on the same pinned core, and scales the sweep's
wall seconds to the speed at which the yardstick takes ``REFERENCE_S``,
so a sweep that ran while the host was slow is not mistaken for a slower
program.  The work is built like the program's: tuple keys in a dict,
a sort and a heap (as in compile and routing), and numpy sorting and
``unique`` (as in sampling, dedupe and decoding).  It calls nothing of
the program under test, so no change to the program can move it.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

import numpy as np

_WORDS = np.random.default_rng(0).integers(0, 1 << 30, 50_000)
# Yardstick seconds that define the reference speed: about what a
# 2-vCPU KVM guest (Python 3.11, numpy 2) reads in its usual state.  A
# constant, so it only sets the scale of the reported sweep seconds.
REFERENCE_S = 0.065


def yardstick_s() -> float:
    """Wall seconds of one fixed unit of work (about 70 ms)."""
    gc.collect()
    t0 = time.perf_counter()
    rnd = random.Random(5)
    keys = [(rnd.randrange(1 << 20), rnd.randrange(64)) for _ in range(20_000)]
    index = {key: i for i, key in enumerate(keys)}
    total = sum(index[key] for key in reversed(keys))
    keys.sort()
    heap: list[tuple[int, int]] = []
    for trap, ion in keys[:10_000]:
        heapq.heappush(heap, (ion, trap))
    while heap:
        total += heapq.heappop(heap)[0]
    for _ in range(6):
        np.sort(_WORDS)
        np.unique(_WORDS & 1023)
    return time.perf_counter() - t0
