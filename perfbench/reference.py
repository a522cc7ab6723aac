"""A fixed pure-Python kernel that measures how fast the host runs Python.

On a shared host, neighbouring tenants slow this process down for
stretches of seconds to minutes. On a 2-vCPU Xeon VM the fast decile of
a 64-rank allreduce op moved from 0.82 s to 1.79 s between runs, with
host steal time near 0%, so no statistic of op times alone stays steady.
The harness therefore alternates ops with runs of this kernel and scales
op time by the kernel's speed in the same run. Kernel runs last about
half an op, so both see contention over the same time scale.

The kernel shares no code with ``repro``, so no change to the program
moves it. It does the same kind of work as the simulator: it allocates
small objects, keeps a heap and a dict of live entries, and does float
arithmetic.
"""

from __future__ import annotations

import gc
import heapq
import time
#: Seconds per kernel item on an uncontended host: about the fastest seen
#: on a 2-vCPU Intel Xeon VM. It sets the scale that turns kernel-relative
#: times back into seconds; only ratios between runs are compared, so any
#: fixed value would serve.
NOMINAL_ITEM_S = 3.3e-6

_FANOUT = 8
_LIVE = 64


class _Entry:
    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value
        self.rate = 0.0


def run_kernel(items: int) -> float:
    """Push ``items`` entries through a small heap; returns a checksum."""
    heap: list[tuple[float, int, _Entry]] = []
    live: dict[int, _Entry] = {}
    total = 0.0
    for i in range(items):
        entry = _Entry(i, (i * 7919) % 1009 * 1e-3)
        live[i] = entry
        heapq.heappush(heap, (entry.value, i, entry))
        if len(heap) > _LIVE:
            _, key, done = heapq.heappop(heap)
            total += done.value * 0.5 + done.rate
            del live[key]
        for other in list(live.values())[:_FANOUT]:
            other.rate = min(other.rate + entry.value, 1e3)
    return total


def slowdown(items: int) -> float:
    """Run ``items`` kernel items; host seconds per item over nominal."""
    gc.collect()
    start = time.perf_counter()
    run_kernel(items)
    return (time.perf_counter() - start) / items / NOMINAL_ITEM_S
