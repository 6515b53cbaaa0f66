"""Host-speed probe for the benchmark's measured children.

The host this benchmark was defined on changes speed by up to a factor
of two over seconds to minutes, as other tenants load it, and both
cores change independently.  A wall time alone then says more about the
host than about the program.  So every measured child runs a thread
that, every ``INTERVAL_S``, pauses the main thread by taking the GIL and
times ``probe()``: fixed pure-Python work shaped like domaincheck's
inner loops, which imports nothing from domaincheck.  The runner pins
itself and its children to one core, so the probe runs on the core the
work runs on, interleaved with it, and the mean probe time tells how
fast that core was while the child ran.
"""

from __future__ import annotations

import threading
import time

INTERVAL_S = 0.005


def probe() -> int:
    """About half a millisecond of bitmask closures, frozensets and dicts."""
    n = 8
    below = [((1 << i) - 1) & (0x5B * (i + 1)) for i in range(n)]
    seen: dict[frozenset, int] = {}
    acc = 0
    for m in range(1 << n):
        up = m
        for i in range(n):
            if m >> i & 1:
                up |= below[i]
        acc ^= up
        if m % 5 == 0:
            key = frozenset(i for i in range(n) if up >> i & 1)
            seen[key] = seen.get(key, 0) + 1
    return acc + len(seen)


class Prober(threading.Thread):
    """Times ``probe()`` every ``INTERVAL_S`` until ``stop()``."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.times: list[float] = []
        self._done = threading.Event()

    def run(self) -> None:
        clock = time.perf_counter
        while not self._done.wait(INTERVAL_S):
            t0 = clock()
            probe()
            self.times.append(clock() - t0)

    def stop(self) -> list[float]:
        self._done.set()
        self.join()
        return self.times
