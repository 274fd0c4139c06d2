"""Host-speed probe behind the ``wall_ref`` metric.

The benchmark host is shared, and other tenants' load slows everything on
it for seconds at a time.  An untraced worker times this fixed loop in its
own process just before and just after the timed call; the call's wall
time divided by the loop's median time is the sample's ``wall_ref``.  A
change to ``repro`` does not touch the loop.
"""

from __future__ import annotations

import gc
import heapq
import time


class Reference:
    """A fixed pure-Python loop with a core-bound and a memory-bound part.

    Contention for the core slows interpreter-bound code more than
    memory-bound code, and contention for caches does the reverse; the
    simulators have both, so the loop has both: a heap-driven event queue
    over a small dict, then a walk over ~4 MB of small lists (more than a
    core's L2 cache here) in a fixed shuffled order.
    """

    def __init__(self, rows: int = 1 << 15):
        x = 12345
        self.rows = []
        for i in range(rows):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            self.rows.append([x & 1023, float(i)])
        self.order = list(range(rows))
        for i in range(rows - 1, 0, -1):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            j = x % (i + 1)
            self.order[i], self.order[j] = self.order[j], self.order[i]

    def run(self) -> float:
        heap = [(0.0, 0)]
        totals = {}
        for _ in range(20000):
            t, k = heapq.heappop(heap)
            totals[k % 512] = totals.get(k % 512, 0.0) + t * 0.5
            heapq.heappush(heap, (t + (k % 7) * 0.25 + 1.0, k + 1))
            if k % 3 == 0:
                heapq.heappush(heap, (t + 0.5, k + 2))
        for _ in range(2):
            for i in self.order:
                row = self.rows[i]
                totals[row[0]] = totals.get(row[0], 0.0) + row[1]
        return sum(totals.values())

    def seconds(self, reps: int = 3) -> list[float]:
        """Durations of ``reps`` runs of the loop.

        The cyclic collector is paused meanwhile: after a run that leaves a
        large heap, a full collection inside the loop would time the heap
        rather than the host.
        """
        out = []
        gc.disable()
        try:
            for _ in range(reps):
                start = time.perf_counter()
                self.run()
                out.append(time.perf_counter() - start)
        finally:
            gc.enable()
        return out
