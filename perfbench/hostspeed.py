"""Host speed, measured between repetitions by a fixed reference task.

The benchmark runs on a few cores of a shared host, and the host's speed
drifts in phases that outlast a run: within five minutes the same
repetition took 1.6 s and 3.1 s, with its outputs identical.
No statistic over one run's repetitions removes a slowdown that covers
the whole run.  So a :class:`Probe` times a fixed pure-Python task that
shares none of the program's code before, between and after the
repetitions, and the end-to-end times are scaled by the host's speed
over the run, ``REFERENCE_S / median(probe times)``.  A change to the
program moves the scaled time exactly as it moves the wall time; a
slower host moves the probe with it.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
from time import perf_counter

__all__ = ["REFERENCE_S", "Probe", "speed"]

#: wall seconds of one :meth:`Probe.reference` call at the reference host
#: speed: the median of 60 probes on an idle 2-vCPU Intel Xeon VM
#: (quartiles 0.061 and 0.066 s)
REFERENCE_S = 0.063


class Probe:
    """Times :meth:`reference`, a task in the interpreter's common operations.

    The task's data is built once, here, so a call allocates almost
    nothing: a call that had to fault fresh pages in measured the host's
    memory manager more than its processor.
    """

    def __init__(self, nodes: int = 20_000, lookups: int = 35_000) -> None:
        rng = random.Random(2009)
        #: node i is ``(value, key, next node)``
        self.nodes = [(rng.random(), i, rng.randrange(nodes)) for i in range(nodes)]
        self.index = {node[1] * 7919: node for node in self.nodes}
        self.keys = [rng.randrange(nodes) * 7919 for _ in range(lookups)]

    def reference(self) -> float:
        """An integer loop, then dict lookups with two hops each feeding a
        bounded heap: hashing, indexing and heap moves, the mix a
        discrete-event simulation spends its time on."""
        acc = 0
        for i in range(350_000):
            acc += i * i % 7
        nodes, index = self.nodes, self.index
        heap: list = []
        total = float(acc)
        for key in self.keys:
            node = nodes[nodes[index[key][2]][2]]
            heapq.heappush(heap, (node[0], node[1]))
            if len(heap) > 512:
                total += heapq.heappop(heap)[0]
        return total

    def __call__(self, calls: int = 3) -> float:
        """Median wall seconds of ``calls`` :meth:`reference` calls.

        The median drops a call that an interruption hit.  The collector
        is paused meanwhile: a collection inside a call would walk the
        program's heap too, and make the probe depend on its size.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(calls):
                t = perf_counter()
                self.reference()
                times.append(perf_counter() - t)
            return statistics.median(times)
        finally:
            if enabled:
                gc.enable()


def speed(probes) -> float:
    """Host speed over a run from its probe times (1.0 = reference speed)."""
    return REFERENCE_S / statistics.median(probes)
