"""Host pace: timings scaled to a reference speed of the machine.

The benchmark runs on a few cores of a shared host whose speed moves by
up to two times within minutes, as other tenants' work comes and goes.
CPU time moves with wall time, so neither clock alone is steady across
runs. ``Pacer`` therefore times a fixed probe, written in the same
style as the program (heap-driven shortest paths over dicts and tuples,
memoized recursion, small numpy reductions), every ``INTERVAL`` seconds
from a ``SIGALRM`` handler, so probes land inside long operations too.
A timing of the interval [t0, t1] is then reported in *reference
seconds*:

    (t1 - t0 - probe time inside it) * (REFERENCE_PROBE_S / local probe time) ** PACE_EXPONENT

where the local probe time is the median of the probes around the
interval. ``REFERENCE_PROBE_S`` is a constant, so a faster program still
reads faster; only the host's pace is divided out. The probe shares no
code or data with the program, and each tick's first run absorbs the
cache state the program left, so a change to the program barely moves
it. A native call that holds the interpreter defers the tick until it
returns; the probes before and after it then stand for its pace.
"""

from __future__ import annotations

import bisect
import heapq
import random
import signal
import statistics
import time

import numpy as np

# Seconds between probes, and probe runs per tick: the first warms the
# caches the interrupted program evicted, the faster of the others counts.
INTERVAL = 0.25
RUNS_PER_TICK = 3

# A probe's time at the reference pace. It is about the probe's usual
# time inside a run on a 2-vCPU Xeon VM (Python 3.11), so reference
# seconds read close to wall seconds there.
REFERENCE_PROBE_S = 0.0018

# Probes taken within this many seconds of an interval count as local.
PAD_S = 1.0
MIN_LOCAL = 3

# Work time scales as the local probe time to this power. Regressing
# the log of the program's work time on the log of the local probe time
# on a 2-vCPU Xeon VM gave slopes of 0.67 for arc-s2-desk solves and
# 0.76 for design evaluations: the probes are noisy samples of the
# pace, and the program's larger working set slows less than the
# probe's. A slope of 1 would overcorrect.
PACE_EXPONENT = 0.7

# Out-degree of every node of the probe's graphs.
DEGREE = 4


class Probe:
    """A fixed amount of interpreter-bound work over a small and a larger
    working set; built once so that every call does the same work."""

    def __init__(self):
        rng = random.Random(20221207)
        # Graphs as flat successor and weight lists, DEGREE entries a node.
        self.small = self._graph(rng, 200)
        self.large = self._graph(rng, 20000)
        self.sources = [rng.randrange(20000) for _ in range(64)]
        self.vec = np.array([rng.random() for _ in range(64)])
        self.calls = 0

    @staticmethod
    def _graph(rng, n):
        return ([rng.randrange(n) for _ in range(DEGREE * n)],
                [rng.random() for _ in range(DEGREE * n)])

    @staticmethod
    def _dijkstra(graph, source, settle):
        succ, weight = graph
        dist = {source: 0.0}
        heap = [(0.0, source)]
        done = set()
        while heap and len(done) < settle:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for e in range(DEGREE * u, DEGREE * u + DEGREE):
                v = succ[e]
                nd = d + weight[e]
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return sum(dist.values())

    def __call__(self) -> float:
        vec = self.vec
        memo = {}

        def best(i, k):
            if i == 14 or k == 0:
                return 0.0
            if (i, k) not in memo:
                memo[i, k] = max(best(i + 1, k), best(i + 1, k - 1) + float(vec[i]))
            return memo[i, k]

        # The large graph's source rotates, so that not all of its working
        # set is warm.
        source = self.sources[self.calls % len(self.sources)]
        self.calls += 1
        acc = self._dijkstra(self.small, 0, 200)
        acc += self._dijkstra(self.large, source, 250)
        acc += best(0, 7)
        for i in range(16):
            acc += float(np.maximum(vec - vec[i], 0.0) @ vec)
        return acc


class Pacer:
    """Probe samples ``(start, end, probe seconds)`` taken on a timer while
    installed; converts measured intervals to reference seconds."""

    def __init__(self):
        self.probe = Probe()
        self.samples = []
        self._starts = []
        self._busy = [0.0]  # prefix sums of tick durations

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        times = []
        for _ in range(RUNS_PER_TICK):
            a = time.perf_counter()
            self.probe()
            times.append(time.perf_counter() - a)
        t1 = time.perf_counter()
        self.samples.append((t0, t1, min(times[1:])))
        self._starts.append(t0)
        self._busy.append(self._busy[-1] + t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy(self, t0: float, t1: float) -> float:
        """Seconds of probe ticks that started inside [t0, t1]."""
        i = bisect.bisect_left(self._starts, t0)
        j = bisect.bisect_right(self._starts, t1)
        return self._busy[j] - self._busy[i]

    def local_probe_s(self, t0: float, t1: float) -> float:
        """Median probe time around [t0, t1]: the probes within ``PAD_S``
        of it, or the ``MIN_LOCAL`` nearest when there are fewer."""
        i = bisect.bisect_left(self._starts, t0 - PAD_S)
        j = bisect.bisect_right(self._starts, t1 + PAD_S)
        if j - i < MIN_LOCAL:
            if len(self.samples) < MIN_LOCAL:
                raise RuntimeError("too few pace probes to scale a timing")
            mid = 0.5 * (t0 + t1)
            near = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_LOCAL]
            return statistics.median(s[2] for s in near)
        return statistics.median(s[2] for s in self.samples[i:j])

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second of work around [t0, t1]."""
        return (REFERENCE_PROBE_S / self.local_probe_s(t0, t1)) ** PACE_EXPONENT

    def reference_s(self, t0: float, t1: float) -> float:
        """The work of [t0, t1], without the probe ticks inside it, in
        reference seconds."""
        return (t1 - t0 - self.busy(t0, t1)) * self.factor(t0, t1)
