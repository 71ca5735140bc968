"""A fixed round of pure-Python work that gauges the machine's speed.

The host a run lands on can run the same Python code at very different
speeds from one minute to the next (up to 2x on a shared virtual machine),
and this moves every wall time of a run alike.  One calibration round is a
frozen piece of work shaped like redeploy's own hot paths: it builds a
paired-edge residual graph and runs BFS augmenting paths on it, scans the
subsets of a small set comparing exact Fraction averages looked up in a
memo, and enumerates a product space of small option tuples.  It imports
nothing from redeploy, so no change to the program moves it.

run.py takes a round after every operation and before every set-up; the
mean round time of the run, against REFERENCE_S, says how fast the
machine ran during it.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

# Mean round time on the machine the reference was recorded on (2-vCPU
# Intel Xeon virtual machine, Linux 6.18, CPython 3.11.7).  It only fixes
# the scale of the reported times; any constant would do.
REFERENCE_S = 0.0075


def _graph(seed: int, nodes: int, arcs: int):
    rng = random.Random(seed)
    return [(rng.randrange(nodes), rng.randrange(nodes), rng.randint(1, 9))
            for _ in range(arcs)]


_ARCS = _graph(7, 60, 400)
_WORTH = {mask: random.Random(mask).randint(0, 40 * bin(mask).count("1"))
          for mask in range(1 << 8)}


def _max_flow(nodes: int, source: int, sink: int) -> int:
    adj: list[list[int]] = [[] for _ in range(nodes)]
    to: list[int] = []
    cap: list[int] = []
    for u, v, c in _ARCS:
        if u != v:
            adj[u].append(len(to))
            adj[v].append(len(to) + 1)
            to.extend((v, u))
            cap.extend((c, 0))
    total = 0
    while True:
        parent = [-1] * nodes
        parent[source] = -2
        queue = [source]
        for u in queue:
            if u == sink:
                break
            for i in adj[u]:
                v = to[i]
                if parent[v] == -1 and cap[i] > 0:
                    parent[v] = i
                    queue.append(v)
        if parent[sink] == -1:
            return total
        bottleneck = min(cap[parent[v]] for v in _path(parent, to, sink,
                                                          source))
        for v in _path(parent, to, sink, source):
            cap[parent[v]] -= bottleneck
            cap[parent[v] ^ 1] += bottleneck
        total += bottleneck


def _path(parent, to, sink, source):
    v = sink
    while v != source:
        yield v
        v = to[parent[v] ^ 1]


def _best_average() -> Fraction:
    best = None
    for mask in range(1, 1 << 8):
        average = Fraction(_WORTH[mask], bin(mask).count("1"))
        if best is None or average > best:
            best = average
    return best


def _feasible_outcomes() -> int:
    count = 0
    for outcome in itertools.product(range(4), repeat=6):
        load = {}
        for destination in outcome:
            load[destination] = load.get(destination, 0) + 1
        count += max(load.values()) <= 2
    return count


def work() -> tuple:
    """One calibration round; its result never changes."""
    return (_max_flow(60, 0, 59), _best_average(), _feasible_outcomes())


def sample() -> float:
    """Wall time of one calibration round."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
