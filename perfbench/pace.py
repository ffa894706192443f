"""The host's speed, read from a fixed reference computation.

The benchmark runs on shared virtual machines whose speed moves by up to
2x, in spells of a second to minutes; a whole run can fall in a slow
spell, and then no estimator inside the run (best, median) reads the
program's own speed.  So every timed operation is run between two runs
of ``reference()``, a fixed pure-Python computation of the same kind as
the library's (dicts of tuples, sets, small objects, method calls,
sorting) that no change to the library touches.  The operation's time
is scaled by ``NOMINAL_S`` over the mean of its two neighbouring
reference times: it reads as seconds on a host whose reference time is
``NOMINAL_S``, about this kernel's time on a 2.0 GHz Xeon vCPU in its
fast spells.  Changing ``reference()`` or ``NOMINAL_S`` changes every
scaled figure, so compare commits only with the same perfbench.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.0005


class _Cell:
    __slots__ = ("key", "links")

    def __init__(self, key):
        self.key = key
        self.links = []

    def degree(self):
        return len(self.links)


def reference():
    """Breadth-first search over a 14 x 14 grid of small objects, then a
    keyed sort of the visit order; returns a checksum."""
    size = 14
    cells = {(i, j): _Cell((i, j)) for i in range(size) for j in range(size)}
    for (i, j), cell in cells.items():
        for nb in ((i + 1, j), (i, j + 1), (i - 1, j), (i, j - 1)):
            if nb in cells:
                cell.links.append(cells[nb])
    seen = {(0, 0)}
    frontier = [cells[0, 0]]
    order = []
    while frontier:
        nxt = []
        for cell in frontier:
            for nb in cell.links:
                if nb.key not in seen:
                    seen.add(nb.key)
                    nxt.append(nb)
        order.extend(frontier)
        frontier = nxt
    order.sort(key=lambda c: (c.degree(), c.key[1], -c.key[0]))
    return sum(k * c.key[0] for k, c in enumerate(order))


CHECKSUM = reference()


def reference_s(runs=1):
    """Seconds one ``reference()`` takes now: the median of ``runs``."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        value = reference()
        times.append(time.perf_counter() - start)
        if value != CHECKSUM:
            raise RuntimeError("reference computation returned a different checksum")
    times.sort()
    return times[len(times) // 2]
