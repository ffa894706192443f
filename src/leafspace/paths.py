"""Order, comparability and unique interval-decomposed paths.

Two points are comparable when a single embedded monotone arc joins them;
the connection between incomparable points decomposes uniquely into a
minimal chain of monotone intervals joined by jumps inside branch loci.
The decomposition is computed by routing through the window graph (whose
nodes collapse branch loci, so routes are unique tree geodesics) and
lifting the route back: passing a collapsed node through a single vertex
keeps the interval going, while switching between members of a locus
closes the interval, records a junction, and opens the next one.
Consecutive junctions inside one collapsed node are separated by
degenerate single-point intervals.

The window graph is rooted once per window (``Truncation.rooting``), and
the rooting stores each tree edge as its two hops, up and down: the edge,
its ends, their anchors (the frozenset of vertex cells that arriving
through that end can stand on) and whether the hop ascends.  The rooting
pass also stores per node (``Truncation.ladder``) a jump pointer and the
number of jumps (a crossing between anchors with no common vertex) on its
way up to the root.  Both queries find the meeting node of x and y by the
jump pointers, in O(log depth) (``_meeting``).  A route then climbs from
each end straight to the meeting node and appends the stored hops, so it
costs the length of the route, not the size of the window; only the split
halves of an edge holding x or y are built per query.  On a validated
window (one germ on each side of every vertex, a tree graph) the hops
between two jumps all run one way, so ``compare`` builds no route: it
reads the jumps between x and y as differences of the ladder's counts,
plus the crossings at the meeting node and at the two ends, and the first
hop's direction; only ``path`` lifts hops into parameter spans.  Each
crossing of a collapsed node is lifted once per window: the transit table
(``Truncation.transits``) maps an (entry anchor, exit anchor) pair to the
vertex steps, points, junctions and degenerate intervals it contributes,
so a locus hop costs ``path`` a table lookup.

A private reader serves callers that need many answers: the up-cone of
x (``_above``) holds every cell whose canonical point p has
``compare(x, p)`` Less, from one walk up the window forest out of x that
stops at the first jump on each branch.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple

from .core import (
    BranchLocus,
    Point,
    Tri,
    TruncatedError,
    edge_hops,
    require_routable,
)


class Comparability(enum.Enum):
    EQUAL = "equal"
    LESS = "less"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"
    TRUNCATED = "truncated"

    def __str__(self):
        return self.value


COMPARABLE = (Comparability.EQUAL, Comparability.LESS, Comparability.GREATER)

ASC, DESC = "ascending", "descending"


class Interval(NamedTuple):
    """A maximal monotone arc of a path.

    ``steps`` lists the traversal in order: ("vertex", fam, i) entries for
    vertices passed through (including locus members crossed without a
    jump), ("edge", fam, i, lo, hi) entries for the closed parameter span
    covered inside an edge cell, and ("tail", fam, side) for an elided
    glued-chain run beyond the window.  Degenerate intervals have
    start == end and direction "ascending" by convention.
    """

    start: Point
    end: Point
    direction: str
    steps: tuple

    @property
    def degenerate(self):
        return self.start == self.end

    def reverse(self):
        if self.degenerate:
            return self
        return Interval(self.end, self.start, DESC if self.direction == ASC else ASC,
                        tuple(reversed(self.steps)))

    def contains(self, z):
        if z.is_vertex:
            return ("vertex",) + z.cell in self.steps
        for step in self.steps:
            if step[0] == "edge" and step[1:3] == z.cell and step[3] <= z.t <= step[4]:
                return True
        return False

    def __str__(self):
        arrow = "^" if self.direction == ASC else "v"
        return f"[{self.start} {arrow} {self.end}]"


class PathJunction(NamedTuple):
    arrive: Point
    depart: Point
    locus: BranchLocus

    def reverse(self):
        return PathJunction(self.depart, self.arrive, self.locus)

    def __str__(self):
        return f"({self.arrive} ~ {self.depart})"


class Path(NamedTuple):
    intervals: tuple
    junctions: tuple

    @property
    def length(self):
        return len(self.intervals)

    def reverse(self):
        return Path(tuple(iv.reverse() for iv in reversed(self.intervals)),
                    tuple(j.reverse() for j in reversed(self.junctions)))

    def __str__(self):
        return " ".join(str(iv) for iv in self.intervals)


_PT = (("pt", 0), ("pt", 1))       # the nodes of the two route ends inside edge cells
_ZERO, _HALF, _ONE = Fraction(0), Fraction(1, 2), Fraction(1)


def _route(trunc, x, y):
    """Unique simple route between the positions of x and y, as a list of
    hops (``core.edge_hops``); None when the window graph does not connect
    them (the connection lies beyond the depth bound).  The hop of a split
    half of a cell edge runs to or from a ("pt", k) node, which has no
    anchor, and carries the (lo_t, hi_t) parameter span it covers.

    The meeting node of the two ends is found as ``compare`` finds it
    (``_meeting``); then x's end climbs to it taking each node's stored
    hop up, and y's end its hop down.  The whole-edge hop that starts or
    ends the route on the edge of a point inside an edge cell is replaced
    by the split half from or to the point."""
    if not x.is_vertex and not y.is_vertex and x.cell == y.cell:
        (s, a), (t, b) = sorted(((x.t, _PT[0]), (y.t, _PT[1])))
        eid = trunc.position[x.cell] - len(trunc.vertex_cells)
        ascending, descending = edge_hops(eid, (s, t), a, b, None, None)
        return [ascending if a == _PT[0] else descending]
    meet = _meeting(trunc, x, y)
    if meet is None:
        return None
    rooting = trunc.rooting
    top, u, v, _, _ = meet
    route, down = [], []
    while u != top:
        hop = rooting[u][3]
        route.append(hop)
        u = hop[3]
    while v != top:
        parent, _, _, _, hop = rooting[v]
        down.append(hop)
        v = parent
    route += reversed(down)
    if not x.is_vertex:
        eid, _, _, to, _, a_to, up = route[0]
        route[0] = (eid, (x.t, _ONE) if up else (_ZERO, x.t), _PT[0], to, None, a_to, up)
    if not y.is_vertex:
        eid, _, frm, _, a_frm, _, up = route[-1]
        route[-1] = (eid, (_ZERO, y.t) if up else (y.t, _ONE), frm, _PT[1], a_frm, None, up)
    return route


def _jump_chain(trunc, entry, exit_):
    """Minimal chain of locus members c0..cj inside one collapsed node, from
    a member the entry anchor holds to one the exit anchor holds, where
    consecutive members share a locus; j is the number of jumps (0 means
    the node is crossed through a single vertex).  Each member comes with
    the index of the locus it was reached by, None for c0: the search
    meets a mate first at its smallest shared locus, as each mate list is
    sorted.  Both anchors lie in the node's locus group, which its mates
    connect, so the search finds one."""
    shared = entry & exit_
    if shared:
        return [(min(shared), None)]
    frontier = sorted(entry)
    parent = dict.fromkeys(frontier)    # member -> (member before it, locus index)
    hit = None
    while frontier and hit is None:
        nxt = []
        for c in frontier:
            for mate, li in trunc._mates.get(c, ()):
                if mate not in parent:
                    parent[mate] = c, li
                    if mate in exit_ and hit is None:
                        hit = mate
                    nxt.append(mate)
        frontier = nxt
    chain = []
    while parent[hit] is not None:
        before, li = parent[hit]
        chain.append((hit, li))
        hit = before
    chain.append((hit, None))
    chain.reverse()
    return chain


def _transit(trunc, entry, exit_):
    """The lifted crossing of a collapsed node from the entry anchor to the
    exit anchor along its jump chain, stored in ``Truncation.transits``:
    (first vertex step, first point, junctions, the degenerate intervals
    between them, last point, last vertex step).  A chain without a jump
    leaves only its vertex step: no points and empty tuples."""
    chain = _jump_chain(trunc, entry, exit_)
    step = ("vertex",) + chain[0][0]
    if len(chain) == 1:
        lifted = step, None, (), (), None, step
    else:
        points = [Point(c) for c, _ in chain]
        junctions = tuple(PathJunction(a, b, trunc.loci[li])
                          for a, b, (_, li) in zip(points, points[1:], chain[1:]))
        between = tuple(Interval(b, b, ASC, (("vertex",) + b.cell,)) for b in points[1:-1])
        lifted = step, points[0], junctions, between, points[-1], ("vertex",) + chain[-1][0]
    trunc.transits[entry, exit_] = lifted
    return lifted


def path(trunc, x, y):
    """The unique minimal decomposition of the connection from x to y.

    Raises TruncatedError when the route needs cells beyond the window
    (elided glued-chain tails do not count: their course is determined),
    PointOutOfRange for points outside the window.
    """
    trunc.require_point(x)
    trunc.require_point(y)
    require_routable(trunc)
    if x == y:
        steps = (("vertex",) + x.cell,) if x.is_vertex else (("edge",) + x.cell + (x.t, x.t),)
        return Path((Interval(x, x, ASC, steps),), ())
    route = _route(trunc, x, y)
    if route is None:
        raise TruncatedError(f"no route from {x} to {y} inside the depth-{trunc.depth} window")
    if y.is_vertex:     # arriving at y is a last crossing, with no hop after it
        route.append((None, None, trunc.vertex_node(y.cell), None, frozenset((y.cell,)), None, None))
    edges, transits = trunc.graph_edges, trunc.transits
    intervals, junctions = [], []
    start, up = x, None             # the open interval: its start and direction (None: not yet known)
    # A crossing follows an edge step, or starts the route at x, so the
    # vertex step it adds is never the last one (x's own comes from it).
    steps = []
    pending = frozenset((x.cell,)) if x.is_vertex else None
    for eid, span, frm, _, a_frm, a_to, ascending in route:
        if frm[0] == "locus":
            first_step, first, jumps, between, last, last_step = (
                transits.get((pending, a_frm)) or _transit(trunc, pending, a_frm))
            steps.append(first_step)
            if jumps:
                intervals.append(Interval(start, first, DESC if up is False else ASC, tuple(steps)))
                intervals += between
                junctions += jumps
                start, up, steps = last, None, [last_step]
        elif frm[0] == "vertex":
            steps.append(frm)
        if eid is None:
            break
        if up is None:
            up = ascending
        payload = edges[eid][0]
        if payload[0] == "tail":
            steps.append(payload)
        elif span is None:
            steps.append(("edge", payload[1], payload[2], _ZERO, _ONE))
        else:
            steps.append(("edge", payload[1], payload[2]) + span)
        pending = a_to
    intervals.append(Interval(start, y, DESC if up is False else ASC, tuple(steps)))
    return Path(tuple(intervals), tuple(junctions))


def _meet(trunc, u, v):
    """(meeting node, its child toward u, its child toward v) of u and v
    in the rooted window forest, a child being None where that end is the
    meeting node itself; None when u and v lie in different components.
    Climbs by the jump pointers of ``Truncation.ladder``: O(log depth)."""
    rooting, ladder = trunc.rooting, trunc.ladder
    cu = cv = None
    du, dv = rooting[u][2], rooting[v][2]
    if du != dv:
        deep, level = (u, dv + 1) if du > dv else (v, du + 1)
        while rooting[deep][2] > level:
            jump = ladder[deep][0]
            deep = jump if rooting[jump][2] >= level else rooting[deep][0]
        if du > dv:
            cu, u = deep, rooting[deep][0]
        else:
            cv, v = deep, rooting[deep][0]
    if u == v:
        return u, cu, cv
    while True:
        pu, pv = rooting[u][0], rooting[v][0]
        if pu == pv:
            return None if pu is None else (pu, u, v)
        ju, jv = ladder[u][0], ladder[v][0]
        u, v = (ju, jv) if ju != jv else (pu, pv)


def _meeting(trunc, x, y):
    """(top, u, v, cu, cv), or None where the window forest does not
    connect x and y (in different cells): the route climbs from x's node u
    to the meeting node top, then descends to y's node v; cu and cv are
    top's children toward u and v, None where u or v is top.  A point
    inside an edge cell stands on the edge's child end, or on its parent
    end (then top) where the other point hangs below the child end."""
    rooting, nodes = trunc.rooting, []
    for point in (x, y):
        if point.is_vertex:
            nodes.append(trunc.vertex_node(point.cell))
        else:
            eid = trunc.position[point.cell] - len(trunc.vertex_cells)
            lo, hi = trunc.graph_edges[eid][1:3]
            nodes.append(lo if rooting[lo][1] == eid else hi)
    u, v = nodes
    meet = _meet(trunc, u, v)
    if meet is None:
        return None
    top, cu, cv = meet
    if cu is None and not x.is_vertex:      # y hangs below x's edge: leave x down the edge
        top, u, cv = rooting[u][0], rooting[u][0], u
    elif cv is None and not y.is_vertex:    # x hangs below y's edge: reach y up the edge
        top, v, cu = rooting[v][0], rooting[v][0], v
    return top, u, v, cu, cv


def compare(trunc, x, y):
    """Less iff an embedded monotone ascending arc runs from x to y;
    Truncated when the deciding arc leaves the depth window.

    Read off the route without walking it: the points are incomparable
    when the route makes a jump (a crossing of a collapsed node between
    anchors with no common vertex), otherwise the first hop's direction
    decides.  The jumps come from the prefix counts of ``Truncation.ladder``
    below the meeting node of the two ends (``_meeting``), plus the
    crossings at the ends and at the meeting node, so a query costs
    O(log depth).  A point inside an edge cell starts or ends the route on
    the split half of its edge toward the other point."""
    trunc.require_point(x)
    trunc.require_point(y)
    require_routable(trunc)
    if x == y:
        return Comparability.EQUAL
    if not x.is_vertex and not y.is_vertex and x.cell == y.cell:
        return Comparability.LESS if x.t < y.t else Comparability.GREATER
    meet = _meeting(trunc, x, y)
    if meet is None:
        return Comparability.TRUNCATED
    rooting, ladder = trunc.rooting, trunc.ladder
    top, u, v, cu, cv = meet
    jumps = 0
    first = arrive = None                   # the first hop; the anchor last arrived through
    if cu is not None:
        first, arrive = rooting[u][3], rooting[cu][3][5]
        jumps += ladder[u][1] - ladder[cu][1]
    if cv is not None:
        leave = rooting[cv][4]              # hop down from top toward y
        jumps += ladder[v][1] - ladder[cv][1]
        if first is None:
            first = leave
        elif top[0] == "locus" and arrive.isdisjoint(leave[4]):
            jumps += 1
        arrive = rooting[v][4][5]
    if (jumps or first is None                      # None: two members of one locus node
            or x.is_vertex and u[0] == "locus" and x.cell not in first[4]
            or y.is_vertex and v[0] == "locus" and y.cell not in arrive):
        return Comparability.INCOMPARABLE
    return Comparability.LESS if first[6] else Comparability.GREATER


def _above(trunc, x):
    """The up-cone of x: the window cells whose canonical point p has
    ``compare(x, p)`` Less, from one walk up the window forest out of x.

    On a validated window a Less route ascends on every hop and makes no
    jump (a crossing of a collapsed node between anchors with no common
    vertex), so the walk takes ascending hops only, stops at a jump and
    carries just the anchor it arrived through: at a collapsed node, x
    is below the members that anchor holds.  The walk stays beside
    ``compare`` because one ``compare`` per pair made the perfbench
    suite's ``work_s`` 11% slower (0.0455 -> 0.0506 s on 2 shared cores)."""
    trunc.require_point(x)
    require_routable(trunc)
    edges, adjacency = trunc.graph_edges, trunc.adjacency
    above = set()
    if x.is_vertex:
        stack = [(trunc.vertex_node(x.cell), frozenset((x.cell,)))]
    else:
        _, _, hi, _, a_hi = edges[trunc.position[x.cell] - len(trunc.vertex_cells)]
        stack = [(hi, a_hi)]
        if x.t < _HALF:
            above.add(x.cell)
    while stack:
        node, arrived = stack.pop()
        locus = node[0] == "locus"
        if locus:
            above |= arrived
        elif node[0] == "vertex":
            above.add(node[1:])
        for eid, other in adjacency[node]:
            payload, lo, _, a_lo, a_hi = edges[eid]
            if node != lo or locus and arrived.isdisjoint(a_lo):
                continue
            if payload[0] == "cell":
                above.add(payload[1:])
            stack.append((other, a_hi))
    if x.is_vertex:
        above.discard(x.cell)       # the walk's first node adds x itself
    return above


def interval_contains(trunc, interval, z):
    """Whether z lies on the interval (endpoints included)."""
    trunc.require_point(z)
    return Tri.YES if interval.contains(z) else Tri.NO


def sample_points(p):
    """Representative points of a path: endpoints, junction vertices,
    every vertex passed through, and a midpoint inside each covered edge
    span (elided tails have no in-window points to sample)."""
    seen = {}       # insertion-ordered set
    add = seen.setdefault
    for iv in p.intervals:
        add(iv.start)
        for step in iv.steps:
            if step[0] == "vertex":
                add(Point(step[1:3]))
            elif step[0] == "edge":
                lo, hi = step[3], step[4]
                t = (lo + hi) / 2
                if 0 < t < 1:
                    add(Point(step[1:3], t))
        add(iv.end)
    return list(seen)
