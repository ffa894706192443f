"""Finitely generated models of simply connected non-Hausdorff oriented 1-manifolds.

A model is described by *cell families*: vertex families and edge families,
each either a single cell (``unit``) or one cell per integer (``chain``).
Every edge cell is an open oriented interval with a ``low`` and a ``high``
end.  Ends attach to vertices in one of three ways:

* ``vertex`` -- the end is glued to a vertex cell (the vertex becomes the
  endpoint of the closed-up edge);
* ``limit`` -- the end accumulates on a set of vertices without reaching
  them.  A limit set of size >= 2 is a *branch locus*: its members are
  pairwise non-separated and the limiting edge end is the locus *stem*.
  A branch locus is *positive* when the stem approaches its members from
  below (the limit sits on the stem's high end) and *negative* when from
  above;
* ``open`` -- a free end; the manifold simply stops there.

Edge chains come in two flavours.  An *unlinked* chain has independent
cells, each carrying its own end rules (index offsets are applied per
cell).  A *glued* chain (``glue`` = +1 or -1) concatenates consecutive
cells into a single long ray or line: cell n's high end meets cell
(n+glue)'s low end, so the whole chain ascends with n (glue +1) or
against n (glue -1).  The two ends at infinity of a glued chain each
carry a chain-end rule, ``open`` or ``limit``: a limit at infinity is how
an interval accumulates onto a vertex (size 1) or a branch locus
(size >= 2) after infinitely many cells.

All queries run on a :class:`Truncation`: the finite window of cells with
indices in [-depth, depth].  Ends whose continuation falls outside the
window are recorded as truncated ends; beyond a truncated glued-chain end
the structure is still exact (a monotone run of one family, then the
declared chain-end rule), which lets paths traverse elided tails without
guessing.

Points on the model are vertex cells or exact rational positions in the
interior of edge cells.  Group elements (:class:`Element`, each generator
among them) are per-family maps composed with integer index shifts; see
:mod:`leafspace.action` for words.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple


class Tri(enum.Enum):
    """Three-valued answer for queries a finite window cannot always settle."""

    YES = "yes"
    NO = "no"
    TRUNCATED = "truncated"

    def __str__(self):
        return self.value


DEPTH_LIMIT = 4096      # deepest window ``expand`` builds

LOW, HIGH = "low", "high"
NEG, POS = "neg", "pos"          # chain side: index -> -inf / +inf
POSITIVE, NEGATIVE = "positive", "negative"


class LeafSpaceError(Exception):
    """Base class for model errors."""


class UnresolvedName(LeafSpaceError):
    """An attachment or generator references an unknown family."""


class BadOffset(LeafSpaceError):
    """An index expression is not an integer shift."""


class InvalidModel(LeafSpaceError):
    """Operation requires a truncation that passes validation."""


class PointOutOfRange(LeafSpaceError):
    """A query point does not lie in the truncation window."""


class UndefinedGenerator(LeafSpaceError):
    """A word uses a generator the model does not define."""


class TruncatedError(LeafSpaceError):
    """The answer needs cells beyond the depth window."""


class PreconditionFailed(LeafSpaceError):
    """A checker's hypothesis does not hold for the given arguments."""


class UnknownName(LeafSpaceError):
    """Unknown gallery entry."""


# ---------------------------------------------------------------------------
# spec data


class Family(NamedTuple):
    name: str
    kind: str                 # "edge" | "vertex"
    chain: bool = False       # integer chain vs single cell
    glue: int | None = None   # edge chains only: +1 / -1 links consecutive cells


class _Checked:
    """Base of a named tuple whose ``__new__`` checks or sorts its fields:
    ``_make``, and so ``_replace``, go through ``__new__`` too."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class EndRule(_Checked, namedtuple("EndRule", "kind targets")):
    """Attachment rule for one end of an unlinked edge family.

    ``kind`` is "open", "vertex" or "limit".  ``targets`` holds (vertex
    family, offset) pairs, sorted: one for ``vertex``, one or more for
    ``limit``, none for ``open``.  For a chain edge the offset is added to
    the cell index; for a unit edge it is the absolute index into a chain
    target (and must be 0 for a unit target).
    """

    __slots__ = ()

    def __new__(cls, kind, targets=()):
        return tuple.__new__(cls, (kind, tuple(sorted(targets))))


class ChainEndRule(_Checked, namedtuple("ChainEndRule", "kind targets")):
    """Rule for a glued chain's end at infinity: ``kind`` is "open" or
    "limit", ``targets`` the sorted unit vertex families."""

    __slots__ = ()

    def __new__(cls, kind, targets=()):
        return tuple.__new__(cls, (kind, tuple(sorted(targets))))


def open_end():
    return EndRule("open")


def to_vertex(family, offset=0):
    return EndRule("vertex", ((family, offset),))


def to_limit(*targets):
    return EndRule("limit", tuple(targets))


class Point(_Checked, namedtuple("Point", "cell t")):
    """A position: a vertex cell, or an interior point of an edge cell.

    ``cell`` is (family, index), index 0 for unit families.  ``t`` is None
    for a vertex, else an exact rational strictly between 0 and 1
    measured from the low end of the edge.
    """

    __slots__ = ()

    def __new__(cls, cell, t=None):
        if t is not None:
            if type(t) is not Fraction:     # images of points pass their Fraction on
                t = Fraction(t)
            if not 0 < t.numerator < t.denominator:     # 0 < t < 1, on integers
                raise ValueError("interior coordinate must be in (0,1)")
        return tuple.__new__(cls, (cell, t))

    @property
    def is_vertex(self):
        return self.t is None

    def __str__(self):
        fam, idx = self.cell
        base = f"{fam}[{idx}]"
        return base if self.t is None else f"{base}:{self.t}"


class Element:
    """A group element: a generator, or the action of a word on the whole model.

    ``maps[f] = (f', b)`` sends cell f[n] to f'[n+b], for every family f in
    the spec's order, preserving edge orientation and interior coordinates.
    Elements are equal exactly when they act identically, and hash alike
    (the hash is taken once, at construction), so an element is its own
    key; do not mutate ``maps``.  ``a * b`` applies b, then a."""

    __slots__ = ("maps", "_key", "_hash")

    def __init__(self, maps):
        self.maps = maps
        self._key = tuple(maps.values())
        self._hash = hash(self._key)

    def __eq__(self, other):
        return isinstance(other, Element) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __mul__(self, other):
        mine = self.maps
        return Element({fam: (mine[img][0], shift + mine[img][1])
                        for fam, (img, shift) in other.maps.items()})

    def inverse(self):
        back = {img: (fam, -shift) for fam, (img, shift) in self.maps.items()}
        return Element({fam: back[fam] for fam in self.maps})

    def __pow__(self, k):
        """The k-th power by square-and-multiply, in at most 2 log2 |k|
        products; a negative power is a power of the inverse, the 0-th the
        identity over the same families."""
        if k < 0:
            return self.inverse() ** -k
        power, base = None, self
        while k:
            if k & 1:
                power = base if power is None else power * base
            k >>= 1
            if k:
                base = base * base
        return Element({fam: (fam, 0) for fam in self.maps}) if power is None else power

    def cell(self, cell):
        img, shift = self.maps[cell[0]]
        return (img, cell[1] + shift)

    def point(self, point):
        """Image of a point; interior coordinates are preserved because
        actions restrict to index shifts on each family."""
        img, shift = self.maps[point.cell[0]]
        return Point((img, point.cell[1] + shift), point.t)


def vertex_point(family, index=0):
    return Point((family, index))


_HALF = Fraction(1, 2)


def mid_point(family, index=0):
    return Point((family, index), _HALF)


def automorphism_problems(spec, gen):
    """Check that a generator element, a bijection of the families,
    preserves the model's rules; returns a list of human-readable problems
    (empty when it is an automorphism).  Limit rules must map onto limit
    rules with the same member set, so loci map to loci preserving sign.
    """
    problems = []
    for fam, (img, shift) in gen.maps.items():
        f, g = spec.families[fam], spec.families[img]
        if (f.kind, f.chain, f.glue) != (g.kind, g.chain, g.glue):
            problems.append(f"{fam} -> {img} changes kind/indexing/glue")
        if not f.chain and shift != 0:
            problems.append(f"unit family {fam} mapped with nonzero shift")
    # a rule equals the (kind, sorted targets) tuple it is, so none is built
    for (fam, end), rule in spec.ends.items():
        img, shift = gen.maps[fam]
        tgts = []
        for vfam, off in rule.targets:
            vimg, vshift = gen.maps[vfam]
            tgts.append((vimg, off + vshift - shift if spec.families[vfam].chain else off))
        if spec.ends.get((img, end)) != (rule.kind, tuple(sorted(tgts))):
            problems.append(f"{fam}.{end} does not map onto {img}.{end}")
    for (fam, side), rule in spec.chain_ends.items():
        img, _ = gen.maps[fam]
        tgts = tuple(gen.maps[v][0] for v in rule.targets)
        if spec.chain_ends.get((img, side)) != (rule.kind, tuple(sorted(tgts))):
            problems.append(f"{fam} chain end {side} does not map onto {img}")
    return problems


# ---------------------------------------------------------------------------
# branch loci


class BranchLocus(NamedTuple):
    """A set of >= 2 mutually non-separated vertices with the edge end
    (stem) whose limit set they are."""

    members: tuple           # sorted (family, index) cells
    sign: str                # "positive" | "negative"
    stem: tuple              # ("cell_end", fam, index, end) | ("chain_end", fam, side)


def edge_hops(eid, span, lo, hi, a_lo, a_hi):
    """The two hops across graph edge ``eid``, or across a split half of
    it covering the parameter ``span`` (None for the whole edge), low end
    to high end first.  A hop is (eid, span, from node, to node, from
    anchor, to anchor, ascending)."""
    return (eid, span, lo, hi, a_lo, a_hi, True), (eid, span, hi, lo, a_hi, a_lo, False)


def chain_end_ascends(glue, side):
    """True when the elided tail at the given chain side goes upward."""
    return (glue == 1) == (side == POS)


# ---------------------------------------------------------------------------
# truncation


class TruncatedEnd(NamedTuple):
    """A cut made by the depth bound, tagged with its symbolic continuation."""

    at: tuple          # (cell, side) for a vertex side, or ("chain", fam, side)
    continuation: str


class Violation(NamedTuple):
    code: str          # "germ-count" | "limit-set" | "not-a-tree" | "shape" | "mark"
    message: str


class ValidationReport(NamedTuple):
    violations: tuple
    routing_error: str | None   # what routing raises: every violation but "disconnected"

    @property
    def valid(self):
        return not self.violations


class Truncation:
    """Depth-bounded window of a model (``spec``: the frozen :class:`Model`
    it was built from, whatever becomes of the builder): concrete cells
    plus an adjacency graph whose nodes collapse branch loci (the
    Hausdorffification of the window), with elided glued-chain tails kept
    as explicit edges.  Each family's cells form one run of indices
    (``cell_runs``); the loci, graph edges, germ table and truncated ends
    are built per run, the germ table from the model's germ sources, and
    the germ-count faults that ``validate`` reports are recorded as the
    germ table fills.

    ``position`` is the window's one cell index (cell -> canonical position,
    the vertex cells below ``len(vertex_cells)``); the graph has one edge per
    edge cell, in cell order, so an edge cell's graph edge id is its position
    minus ``len(vertex_cells)``.

    Besides its structure a window keeps what queries on it reuse: its
    validation report, its canonical points, its germ table (per side of
    each vertex, the window cells that supply the germ and whether the
    side is cut, read through ``vertex_sides``), its membership sweeps
    (``sweeps``: group element -> the image relation of every canonical
    point and, per cell, the class whose one ``compare`` answered it,
    filled by :func:`leafspace.action.sweep` from ``cell_runs`` and
    ``cell_components``), the class tables those sweeps share
    (``classes``: tuple of automorphisms -> per cell, the class of the
    cells they join, so the sweeps of g, g^2, ... build one) and its
    transit table (``transits``: (entry anchor, exit anchor) at a
    collapsed locus node -> what a path gains crossing it, filled by
    :func:`leafspace.paths.path` on its first crossing).  An anchor is the
    frozenset of vertex cells that arriving at a node through one edge end
    can stand on, and ``rooting`` stores each tree edge as the two hops a
    route reads.  ``ladder``, filled in the same pass, gives each node a
    jump pointer and its count of jumps up to the root, from which
    :func:`leafspace.paths.compare` answers in O(log depth) without walking
    the route."""

    def __init__(self, spec, depth):
        self.spec = spec
        self.depth = depth
        self._build_cells()
        self._collect_loci()
        self._build_graph()
        self._fill_germs()
        self._validation, self.sweeps, self.classes, self.transits = None, {}, {}, {}

    # -- cells -----------------------------------------------------------

    def _build_cells(self):
        """Each family's window cells form one run of indices i: all of
        [-depth, depth] for a chain, 0 for a unit, cut for an unlinked edge
        family to where each chain target i + off lies in the window.  The
        cell lists and ``cell_runs`` are laid out from the runs, vertex
        families first and each kind by name: ``cell_runs`` maps each family
        with cells to (first canonical position, first i, last i), and
        ``position`` each cell to its canonical position."""
        spec, d = self.spec, self.depth
        families, ends = spec.families, spec.ends
        runs = ([], [])         # (name, lo, hi) of vertex families, then of edge families
        for name, fam in sorted(families.items()):
            lo, hi = (-d, d) if fam.chain else (0, 0)
            edge = fam.kind != "vertex"
            if edge and fam.glue is None:
                for end in (LOW, HIGH):
                    rule = ends.get((name, end))
                    for vfam, off in rule.targets if rule else ():
                        if families[vfam].chain:
                            lo, hi = max(lo, -d - off), min(hi, d - off)
            if lo <= hi:
                runs[edge].append((name, lo, hi))
        self.vertex_cells, self.edge_cells = (
            [(name, i) for name, lo, hi in kind for i in range(lo, hi + 1)] for kind in runs)
        self.cell_runs, start = {}, 0
        for name, lo, hi in runs[0] + runs[1]:
            self.cell_runs[name] = start, lo, hi
            start += hi - lo + 1
        self.position = dict(zip(self.vertex_cells + self.edge_cells, range(start)))

    def has_vertex(self, cell):
        return 0 <= self.position.get(cell, -1) < len(self.vertex_cells)

    def has_edge(self, cell):
        return self.position.get(cell, -1) >= len(self.vertex_cells)

    def contains_point(self, p):
        k = self.position.get(p.cell, -1)
        return k >= len(self.vertex_cells) if p.t is not None else 0 <= k < len(self.vertex_cells)

    @cached_property
    def canonical_points(self):
        """One representative point per window cell: the vertex itself, or
        the edge midpoint (comparability is constant on cell interiors under
        shift actions)."""
        return (tuple(vertex_point(*c) for c in self.vertex_cells)
                + tuple(mid_point(*c) for c in self.edge_cells))

    def require_point(self, p):
        if not self.contains_point(p):
            raise PointOutOfRange(f"{p} is not in the depth-{self.depth} window")

    # -- loci --------------------------------------------------------------

    def _collect_loci(self):
        # A locus is present once all its members are in the window; its
        # stem edge may lie beyond the cut (the members are non-separated
        # regardless, and collapsing them is what keeps boundary windows
        # connected).  A limit rule's stems i form one run, cut to where each
        # chain member i + off is in the window; each run comes sorted, and
        # the one sort merges them.
        spec, d, families = self.spec, self.depth, self.spec.families
        loci = []
        for (fam, end), rule in spec.ends.items():
            if rule.kind != "limit" or len(rule.targets) < 2:
                continue
            offsets = [off for _, off in rule.targets]
            lo, hi = (-d - max(offsets), d - min(offsets)) if families[fam].chain else (0, 0)
            for v, off in rule.targets:
                if families[v].kind != "vertex":
                    lo = hi + 1
                elif families[v].chain:
                    lo, hi = max(lo, -d - off), min(hi, d - off)
            idx, sign = range(lo, hi + 1), POSITIVE if end == HIGH else NEGATIVE
            members = zip(*[[(v, i + off) for i in idx] if families[v].chain
                            else [(v, 0)] * len(idx) for v, off in rule.targets])
            loci += map(BranchLocus, members, [sign] * len(idx),
                        [("cell_end", fam, i, end) for i in idx])
        for (fam, side), rule in spec.chain_ends.items():
            if rule.kind != "limit" or len(rule.targets) < 2:
                continue
            members = tuple(sorted((v, 0) for v in rule.targets))
            sign = POSITIVE if chain_end_ascends(families[fam].glue, side) else NEGATIVE
            loci.append(BranchLocus(members, sign, ("chain_end", fam, side)))
        loci.sort(key=itemgetter(0, 2))     # by (members, stem)
        self.loci = tuple(loci)

        # The mate graph: member -> sorted [(mate, locus index)].  Loci that
        # share a member (a vertex may sit in a positive and a negative locus
        # on its two sides) are one node of the Hausdorffification, named by
        # the first, hence smallest, locus index whose walk reaches it.
        self._mates = {}
        for li, locus in enumerate(loci):
            for m in locus.members:
                for m2 in locus.members:
                    if m2 != m:
                        self._mates.setdefault(m, []).append((m2, li))
        for m in self._mates:
            self._mates[m].sort()
        self._locus_group = {}        # vertex cell -> group id (min locus index)
        for li, locus in enumerate(loci):
            frontier = list(locus.members)
            while frontier:
                m = frontier.pop()
                if m not in self._locus_group:
                    self._locus_group[m] = li
                    frontier.extend(mate for mate, _ in self._mates.get(m, ()))

    # -- graph --------------------------------------------------------------

    def vertex_node(self, vcell):
        gid = self._locus_group.get(vcell)
        return ("locus", gid) if gid is not None else ("vertex",) + vcell

    def _build_graph(self):
        # One edge per window edge cell, in cell order, from its low end's
        # node to its high end's, then one per limit chain end.  An end's
        # anchor is the frozenset of vertex cells that arriving at the node
        # through it can stand on: the glued vertex, or every member of the
        # limit set; None for glue junctions, cuts and open leaves.
        spec, d, group, families = self.spec, self.depth, self._locus_group, self.spec.families
        edges = []      # (payload, lo_node, hi_node, anchor_lo, anchor_hi)
        for fam, (_, lo, hi) in self.cell_runs.items():
            f = families[fam]
            if f.kind == "vertex":
                continue
            if f.glue is not None:      # cell i meets cell i + 1 at ("glue", fam, i), or at a cut
                for i in range(lo, hi + 1):
                    below = ("glue", fam, i - 1) if i > -d else ("cut", fam, NEG)
                    above = ("glue", fam, i) if i < d else ("cut", fam, POS)
                    edges.append((("cell", fam, i), below, above, None, None) if f.glue == 1
                                 else (("cell", fam, i), above, below, None, None))
                continue
            rules = ((1, LOW, spec.ends.get((fam, LOW))), (2, HIGH, spec.ends.get((fam, HIGH))))
            for i in range(lo, hi + 1):
                edge = [("cell", fam, i), None, None, None, None]
                for k, end, rule in rules:
                    if rule is None or rule.kind == "open":
                        edge[k] = ("open", fam, i, end)
                        continue
                    cells = [(v, i + off) if families[v].chain else (v, 0)
                             for v, off in rule.targets]
                    c = cells[0]
                    edge[k] = ("locus", group[c]) if c in group else ("vertex",) + c
                    edge[k + 2] = frozenset(cells[:1] if rule.kind == "vertex" else cells)
                edges.append(tuple(edge))
        for (fam, side), rule in sorted(spec.chain_ends.items()):
            if rule.kind != "limit":
                continue
            cut = ("cut", fam, side)
            cells = [(v, 0) for v in rule.targets]
            target, anchor = self.vertex_node(cells[0]), frozenset(cells)
            if chain_end_ascends(families[fam].glue, side):
                edges.append((("tail", fam, side), cut, target, None, anchor))
            else:
                edges.append((("tail", fam, side), target, cut, anchor, None))
        self.graph_edges = tuple(edges)
        adj = {}
        for eid, (payload, lo, hi, _, _) in enumerate(edges):
            adj.setdefault(lo, []).append((eid, hi))
            adj.setdefault(hi, []).append((eid, lo))
        for vcell in self.vertex_cells:
            adj.setdefault(("locus", group[vcell]) if vcell in group else ("vertex",) + vcell, [])
        self.adjacency = adj
        # Root every component at its smallest node: node -> (parent node,
        # id of the edge to the parent, depth, hop up to the parent, hop
        # down from it), with (None, None, 0, None, None) at a root.  On a
        # tree each route appends these hops up to the meeting node; on a
        # cyclic graph they span a forest whose roots still count the
        # components.  Each root is followed by the rest of its component.
        # The same pass reaches every parent before its children and fills
        # ``ladder``: node -> (jump pointer, jumps from the root).  The jump
        # pointer (Myers, 1983) skips to the parent's second jump when the
        # parent's two jumps span equal depths, else to the parent, so any
        # ancestor is O(log depth) jumps away.  The count sums, over the
        # proper ancestors but the root, the jumps made crossing from the
        # child on the path into the ancestor's own parent edge: at a locus
        # node whose two anchors share no vertex.
        rooting, ladder, self.components = {}, {}, 0

        def roots():    # the least node, then the nodes left unrooted, sorted
            if adj:
                yield min(adj)
            if len(rooting) < len(adj):
                yield from sorted(node for node in adj if node not in rooting)
        for root in roots():
            if root in rooting:
                continue
            self.components += 1
            rooting[root] = (None, None, 0, None, None)
            ladder[root] = (root, 0)
            frontier = [root]
            while frontier:
                node = frontier.pop()
                _, _, depth, node_up, _ = rooting[node]
                jump, jumps = ladder[node]
                far = ladder[jump][0]
                equal = depth - rooting[jump][2] == rooting[jump][2] - rooting[far][2]
                jump = far if equal else node
                depth += 1
                for eid, other in adj[node]:
                    if other not in rooting:
                        _, lo, hi, a_lo, a_hi = edges[eid]
                        ascending, descending = edge_hops(eid, None, lo, hi, a_lo, a_hi)
                        hops = (ascending, descending) if other == lo else (descending, ascending)
                        rooting[other] = (node, eid, depth) + hops
                        jumped = (node_up is not None and node[0] == "locus"
                                  and hops[0][5].isdisjoint(node_up[4]))
                        ladder[other] = (jump, jumps + jumped)
                        frontier.append(other)
        self.rooting = rooting
        self.ladder = ladder

    @cached_property
    def cell_components(self):
        """Per canonical position, the component of the window forest
        holding the cell, numbered in the order of the roots in ``rooting``."""
        component, count = {}, -1
        for node, hops in self.rooting.items():
            if hops[0] is None:
                count += 1
            component[node] = count
        return ([component[self.vertex_node(c)] for c in self.vertex_cells]
                + [component[edge[1]] for edge in self.graph_edges[:len(self.edge_cells)]])

    # -- germs and truncated ends --------------------------------------------

    def _fill_germs(self):
        """The germ table, per vertex family run with the sources of each
        side looked up once: (vertex cell, side) -> (the window cells that
        supply the germ, cut), as ``vertex_sides`` returns it; a glued
        chain's tail supplies its last window cell.  Every source, in the
        window or not, counts toward the germ-count faults, and each edge
        cell beyond the window is a truncated end."""
        families, at, nv = self.spec.families, self.position.get, len(self.vertex_cells)
        d, sources, table = self.depth, self.spec._sources, {}
        self._germs, self._germ_faults, ends, vfam = table, [], [], None
        for vcell in self.vertex_cells:
            if vcell[0] != vfam:        # the next family's run
                vfam, vchain = vcell[0], families[vcell[0]].chain
                found = ((LOW, sources.get((vfam, LOW), ())), (HIGH, sources.get((vfam, HIGH), ())))
            for side, side_sources in found:
                nbrs, beyond, every = (), 0, False
                for kind, efam, arg in side_sources:
                    echain = kind == "chain" or families[efam].chain
                    if kind == "chain":
                        nbrs += ((efam, -d if arg == NEG else d),)
                    elif echain and not vchain:
                        beyond, every = beyond + 1, True
                    elif echain or not vchain or arg == vcell[1]:
                        cell = (efam, vcell[1] - arg if echain else 0)
                        if at(cell, -1) >= nv:
                            nbrs += (cell,)
                        else:
                            beyond += 1
                            ends.append(TruncatedEnd((vcell, side), f"edge {efam}[{cell[1]}]"))
                table[vcell, side] = nbrs, beyond > 0 or not nbrs
                if every or len(nbrs) + beyond != 1:
                    self._germ_faults.append(_germ_fault(vcell, side, len(nbrs) + beyond, every))
        ends.sort()     # vertex sides, by cell, high before low
        for name in self.cell_runs:     # glued chains, by name
            for side in (NEG, POS) if families[name].glue is not None else ():
                # a missing rule is a shape violation validate() reports
                rule = self.spec.chain_ends.get((name, side), ChainEndRule("open"))
                nxt = -self.depth - 1 if side == NEG else self.depth + 1
                tail = "open" if rule.kind == "open" else "limit {%s}" % ",".join(rule.targets)
                ends.append(TruncatedEnd(("chain", name, side), f"{name}[{nxt}] ... then {tail}"))
        self.truncated_ends = tuple(ends)
        self.has_truncation = bool(self.truncated_ends)

    # -- cell adjacency (for sweeps) -----------------------------------------

    def vertex_sides(self, vcell):
        """Per side of a window vertex, low then high: (the window cells
        whose germ it is, cut), where cut says that a germ of that side lies
        beyond the window, or that none is supplied."""
        return self._germs[vcell, LOW], self._germs[vcell, HIGH]

    @cached_property
    def _edge_vertices(self):
        """Window edge cell -> the window vertices it supplies a germ to."""
        inverse = {}
        for vcell in self.vertex_cells:
            for nbrs, _ in self.vertex_sides(vcell):
                for edge in nbrs:
                    inverse.setdefault(edge, []).append(vcell)
        return inverse

    def cell_neighbors(self, cell):
        """Cells incident to the given cell, read off the germ table: a
        vertex's germ providers, or an edge cell's vertices and the cells
        glued to it; symmetric by construction."""
        if self.has_vertex(cell):
            return sorted({nbr for nbrs, _ in self.vertex_sides(cell) for nbr in nbrs})
        out = set(self._edge_vertices.get(cell, ()))
        fam, i = cell
        if self.spec.families[fam].glue is not None:
            out.update(c for c in ((fam, i - 1), (fam, i + 1)) if self.has_edge(c))
        return sorted(out)


# ---------------------------------------------------------------------------
# operations


def expand(spec, depth):
    """Instantiate the depth-bounded window of a model, or of a builder's
    model as ``LeafSpaceSpec._frozen`` finds it (kept on the builder only by
    ``freeze``).  Monotone: every cell and attachment present at depth d
    appears unchanged at depth d+1.  A depth that is not an int in
    [0, ``DEPTH_LIMIT``] raises BadOffset before any cell is built."""
    if type(depth) is not int:
        raise BadOffset(f"depth {depth!r} is not an integer")
    if depth < 0:
        raise BadOffset("depth must be non-negative")
    if depth > DEPTH_LIMIT:
        raise BadOffset(f"depth {depth} exceeds the limit of {DEPTH_LIMIT}")
    model = spec._frozen()
    model.check_wellformed()
    return Truncation(model, depth)


def _germ_fault(vcell, side, count, every):
    """The fault of a vertex side with ``count`` germs but one, or with a
    germ from every cell of a chain (``every``)."""
    if every:
        return f"{vcell[0]}[{vcell[1]}] {side} side receives one germ per chain index"
    return f"{vcell[0]}[{vcell[1]}] has {count} germs on its {side} side"


def validate(trunc):
    """Report violations of the 1-manifold contract; never raises.

    Checks: (a) every vertex has exactly one germ on each side, (b) limit
    sets are sane (no duplicates, chain-end limits target unit vertices),
    (c) the Hausdorffification of the window is a tree, (d) family and
    rule shapes are orientation-consistent.
    """
    spec = trunc.spec
    violations, marks = spec._violations
    violations = list(violations)       # (d) shapes, then (b) limit sets

    def bad(code, msg):
        violations.append(Violation(code, msg))

    # (a) germ counts, schematic over the window, recorded as its germ table filled
    violations += [Violation("germ-count", problem) for problem in trunc._germ_faults]

    # (c) tree check on the window graph
    n_nodes = len(trunc.adjacency)
    n_edges = len(trunc.graph_edges)
    components = trunc.components
    for payload, lo, hi, _, _ in trunc.graph_edges:
        if lo == hi:
            bad("not-a-tree", f"edge {payload} closes a loop at {lo}")
    if components > 1:
        bad("disconnected", f"window graph falls into {components} components")
    if n_edges != n_nodes - components:
        bad("not-a-tree",
            f"window graph has {n_edges} edges on {n_nodes} nodes "
            f"in {components} components")

    violations += marks
    routing_error = "; ".join(v.message for v in violations if v.code != "disconnected")
    trunc._validation = ValidationReport(tuple(violations), routing_error or None)
    return trunc._validation


def cached_validation(trunc):
    """The window's validation report, computed at most once."""
    return trunc._validation or validate(trunc)


def require_valid(trunc):
    report = cached_validation(trunc)
    if not report.valid:
        raise InvalidModel("; ".join(v.message for v in report.violations))
    return trunc


def require_routable(trunc):
    """Routing needs a sound acyclic window; a disconnected one is fine
    (the missing connections lie beyond the depth bound and route
    searches report Truncated instead)."""
    error = cached_validation(trunc).routing_error
    if error:
        raise InvalidModel(error)
    return trunc


def branch_loci(trunc):
    """Branch loci visible in the window, deterministically ordered."""
    require_valid(trunc)
    return list(trunc.loci)


class HausdorffTree(NamedTuple):
    """The window graph with each branch locus collapsed to one node."""

    nodes: tuple
    edges: tuple         # (payload, lo_node, hi_node)
    vertex_projection: dict
    edge_projection: dict


def hausdorffify(trunc):
    require_valid(trunc)
    return HausdorffTree(
        nodes=tuple(sorted(trunc.adjacency)),
        edges=tuple((p, lo, hi) for p, lo, hi, _, _ in trunc.graph_edges),
        vertex_projection={v: trunc.vertex_node(v) for v in trunc.vertex_cells},
        edge_projection={cell: ("cell",) + cell for cell in trunc.edge_cells},
    )


# The builder and the frozen model live in leafspace.model, which reads
# this module's records and ``expand``; they are named here too, where the
# package has always exported them.
from .model import WINDOW_CACHE, LeafSpaceSpec, Model  # noqa: E402
