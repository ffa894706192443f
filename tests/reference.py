"""The kept references: each an older or plainer computation of what the
library computes, that a test checks the library against.

Each reference is the algorithm as it was before the library's faster
form replaced it (or a direct scan where the library reads a table), so
it shares no table with the code under test.  What a reference computes
per window but not per pair (the jump chains and the transit pieces of
the reference lift) is kept per window in ``_KEPT``.

``tests/bruteforce.py`` is the other independent check: an oracle that
enumerates arcs on unit-only models, also used by perfbench.
"""

import weakref
from fractions import Fraction

from leafspace import paths as paths_mod
from leafspace.action import (
    ElementProfile,
    Word,
    _entry,
    _fixed_cells,
    _membership,
    _same_glued_chain_relation,
    act,
    act_locus,
    branching_type,
    canonical_points,
    sweep,
    word_map,
)
from leafspace.checkers import (
    CHECKERS,
    PAIR_SEARCH_LIMIT,
    PASS,
    TRUNCATED,
    VIOLATION,
    CheckReport,
    StabilizerBall,
    _basic_words,
)
from leafspace.core import (
    HIGH,
    LOW,
    NEG,
    NEGATIVE,
    POS,
    POSITIVE,
    BranchLocus,
    ChainEndRule,
    InvalidModel,
    LeafSpaceError,
    Point,
    PreconditionFailed,
    Tri,
    TruncatedEnd,
    TruncatedError,
    ValidationReport,
    Violation,
    branch_loci,
    chain_end_ascends,
    edge_hops,
    expand,
    mid_point,
    require_routable,
    require_valid,
    validate,
    vertex_point,
)
from leafspace.formats import SemanticError
from leafspace.paths import (
    ASC,
    COMPARABLE,
    Comparability,
    Interval,
    Path,
    PathJunction,
    compare,
    path,
)

from conftest import act_cell


_KEPT = weakref.WeakKeyDictionary()     # window -> {key: what a reference keeps for it}


# -- words and their actions ----------------------------------------------------


def reduced_words(names, max_len, include_identity=True):
    """Reference enumeration: every reduced word of length <= max_len
    over ``names`` in shortlex order (shorter first, generators by name,
    each letter before its inverse), built layer by layer without maps."""
    alphabet = [(n, e) for n in sorted(names) for e in (1, -1)]
    words = [Word.identity()] if include_identity else []
    layer = [()]
    for _ in range(max_len):
        layer = [letters + (let,) for letters in layer for let in alphabet
                 if not letters or letters[-1] != (let[0], -let[1])]
        words.extend(Word(letters) for letters in layer)
    return words


def reference_word_map(spec, word):
    """Reference composition: a word's action as a dict family -> (image
    family, shift), built one letter at a time from the generator maps
    (letters apply right to left), with each inverse read off the map
    itself rather than from ``Element.inverse``."""
    total = {fam: (fam, 0) for fam in spec.families}
    for name, exp in reversed(word.letters):
        maps = spec.generators[name].maps
        step = maps if exp == 1 else {img: (fam, -shift) for fam, (img, shift) in maps.items()}
        total = {fam: (step[img][0], shift + step[img][1])
                 for fam, (img, shift) in total.items()}
    return total


# -- membership, point by point ----------------------------------------------------


def image_relation(spec, trunc, point, image):
    """Comparability of a point with its image, or None when the window
    cannot decide it: ``compare`` when the image lies in the window, else
    the order of a glued chain holding both."""
    if trunc.contains_point(image):
        rel = compare(trunc, point, image)
        return None if rel is Comparability.TRUNCATED else rel
    return _same_glued_chain_relation(spec, point, image)


def reference_relation(trunc, elem, point):
    """The per-point rule: the image relation of one window point, decided
    by its own ``compare`` when the image lies in the window."""
    return image_relation(trunc.spec, trunc, point, elem.point(point))


def reference_sweep(trunc, elem):
    """The sweep point by point: ``reference_relation`` at every canonical
    point."""
    return tuple(reference_relation(trunc, elem, p) for p in trunc.canonical_points)


def reference_classify_element(spec, word, depth):
    """classify_element as it was before the sweep table: one image
    relation per canonical point (``reference_sweep``), scanned in a loop."""
    trunc = spec.window(depth)
    require_valid(trunc)
    elem = word_map(spec, word)
    fixed = _fixed_cells(trunc, elem)
    tan_witness = None
    for cell in fixed:
        tan_witness = (vertex_point(*cell) if trunc.has_vertex(cell) else mid_point(*cell))
        break
    pos_witness = neg_witness = None
    tainted = trunc.has_truncation
    for p, rel in zip(canonical_points(trunc), reference_sweep(trunc, elem)):
        if rel is None:
            tainted = True
        elif rel is Comparability.LESS and pos_witness is None:
            pos_witness = p
        elif rel is Comparability.GREATER and neg_witness is None:
            neg_witness = p
    return ElementProfile(
        word, depth,
        tangentiable=_entry(tan_witness, tainted),
        pos_transversable=_entry(pos_witness, tainted),
        neg_transversable=_entry(neg_witness, tainted),
    )


# -- routes, lifts and compare ---------------------------------------------------------
#
# The route, the lift and ``compare`` as they were before routes found their
# meeting node by jump pointers, before each window kept a transit table
# (every crossing of a collapsed node re-runs the jump search and builds its
# points, junctions and degenerate intervals afresh) and before ``compare``
# read prefix counts.  The reference keeps each crossing's pieces per window
# and anchor pair instead: they depend on nothing else.

_REF_PT = (("pt", 0), ("pt", 1))
_UNROUTED = object()        # no route given: the reference routes the pair itself


def reference_route(trunc, x, y):
    """The route climbing one node at a time: the deeper end (x's on a tie)
    takes its stored hop up, and a point inside an edge cell is a ("pt", k)
    node that re-hangs its edge's child end below itself."""
    if not x.is_vertex and not y.is_vertex and x.cell == y.cell:
        (s, a), (t, b) = sorted(((x.t, _REF_PT[0]), (y.t, _REF_PT[1])))
        eid = trunc.position[x.cell] - len(trunc.vertex_cells)
        ascending, descending = edge_hops(eid, (s, t), a, b, None, None)
        return [ascending if a == _REF_PT[0] else descending]
    rooting, edges = trunc.rooting, trunc.graph_edges
    moved = {}      # node -> (hop up, hop down) where a split edge re-hangs it
    level = {}      # ("pt", k) -> doubled depth, between its edge's two ends
    ends = []
    for pt, point in zip(_REF_PT, (x, y)):
        if point.is_vertex:
            ends.append(trunc.vertex_node(point.cell))
            continue
        eid = trunc.position[point.cell] - len(trunc.vertex_cells)
        _, lo, hi, a_lo, a_hi = edges[eid]
        low = edge_hops(eid, (Fraction(0), point.t), lo, pt, a_lo, None)
        high = edge_hops(eid, (point.t, Fraction(1)), pt, hi, None, a_hi)
        if rooting[lo][1] == eid:
            moved[pt], moved[lo], parent = high, low, hi
        else:
            moved[pt], moved[hi], parent = low[::-1], high[::-1], lo
        level[pt] = 2 * rooting[parent][2] + 1
        ends.append(pt)
    a, b = ends
    route, tail = [], []
    while a != b:
        climb_a = (level[a] if a in level else 2 * rooting[a][2]) >= \
            (level[b] if b in level else 2 * rooting[b][2])
        node = a if climb_a else b
        up, down = moved.get(node) or rooting[node][3:]
        if up is None:
            return None
        if climb_a:
            route.append(up)
            a = up[3]
        else:
            tail.append(down)
            b = up[3]
    route.extend(reversed(tail))
    return route


def _reference_jump_chain(trunc, entry, exit_):
    """The reference jump search, run once per window and anchor pair: its
    chain depends on nothing else."""
    kept = _KEPT.setdefault(trunc, {})
    key = ("chain", entry, exit_)
    if key not in kept:
        kept[key] = _reference_jump_search(trunc, entry, exit_)
    return kept[key]


def _reference_jump_search(trunc, entry, exit_):
    starts = sorted(entry)
    goals = set(exit_)
    shared = sorted(set(starts) & goals)
    if shared:
        return [shared[0]]
    parent = {c: None for c in starts}
    frontier = list(starts)
    hit = None
    while frontier and hit is None:
        nxt = []
        for c in frontier:
            for mate, _li in trunc._mates.get(c, ()):
                if mate not in parent:
                    parent[mate] = c
                    if mate in goals and hit is None:
                        hit = mate
                    nxt.append(mate)
        frontier = nxt
    if hit is None:
        raise InvalidModel("branch loci at a collapsed node are not jump-connected")
    chain = [hit]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])
    chain.reverse()
    return chain


def _reference_common_locus(trunc, a, b):
    """The smallest index of a locus holding both vertices, by a scan of
    every locus."""
    return min(li for li, locus in enumerate(trunc.loci)
               if a in locus.members and b in locus.members)


def _reference_transit(trunc, entry, exit_):
    """The pieces of one crossing, built from its jump chain: the first
    point, the junctions between consecutive members, a degenerate interval
    at each member strictly inside the chain, and the last point."""
    chain = _reference_jump_chain(trunc, entry, exit_)
    junctions = tuple(PathJunction(Point(a), Point(b),
                                   trunc.loci[_reference_common_locus(trunc, a, b)])
                      for a, b in zip(chain, chain[1:]))
    between = tuple(Interval(Point(b), Point(b), ASC, (("vertex",) + b,)) for b in chain[1:-1])
    return Point(chain[0]), junctions, between, Point(chain[-1])


class _ReferenceBuilder:
    def __init__(self, trunc, start):
        self.trunc = trunc
        self.intervals = []
        self.junctions = []
        self.steps = [("vertex",) + start.cell] if start.is_vertex else []
        self.start = start
        self.direction = None
        self.kept = _KEPT.setdefault(trunc, {})

    def vertex_step(self, cell):
        step = ("vertex",) + cell
        if not self.steps or self.steps[-1] != step:
            self.steps.append(step)

    def close(self, end):
        self.intervals.append(Interval(
            self.start, end, self.direction or ASC, tuple(self.steps)))

    def transit(self, entry, exit_):
        key = ("transit", entry, exit_)
        pieces = self.kept.get(key)
        if pieces is None:
            pieces = self.kept[key] = _reference_transit(self.trunc, entry, exit_)
        first, junctions, between, last = pieces
        self.vertex_step(first.cell)
        if not junctions:
            return
        self.close(first)
        self.junctions += junctions
        self.intervals += between
        self.start = last
        self.steps = [("vertex",) + last.cell]
        self.direction = None

    def traverse(self, eid, span, ascending):
        direction = ASC if ascending else "descending"
        if self.direction is None:
            self.direction = direction
        elif self.direction != direction:
            raise InvalidModel("route lift is not monotone between junctions")
        payload = self.trunc.graph_edges[eid][0]
        if payload[0] == "tail":
            self.steps.append(payload)
        else:
            lo_t, hi_t = span or (paths_mod._ZERO, paths_mod._ONE)
            self.steps.append(("edge", payload[1], payload[2], lo_t, hi_t))


def _reference_path(trunc, x, y, route=_UNROUTED):
    if x == y:
        steps = (("vertex",) + x.cell,) if x.is_vertex else (("edge",) + x.cell + (x.t, x.t),)
        return Path((Interval(x, x, ASC, steps),), ())
    if route is _UNROUTED:
        route = reference_route(trunc, x, y)
    if route is None:
        raise TruncatedError("no route")
    builder = _ReferenceBuilder(trunc, x)
    pending = frozenset((x.cell,)) if x.is_vertex else None
    for eid, span, frm, _, a_frm, a_to, ascending in route:
        if frm[0] == "locus":
            builder.transit(pending, a_frm)
        elif frm[0] == "vertex":
            builder.vertex_step(frm[1:])
        builder.traverse(eid, span, ascending)
        pending = a_to
    final = ("pt", 1) if not y.is_vertex else trunc.vertex_node(y.cell)
    if final[0] == "locus":
        builder.transit(pending, frozenset((y.cell,)))
        builder.vertex_step(y.cell)
    elif final[0] == "vertex":
        builder.vertex_step(y.cell)
    builder.close(y)
    return Path(tuple(builder.intervals), tuple(builder.junctions))


def reference_compare(trunc, x, y, route=_UNROUTED):
    """compare as it was before each window kept jump pointers and prefix
    counts: the route walked hop by hop, the first jump making the points
    incomparable and a hop against the first hop's direction raising."""
    trunc.require_point(x)
    trunc.require_point(y)
    require_routable(trunc)
    if x == y:
        return Comparability.EQUAL
    if route is _UNROUTED:
        route = reference_route(trunc, x, y)
    if route is None:
        return Comparability.TRUNCATED
    ascending = route[0][6] if route else None
    pending = frozenset((x.cell,)) if x.is_vertex else None
    for _, _, frm, _, a_frm, a_to, up in route:
        if frm[0] == "locus" and pending.isdisjoint(a_frm):
            return Comparability.INCOMPARABLE
        if up is not ascending:
            raise InvalidModel("route lift is not monotone between junctions")
        pending = a_to
    if y.is_vertex and trunc.vertex_node(y.cell)[0] == "locus" and y.cell not in pending:
        return Comparability.INCOMPARABLE
    return Comparability.LESS if ascending else Comparability.GREATER


def _reference_sample_points(p):
    """sample_points as it was, deduplicating over a list."""
    seen = []

    def add(pt):
        if pt not in seen:
            seen.append(pt)

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
    return seen


# -- window tables -------------------------------------------------------------------


def reference_cells(trunc):
    """The window's cells found one cell at a time, as before the family
    runs: each end-rule target of each unlinked edge cell is tested for the
    window, and both lists are sorted.  The per-family runs and the
    positions are then read back off the flat lists, as the first sweep of
    a window once did.  Returns (vertex cells, edge cells, runs, position)."""
    spec, depth = trunc.spec, trunc.depth
    vertex_cells, edge_cells = [], []
    for name in sorted(spec.families):
        fam = spec.families[name]
        cells = [(name, i) for i in (range(-depth, depth + 1) if fam.chain else (0,))]
        if fam.kind == "vertex":
            vertex_cells.extend(cells)
        elif fam.glue is not None:
            edge_cells.extend(cells)
        else:
            for cell in cells:
                ok = True
                for end in (LOW, HIGH):
                    rule = spec.ends.get((name, end))
                    if rule is None:
                        continue
                    for vfam, off in rule.targets:
                        if spec.families[vfam].chain:
                            j = cell[1] + off if fam.chain else off
                            if abs(j) > depth:
                                ok = False
                if ok:
                    edge_cells.append(cell)
    vertex_cells.sort()
    edge_cells.sort()
    cells = vertex_cells + edge_cells
    position, first = {c: k for k, c in enumerate(cells)}, dict(reversed(cells))
    runs = {fam: (position[fam, first[fam]], first[fam], last)
            for fam, last in dict(cells).items()}
    return vertex_cells, edge_cells, runs, position


# -- window construction, as before the family runs ----------------------------


def _reference_spec_germ_providers(spec, sources, vcell, side, edges):
    """``LeafSpaceSpec.germ_providers`` as it was: (provider, in window)
    pairs for one side of a vertex cell."""
    vfam, j = vcell
    vchain = spec.families[vfam].chain
    out = []
    for kind, efam, arg in sources.get((vfam, side), ()):
        if kind == "chain":
            out.append((("chain", efam, arg), True))
        elif not spec.families[efam].chain:
            if not vchain or arg == j:
                out.append((("cell", efam, 0), (efam, 0) in edges))
        elif vchain:
            out.append((("cell", efam, j - arg), (efam, j - arg) in edges))
        else:
            out.append((("cell-every", efam), False))
    return out


class _ReferenceWindow:
    """The graph, loci, germ table and truncated ends of a window built as
    ``Truncation`` built them before the family runs: one end of one edge
    cell at a time, loci per stem index and sorted, and a rescan of every
    vertex side.  Reads only the window's cells."""

    def __init__(self, trunc):
        self.spec = trunc.spec
        self.depth = trunc.depth
        self.vertex_cells, self.edge_cells = trunc.vertex_cells, trunc.edge_cells
        self._vertex_set, self._edge_set = set(trunc.vertex_cells), set(trunc.edge_cells)
        self._collect_loci()
        self._build_graph()
        self._scan_truncated_ends()

    def _target_index(self, efam, i, vfam, off):
        """Concrete index of a per-cell attachment target."""
        if not self.spec.families[vfam].chain:
            return 0
        return i + off if self.spec.families[efam].chain else off

    def _collect_loci(self):
        # A locus is present once all its members are in the window; its
        # stem edge may lie beyond the cut (the members are non-separated
        # regardless, and collapsing them is what keeps boundary windows
        # connected).
        spec = self.spec
        loci = []
        for (fam, end), rule in sorted(spec.ends.items()):
            if rule.kind != "limit" or len(rule.targets) < 2:
                continue
            offsets = [off for _, off in rule.targets]
            if spec.families[fam].chain:
                stem_indices = range(-self.depth - max(offsets),
                                     self.depth - min(offsets) + 1)
            else:
                stem_indices = (0,)
            for i in stem_indices:
                members = tuple(sorted(
                    (v, self._target_index(fam, i, v, off)) for v, off in rule.targets))
                if all(m in self._vertex_set for m in members):
                    sign = POSITIVE if end == HIGH else NEGATIVE
                    loci.append(BranchLocus(members, sign, ("cell_end", fam, i, end)))
        for (fam, side), rule in sorted(spec.chain_ends.items()):
            if rule.kind != "limit" or len(rule.targets) < 2:
                continue
            members = tuple(sorted((v, 0) for v in rule.targets))
            glue = spec.families[fam].glue
            sign = POSITIVE if chain_end_ascends(glue, side) else NEGATIVE
            loci.append(BranchLocus(members, sign, ("chain_end", fam, side)))
        loci.sort(key=lambda b: (b.members, b.stem))
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

    def vertex_node(self, vcell):
        gid = self._locus_group.get(vcell)
        return ("locus", gid) if gid is not None else ("vertex",) + vcell

    def _resolve_cell_end(self, cell, end):
        """(node, anchor) for one end of an in-window edge cell.

        The anchor is the frozenset of vertex cells that arriving at the
        node through this end can stand on: the glued vertex, or every
        member of the limit set (a locus stem reaches any member); None
        for structural nodes (glue junctions, cuts, open leaves).
        """
        fam, i = cell
        f = self.spec.families[fam]
        if f.glue is not None:
            up_is_next = f.glue == 1
            if (end == HIGH) == up_is_next:
                nbr = i + 1
                junction = ("glue", fam, i)
            else:
                nbr = i - 1
                junction = ("glue", fam, i - 1)
            if abs(nbr) <= self.depth:
                return junction, None
            side = POS if nbr > 0 else NEG
            return ("cut", fam, side), None
        rule = self.spec.ends.get((fam, end))
        if rule is None or rule.kind == "open":
            return ("open", fam, i, end), None
        cells = [(v, self._target_index(fam, i, v, off)) for v, off in rule.targets]
        return self.vertex_node(cells[0]), frozenset(cells[:1] if rule.kind == "vertex" else cells)

    def _build_graph(self):
        edges = []      # (payload, lo_node, hi_node, anchor_lo, anchor_hi)
        for cell in self.edge_cells:
            lo_node, lo_anchor = self._resolve_cell_end(cell, LOW)
            hi_node, hi_anchor = self._resolve_cell_end(cell, HIGH)
            edges.append((("cell",) + cell, lo_node, hi_node, lo_anchor, hi_anchor))
        for (fam, side), rule in sorted(self.spec.chain_ends.items()):
            if rule.kind != "limit":
                continue
            glue = self.spec.families[fam].glue
            cut = ("cut", fam, side)
            cells = [(v, 0) for v in rule.targets]
            target, anchor = self.vertex_node(cells[0]), frozenset(cells)
            if chain_end_ascends(glue, side):
                edges.append((("tail", fam, side), cut, target, None, anchor))
            else:
                edges.append((("tail", fam, side), target, cut, anchor, None))
        edges.sort(key=lambda e: e[0])
        self.graph_edges = tuple(edges)
        # edge cell -> id of its graph edge
        self.edge_index = {e[0][1:]: eid for eid, e in enumerate(edges) if e[0][0] == "cell"}
        adj = {}
        for eid, (payload, lo, hi, _, _) in enumerate(edges):
            adj.setdefault(lo, []).append((eid, hi))
            adj.setdefault(hi, []).append((eid, lo))
        for vcell in self.vertex_cells:
            adj.setdefault(self.vertex_node(vcell), [])
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
        rooting, ladder = {}, {}
        for root in sorted(adj):
            if root in rooting:
                continue
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
        self.components = sum(1 for r in rooting.values() if r[0] is None)

    def _scan_truncated_ends(self):
        spec = self.spec
        sources = spec.germ_sources()
        self._germs = {(vcell, side): _reference_spec_germ_providers(
            spec, sources, vcell, side, self._edge_set)
                       for vcell in self.vertex_cells for side in (LOW, HIGH)}
        ends = []
        for (vcell, side), providers in self._germs.items():
            for provider, in_window in providers:
                if not in_window and provider[0] == "cell":
                    ends.append(TruncatedEnd(
                        (vcell, side), f"edge {provider[1]}[{provider[2]}]"))
        for name in sorted(self.spec.families):
            fam = self.spec.families[name]
            if fam.glue is None:
                continue
            for side in (NEG, POS):
                # a missing rule is a shape violation validate() reports
                rule = self.spec.chain_ends.get((name, side), ChainEndRule("open"))
                nxt = -self.depth - 1 if side == NEG else self.depth + 1
                tail = "open" if rule.kind == "open" else "limit {%s}" % ",".join(rule.targets)
                ends.append(TruncatedEnd(
                    ("chain", name, side), f"{name}[{nxt}] ... then {tail}"))
        ends.sort(key=lambda te: (te.at[0] == "chain", te.at, te.continuation))   # vertex sides first
        self.truncated_ends = tuple(ends)
        self.has_truncation = bool(self.truncated_ends)


def reference_window(trunc):
    """The window's construction as it was, for comparing every field."""
    return _ReferenceWindow(trunc)


def reference_vertex_sides(germs, vcell, depth):
    """``Truncation.vertex_sides`` as it was, reading a table of (provider,
    in window) pairs: per side of a window vertex, low then high, (the
    window cells whose germ it is, cut), where cut says that a germ of that
    side lies beyond the window, or that none is supplied."""
    sides = []
    for side in (LOW, HIGH):
        nbrs = []
        cut = False
        for provider, in_window in germs[(vcell, side)]:
            if provider[0] == "cell" and in_window:
                nbrs.append(provider[1:3])
            elif provider[0] == "chain":    # the tail's last window cell
                fam, cside = provider[1], provider[2]
                nbrs.append((fam, -depth if cside == NEG else depth))
            else:
                cut = True
        sides.append((tuple(nbrs), cut or not nbrs))
    return sides


def _germ_count_problem(vcell, side, kinds):
    """The germ-count fault of a vertex side with providers of these kinds, or None."""
    if "cell-every" in kinds:
        return f"{vcell[0]}[{vcell[1]}] {side} side receives one germ per chain index"
    if len(kinds) != 1:
        return f"{vcell[0]}[{vcell[1]}] has {len(kinds)} germs on its {side} side"
    return None


def reference_validate(trunc):
    """``validate`` as it was, with no cached report: every vertex side
    has its germs counted again.  Report violations of the 1-manifold
    contract; never raises.

    Checks: (a) every vertex has exactly one germ on each side, (b) limit
    sets are sane (no duplicates, chain-end limits target unit vertices),
    (c) the Hausdorffification of the window is a tree, (d) family and
    rule shapes are orientation-consistent.
    """
    spec = trunc.spec
    violations = []

    def bad(code, msg):
        violations.append(Violation(code, msg))

    # (d) shape checks
    for name in sorted(spec.families):
        fam = spec.families[name]
        if fam.kind == "vertex":
            for end in (LOW, HIGH):
                if (name, end) in spec.ends:
                    bad("shape", f"vertex family {name} has an end rule")
        elif fam.glue is not None:
            if not fam.chain:
                bad("shape", f"unit edge family {name} declares a glue direction")
            for end in (LOW, HIGH):
                if (name, end) in spec.ends:
                    bad("shape", f"glued chain {name} has a per-cell end rule")
            for side in (NEG, POS):
                if (name, side) not in spec.chain_ends:
                    bad("shape", f"glued chain {name} misses its {side} chain-end rule")
        else:
            for end in (LOW, HIGH):
                if (name, end) not in spec.ends:
                    bad("shape", f"edge family {name} misses its {end} rule")
            for side in (NEG, POS):
                if (name, side) in spec.chain_ends:
                    bad("shape", f"unglued family {name} has a chain-end rule")

    # (b) limit-set sanity
    for (fam, end), rule in sorted(spec.ends.items()):
        if rule.kind == "limit" and len(set(rule.targets)) != len(rule.targets):
            bad("limit-set", f"{fam}.{end} limit set repeats a vertex")
        for v, off in rule.targets:
            if spec.families.get(v) and spec.families[v].kind != "vertex":
                bad("limit-set", f"{fam}.{end} targets non-vertex family {v}")
            if spec.families.get(v) and not spec.families[v].chain and off != 0:
                bad("limit-set", f"{fam}.{end} uses nonzero offset into unit family {v}")
    for (fam, side), rule in sorted(spec.chain_ends.items()):
        if len(set(rule.targets)) != len(rule.targets):
            bad("limit-set", f"{fam} chain end {side} repeats a vertex")
        for v in rule.targets:
            f = spec.families.get(v)
            if f and (f.kind != "vertex" or f.chain):
                bad("limit-set",
                    f"{fam} chain end {side} must target unit vertex families, got {v}")

    # (a) germ counts, schematic over the window
    germs = reference_window(trunc)._germs
    for vcell in trunc.vertex_cells:
        for side in (LOW, HIGH):
            kinds = [p[0] for p, _ in germs[vcell, side]]
            problem = _germ_count_problem(vcell, side, kinds)
            if problem:
                bad("germ-count", problem)

    # (c) tree check on the window graph
    n_nodes = len(trunc.adjacency)
    n_edges = len(trunc.graph_edges)
    components = trunc.components
    if n_nodes:
        for payload, lo, hi, _, _ in trunc.graph_edges:
            if lo == hi:
                bad("not-a-tree", f"edge {payload} closes a loop at {lo}")
        if components > 1:
            bad("disconnected",
                f"window graph falls into {components} components")
        if n_edges != n_nodes - components:
            bad("not-a-tree",
                f"window graph has {n_edges} edges on {n_nodes} nodes "
                f"in {components} components")

    for name, mark in sorted(spec.marks.items()):
        fam = spec.families.get(mark.cell[0])
        if fam is None:
            bad("mark", f"mark {name} references unknown family {mark.cell[0]}")
        elif (fam.kind == "vertex") != mark.is_vertex:
            bad("mark", f"mark {name} kind does not match family {mark.cell[0]}")

    routing_error = "; ".join(v.message for v in violations if v.code != "disconnected")
    return ValidationReport(tuple(violations), routing_error or None)


def reference_germ_providers(trunc, vcell, side):
    """The providers of one germ found by scanning every end rule of the
    spec, as before the germ table."""
    spec = trunc.spec
    vfam, j = vcell
    vchain = spec.families[vfam].chain
    want_end = HIGH if side == LOW else LOW
    out = []
    for (efam, end), rule in sorted(spec.ends.items()):
        if end != want_end or rule.kind == "open":
            continue
        for tfam, off in rule.targets:
            if tfam != vfam:
                continue
            ef = spec.families[efam]
            if ef.chain and vchain:
                i = j - off
                out.append((("cell", efam, i), abs(i) <= trunc.depth and trunc.has_edge((efam, i))))
            elif ef.chain and not vchain:
                out.append((("cell-every", efam), False))
            elif vchain:
                if off == j:
                    out.append((("cell", efam, 0), trunc.has_edge((efam, 0))))
            else:
                out.append((("cell", efam, 0), trunc.has_edge((efam, 0))))
    for (efam, cside), rule in sorted(spec.chain_ends.items()):
        if rule.kind != "limit" or vfam not in rule.targets:
            continue
        provides = LOW if chain_end_ascends(spec.families[efam].glue, cside) else HIGH
        if provides == side:
            out.append((("chain", efam, cside), True))
    return out


def reference_reject_overfull(spec):
    """Reference for the overfull-side check: validate the depth-1 window
    and keep its germ-count faults other than a missing germ, then count
    the germs of the far chain vertex cells that unit edges name by
    scanning the rules."""
    try:
        spec.check_wellformed()
        trunc = expand(spec, 1)
    except LeafSpaceError as exc:
        raise SemanticError("model", str(exc)) from None
    for violation in validate(trunc).violations:
        if violation.code == "germ-count" and "has 0 germs" not in violation.message:
            raise SemanticError("model", violation.message)
    fams = spec.families
    far = sorted({(vfam, off) for (efam, _), rule in spec.ends.items() if not fams[efam].chain
                  for vfam, off in rule.targets
                  if fams[vfam].kind == "vertex" and fams[vfam].chain})
    for vfam, j in far:
        for side in (LOW, HIGH):
            germs = len(reference_germ_providers(trunc, (vfam, j), side))
            if germs > 1:
                raise SemanticError("model", f"{vfam}[{j}] has {germs} germs on its {side} side")


def reference_vertex_neighbors(trunc, vcell):
    """The cells incident to a window vertex read off the anchors of the
    graph edges at the vertex's node, as before the germ table drove
    ``cell_neighbors``: an edge anchored at the vertex itself or at the
    stem of a locus holding it; a chain tail counts as its last window
    cell."""
    out = set()
    for eid, _ in trunc.adjacency[trunc.vertex_node(vcell)]:
        payload, _, _, a_lo, a_hi = trunc.graph_edges[eid]
        for anchor in (a_lo, a_hi):
            if anchor is not None and vcell in anchor:
                if payload[0] == "cell":
                    out.add(payload[1:3])
                else:
                    fam, side = payload[1:3]
                    out.add((fam, -trunc.depth if side == "neg" else trunc.depth))
    out.discard(vcell)
    return sorted(out)


def reference_edge_neighbors(trunc, cell):
    """The cells incident to a window edge cell read off the anchors and
    nodes of its graph edge, as before the germ table drove
    ``cell_neighbors``: an anchored vertex, the members of an anchored
    stem's locus, the cell across a glue junction, and the limit targets
    past a chain's cut."""
    out = set()
    _, lo, hi, a_lo, a_hi = trunc.graph_edges[trunc.position[cell] - len(trunc.vertex_cells)]
    for anchor, node in ((a_lo, lo), (a_hi, hi)):
        if anchor is not None:
            out.update(anchor)
        elif node[0] == "glue":
            fam, n = node[1], node[2]
            other = (fam, n) if (fam, n) != cell else (fam, n + 1)
            if trunc.has_edge(other):
                out.add(other)
        elif node[0] == "cut":
            rule = trunc.spec.chain_ends.get((node[1], node[2]))
            if rule is not None and rule.kind == "limit":
                out.update((v, 0) for v in rule.targets)
    out.discard(cell)
    return sorted(out)


def reference_components(trunc, cells):
    """The connected components of a set of window cells, by a plain
    breadth-first search over ``reference_vertex_neighbors`` and
    ``reference_edge_neighbors``: each a sorted list, ordered by least
    cell."""
    cells, comps = set(cells), []
    for seed in sorted(cells):
        if any(seed in comp for comp in comps):
            continue
        comp, frontier = {seed}, [seed]
        while frontier:
            grow = []
            for cell in frontier:
                neighbors = (reference_vertex_neighbors if trunc.has_vertex(cell)
                             else reference_edge_neighbors)
                for nbr in neighbors(trunc, cell):
                    if nbr in cells and nbr not in comp:
                        comp.add(nbr)
                        grow.append(nbr)
            frontier = grow
        comps.append(sorted(comp))
    return comps


def reference_locus_groups(trunc):
    """Vertex cell -> group id by union-find over the loci that share a
    member, each group named by its smallest locus index, as before the
    mate graph named them."""
    parent = list(range(len(trunc.loci)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner = {}
    for idx, locus in enumerate(trunc.loci):
        for m in locus.members:
            if m in owner:
                parent[find(idx)] = find(owner[m])
            else:
                owner[m] = idx
    groups = {}
    for idx in range(len(trunc.loci)):
        groups.setdefault(find(idx), []).append(idx)
    return {m: min(idxs) for idxs in groups.values()
            for li in idxs for m in trunc.loci[li].members}


def reference_rooting(trunc):
    """The rooting walked over neighbour lists sorted by edge payload."""
    adj = {node: sorted(nbrs, key=lambda pair: (trunc.graph_edges[pair[0]][0], pair[1]))
           for node, nbrs in trunc.adjacency.items()}
    rooting = {}
    for root in sorted(adj):
        if root in rooting:
            continue
        rooting[root] = (None, None, 0)
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for eid, other in adj[node]:
                if other not in rooting:
                    rooting[other] = (node, eid, rooting[node][2] + 1)
                    frontier.append(other)
    return rooting


def reference_ladder_counts(trunc, node):
    """(jumps, turns) of the crossings of node's proper ancestors but the
    root, walked up parent by parent: a jump where the ancestor is a locus
    node and the anchors arriving from below and leaving upward share no
    vertex, else a turn where the two hops climb in opposite directions."""
    rooting = trunc.rooting
    jumps = turns = 0
    up = rooting[node][3]
    while up is not None:
        above = rooting[up[3]][3]
        if above is None:
            break
        if up[3][0] == "locus" and not up[5] & above[4]:
            jumps += 1
        elif up[6] != above[6]:
            turns += 1
        up = above
    return jumps, turns


# -- checkers and instance discovery ---------------------------------------------


def reference_stabilizer_ball(spec, locus, radius):
    """The ball from every reduced word: keep the first word of each
    element (by ``word_map``) that fixes the locus setwise, then try each
    nontrivial member's powers, composed letter by letter, as elements."""
    members = locus.members
    first = {}
    for w in reduced_words(spec.generators, radius):
        first.setdefault(word_map(spec, w), w)
    ball = [w for w in first.values() if act_locus(spec, w, members) == members]
    table = tuple((w, tuple(act_cell(spec, w, m) for m in members)) for w in ball)
    nontrivial = any(images != members for _, images in table)
    have = {word_map(spec, w) for w in ball if not w.is_identity}
    cyclic, generator = not have, None
    for cand in ball[1:]:
        powers = set()
        for base in (cand, cand.inverse()):
            k = 1
            while (power := word_map(spec, base ** k)) in have and power not in powers:
                powers.add(power)
                k += 1
        if powers == have:
            cyclic, generator = True, cand
            break
    return StabilizerBall(members, radius, tuple(ball), table, cyclic, generator, nontrivial)


def reference_check_faithfulness(spec, max_word_len, depth):
    """check_faithfulness as a loop over every reduced word in shortlex
    order, each composed from its prefix's element: the first nontrivial
    word that acts as the identity is the witness."""
    name = "check_faithfulness"
    if branching_type(spec, depth).value == "none":
        raise PreconditionFailed(
            "model shows no branching in the window; a fibration-like model "
            "may act unfaithfully, so the check does not apply")
    steps = {(n, e): word_map(spec, Word(((n, e),)))
             for n in sorted(spec.generators) for e in (1, -1)}
    identity = word_map(spec, Word.identity())
    layer = [((), identity)]
    for _ in range(max_word_len):
        grow = []
        for letters, elem in layer:
            for let, step in steps.items():
                if letters and letters[-1] == (let[0], -let[1]):
                    continue
                image = elem * step
                if image == identity:
                    return CheckReport.make(name, VIOLATION, depth=depth,
                                            word_bound=max_word_len,
                                            witness={"word": Word(letters + (let,))})
                grow.append((letters + (let,), image))
        layer = grow
    return CheckReport.make(name, PASS, depth=depth, word_bound=max_word_len)


def reference_check_odd_path(spec, word, lam, k_max, depth):
    """check_odd_path as it was before the sweep table: each power's sweep
    runs in the loop and stops at the first comparable point."""
    name = "check_odd_path"
    trunc = spec.window(depth)
    trunc.require_point(lam)
    member = _membership(reference_relation(trunc, word_map(spec, word), lam))
    if member is Tri.YES:
        raise PreconditionFailed("lam is comparable with its image")
    if member is Tri.TRUNCATED:
        return CheckReport.make(name, TRUNCATED, depth=depth,
                                notes=("membership of lam undecided",))
    gamma = path(trunc, lam, act(spec, word, lam))
    if gamma.length % 2 == 0:
        raise PreconditionFailed(f"path length {gamma.length} is even")
    points = canonical_points(trunc)
    for k in range(1, k_max + 1):
        for x, image in zip(points, map(word_map(spec, word ** k).point, points)):
            if image_relation(spec, trunc, x, image) in COMPARABLE:
                return CheckReport.make(name, VIOLATION, depth=depth, witness={
                    "word": word, "k": k, "point": x})
    return CheckReport.make(name, PASS, depth=depth, witness={
        "word": word, "path_length": gamma.length, "k_max": k_max})


def _reference_find_comparable_pair(trunc, elem):
    """The pair search as it was before up-cone walks: one ``compare`` per test."""
    pts = trunc.canonical_points
    tried = 0
    for lam in pts:
        for mu in pts:
            if lam == mu:
                continue
            tried += 1
            if tried > PAIR_SEARCH_LIMIT:
                return None
            if compare(trunc, lam, mu) is not Comparability.LESS:
                continue
            w_mu = elem.point(mu)
            if not trunc.contains_point(w_mu):
                continue
            if compare(trunc, lam, w_mu) is Comparability.LESS:
                return lam, mu
    return None


def reference_discover_instances(spec, depth, word_len):
    """discover_instances as it was before up-cone walks and length counts:
    the parity search lifts a path from each incomparable point to its
    image until it has seen an odd and an even length."""
    trunc = spec.window(depth)
    points = trunc.canonical_points
    loci = branch_loci(trunc)[:4]
    one_sided_positive = branching_type(spec, depth).value == "one_sided_positive"
    instances = {name: [] for name in CHECKERS}

    for word in _basic_words(spec):
        instances["check_connected_open"].append({"word": word})
        elem = word_map(spec, word)

        pair = _reference_find_comparable_pair(trunc, elem) if one_sided_positive else None
        if pair is not None:
            instances["check_lower_bound"].append(
                {"word": word, "lam": pair[0], "mu": pair[1]})

        images = [elem.point(p) for p in points]
        rels = list(zip(points, sweep(trunc, elem)))

        yes_points = [p for p, rel in rels if rel in COMPARABLE][:3]
        for i, lam in enumerate(yes_points):
            for mu in yes_points[i + 1:]:
                instances["check_path_in_comparable_set"].append(
                    {"word": word, "lam": lam, "mu": mu})

        odd_lam = even_lam = None
        for (p, rel), image in zip(rels, images):
            if rel is not Comparability.INCOMPARABLE:
                continue
            try:
                gamma = path(trunc, p, image)
            except LeafSpaceError:
                continue
            if gamma.length % 2 == 1 and odd_lam is None:
                odd_lam = p
            if gamma.length % 2 == 0 and even_lam is None:
                even_lam = p
            if odd_lam is not None and even_lam is not None:
                break
        if odd_lam is not None:
            instances["check_odd_path"].append(
                {"word": word, "lam": odd_lam, "k_max": min(4, word_len)})
        if even_lam is not None:
            power = elem
            for k in range(2, max(3, word_len // 2) + 1):
                power = power * elem
                if reference_relation(trunc, power, even_lam) in COMPARABLE:
                    instances["check_return"].append(
                        {"word": word, "lam": even_lam, "k": k})
                    break

        pos = next((p for p, rel in rels if rel is Comparability.LESS), None)
        neg = next((p for p, rel in rels if rel is Comparability.GREATER), None)
        if pos is not None and neg is not None:
            instances["check_intermediate_fixed"].append(
                {"word": word, "x_pos": pos, "x_neg": neg})

        for locus in loci:
            if tuple(sorted(map(elem.cell, locus.members))) == locus.members:
                instances["check_invariant_locus_stem"].append(
                    {"word": word, "locus": locus})

    for locus in loci:
        instances["check_fix_propagation"].append({"locus": locus, "radius": word_len})
    instances["check_faithfulness"].append({"max_word_len": word_len})
    instances["screen_infinite_locus"].append({"max_word_len": word_len})
    return instances
