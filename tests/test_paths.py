import itertools
import pickle
import random

import pytest
from fractions import Fraction

from leafspace import paths as paths_mod
from leafspace.core import (
    InvalidModel,
    LeafSpaceSpec,
    PointOutOfRange,
    Point,
    Tri,
    TruncatedError,
    expand,
    mid_point,
    open_end,
    to_limit,
    to_vertex,
    validate,
    vertex_point,
)
from leafspace.gallery import GALLERY_NAMES, gallery
from leafspace.paths import (
    ASC,
    Comparability,
    Interval,
    Path,
    compare,
    interval_contains,
    path,
    sample_points,
)
from leafspace.randspec import RandomParams, random_spec
from leafspace.action import canonical_points

from bruteforce import Oracle
from reference import (
    _reference_common_locus, _reference_jump_chain, _reference_path, _reference_sample_points,
    reference_compare, reference_route)


def test_compare_yplus_examples(yplus):
    trunc = expand(yplus.spec, 0)
    assert compare(trunc, mid_point("s"), mid_point("p")) is Comparability.LESS
    assert compare(trunc, mid_point("p"), mid_point("s")) is Comparability.GREATER
    assert compare(trunc, mid_point("p"), mid_point("q")) is Comparability.INCOMPARABLE
    assert compare(trunc, mid_point("p"), mid_point("p")) is Comparability.EQUAL


def test_compare_swap_branches(swap):
    trunc = expand(swap.spec, 3)
    assert compare(trunc, mid_point("ra", 0), mid_point("rb", 0)) is Comparability.INCOMPARABLE
    assert compare(trunc, mid_point("s", 0), mid_point("ra", 0)) is Comparability.LESS


def test_path_yplus(yplus):
    trunc = expand(yplus.spec, 0)
    p = path(trunc, mid_point("p"), mid_point("q"))
    assert p.length == 2
    (j,) = p.junctions
    assert (j.arrive, j.depart) == (vertex_point("a"), vertex_point("b"))
    assert j.locus.members == (("a", 0), ("b", 0))


def test_path_swap(swap):
    trunc = expand(swap.spec, 3)
    p = path(trunc, mid_point("ra", 0), mid_point("rb", 0))
    assert p.length == 2
    first, second = p.intervals
    assert first.direction == "descending" and first.end == vertex_point("a")
    assert second.direction == "ascending" and second.start == vertex_point("b")
    assert p.junctions[0].arrive == vertex_point("a")


def test_path_zigzag(zigzag):
    trunc = expand(zigzag.spec, 2)
    p = path(trunc, mid_point("E", 0), mid_point("E", 1))
    assert p.length == 3
    dirs = [iv.direction for iv in p.intervals]
    assert dirs == ["ascending", "descending", "ascending"]
    ends = [(iv.start, iv.end) for iv in p.intervals]
    assert ends[0] == (mid_point("E", 0), vertex_point("m1", 0))
    assert ends[1] == (vertex_point("m2", 0), vertex_point("p1", 1))
    assert ends[2] == (vertex_point("p2", 1), mid_point("E", 1))
    assert [j.locus.members for j in p.junctions] == [
        (("m1", 0), ("m2", 0)), (("p1", 1), ("p2", 1))]
    p = path(expand(zigzag.spec, 3), mid_point("E", 0), mid_point("E", 1))
    assert str(p) == "[E[0]:1/2 ^ m1[0]] [m2[0] v p1[1]] [p2[1] ^ E[1]:1/2]"


def test_path_same_cell(line):
    trunc = expand(line.spec, 1)
    x, y = Point(("e", 0), Fraction(1, 4)), Point(("e", 0), Fraction(3, 4))
    p = path(trunc, x, y)
    assert p.length == 1 and p.intervals[0].direction == "ascending"
    assert compare(trunc, y, x) is Comparability.GREATER


def test_path_degenerate_cases(yplus):
    trunc = expand(yplus.spec, 0)
    a, b = vertex_point("a"), vertex_point("b")
    p = path(trunc, a, a)
    assert p.length == 1 and p.intervals[0].degenerate
    p = path(trunc, a, b)
    assert p.length == 2
    assert all(iv.degenerate for iv in p.intervals)
    p = path(trunc, a, mid_point("q"))
    assert p.length == 2 and p.intervals[0].degenerate


def test_lifted_intervals_are_dataclass_intervals(zigzag):
    # each interval path lifts must be indistinguishable from one built by
    # Interval(...) from the same fields
    trunc = expand(zigzag.spec, 3)
    p = path(trunc, mid_point("E", -2), mid_point("E", 2))
    assert {iv.direction for iv in p.intervals} == {ASC, "descending"}
    for iv in p.intervals:
        built = Interval(iv.start, iv.end, iv.direction, iv.steps)
        assert iv == built and built == iv and hash(iv) == hash(built)
        assert repr(iv) == repr(built) and str(iv) == str(built)
        assert list(iv._asdict().items()) == list(built._asdict().items())
        assert list(iv._asdict()) == list(Interval._fields) == ["start", "end", "direction", "steps"]
        assert pickle.loads(pickle.dumps(iv)) == iv and iv._replace() == iv
        with pytest.raises(AttributeError):
            iv.direction = ASC


def test_interval_contains(yplus):
    trunc = expand(yplus.spec, 0)
    p = path(trunc, mid_point("s"), mid_point("p"))
    (iv,) = p.intervals
    assert interval_contains(trunc, iv, vertex_point("a")) is Tri.YES
    assert interval_contains(trunc, iv, vertex_point("b")) is Tri.NO
    assert interval_contains(trunc, iv, Point(("s", 0), Fraction(3, 4))) is Tri.YES
    assert interval_contains(trunc, iv, Point(("s", 0), Fraction(1, 4))) is Tri.NO
    degenerate = path(trunc, vertex_point("a"), vertex_point("a")).intervals[0]
    assert interval_contains(trunc, degenerate, vertex_point("a")) is Tri.YES


def test_point_out_of_range(swap):
    trunc = expand(swap.spec, 1)
    with pytest.raises(PointOutOfRange):
        compare(trunc, mid_point("ra", 5), mid_point("rb", 0))
    with pytest.raises(PointOutOfRange):
        path(trunc, mid_point("ra", 0), mid_point("rb", 5))
    iv = path(trunc, mid_point("s", 0), mid_point("s", 1)).intervals[0]
    with pytest.raises(PointOutOfRange):
        interval_contains(trunc, iv, mid_point("s", 9))


def _sample(spec, trunc, rng, count):
    pts = canonical_points(trunc)
    return [(rng.choice(pts), rng.choice(pts)) for _ in range(count)]


def test_reversal_symmetry():
    rng = random.Random(7)
    for seed in range(1, 60):
        spec = random_spec(RandomParams(seed=seed))
        trunc = expand(spec, 0)
        for x, y in _sample(spec, trunc, rng, 6):
            assert path(trunc, x, y).reverse() == path(trunc, y, x)


def test_direction_alternation_and_sign_rule():
    rng = random.Random(11)
    checked = 0
    for seed in range(1, 80):
        spec = random_spec(RandomParams(seed=seed))
        trunc = expand(spec, 0)
        for x, y in _sample(spec, trunc, rng, 6):
            p = path(trunc, x, y)
            for i, j in enumerate(p.junctions):
                before, after = p.intervals[i], p.intervals[i + 1]
                if before.degenerate or after.degenerate:
                    continue
                assert before.direction != after.direction
                if j.locus.sign == "positive":
                    assert (before.direction, after.direction) == ("descending", "ascending")
                else:
                    assert (before.direction, after.direction) == ("ascending", "descending")
                checked += 1
    assert checked > 50


def test_parity_compare_iff_length_one():
    rng = random.Random(13)
    for seed in range(1, 60):
        spec = random_spec(RandomParams(seed=seed))
        trunc = expand(spec, 0)
        for x, y in _sample(spec, trunc, rng, 8):
            rel = compare(trunc, x, y)
            p = path(trunc, x, y)
            assert len(p.junctions) == p.length - 1
            assert (rel in (Comparability.EQUAL, Comparability.LESS,
                            Comparability.GREATER)) == (p.length == 1)
    # compare reads the route without lifting a path: it must agree with
    # the comparability and direction read off path, including points off
    # the edge midpoints
    for name in GALLERY_NAMES:
        for depth in range(5):
            trunc = expand(gallery(name).spec, depth)
            pts = canonical_points(trunc) + [Point(c, Fraction(1, 3)) for c in trunc.edge_cells]
            for x, y in itertools.product(pts, pts):
                rel = compare(trunc, x, y)
                try:
                    p = path(trunc, x, y)
                except TruncatedError:
                    assert rel is Comparability.TRUNCATED
                    continue
                if x == y:
                    assert rel is Comparability.EQUAL
                elif p.length > 1:
                    assert rel is Comparability.INCOMPARABLE
                elif p.intervals[0].direction == "ascending":
                    assert rel is Comparability.LESS
                else:
                    assert rel is Comparability.GREATER


def test_strict_partial_order_on_samples():
    rng = random.Random(17)
    for seed in range(1, 40):
        spec = random_spec(RandomParams(seed=seed))
        trunc = expand(spec, 0)
        pts = canonical_points(trunc)
        sample = [rng.choice(pts) for _ in range(6)]
        for x in sample:
            assert compare(trunc, x, x) is Comparability.EQUAL
        for x, y in itertools.permutations(sample, 2):
            fwd, back = compare(trunc, x, y), compare(trunc, y, x)
            if fwd is Comparability.LESS:
                assert back is Comparability.GREATER
            if fwd is Comparability.INCOMPARABLE:
                assert back is Comparability.INCOMPARABLE
        for x, y, z in itertools.permutations(sample, 3):
            if (compare(trunc, x, y) is Comparability.LESS
                    and compare(trunc, y, z) is Comparability.LESS):
                assert compare(trunc, x, z) is Comparability.LESS


def test_sample_points_cover_endpoints_and_junctions(zigzag):
    trunc = expand(zigzag.spec, 2)
    p = path(trunc, mid_point("E", 0), mid_point("E", 1))
    pts = sample_points(p)
    for needed in (mid_point("E", 0), mid_point("E", 1),
                   vertex_point("m1", 0), vertex_point("m2", 0),
                   vertex_point("p1", 1), vertex_point("p2", 1)):
        assert needed in pts


def test_oracle_agreement_spot():
    # the heavyweight 1000-seed run lives in the acceptance suite
    rng = random.Random(23)
    for seed in (3, 141, 211, 404):
        spec = random_spec(RandomParams(seed=seed))
        trunc = expand(spec, 0)
        oracle = Oracle(spec)
        for x, y in _sample(spec, trunc, rng, 10):
            assert compare(trunc, x, y).value == oracle.compare(x, y)
            mine = path(trunc, x, y)
            ivs, juncs = oracle.path(x, y)
            assert mine.length == len(ivs)
            assert [(iv.start, iv.end, iv.direction) for iv in mine.intervals] == ivs
            assert [(j.arrive, j.depart, frozenset(j.locus.members))
                    for j in mine.junctions] == [
                        (a, d, frozenset(m)) for a, d, m in juncs]


def _two_loci_spec():
    """A vertex m in a positive locus {a, m} and a negative locus {m, c}."""
    spec = LeafSpaceSpec()
    for v in ("a", "m", "c"):
        spec.add_vertex(v)
    spec.add_edge("s", low=open_end(), high=to_limit(("a", 0), ("m", 0)))
    spec.add_edge("t", low=to_limit(("m", 0), ("c", 0)), high=open_end())
    spec.add_edge("pa", low=to_vertex("a"), high=open_end())
    spec.add_edge("pc", low=open_end(), high=to_vertex("c"))
    return spec


def test_point_in_two_loci():
    # a vertex may sit in a positive and a negative locus on its two
    # sides; transits through it pass monotonically, and jumps across the
    # merged node chain through degenerate intervals
    trunc = expand(_two_loci_spec(), 0)
    assert validate(trunc).valid

    # monotone pass-through of the shared member
    assert compare(trunc, mid_point("s"), mid_point("t")) is Comparability.LESS

    p = path(trunc, mid_point("pa"), mid_point("pc"))
    assert p.length == 3
    assert p.intervals[1].degenerate
    assert [(j.arrive, j.depart) for j in p.junctions] == [
        (vertex_point("a"), vertex_point("m")),
        (vertex_point("m"), vertex_point("c"))]
    assert [j.locus.sign for j in p.junctions] == ["positive", "negative"]

    p = path(trunc, mid_point("s"), mid_point("pc"))
    assert p.length == 2
    assert p.junctions[0].arrive == vertex_point("m")


def test_reversal_through_elided_tails(swap, zigzag):
    trunc = expand(swap.spec, 4)
    p = path(trunc, mid_point("ra", 0), mid_point("rb", 0))
    assert p.reverse() == path(trunc, mid_point("rb", 0), mid_point("ra", 0))
    trunc = expand(zigzag.spec, 3)
    p = path(trunc, mid_point("E", -2), mid_point("E", 2))
    assert p.length == 9
    assert p.reverse() == path(trunc, mid_point("E", 2), mid_point("E", -2))


# -- the transit table ---------------------------------------------------------
#
# The references (``tests/reference.py``) are the route, the lift and
# ``compare`` as they were before routes found their meeting node by jump
# pointers, before each window kept a transit table and before ``compare``
# read prefix counts.


def _outcome(fn, *args):
    """fn's result, or the type of the error it raised."""
    try:
        return fn(*args)
    except (TruncatedError, InvalidModel) as exc:
        return type(exc)


def _lifted(lift, trunc, x, y, key):
    """key() of the lifted path, or the name of the error it raised."""
    try:
        return key(lift(trunc, x, y))
    except (TruncatedError, InvalidModel) as exc:
        return type(exc).__name__


def _assert_table_matches_reference(trunc, pairs, key=repr):
    """The route (``paths._route``) is the reference's hop for hop, or None
    where it is.  path equals the reference on every pair, lifted first on
    the table as the earlier pairs left it (cold for every crossing met
    first here) and again once the pair's crossings are all in it; a warm
    lift adds no entry, and every entry pairs two anchors of one locus
    node.  ``compare`` answers as ``reference_compare`` does, or raises its
    error.  Both references lift the pair's one reference route.  ``key``
    is what is compared of a path: ``tuple`` compares every field as
    nested tuples, where a repr, built in Python, costs several times a
    lift on long paths."""
    assert trunc.transits == {}
    for x, y in pairs:
        route = reference_route(trunc, x, y)
        assert paths_mod._route(trunc, x, y) == route, (x, y)
        ref = _outcome(_reference_path, trunc, x, y, route)
        want = key(ref) if isinstance(ref, Path) else ref.__name__
        assert _lifted(path, trunc, x, y, key) == want, (x, y)
        size = len(trunc.transits)
        assert _lifted(path, trunc, x, y, key) == want, (x, y)
        assert len(trunc.transits) == size
        want = _outcome(reference_compare, trunc, x, y, route)
        assert _outcome(compare, trunc, x, y) == want, (x, y)
    _assert_transits_bounded(trunc)


def _locus_anchors(trunc):
    """Locus node -> every anchor a path can enter or leave it by: the
    anchors of its graph edges, and each member as a path end."""
    anchors = {}
    for eid, (_, lo, hi, a_lo, a_hi) in enumerate(trunc.graph_edges):
        for node, a in ((lo, a_lo), (hi, a_hi)):
            if node[0] == "locus":
                anchors.setdefault(node, set()).add(a)
    for vcell in trunc.vertex_cells:
        node = trunc.vertex_node(vcell)
        if node[0] == "locus":
            anchors.setdefault(node, set()).add(frozenset((vcell,)))
    return anchors


def _assert_transits_bounded(trunc):
    anchors = _locus_anchors(trunc)
    node_of = {a: node for node, owned in anchors.items() for a in owned}
    for entry, exit_ in trunc.transits:
        assert node_of[entry] == node_of[exit_]
    assert len(trunc.transits) <= sum(len(owned) ** 2 for owned in anchors.values())


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_transit_table_matches_reference_on_gallery(name):
    for depth in range(9):
        trunc = expand(gallery(name).spec, depth)
        pts = trunc.canonical_points
        _assert_table_matches_reference(trunc, list(itertools.product(pts, pts)),
                                        key=repr if depth <= 2 else tuple)


def test_transit_table_matches_reference_at_depth_64():
    rng = random.Random(64)
    for name in GALLERY_NAMES:
        trunc = expand(gallery(name).spec, 64)
        pts = trunc.canonical_points
        pairs = [(rng.choice(pts), rng.choice(pts)) for _ in range(60)]
        _assert_table_matches_reference(trunc, pairs + [(y, x) for x, y in pairs])


def test_transit_table_matches_reference_on_random_specs():
    for seed in range(1, 101):
        trunc = expand(random_spec(RandomParams(seed=seed)), 0)
        pts = trunc.canonical_points
        _assert_table_matches_reference(trunc, list(itertools.product(pts, pts)))


def test_transit_table_matches_reference_on_point_in_two_loci():
    trunc = expand(_two_loci_spec(), 0)
    pts = trunc.canonical_points + tuple(Point(c, Fraction(1, 3)) for c in trunc.edge_cells)
    _assert_table_matches_reference(trunc, list(itertools.product(pts, pts)))
    assert trunc.transits


def test_route_matches_reference_off_the_canonical_points():
    # points at t = 1/3 and 2/3 of every edge cell against every canonical
    # point and each other, in both orders: both ends in one edge, an end at
    # or below the other end's edge (the route enters that edge downward),
    # and ends in different components of a disconnected window
    from test_action import _offset_line

    windows = [expand(gallery(name).spec, depth) for name in GALLERY_NAMES for depth in range(3)]
    windows += [expand(_two_loci_spec(), 0), expand(_offset_line(), 2)]
    windows += [expand(random_spec(RandomParams(seed=seed)), 0) for seed in range(1, 16)]
    seen = set()
    for trunc in windows:
        pts = trunc.canonical_points
        pairs = []
        for cell in trunc.edge_cells:
            child = _child_end(trunc, cell)
            inside = [Point(cell, Fraction(1, 3)), Point(cell, Fraction(2, 3))]
            for x in inside:
                for y in pts + tuple(inside):
                    node = trunc.vertex_node(y.cell) if y.is_vertex else _child_end(trunc, y.cell)
                    below = y.cell != cell and _at_or_below(trunc, node, child)
                    routed = paths_mod._route(trunc, x, y) is not None
                    seen.add(("same edge" if y.cell == cell else below, routed))
                    pairs += [(x, y), (y, x)]
        _assert_table_matches_reference(trunc, pairs, key=tuple)
    assert {("same edge", True), (True, True), (False, True), (False, False)} <= seen


def test_jump_chain_joins_every_anchor_pair():
    # the jump search crosses every locus node between any two of its
    # anchors, through members that pairwise share a locus, in as few
    # jumps as the reference search, and names each junction's smallest
    # shared locus
    windows = [expand(gallery(name).spec, depth) for name in GALLERY_NAMES for depth in range(5)]
    windows.append(expand(_two_loci_spec(), 0))
    windows += [expand(random_spec(RandomParams(seed=seed, symmetric=symmetric)), 0)
                for seed in range(1, 101) for symmetric in (False, True)]
    crossings = 0
    for trunc in windows:
        for anchors in _locus_anchors(trunc).values():
            for entry, exit_ in itertools.product(anchors, anchors):
                chain = paths_mod._jump_chain(trunc, entry, exit_)
                members = [c for c, _ in chain]
                assert members[0] in entry and members[-1] in exit_, (entry, exit_)
                assert chain[0][1] is None, chain
                assert all(li == _reference_common_locus(trunc, a, b)
                           for a, (b, li) in zip(members, chain[1:])), chain
                assert len(chain) == len(_reference_jump_chain(trunc, entry, exit_)), chain
                crossings += len(chain) > 1
    assert crossings


def test_add_drops_the_transit_table(zigzag):
    spec = zigzag.spec
    trunc = spec.window(3)
    path(trunc, mid_point("E", -2), mid_point("E", 2))
    assert trunc.transits
    spec.add_mark("here", mid_point("E", 0))
    fresh = spec.window(3)
    assert fresh is not trunc and fresh.transits == {}


# -- compare from jump pointers and prefix counts ------------------------------------
#
# ``compare`` reads the jumps of a route off ``Truncation.ladder``
# at the meeting node of its ends; ``reference_compare`` walks the route.  The
# transit-table tests above check the two on every pair they lift (gallery
# d = 0-8, d = 64 samples, random specs, two loci), and the row tests check
# ``compare`` on the broken windows.


def _child_end(trunc, cell):
    """The end of an edge cell's graph edge that hangs below the other in
    the rooted window forest (the one ``reference_route`` re-hangs below a
    point inside the cell)."""
    eid = trunc.position[cell] - len(trunc.vertex_cells)
    lo, hi = trunc.graph_edges[eid][1:3]
    return lo if trunc.rooting[lo][1] == eid else hi


def _at_or_below(trunc, node, top):
    while node is not None:
        if node == top:
            return True
        node = trunc.rooting[node][0]
    return False


@pytest.mark.parametrize("depth", (128, 512))
def test_compare_matches_reference_on_deep_windows(depth):
    # the window's two extreme points, random pairs (mostly far apart) and
    # pairs of a point and the canonical point of a neighbouring cell
    rng = random.Random(depth)
    for name in ("SWAP", "ZIGZAG", "COMB"):
        trunc = expand(gallery(name).spec, depth)
        pts = trunc.canonical_points
        pairs = [(pts[0], pts[-1])] + [(rng.choice(pts), rng.choice(pts)) for _ in range(100)]
        position = trunc.position
        for x in rng.sample(pts, 50):
            pairs.append((x, pts[position[rng.choice(trunc.cell_neighbors(x.cell))]]))
        seen = set()
        for x, y in pairs + [(y, x) for x, y in pairs]:
            rel = compare(trunc, x, y)
            assert rel is reference_compare(trunc, x, y), (name, x, y)
            seen.add(rel)
        assert {Comparability.LESS, Comparability.GREATER, Comparability.INCOMPARABLE} <= seen


def test_compare_from_inside_an_edge_cell():
    # x at t = 1/3 and 2/3 of an edge cell, y at or below the edge's child
    # end (the route leaves x through that end) and elsewhere (through the
    # other end), in both orders
    windows = [expand(gallery(name).spec, depth) for name in GALLERY_NAMES for depth in range(5)]
    windows += [expand(_two_loci_spec(), 0)]
    windows += [expand(random_spec(RandomParams(seed=seed)), 0) for seed in range(1, 31)]
    seen = set()
    for trunc in windows:
        pts = trunc.canonical_points
        for cell in trunc.edge_cells:
            child = _child_end(trunc, cell)
            for t in (Fraction(1, 3), Fraction(2, 3)):
                x = Point(cell, t)
                for y in pts:
                    node = trunc.vertex_node(y.cell) if y.is_vertex else _child_end(trunc, y.cell)
                    below = y.cell != cell and _at_or_below(trunc, node, child)
                    for a, b in ((x, y), (y, x)):
                        rel = compare(trunc, a, b)
                        assert rel is reference_compare(trunc, a, b), (a, b)
                        seen.add((below, rel))
    for below in (True, False):
        for rel in (Comparability.LESS, Comparability.GREATER, Comparability.INCOMPARABLE):
            assert (below, rel) in seen


def test_compare_across_components_is_truncated():
    from test_action import _offset_line

    trunc = expand(_offset_line(), 2)
    assert trunc.components == 2
    position, component = trunc.position, trunc.cell_components
    pts = trunc.canonical_points + tuple(Point(c, Fraction(1, 3)) for c in trunc.edge_cells)
    for x, y in itertools.product(pts, pts):
        rel = compare(trunc, x, y)
        assert rel is reference_compare(trunc, x, y), (x, y)
        apart = component[position[x.cell]] != component[position[y.cell]]
        assert (rel is Comparability.TRUNCATED) == apart, (x, y)


@pytest.mark.parametrize("name", [n for n in GALLERY_NAMES if gallery(n).spec.generators])
def test_compare_is_equivariant(name):
    # compare(x, y) == compare(g.x, g.y) for every generator g, wherever
    # both images lie in the window and neither answer is Truncated
    spec = gallery(name).spec
    rng = random.Random(8)
    for depth in (4, 8, 64):
        trunc = expand(spec, depth)
        pts = trunc.canonical_points
        pairs = (itertools.product(pts, pts) if depth <= 8
                 else [(rng.choice(pts), rng.choice(pts)) for _ in range(400)])
        checked = {gen: 0 for gen in spec.generators}
        for x, y in pairs:
            rel = compare(trunc, x, y)
            for gen, elem in spec.generators.items():
                gx, gy = elem.point(x), elem.point(y)
                if not (trunc.contains_point(gx) and trunc.contains_point(gy)):
                    continue
                moved = compare(trunc, gx, gy)
                if Comparability.TRUNCATED not in (rel, moved):
                    assert moved is rel, (gen, x, y)
                    checked[gen] += 1
        assert all(checked.values()), (depth, checked)


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_compare_is_depth_monotone(name):
    # an answer that is not Truncated at depth d is the answer at d + 1
    spec = gallery(name).spec
    deeper = expand(spec, 0)
    for depth in range(9):
        trunc, deeper = deeper, expand(spec, depth + 1)
        pts = trunc.canonical_points
        for x, y in itertools.product(pts, pts):
            rel = compare(trunc, x, y)
            if rel is not Comparability.TRUNCATED:
                assert compare(deeper, x, y) is rel, (depth, x, y)


# -- sample_points -----------------------------------------------------------------


def test_sample_points_matches_reference():
    rng = random.Random(29)
    for name in GALLERY_NAMES:
        for depth in (0, 1, 3, 8, 32):
            trunc = expand(gallery(name).spec, depth)
            pts = trunc.canonical_points
            extra = tuple(Point(c, Fraction(1, 3)) for c in trunc.edge_cells)
            pairs = [(pts[0], pts[-1])] + [(rng.choice(pts + extra), rng.choice(pts + extra))
                                           for _ in range(40)]
            for x, y in pairs:
                try:
                    p = path(trunc, x, y)
                except TruncatedError:
                    continue
                assert sample_points(p) == _reference_sample_points(p)


# -- up-cones ----------------------------------------------------------------------
#
# ``_above`` must hold exactly the cells whose canonical point ``compare``
# puts above x, and raise where ``compare`` raises.


def _assert_rows(trunc, xs=None, ys=None):
    """For every x of ``xs`` (default: the canonical points) and every
    canonical position of ``ys`` (default: all): the cell is in x's
    up-cone exactly when ``compare`` says Less, or the up-cone raises
    ``compare``'s error type.  Returns the outcomes of ``compare``."""
    pts = trunc.canonical_points
    seen = set()
    for x in pts if xs is None else xs:
        above = _outcome(paths_mod._above, trunc, x)
        for k in range(len(pts)) if ys is None else ys:
            y = pts[k]
            want = _outcome(compare, trunc, x, y)
            if isinstance(above, type) or isinstance(want, type):     # an error type
                assert above is want, (x, y)
            else:
                assert (y.cell in above) == (want is Comparability.LESS), (x, y, want)
            seen.add(want)
    return seen


def test_rows_match_on_gallery():
    for name in GALLERY_NAMES:
        for depth in range(9):
            _assert_rows(expand(gallery(name).spec, depth))


def test_rows_match_at_depth_64():
    rng = random.Random(640)
    for name in GALLERY_NAMES:
        trunc = expand(gallery(name).spec, 64)
        pts = trunc.canonical_points
        ys = rng.sample(range(len(pts)), min(40, len(pts)))
        _assert_rows(trunc, [pts[0], pts[-1], rng.choice(pts)], ys)


def test_rows_match_on_random_specs():
    for seed in range(100):
        for symmetric in (False, True):
            _assert_rows(expand(random_spec(RandomParams(seed=seed, symmetric=symmetric)), 0))


def test_rows_match_off_the_canonical_points():
    # rows from points inside edge cells, away from the midpoint
    trunc = expand(_two_loci_spec(), 0)
    _assert_rows(trunc, [Point(c, Fraction(k, 3)) for c in trunc.edge_cells for k in (1, 2)])


def test_rows_match_on_broken_windows(tripod, tripod_inconsistent, updown):
    # disconnected windows (Truncated, and TruncatedError from path) and
    # invalid ones (InvalidModel), the models the orbit-sweep reference
    # runs on
    from test_action import _double_germ, _offset_line
    from test_checkers import _stem_to_branch, build_odd_involution
    from conftest import build_swap_k

    windows = [expand(tripod, 2), expand(tripod_inconsistent, 2),
               expand(build_odd_involution(), 0), expand(build_swap_k(), 4)]
    windows += [expand(spec, depth) for depth in range(4) for spec in (
        updown, _stem_to_branch(), _offset_line(), _double_germ())]
    seen = set()
    for trunc in windows:
        seen |= _assert_rows(trunc)
        pts = trunc.canonical_points
        seen.update(_outcome(lambda: path(trunc, x, y).length) for x in pts for y in pts)
    assert {Comparability.TRUNCATED, TruncatedError, InvalidModel} <= seen
