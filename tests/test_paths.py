import itertools
import random

import pytest
from fractions import Fraction

from leafspace.core import (
    PointOutOfRange,
    Point,
    Tri,
    TruncatedError,
    expand,
    mid_point,
    vertex_point,
)
from leafspace.gallery import GALLERY_NAMES, gallery
from leafspace.paths import (
    Comparability,
    compare,
    interval_contains,
    path,
    sample_points,
)
from leafspace.randspec import RandomParams, random_spec
from leafspace.action import canonical_points

from bruteforce import Oracle


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


def test_point_in_two_loci():
    # a vertex may sit in a positive and a negative locus on its two
    # sides; transits through it pass monotonically, and jumps across the
    # merged node chain through degenerate intervals
    from leafspace.core import LeafSpaceSpec, open_end, to_limit, to_vertex, validate

    spec = LeafSpaceSpec()
    for v in ("a", "m", "c"):
        spec.add_vertex(v)
    spec.add_edge("s", low=open_end(), high=to_limit(("a", 0), ("m", 0)))
    spec.add_edge("t", low=to_limit(("m", 0), ("c", 0)), high=open_end())
    spec.add_edge("pa", low=to_vertex("a"), high=open_end())
    spec.add_edge("pc", low=open_end(), high=to_vertex("c"))
    trunc = expand(spec, 0)
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
