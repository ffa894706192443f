import itertools
from fractions import Fraction

import pytest

from leafspace.core import (
    BadOffset,
    ChainEndRule,
    EndRule,
    InvalidModel,
    LeafSpaceSpec,
    Point,
    UnresolvedName,
    branch_loci,
    expand,
    hausdorffify,
    open_end,
    require_routable,
    to_limit,
    to_vertex,
    validate,
    vertex_point,
)
from leafspace.formats import ParseError, parse
from leafspace.paths import Comparability, compare, path
from leafspace.core import mid_point

from reference import (
    reference_cells, reference_edge_neighbors, reference_germ_providers, reference_ladder_counts,
    reference_locus_groups, reference_rooting, reference_validate, reference_vertex_neighbors,
    reference_vertex_sides, reference_window)


def test_expand_line_counts(line):
    trunc = expand(line.spec, 2)
    assert len(trunc.vertex_cells) == 5
    assert trunc.vertex_cells == [("v", i) for i in range(-2, 3)]
    assert len(trunc.edge_cells) == 4
    assert len(trunc.truncated_ends) == 2


def test_expand_yplus_depth_independent(yplus):
    t0, t7 = expand(yplus.spec, 0), expand(yplus.spec, 7)
    assert t0.vertex_cells == t7.vertex_cells
    assert t0.edge_cells == t7.edge_cells
    assert not t0.has_truncation


def test_expand_swap_counts(swap):
    trunc = expand(swap.spec, 1)
    assert trunc.vertex_cells == [("a", 0), ("b", 0)]
    assert trunc.edge_cells == [(f, i) for f in ("ra", "rb", "s") for i in (-1, 0, 1)]
    assert len(trunc.truncated_ends) == 6


@pytest.mark.parametrize("name", ["LINE", "YPLUS", "SWAP", "ZIGZAG", "COMB"])
def test_expand_monotone(name, request):
    entry = request.getfixturevalue(name.lower())
    for d in range(0, 5):
        small, big = expand(entry.spec, d), expand(entry.spec, d + 1)
        assert set(small.vertex_cells) <= set(big.vertex_cells)
        assert set(small.edge_cells) <= set(big.edge_cells)


def test_expand_unresolved_name():
    spec = LeafSpaceSpec()
    spec.add_vertex("a")
    spec.add_edge("e", low=to_vertex("nope"), high=open_end())
    with pytest.raises(UnresolvedName):
        expand(spec, 1)
    # hand-built rules of the wrong shape: each table's targets are read in
    # their own shape, (family, offset) pairs per cell, names per chain end
    for rule, message in ((EndRule("vertex", ("v",)), r"e.low target 'v' is not a \(family"),
                          (EndRule("vertex", (("v", 0, 1),)), r"\('v', 0, 1\) is not a \(family")):
        spec = LeafSpaceSpec()
        spec.add_vertex("v", chain=True)
        spec.add_edge("e", low=rule, high=open_end(), chain=True)
        with pytest.raises(UnresolvedName, match=message):
            expand(spec, 1)
    spec = LeafSpaceSpec()
    spec.add_vertex("a")
    spec.add_vertex("b")
    spec.add_glued_chain("r", 1, ChainEndRule("limit", (("a", 0), ("b", 0))), ChainEndRule("open"))
    with pytest.raises(UnresolvedName, match=r"r.neg target \('a', 0\) is not a family name"):
        expand(spec, 1)


def test_generator_on_spec_with_unknown_end_family_is_unresolved():
    # built through the API, so no parse checked the rule's family first
    spec = LeafSpaceSpec()
    spec.add_vertex("a")
    spec.ends[("ghost", "low")] = open_end()
    with pytest.raises(UnresolvedName, match="end rule on unknown family 'ghost'"):
        spec.add_generator("g", {"a": ("a", 0)})


def test_limit_rule_without_target_is_unresolved():
    edge = LeafSpaceSpec()
    edge.add_vertex("a")
    edge.add_edge("e", low=open_end(), high=EndRule("limit", ()))
    chain = LeafSpaceSpec()
    chain.add_vertex("a")
    chain.add_glued_chain("s", glue=1, neg=ChainEndRule("limit", ()), pos=ChainEndRule("open"))
    for spec in (edge, chain):
        for depth in (0, 1):
            with pytest.raises(UnresolvedName, match="limit rule on .* names no target"):
                expand(spec, depth)
    # a document never gets that far: the parser rejects the line
    with pytest.raises(ParseError, match="line 4.*VFAM OFFSET"):
        parse("leafspace/1\nfamily a vertex unit\nfamily e edge unit\nend e high limit\n")
    with pytest.raises(ParseError, match="line 4.*at least one vertex"):
        parse("leafspace/1\nfamily a vertex unit\nfamily s edge chain glue +1\n"
              "chainend s neg limit\n")


def test_expand_bad_offset(monkeypatch):
    from leafspace.core import DEPTH_LIMIT, Truncation

    spec = LeafSpaceSpec()
    spec.add_vertex("a")
    spec.add_edge("e", low=to_vertex("a", offset="x"), high=open_end())
    with pytest.raises(BadOffset):
        expand(spec, 1)
    with pytest.raises(BadOffset):
        expand(LeafSpaceSpec(), -1)
    # a depth that is not an int is refused before any cell is built, also
    # when it equals a depth the spec has cached
    spec = LeafSpaceSpec()
    spec.add_vertex("a")
    cached = spec.window(1)
    monkeypatch.setattr(Truncation, "__init__", lambda *args: pytest.fail("window built"))
    for depth in (2.5, "3", None, 1.0, True):
        with pytest.raises(BadOffset, match="is not an integer"):
            expand(spec, depth)
        with pytest.raises(BadOffset, match="is not an integer"):
            spec.window(depth)
        assert spec.freeze()._windows == {1: cached}
    monkeypatch.undo()
    # a depth above the cap is refused before well-formedness, and no
    # window is built or cached
    spec = LeafSpaceSpec()
    spec.add_edge("e", low=to_vertex("ghost"), high=open_end())
    monkeypatch.setattr(Truncation, "__init__", lambda *args: pytest.fail("window built"))
    for depth in (DEPTH_LIMIT + 1, 10 ** 12):
        with pytest.raises(BadOffset, match=f"depth {depth} exceeds the limit of {DEPTH_LIMIT}"):
            expand(spec, depth)
        with pytest.raises(BadOffset, match="exceeds the limit"):
            spec.window(depth)
        assert not spec.freeze()._windows
    with pytest.raises(UnresolvedName):
        expand(spec, DEPTH_LIMIT)


def test_validate_line_clean(line):
    trunc = expand(line.spec, 3)
    assert validate(trunc).valid
    assert branch_loci(trunc) == []


def test_validate_yplus_one_locus(yplus):
    trunc = expand(yplus.spec, 2)
    assert validate(trunc).valid
    loci = branch_loci(trunc)
    assert len(loci) == 1
    assert loci[0].members == (("a", 0), ("b", 0))
    assert loci[0].sign == "positive"


def broken_yplus():
    # q's low end reattached to a: both p and q claim a's upper germ
    spec = LeafSpaceSpec()
    spec.add_vertex("a")
    spec.add_vertex("b")
    spec.add_edge("s", low=open_end(), high=to_limit(("a", 0), ("b", 0)))
    spec.add_edge("p", low=to_vertex("a"), high=open_end())
    spec.add_edge("q", low=to_vertex("a"), high=open_end())
    return spec


def test_validate_reports_double_germ():
    report = validate(expand(broken_yplus(), 1))
    assert not report.valid
    codes = {v.code for v in report.violations}
    assert "germ-count" in codes
    messages = " ".join(v.message for v in report.violations)
    assert "a[0]" in messages and "b[0]" in messages


def test_hausdorffify_rejects_invalid():
    with pytest.raises(InvalidModel):
        hausdorffify(expand(broken_yplus(), 1))


def _degree(tree, node):
    return sum((lo, hi).count(node) for _, lo, hi in tree.edges)


def test_hausdorffify_yplus_star(yplus):
    tree = hausdorffify(expand(yplus.spec, 1))
    assert len(tree.edges) == 3
    center = tree.vertex_projection[("a", 0)]
    assert center == tree.vertex_projection[("b", 0)]
    assert _degree(tree, center) == 3


def test_hausdorffify_line_path_graph(line):
    for d in (1, 2, 4):
        tree = hausdorffify(expand(line.spec, d))
        assert len(tree.edges) == 2 * d
        degrees = sorted(_degree(tree, n) for n in tree.nodes)
        assert degrees == [1, 1] + [2] * (2 * d - 1)


def test_hausdorffify_zigzag_caterpillar(zigzag):
    trunc = expand(zigzag.spec, 1)
    tree = hausdorffify(trunc)
    # 6 collapsed loci along the spine, pendant stems, plus E/F rungs
    loci_nodes = {n for n in tree.nodes if n[0] == "locus"}
    assert len(loci_nodes) == 6
    assert len(tree.edges) == len(tree.nodes) - 1
    spine_degrees = sorted(_degree(tree, n) for n in loci_nodes)
    assert spine_degrees[-1] <= 3


def test_branch_loci_swap(swap):
    loci = branch_loci(expand(swap.spec, 2))
    assert len(loci) == 1
    (locus,) = loci
    assert locus.members == (("a", 0), ("b", 0))
    assert locus.sign == "positive"
    assert locus.stem == ("chain_end", "s", "neg")


def test_branch_loci_zigzag_signs(zigzag):
    loci = branch_loci(expand(zigzag.spec, 1))
    positive = [b for b in loci if b.sign == "positive"]
    negative = [b for b in loci if b.sign == "negative"]
    assert len(positive) == 3 and len(negative) == 3
    assert all(len(b.members) == 2 for b in loci)
    assert {b.members for b in positive} == {
        (("p1", n), ("p2", n)) for n in (-1, 0, 1)}


@pytest.mark.parametrize("name", ["LINE", "YPLUS", "SWAP", "ZIGZAG", "COMB"])
def test_window_tree_all_depths(name, request):
    entry = request.getfixturevalue(name.lower())
    for d in range(0, 9):
        trunc = expand(entry.spec, d)
        assert validate(trunc).valid, (name, d)
        tree = hausdorffify(trunc)
        assert len(tree.edges) == len(tree.nodes) - 1


@pytest.mark.parametrize("name", ["SWAP", "ZIGZAG", "COMB"])
def test_loci_stabilize_per_index(name, request):
    entry = request.getfixturevalue(name.lower())
    shallow = {b.members: (b.sign, b.stem) for b in branch_loci(expand(entry.spec, 2))}
    deep = {b.members: (b.sign, b.stem) for b in branch_loci(expand(entry.spec, 6))}
    for key, value in shallow.items():
        assert deep[key] == value


def test_locus_members_non_separated(swap, zigzag):
    # members of one locus jump to each other (length-2 connection) and
    # share lower bounds arbitrarily close along the common stem
    trunc = expand(swap.spec, 3)
    a, b = vertex_point("a"), vertex_point("b")
    assert compare(trunc, a, b) is Comparability.INCOMPARABLE
    p = path(trunc, a, b)
    assert p.length == 2 and p.junctions[0].locus.members == (("a", 0), ("b", 0))
    for n in (0, 1, 2):
        stem_pt = mid_point("s", n)
        assert compare(trunc, stem_pt, a) is Comparability.LESS
        assert compare(trunc, stem_pt, b) is Comparability.LESS

    trunc = expand(zigzag.spec, 2)
    m1, m2 = vertex_point("m1", 0), vertex_point("m2", 0)
    assert compare(trunc, m1, m2) is Comparability.INCOMPARABLE
    assert compare(trunc, mid_point("tau", 0), m1) is Comparability.GREATER
    assert compare(trunc, mid_point("tau", 0), m2) is Comparability.GREATER


def test_disconnected_window_reported():
    # attachments out-reaching the depth split the window; validate says
    # so, and routing degrades to Truncated rather than guessing
    spec = LeafSpaceSpec()
    spec.add_vertex("v", chain=True)
    spec.add_edge("e", low=to_vertex("v", 0), high=to_vertex("v", 3), chain=True)
    trunc = expand(spec, 2)
    report = validate(trunc)
    assert {v.code for v in report.violations} == {"disconnected"}
    from leafspace.core import TruncatedError
    with pytest.raises(TruncatedError):
        path(trunc, vertex_point("v", 1), vertex_point("v", 2))
    assert compare(trunc, vertex_point("v", 1), vertex_point("v", 2)) is Comparability.TRUNCATED
    assert compare(trunc, mid_point("e", -1), vertex_point("v", 1)) is Comparability.TRUNCATED


def test_hausdorff_fibers_are_exactly_loci(swap, zigzag, comb):
    for entry in (swap, zigzag, comb):
        trunc = expand(entry.spec, 3)
        tree = hausdorffify(trunc)
        fibers = {}
        for vcell, node in tree.vertex_projection.items():
            fibers.setdefault(node, []).append(vcell)
        fat = {tuple(sorted(cells)) for cells in fibers.values() if len(cells) > 1}
        loci_members = {b.members for b in branch_loci(trunc)}
        assert fat == loci_members


@pytest.mark.parametrize("build, error, message", [
    (lambda spec: spec.add_glued_chain("r", 2, ChainEndRule("open"), ChainEndRule("open")),
     BadOffset, "glue direction must be +1 or -1, got 2"),
    (lambda spec: spec.add_vertex("v"), UnresolvedName, "duplicate family 'v'"),
    (lambda spec: Point(("e", 0), Fraction(3, 2)), ValueError,
     "interior coordinate must be in (0,1)"),
], ids=["glue", "duplicate-family", "point-coordinate"])
def test_malformed_construction_is_a_typed_error(build, error, message):
    spec = _line_families()
    families = dict(spec.families)
    with pytest.raises(error) as caught:
        build(spec)
    assert type(caught.value) is error and str(caught.value) == message
    assert spec.families == families


@pytest.mark.parametrize("name, write, violation", [
    ("LINE", lambda spec: spec.ends.__setitem__(("v", "low"), open_end()),
     ("shape", "vertex family v has an end rule")),
    ("SWAP", lambda spec: spec.ends.__setitem__(("s", "high"), open_end()),
     ("shape", "glued chain s has a per-cell end rule")),
    ("LINE", lambda spec: spec.chain_ends.__setitem__(("e", "pos"), ChainEndRule("open")),
     ("shape", "unglued family e has a chain-end rule")),
    ("LINE", lambda spec: spec.add_mark("ghost", vertex_point("ghost", 0)),
     ("mark", "mark ghost references unknown family ghost")),
], ids=["end-on-vertex-family", "end-on-glued-chain", "chainend-on-unglued-family",
        "mark-on-unknown-family"])
def test_validate_reports_a_rule_the_builders_cannot_write(name, write, violation):
    # direct writes to the rule tables, which add_* never make, and a mark
    # (add_mark takes any point)
    from leafspace.gallery import gallery

    spec = gallery(name).spec
    write(spec)
    report = validate(expand(spec, 1))
    assert [(v.code, v.message) for v in report.violations] == [violation]


def test_validate_reports_a_chain_end_limit_onto_a_vertex_chain():
    spec = LeafSpaceSpec()
    spec.add_vertex("v", chain=True)
    spec.add_glued_chain("s", glue=1, neg=ChainEndRule("open"),
                         pos=ChainEndRule("limit", ("v",)))
    report = validate(expand(spec, 1))
    assert ("limit-set", "s chain end pos must target unit vertex families, got v") in [
        (v.code, v.message) for v in report.violations]


def test_the_empty_model_is_a_valid_empty_window():
    # no family: no cell, no node, no edge and no component
    trunc = expand(LeafSpaceSpec(), 0)
    assert (trunc.vertex_cells, trunc.edge_cells, trunc.components) == ([], [], 0)
    report = validate(trunc)
    assert report.violations == () and report.routing_error is None
    tree = hausdorffify(trunc)
    assert (tree.nodes, tree.edges, tree.vertex_projection, tree.edge_projection) == ((), (), {}, {})


def test_malformed_glue_reported_not_crashed():
    from leafspace.core import Family, LeafSpaceSpec

    spec = LeafSpaceSpec()
    spec._add_family(Family("x", "edge", False, 1))   # unit family claiming glue
    report = validate(expand(spec, 1))
    codes = {v.code for v in report.violations}
    assert "shape" in codes


# -- cached windows and their germ table ----------------------------------------


def _line_families():
    """LINE's families and marks, without its generator."""
    from leafspace.core import mid_point

    spec = LeafSpaceSpec()
    spec.add_vertex("v", chain=True)
    spec.add_edge("e", low=to_vertex("v", 0), high=to_vertex("v", 1), chain=True)
    spec.add_mark("origin", vertex_point("v", 0))
    spec.add_mark("e0", mid_point("e", 0))
    return spec


def test_add_drops_cached_windows():
    from leafspace.core import Point, cached_validation

    spec = _line_families()
    assert cached_validation(spec.window(2)).valid
    spec.add_mark("bad", Point(("v", 0), "1/2"))
    fresh = validate(expand(spec, 2))
    assert {v.code for v in fresh.violations} == {"mark"}
    assert cached_validation(spec.window(2)) == fresh
    for add in (lambda: spec.add_vertex("w"),
                lambda: spec.add_edge("f", low=open_end(), high=open_end()),
                lambda: spec.add_glued_chain("r", 1, ChainEndRule("open"), ChainEndRule("open")),
                lambda: spec.add_generator("k", {f: (f, 0) for f in spec.families}),
                lambda: spec.add_mark("m", vertex_point("v", 1))):
        before = spec.window(2)
        add()
        assert spec.window(2) is not before
    # cut vertex sides and glued-chain ends in one window: vertex sides first
    ats = [te.at for te in spec.window(2).truncated_ends]
    assert ats[-2:] == [("chain", "r", "neg"), ("chain", "r", "pos")]
    assert ats[0] == (("v", -2), "low")


def test_family_after_a_generator_is_rejected():
    from leafspace.gallery import gallery

    spec = gallery("LINE").spec
    for add in (lambda: spec.add_vertex("w"),
                lambda: spec.add_edge("f", low=open_end(), high=open_end()),
                lambda: spec.add_glued_chain("r", 1, ChainEndRule("open"), ChainEndRule("open"))):
        families, generators = dict(spec.families), dict(spec.generators)
        ends, chain_ends, window = dict(spec.ends), dict(spec.chain_ends), spec.window(2)
        with pytest.raises(UnresolvedName, match="added after a generator"):
            add()
        assert spec.families == families and spec.generators == generators
        assert spec.ends == ends and spec.chain_ends == chain_ends
        assert spec.window(2) is window


def test_validate_records_its_report(swap):
    from leafspace.core import cached_validation

    trunc = expand(swap.spec, 2)
    report = validate(trunc)
    assert cached_validation(trunc) is report


def odd_germs_spec():
    """Germ corner cases: a chain edge ending on a unit vertex (one germ
    per index), a unit edge ending on one cell of a vertex chain, and a
    chain-end limit naming its vertex twice."""
    from leafspace.core import ChainEndRule

    spec = LeafSpaceSpec()
    spec.add_vertex("u")
    spec.add_vertex("V", chain=True)
    spec.add_edge("e", low=to_vertex("u"), high=to_vertex("V", 0), chain=True)
    spec.add_edge("d", low=open_end(), high=to_vertex("V", 2))
    spec.add_glued_chain("r", 1, ChainEndRule("limit", ("u", "u")), ChainEndRule("open"))
    return spec


def test_germ_table_matches_rule_scan(tripod, updown, swap_k):
    from leafspace.core import HIGH, LOW
    from leafspace.gallery import GALLERY_NAMES, gallery
    from leafspace.randspec import RandomParams, random_spec

    cases = [(gallery(name).spec, depth) for name in GALLERY_NAMES for depth in range(5)]
    cases += [(spec, depth) for spec in (tripod, updown, swap_k, broken_yplus(), odd_germs_spec())
              for depth in (0, 1, 3)]
    cases += [(random_spec(RandomParams(seed=seed, symmetric=seed % 2 == 1)), 0)
              for seed in range(100)]
    kinds = set()
    for spec, depth in cases:
        trunc = expand(spec, depth)
        for vcell in trunc.vertex_cells:
            providers = {(vcell, side): reference_germ_providers(trunc, vcell, side)
                         for side in (LOW, HIGH)}
            assert list(trunc.vertex_sides(vcell)) == reference_vertex_sides(providers, vcell, depth)
            kinds.update(p[0][0] for found in providers.values() for p in found)
    assert kinds == {"cell", "cell-every", "chain"}


def _odd_cell_specs():
    """Specs whose cells the builder finds despite a rule the builders
    cannot write or that validation rejects, one quirk each."""
    from leafspace.core import HIGH, LOW, Family

    def model(*quirks):
        spec = LeafSpaceSpec()
        spec.add_vertex("v", chain=True)
        spec.add_vertex("a")
        for quirk in quirks:
            quirk(spec)
        return spec

    return [
        # a unit edge with a glue direction
        model(lambda s: s._add_family(Family("g", "edge", False, 1))),
        # an edge family with no rules
        model(lambda s: s._add_family(Family("n", "edge", True))),
        # a glued chain given a per-cell end rule
        model(lambda s: s.add_glued_chain("r", 1, ChainEndRule("open"), ChainEndRule("open")),
              lambda s: s.ends.update({("r", HIGH): to_vertex("v", 4)})),
        # a vertex family given an end rule
        model(lambda s: s.ends.update({("v", LOW): to_vertex("v", 9)})),
        # an edge family as a target, unit and chain, from a chain and a unit edge
        model(lambda s: s.add_edge("c", to_vertex("v", -2), open_end(), chain=True),
              lambda s: s.add_edge("e", to_vertex("c", 3), to_vertex("a"), chain=True),
              lambda s: s.add_edge("u", to_vertex("c", -4), open_end()),
              lambda s: s.add_edge("w", to_limit(("e", 0), ("u", 0)), open_end(), chain=True)),
        # a unit edge into a far chain vertex
        model(lambda s: s.add_edge("u", to_vertex("v", 5), to_vertex("v", -7))),
        # a chain edge into a unit vertex with offsets, and into the chain
        model(lambda s: s.add_edge("e", to_vertex("a", 3), to_limit(("v", -2), ("v", 6)),
                                   chain=True)),
    ]


def _builder_windows(tripod, updown, swap_k):
    """The windows both builder gates check: the gallery at d = 0-8, 64
    and 512, random specs plain and symmetric, the fixtures and the odd
    cell specs at d = 0-8, and 1,000 fuzz-mutated specs at five depths."""
    import random

    from leafspace.core import LeafSpaceError
    from leafspace.gallery import GALLERY_NAMES, gallery
    from leafspace.randspec import RandomParams, random_spec
    from test_fuzz import _mutate

    cases = [(gallery(name).spec, depth) for name in GALLERY_NAMES
             for depth in list(range(9)) + [64, 512]]
    cases += [(random_spec(RandomParams(seed=seed, symmetric=symmetric)), seed % 3)
              for seed in range(200) for symmetric in (False, True)]
    cases += [(spec, depth) for spec in [tripod, updown, swap_k] + _odd_cell_specs()
              for depth in range(9)]
    rng = random.Random(3)
    for _ in range(1000):
        base = gallery(rng.choice(GALLERY_NAMES)).spec if rng.random() < 0.5 \
            else random_spec(RandomParams(seed=rng.randint(1, 500), symmetric=rng.random() < 0.3))
        spec = _mutate(base, rng)
        cases += [(spec, depth) for depth in (0, 1, 2, 3, 8)]
    for spec, depth in cases:
        try:
            yield expand(spec, depth)
        except LeafSpaceError:
            continue


def test_cell_runs_match_cell_by_cell_builder(tripod, updown, swap_k):
    windows = shortened = dropped = 0
    for trunc in _builder_windows(tripod, updown, swap_k):
        spec, depth = trunc.spec, trunc.depth
        vertex_cells, edge_cells, runs, position = reference_cells(trunc)
        assert trunc.vertex_cells == vertex_cells and trunc.edge_cells == edge_cells
        assert list(trunc.cell_runs.items()) == list(runs.items())
        assert trunc.position == position
        windows += 1
        shortened += any(spec.families[fam].chain and hi - lo < 2 * depth
                         for fam, (_, lo, hi) in runs.items())
        dropped += len(runs) < len(spec.families)
    assert windows > 5000 and shortened > 100 and dropped > 100


def test_membership_reads_the_position_split(tripod, updown, swap_k):
    # vertex cells hold the positions below len(vertex_cells), edge cells the
    # rest; a cell of either kind, the wrong kind or beyond the window
    from leafspace.gallery import GALLERY_NAMES, gallery

    specs = [gallery(name).spec for name in GALLERY_NAMES] + [tripod, updown, swap_k]
    checked = 0
    for spec in specs + _odd_cell_specs():
        for depth in range(4):
            trunc = expand(spec, depth)
            vertices, edges = set(trunc.vertex_cells), set(trunc.edge_cells)
            far = [(fam, i) for fam in spec.families for i in (-depth - 1, 0, depth + 1)]
            for cell in trunc.vertex_cells + trunc.edge_cells + far:
                assert trunc.has_vertex(cell) == (cell in vertices)
                assert trunc.has_edge(cell) == (cell in edges)
                assert trunc.contains_point(vertex_point(*cell)) == (cell in vertices)
                assert trunc.contains_point(mid_point(*cell)) == (cell in edges)
                checked += 1
    assert checked > 1000


WINDOW_TABLES = ("loci", "_mates", "_locus_group", "graph_edges", "adjacency",
                 "rooting", "ladder", "components", "truncated_ends", "has_truncation")


def test_window_tables_match_reference(tripod, updown, swap_k):
    from leafspace.core import HIGH, LOW

    # every table in dict and list order, neighbour lists included
    def ordered(value):
        if isinstance(value, dict):
            return list(value.items())
        return list(value) if isinstance(value, tuple) else value

    windows = shared = faults = several = 0
    for trunc in _builder_windows(tripod, updown, swap_k):
        ref = reference_window(trunc)
        for name in WINDOW_TABLES:
            assert ordered(getattr(trunc, name)) == ordered(getattr(ref, name)), name
        # an edge cell's graph edge id is its position past the vertex cells
        nv = len(trunc.vertex_cells)
        assert ordered(ref.edge_index) == [(c, trunc.position[c] - nv) for c in trunc.edge_cells]
        # the stored sides, as the reference providers read side by side
        assert ordered(trunc._germs) == [
            ((vcell, side), pair) for vcell in trunc.vertex_cells
            for side, pair in zip((LOW, HIGH), reference_vertex_sides(ref._germs, vcell, ref.depth))]
        # the germ faults recorded while the table filled, as a rescan finds them
        assert trunc._germ_faults == [v.message for v in reference_validate(trunc).violations
                                      if v.code == "germ-count"]
        windows += 1
        members = [m for locus in trunc.loci for m in locus.members]
        shared += len(set(members)) < len(members)
        faults += bool(trunc._germ_faults)
        several += trunc.components > 1
    assert windows > 5000 and shared > 100 and faults > 1000 and several > 100


def test_vertex_neighbors_match_graph_anchors(swap_k):
    from leafspace.gallery import GALLERY_NAMES, gallery
    from leafspace.randspec import RandomParams, random_spec

    cases = [(gallery(name).spec, depth) for name in GALLERY_NAMES for depth in range(9)]
    cases += [(random_spec(RandomParams(seed=seed, symmetric=seed % 3 == 0)), 0)
              for seed in range(300)]
    cases += [(swap_k, depth) for depth in range(9)]
    checked = 0
    for spec, depth in cases:
        trunc = expand(spec, depth)
        if not validate(trunc).valid:
            continue
        for vcell in trunc.vertex_cells:
            assert trunc.cell_neighbors(vcell) == reference_vertex_neighbors(trunc, vcell)
            checked += 1
        for cell in trunc.vertex_cells + trunc.edge_cells:
            for nbr in trunc.cell_neighbors(cell):
                assert cell in trunc.cell_neighbors(nbr)
    assert checked > 1000


def test_edge_neighbors_match_graph_anchors(swap_k):
    # the windows of test_vertex_neighbors_match_graph_anchors, invalid ones included
    from leafspace.gallery import GALLERY_NAMES, gallery
    from leafspace.randspec import RandomParams, random_spec

    cases = [(gallery(name).spec, depth) for name in GALLERY_NAMES for depth in range(9)]
    cases += [(random_spec(RandomParams(seed=seed, symmetric=seed % 3 == 0)), 0)
              for seed in range(300)]
    cases += [(swap_k, depth) for depth in range(9)]
    checked = 0
    for spec, depth in cases:
        trunc = expand(spec, depth)
        for cell in trunc.edge_cells:
            assert trunc.cell_neighbors(cell) == reference_edge_neighbors(trunc, cell)
            checked += 1
    assert checked > 1000


@pytest.fixture(scope="module")
def assorted_windows(tripod, updown, swap_k):
    """Windows of the gallery, random, fixture and fuzz-mutated models."""
    import random

    from leafspace.core import LeafSpaceError
    from leafspace.gallery import GALLERY_NAMES, gallery
    from leafspace.randspec import RandomParams, random_spec
    from test_fuzz import _mutate
    from test_paths import _two_loci_spec

    cases = [(gallery(name).spec, depth) for name in GALLERY_NAMES
             for depth in list(range(9)) + [64]]
    cases += [(random_spec(RandomParams(seed=seed, symmetric=seed % 3 == 0)), seed % 3)
              for seed in range(300)]
    cases += [(spec, depth) for spec in (tripod, updown, swap_k, _two_loci_spec(),
                                         broken_yplus(), odd_germs_spec())
              for depth in range(5)]
    rng = random.Random(0)
    for _ in range(250):
        base = random_spec(RandomParams(seed=rng.randint(1, 500))) if rng.random() < 0.5 \
            else gallery(rng.choice(GALLERY_NAMES)).spec
        cases.append((_mutate(base, rng), 2))
    windows = []
    for spec, depth in cases:
        try:
            windows.append(expand(spec, depth))
        except LeafSpaceError:
            pass
    return windows


def _germ_fault_specs():
    """One germ-count fault each: a unit vertex and a chain vertex with two
    germs on a side, a chain edge ending on a unit vertex, a vertex with
    no germ at all, and a vertex chain that one unit edge names."""
    two = LeafSpaceSpec()
    two.add_vertex("v")
    two.add_vertex("V", chain=True)
    for name in ("e", "f"):
        two.add_edge(name, low=to_vertex("v"), high=open_end())
        two.add_edge(name + "c", low=to_vertex("V", 1), high=open_end(), chain=True)
    every = LeafSpaceSpec()
    every.add_vertex("a")
    every.add_edge("e", low=to_vertex("a"), high=open_end(), chain=True)
    bare = LeafSpaceSpec()
    bare.add_vertex("v")
    named = LeafSpaceSpec()
    named.add_vertex("V", chain=True)
    named.add_edge("d", low=to_vertex("V", -1), high=open_end())
    return [two, every, bare, named]


def test_validate_matches_reference(assorted_windows):
    windows = assorted_windows + [expand(spec, depth) for spec in _germ_fault_specs()
                                  for depth in range(4)]
    messages = []
    for trunc in windows:
        report = validate(trunc)
        assert report == reference_validate(trunc)
        messages += [v.message for v in report.violations if v.code == "germ-count"]
    for fault in ("has 2 germs", "one germ per chain index", "has 0 germs"):
        assert sum(fault in m for m in messages) > 5, fault


def test_vertex_nodes_match_union_find(assorted_windows):
    merged = 0
    for trunc in assorted_windows:
        groups = reference_locus_groups(trunc)
        for vcell in trunc.vertex_cells:
            gid = groups.get(vcell)
            want = ("locus", gid) if gid is not None else ("vertex",) + vcell
            assert trunc.vertex_node(vcell) == want
        merged += len(set(groups.values())) < len(trunc.loci)
    assert merged       # some window joins loci that share a member


def test_rooting_matches_sorted_neighbours(assorted_windows):
    routable = 0
    for trunc in assorted_windows:
        if all(v.code == "disconnected" for v in validate(trunc).violations):
            assert {node: r[:3] for node, r in trunc.rooting.items()} == reference_rooting(trunc)
            for node, (parent, eid, _, up, down) in trunc.rooting.items():
                if parent is None:
                    assert up is None and down is None
                    continue
                # each stored hop is its graph edge, oriented from node to parent
                _, lo, hi, a_lo, a_hi = trunc.graph_edges[eid]
                anchor = {lo: a_lo, hi: a_hi}
                assert up == (eid, None, node, parent, anchor[node], anchor[parent], parent == hi)
                assert down == (eid, None, parent, node, anchor[parent], anchor[node], node == hi)
            routable += 1
    assert routable > len(assorted_windows) // 2


def _turns_somewhere(trunc):
    """Whether some node of the window graph has two incident edges that
    neither jump (at a locus node whose anchors of the two share no vertex)
    nor keep the direction (both leave the node upward, or both downward,
    so a route arriving by one and leaving by the other turns back)."""
    ends = {}       # node -> (anchor, whether the edge leaves the node upward) per edge end
    for _, lo, hi, a_lo, a_hi in trunc.graph_edges:
        ends.setdefault(lo, []).append((a_lo, True))
        ends.setdefault(hi, []).append((a_hi, False))
    for node, incident in ends.items():
        for (a, up_a), (b, up_b) in itertools.combinations(incident, 2):
            if up_a == up_b and not (node[0] == "locus" and a.isdisjoint(b)):
                return True
    return False


def _climbs(trunc, node, level):
    """Steps from node up to the given depth, by jump pointer where that
    does not overshoot, else by parent."""
    rooting, ladder = trunc.rooting, trunc.ladder
    steps = 0
    while rooting[node][2] > level:
        jump = ladder[node][0]
        node = jump if rooting[jump][2] >= level else rooting[node][0]
        steps += 1
    return steps


def test_ladder_counts_crossings_and_climbs_in_log_depth(assorted_windows):
    # The ladder counts jumps only: on a window that routing accepts no
    # route turns, which ``compare`` relies on.  Some rejected window does.
    import math
    import random

    from leafspace.gallery import gallery

    accepted = rejected_turning = 0
    for trunc in assorted_windows:
        try:
            require_routable(trunc)
            routable = True
        except InvalidModel:
            routable = False
        turning = _turns_somewhere(trunc)
        if routable:
            assert not turning
            accepted += 1
        else:
            rejected_turning += turning
        rooting = trunc.rooting
        assert trunc.ladder.keys() == rooting.keys()
        for node, (jump, jumps) in trunc.ladder.items():
            ref_jumps, turns = reference_ladder_counts(trunc, node)
            assert jumps == ref_jumps
            assert not (routable and turns), node
            if rooting[node][0] is None:
                assert jump == node
                continue
            above = rooting[node][0]       # the jump pointer is a proper ancestor
            while above != jump:
                above = rooting[above][0]
    assert accepted > len(assorted_windows) // 2 and rejected_turning
    rng = random.Random(3)
    for name in ("SWAP", "ZIGZAG", "COMB"):
        trunc = expand(gallery(name).spec, 512)
        for node in rng.sample(sorted(trunc.rooting), 40):
            depth = trunc.rooting[node][2]
            for level in {0, depth // 3, depth // 2, depth - 1} - {-1}:
                assert _climbs(trunc, node, level) <= 3 * math.log2(depth + 2), (node, level)


def test_anchors_of_two_or_more_cells_are_stem_loci(swap_k):
    # an edge end limiting on two or more vertices is a locus stem, and its
    # anchor holds exactly that locus's members
    from leafspace.core import HIGH, LOW
    from leafspace.gallery import GALLERY_NAMES, gallery
    from leafspace.randspec import RandomParams, random_spec

    cases = [(gallery(name).spec, depth) for name in GALLERY_NAMES for depth in range(9)]
    cases += [(random_spec(RandomParams(seed=seed, symmetric=seed % 3 == 0)), 0)
              for seed in range(300)]
    cases += [(swap_k, depth) for depth in range(9)]
    checked = 0
    for spec, depth in cases:
        trunc = expand(spec, depth)
        if not validate(trunc).valid:
            continue
        members = {locus.stem: frozenset(locus.members) for locus in trunc.loci}
        for payload, _, _, a_lo, a_hi in trunc.graph_edges:
            for end, anchor in ((LOW, a_lo), (HIGH, a_hi)):
                if anchor is None or len(anchor) < 2:
                    continue
                if payload[0] == "cell":
                    stem = ("cell_end",) + payload[1:3] + (end,)
                else:
                    stem = ("chain_end",) + payload[1:3]
                assert anchor == members[stem]
                checked += 1
    assert checked > 700
