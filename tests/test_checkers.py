import io
import math
import re
from collections import Counter

import pytest

from leafspace.core import (
    HIGH, ChainEndRule, Element, LeafSpaceSpec, PreconditionFailed, Tri, TruncatedError, expand,
    mid_point, open_end, to_limit, to_vertex, validate, vertex_point)
from leafspace.core import branch_loci
from leafspace.action import (
    Word, act, element_ball, fingerprint, in_comparable_set, word_map)
from leafspace.checkers import (
    PASS,
    TRUNCATED,
    VIOLATION,
    CheckReport,
    check_connected_open,
    check_faithfulness,
    check_fix_propagation,
    check_intermediate_fixed,
    check_invariant_locus_stem,
    check_lower_bound,
    check_odd_path,
    check_path_in_comparable_set,
    check_return,
    screen_infinite_locus,
    stabilizer_ball,
)
from leafspace.gallery import GALLERY_NAMES, gallery
from leafspace.paths import COMPARABLE, Comparability, path
from leafspace.randspec import RandomParams, random_spec

from conftest import act_cell, build_swap_k, build_tripod, build_updown
from reference import (
    _reference_path, _reference_sample_points, reduced_words, reference_check_connected_open,
    reference_check_faithfulness, reference_check_odd_path, reference_components,
    reference_discover_instances, reference_germ_providers, reference_relation, reference_route, reference_stabilizer_ball,
    reference_sweep, reference_vertex_neighbors)


def swap_locus(swap, depth=4):
    return branch_loci(expand(swap.spec, depth))[0]


# -- lower bound (one-sided positive branching) ------------------------------


def test_lower_bound_comb_spine(comb):
    u = Word.generator("u")
    rep = check_lower_bound(comb.spec, u, vertex_point("a", -3), vertex_point("a", 0), 3)
    assert rep.verdict == PASS


def test_lower_bound_all_low_points(comb):
    # the whole down-set of a spine point satisfies the lemma: every
    # point below a[-1] is comparable with its image
    u = Word.generator("u")
    for lam in (vertex_point("a", -3), mid_point("sp", -3),
                vertex_point("a", -2), mid_point("sp", -2)):
        rep = check_lower_bound(comb.spec, u, lam, vertex_point("a", -1), 3)
        assert rep.verdict == PASS


def test_lower_bound_flags_inconsistent_action(tripod_inconsistent):
    # f fixes pa but claims to swap a and b: a lies below pa and below
    # f(pa) = pa, yet a is incomparable with its image b (the brute-force
    # oracle agrees), so the lemma's conclusion fails
    from bruteforce import Oracle

    spec, f = tripod_inconsistent, Word.generator("f")
    lam, mu = vertex_point("a"), mid_point("pa")
    assert Oracle(spec).compare(lam, act(spec, f, lam)) == "incomparable"
    for depth in (0, 2):
        rep = check_lower_bound(spec, f, lam, mu, depth)
        assert rep.verdict == VIOLATION
        assert dict(rep.witness) == {"lam": "a[0]", "membership": "no", "word": "f"}


def test_lower_bound_guards(swap, zigzag):
    g = Word.generator("g")
    # bounds do not hold: mid ra[0] is no lower bound of the stem point
    with pytest.raises(PreconditionFailed):
        check_lower_bound(swap.spec, g, mid_point("ra", 0), mid_point("s", 0), 4)
    # branching type guard: ZIGZAG is two-sided
    with pytest.raises(PreconditionFailed):
        check_lower_bound(zigzag.spec, Word.generator("h"),
                          mid_point("E", 0), mid_point("E", 1), 3)


# -- path stays in the comparable set ----------------------------------------


def test_c2_swap_square(swap):
    g2 = Word.generator("g") ** 2
    rep = check_path_in_comparable_set(swap.spec, g2, mid_point("ra", 0), mid_point("rb", 0), 4)
    assert rep.verdict == PASS


def test_c2_single_interval_vacuous(swap):
    g2 = Word.generator("g") ** 2
    rep = check_path_in_comparable_set(swap.spec, g2, mid_point("s", 0), mid_point("s", 1), 4)
    assert rep.verdict == PASS
    assert ("path_length", "1") in rep.witness


def test_c2_flags_inconsistent_action(tripod_inconsistent):
    # f fixes the branch cells pa, pb but claims to swap a and b: the
    # junction of the connection from pa to pb is not fixed, and the
    # checker must say so
    f = Word.generator("f")
    spec = tripod_inconsistent
    assert in_comparable_set(spec, f, mid_point("pa"), 2) is Tri.YES
    assert in_comparable_set(spec, f, mid_point("pb"), 2) is Tri.YES
    rep = check_path_in_comparable_set(spec, f, mid_point("pa"), mid_point("pb"), 2)
    assert rep.verdict == VIOLATION
    witness = dict(rep.witness)
    assert witness["point"] == "a[0]"
    # the violation replays on the primitive operation
    assert act(spec, f, vertex_point("a")) == vertex_point("b")


def test_c2_flags_a_moved_point_inside_a_monotone_path(tripod_inconsistent):
    # the path from s up to pa has no junction, and both ends are fixed,
    # but f sends the vertex a it passes to b, incomparable with a
    from bruteforce import Oracle

    spec, f = tripod_inconsistent, Word.generator("f")
    a = vertex_point("a")
    assert Oracle(spec).compare(a, act(spec, f, a)) == "incomparable"
    for depth in (0, 2):
        assert path(spec.window(depth), mid_point("s"), mid_point("pa")).junctions == ()
        rep = check_path_in_comparable_set(spec, f, mid_point("s"), mid_point("pa"), depth)
        assert rep.verdict == VIOLATION
        assert dict(rep.witness) == {"point": "a[0]", "word": "f"}


def test_c2_guard(swap):
    g = Word.generator("g")
    with pytest.raises(PreconditionFailed):
        check_path_in_comparable_set(swap.spec, g, mid_point("ra", 0), mid_point("s", 0), 4)


# -- connected and open -------------------------------------------------------


def test_connected_open_swap(swap):
    rep = check_connected_open(swap.spec, Word.generator("g"), 3)
    assert rep.verdict == PASS
    assert int(dict(rep.witness)["yes_cells"]) == 7      # the stem cells


def test_connected_open_empty_vacuous(zigzag):
    rep = check_connected_open(zigzag.spec, Word.generator("h"), 3)
    assert rep.verdict == PASS
    assert any("empty" in note for note in rep.notes)


def test_connected_open_line_everything(line):
    rep = check_connected_open(line.spec, Word.generator("t"), 3)
    assert rep.verdict == PASS


# -- odd path length ----------------------------------------------------------


def test_odd_path_zigzag(zigzag):
    rep = check_odd_path(zigzag.spec, Word.generator("h"), mid_point("E", 0), 3, 4)
    assert rep.verdict == PASS
    assert ("path_length", "3") in rep.witness


def test_odd_path_guard_even(swap):
    with pytest.raises(PreconditionFailed, match="even"):
        check_odd_path(swap.spec, Word.generator("g"), mid_point("ra", 0), 4, 4)


def test_odd_path_needs_a_power(zigzag):
    h = Word.generator("h")
    for k_max in (0, -2):
        with pytest.raises(PreconditionFailed, match="k_max"):
            check_odd_path(zigzag.spec, h, mid_point("E", 0), k_max, 4)


def test_odd_path_square_never_violates(zigzag):
    # the h^2-connection has length 5 (odd again); the checker either
    # passes or refuses on parity, it never reports a violation
    h2 = Word.generator("h") ** 2
    trunc = expand(zigzag.spec, 4)
    gamma = path(trunc, mid_point("E", 0), act(zigzag.spec, h2, mid_point("E", 0)))
    if gamma.length % 2 == 1:
        rep = check_odd_path(zigzag.spec, h2, mid_point("E", 0), 2, 4)
        assert rep.verdict == PASS
    else:
        with pytest.raises(PreconditionFailed):
            check_odd_path(zigzag.spec, h2, mid_point("E", 0), 2, 4)


# -- return lemma -------------------------------------------------------------


def test_return_swap(swap):
    rep = check_return(swap.spec, Word.generator("g"), mid_point("ra", 0), 2, 4)
    assert rep.verdict == PASS
    witness = dict(rep.witness)
    assert witness["m"] == "1"
    assert witness["arrive"] == "a[0]" and witness["depart"] == "b[0]"
    g = Word.generator("g")
    assert act(swap.spec, g, vertex_point("a")) == vertex_point("b")
    assert act(swap.spec, g ** 2, vertex_point("a")) == vertex_point("a")


def test_return_guards(swap):
    g = Word.generator("g")
    with pytest.raises(PreconditionFailed):
        check_return(swap.spec, g, mid_point("s", 0), 2, 4)      # lam in C_g
    with pytest.raises(PreconditionFailed):
        check_return(swap.spec, g, mid_point("ra", 0), 3, 4)     # g^3 keeps sides apart
    for k in (1, 0, -2):
        with pytest.raises(PreconditionFailed, match="k must exceed 1"):
            check_return(swap.spec, g, mid_point("ra", 0), k, 4)


def test_return_power_takes_logarithmic_products(swap, monkeypatch):
    # the k-th power is built by squaring, so k = 10**12 costs a few dozen products
    k = 10 ** 12
    budget = 2 * math.ceil(math.log2(k)) + 4
    products = []
    multiply = Element.__mul__

    def counted(self, other):
        products.append(1)
        assert len(products) <= budget, "the power takes more products than squaring needs"
        return multiply(self, other)

    monkeypatch.setattr(Element, "__mul__", counted)
    rep = check_return(swap.spec, Word.generator("g"), mid_point("ra", 0), k, 4)
    assert rep.verdict == PASS and dict(rep.witness)["k"] == str(k)


# -- invariant locus stems ----------------------------------------------------


def test_invariant_stem_swap(swap):
    locus = swap_locus(swap)
    for word in (Word.generator("g"), Word.generator("g") ** 2):
        rep = check_invariant_locus_stem(swap.spec, word, locus, 4)
        assert rep.verdict == PASS
        assert int(dict(rep.witness)["suffix_cells"]) == 9   # whole window stem


def test_invariant_stem_at_a_pos_chain_end():
    # SWAP reflected: the stem s ascends with n and its pos end limits onto
    # {a, b}, so the stem cells run outward from s[depth] down
    spec = LeafSpaceSpec()
    spec.add_vertex("a")
    spec.add_vertex("b")
    spec.add_glued_chain("s", glue=1, neg=ChainEndRule("open"),
                         pos=ChainEndRule("limit", ("a", "b")))
    spec.add_glued_chain("ra", glue=-1, neg=ChainEndRule("open"),
                         pos=ChainEndRule("limit", ("a",)))
    spec.add_glued_chain("rb", glue=-1, neg=ChainEndRule("open"),
                         pos=ChainEndRule("limit", ("b",)))
    spec.add_generator("g", {"s": ("s", 1), "ra": ("rb", 0), "rb": ("ra", 1),
                             "a": ("b", 0), "b": ("a", 0)})
    for depth in (1, 4):
        locus = branch_loci(expand(spec, depth))[0]
        assert locus.stem == ("chain_end", "s", "pos")
        for word in (Word.generator("g"), Word.generator("g") ** 2):
            rep = check_invariant_locus_stem(spec, word, locus, depth)
            assert rep.verdict == PASS
            assert int(dict(rep.witness)["suffix_cells"]) == 2 * depth + 1   # whole window stem


def test_invariant_stem_guard_moved_locus(zigzag):
    locus = branch_loci(expand(zigzag.spec, 3))[0]
    with pytest.raises(PreconditionFailed):
        check_invariant_locus_stem(zigzag.spec, Word.generator("h"), locus, 3)


def test_invariant_stem_unit_stem(tripod):
    locus = branch_loci(expand(tripod, 2))[0]
    rep = check_invariant_locus_stem(tripod, Word.generator("w"), locus, 2)
    assert rep.verdict == PASS


# -- stabilizer balls ---------------------------------------------------------


def test_stabilizer_ball_swap(swap):
    locus = swap_locus(swap)
    ball = stabilizer_ball(swap.spec, locus, 6, 4)
    expected = {Word.generator("g", k) for k in range(-6, 7)}
    assert set(ball.members) == expected
    assert ball.cyclic_at_radius and ball.cyclic_generator == Word.generator("g")
    assert ball.acts_nontrivially
    # closed under inverse, contains the identity
    assert Word.identity() in ball.members
    assert all(w.inverse() in ball.members for w in ball.members)


def test_stabilizer_ball_excludes_locus_movers(zigzag):
    # the shift moves every locus, so nothing but the identity stabilizes
    locus = branch_loci(expand(zigzag.spec, 3))[0]
    ball = stabilizer_ball(zigzag.spec, locus, 6, 3)
    assert list(ball.members) == [Word.identity()]
    assert ball.cyclic_at_radius and not ball.acts_nontrivially


def test_no_loci_is_error_free(line):
    assert branch_loci(expand(line.spec, 3)) == []


# -- fix propagation ----------------------------------------------------------


def test_fix_propagation_swap(swap):
    rep = check_fix_propagation(swap.spec, swap_locus(swap), 6, 4)
    assert rep.verdict == PASS and rep.screen


def test_fix_propagation_detects_partial_fix(tripod):
    locus = branch_loci(expand(tripod, 2))[0]
    rep = check_fix_propagation(tripod, locus, 4, 2)
    assert rep.verdict == VIOLATION
    witness = dict(rep.witness)
    assert witness["word"] == "w" and witness["fixes"] == "a[0]"
    # replay: w indeed fixes a and moves b
    assert act_cell(tripod, Word.generator("w"), ("a", 0)) == ("a", 0)
    assert act_cell(tripod, Word.generator("w"), ("b", 0)) == ("c", 0)


def test_fix_propagation_identity_only_ball(zigzag):
    locus = branch_loci(expand(zigzag.spec, 3))[0]
    rep = check_fix_propagation(zigzag.spec, locus, 4, 3)
    assert rep.verdict == PASS


# -- faithfulness -------------------------------------------------------------


def test_faithfulness_branching_models(swap, zigzag):
    assert check_faithfulness(swap.spec, 6, 4).verdict == PASS
    assert check_faithfulness(zigzag.spec, 6, 4).verdict == PASS


def test_faithfulness_rejects_a_negative_bound(swap):
    for max_word_len in (-1, -2):
        with pytest.raises(ValueError, match="max_word_len"):
            check_faithfulness(swap.spec, max_word_len, 4)
    assert check_faithfulness(swap.spec, 0, 4).verdict == PASS


def test_faithfulness_guard_line(line):
    with pytest.raises(PreconditionFailed):
        check_faithfulness(line.spec, 6, 4)


def test_faithfulness_detects_trivial_action(tripod):
    # w has order two on the cells, so w*w acts as the identity: the
    # screen flags the model as non-realizable
    rep = check_faithfulness(tripod, 4, 2)
    assert rep.verdict == VIOLATION
    assert dict(rep.witness)["word"] == "w^2"


# -- intermediate fixed point -------------------------------------------------


def test_intermediate_fixed_swap(swap):
    g2 = Word.generator("g") ** 2
    rep = check_intermediate_fixed(swap.spec, g2, mid_point("s", 0), mid_point("ra", 0), 4)
    assert rep.verdict == PASS
    witness = dict(rep.witness)
    assert witness["witness"] == "a[0]" and witness["in_locus"] == "yes"


def test_intermediate_fixed_incomparable_pair(updown):
    w = Word.generator("w")
    rep = check_intermediate_fixed(updown, w, mid_point("pa", 0), mid_point("pb", 0), 4)
    assert rep.verdict == PASS
    witness = dict(rep.witness)
    assert witness["in_locus"] == "yes" and witness["witness"] == "a[0]"


def test_intermediate_fixed_off_the_loci():
    # a line through the unit vertex c: L ascends into c and R out of it;
    # f moves L up and R down and fixes c, which lies in no locus
    spec = LeafSpaceSpec()
    spec.add_vertex("c")
    spec.add_glued_chain("L", glue=1, neg=ChainEndRule("open"), pos=ChainEndRule("limit", ("c",)))
    spec.add_glued_chain("R", glue=1, neg=ChainEndRule("limit", ("c",)), pos=ChainEndRule("open"))
    spec.add_generator("f", {"c": ("c", 0), "L": ("L", 1), "R": ("R", -1)})
    for depth in range(4):
        rep = check_intermediate_fixed(spec, Word.generator("f"), mid_point("L", 0),
                                       mid_point("R", 0), depth)
        assert rep.verdict == PASS
        assert dict(rep.witness) == {"word": "f", "witness": "c[0]", "in_locus": "no"}


def test_intermediate_fixed_guard(line):
    with pytest.raises(PreconditionFailed):
        check_intermediate_fixed(line.spec, Word.generator("t"),
                                 mid_point("e", 0), mid_point("e", 1), 3)


# -- infinite-locus screen ----------------------------------------------------


def test_screen_gallery(swap, zigzag, comb):
    assert screen_infinite_locus(swap.spec, 6, 4).verdict == PASS
    assert screen_infinite_locus(comb.spec, 6, 4).verdict == PASS
    rep = screen_infinite_locus(zigzag.spec, 6, 4)
    assert rep.verdict == PASS
    notes = " ".join(rep.notes)
    assert "neither-candidates" in notes and "h" in notes
    assert "two_sided" in notes and "consistent" in notes


def test_screen_catches_tangentiable_never_transversable(tripod):
    # on the closed tripod window, w is tangentiable (fixes a) but moves
    # nothing up or down: impossible over an all-finite-loci leaf space
    rep = screen_infinite_locus(tripod, 3, 2)
    assert rep.verdict == VIOLATION
    assert dict(rep.witness)["word"] == "w"


def _screen_facts(trunc, elem):
    """(tangentiable, transversable) of an element on a window, by the
    per-point rule: a window cell it fixes, and a point it moves up or down."""
    rels = reference_sweep(trunc, elem)
    return (any(elem.cell(cell) == cell for cell in trunc.vertex_cells + trunc.edge_cells),
            Comparability.LESS in rels or Comparability.GREATER in rels)


def _inverse_pair_models():
    for name in GALLERY_NAMES:
        for depth in (0, 1, 2, 4, 8):
            yield name, gallery(name).spec, depth, 6
    for depth in range(5):
        yield "swap+k", build_swap_k(), depth, 4
    for seed in range(200):
        yield f"seed {seed}", random_spec(RandomParams(seed=seed, symmetric=True)), seed % 3, 4
    for depth in range(3):
        yield "tripod", build_tripod(), depth, 5
        yield "updown", build_updown(), depth, 5
        yield "odd involution", build_odd_involution(), depth, 5
    for seed in range(300):
        yield f"generators {seed}", _random_generator_set(seed), seed % 2, 3


def test_an_element_and_its_inverse_share_the_screen_facts():
    # screen_infinite_locus classifies one element of each inverse pair:
    # w and w^-1 fix the same cells, an in-window Less cell p of w is the
    # Greater cell w.p of w^-1, and a glued chain's order beyond the window
    # flips its sign with the shift
    found = Counter()       # facts -> inverse pairs
    for label, spec, depth, radius in _inverse_pair_models():
        trunc = expand(spec, depth)
        if not validate(trunc).valid:
            continue
        seen = set()
        for elem, word in element_ball(spec, radius)[0].items():
            inverse = elem.inverse()
            if inverse not in seen:
                seen.add(elem)
                facts = _screen_facts(trunc, elem)
                assert _screen_facts(trunc, inverse) == facts, (label, depth, str(word))
                found[facts] += 1
    assert sum(found.values()) > 5000 and len(found) == 4


# -- word enumeration ---------------------------------------------------------


def test_reduced_words_counts():
    words = reduced_words(["g"], 6)
    assert len(words) == 13                       # 1 + 2*6
    words = reduced_words(["g", "h"], 3)
    assert len(words) == 1 + 4 + 4 * 3 + 4 * 9    # free reduction only
    assert len(set(words)) == len(words)
    assert all(len(w) <= 3 for w in words)


def test_ball_with_two_generators_acting_alike_is_cyclic():
    # a second generator u with w's action: the ball lists elements, so it
    # is {1, u} (u names w's element first in shortlex order), cyclic with
    # generator u as the image group Z/2 is; the redundancy is what the
    # faithfulness screen must flag (u^2 and u*w^-1 act trivially)
    spec = build_tripod()
    spec.add_generator("u", dict(spec.generators["w"].maps))
    locus = branch_loci(expand(spec, 2))[0]
    ball = stabilizer_ball(spec, locus, 3, 2)
    assert ball.members == (Word.identity(), Word.generator("u"))
    assert ball.cyclic_at_radius and ball.cyclic_generator == Word.generator("u")
    rep = check_faithfulness(spec, 2, 2)
    assert rep.verdict == VIOLATION
    assert dict(rep.witness)["word"] == "u^2"


# -- stabilizer balls against the word-set reference --------------------------


def _with_wing_transposition(spec):
    """A ``random_spec(symmetric=True)`` model plus tau, which swaps wings 0
    and 1: with the rotation rho it generates the symmetric group on the
    wings, a finite stabilizer that is not cyclic."""
    def swap(fam):
        m = re.fullmatch(r"([mcw])([01])(_.*)?", fam)
        return fam if m is None else f"{m[1]}{1 - int(m[2])}{m[3] or ''}"

    spec.add_generator("tau", {fam: (swap(fam), 0) for fam in spec.families})
    return spec


def test_stabilizer_ball_matches_reference(tripod, swap_k):
    two_gen = build_tripod()
    two_gen.add_generator("u", dict(two_gen.generators["w"].maps))
    cases = [(gallery(name).spec, 4, range(7)) for name in GALLERY_NAMES]
    cases += [(tripod, 2, range(7)), (two_gen, 2, range(6)), (swap_k, 4, range(5))]
    # wing rotations of order 3 (seeds 0, 7) and 4 (seeds 5, 10), alone and
    # with a wing transposition, so the certificate also fails under torsion
    for seed in (0, 5, 7, 10):
        rotation = random_spec(RandomParams(seed=seed, symmetric=True))
        assert len(branch_loci(expand(rotation, 1))[0].members) in (3, 4)
        cases += [(rotation, 1, range(7)),
                  (_with_wing_transposition(random_spec(RandomParams(seed=seed, symmetric=True))),
                   1, range(7))]
    checked = 0
    for spec, depth, radii in cases:
        for locus in branch_loci(expand(spec, depth)):
            for radius in radii:
                ball = stabilizer_ball(spec, locus, radius, depth)
                assert ball == reference_stabilizer_ball(spec, locus, radius)
                checked += 1
    assert checked > 50


def test_cyclic_size_bound_edges(swap, swap_k):
    # 2r nontrivial members, g^-r .. g^r: the powers of g cover them
    ball = stabilizer_ball(swap.spec, swap_locus(swap), 6, 4)
    assert len(ball.members) - 1 == 2 * 6
    assert ball.cyclic_at_radius and ball.cyclic_generator == Word.generator("g")
    # a Z^2 ball has more members than one element's powers reach
    locus = branch_loci(expand(swap_k, 4))[0]
    for radius in (1, 2):
        ball = stabilizer_ball(swap_k, locus, radius, 4)
        assert len(ball.members) - 1 > 2 * radius
        assert not ball.cyclic_at_radius and ball.cyclic_generator is None
        assert ball == reference_stabilizer_ball(swap_k, locus, radius)


def test_stabilizer_walks_count_their_products(swap_k, monkeypatch):
    # at radius 8 the walk alone makes 340 products; fix propagation reads
    # only its fixing table, and the certificate, which tries each inverse
    # pair once, made 448 products on top of the walk before it did
    locus = branch_loci(expand(swap_k, 4))[0]
    products = []
    multiply = Element.__mul__

    def counted(self, other):
        products.append(1)
        return multiply(self, other)

    monkeypatch.setattr(Element, "__mul__", counted)

    def count(run):
        products.clear()
        run()
        return len(products)

    walk = count(lambda: element_ball(swap_k, 8))
    assert count(lambda: check_fix_propagation(swap_k, locus, 8, 4)) <= walk
    certificate = count(lambda: stabilizer_ball(swap_k, locus, 8, 4)) - walk
    assert certificate <= 0.6 * 448


def test_swap_k_radius_8(swap_k):
    locus = branch_loci(expand(swap_k, 4))[0]
    ball = stabilizer_ball(swap_k, locus, 8, 4)
    # every element fixes {a, b}: |{(x, y) in Z^2 : |x| + |y| <= 8}| of them
    assert len(ball.members) == 145
    assert len({fingerprint(swap_k, w) for w in ball.members}) == 145
    assert not ball.cyclic_at_radius and ball.cyclic_generator is None
    assert ball.acts_nontrivially
    rep = check_fix_propagation(swap_k, locus, 8, 4)
    assert rep.verdict == PASS and dict(rep.witness)["ball_size"] == "145"
    # a group relation of Z^2, reported as unfaithfulness: the known false
    # Violation of this screen, pinned until the screen's claim is fixed
    rep = check_faithfulness(swap_k, 8, 4)
    assert rep.verdict == VIOLATION
    assert dict(rep.witness)["word"] == "g*k*g^-1*k^-1"


# -- faithfulness against the loop over reduced words ---------------------------


def _random_generator_set(seed):
    """The tripod's families under 2-4 random generators (check=False):
    each permutes the vertices and the branches, here and there with a
    shift, so short relations are common but not certain."""
    import random

    rng = random.Random(seed)
    spec = build_tripod(with_valid_swap=False)
    for name in "abcd"[:rng.randint(2, 4)]:
        vertices, branches = rng.sample("abc", 3), rng.sample("abc", 3)
        maps = {"s": ("s", rng.choice((0, 0, 0, 1)))}
        for v, img, br in zip("abc", vertices, branches):
            maps[v] = (img, rng.choice((0, 0, 0, 0, 0, 1, -1)))
            maps["p" + v] = ("p" + br, rng.choice((0, 0, 0, 0, 1)))
        spec.add_generator(name, maps, check=False)
    return spec


def _faithfulness_cases():
    from leafspace.randspec import RandomParams, random_spec

    two_gen = build_tripod()
    two_gen.add_generator("u", dict(two_gen.generators["w"].maps))
    for name in GALLERY_NAMES:
        for depth in (2, 4, 8):
            for radius in range(9):
                yield name, gallery(name).spec, radius, depth
    models = [("SWAP+k", build_swap_k(), 4), ("tripod", build_tripod(), 2),
              ("tripod-inconsistent", build_tripod(False, True), 2),
              ("two-generator tripod", two_gen, 2), ("updown", build_updown(), 3)]
    for label, spec, depth in models:
        for radius in range(9):
            yield label, spec, radius, depth
    for seed in range(200):
        for symmetric in (False, True):
            spec = random_spec(RandomParams(seed=seed, symmetric=symmetric))
            yield f"seed {seed} {symmetric}", spec, seed % 7, 0
    for seed in range(300):
        spec = _random_generator_set(seed)
        yield f"generators {seed}", spec, {2: 7, 3: 5, 4: 4}[len(spec.generators)] - seed % 3, 0


def test_faithfulness_matches_reference():
    verdicts = Counter()
    for label, spec, radius, depth in _faithfulness_cases():
        want = _outcome(reference_check_faithfulness, spec, radius, depth)
        assert _outcome(check_faithfulness, spec, radius, depth) == want, (label, radius)
        verdicts[want.verdict if isinstance(want, CheckReport) else want[0]] += 1
    assert verdicts[PASS] and verdicts[VIOLATION] > 100 and verdicts["PreconditionFailed"]


# -- membership sweeps shared across the suite ---------------------------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:        # the same error must come back
        return type(exc).__name__, str(exc)


def build_odd_involution():
    """Loci {a,b} (positive) and {b,c} (negative) share b, so a and c are
    joined by a length-3 connection; ``f`` (built with check=False)
    exchanges a and c and fixes everything else, an inconsistent action
    of order 2 that the odd-path checker must flag."""
    from leafspace.core import LeafSpaceSpec, open_end, to_limit, to_vertex

    spec = LeafSpaceSpec()
    for v in ("a", "b", "c"):
        spec.add_vertex(v)
    spec.add_edge("s1", low=open_end(), high=to_limit(("a", 0), ("b", 0)))
    spec.add_edge("s2", low=to_limit(("b", 0), ("c", 0)), high=open_end())
    spec.add_edge("pa", low=to_vertex("a"), high=open_end())
    spec.add_edge("pc", low=open_end(), high=to_vertex("c"))
    spec.add_generator("f", {"a": ("c", 0), "c": ("a", 0), "b": ("b", 0), "s1": ("s1", 0),
                             "s2": ("s2", 0), "pa": ("pa", 0), "pc": ("pc", 0)}, check=False)
    return spec


def test_check_odd_path_matches_reference(tripod, updown):
    from leafspace.randspec import RandomParams, random_spec

    models = [(gallery(name).spec, depth) for name in GALLERY_NAMES for depth in (2, 4, 8)]
    models += [(build_odd_involution(), 0)]
    models += [(random_spec(RandomParams(seed=seed, symmetric=seed % 2 == 1)), 0)
               for seed in range(100)]
    models += [(tripod, 2), (updown, 3)]
    verdicts = Counter()
    for spec, depth in models:
        pts = expand(spec, depth).canonical_points
        for word in reduced_words(spec.generators, 2, include_identity=False):
            for lam in pts[::max(1, len(pts) // 10)]:
                for k_max in (1, 3):
                    want = _outcome(reference_check_odd_path, spec, word, lam, k_max, depth)
                    assert _outcome(check_odd_path, spec, word, lam, k_max, depth) == want
                    verdicts[want.verdict if isinstance(want, CheckReport) else want[0]] += 1
    assert verdicts[PASS] and verdicts[VIOLATION] and verdicts["PreconditionFailed"]


def test_suite_sweeps_each_element_once_per_window(monkeypatch):
    from leafspace import action, cli

    calls = []
    original = action._sweep_table

    def counted(trunc, elem):
        calls.append((trunc, elem))
        return original(trunc, elem)

    monkeypatch.setattr(action, "_sweep_table", counted)
    assert cli.main(["suite", "--gallery", "ZIGZAG", "--depth", "4"], stream=io.StringIO()) == 0
    windows = {id(trunc): trunc for trunc, _ in calls}
    assert len(windows) == 1
    (trunc,) = windows.values()
    # each fill of the window's sweep table computes one element's sweep:
    # h, ..., h^6 and h^8 (check_odd_path's 4th power of h^2); the screen
    # classifies one element of each inverse pair, so no h^-k is swept
    elements = [elem for _, elem in calls]
    assert len(elements) == len(set(elements)) == len(trunc.sweeps) == 7
    h = trunc.spec.generators["h"]
    assert set(elements) == {h ** k for k in (1, 2, 3, 4, 5, 6, 8)}


def test_a_suite_pass_builds_one_class_table_per_window_and_commuting_set(monkeypatch):
    # every gallery model has one generator g, and each power of g reads
    # the class table that g's commuting set builds
    from leafspace import action, cli

    counts = dict.fromkeys(("compare", "_classes"), 0)
    for name in counts:
        def counted(*args, _real=getattr(action, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(action, name, counted)
    for name in GALLERY_NAMES:
        for depth in ("4", "8"):
            cli.main(["suite", "--gallery", name, "--depth", depth], stream=io.StringIO())
    assert counts == {"compare": 219, "_classes": 8}     # the sweeps' compares, the tables


# -- truncated verdicts ----------------------------------------------------------
#
# Each Truncated return of the checkers, reached on a shallow window.  The
# undecided memberships are images that leave the window on another family
# (or on a family that is no glued chain).  Some returns need an action
# that is no automorphism: ``_updown_with`` adds one with check=False to
# the up/down fixture.


def _updown_with(name, maps):
    spec = build_updown()
    spec.add_generator(name, maps, check=False)
    return spec


def _stem_to_branch():
    """v sends the stem s onto the branch pb one step down (and pb back
    onto s), fixing a, b and pa: on the depth-1 window s[-1] lands on
    pb[-2], beyond the window, while s[0] and s[1] stay inside."""
    return _updown_with("v", {"s": ("pb", -1), "pa": ("pa", 0), "pb": ("s", 0),
                              "a": ("a", 0), "b": ("b", 0)})


def test_lower_bound_truncated(comb):
    # both bounds hold, but lam's image a[-2] lies beyond the depth-1 window
    u_inv = Word.generator("u", -1)
    assert in_comparable_set(comb.spec, u_inv, vertex_point("a", -1), 1) is Tri.TRUNCATED
    rep = check_lower_bound(comb.spec, u_inv, vertex_point("a", -1), vertex_point("a", 1), 1)
    assert (rep.verdict, rep.notes) == (TRUNCATED, ())


def test_path_in_comparable_set_truncated(line):
    t = Word.generator("t")
    rep = check_path_in_comparable_set(line.spec, t, vertex_point("v", 0), vertex_point("v", 0), 0)
    assert (rep.verdict, rep.notes) == (TRUNCATED, ("lam membership undecided",))
    rep = check_path_in_comparable_set(line.spec, t, vertex_point("v", -1),
                                       vertex_point("v", 1), 1)
    assert (rep.verdict, rep.notes) == (TRUNCATED, ("mu membership undecided",))
    # both ends are members, but the path passes s[-1], whose image is undecided
    spec, v = _stem_to_branch(), Word.generator("v")
    lam, mu = mid_point("pa", 0), mid_point("s", 0)
    assert [in_comparable_set(spec, v, p, 1) for p in (lam, mu, mid_point("s", -1))] == [
        Tri.YES, Tri.YES, Tri.TRUNCATED]
    rep = check_path_in_comparable_set(spec, v, lam, mu, 1)
    assert (rep.verdict, rep.notes) == (TRUNCATED, ())


def test_connected_open_truncated():
    # a and b are members, but only the undecided s[-1] joins them
    spec, v = _stem_to_branch(), Word.generator("v")
    assert in_comparable_set(spec, v, mid_point("s", -1), 1) is Tri.TRUNCATED
    rep = check_connected_open(spec, v, 1)
    assert rep.verdict == TRUNCATED
    assert rep.notes == ("components join only through undecided cells",)


def test_return_truncated(line, swap):
    rep = check_return(line.spec, Word.generator("t"), vertex_point("v", 0), 2, 0)
    assert (rep.verdict, rep.notes) == (TRUNCATED, ())
    # g is decided at ra[0]; g^3 sends it to rb[-1], beyond the depth-0 window
    g = Word.generator("g")
    assert in_comparable_set(swap.spec, g, mid_point("ra", 0), 0) is Tri.NO
    assert in_comparable_set(swap.spec, g ** 3, mid_point("ra", 0), 0) is Tri.TRUNCATED
    rep = check_return(swap.spec, g, mid_point("ra", 0), 3, 0)
    assert (rep.verdict, rep.notes) == (TRUNCATED, ())


def test_invariant_locus_stem_truncated(comb):
    # COMB's lowest locus in the depth-1 window hangs from sp[-2], beyond it
    locus = branch_loci(expand(comb.spec, 1))[0]
    assert locus.stem == ("cell_end", "sp", -2, "high")
    rep = check_invariant_locus_stem(comb.spec, Word.identity(), locus, 1)
    assert (rep.verdict, rep.notes) == (TRUNCATED, ("stem does not meet the window",))
    # the stem cell nearest the locus is undecided
    spec = _stem_to_branch()
    locus = branch_loci(expand(spec, 1))[0]
    rep = check_invariant_locus_stem(spec, Word.generator("v"), locus, 1)
    assert (rep.verdict, rep.notes) == (TRUNCATED, ())


def test_intermediate_fixed_truncated(line):
    t = Word.generator("t")
    rep = check_intermediate_fixed(line.spec, t, vertex_point("v", 0), vertex_point("v", 0), 0)
    assert (rep.verdict, rep.notes) == (TRUNCATED, ())          # x_pos undecided
    rep = check_intermediate_fixed(line.spec, t, vertex_point("v", -1), vertex_point("v", 1), 1)
    assert (rep.verdict, rep.notes) == (TRUNCATED, ())          # x_neg undecided
    # u moves pa up and pb down but swaps a and b: no sampled point is fixed
    spec = _updown_with("u", {"s": ("s", 0), "pa": ("pa", 1), "pb": ("pb", -1),
                              "a": ("b", 0), "b": ("a", 0)})
    rep = check_intermediate_fixed(spec, Word.generator("u"), mid_point("pa", 0),
                                   mid_point("pb", 0), 1)
    assert (rep.verdict, rep.notes) == (TRUNCATED, ("no fixed point sampled in window",))


def test_screen_truncated(swap_k):
    # a tangentiable, never transversable word on a window with cut ends
    rep = screen_infinite_locus(swap_k, 2, 0)
    assert (rep.verdict, rep.notes) == (TRUNCATED, ())


# -- violations -------------------------------------------------------------------
#
# The Violation returns that the models above leave unreached, each on a
# small model plus a generator added with check=False, which breaks the
# paper's claim.  Each NO is certified from ``tests/reference.py``.


def _gallery_with(name, maps):
    """A gallery model plus the generator f (check=False); a family mapped
    to a bare name keeps its index."""
    spec = gallery(name).spec
    spec.add_generator("f", {fam: (img, 0) if isinstance(img, str) else img
                             for fam, img in maps.items()}, check=False)
    return spec


def _swap_f():
    """SWAP plus f, which fixes a and b and moves the chains onto each other."""
    return _gallery_with("SWAP", {"a": "a", "b": "b", "ra": ("s", 2), "rb": ("ra", 1),
                                  "s": ("rb", 0)})


def _yplus_f():
    """YPLUS plus f, which exchanges a and b and cycles the edges s, q, p."""
    return _gallery_with("YPLUS", {"a": "b", "b": "a", "p": "s", "q": "p", "s": "q"})


def _long_edges():
    """The line of ``test_core.py::test_disconnected_window_reported``:
    e[i] joins v[i] to v[i+3], so each window falls into three components,
    {v[i] : i = j mod 3} and the edges between them.  t shifts by 3."""
    spec = LeafSpaceSpec()
    spec.add_vertex("v", chain=True)
    spec.add_edge("e", low=to_vertex("v", 0), high=to_vertex("v", 3), chain=True)
    spec.add_generator("t", {"v": ("v", 3), "e": ("e", 3)})
    return spec


def _late_vertices():
    """The tripod with its vertices named after its edges: the stem s
    limits on {x, y, z}, and the branches a, b, c hang from x, y, z.  f
    (check=False) exchanges x and y and fixes the rest, so the comparable
    set falls into {a}, {b} and {c, s, z}: in cell order, but not in the
    order of their first canonical positions, which put z first."""
    spec = LeafSpaceSpec()
    for v in ("x", "y", "z"):
        spec.add_vertex(v)
    spec.add_edge("s", low=open_end(), high=to_limit(("x", 0), ("y", 0), ("z", 0)))
    for edge, v in zip("abc", "xyz"):
        spec.add_edge(edge, low=to_vertex(v), high=open_end())
    maps = {fam: (fam, 0) for fam in "abcsz"}
    spec.add_generator("f", dict(maps, x=("y", 0), y=("x", 0)), check=False)
    return spec


def test_connected_open_flags_split_components():
    # h exchanges a and b and fixes every chain: the three chains are
    # comparable with their images, a and b are not, and no undecided cell
    # joins the chains
    spec = _gallery_with("SWAP", {"a": "b", "b": "a", "s": "s", "ra": "ra", "rb": "rb"})
    for depth in (2, 4):
        trunc = expand(spec, depth)
        rels = list(zip(trunc.canonical_points, reference_sweep(trunc, spec.generators["f"])))
        yes = [p.cell for p, rel in rels if rel in COMPARABLE]
        undecided = [p.cell for p, rel in rels if rel is None]
        comps = reference_components(trunc, yes)
        assert len(comps) == len(reference_components(trunc, yes + undecided)) == 3
        rep = check_connected_open(spec, Word.generator("f"), depth)
        assert rep.verdict == VIOLATION
        assert dict(rep.witness) == {"word": "f", "components": "3",
                                     "cells": " | ".join(str(comp[0]) for comp in comps)}


def test_connected_open_matches_reference(tripod, updown):
    # the same verdict, components, witness cells and yes_cells count as the
    # per-point rule, on every branch the models below reach
    models = [(gallery(name).spec, depth) for name in GALLERY_NAMES for depth in (0, 1, 3, 8)]
    models += [(build_swap_k(), depth) for depth in (0, 2)]
    models += [(random_spec(RandomParams(seed=seed, symmetric=seed % 2 == 1)), seed % 3)
               for seed in range(100)]
    models += [(spec, depth) for depth in (1, 2, 4) for spec in (
        tripod, updown, _stem_to_branch(), _swap_f(), _yplus_f(), _long_edges(), _late_vertices(),
        _gallery_with("SWAP", {"a": "b", "b": "a", "s": "s", "ra": "ra", "rb": "rb"}))]
    verdicts = Counter()
    for spec, depth in models:
        for word in reduced_words(spec.generators, 2, include_identity=False):
            want = _outcome(reference_check_connected_open, spec, word, depth)
            assert _outcome(check_connected_open, spec, word, depth) == want, (str(word), depth)
            verdicts[(want.verdict, tuple(dict(want.witness))) if isinstance(want, CheckReport)
                     else want[0]] += 1
    assert len(verdicts) == 6       # both passes and both violations, truncated, invalid


def test_connected_open_flags_a_closed_side():
    # b[0] is fixed, so comparable with its image, and joined to the other
    # comparable cells below it; but the only germ above it is the rb
    # chain's, whose nearest window cell is incomparable with its image
    spec = _swap_f()
    trunc = expand(spec, 2)
    rels = dict(zip(trunc.canonical_points, reference_sweep(trunc, spec.generators["f"])))
    assert len(reference_components(trunc, [p.cell for p, rel in rels.items()
                                            if rel in COMPARABLE])) == 1
    assert rels[vertex_point("b", 0)] is Comparability.EQUAL
    assert reference_germ_providers(trunc, ("b", 0), HIGH) == [(("chain", "rb", "neg"), True)]
    assert ("rb", -2) in reference_vertex_neighbors(trunc, ("b", 0))
    assert rels[mid_point("rb", -2)] is Comparability.INCOMPARABLE
    rep = check_connected_open(spec, Word.generator("f"), 2)
    assert rep.verdict == VIOLATION
    assert dict(rep.witness) == {"word": "f", "cell": "b[0]",
                                 "reason": "closed side at a sampled vertex"}


def test_invariant_stem_flags_a_stem_cell_outside_the_comparable_set():
    # f exchanges a with b and the spine sp with the rays r: it fixes each
    # locus {a[n], b[n]} setwise, but sends the stem cell sp[n-1] onto the
    # ray r[n-1], which hangs from the other member of {a[n-1], b[n-1]}
    spec = _gallery_with("COMB", {"a": "b", "b": "a", "r": "sp", "sp": "r"})
    trunc = expand(spec, 2)
    locus = next(loc for loc in branch_loci(trunc) if loc.members == (("a", -1), ("b", -1)))
    assert locus.stem == ("cell_end", "sp", -2, "high")
    rel = reference_relation(trunc, spec.generators["f"], mid_point("sp", -2))
    assert rel is Comparability.INCOMPARABLE
    rep = check_invariant_locus_stem(spec, Word.generator("f"), locus, 2)
    assert rep.verdict == VIOLATION
    assert dict(rep.witness) == {"word": "f", "stem_cell": "sp[-2]"}


def _return_junction(trunc, elem, lam, k):
    """The middle junction of the reference connection from lam to its
    image, once lam is certified incomparable with its image and
    comparable with its k-th image."""
    assert reference_relation(trunc, elem, lam) is Comparability.INCOMPARABLE
    assert reference_relation(trunc, elem ** k, lam) in COMPARABLE
    gamma = _reference_path(trunc, lam, elem.point(lam))
    return gamma.junctions[gamma.length // 2 - 1]


def test_return_flags_a_junction_the_word_does_not_carry():
    # the connection from rb[-2] to its image crosses from b[0] to a[0],
    # but f fixes b[0]
    spec = _swap_f()
    trunc, f = expand(spec, 2), spec.generators["f"]
    lam = mid_point("rb", -2)
    junction = _return_junction(trunc, f, lam, 2)
    assert f.point(junction.arrive) != junction.depart
    rep = check_return(spec, Word.generator("f"), lam, 2, 2)
    assert rep.verdict == VIOLATION
    assert dict(rep.witness) == {
        "word": "f", "m": "1", "arrive": str(junction.arrive),
        "image": str(f.point(junction.arrive)), "expected": str(junction.depart)}


def test_return_flags_a_power_that_moves_the_arrival_point():
    # f carries the junction of q[0]'s connection (b[0] to a[0]), but f^3,
    # which makes q[0] comparable with its image, sends b[0] to a[0]
    spec = _yplus_f()
    trunc, f = expand(spec, 2), spec.generators["f"]
    lam = mid_point("q", 0)
    junction = _return_junction(trunc, f, lam, 3)
    assert f.point(junction.arrive) == junction.depart
    image = (f ** 3).point(junction.arrive)
    assert image != junction.arrive
    rep = check_return(spec, Word.generator("f"), lam, 3, 2)
    assert rep.verdict == VIOLATION
    assert dict(rep.witness) == {"word": "f", "k": "3", "m": "1",
                                 "arrive": str(junction.arrive), "image": str(image)}


def test_return_refuses_an_odd_connection_under_a_non_automorphism():
    # f (built with check=False) exchanges a and c, which a length-3
    # connection joins: a is incomparable with f(a) = c yet equal to
    # f^2(a), which the return lemma rules out for an automorphism
    spec = build_odd_involution()
    trunc, f = expand(spec, 0), spec.generators["f"]
    lam = vertex_point("a")
    assert reference_relation(trunc, f, lam) is Comparability.INCOMPARABLE
    assert reference_relation(trunc, f ** 2, lam) is Comparability.EQUAL
    assert _reference_path(trunc, lam, f.point(lam)).length == 3
    with pytest.raises(PreconditionFailed, match="path length 3 is odd"):
        check_return(spec, Word.generator("f"), lam, 2, 0)


def _fixed_samples(trunc, elem, x_pos, x_neg):
    """The reference connection from x_pos to x_neg and its sample points
    that the element fixes, once x_pos is certified below its image and
    x_neg above its own."""
    assert reference_relation(trunc, elem, x_pos) is Comparability.LESS
    assert reference_relation(trunc, elem, x_neg) is Comparability.GREATER
    gamma = _reference_path(trunc, x_pos, x_neg)
    return gamma, [pt for pt in _reference_sample_points(gamma) if elem.point(pt) == pt]


def test_intermediate_fixed_flags_a_missing_fixed_point():
    # f moves s[0] up and p[0] down, but the connection between them is one
    # edge of the closed window and f fixes none of its points
    spec = _yplus_f()
    trunc = expand(spec, 2)
    gamma, fixed = _fixed_samples(trunc, spec.generators["f"], mid_point("s", 0),
                                  mid_point("p", 0))
    assert fixed == [] and not trunc.has_truncation
    rep = check_intermediate_fixed(spec, Word.generator("f"), mid_point("s", 0),
                                   mid_point("p", 0), 2)
    assert rep.verdict == VIOLATION
    assert dict(rep.witness) == {"word": "f", "path_length": str(gamma.length)}


def test_intermediate_fixed_flags_a_witness_outside_the_loci():
    # the connection from sg[-1] to m1[0] has a junction, and the first
    # point on it that f fixes is inside the edge E[-1]
    spec = _gallery_with("ZIGZAG", {"m1": ("p2", 0), "m2": ("m1", -2), "p1": ("m2", 1),
                                    "p2": ("p1", 2), "E": ("E", 0), "F": ("F", -1),
                                    "sg": ("tau", -1), "tau": ("sg", 1)})
    trunc = expand(spec, 2)
    x_pos, x_neg = mid_point("sg", -1), vertex_point("m1", 0)
    gamma, fixed = _fixed_samples(trunc, spec.generators["f"], x_pos, x_neg)
    assert gamma.junctions and fixed[0] == mid_point("E", -1)
    rep = check_intermediate_fixed(spec, Word.generator("f"), x_pos, x_neg, 2)
    assert rep.verdict == VIOLATION
    assert dict(rep.witness) == {"word": "f", "witness": "E[-1]:1/2",
                                 "reason": "incomparable endpoints but witness not in a locus"}


def test_path_checkers_are_truncated_between_components():
    # both points are certified members, but they lie in two components of
    # the window, so no path joins them
    spec = _long_edges()
    trunc, t = expand(spec, 2), spec.generators["t"]
    lam, mu = vertex_point("v", -2), vertex_point("v", -1)
    assert [reference_relation(trunc, t, p) for p in (lam, mu)] == [Comparability.LESS] * 2
    assert reference_route(trunc, lam, mu) is None
    with pytest.raises(TruncatedError):
        _reference_path(trunc, lam, mu)
    rep = check_path_in_comparable_set(spec, Word.generator("t"), lam, mu, 2)
    assert (rep.verdict, rep.notes) == (TRUNCATED, ("path leaves the window",))
    # f (check=False) moves v up and e down: v[-2] lies below its image and
    # e[0] above its own, in another component
    spec.add_generator("f", {"v": ("v", 3), "e": ("e", -3)}, check=False)
    trunc = expand(spec, 3)
    x_pos, x_neg = vertex_point("v", -2), mid_point("e", 0)
    with pytest.raises(TruncatedError):
        _fixed_samples(trunc, spec.generators["f"], x_pos, x_neg)
    rep = check_intermediate_fixed(spec, Word.generator("f"), x_pos, x_neg, 3)
    assert (rep.verdict, rep.notes) == (TRUNCATED, ())


# -- suite instance discovery ------------------------------------------------------


def _assert_discovery_matches_reference(spec, depth, word_lens=(0, 6, 12)):
    """The picks equal the reference's (as repr), or both raise alike; each
    side runs on its own fresh window."""
    from leafspace.checkers import discover_instances

    for word_len in word_lens:
        spec.freeze()._windows.clear()
        want = _outcome(lambda: repr(reference_discover_instances(spec, depth, word_len)))
        spec.freeze()._windows.clear()
        assert _outcome(lambda: repr(discover_instances(spec, depth, word_len))) == want, \
            (depth, word_len)


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_discovery_matches_reference_on_gallery(name):
    spec = gallery(name).spec
    for depth in list(range(9)) + [16, 32, 64]:
        _assert_discovery_matches_reference(spec, depth)


def test_discovery_matches_reference_on_random_specs():
    from leafspace.randspec import RandomParams, random_spec

    for seed in range(60):
        spec = random_spec(RandomParams(seed=seed, symmetric=True))
        _assert_discovery_matches_reference(spec, seed % 3, (6,))


def test_discovery_matches_reference_with_unchecked_generators(tripod, tripod_inconsistent,
                                                               updown):
    # elements that are no automorphism: every cell is its own orbit
    from leafspace.action import _swept

    models = [(tripod_inconsistent, 2), (build_odd_involution(), 0), (_stem_to_branch(), 1),
              (tripod, 2), (updown, 3), (build_swap_k(), 4)]
    for spec, depth in models:
        _assert_discovery_matches_reference(spec, depth)
    trunc = expand(tripod_inconsistent, 2)
    orbits = _swept(trunc, word_map(tripod_inconsistent, Word.generator("f")))[1]
    assert orbits == tuple(range(len(trunc.canonical_points)))


def test_orbit_cells_share_their_lifted_length():
    # the equivariance the parity search relies on: every incomparable cell
    # of one class (an orbit, joined across the commuting automorphisms) is
    # as far from its image as the others
    from leafspace.action import _swept
    from leafspace.checkers import _basic_words

    shared = 0          # orbits with more than one incomparable cell
    models = [(name, gallery(name).spec) for name in GALLERY_NAMES]
    for name, spec in models + [("SWAP+k", build_swap_k())]:
        for depth in (4, 8, 16, 32, 64):
            trunc = expand(spec, depth)
            for word in _basic_words(spec):
                elem = word_map(spec, word)
                lengths = {}
                for p, rel, orbit in zip(trunc.canonical_points, *_swept(trunc, elem)):
                    if rel is Comparability.INCOMPARABLE:
                        lengths.setdefault(orbit, []).append(path(trunc, p, elem.point(p)).length)
                for seen in lengths.values():
                    assert len(set(seen)) == 1, (name, depth, str(word))
                    shared += len(seen) > 1
    assert shared
