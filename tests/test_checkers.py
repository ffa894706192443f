import io
import math
import re
from collections import Counter

import pytest

from leafspace.core import Element, PreconditionFailed, Tri, expand, mid_point, vertex_point
from leafspace.core import branch_loci
from leafspace.action import (
    Word, act, act_locus, branching_type, element_ball, fingerprint, in_comparable_set,
    word_map)
from leafspace.checkers import (
    PASS,
    TRUNCATED,
    VIOLATION,
    StabilizerBall,
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
from leafspace.paths import path
from leafspace.randspec import RandomParams, random_spec

from conftest import (
    act_cell, build_swap_k, build_tripod, build_updown, reduced_words, reference_relation)


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


def reference_check_faithfulness(spec, max_word_len, depth):
    """check_faithfulness as a loop over every reduced word in shortlex
    order, each composed from its prefix's element: the first nontrivial
    word that acts as the identity is the witness."""
    from leafspace.checkers import CheckReport

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
        verdicts[want[0] if isinstance(want, tuple) else want.verdict] += 1
    assert verdicts[PASS] and verdicts[VIOLATION] > 100 and verdicts["PreconditionFailed"]


# -- membership sweeps shared across the suite ---------------------------------


def reference_check_odd_path(spec, word, lam, k_max, depth):
    """check_odd_path as it was before the sweep table: each power's sweep
    runs in the loop and stops at the first comparable point."""
    from leafspace.action import _membership, canonical_points, image_relation
    from leafspace.checkers import TRUNCATED, CheckReport
    from leafspace.paths import COMPARABLE

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
                    verdicts[want[0] if isinstance(want, tuple) else want.verdict] += 1
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
    # each fill of the window's sweep table computes one element's sweep
    elements = [elem for _, elem in calls]
    assert len(elements) == len(set(elements)) == len(trunc.sweeps) == 13


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


# -- suite instance discovery ------------------------------------------------------


def _reference_find_comparable_pair(trunc, elem):
    """The pair search as it was before up-cone walks: one ``compare`` per test."""
    from leafspace.checkers import PAIR_SEARCH_LIMIT
    from leafspace.paths import Comparability, compare

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
    from leafspace.action import sweep
    from leafspace.checkers import CHECKERS, _basic_words
    from leafspace.core import LeafSpaceError
    from leafspace.paths import COMPARABLE, Comparability

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


def _assert_discovery_matches_reference(spec, depth, word_lens=(0, 6, 12)):
    """The picks equal the reference's (as repr), or both raise alike; each
    side runs on its own fresh window."""
    from leafspace.checkers import discover_instances

    for word_len in word_lens:
        spec._windows.clear()
        want = _outcome(lambda: repr(reference_discover_instances(spec, depth, word_len)))
        spec._windows.clear()
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
    from leafspace.paths import Comparability

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
