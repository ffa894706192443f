import random
import re
import pytest

from leafspace.core import (
    BadOffset, InvalidModel, LeafSpaceSpec, Point, Tri, UnresolvedName, UndefinedGenerator, expand,
    mid_point, validate, vertex_point)
from leafspace.action import (
    Word,
    act,
    act_locus,
    branching_type,
    canonical_points,
    classify_element,
    comparable_sample,
    element_ball,
    fixed_cells,
    in_comparable_set,
    is_identity_action,
    shortlex,
    sweep,
    word_map,
)
from conftest import act_cell, build_swap_k, build_tripod, build_updown
from reference import (
    image_relation, reduced_words, reference_classify_element, reference_relation,
    reference_sweep, reference_word_map)
from leafspace.paths import Comparability, compare
from leafspace.core import branch_loci
from leafspace.randspec import RandomParams, random_spec


def test_word_reduction_and_parse():
    w = Word.parse("g g g^-1")
    assert w == Word.generator("g") and len(w) == 1
    assert Word.parse("g^2*h^-1").letters == (("g", 1), ("g", 1), ("h", -1))
    assert Word.parse("1").is_identity
    assert Word.parse("") == Word.identity()
    assert (Word.generator("g") * Word.generator("g", -1)).is_identity
    w = Word.parse("g*h")
    assert (w * w.inverse()).is_identity
    assert str(Word.generator("g", -3)) == "g^-3"
    assert (Word.generator("g") ** 0).is_identity
    w = Word.parse("g*h^-1")
    assert w ** 3 == w * w * w and w ** -2 == w.inverse() * w.inverse()
    w = Word.parse("g*h*g^-1")
    assert (w ** 4).letters == (("g", 1),) + (("h", 1),) * 4 + (("g", -1),)
    with pytest.raises(ValueError, match=r"^letter exponent must be \+1 or -1$"):
        Word.of([("g", 2)])


def test_word_parse_refuses_overlong_words_before_building_them():
    import tracemalloc
    from functools import partial

    from leafspace.action import WORD_LETTER_LIMIT

    limit = "g^%d" % WORD_LETTER_LIMIT
    assert len(Word.parse(limit)) == WORD_LETTER_LIMIT
    assert Word.generator("g", WORD_LETTER_LIMIT) == Word.generator("g") ** WORD_LETTER_LIMIT
    assert (Word.identity() ** 10**30).is_identity
    g = Word.generator("g")
    builds = [partial(Word.parse, text)
              for text in ("g^" + "9" * 30, "g^-" + "9" * 30, limit + " h", "g^2 " * 2049)]
    builds += [partial(Word.generator, "g", 10**30), partial(Word.generator, "g", -10**30),
               partial(pow, g, 10**30), partial(pow, g, -10**30)]
    tracemalloc.start()
    try:
        for build in builds:
            with pytest.raises(ValueError, match="letters"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000       # far below one pointer per requested letter


def test_act_examples(line, swap):
    t = Word.generator("t")
    assert act_cell(line.spec, t, ("v", 0)) == ("v", 1)
    g = Word.generator("g")
    assert act_cell(swap.spec, g, ("a", 0)) == ("b", 0)
    assert act_cell(swap.spec, g, ("b", 0)) == ("a", 0)
    assert act(swap.spec, g ** 2, mid_point("ra", 0)) == mid_point("ra", -1)
    assert act(swap.spec, Word.identity(), mid_point("s", 0)) == mid_point("s", 0)


def test_act_inverse_roundtrip(swap, zigzag):
    rng = random.Random(3)
    for spec in (swap.spec, zigzag.spec):
        names = sorted(spec.generators)
        pts = canonical_points(expand(spec, 2))
        for _ in range(25):
            letters = [(rng.choice(names), rng.choice((1, -1))) for _ in range(4)]
            w = Word.of(letters)
            x = rng.choice(pts)
            assert act(spec, w.inverse(), act(spec, w, x)) == x


def test_act_undefined_generator(line):
    with pytest.raises(UndefinedGenerator):
        act(line.spec, Word.generator("nope"), vertex_point("v", 0))


def test_generator_must_be_automorphism(swap):
    spec = swap.spec
    with pytest.raises(UnresolvedName):
        spec.add_generator("bad", {f: (f, 0) for f in list(spec.families)[:-1]})
    with pytest.raises(UnresolvedName):
        # swapping the branch chains without swapping their limit targets
        spec.add_generator("bad", {
            "s": ("s", 0), "ra": ("rb", 0), "rb": ("ra", 0),
            "a": ("a", 0), "b": ("b", 0)})


def test_in_comparable_set_examples(swap, zigzag):
    g = Word.generator("g")
    assert in_comparable_set(swap.spec, g, mid_point("s", 0), 3) is Tri.YES
    assert in_comparable_set(swap.spec, g, mid_point("ra", 0), 3) is Tri.NO
    h = Word.generator("h")
    assert in_comparable_set(zigzag.spec, h, mid_point("E", 0), 3) is Tri.NO


def test_fixed_cells_examples(swap, line):
    g = Word.generator("g")
    assert fixed_cells(swap.spec, g, 2) == []
    assert fixed_cells(swap.spec, g ** 2, 2) == [("a", 0), ("b", 0)]
    trunc = expand(line.spec, 1)
    assert fixed_cells(line.spec, Word.identity(), 1) == sorted(
        trunc.vertex_cells + trunc.edge_cells)


def test_classify_line_translation(line):
    profile = classify_element(line.spec, Word.generator("t"), 3)
    assert profile.tangentiable.value is Tri.TRUNCATED
    assert profile.tangentiable.witness is None
    assert profile.pos_transversable.value is Tri.YES
    assert profile.neg_transversable.value is Tri.TRUNCATED


def test_classify_swap_square(swap):
    profile = classify_element(swap.spec, Word.generator("g") ** 2, 3)
    assert profile.tangentiable.value is Tri.YES
    assert profile.tangentiable.witness == vertex_point("a")
    assert profile.pos_transversable.value is Tri.YES
    assert profile.neg_transversable.value is Tri.YES
    # descending witness sits on a branch chain moving toward the locus
    assert profile.neg_transversable.witness.cell[0] in ("ra", "rb")


def test_classify_zigzag_neither(zigzag):
    profile = classify_element(zigzag.spec, Word.generator("h"), 3)
    assert profile.neither_in_window
    assert profile.tangentiable.value is Tri.TRUNCATED
    assert profile.tangentiable.witness is None
    assert profile.pos_transversable.value is Tri.TRUNCATED


def test_classify_certified_no_on_closed_window(yplus, tripod):
    w = Word.generator("w")
    profile = classify_element(tripod, w, 2)
    assert profile.pos_transversable.value is Tri.NO       # sweep closed
    assert profile.neg_transversable.value is Tri.NO
    assert profile.tangentiable.value is Tri.YES            # fixes a and its branch


def test_branching_types(line, swap, zigzag, comb):
    assert branching_type(line.spec, 2).value == "none"
    assert branching_type(swap.spec, 2).value == "one_sided_positive"
    assert branching_type(zigzag.spec, 2).value == "two_sided"
    assert branching_type(comb.spec, 2).value == "one_sided_positive"
    assert branching_type(line.spec, 2).truncated_caveat
    assert not branching_type(gallery_fixture("YPLUS").spec, 2).truncated_caveat


def gallery_fixture(name):
    from leafspace.gallery import gallery
    return gallery(name)


def test_order_preservation(swap, zigzag):
    rng = random.Random(5)
    for spec in (swap.spec, zigzag.spec):
        trunc = expand(spec, 3)
        pts = canonical_points(trunc)
        names = sorted(spec.generators)
        for _ in range(40):
            w = Word.of([(rng.choice(names), rng.choice((1, -1)))
                         for _ in range(rng.randint(1, 3))])
            x, y = rng.choice(pts), rng.choice(pts)
            if compare(trunc, x, y) is not Comparability.LESS:
                continue
            ix, iy = act(spec, w, x), act(spec, w, y)
            if not (trunc.contains_point(ix) and trunc.contains_point(iy)):
                continue
            rel = compare(trunc, ix, iy)
            if rel is not Comparability.TRUNCATED:
                assert rel is Comparability.LESS


def test_comparable_set_word_identities(swap, comb):
    # identities hold wherever the window certifies both sides
    for spec, name in ((swap.spec, "g"), (comb.spec, "u")):
        w = Word.generator(name)
        trunc = expand(spec, 3)
        decided = 0
        for p in canonical_points(trunc):
            ans = in_comparable_set(spec, w, p, 3)
            inv = in_comparable_set(spec, w.inverse(), p, 3)
            if Tri.TRUNCATED not in (ans, inv):
                assert ans is inv
                decided += 1
            if ans is Tri.YES:
                for k in (2, 3):
                    assert in_comparable_set(spec, w ** k, p, 3) in (Tri.YES, Tri.TRUNCATED)
                image = act(spec, w, p)
                if trunc.contains_point(image):
                    assert in_comparable_set(spec, w, image, 3) in (Tri.YES, Tri.TRUNCATED)
        assert decided > 5


def test_comparable_sample_records_sweep(swap):
    sample = comparable_sample(swap.spec, Word.generator("g"), 2)
    assert sample.touched_truncation
    yes = [p for p, a in sample.answers if a is Tri.YES]
    assert yes and all(p.cell[0] == "s" for p in yes)


def test_loci_equivariance():
    rng = random.Random(9)
    for seed in range(1, 60):
        spec = random_spec(RandomParams(seed=seed, symmetric=True))
        trunc = expand(spec, 0)
        loci = {b.members: b.sign for b in branch_loci(trunc)}
        w = Word.generator("rho", rng.choice((1, 2, -1)))
        for members, sign in loci.items():
            image = act_locus(spec, w, members)
            assert image in loci and loci[image] == sign


def test_tangentiable_iff_fixed_cells(swap, zigzag, comb):
    for spec in (swap.spec, zigzag.spec, comb.spec):
        names = sorted(spec.generators)
        for name in names:
            for k in (1, 2, 3):
                w = Word.generator(name, k)
                profile = classify_element(spec, w, 3)
                has_fixed = bool(fixed_cells(spec, w, 3))
                assert (profile.tangentiable.value is Tri.YES) == has_fixed


def test_word_map_composition(swap):
    g = Word.generator("g")
    m = word_map(swap.spec, g ** 2).maps
    assert m["s"] == ("s", -2)
    assert m["ra"] == ("ra", -1) and m["rb"] == ("rb", -1)
    assert m["a"] == ("a", 0)
    assert is_identity_action(swap.spec, g * g.inverse())
    assert not is_identity_action(swap.spec, g ** 2)


def _noncommuting_spec():
    """Bare vertex families under two generators that do not commute, so
    the order of composition shows in both the images and the shifts."""
    spec = LeafSpaceSpec()
    for name in ("a", "b", "c"):
        spec.add_vertex(name)
    for name in ("x", "y"):
        spec.add_vertex(name, chain=True)
    spec.add_generator("g", {"a": ("b", 0), "b": ("a", 0), "c": ("c", 0),
                             "x": ("y", 1), "y": ("x", 0)})
    spec.add_generator("h", {"a": ("a", 0), "b": ("c", 0), "c": ("b", 0),
                             "x": ("x", 2), "y": ("y", -1)})
    return spec


def _word_map_models(swap_k):
    from leafspace.gallery import GALLERY_NAMES, gallery

    for name in GALLERY_NAMES:
        yield name, gallery(name).spec, 2
    yield "SWAP+k", swap_k, 2
    yield "noncommuting", _noncommuting_spec(), 2
    for seed in range(40):
        yield f"seed {seed}", random_spec(RandomParams(seed=seed, symmetric=True)), 0


def test_element_equality_matches_reference_maps(swap_k):
    for label, spec, _ in _word_map_models(swap_k):
        words = reduced_words(spec.generators, 4)
        elements = [word_map(spec, w) for w in words]
        maps = [reference_word_map(spec, w) for w in words]
        for w, elem, ref in zip(words, elements, maps):
            assert elem.maps == ref, (label, str(w))
        for i, (a, ref_a) in enumerate(zip(elements, maps)):
            for b, ref_b in zip(elements[i:], maps[i:]):
                assert (a == b) == (ref_a == ref_b), label
                assert a != b or hash(a) == hash(b), label


def test_act_matches_reference_maps(swap_k):
    for label, spec, depth in _word_map_models(swap_k):
        trunc = expand(spec, depth)
        loci = [locus.members for locus in trunc.loci]
        for w in reduced_words(spec.generators, 4):
            ref = reference_word_map(spec, w)
            for p in canonical_points(trunc):
                img, shift = ref[p.cell[0]]
                assert act(spec, w, p) == Point((img, p.cell[1] + shift), p.t), (label, str(w))
            for members in loci:
                assert act_locus(spec, w, members) == tuple(sorted(
                    (ref[f][0], i + ref[f][1]) for f, i in members)), (label, str(w))


def test_membership_yes_is_depth_monotone(swap, comb):
    for spec, name in ((swap.spec, "g"), (comb.spec, "u")):
        w = Word.generator(name)
        for p in canonical_points(expand(spec, 2)):
            if in_comparable_set(spec, w, p, 2) is Tri.YES:
                assert in_comparable_set(spec, w, p, 4) is Tri.YES
                assert in_comparable_set(spec, w, p, 6) is Tri.YES


def test_profile_witnesses_verify(swap, line):
    # every Yes entry carries a witness that replays under the primitives
    for spec, word in ((swap.spec, Word.generator("g") ** 2),
                       (line.spec, Word.generator("t"))):
        trunc = expand(spec, 3)
        profile = classify_element(spec, word, 3)
        if profile.tangentiable.value is Tri.YES:
            w = profile.tangentiable.witness
            assert act(spec, word, w) == w
        if profile.pos_transversable.value is Tri.YES:
            w = profile.pos_transversable.witness
            assert image_relation(spec, trunc, w, act(spec, word, w)) is Comparability.LESS
        if profile.neg_transversable.value is Tri.YES:
            w = profile.neg_transversable.witness
            assert image_relation(spec, trunc, w, act(spec, word, w)) is Comparability.GREATER


# The walk (``element_ball``) names each element within a radius by its
# shortlex-least word, so these tests compare it with the reduced words.


def test_word_walk_matches_reduced_words_and_word_map(swap, zigzag, tripod, swap_k):
    for spec in (swap.spec, zigzag.spec, tripod, swap_k):
        for radius in range(6):
            ball, _ = element_ball(spec, radius)
            words = reduced_words(spec.generators, radius)
            assert words == sorted(words, key=shortlex)
            # the keys are the elements of the reduced words, in order of first use
            assert list(ball) == list(dict.fromkeys(word_map(spec, w) for w in words))
            for elem, w in ball.items():
                assert elem.maps == reference_word_map(spec, w)


def test_word_walk_names_each_element_once(swap, zigzag, tripod, swap_k):
    for spec in (swap.spec, zigzag.spec, tripod, swap_k):
        for radius in range(6):
            ball, _ = element_ball(spec, radius)
            first = {}
            for w in reduced_words(spec.generators, radius):
                first.setdefault(word_map(spec, w), w)
            # each value is the first reduced word of its element, and names it
            assert list(ball.values()) == list(first.values())
            assert all(word_map(spec, w) == elem for elem, w in ball.items())
            assert len(set(ball.values())) == len(ball)


def test_element_ball_relators_are_reduced_identity_words(swap, zigzag, tripod, swap_k):
    # the walk keeps each closing edge as a tuple; check_faithfulness builds its word
    from leafspace.checkers import _relator

    for spec in (swap.spec, zigzag.spec, tripod, swap_k):
        for radius in range(6):
            ball, closings = element_ball(spec, radius)
            relators = list(map(_relator, closings))
            for r in relators:
                assert Word.of(r.letters) == r and not r.is_identity, str(r)
                assert is_identity_action(spec, r), str(r)
                assert all(img == fam and shift == 0 for fam, (img, shift)
                           in reference_word_map(spec, r).items()), str(r)
            # a walk with no relator is a tree: one element per reduced word
            if not relators:
                assert len(ball) == len(reduced_words(spec.generators, radius))


def test_word_walk_fingerprints_once_per_element_and_letter(swap_k, monkeypatch):
    # counts element compositions, which the walk makes once per (element, letter)
    from leafspace.action import Element

    within_7 = len(element_ball(swap_k, 7)[0])
    assert within_7 == 113
    calls = []
    compose = Element.__mul__

    def counting(left, right):
        calls.append(right)
        return compose(left, right)

    monkeypatch.setattr(Element, "__mul__", counting)
    ball, _ = element_ball(swap_k, 8)
    assert len(ball) == 145
    assert len(calls) <= 1 + 4 * within_7


def test_bad_generator_map_is_rejected_at_add():
    from leafspace.gallery import gallery

    families = list(build_swap_k().families)
    ident = {fam: (fam, 0) for fam in families}
    partial = {fam: (fam, 0) for fam in families[1:]}
    merging = dict(ident, **{families[1]: (families[0], 0)})
    unknown = dict(partial, ghost=(families[0], 0))
    cover = "cell map must cover every family exactly once"
    cases = [(build_swap_k, maps, False, UnresolvedName, message)
             for maps, message in ((partial, cover), (merging, "family map is not a bijection"),
                                   (unknown, cover), (dict(ident, ghost=("ghost", 0)), cover))]
    for check in (True, False):
        cases.append((build_swap_k, dict(ident, s=("s", 1.0)), check, BadOffset,
                      "generator 'h' shift 1.0 is not an integer"))
        cases.append((lambda: gallery("LINE").spec, {"v": ("v", 1.0), "e": ("e", 1.0)}, check,
                      BadOffset, "generator 'h' shift 1.0 is not an integer"))
        # a vertex's image would be an edge cell with no interior coordinate
        cases.append((lambda: gallery("YPLUS").spec, {"a": ("s", 0), "s": ("a", 0), "b": ("b", 0),
                                                      "p": ("p", 0), "q": ("q", 0)}, check,
                      UnresolvedName, "family map exchanges vertex and edge families"))
    for build, maps, check, error, message in cases:
        spec = build()
        window, generators = spec.window(1), dict(spec.generators)
        with pytest.raises(error, match=re.escape(message)):
            spec.add_generator("h", maps, check=check)
        assert spec.generators == generators and spec.window(1) is window
        assert validate(expand(spec, 1)).valid


def _generator_models():
    from leafspace.gallery import GALLERY_NAMES, gallery

    for name in GALLERY_NAMES:
        yield gallery(name).spec
    yield build_swap_k()
    for seed in range(40):
        yield random_spec(RandomParams(seed=seed, symmetric=True))
        yield random_spec(RandomParams(seed=seed))


def test_generators_are_their_elements_with_inverses():
    for spec in _generator_models():
        identity = word_map(spec, Word.identity())
        for name, gen in spec.generators.items():
            assert gen == word_map(spec, Word.generator(name))
            inverse = word_map(spec, Word.generator(name, -1))
            assert inverse == gen.inverse()
            assert inverse.maps == reference_word_map(spec, Word.generator(name, -1))
            assert gen * gen.inverse() == identity == gen.inverse() * gen


def test_element_power_matches_repeated_product():
    from leafspace.gallery import GALLERY_NAMES, gallery

    for spec in [gallery(name).spec for name in GALLERY_NAMES] + [build_swap_k()]:
        identity = word_map(spec, Word.identity())
        elements = list(spec.generators.values())
        elements.append(word_map(spec, Word.of([(n, 1) for n in sorted(spec.generators)])))
        for elem in elements:
            up = down = identity
            for k in range(7):
                assert elem ** k == up and elem ** -k == down, k
                assert (elem ** k).maps == up.maps
                up, down = up * elem, down * elem.inverse()


def test_element_ball_rejects_a_negative_radius(swap):
    with pytest.raises(ValueError, match="radius"):
        element_ball(swap.spec, -1)
    assert list(element_ball(swap.spec, 0)[0].values()) == [Word.identity()]


# -- one sweep table per window ------------------------------------------------


def _sweep_models():
    from leafspace.gallery import GALLERY_NAMES, gallery

    for name in GALLERY_NAMES:
        for depth in (2, 4, 8):
            yield name, gallery(name).spec, depth
    for seed in range(100):
        yield f"seed {seed}", random_spec(RandomParams(seed=seed, symmetric=seed % 2 == 1)), 0


def test_sweep_table_matches_fresh_relations():
    for label, spec, depth in _sweep_models():
        trunc = expand(spec, depth)
        pts = canonical_points(trunc)
        assert trunc.canonical_points == tuple(pts) and not trunc.sweeps
        elements = set()
        for w in reduced_words(spec.generators, 4):
            elem = word_map(spec, w)
            first_use = elem not in elements
            assert (elem not in trunc.sweeps) == first_use, (label, w)
            rels = sweep(trunc, elem)
            assert rels == reference_sweep(trunc, word_map(spec, w)), (label, depth, str(w))
            assert sweep(trunc, elem) is rels
            elements.add(elem)
        assert set(trunc.sweeps) == elements


def _offset_line():
    """A line whose edge e[i] joins v[i-2] to v[i-1], so the window drops
    e[d+1] and v[d] is cut off from the rest: the orbit of the shift t
    through the vertices has pairs in one component and a last pair
    across two."""
    from leafspace.core import to_vertex

    spec = LeafSpaceSpec()
    spec.add_vertex("v", chain=True)
    spec.add_edge("e", low=to_vertex("v", -2), high=to_vertex("v", -1), chain=True)
    spec.add_generator("t", {"v": ("v", 1), "e": ("e", 1)})
    return spec


def _double_germ():
    """Edges p[i] and q[i] both end below v[i]: every window fails the germ
    count.  The shift t sends a depth-0 window wholly beyond itself, u
    exchanges p and q, and f (check=False) exchanges p and r."""
    from leafspace.core import open_end, to_vertex

    spec = LeafSpaceSpec()
    spec.add_vertex("v", chain=True)
    spec.add_edge("p", low=open_end(), high=to_vertex("v"), chain=True)
    spec.add_edge("q", low=open_end(), high=to_vertex("v"), chain=True)
    spec.add_edge("r", low=to_vertex("v"), high=open_end(), chain=True)
    spec.add_generator("t", {fam: (fam, 1) for fam in "pqrv"})
    spec.add_generator("u", {"p": ("q", 0), "q": ("p", 0), "r": ("r", 0), "v": ("v", 0)})
    spec.add_generator("f", {"p": ("r", 0), "q": ("q", 0), "r": ("p", 0), "v": ("v", 0)},
                       check=False)
    return spec


def _two_lines():
    """Two lines along the shift t: e[i] runs up from v[i] to v[i+1], d[i]
    runs down from x[i] to x[i+1].  f (check=False) exchanges the lines;
    it commutes with t but maps no end rule onto its image, so it is no
    automorphism, and a class it joined would mix Less with Greater."""
    from leafspace.core import to_vertex

    spec = LeafSpaceSpec()
    spec.add_vertex("v", chain=True)
    spec.add_vertex("x", chain=True)
    spec.add_edge("e", low=to_vertex("v", 0), high=to_vertex("v", 1), chain=True)
    spec.add_edge("d", low=to_vertex("x", 1), high=to_vertex("x", 0), chain=True)
    spec.add_generator("t", {fam: (fam, 1) for fam in "vxed"})
    spec.add_generator("f", {"v": ("x", 0), "x": ("v", 0), "e": ("d", 0), "d": ("e", 0)},
                       check=False)
    return spec


def _assert_sweeps_match_reference(label, spec, depth, radius):
    """Every element of the radius ball sweeps as the reference does on a
    fresh window, or raises the reference's error and stores nothing.  The
    ball is swept in shortlex order and, on a second fresh window, in
    reverse, so each of an element and its inverse is once swept afresh
    and once read from the other's kept sweep."""
    ball = list(element_ball(spec, radius)[0].items())
    for order in (ball, ball[::-1]):
        trunc = expand(spec, depth)
        for elem, word in order:
            try:
                want = reference_sweep(trunc, elem)
            except Exception as exc:        # the same error must come back
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    sweep(trunc, elem)
                assert elem not in trunc.sweeps
                continue
            assert sweep(trunc, elem) == want, (label, depth, str(word))


def test_sweep_matches_reference_on_gallery():
    from leafspace.gallery import GALLERY_NAMES, gallery

    for name in GALLERY_NAMES:
        spec = gallery(name).spec
        for depth in (0, 1, 2, 3, 4, 8, 16, 32):
            _assert_sweeps_match_reference(name, spec, depth, 3)
        _assert_sweeps_match_reference(name, spec, 64, 2)
        _assert_sweeps_match_reference(name, spec, 256, 2)
    for depth in range(9):      # two commuting generators join the classes
        _assert_sweeps_match_reference("swap+k", build_swap_k(), depth, 3)


def test_sweep_matches_reference_with_a_non_commuting_generator():
    # SWAP plus an automorphism f that shifts one branch chain and so does
    # not commute with g: a sweep joins cells only by the generators that
    # commute with the swept element
    from leafspace.gallery import gallery

    for moved in ({"ra": ("ra", -1)}, {"rb": ("rb", -1)}):
        spec = gallery("SWAP").spec
        spec.add_generator("f", {fam: moved.get(fam, (fam, 0)) for fam in spec.families})
        f, g = spec.generators["f"], spec.generators["g"]
        assert f * g != g * f
        for depth in range(7):
            _assert_sweeps_match_reference(f"swap+f {moved}", spec, depth, 3)


def test_sweep_matches_reference_on_random_specs():
    for seed in range(300):
        for symmetric in (False, True):
            spec = random_spec(RandomParams(seed=seed, symmetric=symmetric))
            _assert_sweeps_match_reference(f"seed {seed} {symmetric}", spec, 0, 3)


def test_sweep_matches_reference_off_the_orbit_rule(tripod, tripod_inconsistent, updown,
                                                    monkeypatch):
    # unchecked generators (no orbit rule), disconnected and invalid windows
    from leafspace.action import _swept
    from leafspace.core import automorphism_problems
    from test_checkers import _random_generator_set, _stem_to_branch, build_odd_involution

    models = [("tripod", tripod, 2), ("tripod-inconsistent", tripod_inconsistent, 2),
              ("odd involution", build_odd_involution(), 0), ("swap+k", build_swap_k(), 4)]
    models += [(label, spec, depth) for depth in range(4) for label, spec in (
        ("updown", updown), ("stem to branch", _stem_to_branch()),
        ("offset line", _offset_line()), ("double germ", _double_germ()),
        ("two lines", _two_lines()))]
    for label, spec, depth in models:
        _assert_sweeps_match_reference(label, spec, depth, 3)
    for seed in range(100):
        _assert_sweeps_match_reference(f"generators {seed}", _random_generator_set(seed),
                                       seed % 2, 2)
    # an unchecked generator on a disconnected window: its cells join no
    # class, and no compare runs across the two components
    spec = _offset_line()
    spec.add_generator("s", {"v": ("v", 0), "e": ("e", 1)}, check=False)
    assert automorphism_problems(spec, spec.generators["s"])
    for depth in range(4):
        _assert_sweeps_match_reference("offset line + s", spec, depth, 3)
        window = expand(spec, depth)
        position, component = window.position, window.cell_components
        calls = _observe_compares(monkeypatch)
        ball = list(element_ball(spec, 3)[0])
        for order in (ball, ball[::-1]):
            trunc = expand(spec, depth)
            for elem in order:
                sweep(trunc, elem)
        monkeypatch.undo()
        assert calls and all(component[position[x.cell]] == component[position[y.cell]]
                             for x, y in calls), depth
    # the branches the models above stand for: images in the other
    # component, and an invalid window
    spec = _offset_line()
    trunc = expand(spec, 2)
    rels = dict(zip(trunc.canonical_points, sweep(trunc, word_map(spec, Word.generator("t")))))
    assert trunc.components == 2
    assert rels[vertex_point("v", 0)] is Comparability.LESS
    assert rels[vertex_point("v", 1)] is None       # v[2] is cut off
    spec = _double_germ()
    assert set(sweep(expand(spec, 0), word_map(spec, Word.generator("t")))) == {None}
    with pytest.raises(InvalidModel, match="2 germs"):
        sweep(expand(spec, 0), word_map(spec, Word.generator("u")))
    # t joins each family's cells into one class of t^2; f commutes with t
    # but is no automorphism, and joins none
    spec = _two_lines()
    t, f = spec.generators["t"], spec.generators["f"]
    trunc = expand(spec, 2)
    classes = {}
    for p, orbit in zip(trunc.canonical_points, _swept(trunc, t * t)[1]):
        classes.setdefault(orbit, set()).add(p.cell[0])
    assert t * f == f * t and automorphism_problems(spec, f)
    assert sorted(map(sorted, classes.values())) == [["d"], ["e"], ["v"], ["x"]]


def _membership_models():
    """The models whose membership reads are checked against the per-point
    rule, as (label, spec, depth)."""
    from leafspace.gallery import GALLERY_NAMES, gallery
    from test_checkers import _stem_to_branch, build_odd_involution

    for name in GALLERY_NAMES:
        for depth in list(range(9)) + [64]:
            yield name, gallery(name).spec, depth
    for depth in range(5):
        yield "swap+k", build_swap_k(), depth
    for seed in range(100):
        for symmetric in (False, True):
            yield (f"seed {seed} {symmetric}",
                   random_spec(RandomParams(seed=seed, symmetric=symmetric)), seed % 3)
    unchecked = [("tripod", build_tripod()), ("tripod-inconsistent", build_tripod(False, True)),
                 ("updown", build_updown()), ("two lines", _two_lines()),
                 ("stem to branch", _stem_to_branch()), ("odd involution", build_odd_involution())]
    for depth in range(4):
        for label, spec in unchecked:
            yield label, spec, depth


def test_membership_reads_match_the_per_point_rule():
    """The kept sweep read at a point's cell equals the per-point rule at
    every canonical point and at every sample point of the paths from
    (every few) canonical points to their images and to the last one, for
    each element of the radius-2 ball; a raise must be the rule's own."""
    from leafspace.action import _relation
    from leafspace.core import LeafSpaceError
    from leafspace.paths import path, sample_points
    from test_checkers import _outcome

    off_canonical = 0
    for label, spec, depth in _membership_models():
        trunc = expand(spec, depth)
        pts = trunc.canonical_points
        for elem, word in element_ball(spec, 2)[0].items():
            points = dict.fromkeys(pts)
            for p in pts[::max(1, len(pts) // 16)]:
                for q in (elem.point(p), pts[-1]):
                    try:
                        points.update(dict.fromkeys(sample_points(path(trunc, p, q))))
                    except LeafSpaceError:      # out of the window, truncated or unroutable
                        pass
            off_canonical += len(points) - len(pts)
            for x in points:
                want = _outcome(reference_relation, trunc, elem, x)
                assert _outcome(_relation, trunc, elem, x) == want, (label, depth, str(word), str(x))
    assert off_canonical > 1000


def test_membership_on_an_unroutable_window_raises_for_any_in_window_image():
    # t sends p[1] beyond the depth-1 window, which fails routing; the
    # per-point rule leaves that one image undecided, but the read sweeps
    # the window and routes the images that stay inside it
    spec, t = _double_germ(), Word.generator("t")
    trunc = expand(spec, 1)
    assert reference_relation(trunc, word_map(spec, t), mid_point("p", 1)) is None
    for p in (mid_point("p", 1), mid_point("p", 0)):
        with pytest.raises(InvalidModel, match="2 germs"):
            in_comparable_set(spec, t, p, 1)


def _observe_compares(monkeypatch):
    """The (x, y) of every ``compare`` that ``leafspace.action`` makes,
    recorded by a wrapper that calls the real function."""
    from leafspace import action

    calls, real = [], action.compare

    def observed(trunc, x, y):
        calls.append((x, y))
        return real(trunc, x, y)

    monkeypatch.setattr(action, "compare", observed)
    return calls


def test_an_inverse_sweep_reads_the_kept_sweep(monkeypatch):
    from leafspace.gallery import gallery

    spec = gallery("ZIGZAG").spec
    trunc = expand(spec, 8)
    calls = _observe_compares(monkeypatch)
    h = word_map(spec, Word.generator("h"))
    sweep(trunc, h)
    made = len(calls)
    assert made
    rels = sweep(trunc, h.inverse())
    assert len(calls) == made
    assert rels == reference_sweep(trunc, h.inverse())


def test_the_suite_compares_at_most_half_as_often(monkeypatch):
    import io

    from leafspace import cli

    calls = _observe_compares(monkeypatch)
    assert cli.main(["suite", "--gallery", "ZIGZAG", "--depth", "4"], stream=io.StringIO()) == 0
    # comparing each orbit of each element afresh takes 281 calls
    assert len(calls) <= 281 // 2


def test_classify_element_matches_reference(tripod, updown):
    models = list(_sweep_models()) + [("tripod", tripod, 2), ("updown", updown, 3)]
    for label, spec, depth in models:
        for w in reduced_words(spec.generators, 4):
            try:
                want = reference_classify_element(spec, w, depth)
            except Exception as exc:        # the same error must come back
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    classify_element(spec, w, depth)
                continue
            assert classify_element(spec, w, depth) == want, (label, depth, str(w))
            trunc = spec.window(depth)
            sample = comparable_sample(spec, w, depth)
            assert [p for p, _ in sample.answers] == canonical_points(trunc)
            for (p, answer), rel in zip(sample.answers, reference_sweep(trunc, word_map(spec, w))):
                assert answer is (Tri.TRUNCATED if rel is None else
                                  Tri.YES if rel in (Comparability.EQUAL, Comparability.LESS,
                                                     Comparability.GREATER) else Tri.NO)
