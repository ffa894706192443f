import pytest

from leafspace.core import Element, Tri, UnknownName, branch_loci, expand, validate
from leafspace.action import Word, branching_type, classify_element
from leafspace.paths import path
from leafspace.checkers import (
    PASS,
    check_fix_propagation,
    check_return,
    stabilizer_ball,
)
from leafspace.core import mid_point
from leafspace.gallery import GALLERY_NAMES, gallery


def test_unknown_name():
    with pytest.raises(UnknownName):
        gallery("MOEBIUS")


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_entry_valid_at_all_depths(name):
    entry = gallery(name)
    for depth in range(0, 9):
        assert validate(expand(entry.spec, depth)).valid, (name, depth)


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_documented_facts(name):
    entry = gallery(name)
    facts = entry.facts
    depth = 4
    trunc = expand(entry.spec, depth)
    loci = branch_loci(trunc)
    if "locus_count" in facts:
        assert len(loci) == facts["locus_count"]
    if "locus_signs" in facts:
        assert tuple(sorted({b.sign for b in loci})) == facts["locus_signs"]
    if "locus_sizes" in facts:
        assert tuple(sorted(len(b.members) for b in loci)) == facts["locus_sizes"]
    if "branching" in facts:
        assert branching_type(entry.spec, depth).value == facts["branching"]
    for (mark_a, mark_b), length in facts.get("path_lengths", {}).items():
        a, b = entry.spec.marks[mark_a], entry.spec.marks[mark_b]
        assert path(trunc, a, b).length == length
    for gen_name, (tan, pos, neg) in facts.get("classify", {}).items():
        profile = classify_element(entry.spec, Word.generator(gen_name), depth)
        for expected, entry_value in ((tan, profile.tangentiable),
                                      (pos, profile.pos_transversable),
                                      (neg, profile.neg_transversable)):
            if expected == "yes":
                assert entry_value.value is Tri.YES
            elif expected == "no":
                assert entry_value.value is Tri.NO
            else:                       # "no-window"
                assert entry_value.value in (Tri.NO, Tri.TRUNCATED)
                assert entry_value.witness is None


def test_generators_ride_on_spec():
    for name in GALLERY_NAMES:
        entry = gallery(name)
        assert not hasattr(entry, "generators")
        assert bool(entry.spec.generators) == (name != "YPLUS")
        for gen in entry.spec.generators.values():
            assert isinstance(gen, Element) and list(gen.maps) == list(entry.spec.families)
        assert entry.notes


def test_swap_carries_full_stabilizer_story(swap):
    locus = branch_loci(expand(swap.spec, 4))[0]
    ball = stabilizer_ball(swap.spec, locus, 6, 4)
    assert ball.cyclic_at_radius and ball.acts_nontrivially
    assert check_return(swap.spec, Word.generator("g"), mid_point("ra", 0), 2, 4).verdict == PASS
    assert check_fix_propagation(swap.spec, locus, 6, 4).verdict == PASS


@pytest.mark.parametrize("depth", [4, 5, 6])
def test_all_applicable_checkers_pass_from_depth_four(depth):
    # the suite aggregates every checker over auto-discovered instances;
    # from depth 4 on, nothing applicable may violate or stay undecided
    import io
    from leafspace.cli import main

    for name in GALLERY_NAMES:
        stream = io.StringIO()
        code = main(["suite", "--gallery", name, "--depth", str(depth),
                     "--word-len", "6"], stream=stream)
        text = stream.getvalue()
        assert code == 0, (name, depth, text)
        assert "0 violations, 0 truncated" in text, (name, depth, text)
