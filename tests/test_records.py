"""The result records are immutable named tuples: leafspace imports without
the ``dataclasses`` module, and each exported record keeps the repr, the
pickling and the refusal of assignment it had as a frozen dataclass."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path as FilePath

import pytest

import leafspace
from leafspace import (
    Family,
    GalleryEntry,
    Point,
    RandomParams,
    Word,
    branch_loci,
    branching_type,
    check_return,
    classify_element,
    comparable_sample,
    expand,
    gallery,
    hausdorffify,
    mid_point,
    path,
    stabilizer_ball,
    validate,
    vertex_point,
)
from leafspace.core import ChainEndRule, EndRule

SRC = FilePath(__file__).parent.parent / "src"
SUBMODULES = ("core", "paths", "action", "checkers", "gallery", "formats", "randspec", "cli")


def test_import_loads_no_dataclasses():
    # a fresh interpreter, so that nothing imported by the tests counts
    code = ("import sys; before = set(sys.modules); import leafspace; "
            + "; ".join(f"import leafspace.{m}" for m in SUBMODULES)
            + "; print('dataclasses' in set(sys.modules) - before)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "False\n"


def _samples():
    """(record, its repr) for one value of every record leafspace exports.
    The reprs are those the records had as frozen dataclasses, except that
    ValidationReport gained its ``routing_error`` field."""
    swap, line = gallery("SWAP"), gallery("LINE")
    trunc, g, t = expand(swap.spec, 2), Word.generator("g"), Word.generator("t")
    locus = branch_loci(trunc)[0]
    p = path(trunc, vertex_point("a"), vertex_point("b"))
    a, b = "Point(cell=('a', 0), t=None)", "Point(cell=('b', 0), t=None)"
    locus_repr = ("BranchLocus(members=(('a', 0), ('b', 0)), sign='positive', "
                  "stem=('chain_end', 's', 'neg'))")
    truncated = "ProfileEntry(value=<Tri.TRUNCATED: 'truncated'>, witness=None)"
    g_repr = "Word(letters=(('g', 1),))"
    return [
        (Family("e", "edge", True, 1), "Family(name='e', kind='edge', chain=True, glue=1)"),
        (Point(("ra", 1), Fraction(1, 3)), "Point(cell=('ra', 1), t=Fraction(1, 3))"),
        (locus, locus_repr),
        (validate(expand(line.spec, 0)), "ValidationReport(violations=(), routing_error=None)"),
        (hausdorffify(expand(line.spec, 0)),
         "HausdorffTree(nodes=(('vertex', 'v', 0),), edges=(), "
         "vertex_projection={('v', 0): ('vertex', 'v', 0)}, edge_projection={})"),
        (p.intervals[0], f"Interval(start={a}, end={a}, direction='ascending', "
                         "steps=(('vertex', 'a', 0),))"),
        (p.junctions[0], f"PathJunction(arrive={a}, depart={b}, locus={locus_repr})"),
        (p, f"Path(intervals={p.intervals!r}, junctions={p.junctions!r})"),
        (Word.parse("g^2 h^-1"), "Word(letters=(('g', 1), ('g', 1), ('h', -1)))"),
        (comparable_sample(line.spec, t, 0),
         "ComparableSample(word=Word(letters=(('t', 1),)), depth=0, "
         "answers=((Point(cell=('v', 0), t=None), <Tri.TRUNCATED: 'truncated'>),))"),
        (classify_element(line.spec, t, 0),
         f"ElementProfile(word=Word(letters=(('t', 1),)), depth=0, tangentiable={truncated}, "
         f"pos_transversable={truncated}, neg_transversable={truncated})"),
        (branching_type(swap.spec, 2),
         "BranchingType(value='one_sided_positive', truncated_caveat=True)"),
        (check_return(swap.spec, g, mid_point("ra", 0), 2, 4),
         "CheckReport(name='check_return', verdict='pass', witness=(('arrive', 'a[0]'), "
         "('depart', 'b[0]'), ('k', '2'), ('m', '1'), ('word', 'g')), depth=4, "
         "word_bound=None, screen=False, notes=())"),
        (stabilizer_ball(swap.spec, locus, 1, 2),
         "StabilizerBall(locus=(('a', 0), ('b', 0)), radius=1, members=(Word(letters=()), "
         f"{g_repr}, Word(letters=(('g', -1),))), action_table=((Word(letters=()), "
         f"(('a', 0), ('b', 0))), ({g_repr}, (('b', 0), ('a', 0))), "
         "(Word(letters=(('g', -1),)), (('b', 0), ('a', 0)))), cyclic_at_radius=True, "
         f"cyclic_generator={g_repr}, acts_nontrivially=True)"),
        (RandomParams(seed=3), "RandomParams(seed=3, locus_count=(1, 3), locus_size=(2, 4), "
                               "sign_mix=0.5, extra_edges=2, symmetric=False)"),
        # a spec has no value equality, so the entry's pickle round trip
        # is pinned on a stand-in spec
        (GalleryEntry("LINE", None, "a line", {"loci": 0}),
         "GalleryEntry(name='LINE', spec=None, notes='a line', facts={'loci': 0})"),
    ]


def test_every_exported_record_is_sampled():
    exported = {name for name, value in vars(leafspace).items()
                if isinstance(value, type) and issubclass(value, tuple)}
    assert exported == {type(value).__name__ for value, _ in _samples()}


def test_records_are_immutable_pickle_and_keep_their_repr():
    for value, want in _samples():
        assert repr(value) == want
        assert pickle.loads(pickle.dumps(value)) == value, want
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], None)
        with pytest.raises(AttributeError):
            value.extra = None


def test_answer_enums_print_as_their_value():
    from leafspace.core import Tri
    from leafspace.paths import Comparability

    assert str(Tri.YES) == "yes" and str(Comparability.LESS) == "less"


def test_records_check_and_sort_in_the_constructor():
    for t in (Fraction(3, 2), 1, 0, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="interior coordinate"):
            Point(("e", 0), t)
    assert Point(("e", 0), "1/2").t == Fraction(1, 2) and Point(("v", 0)).t is None
    with pytest.raises(ValueError, match="interior coordinate"):
        Point(("e", 0), Fraction(1, 2))._replace(t=Fraction(3, 2))
    assert Point(("e", 0), Fraction(1, 2))._replace(t="1/3") == (("e", 0), Fraction(1, 3))
    rule = EndRule("limit", (("b", 0), ("a", 1)))
    assert rule.targets == (("a", 1), ("b", 0))
    assert repr(rule) == "EndRule(kind='limit', targets=(('a', 1), ('b', 0)))"
    assert EndRule("open") == ("open", ())
    assert EndRule("open")._replace(kind="limit", targets=[("b", 0), ("a", 1)]) == rule
    rule = ChainEndRule("limit", ["b", "a"])
    assert rule.targets == ("a", "b")
    assert repr(rule) == "ChainEndRule(kind='limit', targets=('a', 'b'))"
    assert rule._replace(targets="cb").targets == ("b", "c")
    for rule in (EndRule("limit", (("b", 0), ("a", 1))), ChainEndRule("limit", ("b", "a"))):
        assert pickle.loads(pickle.dumps(rule)) == rule
        with pytest.raises(AttributeError):
            rule.targets = ()
