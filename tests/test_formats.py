import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafspace.core import LeafSpaceError, Truncation, expand, validate
from leafspace.formats import ParseError, SemanticError, emit, parse
from leafspace.gallery import GALLERY_NAMES, gallery
from leafspace.randspec import RandomParams, random_spec
from reference import reference_reject_overfull
from test_fuzz import _corrupt, _mutate


def spec_equal(a, b):
    return (a.families == b.families and a.ends == b.ends
            and a.chain_ends == b.chain_ends
            and {n: g.maps for n, g in a.generators.items()}
            == {n: g.maps for n, g in b.generators.items()}
            and a.marks == b.marks)


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_gallery_round_trip(name):
    spec = gallery(name).spec
    doc = emit(spec)
    again = parse(doc)
    assert spec_equal(spec, again)
    assert emit(again) == doc


@given(st.integers(min_value=1, max_value=2000))
@settings(max_examples=60, deadline=None)
def test_random_spec_round_trip(seed):
    spec = random_spec(RandomParams(seed=seed))
    doc = emit(spec)
    assert emit(parse(doc)) == doc


@given(st.integers(min_value=1, max_value=500))
@settings(max_examples=30, deadline=None)
def test_symmetric_spec_round_trip(seed):
    spec = random_spec(RandomParams(seed=seed, symmetric=True))
    doc = emit(spec)
    assert emit(parse(doc)) == doc


def test_emit_is_canonical_under_permutation():
    # shuffling declaration lines must not change the canonical bytes
    doc = emit(gallery("SWAP").spec)
    rng = random.Random(0)
    lines = doc.strip().splitlines()
    for _ in range(5):
        body = lines[1:]
        rng.shuffle(body)
        shuffled = "\n".join([lines[0]] + body) + "\n"
        assert emit(parse(shuffled)) == doc


def test_double_high_side_is_semantic_error():
    doc = """leafspace/1
family a vertex unit
family b vertex unit
family s edge unit
family p edge unit
family q edge unit
end s low open
end s high limit a 0 b 0
end p low vertex a 0
end p high open
end q low vertex a 0
end q high open
"""
    with pytest.raises(SemanticError, match="germs"):
        parse(doc)


def test_parse_errors_are_line_anchored():
    with pytest.raises(ParseError, match="line 1"):
        parse("not-a-header\n")
    with pytest.raises(ParseError, match="^line 1: expected header") as caught:
        parse("")
    assert caught.value.line == 1
    with pytest.raises(ParseError, match="line 2"):
        parse("leafspace/1\nfamily x wobble unit\n")
    with pytest.raises(ParseError, match="line 3"):
        parse("leafspace/1\nfamily v vertex unit\nmark m v zero\n")
    with pytest.raises(ParseError, match="offset"):
        parse("leafspace/1\nfamily v vertex unit\nfamily e edge unit\n"
              "end e low vertex v x\nend e high open\n")


@pytest.mark.parametrize("body, error, message", [
    ("family e edge chain glue +2\n", ParseError, "line 2: glue direction must be +1 or -1"),
    ("family v vertex unit\nfamily e edge unit\nend e low vertex v 0 v 1\nend e high open\n",
     ParseError, "line 4: a vertex end takes exactly one target"),
    ("family e edge unit\nmark m e 0 3/2\n", ParseError,
     "line 3: interior coordinate must be in (0,1)"),
    ("family s edge chain glue +1\nend s low open\n", SemanticError,
     "s: glued chains carry chainend rules, not end rules"),
    ("family e edge chain\nchainend e neg open\n", SemanticError,
     "e: chainend rules need a glued chain"),
], ids=["glue", "vertex-end-targets", "mark-coordinate", "end-on-glued-chain",
        "chainend-on-unglued-family"])
def test_malformed_declaration_is_a_typed_error(body, error, message):
    with pytest.raises(error) as caught:
        parse("leafspace/1\n" + body)
    assert type(caught.value) is error and str(caught.value) == message


def test_unknown_family_is_semantic_error():
    with pytest.raises(SemanticError):
        parse("leafspace/1\nfamily e edge unit\nend e low vertex ghost 0\nend e high open\n")


def test_bad_generator_is_semantic_error():
    doc = emit(gallery("SWAP").spec) + "gen broken s s -1\n"
    with pytest.raises(SemanticError, match="broken"):
        parse(doc)


def test_comments_and_blank_lines():
    doc = emit(gallery("YPLUS").spec)
    commented = doc.replace("\n", "\n# a comment\n\n", 1)
    assert emit(parse(commented)) == doc


def test_duplicate_marks_rejected():
    doc = emit(gallery("SWAP").spec) + "mark ra0 ra 1\n"
    with pytest.raises(SemanticError, match="duplicate mark"):
        parse(doc)


def _chain_vertex_doc(body):
    return "leafspace/1\nfamily v vertex chain\n" + body


def _two_unit_edges_at(index):
    return _chain_vertex_doc(
        "family p edge unit\nfamily q edge unit\n"
        f"end p low open\nend p high vertex v {index}\n"
        f"end q low open\nend q high vertex v {index}\n")


@pytest.mark.parametrize("index", [1, 5, -5, 10 ** 9])
def test_overfull_chain_vertex_named_by_unit_edges(index):
    with pytest.raises(SemanticError, match=rf"^model: v\[{index}\] has 2 germs on its low side$"):
        parse(_two_unit_edges_at(index))


def test_overfull_chain_vertex_beside_a_chain_edge():
    doc = _chain_vertex_doc(
        "family c edge chain\nend c low vertex v 0\nend c high vertex v 1\n"
        "family p edge unit\nend p low vertex v 5\nend p high open\n")
    with pytest.raises(SemanticError, match=r"^model: v\[5\] has 2 germs on its high side$"):
        parse(doc)
    parse(doc.replace("end p low vertex v 5", "end p low open"))    # the chain edge alone is fine


def test_depth_one_cells_are_checked_before_far_cells():
    doc = _two_unit_edges_at(-5) + (
        "family r edge unit\nfamily s edge unit\n"
        "end r low open\nend r high vertex v 0\nend s low open\nend s high vertex v 0\n")
    with pytest.raises(SemanticError, match=r"^model: v\[0\] has 2 germs on its low side$"):
        parse(doc)


def test_far_offset_is_rejected_without_a_far_window(monkeypatch):
    depths = []
    real_init = Truncation.__init__

    def recording_init(self, spec, depth):
        depths.append(depth)
        real_init(self, spec, depth)

    monkeypatch.setattr(Truncation, "__init__", recording_init)
    doc = _two_unit_edges_at(10 ** 9)
    with pytest.raises(SemanticError, match="germs"):
        parse(doc)
    parse(doc.replace("end q low open\nend q high vertex v 1000000000",
                      "end q low vertex v 1000000000\nend q high open"))
    parse(emit(gallery("COMB").spec))
    assert depths == []


def test_chain_edge_onto_a_unit_vertex_is_rejected():
    doc = ("leafspace/1\nfamily u vertex unit\nfamily c edge chain\n"
           "end c low vertex u 0\nend c high open\n")
    with pytest.raises(SemanticError,
                       match=r"^model: u\[0\] high side receives one germ per chain index$"):
        parse(doc)


def test_a_side_with_no_germ_is_accepted():
    doc = ("leafspace/1\nfamily e edge unit\nfamily u vertex unit\n"
           "end e low vertex u 0\nend e high open\n")
    spec = parse(doc)
    messages = [v.message for v in validate(expand(spec, 0)).violations]
    assert messages == ["u[0] has 0 germs on its low side"]
    assert emit(spec) == doc


GHOST_CHAIN_END = """leafspace/1
family a vertex unit
family s edge chain glue -1
chainend s neg limit a ghost
chainend s pos open
gen g a a 0
gen g s s 0
"""

GHOST_END = """leafspace/1
family a vertex unit
family e edge unit
end e low vertex ghost 0
end e high open
gen g a a 0
gen g e e 0
"""


@pytest.mark.parametrize("doc, where", [(GHOST_CHAIN_END, "s.neg"), (GHOST_END, "e.low")],
                         ids=["chainend", "end"])
def test_unknown_target_beside_a_generator_is_semantic_error(doc, where):
    with pytest.raises(SemanticError, match=rf"^g: {where} targets unknown family 'ghost'$"):
        parse(doc)


def _outcome(doc):
    try:
        return "ok", emit(parse(doc))
    except LeafSpaceError as exc:
        return type(exc).__name__, str(exc)


def test_parse_counts_germs_as_the_window_did(monkeypatch):
    import leafspace.formats as formats

    gallery_docs = [emit(gallery(name).spec) for name in GALLERY_NAMES]
    random_docs = [emit(random_spec(RandomParams(seed=s, symmetric=sym)))
                   for s in range(1, 61) for sym in (False, True)]
    rng = random.Random(7)
    corrupted = []
    for _trial in range(3000):
        doc = _corrupt(rng.choice(gallery_docs + random_docs[:30]), rng)
        for _ in range(rng.randrange(3)):
            doc = _corrupt(doc, rng)
        corrupted.append(doc)
    # corruption seldom overfills a side; retargeted rules often do
    bases = [parse(doc) for doc in gallery_docs + random_docs[:60]]
    retargeted = [emit(_mutate(rng.choice(bases), rng)) for _ in range(600)]
    docs = (gallery_docs + random_docs + corrupted + retargeted
            + [_two_unit_edges_at(i) for i in (1, 5, -5, 10 ** 9)]
            + [GHOST_CHAIN_END, GHOST_END])
    got = [_outcome(doc) for doc in docs]
    monkeypatch.setattr(formats, "_reject_overfull", reference_reject_overfull)
    assert got == [_outcome(doc) for doc in docs]
    kinds = {kind for kind, _ in got}
    assert {"ok", "ParseError", "SemanticError"} <= kinds
    assert sum(text.startswith("model: ") and "germ" in text for _, text in got) >= 20
