import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafspace.formats import ParseError, SemanticError, emit, parse
from leafspace.gallery import GALLERY_NAMES, gallery
from leafspace.randspec import RandomParams, random_spec


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
    with pytest.raises(ParseError, match="line 2"):
        parse("leafspace/1\nfamily x wobble unit\n")
    with pytest.raises(ParseError, match="line 3"):
        parse("leafspace/1\nfamily v vertex unit\nmark m v zero\n")
    with pytest.raises(ParseError, match="offset"):
        parse("leafspace/1\nfamily v vertex unit\nfamily e edge unit\n"
              "end e low vertex v x\nend e high open\n")


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


def test_far_offset_is_rejected_without_a_far_window(monkeypatch):
    import leafspace.formats as formats

    depths = []
    real_expand = formats.expand

    def recording_expand(spec, depth):
        depths.append(depth)
        return real_expand(spec, depth)

    monkeypatch.setattr(formats, "expand", recording_expand)
    with pytest.raises(SemanticError, match="germs"):
        parse(_two_unit_edges_at(10 ** 9))
    assert depths == [1]
