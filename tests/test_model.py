"""The builder and the model: a query freezes a ``LeafSpaceSpec``'s tables
into an immutable ``Model``, which derives each fact of its rules once and
keeps a bounded cache of windows; a window never reads a later edit."""

import pytest

import leafspace.model as model_mod
from leafspace.core import (
    WINDOW_CACHE,
    ChainEndRule,
    Model,
    Point,
    cached_validation,
    expand,
    open_end,
    to_vertex,
    validate,
)
from leafspace.formats import emit, parse
from leafspace.gallery import gallery
from leafspace.randspec import RandomParams, random_spec

K = {"s": ("s", -1), "ra": ("ra", -1), "rb": ("rb", -1), "a": ("a", 0), "b": ("b", 0)}


def test_the_cold_path_derives_each_fact_once(monkeypatch):
    # emit -> parse -> expand(0) -> validate, as the cold_models benchmark
    # runs it: one well-formedness pass and one germ-source derivation per
    # model, a quarter of them with a checked generator
    specs = [random_spec(RandomParams(seed=seed, symmetric=seed % 4 == 3))
             for seed in range(1, 25)]
    counts = dict.fromkeys(("_malformation", "_rule_pass", "automorphism_problems"), 0)
    for name in counts:
        def counted(*args, _real=getattr(model_mod, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(model_mod, name, counted)
    for spec in specs:
        assert validate(expand(parse(emit(spec)), 0)).valid
    assert counts == {"_malformation": 24, "_rule_pass": 24, "automorphism_problems": 6}


def test_parse_returns_a_model_that_queries_as_the_builder():
    spec = gallery("SWAP").spec
    model = parse(emit(spec))
    assert type(model) is Model and model.freeze() is model
    assert emit(model) == emit(spec)
    assert model.window(3).spec is model
    assert validate(model.window(3)) == validate(expand(spec, 3))


def test_a_held_window_keeps_its_model():
    # a mark added after the window: the window's model has no such mark
    spec = gallery("SWAP").spec
    held = spec.window(2)
    spec.add_mark("bad", Point(("ghost", 0)))
    assert validate(held).valid
    assert [v.code for v in validate(spec.window(2)).violations] == ["mark"]
    # a generator added after the window: it answers for the old ones
    spec = gallery("SWAP").spec
    held = spec.window(2)
    spec.add_generator("k", K)
    assert held.spec is not spec and sorted(held.spec.generators) == ["g"]
    assert sorted(spec.window(2).spec.generators) == ["g", "k"]
    assert spec.window(2).spec.automorphisms == (spec.generators["g"], spec.generators["k"])


def test_a_direct_write_reaches_the_next_window():
    spec = gallery("YPLUS").spec
    held = spec.window(1)
    assert cached_validation(held).valid
    spec.ends[("q", "high")] = to_vertex("a")       # a second low germ on a
    fresh = validate(expand(spec, 1))
    assert not fresh.valid
    assert spec.window(1) is not held and cached_validation(spec.window(1)) == fresh
    assert cached_validation(held).valid


def test_a_checked_generator_is_checked_again_after_a_rule_write():
    spec = gallery("SWAP").spec
    assert spec.window(1).spec.automorphisms == (spec.generators["g"],)
    # g sends ra onto rb, whose pos end stays open: no longer an automorphism
    spec.chain_ends[("ra", "pos")] = ChainEndRule("limit", ("a",))
    assert spec.window(1).spec.automorphisms == ()


def test_a_round_trip_keeps_the_automorphisms():
    # a model tests every generator itself: a parsed model, whose generators
    # parse checked, and a frozen builder, checked or not, read the same ones
    from pathlib import Path

    from conftest import build_swap_k, build_tripod
    from leafspace.core import automorphism_problems
    from leafspace.gallery import GALLERY_NAMES

    unchecked = gallery("SWAP").spec
    unchecked.add_generator("k", K, check=False)
    golden = Path(__file__).parent / "golden" / "nonrealizable" / "fix_propagation.leafspace"
    specs = [gallery(name).spec for name in GALLERY_NAMES] + [build_swap_k(), unchecked]
    specs += [random_spec(RandomParams(seed=seed, symmetric=True)) for seed in range(20)]
    specs.append(parse(golden.read_text()))
    passed = 0
    for spec in specs:
        # an element's key follows its model's family order: compare the maps
        model = spec.freeze()
        passing = [g.maps for g in model.generators.values() if not automorphism_problems(model, g)]
        assert [g.maps for g in parse(emit(spec)).automorphisms] == passing
        assert [g.maps for g in model.automorphisms] == passing
        passed += len(passing)
    assert passed and unchecked.freeze().automorphisms == tuple(unchecked.generators.values())
    # f, added unchecked, is no automorphism: the model leaves it out
    tripod = build_tripod(with_inconsistent_action=True).freeze()
    assert "f" in tripod.generators and tripod.generators["f"] not in tripod.automorphisms


def test_the_window_cache_keeps_the_depths_used_last():
    spec = gallery("LINE").spec
    model = spec.freeze()
    windows = {depth: spec.window(depth) for depth in range(WINDOW_CACHE)}
    assert spec.window(0) is windows[0]         # a hit makes depth 0 the last used
    spec.window(WINDOW_CACHE)                   # drops depth 1, the least recently used
    assert len(model._windows) == WINDOW_CACHE
    assert spec.window(0) is windows[0] and spec.window(1) is not windows[1]
    for depth in range(2 * WINDOW_CACHE, 4 * WINDOW_CACHE):
        spec.window(depth)
        assert len(model._windows) <= WINDOW_CACHE
    assert spec.freeze() is model       # no edit, no new model


def test_a_frozen_model_cannot_change():
    spec = gallery("SWAP").spec
    for model in (spec.freeze(), parse(emit(spec))):
        with pytest.raises(TypeError):
            model.germ_sources()[("a", "low")] = ()
        for table in ("families", "ends", "chain_ends", "generators", "marks"):
            with pytest.raises(TypeError):
                getattr(model, table)["x"] = None
            with pytest.raises(AttributeError):
                setattr(model, table, {})
            with pytest.raises(AttributeError):
                delattr(model, table)
    model = spec.freeze()
    spec.add_mark("later", Point(("a", 0)))
    spec.ends[("s", "low")] = open_end()
    assert "later" not in model.marks and ("s", "low") not in model.ends


def test_a_suite_run_freezes_its_builder_once(monkeypatch):
    # the CLI hands the checkers the frozen model, so their window lookups
    # never compare a builder's tables again
    import io

    from leafspace import cli

    calls = []
    real = model_mod.LeafSpaceSpec._frozen

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(model_mod.LeafSpaceSpec, "_frozen", counted)
    for depth in ("4", "8"):
        calls.clear()
        assert cli.main(["suite", "--gallery", "ZIGZAG", "--depth", depth],
                        stream=io.StringIO()) == 0
        assert len(calls) <= 1


def test_reference_germ_sources_match_the_model():
    # the reference window counts its germ sources from the rule tables
    # itself, so a source the model's rule pass drops shows on one side only
    from conftest import build_swap_k
    from leafspace.gallery import GALLERY_NAMES
    from reference import reference_germ_sources

    specs = [gallery(name).spec for name in GALLERY_NAMES] + [build_swap_k()]
    specs += [random_spec(RandomParams(seed=seed, symmetric=seed % 2 == 1)) for seed in range(200)]
    chain_sources = 0
    for spec in specs:
        model = spec.freeze()
        assert reference_germ_sources(model) == dict(model.germ_sources())
        chain_sources += sum(kind == "chain" for found in model.germ_sources().values()
                             for kind, _, _ in found)
    assert chain_sources       # the corpus holds limits at infinity
