import pytest

from leafspace.cli import main
from leafspace.core import branch_loci, expand, validate
from leafspace.action import Word, act_locus
from leafspace.formats import emit
from leafspace.randspec import RandomParams, random_spec


def test_validity_over_seeds():
    for seed in range(1, 301):
        spec = random_spec(RandomParams(seed=seed))
        report = validate(expand(spec, 1))
        assert report.valid, (seed, report.violations)


def test_same_seed_same_bytes():
    params = RandomParams(seed=1)
    assert emit(random_spec(params)) == emit(random_spec(params))
    assert emit(random_spec(RandomParams(seed=1))) != emit(random_spec(RandomParams(seed=2)))


def test_requested_ranges_respected():
    for seed in (5, 50, 500):
        params = RandomParams(seed=seed, locus_count=(2, 2), locus_size=(3, 3),
                              extra_edges=0)
        loci = branch_loci(expand(random_spec(params), 0))
        assert len(loci) == 2
        assert all(len(b.members) == 3 for b in loci)


def test_sign_mix_extremes():
    all_pos = random_spec(RandomParams(seed=9, sign_mix=1.0))
    assert {b.sign for b in branch_loci(expand(all_pos, 0))} == {"positive"}
    all_neg = random_spec(RandomParams(seed=9, sign_mix=0.0))
    assert {b.sign for b in branch_loci(expand(all_neg, 0))} == {"negative"}


def test_symmetric_specs_carry_working_automorphism():
    for seed in range(1, 101):
        spec = random_spec(RandomParams(seed=seed, symmetric=True))
        assert validate(expand(spec, 0)).valid
        assert "rho" in spec.generators
        loci = branch_loci(expand(spec, 0))
        assert len(loci) == 1
        rho = Word.generator("rho")
        members = loci[0].members
        assert act_locus(spec, rho, members) == members


def test_extra_edges_subdivide():
    # each subdivision trades one edge for a vertex and two half edges
    thin = random_spec(RandomParams(seed=77, extra_edges=0))
    thick = random_spec(RandomParams(seed=77, extra_edges=4))
    assert len(thick.families) == len(thin.families) + 2 * 4


@pytest.mark.parametrize("field, bounds", [
    ("locus_count", (0, 0)), ("locus_count", (3, 1)),
    ("locus_size", (0, 0)), ("locus_size", (5, 2)),
])
def test_out_of_range_bounds_are_rejected(field, bounds, capsys):
    for symmetric in (False, True):
        with pytest.raises(ValueError, match=f"{field} must satisfy 1 <= low <= high"):
            random_spec(RandomParams(seed=1, symmetric=symmetric, **{field: bounds}))
    flag = {"locus_count": "--loci", "locus_size": "--sizes"}[field]
    assert main(["random", "--seed", "1", flag, *map(str, bounds)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must satisfy")
    # the smallest valid bounds still build a valid model
    spec = random_spec(RandomParams(seed=1, **{field: (1, 1)}))
    assert validate(expand(spec, 1)).valid
