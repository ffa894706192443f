"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import contextlib
import io
import random
import time
from pathlib import Path

import pytest

from leafspace.core import PreconditionFailed, Tri, branch_loci, expand, validate
from leafspace.core import mid_point, vertex_point
from leafspace.paths import compare, path
from leafspace.action import Word, act, classify_element, branching_type, in_comparable_set
from leafspace.action import canonical_points
from leafspace.checkers import (
    PASS,
    VIOLATION,
    check_connected_open,
    check_faithfulness,
    check_fix_propagation,
    check_intermediate_fixed,
    check_odd_path,
    check_path_in_comparable_set,
    check_return,
    stabilizer_ball,
)
from leafspace.cli import main
from leafspace.gallery import GALLERY_NAMES, gallery
from leafspace.randspec import RandomParams, random_spec

from bruteforce import Oracle
from conftest import build_tripod

GOLDEN = Path(__file__).parent / "golden"


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {description}")
        raise
    print(f"[criterion {number}] PASS  {description}")


def test_criterion_1_path_oracle_equivalence():
    started = time.monotonic()
    pairs_checked = 0

    def check_pair(spec, trunc, oracle, x, y):
        nonlocal pairs_checked
        assert compare(trunc, x, y).value == oracle.compare(x, y)
        mine = path(trunc, x, y)
        intervals, junctions = oracle.path(x, y)
        assert mine.length == len(intervals)
        assert [(iv.start, iv.end, iv.direction)
                for iv in mine.intervals] == intervals
        assert [(j.arrive, j.depart, frozenset(j.locus.members))
                for j in mine.junctions] == [
                    (a, d, frozenset(m)) for a, d, m in junctions]
        pairs_checked += 1

    with criterion(1, "path agrees with the brute-force arc enumerator "
                      "on 1000 seeded models"):
        for seed in range(1, 1001):
            spec = random_spec(RandomParams(seed=seed))
            trunc = expand(spec, 0)
            assert validate(trunc).valid
            oracle = Oracle(spec)
            pts = canonical_points(trunc)
            if seed <= 25:          # exhaustive on the first seeds
                for x in pts:
                    for y in pts:
                        check_pair(spec, trunc, oracle, x, y)
            rng = random.Random(seed * 7919)
            for _ in range(10):
                check_pair(spec, trunc, oracle, rng.choice(pts), rng.choice(pts))
        elapsed = time.monotonic() - started
        assert elapsed < 60, f"took {elapsed:.1f}s"
    print(f"    {pairs_checked} pairs, 100% agreement, {elapsed:.1f}s")


def test_criterion_2_swap_reproduces_two_point_locus():
    with criterion(2, "SWAP: one two-point locus, stabilizer ball generated by g, "
                      "cyclic at radius 6, acting nontrivially"):
        entry = gallery("SWAP")
        loci = branch_loci(expand(entry.spec, 4))
        assert len(loci) == 1
        assert len(loci[0].members) == 2
        ball = stabilizer_ball(entry.spec, loci[0], 6, 4)
        assert set(ball.members) == {Word.generator("g", k) for k in range(-6, 7)}
        assert ball.cyclic_at_radius
        assert ball.cyclic_generator == Word.generator("g")
        assert ball.acts_nontrivially
        table = dict(ball.action_table)
        assert loci[0].members == (("a", 0), ("b", 0))
        assert table[Word.generator("g")] == (("b", 0), ("a", 0))      # g swaps them
        assert table[Word.generator("g") ** 2] == (("a", 0), ("b", 0))


def test_criterion_3_return_lemma():
    with criterion(3, "return lemma on SWAP: m = 1 = half the path length, "
                      "g sends the arrival to the departure, g^2 fixes it"):
        spec = gallery("SWAP").spec
        g = Word.generator("g")
        gamma = path(expand(spec, 4), mid_point("ra", 0), act(spec, g, mid_point("ra", 0)))
        assert gamma.length == 2
        report = check_return(spec, g, mid_point("ra", 0), 2, 4)
        assert report.verdict == PASS
        assert dict(report.witness)["m"] == "1"
        assert act(spec, g, vertex_point("a")) == vertex_point("b")
        assert act(spec, g ** 2, vertex_point("a")) == vertex_point("a")


def test_criterion_4_odd_path_emptiness():
    started = time.monotonic()
    with criterion(4, "odd path length on ZIGZAG empties every power's "
                      "comparable set (k <= 4, depth 6)"):
        spec = gallery("ZIGZAG").spec
        report = check_odd_path(spec, Word.generator("h"), mid_point("E", 0), 4, 6)
        assert report.verdict == PASS
        elapsed = time.monotonic() - started
        assert elapsed < 10, f"took {elapsed:.1f}s"
    print(f"    swept all window cells for h^1..h^4 in {elapsed:.1f}s")


def test_criterion_5_faithfulness_screen():
    with criterion(5, "no nontrivial word of length <= 6 acts trivially on "
                      "SWAP or ZIGZAG; LINE is rejected for lack of branching"):
        assert check_faithfulness(gallery("SWAP").spec, 6, 4).verdict == PASS
        assert check_faithfulness(gallery("ZIGZAG").spec, 6, 4).verdict == PASS
        with pytest.raises(PreconditionFailed):
            check_faithfulness(gallery("LINE").spec, 6, 4)


def _c2_and_open_never_violate(spec, words, depth):
    for word in words:
        rep = check_connected_open(spec, word, depth)
        assert rep.verdict != VIOLATION, (word, rep)
        yes_points = []
        for p in canonical_points(spec.window(depth)):
            if in_comparable_set(spec, word, p, depth) is Tri.YES:
                yes_points.append(p)
            if len(yes_points) == 3:
                break
        for i in range(len(yes_points)):
            for j in range(i + 1, len(yes_points)):
                rep = check_path_in_comparable_set(
                    spec, word, yes_points[i], yes_points[j], depth)
                assert rep.verdict != VIOLATION, (word, rep)


def test_criterion_6_c2_suite_and_checker_sensitivity():
    with criterion(6, "comparable-set connectivity theorems never violated on "
                      "gallery + random automorphism models; the 3-member "
                      "counter-model is caught"):
        for name in GALLERY_NAMES:
            spec = gallery(name).spec
            words = []
            for gen in sorted(spec.generators):
                words += [Word.generator(gen), Word.generator(gen) ** 2,
                          Word.generator(gen, -1)]
            _c2_and_open_never_violate(spec, words, 4)
        # 1000 seeds; the acceptance bar is 200, the rest is margin
        for seed in range(1, 1001):
            spec = random_spec(RandomParams(seed=seed, symmetric=True))
            rho = Word.generator("rho")
            _c2_and_open_never_violate(spec, [rho, rho ** 2, rho.inverse()], 0)
        tripod = build_tripod()
        locus = branch_loci(expand(tripod, 2))[0]
        report = check_fix_propagation(tripod, locus, 4, 2)
        assert report.verdict == VIOLATION
        assert dict(report.witness)["word"] == "w"


def test_criterion_7_loops_and_actions():
    with criterion(7, "ZIGZAG shift is a neither-candidate on a two-sided model; "
                      "the SWAP fixed witness sits inside the branch locus"):
        zig = gallery("ZIGZAG").spec
        profile = classify_element(zig, Word.generator("h"), 4)
        assert profile.neither_in_window
        assert branching_type(zig, 4).value == "two_sided"
        swap = gallery("SWAP").spec
        report = check_intermediate_fixed(
            swap, Word.generator("g") ** 2, mid_point("s", 0), mid_point("ra", 0), 4)
        assert report.verdict == PASS
        witness = dict(report.witness)
        assert witness["witness"] == "a[0]" and witness["in_locus"] == "yes"


def _run_cli(argv):
    stream = io.StringIO()
    code = main(argv, stream=stream)
    return code, stream.getvalue()


def test_criterion_8_determinism_and_golden_reports():
    with criterion(8, "gallery suite reports are byte-identical across reruns "
                      "and match the committed golden files"):
        for name in GALLERY_NAMES:
            argv = ["suite", "--gallery", name, "--depth", "4", "--word-len", "6"]
            code_a, out_a = _run_cli(argv)
            code_b, out_b = _run_cli(argv)
            assert (code_a, out_a) == (code_b, out_b)
            assert code_a == 0, f"suite on {name} exited {code_a}"
            golden = (GOLDEN / f"suite_{name}.txt").read_text(encoding="utf-8")
            assert out_a == golden, f"golden mismatch for {name}"
            code, out = _run_cli(argv + ["--json"])
            golden = (GOLDEN / f"suite_{name}.json").read_text(encoding="utf-8")
            assert (code, out) == (0, golden), f"--json golden mismatch for {name}"
        code_a, doc_a = _run_cli(["random", "--seed", "7"])
        code_b, doc_b = _run_cli(["random", "--seed", "7"])
        assert doc_a == doc_b and code_a == code_b == 0
