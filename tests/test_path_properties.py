"""Property tests for the order and path calculus: reversal, antisymmetry and
agreement of compare with path, on gallery windows at random depths and on
random models, with points drawn from the canonical points and from edge
interiors."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafspace.core import Point, TruncatedError, expand
from leafspace.gallery import GALLERY_NAMES, gallery
from leafspace.paths import ASC, Comparability, compare, path
from leafspace.randspec import RandomParams, random_spec

C = Comparability
MIRROR = {C.LESS: C.GREATER, C.GREATER: C.LESS}


@lru_cache(maxsize=None)
def _gallery_window(name, depth):
    return expand(gallery(name).spec, depth)


@lru_cache(maxsize=None)
def _random_window(seed, symmetric):
    return expand(random_spec(RandomParams(seed=seed, symmetric=symmetric)), 0)


_windows = st.one_of(
    st.builds(_gallery_window, st.sampled_from(GALLERY_NAMES), st.integers(0, 8)),
    st.builds(_random_window, st.integers(1, 1000), st.booleans()),
)

_interior = st.integers(2, 12).flatmap(lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q)))


def _points(trunc):
    canonical = st.sampled_from(trunc.canonical_points)
    if not trunc.edge_cells:
        return canonical
    inside = st.builds(Point, st.sampled_from(trunc.edge_cells), _interior)
    return st.one_of(canonical, inside)


@st.composite
def _window_and_pair(draw):
    trunc = draw(_windows)
    points = _points(trunc)
    return trunc, draw(points), draw(points)


def _path_or_none(trunc, x, y):
    try:
        return path(trunc, x, y)
    except TruncatedError:
        return None


@given(_window_and_pair())
@settings(max_examples=300, deadline=None)
def test_path_reverses(case):
    trunc, x, y = case
    forward = _path_or_none(trunc, x, y)
    if forward is None:
        with pytest.raises(TruncatedError):
            path(trunc, y, x)
    else:
        assert path(trunc, y, x) == forward.reverse()


@given(_window_and_pair())
@settings(max_examples=300, deadline=None)
def test_compare_is_antisymmetric(case):
    trunc, x, y = case
    rel = compare(trunc, x, y)
    assert compare(trunc, y, x) is MIRROR.get(rel, rel)


@given(_window_and_pair())
@settings(max_examples=300, deadline=None)
def test_compare_agrees_with_path(case):
    trunc, x, y = case
    rel = compare(trunc, x, y)
    p = _path_or_none(trunc, x, y)
    if p is None:
        assert rel is C.TRUNCATED
    elif x == y:
        assert rel is C.EQUAL
    elif p.length > 1:
        assert rel is C.INCOMPARABLE
    else:
        assert rel is (C.LESS if p.intervals[0].direction == ASC else C.GREATER)
