"""Canonical leaf-space models with actions, used as fixtures everywhere.

Every entry is exactly specified; the ``facts`` table of an entry records
its documented combinatorics (loci, signs, branching type, path lengths
between marks, element classifications) and is executed as a test.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    ChainEndRule,
    LeafSpaceSpec,
    UnknownName,
    mid_point,
    open_end,
    to_limit,
    to_vertex,
    vertex_point,
)


class GalleryEntry(NamedTuple):
    name: str
    spec: LeafSpaceSpec
    notes: str
    facts: dict


GALLERY_NAMES = ("LINE", "YPLUS", "SWAP", "ZIGZAG", "COMB")


def _line():
    """Bi-infinite line: vertex chain v, edge chain e (v[n] -> v[n+1]);
    generator t shifts by one.  No branch loci."""
    spec = LeafSpaceSpec()
    spec.add_vertex("v", chain=True)
    spec.add_edge("e", low=to_vertex("v", 0), high=to_vertex("v", 1), chain=True)
    spec.add_generator("t", {"v": ("v", 1), "e": ("e", 1)})
    spec.add_mark("origin", vertex_point("v", 0))
    spec.add_mark("e0", mid_point("e", 0))
    return GalleryEntry(
        "LINE", spec,
        "fibration-like model: a line translated by t; no branching",
        {
            "locus_count": 0,
            "branching": "none",
            "classify": {"t": ("no-window", "yes", "no-window")},
        })


def _yplus():
    """One positive two-point locus: a stem whose high end accumulates on
    {a, b}, each continuing into its own open branch.  No generators: the
    obvious swap has order two, which no torsion-free acting group
    realizes, so it stays a pure topology fixture."""
    spec = LeafSpaceSpec()
    spec.add_vertex("a")
    spec.add_vertex("b")
    spec.add_edge("s", low=open_end(), high=to_limit(("a", 0), ("b", 0)))
    spec.add_edge("p", low=to_vertex("a"), high=open_end())
    spec.add_edge("q", low=to_vertex("b"), high=open_end())
    spec.add_mark("stem", mid_point("s"))
    spec.add_mark("pa", mid_point("p"))
    spec.add_mark("qb", mid_point("q"))
    return GalleryEntry(
        "YPLUS", spec,
        "minimal branching: the line with two origins, plus branches",
        {
            "locus_count": 1,
            "locus_signs": ("positive",),
            "locus_sizes": (2,),
            "branching": "one_sided_positive",
            "path_lengths": {("pa", "qb"): 2, ("stem", "pa"): 1},
        })


def _swap():
    """A two-point locus whose stabilizer acts on it nontrivially: the
    stem chain s ascends as n decreases and accumulates on {a, b}; the
    branch chains ra, rb descend onto a and b.  g shifts the stem up one
    cell and exchanges the branch chains (so g swaps a and b, and g**2
    translates every chain)."""
    spec = LeafSpaceSpec()
    spec.add_vertex("a")
    spec.add_vertex("b")
    spec.add_glued_chain("s", glue=-1,
                         neg=ChainEndRule("limit", ("a", "b")),
                         pos=ChainEndRule("open"))
    spec.add_glued_chain("ra", glue=1,
                         neg=ChainEndRule("limit", ("a",)),
                         pos=ChainEndRule("open"))
    spec.add_glued_chain("rb", glue=1,
                         neg=ChainEndRule("limit", ("b",)),
                         pos=ChainEndRule("open"))
    spec.add_generator("g", {
        "s": ("s", -1),
        "ra": ("rb", 0),
        "rb": ("ra", -1),
        "a": ("b", 0),
        "b": ("a", 0),
    })
    spec.add_mark("stem0", mid_point("s", 0))
    spec.add_mark("ra0", mid_point("ra", 0))
    spec.add_mark("rb0", mid_point("rb", 0))
    return GalleryEntry(
        "SWAP", spec,
        "contracting holonomy rendered as index accumulation: chains "
        "limiting onto a two-point locus whose members g exchanges",
        {
            "locus_count": 1,
            "locus_signs": ("positive",),
            "locus_sizes": (2,),
            "branching": "one_sided_positive",
            "path_lengths": {("ra0", "rb0"): 2, ("stem0", "ra0"): 1},
            "classify": {"g": ("no-window", "yes", "no-window")},
        })


def _zigzag():
    """Two-sided branching: per n a positive locus P[n] = {p1, p2}[n] fed
    by an ascending stem sg[n], a negative locus N[n] = {m1, m2}[n] capped
    by a descending stem tau[n], an edge E[n] from p2[n] up to m1[n] and
    an edge F[n] from p1[n+1] up to m2[n]; h shifts everything by one.
    The connection from mid E[0] to mid E[1] needs three intervals."""
    spec = LeafSpaceSpec()
    for v in ("p1", "p2", "m1", "m2"):
        spec.add_vertex(v, chain=True)
    spec.add_edge("sg", low=open_end(), high=to_limit(("p1", 0), ("p2", 0)), chain=True)
    spec.add_edge("tau", low=to_limit(("m1", 0), ("m2", 0)), high=open_end(), chain=True)
    spec.add_edge("E", low=to_vertex("p2", 0), high=to_vertex("m1", 0), chain=True)
    spec.add_edge("F", low=to_vertex("p1", 1), high=to_vertex("m2", 0), chain=True)
    spec.add_generator("h", {f: (f, 1) for f in spec.families})
    spec.add_mark("lam0", mid_point("E", 0))
    spec.add_mark("lam1", mid_point("E", 1))
    return GalleryEntry(
        "ZIGZAG", spec,
        "alternating positive and negative loci along a zigzag spine; h "
        "is a candidate neither-tangentiable-nor-transversable element",
        {
            "branching": "two_sided",
            "path_lengths": {("lam0", "lam1"): 3},
            "classify": {"h": ("no-window", "no-window", "no-window")},
        })


def _comb():
    """One-sided positive branching with infinitely many loci: spine
    edges sp[n] run from a[n] up into the locus {a[n+1], b[n+1]}; each
    b[n] carries a free ascending ray r[n]; the generator shifts the
    spine by one."""
    spec = LeafSpaceSpec()
    spec.add_vertex("a", chain=True)
    spec.add_vertex("b", chain=True)
    spec.add_edge("sp", low=to_vertex("a", 0), high=to_limit(("a", 1), ("b", 1)), chain=True)
    spec.add_edge("r", low=to_vertex("b", 0), high=open_end(), chain=True)
    spec.add_generator("u", {f: (f, 1) for f in spec.families})
    spec.add_mark("low", vertex_point("a", 0))
    spec.add_mark("tooth0", mid_point("r", 0))
    return GalleryEntry(
        "COMB", spec,
        "a comb of loci along a spine; every sufficiently low point is "
        "comparable with its image under the shift",
        {
            "locus_signs": ("positive",),
            "branching": "one_sided_positive",
            "classify": {"u": ("no-window", "yes", "no-window")},
        })


_BUILDERS = {
    "LINE": _line,
    "YPLUS": _yplus,
    "SWAP": _swap,
    "ZIGZAG": _zigzag,
    "COMB": _comb,
}


def gallery(name):
    """Return the named entry; names: LINE, YPLUS, SWAP, ZIGZAG, COMB."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise UnknownName(f"unknown gallery entry {name!r}; "
                          f"choose from {', '.join(GALLERY_NAMES)}")
    return builder()
