"""Seeded random finite models, always valid by construction.

The generator builds a random tree skeleton for the collapsed quotient
first: branch loci become nodes whose slots (one stem, one continuation
per member) carry a required direction, slots of different components are
joined by edges with opposite directions until the skeleton is connected,
leftover slots end openly, and a few edges are subdivided by regular
vertices.  Everything is a unit family, so the window is the whole model
at any depth.

``symmetric=True`` instead grows one locus with k isomorphic wings and
emits the cyclic wing-rotation generator -- the source of nontrivial
automorphisms for randomized action tests (generic random trees have no
symmetry to act with).
"""

from __future__ import annotations

import random
from itertools import count
from typing import NamedTuple

from .core import (
    EndRule,
    HIGH,
    LOW,
    LeafSpaceSpec,
    NEGATIVE,
    POSITIVE,
    open_end,
    to_vertex,
)


class RandomParams(NamedTuple):
    seed: int
    locus_count: tuple = (1, 3)
    locus_size: tuple = (2, 4)
    sign_mix: float = 0.5          # probability a locus is positive
    extra_edges: int = 2           # subdivision vertices inserted after assembly
    symmetric: bool = False


UP, DOWN = "up", "down"


def _locus_slots(members, sign):
    """Slot list for one locus: each slot is (direction, owner end, rule),
    where filling a slot with an edge means giving that edge's owner end
    the rule.

    The stem extends downward from a positive locus (the edge's high end
    limits onto the members); each member continuation extends upward
    (the edge's low end attaches to the member).  Negative mirrors.
    """
    limit = EndRule("limit", tuple((m, 0) for m in members))
    slots = []
    if sign == POSITIVE:
        slots.append((DOWN, HIGH, limit))
        slots.extend((UP, LOW, to_vertex(m)) for m in members)
    else:
        slots.append((UP, LOW, limit))
        slots.extend((DOWN, HIGH, to_vertex(m)) for m in members)
    return slots


def random_spec(params):
    """Deterministic in the seed; the result always passes validation.
    ``locus_count`` and ``locus_size`` must each satisfy 1 <= low <= high
    (else ValueError)."""
    for field in ("locus_count", "locus_size"):
        low, high = getattr(params, field)
        if not 1 <= low <= high:
            raise ValueError(f"{field} must satisfy 1 <= low <= high, got {low} {high}")
    rng = random.Random(params.seed)
    if params.symmetric:
        return _symmetric_spec(rng, params)

    vertices, edge_rules = [], {}       # edge name -> {LOW: rule, HIGH: rule}
    edge_ids = count()
    n_loci = rng.randint(*params.locus_count)
    slots = []            # (locus index, direction, owner end, rule)
    for li in range(n_loci):
        size = rng.randint(*params.locus_size)
        sign = POSITIVE if rng.random() < params.sign_mix else NEGATIVE
        members = [f"v{len(vertices) + i}" for i in range(size)]
        vertices += members
        for direction, owner_end, rule in _locus_slots(members, sign):
            slots.append([li, direction, owner_end, rule, False])

    # join components with direction-opposite slot pairs until connected
    parent = list(range(n_loci))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def open_slots(direction):
        return [s for s in slots if not s[4] and s[1] == direction]

    components = n_loci
    while components > 1:
        downs = open_slots(DOWN)
        rng.shuffle(downs)
        joined = False
        for down in downs:
            ups = [u for u in open_slots(UP) if find(u[0]) != find(down[0])]
            if not ups:
                continue
            up = ups[rng.randrange(len(ups))]
            down[4] = up[4] = True
            # the edge runs upward from the "up" slot's locus into the
            # "down" slot's locus, so the up slot rules its low end
            edge_rules[f"e{next(edge_ids)}"] = {up[2]: up[3], down[2]: down[3]}
            parent[find(up[0])] = find(down[0])
            components -= 1
            joined = True
            break
        if not joined:            # cannot happen: every locus owns both kinds
            raise AssertionError("no opposite slot pair across components")

    for _li, direction, owner_end, rule, used in slots:
        if used:
            continue
        other = HIGH if owner_end == LOW else LOW
        edge_rules[f"e{next(edge_ids)}"] = {owner_end: rule, other: open_end()}

    for _ in range(params.extra_edges):     # subdivide edges by regular vertices
        rules = edge_rules.pop(sorted(edge_rules)[rng.randrange(len(edge_rules))])
        mid = f"v{len(vertices)}"
        vertices.append(mid)
        edge_rules[f"e{next(edge_ids)}"] = {LOW: rules[LOW], HIGH: to_vertex(mid)}
        edge_rules[f"e{next(edge_ids)}"] = {LOW: to_vertex(mid), HIGH: rules[HIGH]}
    spec = LeafSpaceSpec()
    for v in vertices:
        spec.add_vertex(v)
    for name in sorted(edge_rules):
        spec.add_edge(name, low=edge_rules[name][LOW], high=edge_rules[name][HIGH])
    return spec


def _symmetric_spec(rng, params):
    """One locus with k isomorphic wings and the cyclic rotation rho."""
    k = max(2, rng.randint(*params.locus_size))
    sign = POSITIVE if rng.random() < params.sign_mix else NEGATIVE
    wing_len = rng.randint(1, 2)
    spec = LeafSpaceSpec()
    members = [f"m{i}" for i in range(k)]
    for m in members:
        spec.add_vertex(m)
    limit = EndRule("limit", tuple((m, 0) for m in members))
    if sign == POSITIVE:
        spec.add_edge("s", low=open_end(), high=limit)
    else:
        spec.add_edge("s", low=limit, high=open_end())
    maps = {"s": ("s", 0)}
    for i in range(k):
        maps[members[i]] = (members[(i + 1) % k], 0)
        anchor = members[i]
        for j in range(wing_len):
            edge = f"w{i}_{j}"
            last = j == wing_len - 1
            if not last:
                joint = f"c{i}_{j}"
                spec.add_vertex(joint)
                maps[joint] = (f"c{(i + 1) % k}_{j}", 0)
            if sign == POSITIVE:
                spec.add_edge(edge, low=to_vertex(anchor),
                              high=open_end() if last else to_vertex(f"c{i}_{j}"))
            else:
                spec.add_edge(edge, low=open_end() if last else to_vertex(f"c{i}_{j}"),
                              high=to_vertex(anchor))
            maps[edge] = (f"w{(i + 1) % k}_{j}", 0)
            if not last:
                anchor = f"c{i}_{j}"
    spec.add_generator("rho", maps)
    return spec
