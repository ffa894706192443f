"""Executable consistency checks for models with group actions.

Each checker returns a :class:`CheckReport` with verdict pass /
violation / truncated, or raises :class:`PreconditionFailed` when its
hypothesis does not hold for the given arguments.  A witness names the
words and points a verdict rests on, as the strings ``CheckReport.make``
renders; nothing replays them.

Every checker and instance discovery read whether a point is comparable
with its image from the window's kept sweep (``action._relation``).

The checkers named in :data:`SCREENS` (fix propagation, faithfulness,
the infinite-locus screen) test necessary conditions for a model to arise
from a leafwise hyperbolic taut foliation: a Violation there means the
model is not realizable by such a foliation, not that a theorem failed.

This module is the one registry of checkers: :data:`CHECKERS` names each
checker's arguments, and :func:`discover_instances` picks the instances
``leafspace suite`` runs, each meeting its checker's hypothesis.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    PointOutOfRange,
    PreconditionFailed,
    Tri,
    TruncatedError,
    branch_loci,
    require_valid,
)
from .paths import (
    COMPARABLE,
    Comparability,
    _above,
    compare,
    path,
    sample_points,
)
from .action import (
    Word,
    _classify,
    _membership,
    _relation,
    _swept,
    branching_type,
    comparable_sample,
    element_ball,
    shortlex,
    sweep,
    word_map,
)

PASS, VIOLATION, TRUNCATED = "pass", "violation", "truncated"

SCREEN_DISCLAIMER = (
    "realizability screen: a Violation means this model cannot be the leaf "
    "space of a leafwise hyperbolic taut foliation, not that a theorem failed")


class CheckReport(NamedTuple):
    name: str
    verdict: str
    witness: tuple = ()         # sorted (key, value-str) pairs
    depth: int = 0
    word_bound: int | None = None
    screen: bool = False
    notes: tuple = ()

    @staticmethod
    def make(name, verdict, witness=None, depth=0, word_bound=None, notes=()):
        items = tuple(sorted((k, str(v)) for k, v in (witness or {}).items()))
        return CheckReport(name, verdict, items, depth, word_bound, name in SCREENS,
                           tuple(notes))

    def to_dict(self):
        return {
            "check": self.name,
            "verdict": self.verdict,
            "witness": dict(self.witness),
            "depth": self.depth,
            "word_bound": self.word_bound,
            "screen": self.screen,
            "notes": list(self.notes),
        }


def check_lower_bound(spec, word, lam, mu, depth):
    """On a one-sided-positively-branching model, a common lower bound of
    a point and its image is itself comparable with its own image."""
    bt = branching_type(spec, depth)
    if bt.value != "one_sided_positive":
        raise PreconditionFailed(f"needs one_sided_positive branching, model is {bt.value}")
    trunc = spec.window(depth)
    elem = word_map(spec, word)
    trunc.require_point(lam)
    if mu.cell[0] not in spec.families:
        raise PointOutOfRange(f"{mu} lies in no family of the model")
    for b, label in ((mu, "lam < mu"), (elem.point(mu), "lam < w(mu)")):
        if not trunc.contains_point(b):
            return CheckReport.make("check_lower_bound", TRUNCATED, depth=depth,
                                    notes=("bound leaves the window",))
        rel = compare(trunc, lam, b)     # a valid window is connected: never TRUNCATED
        if rel is not Comparability.LESS:
            raise PreconditionFailed(f"{label} fails: {rel.value}")
    member = _membership(_relation(trunc, elem, lam))
    if member is Tri.YES:
        return CheckReport.make("check_lower_bound", PASS, depth=depth,
                                witness={"word": word, "lam": lam})
    if member is Tri.TRUNCATED:
        return CheckReport.make("check_lower_bound", TRUNCATED, depth=depth)
    return CheckReport.make("check_lower_bound", VIOLATION, depth=depth,
                            witness={"word": word, "lam": lam, "membership": "no"})


def check_path_in_comparable_set(spec, word, lam, mu, depth):
    """The connection between two points comparable with their images
    stays inside the comparable set, and its junction points are fixed."""
    name = "check_path_in_comparable_set"
    trunc = spec.window(depth)
    trunc.require_point(lam)
    elem = word_map(spec, word)
    for pt, label in ((lam, "lam"), (mu, "mu")):
        trunc.require_point(pt)
        member = _membership(_relation(trunc, elem, pt))
        if member is Tri.NO:
            raise PreconditionFailed(f"{label} is not comparable with its image")
        if member is Tri.TRUNCATED:
            return CheckReport.make(name, TRUNCATED, depth=depth,
                                    notes=(f"{label} membership undecided",))
    try:
        gamma = path(trunc, lam, mu)
    except TruncatedError:
        return CheckReport.make(name, TRUNCATED, depth=depth,
                                notes=("path leaves the window",))
    truncated = False
    for j, junction in enumerate(gamma.junctions, start=1):
        for pt, role in ((junction.arrive, "arrive"), (junction.depart, "depart")):
            if (image := elem.point(pt)) != pt:
                return CheckReport.make(name, VIOLATION, depth=depth, witness={
                    "word": word, "junction": j, "point": pt, role: image})
    for pt in sample_points(gamma):
        member = _membership(_relation(trunc, elem, pt))
        if member is Tri.NO:
            return CheckReport.make(name, VIOLATION, depth=depth,
                                    witness={"word": word, "point": pt})
        truncated = truncated or member is Tri.TRUNCATED
    if truncated:
        return CheckReport.make(name, TRUNCATED, depth=depth)
    return CheckReport.make(name, PASS, depth=depth,
                            witness={"word": word, "path_length": gamma.length})


def check_connected_open(spec, word, depth):
    """The comparable set of a word, sampled on window cells, induces a
    connected subgraph and is open at the sampled resolution."""
    name = "check_connected_open"
    trunc = spec.window(depth)
    require_valid(trunc)
    sweep = comparable_sample(spec, word, depth)
    status = {p.cell: a for p, a in sweep.answers}
    yes_cells = sorted(c for c, a in status.items() if a is Tri.YES)
    if not yes_cells:
        note = "comparable set empty in window" if not sweep.touched_truncation \
            else "comparable set empty in window (sweep truncated)"
        return CheckReport.make(name, PASS, depth=depth,
                                witness={"word": word}, notes=(note,))

    def components(cells):
        cells = set(cells)
        comps = []
        while cells:
            seed = min(cells)
            comp, stack = {seed}, [seed]
            while stack:
                for nbr in trunc.cell_neighbors(stack.pop()):
                    if nbr in cells and nbr not in comp:
                        comp.add(nbr)
                        stack.append(nbr)
            comps.append(comp)
            cells -= comp
        return comps

    comps = components(yes_cells)
    if len(comps) > 1:
        widened = components([c for c, a in status.items()
                              if a in (Tri.YES, Tri.TRUNCATED)])
        if len(widened) < len(comps):
            return CheckReport.make(name, TRUNCATED, depth=depth, witness={"word": word},
                                    notes=("components join only through undecided cells",))
        return CheckReport.make(name, VIOLATION, depth=depth, witness={
            "word": word, "components": len(comps),
            "cells": " | ".join(str(sorted(c)[0]) for c in comps)})

    for cell in yes_cells:
        if not trunc.has_vertex(cell):
            continue        # an edge cell's interior is open by itself
        for nbrs, cut in trunc.vertex_sides(cell):
            if cut:
                continue
            if any(status.get(n) in (Tri.YES, Tri.TRUNCATED) for n in nbrs):
                continue
            return CheckReport.make(name, VIOLATION, depth=depth, witness={
                "word": word, "cell": f"{cell[0]}[{cell[1]}]",
                "reason": "closed side at a sampled vertex"})
    notes = ("sweep touched truncated ends",) if sweep.touched_truncation else ()
    return CheckReport.make(name, PASS, depth=depth, notes=notes,
                            witness={"word": word, "yes_cells": len(yes_cells)})


def check_odd_path(spec, word, lam, k_max, depth):
    """A point whose connection to its image has odd length forces every
    power of the word to have an empty comparable set."""
    name = "check_odd_path"
    if k_max < 1:
        raise PreconditionFailed("k_max must be at least 1")
    if k_max > K_MAX_LIMIT:
        raise ValueError(f"k_max must be at most {K_MAX_LIMIT}, got {k_max}")
    trunc = spec.window(depth)
    trunc.require_point(lam)
    elem = word_map(spec, word)
    member = _membership(_relation(trunc, elem, lam))
    if member is Tri.YES:
        raise PreconditionFailed("lam is comparable with its image")
    if member is Tri.TRUNCATED:
        return CheckReport.make(name, TRUNCATED, depth=depth,
                                notes=("membership of lam undecided",))
    length = path(trunc, lam, elem.point(lam)).length
    if length % 2 == 0:
        raise PreconditionFailed(f"path length {length} is even")
    for k in range(1, k_max + 1):
        for x, rel in zip(trunc.canonical_points, sweep(trunc, elem ** k)):
            if rel in COMPARABLE:
                return CheckReport.make(name, VIOLATION, depth=depth, witness={
                    "word": word, "k": k, "point": x})
    return CheckReport.make(name, PASS, depth=depth, witness={
        "word": word, "path_length": length, "k_max": k_max})


def check_return(spec, word, lam, k, depth):
    """For lam incomparable with its image but comparable with its k-th
    image, the middle junction of the connection returns: the word sends
    its arrival point to its departure point, and the k-th power fixes
    the arrival point."""
    name = "check_return"
    if k <= 1:
        raise PreconditionFailed("k must exceed 1")
    trunc = spec.window(depth)
    trunc.require_point(lam)
    elem = word_map(spec, word)
    member = _membership(_relation(trunc, elem, lam))
    if member is Tri.YES:
        raise PreconditionFailed("lam is comparable with its image")
    if member is Tri.TRUNCATED:
        return CheckReport.make(name, TRUNCATED, depth=depth)
    power = elem ** k
    member_k = _membership(_relation(trunc, power, lam))
    if member_k is Tri.NO:
        raise PreconditionFailed(f"lam is not comparable with its image under the {k}-th power")
    if member_k is Tri.TRUNCATED:
        return CheckReport.make(name, TRUNCATED, depth=depth)
    gamma = path(trunc, lam, elem.point(lam))   # routed when lam's membership came out NO
    if gamma.length % 2 == 1:
        raise PreconditionFailed(
            f"path length {gamma.length} is odd, contradicting comparability of the power")
    m = gamma.length // 2
    junction = gamma.junctions[m - 1]
    arrive, depart = junction.arrive, junction.depart
    image = elem.point(arrive)
    if image != depart:
        return CheckReport.make(name, VIOLATION, depth=depth, witness={
            "word": word, "m": m, "arrive": arrive, "image": image, "expected": depart})
    image = power.point(arrive)
    if image != arrive:
        return CheckReport.make(name, VIOLATION, depth=depth, witness={
            "word": word, "k": k, "m": m, "arrive": arrive, "image": image})
    return CheckReport.make(name, PASS, depth=depth, witness={
        "word": word, "k": k, "m": m, "arrive": arrive, "depart": depart})


def _stem_cells_outward(trunc, locus):
    """Stem cells ordered from the locus outward; None when the stem does
    not meet the window."""
    kind = locus.stem[0]
    if kind == "cell_end":
        cell = locus.stem[1:3]
        return [cell] if trunc.has_edge(cell) else None
    fam, side = locus.stem[1], locus.stem[2]
    indices = range(-trunc.depth, trunc.depth + 1)
    ordered = list(indices) if side == "neg" else list(reversed(indices))
    return [(fam, i) for i in ordered]


def check_invariant_locus_stem(spec, word, locus, depth):
    """A word fixing a locus setwise keeps a whole stem suffix (the
    stem cells nearest the locus) inside its comparable set, read from
    the window's sweep of the word."""
    name = "check_invariant_locus_stem"
    elem = word_map(spec, word)
    if tuple(sorted(map(elem.cell, locus.members))) != locus.members:
        raise PreconditionFailed("word does not fix the locus setwise")
    trunc = spec.window(depth)
    cells = _stem_cells_outward(trunc, locus)
    if not cells:
        return CheckReport.make(name, TRUNCATED, depth=depth,
                                notes=("stem does not meet the window",))
    run, rels, position = 0, sweep(trunc, elem), trunc.position
    for cell in cells:          # an edge cell: its canonical point is the midpoint
        member = _membership(rels[position[cell]])
        if member is Tri.YES:
            run += 1
        elif member is Tri.TRUNCATED and run == 0:
            return CheckReport.make(name, TRUNCATED, depth=depth)
        else:
            break
    if run == 0:
        return CheckReport.make(name, VIOLATION, depth=depth, witness={
            "word": word, "stem_cell": f"{cells[0][0]}[{cells[0][1]}]"})
    return CheckReport.make(name, PASS, depth=depth, witness={
        "word": word, "suffix_cells": run})


class StabilizerBall(NamedTuple):
    """The group elements within a radius that fix a locus setwise, each
    named by its shortlex-least word.  The cyclic certificate compares
    element sets: some member's powers must be exactly the nontrivial
    members."""

    locus: tuple                # member cells
    radius: int
    members: tuple              # Words, one per element, in shortlex order
    action_table: tuple         # (word, image member tuple) pairs
    cyclic_at_radius: bool
    cyclic_generator: Word | None
    acts_nontrivially: bool


def _fixing(spec, locus, radius, depth):
    """Element -> (word, member images) for each element of the ball that
    fixes the locus setwise, in shortlex order of the words."""
    members = locus.members
    require_valid(spec.window(depth))
    fixing = {}
    for elem, word in element_ball(spec, radius)[0].items():
        images = tuple(map(elem.cell, members))
        if tuple(sorted(images)) == members:
            fixing[elem] = word, images
    return fixing


def stabilizer_ball(spec, locus, radius, depth):
    members = locus.members
    fixing = _fixing(spec, locus, radius, depth)
    table = tuple(fixing.values())
    nontrivial = any(images != members for _, images in table)

    # Walk each direction until a power leaves the nontrivial members,
    # reaches the identity (which comes first) or repeats.  c and c^-1
    # walk the same powers, so a candidate whose inverse failed is skipped.
    candidates = list(fixing)[1:]
    have = set(candidates)
    cyclic, generator, failed = not have, None, set()
    for cand in candidates:
        if cand in failed:
            continue
        powers, inverse = set(), cand.inverse()
        for base in (cand, inverse):
            power = base
            while power in have and power not in powers:
                powers.add(power)
                power = power * base
        if powers == have:
            cyclic, generator = True, fixing[cand][0]
            break
        failed.add(inverse)
    return StabilizerBall(members, radius, tuple(w for w, _ in table), table, cyclic,
                          generator, nontrivial)


def check_fix_propagation(spec, locus, radius, depth):
    """Any stabilizer element fixing one member of a finite locus must fix
    them all; a partial fix flags the model as non-realizable."""
    name = "check_fix_propagation"
    members = locus.members
    fixing = _fixing(spec, locus, radius, depth)
    for word, images in fixing.values():
        fixed = tuple(m for m, img in zip(members, images) if m == img)
        if fixed and len(fixed) < len(members):
            return CheckReport.make(name, VIOLATION, depth=depth, word_bound=radius, witness={
                "word": word,
                "fixes": ",".join(f"{f}[{i}]" for f, i in fixed),
                "locus_size": len(members)})
    return CheckReport.make(name, PASS, depth=depth, word_bound=radius,
                            witness={"ball_size": len(fixing)})


def _relator(closing):
    """The word u*x*v^-1 of a closing edge (u, x, v) of ``element_ball``."""
    u, letter, v = closing
    return Word(u.letters + (letter,) + v.inverse().letters)


def check_faithfulness(spec, max_word_len, depth):
    """On a branching model, no nontrivial word may act as the identity.
    Such a word of length <= r is a Cayley graph cycle that short; the
    graph is vertex-transitive, so a walk to radius ceil(r/2) meets a
    shortest cycle as a non-tree edge, whose relator is that short."""
    name = "check_faithfulness"
    if max_word_len < 0:
        raise ValueError(f"max_word_len must be non-negative, got {max_word_len}")
    bt = branching_type(spec, depth)
    if bt.value == "none":
        raise PreconditionFailed(
            "model shows no branching in the window; a fibration-like model "
            "may act unfaithfully, so the check does not apply")
    relators = map(_relator, element_ball(spec, (max_word_len + 1) // 2)[1])
    short = [w for r in relators if len(r) <= max_word_len for w in (r, r.inverse())]
    if short:
        return CheckReport.make(name, VIOLATION, depth=depth, word_bound=max_word_len,
                                witness={"word": min(short, key=shortlex)})
    return CheckReport.make(name, PASS, depth=depth, word_bound=max_word_len)


def check_intermediate_fixed(spec, word, x_pos, x_neg, depth):
    """A word moving one point up and another down fixes a point between
    them; for an incomparable pair the fixed witness sits in a locus."""
    name = "check_intermediate_fixed"
    trunc = spec.window(depth)
    trunc.require_point(x_pos)      # an out-of-window point is reported before an unknown generator
    elem = word_map(spec, word)
    for pt, want, label in ((x_pos, Comparability.LESS, "x_pos"),
                            (x_neg, Comparability.GREATER, "x_neg")):
        trunc.require_point(pt)
        rel = _relation(trunc, elem, pt)
        if rel is None:
            return CheckReport.make(name, TRUNCATED, depth=depth)
        if rel is not want:
            raise PreconditionFailed(f"{label}: expected {want.value}, got {rel.value}")
    try:
        gamma = path(trunc, x_pos, x_neg)
    except TruncatedError:
        return CheckReport.make(name, TRUNCATED, depth=depth)
    witness = None
    for pt in sample_points(gamma):
        if elem.point(pt) == pt:
            witness = pt
            break
    if witness is None:
        if trunc.has_truncation:
            return CheckReport.make(name, TRUNCATED, depth=depth,
                                    notes=("no fixed point sampled in window",))
        return CheckReport.make(name, VIOLATION, depth=depth,
                                witness={"word": word, "path_length": gamma.length})
    incomparable = bool(gamma.junctions)
    in_locus = witness.is_vertex and trunc.vertex_node(witness.cell)[0] == "locus"
    if incomparable and not in_locus:
        return CheckReport.make(name, VIOLATION, depth=depth, witness={
            "word": word, "witness": witness,
            "reason": "incomparable endpoints but witness not in a locus"})
    return CheckReport.make(name, PASS, depth=depth, witness={
        "word": word, "witness": witness,
        "in_locus": "yes" if in_locus else "no"})


def screen_infinite_locus(spec, max_word_len, depth):
    """Consistency screen for models whose declared loci are all finite:
    every tangentiable word must also be transversable (else its loop is
    non-transversable and the model would need an infinite locus).  Also
    reports neither-candidates against the two-sided-branching remark."""
    name = "screen_infinite_locus"
    trunc = spec.window(depth)
    require_valid(trunc)
    bt = branching_type(spec, depth)
    neither = []
    tainted = False
    for elem, word in element_ball(spec, max_word_len)[0].items():
        if word.is_identity:
            continue
        profile = _classify(trunc, word, elem)
        tangent = profile.tangentiable.value is Tri.YES
        transversable = (profile.pos_transversable.value is Tri.YES
                         or profile.neg_transversable.value is Tri.YES)
        if tangent and not transversable:
            if trunc.has_truncation:
                tainted = True
            else:
                return CheckReport.make(name, VIOLATION, depth=depth, word_bound=max_word_len,
                                        witness={"word": word,
                                                 "reason": "tangentiable, never transversable"})
        if profile.neither_in_window:
            neither.append(word)
    notes = []
    if neither:
        notes.append("neither-candidates in window: "
                     + ", ".join(str(w) for w in neither[:4]))
        notes.append(f"branching_type={bt.value}: "
                     + ("consistent with the two-sided remark" if bt.value == "two_sided"
                        else "candidates not certified; one-sided window"))
    if tainted:
        return CheckReport.make(name, TRUNCATED, depth=depth, word_bound=max_word_len,
                                notes=tuple(notes))
    return CheckReport.make(name, PASS, depth=depth, word_bound=max_word_len,
                            notes=tuple(notes))


# ---------------------------------------------------------------------------
# registry


# Checker name -> {keyword argument: the ``leafspace check`` option that
# supplies it}, besides ``spec`` and ``depth``; the suite runs them in
# this order.  ``check_invariant_locus_stem`` resolves its locus first,
# so a window without loci skips it before its word is read.
CHECKERS = {
    "check_lower_bound": {"word": "--word", "lam": "--from", "mu": "--to"},
    "check_path_in_comparable_set": {"word": "--word", "lam": "--from", "mu": "--to"},
    "check_connected_open": {"word": "--word"},
    "check_odd_path": {"word": "--word", "lam": "--point", "k_max": "--k-max"},
    "check_return": {"word": "--word", "lam": "--point", "k": "--k"},
    "check_invariant_locus_stem": {"locus": "--locus", "word": "--word"},
    "check_fix_propagation": {"locus": "--locus", "radius": "--word-len"},
    "check_faithfulness": {"max_word_len": "--word-len"},
    "check_intermediate_fixed": {"word": "--word", "x_pos": "--pos", "x_neg": "--neg"},
    "screen_infinite_locus": {"max_word_len": "--word-len"},
}

# Realizability screens: their reports carry ``screen`` and the
# SCREEN_DISCLAIMER applies to them.
SCREENS = frozenset({"check_fix_propagation", "check_faithfulness", "screen_infinite_locus"})


def run_checker(spec, name, depth, **kwargs):
    """Run the registered checker ``name``; a hypothesis that does not
    hold comes back as a precondition-failed report.  The function is
    looked up in this module when called, so a wrapper installed over it
    sees the call."""
    try:
        return globals()[name](spec, depth=depth, **kwargs)
    except PreconditionFailed as exc:
        return CheckReport.make(name, "precondition-failed", depth=depth, notes=(str(exc),))


def _basic_words(spec):
    words = []
    for name in sorted(spec.generators):
        g = Word.generator(name)
        words.extend([g, g * g])
    return words


PAIR_SEARCH_LIMIT = 400        # ordered point pairs tried per word
K_MAX_LIMIT = 1024             # powers check_odd_path sweeps at most (each sweep is kept)


def _find_comparable_pair(trunc, elem, cones):
    """First (lam, mu) with lam < mu and lam < w(mu), both certified: mu
    and w(mu) lie in lam's up-cone (``paths._above``), kept in ``cones``
    (position -> up-cone)."""
    pts = trunc.canonical_points
    tried = 0
    for i, lam in enumerate(pts):
        above = cones.get(i)
        if above is None:
            above = cones[i] = _above(trunc, lam)
        for k, mu in enumerate(pts):
            if k == i:
                continue
            tried += 1
            if tried > PAIR_SEARCH_LIMIT:
                return None
            if mu.cell in above:
                w_mu = elem.point(mu)
                if trunc.contains_point(w_mu) and w_mu.cell in above:
                    return lam, mu
    return None


def discover_instances(spec, depth, word_len):
    """Deterministic suite instances: checker name -> list of kwargs.
    Each basic word's image relations and classes come from the window's
    sweep, and every pick is the first in canonical order.  The parity of
    a point's connection to its image comes from a path lifted once per
    class (``path(...).length``): w carries the connection of p to w.p
    onto that of w.p to w^2.p, and each commuting automorphism c onto that
    of c.p to w.c.p.  The ``check_lower_bound`` pair search reads each
    point's up-cone (``paths._above``), walked once and shared across the
    words."""
    trunc = spec.window(depth)
    points = trunc.canonical_points
    loci = branch_loci(trunc)[:4]
    one_sided_positive = branching_type(spec, depth).value == "one_sided_positive"
    instances = {name: [] for name in CHECKERS}
    cones = {}

    for word in _basic_words(spec):
        instances["check_connected_open"].append({"word": word})
        elem = word_map(spec, word)

        pair = _find_comparable_pair(trunc, elem, cones) if one_sided_positive else None
        if pair is not None:
            instances["check_lower_bound"].append(
                {"word": word, "lam": pair[0], "mu": pair[1]})

        sweep_rels, orbits = _swept(trunc, elem)
        rels = list(zip(points, sweep_rels))

        yes_points = [p for p, rel in rels if rel in COMPARABLE][:3]
        for i, lam in enumerate(yes_points):
            for mu in yes_points[i + 1:]:
                instances["check_path_in_comparable_set"].append(
                    {"word": word, "lam": lam, "mu": mu})

        odd_lam = even_lam = None
        parity = {}         # class -> parity of the length
        for (p, rel), orbit in zip(rels, orbits):
            if rel is not Comparability.INCOMPARABLE:
                continue
            if orbit not in parity:
                parity[orbit] = path(trunc, p, elem.point(p)).length % 2
            if parity[orbit] == 1 and odd_lam is None:
                odd_lam = p
            if parity[orbit] == 0 and even_lam is None:
                even_lam = p
            if odd_lam is not None and even_lam is not None:
                break
        if odd_lam is not None:
            instances["check_odd_path"].append(
                {"word": word, "lam": odd_lam, "k_max": min(4, word_len)})
        if even_lam is not None:
            for k in range(2, max(3, word_len // 2) + 1):
                if _relation(trunc, elem ** k, even_lam) in COMPARABLE:
                    instances["check_return"].append(
                        {"word": word, "lam": even_lam, "k": k})
                    break

        pos = next((p for p, rel in rels if rel is Comparability.LESS), None)
        neg = next((p for p, rel in rels if rel is Comparability.GREATER), None)
        if pos is not None and neg is not None:
            instances["check_intermediate_fixed"].append(
                {"word": word, "x_pos": pos, "x_neg": neg})

        for locus in loci:
            if tuple(sorted(map(elem.cell, locus.members))) == locus.members:
                instances["check_invariant_locus_stem"].append(
                    {"word": word, "locus": locus})

    for locus in loci:
        instances["check_fix_propagation"].append({"locus": locus, "radius": word_len})
    instances["check_faithfulness"].append({"max_word_len": word_len})
    instances["screen_infinite_locus"].append({"max_word_len": word_len})
    return instances
