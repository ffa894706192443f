"""Words over generator actions and their effect on a model.

Each generator is an :class:`Element` (a per-family map composed with
integer index shifts, from :mod:`leafspace.core`), so a word's total
action is again one: the product of its letters.  Two words
act identically on the whole model exactly when their elements are equal,
so an element is its own exact key for deduplication and identity tests.

A membership sweep relates every canonical point of a window to its
image under one element.  Each window sweeps an element once: ``sweep``
keeps the relations on the window (``Truncation.sweeps``), keyed by the
element, and every full sweep -- ``classify_element``,
``comparable_sample`` and the suite's checkers -- reads them from there.
An automorphism preserves order, so a point relates to its image as the
image relates to its own: a sweep costs one ``compare`` per orbit of the
element in the window, plus a lookup per cell.  The window keeps each
cell's orbit beside the relations, for callers that can likewise answer
once per orbit (the suite's instance discovery counts one path length per
orbit).  An element that is no automorphism (a generator added with
``check=False``) is swept cell by cell, one ``compare`` per in-window
image, and each of its cells is an orbit of its own.

Window sweeps answer in Tri: a Yes always comes with a witness; a No is
certified only when the sweep closed without touching a truncated end,
otherwise the answer degrades to Truncated (recording whether a witness
was at least absent from the window).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import (
    Element,
    Tri,
    UndefinedGenerator,
    automorphism_problems,
    mid_point,
    require_routable,
    require_valid,
    vertex_point,
)
from .paths import COMPARABLE, Comparability, compare


@dataclass(frozen=True)
class Word:
    """A reduced word over the model's generators.

    ``letters`` is a sequence of (generator name, exponent) with exponent
    +1 or -1; construction cancels adjacent inverse pairs (free reduction
    only -- the acting group is treated as free on the generators)."""

    letters: tuple

    @staticmethod
    def of(letters):
        reduced = []
        for name, exp in letters:
            if exp not in (1, -1):
                raise ValueError("letter exponent must be +1 or -1")
            if reduced and reduced[-1] == (name, -exp):
                reduced.pop()
            else:
                reduced.append((name, exp))
        return Word(tuple(reduced))

    @staticmethod
    def identity():
        return Word(())

    @staticmethod
    def generator(name, power=1):
        exp = 1 if power > 0 else -1
        return Word.of([(name, exp)] * abs(power))

    @staticmethod
    def parse(text):
        """Parse e.g. "g", "g^3", "g^-1*h", "g g h^-2"."""
        letters = []
        for token in re.split(r"[\s*]+", text.strip()):
            if not token or token == "1":
                continue
            m = re.fullmatch(r"([A-Za-z_]\w*)(?:\^(-?\d+))?", token)
            if m is None:
                raise ValueError(f"cannot parse word token {token!r}")
            name, power = m.group(1), int(m.group(2) or 1)
            exp = 1 if power > 0 else -1
            letters.extend([(name, exp)] * abs(power))
        return Word.of(letters)

    @property
    def is_identity(self):
        return not self.letters

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other):
        return Word.of(self.letters + other.letters)

    def inverse(self):
        return Word(tuple((name, -exp) for name, exp in reversed(self.letters)))

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return Word.of(self.letters * k)

    def __str__(self):
        if not self.letters:
            return "1"
        parts = []
        for name, exp in self.letters:
            if parts and parts[-1][0] == name and (parts[-1][1] > 0) == (exp > 0):
                parts[-1][1] += exp
            else:
                parts.append([name, exp])
        return "*".join(n if e == 1 else f"{n}^{e}" for n, e in parts)


def _letter(spec, name, exp):
    """The element of one letter."""
    gen = spec.generators.get(name)
    if gen is None:
        raise UndefinedGenerator(f"generator {name!r} is not defined on this model")
    return gen if exp == 1 else gen.inverse()


def word_map(spec, word):
    """The element of a word; letters apply right to left."""
    total = Element({fam: (fam, 0) for fam in spec.families})
    for name, exp in word.letters:
        total = total * _letter(spec, name, exp)
    return total


def shortlex(word):
    """Sort key of the walk's order: shorter words first, then letter by
    letter with generators by name and each letter before its inverse."""
    return len(word), tuple((name, -exp) for name, exp in word.letters)


def element_ball(spec, radius):
    """Every group element within ``radius`` letters of the identity, by one
    breadth-first walk of the Cayley graph, as ``(ball, relators)``.

    ``ball`` maps each element to its shortlex-least word, in shortlex
    order (``shortlex``), so the identity comes first.  The walk composes
    an element with each letter that does not cancel its word's last
    letter, once.  A product the ball already names closes a non-tree
    edge: ``relators`` holds its word ``u*x*v^-1``, with u and v the named
    words of the two ends, which is reduced and acts as the identity.
    A negative radius raises ValueError."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    alphabet = [(n, e) for n in sorted(spec.generators) for e in (1, -1)]
    steps = {let: _letter(spec, *let) for let in alphabet}
    ball = {word_map(spec, Word.identity()): Word.identity()}
    relators = []
    frontier = list(ball.items())
    for _ in range(radius):
        grow = []
        for elem, word in frontier:
            for let in alphabet:
                if word.letters and word.letters[-1] == (let[0], -let[1]):
                    continue
                image = elem * steps[let]
                letters = word.letters + (let,)
                named = ball.get(image)
                if named is None:
                    ball[image] = Word(letters)
                    grow.append((image, ball[image]))
                else:
                    relators.append(Word(letters + named.inverse().letters))
        frontier = grow
    return ball, relators


def fingerprint(spec, word):
    return word_map(spec, word)


def is_identity_action(spec, word):
    return word_map(spec, word) == word_map(spec, Word.identity())


def act(spec, word, point):
    """Image of a point under a word."""
    return word_map(spec, word).point(point)


def act_locus(spec, word, members):
    return tuple(sorted(map(word_map(spec, word).cell, members)))


def canonical_points(trunc):
    """One representative point per window cell (``Truncation.canonical_points``),
    as a new list."""
    return list(trunc.canonical_points)


def _same_glued_chain_relation(spec, point, image):
    """Exact comparison when both points sit on one glued chain, which is
    a totally ordered ray; decides images that land beyond the window."""
    fam = point.cell[0]
    if image.cell[0] != fam:
        return None
    f = spec.families[fam]
    if f.kind != "edge" or f.glue is None:
        return None
    a, b = (point.cell[1], point.t), (image.cell[1], image.t)
    if a == b:
        return Comparability.EQUAL
    if a[0] == b[0]:
        return Comparability.LESS if a[1] < b[1] else Comparability.GREATER
    ascending = a[0] < b[0] if f.glue == 1 else a[0] > b[0]
    return Comparability.LESS if ascending else Comparability.GREATER


def image_relation(spec, trunc, point, image):
    """Comparability of a point with its image, or None when the window
    cannot decide it."""
    if trunc.contains_point(image):
        rel = compare(trunc, point, image)
        return None if rel is Comparability.TRUNCATED else rel
    return _same_glued_chain_relation(spec, point, image)


def sweep(trunc, elem):
    """Image relation of every canonical point of the window under one
    element, in canonical order (``image_relation``: None where the
    window cannot decide).  Computed once per window and element."""
    return _swept(trunc, elem)[0]


def _swept(trunc, elem):
    """(``sweep``, orbits) of an element on the window, kept on it.  The
    orbits give, per canonical position, the position naming the orbit
    whose one ``compare`` answered the cell.  A cell answered otherwise --
    its image beyond the window or in another component, or any cell under
    an element that is no automorphism -- names itself."""
    hit = trunc.sweeps.get(elem)
    if hit is None:
        hit = trunc.sweeps[elem] = _sweep_table(trunc, elem)
    return hit


def _sweep_table(trunc, elem):
    """``_swept`` computed afresh.  Along an orbit of an automorphism w the
    relation of p with w.p is that of w.p with w^2.p, so one ``compare``
    answers every cell of the orbit whose image lies in the window, in the
    same component (``compare`` is Truncated exactly across components).
    An image beyond the window gets ``_same_glued_chain_relation``."""
    spec, points = trunc.spec, trunc.canonical_points
    if automorphism_problems(spec, elem):       # no orbit rule: cell by cell
        return (tuple(image_relation(spec, trunc, p, elem.point(p)) for p in points),
                tuple(range(len(points))))
    cells, position, component = trunc.sweep_cells
    maps = elem.maps
    images = []
    for fam, i in cells:
        img, shift = maps[fam]
        images.append(position.get((img, i + shift)))
    if any(j is not None for j in images):      # where a per-cell compare would check
        require_routable(trunc)
    orbit = list(range(len(cells)))     # union-find over the in-window pairs

    def find(k):
        while orbit[k] != k:
            orbit[k] = orbit[orbit[k]]
            k = orbit[k]
        return k

    for k, j in enumerate(images):
        if j is not None:
            orbit[find(k)] = find(j)
    relation = {}       # orbit root -> the relation of its connected pairs
    rels, roots = [], list(range(len(cells)))
    for k, j in enumerate(images):
        if j is None:
            rels.append(_same_glued_chain_relation(spec, points[k], elem.point(points[k])))
        elif component[k] != component[j]:
            rels.append(None)
        else:
            root = roots[k] = find(k)
            if root not in relation:
                rel = compare(trunc, points[k], points[j])
                relation[root] = None if rel is Comparability.TRUNCATED else rel
            rels.append(relation[root])
    return tuple(rels), tuple(roots)


def _membership(rel):
    if rel is None:
        return Tri.TRUNCATED
    return Tri.YES if rel in COMPARABLE else Tri.NO


def _member(trunc, elem, point):
    """Membership of a window point, for an element composed by the caller."""
    return _membership(image_relation(trunc.spec, trunc, point, elem.point(point)))


def in_comparable_set(spec, word, point, depth):
    """Whether the point is comparable with its image, on the given window."""
    trunc = spec.window(depth)
    trunc.require_point(point)
    return _member(trunc, word_map(spec, word), point)


@dataclass(frozen=True)
class ComparableSample:
    """A recorded membership sweep for one word at one depth."""

    word: Word
    depth: int
    answers: tuple        # ((Point, Tri), ...) in canonical order

    @property
    def touched_truncation(self):
        return any(a is Tri.TRUNCATED for _, a in self.answers)


def comparable_sample(spec, word, depth):
    trunc = spec.window(depth)
    answers = tuple((p, _membership(rel)) for p, rel in
                    zip(trunc.canonical_points, sweep(trunc, word_map(spec, word))))
    return ComparableSample(word, depth, answers)


def fixed_cells(spec, word, depth):
    """Window cells the word maps to themselves.  Under shift-only
    actions a fixed edge cell is fixed pointwise, so fixed cells and
    fixed points coincide."""
    return _fixed_cells(spec.window(depth), word_map(spec, word))


def _fixed_cells(trunc, elem):
    fixed_families = {fam for fam, (img, shift) in elem.maps.items() if img == fam and shift == 0}
    return sorted(c for c in trunc.vertex_cells + trunc.edge_cells
                  if c[0] in fixed_families)


@dataclass(frozen=True)
class ProfileEntry:
    """One classification answer: Yes with a witness, a certified No (the
    sweep closed), or Truncated (no witness in the window, not certified)."""

    value: Tri
    witness: Point | None

    def __str__(self):
        if self.value is Tri.YES:
            return f"yes ({self.witness})"
        return "no" if self.value is Tri.NO else "no within window (truncated)"


@dataclass(frozen=True)
class ElementProfile:
    word: Word
    depth: int
    tangentiable: ProfileEntry
    pos_transversable: ProfileEntry
    neg_transversable: ProfileEntry

    @property
    def neither_in_window(self):
        return all(e.value is not Tri.YES for e in
                   (self.tangentiable, self.pos_transversable, self.neg_transversable))


def _entry(witness, tainted):
    if witness is not None:
        return ProfileEntry(Tri.YES, witness)
    return ProfileEntry(Tri.TRUNCATED if tainted else Tri.NO, None)


def classify_element(spec, word, depth):
    """Fixed-point, upward and downward witnesses for a word.

    A No is certified only when the exhaustive sweep over window cells
    closed without any truncated answer; otherwise the entry degrades to
    Truncated.
    """
    trunc = spec.window(depth)
    require_valid(trunc)
    return _classify(trunc, word, word_map(spec, word))


def _classify(trunc, word, elem):
    """``classify_element`` on a valid window, for an element composed by the caller."""
    fixed = _fixed_cells(trunc, elem)
    tan_witness = None
    for cell in fixed:
        tan_witness = (vertex_point(*cell) if trunc.has_vertex(cell) else mid_point(*cell))
        break
    pos_witness = neg_witness = None
    tainted = trunc.has_truncation
    for p, rel in zip(trunc.canonical_points, sweep(trunc, elem)):
        if rel is None:
            tainted = True
        elif rel is Comparability.LESS and pos_witness is None:
            pos_witness = p
        elif rel is Comparability.GREATER and neg_witness is None:
            neg_witness = p
    return ElementProfile(
        word, trunc.depth,
        tangentiable=_entry(tan_witness, tainted),
        pos_transversable=_entry(pos_witness, tainted),
        neg_transversable=_entry(neg_witness, tainted),
    )


@dataclass(frozen=True)
class BranchingType:
    value: str                 # "none" | "one_sided_positive" | "one_sided_negative" | "two_sided"
    truncated_caveat: bool     # deeper windows could reveal more loci

    def __str__(self):
        return self.value + ("*" if self.truncated_caveat else "")


def branching_type(spec, depth):
    trunc = spec.window(depth)
    require_valid(trunc)
    signs = {locus.sign for locus in trunc.loci}
    if not signs:
        value = "none"
    elif signs == {"positive"}:
        value = "one_sided_positive"
    elif signs == {"negative"}:
        value = "one_sided_negative"
    else:
        value = "two_sided"
    return BranchingType(value, trunc.has_truncation)
