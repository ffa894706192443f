"""Words over generator actions and their effect on a model.

Each generator is an :class:`Element` (a per-family map composed with
integer index shifts, from :mod:`leafspace.core`), so a word's total
action is again one: the product of its letters.  Two words
act identically on the whole model exactly when their elements are equal,
so an element is its own exact key for deduplication and identity tests.

A membership sweep relates every canonical point of a window to its
image under one element.  Each window sweeps an element once: ``sweep``
keeps the relations on the window (``Truncation.sweeps``), keyed by the
element, and every membership question reads them from there, for all
points (``classify_element``, ``comparable_sample``) or one (``_relation``).
An automorphism w preserves order, so p relates to w.p as c.p relates to
w.c.p for each automorphism c that commutes with w.  A sweep of w costs
one ``compare`` per class of cells that the automorphism generators
commuting with w join in the window (w alone joins them when none
commutes), and slice operations per family for the rest.  The window
keeps one class table per tuple of joining moves (``Truncation.classes``),
so g, g^2, ... share the table of g's commuting set, and each sweep keeps
its cells' classes beside the relations, for callers that can likewise
answer once per class (instance discovery lifts one path per class).  An
element that is no automorphism (a generator added with ``check=False``)
joins no cells: each is a class of its own, one ``compare`` per in-window
image in its own component.

Window sweeps answer in Tri: a Yes always comes with a witness; a No is
certified only when the sweep closed without touching a truncated end,
otherwise the answer degrades to Truncated (recording whether a witness
was at least absent from the window).
"""

from __future__ import annotations

import re
from itertools import cycle, islice
from typing import NamedTuple

from .core import (
    Element,
    Tri,
    UndefinedGenerator,
    automorphism_problems,
    require_routable,
    require_valid,
)
from .paths import COMPARABLE, Comparability, compare


WORD_LETTER_LIMIT = 4096       # letters a word's parse or power builds at most


def _require_letters(count):
    if count > WORD_LETTER_LIMIT:
        raise ValueError(f"word of {count} letters exceeds the limit of {WORD_LETTER_LIMIT}")


class Word(NamedTuple):
    """A reduced word over the model's generators.

    ``letters`` is a sequence of (generator name, exponent) with exponent
    +1 or -1; construction cancels adjacent inverse pairs (free reduction
    only -- the acting group is treated as free on the generators).
    ``len`` counts letters, so ``_make`` and ``_replace`` do not apply."""

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
        return Word(((name, 1),)) ** power

    @staticmethod
    def parse(text):
        """Parse e.g. "g", "g^3", "g^-1*h", "g g h^-2".  A word of more than
        ``WORD_LETTER_LIMIT`` letters as written raises ValueError before
        any letter is built."""
        powers = []
        for token in re.split(r"[\s*]+", text.strip()):
            if not token or token == "1":
                continue
            m = re.fullmatch(r"([A-Za-z_]\w*)(?:\^(-?\d+))?", token)
            if m is None:
                raise ValueError(f"cannot parse word token {token!r}")
            powers.append((m.group(1), int(m.group(2) or 1)))
        _require_letters(sum(abs(power) for _, power in powers))
        return Word.of([(name, 1 if power > 0 else -1)
                        for name, power in powers for _ in range(abs(power))])

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
        """The k-th power; a power of more than ``WORD_LETTER_LIMIT``
        letters before reduction raises ValueError before any is built."""
        if k < 0:
            return self.inverse() ** (-k)
        _require_letters(len(self.letters) * k)
        return Word.of(self.letters * k) if self.letters else self

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
    breadth-first walk of the Cayley graph, as ``(ball, closings)``.

    ``ball`` maps each element to its shortlex-least word, in shortlex
    order (``shortlex``), so the identity comes first.  The walk composes
    an element with each letter that does not cancel its word's last
    letter, once.  A product the ball already names closes a non-tree
    edge: ``closings`` holds it as (u, x, v), the named words u and v of
    its two ends and the letter x; u*x*v^-1 is reduced and acts as the
    identity (``checkers.check_faithfulness`` builds it).  A negative
    radius, or one above ``WORD_LETTER_LIMIT``, raises ValueError before
    any element is built."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    _require_letters(radius)
    alphabet = [(n, e) for n in sorted(spec.generators) for e in (1, -1)]
    steps = {let: _letter(spec, *let) for let in alphabet}
    ball = {word_map(spec, Word.identity()): Word.identity()}
    closings = []
    frontier = list(ball.items())
    for _ in range(radius):
        grow = []
        for elem, word in frontier:
            for let in alphabet:
                if word.letters and word.letters[-1] == (let[0], -let[1]):
                    continue
                image = elem * steps[let]
                named = ball.get(image)
                if named is None:
                    ball[image] = named = Word(word.letters + (let,))
                    grow.append((image, named))
                else:
                    closings.append((word, let, named))
        frontier = grow
    return ball, closings


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
    ascending = a[0] < b[0] if f.glue == 1 else a[0] > b[0]
    return Comparability.LESS if ascending else Comparability.GREATER


def sweep(trunc, elem):
    """Image relation of every canonical point of the window under one
    element, in canonical order: its ``compare`` with its image, or the
    order of a glued chain holding both for an image beyond the window;
    None where the window cannot decide.  Computed once per window and
    element."""
    return _swept(trunc, elem)[0]


def _swept(trunc, elem):
    """(``sweep``, orbits) of an element on the window, kept on it.  The
    orbits give, per canonical position, a position naming the cell's
    class: the cells whose in-component pairs share one ``compare``
    (``_sweep_table``); an element that is no automorphism joins none, so
    every cell names itself."""
    hit = trunc.sweeps.get(elem)
    if hit is None:
        hit = trunc.sweeps[elem] = _sweep_table(trunc, elem)
    return hit


def _runs(cell_runs, elem):
    """Per family run of ``Truncation.cell_runs``: the positions a..b
    whose images under the element lie in the window, and the offset from
    each to its image's."""
    for fam, (start, lo, hi) in cell_runs.items():
        img, shift = elem.maps[fam]
        to, tlo, thi = cell_runs.get(img, (0, 0, -1))
        a, b = max(lo, tlo - shift), min(hi, thi - shift) + 1
        yield start - lo + a, start - lo + max(a, b), to - tlo + shift - start + lo


def _sweep_table(trunc, elem):
    """``_swept`` computed afresh: one ``compare`` answers each class of
    the window's class table for w's moves at a pair in one component, where
    the window forest always meets, so no answer is Truncated.  The moves
    are the automorphism generators that commute with w, or w alone if
    none does, or none if w is no automorphism (tested only when a
    generator is none); each keeps rel(p, w.p) = rel(c.p, w.c.p) for
    in-window pairs, and leaving w out when a generator commutes gives the
    same or a finer partition.  ``_classes`` builds each table once per
    window and tuple of moves (``Truncation.classes``).  Images beyond the
    window get one ``_same_glued_chain_relation`` per family."""
    spec, points = trunc.spec, trunc.canonical_points
    cell_runs = trunc.cell_runs
    runs, rels = list(_runs(cell_runs, elem)), []
    for start, lo, hi in cell_runs.values():    # one answer per family beyond the window
        p = points[start]
        rels += [_same_glued_chain_relation(spec, p, elem.point(p))] * (hi - lo + 1)
    if any(a < b for a, b, _ in runs):      # where an in-window image needs a compare
        require_routable(trunc)
    if len(spec.automorphisms) < len(spec.generators) and automorphism_problems(spec, elem):
        moves = ()
    else:
        moves = tuple(c for c in spec.automorphisms if c * elem == elem * c) or (elem,)
    orbits = trunc.classes.get(moves)
    if orbits is None:
        orbits = trunc.classes[moves] = _classes(cell_runs, moves)
    relation = {None: None}     # class -> its relation; None keys a pair across components
    for a, b, offset in runs:
        keys = orbits[a:b]
        if trunc.components > 1:
            component = trunc.cell_components
            keys = [r if c == d else None for r, c, d in
                    zip(keys, component[a:b], component[a + offset:b + offset])]
        for root, k in dict(zip(keys, range(a, b))).items():
            if root not in relation:
                relation[root] = compare(trunc, points[k], elem.point(points[k]))
        rels[a:b] = map(relation.__getitem__, keys)
    return tuple(rels), orbits


def _classes(cell_runs, moves):
    """Per canonical position, a position naming its class: the cells the
    moves join, both ends in the window (``Truncation.cell_runs``); the
    window keeps it by the tuple of moves (``Truncation.classes``).  A
    move that maps a family onto itself with shift b joins its cells b
    apart, so the union-find runs over residues modulo the least such |b|."""
    node = []           # per position, the first position of its residue
    for fam, (start, lo, hi) in cell_runs.items():
        m = min([hi - lo + 1] + [abs(x.maps[fam][1]) for x in moves
                                 if x.maps[fam][0] == fam and x.maps[fam][1]])
        node += islice(cycle(range(start, start + m)), hi - lo + 1)
    parent = list(range(len(node)))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for x in moves:
        for a, b, offset in _runs(cell_runs, x):
            for j, k in set(zip(node[a:b], node[a + offset:b + offset])):
                parent[find(j)] = find(k)
    root = {k: find(k) for k in set(node)}
    return tuple(map(root.__getitem__, node))


def _membership(rel):
    if rel is None:
        return Tri.TRUNCATED
    return Tri.YES if rel in COMPARABLE else Tri.NO


def _relation(trunc, elem, point):
    """Image relation of a window point: the element's kept sweep at the
    point's cell, constant on the cell's interior (images keep t, a route
    between two edge cells does not depend on t, a fixed cell is fixed
    pointwise)."""
    return _swept(trunc, elem)[0][trunc.position[point.cell]]


def in_comparable_set(spec, word, point, depth):
    """Whether the point is comparable with its image, on the given window."""
    trunc = spec.window(depth)
    trunc.require_point(point)
    return _membership(_relation(trunc, word_map(spec, word), point))


class ComparableSample(NamedTuple):
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
    runs = trunc.cell_runs
    return [(fam, i) for fam in sorted(runs) if elem.maps[fam] == (fam, 0)
            for i in range(runs[fam][1], runs[fam][2] + 1)]


class ProfileEntry(NamedTuple):
    """One classification answer: Yes with a witness, a certified No (the
    sweep closed), or Truncated (no witness in the window, not certified)."""

    value: Tri
    witness: Point | None

    def __str__(self):
        if self.value is Tri.YES:
            return f"yes ({self.witness})"
        return "no" if self.value is Tri.NO else "no within window (truncated)"


class ElementProfile(NamedTuple):
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
    points, rels = trunc.canonical_points, sweep(trunc, elem)
    tan_witness = points[trunc.position[fixed[0]]] if fixed else None
    tainted = trunc.has_truncation or None in rels
    pos_witness, neg_witness = (points[rels.index(rel)] if rel in rels else None
                                for rel in (Comparability.LESS, Comparability.GREATER))
    return ElementProfile(
        word, trunc.depth,
        tangentiable=_entry(tan_witness, tainted),
        pos_transversable=_entry(pos_witness, tainted),
        neg_transversable=_entry(neg_witness, tainted),
    )


class BranchingType(NamedTuple):
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
