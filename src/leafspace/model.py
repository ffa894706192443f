"""The builder of a model and the frozen model its queries read.

A :class:`LeafSpaceSpec` is edited through ``add_*`` or its tables; a
query freezes the tables into an immutable :class:`Model`, which derives
each fact of its rules once and keeps a small cache of the windows that
:func:`leafspace.core.expand` builds.  :mod:`leafspace.core` names both
classes too.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType

from .core import (
    HIGH,
    LOW,
    NEG,
    POS,
    BadOffset,
    Element,
    Family,
    UnresolvedName,
    Violation,
    _germ_fault,
    automorphism_problems,
    chain_end_ascends,
    expand,
)


class LeafSpaceSpec:
    """The builder of a finitely generated model: ``add_*`` and direct
    writes edit its tables (``families``, ``ends``, ``chain_ends``,
    ``generators``, ``marks``).  Queries read the immutable :class:`Model`
    the tables freeze into: ``freeze``, and so ``window``, keeps it on the
    builder until the tables change, and the first query after a change
    freezes a new one; a window already held keeps the model it was built
    from.  Families come first: a generator is checked against the
    families when it is added, so a family added after one raises
    UnresolvedName; each model tests its generators afresh
    (``Model.automorphisms``)."""

    def __init__(self):
        self.families = {}
        self.ends = {}          # (edge family, "low"/"high") -> EndRule
        self.chain_ends = {}    # (edge family, "neg"/"pos") -> ChainEndRule
        self.generators = {}
        self.marks = {}
        self._model = None

    # -- construction helpers -------------------------------------------

    def add_vertex(self, name, chain=False):
        self._add_family(Family(name, "vertex", chain))

    def add_edge(self, name, low, high, chain=False):
        """Unit edge or unlinked chain edge with per-cell end rules."""
        self._add_family(Family(name, "edge", chain))
        self.ends[(name, LOW)] = low
        self.ends[(name, HIGH)] = high

    def add_glued_chain(self, name, glue, neg, pos):
        """Edge chain whose cells concatenate; ``neg``/``pos`` rule the two
        ends at infinity (index -> -inf / +inf)."""
        if glue not in (1, -1):
            raise BadOffset(f"glue direction must be +1 or -1, got {glue!r}")
        self._add_family(Family(name, "edge", True, glue))
        self.chain_ends[(name, NEG)] = neg
        self.chain_ends[(name, POS)] = pos

    def _add_family(self, fam):
        if fam.name in self.families:
            raise UnresolvedName(f"duplicate family {fam.name!r}")
        if self.generators:     # each generator maps the families it was checked against
            raise UnresolvedName(f"family {fam.name!r} added after a generator")
        self.families[fam.name] = fam

    def add_generator(self, name, maps, check=True):
        """Store a generator as the Element it is.  Whatever ``check`` says,
        the map must be a kind-keeping bijection of the families with integer
        shifts (else UnresolvedName, or BadOffset for a shift); ``check`` also
        requires resolvable declarations and a map that preserves every
        rule (``automorphism_problems``).  A rejected map changes nothing."""
        self.generators[name] = _generator(self, name, maps, check)

    def add_mark(self, name, point):
        self.marks[name] = point

    def check_wellformed(self):
        """Raise what ``Model.check_wellformed`` would raise on the tables."""
        error = _malformation(self.families, self.ends, self.chain_ends)
        if error:
            raise error

    def freeze(self):
        """The model of the tables as they stand, kept until they change."""
        self._model = model = self._frozen()
        return model

    def _frozen(self):
        """The kept model, unless the tables changed since it was frozen;
        else a new model, which only ``freeze`` keeps, so a builder that is
        only expanded holds no model besides its tables."""
        tables = (self.families, self.ends, self.chain_ends, self.generators, self.marks)
        model = self._model
        if model is None or model._tables != tables:
            model = Model(*map(dict, tables))
        return model

    def window(self, depth):
        """The kept model's window at ``depth``, from its bounded cache
        (``Model.window``)."""
        return self.freeze().window(depth)


WINDOW_CACHE = 4        # depths whose windows a model keeps


class Model:
    """An immutable model: its ``families``, ``ends``, ``chain_ends``,
    ``generators`` and ``marks`` are read-only mappings, and setting an
    attribute raises.  Each fact the tables imply is derived once.  On
    construction: the well-formedness error and, for well-formed tables,
    one sorted pass over the rules for the germ sources and the limit-set
    violations.  When first asked for: the first overfull vertex side, the
    shape and mark violations, and the generators that are automorphisms.
    ``window`` keeps the windows of the ``WINDOW_CACHE`` depths asked for
    last."""

    def __init__(self, families, ends, chain_ends, generators, marks):
        # the model owns the tables it is given; ``parse`` fills the
        # generators after construction, before it returns
        error = _malformation(families, ends, chain_ends)
        vars(self).update(
            families=MappingProxyType(families), ends=MappingProxyType(ends),
            chain_ends=MappingProxyType(chain_ends), generators=MappingProxyType(generators),
            marks=MappingProxyType(marks), _windows={}, _error=error,
            _tables=(families, ends, chain_ends, generators, marks))
        if error is None:
            vars(self).update(zip(("_sources", "_limit_sets"),
                                  _rule_pass(families, ends, chain_ends)))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a frozen model cannot change {name!r}")

    __delattr__ = __setattr__

    def freeze(self):
        return self

    _frozen = freeze

    def check_wellformed(self):
        """Raise UnresolvedName/BadOffset for unresolvable end rules, whose
        targets are (family, int) pairs, and chain-end rules, whose targets
        are family names; generator maps are checked when added."""
        if self._error:
            raise self._error.with_traceback(None)

    def germ_sources(self):
        """(vertex family, side) -> the rules that can supply that germ, in
        rule order: ("end", edge family, offset) for a per-cell end rule,
        ("chain", edge family, chain side) for a glued chain's limit."""
        self.check_wellformed()
        return MappingProxyType(self._sources)

    @cached_property
    def overfull(self):
        """The fault of the first vertex side that the rules give two germs
        or more, with no window, else None.  Germs are counted from each
        vertex family side's sources (a chain cell gets none from a unit
        edge naming another cell); the depth-1 window's vertex cells come
        first, then the far chain cells that unit edges name."""
        fams = self.families
        faults = []     # (far, vertex cell, high side, side, germs, from every chain cell)
        for (vfam, side), found in self._sources.items():
            if fams[vfam].kind == "vertex" and fams[vfam].chain:
                named = [arg for kind, efam, arg in found if kind == "end" and not fams[efam].chain]
                faults += [(j not in (-1, 0, 1), (vfam, j), side == HIGH, side, count, False)
                           for j in {-1, 0, 1, *named}
                           if (count := len(found) - len(named) + named.count(j)) > 1]
            elif fams[vfam].kind == "vertex" and (
                    len(found) > 1 or found[0][0] == "end" and fams[found[0][1]].chain):
                every = any(kind == "end" and fams[efam].chain for kind, efam, _ in found)
                faults.append((False, (vfam, 0), side == HIGH, side, len(found), every))
        if not faults:
            return None
        _, vcell, _, side, count, every = min(faults)
        return _germ_fault(vcell, side, count, every)

    @cached_property
    def automorphisms(self):
        """The generators that ``automorphism_problems`` passes, in
        generator order."""
        return tuple(g for g in self.generators.values() if not automorphism_problems(self, g))

    @cached_property
    def _violations(self):
        """``validate``'s violations of the tables: (the (d) shape and (b)
        limit-set ones, the mark ones)."""
        families, ends, chain_ends = self.families, self.ends, self.chain_ends
        shapes = []
        for name, fam in sorted(families.items()):
            if fam.kind == "vertex":
                for end in (LOW, HIGH):
                    if (name, end) in ends:
                        shapes.append(f"vertex family {name} has an end rule")
            elif fam.glue is None:
                for end in (LOW, HIGH):
                    if (name, end) not in ends:
                        shapes.append(f"edge family {name} misses its {end} rule")
                for side in (NEG, POS):
                    if (name, side) in chain_ends:
                        shapes.append(f"unglued family {name} has a chain-end rule")
            else:
                if not fam.chain:
                    shapes.append(f"unit edge family {name} declares a glue direction")
                for end in (LOW, HIGH):
                    if (name, end) in ends:
                        shapes.append(f"glued chain {name} has a per-cell end rule")
                for side in (NEG, POS):
                    if (name, side) not in chain_ends:
                        shapes.append(f"glued chain {name} misses its {side} chain-end rule")
        marks = []
        for name, mark in sorted(self.marks.items()):
            fam = families.get(mark.cell[0])
            if fam is None:
                marks.append(f"mark {name} references unknown family {mark.cell[0]}")
            elif (fam.kind == "vertex") != mark.is_vertex:
                marks.append(f"mark {name} kind does not match family {mark.cell[0]}")
        return ([Violation("shape", m) for m in shapes] + self._limit_sets,
                [Violation("mark", m) for m in marks])

    def window(self, depth):
        """The window at ``depth``, kept while it is among the last
        ``WINDOW_CACHE`` depths asked for; nothing is kept for a depth that
        ``expand`` refuses (a float or bool equal to a kept depth included)."""
        windows = self._windows
        trunc = windows.pop(depth, None) if type(depth) is int else None
        if trunc is None:
            trunc = expand(self, depth)
            if len(windows) == WINDOW_CACHE:
                del windows[next(iter(windows))]
        windows[depth] = trunc
        return trunc


def _malformation(families, ends, chain_ends):
    """The UnresolvedName/BadOffset of the first unresolvable rule in table
    order, else None: every family named must be declared, end-rule targets
    must be (family, int) pairs and chain-end targets family names."""
    for table, pairs in ((ends, True), (chain_ends, False)):
        for (fam, end), rule in table.items():
            if fam not in families:
                return UnresolvedName(f"end rule on unknown family {fam!r}")
            if rule.kind != "open" and not rule.targets:
                return UnresolvedName(f"{rule.kind} rule on {fam}.{end} names no target")
            for tgt in rule.targets:
                if not pairs:
                    if not isinstance(tgt, str):
                        return UnresolvedName(
                            f"{fam}.{end} target {tgt!r} is not a family name")
                elif not (isinstance(tgt, tuple) and len(tgt) == 2
                          and isinstance(tgt[0], str)):
                    return UnresolvedName(
                        f"{fam}.{end} target {tgt!r} is not a (family, offset) pair")
                elif not isinstance(tgt[1], int):
                    return BadOffset(
                        f"offset {tgt[1]!r} on {fam}.{end} is not an integer shift")
                else:
                    tgt = tgt[0]
                if tgt not in families:
                    return UnresolvedName(f"{fam}.{end} targets unknown family {tgt!r}")
    return None


def _rule_pass(families, ends, chain_ends):
    """One pass over the end rules, then the chain-end rules, in sorted
    order: the germ sources (``Model.germ_sources``) and the (b) limit-set
    violations of ``validate``."""
    sources, bad = {}, []
    for (efam, end), rule in sorted(ends.items()):
        targets, supplies = rule.targets, rule.kind != "open"
        if rule.kind == "limit" and len(targets) > 1 and len(set(targets)) != len(targets):
            bad.append(f"{efam}.{end} limit set repeats a vertex")
        side = LOW if end == HIGH else HIGH     # an edge's high end supplies a low germ
        for tfam, off in targets:
            fam = families[tfam]
            if fam.kind != "vertex":
                bad.append(f"{efam}.{end} targets non-vertex family {tfam}")
            if not fam.chain and off != 0:
                bad.append(f"{efam}.{end} uses nonzero offset into unit family {tfam}")
            if supplies:
                sources[tfam, side] = sources.get((tfam, side), ()) + (("end", efam, off),)
    for (efam, cside), rule in sorted(chain_ends.items()):
        targets = rule.targets
        if len(targets) > 1 and len(set(targets)) != len(targets):
            bad.append(f"{efam} chain end {cside} repeats a vertex")
        for v in targets:
            fam = families[v]
            if fam.kind != "vertex" or fam.chain:
                bad.append(
                    f"{efam} chain end {cside} must target unit vertex families, got {v}")
        if rule.kind == "limit":
            side = LOW if chain_end_ascends(families[efam].glue, cside) else HIGH
            for vfam in dict.fromkeys(rule.targets):
                sources[vfam, side] = sources.get((vfam, side), ()) + (("chain", efam, cside),)
    return sources, [Violation("limit-set", message) for message in bad]


def _generator(spec, name, maps, check):
    """The Element of a generator map on a builder or a model (see
    ``LeafSpaceSpec.add_generator``)."""
    if check:
        spec.check_wellformed()
    fams = sorted(spec.families)
    if sorted(maps) != fams:
        problems = ["cell map must cover every family exactly once"]
    elif sorted(img for img, _ in maps.values()) != fams:
        problems = ["family map is not a bijection"]
    elif any(spec.families[f].kind != spec.families[g].kind for f, (g, _) in maps.items()):
        problems = ["family map exchanges vertex and edge families"]
    else:
        for _, shift in maps.values():
            if not isinstance(shift, int):
                raise BadOffset(f"generator {name!r} shift {shift!r} is not an integer")
        gen = Element({fam: maps[fam] for fam in spec.families})
        problems = automorphism_problems(spec, gen) if check else []
    if problems:
        raise UnresolvedName(
            f"generator {name!r} is not an automorphism: " + "; ".join(problems))
    return gen
