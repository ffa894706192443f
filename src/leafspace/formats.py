"""Line-oriented text format for models, version header ``leafspace/1``.

Grammar (one declaration per line, ``#`` comments, blank lines ignored):

    leafspace/1
    family NAME vertex|edge unit|chain [glue +1|-1]
    end EDGE low|high open
    end EDGE low|high vertex VFAM OFFSET
    end EDGE low|high limit VFAM OFFSET [VFAM OFFSET ...]
    chainend EDGE neg|pos open
    chainend EDGE neg|pos limit VFAM [VFAM ...]
    gen NAME FAMILY IMAGE SHIFT
    mark NAME FAMILY INDEX [T]

Emission is canonical (families, rules, generators and marks sorted), so
two structurally equal models emit identical bytes and parse/emit
round-trips are stable.
"""

from __future__ import annotations

from fractions import Fraction

from .core import ChainEndRule, EndRule, Family, LeafSpaceError, Point
from .model import Model, _generator

HEADER = "leafspace/1"
_OPEN = EndRule("open")


class ParseError(LeafSpaceError):
    def __init__(self, line, reason):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class SemanticError(LeafSpaceError):
    def __init__(self, name, reason):
        super().__init__(f"{name}: {reason}")
        self.name = name
        self.reason = reason


def emit(spec):
    """Canonical text for a model; deterministic byte-for-byte."""
    lines = [HEADER]
    for name in sorted(spec.families):
        fam = spec.families[name]
        parts = ["family", name, fam.kind, "chain" if fam.chain else "unit"]
        if fam.glue is not None:
            parts += ["glue", f"{fam.glue:+d}"]
        lines.append(" ".join(parts))
    for (fam, end) in sorted(spec.ends, key=lambda k: (k[0], k[1] != "low")):
        rule = spec.ends[(fam, end)]
        parts = ["end", fam, end, rule.kind]
        for vfam, off in rule.targets:
            parts += [vfam, str(off)]
        lines.append(" ".join(parts))
    for (fam, side) in sorted(spec.chain_ends, key=lambda k: (k[0], k[1] != "neg")):
        rule = spec.chain_ends[(fam, side)]
        lines.append(" ".join(["chainend", fam, side, rule.kind] + list(rule.targets)))
    for gname in sorted(spec.generators):
        gen = spec.generators[gname]
        for fam in sorted(gen.maps):
            img, shift = gen.maps[fam]
            lines.append(f"gen {gname} {fam} {img} {shift}")
    for mname in sorted(spec.marks):
        mark = spec.marks[mname]
        fam, idx = mark.cell
        if mark.is_vertex:
            lines.append(f"mark {mname} {fam} {idx}")
        else:
            lines.append(f"mark {mname} {fam} {idx} {mark.t}")
    return "\n".join(lines) + "\n"


def _int(token, lineno, what):
    try:
        return int(token)
    except ValueError:
        raise ParseError(lineno, f"{what} must be an integer, got {token!r}") from None


def parse(text):
    """Parse a model document into a frozen :class:`~leafspace.core.Model`;
    rejects malformed lines with line-anchored diagnostics and structurally
    impossible models (a vertex side owning two germs) with SemanticError.
    Germs are counted from the end and chain-end rules; no window is
    built."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise ParseError(1, f"expected header {HEADER!r}")
    families, ends, chain_ends, marks = {}, {}, {}, {}
    gen_maps = {}
    pending_ends = []
    for lineno, raw in enumerate(lines[1:], start=2):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        kw = tokens[0]
        if kw == "family":
            if len(tokens) not in (4, 6):
                raise ParseError(lineno, "family NAME vertex|edge unit|chain [glue +1|-1]")
            name, kind, indexing = tokens[1:4]
            if kind not in ("vertex", "edge"):
                raise ParseError(lineno, f"unknown family kind {kind!r}")
            if indexing not in ("unit", "chain"):
                raise ParseError(lineno, f"unknown indexing {indexing!r}")
            glue = None
            if len(tokens) == 6:
                if tokens[4] != "glue":
                    raise ParseError(lineno, f"expected 'glue', got {tokens[4]!r}")
                glue = _int(tokens[5], lineno, "glue direction")
                if glue not in (1, -1):
                    raise ParseError(lineno, "glue direction must be +1 or -1")
            if name in families:
                raise SemanticError(name, "duplicate family")
            families[name] = Family(name, kind, indexing == "chain", glue)
        elif kw == "end":
            if len(tokens) < 4 or tokens[2] not in ("low", "high"):
                raise ParseError(lineno, "end EDGE low|high open|vertex|limit ...")
            fam, end, kind = tokens[1], tokens[2], tokens[3]
            rest = tokens[4:]
            if kind == "open":
                rule = _OPEN
            elif kind in ("vertex", "limit"):
                if len(rest) % 2 or not rest:
                    raise ParseError(lineno, "targets must come as VFAM OFFSET pairs")
                if len(rest) == 2:      # the common single target, without a comprehension
                    targets = [(rest[0], _int(rest[1], lineno, "offset"))]
                else:
                    targets = [(rest[i], _int(rest[i + 1], lineno, "offset"))
                               for i in range(0, len(rest), 2)]
                if kind == "vertex" and len(targets) != 1:
                    raise ParseError(lineno, "a vertex end takes exactly one target")
                rule = EndRule(kind, targets)
            else:
                raise ParseError(lineno, f"unknown end kind {kind!r}")
            pending_ends.append((ends, (fam, end), rule))
        elif kw == "chainend":
            if len(tokens) < 4 or tokens[2] not in ("neg", "pos"):
                raise ParseError(lineno, "chainend EDGE neg|pos open|limit ...")
            fam, side, kind = tokens[1], tokens[2], tokens[3]
            if kind == "open":
                rule = ChainEndRule("open")
            elif kind == "limit":
                if not tokens[4:]:
                    raise ParseError(lineno, "a limit chain end needs at least one vertex")
                rule = ChainEndRule("limit", tokens[4:])
            else:
                raise ParseError(lineno, f"unknown chain-end kind {kind!r}")
            pending_ends.append((chain_ends, (fam, side), rule))
        elif kw == "gen":
            if len(tokens) != 5:
                raise ParseError(lineno, "gen NAME FAMILY IMAGE SHIFT")
            gname, fam, img = tokens[1:4]
            shift = _int(tokens[4], lineno, "shift")
            maps = gen_maps.setdefault(gname, {})
            if fam in maps:
                raise SemanticError(gname, f"duplicate map for family {fam}")
            maps[fam] = (img, shift)
        elif kw == "mark":
            if len(tokens) not in (4, 5):
                raise ParseError(lineno, "mark NAME FAMILY INDEX [T]")
            mname, fam = tokens[1], tokens[2]
            if mname in marks:
                raise SemanticError(mname, "duplicate mark")
            idx = _int(tokens[3], lineno, "index")
            if len(tokens) == 5:
                try:
                    t = Fraction(tokens[4])
                except (ValueError, ZeroDivisionError):
                    raise ParseError(lineno, f"bad rational {tokens[4]!r}") from None
                if not 0 < t < 1:
                    raise ParseError(lineno, "interior coordinate must be in (0,1)")
                marks[mname] = Point((fam, idx), t)
            else:
                marks[mname] = Point((fam, idx))
        else:
            raise ParseError(lineno, f"unknown declaration {kw!r}")

    for table, key, rule in pending_ends:
        fam = key[0]
        f = families.get(fam)
        if f is None:
            raise SemanticError(fam, "rule on unknown family")
        if f.kind != "edge":
            raise SemanticError(fam, "end rules apply to edge families only")
        if table is ends:
            if f.glue is not None:
                raise SemanticError(fam, "glued chains carry chainend rules, not end rules")
            if key in ends:
                raise SemanticError(fam, f"duplicate {key[1]} end rule")
        else:
            if f.glue is None:
                raise SemanticError(fam, "chainend rules need a glued chain")
            if key in chain_ends:
                raise SemanticError(fam, f"duplicate {key[1]} chain-end rule")
        table[key] = rule

    # each generator is checked against the model's rules before it joins
    # the generator table, which the model reads as it fills
    generators = {}
    model = Model(families, ends, chain_ends, generators, marks)
    for gname, maps in sorted(gen_maps.items()):
        try:
            generators[gname] = _generator(model, gname, maps, True)
        except LeafSpaceError as exc:
            raise SemanticError(gname, str(exc)) from None

    _reject_overfull(model)
    return model


def _reject_overfull(model):
    """A point of a 1-manifold has exactly two local directions; reject
    documents that give some vertex two germs on one side outright
    (``Model.overfull``)."""
    try:
        model.check_wellformed()
    except LeafSpaceError as exc:
        raise SemanticError("model", str(exc)) from None
    if model.overfull:
        raise SemanticError("model", model.overfull)
