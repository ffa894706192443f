"""Command-line harness: inspect models, run single checkers, or the suite.

This module only parses arguments and prints reports: ``checkers`` owns the
registry (``CHECKERS``) and the suite's instances (``discover_instances``).
Reports are deterministic byte-for-byte for identical inputs: everything
is sorted, nothing timestamped.  Exit codes: 0 (ok; truncated verdicts
and skipped checkers only produce warnings), 1 (a violation or an invalid
model), 2 (usage error).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from .core import (
    InvalidModel,
    LeafSpaceError,
    Point,
    TruncatedError,
    branch_loci,
    cached_validation,
)
from .paths import compare, path
from .action import Word, branching_type, classify_element
from . import checkers as ck
from .checkers import PASS, SCREEN_DISCLAIMER, TRUNCATED, VIOLATION
from .formats import ParseError, SemanticError, emit, parse
from .gallery import GALLERY_NAMES, gallery
from .randspec import RandomParams, random_spec

POINT_RE = re.compile(r"^([A-Za-z_]\w*)\[(-?\d+)\](?::(\d+/0*[1-9]\d*|\d+))?$")


class SystemExit2(Exception):
    """Usage error carrying exit code 2."""


def parse_point(text):
    m = POINT_RE.match(text.strip())
    if m is None:
        raise ValueError(f"cannot parse point {text!r}; use FAMILY[index] or FAMILY[index]:p/q")
    fam, idx, t = m.group(1), int(m.group(2)), m.group(3)
    return Point((fam, idx), Fraction(t) if t else None)


def load_model(args):
    """The frozen model a command reads (so its checkers never re-freeze a
    builder), and its name in the report."""
    if getattr(args, "gallery", None):
        return gallery(args.gallery).spec.freeze(), args.gallery
    if getattr(args, "spec", None):
        try:
            with open(args.spec, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SystemExit2(str(exc)) from None
        return parse(text), os.path.basename(args.spec)
    raise SystemExit2("a model is required: --gallery NAME or --spec FILE")


class Output:
    def __init__(self, as_json):
        self.as_json = as_json
        self.lines = []
        self.payload = None

    def line(self, text=""):
        self.lines.append(text)

    def emit(self, stream):
        if self.as_json:
            stream.write(json.dumps(self.payload, indent=2, sort_keys=True) + "\n")
        else:
            for line in self.lines:
                stream.write(line + "\n")


def render_report(out, report):
    verdict = report.verdict.upper()
    extra = " ".join(f"{k}={v}" for k, v in report.witness)
    out.line(f"{verdict:<10} {report.name}" + (f"  {extra}" if extra else ""))
    for note in report.notes:
        out.line(f"           note: {note}")


# ---------------------------------------------------------------------------
# single subcommands


def cmd_validate(args, out):
    spec, name = load_model(args)
    trunc = spec.window(args.depth)
    report = cached_validation(trunc)
    out.payload = {"model": name, "depth": args.depth, "valid": report.valid,
                   "violations": [{"code": v.code, "message": v.message}
                                  for v in report.violations]}
    out.line(f"validate {name} depth={args.depth}")
    if report.valid:
        out.line("valid: yes (0 violations)")
        return 0
    out.line(f"valid: no ({len(report.violations)} violations)")
    for v in report.violations:
        out.line(f"  [{v.code}] {v.message}")
    return 1


def cmd_expand(args, out):
    spec, name = load_model(args)
    trunc = spec.window(args.depth)
    out.payload = {
        "model": name, "depth": args.depth,
        "vertex_cells": [f"{f}[{i}]" for f, i in trunc.vertex_cells],
        "edge_cells": [f"{f}[{i}]" for f, i in trunc.edge_cells],
        "truncated_ends": [
            {"at": str(te.at), "continuation": te.continuation}
            for te in trunc.truncated_ends],
    }
    out.line(f"expand {name} depth={args.depth}")
    out.line(f"vertex cells: {len(trunc.vertex_cells)}")
    out.line(f"edge cells:   {len(trunc.edge_cells)}")
    out.line(f"truncated ends: {len(trunc.truncated_ends)}")
    for te in trunc.truncated_ends:
        out.line(f"  {te.at} -> {te.continuation}")
    return 0


def cmd_loci(args, out):
    spec, name = load_model(args)
    trunc = spec.window(args.depth)
    loci = branch_loci(trunc)
    bt = branching_type(spec, args.depth)
    out.payload = {"model": name, "depth": args.depth, "branching": str(bt),
                   "loci": [{"members": [f"{f}[{i}]" for f, i in b.members],
                             "sign": b.sign, "stem": str(b.stem)} for b in loci]}
    out.line(f"loci {name} depth={args.depth}  branching={bt}")
    for k, b in enumerate(loci):
        members = ",".join(f"{f}[{i}]" for f, i in b.members)
        out.line(f"  [{k}] {b.sign:<8} {{{members}}}  stem={b.stem}")
    if not loci:
        out.line("  (none)")
    return 0


def cmd_compare(args, out):
    spec, name = load_model(args)
    trunc = spec.window(args.depth)
    x, y = parse_point(args.x), parse_point(args.y)
    rel = compare(trunc, x, y)
    out.payload = {"model": name, "x": str(x), "y": str(y), "relation": rel.value}
    out.line(f"compare {x} {y}: {rel.value}")
    return 0


def cmd_path(args, out):
    spec, name = load_model(args)
    trunc = spec.window(args.depth)
    x, y = parse_point(args.frm), parse_point(args.to)
    try:
        p = path(trunc, x, y)
    except TruncatedError as exc:
        out.payload = {"model": name, "truncated": True, "reason": str(exc)}
        out.line(f"path {x} -> {y}: TRUNCATED ({exc})")
        return 0
    out.payload = {
        "model": name, "x": str(x), "y": str(y), "length": p.length,
        "intervals": [{"start": str(iv.start), "end": str(iv.end),
                       "direction": iv.direction} for iv in p.intervals],
        "junctions": [{"arrive": str(j.arrive), "depart": str(j.depart),
                       "locus": [f"{f}[{i}]" for f, i in j.locus.members]}
                      for j in p.junctions],
    }
    out.line(f"path {x} -> {y}: length {p.length}")
    for k, iv in enumerate(p.intervals, start=1):
        out.line(f"  interval {k}: {iv}")
    for k, j in enumerate(p.junctions, start=1):
        members = ",".join(f"{f}[{i}]" for f, i in j.locus.members)
        out.line(f"  junction {k}: {j.arrive} ~ {j.depart} in {{{members}}}")
    return 0


def cmd_classify(args, out):
    spec, name = load_model(args)
    word = Word.parse(args.word)
    profile = classify_element(spec, word, args.depth)
    out.payload = {"model": name, "word": str(word), "depth": args.depth,
                   "tangentiable": str(profile.tangentiable),
                   "pos_transversable": str(profile.pos_transversable),
                   "neg_transversable": str(profile.neg_transversable),
                   "neither_in_window": profile.neither_in_window}
    out.line(f"classify {name} word={word} depth={args.depth}")
    out.line(f"  tangentiable:        {profile.tangentiable}")
    out.line(f"  pos transversable:   {profile.pos_transversable}")
    out.line(f"  neg transversable:   {profile.neg_transversable}")
    if profile.neither_in_window:
        out.line("  neither-candidate within this window")
    return 0


class NoLoci(Exception):
    """The window holds no branch loci; an empty answer, not an error."""


def _pick_locus(trunc, index):
    loci = branch_loci(trunc)
    if not loci:
        raise NoLoci
    if not 0 <= index < len(loci):
        raise SystemExit2(f"--locus must be in 0..{len(loci) - 1}")
    return loci[index]


def cmd_stab(args, out):
    spec, name = load_model(args)
    trunc = spec.window(args.depth)
    try:
        locus = _pick_locus(trunc, args.locus)
    except NoLoci:
        out.payload = {"model": name, "loci": 0, "ball": []}
        out.line(f"stabilizer query on {name}: no branch loci in this window")
        return 0
    ball = ck.stabilizer_ball(spec, locus, args.word_len, args.depth)
    members = ",".join(f"{f}[{i}]" for f, i in ball.locus)
    out.payload = {
        "model": name, "locus": members, "radius": ball.radius,
        "ball": [str(w) for w in ball.members],
        "cyclic_at_radius": ball.cyclic_at_radius,
        "cyclic_generator": str(ball.cyclic_generator) if ball.cyclic_generator else None,
        "acts_nontrivially": ball.acts_nontrivially,
    }
    out.line(f"stabilizer ball of {{{members}}} radius={ball.radius} depth={args.depth}")
    out.line(f"  size: {len(ball.members)}")
    out.line(f"  words: {', '.join(str(w) for w in ball.members)}")
    out.line(f"  cyclic at this radius: {'yes' if ball.cyclic_at_radius else 'no'}"
             + (f" (generator {ball.cyclic_generator})" if ball.cyclic_generator else ""))
    out.line(f"  acts on the locus nontrivially: {'yes' if ball.acts_nontrivially else 'no'}")
    return 0


def cmd_gallery(args, out):
    entry = gallery(args.name)
    out.payload = {"name": entry.name, "notes": entry.notes, "document": emit(entry.spec)}
    out.lines.append(emit(entry.spec).rstrip("\n"))
    return 0


def cmd_random(args, out):
    params = RandomParams(
        seed=args.seed,
        locus_count=tuple(args.loci),
        locus_size=tuple(args.sizes),
        sign_mix=args.sign_mix,
        extra_edges=args.extra,
        symmetric=args.symmetric,
    )
    spec = random_spec(params)
    out.payload = {"seed": args.seed, "document": emit(spec)}
    out.lines.append(emit(spec).rstrip("\n"))
    return 0


# ---------------------------------------------------------------------------
# checkers


def cmd_suite(args, out):
    spec, name = load_model(args)
    trunc = spec.window(args.depth)
    report = cached_validation(trunc)
    bt = branching_type(spec, args.depth) if report.valid else None
    out.line(f"leafspace suite: {name}  depth={args.depth} word-len={args.word_len}")
    if not report.valid:
        out.line(f"model invalid ({len(report.violations)} violations); suite aborted")
        out.payload = {"model": name, "valid": False}
        return 1
    out.line(f"model valid; loci={len(branch_loci(trunc))} branching={bt}")
    out.line(f"note: {SCREEN_DISCLAIMER}")
    out.line("")

    instances = ck.discover_instances(spec, args.depth, args.word_len)
    order = {VIOLATION: 0, TRUNCATED: 1, "precondition-failed": 2, PASS: 3}
    violations = truncations = skips = 0
    payload_reports = []
    for checker in ck.CHECKERS:
        reps = [ck.run_checker(spec, checker, args.depth, **kwargs)
                for kwargs in instances[checker]]
        if not reps:
            out.line(f"SKIP       {checker}  (no applicable instance found)")
            skips += 1
            payload_reports.append({"check": checker, "verdict": "skip"})
            continue
        worst = min(reps, key=lambda r: order[r.verdict])
        if worst.verdict == VIOLATION:
            violations += 1
        elif worst.verdict == TRUNCATED:
            truncations += 1
        elif worst.verdict == "precondition-failed":
            skips += 1
        render_report(out, worst._replace(notes=worst.notes + (f"instances={len(reps)}",)))
        payload_reports.append(dict(worst.to_dict(), instances=len(reps)))
    out.line("")
    out.line(f"suite: {len(ck.CHECKERS)} checkers, "
             f"{len(ck.CHECKERS) - violations - truncations - skips} pass, "
             f"{violations} violations, {truncations} truncated, {skips} skipped")
    out.payload = {"model": name, "depth": args.depth, "word_len": args.word_len,
                   "branching": str(bt), "reports": payload_reports,
                   "violations": violations, "warnings": truncations + skips}
    return 1 if violations else 0


# The options of `leafspace check` the registry names: how each text option
# is read, and each integer option's default (--locus indexes the loci).
OPTION_PARSERS = {"--word": Word.parse, "--from": parse_point, "--to": parse_point,
                  "--point": parse_point, "--pos": parse_point, "--neg": parse_point}
INT_OPTIONS = (("--k", 2), ("--k-max", 4), ("--locus", 0), ("--word-len", 6))


def cmd_check(args, out):
    spec, name = load_model(args)
    checker = args.checker
    if checker not in ck.CHECKERS:
        raise SystemExit2(f"unknown checker {checker!r}; "
                          f"choose from {', '.join(ck.CHECKERS)}")
    kwargs = {}
    for key, option in ck.CHECKERS[checker].items():
        value = getattr(args, option[2:].replace("-", "_"))
        if option == "--locus":
            try:
                value = _pick_locus(spec.window(args.depth), value)
            except NoLoci:
                out.line(f"SKIP       {checker}  (no branch loci in this window)")
                out.payload = {"check": checker, "verdict": "skip"}
                return 0
        elif option in OPTION_PARSERS:
            value = OPTION_PARSERS[option](_require(value, option))
        kwargs[key] = value
    if checker in ck.SCREENS:
        out.line(f"note: {SCREEN_DISCLAIMER}")
    rep = ck.run_checker(spec, checker, args.depth, **kwargs)
    render_report(out, rep)
    out.payload = rep.to_dict()
    return 1 if rep.verdict == VIOLATION else 0


def _require(value, flag):
    if value is None:
        raise SystemExit2(f"{flag} is required for this checker")
    return value


# ---------------------------------------------------------------------------
# argument plumbing


def _add_model_args(p):
    p.add_argument("--gallery", choices=GALLERY_NAMES)
    p.add_argument("--spec", help="model document file")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--json", action="store_true")


@functools.cache
def build_parser():
    """The command-line parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="leafspace",
        description="models of non-Hausdorff 1-manifold leaf spaces with group actions")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("validate", cmd_validate), ("expand", cmd_expand),
                     ("loci", cmd_loci)):
        p = sub.add_parser(name)
        _add_model_args(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("compare")
    _add_model_args(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("path")
    _add_model_args(p)
    p.add_argument("--from", dest="frm", required=True)
    p.add_argument("--to", required=True)
    p.set_defaults(fn=cmd_path)

    p = sub.add_parser("classify")
    _add_model_args(p)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("stab")
    _add_model_args(p)
    p.add_argument("--locus", type=int, default=0)
    p.add_argument("--word-len", type=int, default=6)
    p.set_defaults(fn=cmd_stab)

    p = sub.add_parser("check")
    p.add_argument("checker")
    _add_model_args(p)
    for option in OPTION_PARSERS:
        p.add_argument(option)
    for option, default in INT_OPTIONS:
        p.add_argument(option, type=int, default=default)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("gallery")
    p.add_argument("name")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_gallery)

    p = sub.add_parser("random")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--loci", type=int, nargs=2, default=(1, 3))
    p.add_argument("--sizes", type=int, nargs=2, default=(2, 4))
    p.add_argument("--sign-mix", type=float, default=0.5)
    p.add_argument("--extra", type=int, default=2)
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_random)

    p = sub.add_parser("suite")
    _add_model_args(p)
    p.add_argument("--word-len", type=int, default=6)
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None, stream=None):
    stream = stream or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    out = Output(getattr(args, "json", False))
    try:
        code = args.fn(args, out)
    except SystemExit2 as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ParseError, SemanticError, InvalidModel) as exc:
        sys.stderr.write(f"error: invalid model: {exc}\n")
        return 1
    except (ValueError, LeafSpaceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        out.emit(stream)
        stream.flush()
    except BrokenPipeError:     # the reader left early (``| head``): the exit flush must not raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
