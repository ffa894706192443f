"""The four benchmark workloads.

Each workload is driven through leafspace's public API by one closed-loop
caller.  A workload has

* ``reference_runs``: how many runs of the reference computation (see
  ``pace.py``) make one reading of the host's speed beside an operation:
  more where operations are few and long, so that a reading's own
  noise does not carry into them;
* ``setup(lib, seed)``: what a user pays before the first operation
  (model construction, and on ``queries`` the windows); timed as
  ``setup_s``;
* ``inputs(state, rng)``: the seeded operation list, built untimed;
* ``run(state, op)``: one timed operation, returning its result;
* ``check(state, op, result)``: correctness problems of a first result
  (run outside the timed region), as a list of messages;
* ``key(result)``: what a repeat must reproduce exactly;
* ``report(state, ops, latencies, work_s)``: the workload's named
  end-to-end figures, as (value, unit, note).
"""

from __future__ import annotations

import io
import random
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


class Op:
    __slots__ = ("label", "args", "in_subset")

    def __init__(self, label, args, in_subset=True):
        self.label = label
        self.args = args
        self.in_subset = in_subset      # gets the costlier checks


# ---------------------------------------------------------------------------
# suite: the job users run


class Suite:
    """``leafspace suite`` on every gallery model at depths 4 and 8,
    word-len 6, in-process through ``cli.main``.  Bound by ``paths``
    routing and the checkers' membership sweeps.

    Depth 16 is left out: ZIGZAG at depth 16 alone takes 5-8 s, too long
    to repeat often enough within one run for a steady median; depth
    scaling is measured by ``queries`` (depth 64) and the traced run's
    depth-growth probe instead."""

    name = "suite"
    reference_runs = 15
    depths = (4, 8)
    word_len = 6
    violations_re = re.compile(r"^suite: .* (\d+) violations,", re.M)

    def setup(self, lib, seed):
        # each `leafspace suite` call builds its model, so set-up is the import
        return {"lib": lib}

    def inputs(self, state, rng):
        lib = state["lib"]
        state["golden"] = {name: (GOLDEN / f"suite_{name}.txt").read_text(encoding="utf-8")
                           for name in lib.gallery.GALLERY_NAMES}
        cells = [(name, depth) for depth in self.depths for name in lib.gallery.GALLERY_NAMES]
        rng.shuffle(cells)
        return [Op(f"{name} d={depth}", (name, depth)) for name, depth in cells]

    def run(self, state, op):
        name, depth = op.args
        out = io.StringIO()
        code = state["lib"].cli.main(
            ["suite", "--gallery", name, "--depth", str(depth),
             "--word-len", str(self.word_len)], stream=out)
        return code, out.getvalue()

    def key(self, result):
        return result

    def check(self, state, op, result):
        name, depth = op.args
        code, text = result
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        m = self.violations_re.search(text)
        if m is None or int(m.group(1)) != 0:
            problems.append("suite summary does not report 0 violations")
        if depth == 4 and text != state["golden"][name]:
            problems.append("depth-4 report differs from tests/golden")
        return problems

    def report(self, state, ops, latencies, work_s):
        return {"suite_s": (work_s, "s", f"sum of {len(ops)} grid cells")}


# ---------------------------------------------------------------------------
# queries: hot windows, many order/path queries


class Queries:
    """ZIGZAG, COMB and SWAP windows built once at depth 64, then a seeded
    mix of near compare(p, g.p), far compare and far path queries.  Pure
    ``paths``; per-query cost against depth shows."""

    name = "queries"
    reference_runs = 3
    models = ("ZIGZAG", "COMB", "SWAP")
    depth = 64
    per_model = {"near": 72, "far": 36, "path": 36}    # 432 queries in all
    check_share = 0.1

    def setup(self, lib, seed):
        windows = {}
        for name in self.models:
            spec = lib.gallery.gallery(name).spec
            trunc = spec.window(self.depth)
            report = lib.core.cached_validation(trunc)
            if not report.valid:
                raise RuntimeError(f"{name} window at depth {self.depth} is invalid")
            gen = lib.action.Word.generator(sorted(spec.generators)[0])
            pts = lib.action.canonical_points(trunc)
            # lazy per-window state (indexes, caches) is set-up, not query cost
            lib.paths.compare(trunc, pts[0], pts[-1])
            lib.paths.path(trunc, pts[0], pts[-1])
            windows[name] = (spec, trunc, gen, pts)
        return {"lib": lib, "windows": windows}

    def inputs(self, state, rng):
        """A fixed count per model and kind, with points drawn one per
        stratum of the window's point list (Latin hypercube), so seeds
        differ in the points drawn but not in how the window is covered."""
        lib = state["lib"]
        ops = []
        for name in self.models:
            spec, trunc, gen, pts = state["windows"][name]
            for kind, count in self.per_model.items():
                xs = _stratified(rng, pts, count)
                if kind == "near":
                    ys = [lib.action.act(spec, gen, x) for x in xs]
                    pairs = [(x, y) for x, y in zip(xs, ys) if trunc.contains_point(y)]
                    while len(pairs) < count:       # images that left the window
                        x = pts[rng.randrange(len(pts))]
                        y = lib.action.act(spec, gen, x)
                        if trunc.contains_point(y):
                            pairs.append((x, y))
                else:
                    pairs = list(zip(xs, _stratified(rng, pts, count)))
                ops += [Op(f"{kind} {name} {x} {y}", (kind, name, x, y),
                           in_subset=rng.random() < self.check_share) for x, y in pairs]
        rng.shuffle(ops)
        return ops

    def run(self, state, op):
        kind, name, x, y = op.args
        trunc = state["windows"][name][1]
        paths = state["lib"].paths
        if kind == "path":
            return paths.path(trunc, x, y)
        return paths.compare(trunc, x, y)

    def key(self, result):
        return result

    def check(self, state, op, result):
        kind, name, x, y = op.args
        lib = state["lib"]
        spec, trunc, gen, _ = state["windows"][name]
        paths, C = lib.paths, lib.paths.Comparability
        expected_type = paths.Path if kind == "path" else C
        if not isinstance(result, expected_type):
            return [f"returned {type(result).__name__}"]
        if not op.in_subset:
            return []
        problems = []
        rel = paths.compare(trunc, x, y)
        mirror = {C.LESS: C.GREATER, C.GREATER: C.LESS}.get(rel, rel)
        if paths.compare(trunc, y, x) is not mirror:
            problems.append("compare is not antisymmetric")
        try:
            forward = paths.path(trunc, x, y)
        except lib.core.TruncatedError:
            forward = None
        if forward is not None and paths.path(trunc, y, x) != forward.reverse():
            problems.append("path(y, x) is not path(x, y) reversed")
        if rel is C.TRUNCATED:
            agrees = forward is None
        elif forward is None:
            agrees = False
        elif x == y:
            agrees = rel is C.EQUAL
        elif forward.length > 1:
            agrees = rel is C.INCOMPARABLE
        else:
            ascending = forward.intervals[0].direction == paths.ASC
            agrees = rel is (C.LESS if ascending else C.GREATER)
        if not agrees:
            problems.append(f"compare {rel} disagrees with path")
        gx, gy = lib.action.act(spec, gen, x), lib.action.act(spec, gen, y)
        if trunc.contains_point(gx) and trunc.contains_point(gy):
            moved = paths.compare(trunc, gx, gy)
            if C.TRUNCATED not in (rel, moved) and moved is not rel:
                problems.append(f"compare not equivariant under {gen}: {rel} vs {moved}")
        return problems

    def report(self, state, ops, latencies, work_s):
        lat = sorted(latencies)
        n = len(lat)
        return {
            "query_p50_us": (percentile(lat, 50) * 1e6, "us", f"n={n} queries"),
            "query_p99_us": (percentile(lat, 99) * 1e6, "us", _tail_note(n, 99)),
            "queries_per_s": (n / work_s, "1/s", f"{n} queries in {work_s:.4f} s"),
        }


# ---------------------------------------------------------------------------
# cold_models: many fresh small models through the text format


class ColdModels:
    """Seeded ``random_spec`` finite models (a quarter ``symmetric``),
    each through emit -> parse -> expand(0) -> validate and a handful of
    queries.  Per-window set-up dominates; the only user of ``formats``."""

    name = "cold_models"
    reference_runs = 1
    n_models = 360
    n_compare = 4
    n_path = 2
    # (loci, locus size) of each model in turn, so every seed builds the
    # same mix of sizes; a symmetric model uses only the size
    shapes = [(loci, size) for loci in (1, 2, 3) for size in (2, 3, 4)]

    def setup(self, lib, seed):
        rng = random.Random(seed)
        specs = []
        for i in range(self.n_models):
            loci, size = self.shapes[i % len(self.shapes)]
            params = lib.randspec.RandomParams(
                seed=rng.randrange(1 << 30), locus_count=(loci, loci),
                locus_size=(size, size), symmetric=i % 4 == 3)
            specs.append(lib.randspec.random_spec(params))
        return {"lib": lib, "specs": specs}

    def inputs(self, state, rng):
        lib = state["lib"]
        ops = []
        for i, spec in enumerate(state["specs"]):
            pts = lib.action.canonical_points(lib.core.expand(spec, 0))
            pairs = tuple((pts[rng.randrange(len(pts))], pts[rng.randrange(len(pts))])
                          for _ in range(self.n_compare + self.n_path))
            ops.append(Op(f"model {i}", (i, pairs)))
        return ops

    def run(self, state, op):
        i, pairs = op.args
        lib = state["lib"]
        doc = lib.formats.emit(state["specs"][i])
        spec = lib.formats.parse(doc)
        trunc = lib.core.expand(spec, 0)
        valid = lib.core.validate(trunc).valid
        answers = [lib.paths.compare(trunc, x, y) for x, y in pairs[:self.n_compare]]
        answers += [lib.paths.path(trunc, x, y) for x, y in pairs[self.n_compare:]]
        return doc, spec, valid, tuple(answers)

    def key(self, result):
        doc, _spec, valid, answers = result
        return doc, valid, answers

    def check(self, state, op, result):
        import bruteforce       # imported here: it must bind the run's leafspace modules
        _, pairs = op.args
        doc, spec, valid, answers = result
        lib = state["lib"]
        problems = []
        if not valid:
            problems.append("random model failed validation")
        if lib.formats.emit(spec) != doc:
            problems.append("emit(parse(doc)) != doc")
        oracle = bruteforce.Oracle(spec)
        for (x, y), got in zip(pairs[:self.n_compare], answers):
            want = oracle.compare(x, y)
            if got.value != want:
                problems.append(f"compare {x} {y}: {got.value}, oracle {want}")
        for (x, y), got in zip(pairs[self.n_compare:], answers[self.n_compare:]):
            intervals, junctions = oracle.path(x, y)
            mine_iv = [(iv.start, iv.end, iv.direction) for iv in got.intervals]
            mine_j = [(j.arrive, j.depart, frozenset(j.locus.members)) for j in got.junctions]
            if mine_iv != intervals or mine_j != [(a, d, frozenset(m)) for a, d, m in junctions]:
                problems.append(f"path {x} {y} disagrees with the oracle")
        return problems

    def report(self, state, ops, latencies, work_s):
        lat = sorted(latencies)
        n = len(lat)
        return {
            "models_per_s": (n / work_s, "1/s", f"{n} models in {work_s:.4f} s"),
            "model_p99_ms": (percentile(lat, 99) * 1e3, "ms", _tail_note(n, 99)),
        }


# ---------------------------------------------------------------------------
# group_ball: word enumeration on a two-generator model


class GroupBall:
    """SWAP plus a commuting shift k, built through LeafSpaceSpec; the
    stabilizer ball, fix propagation and faithfulness at radius 8, depth 4.
    The only workload bound by ``action`` word enumeration (Z^2 acts, so
    13,121 reduced words name 145 elements)."""

    name = "group_ball"
    reference_runs = 15
    radius = 8
    depth = 4
    elements = 145          # |{(x, y) in Z^2 : |x| + |y| <= 8}|

    def setup(self, lib, seed):
        core = lib.core
        spec = core.LeafSpaceSpec()
        spec.add_vertex("a")
        spec.add_vertex("b")
        spec.add_glued_chain("s", glue=-1, neg=core.ChainEndRule("limit", ("a", "b")),
                             pos=core.ChainEndRule("open"))
        spec.add_glued_chain("ra", glue=1, neg=core.ChainEndRule("limit", ("a",)),
                             pos=core.ChainEndRule("open"))
        spec.add_glued_chain("rb", glue=1, neg=core.ChainEndRule("limit", ("b",)),
                             pos=core.ChainEndRule("open"))
        spec.add_generator("g", {"s": ("s", -1), "ra": ("rb", 0), "rb": ("ra", -1),
                                 "a": ("b", 0), "b": ("a", 0)})
        spec.add_generator("k", {"s": ("s", -1), "ra": ("ra", -1), "rb": ("rb", -1),
                                 "a": ("a", 0), "b": ("b", 0)})
        locus = core.branch_loci(spec.window(self.depth))[0]
        return {"lib": lib, "spec": spec, "locus": locus, "verdicts": {}}

    def inputs(self, state, rng):
        calls = ["stabilizer_ball", "check_fix_propagation", "check_faithfulness"]
        rng.shuffle(calls)
        return [Op(c, c) for c in calls]

    def run(self, state, op):
        ck = state["lib"].checkers
        spec, locus = state["spec"], state["locus"]
        if op.args == "stabilizer_ball":
            return ck.stabilizer_ball(spec, locus, self.radius, self.depth)
        if op.args == "check_fix_propagation":
            return ck.check_fix_propagation(spec, locus, self.radius, self.depth)
        return ck.check_faithfulness(spec, self.radius, self.depth)

    def key(self, result):
        return result

    def check(self, state, op, result):
        lib, spec = state["lib"], state["spec"]
        action = lib.action
        if op.args == "stabilizer_ball":
            members = state["locus"].members
            problems = [f"{w} does not fix the locus" for w in result.members
                        if action.act_locus(spec, w, members) != members][:3]
            distinct = len({action.fingerprint(spec, w) for w in result.members})
            if distinct != self.elements:
                problems.append(f"{distinct} distinct elements, expected {self.elements}")
            return problems
        state["verdicts"][op.args] = result.verdict
        if op.args == "check_fix_propagation":
            return [] if result.verdict == "pass" else [f"verdict {result.verdict}"]
        # the faithfulness verdict is reported, not asserted; a witness must replay
        if result.verdict == "violation":
            word = action.Word.parse(dict(result.witness)["word"])
            if not action.is_identity_action(spec, word):
                return [f"witness {word} does not act as the identity"]
            state["verdicts"][op.args] += f" (witness {word})"
        return []

    def report(self, state, ops, latencies, work_s):
        out = {"ball_s": (work_s, "s", "stabilizer_ball + fix_propagation + faithfulness")}
        for name, verdict in sorted(state["verdicts"].items()):
            out[f"{name}.verdict"] = (verdict, "", "")
        return out


WORKLOADS = {w.name: w for w in (Suite(), Queries(), ColdModels(), GroupBall())}


def _stratified(rng, items, count):
    """One uniformly drawn item from each of ``count`` equal strata of
    ``items``, in random order."""
    picks = [items[(k * len(items) + rng.randrange(len(items))) // count]
             for k in range(count)]
    rng.shuffle(picks)
    return picks


def _rank(n, pct):
    return max(1, -(-n * pct // 100))


def _tail_note(n, pct):
    return f"n={n}, {n - _rank(n, pct)} samples above it"


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(len(sorted_values), pct) - 1]
