"""Per-layer figures of a traced run.

Every metric here is reported on every workload; a layer a workload never
enters reads 0 calls and 0 ms (the prediction for it is "no change").
The table of which end-to-end metric each figure should move is in
perfbench/README.md.
"""

from __future__ import annotations

import time

SUITE_CHECKERS = (
    "check_lower_bound",
    "check_path_in_comparable_set",
    "check_connected_open",
    "check_odd_path",
    "check_return",
    "check_invariant_locus_stem",
    "check_fix_propagation",
    "check_faithfulness",
    "check_intermediate_fixed",
    "screen_infinite_locus",
)


class Counters:
    """Counts taken from return values at layer boundaries, during the
    traced set-up and the first traced run of each operation."""

    def __init__(self, lib):
        self.lib = lib
        self.counting = True
        self.window_cells = 0
        self.compare_truncated = 0
        self.word_lists = []        # (generators, words) per enumeration
        truncated = lib.paths.Comparability.TRUNCATED

        def on_expand(args, kwargs, trunc):
            if self.counting:
                self.window_cells += len(trunc.vertex_cells) + len(trunc.edge_cells)

        def on_compare(args, kwargs, rel):
            if self.counting and rel is truncated:
                self.compare_truncated += 1

        def on_words(args, kwargs, words):
            if self.counting:
                self.word_lists.append((args[0] if args else kwargs["names"], words))

        self.hooks = {"core.expand": on_expand, "paths.compare": on_compare,
                      "checkers.reduced_words": on_words}

    def distinct_elements(self):
        """Distinct actions among the enumerated words, by the exact
        word_map fingerprint (computed untraced, after the run)."""
        action = self.lib.action
        total = 0
        for generators, words in self.word_lists:
            if not generators:          # only the identity can be listed
                total += len(words)
                continue
            families = next(iter(generators.values())).maps
            model = _Generators(families, generators)
            total += len({action.fingerprint(model, w) for w in words})
        return total


class _Generators:
    """The two attributes word_map reads from a model."""

    def __init__(self, families, generators):
        self.families = families
        self.generators = generators


def depth_growth(lib, rounds=15):
    """Best compare latency of the same near pairs (a point at index 0 and
    its image under h) on ZIGZAG at depth 64 over depth 8."""
    spec = lib.gallery.gallery("ZIGZAG").spec
    h = lib.action.Word.generator("h")
    windows = {d: spec.window(d) for d in (8, 64)}
    pairs = []
    for name in sorted(spec.families):
        fam = spec.families[name]
        p = lib.core.vertex_point(name, 0) if fam.kind == "vertex" else lib.core.mid_point(name, 0)
        pairs.append((p, lib.action.act(spec, h, p)))
    best = {(d, k): float("inf") for d in windows for k in range(len(pairs))}
    for d, trunc in windows.items():
        lib.paths.compare(trunc, *pairs[0])          # lazy per-window state
    for _ in range(rounds):
        for d, trunc in windows.items():
            for k, (x, y) in enumerate(pairs):
                start = time.perf_counter()
                lib.paths.compare(trunc, x, y)
                best[d, k] = min(best[d, k], time.perf_counter() - start)
    per_call = {d: sum(best[d, k] for k in range(len(pairs))) / len(pairs) for d in windows}
    return per_call[8], per_call[64]


def per_layer(summary, counters, growth, untraced_s, traced_s, spans):
    def row(name):
        return summary.get(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})

    m = {}
    m["core.expand.ms"] = (row("core.expand")["total_ms"], "ms")
    m["core.validate.ms"] = (row("core.validate")["total_ms"], "ms")
    m["core.window_cells"] = (counters.window_cells, "count")
    m["core.cell_neighbors.calls"] = (row("core.cell_neighbors")["calls"], "count")
    m["core.cell_neighbors.self_ms"] = (row("core.cell_neighbors")["self_ms"], "ms")
    m["formats.parse.ms"] = (row("formats.parse")["total_ms"], "ms")
    m["formats.emit.ms"] = (row("formats.emit")["total_ms"], "ms")
    compare = row("paths.compare")
    m["paths.compare.calls"] = (compare["calls"], "count")
    m["paths.compare.self_ms"] = (compare["self_ms"], "ms")
    m["paths.compare.us_per_call"] = (
        compare["total_ms"] * 1e3 / compare["calls"] if compare["calls"] else 0.0, "us")
    m["paths.compare.truncated"] = (counters.compare_truncated, "count")
    m["paths.compare.depth_growth"] = (growth[1] / growth[0], "ratio")
    m["paths.compare.near_d8_us"] = (growth[0] * 1e6, "us")
    m["paths.compare.near_d64_us"] = (growth[1] * 1e6, "us")
    m["paths.path.calls"] = (row("paths.path")["calls"], "count")
    m["paths.path.self_ms"] = (row("paths.path")["self_ms"], "ms")
    m["action.word_map.calls"] = (row("action.word_map")["calls"], "count")
    m["action.word_map.self_ms"] = (row("action.word_map")["self_ms"], "ms")
    enumerated = sum(len(words) for _, words in counters.word_lists)
    distinct = counters.distinct_elements()
    m["action.words_enumerated"] = (enumerated, "count")
    m["action.distinct_elements"] = (distinct, "count")
    m["action.useful_word_ratio"] = (distinct / enumerated if enumerated else 0.0, "ratio")
    for name in ("in_comparable_set", "comparable_sample", "classify_element"):
        m[f"action.{name}.calls"] = (row(f"action.{name}")["calls"], "count")
        m[f"action.{name}.self_ms"] = (row(f"action.{name}")["self_ms"], "ms")
    for name in SUITE_CHECKERS + ("stabilizer_ball",):
        m[f"checkers.{name}.ms"] = (row(f"checkers.{name}")["total_ms"], "ms")
    m["cli.discover_instances.ms"] = (row("cli.discover_instances")["total_ms"], "ms")
    m["trace.untraced_work_s"] = (untraced_s, "s")
    m["trace.traced_work_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.overhead_pct"] = (100 * (traced_s - untraced_s) / untraced_s, "%")
    m["trace.spans"] = (spans, "count")
    return m
