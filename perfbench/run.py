"""leafspace benchmark: one command for every workload.

    python3 perfbench/run.py --workload suite|queries|cold_models|group_ball \\
        --seed N --seconds S --trace 0|1

Run it from the root of a leafspace checkout: the library is imported
from ``src/``, the brute-force oracle from ``tests/bruteforce.py`` and the
golden suite reports from ``tests/golden/``.  The named figures of the
workload are printed first, one per line with unit and sample count; the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every correctness check passed.

Timing.  The seeded operation list runs in rounds, every operation once
per round, until ``--seconds`` have passed.  Round 1 warms up and checks
each result; every later round must reproduce it.  Each timed run of an
operation sits between two readings of a fixed reference computation
(``pace.py``; a reading is the median of the workload's
``reference_runs`` runs of it), and its time is scaled by the
reference's nominal time over the mean of the two readings, so a slow
spell of the shared host does not read as slow code.  An operation's latency is the
median of its scaled runs after the first.  The end-to-end metrics
(``--trace 0``) are:

  setup_s      median of 12 set-ups, each in a fresh process spread over
               the run, scaled the same way: from process start
               (interpreter start-up, import of leafspace, the
               workload's model and window construction) to the moment
               the first operation could start
  peak_rss_mb  high-water resident set size of this process, which sets
               up once and runs every operation
  work_s       sum of the per-operation latencies: one full pass of work
  op_p50_ms    median per-operation latency
  op_p95_ms    95th percentile (nearest rank) per-operation latency

The unscaled figures are printed beside them.  ``--trace 1`` instead
alternates untraced and traced runs of every operation, reports
per-layer figures from the spans of the first traced run (plus the
traced set-up), the depth-growth probe, and the tracing overhead as
traced minus untraced time.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import pace  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, percentile  # noqa: E402

SETUP_CHILDREN = 12
SETUP_REFERENCE_RUNS = 9
CHILD_TIMEOUT_S = 120
MODULES = ("core", "formats", "paths", "action", "checkers", "cli", "gallery", "randspec")
REQUIRED = ("src/leafspace/__init__.py", "tests/bruteforce.py", "tests/golden")


def load_library():
    package = importlib.import_module("leafspace")
    if Path(package.__file__).resolve().parent != ROOT / "src" / "leafspace":
        raise SystemExit(f"error: imported leafspace from {package.__file__}, not this checkout")
    mods = {m: importlib.import_module(f"leafspace.{m}") for m in MODULES}
    return SimpleNamespace(leafspace=package, modules=("leafspace",) + MODULES, **mods)


def setup_child(workload, seed):
    """Body of a set-up process: set up, then print the monotonic clock
    (system-wide, so the parent can subtract its own reading) and leave
    without tearing the state down."""
    workload.setup(load_library(), seed)
    sys.stdout.write(f"{time.perf_counter()!r}\n")
    sys.stdout.flush()
    os._exit(0)


def timed_setup(workload, seed):
    """Seconds from starting a fresh set-up process to its first
    operation being able to start: (measured, scaled)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
           "--seed", str(seed), "--seconds", "0", "--setup-child"]
    before = pace.reference_s(SETUP_REFERENCE_RUNS)
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{done.stderr}")
    elapsed = float(done.stdout.split()[-1]) - start
    return elapsed, scale(elapsed, before, pace.reference_s(SETUP_REFERENCE_RUNS))


def scale(elapsed, ref_before, ref_after):
    return elapsed * pace.NOMINAL_S * 2 / (ref_before + ref_after)


class Measurement:
    """Runs operations and keeps, per operation, its scaled and measured
    run times, its first result, and the count of failed runs."""

    def __init__(self, workload, state, ops):
        self.wl, self.state, self.ops = workload, state, ops
        n = len(ops)
        self.scaled = [[] for _ in range(n)]
        self.measured = [[] for _ in range(n)]
        self.first = [None] * n
        self.runs = [0] * n
        self.failed_ops = set()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.refs = []
        self.ref = None     # the latest reference time, if nothing ran since

    def stale(self):
        """Something other than an operation ran since the last reference."""
        self.ref = None

    def execute(self, i, scaled=None):
        """One timed run of operation i between two reference runs; checks
        it outside the timing."""
        scaled = self.scaled if scaled is None else scaled
        reading = self.wl.reference_runs
        before = pace.reference_s(reading) if self.ref is None else self.ref
        op = self.ops[i]
        start = time.perf_counter()
        try:
            result = self.wl.run(self.state, op)
            error = None
        except Exception as exc:        # a raised exception is a failed operation
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.ref = after = pace.reference_s(reading)
        self.refs.append(after)
        self.attempted += 1
        if self.runs[i] == 0:
            self.stale()                # the first run's check is long
        problems = [error] if error else self._check(i, result)
        if problems:
            self.failed += 1
            self.failed_ops.add(i)
            self.problems.extend(f"{op.label}: {p}" for p in problems)
            return
        scaled[i].append(scale(elapsed, before, after))
        if scaled is self.scaled:
            self.measured[i].append(elapsed)

    def _check(self, i, result):
        try:
            key = self.wl.key(result)
            if self.runs[i] == 0:
                self.first[i] = key
                return self.wl.check(self.state, self.ops[i], result)
            if key != self.first[i]:
                return ["a repeat returned a different result"]
            return []
        except Exception as exc:        # a check that crashes counts as failed
            return [f"check raised {type(exc).__name__}: {exc}"]
        finally:
            self.runs[i] += 1

    def latencies(self, samples=None):
        """Per operation: the median of its runs after the first (the
        warm-up), or inf if any run failed."""
        samples = self.scaled if samples is None else samples
        return [math.inf if i in self.failed_ops or not s else statistics.median(s[1:] or s)
                for i, s in enumerate(samples)]


def run_rounds(meas, deadline, one_run, idle):
    """Round 1 runs every operation once.  Later rounds repeat every
    operation that has not failed, in the same order, until the
    deadline."""
    first = True
    while first or time.perf_counter() < deadline:
        for i in range(len(meas.ops)):
            if not first and (i in meas.failed_ops or time.perf_counter() >= deadline):
                continue
            one_run(i)
            idle()
        if first:
            gc.collect()
            meas.stale()
            first = False


def finite(value):
    return value if math.isfinite(value) else None


def emit_result(correct, meas, metrics):
    print(json.dumps({
        "correct": correct,
        "attempted": meas.attempted,
        "failed": meas.failed,
        "metrics": {k: {"value": finite(v), "unit": u} for k, (v, u) in metrics.items()},
    }))


def print_lines(rows):
    for name, (value, unit, note) in rows.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:<40} {shown:>14} {unit:<6} {note}".rstrip())


def report_problems(meas):
    for line in meas.problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if len(meas.problems) > 20:
        print(f"... {len(meas.problems) - 20} more failures", file=sys.stderr)


def untraced(workload, seed, seconds):
    """The end-to-end run.  This process sets up once and runs the
    operations; the timed set-ups run in fresh processes, spread evenly
    over the run."""
    start = time.perf_counter()
    lib = load_library()
    state = workload.setup(lib, seed)
    ops = workload.inputs(state, random.Random(seed))
    setups = []

    def idle():
        due = start + seconds * len(setups) / SETUP_CHILDREN
        if len(setups) < SETUP_CHILDREN and time.perf_counter() >= due:
            setups.append(timed_setup(workload, seed))
            meas.stale()

    gc.collect()
    meas = Measurement(workload, state, ops)
    run_rounds(meas, start + seconds, meas.execute, idle)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) < SETUP_CHILDREN:
        setups.append(timed_setup(workload, seed))

    lat = sorted(meas.latencies())
    raw = sorted(meas.latencies(meas.measured))
    work_s = sum(lat)
    runs = sorted(meas.runs)
    setup_s = statistics.median(s for _, s in setups)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "work_s": (work_s, "s"),
        "op_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "op_p95_ms": (percentile(lat, 95) * 1e3, "ms"),
    }
    rows = {
        "setup_s": (setup_s, "s", f"median of {SETUP_CHILDREN} set-up processes "
                                  f"(measured {statistics.median(m for m, _ in setups):.4f} s)"),
        "peak_rss_mb": (peak_rss_mb, "MB", ""),
    }
    if meas.failed == 0:
        rows.update(workload.report(state, ops, lat, work_s))
    rows.update({
        "work_s": (work_s, "s", f"{len(ops)} operations, each the median of "
                                f"{runs[0] - 1}..{runs[-1] - 1} runs after a warm-up "
                                f"(measured {sum(raw):.4f} s)"),
        "op_p50_ms": (metrics["op_p50_ms"][0], "ms",
                      f"n={len(lat)} (measured {percentile(raw, 50) * 1e3:.4f} ms)"),
        "op_p95_ms": (metrics["op_p95_ms"][0], "ms",
                      f"n={len(lat)} (measured {percentile(raw, 95) * 1e3:.4f} ms)"),
        "fail_ratio": (meas.failed / meas.attempted, "",
                       f"{meas.failed} failed of {meas.attempted} attempted"),
        "reference_ms": (statistics.median(meas.refs) * 1e3, "ms",
                         f"median of {len(meas.refs)} reference runs; "
                         f"nominal {pace.NOMINAL_S * 1e3:g} ms"),
    })
    return meas, metrics, rows


def traced(workload, seed, seconds):
    """The per-layer run: every operation alternately untraced and traced."""
    start = time.perf_counter()
    lib = load_library()
    probe = layers.Counters(lib)
    tracer = Tracer(lib, probe.hooks)
    tracer.patches.install()
    state = workload.setup(lib, seed)
    tracer.patches.uninstall()
    ops = workload.inputs(state, random.Random(seed))
    gc.collect()
    meas = Measurement(workload, state, ops)
    scaled_traced = [[] for _ in ops]
    traced_runs = [0] * len(ops)

    def both(i):
        # alternate which run goes first, so neither always meets warm caches
        order = (False, True) if traced_runs[i] % 2 == 0 else (True, False)
        for with_trace in order:
            if not with_trace:
                meas.execute(i)
                continue
            mark = tracer.mark()
            probe.counting = traced_runs[i] == 0
            tracer.op = i
            tracer.patches.install()
            try:
                meas.execute(i, scaled_traced)
            finally:
                tracer.patches.uninstall()
                probe.counting = False
            if traced_runs[i]:
                tracer.drop_since(mark)
            traced_runs[i] += 1

    run_rounds(meas, start + seconds, both, idle=lambda: None)
    growth = layers.depth_growth(lib)
    spans_file = HERE / "out" / f"trace-{workload.name}-seed{seed}.tsv.gz"
    tracer.write(spans_file)
    metrics = layers.per_layer(tracer.summary(), probe, growth,
                               untraced_s=sum(meas.latencies()),
                               traced_s=sum(meas.latencies(scaled_traced)),
                               spans=tracer.mark())
    rows = {k: (v, u, "") for k, (v, u) in metrics.items()}
    rows["trace.spans_file"] = (str(spans_file.relative_to(ROOT)), "", "")
    return meas, metrics, rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a leafspace checkout (missing {', '.join(missing)}); "
              f"run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(ROOT / "tests"))

    workload = WORKLOADS[args.workload]
    if args.setup_child:
        setup_child(workload, args.seed)
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    run = traced if args.trace else untraced
    meas, metrics, rows = run(workload, args.seed, args.seconds)
    print_lines(rows)
    report_problems(meas)
    correct = meas.failed == 0
    emit_result(correct, meas, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
