"""Every benchmark workload still runs against the library: its set-up,
its first operations and their correctness checks, and the tracer's
install and uninstall around one suite operation."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def run():
    """``perfbench/run.py`` as a module (it puts perfbench/ on the path)."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workloads_run_and_check(run):
    lib = run.load_library()
    for name, workload in run.WORKLOADS.items():
        state = workload.setup(lib, 1)
        ops = workload.inputs(state, random.Random(1))
        assert ops, name
        for op in ops[:3]:
            result = workload.run(state, op)
            assert workload.check(state, op, result) == [], (name, op.label)


def test_tracer_installs_and_uninstalls(run):
    lib = run.load_library()
    tracing, layers = sys.modules["tracing"], sys.modules["layers"]
    original = lib.core.Truncation.__dict__["cell_neighbors"]
    tracer = tracing.Tracer(lib, layers.Counters(lib).hooks)
    suite = run.WORKLOADS["suite"]
    state = suite.setup(lib, 1)
    op = suite.inputs(state, random.Random(1))[0]
    tracer.patches.install()
    try:
        result = suite.run(state, op)
    finally:
        tracer.patches.uninstall()
    assert suite.check(state, op, result) == []
    assert tracer.summary()["cli.main"]["calls"] == 1
    assert tracer.summary()["checkers.discover_instances"]["calls"] == 1
    assert lib.core.Truncation.__dict__["cell_neighbors"] is original
    assert not hasattr(lib.cli.main, "__wrapped__")
