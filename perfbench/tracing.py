"""Instrumentation around leafspace's public functions, from outside.

No file of the library changes.  A wrapper replaces a public function of
a layer module in every ``leafspace`` module namespace that holds it (and
in module-level dicts such as the CLI's checker table), so a call from a
checker into ``action`` and on into ``paths`` is caught at every
boundary; ``uninstall`` restores the originals.

``Tracer`` records a span per call of every public function, in flat
in-memory arrays (name, start, end, parent span, operation id), and
writes them out when the run ends.
"""

from __future__ import annotations

import gzip
import inspect
import time
from array import array

LAYERS = ("core", "formats", "paths", "action", "checkers", "cli")
NO_PARENT = -1
NESTED = 1 << 20            # name-id flag: a span inside a span of the same name


def public_functions(lib):
    """original function -> qualified name, for every public function
    defined in a layer module, plus Truncation.cell_neighbors."""
    targets = {}
    for layer in LAYERS:
        module = getattr(lib, layer)
        for key, value in vars(module).items():
            if (not key.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                targets[value] = f"{layer}.{key}"
    targets[lib.core.Truncation.__dict__["cell_neighbors"]] = "core.cell_neighbors"
    return targets


class Patches:
    """Every place in the leafspace modules that holds one of the given
    functions: module globals, module-level dicts, and the Truncation
    class for its method."""

    def __init__(self, lib, wrappers):
        self.entries = []           # (namespace, key, original, wrapper)
        for m in lib.modules:
            ns = vars(getattr(lib, m))
            for key, value in list(ns.items()):
                if inspect.isfunction(value) and value in wrappers:
                    self.entries.append((ns, key, value, wrappers[value]))
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if inspect.isfunction(v) and v in wrappers:
                            self.entries.append((value, k, v, wrappers[v]))
        truncation = lib.core.Truncation
        method = truncation.__dict__["cell_neighbors"]
        if method in wrappers:
            self.entries.append((_ClassAttrs(truncation), "cell_neighbors",
                                 method, wrappers[method]))

    def install(self):
        for ns, key, _original, wrapper in self.entries:
            ns[key] = wrapper

    def uninstall(self):
        for ns, key, original, _wrapper in self.entries:
            ns[key] = original


class Tracer:
    def __init__(self, lib, hooks=None):
        self.hooks = hooks or {}
        self.names = []
        self.name_ids = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [NO_PARENT]
        self.active = []
        self.op = -1
        wrappers = {fn: self._wrap(name, fn) for fn, name in public_functions(lib).items()}
        self.patches = Patches(lib, wrappers)

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return self.name_ids[name]

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end = self.span_start, self.span_end
        stack, active = self.stack, self.active
        tracer = self
        hook = self.hooks.get(name)

        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid | NESTED if active[nid] else nid)
            span_parent.append(stack[-1])
            span_op.append(tracer.op)
            span_start.append(0)
            span_end.append(0)
            stack.append(idx)
            active[nid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[nid] -= 1
                stack.pop()
                span_start[idx] = start
                span_end[idx] = end
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- span bookkeeping --------------------------------------------------

    def mark(self):
        return len(self.span_name)

    def drop_since(self, mark):
        """Forget spans recorded after ``mark`` (repeat runs are traced
        for their overhead but counted once)."""
        for arr in (self.span_name, self.span_parent, self.span_op,
                    self.span_start, self.span_end):
            del arr[mark:]

    def summary(self):
        """Per qualified name: calls, total ms (outermost spans only) and
        self ms (duration minus direct child spans)."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p != NO_PARENT:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for name in self.names}
        for i in range(n):
            raw = self.span_name[i]
            row = out[self.names[raw & ~NESTED]]
            row["calls"] += 1
            row["self_ms"] += (dur[i] - child[i]) / 1e6
            if not raw & NESTED:
                row["total_ms"] += dur[i] / 1e6
        return out

    def write(self, path):
        """Spans as gzipped TSV: id, name, start_ns, end_ns, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.names[self.span_name[i] & ~NESTED]}\t"
                         f"{self.span_start[i]}\t{self.span_end[i]}\t"
                         f"{self.span_parent[i]}\t{self.span_op[i]}\n")


class _ClassAttrs:
    """Item access onto a class's attributes, so methods patch like
    namespace entries."""

    def __init__(self, cls):
        self.cls = cls

    def __setitem__(self, key, value):
        setattr(self.cls, key, value)
