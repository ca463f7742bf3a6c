"""Outside-in tracing of gaugesim's public functions.

``Tracer.install`` wraps every public function of the traced modules and
rebinds the wrapper in every ``gaugesim.*`` namespace that holds the
original (``from``-imports bind copies, e.g. ``gaugesim.vqe.ansatz_state``).
Spans are kept in memory as (name, start, end, parent, op) tuples; a span's
self time is its duration minus the durations of its direct children.
Nothing under ``src/`` is modified; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time

TRACED_MODULES = ("cli", "hamiltonians", "basis", "operators", "circuits", "vqe", "evolution", "analytic")


def public_functions(module) -> dict:
    """Functions a module defines and exports (``__all__``, else no leading underscore).

    ``cli.cmd_*`` are left out: they are reached through ``cli._COMMANDS``,
    which holds the originals, so the op span is ``cli.main`` instead.
    """
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not (module.__name__.endswith(".cli") and name.startswith("cmd_"))):
            out[name] = obj
    return out


def _split_default(qualname, fn):
    """Default ``method`` of a function whose spans are split by method, else None."""
    if qualname != "evolution.transition_series":
        return None
    return inspect.signature(fn).parameters["method"].default


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.counters = {}
        self._stack = []
        self._op = -1
        self._patched = []  # (namespace, attribute, original)

    def wrap(self, qualname, fn):
        split = _split_default(qualname, fn)
        spans, stack, clock, counters = self.spans, self._stack, self.clock, self.counters
        is_decompose = qualname == "evolution.pauli_decompose"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                self._op += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                name = qualname
                if split is not None:
                    name += "." + kwargs.get("method", args[4] if len(args) > 4 else split)
                spans[idx] = (name, start, end, parent, self._op)
            if is_decompose:
                counters["evolution.pauli_terms"] = counters.get("evolution.pauli_terms", 0) + len(result.terms)
            return result

        return traced

    def install(self):
        """Wrap each public function and rebind it wherever gaugesim holds it."""
        originals = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"gaugesim.{short}"]
            for name, fn in public_functions(module).items():
                originals[id(fn)] = (fn, self.wrap(f"{short}.{name}", fn))
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "gaugesim" or n.startswith("gaugesim."))]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    self._patched.append((ns, attr, value))

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        """Write the spans as gzipped CSV: name,start,end,parent,op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")


def aggregate(spans) -> dict:
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the summed durations of its direct
    children; calls run on one thread, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - child_time[i]
    return stats
