"""Spans around hjj's public functions, recorded from outside the package.

Every public module-level function of the traced modules is wrapped, and
every binding of it in every loaded ``hjj`` module is replaced, because the
modules import by name (``from .linalg import rref``).  A span is (function,
start, end, parent); spans are kept in flat arrays while the run lasts and
written out when it ends.  A span's self time is its duration minus the
durations of its child spans (one thread, so children never overlap).

``hjj.scalars`` and the per-vector helpers in ``UNTRACED`` are not traced:
they are called per entry or per coordinate vector, a span each would cost
more than the work, and their time shows up inside their callers' self time.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import sys
import time

# The package's layers, lowest first.
MODULES = (
    "linalg",
    "algebra",
    "representations",
    "cohomology",
    "extensions",
    "metric",
    "quadratic",
    "catalog",
    "documents",
    "cli",
)

UNTRACED = frozenset(
    (
        "linalg.vec",
        "linalg.zero_vector",
        "linalg.vec_add",
        "linalg.vec_sub",
        "linalg.vec_scale",
        "linalg.vec_is_zero",
        "linalg.vec_dot",
        "linalg.poly_eval",
        "cohomology.pairs",
        "cohomology.triples",
        "cohomology.pair_index",
    )
)


class Tracer:
    def __init__(self):
        self.names = []  # name id -> "module.function"
        self.fn = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.rref_cells = 0  # summed rows x cols of rref inputs
        self._stack = [-1]
        self._rebound = []  # (module, attribute, original)

    def install(self):
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"hjj.{short}")
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_") and name not in UNTRACED:
                    wrappers[obj] = self._wrap(name, obj)
        for name, module in list(sys.modules.items()):
            if name != "hjj" and not name.startswith("hjj."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._rebound.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in self._rebound:
            setattr(module, attr, obj)
        self._rebound.clear()

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        fns, parents, starts, ends, stack = self.fn, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self
        count_cells = name == "linalg.rref"

        def wrapper(*args, **kwargs):
            if count_cells:
                tracer.rref_cells += args[0].rows * args[0].cols
            idx = len(fns)
            fns.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def totals(self):
        """{name: [calls, self_s]} and the number of isomorphism_invariants
        calls made inside catalog.match_catalog."""
        n = len(self.fn)
        fns, parents, starts, ends = self.fn, self.parent, self.start, self.end
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        stats = {name: [0, 0.0] for name in self.names}
        ids = {name: i for i, name in enumerate(self.names)}
        match_id, inv_id = ids.get("catalog.match_catalog"), ids.get("algebra.isomorphism_invariants")
        inside_match = bytearray(n)
        invariants_in_match = 0
        for i in range(n):
            row = stats[self.names[fns[i]]]
            row[0] += 1
            row[1] += ends[i] - starts[i] - child[i]
            p = parents[i]
            if fns[i] == match_id or (p >= 0 and inside_match[p]):
                inside_match[i] = 1
                invariants_in_match += fns[i] == inv_id
        return stats, invariants_in_match

    def write(self, path):
        """One line per span: function, start, end, parent index (-1: none)."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("function\tstart_s\tend_s\tparent\n")
            names, fns, parents, starts, ends = self.names, self.fn, self.parent, self.start, self.end
            for i in range(len(fns)):
                out.write(f"{names[fns[i]]}\t{starts[i]:.9f}\t{ends[i]:.9f}\t{parents[i]}\n")
