"""In-memory spans around the package's public functions.

Nothing in the package changes.  A traced function is replaced, for the
duration of a ``with`` block, in every ``thzsecmap`` module namespace that
holds it, which is where callers look it up (``secmap.min_security``,
``planner.min_reliability``, ``cli.evaluate_map``, ...).  A function that a
later version moves or deletes is simply not found; the layers built on it
are then reported absent instead of failing the run.

Forked pool workers would record spans that never come back, so traced runs
use one worker.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

PACKAGE = "thzsecmap"


def _short_circuit(args, kwargs, result):
    # min_security returns (1.0, None) without searching when L <= C_E
    return {"short_circuit": int(result[1] is None)}


def _grid_points(args, kwargs, result):
    return {"points": int(result.values.size)}


def _written_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (layer, defining module, function, observer of the call's result).  Layers
# without a metric of their own still bound their callers' self time.
LAYERS = (
    ("cli.load_config", "cli", "load_config", None),
    ("planner.plan", "planner", "plan_cell", None),
    ("planner.plan", "planner", "plan_directed", None),
    ("bounds.min_security", "bounds", "min_security", _short_circuit),
    ("bounds.min_reliability", "bounds", "min_reliability", None),
    ("linkmodel.link_budget", "linkmodel", "link_budget", None),
    ("antenna.pattern_gain", "antenna", "pattern_gain", None),
    ("geometry.offset_angle", "geometry", "offset_angle", None),
    ("geometry.grid_axes", "geometry", "grid_axes", None),
    ("geometry.build_scenario", "geometry", "build_scenario", None),
    ("secmap.evaluate_map", "secmap", "evaluate_map", _grid_points),
    ("secmap.radial_profile", "secmap", "radial_profile", None),
    ("secmap.threshold_radius", "secmap", "threshold_radius", None),
    ("secmap.sweep", "secmap", "sweep", None),
    ("secmap.write", "secmap", "write_map_csv", _written_bytes),
    ("secmap.write", "secmap", "write_map_pgm", _written_bytes),
    ("secmap.write", "secmap", "write_profile_csv", _written_bytes),
    ("secmap.write", "secmap", "write_sweep_csv", _written_bytes),
)


def find_function(module: str, name: str):
    """The package function ``module.name``, or None when it does not exist."""
    try:
        mod = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None
    func = getattr(mod, name, None)
    return func if callable(func) else None


@contextmanager
def replaced(replacements: dict):
    """Swap each original function for its replacement wherever the package holds it."""
    swapped = []
    try:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                for original, replacement in replacements.items():
                    if value is original:
                        setattr(mod, attr, replacement)
                        swapped.append((mod, attr, original))
        yield
    finally:
        for mod, attr, original in reversed(swapped):
            setattr(mod, attr, original)


class Tracer:
    """Records spans ``(id, parent, name, start, end)`` and boundary counts in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.traced: set[str] = set()
        self.missing: set[str] = set()
        self._ids = itertools.count()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, name: str, func, observe=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = func(*args, **kwargs)
            if observe is not None:
                for key, value in observe(args, kwargs, result).items():
                    tracer.counts[(name, key)] += value
            return result

        return traced

    @contextmanager
    def patched(self, layers=LAYERS):
        """Trace every layer function that exists, for the duration of the block."""
        replacements = {}
        for name, module, func_name, observe in layers:
            func = find_function(module, func_name)
            if func is None:
                self.missing.add(f"{module}.{func_name}")
                continue
            self.traced.add(name)
            replacements[func] = self.wrap(name, func, observe)
        with replaced(replacements):
            yield self

    def write(self, path) -> None:
        """Write the spans as JSON lines, after the measured work is over."""
        with open(path, "w") as f:
            for sid, parent, name, start, end in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "start_s": start, "end_s": end}))
                f.write("\n")
