"""Spans around the public functions of each ``mapda`` layer, from outside.

Nothing in the package is edited: ``install`` rebinds every public
function of ``arrays``, ``engine``, ``linalg`` and ``metrics`` at each name
a caller looks it up by (so ``engine.solve`` is wrapped as well as
``linalg.solve``), plus ``Mapda.profile``, ``Mapda.slot_cells`` and
``cli.main``.  ``count_ops`` is never wrapped: its blocks do not nest, so a
wrapper opening one would hide counts from the program's own report.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("arrays", "engine", "linalg", "metrics")
NOT_WRAPPED = {"count_ops"}


class Tracer:
    """In-memory spans: (name, start, end, parent index, request id)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)

        return traced

    def self_times(self):
        """Yield (name, self seconds, request id) per span; self time is the
        span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, request) in enumerate(self.spans):
            yield name, end - start - child[i], request

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, request in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "request": request}
                    )
                    + "\n"
                )


def install(tracer, package):
    """Wrap the layers of an imported ``mapda`` package; returns an undo
    callable that restores every rebound name."""
    modules = [package] + [getattr(package, n) for n in ("cli",) + LAYERS]
    undo = []

    def rebind(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for layer in LAYERS:
        module = getattr(package, layer)
        for attr, fn in list(vars(module).items()):
            if (
                not inspect.isfunction(fn)
                or fn.__module__ != module.__name__
                or attr.startswith("_")
                or attr in NOT_WRAPPED
            ):
                continue
            traced = tracer.wrap(f"{layer}.{attr}", fn)
            for caller in modules:
                for name, value in list(vars(caller).items()):
                    if value is fn:
                        rebind(caller, name, traced)

    mapda_cls = package.arrays.Mapda
    profile = mapda_cls.__dict__["profile"]
    rebind(mapda_cls, "profile", property(tracer.wrap("arrays.profile", profile.fget)))
    rebind(mapda_cls, "slot_cells", tracer.wrap("arrays.slot_cells", mapda_cls.slot_cells))
    rebind(package.cli, "main", tracer.wrap("cli.main", package.cli.main))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def per_request(tracer):
    """{request id: {span name: [calls, self seconds]}}."""
    table = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    for name, self_s, request in tracer.self_times():
        entry = table[request][name]
        entry[0] += 1
        entry[1] += self_s
    return table
