"""Spans for traced benchmark repetitions, and self-time attribution.

The child process wraps pdqw functions at the module attributes their
callers look up, so the program under test carries no tracing code. Each
call becomes a span (id, parent, name, thread, start, end, attrs) kept in
memory and written out when the repetition ends. A span's layer is the
prefix of its name, which is the pdqw module doing the work.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

# (module, attribute, span name). Each wrapped name is the one a caller
# looks up at call time, so wrapping it catches every call from that caller.
WRAPPED = [
    ("pdqw.cli", "load_config", "config.load_config"),
    ("pdqw.cli", "run_ensemble", "ensemble.run_ensemble"),
    ("pdqw.ensemble", "run_ensemble", "ensemble.run_ensemble"),
    ("pdqw.cli", "similarity_scan", "ensemble.similarity_scan"),
    # Private, but it is the unit of work a pool thread runs: without it the
    # kernel time of concurrent chunks could not be told from the sampling
    # spans they contain.
    ("pdqw.ensemble", "_simulate_chunk", "ensemble.simulate_chunk"),
    ("pdqw.ensemble", "generate_phase_map", "disorder.generate_phase_map"),
    ("pdqw.two_photon", "generate_phase_map", "disorder.generate_phase_map"),
    ("pdqw.ensemble", "evolve", "walk_core.evolve"),
    ("pdqw.ensemble", "similarity", "analysis.similarity"),
    ("pdqw.cli", "crossing_point", "analysis.crossing_point"),
    ("pdqw.cli", "run_pair_ensemble", "two_photon.run_pair_ensemble"),
    ("pdqw.two_photon", "two_photon_mode_distribution", "two_photon.pair_distribution"),
    ("pdqw.two_photon", "site_coincidences", "two_photon.site_coincidences"),
    ("pdqw.two_photon", "variance2", "two_photon.variance2"),
]

# Generators get one span per yielded item, so consumer work between
# items stays outside the span.
WRAPPED_GENERATORS = [
    ("pdqw.two_photon", "mode_unitary_steps", "walk_core.mode_unitary_step"),
]

ROOT_NAME = "cli.main"


def _call_attrs(name: str, args: tuple, kwargs: dict):
    """Work sizes read off the call's arguments, for the computed counts."""
    if name == "ensemble.run_ensemble":
        spec = kwargs.get("spec", args[0] if args else None)
        maps = kwargs.get("n_maps", args[2] if len(args) > 2 else None)
        return {"maps": maps, "steps": spec.steps}
    if name == "two_photon.run_pair_ensemble":
        return {"maps": kwargs.get("n_maps", args[2] if len(args) > 2 else None)}
    if name == "walk_core.mode_unitary_step":
        return {"n_max": kwargs.get("n_max", args[0] if args else None)}
    return None


class Tracer:
    """Records spans from any thread into one in-memory list.

    Create it on the main thread. A pool thread starts with an empty stack;
    its spans get the main thread's innermost open span as parent, which is
    the call waiting on the pool.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = 0
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent, time.perf_counter()

    def _close(self, opened, name: str, attrs) -> None:
        end = time.perf_counter()
        stack, sid, parent, start = opened
        stack.pop()
        self.spans.append((sid, parent, name, threading.get_ident(), start, end, attrs))

    def call(self, name: str, fn, *args, **kwargs):
        attrs = _call_attrs(name, args, kwargs)
        opened = self._open()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(opened, name, attrs)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def wrap_generator(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = _call_attrs(name, args, kwargs)
            items = fn(*args, **kwargs)
            while True:
                opened = self._open()
                try:
                    item = next(items)
                except StopIteration:
                    opened[0].pop()  # the exhausted call yields nothing: no span
                    return
                except BaseException:
                    self._close(opened, name, attrs)
                    raise
                self._close(opened, name, attrs)
                yield item
        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every listed function that exists; return the names missing."""
    missing = []
    for table, wrapper in ((WRAPPED, tracer.wrap), (WRAPPED_GENERATORS, tracer.wrap_generator)):
        for module_name, attr, span_name in table:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, wrapper(fn, span_name))
    return missing


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> dict[int, float]:
    """Self time of every span, by span id.

    At each instant the elapsed time goes, in equal shares, to the open
    spans that have no open child. For spans on one thread this is a span's
    duration minus the part of it its children cover; spans that overlap on
    pool threads split the interval they share. The self times therefore
    add up to the root span's duration.
    """
    parent = {}
    events = []
    for sid, par, _name, _thread, start, end, _attrs in spans:
        if end <= start:
            continue
        parent[sid] = par
        events.append((start, 1, sid))
        events.append((end, 0, sid))
    events.sort()
    open_children: dict[int, int] = defaultdict(int)
    is_open: set[int] = set()
    leaves: set[int] = set()
    own: dict[int, float] = defaultdict(float)
    last = events[0][0] if events else 0.0
    for t, starting, sid in events:
        if leaves:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        last = t
        par = parent[sid]
        if starting:
            is_open.add(sid)
            leaves.add(sid)
            if par in is_open:
                open_children[par] += 1
                leaves.discard(par)
        else:
            is_open.discard(sid)
            leaves.discard(sid)
            if par in is_open:
                open_children[par] -= 1
                if open_children[par] == 0:
                    leaves.add(par)
    return own
