"""Per-layer counts and self times from a ``cProfile`` pass.

The profiler sees every call by code object, so calls through references
captured at import (``ELEMENTS_ALPHA.apply``, ``BATCHED_ALPHA.apply``,
names bound by ``from .rbtree import ...``) are counted like direct ones.

Each costglue function belongs to the layer (module) that defines it.
Methods that ``dataclasses`` generates (``__init__``, ``__eq__``,
``__repr__``, ``__hash__``) are compiled from a string, so they are
matched to their class through the class dictionaries.  Everything else
(C builtins, the standard library) has no layer of its own: its time is
given to its callers, in proportion to the time each caller spent in it,
so a layer's self time includes the builtins it calls.
"""

from __future__ import annotations

import importlib
import inspect
import os
from collections import defaultdict
from typing import Any, Dict, List

LAYERS = ("cost", "phase", "sealing", "queues", "rbtree", "sorting", "harness", "suites", "cli")
OUTSIDE = "outside"
BENCH = "bench"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _code_layers() -> Dict[Any, str]:
    """Map each costglue code object to its layer, generated methods included."""
    owner: Dict[Any, str] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"costglue.{layer}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr in vars(obj).values():
                    fn = inspect.unwrap(attr) if callable(attr) else attr
                    code = getattr(fn, "__code__", None)
                    if code is not None and code.co_filename == "<string>":
                        owner[code] = layer
    return owner


def _layer_of(code: Any, generated: Dict[Any, str], package_dir: str) -> str:
    if isinstance(code, str):
        return OUTSIDE
    if code in generated:
        return generated[code]
    directory = os.path.dirname(os.path.abspath(code.co_filename))
    if directory == package_dir:
        return os.path.splitext(os.path.basename(code.co_filename))[0]
    if directory == BENCH_DIR:
        # The benchmark's own code (probe, counters) keeps its time, so
        # it is not charged to the function it interrupted or wrapped.
        return BENCH
    return OUTSIDE


class ProfileStats:
    """Self time per costglue function, with outside callees folded in."""

    def __init__(self, entries: List[Any], package_dir: str):
        generated = _code_layers()
        self.layer = {e.code: _layer_of(e.code, generated, package_dir) for e in entries}
        self.calls = {e.code: e.callcount for e in entries}
        self.total = {e.code: e.totaltime for e in entries}
        callers: Dict[Any, List] = defaultdict(list)
        for e in entries:
            for sub in e.calls or ():
                callers[sub.code].append((e.code, sub.totaltime, sub.callcount))

        shares: Dict[Any, Dict[Any, float]] = {}

        def share(code: Any) -> Dict[Any, float]:
            """Which costglue functions the time of ``code`` belongs to."""
            if self.layer.get(code, OUTSIDE) != OUTSIDE:
                return {code: 1.0}
            if code in shares:
                return shares[code]
            shares[code] = {OUTSIDE: 1.0}  # breaks cycles among outside code
            links = callers.get(code, [])
            by_time = sum(t for _, t, _ in links)
            by_count = sum(n for _, _, n in links)
            if not by_count:
                return shares[code]
            result: Dict[Any, float] = defaultdict(float)
            for caller, t, n in links:
                w = t / by_time if by_time else n / by_count
                for owner, part in share(caller).items():
                    result[owner] += w * part
            shares[code] = dict(result)
            return shares[code]

        self.self_time: Dict[Any, float] = defaultdict(float)
        for e in entries:
            for owner, part in share(e.code).items():
                self.self_time[owner] += e.inlinetime * part

    def fn_calls(self, fn: Any) -> int:
        return self.calls.get(fn.__code__, 0)

    def fn_self(self, fn: Any) -> float:
        return self.self_time.get(fn.__code__, 0.0)

    def fn_total(self, fn: Any) -> float:
        return self.total.get(fn.__code__, 0.0)

    def layer_calls(self, layer: str) -> int:
        return sum(n for code, n in self.calls.items() if self.layer[code] == layer)

    def layer_self(self, layer: str) -> float:
        return sum(t for code, t in self.self_time.items() if self.layer.get(code) == layer)
