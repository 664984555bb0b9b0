"""Span tracing of the iasi layers from outside the program.

Each traced public function is wrapped at every name it is looked up
by: a module that imported it by name holds its own reference, so the
wrapper replaces the original object wherever it appears in an
``iasi`` module, and ``Graph.neighbors`` is replaced on the class.
Spans nest on one stack; a layer's self time is its span minus the
spans of the traced calls made inside it.

Wrappers exist only while a ``Tracer`` is installed, so untraced
passes run the program exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

# (metric prefix, module, attribute): the public entry points per layer
TARGETS = (
    ("sets.sumset", "iasi.sets", "sumset"),
    ("sets.detect_ap", "iasi.sets", "detect_ap"),
    ("sets.ap_set", "iasi.sets", "ap_set"),
    ("graphs.bipartition", "iasi.graphs", "bipartition"),
    ("graphs.components", "iasi.graphs", "components"),
    ("labeling.edge_label", "iasi.labeling", "edge_label"),
    ("verify.classify", "iasi.verify", "classify"),
    ("construct.construct", "iasi.construct", "construct"),
    ("construct.search", "iasi.construct", "search_identical_biarithmetic"),
    ("compat.compat_partition", "iasi.compat", "compat_partition"),
    ("compat.audit", "iasi.compat", "audit"),
    ("io.parse_graph", "iasi.io", "parse_graph"),
    ("io.parse_labeling", "iasi.io", "parse_labeling"),
    ("io.serialize_labeling", "iasi.io", "serialize_labeling"),
    ("io.serialize_audit", "iasi.io", "serialize_audit"),
    ("cli.main", "iasi.cli", "main"),
)

# layer spans inside which sumsets are attributed per edge
_PER_EDGE = ("verify.classify", "construct.construct")


class Tracer:
    """Counts calls and accumulates self time per traced function."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list[float]] = []
        self._active: Counter[str] = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # --- installation -------------------------------------------------

    def install(self) -> None:
        for name, module, attr in TARGETS:
            original = getattr(importlib.import_module(module), attr)
            self._replace(original, self._wrap(name, original, _HOOKS.get(name)))
        graph_cls = importlib.import_module("iasi.graphs").Graph
        original = graph_cls.neighbors
        self._patch(graph_cls, "neighbors", self._wrap("graphs.neighbors", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _replace(self, original: object, wrapper: object) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "iasi" or mod_name.startswith("iasi.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # --- spans --------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        perf = time.perf_counter
        stack = self._stack
        active = self._active
        calls = self.calls
        self_s = self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            if hook is not None:
                hook(self, args)
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            active[name] += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf() - start
                active[name] -= 1
                stack.pop()
                self_s[name] += span - frame[0]
                if stack:
                    stack[-1][0] += span

        return traced


def _sumset_hook(tracer: Tracer, args: tuple) -> None:
    tracer.counts["sets.sumset.pairs"] += len(args[0]) * len(args[1])
    for layer in _PER_EDGE:
        if tracer._active[layer]:
            tracer.counts[layer + ".sumsets"] += 1


def _edges_hook(name: str) -> Callable:
    def hook(tracer: Tracer, args: tuple) -> None:
        tracer.counts[name + ".edges"] += args[0].edge_count

    return hook


def _pairs_hook(tracer: Tracer, args: tuple) -> None:
    tracer.counts["compat.pairs"] += len(args[0]) * len(args[1])


_HOOKS = {
    "sets.sumset": _sumset_hook,
    "verify.classify": _edges_hook("verify.classify"),
    "construct.construct": _edges_hook("construct.construct"),
    "compat.compat_partition": _pairs_hook,
}
