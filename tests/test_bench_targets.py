"""The traced benchmark run wraps library names by lookup.

``bench/spans.py`` finds each traced function by module and attribute
name, so renaming or deleting one breaks the traced run without any
library test failing.  These tests load the tracer as the benchmark
does and check that every target resolves and is counted.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from iasi import ConstructSpec, Labeling, cycle

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    spans = load_spans()
    for name, module, attr in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), name
    assert callable(importlib.import_module("iasi.graphs").Graph.neighbors)


def test_tracer_counts_one_sumset_per_edge():
    spans = load_spans()
    tracer = spans.Tracer()
    g = cycle(6)
    tracer.install()
    try:
        construct = importlib.import_module("iasi.construct").construct
        classify = importlib.import_module("iasi.verify").classify
        lab = construct(g, ConstructSpec("isoarithmetic"))
        assert isinstance(lab, Labeling)
        assert classify(g, lab).isoarithmetic
    finally:
        tracer.uninstall()
    # construct certifies through classify, so classify runs twice: once
    # inside construct and once here, each with one sumset per edge
    assert tracer.calls["construct.construct"] == 1
    assert tracer.calls["verify.classify"] == 2
    assert tracer.counts["construct.construct.sumsets"] == g.edge_count
    assert tracer.counts["verify.classify.sumsets"] == 2 * g.edge_count
    assert tracer.counts["verify.classify.edges"] == 2 * g.edge_count
