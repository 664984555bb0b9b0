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

from iasi import Labeling, ap_set, cycle

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


def traced(fn):
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer


def test_tracer_counts_sumsets_only_for_uncovered_edges():
    # looked up at call time, so the calls go through the installed wrappers
    verify = importlib.import_module("iasi.verify")
    construct = importlib.import_module("iasi.construct")

    # covered: every edge label is the progression triple of its ratio-1
    # endpoints, so neither the constructor's certify step nor a second
    # classify builds a sumset
    g = cycle(6)

    def covered():
        lab = construct.construct(g, "isoarithmetic")
        assert isinstance(lab, Labeling)
        assert verify.classify(g, lab).isoarithmetic

    tracer = traced(covered)
    assert tracer.calls["construct.construct"] == 1
    assert tracer.calls["verify.classify"] == 2
    assert tracer.counts["construct.construct.sumsets"] == 0
    assert tracer.counts["verify.classify.sumsets"] == 0
    assert tracer.counts["verify.classify.edges"] == 2 * g.edge_count

    # uncovered: ratio 4 above size 3 on every edge, so each edge label
    # is built once; the first terms have distinct pairwise sums far apart,
    # so no collision builds one more
    lab = Labeling({v: ap_set(4**v, 4 if v % 2 else 1, 3) for v in g.vertices})

    def uncovered():
        rep = verify.classify(g, lab)
        assert rep.is_iasi and not rep.arithmetic
        assert {x.rule for x in rep.violations} == {"ratio-exceeds-size"}

    tracer = traced(uncovered)
    assert tracer.calls["verify.classify"] == 1
    assert tracer.counts["verify.classify.sumsets"] == g.edge_count
    assert tracer.counts["verify.classify.edges"] == g.edge_count


def test_tracer_counts_no_sets_for_an_audit():
    # the audit packs its witness indicators in closed form: it builds
    # no progression set and lists no pair
    compat = importlib.import_module("iasi.compat")

    def sweep():
        records = compat.audit("T-NCC", [(m, n) for m in range(3, 9) for n in range(3, 6)])
        grid = [(m, n, k) for m in (3, 5) for n in (3, 4) for k in (1, 2, 3)]
        records += compat.audit("EDGE-SIN", grid)
        assert {r.verdict for r in records} == {"match"}

    tracer = traced(sweep)
    assert tracer.calls["compat.audit"] == 2
    assert tracer.calls["sets.ap_set"] == 0
    assert tracer.calls["compat.compat_partition"] == 0


def test_tracer_counts_few_neighbour_scans_for_an_exhausted_search():
    # the four vertices on each side of K4,4 are twins; placed in
    # ascending order, the search sweeps each labeling once rather than
    # once per order of each side, which took 21,506 neighbour scans
    construct = importlib.import_module("iasi.construct")
    graphs = importlib.import_module("iasi.graphs")
    g = graphs.complete_bipartite(4, 4)
    bound = construct.SearchBound(max_element=13, sizes=(4,), ratios=(4,))

    def exhaust():
        assert construct.search_identical_biarithmetic(g, bound) is None

    tracer = traced(exhaust)
    assert tracer.calls["construct.search"] == 1
    assert tracer.calls["graphs.neighbors"] < 2150
