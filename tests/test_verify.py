"""Verifier battery: injectivity, arithmetic classes, uniformity.

The edge-collision fixture was found by brute-force search over small
label pools (see find_edge_collision) and then frozen.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from iasi import (
    Labeling,
    MissingLabelError,
    Violation,
    ap_set,
    bipartition,
    classify,
    complete_bipartite,
    construct_bipartite_uniform_isoarithmetic,
    construct_isoarithmetic,
    cycle,
    detect_ap,
    edge_label,
    graph,
    path,
    star,
    sumset,
)
from conftest import random_arith_labeling, random_graph, sidon_firsts


def find_edge_collision():
    """Distinct A, C and a middle B with A+B == C+B, on the path A-B-C."""
    pool = list(range(6))
    for a in combinations(pool, 3):
        for c in combinations(pool, 3):
            if c <= a:
                continue
            for b in combinations(pool, 4):
                if set(b) in (set(a), set(c)):
                    continue
                if sumset(a, b) == sumset(c, b):
                    return a, b, c
    raise AssertionError("no collision instance found")


# --- injectivity -----------------------------------------------------------------


def test_iasi_accepts_injective_path():
    lab = Labeling({0: (0, 1), 1: (2, 3)})
    rep = classify(path(2), lab)
    assert rep.is_iasi and rep.violations == ()


def test_iasi_rejects_duplicate_vertex_labels():
    lab = Labeling({0: (0, 1), 1: (2, 3), 2: (0, 1)})
    rep = classify(path(3), lab)
    assert not rep.is_iasi
    assert any(v.rule == "vertex-label-collision" for v in rep.violations)


def test_iasi_rejects_edge_label_collision():
    a, b, c = find_edge_collision()
    assert (a, b, c) == ((0, 1, 3), (0, 1, 2, 3), (0, 2, 3))  # frozen witness
    lab = Labeling({0: a, 1: b, 2: c})
    rep = classify(path(3), lab)
    assert not rep.is_iasi
    assert [v.rule for v in rep.violations] == ["edge-label-collision"]


# --- arithmetic ----------------------------------------------------------------


def test_arithmetic_integral_bounded_ratio_passes():
    lab = Labeling({0: ap_set(0, 2, 4), 1: ap_set(1, 6, 3)})
    rep = classify(path(2), lab)
    assert rep.arithmetic and rep.violations == ()


def test_arithmetic_boundary_ratio_equal_size_passes():
    lab = Labeling({0: ap_set(0, 2, 3), 1: ap_set(1, 6, 5)})
    assert classify(path(2), lab).arithmetic  # k = 3 equals the smaller-index label size


def test_arithmetic_rejects_fractional_ratio():
    lab = Labeling({0: ap_set(0, 2, 4), 1: ap_set(1, 7, 3)})
    rep = classify(path(2), lab)
    assert not rep.arithmetic
    assert rep.violations[0].rule == "ratio-not-integral"


def test_arithmetic_rejects_oversized_ratio():
    lab = Labeling({0: ap_set(0, 1, 3), 1: ap_set(0, 5, 3)})
    rep = classify(path(2), lab)
    assert not rep.arithmetic
    assert rep.violations[0].rule == "ratio-exceeds-size"


def test_ratio_violations_are_reported_only_for_an_iasi():
    # edge 0-1 has ratio 5 above size 3, but the labeling repeats a vertex
    # and an edge label, so only the two collisions are reported
    lab = Labeling({0: ap_set(0, 1, 3), 1: ap_set(0, 5, 3), 2: ap_set(0, 1, 3)})
    rep = classify(path(3), lab)
    assert not rep.is_iasi and rep.vertex_arithmetic and not rep.arithmetic
    assert rep.violations == (
        Violation(
            element="e0-1,e1-2",
            rule="edge-label-collision",
            detail="edges 0-1 and 1-2 share label {0,1,2,5,6,7,10,11,12}",
        ),
        Violation(
            element="v0,v2",
            rule="vertex-label-collision",
            detail="vertices 0 and 2 share label {0,1,2}",
        ),
    )


def test_arithmetic_requires_progressions_of_three():
    # a label that is no progression, or has 2 elements, is reported, not raised
    for first in [(0, 1, 4), (0, 1)]:
        rep = classify(path(2), Labeling({0: first, 1: ap_set(0, 2, 3)}))
        assert rep.is_iasi
        assert not rep.vertex_arithmetic and not rep.arithmetic
        assert not any(v.rule.startswith("ratio-") for v in rep.violations)


def test_arithmetic_matches_edge_progression_test():
    # ratio rule and "every edge label is a progression" agree on progression labels
    rng = random.Random(17)
    for _ in range(150):
        g = random_graph(rng, max_n=7)
        firsts = sidon_firsts(g.vertex_count, offset=rng.randint(0, 5))
        lab = Labeling(
            {
                v: ap_set(firsts[v], rng.choice([1, 2, 3, 4, 5, 6]), rng.randint(3, 5))
                for v in g.vertices
            }
        )
        edges_ap = all(detect_ap(edge_label(lab, u, v)) is not None for u, v in g.edges)
        assert classify(g, lab).arithmetic == edges_ap


# --- shared-difference class ------------------------------------------------------


def test_isoarithmetic_shared_diff():
    lab = Labeling({v: ap_set(4 * v * v + v, 4, 3) for v in range(3)})
    assert classify(path(3), lab).isoarithmetic


def test_isoarithmetic_rejects_mixed_diffs():
    lab = Labeling(
        {0: ap_set(0, 2, 3), 1: ap_set(1, 2, 3), 2: ap_set(0, 4, 3)}
    )
    rep = classify(cycle(3), lab)
    assert not rep.isoarithmetic
    # still arithmetic: ratios are 1, 2, 2 with sizes 3
    assert rep.arithmetic
    assert not rep.biarithmetic  # the ratio-1 edge blocks it


# --- proper-ratio classes -----------------------------------------------------------


def test_biarithmetic_examples():
    lab = Labeling({0: ap_set(0, 1, 3), 1: ap_set(0, 2, 3)})
    assert classify(path(2), lab).biarithmetic
    lab = Labeling({0: ap_set(0, 2, 3), 1: ap_set(1, 2, 3)})
    assert not classify(path(2), lab).biarithmetic  # ratio 1
    lab = Labeling({0: ap_set(0, 1, 3), 1: ap_set(0, 5, 3)})
    assert not classify(path(2), lab).biarithmetic  # ratio 5 over size 3


def test_identical_biarithmetic_star():
    center = ap_set(0, 6, 3)
    leaves = [ap_set(1, 2, 3), ap_set(2, 2, 4), ap_set(9, 2, 3)]
    lab = Labeling({0: center, 1: leaves[0], 2: leaves[1], 3: leaves[2]})
    assert classify(star(3), lab).identical_biarithmetic == 3


def test_identical_biarithmetic_needs_one_ratio():
    lab = Labeling(
        {0: ap_set(0, 1, 3), 1: ap_set(0, 2, 3), 2: ap_set(0, 6, 3)}
    )
    assert classify(path(3), lab).biarithmetic  # ratios 2 then 3
    assert classify(path(3), lab).identical_biarithmetic is None


def test_identical_biarithmetic_alternating_cycle():
    lab = Labeling(
        {
            0: ap_set(0, 1, 3),
            1: ap_set(1, 2, 3),
            2: ap_set(4, 1, 3),
            3: ap_set(11, 2, 3),
        }
    )
    assert classify(cycle(4), lab).identical_biarithmetic == 2


# --- strong -----------------------------------------------------------------------


def test_strong_examples():
    lab = Labeling({0: (0, 1, 2), 1: (0, 3, 6)})
    assert classify(path(2), lab).strong
    lab = Labeling({0: (1, 3, 5), 1: (2, 4, 6)})
    assert not classify(path(2), lab).strong


def test_no_strong_shared_difference_possible():
    # m + n - 1 = m * n has no solution with both sizes above 1
    for m in range(2, 9):
        for n in range(2, 9):
            assert m + n - 1 != m * n
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng, max_n=8)
        if not g.edges:
            continue
        lab = construct_isoarithmetic(
            g, diff=rng.randint(1, 4),
            sizes=[rng.randint(3, 6) for _ in g.vertices], seed=rng.randint(0, 99),
        )
        rep = classify(g, lab)
        assert rep.isoarithmetic and not rep.strong


# --- uniformity ----------------------------------------------------------------------


def test_uniform_vertex_sizes_give_uniform_edges():
    for l in range(3, 9):
        g = cycle(5)
        rep = classify(g, construct_isoarithmetic(g, diff=2, sizes=l))
        assert (rep.edge_uniform, rep.vertex_uniform) == (2 * l - 1, l)


def test_uniform_bipartite_mixed_sizes():
    g = complete_bipartite(2, 3)
    rep = classify(g, construct_bipartite_uniform_isoarithmetic(g, sizes=(3, 4), diff=1))
    assert rep.edge_uniform == 6 and rep.vertex_uniform is None


def test_uniform_edges_need_uniform_vertices_or_bipartite():
    # shared difference, connected graph: uniform edges force one of the two
    rng = random.Random(41)
    seen_uniform = 0
    for _ in range(200):
        g = random_graph(rng, max_n=8, p=0.5)
        if not g.edges:
            continue
        lab = random_arith_labeling(rng, g, mixed=False)
        rep = classify(g, lab)
        if rep.edge_uniform is None:
            continue
        seen_uniform += 1
        assert rep.vertex_uniform is not None or bipartition(g) is not None
    assert seen_uniform > 0


def test_odd_cycle_mixed_sizes_never_edge_uniform():
    g = cycle(5)
    rep = classify(g, construct_isoarithmetic(g, diff=1, sizes=[3, 4, 3, 4, 4]))
    assert rep.edge_uniform is None and rep.vertex_uniform is None


# --- classify: the containment chain ---------------------------------------------------


def test_classify_flags_respect_containment():
    rng = random.Random(53)
    for _ in range(150):
        g = random_graph(rng, max_n=8)
        lab = random_arith_labeling(rng, g, mixed=rng.random() < 0.5)
        rep = classify(g, lab)
        if rep.isoarithmetic or rep.biarithmetic:
            assert rep.arithmetic
        if rep.arithmetic:
            assert rep.vertex_arithmetic and rep.edge_arithmetic and rep.is_iasi
        assert not (rep.isoarithmetic and rep.biarithmetic)
        if rep.identical_biarithmetic is not None:
            assert rep.biarithmetic
        if rep.strong:
            assert rep.is_iasi


def test_classify_handles_degenerate_labels_without_raising():
    lab = Labeling({0: (0,), 1: (1, 5), 2: (0, 1, 4)})
    rep = classify(path(3), lab)
    assert rep.is_iasi
    assert not rep.vertex_arithmetic and not rep.arithmetic


def test_classify_warns_on_isolated_vertices():
    g = graph(3, [(0, 1)])
    lab = Labeling({0: (0, 1, 2), 1: (0, 2, 4), 2: (0, 3, 6)})
    rep = classify(g, lab)
    assert rep.is_iasi
    assert any("isolated" in w for w in rep.warnings)


def test_classify_rejects_labels_on_vertices_outside_the_graph():
    # vertex 5 even repeats vertex 0's label; a gap is still reported first
    lab = Labeling({0: (0, 1, 2), 1: (0, 2, 4), 5: (0, 1, 2)})
    with pytest.raises(ValueError, match="^vertex 5 has a label but the graph has 2 vertices$"):
        classify(path(2), lab)
    with pytest.raises(MissingLabelError, match="^vertex 2 has no label$"):
        classify(path(3), lab)


# --- heredity ----------------------------------------------------------------------------


def test_restrictions_inherit_the_class():
    rng = random.Random(67)
    hit_iso = hit_bi = 0
    for _ in range(80):
        g = random_graph(rng, max_n=9, p=0.5)
        if g.vertex_count < 2:
            continue
        keep = sorted(
            rng.sample(list(g.vertices), rng.randint(1, g.vertex_count))
        )
        lab = construct_isoarithmetic(g, diff=2, sizes=3, seed=1)
        sub, sub_lab = _restricted(g, lab, keep)
        assert classify(sub, sub_lab).isoarithmetic
        hit_iso += 1
        if bipartition(g) is not None and g.edges:
            lab = Labeling(
                {
                    v: ap_set(sidon_firsts(g.vertex_count)[v], d, 3)
                    for v, d in _alternating_diffs(g).items()
                }
            )
            if classify(g, lab).biarithmetic:
                sub, sub_lab = _restricted(g, lab, keep)
                assert classify(sub, sub_lab).biarithmetic or not sub.edges
                hit_bi += 1
    assert hit_iso > 20


def _restricted(g, lab, keep):
    """The subgraph induced on the sorted vertices keep and its labeling,
    both renumbered by position in keep."""
    at = {v: i for i, v in enumerate(keep)}
    edges = [(at[u], at[v]) for u, v in g.edges if u in at and v in at]
    return graph(len(keep), edges), Labeling({at[v]: lab.label(v) for v in keep})


def _alternating_diffs(g):
    b = bipartition(g)
    return {v: (1 if v in b.side_x else 2) for v in g.vertices}
