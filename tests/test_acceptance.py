"""Acceptance battery: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every check is exact integer equality; no tolerances apply.
"""

from __future__ import annotations

import random
import time
from itertools import combinations

from iasi import (
    ap_set,
    audit,
    check_freiman_converse,
    classify,
    complete_bipartite,
    construct_bipartite_uniform_isoarithmetic,
    construct_biarithmetic,
    construct_componentwise_uniform,
    construct_identical_biarithmetic,
    construct_isoarithmetic,
    construct_strong_biarithmetic,
    cycle,
    detect_ap,
    edge_label,
    parse_labeling,
    path,
    predict_edge_sin,
    search_identical_biarithmetic,
    serialize_audit,
    serialize_labeling,
    sumset,
    bipartition,
)
from conftest import disjoint_union, random_arith_labeling, random_graph, witness_pair


def report(n: int, text: str) -> None:
    print(f"criterion {n:02d}: PASS ({text})")


def test_criterion_01_sumset_cardinality_random():
    rng = random.Random(101)
    for _ in range(500):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        d = rng.randint(1, 10)
        a = ap_set(rng.randint(0, 50), d, m)
        b = ap_set(rng.randint(0, 50), d, n)
        assert len(sumset(a, b)) == m + n - 1 == predict_edge_sin(m, n, 1)
    report(1, "500 random same-difference pairs, sizes 1..12, all m+n-1")


def test_criterion_02_minimal_sumsets_are_same_diff_progressions():
    pool = list(range(9))
    subsets = [c for size in range(2, 6) for c in combinations(pool, size)]
    minimal = 0
    for a in subsets:
        for b in subsets:
            is_minimal = len(sumset(a, b)) == len(a) + len(b) - 1
            pa, pb = detect_ap(a), detect_ap(b)
            same_diff = pa is not None and pb is not None and pa[1] == pb[1]
            assert is_minimal == same_diff
            assert check_freiman_converse(a, b)  # either vacuous or confirmed
            minimal += is_minimal
    assert minimal > 0
    report(2, f"all {len(subsets) ** 2} pairs over {{0..8}}, {minimal} minimal, equivalence exact")


def test_criterion_03_isoarithmetic_iff_every_edge_minimal():
    rng = random.Random(103)
    iso_seen = other_seen = 0
    for _ in range(200):
        g = random_graph(rng, max_n=10, p=0.4)
        if not g.edges:
            continue
        lab = random_arith_labeling(rng, g, mixed=rng.random() < 0.5)
        minimal_edges = all(
            len(edge_label(lab, u, v)) == len(lab.label(u)) + len(lab.label(v)) - 1
            for u, v in g.edges
        )
        is_iso = classify(g, lab).isoarithmetic
        assert is_iso == minimal_edges
        iso_seen += is_iso
        other_seen += not is_iso
    assert iso_seen > 20 and other_seen > 20
    report(3, f"200 random labelings, {iso_seen} isoarithmetic, both directions hold")


def test_criterion_04_uniform_edge_cardinalities():
    for l in range(3, 9):
        for g in (cycle(5), path(4)):
            rep = classify(g, construct_isoarithmetic(g, diff=2, sizes=l))
            assert (rep.edge_uniform, rep.vertex_uniform) == (2 * l - 1, l)
    for m in range(3, 7):
        for n in range(3, 7):
            for g in (complete_bipartite(2, 3), cycle(6)):
                lab = construct_bipartite_uniform_isoarithmetic(g, sizes=(m, n), diff=1)
                assert classify(g, lab).edge_uniform == m + n - 1
    g = disjoint_union(cycle(5), complete_bipartite(2, 3))
    lab = construct_componentwise_uniform(g, edge_size=7)
    assert classify(g, lab).edge_uniform == 7
    report(4, "2l-1 for l=3..8, m+n-1 for m,n=3..6, mixed components at 7")


def test_criterion_05_no_strong_shared_difference():
    for m in range(2, 9):
        for n in range(2, 9):
            assert predict_edge_sin(m, n, 1) != m * n
    rng = random.Random(105)
    checked = 0
    for _ in range(60):
        g = random_graph(rng, max_n=8, p=0.5)
        if not g.edges:
            continue
        lab = construct_isoarithmetic(
            g, diff=rng.randint(1, 5), sizes=rng.randint(3, 7), seed=rng.randint(0, 99)
        )
        rep = classify(g, lab)
        assert rep.isoarithmetic and not rep.strong
        checked += 1
    assert checked > 30
    report(5, f"m+n-1 < mn for all m,n in 2..8; {checked} constructions never strong")


def test_criterion_06_saturated_counts_shared_difference():
    grid = [(m, n) for m in range(3, 13) for n in range(3, m + 1)]
    records = audit("T-NCC", grid)
    assert len(records) == len(grid)
    assert all(r.verdict == "match" for r in records)
    report(6, f"all {len(grid)} points 3 <= n <= m <= 12 match the enumeration")


def test_criterion_07_edge_cardinality_formula():
    points = 0
    for m in range(3, 11):
        for n in range(3, 11):
            for k in range(1, m + 1):
                a, b = witness_pair(m, n, k)
                assert predict_edge_sin(m, n, k) == len(sumset(a, b))
                points += 1
    report(7, f"m + k(n-1) equals enumeration at all {points} grid points")


def test_criterion_08_full_product_exactly_at_boundary_ratio():
    for m in range(3, 11):
        for n in range(3, 11):
            for k in range(1, m + 1):
                a, b = witness_pair(m, n, k)
                assert (len(sumset(a, b)) == m * n) == (k == m)
    report(8, "edge cardinality hits mn exactly when k = m, grid 3..10")


def test_criterion_09_search_witnesses_and_refusals():
    start = time.monotonic()
    witnessed = [path(2), path(3), path(4), path(5), path(6), cycle(4), cycle(6),
                 complete_bipartite(2, 3)]
    for g in witnessed:
        lab = search_identical_biarithmetic(g)
        assert lab is not None
        rep = classify(g, lab)
        assert rep.identical_biarithmetic is not None and rep.violations == ()
    for n in (3, 5, 7):
        assert search_identical_biarithmetic(cycle(n)) is None
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    report(9, f"8 witnesses verified, 3 odd cycles refused, {elapsed:.2f}s")


def test_criterion_10_saturated_counts_ratio_k():
    grid = [
        (m, n, k)
        for n in range(3, 9)
        for k in range(2, 5)
        for m in range(max(3, (n - 1) * k), (n - 1) * k + 7)
    ]
    records = audit("T-NSC-II", grid)
    assert len(records) == len(grid)
    assert all(r.verdict == "match" for r in records)
    report(10, f"all {len(records)} points of the saturated regime match")


def test_criterion_11_maximal_counts_split_by_remainder():
    q0 = [(p * k, n, k) for n in range(3, 7) for k in (2, 3) for p in range(2, n)]
    records = audit("T-NMCC-II-q0", q0)
    assert all(r.verdict == "match" for r in records)

    qpos = [(5, 4, 2), (3, 3, 2), (7, 4, 3), (7, 5, 2), (11, 5, 3)]
    records = audit("T-NMCC-II-qpos", qpos)
    assert len(records) == len(qpos)
    assert all(r.verdict in ("match", "mismatch") for r in records)
    by_point = {tuple(r.prediction.params[x] for x in "mnk"): r for r in records}
    assert by_point[(5, 4, 2)].verdict == "mismatch"
    assert by_point[(3, 3, 2)].verdict == "mismatch"
    text = serialize_audit(records)
    assert "{1:4, 2:5, 3:2}" in text
    assert "{1:5, 2:2}" in text
    mismatches = sum(r.verdict == "mismatch" for r in records)
    report(
        11,
        f"q=0 slice exact at {len(q0)} points; q>0 slice classified "
        f"with {mismatches}/{len(qpos)} mismatches reported, observed histograms shown",
    )


def test_criterion_12_constructions_reverify_and_serialize():
    rng = random.Random(112)
    built = 0
    for _ in range(100):
        g = random_graph(rng, max_n=8, p=0.45)
        seed = rng.randint(0, 999)
        lab = construct_isoarithmetic(g, diff=rng.randint(1, 5), sizes=rng.randint(3, 6), seed=seed)
        assert classify(g, lab).isoarithmetic
        lab = construct_biarithmetic(g, ratio=rng.choice([2, 3]), seed=seed)
        assert classify(g, lab).biarithmetic or not g.edges
        if bipartition(g) is not None:
            lab = construct_identical_biarithmetic(g, ratio=2, sizes=3, seed=seed)
            assert classify(g, lab).identical_biarithmetic == 2 or not g.edges
            lab = construct_strong_biarithmetic(g, sizes=3, seed=seed)
            assert classify(g, lab).strong
        lab = construct_componentwise_uniform(g, edge_size=7, seed=seed)
        assert classify(g, lab).edge_uniform == 7 or not g.edges
        built += 1
    assert built == 100
    round_trips = 0
    for _ in range(100):
        g = random_graph(rng, max_n=10)
        lab = random_arith_labeling(rng, g, mixed=True)
        assert parse_labeling(serialize_labeling(lab)) == lab
        round_trips += 1
    report(12, f"{built} construction batches re-verified, {round_trips} round-trips exact")
