"""Shared helpers: seeded random structures for property-style tests."""

from __future__ import annotations

import random

from iasi import Graph, IntSet, Labeling, ap_set, graph


def random_graph(rng: random.Random, max_n: int = 10, p: float = 0.4) -> Graph:
    """Random simple graph on 1..max_n vertices, each pair kept with prob p."""
    n = rng.randint(1, max_n)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return graph(n, edges)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """a, then b with its vertex ids shifted by a.vertex_count."""
    shift = a.vertex_count
    edges = [*a.edges, *((u + shift, v + shift) for u, v in b.edges)]
    return graph(shift + b.vertex_count, edges)


def witness_pair(m: int, n: int, k: int = 1, diff: int = 1) -> tuple[IntSet, IntSet]:
    """The audit's witness labels as sets: AP(0, diff, m) and AP(0, k*diff, n)."""
    return ap_set(0, diff, m), ap_set(0, k * diff, n)


def sidon_firsts(count: int, offset: int = 0) -> list[int]:
    """First terms with pairwise-distinct sums, for collision-free labels."""
    return [offset + (1 << i) - 1 for i in range(count)]


def random_arith_labeling(
    rng: random.Random, g: Graph, mixed: bool
) -> Labeling:
    """Progression labels with ratios drawn from {1, 2}, always arithmetic.

    mixed=False keeps one shared difference (isoarithmetic); mixed=True
    lets each vertex pick d or 2d, so some edges get ratio 2.  Sizes are
    at least 3 and first terms have pairwise-distinct sums, so the
    result is injective on vertices and edges alike.
    """
    d = rng.randint(1, 5)
    firsts = sidon_firsts(g.vertex_count, offset=rng.randint(0, 9))
    assignment = {}
    for v in g.vertices:
        dv = d if not mixed else rng.choice([d, 2 * d])
        assignment[v] = ap_set(firsts[v], dv, rng.randint(3, 8))
    return Labeling(assignment)
