"""Graph model: generators, traversal, bipartition.

The bipartition oracle is independent of the BFS two-coloring: a graph
has a bipartition exactly when no odd power of its adjacency matrix
has a positive trace (an odd closed walk always contains an odd cycle).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from iasi import (
    Graph,
    bipartition,
    complete,
    complete_bipartite,
    components,
    cycle,
    path,
    star,
)
from conftest import disjoint_union, random_graph


def has_odd_closed_walk(g) -> bool:
    n = g.vertex_count
    if n == 0:
        return False
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1
    power = a.copy()
    for _ in range(0, n, 2):  # odd exponents 1, 3, 5, ... up to n
        if np.trace(power) > 0:
            return True
        power = power @ a @ a
    return False


# --- construction and normalization ---------------------------------------


def test_edges_normalize_and_validate():
    g = Graph(4, [(3, 0), (1, 2)])
    assert g.edges == ((0, 3), (1, 2))
    assert 3 in g.neighbors(0) and 0 in g.neighbors(3)
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(3, [(0, True)])
    with pytest.raises(ValueError):
        Graph(3, [("a", 1)])
    with pytest.raises(ValueError):
        Graph(True, [])


def test_neighbors_and_degrees():
    g = star(3)
    assert g.neighbors(0) == (1, 2, 3)
    assert g.neighbors(2) == (0,)
    assert g.isolated_vertices() == ()
    assert Graph(3, [(0, 1)]).isolated_vertices() == (2,)


# --- generators --------------------------------------------------------------


def test_generator_shapes():
    assert path(4).edge_count == 3
    assert cycle(5).edge_count == 5
    assert complete(5).edge_count == 10
    assert complete_bipartite(2, 3).edge_count == 6
    assert star(4).edge_count == 4
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        path(0)
    with pytest.raises(ValueError, match="^complete graph needs at least one vertex$"):
        complete(0)
    with pytest.raises(ValueError, match="^both sides need at least one vertex$"):
        complete_bipartite(0, 3)
    with pytest.raises(ValueError, match="^star needs at least one leaf$"):
        star(0)


# --- components ----------------------------------------------------------------


def test_components_examples():
    g = disjoint_union(path(3), complete(3))
    assert components(g) == [(0, 1, 2), (3, 4, 5)]
    assert components(complete(4)) == [(0, 1, 2, 3)]
    assert components(Graph(3)) == [(0,), (1,), (2,)]


def test_component_sizes_partition_vertices():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng)
        comps = components(g)
        flat = sorted(v for c in comps for v in c)
        assert flat == list(g.vertices)


# --- bipartition -----------------------------------------------------------------


def test_bipartition_examples():
    b = bipartition(cycle(4))
    assert (b.side_x, b.side_y) == (frozenset({0, 2}), frozenset({1, 3}))
    assert bipartition(cycle(5)) is None
    b = bipartition(path(3))
    assert (b.side_x, b.side_y) == (frozenset({0, 2}), frozenset({1}))


def test_cycle_parity():
    for k in range(2, 7):
        assert (bipartition(cycle(2 * k)) is not None)
        assert (bipartition(cycle(2 * k + 1)) is None)


def test_bipartition_against_odd_walk_oracle():
    rng = random.Random(23)
    for _ in range(120):
        g = random_graph(rng, max_n=10, p=rng.choice([0.2, 0.4, 0.7]))
        assert (bipartition(g) is None) == has_odd_closed_walk(g)


def test_bipartition_separates_every_edge():
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng)
        b = bipartition(g)
        if b is None:
            continue
        assert b.side_x | b.side_y == set(g.vertices) and not b.side_x & b.side_y
        for u, v in g.edges:
            assert (u in b.side_x) != (v in b.side_x)
