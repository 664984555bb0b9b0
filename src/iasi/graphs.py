"""Finite simple undirected graphs with deterministic vertex numbering.

Vertices are the integers ``0 .. vertex_count-1``.  Edges are unordered
pairs stored normalized as ``(min, max)`` in one tuple, sorted once,
so every reader walks them in one order.  ``Graph._freeze`` is the one
place a Graph's edges and adjacency are set: ``Graph.__post_init__``
calls it after checking every edge, and ``io.parse_graph`` reaches it
through ``Graph._from_checked`` after checking every line, so a parsed
graph is checked once, not a second time on creation.
One breadth-first traversal, roots and neighbours in ascending order,
gives every component's visiting order and a 2-colouring, and
components, bipartition sides, the sides of the constructors that size
or scale by side, and the search's vertex order all read it, so each
is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from .sets import _require_ints

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    edges: tuple[Edge, ...]
    # ascending neighbours of each vertex, derived from edges
    _adjacency: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        n = self.vertex_count
        if type(n) is not int or n < 0:
            raise ValueError("vertex count must be a non-negative integer")
        # a dict keeps the caller's order: edges given sorted sort in linear time
        norm: dict[Edge, None] = {}
        for e in self.edges:
            u, v = e
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge {e} endpoints must be integers")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {e} out of range for {n} vertices")
            norm[(u, v) if u < v else (v, u)] = None
        self._freeze(norm)

    @classmethod
    def _from_checked(cls, n: int, edges: Iterable[Edge]) -> Graph:
        """A Graph on n vertices from edges its caller has checked.

        ``n`` must be a non-negative int and ``edges`` distinct
        ``(min, max)`` pairs of distinct ints in ``range(n)``, which is
        what ``__post_init__`` checks; nothing is checked here.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "vertex_count", n)
        g._freeze(edges)
        return g

    def _freeze(self, edges: Iterable[Edge]) -> None:
        """Set the sorted edges and the adjacency from checked, normalized edges."""
        edges = tuple(sorted(edges))
        # x's edges (w, x), w < x, sort before its edges (x, w): neighbours append ascending
        adjacency: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_adjacency", tuple(map(tuple, adjacency)))

    @property
    def vertices(self) -> range:
        return range(self.vertex_count)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.vertex_count:
            raise ValueError(f"vertex {v} out of range")
        return self._adjacency[v]

    def isolated_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in self.vertices if not self._adjacency[v])


def graph(vertex_count: int, edges: Iterable[Edge] = ()) -> Graph:
    """Build a Graph from any iterable of vertex pairs, in any order and orientation."""
    return Graph(vertex_count, tuple(map(tuple, edges)))


# --- traversal ---------------------------------------------------------


class _Component(NamedTuple):
    order: tuple[int, ...]  # breadth-first visiting order from the lowest vertex
    bipartite: bool


def _traverse(g: Graph) -> tuple[list[_Component], list[int]]:
    """Breadth-first search of every component, lowest root first.

    Returns the components in root order and a colour (0 or 1) per
    vertex: each root gets 0 and every tree edge flips it, so the
    colouring is proper exactly on the components marked bipartite.
    """
    colour = [-1] * g.vertex_count
    out: list[_Component] = []
    for root in g.vertices:
        if colour[root] >= 0:
            continue
        colour[root] = 0
        order = [root]
        bipartite = True
        for v in order:  # order doubles as the queue
            c = colour[v]
            for w in g.neighbors(v):
                if colour[w] < 0:
                    colour[w] = 1 - c
                    order.append(w)
                elif colour[w] == c:
                    bipartite = False
        out.append(_Component(tuple(order), bipartite))
    return out, colour


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, lowest root first."""
    return [tuple(sorted(c.order)) for c in _traverse(g)[0]]


@dataclass(frozen=True)
class Bipartition:
    side_x: frozenset[int]
    side_y: frozenset[int]


def bipartition(g: Graph) -> Optional[Bipartition]:
    """Two-color the graph by BFS, or None if some cycle has odd length.

    The lowest-numbered vertex of every component lands on side x.
    """
    comps, colour = _traverse(g)
    if not all(c.bipartite for c in comps):
        return None
    side_x = frozenset(v for v in g.vertices if colour[v] == 0)
    side_y = frozenset(v for v in g.vertices if colour[v] == 1)
    return Bipartition(side_x, side_y)


# --- generators --------------------------------------------------------


def path(n: int) -> Graph:
    _require_ints(n=n)
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    _require_ints(n=n)
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    _require_ints(n=n)
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(m: int, n: int) -> Graph:
    _require_ints(m=m, n=n)
    if m < 1 or n < 1:
        raise ValueError("both sides need at least one vertex")
    return graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def star(leaves: int) -> Graph:
    """Vertex 0 joined to ``leaves`` outer vertices."""
    _require_ints(leaves=leaves)
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    return graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# each kind's generator and the sizes it reads, in its argument order
_KINDS = {
    "path": (path, ("n",)),
    "cycle": (cycle, ("n",)),
    "complete": (complete, ("n",)),
    "complete_bipartite": (complete_bipartite, ("m", "n")),
    "star": (star, ("n",)),
}


def generate(kind: str, n: int | None = None, m: int | None = None) -> Graph:
    """Dispatch on a kind name; complete_bipartite takes sides m and n, the rest n alone."""
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown graph kind {kind!r} (choose from {sorted(_KINDS)})")
    build, reads = _KINDS[kind]
    if n is None:
        raise ValueError(f"kind {kind!r} needs --n")
    if m is None and "m" in reads:
        raise ValueError(f"{kind} needs --m and --n")
    if m is not None and "m" not in reads:
        raise ValueError(f"kind {kind!r} does not read --m")
    return build(*map({"m": m, "n": n}.get, reads))
