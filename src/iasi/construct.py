"""Builders that realize each labeling class on a given graph.

Vertex v of a graph with V vertices takes first term
``(seed mod 1000) + 2pv + (v*v mod p)``, with p the least prime
>= max(V, 2): the Erdos-Turan Sidon set, whose elements stay below
2p^2, so labels have O(log V) digits.  Proof sketch that its pairwise
sums are distinct: a_u + a_v = 2p(u + v) + (u^2 mod p + v^2 mod p), and
the second part lies in [0, 2p), so a sum fixes s = u + v and
u^2 + v^2 mod p, hence uv mod p (p odd; for p = 2 the one pair is
checked by hand).  Then u and v are the two roots of t^2 - st + uv
over the integers mod p, and as both are below p the pair {u, v} is
fixed.  The terms also increase strictly, since each step adds at least
2p - (p - 1).  Every vertex label starts at its first term and every edge
label at the sum of its endpoints' first terms, so vertex labels and
induced edge labels are injective by construction.  Every producer,
constructor and search alike, returns through one certify step
anyway: ``classify`` must call the labeling arithmetic (which implies
an IASI), and the search's witness must also carry the searched ratio
on every edge; anything else raises ConstructionError.

``_resolve_sizes`` is the one reader of a size argument; a pair means
one size per side only for the kinds with sides.  Each kind computes
its difference and size maps once and goes straight to ``_assign``; no
constructor calls another.  ``construct(g, kind, **params)`` looks the
kind up in KINDS and reads its builder's signature: a parameter without
a default must be passed, and one the builder lacks raises ValueError
rather than being dropped.

The exhaustive search keys labels by (first, diff, size) and edges by
the triple ``sets.ap_sum`` gives for the sum of their endpoints' labels;
only the witness is built as sets.  It places twins, vertices
with the same neighbours, in ascending order, so it sweeps each labeling
once rather than once per order of the twins, and the witness it
returns is still the least one in its window.  It also skips every
difference map that puts more vertices on one difference than the
window has labels of that difference.

All constructors are pure functions of (graph, parameters, seed).
"""

from __future__ import annotations

import inspect
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import isqrt
from typing import Optional

from .graphs import Graph, _traverse
from .labeling import Labeling
from .sets import _require_ints, ap_set, ap_sum
from .verify import classify


class ConstructionError(Exception):
    """Base for everything a constructor can refuse to do."""


class NotBipartiteError(ConstructionError):
    """The requested class needs a bipartition the graph does not have."""


class RatioBoundError(ConstructionError):
    """The requested ratio exceeds what the label sizes allow."""


class InfeasibleError(ConstructionError):
    """No labeling with the requested parameters exists on this graph."""


class SizeLimitError(ConstructionError):
    """The graph is too large for the exhaustive search."""


def _sides(g: Graph) -> list[int]:
    """Each vertex's side, 0 on side x, which holds each component's lowest vertex, else 1."""
    comps, side = _traverse(g)
    if not all(comp.bipartite for comp in comps):
        raise NotBipartiteError("graph has an odd cycle")
    return side


def _resolve_sizes(
    g: Graph,
    sizes: int | tuple[int, int] | Sequence[int] | dict[int, int],
    side: Optional[list[int]] = None,
) -> dict[int, int]:
    """One int >= 3 per vertex from an int, a dict, V values, or, given sides, a side pair.

    A dict key that is not a vertex, an exact int in range(V), raises
    ValueError rather than being dropped.
    """
    if side is not None and isinstance(sizes, tuple) and len(sizes) == 2:
        out = {v: sizes[side[v]] for v in g.vertices}
    elif isinstance(sizes, dict):
        for v in sizes:
            if type(v) is not int or not 0 <= v < g.vertex_count:  # exact type: True is no vertex
                raise ValueError(f"size given for {v!r}, which is not a vertex of the graph")
        out = dict(sizes)
    elif isinstance(sizes, Sequence):
        if len(sizes) != g.vertex_count:
            raise ValueError(
                f"got {len(sizes)} sizes for {g.vertex_count} vertices"
            )
        out = dict(zip(g.vertices, sizes))
    else:
        out = {v: sizes for v in g.vertices}
    for v in g.vertices:
        if v not in out:
            raise ValueError(f"no size given for vertex {v}")
        if type(out[v]) is not int:  # exact type: bool is an int subclass
            raise ValueError(f"label sizes must be integers, vertex {v} got {out[v]!r}")
        if out[v] < 3:
            raise ValueError(f"label sizes must be at least 3, vertex {v} got {out[v]}")
    return out


def _check_params(diff: int, ratio: int = 2) -> None:
    """Every kind's rule diff >= 1 and, for the kinds with a ratio, ratio >= 2; types first."""
    _require_ints(ratio=ratio, diff=diff)
    if ratio < 2:
        raise ValueError("ratio must be at least 2")
    if diff < 1:
        raise ValueError("difference must be positive")


def _certify(g: Graph, lab: Labeling, ratio: Optional[int] = None) -> Labeling:
    """Return lab if ``classify`` calls it arithmetic on g.

    When ratio is given, every edge must also carry exactly that ratio.
    """
    report = classify(g, lab)
    if not report.arithmetic or (ratio is not None and report.identical_biarithmetic != ratio):
        raise ConstructionError(
            f"certification failed: classify reports is_iasi={report.is_iasi}, "
            f"arithmetic={report.arithmetic}, ratio {report.identical_biarithmetic}"
            + ("" if ratio is None else f", searched ratio {ratio}")
        )
    return lab


def _least_prime(n: int) -> int:
    """The least prime >= max(n, 2), by trial division."""
    p = max(n, 2)
    while any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        p += 1
    return p


def _assign(g: Graph, diffs: dict[int, int], sizes: dict[int, int], seed: int) -> Labeling:
    """Give vertex v first term (seed mod 1000) + 2pv + (v*v mod p), then certify.

    p is the least prime >= max(V, 2).  Only seed mod 1000 is used, so
    element size never depends on the seed, and seeds s and s + 1000
    give the same labeling.
    """
    _require_ints(seed=seed)
    base = seed % 1000
    p = _least_prime(g.vertex_count)
    # the ids come from the range g.vertices, so ascending, and ap_set checks each label
    return _certify(
        g,
        Labeling._from_sorted({
            v: ap_set(base + 2 * p * v + v * v % p, diffs[v], sizes[v]) for v in g.vertices
        }),
    )


# --- shared-difference families ----------------------------------------


def construct_isoarithmetic(
    g: Graph,
    diff: int = 1,
    sizes: int | Sequence[int] | dict[int, int] = 3,
    seed: int = 0,
) -> Labeling:
    """Every vertex gets the same difference; sizes may vary per vertex."""
    _check_params(diff)
    size_map = _resolve_sizes(g, sizes)
    return _assign(g, {v: diff for v in g.vertices}, size_map, seed)


def construct_bipartite_uniform_isoarithmetic(
    g: Graph, sizes: tuple[int, int], diff: int = 1, seed: int = 0
) -> Labeling:
    """Size m on side x, size n on side y, sizes=(m, n), one shared difference.

    Every edge then has cardinality m + n - 1.
    """
    if not (isinstance(sizes, (tuple, list)) and len(sizes) == 2):
        raise ValueError("bipartite_uniform_isoarithmetic takes sizes (m, n)")
    size_map = _resolve_sizes(g, tuple(sizes), _sides(g))
    _check_params(diff)
    return _assign(g, {v: diff for v in g.vertices}, size_map, seed)


# --- proper-ratio families ---------------------------------------------


def _ratio_diffs(g: Graph, level: Sequence[int] | dict[int, int], diff: int, ratio: int) -> dict[int, int]:
    """Difference diff * ratio**level[v] at each vertex v."""
    return {v: diff * ratio ** level[v] for v in g.vertices}


def construct_identical_biarithmetic(
    g: Graph,
    ratio: int,
    diff: int = 1,
    sizes: int | tuple[int, int] | Sequence[int] | dict[int, int] = 3,
    seed: int = 0,
) -> Labeling:
    """Difference diff on side x, ratio*diff on side y: one ratio everywhere.

    Needs a bipartite graph, ratio >= 2, and every x-side size >= ratio
    (the x side holds the smaller index on each edge).
    """
    _check_params(diff, ratio)
    side = _sides(g)
    size_map = _resolve_sizes(g, sizes, side)
    low = min((size_map[v] for v in g.vertices if side[v] == 0), default=None)
    if low is not None and ratio > low:
        raise RatioBoundError(
            f"ratio {ratio} exceeds the smallest x-side label size {low}"
        )
    return _assign(g, _ratio_diffs(g, side, diff, ratio), size_map, seed)


def construct_strong_biarithmetic(
    g: Graph,
    diff: int = 1,
    sizes: int | tuple[int, int] | Sequence[int] | dict[int, int] = 3,
    seed: int = 0,
) -> Labeling:
    """Identical biarithmetic at the boundary ratio = x-side size.

    Side x must be uniformly sized; the y-side difference is that size
    times diff, so every edge label has the full product cardinality.
    """
    side = _sides(g)
    size_map = _resolve_sizes(g, sizes, side)
    x_sizes = {size_map[v] for v in g.vertices if side[v] == 0}
    if len(x_sizes) > 1:
        raise ValueError(f"x-side sizes must all be equal, got {sorted(x_sizes)}")
    _check_params(diff)
    ratio = x_sizes.pop() if x_sizes else 3
    return _assign(g, _ratio_diffs(g, side, diff, ratio), size_map, seed)


def _dsatur_levels(g: Graph) -> dict[int, int]:
    """A proper colouring by DSatur (Brelaz 1979), levels numbered from the top.

    Each step colours the uncoloured vertex with the most distinct
    neighbour colours, ties to the larger degree and then the smaller
    id, with the least colour none of its neighbours has.  A vertex's
    heap entries only gain saturation, so its newest entry pops first
    and the older ones pop after it is coloured and are skipped.  Level
    is the top colour minus the colour: the class coloured first,
    usually the largest, takes the top level, whose labels need only 3
    elements.  Exact on bipartite graphs: two colours.
    """
    n = g.vertex_count
    adjacency = [g.neighbors(v) for v in g.vertices]
    # heap keys are ints, least first, as int compares outrun tuple ones
    # (1.0-1.6 ms against 1.6-2.5 on G(300, 0.05)): rank orders by larger
    # degree, then smaller id, within [0, n(n + 1)), so each saturation
    # step of n(n + 1) outweighs every rank, and key % n is the vertex
    rank = [(n - len(adjacency[v])) * n + v for v in g.vertices]
    step = n * (n + 1)
    colour = [-1] * n
    seen = [0] * n  # bitmask of the colours among v's neighbours
    heap = rank[:]
    heapify(heap)
    while heap:
        v = heappop(heap) % n
        if colour[v] >= 0:
            continue
        c = (~seen[v] & (seen[v] + 1)).bit_length() - 1  # the lowest clear bit
        colour[v] = c
        bit = 1 << c
        for w in adjacency[v]:
            if colour[w] < 0 and not seen[w] & bit:
                seen[w] |= bit
                heappush(heap, rank[w] - seen[w].bit_count() * step)
    top = max(colour, default=0)
    return {v: top - colour[v] for v in g.vertices}


def construct_biarithmetic(
    g: Graph,
    ratio: int = 2,
    diff: int = 1,
    sizes: int | Sequence[int] | dict[int, int] | None = None,
    seed: int = 0,
) -> Labeling:
    """A proper integer ratio on every edge; works on any graph.

    Vertices take differences diff * ratio**level along a DSatur proper
    colouring numbered from the top (``_dsatur_levels``), so adjacent
    vertices always differ by a positive power of ratio.  When sizes is
    None each vertex gets the smallest size that keeps every incident
    edge ratio within bounds; explicit sizes that are too small raise
    RatioBoundError.

    Sizes cannot stay polynomial in the vertex count on dense graphs,
    whatever the coloring.  On a clique of size w every edge ratio is
    an integer of at least 2, so the w differences form a divisibility
    chain with every step at least 2, and the two ends of the chain are
    w - 1 steps apart: the label with the smallest difference needs at
    least 2^(w - 1) elements.  Sizes are not capped.
    """
    _check_params(diff, ratio)
    level = _dsatur_levels(g)
    required = {v: 3 for v in g.vertices}
    for u, v in g.edges:
        lo, hi = (u, v) if level[u] < level[v] else (v, u)
        need = ratio ** (level[hi] - level[lo])
        required[lo] = max(required[lo], need)
    if sizes is None:
        size_map = required
    else:
        size_map = _resolve_sizes(g, sizes)
        for v in g.vertices:
            if size_map[v] < required[v]:
                raise RatioBoundError(
                    f"vertex {v} needs a label of at least {required[v]} elements "
                    f"to stay above the edge ratios, got {size_map[v]}"
                )
    return _assign(g, _ratio_diffs(g, level, diff, ratio), size_map, seed)


# --- componentwise uniform edge size ------------------------------------


def construct_componentwise_uniform(
    g: Graph,
    edge_size: int,
    diff: int = 1,
    seed: int = 0,
) -> Labeling:
    """One shared difference, every edge label of the given cardinality.

    Colour 0 takes size m = ceil(edge_size / 2) and colour 1 size
    n = edge_size + 1 - m, so m + n - 1 = edge_size.  Odd edge_size makes
    m = n, so only even edge_size is refused on a component with an odd
    cycle, where an edge joins one colour.  Sizes below 3 are infeasible.
    """
    _require_ints(edge_size=edge_size)
    _check_params(diff)
    r = edge_size
    if r < 5:
        raise InfeasibleError(f"edge size {r} needs label sizes below 3")
    comps, colour = _traverse(g)
    for comp in comps:
        if not comp.bipartite and r % 2 == 0:
            raise InfeasibleError(
                f"component {tuple(sorted(comp.order))} has an odd cycle, "
                f"so edge size {r} must be odd"
            )
    pair = ((r + 1) // 2, r + 1 - (r + 1) // 2)
    return _assign(g, {v: diff for v in g.vertices}, {v: pair[colour[v]] for v in g.vertices}, seed)


# --- one-call dispatcher -------------------------------------------------


# every construction kind and its builder, in the order ``iasi label
# --kind`` lists them; the builder's signature says what the kind reads
KINDS: dict[str, Callable[..., Labeling]] = {
    "isoarithmetic": construct_isoarithmetic,
    "bipartite_uniform_isoarithmetic": construct_bipartite_uniform_isoarithmetic,
    "biarithmetic": construct_biarithmetic,
    "identical_biarithmetic": construct_identical_biarithmetic,
    "strong_biarithmetic": construct_strong_biarithmetic,
    "componentwise_uniform": construct_componentwise_uniform,
}


def construct(g: Graph, kind: str, **params: object) -> Labeling:
    """Build kind on g from params; a needed one missing or an unread one given is a ValueError."""
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"unknown construction kind {kind!r}")
    build = KINDS[kind]
    reads = inspect.signature(build).parameters
    for name, p in reads.items():
        if name != "g" and p.default is p.empty and name not in params:
            raise ValueError(f"{kind} needs {name}")
    for name in params:
        if name not in reads:
            raise ValueError(f"{kind} does not read {name}")
    return build(g, **params)


# --- exhaustive search ----------------------------------------------------


# the most vertices the exhaustive search takes; larger graphs raise SizeLimitError
MAX_SEARCH_VERTICES = 8


@dataclass(frozen=True)
class SearchBound:
    """Finite window the exhaustive search sweeps.

    Every field must be exactly int, or a non-empty collection of them
    for sizes and ratios; anything else raises ValueError here rather
    than a TypeError mid-search.  Sizes below 3 and ratios below 2 could
    only give labelings outside the class, and a negative largest
    element gives no window at all, so they raise ValueError too.  Sizes
    and ratios are then kept as ascending tuples of distinct values: a
    repeat would only sweep the same candidates again.  The vertex cap
    is the constant MAX_SEARCH_VERTICES, not part of the window.
    """

    max_element: int = 30
    sizes: tuple[int, ...] = (3, 4)
    ratios: tuple[int, ...] = (2, 3)

    def __post_init__(self) -> None:
        _require_ints(max_element=self.max_element)
        for name in ("sizes", "ratios"):
            raw = getattr(self, name)
            values = tuple(raw) if isinstance(raw, Iterable) else ()
            if not values or any(type(x) is not int for x in values):
                raise ValueError(
                    f"search {name} must be a non-empty collection of integers, got {raw!r}"
                )
            object.__setattr__(self, name, tuple(sorted(set(values))))
        if self.max_element < 0:
            raise ValueError(f"max_element must be at least 0, got {self.max_element}")
        if self.sizes[0] < 3:
            raise ValueError(f"search sizes must be at least 3, got {self.sizes}")
        if self.ratios[0] < 2:
            raise ValueError(f"search ratios must be at least 2, got {self.ratios}")


def search_identical_biarithmetic(g: Graph, bound: SearchBound = SearchBound()) -> Optional[Labeling]:
    """Exhaustively look for a single-ratio labeling inside the bound.

    Ratios are tried in ascending order.  For each ratio the search
    first enumerates the vertex differences (each edge must scale by
    exactly that ratio) and then fills in sizes and first terms in
    ascending order, checking label injectivity as it goes.  Returns
    the first witness found, so equal inputs always give the same
    labeling, or None when the whole window is exhausted.  The witness returns through the shared certify step
    with the searched ratio, else ConstructionError.  A graph without
    edges has no edge ratio and raises InfeasibleError.

    Twins, vertices with the same neighbours (isolated vertices
    included), are placed in ascending order: a twin takes a difference
    no smaller than its earlier twin's and, when the two differences are
    equal, a (size, first) strictly above it.  Proof sketch that the
    witness is still the least one: both steps enumerate in
    lexicographic order along the search order.  Twins are not adjacent,
    so swapping the whole labels of two twins maps a labeling in the
    window to one that is valid exactly when it is.  If the least
    witness had twins with descending differences, the swapped
    difference map would come earlier and hold a witness; if their
    differences were equal and their (size, first) descending, the
    swapped fill would come earlier.  Labels are injective, so twins
    with equal differences never tie.  So the least witness obeys every
    twin rule and is never pruned.

    A difference map that puts more vertices on some difference d than
    the window has labels of difference d is skipped, partial maps
    included.  Proof sketch that this drops no witness: a label of
    difference d is fixed by its (size, first) pair, and the window
    holds room(d) such pairs, the sum over sizes of the lengths of
    ``_firsts``.  Labels are injective, so the vertices on d need
    distinct pairs, and by pigeonhole a map with more than room(d) of
    them has no fill; nor has any extension of a partial one.

    A graph with a non-bipartite component returns None before any
    difference map is tried.  Proof sketch: every ratio is at least 2,
    and an edge whose differences scale by that ratio changes by exactly
    one the power of the ratio dividing the difference, so that power
    flips parity along every edge and a cycle of odd length cannot
    close.  A search that admits ratio 1 must drop this refusal.

    The ratios stop at the first one above every window size: an edge
    label is arithmetic only when the ratio is at most the size of its
    smaller-difference endpoint, and the graph has an edge, so no larger
    ratio has a witness either.
    """
    if g.vertex_count > MAX_SEARCH_VERTICES:
        raise SizeLimitError(
            f"exhaustive search is limited to {MAX_SEARCH_VERTICES} vertices, "
            f"got {g.vertex_count}"
        )
    if not g.edges:
        raise InfeasibleError("a graph without edges has no edge ratio to share")
    comps = _traverse(g)[0]
    if not all(comp.bipartite for comp in comps):
        return None
    order = [v for comp in comps for v in comp.order]
    twin: dict[int, int] = {}  # vertex -> the last earlier vertex in order with its neighbours
    last: dict[tuple[int, ...], int] = {}
    for v in order:
        nbrs = g.neighbors(v)
        if nbrs in last:
            twin[v] = last[nbrs]
        last[nbrs] = v

    for ratio in bound.ratios:
        if ratio > bound.sizes[-1]:
            break
        for diffs in _diff_assignments(g, order, twin, ratio, bound):
            witness = _fill_labels(g, order, twin, diffs, bound)
            if witness is not None:
                return _certify(g, witness, ratio)
    return None


def _firsts(bound: SearchBound, size: int, d: int) -> range:
    """The first terms of the window's labels of the given size and difference d."""
    return range(bound.max_element - (size - 1) * d + 1)


def _diff_assignments(
    g: Graph, order: list[int], twin: dict[int, int], ratio: int, bound: SearchBound
) -> Iterable[dict[int, int]]:
    """All difference maps where every edge scales by exactly ratio and
    no difference holds more vertices than the window has labels for.

    A vertex with an earlier twin takes no difference below the twin's.
    The window has room(d) labels of difference d, one per (size, first)
    pair that ``_fill_labels`` walks; room is computed when d is first
    tried, never tabulated over every difference up to max_diff.
    """
    max_diff = bound.max_element // (bound.sizes[0] - 1)
    room: dict[int, int] = {}
    crowd: Counter[int] = Counter()  # difference -> vertices of the partial map on it

    def extend(i: int, diffs: dict[int, int]) -> Iterable[dict[int, int]]:
        if i == len(order):
            yield dict(diffs)
            return
        v = order[i]
        low = diffs[twin[v]] if v in twin else 1
        assigned = [w for w in g.neighbors(v) if w in diffs]
        if not assigned:
            candidates = range(low, max_diff + 1)
        else:
            f = diffs[assigned[0]]  # every assigned neighbour must agree with d
            candidates = [
                d for d in sorted({f // ratio, f * ratio})
                if low <= d <= max_diff
                and all(d == diffs[w] * ratio or d * ratio == diffs[w] for w in assigned)
            ]
        for d in candidates:
            if d not in room:
                room[d] = sum(len(_firsts(bound, size, d)) for size in bound.sizes)
            if crowd[d] == room[d]:
                continue
            diffs[v] = d
            crowd[d] += 1
            yield from extend(i + 1, diffs)
            crowd[d] -= 1
            del diffs[v]

    yield from extend(0, {})


def _fill_labels(
    g: Graph,
    order: list[int],
    twin: dict[int, int],
    diffs: dict[int, int],
    bound: SearchBound,
) -> Optional[Labeling]:
    """Depth-first completion with sizes and first terms ascending.

    Vertex keys are label triples (first, diff, size) and an edge's key
    is ``ap_sum`` of its endpoints' triples; a ratio above the size gives
    None, which rejects the candidate as a repeated key does.  Two edges
    at one vertex share a key only if their other endpoints share a
    label, so new keys need no check among themselves.
    A vertex whose earlier twin has the same difference takes only a
    (size, first) strictly above the twin's.
    """
    labels: dict[int, tuple[int, int, int]] = {}
    edge_keys: set[tuple[int, int, int]] = set()

    def place(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        d = diffs[v]
        placed = [labels[w] for w in g.neighbors(v) if w in labels]
        low_size = low_first = 0
        if v in twin and diffs[twin[v]] == d:
            twin_first, _, low_size = labels[twin[v]]
            low_first = twin_first + 1
        for size in bound.sizes:
            if size < low_size:
                continue
            start = low_first if size == low_size else 0
            for first in _firsts(bound, size, d)[start:]:
                key = (first, d, size)
                if key in labels.values():
                    continue
                new_edges = []
                for other in placed:
                    edge = ap_sum(key, other)
                    if edge is None or edge in edge_keys:
                        break
                    new_edges.append(edge)
                else:
                    labels[v] = key
                    edge_keys.update(new_edges)
                    if place(i + 1):
                        return True
                    del labels[v]
                    edge_keys.difference_update(new_edges)
        return False

    if place(0):
        return Labeling({v: ap_set(*key) for v, key in labels.items()})
    return None
