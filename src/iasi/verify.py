"""Verifiers for every labeling class the library knows.

``classify``, the one verifier, fills its report from one pass over the
vertices and one loop over the edges; nothing is trusted from
construction time, and every constructor and the search certify their
output through it.  The vertex pass builds columns indexed by vertex:
the labels, their sizes, and each label's (first, diff, size) triple
when it is a progression of at least 3 elements (diff is the paper's
deterministic index).  It tests every label for a repeat at once, and
only when there is one walks them to name each vertex-label collision.
The edge loop reads sizes and triples from there.  It keys each edge label
f(u) + f(v) and in the same step records its size, its deterministic
ratio (the larger index over the smaller), a ratio violation and an
edge-label collision.  An edge between two such triples takes the sum's
triple from ``sets.ap_sum`` when that rule applies, and builds no
sumset.  Every other edge builds its sumset and keys it by its (first,
diff, size) triple when it is a progression, else by its elements;
equal edge labels thus always get equal keys, and a collision builds a
sumset only to print it.  The report's flags respect the containment
chain: identical biarithmetic implies biarithmetic implies arithmetic,
and isoarithmetic implies arithmetic, with isoarithmetic and
biarithmetic mutually exclusive (a shared-difference edge has ratio 1,
a biarithmetic edge never does).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from .graphs import Graph
from .labeling import Labeling, MissingLabelError
from .sets import ap_sum, detect_ap, sumset


@dataclass(frozen=True)
class Violation:
    element: str  # "v3" or "e1-2", or a pair like "e0-1,e1-2"
    rule: str
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    is_iasi: bool
    vertex_arithmetic: bool
    edge_arithmetic: bool
    arithmetic: bool
    isoarithmetic: bool
    biarithmetic: bool
    identical_biarithmetic: Optional[int]
    strong: bool
    edge_uniform: Optional[int]
    vertex_uniform: Optional[int]
    violations: tuple[Violation, ...] = ()
    warnings: tuple[str, ...] = ()


def classify(g: Graph, lab: Labeling) -> VerificationReport:
    """Fill the report from one pass over the vertices and one loop over the edges.

    Flags implied by a failed prerequisite come back False rather than
    raising, so the report is total for any labeling of exactly the
    graph's vertices.  Raises MissingLabelError on a gap and ValueError
    on a label for a vertex the graph does not have.
    """
    violations: list[Violation] = []
    assignment = lab.assignment
    try:
        labels = [assignment[v] for v in g.vertices]  # f(v), indexed by vertex
    except KeyError as gap:
        raise MissingLabelError(f"vertex {gap.args[0]} has no label") from None
    if len(assignment) > g.vertex_count:
        extra = lab.vertices()[g.vertex_count]
        raise ValueError(f"vertex {extra} has a label but the graph has {g.vertex_count} vertices")
    elems = [s.elems for s in labels]
    sizes = list(map(len, elems))  # |f(v)|
    # (first, diff, size) of f(v) if a progression of >= 3 elements, else None
    triples: list[Optional[tuple[int, int, int]]] = [
        None if size < 3 or (ap := detect_ap(s)) is None else (*ap, size)
        for s, size in zip(labels, sizes)
    ]
    if len(set(elems)) != len(elems):
        first_with_label: dict[tuple[int, ...], int] = {}
        for v, e in enumerate(elems):
            first = first_with_label.setdefault(e, v)
            if first != v:
                violations.append(Violation(
                    element=f"v{first},v{v}",
                    rule="vertex-label-collision",
                    detail=f"vertices {first} and {v} share label {labels[v]}",
                ))

    # reported only when the labeling is an IASI of progressions
    ratio_violations: list[Violation] = []
    ratios: set[Optional[int]] = set()  # None when unknown or not an integer
    edge_sizes: set[int] = set()
    edge_arithmetic = strong = True
    first_with_key: dict[tuple, tuple[int, int]] = {}
    for e in g.edges:
        u, v = e
        tu, tv = triples[u], triples[v]
        ratio = key = None
        if tu is not None and tv is not None:
            # bound: size of the smaller-diff label; a tie has ratio 1, within any size
            (_, lo, bound), (_, hi, _) = (tu, tv) if tu[1] <= tv[1] else (tv, tu)
            ratio = None if hi % lo else hi // lo
            key = ap_sum(tu, tv)
            if key is None:  # the ratio is not an integer, or it is above bound
                if ratio is None:
                    d = gcd(hi, lo)
                    rule, detail = "ratio-not-integral", f"has index ratio {hi // d}/{lo // d}"
                else:
                    rule, detail = "ratio-exceeds-size", f"has ratio {ratio} above smaller-index label size {bound}"
                ratio_violations.append(Violation(f"e{u}-{v}", rule, f"edge {u}-{v} {detail}"))
        # the key is f(u) + f(v) as (first, diff, size) when a progression
        # (diff 0 for a singleton), else as (elements,): the shapes never
        # compare equal, so two edges share a key exactly when they share a label
        if key is None:
            label = sumset(labels[u], labels[v])
            size = len(label)
            ap = detect_ap(label)
            key = (label.elems,) if ap is None else (*ap, size)
            edge_arithmetic = edge_arithmetic and ap is not None
        else:
            size = key[2]
        ratios.add(ratio)
        edge_sizes.add(size)
        strong = strong and size == sizes[u] * sizes[v]
        # the edges are distinct tuples, so identity tells a new key from a collision
        first_edge = first_with_key.setdefault(key, e)
        if first_edge is not e:
            pu, pv = first_edge
            violations.append(Violation(
                element=f"e{pu}-{pv},e{u}-{v}",
                rule="edge-label-collision",
                detail=f"edges {pu}-{pv} and {u}-{v} share label {sumset(labels[u], labels[v])}",
            ))

    is_iasi = not violations
    vertex_arithmetic = None not in triples
    if is_iasi and vertex_arithmetic:
        violations += ratio_violations
    arithmetic = is_iasi and vertex_arithmetic and not ratio_violations
    # an edgeless graph counts as isoarithmetic only, keeping the two
    # classes mutually exclusive
    biarithmetic = arithmetic and bool(ratios) and 1 not in ratios
    return VerificationReport(
        is_iasi=is_iasi,
        vertex_arithmetic=vertex_arithmetic,
        edge_arithmetic=edge_arithmetic,
        arithmetic=arithmetic,
        isoarithmetic=arithmetic and ratios <= {1},
        biarithmetic=biarithmetic,
        identical_biarithmetic=ratios.pop() if biarithmetic and len(ratios) == 1 else None,
        strong=is_iasi and strong,
        edge_uniform=edge_sizes.pop() if len(edge_sizes) == 1 else None,
        vertex_uniform=sizes[0] if len(set(sizes)) == 1 else None,
        violations=tuple(sorted(violations, key=lambda x: (x.element, x.rule))),
        warnings=tuple(f"vertex {v} is isolated" for v in g.isolated_vertices()),
    )
