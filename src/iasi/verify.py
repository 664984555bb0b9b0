"""Verifiers for every labeling class the library knows.

One pass over the raw labels builds a table: each vertex label with
its common difference, the paper's deterministic index, and per edge a
key for the edge label f(u) + f(v), its size, its deterministic ratio
(the larger index over the smaller; None when that is not an integer)
and the size bound of the smaller-index endpoint, each computed once.
An edge whose labels are progressions (a, d, m) and (b, kd, n) of at
least 3 elements, with k an integer and k <= m, has the progression
(a + b, d, m + k(n - 1)) as its label, so that triple is its key and
no sumset is built.  Every other edge builds its sumset
and keys it by its (first, diff, size) triple when it is a progression,
else by its elements; equal edge labels thus always get equal keys, and
a collision builds a sumset only to print it.  ``classify``, the one
verifier, projects every flag of its report from that table; nothing is
trusted from construction time, and every constructor and the search
certify their output through it.  The report's flags
respect the containment chain: identical biarithmetic implies biarithmetic
implies arithmetic, and isoarithmetic implies arithmetic, with
isoarithmetic and biarithmetic mutually exclusive (a shared-difference
edge has ratio 1, a biarithmetic edge never does).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .graphs import Graph
from .labeling import Labeling
from .sets import IntSet, detect_ap, sumset


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


class _Edge(NamedTuple):
    u: int
    v: int
    # f(u) + f(v) as (first, diff, size) when a progression (diff 0 for a
    # singleton), else as (elements,): the shapes never compare equal, so
    # two edges share a key exactly when they share a label
    key: tuple
    size: int  # |f(u) + f(v)|
    ratio: Optional[int]  # larger diff over smaller; None if unknown or not an integer
    bound: int  # size of the smaller-diff label, the smaller size on a tie; 0 if unknown


class _Table(NamedTuple):
    labels: tuple[IntSet, ...]  # f(v), indexed by vertex
    diffs: tuple[Optional[int], ...]  # diff of f(v) if a progression of >= 3 elements
    edges: tuple[_Edge, ...]  # in sorted edge order


def _table(g: Graph, lab: Labeling) -> _Table:
    """One pass over the labels; raises MissingLabelError on a gap."""
    labels = tuple(lab.label(v) for v in g.vertices)
    diffs = []
    for s in labels:
        ap = detect_ap(s) if len(s) >= 3 else None
        diffs.append(None if ap is None else ap[1])
    edges = []
    for u, v in g.edge_list():
        du, dv = diffs[u], diffs[v]
        ratio, bound = None, 0
        if du is not None and dv is not None:
            (lo, bound), (hi, n) = sorted(((du, len(labels[u])), (dv, len(labels[v]))))
            if hi % lo == 0:
                ratio = hi // lo
        if ratio is not None and ratio <= bound:
            size = bound + ratio * (n - 1)
            key: tuple = (labels[u].min + labels[v].min, lo, size)
        else:
            label = sumset(labels[u], labels[v])
            size = len(label)
            ap = detect_ap(label)
            key = (label.elems,) if ap is None else (*ap, size)
        edges.append(_Edge(u, v, key, size, ratio, bound))
    return _Table(labels, tuple(diffs), tuple(edges))


def _collisions(t: _Table) -> list[Violation]:
    """Vertex labels, then edge labels, that repeat an earlier one."""
    violations: list[Violation] = []
    by_label: dict[tuple[int, ...], int] = {}
    for v, s in enumerate(t.labels):
        first = by_label.setdefault(s.elems, v)
        if first != v:
            violations.append(
                Violation(
                    element=f"v{first},v{v}",
                    rule="vertex-label-collision",
                    detail=f"vertices {first} and {v} share label {s}",
                )
            )
    by_edge: dict[tuple, tuple[int, int]] = {}
    for e in t.edges:
        pu, pv = by_edge.setdefault(e.key, (e.u, e.v))
        if (pu, pv) != (e.u, e.v):
            label = sumset(t.labels[e.u], t.labels[e.v])
            violations.append(
                Violation(
                    element=f"e{pu}-{pv},e{e.u}-{e.v}",
                    rule="edge-label-collision",
                    detail=f"edges {pu}-{pv} and {e.u}-{e.v} share label {label}",
                )
            )
    return violations


def _ratio_violations(t: _Table) -> list[Violation]:
    """Edges whose ratio is fractional or above the smaller-index size.

    Every vertex label must be a progression of at least 3 elements.
    """
    violations: list[Violation] = []
    for e in t.edges:
        if e.ratio is None:
            du, dv = t.diffs[e.u], t.diffs[e.v]
            violations.append(
                Violation(
                    element=f"e{e.u}-{e.v}",
                    rule="ratio-not-integral",
                    detail=f"edge {e.u}-{e.v} has index ratio {Fraction(max(du, dv), min(du, dv))}",
                )
            )
        elif e.ratio > e.bound:
            violations.append(
                Violation(
                    element=f"e{e.u}-{e.v}",
                    rule="ratio-exceeds-size",
                    detail=f"edge {e.u}-{e.v} has ratio {e.ratio} above smaller-index label size {e.bound}",
                )
            )
    return violations


def _single_ratio(t: _Table) -> Optional[int]:
    """The one ratio above 1 shared by every edge, else None."""
    ratios = {e.ratio for e in t.edges}
    if len(ratios) != 1:
        return None
    [r] = ratios
    return r if r > 1 else None


def _strong(t: _Table) -> bool:
    return all(e.size == len(t.labels[e.u]) * len(t.labels[e.v]) for e in t.edges)


def _uniform(t: _Table) -> tuple[Optional[int], Optional[int]]:
    edge_sizes = {e.size for e in t.edges}
    vertex_sizes = {len(s) for s in t.labels}
    edge_k = edge_sizes.pop() if len(edge_sizes) == 1 else None
    vertex_l = vertex_sizes.pop() if len(vertex_sizes) == 1 else None
    return (edge_k, vertex_l)


def classify(g: Graph, lab: Labeling) -> VerificationReport:
    """Build the table once and project every flag of the report from it.

    Flags implied by a failed prerequisite come back False rather than
    raising, so the report is total for any covering labeling.
    """
    t = _table(g, lab)
    violations = _collisions(t)
    is_iasi = not violations
    vertex_arithmetic = all(d is not None for d in t.diffs)
    edge_arithmetic = all(len(e.key) == 3 for e in t.edges)

    arithmetic = False
    isoarithmetic = False
    biarithmetic = False
    identical: Optional[int] = None
    if is_iasi and vertex_arithmetic:
        arith_violations = _ratio_violations(t)
        violations += arith_violations
        arithmetic = not arith_violations
        if arithmetic:
            isoarithmetic = all(e.ratio == 1 for e in t.edges)
            # an edgeless graph counts as isoarithmetic only, keeping the
            # two classes mutually exclusive
            biarithmetic = bool(t.edges) and all(e.ratio > 1 for e in t.edges)
            identical = _single_ratio(t)

    edge_uniform, vertex_uniform = _uniform(t)
    warnings = tuple(
        f"vertex {v} is isolated" for v in g.isolated_vertices()
    )
    return VerificationReport(
        is_iasi=is_iasi,
        vertex_arithmetic=vertex_arithmetic,
        edge_arithmetic=edge_arithmetic,
        arithmetic=arithmetic,
        isoarithmetic=isoarithmetic,
        biarithmetic=biarithmetic,
        identical_biarithmetic=identical,
        strong=is_iasi and _strong(t),
        edge_uniform=edge_uniform,
        vertex_uniform=vertex_uniform,
        violations=tuple(sorted(violations, key=lambda x: (x.element, x.rule))),
        warnings=warnings,
    )
