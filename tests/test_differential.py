"""Differential tests: the fast paths against naive oracles.

The oracles below are the straightforward versions the library used
before it built adjacency once and derived every verdict from one edge
table: neighbours by scanning the whole edge set, one breadth-first
search per question, and each verifier recomputing sumsets and ratios
from the raw labels.  They are kept here, unoptimized, as references.
Every return value, violation list and raised exception of the
library must match them on random graphs and labelings, including
labels that are not progressions, labels with fewer than 3 elements,
labelings that are not set-indexers, uncovered vertices, labels past
the graph and graphs without edges.

The audit counts class sizes by one polynomial product of two
indicators built in closed form as geometric series; its oracle is
the audit as it was when it listed every pair with
``compat_partition`` and counted every field from the pair lists, and
records and their serialized text must match on every theorem id and
alias, skipped points included.  The oracle builds its witness pair at
a drawn difference, huge ones included, and the audit takes none: no
count may depend on it.  A
sweep gives one record per point and never raises, whatever the
length and members of its points.  The geometric-series indicators
must be bit for bit the integers the old generic product packed one
element at a time.
The audit serializer formats an observed value once where it prints
like the predicted one; its oracle formats every value where it is
printed, and text must match byte for byte, also for equal values
that print differently (True and 1) and for mapping-proxy histograms.

``classify`` keys each edge label by its progression triple and builds
no sumset where the closed form gives the label; its oracle is the
edge table as it was when it built every edge's sumset and ran
``detect_ap`` on it.  Reports must match flag for flag, violation text
for violation text, on labelings drawn so that keyed and built edge
labels collide.

Constructors take first terms from the Erdos-Turan Sidon set
2pv + (v*v mod p); their oracle is the doubling pool 2**v - 1 they used
before.  For every dispatcher kind on random graphs both pools must
give equal ``classify`` reports, or the same exception, and labels
with the same difference and size at every vertex.
The four kinds with sides read them from ``_traverse``'s colouring;
their oracle takes each vertex's difference and size from the public
``bipartition`` sides, or for ``componentwise_uniform`` from a
breadth-first search per component of its own, and states every
refusal with its message.  On bipartite graphs, graphs with an odd
component, isolated vertices and the empty graph, each label's
difference and size, or the exception raised, must match.

The exhaustive search compares labels by their progression triples
and places twins (vertices with the same neighbours) in ascending
order; its oracle is the depth-first fill that built every candidate as
an ``IntSet`` and compared full sumsets, over every difference map with
twins in any order.  On every window over a graph with edges the search
must return the same witness, None or exception, also on graphs drawn
to have many twins, and in every witness twins come in ascending order.
The search also skips every difference map that puts more vertices on
one difference than the window has labels for; the oracle has no such
prune, and small windows on complete bipartite and cloned graphs, where
the prune binds often, must agree too.

The parsers check each line once and build ``Graph`` and ``Labeling``
without the constructors' second validation pass; their oracle is the
parse-then-validate path through ``graph(n, edges)`` and
``Labeling({v: IntSet(...)})``.  On serialized random graphs and
labelings, and on texts with lines duplicated, swapped, dropped, blanked
or retokenised, both must give the same object (for graphs also the same
neighbours of every vertex and the same hash) or the same ``ParseError``
message and line number.  Both refuse, before any other check, the
first ASCII control character but tab and a line end; the oracle finds
it by a loop over the lines split at newlines.  Both refuse, after
every other check, the first line with a sign, an underscore or a
non-ASCII character, which ``int()`` reads and the format never writes;
the oracle finds it with a regular expression, line by line.  Graphs
built from shuffled, reoriented edge lists and parsed from shuffled
files must equal the canonical graph, keep their edges sorted and print
byte for byte alike.
``sets.ap_sum`` states once when two progressions sum to a progression;
its oracle is ``detect_ap`` of the materialised sumset, under the rule's
condition written out in the test.  ``detect_ap`` compares a set with
the range its first gap spans; its oracle is the gap loop, on
singletons, pairs, near-progressions and elements above 2**64.
``ap_set`` builds its set from a range without ``IntSet``'s checks;
its oracle lists the terms one by one, and refuses, with the same
message, bools, floats and every argument out of range.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from fractions import Fraction
from math import gcd
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from iasi import (
    AuditRecord,
    Bipartition,
    ClassProfile,
    ConstructionError,
    InfeasibleError,
    IntSet,
    Labeling,
    MissingLabelError,
    NotBipartiteError,
    Prediction,
    RatioBoundError,
    SearchBound,
    VerificationReport,
    Violation,
    ap_set,
    audit,
    audit_point,
    bipartition,
    classify,
    compat_partition,
    components,
    construct,
    detect_ap,
    export_dot,
    graph,
    parse_graph,
    parse_labeling,
    search_identical_biarithmetic,
    serialize_audit,
    serialize_graph,
    serialize_labeling,
    serialize_report,
    sumset,
)
from iasi.compat import AUDITS, _class_histogram, _packed_indicator, _predict
from iasi.construct import _certify, _dsatur_levels
from iasi.graphs import _traverse
from iasi.io import ParseError
from iasi.sets import ap_sum

from conftest import witness_pair

# --- graph oracles ------------------------------------------------------------


def naive_neighbors(g, v):
    if not 0 <= v < g.vertex_count:
        raise ValueError(f"vertex {v} out of range")
    out = [b if a == v else a for a, b in g.edges if v in (a, b)]
    return tuple(sorted(out))


def naive_isolated(g):
    touched = {v for e in g.edges for v in e}
    return tuple(v for v in g.vertices if v not in touched)


def naive_bfs_order(g, root):
    seen = {root}
    out = [root]
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in naive_neighbors(g, v):
            if w not in seen:
                seen.add(w)
                out.append(w)
                queue.append(w)
    return out


def naive_components(g):
    seen: set[int] = set()
    out = []
    for root in g.vertices:
        if root not in seen:
            comp = naive_bfs_order(g, root)
            seen.update(comp)
            out.append(tuple(sorted(comp)))
    return out


def naive_bipartition(g):
    color: dict[int, int] = {}
    for root in g.vertices:
        if root in color:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in naive_neighbors(g, v):
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    side_x = frozenset(v for v, c in color.items() if c == 0)
    side_y = frozenset(v for v, c in color.items() if c == 1)
    return Bipartition(side_x, side_y)


def naive_dsatur(g):
    """DSatur by a full scan per step; level = top colour - colour."""
    color: dict[int, int] = {}
    while len(color) < g.vertex_count:
        def priority(v):
            nbrs = naive_neighbors(g, v)
            return (len({color[w] for w in nbrs if w in color}), len(nbrs), -v)
        v = max((v for v in g.vertices if v not in color), key=priority)
        used = {color[w] for w in naive_neighbors(g, v) if w in color}
        color[v] = min(c for c in range(g.vertex_count) if c not in used)
    top = max(color.values(), default=0)
    return {v: top - color[v] for v in g.vertices}


# --- verifier oracles -----------------------------------------------------------


class NotProgressionError(Exception):
    """A label the arithmetic oracles need is no progression of 3 or more."""


def naive_edge_label(lab, u, v):
    return IntSet(tuple(x + y for x in lab.label(u) for y in lab.label(v)))


def naive_index(lab, v):
    s = lab.label(v)
    if len(s) == 1:
        raise NotProgressionError(f"vertex {v} has a singleton label")
    ap = detect_ap(s)
    if ap is None:
        raise NotProgressionError(f"label of vertex {v} is not an arithmetic progression")
    return ap[1]


def naive_ratio(lab, u, v):
    du, dv = naive_index(lab, u), naive_index(lab, v)
    if du == dv:
        return Fraction(1), (u, v)
    if du < dv:
        return Fraction(dv, du), (u,)
    return Fraction(du, dv), (v,)


def require_cover(g, lab):
    for v in g.vertices:
        lab.label(v)
    extra = sorted(v for v in lab if v >= g.vertex_count)
    if extra:
        raise ValueError(f"vertex {extra[0]} has a label but the graph has {g.vertex_count} vertices")


def naive_verify_iasi(g, lab):
    require_cover(g, lab)
    violations = []
    by_label: dict[tuple[int, ...], int] = {}
    for v in g.vertices:
        key = lab.label(v).elems
        if key in by_label:
            violations.append(Violation(
                element=f"v{by_label[key]},v{v}",
                rule="vertex-label-collision",
                detail=f"vertices {by_label[key]} and {v} share label {lab.label(v)}",
            ))
        else:
            by_label[key] = v
    by_edge: dict[tuple[int, ...], tuple[int, int]] = {}
    for u, v in sorted(g.edges):
        key = naive_edge_label(lab, u, v).elems
        if key in by_edge:
            pu, pv = by_edge[key]
            violations.append(Violation(
                element=f"e{pu}-{pv},e{u}-{v}",
                rule="edge-label-collision",
                detail=f"edges {pu}-{pv} and {u}-{v} share label {naive_edge_label(lab, u, v)}",
            ))
        else:
            by_edge[key] = (u, v)
    return (not violations, violations)


def naive_verify_arithmetic(g, lab):
    require_cover(g, lab)
    for v in g.vertices:
        s = lab.label(v)
        if len(s) < 3:
            raise NotProgressionError(
                f"label of vertex {v} has {len(s)} elements; arithmetic labels need 3"
            )
        if detect_ap(s) is None:
            raise NotProgressionError(f"label of vertex {v} is not an arithmetic progression")
    violations = []
    for u, v in sorted(g.edges):
        ratio, smaller = naive_ratio(lab, u, v)
        if ratio.denominator != 1:
            violations.append(Violation(
                element=f"e{u}-{v}",
                rule="ratio-not-integral",
                detail=f"edge {u}-{v} has index ratio {ratio}",
            ))
            continue
        k = ratio.numerator
        bound = min(len(lab.label(w)) for w in smaller)
        if k > bound:
            violations.append(Violation(
                element=f"e{u}-{v}",
                rule="ratio-exceeds-size",
                detail=f"edge {u}-{v} has ratio {k} above smaller-index label size {bound}",
            ))
    return (not violations, violations)


def naive_verify_strong(g, lab):
    require_cover(g, lab)
    return all(
        len(naive_edge_label(lab, u, v)) == len(lab.label(u)) * len(lab.label(v))
        for u, v in g.edges
    )


def naive_verify_uniform(g, lab):
    require_cover(g, lab)
    edge_sizes = {len(naive_edge_label(lab, u, v)) for u, v in g.edges}
    vertex_sizes = {len(lab.label(v)) for v in g.vertices}
    edge_k = edge_sizes.pop() if len(edge_sizes) == 1 else None
    vertex_l = vertex_sizes.pop() if len(vertex_sizes) == 1 else None
    return (edge_k, vertex_l)


def naive_classify(g, lab):
    is_iasi, violations = naive_verify_iasi(g, lab)
    vertex_arithmetic = all(
        len(lab.label(v)) >= 3 and detect_ap(lab.label(v)) is not None for v in g.vertices
    )
    edge_arithmetic = all(
        detect_ap(naive_edge_label(lab, u, v)) is not None for u, v in g.edges
    )
    arithmetic = isoarithmetic = biarithmetic = False
    identical: Optional[int] = None
    if is_iasi and vertex_arithmetic:
        arithmetic, arith_violations = naive_verify_arithmetic(g, lab)
        violations = violations + arith_violations
        if arithmetic:
            ratios = [naive_ratio(lab, u, v)[0] for u, v in sorted(g.edges)]
            isoarithmetic = all(r == 1 for r in ratios)
            biarithmetic = bool(ratios) and all(r > 1 for r in ratios)
            if biarithmetic and len(set(ratios)) == 1:
                identical = ratios[0].numerator
    strong = naive_verify_strong(g, lab) if is_iasi else False
    edge_uniform, vertex_uniform = naive_verify_uniform(g, lab)
    return VerificationReport(
        is_iasi=is_iasi,
        vertex_arithmetic=vertex_arithmetic,
        edge_arithmetic=edge_arithmetic,
        arithmetic=arithmetic,
        isoarithmetic=isoarithmetic,
        biarithmetic=biarithmetic,
        identical_biarithmetic=identical,
        strong=strong,
        edge_uniform=edge_uniform,
        vertex_uniform=vertex_uniform,
        violations=tuple(sorted(violations, key=lambda x: (x.element, x.rule))),
        warnings=tuple(f"vertex {v} is isolated" for v in naive_isolated(g)),
    )


# --- classify oracle: the edge table that built every sumset ------------------------


class SumsetEdge(NamedTuple):
    u: int
    v: int
    label: IntSet
    ratio: Optional[int]
    bound: int


def sumset_table(g, lab):
    require_cover(g, lab)
    labels = tuple(lab.label(v) for v in g.vertices)
    diffs = []
    for s in labels:
        ap = detect_ap(s) if len(s) >= 3 else None
        diffs.append(None if ap is None else ap[1])
    edges = []
    for u, v in sorted(g.edges):
        du, dv = diffs[u], diffs[v]
        ratio, bound = None, 0
        if du is not None and dv is not None:
            (lo, bound), (hi, _) = sorted(((du, len(labels[u])), (dv, len(labels[v]))))
            if hi % lo == 0:
                ratio = hi // lo
        edges.append(SumsetEdge(u, v, sumset(labels[u], labels[v]), ratio, bound))
    return labels, diffs, edges


def naive_table_classify(g, lab):
    labels, diffs, edges = sumset_table(g, lab)
    violations = []
    by_label: dict[tuple[int, ...], int] = {}
    for v, s in enumerate(labels):
        first = by_label.setdefault(s.elems, v)
        if first != v:
            violations.append(Violation(
                element=f"v{first},v{v}",
                rule="vertex-label-collision",
                detail=f"vertices {first} and {v} share label {s}",
            ))
    by_edge: dict[tuple[int, ...], tuple[int, int]] = {}
    for e in edges:
        pu, pv = by_edge.setdefault(e.label.elems, (e.u, e.v))
        if (pu, pv) != (e.u, e.v):
            violations.append(Violation(
                element=f"e{pu}-{pv},e{e.u}-{e.v}",
                rule="edge-label-collision",
                detail=f"edges {pu}-{pv} and {e.u}-{e.v} share label {e.label}",
            ))
    is_iasi = not violations
    vertex_arithmetic = all(d is not None for d in diffs)
    arithmetic = isoarithmetic = biarithmetic = False
    identical: Optional[int] = None
    if is_iasi and vertex_arithmetic:
        arith_violations = []
        for e in edges:
            if e.ratio is None:
                du, dv = diffs[e.u], diffs[e.v]
                arith_violations.append(Violation(
                    element=f"e{e.u}-{e.v}",
                    rule="ratio-not-integral",
                    detail=f"edge {e.u}-{e.v} has index ratio {Fraction(max(du, dv), min(du, dv))}",
                ))
            elif e.ratio > e.bound:
                arith_violations.append(Violation(
                    element=f"e{e.u}-{e.v}",
                    rule="ratio-exceeds-size",
                    detail=f"edge {e.u}-{e.v} has ratio {e.ratio} above smaller-index label size {e.bound}",
                ))
        violations += arith_violations
        arithmetic = not arith_violations
        if arithmetic:
            isoarithmetic = all(e.ratio == 1 for e in edges)
            biarithmetic = bool(edges) and all(e.ratio > 1 for e in edges)
            ratios = {e.ratio for e in edges}
            if len(ratios) == 1 and ratios != {1}:
                [identical] = ratios
    edge_sizes = {len(e.label) for e in edges}
    vertex_sizes = {len(s) for s in labels}
    return VerificationReport(
        is_iasi=is_iasi,
        vertex_arithmetic=vertex_arithmetic,
        edge_arithmetic=all(detect_ap(e.label) is not None for e in edges),
        arithmetic=arithmetic,
        isoarithmetic=isoarithmetic,
        biarithmetic=biarithmetic,
        identical_biarithmetic=identical,
        strong=is_iasi and all(len(e.label) == len(labels[e.u]) * len(labels[e.v]) for e in edges),
        edge_uniform=edge_sizes.pop() if len(edge_sizes) == 1 else None,
        vertex_uniform=vertex_sizes.pop() if len(vertex_sizes) == 1 else None,
        violations=tuple(sorted(violations, key=lambda x: (x.element, x.rule))),
        warnings=tuple(f"vertex {v} is isolated" for v in g.isolated_vertices()),
    )


# --- audit oracle: the pair-listing audit -----------------------------------------


def naive_observe(profile: ClassProfile, cap: int) -> dict[str, object]:
    """Every observed field, counted from the pair lists alone."""
    sizes = [len(pairs) for pairs in profile.classes.values()]
    top = max(sizes)
    return {
        "histogram": {size: sizes.count(size) for size in sorted(set(sizes))},
        "class_count": len(sizes),
        "saturated_size": cap,
        "saturated_count": sizes.count(cap),
        "max_size": top,
        "max_count": sizes.count(top),
    }


def naive_audit_point(theorem, point, diff=1):
    try:
        pred = _predict(theorem, point)
    except ValueError as exc:
        pseudo = Prediction(
            theorem=theorem.upper(),
            params=dict(zip("mnk", point)) if isinstance(point, tuple) else {},
            expected={},
        )
        return AuditRecord(pseudo, None, "skipped", (str(exc),))
    m = pred.params["m"]
    n = pred.params["n"]
    k = pred.params.get("k", 1)
    a, b = witness_pair(m, n, k, diff)
    observed = naive_observe(compat_partition(a, b), min(len(a), len(b)))
    detail: list[str] = []
    for key, want in pred.expected.items():
        got = observed[key]
        if got != want:
            detail.append(f"{key}: predicted {want!r}, observed {got!r} <-- differs")
    return AuditRecord(pred, observed, "mismatch" if detail else "match", tuple(detail))


# --- serializer oracle: every value formatted where it is printed -----------------------


def naive_histogram(h):
    return "{" + ", ".join(f"{k}:{h[k]}" for k in sorted(h)) + "}"


def naive_fmt(value, compact=False):
    if isinstance(value, Mapping):
        if compact:
            return ",".join(f"{k}:{value[k]}" for k in sorted(value))
        return naive_histogram(value)
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def naive_serialize_audit(records, fmt="text"):
    records = list(records)
    params = lambda p: " ".join(f"{k}={v}" for k, v in p.items())
    if fmt == "structured":
        lines = []
        for rec in records:
            parts = [f"theorem={rec.prediction.theorem}", params(rec.prediction.params),
                     f"verdict={rec.verdict}"]
            for key, want in rec.prediction.expected.items():
                parts.append(f"predicted.{key}={naive_fmt(want, compact=True)}")
                if rec.observed is not None:
                    parts.append(f"observed.{key}={naive_fmt(rec.observed[key], compact=True)}")
            if rec.observed is not None and "histogram" not in rec.prediction.expected:
                parts.append(
                    f"observed.histogram={naive_fmt(rec.observed['histogram'], compact=True)}"
                )
            if rec.verdict == "skipped":
                parts.append(f'reason="{rec.detail[0]}"')
            lines.append(" ".join(x for x in parts if x))
        lines.append(naive_summary_line(records))
        return "\n".join(lines) + "\n"
    lines = []
    for rec in records:
        head = f"{rec.prediction.theorem} {params(rec.prediction.params)}"
        if rec.verdict == "skipped":
            lines.append(f"{head}: skipped ({rec.detail[0]})")
            continue
        fields = ", ".join(
            f"{key}={naive_fmt(rec.prediction.expected[key])}" for key in rec.prediction.expected
        )
        if rec.verdict == "match":
            lines.append(f"{head}: match ({fields})")
        else:
            observed = ", ".join(
                f"{key}={naive_fmt(rec.observed[key])}" for key in rec.prediction.expected
            )
            hist = naive_histogram(rec.observed["histogram"])
            lines.append(
                f"{head}: MISMATCH predicted ({fields}); observed ({observed}); "
                f"observed histogram={hist}"
            )
    lines.append(naive_summary_line(records))
    return "\n".join(lines) + "\n"


# the audit render without its fast paths, as their oracle: ``naive_fmt``
# above is ``_fmt`` with no int fast path and ``_compact_histogram``
# inlined, and the text lines are those of ``naive_serialize_audit``


def slow_prints_alike(a, b):
    if a is b:
        return True
    if isinstance(a, Mapping):
        if not isinstance(b, Mapping) or a != b:
            return False
        types = {*map(type, a), *map(type, a.values()), *map(type, b), *map(type, b.values())}
        return types <= {int}
    return type(a) is int and type(b) is int and a == b


def slow_params_str(params):
    return " ".join(f"{k}={v}" for k, v in params.items())


def slow_audit_fields(rec):
    parts = [f"theorem={rec.prediction.theorem}", slow_params_str(rec.prediction.params),
             f"verdict={rec.verdict}"]
    observed = rec.observed
    for key, want in rec.prediction.expected.items():
        text = naive_fmt(want, compact=True)
        parts.append(f"predicted.{key}={text}")
        if observed is not None:
            if not slow_prints_alike(observed[key], want):
                text = naive_fmt(observed[key], compact=True)
            parts.append(f"observed.{key}={text}")
    if observed is not None and "histogram" not in rec.prediction.expected:
        parts.append(f"observed.histogram={naive_fmt(observed['histogram'], compact=True)}")
    if rec.verdict == "skipped":
        parts.append(f'reason="{rec.detail[0]}"')
    return " ".join(x for x in parts if x)


def slow_serialize_audit(records, fmt):
    if fmt == "text":
        return naive_serialize_audit(records, fmt)
    lines = [slow_audit_fields(rec) for rec in records]
    return "\n".join([*lines, naive_summary_line(records)]) + "\n"


def naive_summary_line(records):
    total = len(records)
    match = sum(1 for r in records if r.verdict == "match")
    mismatch = sum(1 for r in records if r.verdict == "mismatch")
    skipped = sum(1 for r in records if r.verdict == "skipped")
    if match == total:
        return f"all {total} grid points match"
    return f"{total} grid points: {match} match, {mismatch} mismatch, {skipped} skipped"


# --- search oracle: candidate sets and full sumsets ---------------------------------


def naive_fill_labels(g, order, diffs, ratio, bound):
    labels = {}
    label_keys = set()
    edge_keys = set()
    candidates = {
        d: tuple(
            ap_set(first, d, size)
            for size in sorted(bound.sizes)
            for first in range(0, bound.max_element - (size - 1) * d + 1)
        )
        for d in set(diffs.values())
    }

    def bound_ok(cand, v):
        for w in naive_neighbors(g, v):
            if w not in labels:
                continue
            lo_size = len(cand) if diffs[v] < diffs[w] else len(labels[w])
            if ratio > lo_size:
                return False
        return True

    def place(i):
        if i == len(order):
            return True
        v = order[i]
        for cand in candidates[diffs[v]]:
            key = cand.elems
            if key in label_keys or not bound_ok(cand, v):
                continue
            new_edges = []
            ok = True
            for w in naive_neighbors(g, v):
                if w not in labels:
                    continue
                ekey = tuple(sorted({x + y for x in cand for y in labels[w]}))
                if ekey in edge_keys or ekey in new_edges:
                    ok = False
                    break
                new_edges.append(ekey)
            if not ok:
                continue
            labels[v] = cand
            label_keys.add(key)
            edge_keys.update(new_edges)
            if place(i + 1):
                return True
            labels.pop(v)
            label_keys.discard(key)
            edge_keys.difference_update(new_edges)
        return False

    if place(0):
        return Labeling(dict(labels))
    return None


def naive_diff_assignments(g, order, ratio, max_diff):
    """Every difference map in lexicographic order along order, twins in any order."""

    def extend(i, diffs):
        if i == len(order):
            yield dict(diffs)
            return
        v = order[i]
        assigned = [w for w in naive_neighbors(g, v) if w in diffs]
        if not assigned:
            candidates = range(1, max_diff + 1)
        else:
            opts = set()
            first = diffs[assigned[0]]
            opts.add(first * ratio)
            if first % ratio == 0:
                opts.add(first // ratio)
            for w in assigned[1:]:
                opts = {d for d in opts if d == diffs[w] * ratio or d * ratio == diffs[w]}
            candidates = sorted(d for d in opts if 1 <= d <= max_diff)
        for d in candidates:
            diffs[v] = d
            yield from extend(i + 1, diffs)
            del diffs[v]

    yield from extend(0, {})


def naive_search(g, bound):
    max_diff = bound.max_element // (min(bound.sizes) - 1)
    order = [v for c in naive_components(g) for v in naive_bfs_order(g, c[0])]
    for ratio in sorted(bound.ratios):
        for diffs in naive_diff_assignments(g, order, ratio, max_diff):
            witness = naive_fill_labels(g, order, diffs, ratio, bound)
            if witness is not None:
                ok, violations = naive_verify_iasi(g, witness)
                assert ok, violations
                return witness
    return None


# --- first-term oracle: the doubling pool -------------------------------------------


def naive_assign(g, diffs, sizes, seed):
    base = seed % 1000
    return _certify(
        g, Labeling({v: ap_set(base + (1 << v) - 1, diffs[v], sizes[v]) for v in g.vertices})
    )


# --- parser oracles: check each line, then validate again on construction ------------


def naive_lines(text):
    """The pieces of text between '\n's, less the empty one after a last '\n'."""
    pieces = text.split("\n")
    return pieces[:-1] if pieces[-1] == "" else pieces


def naive_parse_graph(text):
    naive_check_controls(text)
    lines = naive_lines(text)
    if not lines or not lines[0].strip():
        raise ParseError("expected header 'n m'", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("expected header 'n m'", 1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("header values must be integers", 1) from None
    if n < 0 or m < 0:
        raise ParseError("header values must be non-negative", 1)
    edges = set()
    for i, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise ParseError("expected edge 'u v'", i)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", i) from None
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", i)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge {u} {v} out of range for {n} vertices", i)
        e = (min(u, v), max(u, v))
        if e in edges:
            raise ParseError(f"duplicate edge {u} {v}", i)
        edges.add(e)
    if len(edges) != m:
        raise ParseError(f"header promised {m} edges, found {len(edges)}", len(lines))
    naive_check_plain_digits(text)
    return graph(n, edges)


def naive_parse_labeling(text):
    naive_check_controls(text)
    assignment = {}
    last_vertex = -1
    for i, raw in enumerate(naive_lines(text), start=1):
        if not raw.strip():
            continue
        if ":" not in raw:
            raise ParseError("expected 'v: e1 e2 ...'", i)
        head, _, tail = raw.partition(":")
        try:
            v = int(head.strip())
        except ValueError:
            vid = head.strip()
            shown = repr(vid) if len(vid) <= 32 else repr(vid[:32]) + "..."
            raise ParseError(f"vertex id {shown} is not an integer", i) from None
        if v in assignment:
            raise ParseError(f"vertex {v} labeled twice", i)
        if v <= last_vertex:
            raise ParseError(f"vertex {v} out of ascending order", i)
        last_vertex = v
        parts = tail.split()
        if not parts:
            raise ParseError(f"vertex {v} has an empty label", i)
        try:
            elems = [int(p) for p in parts]
        except ValueError:
            raise ParseError("label elements must be integers", i) from None
        for a, b in zip(elems, elems[1:]):
            if b <= a:
                raise ParseError(
                    f"label elements must be strictly increasing, saw {a} then {b}", i
                )
        if elems[0] < 0:
            raise ParseError("label elements must be non-negative", i)
        assignment[v] = IntSet(tuple(elems))
    naive_check_plain_digits(text)
    return Labeling(assignment)


def naive_check_controls(text):
    """Refuse, line by line, the first ASCII control character but tab and a line end."""
    pieces = text.split("\n")
    for i, raw in enumerate(pieces, start=1):
        if i < len(pieces) and raw.endswith("\r"):
            raw = raw[:-1]  # the '\r' of a '\r\n' line end
        for c in raw:
            if (c < " " and c != "\t") or c == "\x7f":
                raise ParseError(
                    f"found {c!r}: lines end at '\\n' or '\\r\\n', and tab is the only "
                    "other control character",
                    i,
                )


# a sign, an underscore or a non-ASCII character: what int() reads and the
# format never writes, checked once everything else has passed
UNPLAIN = re.compile(r"[-+_]|[^\x00-\x7f]")


def naive_check_plain_digits(text):
    for i, raw in enumerate(naive_lines(text), start=1):
        found = UNPLAIN.search(raw)
        if found:
            raise ParseError(
                f"found {found.group()!r}: integers are plain ASCII digits, no sign or '_'", i
            )


# --- progression oracle: the gap loop -------------------------------------------------


def naive_detect_ap(s):
    e = s.elems if isinstance(s, IntSet) else IntSet(tuple(s)).elems
    if len(e) == 1:
        return (e[0], 0)
    d = e[1] - e[0]
    for i in range(2, len(e)):
        if e[i] - e[i - 1] != d:
            return None
    return (e[0], d)


# --- strategies -------------------------------------------------------------------


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph(n, [e for e, k in zip(pairs, keep) if k])


progressions = st.builds(
    ap_set, st.integers(0, 12), st.sampled_from([1, 2, 3, 4, 6, 8]), st.integers(1, 5)
)
arbitrary_sets = st.frozensets(st.integers(0, 14), min_size=1, max_size=5).map(
    lambda s: IntSet(tuple(s))
)
# a tiny pool makes repeated vertex labels and colliding edge labels common
pooled = st.sampled_from([ap_set(0, 1, 3), ap_set(1, 1, 3), ap_set(0, 2, 3), ap_set(2, 2, 4)])
labels = st.one_of(progressions, progressions, arbitrary_sets, pooled)


# labels over a small range: differences 1..4 with sizes 1..5 give ties,
# ratios above the size and fractional ratios, and the arbitrary sets
# give non-progressions
tight_labels = st.one_of(
    st.builds(ap_set, st.integers(0, 2), st.integers(1, 4), st.integers(3, 5)),
    st.builds(ap_set, st.integers(0, 2), st.integers(1, 4), st.integers(1, 5)),
    st.frozensets(st.integers(0, 5), min_size=1, max_size=4).map(lambda s: IntSet(tuple(s))),
)


@st.composite
def graphs_with_labelings(draw, label_sets=labels):
    g = draw(graphs())
    assignment = {v: draw(label_sets) for v in g.vertices}
    # one label at three or more vertices: each later one collides with the first
    if g.vertex_count >= 3 and draw(st.integers(0, 4)) == 0:
        shared = draw(label_sets)
        for v in draw(st.sets(st.sampled_from(sorted(assignment)), min_size=3)):
            assignment[v] = shared
    if assignment and draw(st.integers(0, 9)) == 0:
        del assignment[draw(st.sampled_from(sorted(assignment)))]
    # labels past the graph, also with a gap, which is reported first
    if draw(st.integers(0, 4)) == 0:
        past = st.integers(g.vertex_count, g.vertex_count + 2)
        for v in draw(st.sets(past, min_size=1, max_size=2)):
            assignment[v] = draw(label_sets)
    return g, Labeling(assignment)


@st.composite
def planted_collisions(draw):
    """Edge a-b keyed by its triple (s, d, L), edge c-e built as the same
    progression: {c} + AP(s - c, d, L), or {c, c + jd} + AP(s - c, d, L - j)
    with j <= L - j, then random extra edges on the four vertices."""
    d, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    m, n = draw(st.integers(max(k, 3), 5)), draw(st.integers(3, 5))
    a, b = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    size = m + k * (n - 1)
    c, j = draw(st.integers(0, a + b)), draw(st.integers(0, size // 2))
    small = ap_set(c, j * d, 2) if j else IntSet((c,))
    labels = [ap_set(a, d, m), ap_set(b, k * d, n), small, ap_set(a + b - c, d, size - j)]
    order = draw(st.permutations(range(4)))
    pairs = [(0, 1), (2, 3)] + draw(st.lists(st.sampled_from([(0, 2), (0, 3), (1, 2), (1, 3)])))
    edges = {tuple(sorted((order[x], order[y]))) for x, y in pairs}
    return graph(4, edges), Labeling({order[x]: s for x, s in enumerate(labels)})


def outcome(fn, *args):
    try:
        return ("returned", fn(*args))
    except (MissingLabelError, NotProgressionError, ValueError) as exc:
        return ("raised", type(exc), str(exc))


# --- properties ---------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=10))
def test_graph_layer_matches_edge_scan_oracle(g):
    for v in range(-1, g.vertex_count + 1):
        assert outcome(g.neighbors, v) == outcome(naive_neighbors, g, v)
    assert g.isolated_vertices() == naive_isolated(g)
    assert components(g) == naive_components(g)
    assert bipartition(g) == naive_bipartition(g)
    orders = [comp.order for comp in _traverse(g)[0]]
    assert orders == [tuple(naive_bfs_order(g, c[0])) for c in naive_components(g)]


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=12))
def test_dsatur_heap_matches_full_scan(g):
    assert _dsatur_levels(g) == naive_dsatur(g)


VERIFIERS = [(classify, naive_classify)]


@settings(max_examples=400, deadline=None)
@given(graphs_with_labelings())
def test_verifiers_match_per_verifier_oracles(case):
    g, lab = case
    for fast, naive in VERIFIERS:
        assert outcome(fast, g, lab) == outcome(naive, g, lab), fast.__name__


def aps(*triples):
    return Labeling({v: ap_set(*t) for v, t in enumerate(triples)})


def sets(*elems):
    return Labeling({v: IntSet(e) for v, e in enumerate(elems)})


@settings(max_examples=600, deadline=None)
@given(st.one_of(graphs_with_labelings(), graphs_with_labelings(tight_labels), planted_collisions()))
# keyed {0,1,2}+{0,...,5} and built {0,1,2,3}+{0,4} share {0,...,7}
@example((graph(4, [(0, 1), (2, 3)]), sets((0, 1, 2), (0, 1, 2, 3, 4, 5), (0, 1, 2, 3), (0, 4))))
# a non-progression label whose built sumset {0,1,3}+{0,1,2} is the
# progression keyed for {0,1,2}+{0,1,2,3} at the same vertex
@example((graph(3, [(0, 1), (1, 2)]), sets((0, 1, 3), (0, 1, 2), (0, 1, 2, 3))))
# a tie in difference, ratios 2 and 3 within the size, a ratio of 3/2
@example((graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), aps((0, 2, 3), (1, 2, 4), (5, 4, 3), (9, 6, 3))))
# ratio 4 above size 3, then a tie
@example((graph(3, [(0, 1), (1, 2)]), aps((0, 1, 3), (10, 4, 3), (40, 4, 5))))
# 1- and 2-element labels and a non-progression
@example((graph(3, [(0, 1), (1, 2)]), sets((0,), (3, 5), (0, 1, 5))))
# ratio 5 above size 3, not reported since the labels collide
@example((graph(3, [(0, 1), (1, 2)]), aps((0, 1, 3), (0, 5, 3), (0, 1, 3))))
# one label at four vertices, among them the last
@example((graph(5, [(0, 1), (2, 3)]), aps((0, 1, 3), (0, 2, 3), (0, 1, 3), (0, 1, 3), (0, 1, 3))))
# a gap at vertex 1 and a label at vertex 3 of a 3-vertex graph: the gap is raised
@example((graph(3, [(0, 2)]), Labeling({0: ap_set(0, 1, 3), 2: ap_set(0, 2, 3), 3: ap_set(5, 1, 3)})))
def test_classify_matches_sumset_table(case):
    g, lab = case
    assert outcome(classify, g, lab) == outcome(naive_table_classify, g, lab)


def test_keyed_triple_never_aliases_built_elements():
    # (2, 5, 9) is the triple of the first edge label and the elements of the second
    g = graph(4, [(0, 1), (2, 3)])
    lab = sets((0, 5, 10, 15, 20), (2, 7, 12, 17, 22), (0,), (2, 5, 9))
    rep = classify(g, lab)
    assert rep.is_iasi and rep.violations == ()


def test_keyed_edge_collides_with_built_progression():
    g = graph(4, [(0, 1), (2, 3)])
    lab = sets((0, 1, 2, 3), (0, 4), (0, 1, 2), (0, 1, 2, 3, 4, 5))
    rep = classify(g, lab)
    assert not rep.is_iasi and not rep.strong
    assert rep.violations == (Violation(
        element="e0-1,e2-3",
        rule="edge-label-collision",
        detail="edges 0-1 and 2-3 share label {0,1,2,3,4,5,6,7}",
    ),)


@settings(max_examples=200, deadline=None)
@given(labels, labels)
def test_sumset_matches_pairwise_sums(a, b):
    assert sumset(a, b) == IntSet(tuple(x + y for x in a for y in b))


# --- class sizes by polynomial product ------------------------------------------------


def naive_packed_indicators(a, b):
    """Pack both indicator polynomials one element at a time.

    Each set is shifted to 0 and divided by the common gcd of all
    offsets, then written w bytes per coefficient.
    """
    lo_a, lo_b = a[0], b[0]
    g = gcd(*(x - lo_a for x in a.elems), *(y - lo_b for y in b.elems)) or 1
    w = (min(len(a), len(b)).bit_length() + 7) // 8
    packed = []
    for s, lo in ((a, lo_a), (b, lo_b)):
        buf = bytearray(w * ((s.max - lo) // g + 1))
        for x in s.elems:
            buf[(x - lo) // g * w] = 1
        packed.append(int.from_bytes(buf, "little"))
    return packed[0], packed[1], w


def naive_class_histogram(a, b):
    """Class size -> number of classes of any two sets, by one packed product."""
    pa, pb, w = naive_packed_indicators(a, b)
    product = pa * pb
    coeffs = product.to_bytes(max(1, (product.bit_length() + 8 * w - 1) // (8 * w)) * w, "little")
    counts = Counter(int.from_bytes(coeffs[i : i + w], "little") for i in range(0, len(coeffs), w))
    del counts[0]
    return dict(sorted(counts.items()))


diffs = st.one_of(st.integers(1, 12), st.integers(10**6, 10**12))


# k = 1 + j % m keeps the ratio within 1..m
@settings(max_examples=400, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 39), diffs)
@example(m=300, n=257, j=0, d=1)
@example(m=256, n=256, j=2, d=3)
@example(m=260, n=300, j=0, d=10**12)
@example(m=290, n=256, j=6, d=10**6)
def test_class_histogram_matches_pair_listing(m, n, j, d):
    k = 1 + j % m
    want = compat_partition(*witness_pair(m, n, k, d)).size_histogram
    # items in order: the audit prints the histogram as it iterates
    got = _class_histogram(m, n, k)
    assert list(got.items()) == list(want.items())


@settings(max_examples=200, deadline=None)
@given(labels, labels)
def test_partition_counts_match_its_classes(a, b):
    # ClassProfile and the audit read their counts through one helper, so
    # the audit oracle's naive_observe counts from the pair lists instead
    profile = compat_partition(a, b)
    want = naive_observe(profile, min(len(a), len(b)))
    assert list(profile.size_histogram.items()) == list(want.pop("histogram").items())
    for key, count in want.items():
        assert getattr(profile, key) == count, key


def test_class_histogram_two_bytes_per_coefficient():
    # min(m, n) >= 256: a coefficient takes two bytes and the cap needs both
    assert max(_class_histogram(300, 257, 1)) == 257
    assert _class_histogram(256, 256, 1)[256] == 1


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 300), st.integers(1, 300), st.integers(0, 299), diffs)
@example(m=300, n=257, j=4, d=7)
@example(m=256, n=300, j=255, d=10**12)
def test_geometric_indicators_match_loop_packing(m, n, j, d):
    # m >= 2: the common gcd of the witness pair is then d
    k = 1 + j % m
    pa, pb, w = naive_packed_indicators(*witness_pair(m, n, k, d))
    assert _packed_indicator(m, 1, 8 * w) == pa
    assert _packed_indicator(n, k, 8 * w) == pb
    want = naive_class_histogram(*witness_pair(m, n, k, d))
    assert list(_class_histogram(m, n, k).items()) == list(want.items())


# every id of the table as written there, in lower case as the CLI takes
# it, and in the mixed case of the predictions' own slice names
AUDIT_IDS = (
    tuple(AUDITS) + tuple(t.lower() for t in AUDITS) + ("T-NMCC-II-q0", "T-NMCC-II-qpos")
)


@st.composite
def audit_points(draw):
    theorem = draw(st.sampled_from(AUDIT_IDS))
    arity = AUDITS[theorem.upper()][0]
    if draw(st.integers(0, 9)) == 0:
        arity = 5 - arity  # a point of the wrong shape is skipped
    point = (draw(st.integers(1, 16)), draw(st.integers(1, 12)), draw(st.integers(1, 6)))
    return theorem, point[:arity]


@st.composite
def odd_points(draw):
    """A point on any id with one member that is no int: a float or a bool."""
    theorem, point = draw(audit_points())
    i = draw(st.integers(0, len(point) - 1))
    odd = draw(st.sampled_from([float(point[i]), point[i] + 0.5, True, False]))
    return theorem, point[:i] + (odd,) + point[i + 1:]


# the oracle's witness difference: small or huge, it changes no count
audit_diffs = st.one_of(st.integers(1, 10), st.integers(10**6, 10**12))


@settings(max_examples=500, deadline=None)
@given(st.one_of(audit_points(), odd_points()), audit_diffs)
def test_audit_point_matches_pair_listing_audit(case, diff):
    theorem, point = case
    fast = outcome(audit_point, theorem, point)
    naive = outcome(naive_audit_point, theorem, point, diff)
    assert fast == naive
    if any(type(x) is not int for x in point):
        assert fast[0] == "returned" and fast[1].verdict == "skipped"
    if fast[0] == "returned":
        for fmt in ("text", "structured"):
            assert serialize_audit([fast[1]], fmt=fmt) == serialize_audit([naive[1]], fmt=fmt)


audit_members = st.one_of(st.integers(-2, 12), st.sampled_from([3.0, 4.5, True, False]))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.sampled_from(AUDIT_IDS + ("NO-SUCH-ID",)), st.integers(), st.none()),
    st.lists(
        st.one_of(
            st.lists(audit_members, max_size=5).map(tuple),
            st.lists(audit_members, max_size=5),
            audit_members,
        ),
        max_size=5,
    ),
)
@example(theorem=5, grid=[(3, 3)])
@example(theorem="T-NCC", grid=[3])
def test_audit_gives_one_record_per_point_of_any_length(theorem, grid):
    records = audit(theorem, grid)
    assert len(records) == len(grid)
    known = isinstance(theorem, str) and theorem.upper() in AUDITS
    arity = AUDITS[theorem.upper()][0] if known else None
    for rec, point in zip(records, grid):
        if not isinstance(point, (tuple, list)):
            assert rec.verdict == "skipped"
            assert rec.prediction.params == {}
            assert rec.detail == (f"a point is a tuple of integers, got {point!r}",)
        elif not known or len(point) != arity:
            assert rec.verdict == "skipped"
            assert rec.prediction.theorem == str(theorem).upper()
            assert rec.prediction.params == dict(zip("mnk", point))
            # reported before any member is type-checked
            want = f"got {len(point)} member" if known else "unknown theorem id"
            assert want in rec.detail[0]


# equal values that print differently: True == 1, and mappings alike
# that differ in one such key or value or in their mapping type
small_ints = st.one_of(st.integers(0, 3), st.booleans())
histograms = st.dictionaries(small_ints, small_ints, max_size=4)
histogram_values = st.one_of(histograms, histograms.map(MappingProxyType))
audit_values = st.one_of(small_ints, st.none(), histogram_values)
OBSERVED_KEYS = (
    "histogram", "class_count", "saturated_size", "saturated_count", "max_size", "max_count"
)


@st.composite
def equal_twin(draw, value):
    """A value equal to ``value``, of the same or another type."""
    if isinstance(value, bool) or value in (0, 1) and type(value) is int:
        return draw(st.sampled_from([value, int(value), bool(value)]))
    if isinstance(value, Mapping):
        items = {draw(equal_twin(k)): draw(equal_twin(v)) for k, v in value.items()}
        return draw(st.sampled_from([items, MappingProxyType(items), value]))
    return value


@st.composite
def hand_records(draw, audit_values=audit_values, histogram_values=histogram_values,
                 params=st.just({"m": 4, "n": 3})):
    keys = draw(st.lists(st.sampled_from(OBSERVED_KEYS), unique=True, max_size=4))
    expected = {key: draw(audit_values) for key in keys}
    verdict = draw(st.sampled_from(["match", "mismatch", "skipped"]))
    pred = Prediction(draw(st.sampled_from(AUDIT_IDS)).upper(), draw(params), expected)
    if verdict == "skipped":
        return AuditRecord(pred, None, verdict, ("out of regime",))
    observed = {}
    for key in OBSERVED_KEYS:
        # every field is observed, and the observed histogram is a mapping
        values = histogram_values if key == "histogram" else audit_values
        want = expected.get(key)
        if key in expected and (key != "histogram" or isinstance(want, Mapping)):
            values = st.one_of(equal_twin(want), values)
        observed[key] = draw(values)
    return AuditRecord(pred, observed, verdict, ("detail",))


@st.composite
def audit_records(draw):
    theorem, point = draw(audit_points())
    return audit_point(theorem, point)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(audit_records(), hand_records()), max_size=6))
@example([audit_point("T-NCC", (40, 12)), audit_point("T-NMCC-II-qpos", (7, 5, 2))])
@example([AuditRecord(
    Prediction("T-NCC", {"m": 4, "n": 3}, {"saturated_count": True, "histogram": {1: 2}}),
    {"histogram": MappingProxyType({True: 2}), "class_count": 2, "saturated_size": 3,
     "saturated_count": 1, "max_size": True, "max_count": 2},
    verdict,
    (),
) for verdict in ("match", "mismatch")])
def test_serialize_audit_matches_per_value_formatting(records):
    for fmt in ("text", "structured"):
        assert serialize_audit(records, fmt=fmt) == naive_serialize_audit(records, fmt=fmt)


# every kind of value a record can carry: int, bool, float, str and None,
# and mappings whose keys are ints or bools
render_scalars = st.one_of(
    st.integers(-5, 300), st.booleans(), st.floats(), st.text(max_size=4), st.none()
)
render_histograms = st.dictionaries(
    st.one_of(st.integers(0, 300), st.booleans()), st.one_of(st.integers(0, 300), st.booleans()),
    max_size=5,
)
render_mappings = st.one_of(render_histograms, render_histograms.map(MappingProxyType))


@st.composite
def odd_member_records(draw):
    """audit_point's record for a point with one member of any kind: a non-int is skipped."""
    theorem, point = draw(audit_points())
    i = draw(st.integers(0, len(point) - 1))
    return audit_point(theorem, point[:i] + (draw(render_scalars),) + point[i + 1:])


@settings(max_examples=400, deadline=None)
@given(st.lists(
    st.one_of(
        hand_records(
            st.one_of(render_scalars, render_mappings), render_mappings,
            st.dictionaries(st.sampled_from("mnkpqr"), render_scalars, max_size=4),
        ),
        odd_member_records(),
    ),
    max_size=6,
))
# values equal to the prediction that print otherwise: a bool for an int,
# an int for a float, a bool key for an int key
@example([AuditRecord(
    Prediction("T-NCC", {"m": 4.0, "n": True},
               {"saturated_count": 1, "class_count": 2.0, "histogram": {1: 2}}),
    {"histogram": {True: 2}, "class_count": 2, "saturated_size": 3,
     "saturated_count": True, "max_size": 1, "max_count": 2},
    "match",
    (),
)])
def test_audit_render_matches_the_render_without_fast_paths(records):
    for fmt in ("text", "structured"):
        assert serialize_audit(records, fmt=fmt) == slow_serialize_audit(records, fmt)


@st.composite
def bipartite_graphs(draw, max_n=7):
    n = draw(st.integers(2, max_n))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def complete_bipartite_graphs(draw):
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


@st.composite
def cloned_graphs(draw):
    """Vertices that copy another vertex's neighbours, with no edge to it."""
    g = draw(graphs(max_n=5).filter(lambda g: g.vertex_count))
    n, edges = g.vertex_count, set(g.edges)
    for _ in range(draw(st.integers(1, 3))):
        original = draw(st.integers(0, n - 1))
        edges |= {tuple(sorted((n, w))) for w in naive_neighbors(graph(n, edges), original)}
        n += 1
    return graph(n, edges)


@st.composite
def graphs_with_isolated_vertices(draw):
    g = draw(graphs(max_n=5))
    return graph(g.vertex_count + draw(st.integers(2, 3)), g.edges)


def search_graphs():
    # odd cycles fail at the difference step, so bipartite graphs are most
    # of the draw; random graphs rarely have twins (vertices with the same
    # neighbours), so complete bipartite, cloned and isolated vertices add them
    return st.one_of(
        graphs(max_n=7), bipartite_graphs(), bipartite_graphs(),
        complete_bipartite_graphs(), cloned_graphs(), graphs_with_isolated_vertices(),
    ).filter(lambda g: g.edges)


@st.composite
def search_windows(draw):
    g = draw(search_graphs())
    sizes = tuple(draw(st.lists(st.integers(3, 6), min_size=1, max_size=3)))
    # a ratio above every size has no witness, and the oracle would sweep
    # each of its difference maps; ratio_above_size_windows covers those
    ratios = tuple(draw(st.lists(st.integers(2, min(5, max(sizes))), min_size=1, max_size=2)))
    return g, SearchBound(max_element=draw(st.integers(0, 24)), sizes=sizes, ratios=ratios)


@settings(max_examples=200, deadline=None)
@given(search_windows())
def test_search_matches_sumset_search(case):
    g, bound = case
    fast, naive = outcome(search_identical_biarithmetic, g, bound), outcome(naive_search, g, bound)
    assert fast == naive
    for result in (fast, naive):
        if result[0] == "returned" and result[1] is not None:
            assert_twins_ascending(g, result[1])


@st.composite
def ratio_above_size_windows(draw):
    # some ratio above every size, which the search skips with every
    # larger one; a largest element of at most 8 keeps the oracle, which
    # sweeps every difference map of that ratio, cheap
    g = draw(search_graphs())
    sizes = tuple(draw(st.lists(st.integers(3, 5), min_size=1, max_size=2)))
    above = draw(st.integers(max(sizes) + 1, max(sizes) + 2))
    ratios = (above, *draw(st.lists(st.integers(2, above + 1), max_size=1)))
    return g, SearchBound(max_element=draw(st.integers(0, 8)), sizes=sizes, ratios=ratios)


@settings(max_examples=100, deadline=None)
@given(ratio_above_size_windows())
def test_search_matches_sumset_search_past_the_sizes(case):
    g, bound = case
    fast, naive = outcome(search_identical_biarithmetic, g, bound), outcome(naive_search, g, bound)
    assert fast == naive


@st.composite
def crowded_windows(draw):
    # complete bipartite and cloned graphs put many vertices on one
    # difference, and a largest element of at most 12 leaves few labels
    # per difference, so the room prune binds often; the small window
    # also keeps the oracle, which has no prune, cheap
    g = draw(st.one_of(complete_bipartite_graphs(), cloned_graphs()).filter(lambda g: g.edges))
    sizes = tuple(draw(st.lists(st.integers(3, 5), min_size=1, max_size=2)))
    ratios = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=2)))
    return g, SearchBound(max_element=draw(st.integers(0, 12)), sizes=sizes, ratios=ratios)


@settings(max_examples=300, deadline=None)
@given(crowded_windows())
@example((graph(8, [(u, 4 + v) for u in range(4) for v in range(4)]),
          SearchBound(max_element=12, sizes=(4,), ratios=(4,))))
def test_search_matches_sumset_search_on_crowded_windows(case):
    g, bound = case
    fast, naive = outcome(search_identical_biarithmetic, g, bound), outcome(naive_search, g, bound)
    assert fast == naive


def assert_twins_ascending(g, lab):
    """Twins come in the search order with ascending differences, and
    twins of equal difference with ascending (size, first)."""
    order = [v for c in naive_components(g) for v in naive_bfs_order(g, c[0])]
    key = {}
    for v in order:
        elems = lab.label(v).elems
        key[v] = (elems[1] - elems[0], len(elems), elems[0])
    for i, t in enumerate(order):
        for v in order[i + 1:]:
            if naive_neighbors(g, t) == naive_neighbors(g, v):
                assert key[t] < key[v], (t, v, key[t], key[v])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 20), st.integers(0, 20), st.integers(1, 6), st.integers(2, 6),
    st.integers(1, 6), st.integers(1, 8),
)
def test_progression_sumset_closed_form(a, b, d, k, m, n):
    total = sumset(ap_set(a, d, m), ap_set(b, k * d, n))
    if k <= m:
        assert total == ap_set(a + b, d, m + k * (n - 1))
    else:
        # past the bound every pair has its own sum, so the triple no longer describes the label
        assert len(total) == m * n


triples = st.tuples(st.integers(0, 20), st.integers(1, 8), st.integers(1, 8))


@settings(max_examples=500, deadline=None)
@given(triples, triples)
@example((0, 2, 3), (5, 2, 4))  # equal differences
@example((3, 1, 2), (0, 3, 4))  # k = 3 above m = 2
@example((0, 2, 4), (1, 3, 4))  # a ratio that is not an integer
@example((4, 2, 1), (7, 2, 1))  # two singletons
def test_ap_sum_matches_the_materialised_sum(p, q):
    total = sumset(ap_set(*p), ap_set(*q))
    (_, lo, m), (_, hi, _) = sorted((p, q), key=lambda t: t[1])
    got = ap_sum(p, q)
    assert ap_sum(q, p) == got
    if hi % lo == 0 and hi // lo <= m:
        first, diff = detect_ap(total)
        # detect_ap gives a singleton difference 0, the rule the smaller difference
        assert got == (first, diff or lo, len(total))
    else:
        assert got is None


def naive_ap_set(first, diff, length):
    """Each argument's type in order, then its range, then the terms one by one."""
    for name, value in (("first", first), ("diff", diff), ("length", length)):
        if type(value) is not int:
            return ("raised", f"{name} must be an integer, got {value!r}")
    if first < 0:
        return ("raised", "first term must be non-negative")
    if diff < 1:
        return ("raised", "difference must be positive")
    if length < 1:
        return ("raised", "length must be positive")
    return ("returned", tuple(first + diff * i for i in range(length)))


not_ints = st.sampled_from([True, False, 0.0, 2.5, -1.0, "1", None])


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(st.integers(0, 2**66), st.integers(0, 2**66), st.integers(-3, 2), not_ints),
    st.one_of(st.integers(1, 2**66), st.integers(1, 2**66), st.integers(-3, 2), not_ints),
    st.one_of(st.integers(1, 6), st.integers(1, 6), st.integers(-3, 2), not_ints),
)
@example(2**66, 2**66, 6)
@example(True, -1, 0)  # a bool is named before any range
@example(-1, 0, 0)  # the ranges in order: first, diff, length
@example(0, 1, 2.0)
def test_ap_set_matches_the_term_list(first, diff, length):
    try:
        s = ap_set(first, diff, length)
    except ValueError as exc:
        got = ("raised", str(exc))
    else:
        assert type(s) is IntSet
        got = ("returned", s.elems)
    assert got == naive_ap_set(first, diff, length)


KINDS = [
    "isoarithmetic", "bipartite_uniform_isoarithmetic", "biarithmetic",
    "identical_biarithmetic", "strong_biarithmetic", "componentwise_uniform",
]


@st.composite
def construct_cases(draw):
    kind = draw(st.sampled_from(KINDS))
    g = draw(st.one_of(graphs(max_n=9), bipartite_graphs(max_n=9), bipartite_graphs(max_n=9)))
    size = st.integers(3, 6)
    sizes = {
        # size 2 is outside every class, so the dispatcher must refuse it
        "isoarithmetic": st.one_of(
            size, st.just(2), st.lists(size, min_size=g.vertex_count, max_size=g.vertex_count)
        ),
        "bipartite_uniform_isoarithmetic": st.tuples(size, size),
        "biarithmetic": st.one_of(st.none(), st.none(), size),
        "identical_biarithmetic": st.tuples(size, size),
        "strong_biarithmetic": st.tuples(size, size),
        "componentwise_uniform": st.none(),
    }[kind]
    params = {
        "diff": draw(st.integers(1, 4)),
        "sizes": draw(sizes),
        # only the parameters the kind reads: the dispatcher refuses the rest
        "ratio": draw(st.integers(2, 4)) if kind in ("biarithmetic", "identical_biarithmetic") else None,
        "edge_size": draw(st.integers(5, 9)) if kind == "componentwise_uniform" else None,
        "seed": draw(st.integers(-2000, 5000)),
    }
    return g, kind, {name: value for name, value in params.items() if value is not None}


def constructed(g, kind, params):
    try:
        lab = construct(g, kind, **params)
    except (ConstructionError, ValueError) as exc:
        return ("raised", type(exc), str(exc)), None
    return ("returned", classify(g, lab)), lab


@settings(max_examples=400, deadline=None)
@given(construct_cases())
def test_sidon_pool_matches_doubling_pool(case):
    g, kind, params = case
    fast, lab = constructed(g, kind, params)
    with mock.patch("iasi.construct._assign", naive_assign):
        naive, naive_lab = constructed(g, kind, params)
    assert fast == naive
    if lab is not None:
        for v in g.vertices:
            assert detect_ap(lab.label(v))[1] == detect_ap(naive_lab.label(v))[1]
            assert len(lab.label(v)) == len(naive_lab.label(v))


# --- side kinds: each vertex's difference and size from its side ---------------------


def naive_component_colours(g):
    """Per component, lowest root first: its BFS 0/1 colouring and whether it is proper."""
    out = []
    seen: set[int] = set()
    for root in g.vertices:
        if root in seen:
            continue
        colour = {root: 0}
        for v in naive_bfs_order(g, root):
            for w in naive_neighbors(g, v):
                colour.setdefault(w, 1 - colour[v])
        seen.update(colour)
        proper = all(colour[u] != colour[v] for u, v in g.edges if u in colour)
        out.append((colour, proper))
    return out


def naive_side_plan(g, kind, params):
    """Each vertex's (difference, size) for a side kind, or the refusal it must raise."""
    diff = params["diff"]
    if kind == "componentwise_uniform":
        r = params["edge_size"]
        if r < 5:
            return ("raised", InfeasibleError, f"edge size {r} needs label sizes below 3")
        plan = {}
        for colour, proper in naive_component_colours(g):
            if not proper and r % 2 == 0:
                return ("raised", InfeasibleError,
                        f"component {tuple(sorted(colour))} has an odd cycle, so edge size {r} must be odd")
            for v, c in colour.items():
                m = -(-r // 2)
                plan[v] = (diff, (m if c == 0 else r + 1 - m) if proper else (r + 1) // 2)
        return ("returned", plan)
    bip = bipartition(g)
    if bip is None:
        return ("raised", NotBipartiteError, "graph has an odd cycle")
    m, n = params["sizes"]
    size = {v: m if v in bip.side_x else n for v in g.vertices}
    for v in g.vertices:
        if size[v] < 3:
            return ("raised", ValueError, f"label sizes must be at least 3, vertex {v} got {size[v]}")
    ratio = {"identical_biarithmetic": params.get("ratio"), "strong_biarithmetic": m}.get(kind, 1)
    if kind == "identical_biarithmetic" and bip.side_x and ratio > m:
        return ("raised", RatioBoundError, f"ratio {ratio} exceeds the smallest x-side label size {m}")
    return ("returned", {v: (diff if v in bip.side_x else diff * ratio, size[v]) for v in g.vertices})


@st.composite
def graphs_with_an_odd_component(draw):
    """A bipartite graph beside an odd cycle, vertex ids shuffled."""
    g = draw(bipartite_graphs(max_n=6))
    k = draw(st.sampled_from([3, 5]))
    n = g.vertex_count + k
    edges = list(g.edges) + [(g.vertex_count + i, g.vertex_count + (i + 1) % k) for i in range(k)]
    ids = draw(st.permutations(range(n)))
    return graph(n, [(ids[u], ids[v]) for u, v in edges])


@st.composite
def side_kind_cases(draw):
    kind = draw(st.sampled_from([
        "bipartite_uniform_isoarithmetic", "identical_biarithmetic",
        "strong_biarithmetic", "componentwise_uniform",
    ]))
    g = draw(st.one_of(
        bipartite_graphs(max_n=9), bipartite_graphs(max_n=9), graphs_with_an_odd_component(),
        graphs_with_an_odd_component(), graphs_with_isolated_vertices(), st.just(graph(0)),
    ))
    params = {"diff": draw(st.integers(1, 4)), "seed": draw(st.integers(0, 999))}
    if kind == "componentwise_uniform":
        params["edge_size"] = draw(st.integers(3, 10))
    else:
        # size 2 is outside every class, and the ratio may exceed the x-side size
        params["sizes"] = draw(st.tuples(st.integers(2, 6), st.integers(2, 6)))
    if kind == "identical_biarithmetic":
        params["ratio"] = draw(st.integers(2, 5))
    return g, kind, params


@settings(max_examples=400, deadline=None)
@given(side_kind_cases())
@example((graph(0), "strong_biarithmetic", {"diff": 1, "seed": 0, "sizes": (4, 3)}))
@example((graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)]), "componentwise_uniform",
          {"diff": 1, "seed": 0, "edge_size": 6}))
def test_side_kinds_match_sides_from_bipartition(case):
    g, kind, params = case
    want = naive_side_plan(g, kind, params)
    try:
        lab = construct(g, kind, **params)
    except (ConstructionError, ValueError) as exc:
        assert ("raised", type(exc), str(exc)) == want
        return
    got = {v: (detect_ap(lab.label(v))[1], len(lab.label(v))) for v in g.vertices}
    assert ("returned", got) == want


# --- parsers: one check per line, no second validation pass -----------------------------


# tokens that break a line: negatives, non-digits, a float, a bare colon,
# an empty token and an id too long to echo whole; what int() reads but the
# format never writes: signs, an underscore, a non-ASCII digit and a
# non-ASCII line break; and ASCII control characters, a '\r' that may
# land before a line's '\n' among them
BAD_TOKENS = [
    "-1", "-0", "+2", "x", "1.5", ":", "0:", "", "y" * 40, "1_0", "\u0663", "\u2028",
    "\r", "\x0c", "\x1c", "1\x1f2", "\x00", "\x7f",
]


@st.composite
def mutated(draw, text, past):
    """``text`` after a few line edits: a duplicated, swapped, dropped,
    blank or retokenised line, where a new token is a bad one, ``past``
    (a number past any vertex or element drawn) or one copied from the
    text, which gives loops, out-of-range endpoints and repeated or
    descending elements."""
    lines = text.splitlines()
    pool = BAD_TOKENS + [past] + [t for line in lines for t in line.split()]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        edit = draw(st.sampled_from(["dup", "swap", "drop", "blank", "token"]))
        if not lines or edit == "blank":
            lines.insert(i, draw(st.sampled_from(["", " ", "\t"])))
        elif edit == "dup":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "drop":
            del lines[i]
        else:
            tokens = lines[i].split()
            at = draw(st.integers(0, len(tokens)))
            # a token of the same line often repeats or undercuts its neighbour
            same_line = tokens and draw(st.booleans())
            new = draw(st.sampled_from(tokens if same_line else pool))
            if at < len(tokens) and draw(st.booleans()):
                tokens[at] = new
            else:
                tokens.insert(at, new)
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


def parsed(parse, text):
    try:
        return ("returned", parse(text))
    except ParseError as exc:
        return ("raised", str(exc), exc.line_no)


big_labels = st.builds(ap_set, st.integers(2**64, 2**66), st.integers(1, 2**65), st.integers(1, 4))
labelings = st.dictionaries(
    st.integers(0, 12), st.one_of(labels, big_labels), max_size=8
).map(Labeling)

# An edit can make any line the header, and a header whose vertex count is
# huge while every other line passes is a graph neither path can hold: both
# allocate one adjacency list per vertex.  So a graph's past-any-vertex token
# is 99; huge vertex counts that fail on a later line are examples below.
graph_texts = graphs(max_n=10).flatmap(lambda g: mutated(serialize_graph(g), "99"))
labeling_texts = labelings.flatmap(lambda lab: mutated(serialize_labeling(lab), str(2**70)))


@settings(max_examples=600, deadline=None)
@given(graph_texts)
@example("3 2\n0 1\n1 0\n")
@example("3 2\n2 0\n\n1 2\n")
@example("4 1\n0 4\n")
@example("2 1\n1 1\n")
@example(f"{2**70} 1\n0 0\n")
@example(f"{2**70} 2\n0 1\n1 0\n")
@example(f"{10**11} 5\n")
@example(f"{10**11} 1\n0 1\nx\n")
# U+2028, U+2029 and U+0085 end no line
@example("3 2\n0 1\u2028\u2029\n1 x\n")
@example("2 2\n0 1\n\x85\x85\n")
def test_graph_parser_matches_parse_then_validate(text):
    want, got = parsed(naive_parse_graph, text), parsed(parse_graph, text)
    assert got == want
    if got[0] == "returned":
        g, ref = got[1], want[1]
        assert hash(g) == hash(ref)
        assert [g.neighbors(v) for v in g.vertices] == [ref.neighbors(v) for v in ref.vertices]


@settings(max_examples=600, deadline=None)
@given(labeling_texts)
@example("0: 1 1\n")
@example("0: 3 2\n")
@example("0: -1 2\n")
@example("\n2: 0 1\n\n5: 7\n")
@example("y" * 40 + " 0: 1 2\n")
@example("0: 1 2\r\n1: 3\x0c4\n")
@example("0: 1 2\u2028\u2028\u2028\n1: x\n")
def test_labeling_parser_matches_parse_then_validate(text):
    want, got = parsed(naive_parse_labeling, text), parsed(parse_labeling, text)
    assert got == want
    if got[0] == "returned":
        items = lambda lab: [(v, type(s), s.elems) for v, s in lab.assignment.items()]
        assert items(got[1]) == items(want[1])


@st.composite
def shuffled_graphs(draw):
    """A graph, its edges shuffled with each pair in a drawn orientation, and a labeling."""
    g = draw(graphs(max_n=10))
    edges = [e if draw(st.booleans()) else e[::-1] for e in draw(st.permutations(g.edges))]
    return g, edges, Labeling({v: draw(labels) for v in g.vertices})


@settings(max_examples=300, deadline=None)
@given(shuffled_graphs())
def test_edge_order_is_decided_once(case):
    g, edges, lab = case
    text = f"{g.vertex_count} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    canonical = sorted({(min(e), max(e)) for e in edges})
    for h in (graph(g.vertex_count, edges), parse_graph(text)):
        assert h == g and hash(h) == hash(g)
        assert list(h.edges) == canonical
        for v in h.vertices:
            assert list(h.neighbors(v)) == sorted(h.neighbors(v)) == list(g.neighbors(v))
        assert serialize_graph(h) == serialize_graph(g)
        assert export_dot(h) == export_dot(g)
        assert export_dot(h, lab) == export_dot(g, lab)
        assert serialize_report(classify(h, lab)) == serialize_report(classify(g, lab))


# --- progressions: one comparison against a range ------------------------------------


@st.composite
def near_progressions(draw):
    """A progression, huge terms and differences included, with one
    element moved by up to 3 half of the time."""
    first = draw(st.one_of(st.integers(0, 50), st.integers(2**64, 2**70)))
    d = draw(st.one_of(st.integers(1, 9), st.integers(2**64, 2**66)))
    elems = [first + d * i for i in range(draw(st.integers(1, 8)))]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(elems) - 1))
        elems[i] = max(0, elems[i] + draw(st.integers(-3, 3)))
    return elems


@settings(max_examples=600, deadline=None)
@given(st.one_of(near_progressions(), st.lists(st.integers(0, 2**70), min_size=1, max_size=6)))
@example([7])
@example([3, 2**65])
@example([0, 1, 10**18])  # its range from the first gap would hold 10**18 terms
@example([2**64, 2**64 + 3, 2**64 + 6])
def test_detect_ap_matches_gap_loop(elems):
    s = IntSet(tuple(elems))
    assert detect_ap(s) == naive_detect_ap(s)
    assert detect_ap(elems) == naive_detect_ap(s)
