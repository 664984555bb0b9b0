"""Text formats: edge lists, labelings, reports, audits, DOT export.

Serializers emit one canonical form (vertices ascending, edges sorted,
elements ascending).  Parsers accept it plus blank lines, extra
whitespace and leading zeros, so parse(serialize(x)) == x, and refuse
any other drift with a line number, signs, '_' and non-ASCII characters
included.  A line ends at a newline, with or without a carriage return
before it, and at no other character: every other ASCII control
character but tab is refused before any line is read, and a non-ASCII
separator such as U+2028 is refused as any non-ASCII character is, so
line numbers count newlines.  They check each line once and build what
they checked without the constructors' second validation pass.
"""

from __future__ import annotations

import dataclasses
import re
import sys
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from typing import Optional

from .compat import AuditRecord, ClassProfile
from .graphs import Graph
from .labeling import Labeling
from .sets import IntSet
from .verify import VerificationReport


class ParseError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _int_error(message: str, tokens: list[str], line_no: int) -> ParseError:
    """``message``, or Python's digit limit when a token of ASCII digits is over it."""
    limit = sys.get_int_max_str_digits()  # 0 when there is none
    for t in tokens:
        if t.isascii() and t.isdigit() and len(t) > limit > 0:
            return ParseError(f"integer of {len(t)} digits is over Python's {limit}-digit limit", line_no)
    return ParseError(message, line_no)


_NOT_CONTROL = bytes(range(32, 127)) + b"\t\n\r"


def _check_controls(text: str) -> None:
    """Raise at the first ASCII control character but tab, '\\n' and '\\r\\n'.  Call it first.

    A text without one costs two whole-text scans; only a text with one is searched.
    """
    if text.encode("ascii", "replace").translate(None, _NOT_CONTROL) or (
        "\r" in text and text.count("\r") != text.count("\r\n")
    ):
        found = re.search(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]|\r(?!\n)", text)
        raise ParseError(
            f"found {found.group()!r}: lines end at '\\n' or '\\r\\n', and tab is the only "
            "other control character",
            text.count("\n", 0, found.start()) + 1,
        )


def _check_plain_digits(text: str) -> None:
    """Raise at the first line with a sign, '_' or non-ASCII: int() reads them.  Call it last."""
    if not text.isascii() or "+" in text or "-" in text or "_" in text:
        for i, raw in enumerate(text.split("\n"), start=1):
            bad = [c for c in raw if c in "+-_" or not c.isascii()]
            if bad:
                raise ParseError(f"found {bad[0]!r}: integers are plain ASCII digits, no sign or '_'", i)


# --- graphs --------------------------------------------------------------


def serialize_graph(g: Graph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    _check_controls(text)
    lines = text.removesuffix("\n").split("\n")  # no line after a final '\n'
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("expected header 'n m'", 1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise _int_error("header values must be integers", head, 1) from None
    if n < 0 or m < 0:
        raise ParseError("header values must be non-negative", 1)
    # a dict, not a set, keeps the edges in file order: a canonical file lists
    # them sorted, so the graph sorts them in linear time
    edges: dict[tuple[int, int], None] = {}
    for i, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ParseError("expected edge 'u v'", i)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise _int_error("edge endpoints must be integers", parts, i) from None
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", i)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge {u} {v} out of range for {n} vertices", i)
        e = (u, v) if u < v else (v, u)
        if e in edges:
            raise ParseError(f"duplicate edge {u} {v}", i)
        edges[e] = None
    if len(edges) != m:
        raise ParseError(f"header promised {m} edges, found {len(edges)}", len(lines))
    _check_plain_digits(text)
    # every check of Graph.__post_init__ has passed above, line by line
    return Graph._from_checked(n, edges)


# --- labelings -----------------------------------------------------------


def serialize_labeling(lab: Labeling) -> str:
    lines = [f"{v}: " + " ".join(map(str, s.elems)) for v, s in lab.assignment.items()]
    return "\n".join(lines) + "\n"


def parse_labeling(text: str) -> Labeling:
    _check_controls(text)
    assignment: dict[int, IntSet] = {}
    last_vertex = -1
    for i, raw in enumerate(text.split("\n"), start=1):
        if not raw.strip():
            continue
        if ":" not in raw:
            raise ParseError("expected 'v: e1 e2 ...'", i)
        head, _, tail = raw.partition(":")
        try:
            v = int(head.strip())
        except ValueError:
            vid = head.strip()
            # a fixed prefix, so the message stays short whatever the line holds
            shown = repr(vid) if len(vid) <= 32 else f"{vid[:32]!r}..."
            raise _int_error(f"vertex id {shown} is not an integer", [vid], i) from None
        if v in assignment:
            raise ParseError(f"vertex {v} labeled twice", i)
        if v <= last_vertex:
            raise ParseError(f"vertex {v} out of ascending order", i)
        last_vertex = v
        parts = tail.split()
        if not parts:
            raise ParseError(f"vertex {v} has an empty label", i)
        try:
            elems = tuple(map(int, parts))
        except ValueError:
            raise _int_error("label elements must be integers", parts, i) from None
        if not all(map(int.__lt__, elems, elems[1:])):
            for a, b in zip(elems, elems[1:]):
                if b <= a:
                    raise ParseError(
                        f"label elements must be strictly increasing, saw {a} then {b}", i
                    )
        if elems[0] < 0:
            raise ParseError("label elements must be non-negative", i)
        assignment[v] = IntSet._from_sorted(elems)
    _check_plain_digits(text)
    # ids are non-negative ints in ascending order, labels checked above
    return Labeling._from_sorted(assignment)


# --- value formatting -----------------------------------------------------


def format_histogram(h: Mapping[int, int]) -> str:
    """Render ``{1:4, 2:5, 3:2}`` with keys ascending."""
    return "{" + ", ".join([f"{k}:{h[k]}" for k in sorted(h)]) + "}"


def _compact_histogram(h: Mapping[int, int]) -> str:
    return ",".join([f"{k}:{h[k]}" for k in sorted(h)])


def _fmt(value: object, compact: bool = False) -> str:
    if type(value) is int:  # the common case, decided before the ABC check
        return str(value)
    if isinstance(value, Mapping):
        return _compact_histogram(value) if compact else format_histogram(value)
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _prints_alike(a: object, b: object) -> bool:
    """Whether ``_fmt`` is sure to print a and b as the same text.

    Equality is not enough: True == 1 prints as true and 1, and
    {True: 1} == {1: 1}.  So besides one object twice, only equal ints
    and equal mappings from ints to ints qualify.
    """
    if a is b:
        return True
    if type(a) is int:
        return type(b) is int and a == b
    if isinstance(a, Mapping):
        if not isinstance(b, Mapping) or a != b:
            return False
        types = {*map(type, a), *map(type, a.values()), *map(type, b), *map(type, b.values())}
        return types <= {int}
    return False


# --- verification reports --------------------------------------------------


def serialize_report(rep: VerificationReport, fmt: str = "text") -> str:
    if fmt == "structured":
        lines = [
            f"{f.name}={_fmt(getattr(rep, f.name))}"
            for f in dataclasses.fields(rep)
            if f.name not in ("violations", "warnings")
        ]
        lines += [f"violation={v.element}|{v.rule}|{v.detail}" for v in rep.violations]
        lines += [f"warning={w}" for w in rep.warnings]
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    yn = lambda b: "yes" if b else "no"
    lines = [
        f"set-indexer (injective):    {yn(rep.is_iasi)}",
        f"arithmetic:                 {yn(rep.arithmetic)}"
        f" (vertex labels {yn(rep.vertex_arithmetic)}, edge labels {yn(rep.edge_arithmetic)})",
        f"isoarithmetic:              {yn(rep.isoarithmetic)}",
        f"biarithmetic:               {yn(rep.biarithmetic)}",
        f"identical edge ratio:       {rep.identical_biarithmetic if rep.identical_biarithmetic is not None else '-'}",
        f"strong:                     {yn(rep.strong)}",
        f"uniform edge cardinality:   {rep.edge_uniform if rep.edge_uniform is not None else '-'}",
        f"uniform vertex cardinality: {rep.vertex_uniform if rep.vertex_uniform is not None else '-'}",
    ]
    if rep.violations:
        lines.append("violations:")
        lines += [f"  {v.element}: {v.detail} [{v.rule}]" for v in rep.violations]
    else:
        lines.append("violations: none")
    lines += [f"warning: {w}" for w in rep.warnings]
    return "\n".join(lines) + "\n"


# --- class profiles ---------------------------------------------------------


def serialize_profile(p: ClassProfile, fmt: str = "text") -> str:
    # the six counts: one line each when structured, the first line of text
    counts = [
        f"pairs={p.pair_count}",
        f"classes={p.class_count}",
        f"saturated_size={p.saturated_size}",
        f"saturated_count={p.saturated_count}",
        f"max_size={p.max_size}",
        f"max_count={p.max_count}",
    ]
    if fmt == "structured":
        lines = [*counts, f"histogram={_compact_histogram(p.size_histogram)}"]
        for s, pairs in p.classes.items():
            body = ";".join(f"{a},{b}" for a, b in pairs)
            lines.append(f"class.{s}={body}")
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown profile format {fmt!r}")
    lines = [" ".join(counts), f"histogram={format_histogram(p.size_histogram)}"]
    for s, pairs in p.classes.items():
        body = " ".join(f"({a},{b})" for a, b in pairs)
        lines.append(f"sum {s}: {body}")
    return "\n".join(lines) + "\n"


# --- audits ------------------------------------------------------------------


def _params_str(params: Mapping[str, int]) -> str:
    return " ".join([f"{k}={v}" for k, v in params.items()])


def audit_lines(records: Iterable[AuditRecord], fmt: str = "text") -> Iterator[str]:
    """One line per record, then a summary line of the verdict counts, each ending in '\\n'.

    ``records`` is read once and no record is kept: each is rendered as
    it arrives and only its verdict is tallied, so a generator of
    records costs one record and one line at a time.
    """
    if fmt not in ("text", "structured"):
        raise ValueError(f"unknown audit format {fmt!r}")
    render = _audit_fields if fmt == "structured" else _audit_text
    tally: Counter[str] = Counter()
    for rec in records:
        tally[rec.verdict] += 1
        yield render(rec) + "\n"
    total, match = sum(tally.values()), tally["match"]
    if match == total:
        yield f"all {total} grid points match\n"
    else:
        yield (
            f"{total} grid points: {match} match, {tally['mismatch']} mismatch, "
            f"{tally['skipped']} skipped\n"
        )


def serialize_audit(records: Iterable[AuditRecord], fmt: str = "text") -> str:
    """The lines of ``audit_lines`` as one text."""
    return "".join(audit_lines(records, fmt))


def _audit_fields(rec: AuditRecord) -> str:
    parts = [f"theorem={rec.prediction.theorem}", _params_str(rec.prediction.params),
             f"verdict={rec.verdict}"]
    observed = rec.observed
    for key, want in rec.prediction.expected.items():
        text = _fmt(want, compact=True)
        parts.append(f"predicted.{key}={text}")
        if observed is not None:
            if not _prints_alike(observed[key], want):
                text = _fmt(observed[key], compact=True)
            parts.append(f"observed.{key}={text}")
    if observed is not None and "histogram" not in rec.prediction.expected:
        parts.append(f"observed.histogram={_fmt(observed['histogram'], compact=True)}")
    if rec.verdict == "skipped":
        parts.append(f'reason="{rec.detail[0]}"')
    return " ".join(filter(None, parts))


def _audit_text(rec: AuditRecord) -> str:
    head = f"{rec.prediction.theorem} {_params_str(rec.prediction.params)}"
    if rec.verdict == "skipped":
        return f"{head}: skipped ({rec.detail[0]})"
    fields = ", ".join(
        f"{key}={_fmt(rec.prediction.expected[key])}" for key in rec.prediction.expected
    )
    if rec.verdict == "match":
        return f"{head}: match ({fields})"
    observed = ", ".join(
        f"{key}={_fmt(rec.observed[key])}" for key in rec.prediction.expected
    )
    hist = format_histogram(rec.observed["histogram"])
    return (
        f"{head}: MISMATCH predicted ({fields}); observed ({observed}); "
        f"observed histogram={hist}"
    )


# --- DOT export ---------------------------------------------------------------


def export_dot(g: Graph, lab: Optional[Labeling] = None) -> str:
    """Graphviz text; labeled exports annotate every edge with |f+|."""
    from .labeling import edge_label

    lines = ["graph G {"]
    for v in g.vertices:
        if lab is None:
            lines.append(f"  {v};")
        else:
            lines.append(f'  {v} [label="{lab.label(v)}"];')
    for u, v in g.edges:
        if lab is None:
            lines.append(f"  {u} -- {v};")
        else:
            s = edge_label(lab, u, v)
            lines.append(f'  {u} -- {v} [label="{s} |f+|={len(s)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
