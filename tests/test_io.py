"""Serialization round-trips and frozen renderings.

Parsers accept what the serializers emit plus blank lines, extra
whitespace and leading zeros; every rejection case asserts the reported
line number.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import weakref
from itertools import product

import pytest

from iasi import (
    Labeling,
    ParseError,
    ap_set,
    audit,
    audit_point,
    classify,
    compat_partition,
    complete_bipartite,
    construct_isoarithmetic,
    cycle,
    export_dot,
    format_histogram,
    graph,
    parse_graph,
    parse_labeling,
    path,
    serialize_audit,
    serialize_graph,
    serialize_labeling,
    serialize_profile,
    serialize_report,
)
from iasi.compat import AUDITS
from conftest import random_arith_labeling, random_graph


# --- graphs -------------------------------------------------------------


def test_graph_round_trip_frozen():
    g = cycle(4)
    text = serialize_graph(g)
    assert text == "4 4\n0 1\n0 3\n1 2\n2 3\n"
    assert parse_graph(text) == g


def test_graph_round_trip_random():
    rng = random.Random(11)
    for _ in range(100):
        g = random_graph(rng, max_n=12, p=0.4)
        assert parse_graph(serialize_graph(g)) == g


def test_graph_parse_accepts_blank_lines():
    assert parse_graph("2 1\n\n0 1\n\n") == path(2)


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("", 1),
        ("3\n", 1),
        ("a b\n", 1),
        ("-1 0\n", 1),
        ("3 1\n0\n", 2),
        ("3 1\n0 x\n", 2),
        ("3 1\n1 1\n", 2),
        ("3 1\n0 3\n", 2),
        ("3 2\n0 1\n1 0\n", 3),
        ("3 2\n0 1\n", 2),
    ],
)
def test_graph_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(ParseError) as exc:
        parse_graph(text)
    assert exc.value.line_no == line_no
    assert f"line {line_no}:" in str(exc.value)


# --- labelings -----------------------------------------------------------


def test_labeling_round_trip_frozen():
    lab = Labeling({0: (0, 1, 3), 2: (2, 4)})
    text = serialize_labeling(lab)
    assert text == "0: 0 1 3\n2: 2 4\n"
    assert parse_labeling(text) == lab


def test_labeling_round_trip_random():
    rng = random.Random(13)
    for _ in range(100):
        g = random_graph(rng, max_n=10)
        lab = random_arith_labeling(rng, g, mixed=True)
        assert parse_labeling(serialize_labeling(lab)) == lab


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("0 1 2\n", 1),
        ("x: 1 2\n", 1),
        ("0: 1 2\n0: 3 4\n", 2),
        ("1: 1 2\n0: 3 4\n", 2),
        ("0:\n", 1),
        ("0: 2 1\n", 1),
        ("0: 1 1\n", 1),
        ("0: 1 a\n", 1),
        ("0: -1 2\n", 1),
        ("0: 0 1\n\n2: zz\n", 3),
    ],
)
def test_labeling_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(ParseError) as exc:
        parse_labeling(text)
    assert exc.value.line_no == line_no


# --- integer tokens ------------------------------------------------------------


def test_parsers_accept_leading_zeros_and_extra_whitespace():
    assert parse_graph("02  01\n\n 00\t01 \n") == path(2)
    assert parse_labeling("00:  01 \t002\n\n") == Labeling({0: (1, 2)})


# what int() reads but the format never writes, each at the line it is on
@pytest.mark.parametrize(
    "parse, text, line_no, found",
    [
        (parse_graph, "2 1\n-0 +1\n", 2, "-"),
        (parse_graph, "+2 1\n0 1\n", 1, "+"),
        (parse_graph, "11 1\n0 1_0\n", 2, "_"),
        (parse_graph, "2 1\n0 \u0661\n", 2, "\u0661"),
        (parse_graph, "2 1\n0 1\n\u3000\n", 3, "\u3000"),
        (parse_graph, "2 1\n0\u20281\n", 2, "\u2028"),
        (parse_labeling, "0: +1 1_0 \u0663\u0663\n", 1, "+"),
        (parse_labeling, "0: 1 2 3\n1: -0 5\n", 2, "-"),
        (parse_labeling, "-0: 1 2 3\n", 1, "-"),
        (parse_labeling, "0: 1 2\xa03\n", 1, "\xa0"),
    ],
)
def test_parsers_refuse_signs_underscores_and_non_ascii(parse, text, line_no, found):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line_no == line_no
    assert str(exc.value) == (
        f"line {line_no}: found {found!r}: integers are plain ASCII digits, no sign or '_'"
    )


# a line ends at '\n' or '\r\n' alone: every other ASCII control character
# but tab is refused first, at the line an editor shows
@pytest.mark.parametrize(
    "parse, text, line_no, found",
    [
        (parse_graph, "2 1\x1c0 1", 1, "\x1c"),
        (parse_labeling, "0: 1\x1f2 3\x1e1: 4 5 6", 1, "\x1f"),
        (parse_graph, "1 0\n\x0c\n0 x", 2, "\x0c"),
        (parse_graph, "2 1\v0 1\n", 1, "\v"),
        (parse_graph, "2 1\r0 1\n", 1, "\r"),
        (parse_graph, "2 1\r\n0 1\r", 2, "\r"),
        (parse_graph, "3 1\n0 x\n\x00\n", 3, "\x00"),
        (parse_labeling, "0: 1 2 3\r\n1: 4\x7f\n", 2, "\x7f"),
    ],
)
def test_parsers_refuse_control_characters(parse, text, line_no, found):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line_no == line_no
    assert str(exc.value) == (
        f"line {line_no}: found {found!r}: lines end at '\\n' or '\\r\\n', "
        "and tab is the only other control character"
    )


@pytest.mark.parametrize("sep", ["\x85", "\u2028", "\u2029"])
def test_unicode_line_separators_end_no_line(sep):
    # lines are counted at '\n' alone, so each message names the line a newline count gives
    with pytest.raises(ParseError, match="^line 2: label elements must be integers$"):
        parse_labeling(f"0: 1 2{sep}{sep}{sep}\n1: x\n")
    with pytest.raises(ParseError, match="^line 3: edge endpoints must be integers$"):
        parse_graph(f"3 2\n0 1{sep}{sep}\n1 x\n")
    with pytest.raises(ParseError, match="^line 3: header promised 2 edges, found 1$"):
        parse_graph(f"2 2\n0 1\n{sep}{sep}\n")
    # nor a header: str.split reads a separator as a space, so this header has four fields
    with pytest.raises(ParseError, match="^line 1: expected header 'n m'$"):
        parse_graph(f"2 1{sep}0 1\n")
    with pytest.raises(ParseError) as exc:
        parse_labeling(f"0: 1 2\n\n1: 3 4{sep}5\n")
    assert str(exc.value) == f"line 3: found {sep!r}: integers are plain ASCII digits, no sign or '_'"


def test_parsers_accept_crlf_line_ends():
    assert parse_graph("2 1\r\n\r\n0\t1\r\n") == path(2)
    assert parse_labeling("0: 1 2\r\n1: 3 4\r\n") == Labeling({0: (1, 2), 1: (3, 4)})
    with pytest.raises(ParseError, match="^line 3: edge endpoints must be integers$"):
        parse_graph("1 0\r\n\r\n0 x\r\n")


def test_a_long_vertex_id_is_echoed_as_a_prefix():
    with pytest.raises(ParseError) as exc:
        parse_labeling("x" * 100000 + ": 1 2 3\n")
    assert str(exc.value) == f"line 1: vertex id {'x' * 32!r}... is not an integer"
    with pytest.raises(ParseError) as exc:
        parse_labeling("y" * 32 + ": 1 2 3\n")
    assert str(exc.value) == f"line 1: vertex id {'y' * 32!r} is not an integer"


def test_every_other_check_comes_before_the_sign_check():
    # the error a line would get without the sign check still wins
    with pytest.raises(ParseError, match="^line 3: edge endpoints must be integers$"):
        parse_graph("3 1\n+0 1\n0 x\n")
    with pytest.raises(ParseError, match="^line 2: label elements must be integers$"):
        parse_labeling("0: +1 2 3\n1: x\n")


def test_integers_over_the_digit_limit_name_it():
    limit = sys.get_int_max_str_digits()
    huge = "1" * 5000
    over = f"integer of 5000 digits is over Python's {limit}-digit limit"
    for parse, text, line_no in [
        (parse_labeling, f"0: 1 {huge}\n", 1),
        (parse_labeling, f"{huge}: 1 2 3\n", 1),
        (parse_graph, f"3 1\n0 {huge}\n", 2),
        (parse_graph, f"{huge} 0\n", 1),
    ]:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == f"line {line_no}: {over}"
    # only a run of plain digits names the limit
    with pytest.raises(ParseError, match="^line 1: label elements must be integers$"):
        parse_labeling(f"0: 1 {huge}x\n")


# --- value rendering ---------------------------------------------------------


def test_format_histogram_exact():
    assert format_histogram({2: 5, 1: 4, 3: 2}) == "{1:4, 2:5, 3:2}"
    assert format_histogram({}) == "{}"


# --- reports -------------------------------------------------------------------


def fixture_report():
    g = path(2)
    lab = Labeling({0: ap_set(0, 2, 3), 1: ap_set(1, 2, 4)})
    return classify(g, lab)


def test_report_text_rendering():
    text = serialize_report(fixture_report())
    assert "set-indexer (injective):    yes" in text
    assert "isoarithmetic:              yes" in text
    assert "biarithmetic:               no" in text
    assert "identical edge ratio:       -" in text
    assert "violations: none" in text


def test_report_structured_rendering():
    text = serialize_report(fixture_report(), fmt="structured")
    lines = dict(l.split("=", 1) for l in text.splitlines())
    assert lines["is_iasi"] == "true"
    assert lines["isoarithmetic"] == "true"
    assert lines["identical_biarithmetic"] == "none"
    assert lines["edge_uniform"] == "6"  # one edge is trivially uniform
    assert lines["vertex_uniform"] == "none"


def test_report_lists_violations():
    g = path(3)
    lab = Labeling({0: (0, 1, 3), 1: (0, 1, 2, 3), 2: (0, 2, 3)})
    rep = classify(g, lab)
    text = serialize_report(rep, fmt="structured")
    assert any(l.startswith("violation=e0-1,e1-2|edge-label-collision|") for l in text.splitlines())
    with pytest.raises(ValueError):
        serialize_report(rep, fmt="json")


def test_structured_report_keys_are_the_report_fields_in_order():
    colliding = Labeling({0: (0, 1, 3), 1: (0, 1, 2, 3), 2: (0, 2, 3)})
    for rep in (fixture_report(), classify(path(3), colliding)):
        keys = [line.split("=", 1)[0] for line in serialize_report(rep, fmt="structured").splitlines()]
        flags = [f.name for f in dataclasses.fields(rep) if f.name not in ("violations", "warnings")]
        assert len(flags) == 10
        assert keys == flags + ["violation"] * len(rep.violations) + ["warning"] * len(rep.warnings)


# --- profiles ---------------------------------------------------------------------


def test_profile_text_rendering():
    prof = compat_partition((0, 1), (0, 2))
    text = serialize_profile(prof)
    assert text == (
        "pairs=4 classes=4 saturated_size=2 saturated_count=0 max_size=1 max_count=4\n"
        "histogram={1:4}\n"
        "sum 0: (0,0)\n"
        "sum 1: (1,0)\n"
        "sum 2: (0,2)\n"
        "sum 3: (1,2)\n"
    )


def test_profile_structured_rendering():
    prof = compat_partition((0, 1), (0, 1))
    text = serialize_profile(prof, fmt="structured")
    lines = text.splitlines()
    assert "histogram=1:2,2:1" in lines
    assert "class.1=0,1;1,0" in lines


# --- audits --------------------------------------------------------------------------


def test_audit_text_match_line():
    text = serialize_audit([audit_point("T-NCC", (5, 3))])
    assert text.splitlines()[0] == (
        "T-NCC m=5 n=3: match (saturated_size=3, saturated_count=3, "
        "histogram={1:2, 2:2, 3:3})"
    )
    assert text.splitlines()[-1] == "all 1 grid points match"


def test_audit_text_mismatch_line_shows_observed_histogram():
    text = serialize_audit([audit_point("T-NMCC-II", (5, 4, 2))])
    first = text.splitlines()[0]
    assert first.startswith("T-NMCC-II-qpos m=5 n=4 k=2 p=2 q=1: MISMATCH")
    assert "predicted (max_size=3, max_count=3)" in first
    assert "observed (max_size=3, max_count=2)" in first
    assert "observed histogram={1:4, 2:5, 3:2}" in first
    assert text.splitlines()[-1] == "1 grid points: 0 match, 1 mismatch, 0 skipped"


def test_audit_text_skipped_line():
    text = serialize_audit([audit_point("T-NSC-II", (4, 3, 3))])
    assert text.splitlines()[0].startswith("T-NSC-II m=4 n=3 k=3: skipped (")


def test_audit_structured_rendering():
    text = serialize_audit(
        [audit_point("T-NCC", (5, 3)), audit_point("T-NMCC-II", (5, 4, 2))],
        fmt="structured",
    )
    lines = text.splitlines()
    assert lines[0].startswith("theorem=T-NCC m=5 n=3 verdict=match")
    assert "predicted.histogram=1:2,2:2,3:3" in lines[0]
    assert "verdict=mismatch" in lines[1]
    assert "observed.max_count=2" in lines[1]
    assert "observed.histogram=1:4,2:5,3:2" in lines[1]
    assert lines[-1] == "2 grid points: 1 match, 1 mismatch, 0 skipped"


def test_audit_structured_records_repeat_no_key():
    # observed.histogram once, also where the prediction holds a histogram
    for theorem, (members, _) in AUDITS.items():
        grid = dict.fromkeys(p[:members] for p in product(range(3, 9), range(3, 7), range(1, 5)))
        lines = serialize_audit(audit(theorem, grid), fmt="structured").splitlines()[:-1]
        audited = 0
        for line in lines:
            keys = [token.partition("=")[0] for token in line.partition(' reason="')[0].split()]
            assert len(keys) == len(set(keys)), line
            if "verdict=skipped" not in line:
                assert "observed.histogram" in keys, line
                audited += 1
        assert audited, theorem


def _mixed_grid():
    # T-NMCC-II over this grid has match (q = 0), mismatch (q > 0) and skipped points
    return ((m, n, k) for m in range(3, 9) for n in range(3, 6) for k in range(2, 5))


def test_audit_serializes_a_one_shot_generator_like_a_list():
    records = audit("T-NMCC-II", _mixed_grid())
    assert {rec.verdict for rec in records} == {"match", "mismatch", "skipped"}
    for fmt in ("text", "structured"):
        stream = (audit_point("T-NMCC-II", p) for p in _mixed_grid())
        assert serialize_audit(stream, fmt=fmt) == serialize_audit(records, fmt=fmt)


def test_audit_serializer_holds_no_record():
    refs = []

    def stream():
        for point in _mixed_grid():
            rec = audit_point("T-NMCC-II", point)
            refs.append(weakref.ref(rec))
            if len(refs) > 2:
                assert refs[-3]() is None, "a record two steps back is still alive"
            yield rec

    for fmt in ("text", "structured"):
        refs.clear()
        assert serialize_audit(stream(), fmt=fmt) == serialize_audit(
            audit("T-NMCC-II", _mixed_grid()), fmt=fmt
        )
        assert len(refs) == 54


# --- DOT export -------------------------------------------------------------------------


def test_export_dot_bare():
    text = export_dot(path(2))
    assert text == "graph G {\n  0;\n  1;\n  0 -- 1;\n}\n"


def test_export_dot_with_labels():
    g = complete_bipartite(1, 2)
    lab = construct_isoarithmetic(g, diff=1, sizes=3, seed=0)
    text = export_dot(g, lab)
    assert '0 [label="{0,1,2}"]' in text
    assert "|f+|=5" in text
    assert text.count(" -- ") == g.edge_count


def test_export_dot_isolated_vertices():
    text = export_dot(graph(2, []))
    assert "--" not in text and "  1;" in text
