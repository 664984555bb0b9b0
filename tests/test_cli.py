"""End-to-end CLI runs through main(argv).

Exit status contract: 0 success, 1 negative verification or empty
search, 2 usage or input errors, 3 infeasible construction.
"""

from __future__ import annotations

import argparse
import inspect
import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest

from iasi import (
    ConstructionError,
    Graph,
    audit,
    audit_point,
    cli,
    complete,
    complete_bipartite,
    construct,
    cycle,
    parse_graph,
    parse_labeling,
    path,
    serialize_audit,
    serialize_graph,
    serialize_labeling,
    star,
)
from iasi.cli import build_parser, main
from iasi.construct import KINDS


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def write_graph(tmp_path, g, name="g.txt"):
    p = tmp_path / name
    p.write_text(serialize_graph(g))
    return str(p)


# --- gen ---------------------------------------------------------------------


GEN_KINDS = ("complete", "complete_bipartite", "cycle", "path", "star")


def test_gen_edge_list(run):
    code, out, err = run("gen", "--kind", "cycle", "--n", "4")
    assert code == 0 and err == ""
    assert parse_graph(out) == cycle(4)
    # each kind reaches its own generator
    for kind, g in zip(GEN_KINDS, (complete(4), complete_bipartite(3, 4), cycle(4), path(4), star(4))):
        flags = ("--m", "3") if kind == "complete_bipartite" else ()
        assert run("gen", "--kind", kind, "--n", "4", *flags) == (0, serialize_graph(g), "")


def test_gen_complete_bipartite_takes_both_sides(run):
    code, out, _ = run("gen", "--kind", "complete_bipartite", "--m", "2", "--n", "3")
    assert code == 0
    assert parse_graph(out).edge_count == 6
    assert run("gen", "--kind", "complete_bipartite", "--n", "3") == (
        2, "", "error: complete_bipartite needs --m and --n\n"
    )


def test_gen_missing_order_is_usage_error(run):
    for kind in GEN_KINDS:
        for flags in ((), ("--m", "9")):
            assert run("gen", "--kind", kind, *flags) == (2, "", f"error: kind {kind!r} needs --n\n")


def test_gen_m_for_a_kind_without_sides_is_usage_error(run):
    # only complete_bipartite reads --m; the other kinds refuse it rather than drop it
    for kind in ("complete", "cycle", "path", "star"):
        code, out, err = run("gen", "--kind", kind, "--n", "3", "--m", "7")
        assert (code, out, err) == (2, "", f"error: kind {kind!r} does not read --m\n")


def test_gen_unknown_kind_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--kind", "torus", "--n", "3"])
    assert exc.value.code == 2
    assert "argument --kind: invalid choice: 'torus'" in capsys.readouterr().err


def test_gen_dot_format(run):
    code, out, _ = run("gen", "--kind", "path", "--n", "2", "--format", "dot")
    assert code == 0 and out.startswith("graph G {")


def test_gen_writes_out_file(run, tmp_path):
    target = tmp_path / "out.txt"
    code, out, _ = run("gen", "--kind", "path", "--n", "3", "--out", str(target))
    assert code == 0 and out == ""
    assert parse_graph(target.read_text()) == path(3)


# --- label -------------------------------------------------------------------


def test_label_then_verify_round_trip(run, tmp_path):
    gpath = write_graph(tmp_path, cycle(6))
    lpath = str(tmp_path / "lab.txt")
    code, _, _ = run(
        "label", "--graph", gpath, "--kind", "isoarithmetic",
        "--d", "2", "--sizes", "4", "--out", lpath,
    )
    assert code == 0
    code, out, _ = run(
        "verify", "--graph", gpath, "--labeling", lpath, "--expect", "isoarithmetic"
    )
    assert code == 0
    assert "isoarithmetic:              yes" in out


def test_label_identical_biarithmetic(run, tmp_path):
    gpath = write_graph(tmp_path, cycle(4))
    code, out, _ = run(
        "label", "--graph", gpath, "--kind", "identical_biarithmetic", "--k", "2"
    )
    assert code == 0
    lab = parse_labeling(out)
    assert len(lab) == 4


def test_label_side_sizes_via_m_n(run, tmp_path):
    gpath = write_graph(tmp_path, cycle(4))
    code, out, _ = run(
        "label", "--graph", gpath, "--kind", "bipartite_uniform_isoarithmetic",
        "--m", "3", "--n", "5",
    )
    assert code == 0
    sizes = sorted(len(lab) for lab in parse_labeling(out).assignment.values())
    assert sizes == [3, 3, 5, 5]


def test_label_side_sizes_on_two_vertices(run, tmp_path):
    # two --sizes values are one size per side, as --m/--n are
    gpath = write_graph(tmp_path, path(2))
    code, out, err = run(
        "label", "--graph", gpath, "--kind", "bipartite_uniform_isoarithmetic",
        "--sizes", "3,4",
    )
    assert code == 0 and err == ""
    assert [len(s) for s in parse_labeling(out).assignment.values()] == [3, 4]
    assert run(
        "label", "--graph", gpath, "--kind", "bipartite_uniform_isoarithmetic",
        "--m", "3", "--n", "4",
    )[1] == out


@pytest.mark.parametrize("flags, message", [
    (["--m", "3"], "--m and --n go together"),
    (["--n", "4"], "--m and --n go together"),
    (["--m", "3", "--n", "4", "--sizes", "5"], "give --sizes or --m/--n, not both"),
    (["--sizes", "3", "--m", "3", "--n", "4"], "give --sizes or --m/--n, not both"),
], ids=["m-alone", "n-alone", "m-n-then-sizes", "sizes-then-m-n"])
def test_label_m_and_n_form_one_size_pair(run, tmp_path, flags, message):
    # each used to be dropped without a word
    gpath = write_graph(tmp_path, cycle(4))
    code, out, err = run(
        "label", "--graph", gpath, "--kind", "bipartite_uniform_isoarithmetic", *flags
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_label_flag_the_kind_does_not_read_is_usage_error(run, tmp_path):
    gpath = write_graph(tmp_path, cycle(4))
    for flags, message in [
        (["--kind", "componentwise_uniform", "--r", "7", "--sizes", "9"],
         "componentwise_uniform does not read sizes"),
        (["--kind", "isoarithmetic", "--k", "3"], "isoarithmetic does not read ratio"),
        (["--kind", "strong_biarithmetic", "--r", "5"],
         "strong_biarithmetic does not read edge_size"),
    ]:
        assert run("label", "--graph", gpath, *flags) == (2, "", f"error: {message}\n")


# the flags and construct() parameters each kind needs before any size form applies
NEEDED = {
    "identical_biarithmetic": (["--k", "3"], {"ratio": 3}),
    "componentwise_uniform": (["--r", "7"], {"edge_size": 7}),
}


@pytest.mark.parametrize("kind", KINDS)
def test_label_agrees_with_the_library(run, tmp_path, kind):
    # two --sizes values used to mean per-vertex sizes on 2-vertex graphs
    # and per-side sizes elsewhere, while the library read them per side
    flags, fields = NEEDED.get(kind, ([], {}))
    for g in [path(4), cycle(4), path(2), Graph(2, [])]:
        gpath = write_graph(tmp_path, g)
        per_vertex = (4, 5, 4, 6)[: g.vertex_count]
        forms = [
            (["--sizes", "4"], 4),
            (["--sizes", "4,3"], (4, 3)),
            (["--m", "4", "--n", "3"], (4, 3)),
            (["--sizes", ",".join(map(str, per_vertex))], per_vertex),
        ]
        for size_flags, sizes in forms:
            got = run("label", "--graph", gpath, "--kind", kind, *flags, *size_flags)
            try:
                lab = construct(g, kind, sizes=sizes, **fields)
                want = (0, serialize_labeling(lab), "")
            except ConstructionError as exc:
                want = (3, "", f"error: {exc}\n")
            except ValueError as exc:
                want = (2, "", f"error: {exc}\n")
            assert got == want, (kind, g, size_flags)


def test_every_label_flag_fills_a_spec_field(tmp_path, monkeypatch):
    gpath = write_graph(tmp_path, path(3))
    calls = []

    def record(g, kind, **params):
        calls.append(params)
        raise ValueError("recorded")

    monkeypatch.setattr(cli, "construct", record)
    argv = ["label", "--graph", gpath, "--kind", "isoarithmetic"]
    assert main(argv) == 2
    assert calls == [{"diff": 1, "seed": 0}]
    (label,) = [
        sub.choices["label"] for sub in build_parser()._actions
        if isinstance(sub, argparse._SubParsersAction)
    ]
    partner = {"--m": ["--n", "5"], "--n": ["--m", "5"]}
    filled = set()
    for action in label._actions:
        (flag, *_) = action.option_strings
        if flag in ("-h", "--graph", "--kind", "--format", "--out"):
            continue
        assert main([*argv, flag, "5", *partner.get(flag, [])]) == 2
        assert calls[-1] != calls[0], flag
        filled |= set(calls[-1])
    # and the flags reach every parameter some builder reads
    read = {name for build in KINDS.values() for name in inspect.signature(build).parameters}
    assert filled == read - {"g"}


def test_label_odd_cycle_single_ratio_is_infeasible(run, tmp_path):
    gpath = write_graph(tmp_path, cycle(5))
    code, _, err = run(
        "label", "--graph", gpath, "--kind", "identical_biarithmetic", "--k", "2"
    )
    assert code == 3 and "odd cycle" in err


def test_label_ratio_over_size_is_infeasible(run, tmp_path):
    gpath = write_graph(tmp_path, cycle(4))
    code, _, err = run(
        "label", "--graph", gpath, "--kind", "identical_biarithmetic", "--k", "9"
    )
    assert code == 3 and "exceeds" in err


def test_label_missing_graph_file(run, tmp_path):
    code, _, err = run(
        "label", "--graph", str(tmp_path / "nope.txt"), "--kind", "isoarithmetic"
    )
    assert code == 2 and "error:" in err


def test_label_seed_comes_from_the_flag_alone(run, tmp_path, monkeypatch):
    gpath = write_graph(tmp_path, path(4))
    argv = ["label", "--graph", gpath, "--kind", "isoarithmetic"]
    by_default = run(*argv)
    assert by_default[0] == 0
    assert run(*argv, "--seed", "0") == by_default
    assert run(*argv, "--seed", "77") != by_default
    # the environment is no second way to set the seed
    monkeypatch.setenv("IASI_SEED", "77")
    assert run(*argv) == by_default


def test_label_kind_uniform_isoarithmetic_is_gone(run, tmp_path):
    # one integer size to every vertex is --kind isoarithmetic --sizes N
    gpath = write_graph(tmp_path, path(4))
    with pytest.raises(SystemExit) as exc:
        run("label", "--graph", gpath, "--kind", "uniform_isoarithmetic", "--sizes", "4")
    assert exc.value.code == 2
    code, out, _ = run("label", "--graph", gpath, "--kind", "isoarithmetic", "--sizes", "4")
    assert code == 0 and out.startswith("0: 0 1 2 3\n")


def test_label_dot_format_annotates_edges(run, tmp_path):
    gpath = write_graph(tmp_path, path(2))
    code, out, _ = run(
        "label", "--graph", gpath, "--kind", "isoarithmetic", "--format", "dot"
    )
    assert code == 0 and "|f+|=5" in out


def test_label_componentwise_uniform(run, tmp_path):
    gpath = write_graph(tmp_path, cycle(5))
    code, out, _ = run(
        "label", "--graph", gpath, "--kind", "componentwise_uniform", "--r", "7"
    )
    assert code == 0
    assert all(len(l) == 4 for l in parse_labeling(out).assignment.values())


# --- verify -------------------------------------------------------------------


def test_verify_unmet_expectation_exits_one(run, tmp_path):
    gpath = write_graph(tmp_path, path(3))
    lpath = str(tmp_path / "lab.txt")
    assert run(
        "label", "--graph", gpath, "--kind", "isoarithmetic", "--out", lpath
    )[0] == 0
    code, out, _ = run(
        "verify", "--graph", gpath, "--labeling", lpath, "--expect", "biarithmetic"
    )
    assert code == 1
    assert "biarithmetic:               no" in out


def test_verify_malformed_labeling_exits_two(run, tmp_path):
    gpath = write_graph(tmp_path, path(2))
    lpath = tmp_path / "bad.txt"
    lpath.write_text("0: 2 1\n")
    code, _, err = run("verify", "--graph", gpath, "--labeling", str(lpath))
    assert code == 2 and "line 1" in err


def test_commands_end_lines_where_the_parsers_do(run, tmp_path):
    # a bare '\r' is refused as parse_graph and parse_labeling refuse it
    found = "line 1: found '\\r'"
    gpath, lpath = tmp_path / "g.txt", tmp_path / "lab.txt"
    gpath.write_bytes(b"2 1\r0 1\r")
    code, out, err = run("search", "--graph", str(gpath))
    assert code == 2 and out == "" and err.startswith(f"error: {found}")
    gpath.write_bytes(b"2 1\r\n0 1\r\n")
    assert run("search", "--graph", str(gpath))[0] == 0
    lpath.write_bytes(b"0: 0 1 2\r1: 3 4 5\r")
    code, out, err = run("verify", "--graph", str(gpath), "--labeling", str(lpath))
    assert code == 2 and out == "" and err.startswith(f"error: {found}")
    lpath.write_bytes(b"0: 0 1 2\r\n1: 3 4 5\r\n")
    assert run("verify", "--graph", str(gpath), "--labeling", str(lpath))[0] == 0


def test_verify_graph_path_is_directory(run, tmp_path):
    lpath = tmp_path / "lab.txt"
    lpath.write_text("0: 0 1 2\n")
    code, _, err = run("verify", "--graph", str(tmp_path), "--labeling", str(lpath))
    assert code == 2 and err.startswith("error:")


def test_verify_labeling_missing_a_vertex_exits_two(run, tmp_path):
    gpath = write_graph(tmp_path, path(3))
    lpath = tmp_path / "lab.txt"
    lpath.write_text("0: 0 1 2\n1: 0 2 4\n")
    code, _, err = run("verify", "--graph", gpath, "--labeling", str(lpath))
    assert code == 2 and err.startswith("error:") and "vertex 2" in err


def test_verify_labeling_with_a_vertex_outside_the_graph_exits_two(run, tmp_path):
    gpath = write_graph(tmp_path, path(2))
    lpath = tmp_path / "lab.txt"
    lpath.write_text("0: 0 1 2\n1: 0 2 4\n5: 0 1 2\n")
    code, out, err = run("verify", "--graph", gpath, "--labeling", str(lpath))
    assert code == 2 and out == "" and err.startswith("error:") and "vertex 5" in err


def test_verify_structured_format(run, tmp_path):
    gpath = write_graph(tmp_path, path(2))
    lpath = tmp_path / "lab.txt"
    lpath.write_text("0: 0 1 2\n1: 0 3 6\n")
    code, out, _ = run(
        "verify", "--graph", gpath, "--labeling", str(lpath),
        "--expect", "strong", "--format", "structured",
    )
    assert code == 0
    assert "strong=true" in out.splitlines()


# --- classes --------------------------------------------------------------------


def test_classes_from_explicit_sets(run):
    code, out, _ = run("classes", "--set-a", "0..4", "--set-b", "0,1,2")
    assert code == 0
    assert "histogram={1:2, 2:2, 3:3}" in out


def test_classes_from_labeling_edge(run, tmp_path):
    lpath = tmp_path / "lab.txt"
    lpath.write_text("0: 0 1 2\n1: 0 2 4\n")
    code, out, _ = run(
        "classes", "--labeling", str(lpath), "--edge", "0,1", "--format", "structured"
    )
    assert code == 0
    assert "classes=7" in out.splitlines()


def test_classes_edge_on_absent_vertex_exits_two(run, tmp_path):
    lpath = tmp_path / "lab.txt"
    lpath.write_text("0: 0 1 2\n1: 0 2 4\n")
    code, out, err = run("classes", "--labeling", str(lpath), "--edge", "0,5")
    assert code == 2 and out == "" and err.startswith("error:") and "vertex 5" in err


def test_classes_needs_a_source(run):
    code, _, err = run("classes", "--set-a", "1,2")
    assert code == 2 and "go together" in err
    code, _, err = run("classes")
    assert code == 2


@pytest.mark.parametrize("flags", [
    ["--set-a", "0..2", "--set-b", "0,2", "--labeling", "/nonexistent", "--edge", "9,9"],
    ["--set-a", "0..2", "--set-b", "0,2", "--edge", "0,1"],
    ["--set-b", "0,2", "--labeling", "lab.txt"],
], ids=["all-four", "sets-and-edge", "set-b-and-labeling"])
def test_classes_refuses_mixed_input_forms(run, flags):
    # the labeling flags used to be dropped without a word, the file unread
    assert run("classes", *flags) == (
        2, "", "error: give --set-a/--set-b or --labeling/--edge, not both\n"
    )


@pytest.mark.parametrize("edge", ["0", "0,1,2", "a,b", ""])
def test_classes_malformed_edge_names_the_flag(run, tmp_path, edge):
    # each used to report an unpacking or int() error
    lpath = tmp_path / "lab.txt"
    lpath.write_text("0: 0 1 2\n1: 0 2 4\n")
    assert run("classes", "--labeling", str(lpath), "--edge", edge) == (
        2, "", f"error: --edge takes u,v, got {edge!r}\n"
    )


@pytest.mark.parametrize("edge", ["0,0", "1,1"])
def test_classes_refuses_a_loop_edge(run, tmp_path, edge):
    # a labeling file carries no edges, so an edge of itself used to pass
    lpath = tmp_path / "lab.txt"
    lpath.write_text("0: 0 1 2\n1: 0 2 4\n")
    assert run("classes", "--labeling", str(lpath), "--edge", edge) == (
        2, "", f"error: --edge joins two distinct vertices, got {edge!r}\n"
    )


# --- audit ----------------------------------------------------------------------


def test_audit_clean_sweep(run):
    code, out, _ = run("audit", "--theorem", "t-ncc", "--m", "3..6", "--n", "3..6")
    assert code == 0
    assert out.splitlines()[-1] == "all 16 grid points match"


def test_audit_reports_mismatch_without_failing(run):
    code, out, _ = run(
        "audit", "--theorem", "t-nmcc-ii", "--m", "5", "--n", "4", "--k", "2"
    )
    assert code == 0
    assert "MISMATCH" in out and "{1:4, 2:5, 3:2}" in out


def test_audit_skips_a_point_its_predictor_refuses(run):
    assert run("audit", "--theorem", "edge-sin", "--m", "0", "--n", "3", "--k", "1") == (
        0,
        "EDGE-SIN m=0 n=3 k=1: skipped (sizes must be positive)\n"
        "1 grid points: 0 match, 0 mismatch, 1 skipped\n",
        "",
    )


def test_audit_ratio_theorem_needs_k(run):
    code, _, err = run("audit", "--theorem", "t-nsc-ii", "--m", "5..7", "--n", "3")
    assert code == 2 and "--k" in err


def test_audit_two_member_theorem_refuses_k(run):
    # --k used to be ignored on a theorem whose points are (m, n)
    code, out, err = run("audit", "--theorem", "t-ncc", "--m", "3", "--n", "3", "--k", "2")
    assert (code, out, err) == (2, "", "error: theorem t-ncc does not read --k\n")


@pytest.mark.parametrize("flags", [
    ("--theorem", "t-ncc", "--m", "5..3", "--n", "3..4"),
    ("--theorem", "t-ncc", "--m", ",", "--n", "3..4"),
    ("--theorem", "t-nsc-ii", "--m", "5..7", "--n", "3", "--k", "3..1"),
])
def test_audit_empty_range_is_usage_error(run, flags):
    # each used to audit an empty grid and print "all 0 grid points match"
    code, out, err = run("audit", *flags)
    i = next(i for i, v in enumerate(flags) if v in ("5..3", ",", "3..1"))
    assert code == 2 and out == ""
    assert err == f"error: {flags[i - 1]} {flags[i]!r} gives no values\n"


def test_audit_structured_output(run):
    code, out, _ = run(
        "audit", "--theorem", "edge-sin", "--m", "3,4", "--n", "3",
        "--k", "1..2", "--format", "structured",
    )
    assert code == 0
    assert all(
        "verdict=match" in line for line in out.splitlines()[:-1]
    )


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_audit_output_equals_the_library_rendering(run, fmt):
    grid = [(m, n, k) for m in range(3, 9) for n in range(3, 6) for k in range(2, 5)]
    records = audit("T-NMCC-II", grid)
    assert {rec.verdict for rec in records} == {"match", "mismatch", "skipped"}
    code, out, _ = run(
        "audit", "--theorem", "t-nmcc-ii", "--m", "3..8", "--n", "3..5", "--k", "2..4",
        "--d", "3", "--format", fmt,
    )
    assert code == 0 and out == serialize_audit(records, fmt=fmt)


def test_audit_bad_difference_writes_no_out_file(run, tmp_path):
    out = tmp_path / "audit.txt"
    code, stdout, err = run(
        "audit", "--theorem", "t-ncc", "--m", "3..6", "--n", "3", "--d", "0", "--out", str(out)
    )
    assert code == 2 and stdout == "" and err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("d", ["0", "-1"])
@pytest.mark.parametrize("grid", [
    ["--theorem", "t-nsc-ii", "--m", "3", "--n", "9", "--k", "2"],  # every point skipped
    ["--theorem", "t-ncc", "--m", "3..6", "--n", "3"],  # every point predicted
], ids=["skipped", "predicted"])
def test_audit_nonpositive_difference_is_refused_on_every_grid(run, tmp_path, grid, d):
    # an all-skipped grid used to exit 0: only a predicted point checked --d
    out = tmp_path / "audit.txt"
    for extra in ([], ["--out", str(out)]):
        assert run("audit", *grid, "--d", d, *extra) == (
            2, "", "error: difference must be positive\n"
        )
    assert not out.exists()


def test_parse_values_keeps_a_range_unlisted():
    values = cli._parse_values("--m", "3..100000000000000")
    assert isinstance(values, range) and values == range(3, 10**14 + 1)


HUGE = "100000000000000000000"  # 10**20: a range of it has more values than a C ssize_t holds


@pytest.mark.parametrize("argv, flag", [
    (["classes", "--set-a", f"0..{HUGE}", "--set-b", "0,1"], "--set-a"),
    (["label", "--kind", "isoarithmetic", "--sizes", f"3..{HUGE}"], "--sizes"),
    (["search", "--sizes", f"3..{HUGE}"], "--sizes"),
    (["search", "--k", f"2..{HUGE}"], "--k"),
], ids=["classes-set-a", "label-sizes", "search-sizes", "search-k"])
def test_range_past_ssize_t_is_input_error(run, tmp_path, argv, flag):
    if argv[0] != "classes":
        argv = [argv[0], "--graph", write_graph(tmp_path, path(4)), *argv[1:]]
    code, out, err = run(*argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1 and "Traceback" not in err
    assert f"{argv[argv.index(flag) + 1]!r}" in err


@pytest.mark.parametrize("argv, flag", [
    (["label", "--kind", "isoarithmetic", "--sizes", None], "--sizes"),
    (["classes", "--set-a", None, "--set-b", "0,1"], "--set-a"),
    (["classes", "--set-a", "0,1", "--set-b", None], "--set-b"),
    (["audit", "--theorem", "t-nsc-ii", "--m", None, "--n", "3", "--k", "2"], "--m"),
    (["audit", "--theorem", "t-nsc-ii", "--m", "6", "--n", None, "--k", "2"], "--n"),
    (["audit", "--theorem", "t-nsc-ii", "--m", "6", "--n", "3", "--k", None], "--k"),
    (["search", "--sizes", None], "--sizes"),
    (["search", "--k", None], "--k"),
], ids=["label-sizes", "classes-set-a", "classes-set-b", "audit-m", "audit-n", "audit-k",
        "search-sizes", "search-k"])
@pytest.mark.parametrize("text, reason", [
    ("5..3", "gives no values"),
    (",", "gives no values"),
    ("x", "is not a lo..hi range or a list of integers"),
    ("a..3", "is not a lo..hi range or a list of integers"),
    ("3..x", "is not a lo..hi range or a list of integers"),
])
def test_every_value_refusal_names_its_flag(run, tmp_path, argv, flag, text, reason):
    argv = [text if a is None else a for a in argv]
    if argv[0] in ("label", "search"):
        argv = [argv[0], "--graph", write_graph(tmp_path, path(4)), *argv[1:]]
    assert run(*argv) == (2, "", f"error: {flag} {text!r} {reason}\n")


# the child caps its own address space, so listing an axis of 10**14
# values fails at once and the host is never at risk
STREAM_CHILD = """
import resource, sys
limit = 512 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from iasi.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_audit_streams_a_huge_axis_under_a_memory_limit():
    argv = ["audit", "--theorem", "t-ncc", "--m", "3..100000000000000", "--n", "3"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    proc = subprocess.Popen(
        [sys.executable, "-c", STREAM_CHILD, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    # a child that writes nothing is killed after a few seconds, which ends readline
    watchdog = threading.Timer(10, proc.kill)
    watchdog.start()
    try:
        lines = [proc.stdout.readline() for _ in range(3)]
    finally:
        watchdog.cancel()
        proc.kill()
        _, err = proc.communicate(timeout=30)
    want = serialize_audit([audit_point("t-ncc", (m, 3)) for m in (3, 4, 5)])
    assert lines == want.splitlines(keepends=True)[:3], err


def test_audit_range_past_ssize_t_is_refused_before_the_sweep():
    # in a child with a time limit: a sweep that started would never end
    argv = ["audit", "--theorem", "t-ncc", "--m", f"3..{HUGE}", "--n", "3"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", STREAM_CHILD, *argv],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: --m '3..{HUGE}' spans more than {sys.maxsize} values\n"


# --- search ----------------------------------------------------------------------


def test_search_finds_witness(run, tmp_path):
    gpath = write_graph(tmp_path, cycle(4))
    code, out, _ = run("search", "--graph", gpath)
    assert code == 0
    assert parse_labeling(out).vertices() == (0, 1, 2, 3)


def test_search_odd_cycle_reports_reason(run, tmp_path):
    gpath = write_graph(tmp_path, cycle(5))
    code, out, _ = run("search", "--graph", gpath)
    assert code == 1
    assert "graph not bipartite" in out


@pytest.mark.parametrize("g", [cycle(7), complete(4)], ids=["C7", "K4"])
def test_search_non_bipartite_graphs_report_reason(run, tmp_path, g):
    gpath = write_graph(tmp_path, g)
    code, out, _ = run("search", "--graph", gpath)
    assert code == 1
    assert out == "no identical biarithmetic IASI found (graph not bipartite)\n"


def test_search_exhausted_window_reports_reason(run, tmp_path):
    gpath = write_graph(tmp_path, path(2))
    code, out, _ = run(
        "search", "--graph", gpath, "--max-elem", "2", "--sizes", "3", "--k", "2"
    )
    assert code == 1
    assert "search window exhausted" in out


def test_search_window_below_class_is_input_error(run, tmp_path):
    gpath = write_graph(tmp_path, path(3))
    code, out, err = run("search", "--graph", gpath, "--sizes", "1")
    assert code == 2 and "sizes must be at least 3" in err and out == ""


def test_search_negative_max_element_is_input_error(run, tmp_path):
    gpath = write_graph(tmp_path, path(3))
    code, out, err = run("search", "--graph", gpath, "--max-elem", "-5")
    assert code == 2 and "max_element must be at least 0" in err and out == ""


def test_search_repeated_sizes_and_ratios_change_nothing(run, tmp_path):
    gpath = write_graph(tmp_path, cycle(4))
    once = run("search", "--graph", gpath, "--sizes", "4", "--k", "2")
    repeated = run("search", "--graph", gpath, "--sizes", "4,4", "--k", "2,2")
    assert once[0] == 0 and repeated == once


def test_search_size_limit_is_input_error(run, tmp_path):
    gpath = write_graph(tmp_path, path(9))
    code, _, err = run("search", "--graph", gpath)
    assert code == 3 and "limited to 8" in err


# --- the parser -------------------------------------------------------------------


def test_main_builds_one_parser_per_process(run, tmp_path):
    gpath = str(tmp_path / "g.txt")
    lpath = str(tmp_path / "lab.txt")
    cli._parser.cache_clear()
    with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as built:
        assert run("gen", "--kind", "cycle", "--n", "4", "--out", gpath)[0] == 0
        assert run("label", "--graph", gpath, "--kind", "isoarithmetic", "--out", lpath)[0] == 0
        with pytest.raises(SystemExit) as usage:
            main(["gen"])
        assert usage.value.code == 2
        assert run("verify", "--graph", gpath, "--labeling", lpath)[0] == 0
        assert run("audit", "--theorem", "t-ncc", "--m", "3", "--n", "3")[0] == 0
    assert built.call_count == 1


PARSE_TABLE = [
    ["gen", "--kind", "path", "--n", "5"],
    ["gen", "--kind", "complete_bipartite", "--m", "2", "--n", "3", "--format", "dot",
     "--out", "g.dot"],
    ["label", "--graph", "g.txt", "--kind", "identical_biarithmetic", "--k", "2",
     "--sizes", "3,4", "--seed", "7"],
    ["gen", "--n", "5"],  # no --kind: a usage error between valid argvs
    ["label", "--graph", "g.txt", "--kind", "strong_biarithmetic", "--m", "4", "--n", "3"],
    ["verify", "--graph", "g.txt", "--labeling", "lab.txt"],
    ["verify", "--graph", "g.txt", "--labeling", "lab.txt", "--expect", "strong",
     "--format", "structured"],
    ["classes", "--set-a", "0,1,2", "--set-b", "0,2,4"],
    ["search", "--graph"],  # --graph without a value
    ["classes", "--labeling", "lab.txt", "--edge", "0,1"],
    ["audit", "--theorem", "t-ncc", "--m", "3..6", "--n", "3,4"],
    ["audit", "--theorem", "edge-sin", "--m", "3", "--n", "3..5", "--k", "1..2", "--d", "3"],
    ["search", "--graph", "g.txt"],
    ["search", "--graph", "g.txt", "--max-elem", "13", "--sizes", "4..5", "--k", "4"],
]


def parse_outcome(parser, argv, capsys):
    try:
        result = ("parsed", vars(parser.parse_args(argv)))
    except SystemExit as exc:
        result = ("exit", exc.code)
    return result, capsys.readouterr()


def test_shared_parser_parses_like_a_fresh_one(capsys):
    shared = cli._parser()
    outcomes = [parse_outcome(shared, argv, capsys) for argv in PARSE_TABLE]
    assert [kind for (kind, _), _ in outcomes].count("exit") == 2
    for argv, got in zip(PARSE_TABLE, outcomes):
        assert got == parse_outcome(build_parser(), argv, capsys)


def test_parser_defaults_are_immutable():
    # a shared parser is safe only if no parse can change what the next one sees
    parser = build_parser()
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(verbs.choices) == ["audit", "classes", "gen", "label", "search", "verify"]
    for name, sub in [("iasi", parser), *verbs.choices.items()]:
        for action in sub._actions:
            assert type(action.default) in (type(None), int, str, bool), (name, action.dest)
        if sub is not parser:
            assert sub._defaults == {"func": getattr(cli, f"_cmd_{name}")}


# --- module entry point -------------------------------------------------------------


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "iasi", "gen", "--kind", "path", "--n", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert parse_graph(proc.stdout) == path(3)
