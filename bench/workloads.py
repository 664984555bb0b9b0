"""The four benchmark workloads: inputs, CLI operations and output checks.

Every operation is one ``iasi`` command line run in-process through
``iasi.cli.main``, reading and writing files in a scratch directory.
Each workload stresses a different layer (see README.md):

- cli-sparse: gen -> label -> verify on 2000-vertex sparse graphs;
  graph traversal and labeling-file size dominate.
- cli-dense: the same pipeline on dense graphs with large labels;
  sumsets dominate.
- audit-sweep: closed-form audits; compat_partition dominates, and no
  graph, labeling or construction code runs.
- search-window: exhaustive identical-biarithmetic searches; small
  sumsets and neighbour scans in the backtracking dominate.

``tiny=True`` shrinks every input so the smoke test runs in seconds.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

# candidates drawn per cli-dense biarithmetic graph; the one whose
# estimated sumset work is nearest the target is used (see _pick_dense)
DENSE_CANDIDATES = 16
DENSE_WORK_TARGET = 3_000_000

# audit verdict counts (match, mismatch, skipped) recorded at the commit
# that introduced this benchmark; they do not depend on --d
AUDIT_COUNTS = {
    False: {
        "t-ncc": (4484, 0, 0),
        "t-nsc-ii": (1336, 0, 520),
        "t-nmcc-ii": (248, 360, 1248),
        "edge-sin": (9728, 0, 380),
    },
    True: {
        "t-ncc": (32, 0, 0),
        "t-nsc-ii": (33, 0, 27),
        "t-nmcc-ii": (22, 18, 20),
        "edge-sin": (48, 0, 0),
    },
}

Check = Callable[[str], Optional[str]]


@dataclass
class Op:
    """One CLI call, its expected exit status, and a check of its output."""

    argv: list[str]
    out: Path
    expect_rc: int
    check: Optional[Check] = None
    labeling: bool = False  # output is a labeling file


@dataclass
class Workload:
    ops: list[Op] = field(default_factory=list)
    inputs: dict[str, object] = field(default_factory=dict)  # recorded with results


# --- generic output checks -------------------------------------------------


def _report_check(**want: str) -> Check:
    """Require ``key=value`` lines of a structured verify report."""

    def check(text: str) -> Optional[str]:
        fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
        want_all = {"is_iasi": "true", **want}
        bad = {k: fields.get(k) for k, v in want_all.items() if fields.get(k) != v}
        return f"report fields {bad}, wanted {want_all}" if bad else None

    return check


def _labeling_check(text: str) -> Optional[str]:
    return None if text.strip() else "empty labeling"


def _verdict_check(want: tuple[int, int, int]) -> Check:
    def check(text: str) -> Optional[str]:
        verdicts = Counter(
            part.split("=", 1)[1]
            for line in text.splitlines()
            for part in line.split()
            if part.startswith("verdict=")
        )
        got = (verdicts["match"], verdicts["mismatch"], verdicts["skipped"])
        return None if got == want else f"verdict counts {got}, recorded {want}"

    return check


def _message_check(reason: str) -> Check:
    def check(text: str) -> Optional[str]:
        return None if reason in text else f"expected {reason!r}, got {text.strip()!r}"

    return check


def _witness_check(graph_file: Path, sizes: tuple[int, ...], ratios: tuple[int, ...],
                   max_elem: int) -> Check:
    """Certify a search witness with the library's own parser and classify."""

    def check(text: str) -> Optional[str]:
        from iasi.io import parse_graph, parse_labeling
        from iasi.verify import classify

        g = parse_graph(graph_file.read_text())
        lab = parse_labeling(text)
        rep = classify(g, lab)
        if not rep.is_iasi or rep.identical_biarithmetic not in ratios:
            return f"classify rejects the witness: {rep}"
        for v in lab:
            s = lab.label(v)
            if len(s) not in sizes or s.max > max_elem:
                return f"vertex {v} label {s} lies outside the search window"
        return None

    return check


# --- input generation --------------------------------------------------------


def _gnp(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def _biarithmetic_work(n: int, edges: list[tuple[int, int]], ratio: int) -> int:
    """Estimated sum of |f(u)| * |f(v)| over edges for a biarithmetic labeling.

    Mirrors the size rule of the shipped constructor: greedy levels by
    ascending vertex id, and each lower-level endpoint at least
    ratio**(level gap) elements.  Used only to pick inputs of a steady size.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    level: dict[int, int] = {}
    for v in range(n):
        used = {level[w] for w in adj[v] if w in level}
        c = 0
        while c in used:
            c += 1
        level[v] = c
    size = [3] * n
    for u, v in edges:
        lo, hi = (u, v) if level[u] < level[v] else (v, u)
        size[lo] = max(size[lo], ratio ** (level[hi] - level[lo]))
    return sum(size[u] * size[v] for u, v in edges)


def _pick_dense(n: int, p: float, rng: random.Random, ratio: int,
                target: Optional[int]) -> list[tuple[int, int]]:
    """G(n, p) with its sumset work close to ``target``.

    Label sizes grow as ratio**(colour gap), so one G(300, 0.05) draw
    can cost twice another; drawing a fixed number of candidates and
    keeping the one nearest a fixed work target keeps run time steady
    across seeds while the graph stays random.
    """
    candidates = [_gnp(n, p, rng) for _ in range(DENSE_CANDIDATES)]
    if target is None:
        return candidates[0]
    return min(candidates, key=lambda e: abs(_biarithmetic_work(n, e, ratio) - target))


def _write_edges(path: Path, n: int, edges: list[tuple[int, int]]) -> None:
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))


# --- workloads -------------------------------------------------------------------


def _pipeline(ops: list[Op], tmp: Path, tag: str, graph_file: Path, label_args: list[str],
              expect: str, iasi_seed: int, **report: str) -> None:
    lab = tmp / f"{tag}.lab"
    rep = tmp / f"{tag}.rep"
    ops.append(Op(["label", "--graph", str(graph_file), *label_args, "--seed", str(iasi_seed),
                   "--out", str(lab)], lab, 0, _labeling_check, labeling=True))
    ops.append(Op(["verify", "--graph", str(graph_file), "--labeling", str(lab),
                   "--expect", expect, "--format", "structured", "--out", str(rep)],
                  rep, 0, _report_check(**report)))


def _gen(ops: list[Op], tmp: Path, tag: str, gen_args: list[str]) -> Path:
    path = tmp / f"{tag}.graph"
    ops.append(Op(["gen", *gen_args, "--out", str(path)], path, 0))
    return path


def cli_sparse(seed: int, tmp: Path, tiny: bool) -> Workload:
    rng = random.Random(f"cli-sparse:{seed}")
    iasi_seed = rng.randrange(1000)
    n = "40" if tiny else "2000"
    w = Workload(inputs={"iasi_seed": iasi_seed, "n": int(n)})
    path = _gen(w.ops, tmp, "path", ["--kind", "path", "--n", n])
    _pipeline(w.ops, tmp, "path-idbi", path, ["--kind", "identical_biarithmetic", "--k", "2"],
              "identical-biarithmetic", iasi_seed, identical_biarithmetic="2")
    _pipeline(w.ops, tmp, "path-cwu", path, ["--kind", "componentwise_uniform", "--r", "7"],
              "isoarithmetic", iasi_seed, edge_uniform="7")
    cyc = _gen(w.ops, tmp, "cycle", ["--kind", "cycle", "--n", n])
    _pipeline(w.ops, tmp, "cycle-bui", cyc,
              ["--kind", "bipartite_uniform_isoarithmetic", "--m", "3", "--n", "4"],
              "isoarithmetic", iasi_seed, edge_uniform="6")
    star = _gen(w.ops, tmp, "star", ["--kind", "star", "--n", n])
    _pipeline(w.ops, tmp, "star-sbi", star, ["--kind", "strong_biarithmetic", "--sizes", "4,3"],
              "strong", iasi_seed, identical_biarithmetic="4")
    return w


def cli_dense(seed: int, tmp: Path, tiny: bool) -> Workload:
    rng = random.Random(f"cli-dense:{seed}")
    iasi_seed = rng.randrange(1000)
    n, p, side = (30, 0.2, "6") if tiny else (300, 0.05, "60")
    bi_edges = _pick_dense(n, p, rng, 2, None if tiny else DENSE_WORK_TARGET)
    iso_edges = _gnp(n, p, rng)
    w = Workload(inputs={
        "iasi_seed": iasi_seed, "n": n, "p": p,
        "bi_edges": len(bi_edges), "iso_edges": len(iso_edges),
    })
    bi = tmp / "gnp-bi.graph"
    iso = tmp / "gnp-iso.graph"
    _write_edges(bi, n, bi_edges)
    _write_edges(iso, n, iso_edges)
    _pipeline(w.ops, tmp, "gnp-bi", bi, ["--kind", "biarithmetic", "--k", "2"],
              "biarithmetic", iasi_seed, biarithmetic="true")
    _pipeline(w.ops, tmp, "gnp-iso", iso, ["--kind", "isoarithmetic", "--sizes", "5"],
              "isoarithmetic", iasi_seed, vertex_uniform="5")
    kmn = _gen(w.ops, tmp, "kmn", ["--kind", "complete_bipartite", "--m", side, "--n", side])
    _pipeline(w.ops, tmp, "kmn-sbi", kmn, ["--kind", "strong_biarithmetic", "--sizes", "5,5"],
              "strong", iasi_seed, identical_biarithmetic="5")
    return w


def audit_sweep(seed: int, tmp: Path, tiny: bool) -> Workload:
    # the seed picks the witness difference; verdicts do not depend on it
    diff = random.Random(f"audit-sweep:{seed}").randrange(1, 10)
    if tiny:
        grids = {
            "t-ncc": ["--m", "3..10", "--n", "3..6"],
            "t-nsc-ii": ["--m", "3..12", "--n", "3..5", "--k", "2..3"],
            "t-nmcc-ii": ["--m", "3..12", "--n", "3..5", "--k", "2..3"],
            "edge-sin": ["--m", "3..6", "--n", "3..6", "--k", "1..3"],
        }
    else:
        grids = {
            "t-ncc": ["--m", "3..120", "--n", "3..40"],
            "t-nsc-ii": ["--m", "3..60", "--n", "3..10", "--k", "2..5"],
            "t-nmcc-ii": ["--m", "3..60", "--n", "3..10", "--k", "2..5"],
            "edge-sin": ["--m", "3..40", "--n", "3..40", "--k", "1..7"],
        }
    w = Workload(inputs={"d": diff})
    for theorem, grid in grids.items():
        out = tmp / f"audit-{theorem}.txt"
        w.ops.append(Op(["audit", "--theorem", theorem, *grid, "--d", str(diff),
                         "--format", "structured", "--out", str(out)],
                        out, 0, _verdict_check(AUDIT_COUNTS[tiny][theorem])))
    return w


def search_window(seed: int, tmp: Path, tiny: bool) -> Workload:
    # exhaustive cost depends on vertex order, so the windows are fixed
    from iasi.cli import main

    w = Workload()
    graphs = {
        "k44": ["--kind", "complete_bipartite", "--m", "4", "--n", "4"],
        "k34": ["--kind", "complete_bipartite", "--m", "3", "--n", "4"],
        "k26": ["--kind", "complete_bipartite", "--m", "2", "--n", "6"],
        "c8": ["--kind", "cycle", "--n", "8"],
        "c7": ["--kind", "cycle", "--n", "7"],
        "p8": ["--kind", "path", "--n", "8"],
    }
    files = {}
    for tag, gen_args in graphs.items():
        files[tag] = tmp / f"{tag}.graph"
        if main(["gen", *gen_args, "--out", str(files[tag])]) != 0:
            raise RuntimeError(f"could not generate {tag}")
    exhausted = ["11"] if tiny else ["13"]
    # (graph, sizes, ratios, max element, refusal message or None for a witness)
    windows = [("k44", "4", "4", top, "search window exhausted") for top in exhausted] + [
        ("k44", "4", "4", "18", None),
        ("k34", "4", "4", "18", None),
        ("c8", "3,4", "2,3", "30", None),
        ("k26", "3,4", "2,3", "30", None),
        ("p8", "3,4", "2,3", "30", None),
        ("c7", "3,4", "2,3", "30", "graph not bipartite"),
    ]
    for i, (tag, sizes, ratios, top, refusal) in enumerate(windows):
        out = tmp / f"search-{i}-{tag}.txt"
        argv = ["search", "--graph", str(files[tag]), "--sizes", sizes, "--k", ratios,
                "--max-elem", top, "--out", str(out)]
        if refusal is None:
            check = _witness_check(files[tag], _ints(sizes), _ints(ratios), int(top))
            w.ops.append(Op(argv, out, 0, check, labeling=True))
        else:
            w.ops.append(Op(argv, out, 1, _message_check(refusal)))
    return w


def _ints(csv: str) -> tuple[int, ...]:
    return tuple(int(x) for x in csv.split(","))


BUILDERS = {
    "cli-sparse": cli_sparse,
    "cli-dense": cli_dense,
    "audit-sweep": audit_sweep,
    "search-window": search_window,
}


def build(name: str, seed: int, tmp: Path, tiny: bool = False) -> Workload:
    return BUILDERS[name](seed, tmp, tiny)
