"""Command-line front end.

Verbs: gen, label, verify, classes, audit, search.  Exit status is 0
on success, 1 when a verification or search comes back negative, 2 on
usage or input errors, 3 when a requested construction is infeasible.
Ranges are written lo..hi (inclusive) and lists as comma-separated
values; an empty range or list is a usage error.  --seed defaults to 0.

``main`` builds its parser once per process, on its first call, and
reuses it: parsing only reads the parser, and every argument default
is None, an int or a str, so no call leaks state into the next.
``build_parser`` still returns a fresh parser each time.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import repeat
from typing import Iterable, Optional, Sequence

# direct name imports: the package re-exports a construct() function,
# which shadows the construct submodule as a package attribute
from .compat import AUDITS, audit_point, compat_partition
from .construct import (
    KINDS,
    ConstructionError,
    SearchBound,
    construct,
    search_identical_biarithmetic,
)
from .graphs import _KINDS, Graph, bipartition, generate
from .io import (
    audit_lines,
    export_dot,
    parse_graph,
    parse_labeling,
    serialize_graph,
    serialize_labeling,
    serialize_profile,
    serialize_report,
)
from .labeling import Labeling, MissingLabelError
from .sets import IntSet
from .verify import classify


def _parse_values(text: str) -> range | list[int]:
    """'3..12' (inclusive), '2,3', or '5' -> non-empty range or list of ints.

    A range is never listed, so a huge one costs nothing until it is read.
    """
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        values = range(int(lo), int(hi) + 1)
    else:
        values = [int(p) for p in text.split(",") if p]
    if not values:
        raise ValueError(f"{text!r} gives no values")
    return values


def _emit(text: str | Iterable[str], out: Optional[str]) -> None:
    """Write a text, or each line of an iterable as it is made, to ``out`` or stdout."""
    lines = (text,) if isinstance(text, str) else text
    if out:
        with open(out, "w") as f:
            f.writelines(lines)
    else:
        sys.stdout.writelines(lines)


def _load_graph(path: str) -> Graph:
    # newline="": the parser, not universal newlines, decides where a line ends
    with open(path, newline="") as f:
        return parse_graph(f.read())


def _load_labeling(path: str) -> Labeling:
    with open(path, newline="") as f:
        return parse_labeling(f.read())


# --- verb handlers ---------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    g = generate(args.kind, n=args.n, m=args.m)
    if args.format == "dot":
        _emit(export_dot(g), args.out)
    else:
        _emit(serialize_graph(g), args.out)
    return 0


def _cmd_label(args: argparse.Namespace) -> int:
    if (args.m is None) != (args.n is None):
        raise ValueError("--m and --n go together")
    if args.m is not None:
        if args.sizes is not None:
            raise ValueError("give --sizes or --m/--n, not both")
        sizes = (args.m, args.n)
    elif args.sizes is not None:
        values = _parse_values(args.sizes)
        sizes = values[0] if len(values) == 1 else tuple(values)
    else:
        sizes = None
    g = _load_graph(args.graph)
    fields = {"sizes": sizes, "ratio": args.k, "edge_size": args.r}
    lab = construct(
        g, args.kind, diff=args.d, seed=args.seed,
        **{name: value for name, value in fields.items() if value is not None},
    )
    if args.format == "dot":
        _emit(export_dot(g, lab), args.out)
    else:
        _emit(serialize_labeling(lab), args.out)
    return 0


# each --expect choice, in the order --help lists them, and the report
# test whose failure sets exit status 1
_EXPECTATIONS = {
    "iasi": lambda rep: rep.is_iasi,
    "arithmetic": lambda rep: rep.arithmetic,
    "isoarithmetic": lambda rep: rep.isoarithmetic,
    "biarithmetic": lambda rep: rep.biarithmetic,
    "identical-biarithmetic": lambda rep: rep.identical_biarithmetic is not None,
    "strong": lambda rep: rep.strong,
}


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    lab = _load_labeling(args.labeling)
    rep = classify(g, lab)
    _emit(serialize_report(rep, fmt=args.format), args.out)
    return 0 if _EXPECTATIONS[args.expect](rep) else 1


def _cmd_classes(args: argparse.Namespace) -> int:
    sets = args.set_a is not None or args.set_b is not None
    if sets and (args.labeling is not None or args.edge is not None):
        raise ValueError("give --set-a/--set-b or --labeling/--edge, not both")
    if sets:
        if args.set_a is None or args.set_b is None:
            raise ValueError("--set-a and --set-b go together")
        a = IntSet(tuple(_parse_values(args.set_a)))
        b = IntSet(tuple(_parse_values(args.set_b)))
    elif args.labeling is not None and args.edge is not None:
        lab = _load_labeling(args.labeling)
        try:
            u, v = map(int, args.edge.split(","))
        except ValueError:
            raise ValueError(f"--edge takes u,v, got {args.edge!r}") from None
        if u == v:  # a labeling file carries no edges, so only a loop can be refused
            raise ValueError(f"--edge joins two distinct vertices, got {args.edge!r}")
        a, b = lab.label(u), lab.label(v)
    else:
        raise ValueError("give either --set-a/--set-b or --labeling/--edge")
    profile = compat_partition(a, b)
    _emit(serialize_profile(profile, fmt=args.format), args.out)
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    theorem = args.theorem
    ms, ns = _parse_values(args.m), _parse_values(args.n)
    # nested loops, not itertools.product, which would list every axis
    if AUDITS[theorem.upper()][0] == 3:
        if args.k is None:
            raise ValueError(f"theorem {theorem} needs --k")
        ks = _parse_values(args.k)
        points = ((m, n, k) for m in ms for n in ns for k in ks)
    elif args.k is not None:
        raise ValueError(f"theorem {theorem} does not read --k")
    else:
        points = ((m, n) for m in ms for n in ns)
    if args.d < 1:  # no count reads --d, so it is checked here and nowhere else
        raise ValueError("difference must be positive")
    # a stream: each record is made, rendered and written in turn, and none is kept
    records = map(audit_point, repeat(theorem), points)
    _emit(audit_lines(records, fmt=args.format), args.out)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    bound = SearchBound(
        max_element=args.max_elem,
        sizes=tuple(_parse_values(args.sizes)),
        ratios=tuple(_parse_values(args.k)),
    )
    witness = search_identical_biarithmetic(g, bound)
    if witness is None:
        reason = (
            "graph not bipartite"
            if bipartition(g) is None
            else "search window exhausted"
        )
        _emit(f"no identical biarithmetic IASI found ({reason})\n", args.out)
        return 1
    _emit(serialize_labeling(witness), args.out)
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iasi",
        description="Construct, verify, and count arithmetic integer-additive set-indexers.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="generate a named graph as an edge list")
    p.add_argument("--kind", required=True, choices=sorted(_KINDS))
    p.add_argument("--n", type=int, help="order; leaf count for star; y side for complete_bipartite")
    p.add_argument("--m", type=int, help="x side for complete_bipartite")
    p.add_argument("--format", default="edgelist", choices=["edgelist", "dot"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("label", help="construct a labeling of a given class")
    p.add_argument("--graph", required=True)
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--d", type=int, default=1, help="base common difference")
    p.add_argument("--k", type=int, help="edge ratio for biarithmetic kinds")
    p.add_argument("--sizes", help="label sizes: one value, 'x,y' sides, or per-vertex CSV")
    p.add_argument("--m", type=int, help="x-side label size")
    p.add_argument("--n", type=int, help="y-side label size")
    p.add_argument("--r", type=int, help="edge cardinality for componentwise_uniform")
    p.add_argument("--seed", type=int, default=0, help="label offset; only the seed mod 1000 is used")
    p.add_argument("--format", default="labeling", choices=["labeling", "dot"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("verify", help="classify a labeling against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--labeling", required=True)
    p.add_argument("--expect", default="iasi", choices=_EXPECTATIONS,
                   help="class whose failure sets exit status 1")
    p.add_argument("--format", default="text", choices=["text", "structured"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classes", help="compatibility classes of two labels")
    p.add_argument("--set-a", help="comma-separated elements")
    p.add_argument("--set-b", help="comma-separated elements")
    p.add_argument("--labeling", help="labeling file to pull an edge from")
    p.add_argument("--edge", help="edge as 'u,v' of --labeling")
    p.add_argument("--format", default="text", choices=["text", "structured"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("audit", help="sweep a closed-form count against enumeration")
    p.add_argument("--theorem", required=True, choices=[t.lower() for t in AUDITS])
    p.add_argument("--m", required=True, help="range lo..hi or CSV")
    p.add_argument("--n", required=True, help="range lo..hi or CSV")
    p.add_argument("--k", help="range lo..hi or CSV (ratio theorems)")
    p.add_argument("--d", type=int, default=1,
                   help="witness label difference; must be positive, changes no output")
    p.add_argument("--format", default="text", choices=["text", "structured"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("search", help="exhaustive identical-biarithmetic search")
    p.add_argument("--graph", required=True)
    p.add_argument("--max-elem", type=int, default=30)
    p.add_argument("--sizes", default="3,4", help="label sizes to try, CSV or lo..hi")
    p.add_argument("--k", default="2,3", help="edge ratios to try, CSV or lo..hi")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_search)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # ParseError is a ValueError; OverflowError is a lo..hi range past a C ssize_t
    except (OSError, ValueError, OverflowError, MissingLabelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
