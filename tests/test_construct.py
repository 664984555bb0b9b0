"""Constructor and search battery.

Every constructed labeling is pushed back through the verifiers, so
these tests cross-check the two modules against each other.
"""

from __future__ import annotations

import argparse
import importlib
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iasi import (
    ConstructionError,
    InfeasibleError,
    IntSet,
    Labeling,
    NotBipartiteError,
    RatioBoundError,
    SearchBound,
    SizeLimitError,
    ap_set,
    classify,
    complete,
    complete_bipartite,
    construct,
    construct_biarithmetic,
    construct_bipartite_uniform_isoarithmetic,
    construct_componentwise_uniform,
    construct_identical_biarithmetic,
    construct_isoarithmetic,
    construct_strong_biarithmetic,
    cycle,
    edge_label,
    generate,
    graph,
    path,
    search_identical_biarithmetic,
    serialize_labeling,
    star,
)
from iasi.cli import build_parser
from conftest import disjoint_union, random_graph

# the package exports the construct() dispatcher under the module's name
construct_module = importlib.import_module("iasi.construct")


# --- shared-difference constructors ------------------------------------------


def test_isoarithmetic_on_assorted_graphs():
    for g in [path(5), cycle(6), complete(4), star(4), graph(4, [])]:
        lab = construct_isoarithmetic(g, diff=3, sizes=4, seed=2)
        assert classify(g, lab).isoarithmetic


def test_isoarithmetic_is_deterministic():
    g = cycle(5)
    a = construct_isoarithmetic(g, diff=2, sizes=[3, 4, 5, 3, 4], seed=9)
    b = construct_isoarithmetic(g, diff=2, sizes=[3, 4, 5, 3, 4], seed=9)
    assert a == b
    c = construct_isoarithmetic(g, diff=2, sizes=[3, 4, 5, 3, 4], seed=10)
    assert a != c


def test_isoarithmetic_rejects_bad_parameters():
    with pytest.raises(ValueError):
        construct_isoarithmetic(path(3), diff=0)
    with pytest.raises(ValueError):
        construct_isoarithmetic(path(3), sizes=2)
    with pytest.raises(ValueError):
        construct_isoarithmetic(path(3), sizes=[3, 4])  # wrong length


def test_non_integer_sizes_raise_value_error():
    for sizes in (3.5, True, "345", [3, 4.0, 3], {0: 3, 1: 3, 2: False}):
        with pytest.raises(ValueError, match="label sizes must be integers"):
            construct_isoarithmetic(path(3), sizes=sizes)
    with pytest.raises(ValueError, match="label sizes must be integers"):
        construct_identical_biarithmetic(path(2), ratio=2, sizes=(3.5, 3))


def test_size_dict_keys_must_be_vertices():
    # a key outside range(V) or not an exact int is refused, never dropped;
    # True would otherwise stand in for vertex 1
    for call in (
        lambda: construct_isoarithmetic(path(2), sizes={0: 3, 1: 3, 5: 4, "x": 9}),
        lambda: construct(path(2), "biarithmetic", sizes={0: 3, 1: 3, -1: 2.5}),
        lambda: construct_isoarithmetic(path(2), sizes={0: 3, True: 3}),
        lambda: construct_biarithmetic(path(2), sizes={0: 3, 1.0: 3}),
    ):
        with pytest.raises(ValueError, match="which is not a vertex of the graph"):
            call()


def test_side_pair_with_non_integer_member_names_the_bad_size():
    # a pair on a graph with 3 vertices is side sizes, not a per-vertex list
    msg = "label sizes must be integers, vertex 0 got 3.5"
    with pytest.raises(ValueError, match=msg):
        construct_identical_biarithmetic(path(3), ratio=2, sizes=(3.5, 3))
    with pytest.raises(ValueError, match=msg):
        construct_strong_biarithmetic(path(3), sizes=(3.5, 3))
    with pytest.raises(ValueError, match="vertex 1 got True"):
        construct_identical_biarithmetic(path(3), ratio=2, sizes=(3, True))


def test_uniform_isoarithmetic_edge_sizes():
    for l in (3, 5, 7):
        g = complete(4)
        rep = classify(g, construct_isoarithmetic(g, diff=2, sizes=l))
        assert (rep.edge_uniform, rep.vertex_uniform) == (2 * l - 1, l)


def test_bipartite_uniform_isoarithmetic():
    g = complete_bipartite(2, 3)
    lab = construct_bipartite_uniform_isoarithmetic(g, sizes=(3, 5), diff=2)
    rep = classify(g, lab)
    assert rep.isoarithmetic
    assert rep.edge_uniform == 7 and rep.vertex_uniform is None
    sizes = sorted(len(lab.label(v)) for v in g.vertices)
    assert sizes == [3, 3, 5, 5, 5]
    assert construct_bipartite_uniform_isoarithmetic(g, sizes=[3, 5], diff=2) == lab
    for sizes in (3, (3, 4, 5), {0: 3, 1: 3, 2: 4, 3: 4, 4: 4}):
        with pytest.raises(ValueError, match=r"^bipartite_uniform_isoarithmetic takes sizes \(m, n\)$"):
            construct_bipartite_uniform_isoarithmetic(g, sizes=sizes)


def test_bipartite_uniform_rejects_odd_cycle():
    with pytest.raises(NotBipartiteError):
        construct_bipartite_uniform_isoarithmetic(cycle(5), sizes=(3, 4))


def test_side_kinds_bipartition_and_resolve_sizes_once(monkeypatch):
    calls: Counter[str] = Counter()
    for name in ("_traverse", "_resolve_sizes"):
        original = getattr(construct_module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(construct_module, name, counted)
    builds = [
        lambda: construct_strong_biarithmetic(star(2000), sizes=(4, 3)),
        lambda: construct(cycle(2000), "bipartite_uniform_isoarithmetic", sizes=(3, 4)),
    ]
    for build in builds:
        calls.clear()
        build()
        assert calls == {"_traverse": 1, "_resolve_sizes": 1}


# --- single-ratio constructors ------------------------------------------------


def test_identical_biarithmetic_star():
    g = star(3)
    lab = construct_identical_biarithmetic(g, ratio=3, sizes=(3, 4), diff=2)
    assert classify(g, lab).identical_biarithmetic == 3


def test_identical_biarithmetic_respects_size_bound():
    with pytest.raises(RatioBoundError):
        construct_identical_biarithmetic(star(3), ratio=4, sizes=(3, 4))
    with pytest.raises(ValueError):
        construct_identical_biarithmetic(star(3), ratio=1)
    with pytest.raises(NotBipartiteError):
        construct_identical_biarithmetic(cycle(3), ratio=2)
    with pytest.raises(ValueError):
        construct_identical_biarithmetic(star(3), ratio=2, sizes=(2, 3))


def test_identical_biarithmetic_over_components():
    g = disjoint_union(path(3), complete_bipartite(2, 2))
    lab = construct_identical_biarithmetic(g, ratio=2, sizes=3, diff=1)
    assert classify(g, lab).identical_biarithmetic == 2


def test_strong_biarithmetic_full_product_edges():
    g = complete_bipartite(2, 3)
    lab = construct_strong_biarithmetic(g, sizes=(3, 4))
    assert classify(g, lab).strong
    for u, v in g.edges:
        assert len(edge_label(lab, u, v)) == 12


def test_strong_biarithmetic_needs_uniform_x_side():
    sizes = {0: 3, 1: 4, 2: 3, 3: 3, 4: 3}
    with pytest.raises(ValueError):
        construct_strong_biarithmetic(complete_bipartite(2, 3), sizes=sizes)


def test_biarithmetic_on_non_bipartite_graphs():
    for g in [cycle(5), complete(4), cycle(7)]:
        rep = classify(g, construct_biarithmetic(g, ratio=2))
        assert rep.biarithmetic
        assert rep.identical_biarithmetic is None or g.edge_count == 1


def test_biarithmetic_auto_sizes_track_levels():
    g = complete(4)
    lab = construct_biarithmetic(g, ratio=2)
    # a clique's differences form a divisibility chain with steps of at
    # least 2, so its largest label needs 2^(w - 1) elements, and no more
    sizes = sorted(len(lab.label(v)) for v in g.vertices)
    assert sizes == [3, 3, 4, 8]
    assert sizes[-1] == 2 ** (4 - 1)
    assert classify(g, lab).biarithmetic


def test_biarithmetic_crown_with_interleaved_ids_takes_two_levels():
    # sides are the even and the odd ids; colouring by ascending id needs 8 colours here
    g = graph(16, [(2 * i, 2 * j + 1) for i in range(8) for j in range(8) if i != j])
    lab = construct_biarithmetic(g, ratio=2)
    assert {len(lab.label(v)) for v in g.vertices} == {3}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_biarithmetic_bipartite_graphs_take_two_levels(data):
    x, y = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    pairs = data.draw(st.sets(st.tuples(st.integers(0, x - 1), st.integers(0, y - 1)), min_size=1))
    ids = data.draw(st.permutations(range(x + y)))  # the sides' ids interleave
    k = data.draw(st.integers(2, 6))
    g = graph(x + y, [(ids[a], ids[x + b]) for a, b in pairs])
    lab = construct_biarithmetic(g, ratio=k)
    assert {len(lab.label(v)) for v in g.vertices} <= {3, max(3, k)}


def test_biarithmetic_depends_only_on_the_graph():
    rng = random.Random(28)
    for _ in range(30):
        g = random_graph(rng, max_n=14, p=0.5)
        pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
        rng.shuffle(pairs)
        same = graph(g.vertex_count, pairs)
        assert construct_biarithmetic(same, ratio=3) == construct_biarithmetic(g, ratio=3)


def test_biarithmetic_rejects_undersized_labels():
    with pytest.raises(RatioBoundError):
        construct_biarithmetic(complete(4), ratio=2, sizes=3)
    with pytest.raises(ValueError):
        construct_biarithmetic(path(3), ratio=1)


# --- componentwise uniform edge sizes -------------------------------------------


def test_componentwise_mixed_components_odd_size():
    g = disjoint_union(cycle(5), complete_bipartite(2, 3))
    rep = classify(g, construct_componentwise_uniform(g, edge_size=7, diff=1))
    assert rep.isoarithmetic
    assert rep.edge_uniform == 7 and rep.vertex_uniform == 4  # odd component forces l=4, split lands there too


def test_componentwise_bipartite_components_even_size():
    g = disjoint_union(cycle(6), complete_bipartite(2, 3))
    lab = construct_componentwise_uniform(g, edge_size=8, diff=2)
    rep = classify(g, lab)
    assert rep.edge_uniform == 8 and rep.vertex_uniform is None
    assert sorted(set(len(lab.label(v)) for v in g.vertices)) == [4, 5]


def test_componentwise_odd_components_only():
    g = disjoint_union(complete(3), complete(3))
    rep = classify(g, construct_componentwise_uniform(g, edge_size=9))
    assert (rep.edge_uniform, rep.vertex_uniform) == (9, 5)


def test_componentwise_infeasible_cases():
    with pytest.raises(InfeasibleError):
        construct_componentwise_uniform(cycle(5), edge_size=6)  # odd cycle, even size
    with pytest.raises(InfeasibleError):
        construct_componentwise_uniform(path(3), edge_size=4)  # sizes would drop below 3


# --- first-term pool ------------------------------------------------------------------


# least prime >= max(V, 2), written out for the graph orders drawn below
LEAST_PRIME = {1: 2, 2: 2, 3: 3, 4: 5, 5: 5, 6: 7, 7: 7, 8: 11, 9: 11}


def test_default_pool_needs_no_repair():
    lab = construct_isoarithmetic(path(4), diff=2, sizes=3, seed=2005)
    assert [lab.label(v)[0] for v in range(4)] == [5, 16, 29, 39]  # 5 + (0, 11, 24, 34)
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng, max_n=9, p=0.5)
        seed = rng.randint(0, 10_000)
        lab = construct_isoarithmetic(g, diff=rng.randint(1, 5), sizes=3, seed=seed)
        base, p = seed % 1000, LEAST_PRIME[g.vertex_count]
        assert [lab.label(v)[0] for v in g.vertices] == [
            base + 2 * p * v + v * v % p for v in g.vertices
        ]


def test_first_terms_are_sidon():
    for n in range(1, 301):
        lab = construct_isoarithmetic(graph(n, []), sizes=3)
        firsts = [lab.label(v)[0] for v in range(n)]
        sums = [a + b for i, a in enumerate(firsts) for b in firsts[i + 1:]]
        assert len(set(sums)) == len(sums), n


def test_least_prime():
    least_prime = construct_module._least_prime
    assert [least_prime(n) for n in (0, 1, 2, 3, 4, 7, 8, 9, 24, 25)] == [
        2, 2, 2, 3, 5, 7, 11, 11, 29, 29
    ]
    assert least_prime(2000) == 2003 and least_prime(7919) == 7919


def test_seeds_alias_modulo_1000():
    g = cycle(6)
    for seed in (0, 7, 999):
        lab = construct_isoarithmetic(g, diff=2, sizes=3, seed=seed)
        assert construct_isoarithmetic(g, diff=2, sizes=3, seed=seed + 1000) == lab
        assert construct_isoarithmetic(g, diff=2, sizes=3, seed=seed - 1000) == lab


def test_seed_must_be_an_integer():
    for seed in (2.5, "7", True, None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            construct_isoarithmetic(path(3), seed=seed)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: construct_isoarithmetic(path(3), diff="2"), "diff must be an integer, got '2'"),
        (lambda: construct_biarithmetic(path(3), ratio="2"), "ratio must be an integer, got '2'"),
        (lambda: construct_identical_biarithmetic(path(3), ratio="2"), "ratio must be an integer"),
        (lambda: construct(path(3), "isoarithmetic", diff=None), "diff must be"),
        (lambda: construct(path(3), "biarithmetic", ratio=2.0), "ratio must be"),
        (lambda: construct_componentwise_uniform(path(3), True), "edge_size must be an integer"),
        (lambda: construct_componentwise_uniform(path(3), 4, diff=0), "difference must be"),
        (lambda: path(2.5), "n must be an integer, got 2.5"),
        (lambda: cycle(3.0), "n must be an integer"),
        (lambda: complete("4"), "n must be an integer"),
        (lambda: complete_bipartite(2, True), "n must be an integer"),
        (lambda: star(None), "leaves must be an integer"),
        (lambda: generate("star", n="3"), "leaves must be an integer"),
        (lambda: generate("complete_bipartite", m=1.5, n=2), "m must be an integer"),
    ],
    ids=[
        "iso-diff", "bi-ratio", "identical-ratio", "spec-diff", "spec-ratio",
        "componentwise-bool", "componentwise-diff-first", "path", "cycle", "complete",
        "complete-bipartite", "star", "generate-star", "generate-complete-bipartite",
    ],
)
def test_parameters_must_be_exact_ints(call, match):
    with pytest.raises(ValueError, match=f"^{match}"):
        call()


def test_cli_sparse_outputs_stay_seven_digits():
    g = path(2000)
    specs = [
        ("identical_biarithmetic", {"ratio": 2}),
        ("componentwise_uniform", {"edge_size": 7}),
        ("bipartite_uniform_isoarithmetic", {"sizes": (3, 4)}),
        ("strong_biarithmetic", {"sizes": (4, 3)}),
    ]
    for kind, params in specs:
        lab = construct(g, kind, seed=999, **params)
        assert max(lab.label(v).max for v in g.vertices) < 10**7, kind


# --- dispatcher -----------------------------------------------------------------------


# each kind, in the order of the table, parameters it builds from on K2,3
# and the report flag it must set
EVERY_KIND = [
    ("isoarithmetic", {"diff": 2}, "isoarithmetic"),
    ("bipartite_uniform_isoarithmetic", {"sizes": (3, 4)}, "isoarithmetic"),
    ("biarithmetic", {"ratio": 2}, "biarithmetic"),
    ("identical_biarithmetic", {"ratio": 2, "sizes": (3, 3)}, "biarithmetic"),
    ("strong_biarithmetic", {"sizes": (3, 4)}, "strong"),
    ("componentwise_uniform", {"edge_size": 7}, "isoarithmetic"),
]


def test_construct_dispatcher_covers_every_kind():
    g = complete_bipartite(2, 3)
    assert [kind for kind, _, _ in EVERY_KIND] == list(construct_module.KINDS)
    for kind, params, flag in EVERY_KIND:
        lab = construct(g, kind, **params)
        assert getattr(classify(g, lab), flag), kind
    # `iasi label --kind` offers exactly the table's kinds, in its order
    (verbs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (kind,) = [a for a in verbs.choices["label"]._actions if a.dest == "kind"]
    assert list(kind.choices) == list(construct_module.KINDS)


def test_constructors_certify_through_classify(monkeypatch):
    # {a, a+d, ..., a+(m-2)d, a+md}: injective labels, but not progressions
    def gapped(first, diff, size):
        return IntSet(tuple(first + diff * i for i in range(size - 1)) + (first + diff * size,))

    g = complete_bipartite(2, 3)
    lab = Labeling({v: gapped((1 << v) - 1, 1, 3) for v in g.vertices})
    rep = classify(g, lab)
    assert rep.is_iasi and rep.violations == ()
    assert not rep.arithmetic
    monkeypatch.setattr(construct_module, "ap_set", gapped)
    for kind, params, _ in EVERY_KIND:
        with pytest.raises(ConstructionError, match="certification failed"):
            construct(g, kind, **params)
    with pytest.raises(ConstructionError, match="certification failed"):
        search_identical_biarithmetic(cycle(4))


def test_construct_dispatcher_rejects_bad_specs():
    g = path(3)
    for kind in ("no-such-kind", ["isoarithmetic"], None):  # a list is no kind, and unhashable
        with pytest.raises(ValueError, match="unknown construction kind"):
            construct(g, kind)
    # what each kind needs and may take besides diff and seed, written out
    # here rather than read from the builders it checks
    reads = {
        "isoarithmetic": ((), ("sizes",)),
        "bipartite_uniform_isoarithmetic": (("sizes",), ()),
        "biarithmetic": ((), ("ratio", "sizes")),
        "identical_biarithmetic": (("ratio",), ("sizes",)),
        "strong_biarithmetic": ((), ("sizes",)),
        "componentwise_uniform": (("edge_size",), ()),
    }
    assert list(reads) == list(construct_module.KINDS)
    needed = {"sizes": (3, 4), "ratio": 2, "edge_size": 7}
    for kind, (needs, takes) in reads.items():
        for name in needs:
            with pytest.raises(ValueError, match=f"^{kind} needs {name}$"):
                construct(g, kind, diff=1, seed=0)
        # every parameter the kind does not read is refused, not dropped;
        # the needed ones are passed so only that one is wrong
        base = {name: needed[name] for name in needs}
        for name in needed:
            if name not in needs + takes:
                with pytest.raises(ValueError, match=f"^{kind} does not read {name}$"):
                    construct(g, kind, **base, **{name: needed[name]})
        for name in takes:
            try:
                construct(g, kind, **base, **{name: needed[name]})
            except (ConstructionError, ValueError) as exc:
                assert "does not read" not in str(exc), exc
    with pytest.raises(ValueError, match="^isoarithmetic does not read foo$"):
        construct(g, "isoarithmetic", foo=1)
    with pytest.raises(ValueError):
        construct(g, "bipartite_uniform_isoarithmetic", sizes=3)


# --- exhaustive search ------------------------------------------------------------------


def test_search_frozen_witness_on_four_cycle():
    lab = search_identical_biarithmetic(cycle(4))
    assert lab is not None
    assert {v: lab.label(v).elems for v in range(4)} == {
        0: (0, 1, 2),
        1: (0, 2, 4),
        2: (2, 3, 4),
        3: (1, 3, 5),
    }
    assert classify(cycle(4), lab).identical_biarithmetic == 2


# K4,4 and K3,4 put four and three interchangeable vertices on a side,
# so these windows exercise the twin order; the texts and refusals are
# the ones the search gave before it placed twins in ascending order
K44_WITNESS = """\
0: 0 1 2 3
1: 4 5 6 7
2: 8 9 10 11
3: 12 13 14 15
4: 0 4 8 12
5: 1 5 9 13
6: 2 6 10 14
7: 3 7 11 15
"""
K34_WITNESS = """\
0: 0 1 2 3
1: 4 5 6 7
2: 8 9 10 11
3: 0 4 8 12
4: 1 5 9 13
5: 2 6 10 14
6: 3 7 11 15
"""


def test_search_pinned_witnesses_on_complete_bipartite_graphs():
    bound = SearchBound(max_element=18, sizes=(4,), ratios=(4,))
    for (m, n), text in [((4, 4), K44_WITNESS), ((3, 4), K34_WITNESS)]:
        witness = search_identical_biarithmetic(complete_bipartite(m, n), bound)
        assert serialize_labeling(witness) == text


def test_search_exhausts_pinned_complete_bipartite_windows():
    g = complete_bipartite(4, 4)
    for top, sizes in [(13, (4,)), (14, (4, 5))]:
        bound = SearchBound(max_element=top, sizes=sizes, ratios=(4,))
        assert search_identical_biarithmetic(g, bound) is None


def test_room_prune_skips_the_fill_on_crowded_windows(monkeypatch):
    # every difference map of K4,4 at ratio 4 puts one side on d = 4, where
    # the window holds two labels at largest element 13 (size 4, first 0
    # or 1) and three at 14 (size 4, first 0 to 2; size 5 does not fit),
    # so no map reaches the fill; at 18 the witness still comes
    calls = Counter()
    fill = construct_module._fill_labels

    def counted(*args):
        calls["fill"] += 1
        return fill(*args)

    monkeypatch.setattr(construct_module, "_fill_labels", counted)
    g = complete_bipartite(4, 4)
    for top, sizes in [(13, (4,)), (14, (4, 5))]:
        calls.clear()
        assert search_identical_biarithmetic(g, SearchBound(max_element=top, sizes=sizes, ratios=(4,))) is None
        assert calls["fill"] == 0, (top, sizes)
    calls.clear()
    witness = search_identical_biarithmetic(g, SearchBound(max_element=18, sizes=(4,), ratios=(4,)))
    assert serialize_labeling(witness) == K44_WITNESS
    assert calls["fill"] >= 1


def test_search_huge_window_stays_cheap():
    # max_diff is 5 * 10**8 here, so room must never be tabulated per difference
    bound = SearchBound(max_element=10**9)
    for g in [path(2), cycle(4), complete_bipartite(3, 3)]:
        start = time.perf_counter()
        witness = search_identical_biarithmetic(g, bound)
        assert time.perf_counter() - start < 1.0
        assert witness is not None and classify(g, witness).identical_biarithmetic in (2, 3)


def test_search_finds_witnesses_on_even_structures():
    for g in [path(2), path(3), path(4), path(5), path(6), cycle(6), complete_bipartite(2, 3)]:
        lab = search_identical_biarithmetic(g)
        assert lab is not None
        k = classify(g, lab).identical_biarithmetic
        assert k in (2, 3)


def test_search_rejects_odd_cycles():
    for n in (3, 5, 7):
        assert search_identical_biarithmetic(cycle(n)) is None


def test_search_refuses_non_bipartite_graphs_before_any_difference_map(monkeypatch):
    # walking the difference maps around an odd cycle grows exponentially
    # with its length; the traversal's bipartite flag refuses it at once
    calls = Counter()
    assignments = construct_module._diff_assignments

    def counted(*args):
        calls["diffs"] += 1
        return assignments(*args)

    monkeypatch.setattr(construct_module, "_diff_assignments", counted)
    odd_component = disjoint_union(path(2), cycle(5))
    for g in [cycle(7), complete(4), odd_component]:
        assert search_identical_biarithmetic(g, SearchBound(max_element=40)) is None
        assert calls["diffs"] == 0
    assert search_identical_biarithmetic(cycle(4)) is not None
    assert calls["diffs"] >= 1


def test_search_skips_ratios_above_every_size(monkeypatch):
    # an edge needs a ratio no bigger than its smaller-difference endpoint's
    # size, so these windows have no witness; walking their difference
    # maps took seconds
    calls = Counter()
    assignments = construct_module._diff_assignments

    def counted(*args):
        calls["diffs"] += 1
        return assignments(*args)

    monkeypatch.setattr(construct_module, "_diff_assignments", counted)
    for g, bound in [
        (graph(6, [(0, 1)]), SearchBound(max_element=23, sizes=(3, 4), ratios=(5,))),
        (graph(7, [(2, 4), (3, 4)]), SearchBound(max_element=21, sizes=(4,), ratios=(5,))),
    ]:
        assert search_identical_biarithmetic(g, bound) is None
        assert calls["diffs"] == 0
    # a ratio at the largest size is still searched
    bound = SearchBound(max_element=23, sizes=(3, 4), ratios=(4, 5))
    assert classify(path(2), search_identical_biarithmetic(path(2), bound)).identical_biarithmetic == 4
    assert calls["diffs"] == 1


def test_search_witness_respects_bound():
    bound = SearchBound(max_element=20, sizes=(3,), ratios=(3,))
    lab = search_identical_biarithmetic(cycle(4), bound)
    assert lab is not None
    assert classify(cycle(4), lab).identical_biarithmetic == 3
    for v in cycle(4).vertices:
        assert len(lab.label(v)) == 3
        assert lab.label(v).max <= 20


def test_search_exhausts_tiny_window():
    bound = SearchBound(max_element=2, sizes=(3,), ratios=(2,))
    assert search_identical_biarithmetic(path(2), bound) is None


def test_search_is_deterministic():
    a = search_identical_biarithmetic(cycle(6))
    b = search_identical_biarithmetic(cycle(6))
    assert a == b


def test_search_size_limit():
    with pytest.raises(SizeLimitError):
        search_identical_biarithmetic(path(9))


def test_search_bound_rejects_windows_outside_the_class():
    # size-2 labels used to come back as witnesses that classify rejects
    with pytest.raises(ValueError):
        search_identical_biarithmetic(path(3), SearchBound(max_element=20, sizes=(2,), ratios=(2,)))
    for bad in [dict(sizes=()), dict(sizes=(3, 1)), dict(ratios=(1, 2))]:
        with pytest.raises(ValueError):
            SearchBound(**bad)


def test_search_bound_rejects_negative_max_element():
    # used to sweep an empty window and report it exhausted
    with pytest.raises(ValueError, match="max_element must be at least 0"):
        SearchBound(max_element=-5)
    assert search_identical_biarithmetic(path(3), SearchBound(max_element=0)) is None


def test_search_bound_rejects_non_integer_fields():
    # a float or string used to pass here and fail mid-search with TypeError
    bad = [
        dict(max_element=20.5), dict(max_element="7"), dict(max_element=True),
        dict(sizes=(3.5,)), dict(sizes=(3, True)), dict(sizes=3), dict(sizes="34"),
        dict(ratios=(2.0,)), dict(ratios=(False, 2)),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError, match="must be an integer|collection of integers"):
            SearchBound(**kwargs)


def test_search_bound_rejects_empty_ratios():
    # used to make the search report an exhausted window without searching
    with pytest.raises(ValueError, match="search ratios must be a non-empty"):
        SearchBound(ratios=())


def test_search_bound_keeps_sorted_distinct_sizes_and_ratios():
    bound = SearchBound(sizes=(4, 3, 4), ratios=(3, 2, 3, 2))
    assert bound.sizes == (3, 4) and bound.ratios == (2, 3)
    assert bound == SearchBound(sizes=(3, 4), ratios=(2, 3))
    assert search_identical_biarithmetic(cycle(4), bound) == search_identical_biarithmetic(cycle(4))


def test_search_certifies_witness_through_classify(monkeypatch):
    # injective, but edge 0-1 has ratio 2 and edge 1-2 ratio 3
    mixed = Labeling({0: ap_set(0, 1, 3), 1: ap_set(10, 2, 3), 2: ap_set(20, 6, 3)})
    report = classify(path(3), mixed)
    assert report.is_iasi and report.identical_biarithmetic is None
    monkeypatch.setattr(construct_module, "_fill_labels", lambda *args: mixed)
    with pytest.raises(ConstructionError, match="certification failed"):
        search_identical_biarithmetic(path(3))


def test_search_refuses_graphs_without_edges():
    for g in [graph(1, []), graph(3, [])]:
        with pytest.raises(InfeasibleError):
            search_identical_biarithmetic(g)


def test_side_sizes_below_three_name_the_first_vertex():
    for build in (construct_identical_biarithmetic, construct_strong_biarithmetic):
        kwargs = {"ratio": 2} if build is construct_identical_biarithmetic else {}
        for sizes, vertex in [((2, 3), 0), ((3, 2), 1)]:
            with pytest.raises(ValueError) as info:
                build(path(4), sizes=sizes, **kwargs)
            assert str(info.value) == f"label sizes must be at least 3, vertex {vertex} got 2"


# --- random cross-check ----------------------------------------------------------------


def test_random_constructions_verify_under_their_class():
    rng = random.Random(71)
    for _ in range(60):
        g = random_graph(rng, max_n=8, p=0.45)
        seed = rng.randint(0, 500)
        lab = construct_isoarithmetic(g, diff=rng.randint(1, 6), sizes=rng.randint(3, 6), seed=seed)
        rep = classify(g, lab)
        assert rep.isoarithmetic and rep.violations == ()
        lab = construct_biarithmetic(g, ratio=rng.choice([2, 3]), seed=seed)
        assert classify(g, lab).biarithmetic or not g.edges
