"""Labelings and the edge labels they induce."""

from __future__ import annotations

import random

import pytest

from iasi import (
    Labeling,
    MissingLabelError,
    ap_set,
    detect_ap,
    edge_label,
)


def lab_of(*sets) -> Labeling:
    return Labeling({v: s for v, s in enumerate(sets)})


def test_edge_label_examples():
    lab = lab_of((1, 2), (3, 4))
    assert edge_label(lab, 0, 1).elems == (4, 5, 6)
    lab = lab_of((0, 2, 4), (1, 3))
    assert edge_label(lab, 0, 1).elems == (1, 3, 5, 7)
    with pytest.raises(ValueError):
        edge_label(lab, 1, 1)
    with pytest.raises(MissingLabelError):
        edge_label(lab, 0, 9)


def test_edge_label_symmetric_and_bounded():
    rng = random.Random(3)
    for _ in range(100):
        a = ap_set(rng.randint(0, 30), rng.randint(1, 6), rng.randint(1, 6))
        b = sorted(rng.sample(range(40), rng.randint(1, 6)))
        lab = lab_of(a, b)
        e = edge_label(lab, 0, 1)
        assert e == edge_label(lab, 1, 0)
        assert max(len(a), len(b)) <= len(e) <= len(a) * len(b)


def test_same_index_edges_are_progressions_again():
    rng = random.Random(9)
    for _ in range(80):
        d = rng.randint(1, 9)
        a = ap_set(rng.randint(0, 40), d, rng.randint(2, 7))
        b = ap_set(rng.randint(0, 40), d, rng.randint(2, 7))
        lab = lab_of(a, b)
        got = detect_ap(edge_label(lab, 0, 1))
        assert got is not None and got[1] == d


def test_labeling_validates_and_sorts():
    lab = Labeling({3: (5, 1), 0: (2,)})
    assert lab.vertices() == (0, 3)
    assert lab.label(3).elems == (1, 5)
    with pytest.raises(ValueError):
        Labeling({-1: (0, 1)})
    with pytest.raises(ValueError):
        Labeling({True: (0, 1)})
    with pytest.raises(ValueError):
        Labeling({0: (True, 2)})


@pytest.mark.parametrize(
    "assignment, reason",
    [
        ({0: 5}, "label of vertex 0: 'int' object is not iterable"),
        ({3: None}, "label of vertex 3: 'NoneType' object is not iterable"),
        ({1: (0, True)}, "label of vertex 1: elements must be integers, got True"),
        ({2: ()}, "label of vertex 2: set must be non-empty"),
        ([(0, (1, 2))], "a labeling needs a mapping of vertex ids to labels, got list"),
        ((1, 2), "a labeling needs a mapping of vertex ids to labels, got tuple"),
    ],
)
def test_malformed_labeling_raises_value_error_naming_the_vertex(assignment, reason):
    # a label that is not iterable, or no mapping at all, used to escape
    # as TypeError or AttributeError
    with pytest.raises(ValueError) as exc:
        Labeling(assignment)
    assert str(exc.value) == reason
