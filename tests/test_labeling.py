"""Labelings, induced edge labels, indices and ratios."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from iasi import (
    Labeling,
    MissingLabelError,
    NotArithmeticError,
    UndefinedIndexError,
    ap_set,
    detect_ap,
    deterministic_index,
    deterministic_ratio,
    edge_label,
    make_labeling,
    set_indexing_number,
)


def lab_of(*sets) -> Labeling:
    return make_labeling({v: s for v, s in enumerate(sets)})


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


def test_set_indexing_number():
    assert set_indexing_number((4, 9, 14)) == 3
    lab = lab_of((0, 3, 6), (1, 4, 7, 10))
    # shared difference: edge cardinality is one less than the size sum
    assert set_indexing_number(edge_label(lab, 0, 1)) == 6


def test_deterministic_index():
    lab = lab_of((2, 5, 8, 11), (7,), (0, 1, 4))
    assert deterministic_index(lab, 0) == 3
    with pytest.raises(UndefinedIndexError):
        deterministic_index(lab, 1)
    with pytest.raises(NotArithmeticError):
        deterministic_index(lab, 2)


def test_deterministic_ratio_examples():
    lab = lab_of(ap_set(0, 2, 3), ap_set(1, 6, 3))
    res = deterministic_ratio(lab, 0, 1)
    assert res.ratio == Fraction(3) and res.smaller == (0,)
    # argument order never changes which endpoint holds the smaller index
    res = deterministic_ratio(lab, 1, 0)
    assert res.ratio == Fraction(3) and res.smaller == (0,)

    lab = lab_of(ap_set(0, 4, 3), ap_set(1, 4, 4))
    res = deterministic_ratio(lab, 0, 1)
    assert res.ratio == Fraction(1) and res.smaller == (0, 1)

    lab = lab_of(ap_set(0, 6, 3), ap_set(1, 4, 3))
    res = deterministic_ratio(lab, 0, 1)
    assert res.ratio == Fraction(3, 2) and res.smaller == (1,)


def test_same_index_edges_are_progressions_again():
    rng = random.Random(9)
    for _ in range(80):
        d = rng.randint(1, 9)
        a = ap_set(rng.randint(0, 40), d, rng.randint(2, 7))
        b = ap_set(rng.randint(0, 40), d, rng.randint(2, 7))
        lab = lab_of(a, b)
        got = detect_ap(edge_label(lab, 0, 1))
        assert got is not None and got[1] == d


def test_restrict_renumbers_like_induced_subgraph():
    lab = make_labeling({0: (0, 1), 2: (2, 3), 5: (4, 5)})
    sub = lab.restrict([5, 0])
    assert sub.vertices() == (0, 1)
    assert sub.label(0).elems == (0, 1)
    assert sub.label(1).elems == (4, 5)


def test_labeling_validates_and_sorts():
    lab = make_labeling({3: (5, 1), 0: (2,)})
    assert lab.vertices() == (0, 3)
    assert lab.label(3).elems == (1, 5)
    with pytest.raises(ValueError):
        make_labeling({-1: (0, 1)})
    with pytest.raises(ValueError):
        make_labeling({True: (0, 1)})
    with pytest.raises(ValueError):
        make_labeling({0: (True, 2)})
