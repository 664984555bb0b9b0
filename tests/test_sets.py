"""Sumsets, progression detection, and the minimal-growth lemmas.

Expected values here were produced by the brute-force pair enumeration
in brute_sumset below and then frozen.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iasi import (
    IntSet,
    ap_set,
    check_freiman_converse,
    detect_ap,
    sumset,
)


def brute_sumset(a, b):
    out = set()
    for x in a:
        for y in b:
            out.add(x + y)
    return sorted(out)


# --- IntSet basics ----------------------------------------------------------


def test_intset_sorts_and_dedups():
    s = IntSet((5, 1, 3, 1))
    assert s.elems == (1, 3, 5)
    assert len(s) == 3
    assert 3 in s and 2 not in s
    assert str(s) == "{1,3,5}"


def test_intset_rejects_empty_and_negative():
    with pytest.raises(ValueError):
        IntSet(())
    with pytest.raises(ValueError):
        IntSet((1, -2))
    with pytest.raises(ValueError):
        IntSet((True, 2, 3))
    with pytest.raises(ValueError):
        IntSet(("a", 1))
    with pytest.raises(ValueError):
        IntSet((1.0, 2))


def test_intset_translate_and_add_sugar():
    assert sumset(IntSet((0, 1, 2)), IntSet((0, 3))).elems == tuple(brute_sumset((0, 1, 2), (0, 3)))


def test_apset_fields_and_expansion():
    assert ap_set(2, 3, 4).elems == (2, 5, 8, 11)
    assert ap_set(0, 1, 3).elems == (0, 1, 2)
    with pytest.raises(ValueError, match="^difference must be positive$"):
        ap_set(0, 0, 3)
    with pytest.raises(ValueError, match="^first term must be non-negative$"):
        ap_set(-1, 1, 3)
    with pytest.raises(ValueError, match="^length must be positive$"):
        ap_set(0, 1, 0)
    # fields must be exactly int: bools and floats are not terms, steps or lengths
    for args in [(0, 1, True), (0, True, 3), (False, 1, 3), (0, 1, 2.5), (0.0, 1, 3), (0, "1", 3)]:
        with pytest.raises(ValueError):
            ap_set(*args)
    assert ap_set(0, 10**12, 3).elems == (0, 10**12, 2 * 10**12)
    assert ap_set(7, 1, 1).elems == (7,)


# --- sumset -------------------------------------------------------------------


def test_sumset_frozen_examples():
    assert sumset((1, 3, 5), (2, 4, 6)).elems == (3, 5, 7, 9, 11)
    assert sumset((0,), (7,)).elems == (7,)
    assert sumset((0, 1, 2), (0, 3, 6)).elems == (0, 1, 2, 3, 4, 5, 6, 7, 8)


@given(
    st.sets(st.integers(0, 60), min_size=1, max_size=8),
    st.sets(st.integers(0, 60), min_size=1, max_size=8),
)
def test_sumset_matches_enumeration_and_commutes(a, b):
    s = sumset(a, b)
    assert list(s) == brute_sumset(a, b)
    assert s == sumset(b, a)
    assert max(len(a), len(b)) <= len(s) <= len(a) * len(b)


# --- detect_ap ------------------------------------------------------------------


def test_detect_ap_examples():
    assert detect_ap((1, 3, 5, 7)) == (1, 2)
    assert detect_ap((0, 1, 4)) is None
    assert detect_ap((7,)) == (7, 0)
    assert detect_ap((4, 9)) == (4, 5)


def test_detect_ap_round_trips_constructed_progressions():
    for first in range(0, 8):
        for diff in range(1, 7):
            for length in range(2, 9):
                assert detect_ap(ap_set(first, diff, length)) == (first, diff)


# --- size law for shared differences ----------------------------------------------


def test_ap_sumset_size_against_enumeration():
    rng = random.Random(7)
    for _ in range(300):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        d = rng.randint(1, 10)
        a = ap_set(rng.randint(0, 50), d, m)
        b = ap_set(rng.randint(0, 50), d, n)
        assert len(sumset(a, b)) == m + n - 1


# --- minimal growth forces matching progressions -----------------------------------


def test_freiman_converse_examples():
    assert check_freiman_converse((2, 5, 8), (1, 4)) is True
    assert check_freiman_converse((0, 1), (0, 2)) is True  # premise fails, vacuous
    assert check_freiman_converse((0, 3, 6), (0, 3)) is True
    with pytest.raises(ValueError):
        check_freiman_converse((1,), (0, 1))


def test_freiman_converse_small_exhaustive():
    # smoke slice; the full {0..8}, sizes 2..5 sweep runs in the acceptance suite
    universe = range(7)
    for ka in (2, 3):
        for a in combinations(universe, ka):
            for kb in (2, 3):
                for b in combinations(universe, kb):
                    assert check_freiman_converse(a, b)


@settings(max_examples=200)
@given(
    st.integers(0, 40), st.integers(0, 40),
    st.integers(1, 8), st.integers(1, 8),
    st.integers(2, 6), st.integers(2, 6),
)
def test_unequal_diffs_never_hit_minimal_size(a0, b0, da, db, m, n):
    # contrapositive of the converse lemma: distinct differences force growth
    if da == db:
        return
    a, b = ap_set(a0, da, m), ap_set(b0, db, n)
    assert len(sumset(a, b)) > m + n - 1
