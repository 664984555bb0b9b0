"""Compatibility class profiles versus an independent enumeration.

The local oracle below regroups pairs with Counter instead of the
library's dict walk, so the two enumerations share no code.  All frozen
histograms were computed with the oracle first.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from itertools import product

from hypothesis import given, strategies as st

from iasi import (
    AuditRecord,
    IntSet,
    ap_set,
    audit,
    audit_point,
    compat_partition,
    predict_bi_maximal,
    predict_bi_saturated,
    predict_edge_sin,
    predict_iso,
    sumset,
)

import pytest

from conftest import witness_pair


def brute_histogram(a, b) -> dict[int, int]:
    by_sum = Counter(x + y for x, y in product(tuple(a), tuple(b)))
    return dict(sorted(Counter(by_sum.values()).items()))


small_sets = st.frozensets(st.integers(min_value=0, max_value=25), min_size=1, max_size=7)


# --- compat_partition --------------------------------------------------------


def test_partition_shared_difference_example():
    prof = compat_partition(ap_set(0, 1, 5), ap_set(0, 1, 3))
    assert prof.size_histogram == {1: 2, 2: 2, 3: 3}
    assert prof.saturated_size == 3 and prof.saturated_count == 3
    assert prof.max_size == 3 and prof.max_count == 3
    assert prof.pair_count == 15 and prof.class_count == 7


def test_partition_classes_list_their_pairs():
    prof = compat_partition((0, 1), (0, 2))
    assert dict(prof.classes) == {
        0: ((0, 0),),
        1: ((1, 0),),
        2: ((0, 2),),
        3: ((1, 2),),
    }


def test_partition_ratio_two_example():
    prof = compat_partition(ap_set(0, 1, 7), ap_set(0, 2, 3))
    assert prof.size_histogram == {1: 4, 2: 4, 3: 3}


@given(small_sets, small_sets)
def test_partition_invariants(xs, ys):
    a, b = IntSet(tuple(xs)), IntSet(tuple(ys))
    prof = compat_partition(a, b)
    assert prof.pair_count == len(a) * len(b)
    assert prof.class_count == len(sumset(a, b))
    assert sum(len(v) for v in prof.classes.values()) == prof.pair_count
    assert prof.max_size <= prof.saturated_size == min(len(a), len(b))
    assert sum(s * c for s, c in prof.size_histogram.items()) == prof.pair_count
    assert prof.size_histogram == brute_histogram(a, b)
    for total, pairs in prof.classes.items():
        assert all(x + y == total for x, y in pairs)


@given(small_sets, small_sets, st.integers(min_value=0, max_value=9))
def test_partition_histogram_translation_invariant(xs, ys, t):
    a, b = IntSet(tuple(xs)), IntSet(tuple(ys))
    shifted = compat_partition([x + t for x in a], b)
    assert shifted.size_histogram == compat_partition(a, b).size_histogram


@given(small_sets, small_sets)
def test_partition_histogram_symmetric(xs, ys):
    a, b = IntSet(tuple(xs)), IntSet(tuple(ys))
    assert compat_partition(a, b).size_histogram == compat_partition(b, a).size_histogram


# --- closed-form predictions ----------------------------------------------------


def test_predict_iso_normalizes_and_counts():
    pred = predict_iso(3, 5)
    assert pred.params == {"m": 5, "n": 3}
    assert pred.expected["saturated_count"] == 3
    assert pred.expected["histogram"] == {1: 2, 2: 2, 3: 3}
    with pytest.raises(ValueError):
        predict_iso(5, 2)


def test_predict_bi_saturated_counts():
    pred = predict_bi_saturated(7, 3, 2)
    assert pred.params["r"] == 3
    assert pred.expected["histogram"] == {1: 4, 2: 4, 3: 3}
    pred = predict_bi_saturated(9, 3, 4)
    assert pred.expected["histogram"] == {1: 8, 2: 8, 3: 1}
    pred = predict_bi_saturated(4, 3, 2)  # r = 0: no saturated class
    assert pred.expected["saturated_count"] == 0
    assert pred.expected["histogram"] == {1: 4, 2: 4}


def test_predict_bi_saturated_rejects_out_of_regime():
    with pytest.raises(ValueError):
        predict_bi_saturated(5, 3, 1)
    with pytest.raises(ValueError):
        predict_bi_saturated(3, 3, 4)  # k > m
    with pytest.raises(ValueError):
        predict_bi_saturated(3, 4, 2)  # m < (n-1)k


def test_predict_bi_maximal_slices():
    pred = predict_bi_maximal(6, 4, 2)
    assert pred.theorem == "T-NMCC-II-q0"
    assert pred.expected == {"max_size": 3, "max_count": 4}
    pred = predict_bi_maximal(5, 4, 2)
    assert pred.theorem == "T-NMCC-II-qpos"
    assert pred.expected == {"max_size": 3, "max_count": 3}
    with pytest.raises(ValueError):
        predict_bi_maximal(9, 3, 2)  # p = 4 over n - 1


@pytest.mark.parametrize(
    "predict, args, reason",
    [
        (predict_iso, (3.5, 3), "m must be an integer, got 3.5"),
        (predict_iso, (5, 3.0), "n must be an integer, got 3.0"),
        (predict_bi_saturated, (7, 3, 2.0), "k must be an integer, got 2.0"),
        (predict_bi_saturated, (True, 3, 2), "m must be an integer, got True"),
        (predict_bi_maximal, (5, 4, True), "k must be an integer, got True"),
        (predict_bi_maximal, ("5", 4, 2), "m must be an integer, got '5'"),
        (predict_edge_sin, (True, 3, 1), "m must be an integer, got True"),
        (predict_edge_sin, (5, 3, 1.0), "k must be an integer, got 1.0"),
    ],
)
def test_predictors_require_exact_ints(predict, args, reason):
    # a float or bool member used to give a fractional or vacuous claim
    with pytest.raises(ValueError) as exc:
        predict(*args)
    assert str(exc.value) == reason


def test_predict_edge_sin_values():
    assert predict_edge_sin(5, 3, 1) == 7
    assert predict_edge_sin(5, 3, 2) == 9
    assert predict_edge_sin(3, 4, 3) == 12
    with pytest.raises(ValueError):
        predict_edge_sin(3, 4, 4)
    with pytest.raises(ValueError):
        predict_edge_sin(3, 4, 0)
    with pytest.raises(ValueError, match="^sizes must be positive$"):
        predict_edge_sin(0, 3, 1)


def test_predict_edge_sin_matches_enumeration():
    for m in range(3, 11):
        for n in range(3, 11):
            for k in range(1, m + 1):
                a, b = witness_pair(m, n, k)
                assert predict_edge_sin(m, n, k) == len(sumset(a, b))


# --- audits ------------------------------------------------------------------------


def test_audit_point_match():
    rec = audit_point("T-NCC", (5, 3))
    assert rec.verdict == "match"
    assert rec.observed["histogram"] == {1: 2, 2: 2, 3: 3}
    assert rec.detail == ()


def test_audit_point_stays_linear_when_sizes_need_two_bytes():
    # min(m, n) >= 256 packs two bytes per class size; one scan of the
    # coefficients per size would take about 8 * 10**8 steps here
    start = time.perf_counter()
    rec = audit_point("T-NCC", (20000, 20000))
    assert time.perf_counter() - start < 1.0
    assert rec.verdict == "match" and rec.observed["max_count"] == 1


def test_audit_point_mismatch_reports_observed_histogram():
    rec = audit_point("T-NMCC-II", (5, 4, 2))
    assert rec.verdict == "mismatch"
    assert rec.prediction.expected == {"max_size": 3, "max_count": 3}
    assert rec.observed == {
        "histogram": {1: 4, 2: 5, 3: 2},
        "class_count": 11,
        "saturated_size": 4,
        "saturated_count": 0,
        "max_size": 3,
        "max_count": 2,
    }
    assert rec.detail == ("max_count: predicted 3, observed 2 <-- differs",)

    rec = audit_point("T-NMCC-II", (3, 3, 2))
    assert rec.verdict == "mismatch"
    assert rec.observed["histogram"] == {1: 5, 2: 2}


def test_audit_point_skips_out_of_regime():
    rec = audit_point("T-NSC-II", (4, 3, 3))  # m < (n-1)k
    assert rec.verdict == "skipped" and rec.observed is None
    assert rec.prediction.params == {"m": 4, "n": 3, "k": 3}
    rec = audit_point("EDGE-SIN-ISO", (5, 3, 2))
    assert rec.verdict == "skipped"
    rec = audit_point("T-NMCC-II-q0", (5, 4, 2))  # q = 1 point, q0 slice
    assert rec.verdict == "skipped"
    rec = audit_point("NO-SUCH-ID", (3, 3))
    assert rec.verdict == "skipped"


def test_audit_point_skips_members_that_are_not_ints():
    # a float used to reach range() or the witness check and raise there
    cases = [
        ("T-NCC", (3.0, 5), "m must be an integer, got 3.0"),
        ("T-NSC-II", (9, 4.0, 2), "n must be an integer, got 4.0"),
        ("T-NMCC-II", (5, 3, 2.0), "k must be an integer, got 2.0"),
        ("EDGE-SIN", (3.0, 5, 7), "m must be an integer, got 3.0"),
        ("EDGE-SIN", (5, 4, True), "k must be an integer, got True"),
    ]
    for theorem, point, reason in cases:
        rec = audit_point(theorem, point)
        assert rec.verdict == "skipped" and rec.observed is None
        assert rec.detail == (reason,)


@pytest.mark.parametrize("theorem, point", [("T-NCC", (4, 3)), ("T-NMCC-II", (5, 4, 3))])
def test_audit_point_reads_any_iterable_point_as_its_tuple(theorem, point):
    # a tuple takes a fast path; any other iterable is made a tuple first
    want = audit_point(theorem, point)
    keys = ["histogram", "class_count", "saturated_size", "saturated_count", "max_size", "max_count"]
    assert list(want.observed) == keys
    step = point[1] - point[0]
    for other in (list(point), range(point[0], point[-1] + step, step), (x for x in point)):
        got = audit_point(theorem, other)
        assert got == want and list(got.observed) == keys
    for bad in (5, None):
        rec = audit_point(theorem, bad)
        assert rec.verdict == "skipped"
        assert rec.detail == (f"a point is a tuple of integers, got {bad!r}",)


def test_audit_point_skips_points_of_the_wrong_length():
    # a point with more than three members used to raise IndexError
    cases = [
        ("T-NCC", (1, 2, 3, 4), "T-NCC points are (m, n), got 4 members"),
        ("EDGE-SIN", (3, 4, 1, 9), "EDGE-SIN points are (m, n, k), got 4 members"),
        ("T-NSC-II", (9, 4), "T-NSC-II points are (m, n, k), got 2 members"),
        ("t-nmcc-ii-q0", (6,), "T-NMCC-II-Q0 points are (m, n, k), got 1 member"),
        ("T-NCC", (), "T-NCC points are (m, n), got 0 members"),
    ]
    for theorem, point, reason in cases:
        rec = audit_point(theorem, point)
        assert rec.verdict == "skipped" and rec.observed is None
        assert rec.detail == (reason,)
        assert rec.prediction.params == dict(zip("mnk", point))


def test_audit_sweep_covers_grid():
    grid = [(m, n) for m in range(3, 8) for n in range(3, 8)]
    records = audit("T-NCC", grid)
    assert len(records) == len(grid)
    assert all(isinstance(r, AuditRecord) for r in records)
    assert all(r.verdict == "match" for r in records)


def test_audit_saturated_sweep_matches():
    grid = [
        (m, n, k)
        for n in range(3, 7)
        for k in (2, 3)
        for m in range((n - 1) * k, (n - 1) * k + 5)
        if m >= 3
    ]
    records = audit("T-NSC-II", grid)
    assert all(r.verdict == "match" for r in records)


def test_audit_maximal_q0_matches_and_qpos_classifies():
    q0 = [(p * k, n, k) for n in range(3, 7) for k in (2, 3) for p in range(2, n)]
    assert all(r.verdict == "match" for r in audit("T-NMCC-II-q0", q0))
    qpos = [(5, 4, 2), (3, 3, 2), (7, 4, 3)]
    records = audit("T-NMCC-II-qpos", qpos)
    assert all(r.verdict in ("match", "mismatch") for r in records)
    assert any(r.verdict == "mismatch" for r in records)


def test_audit_random_grids_always_classify():
    rng = random.Random(5)
    for theorem in ("T-NCC", "T-NSC-II", "T-NMCC-II", "EDGE-SIN"):
        grid = [
            (rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 6))[: 2 if theorem == "T-NCC" else 3]
            for _ in range(50)
        ]
        records = audit(theorem, grid)
        assert len(records) == 50
        assert all(r.verdict in ("match", "mismatch", "skipped") for r in records)
