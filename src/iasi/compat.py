"""Compatibility classes of a label pair and closed-form predictions.

Fix an edge uv.  Ordered pairs (a, b) in f(u) x f(v) fall into one
class per distinct sum a + b, so the class count equals the edge label
cardinality and no class can exceed min(|f(u)|, |f(v)|) members.  A
class hitting that cap is saturated; the largest classes present are
the maximal ones.

``compat_partition`` is the pair-listing view: it groups every
ordered pair under its sum.  Closed-form counts for structured label
pairs are exposed as predictions and checked by ``audit``, which needs
only how many pairs share each sum.  That count is the coefficient of
z^s in A(z)B(z), the product of the indicator polynomials of the two
labels.  The audit's witness labels are progressions, so each packed
indicator is one byte pattern repeated, a 1 and then zeros, built by
one bytes repeat: no set is materialised, and one big-int product of
the two gives every class size exactly.  That product, not
any closed form for the sizes, is the observation the predictions are
checked against.  The audit trusts it: a failed prediction is reported
as a mismatch, never raised, so a sweep always classifies its whole
grid.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from typing import Optional

from .sets import IntSet, Ints, _require_ints, as_intset


@dataclass(frozen=True)
class ClassProfile:
    """Full enumeration of the compatibility classes of one label pair."""

    classes: Mapping[int, tuple[tuple[int, int], ...]]  # sum -> ordered pairs
    pair_count: int
    class_count: int
    saturated_size: int  # the cap min(|A|, |B|)
    saturated_count: int
    max_size: int
    max_count: int
    size_histogram: Mapping[int, int]  # class size -> how many classes


def _observe(histogram: Mapping[int, int], cap: int) -> dict[str, object]:
    """A class-size histogram and the five counts read off it; ``cap`` is min(|A|, |B|)."""
    top = max(histogram)
    return {
        "histogram": histogram,
        "class_count": sum(histogram.values()),
        "saturated_size": cap,
        "saturated_count": histogram.get(cap, 0),
        "max_size": top,
        "max_count": histogram[top],
    }


def compat_partition(a: IntSet | Ints, b: IntSet | Ints) -> ClassProfile:
    """Group the ordered pairs of a x b by their sum."""
    sa, sb = as_intset(a), as_intset(b)
    classes: dict[int, list[tuple[int, int]]] = {}
    for x in sa:
        for y in sb:
            classes.setdefault(x + y, []).append((x, y))
    fixed = {s: tuple(sorted(classes[s])) for s in sorted(classes)}
    observed = _observe(dict(sorted(Counter(map(len, fixed.values())).items())),
                        min(len(sa), len(sb)))
    return ClassProfile(
        fixed, len(sa) * len(sb), size_histogram=observed.pop("histogram"), **observed
    )


def _packed_indicator(length: int, step: int, bits: int) -> int:
    """The indicator polynomial of AP(0, step, length) at z = 2^bits.

    That is the sum of z^(step*i) for i < length.  ``bits`` is a whole
    number of bytes, so the integer's little-endian bytes are one
    coefficient pattern repeated length times: a byte 1 and then zeros,
    step*bits/8 bytes in all.
    """
    return int.from_bytes(b"\x01".ljust(step * bits // 8, b"\0") * length, "little")


def _class_histogram(m: int, n: int, k: int) -> dict[int, int]:
    """Class size -> number of classes of AP(0, 1, m) x AP(0, k, n).

    The class of sum s has as many members as the coefficient of z^s in
    A(z)B(z), where A and B are the indicator polynomials of the two
    progressions.  Each polynomial is packed into one integer, w bytes
    per coefficient (Kronecker substitution, z = X = 2^(8w)), and one
    big-int product yields all coefficients.  No coefficient exceeds
    min(m, n), so w bytes hold it and no carry reaches the next one.
    Each nonzero coefficient is one class, so counting sizes upward from
    1 finds every class and stops at the largest, once the counts add up
    to the nonzero coefficients.

    The packed indicators are A(X) = 1 + X + ... + X^(m-1) and
    B(X) = 1 + X^k + ... + X^(k(n-1)), so each is one coefficient
    pattern repeated as bytes; the product and its byte count stay the
    observation the predictions are checked against.  The audit's
    canonical pair AP(0, d, m), AP(0, kd, n) shifted to 0 and divided by
    its gcd d is this pair, so d changes no count: that is why the audit
    takes no difference.

    The product has m + k(n - 1) coefficients, and every predictor
    rejects k > m before the audit counts, so that is at most m*n: the
    product is never larger than the pair list it replaces.
    """
    w = (min(m, n).bit_length() + 7) // 8
    product = _packed_indicator(m, 1, 8 * w) * _packed_indicator(n, k, 8 * w)
    length = m + k * (n - 1)
    coeffs = product.to_bytes(w * length, "little")
    if w == 1:  # at most 255 sizes, each counted by one scan of the bytes
        count = coeffs.count
    else:  # a scan per size would be quadratic here, so tally once
        count = Counter(
            int.from_bytes(coeffs[i : i + w], "little") for i in range(0, len(coeffs), w)
        ).__getitem__
    histogram: dict[int, int] = {}
    left = length - count(0)  # classes not yet counted
    size = 0
    while left:
        size += 1
        if c := count(size):
            histogram[size] = c
            left -= c
    return histogram


@dataclass(frozen=True)
class Prediction:
    """A closed-form claim about the profile of a structured label pair."""

    theorem: str
    params: Mapping[str, int]
    expected: Mapping[str, object]


@dataclass(frozen=True)
class AuditRecord:
    prediction: Prediction
    observed: Optional[Mapping[str, object]]  # the histogram and its five counts
    verdict: str  # "match" | "mismatch" | "skipped"
    detail: tuple[str, ...]  # the skip reason, or one line per differing field


def predict_iso(m: int, n: int) -> Prediction:
    """Class counts when both labels share one common difference.

    Arguments normalize to m >= n.  The claim: saturated classes number
    m - n + 1, every size below the cap occurs in exactly two classes.
    """
    if type(m) is not int or type(n) is not int:
        _require_ints(m=m, n=n)
    if m < n:
        m, n = n, m
    if n < 3:
        raise ValueError("label sizes must be at least 3")
    histogram = dict.fromkeys(range(1, n), 2)
    histogram[n] = m - n + 1
    return Prediction(
        theorem="T-NCC",
        params={"m": m, "n": n},
        expected={
            "saturated_size": n,
            "saturated_count": m - n + 1,
            "histogram": histogram,
        },
    )


def _check_bi(m: int, n: int, k: int) -> None:
    """The rules both biarithmetic predictors share: ints, sizes >= 3, 2 <= k <= m."""
    if type(m) is not int or type(n) is not int or type(k) is not int:
        _require_ints(m=m, n=n, k=k)
    if n < 3 or m < 3:
        raise ValueError("label sizes must be at least 3")
    if k < 2:
        raise ValueError("ratio must be at least 2")
    if k > m:
        raise ValueError("ratio cannot exceed the smaller-index label size")


def predict_bi_saturated(m: int, n: int, k: int) -> Prediction:
    """Saturated class counts when the differences differ by factor k.

    m is the size at the smaller-index endpoint, n at the other, and
    the claim needs m >= (n-1)k: writing m = (n-1)k + r, exactly r
    classes saturate at n members and every smaller size occurs in
    exactly 2k classes.  r = 0 is allowed and predicts no saturated
    class.
    """
    _check_bi(m, n, k)
    r = m - (n - 1) * k
    if r < 0:
        raise ValueError("saturated regime needs m >= (n-1)k")
    histogram = dict.fromkeys(range(1, n), 2 * k)
    if r > 0:
        histogram[n] = r
    return Prediction(
        theorem="T-NSC-II",
        params={"m": m, "n": n, "k": k, "r": r},
        expected={
            "saturated_size": n,
            "saturated_count": r,
            "histogram": histogram,
        },
    )


def predict_bi_maximal(m: int, n: int, k: int) -> Prediction:
    """Maximal class counts in the short regime m = pk + q, p <= n - 1.

    q = 0 claims (n - p + 1)k maximal classes of p members; q > 0
    claims (n - p - 1)k + q maximal classes of p + 1 members.
    """
    _check_bi(m, n, k)
    p, q = divmod(m, k)
    if p > n - 1:
        raise ValueError("short regime needs m/k at most n-1")
    size, count = (p, (n - p + 1) * k) if q == 0 else (p + 1, (n - p - 1) * k + q)
    return Prediction(
        theorem="T-NMCC-II-q0" if q == 0 else "T-NMCC-II-qpos",
        params={"m": m, "n": n, "k": k, "p": p, "q": q},
        expected={"max_size": size, "max_count": count},
    )


def predict_edge_sin(m: int, n: int, k: int) -> int:
    """Edge label cardinality m + k(n - 1) for ratio k with 1 <= k <= m."""
    if type(m) is not int or type(n) is not int or type(k) is not int:
        _require_ints(m=m, n=n, k=k)
    if m < 1 or n < 1:
        raise ValueError("sizes must be positive")
    if not 1 <= k <= m:
        raise ValueError("ratio must satisfy 1 <= k <= m")
    return m + k * (n - 1)


def _edge_sin_prediction(m: int, n: int, k: int) -> Prediction:
    count = predict_edge_sin(m, n, k)
    if n < 3 or m < 3:
        raise ValueError("label sizes must be at least 3")
    return Prediction(
        theorem="EDGE-SIN-ISO" if k == 1 else "EDGE-SIN-BI",
        params={"m": m, "n": n, "k": k},
        expected={"class_count": count},
    )


GridPoint = tuple[int, ...]


_POINT_NAMES = ("m", "n", "k")


def _slice(
    predict: Callable[..., Prediction], theorem: str, reason: str
) -> Callable[..., Prediction]:
    """``predict`` restricted to the points it files under ``theorem``."""

    def sliced(*point: int) -> Prediction:
        pred = predict(*point)
        if pred.theorem != theorem:
            raise ValueError(reason)
        return pred

    return sliced


# every audit id in upper case, in the order the CLI lists them: how many
# members its points have, and the predictor they are passed to
AUDITS: dict[str, tuple[int, Callable[..., Prediction]]] = {
    "T-NCC": (2, predict_iso),
    "T-NSC-II": (3, predict_bi_saturated),
    "T-NMCC-II": (3, predict_bi_maximal),
    "T-NMCC-II-Q0": (
        3, _slice(predict_bi_maximal, "T-NMCC-II-q0", "point falls in the q > 0 slice")
    ),
    "T-NMCC-II-QPOS": (
        3, _slice(predict_bi_maximal, "T-NMCC-II-qpos", "point falls in the q = 0 slice")
    ),
    "EDGE-SIN": (3, _edge_sin_prediction),
    "EDGE-SIN-ISO": (3, _slice(_edge_sin_prediction, "EDGE-SIN-ISO", "iso slice needs k = 1")),
    "EDGE-SIN-BI": (3, _slice(_edge_sin_prediction, "EDGE-SIN-BI", "bi slice needs k >= 2")),
}


def _predict(theorem: str, point: GridPoint) -> Prediction:
    if not isinstance(point, tuple):
        raise ValueError(f"a point is a tuple of integers, got {point!r}")
    t = theorem.upper() if isinstance(theorem, str) else None
    if t not in AUDITS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    count, predict = AUDITS[t]
    if len(point) != count:
        names = ", ".join(_POINT_NAMES[:count])
        plural = "" if len(point) == 1 else "s"
        raise ValueError(f"{t} points are ({names}), got {len(point)} member{plural}")
    return predict(*point)


def audit_point(theorem: str, point: GridPoint) -> AuditRecord:
    """Predict, count the classes of the canonical pair, compare."""
    if type(point) is not tuple and isinstance(point, Iterable):
        point = tuple(point)
    try:
        pred = _predict(theorem, point)
    except ValueError as exc:
        # a point with too many members is skipped; its reason gives the count
        params = dict(zip(_POINT_NAMES, point)) if isinstance(point, tuple) else {}
        pseudo = Prediction(str(theorem).upper(), params, {})
        return AuditRecord(pseudo, None, "skipped", (str(exc),))
    m, n, k = pred.params["m"], pred.params["n"], pred.params.get("k", 1)
    observed = _observe(_class_histogram(m, n, k), min(m, n))
    detail: tuple[str, ...] = ()
    for key, want in pred.expected.items():
        if observed[key] != want:
            detail += (f"{key}: predicted {want!r}, observed {observed[key]!r} <-- differs",)
    return AuditRecord(pred, observed, "mismatch" if detail else "match", detail)


def audit(theorem: str, grid: Iterable[GridPoint]) -> list[AuditRecord]:
    """Sweep a parameter grid; every point gets exactly one record."""
    return [audit_point(theorem, p) for p in grid]
