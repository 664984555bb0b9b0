"""Exact arithmetic on finite sets of non-negative integers.

Graph vertices are labeled with these sets and edges with pairwise
sumsets, so everything downstream leans on two operations: the sumset
itself and detection of arithmetic-progression structure.  Cardinality
is what the counting results are about, and for equal-difference
progressions it collapses to ``|A| + |B| - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

Ints = Iterable[int]


def _require_ints(**values: object) -> None:
    """Raise ValueError naming the first value that is not exactly an int."""
    for name, value in values.items():
        if type(value) is not int:  # exact type: bool is an int subclass
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class IntSet:
    """A non-empty finite set of non-negative integers, kept sorted.

    Any iterable of ints is accepted; duplicates are dropped and the
    elements stored in increasing order, so equal sets always compare
    and print identically.
    """

    elems: tuple[int, ...]

    def __post_init__(self) -> None:
        elems = tuple(self.elems)
        if not elems:
            raise ValueError("set must be non-empty")
        for x in elems:
            if type(x) is not int:  # exact type: bool is an int subclass
                raise ValueError(f"elements must be integers, got {x!r}")
        elems = tuple(sorted(set(elems)))
        if elems[0] < 0:
            raise ValueError(f"elements must be non-negative, got {elems[0]}")
        object.__setattr__(self, "elems", elems)

    @classmethod
    def _from_sorted(cls, elems: tuple[int, ...]) -> "IntSet":
        """Wrap elements already sorted, distinct, non-negative ints."""
        s = object.__new__(cls)
        object.__setattr__(s, "elems", elems)
        return s

    def __len__(self) -> int:
        return len(self.elems)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elems)

    def __contains__(self, x: object) -> bool:
        return x in self.elems

    def __getitem__(self, i: int) -> int:
        return self.elems[i]

    def __str__(self) -> str:
        return "{" + ",".join(str(x) for x in self.elems) + "}"

    @property
    def max(self) -> int:
        return self.elems[-1]


def as_intset(values: IntSet | Ints) -> IntSet:
    if isinstance(values, IntSet):
        return values
    return IntSet(tuple(values))


def ap_set(first: int, diff: int, length: int) -> IntSet:
    """The progression ``{first, first+diff, ..., first+(length-1)*diff}``.

    Arguments must be exact ints with first >= 0 and diff, length >= 1,
    else ValueError; the terms are then sorted, distinct and non-negative,
    so the IntSet takes them without its own checks.
    """
    if type(first) is not int or type(diff) is not int or type(length) is not int:
        _require_ints(first=first, diff=diff, length=length)
    if first < 0:
        raise ValueError("first term must be non-negative")
    if diff < 1:
        raise ValueError("difference must be positive")
    if length < 1:
        raise ValueError("length must be positive")
    return IntSet._from_sorted(tuple(range(first, first + diff * length, diff)))


def ap_sum(p: tuple[int, int, int], q: tuple[int, int, int]) -> Optional[tuple[int, int, int]]:
    """The sum of two progressions given as ``(first, diff, size)`` triples, or None.

    The sumset of (a, d, m) and (b, kd, n), k an integer with k <= m, is
    the progression (a + b, d, m + k(n - 1)).  Proof sketch: its elements
    are a + b + (i + kj)d for i < m and j < n, and as k <= m each block
    of indices kj .. kj + m - 1 reaches the next one, so the blocks fill
    0 .. (m - 1) + k(n - 1).  None means the rule does not apply, not
    that the sum is no progression: a singleton's difference is arbitrary.
    """
    (a, d, m), (b, e, n) = (p, q) if p[1] <= q[1] else (q, p)
    k, rest = divmod(e, d)
    if rest or k > m:
        return None
    return (a + b, d, m + k * (n - 1))


def sumset(a: IntSet | Ints, b: IntSet | Ints) -> IntSet:
    """All pairwise sums ``x + y`` with ``x`` in ``a`` and ``y`` in ``b``."""
    sa, sb = as_intset(a), as_intset(b)
    return IntSet._from_sorted(tuple(sorted({x + y for x in sa.elems for y in sb.elems})))


def detect_ap(s: IntSet | Ints) -> Optional[tuple[int, int]]:
    """Return ``(first, diff)`` if ``s`` is an arithmetic progression.

    A singleton reports diff 0.  Two-element sets always qualify.  Sets
    with irregular gaps return None.
    """
    # an exact IntSet, as every caller in the package passes, skips the call
    e = (s if type(s) is IntSet else as_intset(s)).elems
    if len(e) == 1:
        return (e[0], 0)
    d = e[1] - e[0]
    # the span test first: the range of a non-progression can be huge
    if e[-1] - e[0] != d * (len(e) - 1):
        return None
    return (e[0], d) if e == tuple(range(e[0], e[-1] + 1, d)) else None


def check_freiman_converse(a: IntSet | Ints, b: IntSet | Ints) -> bool:
    """Check minimal sumset growth forces matching progressions.

    For ``|A|, |B| >= 2``: whenever ``|A+B| = |A| + |B| - 1``, both sets
    must be arithmetic progressions with the same difference.  Returns
    True when that holds for this pair (vacuously when the premise
    fails); sets smaller than 2 are rejected.
    """
    sa, sb = as_intset(a), as_intset(b)
    if len(sa) < 2 or len(sb) < 2:
        raise ValueError("both sets need at least two elements")
    if len(sumset(sa, sb)) != len(sa) + len(sb) - 1:
        return True
    pa, pb = detect_ap(sa), detect_ap(sb)
    return pa is not None and pb is not None and pa[1] == pb[1]
