"""Vertex set-labels and the edge labels they induce.

A labeling maps vertex ids to IntSets.  Edge labels are never stored:
the label of an edge uv is the sumset f(u) + f(v), computed on demand,
so a labeling can never drift out of sync with itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple

from .sets import IntSet, Ints, as_intset, detect_ap, sumset


class MissingLabelError(Exception):
    """A vertex the operation needs carries no label."""


class NotArithmeticError(Exception):
    """A label is not an arithmetic progression of at least 3 elements."""


class UndefinedIndexError(Exception):
    """Singleton labels have no usable common difference."""


@dataclass(frozen=True)
class Labeling:
    """Immutable assignment of IntSets to vertex ids."""

    assignment: Mapping[int, IntSet]

    def __post_init__(self) -> None:
        fixed: dict[int, IntSet] = {}
        for v, s in self.assignment.items():
            if type(v) is not int or v < 0:
                raise ValueError(f"vertex ids must be non-negative integers, got {v!r}")
            fixed[v] = as_intset(s)
        object.__setattr__(self, "assignment", dict(sorted(fixed.items())))

    def label(self, v: int) -> IntSet:
        try:
            return self.assignment[v]
        except KeyError:
            raise MissingLabelError(f"vertex {v} has no label") from None

    def vertices(self) -> tuple[int, ...]:
        return tuple(self.assignment)

    def __len__(self) -> int:
        return len(self.assignment)

    def __iter__(self) -> Iterator[int]:
        return iter(self.assignment)

    def __contains__(self, v: object) -> bool:
        return v in self.assignment

    def restrict(self, vertices: Ints) -> "Labeling":
        """Restriction to a vertex subset, renumbered by sorted position.

        Mirrors ``graphs.induced_subgraph`` so the pair stays aligned.
        """
        keep = sorted(set(vertices))
        return Labeling({i: self.label(v) for i, v in enumerate(keep)})


def make_labeling(mapping: Mapping[int, IntSet | Ints]) -> Labeling:
    return Labeling(dict(mapping))


def edge_label(lab: Labeling, u: int, v: int) -> IntSet:
    """The induced label of edge uv: the sumset of the endpoint labels."""
    if u == v:
        raise ValueError("edges join distinct vertices")
    return sumset(lab.label(u), lab.label(v))


def set_indexing_number(s: IntSet | Ints) -> int:
    """Cardinality of a label, vertex or edge alike."""
    return len(as_intset(s))


def deterministic_index(lab: Labeling, v: int) -> int:
    """Common difference of the label at v.

    Raises UndefinedIndexError for singletons and NotArithmeticError
    when the label is not a progression.
    """
    s = lab.label(v)
    if len(s) == 1:
        raise UndefinedIndexError(f"vertex {v} has a singleton label")
    ap = detect_ap(s)
    if ap is None:
        raise NotArithmeticError(f"label of vertex {v} is not an arithmetic progression")
    return ap[1]


class RatioResult(NamedTuple):
    ratio: Fraction
    smaller: tuple[int, ...]  # endpoints holding the smaller index; both on a tie


def deterministic_ratio(lab: Labeling, u: int, v: int) -> RatioResult:
    """Ratio of the larger endpoint index to the smaller, as an exact fraction.

    Always >= 1.  ``smaller`` names the endpoint(s) whose index is the
    smaller one; ties report both.
    """
    du, dv = deterministic_index(lab, u), deterministic_index(lab, v)
    if du == dv:
        return RatioResult(Fraction(1), (u, v))
    if du < dv:
        return RatioResult(Fraction(dv, du), (u,))
    return RatioResult(Fraction(du, dv), (v,))
