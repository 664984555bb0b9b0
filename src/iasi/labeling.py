"""Vertex set-labels and the edge labels they induce.

A labeling maps vertex ids to IntSets.  Edge labels are never stored:
``edge_label`` computes the sumset f(u) + f(v) on demand, so a labeling
can never drift out of sync with itself.  The paper's deterministic
indices and ratios are read off the labels by ``verify.classify``; a
label that is not a progression of at least 3 elements is reported
there as ``vertex_arithmetic=False``, never raised.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from .sets import IntSet, as_intset, sumset


class MissingLabelError(Exception):
    """A vertex the operation needs carries no label."""


@dataclass(frozen=True)
class Labeling:
    """Immutable assignment of IntSets to vertex ids, from any mapping of ids to int iterables."""

    assignment: Mapping[int, IntSet]

    def __post_init__(self) -> None:
        if not isinstance(self.assignment, Mapping):
            raise ValueError(
                "a labeling needs a mapping of vertex ids to labels, got "
                + type(self.assignment).__name__
            )
        fixed: dict[int, IntSet] = {}
        for v, s in self.assignment.items():
            if type(v) is not int or v < 0:
                raise ValueError(f"vertex ids must be non-negative integers, got {v!r}")
            try:
                fixed[v] = as_intset(s)
            except (TypeError, ValueError) as exc:  # TypeError: s is not iterable
                raise ValueError(f"label of vertex {v}: {exc}") from None
        object.__setattr__(self, "assignment", dict(sorted(fixed.items())))

    @classmethod
    def _from_sorted(cls, assignment: dict[int, IntSet]) -> "Labeling":
        """Wrap a dict of non-negative int ids, in ascending order, to IntSets."""
        lab = object.__new__(cls)
        object.__setattr__(lab, "assignment", assignment)
        return lab

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

def edge_label(lab: Labeling, u: int, v: int) -> IntSet:
    """The induced label of edge uv: the sumset of the endpoint labels."""
    if u == v:
        raise ValueError("edges join distinct vertices")
    return sumset(lab.label(u), lab.label(v))
