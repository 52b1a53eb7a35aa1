"""Greedy partitioning of circle sets with provable minimum-size guarantees.

A circle set is a multiset of positive areas kept sorted in descending order.
`split` targets a 1:1 area ratio; `weighted_split` targets the ratio given by
a split key (f1, f2). Whenever a bucket overshoots its target share, every
circle in it is at least as large as the overshoot, which is what
`min_guarantee` quantifies.
"""

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidParameterError


@dataclass(frozen=True)
class CircleSet:
    """Multiset of positive circle areas, sorted descending.

    ``indices`` tracks each area's position in the original input so equal
    areas stay distinguishable (stable order). ``combined`` is the running sum
    over the sorted order and ``minimum`` the smallest element (+inf when
    empty). Build instances through :meth:`from_areas`; the raw constructor
    trusts its arguments.
    """

    areas: tuple[float, ...]
    indices: tuple[int, ...]
    combined: float
    minimum: float

    @classmethod
    def from_areas(cls, areas: Iterable[float]) -> "CircleSet":
        values = [float(a) for a in areas]
        for a in values:
            if not (math.isfinite(a) and a > 0.0):
                raise InvalidParameterError(f"circle areas must be positive, got {a!r}")
        # descending and stable: reverse=True keeps equal areas in input order
        order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
        ordered = [values[i] for i in order]
        combined = 0.0
        for a in ordered:  # left to right: builtin sum() compensates floats from Python 3.12
            combined += a
        return cls(
            areas=tuple(ordered),
            indices=tuple(order),
            combined=combined,
            minimum=ordered[-1] if ordered else math.inf,
        )

    @classmethod
    def _presorted(cls, areas: list, indices: list, combined: float) -> "CircleSet":
        # filled through the instance dict: the frozen constructor's four
        # object.__setattr__ calls would run twice per split
        new = object.__new__(cls)
        fields = new.__dict__
        fields["areas"] = tuple(areas)
        fields["indices"] = tuple(indices)
        fields["combined"] = combined
        fields["minimum"] = areas[-1] if areas else math.inf
        return new

    def __len__(self) -> int:
        return len(self.areas)


def split(circles: CircleSet) -> tuple[CircleSet, CircleSet]:
    """Greedy halving of a descending-sorted circle set.

    This is :func:`weighted_split` with the unit key: each circle joins the
    bucket with the smaller running sum (ties go to the first bucket).
    Afterwards the buckets are swapped if needed so the lighter one comes
    first. The returned pair satisfies
    min(C2) >= combined(C2) - combined(C1).
    """
    first, second = weighted_split(circles, (1.0, 1.0))
    if first.combined > second.combined:
        return second, first
    return first, second


def weighted_split(circles: CircleSet, key: tuple[float, float]) -> tuple[CircleSet, CircleSet]:
    """Greedy split targeting the area ratio f1:f2.

    Each circle joins the bucket with the smaller relative filling level
    sum_i / f_i, ties to the first bucket; no final swap. Both outputs satisfy
    min(C_i) >= combined(C_i) - f_i * combined(C_j) / f_j. ``key`` is the
    (f1, f2) pair.
    """
    f1, f2 = float(key[0]), float(key[1])
    if not (f1 > 0.0 and f2 > 0.0):
        raise InvalidParameterError(f"split key components must be positive, got {key!r}")
    sum1 = sum2 = 0.0
    areas1: list[float] = []
    idx1: list[int] = []
    areas2: list[float] = []
    idx2: list[int] = []
    for area, idx in zip(circles.areas, circles.indices):
        if sum1 / f1 <= sum2 / f2:
            areas1.append(area)
            idx1.append(idx)
            sum1 += area
        else:
            areas2.append(area)
            idx2.append(idx)
            sum2 += area
    return (
        CircleSet._presorted(areas1, idx1, sum1),
        CircleSet._presorted(areas2, idx2, sum2),
    )


def min_guarantee(sum_i: float, sum_j: float, f_i: float, f_j: float, b: float = 0.0) -> float:
    """Guaranteed minimum circle size in bucket i, usable as its rounding.

    Returns max(b, sum_i - f_i * sum_j / f_j, 0): the weighted-split bound for
    bucket i against bucket j, clamped to the inherited minimum size b and to
    zero (the bound may be negative when bucket i undershot its target).
    """
    if not (f_i > 0.0 and f_j > 0.0):
        raise InvalidParameterError("split key components must be positive")
    if sum_i < 0.0 or sum_j < 0.0:
        raise InvalidParameterError("combined areas must be non-negative")
    return max(b, sum_i - f_i * sum_j / f_j, 0.0)
