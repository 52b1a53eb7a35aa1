"""Greedy partitioning of circle sets with provable minimum-size guarantees.

A circle set is a multiset of positive areas kept sorted in descending order.
`split` targets a 1:1 area ratio; `weighted_split` targets the ratio given by
a split key (f1, f2). Both take a group as two plain sequences, its areas and
their input positions, and return each bucket's lists and sum, so a split
builds no objects beyond those lists. Whenever a bucket overshoots its target
share, every circle in it is at least as large as the overshoot, which is
what the packer rounds its hats by.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidParameterError


@dataclass(frozen=True)
class CircleSet:
    """Multiset of positive circle areas, sorted descending.

    ``indices`` tracks each area's position in the original input so equal
    areas stay distinguishable (stable order). Build instances through
    :meth:`from_areas`; the raw constructor trusts its arguments.
    """

    areas: tuple[float, ...]
    indices: tuple[int, ...]

    @classmethod
    def from_areas(cls, areas: Iterable[float]) -> "CircleSet":
        values = [float(a) for a in areas]
        for a in values:
            if not (math.isfinite(a) and a > 0.0):
                raise InvalidParameterError(f"circle areas must be positive, got {a!r}")
        # descending and stable: reverse=True keeps equal areas in input order
        order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
        return cls(tuple([values[i] for i in order]), tuple(order))

    def __len__(self) -> int:
        return len(self.areas)


def split(areas: Sequence[float], indices: Sequence[int]) -> tuple:
    """Greedy halving of a descending-sorted group, lighter group first.

    This is :func:`weighted_split` with the unit key: each circle joins the
    bucket with the smaller running sum (ties go to the first bucket).
    Afterwards the buckets are swapped if needed so the lighter one comes
    first. The second group of the returned
    ``(areas1, indices1, sum1, areas2, indices2, sum2)`` satisfies
    min(areas2) >= sum2 - sum1.
    """
    areas1, indices1, sum1, areas2, indices2, sum2 = weighted_split(areas, indices, 1.0, 1.0)
    if sum1 > sum2:
        return areas2, indices2, sum2, areas1, indices1, sum1
    return areas1, indices1, sum1, areas2, indices2, sum2


def weighted_split(areas: Sequence[float], indices: Sequence[int], f1: float, f2: float) -> tuple:
    """Greedy split of a descending-sorted group targeting the area ratio f1:f2.

    ``areas`` and ``indices`` are the group's areas and their input
    positions. Each circle joins the bucket with the smaller relative filling
    level sum_i / f_i, ties to the first bucket; no final swap. Returns
    ``(areas1, indices1, sum1, areas2, indices2, sum2)``: each bucket's areas
    and indices as lists in the group's order, and its left-to-right sum.
    Both buckets satisfy min(areas_i) >= sum_i - f_i * sum_j / f_j.
    """
    if not (f1 > 0.0 and f2 > 0.0):
        raise InvalidParameterError(f"split key components must be positive, got {(f1, f2)!r}")
    sum1 = sum2 = level1 = level2 = 0.0
    areas1: list[float] = []
    indices1: list[int] = []
    areas2: list[float] = []
    indices2: list[int] = []
    for area, index in zip(areas, indices):
        if level1 <= level2:
            areas1.append(area)
            indices1.append(index)
            sum1 += area
            level1 = sum1 / f1
        else:
            areas2.append(area)
            indices2.append(index)
            sum2 += area
            level2 = sum2 / f2
    return areas1, indices1, sum1, areas2, indices2, sum2
