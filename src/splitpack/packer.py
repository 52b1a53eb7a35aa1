"""Recursive worst-case-optimal packing into squares and non-acute triangles.

The construction subdivides the container into "hats" (corner-rounded
triangles). A square with guaranteed-packable (twincircle) area a is covered
by two right isosceles half-square hats anchored in opposite corners, with
split key (a/2, a/2); the half-square's incircle area equals half the
twincircle area, so this is the same anchored-scaled-half construction used
for general hats. A hat container is split through its apex into two right
altitude halves: each subset of circles gets the matching half scaled about
the shared base vertex by sqrt(subset_area / half_incircle_area) and rounded
by its minimum-size guarantee, never by more than its own smallest circle.
Recursion bottoms out by placing a lone circle concentric with its hat's
incircle.

`pack` builds the first-level hats (the container triangle itself, or the
square's two corner hats) and hands them to one iterative loop, which builds
every further hat and places every circle, directly in world coordinates,
from its shape's constants: at most four right shapes below the container.
The result is one flat record, :class:`Packing`: a column per circle and
hat attribute, and no object per shape.
"""

import math
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import ConjugacyError, InvalidParameterError, OverCapacityError
from .geometry import (
    PHI_SQUARE,
    Circle,
    Point,
    Square,
    Triangle,
    frame,
    packable_area,
    shape_table,
)
from .splitting import CircleSet, split, weighted_split

# Closed capacity bound: instances sitting exactly on the worst case must pass.
FEASIBILITY_REL_SLACK = 1e-12

# The smallest normal float: a container's area and each area in its frame
# must reach it, since below it a double carries fewer digits.
_NORMAL = 2.0**-1022

# Scale factors this close to 1 snap to exactly 1, so self-similar
# power-of-two instances reproduce the exact subdivision.
_SNAP_REL_TOL = 1e-12

# Preconditions of the placement operations are checked with this relative
# slack; the verifier is the actual oracle for the produced geometry.
_PLACEMENT_REL_TOL = 1e-9


class CircleLeaf(NamedTuple):
    """One placed circle and the position of its area in the input."""

    shape: Circle
    input_index: int


@dataclass
class Packing:
    """A packing as one flat record: a column per circle and hat attribute.

    Circle ``k`` has center (``x[k]``, ``y[k]``), radius ``radius[k]`` and
    input position ``input_index[k]``. Hat ``h`` (a subcontainer; the
    container itself is not one) has the counterclockwise vertices
    ``hat_vertices[6h:6h + 6]`` (x0, y0, x1, y1, x2, y2), rounding radius
    ``hat_rounding[h]`` and depth ``hat_depth[h]``, 1 for a child of the
    container. Hats are stored in depth-first preorder, as the packing
    document lists them: a hat's parent is the latest earlier hat one level
    up, and siblings keep their order.
    """

    container: Union[Square, Triangle]
    x: array = field(default_factory=lambda: array("d"))
    y: array = field(default_factory=lambda: array("d"))
    radius: array = field(default_factory=lambda: array("d"))
    input_index: array = field(default_factory=lambda: array("q"))
    hat_vertices: array = field(default_factory=lambda: array("d"))
    hat_rounding: array = field(default_factory=lambda: array("d"))
    hat_depth: array = field(default_factory=lambda: array("q"))

    def circle_leaves(self) -> list[CircleLeaf]:
        """The circles as shape objects, in record order."""
        return [
            CircleLeaf(Circle(Point(x, y), r), k)
            for x, y, r, k in zip(self.x, self.y, self.radius, self.input_index)
        ]


@dataclass(frozen=True)
class PackRequest:
    """A container and the circle areas to pack into it.

    The request is feasible when the combined area does not exceed the
    container's guaranteed-packable area (twincircle area for squares,
    incircle area for triangles): the paper's rule reads only that sum.
    """

    container: Union[Square, Triangle]
    circles: CircleSet


@dataclass
class PackStats:
    """Counters :func:`pack` fills in; pass one as its ``stats`` argument to read them.

    ``split_calls`` and ``element_moves`` count set splits and the circles
    they moved, ``hat_count`` the record's hats. ``max_depth`` is the deepest
    ``hat_depth``, plus 1 for a triangle container, which counts as a level.
    """

    split_calls: int = 0
    element_moves: int = 0
    hat_count: int = 0
    max_depth: int = 0


def _split_step(a1: float, m1: float, a2: float, m2: float, f1: float, f2: float,
                b_min: float, capacity: float) -> tuple[float, float, float, float]:
    """The rounding guarantee and scale factor of each group of a split, as
    ``(b1, t1, b2, t2)``: the one step of the construction, for the square's
    first level and for every hat.

    Group i has the area sum ``a_i`` and the smallest circle ``m_i``;
    ``(f1, f2)`` are the halves' incircle areas (the split key), ``b_min``
    the inherited minimum size (0 or more) and ``capacity`` the packable area
    of what is split. Group i's guarantee is the overshoot bound
    a_i - a_j * (f_i / f_j), which the greedy split guarantees of group i's
    smallest circle (the key's ratio, a shape constant, keeps tiny products
    from underflowing), raised to ``b_min`` and clamped to ``m_i``; its half is
    scaled by sqrt(a_i / f_i), snapped to exactly 1 when a_i lies within
    ``_SNAP_REL_TOL`` of f_i, so self-similar power-of-two instances
    reproduce the exact subdivision. Raises :class:`ConjugacyError` when the
    groups exceed ``capacity`` or a clamp cuts a guarantee, each by more than
    the placement slack.
    """
    tol = _PLACEMENT_REL_TOL * max(capacity, 1e-300)
    if a1 + a2 > capacity + tol:
        raise ConjugacyError(
            f"conjugatedness violation: a1 + a2 = {a1 + a2!r} exceeds packable area {capacity!r}"
        )
    b1 = a1 - a2 * (f1 / f2)
    b2 = a2 - a1 * (f2 / f1)
    b1 = b1 if b1 > b_min else b_min
    b2 = b2 if b2 > b_min else b_min
    # every circle is at least b_min (0 at the first level, and clamped to
    # its group's smallest circle below), so only a clamp of the overshoot
    # bound can fire
    if m1 < b1 - tol or m2 < b2 - tol:
        raise ConjugacyError("conjugatedness violation: rounding below the overshoot bound")
    snap1 = _SNAP_REL_TOL * f1
    snap2 = _SNAP_REL_TOL * f2
    return (m1 if m1 < b1 else b1, 1.0 if -snap1 <= a1 - f1 <= snap1 else math.sqrt(a1 / f1),
            m2 if m2 < b2 else b2, 1.0 if -snap2 <= a2 - f2 <= snap2 else math.sqrt(a2 / f2))


def _pack_into_hats(packing: Packing, shapes: list, stack: list[tuple]) -> tuple[int, int]:
    """Fill each hat (entry as on the stack below) with its non-empty circle
    group, and return the number of set splits and of the circles they moved.

    The only place that splits a hat into subhats and places a circle in a
    hat, by the constants of the hat's entry in ``shapes`` (a shape_table):
    a lone circle goes concentric with its hat's incircle; otherwise the
    triangle is split through its apex into two right altitude halves, the
    group is split against the halves' incircle areas, and each half is
    scaled about its base vertex and rounded as :func:`_split_step` says. A
    hat enters the record when it is popped, rounded by the circle of its
    inherited minimum size but at most by its incircle, so the record's hats
    come out in depth-first preorder. ``stack`` holds the first-level hats,
    the last one to be filled first, and is emptied.
    """
    pi = math.pi
    sqrt = math.sqrt
    lone_limit = 1.0 + _PLACEMENT_REL_TOL
    xs, ys, radii = packing.x, packing.y, packing.radius
    vertices, roundings, depths = packing.hat_vertices, packing.hat_rounding, packing.hat_depth
    split_calls = element_moves = 0
    pop, push = stack.pop, stack.append
    # One flat entry per hat: its base (longest side) ends L and R and apex
    # C, whether it is a left half, inradius, shape index, circle group
    # (areas and indices, descending), inherited min size and record depth;
    # the container triangle has depth 0 and is not recorded. A left half
    # records its vertices as (R, C, L), every other hat as (C, L, R).
    while stack:
        lx, ly, rx, ry, cx, cy, left, r_in, shape, areas, indices, b_min, depth = pop()
        if depth:
            if left:
                vertices.extend((rx, ry, cx, cy, lx, ly))
            else:
                vertices.extend((cx, cy, lx, ly, rx, ry))
            rounding = sqrt(b_min / pi)
            roundings.append(r_in if r_in < rounding else rounding)
            depths.append(depth)

        foot, rho1, rho2, wl, wr, wc, shape1, shape2 = shapes[shape]
        capacity = pi * r_in * r_in
        size = len(areas)
        if size == 1:
            # lone circle: concentric with the hat's incircle
            area = areas[0]
            if area > capacity * lone_limit:
                raise InvalidParameterError(
                    f"circle of area {area!r} exceeds the hat's incircle area {capacity!r}"
                )
            k = indices[0]
            xs[k] = wl * lx + wr * rx + wc * cx
            ys[k] = wl * ly + wr * ry + wc * cy
            radii[k] = sqrt(area / pi)
            continue

        fx = lx + foot * (rx - lx)
        fy = ly + foot * (ry - ly)
        r1 = rho1 * r_in
        r2 = rho2 * r_in
        f1 = pi * r1 * r1
        f2 = pi * r2 * r2
        # one call through the module global per split, which a tracer may wrap
        areas1, indices1, a1, areas2, indices2, a2 = weighted_split(areas, indices, f1, f2)
        split_calls += 1
        element_moves += size
        b1, t1, b2, t2 = _split_step(a1, areas1[-1], a2, areas2[-1], f1, f2, b_min, capacity)
        depth += 1

        # child 2: right half scaled about the right base vertex
        qfx = rx + t2 * (fx - rx)
        qfy = ry + t2 * (fy - ry)
        qcx = rx + t2 * (cx - rx)
        qcy = ry + t2 * (cy - ry)
        push((rx, ry, qcx, qcy, qfx, qfy, False, t2 * r2, shape2, areas2, indices2, b2, depth))
        # child 1, popped first: left half scaled about the left base vertex;
        # its hypotenuse (the next base) runs from the scaled apex back to
        # that vertex
        pfx = lx + t1 * (fx - lx)
        pfy = ly + t1 * (fy - ly)
        pcx = lx + t1 * (cx - lx)
        pcy = ly + t1 * (cy - ly)
        push((pcx, pcy, lx, ly, pfx, pfy, True, t1 * r1, shape1, areas1, indices1, b1, depth))
    return split_calls, element_moves


def _combined_area(areas) -> float:
    """The exactly rounded sum of the areas; inf where it leaves the float range."""
    try:
        return math.fsum(areas)
    except OverflowError:
        return math.inf


def _admit(request: PackRequest) -> tuple[int, Union[Square, Triangle], list[float], float, float]:
    """Admit a request by the paper's rule: (k, its container scaled by 2**k
    (:func:`geometry.frame`), its areas scaled by 4**k, its packable area in
    that frame, and the combined area over the packable area).

    Refuses what a double cannot carry with :class:`InvalidParameterError`: a
    container whose area, or packable area in the frame, is not a positive
    normal float, and an area not one in the frame. Then refuses, with
    :class:`OverCapacityError` carrying the ratio, where the area bound does
    not guarantee a packing: the rule reads only the sum of the areas, exactly
    rounded, so it does not depend on their order, and a sum past the float
    range is over capacity. :func:`pack` refuses exactly the requests this
    raises for, and :func:`splitpack.documents.decide` answers "unknown" for
    them.
    """
    k, container = frame(request.container)
    capacity = packable_area(container)
    area = request.container.area
    if not (_NORMAL <= area < math.inf and capacity >= _NORMAL):
        raise InvalidParameterError(
            f"the container's area {area!r}, or its packable area, is not a positive normal float")
    given = request.circles.areas
    try:
        areas = [math.ldexp(a, 2 * k) for a in given]
    except OverflowError:
        raise InvalidParameterError(
            f"the circle areas overflow in the container's frame, times 2**{2 * k}") from None
    for a, scaled in zip(given, areas):
        if not _NORMAL <= scaled < math.inf:
            raise InvalidParameterError(
                f"circle areas must be positive normal floats in the container's frame, got {a!r}")
    total = _combined_area(areas)
    ratio = total / capacity
    if total > capacity * (1.0 + FEASIBILITY_REL_SLACK):
        raise OverCapacityError(
            f"over-capacity: combined area {_combined_area(given)!r} exceeds the "
            f"guaranteed packable area {math.ldexp(capacity, -2 * k)!r} (ratio {ratio!r})",
            ratio=ratio,
        )
    return k, container, areas, capacity, ratio


def pack(request: PackRequest, stats: Optional[PackStats] = None) -> Packing:
    """Pack the requested circle set into a flat :class:`Packing` record.

    Every input area gets a circle of radius sqrt(area / pi), recorded at its
    input index and placed without overlap inside the container (checkable
    with :func:`splitpack.verifier.verify`); the record also holds the
    subdivision's hats. Counters are added to ``stats`` when given. It packs
    in the container's frame (:func:`_admit`) and scales lengths back.
    """
    k, container, areas, capacity, _ratio = _admit(request)
    n = len(areas)
    packing = Packing(
        request.container,
        x=array("d", bytes(8 * n)),
        y=array("d", bytes(8 * n)),
        radius=array("d", bytes(8 * n)),
        input_index=array("q", range(n)),
    )
    if n == 0:
        return packing

    shapes, hats = None, []
    split_calls = element_moves = 0
    if isinstance(container, Square) and n == 1:
        # Degenerate corner-anchored hat: the circle ends up tangent to
        # the two sides meeting at the far corner.
        r = math.sqrt(areas[0] / math.pi)
        packing.x[0] = packing.y[0] = container.side - r
        packing.radius[0] = r
    elif isinstance(container, Square):
        s = container.side
        areas1, indices1, a1, areas2, indices2, a2 = split(areas, request.circles.indices)
        split_calls, element_moves = 1, n
        # The half-square's incircle area is half the twincircle area, so the
        # square splits like a hat with key (f, f).
        f = capacity / 2.0
        b1, t1, b2, t2 = _split_step(a1, areas1[-1], a2, areas2[-1], f, f, 0.0, capacity)
        # Group 1's hat is the half-square with its right angle at (0, 0),
        # group 2's the one at (s, s), each scaled about that corner. Its
        # inradius is t times the half-square's: measured from the scaled
        # vertices, it would keep only the digits of t that survive next to s.
        r_half, shapes = shape_table((s, 0.0), (0.0, s), (0.0, 0.0))
        # listed as the loop's stack holds them: group 1's hat, filled first, last
        for (cx, cy), (px, py), (qx, qy), group, indices, b, t in (
            ((s, s), (0.0, s), (s, 0.0), areas2, indices2, b2, t2),
            ((0.0, 0.0), (s, 0.0), (0.0, s), areas1, indices1, b1, t1),
        ):
            lx, ly = cx + t * (px - cx), cy + t * (py - cy)
            rx, ry = cx + t * (qx - cx), cy + t * (qy - cy)
            hats.append((lx, ly, rx, ry, cx, cy, False, t * r_half, 0, group, indices, b, 1))
    else:
        # Triangle container: the loop splits it like a hat with zero
        # rounding and no inherited minimum size.
        r_in, shapes = shape_table(*container.base_split)
        (lx, ly), (rx, ry), (cx, cy) = container.base_split
        hats = [(lx, ly, rx, ry, cx, cy, False, r_in, 0, areas, request.circles.indices, 0.0, 0)]
    calls, moves = _pack_into_hats(packing, shapes, hats)
    for column in (packing.x, packing.y, packing.radius, packing.hat_vertices, packing.hat_rounding):
        view = np.asarray(column)  # the column's own memory
        np.ldexp(view, -k, out=view)
    if stats is not None:
        stats.split_calls += split_calls + calls
        stats.element_moves += element_moves + moves
        stats.hat_count += len(packing.hat_rounding)
        depth = max(packing.hat_depth, default=0) + isinstance(container, Triangle)
        stats.max_depth = max(stats.max_depth, depth)
    return packing


def min_container(
    circles: CircleSet, family: Union[str, Square, Triangle]
) -> Union[Square, Triangle]:
    """Smallest container of the family whose guaranteed-packable area is the set's sum.

    ``family`` is either ``"square"`` (or any Square) or a non-acute Triangle
    taken up to similarity. The result always packs the set, and its area is
    at most 1/critical_density times the area of any feasible container.
    """
    if len(circles) == 0:
        raise InvalidParameterError("min_container needs at least one circle")
    total = _combined_area(circles.areas)  # the total that pack admits by
    if family == "square" or isinstance(family, Square):
        return Square(math.sqrt(total / PHI_SQUARE))
    if isinstance(family, Triangle):
        factor = math.sqrt(total / packable_area(family))
        return family.scaled_about(family.vertices[0], factor)
    raise InvalidParameterError(f"unknown container family: {family!r}")
