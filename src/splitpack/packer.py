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
every further hat and places every circle, directly in world coordinates.
"""

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .errors import (
    ConjugacyError,
    InvalidParameterError,
    OverCapacityError,
    UnsupportedContainerError,
)
from .geometry import (
    PHI_SQUARE,
    Circle,
    Hat,
    Point,
    SplitKey,
    Square,
    Triangle,
    triangle_incircle,
    _altitude_split,
    _circle_fast,
    _hat_fast,
    _incenter,
    _inradius,
    _triangle_fast,
)
from .splitting import CircleSet, min_guarantee, split, weighted_split

# Closed capacity bound: instances sitting exactly on the worst case must pass.
FEASIBILITY_REL_SLACK = 1e-12

# Scale factors this close to 1 snap to exactly 1, so self-similar
# power-of-two instances reproduce the exact subdivision.
_SNAP_REL_TOL = 1e-12

# Preconditions of the placement operations are checked with this relative
# slack; the verifier is the actual oracle for the produced geometry.
_PLACEMENT_REL_TOL = 1e-9

Shape = Union[Square, Hat, Circle]


@dataclass
class PackingNode:
    """Node of a packing tree.

    The root carries the user's container. A hat node has either two hat
    children or a single circle child (its incircle); circle nodes are leaves
    and remember the position of their area in the input.
    """

    shape: Shape
    children: list["PackingNode"] = field(default_factory=list)
    input_index: Optional[int] = None

    def walk(self) -> Iterator[tuple["PackingNode", int]]:
        """Iterative preorder traversal yielding (node, depth)."""
        stack: list[tuple[PackingNode, int]] = [(self, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            for child in reversed(node.children):
                stack.append((child, depth + 1))

    def circle_leaves(self) -> list["PackingNode"]:
        return [n for n, _ in self.walk() if isinstance(n.shape, Circle)]


@dataclass(frozen=True)
class PackRequest:
    """A container, the circle areas to pack, and an optional minimum size.

    The request is feasible when the combined area does not exceed the
    container's guaranteed-packable area (twincircle area for squares,
    incircle area for triangles) and every circle is at least ``min_size``.
    """

    container: Union[Square, Triangle]
    circles: CircleSet
    min_size: float = 0.0


@dataclass
class PackStats:
    """Counters :func:`pack` fills in; pass one as its ``stats`` argument to read them.

    ``scale_factors`` holds each hat's scale factor, in the order the hats were built.
    """

    split_calls: int = 0
    element_moves: int = 0
    hat_count: int = 0
    scale_factors: list[float] = field(default_factory=list)
    max_depth: int = 0


def packable_area(container: Union[Square, Triangle]) -> float:
    """Largest combined circle area the container is guaranteed to pack."""
    if isinstance(container, Square):
        return PHI_SQUARE * container.side * container.side
    if isinstance(container, Triangle):
        if not container.is_non_acute:
            raise UnsupportedContainerError("acute triangle containers are not supported")
        r = _inradius(container)
        return math.pi * r * r
    raise UnsupportedContainerError(f"unsupported container type: {type(container).__name__}")


def _check_tuples(
    a_total: float,
    b_floor: float,
    key: SplitKey,
    first: tuple[float, float],
    second: tuple[float, float],
) -> None:
    (a1, b1), (a2, b2) = first, second
    f1, f2 = key
    tol = _PLACEMENT_REL_TOL * max(a_total, 1e-300)
    if a1 < -tol or a2 < -tol:
        raise ConjugacyError("conjugatedness violation: negative subset area")
    if a1 + a2 > a_total + tol:
        raise ConjugacyError(
            f"conjugatedness violation: a1 + a2 = {a1 + a2!r} exceeds packable area {a_total!r}"
        )
    if b1 < b_floor - tol or b2 < b_floor - tol:
        raise ConjugacyError("conjugatedness violation: rounding below the inherited minimum size")
    if b1 < a1 - f1 * a2 / f2 - tol or b2 < a2 - f2 * a1 / f1 - tol:
        raise ConjugacyError("conjugatedness violation: rounding below the overshoot bound")


def _scale_factor(a: float, f: float) -> float:
    """sqrt(a / f), snapped to exactly 1 when a lies within _SNAP_REL_TOL of f."""
    if abs(a - f) <= _SNAP_REL_TOL * f:
        return 1.0
    return math.sqrt(a / f)


def _pack_into_hats(hats: list[tuple[PackingNode, CircleSet, float]], stats: PackStats) -> None:
    """Fill each (hat node, non-empty circle set, inherited min size) subtree.

    The only place that splits a hat into subhats and places a circle in a
    hat: a lone circle goes concentric with its hat's incircle; otherwise the
    triangle is split through its apex into two right altitude halves, the
    set is split against the halves' incircle areas, and each half is scaled
    about its base vertex to its group's combined area and rounded by the
    group's minimum-size guarantee, clamped to the group's smallest circle.
    """
    pi = math.pi
    sqrt = math.sqrt
    # (node, L, R, C, inradius, subset, inherited min size, depth) with L, R
    # the base (longest side) ends and C the apex of the hat triangle
    stack = []
    for node, subset, b_min in hats:
        tri = node.shape.triangle
        stack.append((node, *tri.base_split, _inradius(tri), subset, b_min, 1))
    while stack:
        node, left, right, apex, r_in, subset, b_min, depth = stack.pop()
        if depth > stats.max_depth:
            stats.max_depth = depth

        if len(subset) == 1:
            # lone circle: concentric with the hat's incircle
            area = subset.areas[0]
            if area > pi * r_in * r_in * (1.0 + _PLACEMENT_REL_TOL):
                raise InvalidParameterError(
                    f"circle of area {area!r} exceeds the hat's incircle area {pi * r_in * r_in!r}"
                )
            circle = _circle_fast(_incenter(left, right, apex), sqrt(area / pi))
            node.children.append(PackingNode(circle, input_index=subset.indices[0]))
            continue

        foot, r1, r2 = _altitude_split(left, right, apex)
        f1 = pi * r1 * r1
        f2 = pi * r2 * r2
        key = SplitKey(f1, f2)

        part1, part2 = weighted_split(subset, key)
        stats.split_calls += 1
        stats.element_moves += len(subset)
        a1, a2 = part1.combined, part2.combined
        b1 = min(min_guarantee(a1, a2, f1, f2, b_min), part1.minimum)
        b2 = min(min_guarantee(a2, a1, f2, f1, b_min), part2.minimum)
        _check_tuples(pi * r_in * r_in, b_min, key, (a1, b1), (a2, b2))

        t1 = _scale_factor(a1, f1)
        t2 = _scale_factor(a2, f2)
        stats.scale_factors += (t1, t2)
        stats.hat_count += 2

        (lx, ly), (rx, ry), (cx, cy), (fx, fy) = left, right, apex, foot
        # child 1: left half scaled about the left base vertex; its hypotenuse
        # (the next base) runs from the scaled apex back to that vertex
        p_f = Point(lx + t1 * (fx - lx), ly + t1 * (fy - ly))
        p_c = Point(lx + t1 * (cx - lx), ly + t1 * (cy - ly))
        r1c = t1 * r1
        tri1 = _triangle_fast(left, p_f, p_c, base_split=(p_c, left, p_f))
        hat1 = _hat_fast(tri1, min(sqrt(b1 / pi), r1c))
        # child 2: right half scaled about the right base vertex
        q_f = Point(rx + t2 * (fx - rx), ry + t2 * (fy - ry))
        q_c = Point(rx + t2 * (cx - rx), ry + t2 * (cy - ry))
        r2c = t2 * r2
        tri2 = _triangle_fast(q_f, right, q_c, base_split=(right, q_c, q_f))
        hat2 = _hat_fast(tri2, min(sqrt(b2 / pi), r2c))

        child1 = PackingNode(hat1)
        child2 = PackingNode(hat2)
        node.children = [child1, child2]
        stack.append((child1, p_c, left, p_f, r1c, part1, b1, depth + 1))
        stack.append((child2, right, q_c, q_f, r2c, part2, b2, depth + 1))


def _validate_request(request: PackRequest) -> float:
    circles = request.circles
    for area in circles.areas:
        if not (math.isfinite(area) and area > 0.0):
            raise InvalidParameterError(f"circle areas must be positive, got {area!r}")
    if request.min_size < 0.0:
        raise InvalidParameterError("min_size must be non-negative")
    capacity = packable_area(request.container)
    _check_feasible(circles, request.min_size, capacity)
    return capacity


def _check_feasible(circles: CircleSet, min_size: float, capacity: float) -> None:
    """Refuse a circle set that the area bound does not guarantee to pack.

    The one feasibility rule: :func:`pack` refuses exactly the requests this
    raises for, and :func:`splitpack.documents.decide` answers "unknown" for
    them. The total is exactly rounded, so it does not depend on the order of
    the areas.
    """
    if len(circles) and min_size > 0.0:
        if circles.minimum < min_size * (1.0 - FEASIBILITY_REL_SLACK):
            raise InvalidParameterError(
                f"min-size violation: smallest circle {circles.minimum!r} "
                f"is below the declared minimum {min_size!r}"
            )
    total = math.fsum(circles.areas)
    if total > capacity * (1.0 + FEASIBILITY_REL_SLACK):
        ratio = total / capacity
        raise OverCapacityError(
            f"over-capacity: combined area {total!r} exceeds the "
            f"guaranteed packable area {capacity!r} (ratio {ratio!r})",
            ratio=ratio,
        )


def pack(request: PackRequest, stats: Optional[PackStats] = None) -> PackingNode:
    """Pack the requested circle set, returning the subdivision tree.

    The tree's circle leaves have the input areas, each of radius
    sqrt(area / pi), placed without overlap inside the container (checkable
    with :func:`splitpack.verifier.verify`). An empty input yields a bare
    root. Counters go into ``stats`` when given.
    """
    if stats is None:
        stats = PackStats()
    capacity = _validate_request(request)
    circles = request.circles
    container = request.container
    b0 = request.min_size

    if isinstance(container, Square):
        root = PackingNode(container)
        n = len(circles)
        if n == 0:
            return root
        if n == 1:
            # Degenerate corner-anchored hat: the circle ends up tangent to
            # the two sides meeting at the far corner.
            area = circles.areas[0]
            r = math.sqrt(area / math.pi)
            s = container.side
            circle = Circle(Point(s - r, s - r), r)
            root.children.append(PackingNode(circle, input_index=circles.indices[0]))
            return root
        part1, part2 = split(circles)
        stats.split_calls += 1
        stats.element_moves += n
        # The half-square's incircle area is half the twincircle area, so the
        # square splits like a hat with key (f, f).
        f = capacity / 2.0
        a1, a2 = part1.combined, part2.combined
        b1 = min(min_guarantee(a1, a2, f, f, b0), part1.minimum)
        b2 = min(min_guarantee(a2, a1, f, f, b0), part2.minimum)
        _check_tuples(capacity, 0.0, SplitKey(f, f), (a1, b1), (a2, b2))
        # Group 1's hat is the right isosceles half-square with its right
        # angle at (0, 0), group 2's the one with it at (s, s), each scaled
        # about that corner.
        s = container.side
        hats = []
        for corner, p, q, part, b in (
            (Point(0.0, 0.0), Point(s, 0.0), Point(0.0, s), part1, b1),
            (Point(s, s), Point(0.0, s), Point(s, 0.0), part2, b2),
        ):
            t = _scale_factor(part.combined, f)
            tri = Triangle((corner, p, q)).scaled_about(corner, t)
            node = PackingNode(Hat(tri, min(math.sqrt(b / math.pi), _inradius(tri))))
            root.children.append(node)
            hats.append((node, part, b))
            stats.scale_factors.append(t)
            stats.hat_count += 1
        _pack_into_hats(hats, stats)
        return root

    # Triangle container: the root is the bare triangle (a hat with zero
    # rounding); the caller's min_size only sharpens the guarantees below.
    root = PackingNode(Hat(container, 0.0))
    if len(circles):
        _pack_into_hats([(root, circles, b0)], stats)
    return root


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
    total = circles.combined
    if family == "square" or isinstance(family, Square):
        return Square(math.sqrt(total / PHI_SQUARE))
    if isinstance(family, Triangle):
        if not family.is_non_acute:
            raise UnsupportedContainerError("acute triangle containers are not supported")
        incircle = triangle_incircle(family)
        factor = math.sqrt(total / (math.pi * incircle.radius * incircle.radius))
        return family.scaled_about(family.vertices[0], factor)
    raise InvalidParameterError(f"unknown container family: {family!r}")
