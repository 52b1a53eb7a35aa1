"""Closed-form geometry for circle packing.

Points, circles, squares and triangles; a container's power-of-two frame;
the table of hat (corner-rounded triangle) shapes that the packer splits
hats and places circles by, at most four right shapes below the container;
packable areas and critical densities. The packer records hats only as
numbers in a ``Packing``.

All lengths and areas are plain double precision; tolerances elsewhere in the
package are expressed relative to the container scale.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Union

from .errors import InvalidParameterError, UnsupportedContainerError

SQRT2 = math.sqrt(2.0)

# Fraction of a square's area that can always be packed: pi / (3 + 2*sqrt(2)).
PHI_SQUARE = math.pi / (3.0 + 2.0 * SQRT2)

# Apex angles at least pi/2 minus this slack classify as non-acute, so right
# triangles built from floating-point side lengths (3, 4, 5, ...) qualify.
RIGHT_ANGLE_SLACK = 1e-9


class Point(NamedTuple):
    x: float
    y: float


def _as_point(p) -> Point:
    if type(p) is Point:
        return p
    return Point(float(p[0]), float(p[1]))


@dataclass(frozen=True)
class Circle:
    center: Point
    radius: float

    def __post_init__(self):
        center = _as_point(self.center)
        r = float(self.radius)
        if not (math.isfinite(r) and r > 0.0):
            raise InvalidParameterError(f"circle radius must be positive, got {r!r}")
        if not all(math.isfinite(c) for c in center):
            raise InvalidParameterError("circle center must be finite")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", r)

    @property
    def area(self) -> float:
        return math.pi * self.radius * self.radius


@dataclass(frozen=True)
class Square:
    """Axis-aligned square with its lower-left corner at the origin."""

    side: float

    def __post_init__(self):
        s = float(self.side)
        if not (math.isfinite(s) and s > 0.0):
            raise InvalidParameterError(f"square side must be positive, got {s!r}")
        object.__setattr__(self, "side", s)

    @property
    def area(self) -> float:
        return self.side * self.side


@dataclass(frozen=True)
class Triangle:
    """Triangle with counterclockwise vertices (clockwise input is flipped).

    The canonical decomposition used throughout treats the longest side as the
    base; for non-acute triangles the apex then carries the largest angle and
    the foot of its altitude lies strictly inside the base.
    """

    vertices: tuple[Point, Point, Point]

    def __post_init__(self):
        if len(self.vertices) != 3:
            raise InvalidParameterError("a triangle needs exactly three vertices")
        pts = tuple(_as_point(p) for p in self.vertices)
        if not all(math.isfinite(c) for p in pts for c in p):
            raise InvalidParameterError("triangle vertices must be finite")
        (ax, ay), (bx, by), (cx, cy) = pts
        doubled = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if doubled < 0.0:
            pts = (pts[0], pts[2], pts[1])
            doubled = -doubled
        if doubled <= 0.0:
            raise InvalidParameterError("degenerate triangle")
        object.__setattr__(self, "vertices", pts)
        if not all(map(math.isfinite, self.side_lengths)):
            raise InvalidParameterError("triangle side lengths must be finite")

    @classmethod
    def from_sides(cls, x: float, y: float, z: float) -> "Triangle":
        """Canonical-frame triangle: longest side on the x-axis from the origin.

        The lengths are read cyclically and rotated so that the longest one
        becomes the base; the first remaining length is the left side |AC|,
        the second the right side |BC|. All cyclic rotations of the same
        tuple therefore produce the same triangle.
        """
        sides = (float(x), float(y), float(z))
        if not all(math.isfinite(s) and s > 0.0 for s in sides):
            raise InvalidParameterError(f"side lengths must be positive, got {sides}")
        k = max(range(3), key=lambda i: sides[i])
        left, right, base = sides[(k + 1) % 3], sides[(k + 2) % 3], sides[k]
        if left + right <= base:
            raise InvalidParameterError(f"side lengths {sides} violate the triangle inequality")
        cx = (base * base + left * left - right * right) / (2.0 * base)
        cy_sq = left * left - cx * cx
        if cy_sq <= 0.0:
            raise InvalidParameterError(f"side lengths {sides} give a degenerate triangle")
        return cls((Point(0.0, 0.0), Point(base, 0.0), Point(cx, math.sqrt(cy_sq))))

    @cached_property
    def side_lengths(self) -> tuple[float, float, float]:
        """(|v0 v1|, |v1 v2|, |v2 v0|)."""
        v = self.vertices
        return (
            math.dist(v[0], v[1]),
            math.dist(v[1], v[2]),
            math.dist(v[2], v[0]),
        )

    @cached_property
    def area(self) -> float:
        (ax, ay), (bx, by), (cx, cy) = self.vertices
        return 0.5 * abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))

    @cached_property
    def base_split(self) -> tuple[Point, Point, Point]:
        """(left base vertex, right base vertex, apex); base = longest side.

        "Left" and "right" follow the counterclockwise traversal of the base
        edge, so the apex lies to the left of the directed base.
        """
        sides = self.side_lengths
        i = max(range(3), key=lambda k: sides[k])
        v = self.vertices
        return (v[i], v[(i + 1) % 3], v[(i + 2) % 3])

    @cached_property
    def apex_angle(self) -> float:
        left, right, apex = self.base_split
        ux, uy = left.x - apex.x, left.y - apex.y
        vx, vy = right.x - apex.x, right.y - apex.y
        return math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)

    @property
    def is_non_acute(self) -> bool:
        return self.apex_angle >= math.pi / 2.0 - RIGHT_ANGLE_SLACK

    def scaled_about(self, anchor, factor: float) -> "Triangle":
        """Similar copy scaled by ``factor`` about the fixed point ``anchor``."""
        ax, ay = _as_point(anchor)
        return Triangle(
            tuple(Point(ax + factor * (p.x - ax), ay + factor * (p.y - ay)) for p in self.vertices)
        )


def frame(container: Union[Square, Triangle]) -> tuple[int, Union[Square, Triangle]]:
    """(k, the container scaled by 2**k), for the k that puts its size (a square's
    side, a triangle's longest side) in [1, 2). That scale is exact while the numbers
    stay normal floats, so pack, decide and verify work in this frame at every scale."""
    if isinstance(container, Square):
        k = 1 - math.frexp(container.side)[1]
        return k, Square(math.ldexp(container.side, k))
    k = 1 - math.frexp(max(container.side_lengths))[1]
    return k, Triangle(tuple(Point(math.ldexp(x, k), math.ldexp(y, k)) for x, y in container.vertices))


def shape_table(left, right, apex) -> tuple[float, list[tuple]]:
    """The inradius of the non-acute triangle with base ends ``left``,
    ``right`` and apex ``apex``, each an (x, y) pair, and the shapes of the
    hats split from it: entry 0 its own, entries 1 to 4 right triangles.

    An entry holds the altitude foot's fraction of the base from left to
    right, the halves' inradii over the hat's, the incenter weights of left,
    right and apex, and the entries of the left and right halves, each based
    on its hypotenuse, ends counterclockwise. A right shape whose legs from
    left and right over its hypotenuse are p and q has (p**2, p, q, (q, p, 1)
    / (1 + p + q)); both its halves are the right shape (q, p).
    """
    (lx, ly), (rx, ry), (cx, cy) = left, right, apex
    bx, by = rx - lx, ry - ly
    foot = ((cx - lx) * bx + (cy - ly) * by) / (bx * bx + by * by)
    fx, fy = lx + foot * bx, ly + foot * by
    leg1 = math.hypot(fx - lx, fy - ly)
    leg2 = math.hypot(rx - fx, ry - fy)
    altitude = math.hypot(cx - fx, cy - fy)
    a = math.hypot(cx - lx, cy - ly)
    b = math.hypot(cx - rx, cy - ry)
    c = math.hypot(bx, by)
    perimeter = a + b + c
    r_in = c * altitude / perimeter
    table = [(foot, leg1 * altitude / (leg1 + altitude + a) / r_in,
              leg2 * altitude / (leg2 + altitude + b) / r_in,
              b / perimeter, a / perimeter, c / perimeter, 1, 3)]
    for p, q, k in ((altitude / a, leg1 / a, 1), (leg2 / b, altitude / b, 3)):
        total = 1.0 + p + q
        table.append((p * p, p, q, q / total, p / total, 1.0 / total, k + 1, k + 1))
        table.append((q * q, q, p, p / total, q / total, 1.0 / total, k, k))
    return r_in, table


def packable_area(container: Union[Square, Triangle]) -> float:
    """Largest combined circle area the container is guaranteed to pack: its
    twincircle area for a square, its incircle area for a triangle.

    Acute triangles are not supported.
    """
    if isinstance(container, Square):
        return PHI_SQUARE * container.side * container.side
    if isinstance(container, Triangle):
        if not container.is_non_acute:
            raise UnsupportedContainerError("acute triangle containers are not supported")
        r, _ = shape_table(*container.base_split)
        return math.pi * r * r
    raise UnsupportedContainerError(f"unsupported container type: {type(container).__name__}")


def critical_density(container: Union[Square, Triangle]) -> float:
    """Fraction of the container's area that is guaranteed packable.

    Squares: pi / (3 + 2 sqrt 2). Non-acute triangles: the incircle-to-triangle
    area ratio, the packable area over the area.
    """
    if isinstance(container, Square):
        return PHI_SQUARE
    return packable_area(container) / container.area

