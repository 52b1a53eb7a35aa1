"""Scalar reference geometry: the oracle the package is tested against.

Plain-Python distances between points, segments, triangles and convex point
sets, written for clarity rather than speed, and the exhaustive all-pairs
circle-circle slacks. Tests compare the verifier's bulk primitives, its
sibling-hat rule and its circle-pair sweep with these.

The construction's measurements, each with arithmetic of its own: the
altitude halves of a triangle, its incenter and inradius, the closed-form
dimensions of a right isosceles hat, the greedy split as a plain loop, the
conjugatedness conditions on a split, and the overshoot bound that
guarantees a bucket's smallest circle (:func:`min_guarantee`). Tests compare
the packer's hats, circles and splits with these, and replay its splits with
its own key (:func:`split_key`).

The hat as a validated shape object, :class:`Hat`, with its incircle
(:func:`triangle_incircle`): the package records hats only as numbers in a
``Packing``, and tests rebuild them as shapes from its columns
(:func:`hat_shapes`, :func:`first_level_hats`), and the check ids of their
tree, derived from the preorder depths by a chain of open ancestors
(:func:`preorder_tree_ids`).
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from splitpack import Circle, InvalidParameterError, Point, Triangle
from splitpack.geometry import shape_table

SQRT2 = math.sqrt(2.0)

CONJUGACY_REL_TOL = 1e-12


def signed_distance(p, t: Triangle) -> float:
    """Minimum inward distance from p to the triangle's side lines.

    Positive inside, zero on the boundary, negative outside (relative to the
    nearest side line, which for convex containment checks errs on the safe
    side beyond a vertex).
    """
    px, py = float(p[0]), float(p[1])
    v = t.vertices
    best = math.inf
    for i in range(3):
        x1, y1 = v[i]
        x2, y2 = v[(i + 1) % 3]
        dx, dy = x2 - x1, y2 - y1
        d = ((px - x1) * (-dy) + (py - y1) * dx) / math.hypot(dx, dy)
        if d < best:
            best = d
    return best


def point_segment_distance(p, a, b) -> float:
    """Euclidean distance from point p to the segment a-b."""
    px, py = float(p[0]), float(p[1])
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    dx, dy = bx - ax, by - ay
    denom = dx * dx + dy * dy
    if denom == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / denom
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def segment_segment_distance(p1, p2, q1, q2) -> float:
    """Euclidean distance between two segments (0 if they intersect).

    Crossings are detected parametrically; for (near-)parallel segments the
    endpoint distances are exact, so collinear but disjoint segments never
    report a spurious intersection.
    """
    rpx, rpy = p2[0] - p1[0], p2[1] - p1[1]
    rqx, rqy = q2[0] - q1[0], q2[1] - q1[1]
    denom = rpx * rqy - rpy * rqx
    if abs(denom) > 1e-12 * math.hypot(rpx, rpy) * math.hypot(rqx, rqy):
        wx, wy = q1[0] - p1[0], q1[1] - p1[1]
        t = (wx * rqy - wy * rqx) / denom
        u = (wx * rpy - wy * rpx) / denom
        if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0:
            return 0.0
    return min(
        point_segment_distance(p1, q1, q2),
        point_segment_distance(p2, q1, q2),
        point_segment_distance(q1, p1, p2),
        point_segment_distance(q2, p1, p2),
    )


def _polygon_area2(pts: Sequence[Point]) -> float:
    total = 0.0
    n = len(pts)
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        total += x1 * y2 - y1 * x2
    return total


def _contains_any(poly: Sequence[Point], pts: Sequence[Point]) -> bool:
    if len(poly) < 3 or _polygon_area2(poly) <= 0.0:
        return False
    n = len(poly)
    for px, py in pts:
        inside = True
        for i in range(n):
            x1, y1 = poly[i]
            x2, y2 = poly[(i + 1) % n]
            if (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1) < 0.0:
                inside = False
                break
        if inside:
            return True
    return False


def convex_polygon_distance(pa: Sequence, pb: Sequence) -> float:
    """Minimum Euclidean distance between two convex CCW point sets.

    Returns 0 when the convex hulls intersect or touch. Degenerate inputs
    (segments, single points) are accepted.
    """
    a = [Point(float(p[0]), float(p[1])) for p in pa]
    b = [Point(float(p[0]), float(p[1])) for p in pb]
    if not a or not b:
        raise InvalidParameterError("point lists must be non-empty")
    if _contains_any(a, b) or _contains_any(b, a):
        return 0.0

    def edges(pts):
        if len(pts) == 1:
            return [(pts[0], pts[0])]
        return [(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))]

    best = math.inf
    for ea in edges(a):
        for eb in edges(b):
            d = segment_segment_distance(ea[0], ea[1], eb[0], eb[1])
            if d < best:
                best = d
                if best == 0.0:
                    return 0.0
    return best


def all_pairs_circle_slacks(centers: np.ndarray, radii: np.ndarray):
    """Every circle pair i < j and its slack: center distance minus radius sum.

    The exhaustive O(n^2) check the verifier's sort-and-sweep replaces.
    Returns (i, j, slack) arrays in ``np.triu_indices`` order.
    """
    iu, ju = np.triu_indices(len(radii), k=1)
    dists = np.linalg.norm(centers[iu] - centers[ju], axis=-1)
    return iu, ju, dists - (radii[iu] + radii[ju])


def altitude_foot(t: Triangle) -> Point:
    """Foot of the apex altitude on the base line."""
    left, right, apex = t.base_split
    bx, by = right.x - left.x, right.y - left.y
    t_param = ((apex.x - left.x) * bx + (apex.y - left.y) * by) / (bx * bx + by * by)
    return Point(left.x + t_param * bx, left.y + t_param * by)


def altitude_halves(t: Triangle) -> tuple[Triangle, Triangle]:
    """Split a non-acute triangle through the apex, orthogonal to the base.

    Returns the two right triangles (left half, right half); each has its
    right angle at the altitude foot.
    """
    left, right, apex = t.base_split
    foot = altitude_foot(t)
    bx, by = right.x - left.x, right.y - left.y
    t_param = ((foot.x - left.x) * bx + (foot.y - left.y) * by) / (bx * bx + by * by)
    if not (0.0 < t_param < 1.0):
        raise InvalidParameterError(
            "altitude foot lies outside the base; the triangle must be non-acute"
        )
    return (Triangle((left, foot, apex)), Triangle((foot, right, apex)))


class HatDimensions(NamedTuple):
    """Measurements of a right isosceles hat with incircle area a, rounding b.

    h         -- height of the underlying triangle (apex above the base)
    w         -- width along the base, both base corners rounded
    d         -- extent along a leg from the apex to a rounded base corner
    w_corner  -- width when one base corner is left sharp
    d_corner  -- leg extent when the base corner is left sharp (= d at b=0)
    """

    h: float
    w: float
    d: float
    w_corner: float
    d_corner: float


def hat_dimensions(a: float, b: float = 0.0) -> HatDimensions:
    """Measurements of a right isosceles hat with incircle area a, rounding b.

    With r, s the radii of circles of areas a and b:

        h        = r (1 + sqrt 2)
        w        = r (2 + 2 sqrt 2) - s * 2 sqrt 2
        d        = r (2 + sqrt 2) - s * sqrt 2
        w_corner = w + s * sqrt 2
        d_corner = r (2 + sqrt 2)
    """
    if not (math.isfinite(a) and a > 0.0):
        raise InvalidParameterError(f"incircle area must be positive, got {a!r}")
    if not (math.isfinite(b) and 0.0 <= b <= a):
        raise InvalidParameterError(f"rounding area must lie in [0, a], got {b!r}")
    r = math.sqrt(a / math.pi)
    s = math.sqrt(b / math.pi)
    h = r * (1.0 + SQRT2)
    w = r * (2.0 + 2.0 * SQRT2) - s * 2.0 * SQRT2
    d = r * (2.0 + SQRT2) - s * SQRT2
    w_corner = w + s * SQRT2
    d_corner = r * (2.0 + SQRT2)
    return HatDimensions(h, w, d, w_corner, d_corner)


class ConjugatedPair(NamedTuple):
    """Parameter tuples (a1, b1), (a2, b2) for two sibling subcontainers."""

    first: tuple[float, float]
    second: tuple[float, float]


def split_key(t: Triangle) -> tuple[float, float]:
    """The key (f1, f2) that pack splits the triangle's circles by, taken from
    its shape table as the placement loop takes it: the incircle areas of the
    triangle's two altitude halves. Not a reference: tests that replay pack's
    split need its exact bits."""
    r_in, table = shape_table(*t.base_split)
    r1, r2 = table[0][1] * r_in, table[0][2] * r_in
    return math.pi * r1 * r1, math.pi * r2 * r2


def greedy_split(areas, indices, f1: float, f2: float) -> tuple:
    """The paper's greedy split as a plain loop, the reference for
    ``weighted_split``: each circle in turn joins the bucket whose filling
    level sum_i / f_i is lower, ties to the first, and each sum adds its
    areas left to right. Returns (areas1, indices1, sum1, areas2, indices2,
    sum2)."""
    buckets = ([], []), ([], [])
    sums = [0.0, 0.0]
    for area, index in zip(areas, indices):
        i = 0 if sums[0] / f1 <= sums[1] / f2 else 1
        buckets[i][0].append(area)
        buckets[i][1].append(index)
        sums[i] = sums[i] + area
    (areas1, indices1), (areas2, indices2) = buckets
    return areas1, indices1, sums[0], areas2, indices2, sums[1]


def min_guarantee(sum_i: float, sum_j: float, f_i: float, f_j: float, b: float = 0.0) -> float:
    """Guaranteed minimum circle size in bucket i, usable as its rounding.

    Returns max(b, sum_i - sum_j * (f_i / f_j), 0): the weighted-split bound for
    bucket i against bucket j, clamped to the inherited minimum size b and to
    zero (the bound may be negative when bucket i undershot its target).
    """
    if not (f_i > 0.0 and f_j > 0.0):
        raise InvalidParameterError("split key components must be positive")
    if sum_i < 0.0 or sum_j < 0.0:
        raise InvalidParameterError("combined areas must be non-negative")
    return max(b, sum_i - sum_j * (f_i / f_j), 0.0)


def left_to_right_sum(areas) -> float:
    """The areas added left to right in plain float arithmetic (builtin
    sum() compensates from Python 3.12): a scale for tests' tolerances."""
    total = 0.0
    for a in areas:
        total += a
    return total


def check_conjugated(pair: ConjugatedPair, a: float, b: float, key: tuple[float, float]) -> bool:
    """True iff the pair satisfies the three conjugatedness conditions.

    a1 + a2 = a; b_i >= b; b_i >= a_i - f_i * a_j / f_j — each within an
    absolute tolerance of 1e-12 * a.
    """
    (a1, b1), (a2, b2) = pair
    f1, f2 = key
    tol = CONJUGACY_REL_TOL * abs(a)
    if abs(a1 + a2 - a) > tol:
        return False
    if b1 < b - tol or b2 < b - tol:
        return False
    if b1 < a1 - f1 * a2 / f2 - tol:
        return False
    if b2 < a2 - f2 * a1 / f1 - tol:
        return False
    return True


@dataclass(frozen=True)
class Hat:
    """A non-acute triangle whose three corners are rounded to a given radius.

    The shape is the morphological opening of the triangle: equivalently the
    convex hull of three disks of the rounding radius centered on the corners
    of the triangle shrunk inward by that radius along both adjacent sides.
    Rounding zero gives the bare triangle; rounding equal to the inradius
    degenerates the hat to its incircle.
    """

    triangle: Triangle
    rounding_radius: float = 0.0

    def __post_init__(self):
        if not self.triangle.is_non_acute:
            raise InvalidParameterError("hat triangles must be right or obtuse")
        s = float(self.rounding_radius)
        if not (math.isfinite(s) and s >= 0.0):
            raise InvalidParameterError(f"rounding radius must be non-negative, got {s!r}")
        r = inradius(self.triangle)
        if s > r * (1.0 + 1e-9):
            raise InvalidParameterError("rounding radius exceeds the triangle's inradius")
        object.__setattr__(self, "rounding_radius", min(s, r))

    @cached_property
    def incircle(self) -> Circle:
        return triangle_incircle(self.triangle)

    def eroded_corners(self) -> tuple[Point, Point, Point]:
        """Corners of the triangle shrunk inward by the rounding radius.

        Shrinking all sides inward by s is the homothety about the incenter
        with ratio (R - s) / R, so the result stays exactly similar.
        """
        s = self.rounding_radius
        if s == 0.0:
            return self.triangle.vertices
        center = self.incircle.center
        k = (self.incircle.radius - s) / self.incircle.radius
        return tuple(
            Point(center.x + k * (p.x - center.x), center.y + k * (p.y - center.y))
            for p in self.triangle.vertices
        )


def inradius(t: Triangle) -> float:
    """Twice the triangle's area over its perimeter, from its vertices."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c = t.vertices
    doubled = abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
    return doubled / (math.dist(a, b) + math.dist(b, c) + math.dist(c, a))


def incenter(a, b, c) -> Point:
    """Incenter of the triangle abc: its vertices weighted by the opposite sides."""
    wa, wb, wc = math.dist(b, c), math.dist(c, a), math.dist(a, b)
    perimeter = wa + wb + wc
    return Point((wa * a[0] + wb * b[0] + wc * c[0]) / perimeter,
                 (wa * a[1] + wb * b[1] + wc * c[1]) / perimeter)


def triangle_incircle(t: Triangle) -> Circle:
    """Largest inscribed circle: radius area/semiperimeter, center the incenter."""
    return Circle(incenter(*t.vertices), inradius(t))


def hat_shapes(packing) -> list[Hat]:
    """The record's hats as validated shape objects, in record order."""
    v = packing.hat_vertices
    return [
        Hat(Triangle(((v[6 * h], v[6 * h + 1]), (v[6 * h + 2], v[6 * h + 3]),
                      (v[6 * h + 4], v[6 * h + 5]))), packing.hat_rounding[h])
        for h in range(len(packing.hat_rounding))
    ]


def preorder_tree_ids(depths) -> tuple[list, list]:
    """The verifier's hat check ids for a preorder depth list, from a chain.

    The chain holds the open ancestors of the next hat, the container first;
    a hat of depth d closes every entry past the d-th and becomes a child of
    the d-th. The container is "container" as a parent and "hat:0" as an id
    prefix; a hat's id is its parent's prefix plus ``.{position}``. Returns
    the (hat, parent) pairs and the (earlier, later) sibling pairs, in
    record order.
    """
    chain = [("hat:0", "container", [])]  # (id prefix, parent name, child ids)
    in_parent, siblings = [], []
    for depth in depths:
        if not 1 <= depth <= len(chain):
            raise ValueError(f"depth {depth} after a hat of depth {len(chain) - 1}")
        del chain[depth:]
        prefix, name, kids = chain[-1]
        hat = f"{prefix}.{len(kids)}"
        in_parent.append((hat, name))
        siblings.extend((kid, hat) for kid in kids)
        kids.append(hat)
        chain.append((hat, hat, []))
    return in_parent, siblings


def first_level_hats(packing) -> list[Hat]:
    """The shapes of the hats at depth 1 (children of the container), in record order."""
    hats = hat_shapes(packing)
    return [hats[h] for h, depth in enumerate(packing.hat_depth) if depth == 1]
