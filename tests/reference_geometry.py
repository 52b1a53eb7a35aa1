"""Scalar reference geometry: the oracle the verifier's numpy checks are tested against.

Plain-Python distances between points, segments, triangles and convex point
sets, written for clarity rather than speed, and the exhaustive all-pairs
circle-circle slacks. Tests compare the verifier's bulk primitives, its
sibling-hat rule and its circle-pair sweep with these.
"""

import math
from typing import Sequence

import numpy as np

from splitpack import InvalidParameterError, Point, Triangle
from splitpack.geometry import _as_point


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
    a = [_as_point(p) for p in pa]
    b = [_as_point(p) for p in pb]
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
