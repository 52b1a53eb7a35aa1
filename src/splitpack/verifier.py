"""Independent numeric validation of packing records.

:func:`verify` reads a record in its container's frame and checks that it is
well formed (:func:`_read`). Then it runs the circle certificate
(:func:`_certify`): the paper's claim, that the circles are pairwise disjoint
and lie inside the container, and, given the expected areas, that they are
the requested circles (judged exactly, whatever the tolerance). It reads no
hat column. Last come the hat diagnostics (:func:`_hat_diagnostics`), which
judge the construction's scaffolding, each hat in its parent and sibling hats
apart; only they decode the hat depths and erode the hats.

Containment and disjointness are established from primitive geometry only:
point/segment distances, separating axes and inward erosions of triangles.
None of the packer's placement formulas or hat measurements are reused, so a
passing report is an independent certificate. Checks are evaluated in bulk
with numpy; the scalar reference semantics they are tested against live in
the test suite's ``tests/reference_geometry.py``.

Circle pairs are found by a sort-and-sweep over bounding boxes: only pairs
whose boxes overlap or touch are evaluated, O(n) of them on a packing, not
all n(n-1)/2, and every pair left out is disjoint.

A hat equals the convex hull of three disks of its rounding radius centered
on its eroded corners, so

* hat-in-convex-parent containment is exact via the three corner disks, and
* two hats are disjoint iff their eroded triangles are at least the sum of
  the rounding radii apart.

The hat checks index one edge table per verify, built once from the eroded
triangles: corner x and y, edge vectors and edge lengths. The container, square
or triangle, has a table of its own corners, so one kernel judges every
containment. Each distance is computed only where the result uses it. A
point's Euclidean distance to a polygon is computed only where the point lies
outside the side lines.
Sibling hats follow one rule: where the separating-axis gap of their eroded
triangles is negative, it is their distance (minus the penetration depth);
only elsewhere is the smallest vertex-to-edge distance over both computed.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidParameterError, MalformedTreeError
from .geometry import Square, Triangle, frame

DEFAULT_REL_TOLERANCE = 1e-9

# Under the default tolerance a circle pair is judged at no more than
# DEFAULT_REL_TOLERANCE of its smaller radius, but never below this many
# float64 epsilons of the container diameter (coordinate rounding).
PAIR_TOLERANCE_FLOOR_EPS = 64

# The record's numbers in the container's frame (geometry.frame) must be at most
# this in magnitude: past it the checks' squared lengths and products overflow.
MAX_FRAME_MAGNITUDE = 1e150

# Candidate circle pairs, and hat corners in their parents, are evaluated
# this many at a time (sibling hat pairs, three corners a side, a third as
# many), which bounds the working memory when many circles share an x-range
# and on packings with many hats.
_PAIR_CHUNK = 1 << 17


class CheckKind(str, Enum):
    CIRCLE_CIRCLE = "circle-circle"
    CIRCLE_IN_CONTAINER = "circle-in-container"
    HAT_IN_PARENT = "hat-in-parent"
    HAT_HAT_DISJOINT = "hat-hat-disjoint"
    LEAF_MULTISET = "leaf-multiset"


@dataclass(frozen=True)
class Check:
    kind: CheckKind
    ids: tuple[str, ...]
    slack: float


@dataclass
class VerificationReport:
    """Outcome of :func:`verify`.

    ``passed`` holds iff ``failures`` is empty: every evaluated check has
    slack >= minus its tolerance (see :func:`verify`). Slack is signed, so
    exactly tangent configurations report ~0. ``checks`` lists every check,
    ``check_count`` of them, and ``failures`` every violated one, both sorted
    by kind and ids; ``checks`` is built from the check groups when first read.
    """

    passed: bool
    worst_slack: float
    tolerance: float
    check_count: int
    failures: list[Check] = field(default_factory=list)
    _groups: list = field(default_factory=list, repr=False)

    @cached_property
    def checks(self) -> list[Check]:
        return _sorted_checks((kind, ids_fn(), slacks) for kind, ids_fn, slacks, _ in self._groups)

    def summary(self) -> str:
        lines = [
            f"{'PASS' if self.passed else 'FAIL'}: {self.check_count} checks, "
            f"worst slack {self.worst_slack:.3e}, tolerance {self.tolerance:.3e}"
        ]
        for check in self.failures:
            lines.append(f"  {check.kind.value} {' '.join(check.ids)}: slack {check.slack:.3e}")
        return "\n".join(lines)


def _sorted_checks(groups) -> list[Check]:
    """The checks of groups (kind, ids, slacks), sorted by kind and ids."""
    return sorted((Check(kind, tuple(i), float(s)) for kind, ids, slacks in groups
                   for i, s in zip(ids, slacks)), key=lambda c: (c.kind.value, c.ids))


def _edge_table(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (5, e, m) edge table of polygons with e corners (x, y), each (e, m):
    corner x and y, edge vectors ex and ey (edge i runs from corner i to corner
    (i + 1) mod e) and edge lengths. The polygon index is last, so numpy's inner
    loops run along it; ``np.take(table, rows, axis=-1)`` keeps it so."""
    ex, ey = np.roll(x, -1, axis=0) - x, np.roll(y, -1, axis=0) - y
    return np.stack((x, y, ex, ey, np.sqrt(ex * ex + ey * ey)))


def _nearest_edge(px: np.ndarray, py: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Smallest distance (k,) from points (c, k) to the edges of polygons (5, e, k)."""
    ax, ay, ex, ey, _ = tris[:, None]
    px, py = px[:, None], py[:, None]
    denom = ex * ex + ey * ey
    point = denom == 0.0
    t = ((px - ax) * ex + (py - ay) * ey) / np.where(point, 1.0, denom)
    t = np.where(point, 0.0, np.clip(t, 0.0, 1.0))
    return np.hypot(px - (ax + t * ex), py - (ay + t * ey)).min(axis=(0, 1))


def _point_tri_set_distance(px: np.ndarray, py: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Signed set distance of points (c, k) to convex CCW polygons (5, e, k), column by column;
    one polygon (5, e, 1), such as the container's, serves every column.

    Inside, the inward depth to the nearest side line; outside, minus the
    Euclidean distance to the nearest edge, computed only at the points that
    are outside. A zero-length edge or a zero doubled area of corners 0-2 leaves
    a polygon no inside (side lines of -inf), so every point takes the
    Euclidean distance.
    """
    tris = np.broadcast_to(tris, tris.shape[:2] + px.shape[1:])
    x, y, ex, ey, length = tris[:, None]
    cross = ex * (py[:, None] - y) - ey * (px[:, None] - x)
    has_line = (length > 0.0) & (ex[:, 0] * ey[:, 1] > ey[:, 0] * ex[:, 1])  # positive doubled area
    line = np.divide(cross, length, out=np.full(cross.shape, -np.inf), where=has_line).min(axis=1)
    outside = np.nonzero(line < 0.0)
    if len(outside[0]):
        line[outside] = -_nearest_edge(px[outside][None], py[outside][None],
                                       np.take(tris, outside[1], axis=-1))
    return line


def _tri_pair_distance(ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """Signed distance between CCW triangle pairs (5, 3, k), negative if they overlap.

    The separating-axis gap is the largest signed gap along either
    triangle's edge normals (a zero-length edge has no axis). Where it is
    negative it is minus the penetration depth (the minimal translation is
    normal to an edge); elsewhere the pair is disjoint or touches, and its
    distance is the smallest vertex-to-edge distance over both triangles. A
    triangle shrunk to a point has no axis, a gap of 0 and the vertex test.
    """
    sat = np.full(ta.shape[-1], -np.inf)
    for (x, y, ex, ey, length), second in ((ta, tb), (tb, ta)):
        valid = length > 0.0
        inv = np.where(valid, 1.0 / np.where(valid, length, 1.0), 0.0)
        nx, ny = (ey * inv)[:, None], (-ex * inv)[:, None]  # outward normals for CCW
        proj = nx * (second[0] - x[:, None]) + ny * (second[1] - y[:, None])  # (3 axes, 3 vertices, k)
        sat = np.maximum(sat, np.where(valid, proj.min(axis=1), -np.inf).max(axis=0))
    dist = np.where(np.isfinite(sat), sat, 0.0)
    apart = np.nonzero(dist >= 0.0)[0]
    if len(apart):
        a, b = np.take(ta, apart, axis=-1), np.take(tb, apart, axis=-1)
        dist[apart] = np.minimum(_nearest_edge(b[0], b[1], a), _nearest_edge(a[0], a[1], b))
    return dist


def _hat_shape(x: np.ndarray, y: np.ndarray, rounding: np.ndarray):
    """How hat records read: (table, sx, sy, radii) of triangles (3, m) with corners
    (x, y), where ``table`` is the edge table of the triangles made counterclockwise,
    ``radii`` the rounding clamped to the inradius (0 for a degenerate triangle) and
    (sx, sy) the corners shrunk inward by it, the homothety about the incenter."""
    doubled = (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])
    clockwise = doubled < 0.0
    x, y = np.where(clockwise, x[[0, 2, 1]], x), np.where(clockwise, y[[0, 2, 1]], y)
    area2 = np.abs(doubled)
    table = _edge_table(x, y)
    sides = table[4]
    perimeter = sides.sum(axis=0)
    inradius = area2 / np.where(area2 > 0.0, perimeter, 1.0)
    radii = np.minimum(rounding, inradius)
    weights = np.roll(sides, -1, axis=0)  # opposite side length per corner
    divisor = np.where(perimeter > 0.0, perimeter, 1.0)
    cx, cy = (weights * x).sum(axis=0) / divisor, (weights * y).sum(axis=0) / divisor
    positive = inradius > 0.0
    k = np.where(positive, (inradius - radii) / np.where(positive, inradius, 1.0), 1.0)
    return table, cx + k * (x - cx), cy + k * (y - cy), radii


def _framed(values, k: int) -> np.ndarray:
    """The values times 2**k as doubles; one that overflows becomes inf."""
    with np.errstate(over="ignore"):
        return np.ldexp(np.asarray(values, dtype=float), k)


def _read(packing):
    """(k, diameter, container edge table, (centers, radii, input indices),
    (hat depths, vertices (2, 3, m), rounding)) of a record in its container's
    frame, every length scaled by 2**k (geometry.frame); MalformedTreeError
    if the record is not well formed."""
    if not isinstance(packing.container, (Square, Triangle)):
        raise MalformedTreeError("the container must be a square or a triangle")
    k, container = frame(packing.container)
    if isinstance(container, Square):
        s = container.side
        corners, diameter = ((0.0, 0.0), (s, 0.0), (s, s), (0.0, s)), s * math.sqrt(2.0)
    else:
        corners, diameter = container.vertices, max(container.side_lengths)
    n, m = len(packing.radius), len(packing.hat_rounding)
    if not (len(packing.x) == len(packing.y) == len(packing.input_index) == n
            and len(packing.hat_vertices) == 6 * m and len(packing.hat_depth) == m):
        raise MalformedTreeError("the record's columns differ in length")
    centers = _framed(np.column_stack((packing.x, packing.y)), k)
    radii = _framed(packing.radius, k)
    labels = np.asarray(packing.input_index)
    if not np.array_equal(np.sort(labels), np.arange(n)):
        raise MalformedTreeError("the circles' input indices must be 0..n-1, each once")
    if not np.all(radii > 0.0):
        raise MalformedTreeError("circles need positive radii")
    depth = np.asarray(packing.hat_depth, dtype=np.int64)
    if not np.all((depth >= 1) & (depth <= np.concatenate(([0], depth[:-1])) + 1)):
        raise MalformedTreeError("hat depths must be >= 1 and rise by at most one per hat")
    vertices = _framed(packing.hat_vertices, k).reshape(m, 3, 2).T
    rounding = _framed(packing.hat_rounding, k)
    if not np.all(rounding >= 0.0):
        raise MalformedTreeError("hats need non-negative rounding")
    if not all(np.all(np.abs(v) <= MAX_FRAME_MAGNITUDE)  # a NaN fails too
               for v in (centers, radii, vertices, rounding)):
        raise MalformedTreeError(f"the record's numbers must be at most {MAX_FRAME_MAGNITUDE:g} "
                                 "in magnitude in the container's frame, where its size is 1 to 2")
    table = _edge_table(*np.array(corners, dtype=float).T[:, :, None])
    return k, diameter, table, (centers, radii, labels), (depth, vertices, rounding)


def _circle_pairs(centers: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs of the circles whose bounding boxes overlap or touch.

    Circles are sorted by the left end of their box; for each one,
    ``searchsorted`` finds the run of later circles whose left end does not
    exceed its right end (``side="right"``, so touching counts). Runs are
    enumerated for consecutive circles up to _PAIR_CHUNK candidates at a
    time and kept where the y-extents also overlap or touch. Box ends are
    rounded outward, so a pair left out has a positive gap between the exact
    boxes of its two circles.
    """
    n = len(radii)
    lo = np.nextafter(centers - radii[:, None], -np.inf)
    hi = np.nextafter(centers + radii[:, None], np.inf)
    order = np.argsort(lo[:, 0], kind="stable")
    xlo, xhi = lo[order, 0], hi[order, 0]
    ylo, yhi = lo[order, 1], hi[order, 1]
    # a radius is positive, so each run starts right after its own circle
    run = np.searchsorted(xlo, xhi, side="right") - np.arange(1, n + 1)
    ends = np.concatenate(([0], np.cumsum(run)))
    first, second = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    row = 0
    while row < n:
        # at least one circle per chunk: a chunk holds at most max(n, _PAIR_CHUNK) pairs
        limit = ends[row] + _PAIR_CHUNK
        stop = max(row + 1, int(np.searchsorted(ends, limit, side="right")) - 1)
        counts = run[row:stop]
        rows = np.arange(row, stop)
        a = np.repeat(rows, counts)
        # the k-th candidate of the chunk pairs circle a with a + 1 + (k - ends[a] + ends[row])
        b = np.arange(len(a)) + np.repeat(rows + 1 - ends[row:stop] + ends[row], counts)
        keep = (ylo[b] <= np.repeat(yhi[row:stop], counts)) & (
            np.repeat(ylo[row:stop], counts) <= yhi[b])
        first.append(order[a[keep]])
        second.append(order[b[keep]])
        row = stop
    return np.concatenate(first), np.concatenate(second)


def _certify(container, diameter, k, circles, tolerance, expected_areas):
    """The circle-circle, circle-in-container and leaf-multiset groups, and the
    tolerance in the frame."""
    centers, radii, labels = circles
    pi, pj = _circle_pairs(centers, radii)
    pair_slacks = np.linalg.norm(centers[pi] - centers[pj], axis=-1) - (radii[pi] + radii[pj])
    if tolerance is None:
        tolerance = DEFAULT_REL_TOLERANCE * diameter
        smaller = np.minimum(radii[pi], radii[pj])
        floor = PAIR_TOLERANCE_FLOOR_EPS * np.finfo(float).eps * diameter
        pair_tolerance = np.minimum(tolerance, np.maximum(DEFAULT_REL_TOLERANCE * smaller, floor))
    else:
        pair_tolerance = tolerance = float(_framed(tolerance, k))

    @cache
    def circle_ids():
        return [f"circle:{label}" for label in labels.tolist()]

    def pair_ids():
        ids = circle_ids()
        return [tuple(sorted((ids[i], ids[j]))) for i, j in zip(pi, pj)]

    groups = [
        (CheckKind.CIRCLE_CIRCLE, pair_ids, pair_slacks, pair_tolerance),
        (CheckKind.CIRCLE_IN_CONTAINER, lambda: [(i, "container") for i in circle_ids()],
         _point_tri_set_distance(*centers.T[:, None], container)[0] - radii, tolerance),
    ]
    if expected_areas is not None:
        want = _framed([float(a) for a in expected_areas], 2 * k)
        matched = bool(np.all(want > 0.0)) and sorted(radii.tolist()) == sorted(
            np.sqrt(want / math.pi).tolist()
        )
        # a slack of 0 or -inf, judged at 0 under any tolerance, even one infinite in the frame
        groups.append((CheckKind.LEAF_MULTISET, lambda: [("leaves", "declared-input")],
                       np.array([0.0 if matched else -math.inf]), 0.0))
    return groups, tolerance


def _hat_diagnostics(container, hat_columns, tolerance):
    """The hat-in-parent and hat-hat-disjoint groups. The depths decode into each
    hat's parent (the latest earlier hat one level up; -1 for the container), its
    position among its siblings, which extends the parent's id ("hat:0" is the
    container) to its own, and its sibling pairs: hat pb with each earlier sibling pa."""
    depth, vertices, rounding = hat_columns
    m, hat = len(depth), np.arange(len(depth))
    # a parent is the predecessor of (depth - 1, hat) among the sorted (depth, hat) keys
    keys = np.sort(depth * (m + 1) + hat)
    above = keys[np.searchsorted(keys, (depth - 1) * (m + 1) + hat) - 1] % (m + 1)
    parent_of = np.where(depth > 1, above, -1)
    family = np.argsort(parent_of, kind="stable")  # each family together, in record order
    start = np.searchsorted(parent_of[family], parent_of)  # its family's first slot
    positions = np.empty(m, dtype=np.intp)
    positions[family] = hat - start[family]
    pb = np.repeat(hat, positions)  # each hat once per earlier sibling
    # the k-th pair is hat pb[k] with family[k + start - (pairs before pb[k])]
    offset = start - np.cumsum(positions) + positions
    pa = family[np.arange(len(pb)) + np.repeat(offset, positions)]
    _, x, y, radii = _hat_shape(vertices[0], vertices[1], rounding)
    hats = _edge_table(x, y)

    @cache
    def hat_ids():
        ids: list[str] = []
        for parent, position in zip(parent_of.tolist(), positions.tolist()):
            ids.append(f"{ids[parent] if parent >= 0 else 'hat:0'}.{position}")
        return ids

    # hat-in-parent: the container's children in it, the others in slices
    # of at most _PAIR_CHUNK corners (sibling pairs below are sliced alike)
    depths = np.empty(hats.shape[1:])
    in_root = parent_of < 0
    root_x, root_y = np.compress(in_root, hats[:2], axis=-1)
    depths[:, in_root] = _point_tri_set_distance(root_x, root_y, container)
    in_hat = np.nonzero(~in_root)[0]
    step = max(1, _PAIR_CHUNK // 3)
    for begin in range(0, len(in_hat), step):
        rows = in_hat[begin : begin + step]
        parents = parent_of[rows]
        x, y = np.take(hats[:2], rows, axis=-1)
        signed = _point_tri_set_distance(x, y, np.take(hats, parents, axis=-1))
        depths[:, rows] = signed + radii[parents]

    def in_parent_ids():
        ids = hat_ids()
        return [(ids[c], ids[p] if p >= 0 else "container") for c, p in enumerate(parent_of.tolist())]

    # hat-hat-disjoint (siblings)
    sibling_slacks = np.empty(len(pa))
    for begin in range(0, len(pa), step):
        a, b = pa[begin : begin + step], pb[begin : begin + step]
        dists = _tri_pair_distance(np.take(hats, a, axis=-1), np.take(hats, b, axis=-1))
        sibling_slacks[begin : begin + step] = dists - (radii[a] + radii[b])

    def sibling_ids():
        ids = hat_ids()
        return [(ids[i], ids[j]) for i, j in zip(pa, pb)]

    return [(CheckKind.HAT_IN_PARENT, in_parent_ids, (depths - radii).min(axis=0), tolerance),
            (CheckKind.HAT_HAT_DISJOINT, sibling_ids, sibling_slacks, tolerance)]


def verify(packing, tolerance: Optional[float] = None,
           expected_areas: Optional[Sequence[float]] = None) -> VerificationReport:
    """Check a packing record for containment and pairwise disjointness.

    ``packing`` is a :class:`splitpack.packer.Packing` (anything with its
    columns will do). Evaluates, with signed slack per check, the circle
    certificate:

    * circle-circle: center distance minus the radius sum, for every pair
      whose bounding boxes overlap or touch (the other pairs are disjoint);
    * circle-in-container: containment depth of each circle in the container;
    * leaf-multiset: when ``expected_areas`` is given, the circles' radii
      against the radii ``sqrt(a / pi)`` of those areas, as multisets
      (exact equality, the radius rule of :func:`splitpack.pack`);

    and the hat diagnostics:

    * hat-in-parent: for each hat, the worst of its three corner disks
      against the parent shape;
    * hat-hat-disjoint: distance between sibling hats' eroded triangles
      minus the sum of their rounding radii.

    Each kind is one group of checks with its own tolerance, one value or one
    per check; a check fails when its slack is below minus its tolerance. An
    explicit ``tolerance`` (finite and non-negative, else
    :class:`InvalidParameterError`) applies to every check. By default it is
    1e-9 times the container diameter, and each circle pair is judged at
    ``min(tolerance, max(1e-9 * smaller radius, 64 * eps * diameter))``, so
    tiny circles cannot overlap by more than a share of their own size.
    Leaf-multiset is judged exactly, whatever the tolerance. The report
    passes iff no check fails; its ``checks`` list every check, its
    ``failures`` every failed one. A record that is not well formed
    (non-positive radii, negative rounding, hat depths that are not a preorder,
    input indices that are not a permutation of 0..n-1, so that a circle is
    lost or duplicated, or a number beyond MAX_FRAME_MAGNITUDE in the
    container's frame) raises :class:`MalformedTreeError`. Checks are judged
    in that frame (:func:`geometry.frame`) and reported in the record's units;
    an explicit tolerance is reported as given.
    """
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise InvalidParameterError(f"tolerance must be finite and non-negative, got {tolerance!r}")
    k, diameter, container, circles, hat_columns = _read(packing)
    certificate, framed = _certify(container, diameter, k, circles, tolerance, expected_areas)
    groups = certificate + _hat_diagnostics(container, hat_columns, framed)

    # judged in the frame, reported in the record's units
    failing = []
    for kind, ids_fn, slacks, tol in groups:
        bad = np.nonzero(slacks < -tol)[0]
        slacks[:] = _framed(slacks, -k)
        if len(bad):
            ids = ids_fn()
            failing.append((kind, [ids[i] for i in bad], slacks[bad]))

    return VerificationReport(
        passed=not failing,
        worst_slack=float(min(s.min(initial=math.inf) for _, _, s, _ in groups)),
        tolerance=float(_framed(framed, -k) if tolerance is None else tolerance),
        check_count=sum(len(s) for _, _, s, _ in groups),
        failures=_sorted_checks(failing),
        _groups=groups,
    )
