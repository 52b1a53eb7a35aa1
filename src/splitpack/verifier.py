"""Independent numeric validation of packing records.

Containment and disjointness are established from primitive geometry only:
point/segment distances, separating axes and inward erosions of triangles.
None of the packer's placement formulas or hat measurements are reused, so a
passing report is an independent certificate. Checks are evaluated in bulk
with numpy; the scalar reference semantics they are tested against live in
the test suite's ``tests/reference_geometry.py``.

A hat equals the convex hull of three disks of its rounding radius centered
on its eroded corners, so

* hat-in-convex-parent containment is exact via the three corner disks, and
* two hats are disjoint iff their eroded triangles are at least the sum of
  the rounding radii apart.

The hat checks index one edge table per verify, built once from the eroded
triangles: corner x and y, edge vectors and edge lengths. Each distance is
computed only where the result uses it. A point's Euclidean distance to a
triangle is computed only where the point lies outside the side lines.
Sibling hats follow one rule: where the separating-axis gap of their eroded
triangles is negative, it is their distance (minus the penetration depth);
only elsewhere is the smallest vertex-to-edge distance over both computed.

Circle pairs are found by a sort-and-sweep over bounding boxes, and only
pairs whose boxes overlap or touch are evaluated: O(n) of them on a packing,
not all n(n-1)/2. A pair left out has a positive gap between its circles'
boxes along x or y, so its circles are disjoint and every pair that could
fail is evaluated.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import InvalidParameterError, MalformedTreeError
from .geometry import Square, Triangle

# Reports keep at most this many individual check entries; failures are
# always retained.
MAX_RECORDED_CHECKS = 2_000_000

DEFAULT_REL_TOLERANCE = 1e-9

# Under the default tolerance a circle pair is judged at no more than
# DEFAULT_REL_TOLERANCE of its smaller radius, but never below this many
# float64 epsilons of the container diameter (coordinate rounding).
PAIR_TOLERANCE_FLOOR_EPS = 64

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
    slack >= -tolerance, except that circle pairs judged under the default
    tolerance use their own, tighter one (see :func:`verify`). Slack is
    signed, so exactly tangent configurations report ~0. ``checks``
    materializes lazily (sorted by kind and ids) and is truncated to
    MAX_RECORDED_CHECKS entries for very large packings; ``failures`` always
    lists every violated check.
    """

    passed: bool
    worst_slack: float
    tolerance: float
    check_count: int
    failures: list[Check] = field(default_factory=list)
    _groups: list = field(default_factory=list, repr=False)

    @cached_property
    def checks(self) -> list[Check]:
        out: list[Check] = []
        for kind, ids_fn, slacks, _ in self._groups:
            if len(out) >= MAX_RECORDED_CHECKS:
                break
            ids = ids_fn()
            out.extend(
                Check(kind, tuple(i), float(s))
                for i, s in zip(ids, slacks[: MAX_RECORDED_CHECKS - len(out)])
            )
        out.sort(key=lambda c: (c.kind.value, c.ids))
        return out

    def summary(self) -> str:
        lines = [
            f"{'PASS' if self.passed else 'FAIL'}: {self.check_count} checks, "
            f"worst slack {self.worst_slack:.3e}, tolerance {self.tolerance:.3e}"
        ]
        for check in self.failures:
            lines.append(f"  {check.kind.value} {' '.join(check.ids)}: slack {check.slack:.3e}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# numpy kernels on an edge table
# ---------------------------------------------------------------------------

_NEXT = [1, 2, 0]


def _edge_table(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (5, 3, m) edge table of triangles with corners (x, y), each (3, m):
    corner x and y, edge vectors ex and ey (edge i runs from corner i to the
    next) and edge lengths. The triangle index is last, so numpy's inner
    loops run along it; ``np.take(table, rows, axis=-1)`` keeps it so."""
    ex, ey = x[_NEXT] - x, y[_NEXT] - y
    return np.stack((x, y, ex, ey, np.sqrt(ex * ex + ey * ey)))


def _nearest_edge_sq(px: np.ndarray, py: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Smallest squared distance (k,) from points (c, k) to the edges of triangles (5, 3, k)."""
    ax, ay, ex, ey, _ = tris[:, None]
    px, py = px[:, None], py[:, None]
    denom = ex * ex + ey * ey
    point = denom == 0.0
    t = ((px - ax) * ex + (py - ay) * ey) / np.where(point, 1.0, denom)
    t = np.where(point, 0.0, np.clip(t, 0.0, 1.0))
    dx, dy = px - (ax + t * ex), py - (ay + t * ey)
    return (dx * dx + dy * dy).min(axis=(0, 1))


def _point_tri_set_distance(px: np.ndarray, py: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Signed set distance of points (c, k) to CCW triangles (5, 3, k), column by column.

    Inside, the inward depth to the nearest side line; outside, minus the
    Euclidean distance to the nearest edge, computed only at the points that
    are outside. A zero-length edge leaves its triangle no inside (its side
    line is -inf), so every point takes the Euclidean distance there.
    """
    x, y, ex, ey, length = tris[:, None]
    cross = ex * (py[:, None] - y) - ey * (px[:, None] - x)
    line = np.divide(cross, length, out=np.full(cross.shape, -np.inf), where=length > 0.0).min(axis=1)
    outside = np.nonzero(line < 0.0)
    if len(outside[0]):
        sq = _nearest_edge_sq(px[outside][None], py[outside][None], np.take(tris, outside[1], axis=-1))
        line[outside] = -np.sqrt(sq)
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
        dist[apart] = np.sqrt(np.minimum(_nearest_edge_sq(b[0], b[1], a), _nearest_edge_sq(a[0], a[1], b)))
    return dist


def _square_signed_np(px: np.ndarray, py: np.ndarray, side: float) -> np.ndarray:
    """Signed set distance to the square [0, side]^2 (positive inside)."""
    ax = np.maximum(-px, px - side)
    ay = np.maximum(-py, py - side)
    inside_depth = -np.maximum(ax, ay)
    outside = np.hypot(np.maximum(ax, 0.0), np.maximum(ay, 0.0))
    return np.where((ax <= 0.0) & (ay <= 0.0), inside_depth, -outside)


def _erode(x: np.ndarray, y: np.ndarray, rounding: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(edge table, radii) of triangles (3, m) made counterclockwise and shrunk
    inward by their rounding clamped to the inradius (a rounding past it, as
    rounding noise in the vertices of tiny hats leaves, makes the hat its
    incircle). Shrinking is the homothety about the incenter; a degenerate
    triangle has inradius 0 and stays as it is."""
    doubled = (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])
    clockwise = doubled < 0.0
    x, y = np.where(clockwise, x[[0, 2, 1]], x), np.where(clockwise, y[[0, 2, 1]], y)
    area2 = np.abs(doubled)
    sides = _edge_table(x, y)[4]
    perimeter = sides.sum(axis=0)
    inradius = area2 / np.where(area2 > 0.0, perimeter, 1.0)
    radii = np.minimum(rounding, inradius)
    weights = sides[_NEXT]  # opposite side length per corner
    divisor = np.where(perimeter > 0.0, perimeter, 1.0)
    cx, cy = (weights * x).sum(axis=0) / divisor, (weights * y).sum(axis=0) / divisor
    positive = inradius > 0.0
    k = np.where(positive, (inradius - radii) / np.where(positive, inradius, 1.0), 1.0)
    return _edge_table(cx + k * (x - cx), cy + k * (y - cy)), radii


# ---------------------------------------------------------------------------
# Record columns
# ---------------------------------------------------------------------------

class _Columns:
    """numpy views of a packing record's columns, checked for well-formedness.

    One preorder pass over the hat depths derives each hat's parent (the
    latest earlier hat one level up; -1 for the container), its position
    among that parent's children and its sibling pairs (``siblings``, each
    earlier child of its parent with it). Each hat is eroded once, by its
    rounding clamped to its inradius, into the edge table ``hats`` that every
    hat check indexes. Check ids come lazily, from a hat's parent and
    position or a circle's input index.
    """

    def __init__(self, packing):
        self.container = packing.container
        if isinstance(self.container, Square):
            self.diameter = self.container.side * math.sqrt(2.0)
        elif isinstance(self.container, Triangle):
            self.diameter = max(self.container.side_lengths)
        else:
            raise MalformedTreeError("the container must be a square or a triangle")
        n, m = len(packing.radius), len(packing.hat_rounding)
        if not (len(packing.x) == len(packing.y) == len(packing.input_index) == n
                and len(packing.hat_vertices) == 6 * m and len(packing.hat_depth) == m):
            raise MalformedTreeError("the record's columns differ in length")
        self.centers = np.column_stack(
            (np.asarray(packing.x, dtype=float), np.asarray(packing.y, dtype=float))
        )
        self.radii = np.asarray(packing.radius, dtype=float)
        self._labels = np.asarray(packing.input_index)
        if not np.array_equal(np.sort(self._labels), np.arange(n)):
            raise MalformedTreeError("the circles' input indices must be 0..n-1, each once")
        if not (np.all(np.isfinite(self.centers)) and np.all(self.radii > 0.0)
                and np.all(np.isfinite(self.radii))):
            raise MalformedTreeError("circles need finite centers and positive radii")

        chain = [(-1, [])]  # the next hat's open ancestors, each with its children so far
        parents, self._positions, first, second = [], [], [], []
        for hat, depth in enumerate(packing.hat_depth):
            if not 0 < depth <= len(chain):
                raise MalformedTreeError("hat depths must be >= 1 and rise by at most one per hat")
            del chain[depth:]
            parent, siblings = chain[-1]
            parents.append(parent)
            self._positions.append(len(siblings))
            first += siblings
            second += [hat] * len(siblings)
            siblings.append(hat)
            chain.append((hat, []))
        self.hat_parent = np.array(parents, dtype=np.intp)
        self.siblings = (np.array(first, dtype=np.intp), np.array(second, dtype=np.intp))

        vertices = np.asarray(packing.hat_vertices, dtype=float).reshape(m, 3, 2).T
        rounding = np.asarray(packing.hat_rounding, dtype=float)
        if not (np.all(np.isfinite(vertices)) and np.all(rounding >= 0.0)
                and np.all(np.isfinite(rounding))):
            raise MalformedTreeError("hats need finite vertices and non-negative rounding")
        self.hats, self.hat_radii = _erode(vertices[0], vertices[1], rounding)
        if isinstance(self.container, Triangle):
            corners = np.array(self.container.vertices, dtype=float)[:, :, None]
            self._container = _edge_table(corners[:, 0], corners[:, 1])

    @cached_property
    def circle_ids(self) -> list[str]:
        return [f"circle:{label}" for label in self._labels.tolist()]

    @cached_property
    def hat_ids(self) -> list[str]:
        """"hat:0" is the container; a hat's id extends its parent's by its position."""
        ids: list[str] = []
        for parent, position in zip(self.hat_parent.tolist(), self._positions):
            ids.append(f"{ids[parent] if parent >= 0 else 'hat:0'}.{position}")
        return ids

    def container_signed_distance(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        if isinstance(self.container, Square):
            return _square_signed_np(px, py, self.container.side)
        tris = np.broadcast_to(self._container, (5, 3, px.size))
        depth = _point_tri_set_distance(px.reshape(1, -1), py.reshape(1, -1), tris)
        return depth.reshape(px.shape)


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
            np.repeat(ylo[row:stop], counts) <= yhi[b]
        )
        first.append(order[a[keep]])
        second.append(order[b[keep]])
        row = stop
    return np.concatenate(first), np.concatenate(second)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def verify(
    packing,
    tolerance: Optional[float] = None,
    expected_areas: Optional[Sequence[float]] = None,
) -> VerificationReport:
    """Check a packing record for containment and pairwise disjointness.

    ``packing`` is a :class:`splitpack.packer.Packing` (anything with its
    columns will do). Evaluates, with signed slack per check:

    * circle-circle: center distance minus the radius sum, for every pair
      whose bounding boxes overlap or touch (found by a sort-and-sweep; the
      other pairs are disjoint, with a positive gap along x or y);
    * circle-in-container: containment depth of each circle in the container;
    * hat-in-parent: for each hat, the worst of its three corner disks
      against the parent shape (exact, since a hat is the convex hull of its
      corner disks);
    * hat-hat-disjoint: distance between sibling hats' eroded triangles
      minus the sum of their rounding radii;
    * leaf-multiset: when ``expected_areas`` is given, the circles' radii
      against the radii ``sqrt(a / pi)`` of those areas, as multisets
      (exact equality, the radius rule of :func:`splitpack.pack`).

    Each kind is one group of checks with its own tolerance, one value or one
    per check; a check fails when its slack is below minus its tolerance. An
    explicit ``tolerance`` (finite and non-negative, else
    :class:`InvalidParameterError`) applies to every check. By default it is
    1e-9 times the container diameter, and each circle pair is judged at
    ``min(tolerance, max(1e-9 * smaller radius, 64 * eps * diameter))``, so
    tiny circles cannot overlap by more than a share of their own size. The
    report passes iff no check fails. A record that is not well formed
    (non-positive radii, negative rounding, hat depths that are not a preorder,
    input indices that are not a permutation of 0..n-1, so that a circle is
    lost or duplicated) raises :class:`MalformedTreeError`.
    """
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise InvalidParameterError(f"tolerance must be finite and non-negative, got {tolerance!r}")
    index = _Columns(packing)

    # circle-circle
    pi, pj = _circle_pairs(index.centers, index.radii)
    dists = np.linalg.norm(index.centers[pi] - index.centers[pj], axis=-1)
    pair_slacks = dists - (index.radii[pi] + index.radii[pj])
    pair_tolerance = tolerance
    if tolerance is None:
        tolerance = DEFAULT_REL_TOLERANCE * index.diameter
        smaller = np.minimum(index.radii[pi], index.radii[pj])
        floor = PAIR_TOLERANCE_FLOOR_EPS * np.finfo(float).eps * index.diameter
        pair_tolerance = np.minimum(tolerance, np.maximum(DEFAULT_REL_TOLERANCE * smaller, floor))

    def pair_ids():
        ids = index.circle_ids
        return [tuple(sorted((ids[i], ids[j]))) for i, j in zip(pi, pj)]

    # hat-in-parent: the container's children in it, the others in slices
    # of at most _PAIR_CHUNK corners (sibling pairs below are sliced alike)
    parent_of, hats, radii = index.hat_parent, index.hats, index.hat_radii
    depths = np.empty(hats.shape[1:])
    in_root = parent_of < 0
    root_x, root_y = np.compress(in_root, hats[:2], axis=-1)
    depths[:, in_root] = index.container_signed_distance(root_x, root_y)
    in_hat = np.nonzero(~in_root)[0]
    step = max(1, _PAIR_CHUNK // 3)
    for start in range(0, len(in_hat), step):
        rows = in_hat[start : start + step]
        parents = parent_of[rows]
        x, y = np.take(hats[:2], rows, axis=-1)
        signed = _point_tri_set_distance(x, y, np.take(hats, parents, axis=-1))
        depths[:, rows] = signed + radii[parents]
    in_parent_slacks = (depths - radii).min(axis=0)

    def in_parent_ids():
        ids = index.hat_ids
        return [(ids[c], ids[p] if p >= 0 else "container") for c, p in enumerate(parent_of.tolist())]

    # hat-hat-disjoint (siblings)
    pa, pb = index.siblings
    sibling_slacks = np.empty(len(pa))
    for start in range(0, len(pa), step):
        a, b = pa[start : start + step], pb[start : start + step]
        dists = _tri_pair_distance(np.take(hats, a, axis=-1), np.take(hats, b, axis=-1))
        sibling_slacks[start : start + step] = dists - (radii[a] + radii[b])

    def sibling_ids():
        ids = index.hat_ids
        return [(ids[i], ids[j]) for i, j in zip(pa, pb)]

    groups: list[tuple[CheckKind, Callable[[], list], np.ndarray, Union[float, np.ndarray]]] = [
        (CheckKind.CIRCLE_CIRCLE, pair_ids, pair_slacks, pair_tolerance),
        (CheckKind.CIRCLE_IN_CONTAINER, lambda: [(i, "container") for i in index.circle_ids],
         index.container_signed_distance(index.centers[:, 0], index.centers[:, 1]) - index.radii,
         tolerance),
        (CheckKind.HAT_IN_PARENT, in_parent_ids, in_parent_slacks, tolerance),
        (CheckKind.HAT_HAT_DISJOINT, sibling_ids, sibling_slacks, tolerance),
    ]
    if expected_areas is not None:
        want = [float(a) for a in expected_areas]
        matched = all(a > 0.0 for a in want) and sorted(index.radii.tolist()) == sorted(
            math.sqrt(a / math.pi) for a in want
        )
        groups.append((CheckKind.LEAF_MULTISET, lambda: [("leaves", "declared-input")],
                       np.array([0.0 if matched else -math.inf]), tolerance))

    failures: list[Check] = []
    for kind, ids_fn, slacks, tol in groups:
        bad = np.nonzero(slacks < -tol)[0]
        if len(bad):
            ids = ids_fn()
            failures.extend(Check(kind, tuple(ids[i]), float(slacks[i])) for i in bad)
    failures.sort(key=lambda c: (c.kind.value, c.ids))

    return VerificationReport(
        passed=not failures,
        worst_slack=float(min(s.min(initial=math.inf) for _, _, s, _ in groups)),
        tolerance=tolerance,
        check_count=sum(len(s) for _, _, s, _ in groups),
        failures=failures,
        _groups=groups,
    )
