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

Sibling hats follow one rule: where the separating-axis gap of the eroded
triangles is negative, it is their distance (minus the penetration depth);
otherwise their distance is the smallest vertex-to-edge distance over both
triangles.

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
# this many at a time, which bounds the working memory when many circles
# share an x-range and on packings with many hats.
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
# numpy primitives
# ---------------------------------------------------------------------------

def _point_segment_np(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances from points to segments, all arrays shaped (..., 2)."""
    ab = b - a
    denom = np.einsum("...i,...i->...", ab, ab)
    t = np.einsum("...i,...i->...", p - a, ab) / np.where(denom == 0.0, 1.0, denom)
    t = np.where(denom == 0.0, 0.0, np.clip(t, 0.0, 1.0))
    proj = a + t[..., None] * ab
    return np.linalg.norm(p - proj, axis=-1)


def _cross_np(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _tri_edges(tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge start/end arrays (..., 3, 2) for triangle arrays (..., 3, 2)."""
    return tris, np.roll(tris, -1, axis=-2)


def _tri_line_signed_np(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Min inward side-line distance of points (k,2) to CCW triangles (k,3,2)."""
    a, b = _tri_edges(tris)
    edge = b - a
    length = np.linalg.norm(edge, axis=-1)
    rel = points[:, None, :] - a
    d = _cross_np(edge, rel) / length
    return d.min(axis=-1)


def _point_tri_set_distance_np(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Signed set distance: inward depth inside, minus Euclidean distance outside."""
    line = _tri_line_signed_np(points, tris)
    a, b = _tri_edges(tris)
    outside = _point_segment_np(points[:, None, :], a, b).min(axis=-1)
    return np.where(line >= 0.0, line, -outside)


def _sat_separation_np(ea: np.ndarray, eb: np.ndarray) -> np.ndarray:
    """Signed separation of CCW triangle pairs along their edge-normal axes.

    For intersecting convex polygons the maximum signed gap over both
    polygons' edge normals equals minus the penetration depth exactly (the
    minimal translation vector is normal to an edge); for disjoint ones it is
    a lower bound of the distance. Degenerate (zero-length) edges contribute
    no axis; 0 is returned when no axis exists.
    """
    best = np.full(len(ea), -np.inf)
    for first, second in ((ea, eb), (eb, ea)):
        edges = np.roll(first, -1, axis=1) - first  # (m, 3, 2)
        lengths = np.linalg.norm(edges, axis=-1)
        valid = lengths > 0.0
        inv = np.where(valid, 1.0 / np.where(valid, lengths, 1.0), 0.0)
        nx = edges[..., 1] * inv  # outward normal for CCW
        ny = -edges[..., 0] * inv
        proj = nx[..., None] * (second[:, None, :, 0] - first[..., 0:1]) + ny[..., None] * (
            second[:, None, :, 1] - first[..., 1:2]
        )  # (m, 3 axes, 3 vertices)
        gap = np.where(valid, proj.min(axis=-1), -np.inf)
        best = np.maximum(best, gap.max(axis=1))
    return np.where(np.isfinite(best), best, 0.0)


def _tri_pair_distance_np(ea: np.ndarray, eb: np.ndarray) -> np.ndarray:
    """Signed distance between CCW triangle pairs (k,3,2), negative if they overlap.

    Where the separating-axis gap is negative it is minus the penetration
    depth and is returned as is. Otherwise the triangles are disjoint or
    touch, and their distance is the smallest vertex-to-edge distance over
    both triangles. A triangle shrunk to a point has no axis and a gap of 0,
    so a pair of points falls through to the vertex test.
    """
    sat = _sat_separation_np(ea, eb)
    dist = np.full(len(ea), np.inf)
    for verts, tris in ((eb, ea), (ea, eb)):
        a, b = _tri_edges(tris)
        # (k, 3 edges, 3 vertices)
        d = _point_segment_np(verts[:, None, :, :], a[:, :, None, :], b[:, :, None, :])
        dist = np.minimum(dist, d.min(axis=(1, 2)))
    return np.where(sat >= 0.0, dist, sat)


def _square_signed_np(points: np.ndarray, side: float) -> np.ndarray:
    """Signed set distance to the square [0, side]^2 (positive inside)."""
    ax = np.maximum(-points[:, 0], points[:, 0] - side)
    ay = np.maximum(-points[:, 1], points[:, 1] - side)
    inside_depth = -np.maximum(ax, ay)
    outside = np.hypot(np.maximum(ax, 0.0), np.maximum(ay, 0.0))
    return np.where((ax <= 0.0) & (ay <= 0.0), inside_depth, -outside)


def _erode_tris(tris: np.ndarray, rounding: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eroded triangles, radii): each triangle shrunk inward by its rounding,
    clamped to its inradius, and the clamped rounding. Shrinking is the
    homothety about the incenter; a degenerate triangle has inradius 0 and
    stays as it is."""
    sides = np.linalg.norm(np.roll(tris, -1, axis=1) - tris, axis=-1)
    perimeter = sides.sum(axis=1)
    area2 = np.abs(_cross_np(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]))
    inradius = area2 / np.where(area2 > 0.0, perimeter, 1.0)
    radii = np.minimum(rounding, inradius)
    weights = np.roll(sides, -1, axis=1)  # opposite side length per vertex
    incenter = (weights[..., None] * tris).sum(axis=1) / np.where(perimeter > 0.0, perimeter, 1.0)[:, None]
    positive = inradius > 0.0
    k = np.where(positive, (inradius - radii) / np.where(positive, inradius, 1.0), 1.0)
    return incenter[:, None, :] + k[:, None, None] * (tris - incenter[:, None, :]), radii


# ---------------------------------------------------------------------------
# Record columns
# ---------------------------------------------------------------------------

class _Columns:
    """numpy views of a packing record's columns, checked for well-formedness.

    One preorder pass over the hat depths derives each hat's parent (the
    latest earlier hat one level up; -1 for the container), its position
    among that parent's children and its sibling pairs (``siblings``, each
    earlier child of its parent with it). Each hat is eroded once, by its
    rounding clamped to its inradius. Check ids come lazily, from a hat's
    parent and position or a circle's input index.
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

        tris = np.asarray(packing.hat_vertices, dtype=float).reshape(m, 3, 2)
        rounding = np.asarray(packing.hat_rounding, dtype=float)
        if not (np.all(np.isfinite(tris)) and np.all(rounding >= 0.0)
                and np.all(np.isfinite(rounding))):
            raise MalformedTreeError("hats need finite vertices and non-negative rounding")
        # counterclockwise, and rounded by at most the inradius (a rounding
        # past it, as rounding noise in the vertices of tiny hats leaves,
        # makes the hat its incircle)
        doubled = _cross_np(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
        tris = np.where((doubled < 0.0)[:, None, None], tris[:, [0, 2, 1]], tris)
        self.eroded, self.hat_radii = _erode_tris(tris, rounding)
        if isinstance(self.container, Triangle):
            self._container_tri = np.array([self.container.vertices], dtype=float)

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

    def container_signed_distance(self, points: np.ndarray) -> np.ndarray:
        if isinstance(self.container, Square):
            return _square_signed_np(points, self.container.side)
        tris = np.broadcast_to(self._container_tri, (len(points), 3, 2))
        return _point_tri_set_distance_np(points, tris)


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
    parent_of = index.hat_parent
    corners = index.eroded.reshape(-1, 2)  # (3m, 2)
    depths = np.empty(len(corners))
    in_root = np.repeat(parent_of < 0, 3)
    depths[in_root] = index.container_signed_distance(corners[in_root])
    in_hat = np.nonzero(~in_root)[0]
    corner_parent = np.repeat(parent_of, 3)
    for start in range(0, len(in_hat), _PAIR_CHUNK):
        rows = in_hat[start : start + _PAIR_CHUNK]
        pidx = corner_parent[rows]
        depths[rows] = _point_tri_set_distance_np(corners[rows], index.eroded[pidx]) + index.hat_radii[pidx]
    in_parent_slacks = (depths - np.repeat(index.hat_radii, 3)).reshape(-1, 3).min(axis=1)

    def in_parent_ids():
        ids = index.hat_ids
        return [(ids[c], ids[p] if p >= 0 else "container") for c, p in enumerate(parent_of.tolist())]

    # hat-hat-disjoint (siblings)
    pa, pb = index.siblings
    dists = _tri_pair_distance_np(index.eroded[pa], index.eroded[pb])
    sibling_slacks = dists - (index.hat_radii[pa] + index.hat_radii[pb])

    def sibling_ids():
        ids = index.hat_ids
        return [(ids[i], ids[j]) for i, j in zip(pa, pb)]

    groups: list[tuple[CheckKind, Callable[[], list], np.ndarray, Union[float, np.ndarray]]] = [
        (CheckKind.CIRCLE_CIRCLE, pair_ids, pair_slacks, pair_tolerance),
        (CheckKind.CIRCLE_IN_CONTAINER, lambda: [(i, "container") for i in index.circle_ids],
         index.container_signed_distance(index.centers) - index.radii, tolerance),
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
