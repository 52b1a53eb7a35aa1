"""Tests for the independent packing verifier."""

import json
import math
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import splitpack as sp
from splitpack import (
    PHI_SQUARE,
    CheckKind,
    Circle,
    CircleSet,
    DocumentError,
    MalformedTreeError,
    PackRequest,
    Packing,
    PackingDocument,
    Point,
    Square,
    Triangle,
    pack,
    verify,
)
from splitpack import cli, verifier
from splitpack.geometry import frame
from splitpack.verifier import (
    _circle_pairs,
    _container_signed_distance,
    _edge_table,
    _hat_shape,
    _point_tri_set_distance,
    _read,
    _tri_pair_distance,
)
from conftest import (
    child_hats,
    parse_packing,
    placement,
    random_areas,
    random_container,
    random_feasible_instance,
    random_non_acute_triangle,
    report_outcome,
    subcontainer,
)
from test_golden import CONTAINERS as GOLDEN_CONTAINERS, corpus_areas
from reference_geometry import (
    Hat,
    all_pairs_circle_slacks,
    altitude_halves,
    convex_polygon_distance,
    hat_shapes,
    point_segment_distance,
    preorder_tree_ids,
    signed_distance,
    triangle_incircle,
)

SQRT2 = math.sqrt(2.0)


def projection_widths(circle1: Circle, circle2: Circle, base: tuple) -> tuple[float, float]:
    """Extents of two corner circles projected onto the base segment.

    The first extent is measured from the base's start point to the far edge
    of circle1's projection, the second from the base's end point back to the
    far edge of circle2's projection. The projections are disjoint iff the
    extents sum to at most the base length.
    """
    (p, q) = base
    px, py = float(p[0]), float(p[1])
    qx, qy = float(q[0]), float(q[1])
    length = math.hypot(qx - px, qy - py)
    ux, uy = (qx - px) / length, (qy - py) / length
    e1 = (circle1.center.x - px) * ux + (circle1.center.y - py) * uy + circle1.radius
    e2 = (qx - circle2.center.x) * ux + (qy - circle2.center.y) * uy + circle2.radius
    return (e1, e2)


def boxes_meet(centers: np.ndarray, radii: np.ndarray, iu, ju) -> np.ndarray:
    """Pairs whose bounding boxes, ends rounded outward, overlap or touch."""
    lo = np.nextafter(centers - radii[:, None], -np.inf)
    hi = np.nextafter(centers + radii[:, None], np.inf)
    return np.all((lo[iu] <= hi[ju]) & (lo[ju] <= hi[iu]), axis=1)


def framed_circles(root):
    """(k, centers, radii, circle ids) of a record, as verify reads it in its container's frame."""
    k, _, _, (centers, radii, labels), _ = _read(root)
    return k, centers, radii, [f"circle:{label}" for label in labels.tolist()]


def default_pair_tolerance(container, ri, rj):
    """The documented default circle-pair tolerance, written out independently."""
    if isinstance(container, Square):
        diameter = container.side * SQRT2
    else:
        diameter = max(container.side_lengths)
    floor = 64 * np.finfo(float).eps * diameter
    return np.minimum(1e-9 * diameter, np.maximum(1e-9 * np.minimum(ri, rj), floor))


SQUARE = {"type": "square", "side": 1.0}


def tri_dict(tri: Triangle) -> dict:
    return {"type": "triangle", "vertices": [list(p) for p in tri.vertices]}


def move_circle(packing: Packing, k: int, center: Point) -> None:
    packing.x[k], packing.y[k] = center


def hand_built_tree(depths) -> Packing:
    """A record in the unit square whose hats have the given preorder depths,
    each the same small triangle, unrounded."""
    record = Packing(Square(1.0), hat_depth=array("q", depths))
    for _ in depths:
        record.hat_vertices.extend((0.1, 0.1, 0.3, 0.1, 0.1, 0.3))
        record.hat_rounding.append(0.0)
    return record


def twincircle_tree() -> tuple[Packing, list[float]]:
    areas = [PHI_SQUARE / 2.0, PHI_SQUARE / 2.0]
    return pack(PackRequest(Square(1.0), CircleSet.from_areas(areas))), areas


class TestVerify:
    def test_worst_case_is_tight_and_passes(self):
        root, areas = twincircle_tree()
        report = verify(root, tolerance=1e-9, expected_areas=areas)
        assert report.passed
        assert -1e-9 <= report.worst_slack <= 1e-9

    def test_inflated_radius_fails_circle_circle(self):
        root, areas = twincircle_tree()
        root.radius[0] *= 1.0 + 1e-6
        report = verify(root, tolerance=1e-9)
        assert not report.passed
        assert any(c.kind is CheckKind.CIRCLE_CIRCLE for c in report.failures)

    def test_empty_packing_passes(self):
        root = pack(PackRequest(Square(1.0), CircleSet.from_areas([])))
        report = verify(root, expected_areas=[])
        assert report.passed
        assert report.check_count in (0, 1)  # only the multiset check, if any

    def test_tangent_pair_moved_together_is_rejected(self):
        tolerance = 1e-9
        root, _ = twincircle_tree()
        # move one circle toward its tangent partner by just over 10x tolerance
        delta = 11.0 * tolerance / SQRT2
        move_circle(root, 0, Point(root.x[0] + delta, root.y[0] + delta))
        report = verify(root, tolerance=tolerance)
        assert not report.passed

    def test_random_tangent_pairs_moved_together_are_rejected(self):
        # self-similar instances are full of exactly tangent circle pairs;
        # pushing any of them together by > 10x tolerance must fail
        tolerance = 1e-9
        rng = np.random.default_rng(137)
        areas = [PHI_SQUARE / 16.0] * 16
        for trial in range(10):
            root = pack(PackRequest(Square(1.0), CircleSet.from_areas(areas)))
            leaves = root.circle_leaves()
            tangent_pairs = []
            for i in range(len(leaves)):
                for j in range(i + 1, len(leaves)):
                    a, b = leaves[i].shape, leaves[j].shape
                    slack = math.dist(a.center, b.center) - a.radius - b.radius
                    if abs(slack) <= tolerance:
                        tangent_pairs.append((i, j))
            assert tangent_pairs
            i, j = tangent_pairs[int(rng.integers(0, len(tangent_pairs)))]
            a, b = leaves[i].shape, leaves[j].shape
            ux = (b.center.x - a.center.x) / math.dist(a.center, b.center)
            uy = (b.center.y - a.center.y) / math.dist(a.center, b.center)
            shift = float(rng.uniform(11.0, 1000.0)) * tolerance
            move_circle(root, i, Point(a.center.x + ux * shift, a.center.y + uy * shift))
            assert not verify(root, tolerance=tolerance).passed

    def test_rounded_hat_corner_region_is_checked(self):
        # a hat's rounded-off corner is not part of the shape: a child hat
        # sitting there, inside the bare triangle, sticks out of its parent
        tri = Triangle.from_sides(3.0, 4.0, 5.0)
        corner = tri.vertices[0]
        inward = Point(corner.x + 0.12, corner.y + 0.05)
        child = Triangle(((inward.x, inward.y), (inward.x + 0.03, inward.y), (inward.x, inward.y + 0.03)))
        assert signed_distance(inward, tri) > 0.0
        root = parse_packing(tri_dict(tri), subcontainers=[
            subcontainer(tri, 0.5, 1), subcontainer(child, 0.0, 2)])
        report = verify(root)
        assert not report.passed
        assert [c.ids for c in report.failures] == [("hat:0.0.0", "hat:0.0")]
        assert report.failures[0].kind is CheckKind.HAT_IN_PARENT

    def test_parsed_tree_is_the_record_tree(self):
        # depths 1, 2, 2, 1, 2, 2, 3, 3: the record and its parsed document
        # derive the same parents, so they get the same report and check ids;
        # every hat is the same triangle shrunk by level, so siblings overlap
        tri = Triangle(((0.1, 0.1), (0.9, 0.1), (0.1, 0.9)))
        center = triangle_incircle(tri).center
        record = Packing(Square(1.0), hat_depth=array("q", [1, 2, 2, 1, 2, 2, 3, 3]))
        for depth in record.hat_depth:
            record.hat_vertices.extend(c for p in tri.scaled_about(center, 0.8**depth).vertices
                                       for c in p)
            record.hat_rounding.append(0.0)
        text = PackingDocument(record).to_json()
        parsed = PackingDocument.from_dict(json.loads(text)).to_tree()
        report = verify(record)
        assert report_outcome(verify(parsed)) == report_outcome(report)
        assert sorted(c.ids for c in report.checks if c.kind is CheckKind.HAT_IN_PARENT) == [
            ("hat:0.0", "container"), ("hat:0.0.0", "hat:0.0"), ("hat:0.0.1", "hat:0.0"),
            ("hat:0.1", "container"), ("hat:0.1.0", "hat:0.1"), ("hat:0.1.1", "hat:0.1"),
            ("hat:0.1.1.0", "hat:0.1.1"), ("hat:0.1.1.1", "hat:0.1.1"),
        ]
        assert [c.ids for c in report.failures if c.kind is CheckKind.HAT_HAT_DISJOINT] == [
            ("hat:0.0", "hat:0.1"), ("hat:0.0.0", "hat:0.0.1"), ("hat:0.1.0", "hat:0.1.1"),
            ("hat:0.1.1.0", "hat:0.1.1.1"),
        ]

    def test_three_siblings_and_an_only_child(self):
        # depths 1, 2, 2, 2, 1, 2, 3: the first hat has three children, the
        # second one child, which has one child of its own
        record = hand_built_tree([1, 2, 2, 2, 1, 2, 3])
        report = verify(record)
        assert [c.ids for c in report.checks if c.kind is CheckKind.HAT_IN_PARENT] == [
            ("hat:0.0", "container"), ("hat:0.0.0", "hat:0.0"), ("hat:0.0.1", "hat:0.0"),
            ("hat:0.0.2", "hat:0.0"), ("hat:0.1", "container"), ("hat:0.1.0", "hat:0.1"),
            ("hat:0.1.0.0", "hat:0.1.0"),
        ]
        assert [c.ids for c in report.checks if c.kind is CheckKind.HAT_HAT_DISJOINT] == [
            ("hat:0.0", "hat:0.1"), ("hat:0.0.0", "hat:0.0.1"), ("hat:0.0.0", "hat:0.0.2"),
            ("hat:0.0.1", "hat:0.0.2"),
        ]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=6), max_size=40))
    def test_tree_ids_match_the_chain_reference(self, steps):
        # each depth is the drawn one, cut to at most one below the hat before
        depths = []
        for step in steps:
            depths.append(min(step, (depths[-1] if depths else 0) + 1))
        in_parent, siblings = preorder_tree_ids(depths)
        report = verify(hand_built_tree(depths))
        assert [c.ids for c in report.checks if c.kind is CheckKind.HAT_IN_PARENT] == sorted(in_parent)
        assert [c.ids for c in report.checks if c.kind is CheckKind.HAT_HAT_DISJOINT] == sorted(siblings)

    @pytest.mark.parametrize("container,areas", [
        # the CLI's `gen -n 3000 --distribution geometric`: hat depth 46
        (Triangle.from_sides(2.0, 3.5, 4.5), lambda capacity: cli._generate_areas(
            3000, capacity, "geometric", 0)),
        # halving areas: hat depth 333
        (Triangle.from_sides(3.0, 4.0, 5.0), lambda capacity: [
            capacity * 0.5 ** (k + 1) for k in range(500)]),
    ], ids=["geometric-3000", "halving-500"])
    def test_tree_ids_of_deep_packings_match_the_chain_reference(self, container, areas):
        # far deeper and wider than the hand-built trees above
        record = pack(PackRequest(container, CircleSet.from_areas(areas(sp.packable_area(container)))))
        in_parent, siblings = preorder_tree_ids(record.hat_depth)
        report = verify(record)
        assert report.passed
        assert [c.ids for c in report.checks if c.kind is CheckKind.HAT_IN_PARENT] == sorted(in_parent)
        assert [c.ids for c in report.checks if c.kind is CheckKind.HAT_HAT_DISJOINT] == sorted(siblings)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=20),
           st.integers(min_value=0), st.sampled_from(["zero", "rise by two"]))
    def test_a_depth_of_zero_or_a_rise_by_two_is_malformed(self, steps, where, fault):
        depths = []
        for step in steps:
            depths.append(min(step, (depths[-1] if depths else 0) + 1))
        k = where % len(depths)
        depths[k] = 0 if fault == "zero" else (depths[k - 1] if k else 0) + 2
        with pytest.raises(ValueError):
            preorder_tree_ids(depths)
        with pytest.raises(MalformedTreeError):
            verify(hand_built_tree(depths))

    @pytest.mark.parametrize("container", [Square(1.0), Triangle.from_sides(3.0, 4.0, 5.0)],
                             ids=["square", "345"])
    def test_check_counts_of_the_smallest_packings(self, container):
        # half of capacity: the two circles' boxes stay apart, so no circle pair
        # is evaluated; two circles get two sibling hats
        for n, count in ((0, 0), (1, 1), (2, 5)):
            areas = [0.5 * sp.packable_area(container) / max(n, 1)] * n
            report = verify(pack(PackRequest(container, CircleSet.from_areas(areas))))
            assert (report.passed, report.check_count, len(report.checks)) == (True, count, count)
            if n == 0:
                assert report.worst_slack == math.inf

    def test_monotone_in_tolerance(self):
        root, areas = twincircle_tree()
        root.radius[0] *= 1.0 + 1e-6
        slack = verify(root, tolerance=1e-9).worst_slack
        assert not verify(root, tolerance=1e-9).passed
        assert verify(root, tolerance=abs(slack) * 2.0).passed
        clean, _ = twincircle_tree()
        for tol in (1e-12, 1e-9, 1e-6, 1e-3):
            assert verify(clean, tolerance=tol).passed

    def test_leaf_multiset_mismatch(self):
        root, areas = twincircle_tree()
        report = verify(root, expected_areas=areas + [0.1])
        assert not report.passed
        assert any(c.kind is CheckKind.LEAF_MULTISET for c in report.failures)

    def test_leaf_multiset_is_exact_under_a_tolerance_that_overflows_in_the_frame(self):
        # Square(1e-80) has the frame 2**265, where 1e300 overflows to inf: the
        # multiset is still judged exactly, and the tolerance reported as given
        root = pack(PackRequest(Square(1e-80), CircleSet.from_areas([1e-161, 2e-161])))
        report = verify(root, tolerance=1e300, expected_areas=[5e-161, 1e-161])
        assert [c.kind for c in report.failures] == [CheckKind.LEAF_MULTISET]
        assert not report.passed and report.tolerance == 1e300
        assert verify(root, tolerance=1e300, expected_areas=[2e-161, 1e-161]).passed

    def test_expected_areas_after_json_roundtrip(self):
        # a packing rebuilt from its JSON document keeps the input areas'
        # radii, so it passes the same leaf check as the packed tree
        rng = np.random.default_rng(157)
        for container in (Square(1.0), Triangle.from_sides(3.0, 4.0, 5.0)):
            areas = random_areas(rng, 50, 0.9 * sp.packable_area(container))
            root = pack(PackRequest(container, CircleSet.from_areas(areas)))
            text = json.dumps(sp.PackingDocument.from_tree(root, container).to_dict())
            rebuilt = sp.PackingDocument.from_dict(json.loads(text)).to_tree()
            for tree in (root, rebuilt):
                report = verify(tree, expected_areas=areas)
                assert report.passed, report.summary()
            # the check compares the placed disks: a radius one ulp off fails
            rebuilt.radius[7] = math.nextafter(rebuilt.radius[7], 0.0)
            report = verify(rebuilt, expected_areas=areas)
            assert [c.kind for c in report.failures] == [CheckKind.LEAF_MULTISET]

    def test_hat_corners_in_slices_match(self, monkeypatch):
        # hat-in-parent corners evaluated a few rows at a time give every
        # slack bit for bit
        rng = np.random.default_rng(163)
        roots = []
        for _ in range(12):
            container = random_container(rng)
            areas = random_feasible_instance(rng, container, max_n=60)
            roots.append(pack(PackRequest(container, CircleSet.from_areas(areas))))
        t = Triangle.from_sides(3.0, 4.0, 5.0)
        roots.append(pack(PackRequest(t, CircleSet.from_areas(random_areas(rng, 20, math.pi)))))
        last = roots[-1]
        parent = hat_shapes(last)[0]
        # a grandchild hat grown past its parent
        grown = parent.triangle.scaled_about(parent.incircle.center, 1.1)
        child = child_hats(last, 0)[0]
        last.hat_vertices[6 * child : 6 * child + 6] = array("d", [c for p in grown.vertices for c in p])
        last.hat_rounding[child] = 0.0

        def slacks(root):
            report = verify(root)
            return [(c.kind, c.ids, c.slack) for c in report.checks], report.failures

        whole = [slacks(root) for root in roots]
        monkeypatch.setattr(verifier, "_PAIR_CHUNK", 5)
        for root, (checks, failures) in zip(roots, whole):
            got_checks, got_failures = slacks(root)
            assert [c[:2] for c in got_checks] == [c[:2] for c in checks]
            got = np.array([c[2] for c in got_checks])
            want = np.array([c[2] for c in checks])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert got_failures == failures
        assert any(c.kind is CheckKind.HAT_IN_PARENT for c in whole[-1][1])

    def test_circle_outside_container_fails(self):
        root = parse_packing(SQUARE, [placement(0.9, 0.5, 0.2, 0)])
        report = verify(root)
        assert not report.passed
        assert any(c.kind is CheckKind.CIRCLE_IN_CONTAINER for c in report.failures)

    def test_hat_poking_out_fails(self):
        # a half-square hat scaled past the square without rounding must fail
        tri = Triangle(((0.0, 0.0), (1.2, 0.0), (0.0, 1.2)))
        root = parse_packing(SQUARE, subcontainers=[subcontainer(tri, 0.0, 1)])
        report = verify(root)
        assert not report.passed
        assert any(c.kind is CheckKind.HAT_IN_PARENT for c in report.failures)

    def test_overlapping_sibling_hats_fail(self):
        container = Triangle.from_sides(3.0, 4.0, 5.0)
        left = Triangle(((0.0, 0.0), (2.4, 0.0), (2.4, 3.2)))  # scaled left half
        right = Triangle(((1.8, 0.0), (5.0, 0.0), (1.8, 2.4)))  # full right half: overlaps
        root = parse_packing(tri_dict(container), subcontainers=[
            subcontainer(left, 0.0, 1), subcontainer(right, 0.0, 1)])
        report = verify(root)
        assert any(c.kind is CheckKind.HAT_HAT_DISJOINT for c in report.failures)

    def test_malformed_trees(self):
        tri = Triangle(((0.0, 0.0), (0.5, 0.0), (0.0, 0.5)))
        # a hat without a parent at the depth above it: the parser reads types
        # only, and the verifier judges the tree
        with pytest.raises(MalformedTreeError, match="rise by at most one"):
            verify(parse_packing(SQUARE, subcontainers=[subcontainer(tri, 0.0, 2)]))
        for entry in ({"x": 0.5, "y": 0.5}, {"x": "a", "y": 0.5, "radius": 0.1}, [0.5, 0.5, 0.1]):
            with pytest.raises(DocumentError):
                parse_packing(SQUARE, [entry])
        with pytest.raises(DocumentError):
            parse_packing(SQUARE, subcontainers=[{"vertices": [[0, 0], [1, 0]], "depth": 1}])
        # a hat two levels below the hat before it, so without a parent
        root = parse_packing(SQUARE, subcontainers=[subcontainer(tri, 0.0, 1)] * 2)
        root.hat_depth[1] = 3
        with pytest.raises(MalformedTreeError):
            verify(root)
        # a hat depth below 1
        root.hat_depth[1] = 0
        with pytest.raises(MalformedTreeError):
            verify(root)
        # the largest depth a document can hold: one more would wrap around
        root.hat_depth[1] = 2**63 - 1
        with pytest.raises(MalformedTreeError):
            verify(root)
        for radius in (0.0, -0.1, math.nan):
            with pytest.raises(MalformedTreeError):
                verify(parse_packing(SQUARE, [placement(0.5, 0.5, radius, 0)]))
        with pytest.raises(MalformedTreeError):
            verify(parse_packing(SQUARE, subcontainers=[subcontainer(tri, -0.1, 1)]))
        with pytest.raises(MalformedTreeError):
            verify(Packing(Circle(Point(0.5, 0.5), 0.1)))
        # a circle without its input index
        root = parse_packing(SQUARE, [placement(0.5, 0.5, 0.1, 0)])
        root.input_index.pop()
        with pytest.raises(MalformedTreeError, match="columns differ in length"):
            verify(root)

    def test_checks_sorted_and_counted(self):
        rng = np.random.default_rng(71)
        areas = random_feasible_instance(rng, Square(1.0), max_n=30)
        root = pack(PackRequest(Square(1.0), CircleSet.from_areas(areas)))
        report = verify(root, expected_areas=areas)
        keys = [(c.kind.value, c.ids) for c in report.checks]
        assert keys == sorted(keys)
        assert report.check_count == len(report.checks)
        # circle pairs are evaluated exactly where their bounding boxes overlap
        # or touch; every other pair is disjoint
        _, centers, radii, _ = framed_circles(root)
        iu, ju, slacks = all_pairs_circle_slacks(centers, radii)
        meet = boxes_meet(centers, radii, iu, ju)
        assert 0 < meet.sum() < len(iu)
        assert sum(1 for c in report.checks if c.kind is CheckKind.CIRCLE_CIRCLE) == meet.sum()
        assert np.all(slacks[~meet] > 0.0)

    def test_recorded_checks_are_truncated_but_counts_and_failures_are_not(self, monkeypatch):
        # two overlapping circles among ten: the report keeps three check
        # entries, and still counts every check and lists the failure
        circles = [placement(0.05 + 0.09 * k, 0.5, 0.04, k) for k in range(9)]
        root = parse_packing(SQUARE, circles + [placement(0.05, 0.5, 0.04, 9)])
        full = verify(root)
        assert len(full.checks) == full.check_count == 11  # checks materialize on first use
        monkeypatch.setattr(verifier, "MAX_RECORDED_CHECKS", 3)
        report = verify(root)
        assert (len(report.checks), report.check_count) == (3, 11)
        assert report.failures == full.failures
        assert [c.ids for c in report.failures] == [("circle:0", "circle:9")]

    def test_coincident_tiny_circles_fail(self):
        # slack -2e-10 is far below the global 1.4e-9 tolerance, but it is the
        # full overlap of two circles of radius 1e-10
        root = parse_packing(SQUARE, [placement(0.5, 0.5, 1e-10, k) for k in range(2)])
        report = verify(root)
        assert not report.passed
        assert [c.kind for c in report.failures] == [CheckKind.CIRCLE_CIRCLE]

    def test_default_tolerance_scales_with_container(self):
        root_small = pack(PackRequest(Square(1.0), CircleSet.from_areas([0.1])))
        root_big = pack(PackRequest(Square(100.0), CircleSet.from_areas([0.1])))
        assert verify(root_big).tolerance == pytest.approx(100.0 * verify(root_small).tolerance)


class TestCircleCertificate:
    """The circle checks read no hat column: a record without its hats gives
    the same circle entries, slack for slack, and the same tolerance."""

    CIRCLE_KINDS = (CheckKind.CIRCLE_CIRCLE, CheckKind.CIRCLE_IN_CONTAINER, CheckKind.LEAF_MULTISET)

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONTAINERS))
    @pytest.mark.parametrize("tolerance", [None, 0.0, 1e-3])
    def test_hat_columns_do_not_change_the_circle_checks(self, name, tolerance):
        container = GOLDEN_CONTAINERS[name]()
        areas = corpus_areas("uniform", 300, sp.packable_area(container))
        root = pack(PackRequest(container, CircleSet.from_areas(areas)))
        circles_only = Packing(container, root.x, root.y, root.radius, root.input_index)
        reports = [verify(r, tolerance, expected_areas=areas) for r in (root, circles_only)]
        entries = [[(c.kind, c.ids, c.slack.hex()) for c in report.checks if c.kind in self.CIRCLE_KINDS]
                   for report in reports]
        assert entries[0] == entries[1]
        assert len(entries[0]) == reports[1].check_count
        assert reports[0].check_count > reports[1].check_count
        assert reports[0].tolerance.hex() == reports[1].tolerance.hex()


class TestCirclePairSweep:
    """The verifier's sort-and-sweep against the all-pairs oracle."""

    @staticmethod
    def assert_matches_oracle(root, tolerance=None):
        # the oracle reads the columns in the container's frame, as verify
        # does, and scales its slacks back by 2**-k, which is exact
        report = verify(root, tolerance=tolerance)
        k, centers, radii, ids = framed_circles(root)
        iu, ju, slacks = all_pairs_circle_slacks(centers, radii)
        keys = [tuple(sorted((ids[i], ids[j]))) for i, j in zip(iu, ju)]
        meet = boxes_meet(centers, radii, iu, ju)
        evaluated = {
            c.ids: c.slack for c in report.checks if c.kind is CheckKind.CIRCLE_CIRCLE
        }
        assert set(evaluated) == {k for k, m in zip(keys, meet) if m}
        got = np.array([evaluated[k] for k, m in zip(keys, meet) if m], dtype=float)
        assert np.array_equal(got.view(np.uint64), np.ldexp(slacks[meet], -k).view(np.uint64))
        assert np.all(slacks[~meet] > 0.0)
        if tolerance is None:
            tolerance = default_pair_tolerance(frame(root.container)[1], radii[iu], radii[ju])
        else:
            tolerance = math.ldexp(tolerance, k)
        bad = slacks < -np.broadcast_to(tolerance, slacks.shape)
        failed = {c.ids for c in report.failures if c.kind is CheckKind.CIRCLE_CIRCLE}
        assert failed == {k for k, b in zip(keys, bad) if b}
        others = [c for c in report.failures if c.kind is not CheckKind.CIRCLE_CIRCLE]
        assert report.passed == (not failed and not others)
        return report

    @staticmethod
    def packed(container, areas) -> Packing:
        return pack(PackRequest(container, CircleSet.from_areas(areas)))

    def test_random_corpus(self):
        rng = np.random.default_rng(131)
        containers = [Square(1.0), Triangle.from_sides(3.0, 4.0, 5.0),
                      Triangle.from_sides(2.0, 3.5, 4.5)]
        for trial in range(48):
            container = containers[trial % 3] if trial < 12 else random_container(rng)
            capacity = sp.packable_area(container)
            areas = random_feasible_instance(rng, container, max_n=80)
            if trial % 4 == 1:
                weights = [0.7**k for k in range(len(areas))]
                areas = [w * capacity / sum(weights) for w in weights]
            elif trial % 4 == 2:
                areas = [capacity / len(areas)] * len(areas)
            root = self.packed(container, areas)
            assert self.assert_matches_oracle(root).passed
            assert self.assert_matches_oracle(root, tolerance=1e-9).passed

    def test_mutated_trees(self):
        rng = np.random.default_rng(137)
        for trial in range(30):
            container = random_container(rng)
            capacity = sp.packable_area(container)
            areas = random_areas(rng, int(rng.integers(2, 41)), capacity * rng.uniform(0.2, 1.0))
            for mutation in ("moved", "coincident"):
                root = self.packed(container, areas)
                leaves = root.circle_leaves()
                i, j = rng.choice(len(leaves), size=2, replace=False)
                a, b = leaves[i].shape, leaves[j].shape
                if mutation == "moved":
                    target = Point(b.center.x + float(rng.uniform(-1, 1)) * b.radius,
                                   b.center.y + float(rng.uniform(-1, 1)) * b.radius)
                else:
                    target = b.center
                move_circle(root, i, target)
                assert not self.assert_matches_oracle(root).passed
                self.assert_matches_oracle(root, tolerance=1e-9)

    def test_shift_into_neighbour_by_the_pair_tolerance(self):
        areas = [PHI_SQUARE / 16.0] * 16
        for factor, fails in ((1.01, True), (0.99, False)):
            for trial in range(8):
                root = self.packed(Square(1.0), areas)
                leaves = root.circle_leaves()
                _, centers, radii, ids = framed_circles(root)
                iu, ju, slacks = all_pairs_circle_slacks(centers, radii)
                tangent = np.nonzero(np.abs(slacks) <= 1e-15)[0]
                k = tangent[trial * 7 % len(tangent)]
                a, b = leaves[iu[k]].shape, leaves[ju[k]].shape
                tol = float(default_pair_tolerance(Square(1.0), a.radius, b.radius))
                shift = factor * tol + float(slacks[k])
                d = math.dist(a.center, b.center)
                moved = Point(a.center.x + (b.center.x - a.center.x) / d * shift,
                              a.center.y + (b.center.y - a.center.y) / d * shift)
                move_circle(root, iu[k], moved)
                report = self.assert_matches_oracle(root)
                pair = tuple(sorted((ids[iu[k]], ids[ju[k]])))
                assert (pair in {c.ids for c in report.failures}) == fails

    def test_edge_cases(self):
        for n in (0, 1, 2):
            areas = [PHI_SQUARE / max(n, 1)] * n
            assert self.assert_matches_oracle(self.packed(Square(1.0), areas)).passed
        # equal circles touching in a row, then in a column (one x-run for all)
        for column in (False, True):
            entries = []
            for k in range(10):
                c = (0.05 + 0.1 * k, 0.5)
                center = Point(c[1], c[0]) if column else Point(*c)
                entries.append(placement(*center, 0.05, k))
            root = parse_packing(SQUARE, entries)
            report = self.assert_matches_oracle(root)
            assert report.passed
            assert sum(c.kind is CheckKind.CIRCLE_CIRCLE for c in report.checks) >= 9
        # one huge circle among many tiny ones, some of them inside it
        rng = np.random.default_rng(139)
        entries = [placement(0.5, 0.5, 0.3, 0)]
        for k in range(1, 300):
            x, y = rng.uniform(0.002, 0.998, size=2)
            entries.append(placement(float(x), float(y), 1e-3, k))
        root = parse_packing(SQUARE, entries)
        assert not self.assert_matches_oracle(root).passed
        # 0.7**k sets
        weights = [0.7**k for k in range(60)]
        for container in (Square(1.0), Triangle.from_sides(3.0, 4.0, 5.0)):
            capacity = sp.packable_area(container)
            root = self.packed(container, [w * capacity / sum(weights) for w in weights])
            assert self.assert_matches_oracle(root).passed

    def test_runs_longer_than_a_chunk(self, monkeypatch):
        monkeypatch.setattr(verifier, "_PAIR_CHUNK", 5)
        rng = np.random.default_rng(149)
        for trial in range(10):
            container = random_container(rng)
            root = self.packed(container, random_feasible_instance(rng, container, max_n=60))
            self.assert_matches_oracle(root)
        # one column: every circle's x-run holds all later ones
        root = parse_packing(SQUARE, [placement(0.5, 0.0125 + 0.025 * k, 0.0125, k) for k in range(40)])
        self.assert_matches_oracle(root)

    def test_work_stays_linear_on_a_large_packing(self):
        n = 20000
        rng = np.random.default_rng(151)
        root = self.packed(Square(1.0), random_areas(rng, n, sp.packable_area(Square(1.0))))
        _, centers, radii, _ = framed_circles(root)
        first, _ = _circle_pairs(centers, radii)
        assert len(first) <= 2 * n


class TestProjectionWidths:
    def test_altitude_half_incircles_abut(self):
        t = Triangle.from_sides(3.0, 4.0, 5.0)
        left, right = altitude_halves(t)
        c1 = triangle_incircle(left)
        c2 = triangle_incircle(right)
        base = (t.vertices[0], t.vertices[1])
        e1, e2 = projection_widths(c1, c2, base)
        # both projections reach exactly to the altitude foot at x = 1.8
        assert e1 == pytest.approx(1.8, rel=1e-12)
        assert e2 == pytest.approx(5.0 - 1.8, rel=1e-12)
        assert e1 + e2 == pytest.approx(5.0, rel=1e-12)

    def test_numeric_maximum_matches_closed_form(self):
        rng = np.random.default_rng(83)
        for _ in range(30):
            p1 = float(rng.uniform(0.3, 1.2))
            p2 = float(rng.uniform(0.3, 1.2))
            a = float(rng.uniform(0.5, 4.0))

            def width(a1):
                return math.sqrt(a1) * p1 + math.sqrt(a - a1) * p2

            result = minimize_scalar(lambda x: -width(x), bounds=(0.0, a), method="bounded",
                                     options={"xatol": 1e-12})
            best = width(result.x)
            closed_form = math.sqrt(a * (p1 * p1 + p2 * p2))
            assert best == pytest.approx(closed_form, abs=1e-9)
            maximizer = p1 * p1 * a / (p1 * p1 + p2 * p2)
            assert result.x == pytest.approx(maximizer, abs=1e-5 * a)

    def test_symmetric_case(self):
        a = 1.7
        combined = math.sqrt(a / 2.0) + math.sqrt(a / 2.0)
        assert combined == pytest.approx(math.sqrt(2.0 * a), rel=1e-12)

    def test_packed_sibling_incircles_never_overlap(self):
        rng = np.random.default_rng(89)
        for _ in range(30):
            t = random_non_acute_triangle(rng, right=bool(rng.random() < 0.5))
            areas = random_feasible_instance(rng, t, max_n=30)
            root = pack(PackRequest(t, CircleSet.from_areas(areas)))
            hats = hat_shapes(root)
            for parent in range(-1, len(hats)):
                kids = [hats[h] for h in child_hats(root, parent)]
                if len(kids) != 2:
                    continue
                left, right, _apex = (hats[parent].triangle if parent >= 0 else t).base_split
                e1, e2 = projection_widths(kids[0].incircle, kids[1].incircle, (left, right))
                base_len = math.dist(left, right)
                assert e1 + e2 <= base_len * (1.0 + 1e-9)


def edge_table(tris):
    """The verifier's edge table of triangles given as (k, 3, 2) corners."""
    tris = np.asarray(tris, dtype=float)
    return _edge_table(tris[..., 0].T, tris[..., 1].T)


class TestBatchPrimitivesMatchScalar:
    def test_tri_pair_distance(self):
        rng = np.random.default_rng(107)

        def ccw_triangle(center, size):
            pts = center + rng.uniform(-size, size, size=(3, 2))
            (ax, ay), (bx, by), (cx, cy) = pts
            if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) < 0:
                pts = pts[[0, 2, 1]]
            return pts

        pairs, shared = [], []
        for k in range(1500):
            ta = ccw_triangle(np.zeros(2), 1.0)
            tb = ccw_triangle(rng.uniform(-1.0, 1.0, size=2), float(rng.uniform(0.2, 1.5)))
            if k < 300:
                # ta's edge p-q reversed, with a third vertex beyond it
                p, q = ta[0], ta[1]
                normal = np.array([p[1] - q[1], q[0] - p[0]])  # outward for CCW ta
                apex = (p + q) / 2 + float(rng.uniform(0.1, 2.0)) * normal
                shared.append((ta.copy(), np.array([q, p, apex])))
            # one or both triangles shrunk to a point, as a fully rounded hat erodes
            for t in (ta, tb):
                if rng.random() < 0.2:
                    t[:] = t.mean(axis=0)
            pairs.append((ta, tb))
        disjoint = overlapping = 0
        got = _tri_pair_distance(edge_table([a for a, _ in pairs]), edge_table([b for _, b in pairs]))
        for (ta, tb), d in zip(pairs, got):
            reference = convex_polygon_distance(
                [tuple(p) for p in ta], [tuple(p) for p in tb]
            )
            if reference > 0.0:
                disjoint += 1
                assert d == pytest.approx(reference, abs=1e-12)
            else:
                overlapping += 1
                assert d <= 0.0
        assert disjoint > 300 and overlapping > 300
        # an overlap's depth is the shortest translation that separates the
        # pair: shorter ones in no direction, longer ones in some direction
        directions = [(math.cos(a), math.sin(a)) for a in np.linspace(0, 2 * math.pi, 360)]
        overlaps = [(ta, tb, -d) for (ta, tb), d in zip(pairs, got) if d < 0.0][:20]
        for ta, tb, depth in overlaps:
            a = [tuple(p) for p in ta]
            for factor, separates in ((0.999, False), (1.001, True)):
                moved = ([tuple(p + factor * depth * np.array(u)) for p in tb] for u in directions)
                found = any(convex_polygon_distance(a, b) > 0.0 for b in moved)
                assert found == separates
        got = _tri_pair_distance(edge_table([a for a, _ in shared]), edge_table([b for _, b in shared]))
        assert np.abs(got).max() <= 1e-12

    def test_point_triangle_set_distance(self):
        rng = np.random.default_rng(109)
        for _ in range(300):
            t = random_non_acute_triangle(rng)
            p = Point(float(rng.uniform(-2, 4)), float(rng.uniform(-2, 4)))
            got = float(_point_tri_set_distance(np.array([[p.x]]), np.array([[p.y]]),
                                                edge_table([t.vertices]))[0, 0])
            inside = signed_distance(p, t)
            if inside >= 0:
                assert got == pytest.approx(inside, abs=1e-12)
            else:
                v = t.vertices
                euclid = min(
                    point_segment_distance(p, v[i], v[(i + 1) % 3]) for i in range(3)
                )
                assert got == pytest.approx(-euclid, abs=1e-12)

    def test_eroded_triangles_match_hat_corners(self):
        rng = np.random.default_rng(113)
        for _ in range(100):
            t = random_non_acute_triangle(rng)
            r_in = triangle_incircle(t).radius
            s = float(rng.uniform(0.0, 1.0)) * r_in
            hat = Hat(t, s)
            corners = np.array(t.vertices, dtype=float)[:, :, None]
            _, x, y, _ = _hat_shape(corners[:, 0], corners[:, 1], np.array([s]))
            for got, expected in zip(zip(x[:, 0], y[:, 0]), hat.eroded_corners()):
                assert tuple(got) == pytest.approx(expected, abs=1e-12)

    def test_sibling_distance_matches_convex_polygon_distance(self):
        rng = np.random.default_rng(127)
        for _ in range(100):
            t = random_non_acute_triangle(rng)
            areas = random_feasible_instance(rng, t, max_n=12)
            root = pack(PackRequest(t, CircleSet.from_areas(areas)))
            report = verify(root)
            by_ids = {c.ids: c for c in report.checks if c.kind is CheckKind.HAT_HAT_DISJOINT}
            # recompute each sibling check with the scalar primitive
            hats = hat_shapes(root)
            for parent in range(-1, len(hats)):
                kids = [hats[h] for h in child_hats(root, parent)]
                if len(kids) != 2:
                    continue
                scalar = convex_polygon_distance(
                    kids[0].eroded_corners(), kids[1].eroded_corners()
                ) - (kids[0].rounding_radius + kids[1].rounding_radius)
                matches = [
                    c for c in by_ids.values() if abs(c.slack - scalar) <= 1e-9
                ]
                assert matches, f"no batch check matches scalar slack {scalar}"


def square_closed_form(px, py, s):
    """Signed set distance to the square [0, s]^2 in closed form: inside, the
    depth to the nearest side; outside, minus the hypot of the overshoots."""
    ax, ay = np.maximum(-px, px - s), np.maximum(-py, py - s)
    outside = np.hypot(np.maximum(ax, 0.0), np.maximum(ay, 0.0))
    return np.where((ax <= 0.0) & (ay <= 0.0), -np.maximum(ax, ay), -outside)


class TestSquareContainer:
    """The square container is an edge table of its four corners, judged by the
    polygon kernel; the closed form is the oracle."""

    @staticmethod
    def points(s, rng):
        """(x, y) of points inside, on and outside [0, s]^2."""
        t = rng.uniform(0.0, s, 500)
        zero, side = np.zeros_like(t), np.full_like(t, s)
        on_x = np.concatenate((t, side, t, zero, [0.0, s, s, 0.0]))
        on_y = np.concatenate((zero, t, side, t, [0.0, 0.0, s, s]))
        inside_x, inside_y = rng.uniform(0.0, s, (2, 5000))
        # beyond each side by s * 2**-j for j in 1..52, and scattered around the square
        near = s * np.ldexp(1.0, -rng.integers(1, 53, 500))
        far_x, far_y = rng.uniform(-0.5 * s, 1.5 * s, (2, 20000))
        far = ~((far_x >= 0.0) & (far_x <= s) & (far_y >= 0.0) & (far_y <= s))
        out_x = np.concatenate((t, side + near, t, -near, far_x[far]))
        out_y = np.concatenate((-near, t, side + near, t, far_y[far]))
        return (inside_x, inside_y), (on_x, on_y), (out_x, out_y)

    @pytest.mark.parametrize("side", [1.0, 1.35, 1.2, 1.7, 1.9999999999999998])
    def test_kernel_matches_the_closed_form(self, side):
        k, diameter, table, _, _ = _read(Packing(Square(side)))
        assert k == 0 and diameter == side * SQRT2
        assert np.array_equal(table[:2, :, 0].T, [[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
        rng = np.random.default_rng(131)
        inside, on, outside = self.points(side, rng)
        for (px, py), where in ((inside, "inside"), (on, "on"), (outside, "outside")):
            got = _container_signed_distance(table, px, py)
            want = square_closed_form(px, py, side)
            assert np.array_equal(np.sign(got), np.sign(want)), where
            assert np.abs(got - want).max() <= 2 * np.finfo(float).eps * side, where
            if side == 1.0 and where != "outside":
                # equal as numbers (on the top and right sides the closed form's 0
                # is -0.0); outside, the nearest-edge path and hypot round apart
                assert np.array_equal(got, want), where
            if where == "on":
                assert np.all(got == 0.0)

    def test_a_point_far_below_an_ulp_outside_is_outside(self):
        table = _read(Packing(Square(1.0)))[2]
        assert _container_signed_distance(table, np.array([-1e-300]), np.array([0.75]))[0] < 0.0


RIGHT = Triangle(((0.0, 0.0), (4.0, 0.0), (0.0, 3.0)))
PARENT = Triangle(((0.0, 0.0), (3.0, 0.0), (0.0, 2.0)))


def oracle_set_distance(p, corners) -> float:
    """Scalar signed set distance of p to a triangle: the inward side-line
    depth inside, minus the Euclidean distance to its edges outside."""
    inside = signed_distance(p, Triangle(corners))
    if inside >= 0.0:
        return inside
    return -min(point_segment_distance(p, corners[i], corners[(i + 1) % 3]) for i in range(3))


def oracle_in_parent_slack(child: Hat, parent: Hat) -> float:
    corners = parent.eroded_corners()
    depth = min(oracle_set_distance(q, corners) for q in child.eroded_corners())
    return depth + parent.rounding_radius - child.rounding_radius


def checks_of(report, kind) -> dict:
    return {c.ids: c.slack for c in report.checks if c.kind is kind}


class TestOutsideDistances:
    """Points outside their container or parent, and sibling hats that overlap
    or touch, on hand-built records against the scalar oracle."""

    @pytest.mark.parametrize("corners", [
        ((1.0, -0.1), (1.5, 0.3), (1.0, 0.3)),
        ((-0.3, -0.3), (0.5, 0.5), (-0.3, 0.5)),
        ((1.0, 0.0), (1.5, 0.3), (1.0, 0.3)),
    ], ids=["beyond an edge", "beyond a vertex", "on an edge"])
    @pytest.mark.parametrize("parent", ["container", "hat", "rounded hat"])
    def test_hat_corner_against_its_parent(self, corners, parent):
        child = Hat(Triangle(corners))
        if parent == "container":
            root = parse_packing(tri_dict(PARENT), subcontainers=[subcontainer(child.triangle, 0.0, 1)])
            ids, outer = ("hat:0.0", "container"), Hat(PARENT)
        else:
            outer = Hat(PARENT, 0.1 if parent == "rounded hat" else 0.0)
            root = parse_packing(tri_dict(RIGHT), subcontainers=[
                subcontainer(PARENT, outer.rounding_radius, 1), subcontainer(child.triangle, 0.0, 2)])
            ids = ("hat:0.0.0", "hat:0.0")
        report = verify(root)
        slack = checks_of(report, CheckKind.HAT_IN_PARENT)[ids]
        expected = oracle_in_parent_slack(child, outer)
        assert slack == pytest.approx(expected, abs=1e-12)
        if corners[0] == (1.0, 0.0) and parent != "rounded hat":
            assert slack == 0.0  # the corner lies on the parent's edge y = 0
        assert [c.ids for c in report.failures] == ([ids] if expected < -report.tolerance else [])
        # beyond a vertex the Euclidean distance is longer than the side-line one
        if corners[0] == (-0.3, -0.3) and parent != "rounded hat":
            assert slack == pytest.approx(-math.hypot(0.3, 0.3), abs=1e-12)

    @pytest.mark.parametrize("center", [(2.0, -0.1), (4.2, -0.1), (-0.1, 1.5), (1.0, 1.0)],
                             ids=["beyond an edge", "beyond a vertex", "beyond the other leg",
                                  "inside"])
    def test_circle_centre_against_a_triangle_container(self, center):
        report = verify(parse_packing(tri_dict(RIGHT), [placement(*center, 0.05, 0)]))
        slack = checks_of(report, CheckKind.CIRCLE_IN_CONTAINER)[("circle:0", "container")]
        expected = oracle_set_distance(center, RIGHT.vertices) - 0.05
        assert slack == pytest.approx(expected, abs=1e-12)
        assert report.passed == (expected >= -report.tolerance)

    @pytest.mark.parametrize("second,overlap", [
        (((0.8, 0.0), (1.8, 0.0), (0.8, 1.0)), 0.2 / SQRT2),
        (((1.0, 0.0), (2.0, 0.0), (1.0, 1.0)), None),
        (((1.0, 0.0), (1.0, 1.0), (0.0, 1.0)), None),
        (((1.2, 0.0), (2.2, 0.0), (1.2, 1.0)), None),
    ], ids=["overlapping", "touching at a corner", "touching along an edge", "apart"])
    def test_sibling_hats(self, second, overlap):
        first = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        root = parse_packing({"type": "square", "side": 3.0}, subcontainers=[
            subcontainer(Triangle(first), 0.0, 1), subcontainer(Triangle(second), 0.0, 1)])
        report = verify(root)
        slack = checks_of(report, CheckKind.HAT_HAT_DISJOINT)[("hat:0.0", "hat:0.1")]
        distance = convex_polygon_distance(first, second)
        if overlap is None:
            assert slack == pytest.approx(distance, abs=1e-12)
            assert report.passed
        else:
            # the separating-axis gap is minus the penetration depth, here
            # along the first hat's hypotenuse normal
            assert distance == 0.0
            assert slack == pytest.approx(-overlap, abs=1e-12)
            assert [(c.kind, c.ids) for c in report.failures] == [
                (CheckKind.HAT_HAT_DISJOINT, ("hat:0.0", "hat:0.1"))]


class TestDegenerateHat:
    """A hat shrunk to a segment, by two coincident vertices or by three
    distinct collinear ones, with a child."""

    COINCIDENT = ((0.1, 0.0), (0.5, 0.0), (0.5, 0.0))
    COLLINEAR = ((0.1, 0.0), (0.3, 0.0), (0.5, 0.0))
    ON, BEYOND, OFF = (((0.2, 0.0), (0.3, 0.0), (0.3, 0.0)), ((0.6, 0.0), (0.7, 0.0), (0.7, 0.0)),
                       ((0.2, 0.1), (0.3, 0.1), (0.2, 0.2)))

    @pytest.mark.parametrize("segment,child,passed", [
        (COINCIDENT, ON, True), (COINCIDENT, BEYOND, False), (COINCIDENT, OFF, False),
        (COLLINEAR, ON, True), (COLLINEAR, BEYOND, False), (COLLINEAR, OFF, False),
    ], ids=["on the segment", "in line beyond its end", "off it", "on the collinear segment",
            "in line beyond the collinear segment's end", "off the collinear segment"])
    def test_child_is_judged_by_its_distance_to_the_segment(self, segment, child, passed):
        # the segment has no inside: every child corner is judged by its
        # Euclidean distance to it, and no division by a zero-length edge
        # warns
        root = parse_packing(SQUARE, subcontainers=[
            {"vertices": [list(p) for p in segment], "rounding_radius": 0.0, "depth": 1},
            {"vertices": [list(p) for p in child], "rounding_radius": 0.0, "depth": 2},
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify(root)
        slack = checks_of(report, CheckKind.HAT_IN_PARENT)[("hat:0.0.0", "hat:0.0")]
        expected = -max(point_segment_distance(q, segment[0], segment[2]) for q in child)
        assert slack == pytest.approx(expected, abs=1e-15)
        assert report.passed == passed
        assert [c.ids for c in report.failures] == ([] if passed else [("hat:0.0.0", "hat:0.0")])
