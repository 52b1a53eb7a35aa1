"""Tests for the recursive packer and the hats it places."""

import math
import sys
from array import array

import numpy as np
import pytest

from splitpack import (
    PHI_SQUARE,
    CircleSet,
    ConjugacyError,
    InstanceDocument,
    InvalidParameterError,
    OverCapacityError,
    PackRequest,
    PackStats,
    Packing,
    Point,
    SplitPackError,
    Square,
    Triangle,
    UnsupportedContainerError,
    decide,
    min_container,
    pack,
    packable_area,
    verify,
    weighted_split,
)
from splitpack import packer
from splitpack.geometry import frame, shape_table
from conftest import (
    random_areas,
    random_container,
    random_feasible_instance,
    random_non_acute_triangle,
)
from reference_geometry import (
    Hat,
    altitude_halves,
    first_level_hats,
    left_to_right_sum,
    min_guarantee,
    signed_distance,
    split_key,
    triangle_incircle,
)

SQRT2 = math.sqrt(2.0)

THIN_HATS_XFAIL = pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="thin triangles: recorded hats leave their parents (ROADMAP item 1)")


def right_isosceles_with_incircle(area: float) -> Triangle:
    """Right isosceles triangle whose incircle has the given area."""
    leg = (2.0 + SQRT2) * math.sqrt(area / math.pi)
    return Triangle.from_sides(leg, leg, leg * SQRT2)


def non_root_hat_count(packing: Packing) -> int:
    return len(packing.hat_rounding)


class TestSquarePacking:
    def test_twincircle_worst_case(self):
        for side in (1.0, 2.5, 0.3):
            a = PHI_SQUARE * side * side
            root = pack(PackRequest(Square(side), CircleSet.from_areas([a / 2.0, a / 2.0])))
            c1, c2 = (leaf.shape for leaf in sorted(root.circle_leaves(), key=lambda n: n.input_index))
            r = side / (2.0 + SQRT2)
            assert c1.center == pytest.approx((r, r), abs=1e-12 * side)
            assert c2.center == pytest.approx((side - r, side - r), abs=1e-12 * side)
            assert c1.radius == pytest.approx(r, rel=1e-12)
            # tangent to each other, and each to the two nearest sides
            assert math.dist(c1.center, c2.center) == pytest.approx(c1.radius + c2.radius, rel=1e-12)
            assert min(c1.center) == pytest.approx(c1.radius, rel=1e-12)
            assert side - max(c2.center) == pytest.approx(c2.radius, rel=1e-12)
            report = verify(root, tolerance=1e-9 * side, expected_areas=[a / 2.0, a / 2.0])
            assert report.passed

    def test_single_circle_corner_tangent(self):
        # a lone circle sits in the degenerate corner-anchored hat, i.e.
        # tangent to the two sides meeting at the far corner
        for fraction in (1.0, 0.37):
            area = fraction * PHI_SQUARE
            root = pack(PackRequest(Square(1.0), CircleSet.from_areas([area])))
            (leaf,) = root.circle_leaves()
            r = math.sqrt(area / math.pi)
            assert leaf.shape.center == pytest.approx((1.0 - r, 1.0 - r), abs=1e-12)
            assert non_root_hat_count(root) == 0
            assert verify(root, expected_areas=[area]).passed

    def test_unbalanced_pair(self):
        a = PHI_SQUARE
        areas = [0.7 * a, 0.3 * a]
        root = pack(PackRequest(Square(1.0), CircleSet.from_areas(areas)))
        assert verify(root, expected_areas=areas).passed
        # the lighter bucket anchors at the origin corner
        hat1, hat2 = first_level_hats(root)
        assert hat1.triangle.vertices[0] == (0.0, 0.0)
        assert hat1.incircle.area == pytest.approx(0.3 * a, rel=1e-12)
        assert hat2.incircle.area == pytest.approx(0.7 * a, rel=1e-12)
        assert math.pi * hat2.rounding_radius**2 == pytest.approx(0.4 * a, rel=1e-12)

    def test_power_of_two_self_similar(self):
        for k in (1, 2, 4):
            n = 2**k
            areas = [PHI_SQUARE / n] * n
            root = pack(PackRequest(Square(1.0), CircleSet.from_areas(areas)))
            report = verify(root, expected_areas=areas)
            assert report.passed
            assert non_root_hat_count(root) == 2 * n - 2
            # no hat is scaled: each is half its parent, of area 2**-depth up
            # to the rounding of the altitude feet (a scale factor of
            # 1 +- 1e-12 would move it by 2e-12)
            v = np.asarray(root.hat_vertices).reshape(-1, 6)
            doubled = (v[:, 2] - v[:, 0]) * (v[:, 5] - v[:, 1]) - (v[:, 4] - v[:, 0]) * (v[:, 3] - v[:, 1])
            assert doubled == pytest.approx(2.0 ** (1 - np.asarray(root.hat_depth)), rel=1e-14)

    def test_scale_factor_snaps_to_one_near_the_key(self):
        # a group within _SNAP_REL_TOL of its key keeps its half unscaled;
        # past it, the half is scaled by sqrt(a / f)
        f = 0.25
        for rel in (0.5e-12, -0.5e-12, 2e-12, -2e-12):
            a1, a2 = f * (1.0 + rel), f * (1.0 - rel)
            _b1, t1, _b2, t2 = packer._split_step(a1, a1, a2, a2, f, f, 0.0, 2.0 * f)
            if abs(rel) < packer._SNAP_REL_TOL:
                assert (t1, t2) == (1.0, 1.0)
            else:
                assert (t1, t2) == (math.sqrt(a1 / f), math.sqrt(a2 / f))
                assert t1 != 1.0 and t2 != 1.0

    def test_tiny_pair_keeps_its_incircle_guard_exact(self):
        # Corner hats scaled by t ~ 1.9e-10 have vertices 1 - t that keep
        # only seven digits of t; the lone-circle guard must use t times the
        # half-square's inradius, not an inradius recomputed from them.
        areas = [1e-20, 1e-20]
        root = pack(PackRequest(Square(1.0), CircleSet.from_areas(areas)))
        report = verify(root, expected_areas=areas)
        assert report.passed, report.summary()
        r = math.sqrt(1e-20 / math.pi)
        assert sorted(root.radius) == [r, r]

    def test_empty_input(self):
        root = pack(PackRequest(Square(2.0), CircleSet.from_areas([])))
        assert non_root_hat_count(root) == 0 and len(root.radius) == 0
        assert verify(root).passed


class TestTrianglePacking:
    def test_345_altitude_half_incircles(self):
        # Sorted descending, the larger circle (16pi/25) lands in bucket 1
        # (the tie in relative fill levels resolves to the lowest index), so
        # the left altitude half is scaled by t1 = sqrt((16/25)/(9/25)) = 4/3
        # and rounded, while the right half shrinks by t2 = 3/4.
        t = Triangle.from_sides(3.0, 4.0, 5.0)
        areas = [9.0 * math.pi / 25.0, 16.0 * math.pi / 25.0]
        root = pack(PackRequest(t, CircleSet.from_areas(areas)))
        leaves = sorted(root.circle_leaves(), key=lambda n: n.input_index)
        # left half ((0,0),(1.8,0),(1.8,2.4)) has incenter (1.2, 0.6); x4/3
        assert leaves[1].shape.center == pytest.approx((1.6, 0.8), abs=1e-12)
        assert leaves[1].shape.radius == pytest.approx(0.8, rel=1e-12)
        # right half ((1.8,0),(5,0),(1.8,2.4)) has incenter (2.6, 0.8);
        # scaling about (5, 0) by 3/4 gives (3.2, 0.6)
        assert leaves[0].shape.center == pytest.approx((3.2, 0.6), abs=1e-12)
        assert leaves[0].shape.radius == pytest.approx(0.6, rel=1e-12)
        assert verify(root, expected_areas=areas).passed

    def test_single_incircle(self):
        t = Triangle.from_sides(3.0, 4.0, 5.0)
        root = pack(PackRequest(t, CircleSet.from_areas([math.pi])))
        (leaf,) = root.circle_leaves()
        assert leaf.shape.center == pytest.approx((2.0, 1.0), abs=1e-12)
        assert leaf.shape.radius == pytest.approx(1.0, rel=1e-12)
        assert non_root_hat_count(root) == 0

    def test_world_coordinates_preserved(self):
        # a rotated and translated container packs in place
        base = Triangle.from_sides(3.0, 4.0, 5.0)
        c, s = math.cos(0.7), math.sin(0.7)
        verts = tuple(
            Point(c * p.x - s * p.y + 2.5, s * p.x + c * p.y - 1.3) for p in base.vertices
        )
        t = Triangle(verts)
        rng = np.random.default_rng(2)
        areas = random_feasible_instance(rng, t, max_n=40)
        root = pack(PackRequest(t, CircleSet.from_areas(areas)))
        assert verify(root, expected_areas=areas).passed

    def test_tiny_hats_stay_inside_their_parents(self):
        # Near-balanced splits leave cancellation noise in the minimum-size
        # bound; a hat rounded by that noise, above its own smallest circle,
        # sticks out of its parent's rounded corner.
        t = Triangle.from_sides(3.0, 4.0, 5.0)
        raw = [0.7**k for k in range(100)]
        scale = packable_area(t) / sum(raw)
        areas = [a * scale for a in raw]
        root = pack(PackRequest(t, CircleSet.from_areas(areas)))
        report = verify(root, tolerance=1e-12 * 5.0, expected_areas=areas)
        assert report.passed, report.summary()

    @pytest.mark.parametrize("angle", [1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("family", ["isosceles", "right", "from_sides"])
    def test_thin_triangles_above_the_fault_pass_the_hat_diagnostics(self, family, angle):
        # the smallest angle is `angle`; below about 1e-5 rad recorded hats
        # leave their parents (ROADMAP item 1), above it every check passes
        container = {
            "isosceles": Triangle(((0.0, 0.0), (2.0, 0.0), (1.0, math.tan(angle)))),
            "right": Triangle(((0.0, 0.0), (1.0, 0.0), (0.0, math.tan(angle)))),
            "from_sides": Triangle.from_sides(1.0, 1.0, 2.0 * math.cos(angle)),
        }[family]
        rng = np.random.default_rng([int(-math.log10(angle)), len(family)])
        for _ in range(20):
            areas = random_areas(rng, int(rng.integers(2, 61)), packable_area(container))
            packing = pack(PackRequest(container, CircleSet.from_areas(areas)))
            report = verify(packing, expected_areas=areas)
            assert report.passed, report.summary()

    def test_acute_rejected(self):
        t = Triangle.from_sides(1.0, 1.0, 1.0)
        with pytest.raises(UnsupportedContainerError):
            pack(PackRequest(t, CircleSet.from_areas([0.1])))

    @pytest.mark.parametrize("container", [
        # worst hat-in-parent slack -4.6e-5 and -6.7e-5
        pytest.param(Triangle.from_sides(1.0, 1.0, 2.0 - 1e-12), id="flat", marks=THIN_HATS_XFAIL),
        pytest.param(Triangle(((0.0, 0.0), (1.0, 0.0), (0.0, 1e-6))), id="needle",
                     marks=THIN_HATS_XFAIL),
        # the hypotenuse rounds to 1.0 and ties with the long leg in base_split,
        # so the altitude's foot fraction is 0: _admit refuses the zero half
        pytest.param(Triangle(((0.0, 0.0), (1.0, 0.0), (0.0, 1e-9))), id="needle-1e-9"),
        pytest.param(Triangle(((0.0, 0.0), (1.0, 0.0), (0.0, 1e-10))), id="needle-1e-10"),
    ])
    def test_thin_triangle_is_refused_up_front_or_packs(self, container):
        # ten equal circles at capacity: either pack refuses the request
        # as decide does, or the packing PASSes
        areas = [packable_area(container) / 10.0] * 10
        try:
            packing = pack(PackRequest(container, CircleSet.from_areas(areas)))
        except SplitPackError:
            assert decide(InstanceDocument(container, areas))["packable"] == "unknown"
        else:
            report = verify(packing, expected_areas=areas)
            assert report.passed, report.summary()


class TestPlacementOperations:
    """The first-level hats and lone circles that ``pack`` places."""

    def test_hats_in_square_equal_halves(self):
        a = PHI_SQUARE
        root = pack(PackRequest(Square(1.0), CircleSet.from_areas([a / 2.0, a / 2.0])))
        h1, h2 = first_level_hats(root)
        assert h1.triangle.vertices == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        assert h2.triangle.vertices == ((1.0, 1.0), (0.0, 1.0), (1.0, 0.0))
        assert h1.rounding_radius == 0.0

    def test_hats_in_square_empty_first_group(self):
        # A lone circle is the square split with an empty first group: the
        # second corner hat, scaled to area a and fully rounded, degenerates
        # to a corner-tangent circle of area a, which pack places directly.
        a = PHI_SQUARE
        root = pack(PackRequest(Square(1.0), CircleSet.from_areas([a])))
        (leaf,) = root.circle_leaves()
        assert non_root_hat_count(root) == 0
        half = Triangle(((1.0, 1.0), (0.0, 1.0), (1.0, 0.0)))
        r = math.sqrt(a / math.pi)
        h2 = Hat(half.scaled_about((1.0, 1.0), math.sqrt(2.0)), r)
        assert math.pi * h2.rounding_radius**2 == pytest.approx(a, rel=1e-9)
        incircle = h2.incircle
        assert incircle.center == pytest.approx((1.0 - r, 1.0 - r), abs=1e-12)
        assert leaf.shape.center == pytest.approx(incircle.center, abs=1e-12)
        assert leaf.shape.radius == pytest.approx(r, rel=1e-12)

    def test_hats_in_square_conjugacy_violation(self):
        a = PHI_SQUARE
        key = (a / 2.0, a / 2.0)
        # group 1 overshoots its half by 0.4a, but its circles are 0.35a
        with pytest.raises(ConjugacyError, match="rounding below the overshoot bound"):
            packer._split_step(0.7 * a, 0.35 * a, 0.3 * a, 0.3 * a, *key, 0.0, a)
        with pytest.raises(ConjugacyError, match="exceeds packable area"):
            packer._split_step(0.8 * a, 0.8 * a, 0.4 * a, 0.4 * a, *key, 0.0, a)

    def test_hats_in_square_random_conjugated_pairs(self):
        rng = np.random.default_rng(41)
        a = PHI_SQUARE
        for _ in range(300):
            total = float(rng.uniform(0.05, 1.0)) * a
            s1 = float(rng.uniform(0.0, total))
            areas = [s1, total - s1]
            root = pack(PackRequest(Square(1.0), CircleSet.from_areas(areas)))
            hat_areas = sorted(hat.incircle.area for hat in first_level_hats(root))
            assert hat_areas == pytest.approx(sorted(areas), rel=1e-9)
            assert verify(root, expected_areas=areas).passed

    def test_subhats_345_exact_altitude_halves(self):
        t = Triangle.from_sides(3.0, 4.0, 5.0)
        areas = [9.0 * math.pi / 25.0, 8.0 * math.pi / 25.0, 8.0 * math.pi / 25.0]
        cs = CircleSet.from_areas(areas)
        _, _, sum1, _, _, sum2 = weighted_split(cs.areas, cs.indices, *split_key(t))
        assert (sum1, sum2) == (9.0 * math.pi / 25.0, 16.0 * math.pi / 25.0)
        root = pack(PackRequest(t, cs))
        left, right = altitude_halves(t)
        for got, expected in zip(first_level_hats(root), (left, right)):
            for p, q in zip(got.triangle.vertices, expected.vertices):
                assert p == pytest.approx(q, abs=1e-12)
            assert got.rounding_radius == 0.0
        assert verify(root, expected_areas=areas).passed

    def test_subhats_right_isosceles_equal_halves(self):
        t = right_isosceles_with_incircle(math.pi)
        a = math.pi
        root = pack(PackRequest(t, CircleSet.from_areas([a / 2.0, a / 2.0])))
        left, right = altitude_halves(t)
        for got, expected in zip(first_level_hats(root), (left, right)):
            assert got.triangle.vertices == expected.vertices

    def test_subhats_overshooting_child_stays_inside(self):
        # the relatively larger child pokes past the apex but its rounded
        # corner keeps it inside the container
        t = right_isosceles_with_incircle(math.pi)
        container = Hat(t, 0.0)
        key = split_key(t)
        areas = [0.7 * math.pi, 0.3 * math.pi]
        root = pack(PackRequest(t, CircleSet.from_areas(areas)))
        h1, h2 = first_level_hats(root)
        assert h1.incircle.area == pytest.approx(0.7 * math.pi, rel=1e-12)
        # b1 = a1 - f1 * a2 / f2
        assert math.pi * h1.rounding_radius**2 == pytest.approx(0.4 * math.pi, rel=1e-12)
        apex_y = max(p.y for p in t.vertices)
        assert max(p.y for p in h1.triangle.vertices) > apex_y  # overshoots
        assert verify(root, expected_areas=areas).passed
        # group 2 overshoots its half by 0.4pi, but holds a circle of 0.3pi
        with pytest.raises(ConjugacyError, match="rounding below the overshoot bound"):
            packer._split_step(0.3 * math.pi, 0.3 * math.pi, 0.7 * math.pi, 0.3 * math.pi, *key,
                               math.pi * container.rounding_radius**2, container.incircle.area)

    def test_place_circle_in_hat(self):
        t = Triangle.from_sides(3.0, 4.0, 5.0)
        hat = Hat(t, 0.0)
        (maximal,) = pack(PackRequest(t, CircleSet.from_areas([math.pi]))).circle_leaves()
        assert maximal.shape.center == hat.incircle.center
        assert maximal.shape.radius == pytest.approx(1.0, rel=1e-12)
        (half,) = pack(PackRequest(t, CircleSet.from_areas([math.pi / 2.0]))).circle_leaves()
        half = half.shape
        assert half.center == hat.incircle.center
        assert signed_distance(half.center, t) == pytest.approx(1.0, rel=1e-12)
        assert signed_distance(half.center, t) > half.radius
        # a circle beyond the incircle is refused before any placement, and
        # the placement loop itself refuses a lone circle beyond its hat's
        with pytest.raises(OverCapacityError):
            pack(PackRequest(t, CircleSet.from_areas([math.pi * 1.01])))
        with pytest.raises(InvalidParameterError):
            _r_in, shapes = shape_table(*t.base_split)
            (lx, ly), (rx, ry), (cx, cy) = t.base_split
            entry = (lx, ly, rx, ry, cx, cy, False, 1.0, 0, [math.pi * 1.01], [0], 0.0, 0)
            packer._pack_into_hats(Packing(t, x=array("d", [0.0]), y=array("d", [0.0]),
                                           radius=array("d", [0.0])), shapes, [entry])

    def test_recursion_matches_public_placement_ops(self):
        # pack's first-level children match the altitude halves scaled about
        # their base vertices and rounded by the clamped minimum-size guarantee
        rng = np.random.default_rng(47)
        for _ in range(50):
            t = random_non_acute_triangle(rng, right=bool(rng.random() < 0.5))
            areas = random_feasible_instance(rng, t, max_n=20)
            if len(areas) < 2:
                continue
            cs = CircleSet.from_areas(areas)
            key = split_key(t)
            areas1, _, sum1, areas2, _, sum2 = weighted_split(cs.areas, cs.indices, *key)
            left, right, _apex = t.base_split
            expected = []
            for half, anchor, part, part_sum, other_sum, f_i, f_j in zip(
                altitude_halves(t), (left, right), (areas1, areas2), (sum1, sum2), (sum2, sum1),
                key, key[::-1]
            ):
                tri = half.scaled_about(anchor, math.sqrt(part_sum / f_i))
                b = min(min_guarantee(part_sum, other_sum, f_i, f_j), part[-1])
                rounding = min(math.sqrt(b / math.pi), triangle_incircle(tri).radius)
                expected.append((tri, rounding))
            root = pack(PackRequest(t, cs))
            scale = max(t.side_lengths)
            for got, (tri, rounding) in zip(first_level_hats(root), expected):
                for p, q in zip(got.triangle.vertices, tri.vertices):
                    assert p == pytest.approx(q, abs=1e-9 * scale)
                assert got.rounding_radius == pytest.approx(rounding, abs=1e-9 * scale)


class TestTreeInvariants:
    def test_leaf_multiset_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            container = random_container(rng)
            areas = random_feasible_instance(rng, container, max_n=80)
            root = pack(PackRequest(container, CircleSet.from_areas(areas)))
            leaves = root.circle_leaves()
            radii = sorted(math.sqrt(a / math.pi) for a in areas)
            assert sorted(n.shape.radius for n in leaves) == radii
            assert sorted(n.input_index for n in leaves) == list(range(len(areas)))

    def test_tree_size_bound(self):
        rng = np.random.default_rng(19)
        for n in (2, 3, 7, 64, 150):
            container = random_container(rng)
            areas = random_feasible_instance(rng, container, max_n=n)
            root = pack(PackRequest(container, CircleSet.from_areas(areas)))
            count = len(areas)
            assert non_root_hat_count(root) <= max(2 * count - 2, 0)

    def test_operation_counts(self):
        rng = np.random.default_rng(29)
        for n in (1, 2, 17, 100, 400):
            areas = random_feasible_instance(rng, Square(1.0), max_n=n)
            areas = areas[:n] if len(areas) >= n else areas
            stats = PackStats()
            root = pack(PackRequest(Square(1.0), CircleSet.from_areas(areas)), stats)
            count = len(areas)
            assert stats.split_calls == max(count - 1, 0)
            assert stats.element_moves <= count * (count + 1) // 2
            assert stats.hat_count == len(root.hat_rounding)

    @pytest.mark.parametrize("container,depths", [
        (Square(1.0), (0, 1, 2)),
        # a triangle container is a level of its own
        (Triangle.from_sides(3.0, 4.0, 5.0), (1, 2, 3)),
    ])
    def test_depth_and_hat_counts_of_equal_circles(self, container, depths):
        for n, max_depth, hat_count in zip((1, 2, 3), depths, (0, 2, 4)):
            stats = PackStats()
            root = pack(PackRequest(container, CircleSet.from_areas(
                [packable_area(container) / n] * n)), stats)
            assert (stats.max_depth, stats.hat_count) == (max_depth, hat_count)
            assert max(root.hat_depth, default=0) == max_depth - isinstance(container, Triangle)

    def test_loop_splits_through_the_module_weighted_split(self, monkeypatch):
        # the per-split counts of a tracer that wraps packer.weighted_split
        # (calls, and len of the first argument) add up to PackStats' counters
        # less the square's first split, which goes through split
        calls = []
        original = packer.weighted_split

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(packer, "weighted_split", counting)
        areas = random_feasible_instance(np.random.default_rng(31), Square(1.0), max_n=300)
        stats = PackStats()
        pack(PackRequest(Square(1.0), CircleSet.from_areas(areas)), stats)
        assert len(areas) > 100
        assert len(calls) == stats.split_calls - 1
        assert sum(calls) == stats.element_moves - len(areas)

    @pytest.mark.parametrize("container", [
        Square(1.0), Triangle.from_sides(3.0, 4.0, 5.0), Triangle.from_sides(2.0, 3.5, 4.5)],
        ids=["square", "tri345", "tri2-3.5-4.5"])
    def test_split_keys_keep_their_shapes_ratio(self, monkeypatch, container):
        # every hat is similar to an entry of the container's shape table, so
        # its key's ratio is that entry's up to the key's own rounding, down
        # to the deepest hats of a halving set; the square's is exactly 1
        keys = []
        original = packer.weighted_split

        def spy(areas, indices, f1, f2):
            keys.append((f1, f2))
            return original(areas, indices, f1, f2)

        monkeypatch.setattr(packer, "weighted_split", spy)
        capacity = packable_area(container)
        pack(PackRequest(container, CircleSet.from_areas([capacity * 0.5 ** (k + 1) for k in range(100)])))
        assert len(keys) > 50
        if isinstance(container, Square):
            assert all(f1 == f2 for f1, f2 in keys)
            return
        _r_in, table = shape_table(*container.base_split)
        ratios = [(rho1 / rho2) ** 2 for _foot, rho1, rho2, *_ in table]
        for f1, f2 in keys:
            assert min(abs(f1 / f2 - ratio) / math.ulp(ratio) for ratio in ratios) <= 8.0, (f1, f2)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(59)
        areas = random_feasible_instance(rng, Square(1.0), max_n=50)
        base = pack(PackRequest(Square(1.0), CircleSet.from_areas(areas)))
        for k in (2.0, 3.7, 0.25):
            scaled = pack(
                PackRequest(Square(k), CircleSet.from_areas([a * k * k for a in areas]))
            )
            base_leaves = sorted(base.circle_leaves(), key=lambda n: n.input_index)
            scaled_leaves = sorted(scaled.circle_leaves(), key=lambda n: n.input_index)
            for b, s in zip(base_leaves, scaled_leaves):
                assert s.shape.center.x == pytest.approx(k * b.shape.center.x, rel=1e-12)
                assert s.shape.center.y == pytest.approx(k * b.shape.center.y, rel=1e-12)
                assert s.shape.radius == pytest.approx(k * b.shape.radius, rel=1e-12)

    def test_randomized_square_and_triangle_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(150):
            container = random_container(rng)
            areas = random_feasible_instance(rng, container, max_n=60)
            root = pack(PackRequest(container, CircleSet.from_areas(areas)))
            report = verify(root, expected_areas=areas)
            assert report.passed, report.summary()


class TestRequestValidation:
    def test_exact_boundary_accepted(self):
        areas = [PHI_SQUARE / 2.0, PHI_SQUARE / 2.0]
        root = pack(PackRequest(Square(1.0), CircleSet.from_areas(areas)))
        assert verify(root).passed

    def test_over_capacity(self):
        with pytest.raises(OverCapacityError) as err:
            pack(PackRequest(Square(1.0), CircleSet.from_areas([0.28, 0.28])))
        assert err.value.ratio == pytest.approx(0.56 / PHI_SQUARE, rel=1e-9)

    def test_min_size_respected(self):
        areas = [0.2, 0.15, 0.1]
        root = pack(PackRequest(Square(1.0), CircleSet.from_areas(areas)))
        assert verify(root, expected_areas=areas).passed

    @pytest.mark.parametrize("n", [311, 312])
    def test_yes_means_pack_succeeds_on_a_geometric_family(self, n):
        # areas capacity * 0.7 * 0.3**k: decide says "yes" to every n; from
        # n = 312 on, hat areas near 1e-162 would underflow an overshoot bound
        # written f_i * a_j / f_j
        capacity = packable_area(Square(1.0))
        areas = [capacity * 0.7 * 0.3**k for k in range(n)]
        assert decide(InstanceDocument(Square(1.0), areas))["packable"] == "yes"
        packing = pack(PackRequest(Square(1.0), CircleSet.from_areas(areas)))
        assert verify(packing, expected_areas=areas).passed

    @pytest.mark.parametrize("side,packs", [(1e78, True), (1e-80, True), (1e70, True),
                                            (1e-70, True), (1e-155, False)])
    def test_containers_past_the_float_range_are_refused(self, side, packs):
        # pack and decide work in the container's frame, so any container
        # whose area is a normal float packs; one of area 1e-310 is refused
        rng = np.random.default_rng(211)
        for container in (Square(side), Triangle.from_sides(3.0, 4.0, 5.0).scaled_about((0, 0), side)):
            areas = random_areas(rng, 40, 0.999 * packable_area(container))
            request = PackRequest(container, CircleSet.from_areas(areas))
            answer = decide(InstanceDocument(container, areas))["packable"]
            if packs:
                assert answer == "yes"
                assert verify(pack(request), expected_areas=areas).passed
            else:
                assert answer == "unknown"
                with pytest.raises(InvalidParameterError, match="not a positive normal float"):
                    pack(request)

    def test_non_positive_area_rejected(self):
        with pytest.raises(InvalidParameterError):
            CircleSet.from_areas([0.1, -0.2])
        # the raw constructor trusts its arguments; pack checks them again
        for area in (0.0, -0.2, math.nan):
            with pytest.raises(InvalidParameterError, match="must be positive"):
                pack(PackRequest(Square(1.0), CircleSet((0.1, area), (0, 1))))


FLOAT_COLUMNS = ("x", "y", "radius", "hat_vertices", "hat_rounding")


def scaled_container(container, j: int):
    """The container scaled by 2**j, exactly."""
    if isinstance(container, Square):
        return Square(math.ldexp(container.side, j))
    return Triangle(tuple(Point(math.ldexp(x, j), math.ldexp(y, j)) for x, y in container.vertices))


def packing_bits(packing, j: int = 0) -> tuple:
    """The record's columns, the float ones scaled by 2**j, as comparable bytes."""
    floats = [np.ldexp(np.asarray(getattr(packing, c), dtype=float), j).tobytes() for c in FLOAT_COLUMNS]
    return (*floats, bytes(packing.input_index), bytes(packing.hat_depth))


class TestFrame:
    def test_frame_puts_the_size_between_one_and_two(self):
        assert frame(Square(1.0)) == (0, Square(1.0))
        assert frame(Square(2.7)) == (-1, Square(1.35))
        assert frame(Square(0.013)) == (7, Square(0.013 * 128))
        k, t = frame(Triangle.from_sides(3.0, 4.0, 5.0))
        assert (k, max(t.side_lengths)) == (-2, 1.25)
        assert t.vertices == tuple(Point(x / 4, y / 4) for x, y in Triangle.from_sides(3.0, 4.0, 5.0).vertices)

    @pytest.mark.parametrize("j", [-250, -60, -1, 1, 60, 250])
    def test_scaled_requests_pack_and_verify_alike(self, j):
        # a container scaled by 2**j, with its areas by 4**j, packs to the
        # same record scaled by 2**j, bit for bit, and verifies alike
        rng = np.random.default_rng(223)
        for _ in range(12):
            container = random_container(rng)
            areas = random_feasible_instance(rng, container, max_n=60)
            packing = pack(PackRequest(container, CircleSet.from_areas(areas)))
            scaled_areas = [math.ldexp(a, 2 * j) for a in areas]
            scaled = pack(PackRequest(scaled_container(container, j), CircleSet.from_areas(scaled_areas)))
            assert scaled.container == scaled_container(container, j)
            assert packing_bits(scaled) == packing_bits(packing, j)
            report = verify(packing, expected_areas=areas)
            scaled_report = verify(scaled, expected_areas=scaled_areas)
            assert scaled_report.passed and report.passed
            assert scaled_report.check_count == report.check_count
            assert scaled_report.tolerance == math.ldexp(report.tolerance, j)
            assert scaled_report.worst_slack == math.ldexp(report.worst_slack, j)
            slacks = {c.ids: c.slack for c in scaled_report.checks}
            assert all(slacks[c.ids] == math.ldexp(c.slack, j) for c in report.checks)

    def test_a_tiny_square_fails_where_the_unit_square_does(self):
        # Square(2**-245) and Square(1) with areas capacity * 0.7 * 0.3**k:
        # the same error type or both a packing, the same bits once scaled by
        # 2**245 wherever the tiny square's areas are all normal floats; past
        # n = 306 its smallest areas are subnormal and carry fewer digits
        def outcome(container, n):
            areas = [packable_area(container) * 0.7 * 0.3**k for k in range(n)]
            try:
                return pack(PackRequest(container, CircleSet.from_areas(areas))), min(areas)
            except SplitPackError as exc:
                return type(exc), None

        for n in range(1, 321):
            (tiny, smallest), (unit, _) = outcome(Square(2.0**-245), n), outcome(Square(1.0), n)
            if not (isinstance(tiny, Packing) and isinstance(unit, Packing)):
                assert tiny == unit, n
            elif smallest >= sys.float_info.min:
                assert packing_bits(tiny, 245) == packing_bits(unit), n


class TestMinContainer:
    def test_single_circle_square(self):
        container = min_container(CircleSet.from_areas([math.pi]), "square")
        assert container.side == pytest.approx(1.0 + SQRT2, rel=1e-12)
        # the optimal container for one unit circle is the side-2 square
        realized = container.area / 4.0
        assert realized == pytest.approx((3.0 + 2.0 * SQRT2) / 4.0, rel=1e-12)
        assert realized < (3.0 + 2.0 * SQRT2) / math.pi

    def test_exact_capacity_square(self):
        container = min_container(CircleSet.from_areas([PHI_SQUARE]), Square(123.0))
        assert container.side == pytest.approx(1.0, rel=1e-12)

    def test_triangle_family(self):
        family = Triangle.from_sides(3.0, 4.0, 5.0)
        circle_area = 0.42
        container = min_container(CircleSet.from_areas([circle_area]), family)
        assert triangle_incircle(container).area == pytest.approx(circle_area, rel=1e-12)

    def test_result_packs(self):
        rng = np.random.default_rng(61)
        for family in ("square", Triangle.from_sides(3.0, 4.0, 5.0)):
            areas = list(rng.random(25) * 0.3 + 0.01)
            cs = CircleSet.from_areas(areas)
            container = min_container(cs, family)
            assert packable_area(container) == pytest.approx(left_to_right_sum(cs.areas), rel=1e-9)
            root = pack(PackRequest(container, cs))
            assert verify(root, expected_areas=areas).passed

    @pytest.mark.parametrize("family", ["square", Triangle.from_sides(3.0, 4.0, 5.0)],
                             ids=["square", "tri345"])
    def test_sized_by_the_total_that_pack_admits(self, family):
        # the left-to-right sum drops each 2**-53 next to 1.0; pack admits by the
        # exactly rounded sum, 1.1e-12 larger, and refused the container sized by the other
        areas = [1.0] + [2.0**-53] * 10_000
        cs = CircleSet.from_areas(areas)
        assert left_to_right_sum(cs.areas) == 1.0 < math.fsum(areas)
        root = pack(PackRequest(min_container(cs, family), cs))
        assert verify(root, expected_areas=areas).passed

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            min_container(CircleSet.from_areas([]), "square")
        with pytest.raises(InvalidParameterError, match="unknown container family"):
            min_container(CircleSet.from_areas([0.1]), "circle")
