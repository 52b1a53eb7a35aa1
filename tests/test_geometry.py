"""Tests for the closed-form constructions and distance primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitpack as sp
from splitpack import (
    PHI_SQUARE,
    InvalidParameterError,
    Square,
    Triangle,
    UnsupportedContainerError,
    critical_density,
)
from conftest import random_non_acute_triangle, triangle_from_angles
from reference_geometry import (
    Hat,
    altitude_foot,
    altitude_halves,
    convex_polygon_distance,
    hat_dimensions,
    point_segment_distance,
    segment_segment_distance,
    signed_distance,
    split_key,
    triangle_incircle,
)

SQRT2 = math.sqrt(2.0)


class TestHatDimensions:
    def test_unit_incircle_sharp_corners(self):
        dims = hat_dimensions(math.pi, 0.0)
        assert dims.h == pytest.approx(1.0 + SQRT2, rel=1e-12)
        assert dims.w == pytest.approx(2.0 + 2.0 * SQRT2, rel=1e-12)
        assert dims.d == pytest.approx(2.0 + SQRT2, rel=1e-12)
        assert dims.w_corner == pytest.approx(dims.w, rel=1e-12)
        assert dims.d_corner == pytest.approx(dims.d, rel=1e-12)

    def test_fully_rounded_width_is_incircle_diameter(self):
        dims = hat_dimensions(math.pi, math.pi)
        assert dims.w == pytest.approx(2.0, rel=1e-12)

    def test_mixed_rounding(self):
        # sqrt(2)*(2 + 2*sqrt(2)) - 2*sqrt(2) simplifies to exactly 4
        dims = hat_dimensions(2.0 * math.pi, math.pi)
        assert dims.w == pytest.approx(4.0, rel=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            hat_dimensions(0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            hat_dimensions(-1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            hat_dimensions(1.0, 1.5)

    def test_corner_width_gap(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = float(rng.uniform(0.01, 20.0))
            b = float(rng.uniform(0.0, a))
            dims = hat_dimensions(a, b)
            gap = math.sqrt(b / math.pi) * SQRT2
            assert dims.w_corner - dims.w == pytest.approx(gap, rel=1e-12, abs=1e-15)
            assert dims.d_corner >= dims.d
            assert dims.w_corner >= dims.w
            # construction consistency: the width exceeds twice the leg
            # extent by exactly the incircle diameter
            r = math.sqrt(a / math.pi)
            assert dims.w == pytest.approx(2.0 * dims.d - 2.0 * r, rel=1e-12)

    def test_corner_width_strictly_increasing(self):
        values = [hat_dimensions(a, 0.0).w_corner for a in np.linspace(0.01, 10.0, 500)]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))

    def test_corner_diagonal_sum_bounded_by_width(self):
        # the two corner-anchored hats never overlap along the container base
        for a in (0.5, 1.0, math.pi, 7.3):
            w = hat_dimensions(a, 0.0).w
            for a1 in np.linspace(0.0, a / 2.0, 1001):
                lhs = hat_dimensions(max(a1, 1e-300), 0.0).d_corner
                lhs += hat_dimensions(a - a1, 0.0).d_corner
                assert lhs <= w * (1.0 + 1e-12)

    def test_rounded_corner_width_bounded_by_diagonal(self):
        # the larger, rounded hat still fits along the container diagonal
        for a in (0.5, 1.0, math.pi, 7.3):
            d = hat_dimensions(a, 0.0).d
            for a1 in np.linspace(0.0, a / 2.0, 1001):
                w_corner = hat_dimensions(a - a1, a - 2.0 * a1).w_corner
                assert w_corner <= d * (1.0 + 1e-12)


class TestTriangle:
    def test_canonical_345(self):
        t = Triangle.from_sides(3.0, 4.0, 5.0)
        assert t.vertices[0] == (0.0, 0.0)
        assert t.vertices[1] == (5.0, 0.0)
        assert t.vertices[2][0] == pytest.approx(1.8, rel=1e-12)
        assert t.vertices[2][1] == pytest.approx(2.4, rel=1e-12)
        assert t.is_non_acute
        assert t.apex_angle == pytest.approx(math.pi / 2, abs=1e-12)

    def test_from_sides_cyclic_rotations_agree(self):
        base = Triangle.from_sides(3.0, 4.0, 5.0)
        for sides in ((4.0, 5.0, 3.0), (5.0, 3.0, 4.0)):
            other = Triangle.from_sides(*sides)
            for p, q in zip(base.vertices, other.vertices):
                assert p == pytest.approx(q, abs=1e-12)

    def test_clockwise_input_is_flipped(self):
        ccw = Triangle(((0, 0), (2, 0), (0, 1)))
        cw = Triangle(((0, 0), (0, 1), (2, 0)))
        assert set(ccw.vertices) == set(cw.vertices)
        assert cw.area == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidParameterError):
            Triangle(((0, 0), (1, 1), (2, 2)))
        with pytest.raises(InvalidParameterError):
            Triangle.from_sides(1.0, 1.0, 2.0)
        with pytest.raises(InvalidParameterError):
            Triangle.from_sides(1.0, -1.0, 1.0)

    def test_base_split_longest_side(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            t = random_non_acute_triangle(rng)
            left, right, apex = t.base_split
            base = math.dist(left, right)
            assert base == pytest.approx(max(t.side_lengths), rel=1e-12)
            # the altitude foot splits the base strictly inside
            foot = altitude_foot(t)
            assert 0.0 < math.dist(left, foot) < base

    def test_acute_classification(self):
        assert not triangle_from_angles(math.pi / 3, math.pi / 3).is_non_acute
        assert triangle_from_angles(0.4, math.pi / 2).is_non_acute
        assert triangle_from_angles(0.3, 2.0).is_non_acute


class TestIncircle:
    def test_345(self):
        # Heron: s = 6, area = sqrt(6*3*2*1) = 6, r = area/s = 1
        t = Triangle.from_sides(3.0, 4.0, 5.0)
        circle = triangle_incircle(t)
        assert circle.radius == pytest.approx(1.0, rel=1e-12)
        assert circle.area == pytest.approx(math.pi, rel=1e-12)
        assert signed_distance(circle.center, t) == pytest.approx(1.0, rel=1e-12)

    def test_equilateral(self):
        side = 2.0 * math.sqrt(3.0)
        t = Triangle.from_sides(side, side, side)
        circle = triangle_incircle(t)
        assert circle.radius == pytest.approx(1.0, rel=1e-12)
        centroid = (
            sum(p.x for p in t.vertices) / 3.0,
            sum(p.y for p in t.vertices) / 3.0,
        )
        assert circle.center == pytest.approx(centroid, rel=1e-12)

    def test_right_isosceles(self):
        # r = (leg + leg - hypotenuse) / 2 = (2 - sqrt(2)) / 2
        t = Triangle.from_sides(1.0, 1.0, SQRT2)
        assert triangle_incircle(t).radius == pytest.approx((2.0 - SQRT2) / 2.0, rel=1e-12)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_tangent_to_all_sides(self, data):
        coords = data.draw(
            st.lists(
                st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
                min_size=6,
                max_size=6,
            )
        )
        pts = [(coords[0], coords[1]), (coords[2], coords[3]), (coords[4], coords[5])]
        doubled = (pts[1][0] - pts[0][0]) * (pts[2][1] - pts[0][1]) - (
            pts[1][1] - pts[0][1]
        ) * (pts[2][0] - pts[0][0])
        scale = max(abs(c) for c in coords)
        if scale < 1e-3 or abs(doubled) < 1e-3 * scale * scale:
            return  # skip near-degenerate triangles
        t = Triangle(tuple(pts))
        circle = triangle_incircle(t)
        v = t.vertices
        for i in range(3):
            d = point_segment_distance(circle.center, v[i], v[(i + 1) % 3])
            assert d == pytest.approx(circle.radius, rel=1e-9, abs=1e-12 * scale)


class TestTwincircles:
    """The two equal circles pack places at critical density in a square."""

    def test_tangency(self):
        for side in (1.0, 2.5, 0.3):
            a = PHI_SQUARE * side * side
            root = sp.pack(sp.PackRequest(Square(side), sp.CircleSet.from_areas([a / 2.0, a / 2.0])))
            c1, c2 = (leaf.shape for leaf in sorted(root.circle_leaves(), key=lambda n: n.input_index))
            gap = math.dist(c1.center, c2.center)
            assert gap == pytest.approx(c1.radius + c2.radius, rel=1e-12)
            # each circle touches the two nearest sides
            assert min(c1.center) == pytest.approx(c1.radius, rel=1e-12)
            assert side - max(c2.center) == pytest.approx(c2.radius, rel=1e-12)


class TestCriticalDensity:
    def test_square(self):
        assert critical_density(Square(1.0)) == pytest.approx(0.539012, abs=1e-6)
        assert critical_density(Square(7.0)) == PHI_SQUARE

    def test_345(self):
        t = Triangle.from_sides(3.0, 4.0, 5.0)
        assert critical_density(t) == pytest.approx(math.pi / 6.0, rel=1e-12)

    def test_right_isosceles_matches_square(self):
        t = Triangle.from_sides(1.0, 1.0, SQRT2)
        assert critical_density(t) == pytest.approx(0.5390, abs=5e-5)
        assert critical_density(t) == pytest.approx(PHI_SQUARE, rel=1e-12)

    def test_formula_matches_area_ratio(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            t = random_non_acute_triangle(rng, right=bool(rng.random() < 0.5))
            circle = triangle_incircle(t)
            assert critical_density(t) == pytest.approx(circle.area / t.area, rel=1e-12)

    def test_acute_rejected(self):
        with pytest.raises(UnsupportedContainerError):
            critical_density(Triangle.from_sides(1.0, 1.0, 1.0))

    @pytest.mark.xfail(raises=UnsupportedContainerError, strict=True,
                       reason="the rounded hypotenuse ties with the long leg in base_split "
                              "(ROADMAP item 3)")
    def test_needle_right_triangle_is_not_refused_as_acute(self):
        assert sp.packable_area(Triangle(((0.0, 0.0), (1.0, 0.0), (0.0, 1e-8)))) > 0.0


class TestSplitKey:
    """pack's split key, read from the shape table, against the reference
    construction: the incircle areas of the triangle's altitude halves."""

    def test_right_isosceles_halves_evenly(self):
        t = Triangle.from_sides(1.0, 1.0, SQRT2)
        f1, f2 = split_key(t)
        a = triangle_incircle(t).area
        assert f1 == pytest.approx(a / 2.0, rel=1e-12)
        assert f2 == pytest.approx(a / 2.0, rel=1e-12)

    def test_345(self):
        # altitude 12/5 splits the hypotenuse into 9/5 and 16/5;
        # the halves' inradii are 3/5 and 4/5
        f1, f2 = split_key(Triangle.from_sides(3.0, 4.0, 5.0))
        assert f1 == pytest.approx(9.0 * math.pi / 25.0, rel=1e-12)
        assert f2 == pytest.approx(16.0 * math.pi / 25.0, rel=1e-12)
        assert f1 + f2 == pytest.approx(math.pi, rel=1e-12)

    def test_obtuse_exceeds_incircle(self):
        t = Triangle(((0.0, 0.0), (4.0, 0.0), (1.0, 0.8)))
        assert t.is_non_acute
        f1, f2 = split_key(t)
        assert f1 + f2 > triangle_incircle(t).area

    def test_sum_at_least_incircle(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            t = random_non_acute_triangle(rng, right=bool(rng.random() < 0.5))
            key = split_key(t)
            halves = [triangle_incircle(h).area for h in altitude_halves(t)]
            assert key == pytest.approx(halves, rel=1e-12)
            a = triangle_incircle(t).area
            assert sum(key) >= a * (1.0 - 1e-12)


class TestSignedDistance:
    def test_incenter(self):
        t = Triangle.from_sides(3.0, 4.0, 5.0)
        assert signed_distance(triangle_incircle(t).center, t) == pytest.approx(1.0, rel=1e-12)

    def test_vertices_on_boundary(self):
        t = Triangle.from_sides(3.0, 4.0, 5.0)
        for v in t.vertices:
            assert signed_distance(v, t) == pytest.approx(0.0, abs=1e-12)

    def test_outside_negative(self):
        t = Triangle.from_sides(3.0, 4.0, 5.0)
        assert signed_distance((-1.0, -1.0), t) < 0.0
        assert signed_distance((2.0, 50.0), t) < 0.0


class TestConvexDistance:
    def _square(self, x0, y0, side):
        return [(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)]

    def test_touching_squares(self):
        assert convex_polygon_distance(self._square(0, 0, 1), self._square(1, 0, 1)) == 0.0

    def test_gap_of_one(self):
        d = convex_polygon_distance(self._square(0, 0, 1), self._square(2, 0, 1))
        assert d == pytest.approx(1.0, rel=1e-12)

    def test_nested(self):
        assert convex_polygon_distance(self._square(0, 0, 5), self._square(2, 2, 1)) == 0.0

    def test_degenerate_point_input(self):
        d = convex_polygon_distance([(0.0, 0.0)], self._square(3, 4, 1))
        assert d == pytest.approx(5.0, rel=1e-12)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_translated_copy_matches_segment_bruteforce(self, data):
        coords = data.draw(
            st.lists(
                st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
                min_size=8,
                max_size=8,
            )
        )
        pts = [(coords[0], coords[1]), (coords[2], coords[3]), (coords[4], coords[5])]
        doubled = (pts[1][0] - pts[0][0]) * (pts[2][1] - pts[0][1]) - (
            pts[1][1] - pts[0][1]
        ) * (pts[2][0] - pts[0][0])
        if abs(doubled) < 1e-3:
            return
        if doubled < 0:
            pts = [pts[0], pts[2], pts[1]]
        dx, dy = coords[6], coords[7]
        moved = [(x + dx, y + dy) for x, y in pts]
        # congruent translated copies can touch or overlap but never strictly
        # contain one another, so the brute-force segment minimum is exact
        brute = min(
            segment_segment_distance(pts[i], pts[(i + 1) % 3], moved[j], moved[(j + 1) % 3])
            for i in range(3)
            for j in range(3)
        )
        assert convex_polygon_distance(pts, moved) == pytest.approx(brute, abs=1e-12)


class TestHat:
    def test_rounding_bounds(self):
        t = Triangle.from_sides(3.0, 4.0, 5.0)
        Hat(t, 0.0)
        Hat(t, 1.0)  # exactly the inradius
        with pytest.raises(InvalidParameterError):
            Hat(t, 1.1)
        with pytest.raises(InvalidParameterError):
            Hat(t, -0.1)
        with pytest.raises(InvalidParameterError):
            Hat(Triangle.from_sides(1.0, 1.0, 1.0), 0.0)  # acute

    def test_fully_rounded_is_incircle(self):
        t = Triangle.from_sides(3.0, 4.0, 5.0)
        hat = Hat(t, 1.0)
        incenter = triangle_incircle(t).center
        for corner in hat.eroded_corners():
            assert corner == pytest.approx(incenter, abs=1e-12)

    def test_eroded_corners_pull_inward(self):
        t = Triangle.from_sides(3.0, 4.0, 5.0)
        hat = Hat(t, 0.4)
        for corner in hat.eroded_corners():
            assert signed_distance(corner, t) == pytest.approx(0.4, rel=1e-9)

    def test_rounding_area_roundtrip(self):
        t = Triangle.from_sides(3.0, 4.0, 5.0)
        hat = Hat(t, math.sqrt(0.5 / math.pi))
        assert math.pi * hat.rounding_radius**2 == pytest.approx(0.5, rel=1e-12)
        assert hat.incircle.area == pytest.approx(math.pi, rel=1e-12)
