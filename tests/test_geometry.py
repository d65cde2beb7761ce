import math
import random

import pytest

from trajpredict.geometry import (
    Curve,
    Point2,
    curvature_at_s,
    menger_curvature,
    point_at_s,
    project_point,
    tail_from,
    wrap_angle,
)


def circle_curve(radius, n, clockwise=False, closed=False):
    sign = -1.0 if clockwise else 1.0
    count = n + 1 if closed else n
    pts = []
    for k in range(count):
        ang = sign * 2.0 * math.pi * (k % n) / n
        pts.append((radius * math.cos(ang), radius * math.sin(ang)))
    return Curve(pts)


def random_polyline(rng, n=None):
    n = n or rng.randint(2, 12)
    x, y = rng.uniform(-10, 10), rng.uniform(-10, 10)
    pts = [(x, y)]
    for _ in range(n - 1):
        x += rng.uniform(0.1, 5.0) * math.cos(rng.uniform(-math.pi, math.pi))
        y += rng.uniform(0.1, 5.0) * math.sin(rng.uniform(-math.pi, math.pi))
        pts.append((x, y))
    return Curve(pts)


class TestCurveConstruction:
    def test_unit_square_path_length(self):
        assert Curve([(0, 0), (1, 0), (1, 1)]).length == 2.0

    def test_three_four_five_segment(self):
        assert Curve([(0, 0), (3, 4)]).length == 5.0

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Curve([(0, 0), (0, 0)])
        with pytest.raises(ValueError, match="duplicate"):
            Curve([(0, 0), (1, 0), (1, 0), (2, 0)])

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            Curve([(0, 0)])

    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(ValueError):
            Point2(math.nan, 0.0)
        with pytest.raises(ValueError):
            Point2(0.0, math.inf)

    def test_cumulative_arc_length_matches_segments(self):
        c = Curve([(0, 0), (1, 0), (1, 2), (4, 6)])
        assert c.cumulative_s == (0.0, 1.0, 3.0, 8.0)


class TestPointAtS:
    def test_midpoint_of_straight_segment(self):
        pos, heading = point_at_s(Curve([(0, 0), (10, 0)]), 5.0)
        assert (pos.x, pos.y) == (5.0, 0.0)
        assert heading == 0.0

    def test_endpoint(self):
        pos, heading = point_at_s(Curve([(0, 0), (0, 10)]), 10.0)
        assert (pos.x, pos.y) == (0.0, 10.0)
        assert heading == pytest.approx(math.pi / 2)

    def test_beyond_end_extrapolates_along_tangent(self):
        pos, heading = point_at_s(Curve([(0, 0), (10, 0)]), 12.0)
        assert (pos.x, pos.y) == (12.0, 0.0)
        assert heading == 0.0

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            point_at_s(Curve([(0, 0), (10, 0)]), -0.1)

    def test_vertex_belongs_to_outgoing_segment(self):
        c = Curve([(0, 0), (10, 0), (10, 10)])
        _, heading = point_at_s(c, 10.0)
        assert heading == pytest.approx(math.pi / 2)

    def test_chord_never_exceeds_arc_length(self):
        rng = random.Random(7)
        for _ in range(50):
            c = random_polyline(rng)
            s1 = rng.uniform(0, c.length)
            s2 = rng.uniform(s1, c.length)
            p1, _ = point_at_s(c, s1)
            p2, _ = point_at_s(c, s2)
            assert p1.distance_to(p2) <= s2 - s1 + 1e-9


class TestCurvature:
    def test_straight_polyline_is_flat(self):
        c = Curve([(0, 0), (1, 1), (2, 2), (5, 5)])
        for s in (0.0, 1.0, 2.5, c.length):
            assert curvature_at_s(c, s) == 0.0

    def test_two_point_curve_is_flat(self):
        assert curvature_at_s(Curve([(0, 0), (3, 4)]), 2.0) == 0.0

    def test_circle_matches_reciprocal_radius(self):
        c = circle_curve(10.0, 36)
        for s in (0.5, c.length / 3, c.length / 2, 0.9 * c.length):
            assert abs(curvature_at_s(c, s) - 0.1) <= 0.002

    def test_orientation_flips_sign(self):
        ccw = circle_curve(10.0, 36)
        cw = circle_curve(10.0, 36, clockwise=True)
        k_ccw = curvature_at_s(ccw, 5.0)
        k_cw = curvature_at_s(cw, 5.0)
        assert k_ccw > 0 > k_cw
        assert abs(k_ccw) == pytest.approx(abs(k_cw), abs=1e-12)

    def test_error_shrinks_with_vertex_density(self):
        errors = []
        for n in (12, 24, 48, 96):
            c = circle_curve(10.0, n)
            errors.append(abs(curvature_at_s(c, c.length / 2) - 0.1))
        assert errors[-1] <= errors[0] + 1e-12
        assert errors[-1] < 1e-9

    def test_beyond_end_is_flat(self):
        c = circle_curve(10.0, 36)
        assert curvature_at_s(c, c.length + 1.0) == 0.0

    def test_menger_triple_on_known_circle(self):
        # circumradius of an isoceles right triangle with hypotenuse 2: R = 1
        assert menger_curvature(Point2(-1, 0), Point2(0, 1), Point2(1, 0)) == pytest.approx(-1.0)


class TestProjectPoint:
    def test_perpendicular_drop(self):
        assert project_point(Curve([(0, 0), (10, 0)]), Point2(5, 2)) == (5.0, 2.0)

    def test_clamped_to_start(self):
        assert project_point(Curve([(0, 0), (10, 0)]), Point2(-1, 0)) == (0.0, 1.0)

    def test_corner_tie_breaks_to_smaller_s(self):
        # the corner of an L is equidistant from both segments
        c = Curve([(0, 0), (10, 0), (10, 10)])
        s, _ = project_point(c, Point2(11, -1))
        assert s == 10.0

    def test_matches_dense_scan(self):
        rng = random.Random(13)
        for _ in range(20):
            c = random_polyline(rng, n=5)
            p = Point2(rng.uniform(-15, 15), rng.uniform(-15, 15))
            s, distance = project_point(c, p)
            best = min(
                point_at_s(c, min(k * c.length / 20000, c.length))[0].distance_to(p)
                for k in range(20001)
            )
            found = point_at_s(c, s)[0].distance_to(p)
            assert found <= best + 1e-6
            assert abs(distance - found) <= 1e-12

    def test_roundtrip_on_curve_points(self):
        rng = random.Random(29)
        for _ in range(30):
            c = random_polyline(rng)
            # stay strictly inside a segment to avoid vertex ambiguity
            i = rng.randrange(len(c.points) - 1)
            u = rng.uniform(0.05, 0.95)
            s = c.cumulative_s[i] + u * (c.cumulative_s[i + 1] - c.cumulative_s[i])
            pos, _ = point_at_s(c, s)
            s_back, distance = project_point(c, pos)
            assert abs(s_back - s) <= 1e-9
            assert distance <= 1e-9


class TestTailFrom:
    def test_tail_starts_at_cut_point(self):
        c = Curve([(0, 0), (10, 0), (10, 10)])
        tail = tail_from(c, 4.0)
        assert (tail.points[0].x, tail.points[0].y) == (4.0, 0.0)
        assert tail.length == pytest.approx(16.0)

    def test_cut_at_vertex_drops_upstream(self):
        c = Curve([(0, 0), (10, 0), (10, 10)])
        tail = tail_from(c, 10.0)
        assert tail.points == c.points[1:]

    def test_cut_at_end_rejected(self):
        c = Curve([(0, 0), (10, 0)])
        with pytest.raises(ValueError):
            tail_from(c, 10.0)


class TestWrapAngle:
    def test_half_turn_maps_to_positive_pi(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)

    def test_identity_inside_range(self):
        for theta in (-3.0, -1.0, 0.0, 1.0, 3.0):
            assert wrap_angle(theta) == pytest.approx(theta)

    def test_wraps_large_angles(self):
        assert wrap_angle(2 * math.pi + 0.25) == pytest.approx(0.25)
        assert wrap_angle(-2 * math.pi - 0.25) == pytest.approx(-0.25)
