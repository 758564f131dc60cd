import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roadrules.geometry import (
    LocalProjection,
    Point,
    Polyline,
    angle,
    distance,
    heading,
    normalize,
)

from helpers import brute_force_min_distance, point_near_line, random_monotone_polyline

finite_angle = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
coordinate = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
points = st.builds(Point, coordinate, coordinate)


class TestHeading:
    def test_due_north(self):
        assert heading(Point(0, 0), Point(0, 10)) == 0.0

    def test_due_east(self):
        assert heading(Point(0, 0), Point(10, 0)) == 90.0

    def test_southwest(self):
        assert heading(Point(0, 0), Point(-5, -5)) == 225.0

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            heading(Point(1, 1), Point(1, 1))

    @given(points, points)
    def test_range(self, a, b):
        if a == b:
            return
        h = heading(a, b)
        assert 0.0 <= h < 360.0


class TestNormalize:
    @pytest.mark.parametrize(
        "theta,expected",
        [(190.0, -170.0), (-180.0, 180.0), (0.0, 0.0), (540.0, 180.0), (360.0, 0.0)],
    )
    def test_examples(self, theta, expected):
        assert normalize(theta) == expected

    @given(finite_angle)
    def test_range(self, theta):
        r = normalize(theta)
        assert -180.0 < r <= 180.0

    @given(finite_angle)
    def test_idempotent(self, theta):
        assert normalize(normalize(theta)) == normalize(theta)


class TestAngle:
    def test_identical_vectors(self):
        assert angle(Point(0, 10), Point(0, 0), Point(0, 10)) == 0.0

    def test_clockwise_is_negative(self):
        assert angle(Point(0, 10), Point(0, 0), Point(10, 0)) == -90.0

    def test_counterclockwise_is_positive(self):
        assert angle(Point(10, 0), Point(0, 0), Point(0, 10)) == 90.0

    def test_tip_on_tail_rejected(self):
        with pytest.raises(ValueError):
            angle(Point(0, 0), Point(0, 0), Point(1, 1))

    @given(points, points, points)
    def test_antisymmetry(self, t1, o, t2):
        if t1 == o or t2 == o:
            return
        a = angle(t1, o, t2)
        if a == 180.0:  # both orientations normalize to +180
            return
        assert angle(t2, o, t1) == -a

    @given(points, points, points)
    def test_matches_heading_difference(self, t1, o, t2):
        if t1 == o or t2 == o:
            return
        assert angle(t1, o, t2) == normalize(heading(o, t1) - heading(o, t2))


class TestPolylineBasics:
    def test_length_two_segments(self):
        assert Polyline([(0, 0), (3, 0), (3, 4)]).length == 7.0

    def test_length_unit(self):
        assert Polyline([(0, 0), (1, 0)]).length == 1.0

    def test_length_diagonal(self):
        assert Polyline([(0, 0), (3, 4)]).length == 5.0

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            Polyline([(0, 0)])

    def test_rejects_zero_length_segment(self):
        with pytest.raises(ValueError):
            Polyline([(0, 0), (0, 0), (1, 1)])


class TestProject:
    line = Polyline([(0, 0), (3, 0), (3, 4)])

    def test_start(self):
        assert self.line.project(0) == Point(0, 0)

    def test_interior(self):
        assert self.line.project(5) == Point(3, 2)

    def test_clamps_past_end(self):
        assert self.line.project(99) == Point(3, 4)

    def test_clamps_negative(self):
        assert self.line.project(-5) == Point(0, 0)


class TestIndex:
    line = Polyline([(0, 0), (3, 0), (3, 4)])

    def test_vertex(self):
        assert self.line.index(Point(3, 0)) == 3.0

    def test_start(self):
        assert self.line.index(Point(0, 0)) == 0.0

    def test_inverse_of_project(self):
        assert self.line.index(Point(3, 2)) == 5.0

    def test_off_line_uses_closest_point(self):
        assert self.line.index(Point(1, -2)) == 1.0

    def test_self_overlap_resolves_to_smallest_arc(self):
        # last segment retraces the first: arc 5 and arc 35 are both at distance 0
        loop = Polyline([(0, 0), (10, 0), (10, 5), (0, 5), (0, 0), (10, 0)])
        assert loop.index(Point(5, 0)) == 5.0


class TestClosest:
    line = Polyline([(0, 0), (10, 0)])

    def test_perpendicular_foot(self):
        assert self.line.closest(Point(5, 3)) == Point(5, 0)

    def test_endpoint_clamp(self):
        assert self.line.closest(Point(12, 1)) == Point(10, 0)

    def test_point_on_line(self):
        assert self.line.closest(Point(5, 0)) == Point(5, 0)


class TestDistance:
    def test_point_distance(self):
        assert distance(Point(0, 0), Point(3, 4)) == 5.0

    def test_line_distance(self):
        assert Polyline([(0, 0), (10, 0)]).distance_to(Point(5, 3)) == 3.0

    def test_zero(self):
        assert distance(Point(1, 1), Point(1, 1)) == 0.0


class TestRoundTrip:
    def test_project_index_round_trip(self):
        rng = random.Random(17)
        for _ in range(200):
            line = random_monotone_polyline(rng)
            for _ in range(5):
                d = rng.uniform(0.0, line.length)
                assert abs(line.index(line.project(d)) - d) <= 1e-6

    def test_closest_beats_brute_force(self):
        rng = random.Random(23)
        for _ in range(25):
            line = random_monotone_polyline(rng)
            p = point_near_line(rng, line)
            exact = line.distance_to(p)
            sampled = brute_force_min_distance(line, p)
            assert exact <= sampled + 1e-9
            assert sampled >= exact - 1e-3


class TestLocalProjection:
    def test_origin_maps_to_zero(self):
        proj = LocalProjection(8.4, 43.36)
        assert proj.to_planar(8.4, 43.36) == Point(0.0, 0.0)

    def test_meridian_scale(self):
        proj = LocalProjection(0.0, 45.0)
        p = proj.to_planar(0.0, 45.001)
        # one millidegree of latitude is ~111.3 m on the WGS84 sphere
        assert p.y == pytest.approx(111.3, abs=0.5)
        assert p.x == 0.0

    def test_longitude_shrinks_with_latitude(self):
        equator = LocalProjection(0.0, 0.0).to_planar(0.001, 0.0)
        highlat = LocalProjection(0.0, 60.0).to_planar(0.001, 60.0)
        assert highlat.x == pytest.approx(equator.x * 0.5, rel=1e-9)

    def test_centered_on_centroid(self):
        proj = LocalProjection.centered([(1.0, 10.0), (3.0, 20.0)])
        assert (proj.lon0, proj.lat0) == (2.0, 15.0)

    def test_centroid_sums_left_to_right(self):
        # a compensated sum (Python 3.12's sum()) gives exactly 1.0 here
        proj = LocalProjection.centered([(0.1, 0.1)] * 10)
        assert proj.lon0 == proj.lat0 == 0.9999999999999999 / 10
