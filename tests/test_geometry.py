import math
import random
import sys
from bisect import bisect_right

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

    def test_zero_length_segment_is_named_by_its_vertex(self):
        # 0.0 == -0.0: the segment has zero length even though the spellings differ
        with pytest.raises(ValueError, match="^zero-length segment at vertex 1$"):
            Polyline([(1, 1), (0.0, 5.0), (-0.0, 5.0)])

    def test_is_the_tuple_of_its_points(self):
        # the line holds its vertices and nothing else: no lengths, no __dict__
        line = Polyline([(0, 0), (3, 4)])
        assert line == (Point(0, 0), Point(3, 4))
        assert sys.getsizeof(line) == sys.getsizeof(tuple(line))
        assert not hasattr(line, "__dict__")
        # and a tuple's own methods keep their meaning: positions and counts
        line = Polyline([(0, 0), (3, 0), (3, 4), (0, 0)])
        assert line.index(line[2]) == 2 and line.index((0, 0)) == 0
        assert line.count(Point(0, 0)) == 2 and line.count(Point(3, 2)) == 0


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


class TestNearestArc:
    """The arc length ``nearest`` gives with its distance."""

    line = Polyline([(0, 0), (3, 0), (3, 4)])

    def test_vertex(self):
        assert self.line.nearest(Point(3, 0))[1] == 3.0

    def test_start(self):
        assert self.line.nearest(Point(0, 0))[1] == 0.0

    def test_inverse_of_project(self):
        assert self.line.nearest(Point(3, 2))[1] == 5.0

    def test_off_line_uses_closest_point(self):
        assert self.line.nearest(Point(1, -2))[1] == 1.0

    def test_self_overlap_resolves_to_smallest_arc(self):
        # last segment retraces the first: arc 5 and arc 35 are both at distance 0
        loop = Polyline([(0, 0), (10, 0), (10, 5), (0, 5), (0, 0), (10, 0)])
        assert loop.nearest(Point(5, 0))[1] == 5.0


class TestDistance:
    def test_point_distance(self):
        assert distance(Point(0, 0), Point(3, 4)) == 5.0

    def test_line_distance(self):
        assert Polyline([(0, 0), (10, 0)]).nearest(Point(5, 3))[0] == 3.0

    def test_zero(self):
        assert distance(Point(1, 1), Point(1, 1)) == 0.0


class TestSegmentWhoseSquareUnderflows:
    """A 1e-200 m segment is not zero-length, but its squared length is 0.0."""

    line = Polyline([(0, 0), (1e-200, 0), (100, 0)])

    def test_measured_at_its_start(self):
        assert self.line.nearest(Point(-2, -3))[0] == math.hypot(2, 3)
        assert self.line.nearest(Point(-2, -3))[1] == 0.0
        assert self.line.nearest(Point(5e-201, 1))[0] == 1.0
        assert self.line.nearest(Point(5e-201, 1))[1] == 0.0

    def test_next_segment_unaffected(self):
        assert self.line.nearest(Point(50, 4))[0] == 4.0
        assert self.line.nearest(Point(50, 4))[1] == 50.0

    def test_cumulative_length_repeated(self):
        # 100.0 + 1e-200 == 100.0: two vertices share one cumulative length
        line = Polyline([(0, 0), (100, 0), (100, 1e-200), (100, 50)])
        assert line.project(100.0) == Point(100, 1e-200)
        assert line.project(120.0) == Point(100, 20)
        assert line.nearest(Point(101, 1e-200))[1] == 100.0

    def test_line_of_one_such_segment(self):
        line = Polyline([(0, 0), (0, 1e-200)])
        assert line.length == 1e-200
        assert line.nearest(Point(3, 4))[0] == 5.0
        assert line.nearest(Point(3, 4))[1] == 0.0


class TestRoundTrip:
    def test_project_nearest_round_trip(self):
        rng = random.Random(17)
        for _ in range(200):
            line = random_monotone_polyline(rng)
            for _ in range(5):
                d = rng.uniform(0.0, line.length)
                assert abs(line.nearest(line.project(d))[1] - d) <= 1e-6

    def test_closest_beats_brute_force(self):
        rng = random.Random(23)
        for _ in range(25):
            line = random_monotone_polyline(rng)
            p = point_near_line(rng, line)
            exact = line.nearest(p)[0]
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


def cumulative_table(line):
    """The arc length from the start to each vertex, as a running left fold."""
    cumulative = [0.0]
    for a, b in zip(line, line[1:]):
        cumulative.append(cumulative[-1] + distance(a, b))
    return cumulative


def reference_project(line, d):
    """``Polyline.project`` by bisection of a cumulative table."""
    cumulative = cumulative_table(line)
    if d <= 0.0:
        return line[0]
    if d >= cumulative[-1]:
        return line[-1]
    i = bisect_right(cumulative, d) - 1
    a, b = line[i], line[i + 1]
    t = (d - cumulative[i]) / (cumulative[i + 1] - cumulative[i])
    return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


def reference_nearest(line, p):
    """``Polyline.nearest`` with each segment's start read from a cumulative table."""
    cumulative = cumulative_table(line)
    best_d = math.inf
    best_arc = 0.0
    for i in range(len(line) - 1):
        a, b = line[i], line[i + 1]
        abx, aby = b.x - a.x, b.y - a.y
        seg2 = abx * abx + aby * aby
        t = ((p.x - a.x) * abx + (p.y - a.y) * aby) / seg2 if seg2 else 0.0
        t = min(max(t, 0.0), 1.0)
        q = Point(a.x + t * abx, a.y + t * aby)
        d = math.hypot(q.x - p.x, q.y - p.y)
        if d < best_d:
            best_d = d
            best_arc = cumulative[i] + t * math.sqrt(seg2)
    return best_d, best_arc


class TestAgainstCumulativeTable:
    """Lengths summed as they are used give the bits a stored table gave.

    The reference keeps each line's cumulative lengths in a table and
    bisects it; every result is compared by ``repr``, so 0.0 and -0.0 differ.
    """

    def check(self, line, distances, points):
        cumulative = cumulative_table(line)
        assert repr(line.length) == repr(cumulative[-1])
        for d in [*distances, *cumulative, -1.0, 0.0, -0.0, cumulative[-1] * 2.0]:
            assert repr(line.project(d)) == repr(reference_project(line, d)), d
        for p in [*points, *line]:
            assert repr(line.nearest(p)) == repr(reference_nearest(line, p)), p

    def test_random_lines(self):
        rng = random.Random(41)
        for _ in range(500):
            line = random_monotone_polyline(rng)
            distances = [rng.uniform(0.0, line.length) for _ in range(5)]
            self.check(line, distances, [point_near_line(rng, line) for _ in range(5)])

    def test_two_vertex_lines(self):
        rng = random.Random(43)
        for _ in range(200):
            a = Point(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
            line = Polyline([a, (a.x + rng.uniform(-50.0, 50.0), a.y + rng.uniform(-50.0, 50.0))])
            distances = [rng.uniform(0.0, line.length) for _ in range(3)]
            self.check(line, distances, [point_near_line(rng, line) for _ in range(3)])

    @pytest.mark.parametrize(
        "vertices",
        [
            [(0, 0), (1e-200, 0), (100, 0)],
            [(0, 0), (100, 0), (100, 1e-200), (100, 50)],
            [(0, 0), (0, 1e-200)],
            [(0, 0), (100, 0), (100, 1e-200), (100, 2e-200), (0, 2e-200)],
            [(0, 0), (1e-200, 0), (1e-200, 1e-200), (30, 30)],
        ],
    )
    def test_tiny_segments_and_repeated_sums(self, vertices):
        line = Polyline(vertices)
        distances = [50.0, 100.0, 100.0 + 1e-13, 120.0, 1e-200, 5e-201, math.nextafter(100.0, 0.0)]
        points = [Point(-2, -3), Point(5e-201, 1), Point(101, 1e-200), Point(50, 4), Point(3, 4)]
        self.check(line, distances, points)

    def test_self_overlapping_tie(self):
        # the last segment retraces the first: arc 5 and arc 35 tie at distance 0
        loop = Polyline([(0, 0), (10, 0), (10, 5), (0, 5), (0, 0), (10, 0)])
        self.check(loop, [5.0, 30.0, 35.0], [Point(5, 0), Point(5, 2.5), Point(10, 2.5)])
