import math

import pytest

from roadrules.geometry import Point, Polyline, distance
from roadrules.signs import CELL, Sign, SignIndex, SignType


def sign(sign_id, x, y, code="R-101", azimuth=0.0) -> Sign:
    return Sign(sign_id, Point(x, y), SignType(code), azimuth)


class TestSignType:
    def test_all_eight_codes(self):
        codes = {"R-101", "R-302", "R-303", "R-400a", "R-400b", "R-400c", "R-400d", "R-400e"}
        assert {t.value for t in SignType} == codes

    def test_from_code(self):
        assert SignType("R-101") is SignType.R101

    def test_unknown_code(self):
        with pytest.raises(ValueError, match="R-500"):
            SignType("R-500")


class TestSign:
    def test_azimuth_wraps_to_zero(self):
        assert sign("s", 0, 0, azimuth=360.0).azimuth == 0.0

    def test_azimuth_wraps_large_values(self):
        assert sign("s", 0, 0, azimuth=725.0).azimuth == 5.0

    @pytest.mark.parametrize("azimuth", [math.nan, math.inf, -math.inf])
    def test_non_finite_azimuth_rejected(self, azimuth):
        with pytest.raises(ValueError, match="azimuth"):
            sign("s", 0, 0, azimuth=azimuth)


class TestSignIndex:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate sign id"):
            SignIndex([sign("s", 0, 0), sign("s", 1, 1)])

    def test_radius_boundary_inclusive(self):
        index = SignIndex([sign("near", 14.9, 0), sign("far", 15.1, 0)])
        hits = index.signs_within(Point(0, 0), 15.0)
        assert [s.id for s in hits] == ["near"]

    def test_empty_inventory(self, empty_index):
        assert empty_index.signs_within(Point(0, 0), 15.0) == []
        assert empty_index.signs_within_line(Polyline([(0, 0), (1, 0)]), 10.0) == []

    def test_positive_radius_required(self, empty_index):
        with pytest.raises(ValueError):
            empty_index.signs_within(Point(0, 0), 0.0)
        with pytest.raises(ValueError):
            empty_index.signs_within_line(Polyline([(0, 0), (1, 0)]), -1.0)

    def test_line_query_perpendicular_hit(self):
        line = Polyline([(0, 0), (100, 0)])
        index = SignIndex([sign("mid", 50, 3)])
        assert [s.id for s in index.signs_within_line(line, 10.0)] == ["mid"]

    def test_line_query_excludes_beyond_radius(self):
        line = Polyline([(0, 0), (100, 0)])
        index = SignIndex([sign("off", 50, 11)])
        assert index.signs_within_line(line, 10.0) == []

    def test_line_query_vertex_hit(self):
        line = Polyline([(0, 0), (50, 0), (50, 50)])
        index = SignIndex([sign("atv", 50, 0)])
        assert [s.id for s in index.signs_within_line(line, 10.0)] == ["atv"]

    def test_results_sorted_by_id(self):
        index = SignIndex([sign("b", 1, 0), sign("a", 2, 0), sign("c", 0, 1)])
        assert [s.id for s in index.signs_within(Point(0, 0), 10.0)] == ["a", "b", "c"]


class TestIndexScanEquivalence:
    """Looking signs up by cell must never change a query result."""

    def _random_inventory(self, rng, count):
        return [
            sign(f"s{i:05d}", rng.uniform(-500, 500), rng.uniform(-500, 500))
            for i in range(count)
        ]

    def test_point_queries_match_linear_scan(self, rng):
        for count in (0, 1, 9, 257, 5000):
            signs = self._random_inventory(rng, count)
            index = SignIndex(signs)
            for _ in range(20):
                p = Point(rng.uniform(-600, 600), rng.uniform(-600, 600))
                r = rng.uniform(1.0, 120.0)
                expected = sorted(
                    (s.id for s in signs if distance(s.position, p) <= r)
                )
                assert [s.id for s in index.signs_within(p, r)] == expected

    def test_line_queries_match_linear_scan(self, rng):
        signs = self._random_inventory(rng, 3000)
        index = SignIndex(signs)
        for _ in range(20):
            pts = [(rng.uniform(-600, 600), rng.uniform(-600, 600)) for _ in range(4)]
            line = Polyline(pts)
            r = rng.uniform(1.0, 80.0)
            expected = sorted(
                (s.id for s in signs if line.distance_to(s.position) <= r)
            )
            assert [s.id for s in index.signs_within_line(line, r)] == expected


class TestCellTable:
    """Corner cases of the cell table, each checked against a linear scan."""

    @staticmethod
    def assert_scans_equal(signs, queries):
        index = SignIndex(signs)
        for query in queries:
            if isinstance(query[0], Polyline):
                line, r = query
                expected = sorted(s.id for s in signs if line.distance_to(s.position) <= r)
                assert [s.id for s in index.signs_within_line(line, r)] == expected
            else:
                p, r = query
                expected = sorted(s.id for s in signs if distance(s.position, p) <= r)
                assert [s.id for s in index.signs_within(p, r)] == expected

    def test_signs_on_cell_edges(self):
        edges = (-CELL, 0.0, CELL)
        signs = [sign(f"s{i}{j}", x, y) for i, x in enumerate(edges) for j, y in enumerate(edges)]
        signs += [sign(f"o{i}", x, 7.0) for i, x in enumerate(edges)]
        queries = [
            (Point(x, y), r)
            for x in (-CELL, -1.0, 0.0, 1.0, CELL)
            for y in edges
            for r in (0.5, 1.0, CELL, 2 * CELL)
        ]
        queries += [
            (Polyline([(-CELL, y), (CELL, y)]), r)
            for y in (-CELL - 1.0, 0.0, CELL + 1.0)
            for r in (1.0, 7.0)
        ]
        queries += [(Polyline([(x, -2 * CELL), (x, 2 * CELL)]), 0.5) for x in edges]
        self.assert_scans_equal(signs, queries)

    def test_all_signs_in_one_cell(self, rng):
        signs = [
            sign(f"s{i:03d}", rng.uniform(0.0, 49.9), rng.uniform(0.0, 49.9)) for i in range(200)
        ]
        queries = [
            (Point(rng.uniform(-10.0, 60.0), rng.uniform(-10.0, 60.0)), rng.uniform(0.5, 30.0))
            for _ in range(30)
        ]
        queries += [
            (Polyline([(-20.0, 25.0), (70.0, 26.0)]), 3.0),
            (Polyline([(60.0, 0.0), (60.0, 50.0)]), 9.0),
        ]
        self.assert_scans_equal(signs, queries)

    def test_box_wider_than_the_occupied_cells(self):
        line = Polyline([(-1e9, 0.0), (1e9, 0.0)])
        signs = [sign("near-left", -1e9 + 5.0, 3.0), sign("near-mid", 12.0, -9.0),
                 sign("near-right", 1e9, 10.0), sign("far-mid", 0.0, 10.5),
                 sign("far-beyond", 1e9 + 20.0, 0.0), sign("far-away", 3e5, 4e5)]
        half = Polyline([(-1e9, 5.0), (0.0, 5.0)])
        self.assert_scans_equal(signs, [(line, 10.0), (line, 1e5), (half, 10.0)])

    def test_radius_of_1e308(self, rng):
        signs = [sign(f"s{i}", rng.uniform(-1e9, 1e9), rng.uniform(-1e9, 1e9)) for i in range(50)]
        queries = [(Point(0.0, 0.0), 1e308), (Point(1e9, -1e9), 1e308),
                   (Polyline([(0.0, 0.0), (1.0, 0.0)]), 1e308)]
        self.assert_scans_equal(signs, queries)
