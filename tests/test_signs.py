import math

import pytest

from roadrules.errors import InputError
from roadrules.geometry import Point, Polyline, distance
from roadrules.navigator import derive_rules
from roadrules.network import build_graph
from roadrules.signs import (
    CELL,
    EDGE_SIGN_TYPES,
    NODE_SIGN_TYPES,
    NOMINAL_AHEAD,
    Sign,
    SignIndex,
    SignType,
    best_no_turn_edge,
    best_no_way_edge,
    best_one_way_edge,
)


def sign(sign_id, x, y, code="R-101", azimuth=0.0) -> Sign:
    return Sign(sign_id, Point(x, y), SignType(code), azimuth)


def line_hit_ids(index, line, r, family):
    """Ids of a line query's hits, once each hit's arc is checked.

    Every arc must be the arc of ``line.nearest`` of the sign's position, bit for bit.
    """
    hits = index.signs_within_line(line, r, family)
    assert [arc.hex() for _, arc in hits] == [line.nearest(s.position)[1].hex() for s, _ in hits]
    return [s.id for s, _ in hits]


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
        with pytest.raises(InputError, match="duplicate sign id"):
            SignIndex([sign("s", 0, 0), sign("s", 1, 1)])

    def test_radius_boundary_inclusive(self):
        index = SignIndex([sign("near", 14.9, 0), sign("far", 15.1, 0)])
        hits = index.signs_within(Point(0, 0), 15.0, NODE_SIGN_TYPES)
        assert [s.id for s in hits] == ["near"]

    def test_empty_inventory(self, empty_index):
        line = Polyline([(0, 0), (1, 0)])
        assert empty_index.signs_within(Point(0, 0), 15.0, NODE_SIGN_TYPES) == []
        assert empty_index.signs_within_line(line, 10.0, NODE_SIGN_TYPES) == []

    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("signs", [[], [sign("s", 0.5, 0.0)]], ids=["empty", "one-sign"])
    def test_positive_radius_required(self, signs, r):
        index = SignIndex(signs)
        with pytest.raises(ValueError, match="radius must be positive"):
            index.signs_within(Point(0, 0), r, NODE_SIGN_TYPES)
        with pytest.raises(ValueError, match="radius must be positive"):
            index.signs_within_line(Polyline([(0, 0), (1, 0)]), r, NODE_SIGN_TYPES)

    def test_line_query_perpendicular_hit(self):
        line = Polyline([(0, 0), (100, 0)])
        index = SignIndex([sign("mid", 50, 3)])
        assert line_hit_ids(index, line, 10.0, NODE_SIGN_TYPES) == ["mid"]

    def test_line_query_excludes_beyond_radius(self):
        line = Polyline([(0, 0), (100, 0)])
        index = SignIndex([sign("off", 50, 11)])
        assert index.signs_within_line(line, 10.0, NODE_SIGN_TYPES) == []

    def test_line_query_vertex_hit(self):
        line = Polyline([(0, 0), (50, 0), (50, 50)])
        index = SignIndex([sign("atv", 50, 0)])
        assert line_hit_ids(index, line, 10.0, NODE_SIGN_TYPES) == ["atv"]

    def test_results_sorted_by_id(self):
        index = SignIndex([sign("b", 1, 0), sign("a", 2, 0), sign("c", 0, 1)])
        hits = index.signs_within(Point(0, 0), 10.0, NODE_SIGN_TYPES)
        assert [s.id for s in hits] == ["a", "b", "c"]


class TestIndexScanEquivalence:
    """Looking signs up by row band must never change a query result."""

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
                assert [s.id for s in index.signs_within(p, r, NODE_SIGN_TYPES)] == expected

    def test_line_queries_match_linear_scan(self, rng):
        signs = self._random_inventory(rng, 3000)
        index = SignIndex(signs)
        for _ in range(20):
            pts = [(rng.uniform(-600, 600), rng.uniform(-600, 600)) for _ in range(4)]
            line = Polyline(pts)
            r = rng.uniform(1.0, 80.0)
            expected = sorted(
                (s.id for s in signs if line.nearest(s.position)[0] <= r)
            )
            assert line_hit_ids(index, line, r, NODE_SIGN_TYPES) == expected


class TestCellTable:
    """Corner cases of the row bands, each checked against a linear scan."""

    @staticmethod
    def assert_scans_equal(signs, queries):
        index = SignIndex(signs)
        for query in queries:
            if isinstance(query[0], Polyline):
                line, r = query
                expected = sorted(s.id for s in signs if line.nearest(s.position)[0] <= r)
                assert line_hit_ids(index, line, r, NODE_SIGN_TYPES) == expected
            else:
                p, r = query
                expected = sorted(s.id for s in signs if distance(s.position, p) <= r)
                assert [s.id for s in index.signs_within(p, r, NODE_SIGN_TYPES)] == expected

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

    def test_families_match_filtered_linear_scan(self, rng):
        # every type, negative coordinates, and a third of the signs exactly on
        # a band edge (y = k * CELL)
        codes = [t.value for t in SignType]
        signs = []
        for i in range(600):
            y = rng.randint(-8, 8) * CELL if i % 3 == 0 else rng.uniform(-400.0, 400.0)
            signs.append(sign(f"s{i:03d}", rng.uniform(-400.0, 400.0), y, rng.choice(codes)))
        assert {s.sign_type for s in signs} == set(SignType)
        index = SignIndex(signs)
        families = [NODE_SIGN_TYPES, EDGE_SIGN_TYPES]
        for _ in range(60):
            p = Point(rng.uniform(-450.0, 450.0), rng.choice([rng.randint(-8, 8) * CELL,
                                                              rng.uniform(-450.0, 450.0)]))
            r = rng.choice([CELL, rng.uniform(1.0, 120.0)])
            dx, dy = rng.uniform(20.0, 150.0), rng.uniform(20.0, 150.0)
            # a two-vertex line's box comes from its two points, a longer one's from
            # every vertex: two-vertex lines in all four directions, vertical and
            # horizontal ones too, and lines of 3 to 5 vertices
            lines = [Polyline([p, (p.x + rng.uniform(-150.0, 150.0), rng.randint(-8, 8) * CELL)])]
            lines += [Polyline([p, (p.x + sx * dx, p.y + sy * dy)])
                      for sx in (-1, 1) for sy in (-1, 1)]
            lines += [Polyline([p, (p.x + d, p.y)]) for d in (-dx, dx)]
            lines += [Polyline([p, (p.x, p.y + d)]) for d in (-dy, dy)]
            lines.append(Polyline([p, *((rng.uniform(-450.0, 450.0), rng.uniform(-450.0, 450.0))
                                        for _ in range(rng.randint(2, 4)))]))
            near = [{s.id for s in signs if line.nearest(s.position)[0] <= r} for line in lines]
            for types in families:
                family = [s for s in signs if s.sign_type in types]
                expected = sorted(s.id for s in family if distance(s.position, p) <= r)
                assert [s.id for s in index.signs_within(p, r, types)] == expected
                for line, hits in zip(lines, near):
                    expected = sorted(s.id for s in family if s.id in hits)
                    assert line_hit_ids(index, line, r, types) == expected

    @pytest.mark.parametrize("held, asked", [(NODE_SIGN_TYPES, EDGE_SIGN_TYPES),
                                             (EDGE_SIGN_TYPES, NODE_SIGN_TYPES)])
    def test_index_of_one_family_queried_with_the_other(self, rng, held, asked):
        codes = sorted(t.value for t in held)
        signs = [sign(f"s{i:02d}", rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0),
                      rng.choice(codes)) for i in range(40)]
        index = SignIndex(signs)
        line = Polyline([(-60.0, -60.0), (60.0, 60.0)])
        assert index.signs_within(Point(0.0, 0.0), 200.0, asked) == []
        assert index.signs_within_line(line, 200.0, asked) == []
        assert [s.id for s in index.signs_within(Point(0.0, 0.0), 200.0, held)] == sorted(
            s.id for s in signs
        )
        assert line_hit_ids(index, line, 200.0, held) == sorted(s.id for s in signs)


def test_short_loop_is_never_scored():
    # a closed loop shorter than NOMINAL_AHEAD ends where it starts, at the
    # node, so a probe on it has no bearing from there: no scorer picks it as
    # an exit, and a turn read on it as the approach has no candidate
    graph = build_graph(
        {"A": Point(0.0, 0.0), "B": Point(100.0, 0.0)},
        {"ab": ("A", "B", Polyline([(0, 0), (100, 0)])),
         "ba": ("B", "A", Polyline([(100, 0), (0, 0)])),
         "loop": ("A", "A", Polyline([(0, 0), (3, 3), (0, 0)]))},
    )
    node, edges = graph.nodes["A"], graph.edges
    loop = edges["loop"]
    assert loop.geometry.length < NOMINAL_AHEAD
    exits = [loop, edges["ab"]]
    no_way, one_way = sign("w", -5, -5, "R-101", 225.0), sign("o", -5, -5, "R-400c", 225.0)
    no_turn = sign("t", 60, 3, "R-302", 270.0)
    assert best_no_way_edge(no_way, node, exits).edge == "ab"
    assert best_one_way_edge(one_way, node, exits).edge == "ab"
    assert best_no_turn_edge(no_turn, edges["ba"], node, exits).edge == "ab"
    assert best_no_turn_edge(sign("t", -5, -5, "R-302"), loop, node, exits) is None
    result = derive_rules(graph, SignIndex([no_way, one_way, no_turn]), cover_all=True)
    assert result.visited_edges == {"ab", "ba", "loop"}
