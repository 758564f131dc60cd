import math

import pytest

from roadrules.errors import InputError
from roadrules.signs import (
    DetectionConfig,
    detect_signs_along,
    detect_signs_from,
    is_visible,
)
from roadrules.geometry import Point
from roadrules.signs import EDGE_SIGN_TYPES, NODE_SIGN_TYPES, Sign, SignIndex, SignType

from conftest import loose_edge, loose_node

CFG = DetectionConfig()


def sign(sign_id, x, y, code, azimuth) -> Sign:
    return Sign(sign_id, Point(x, y), SignType(code), azimuth)


class TestConfig:
    def test_defaults(self):
        assert (CFG.node_radius, CFG.edge_radius, CFG.lookback, CFG.visibility_half_angle) == (
            15.0,
            10.0,
            10.0,
            80.0,
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"node_radius": 0.0},
            {"edge_radius": -1.0},
            {"lookback": 0.0},
            {"visibility_half_angle": 90.0},
            {"visibility_half_angle": -5.0},
        ]
        + [
            {name: value}
            for name in ("node_radius", "edge_radius", "lookback", "visibility_half_angle")
            for value in (math.nan, math.inf, -math.inf)
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InputError):
            DetectionConfig(**kwargs)


class TestIsVisible:
    def test_facing_observer(self):
        # northbound traffic addressed; observer south of the sign sees its face
        s = sign("s", 0, 10, "R-101", 0.0)
        assert is_visible(Point(0, 0), s, CFG)

    def test_behind_the_sign(self):
        s = sign("s", 0, -10, "R-101", 0.0)
        assert not is_visible(Point(0, 0), s, CFG)

    def test_boundary_is_inclusive(self):
        # observer->sign bearing 90, azimuth 10: deviation is exactly 80
        s = sign("s", 10, 0, "R-101", 10.0)
        assert is_visible(Point(0, 0), s, CFG)
        assert not is_visible(Point(0, 0), sign("s2", 10, 0, "R-101", 9.9), CFG)

    def test_coincident_observer_counts_as_visible(self):
        s = sign("s", 3, 4, "R-101", 0.0)
        assert is_visible(Point(3, 4), s, CFG)


class TestDetectFromNode:
    node = loose_node("n", 0, 0)

    def test_facing_sign_detected(self):
        index = SignIndex([sign("s", 0, 10, "R-101", 0.0)])
        assert [s.id for s in detect_signs_from(self.node, index, CFG)] == ["s"]

    def test_edge_type_ignored(self):
        index = SignIndex([sign("s", 0, 5, "R-302", 0.0)])
        assert detect_signs_from(self.node, index, CFG) == []

    def test_radius_excludes(self):
        index = SignIndex([sign("s", 0, 20, "R-101", 0.0)])
        assert detect_signs_from(self.node, index, CFG) == []

    def test_not_facing_discarded(self):
        index = SignIndex([sign("s", 0, 10, "R-101", 180.0)])
        assert detect_signs_from(self.node, index, CFG) == []

    def test_sorted_by_id(self):
        index = SignIndex(
            [sign("b", 0, 10, "R-101", 0.0), sign("a", 10, 0, "R-400c", 90.0)]
        )
        assert [s.id for s in detect_signs_from(self.node, index, CFG)] == ["a", "b"]


class TestDetectAlongEdge:
    edge = loose_edge("e", [(0, 0), (0, 100)])  # northbound, 100 m

    def test_midway_sign_detected_via_lookback(self):
        # perpendicular offset: from the closest point the face would be at 90
        # degrees (invisible); only the 10 m lookback makes it readable
        index = SignIndex([sign("s", 3, 50, "R-302", 0.0)])
        assert [s.id for s in detect_signs_along(self.edge, index, CFG)] == ["s"]
        closest_observer = Point(0, 50)
        assert not is_visible(closest_observer, index.signs[0], CFG)

    def test_node_type_ignored(self):
        index = SignIndex([sign("s", 3, 50, "R-101", 0.0)])
        assert detect_signs_along(self.edge, index, CFG) == []

    def test_projection_on_start_discarded(self):
        index = SignIndex([sign("s", 3, 0, "R-302", 0.0)])
        assert detect_signs_along(self.edge, index, CFG) == []

    def test_projection_on_end_discarded(self):
        index = SignIndex([sign("s", 3, 100, "R-302", 0.0)])
        assert detect_signs_along(self.edge, index, CFG) == []

    def test_projection_behind_start_discarded(self):
        index = SignIndex([sign("s", 3, -5, "R-302", 0.0)])
        assert detect_signs_along(self.edge, index, CFG) == []

    def test_facing_away_discarded(self):
        index = SignIndex([sign("s", 3, 50, "R-302", 180.0)])
        assert detect_signs_along(self.edge, index, CFG) == []

    def test_corridor_radius_excludes(self):
        index = SignIndex([sign("s", 11, 50, "R-302", 0.0)])
        assert detect_signs_along(self.edge, index, CFG) == []

    def test_observer_clamped_to_edge_start(self):
        # projection at 5 m: observer would be at -5 m, clamps to the start
        index = SignIndex([sign("s", 3, 5, "R-302", 0.0)])
        detected = detect_signs_along(self.edge, index, CFG)
        assert [s.id for s in detected] == ["s"]


class TestDetectorProperties:
    def test_type_sets_are_disjoint(self):
        assert NODE_SIGN_TYPES & EDGE_SIGN_TYPES == frozenset()
        assert NODE_SIGN_TYPES | EDGE_SIGN_TYPES == frozenset(SignType)

    def test_no_sign_returned_by_both_detectors(self):
        node = loose_node("n", 0, 0)
        edge = loose_edge("e", [(0, -100), (0, 0)], destination="n")
        inventory = [
            sign("a", 0, 10, "R-101", 0.0),
            sign("b", 3, -50, "R-302", 0.0),
            sign("c", 5, 5, "R-400c", 315.0),
            sign("d", 3, -20, "R-400d", 0.0),
        ]
        index = SignIndex(inventory)
        from_node = {s.id for s in detect_signs_from(node, index, CFG)}
        along = {s.id for s in detect_signs_along(edge, index, CFG)}
        assert from_node & along == set()

    def test_shrinking_radius_never_adds_detections(self, rng):
        node = loose_node("n", 0, 0)
        edge = loose_edge("e", [(0, -80), (0, 0)], destination="n")
        inventory = [
            sign(
                f"s{i}",
                rng.uniform(-30, 30),
                rng.uniform(-90, 30),
                rng.choice(["R-101", "R-302", "R-400c", "R-400d"]),
                rng.uniform(0, 360),
            )
            for i in range(120)
        ]
        index = SignIndex(inventory)
        for big, small in [(15.0, 7.0), (25.0, 15.0), (10.0, 2.0)]:
            big_cfg = DetectionConfig(node_radius=big, edge_radius=big)
            small_cfg = DetectionConfig(node_radius=small, edge_radius=small)
            assert {s.id for s in detect_signs_from(node, index, small_cfg)} <= {
                s.id for s in detect_signs_from(node, index, big_cfg)
            }
            assert {s.id for s in detect_signs_along(edge, index, small_cfg)} <= {
                s.id for s in detect_signs_along(edge, index, big_cfg)
            }

    def test_two_way_street_sees_sign_from_one_direction_only(self):
        northbound = loose_edge("up", [(0, 0), (0, 100)])
        southbound = loose_edge("down", [(0, 100), (0, 0)])
        index = SignIndex([sign("s", 3, 60, "R-302", 0.0)])
        assert [s.id for s in detect_signs_along(northbound, index, CFG)] == ["s"]
        assert detect_signs_along(southbound, index, CFG) == []
