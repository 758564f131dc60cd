import copy
import functools
import gc
import io
import itertools
import json
import logging
import math
import random
import re
import tracemalloc
import warnings

import pytest

import roadrules.io as roadrules_io
import roadrules.stream as roadrules_stream
from roadrules.cli import main as cli_main
from roadrules.errors import InputError
from roadrules.geometry import LocalProjection, Point, distance
from roadrules.io import (
    dump_json,
    load_ground_truth,
    load_network,
    load_rules,
    load_signs,
    network_from_document,
    overlay_document,
    render_overlay,
    rules_document,
    signs_from_document,
    validate,
    write_rules,
)
from roadrules.navigator import DerivationResult, derive_rules
from roadrules.network import build_graph
from roadrules.rules import Rule
from roadrules.scenarios import TEMPLATES, generate_scenario, write_scenario
from roadrules.signs import SignIndex

from conftest import load_scenario


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


MISSING = object()


def geo_feature(kind, coords, **props):
    geometry = {"type": kind} if coords is MISSING else {"type": kind, "coordinates": coords}
    return {"type": "Feature", "geometry": geometry, "properties": props}


# Malformed GeoJSON positions: absent, too short, non-numeric, non-finite,
# too large for a float, a JSON boolean, past the ±1e9 m planar bound.
BAD_POSITIONS = [
    MISSING, None, 5, [], [1.0], ["1", "2"], [1.0, None], [math.nan, 0.0], [10**400, 0.0],
    [True, 0.0], [2e9, 0.0], [0.0, -2e9],
]

# JSON arrays and objects, which cannot serve as ids.
UNHASHABLE = [[], {"a": 1}]

# Values that are not JSON objects where a feature, geometry or properties must be.
NOT_OBJECTS = [5, "x", [1]]


def planar_network(*features):
    return {"type": "FeatureCollection", "coordinate_system": "local-meters",
            "features": list(features)}


# the empty planar network: the frame of planar signs whose roads a test does not need
NO_ROADS = network_from_document(planar_network())


def replace_part(feature, part, value):
    """``feature`` itself (``part`` None) or one of its members, replaced by ``value``."""
    if part is None:
        return value
    return dict(feature, **{part: value})


class TestLoadNetwork:
    def test_round_trip_reproduces_generated_graph(self, tmp_path):
        scenario = generate_scenario("grid", rows=3, cols=4, spacing=75.0)
        paths = write_scenario(scenario, tmp_path)
        loaded = load_network(paths["network"])
        reference = network_from_document(scenario.network)
        assert list(loaded.nodes) == list(reference.nodes)
        assert list(loaded.edges) == list(reference.edges)
        for eid, edge in reference.edges.items():
            other = loaded.edges[eid]
            assert other.opposite == edge.opposite
            assert other.source == edge.source and other.destination == edge.destination
            assert other.geometry == edge.geometry

    def test_two_linestrings_pair_opposites(self):
        doc = {
            "type": "FeatureCollection",
            "coordinate_system": "local-meters",
            "features": [
                geo_feature("LineString", [[0, 0], [100, 0]],
                            edge_id="ab", source_node="A", target_node="B"),
                geo_feature("LineString", [[100, 0], [0, 0]],
                            edge_id="ba", source_node="B", target_node="A"),
            ],
        }
        graph = network_from_document(doc)
        assert graph.edges["ab"].opposite == "ba"
        assert set(graph.nodes) == {"A", "B"}  # inferred from endpoints

    def test_single_coordinate_linestring_rejected(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "coordinate_system": "local-meters",
            "features": [
                geo_feature("LineString", [[0, 0]],
                            edge_id="e", source_node="A", target_node="B"),
            ],
        }
        with pytest.raises(InputError, match="feature 0"):
            network_from_document(doc)

    def test_duplicate_edge_id_names_both_features(self):
        doc = {
            "type": "FeatureCollection",
            "coordinate_system": "local-meters",
            "features": [
                geo_feature("LineString", [[0, 0], [100, 0]],
                            edge_id="e", source_node="A", target_node="B"),
                geo_feature("LineString", [[100, 0], [0, 0]],
                            edge_id="e", source_node="B", target_node="A"),
            ],
        }
        with pytest.raises(InputError, match="features 0 and 1"):
            network_from_document(doc)

    def test_duplicate_node_id_names_the_feature(self):
        doc = planar_network(
            geo_feature("Point", [0, 0], node_id="A"),
            geo_feature("Point", [100, 0], node_id="A"),
        )
        with pytest.raises(InputError, match="duplicate node_id 'A' in features 0 and 1"):
            network_from_document(doc)

    @pytest.mark.parametrize("named_by", [("ab", "ba"), ("ab",), ("ba",)])
    def test_opposite_named_by_either_or_both_features_links_once(self, named_by):
        ends = {"ab": ("A", "B", [[0, 0], [100, 0]]), "ba": ("B", "A", [[100, 0], [0, 0]])}
        features = []
        for edge_id, (src, dst, coords) in ends.items():
            props = dict(edge_id=edge_id, source_node=src, target_node=dst)
            if edge_id in named_by:
                props["opposite_id"] = "ba" if edge_id == "ab" else "ab"
            features.append(geo_feature("LineString", coords, **props))
        graph = network_from_document(planar_network(*features))
        assert graph.edges["ab"].opposite == "ba"
        assert graph.edges["ba"].opposite == "ab"

    def test_asymmetric_opposite_ids_rejected(self):
        doc = planar_network(
            geo_feature("LineString", [[0, 0], [100, 0]],
                        edge_id="ab", source_node="A", target_node="B", opposite_id="ba"),
            geo_feature("LineString", [[100, 0], [0, 0]],
                        edge_id="ba", source_node="B", target_node="A", opposite_id="ab"),
            geo_feature("LineString", [[100, 0], [200, 0]],
                        edge_id="bc", source_node="B", target_node="C", opposite_id="ab"),
        )
        with pytest.raises(InputError, match="asymmetric opposite pairing for edges 'bc' and 'ab'"):
            network_from_document(doc)

    @pytest.mark.parametrize("position", [[1e308, 0.0], [180.5, 0.0], [0.0, -90.5]])
    def test_lonlat_out_of_range_names_its_feature(self, position):
        doc = {
            "type": "FeatureCollection",
            "features": [
                geo_feature("Point", [0.0, 0.0], node_id="A"),
                geo_feature("Point", position, node_id="B"),
            ],
        }
        with pytest.raises(InputError, match="feature 1: lon/lat .* out of range"):
            network_from_document(doc)

    def test_missing_properties_rejected(self):
        doc = {
            "type": "FeatureCollection",
            "coordinate_system": "local-meters",
            "features": [geo_feature("LineString", [[0, 0], [100, 0]], edge_id="e")],
        }
        with pytest.raises(InputError, match="source_node"):
            network_from_document(doc)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.geojson"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InputError, match="malformed JSON"):
            load_network(path)

    def test_not_a_feature_collection(self, tmp_path):
        path = write_doc(tmp_path, "x.geojson", {"type": "Feature"})
        with pytest.raises(InputError, match="FeatureCollection"):
            load_network(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load_network(tmp_path / "nope.geojson")

    def test_geographic_input_is_projected(self):
        # two nodes one millidegree of latitude apart, mid-latitude coastal town
        doc = {
            "type": "FeatureCollection",
            "features": [
                geo_feature("Point", [-8.41, 43.362], node_id="A"),
                geo_feature("Point", [-8.41, 43.363], node_id="B"),
                geo_feature("LineString", [[-8.41, 43.362], [-8.41, 43.363]],
                            edge_id="ab", source_node="A", target_node="B"),
            ],
        }
        graph = network_from_document(doc)
        assert graph.projection is not None
        step = distance(graph.nodes["A"].position, graph.nodes["B"].position)
        assert step == pytest.approx(111.3, abs=0.5)

    def test_geographic_input_centers_on_its_positions_in_feature_order(self, tmp_path):
        # the centroid of every position, summed left to right in feature
        # order, is what every lon/lat output depends on to the last bit
        features = as_lonlat(off_axis_grid(6, 6))["features"]
        random.Random(1).shuffle(features)
        positions = []
        for feature in features:
            geometry = feature["geometry"]
            coordinates = geometry["coordinates"]
            positions += [coordinates] if geometry["type"] == "Point" else coordinates
        expected = LocalProjection.centered(positions)
        assert LocalProjection.centered(positions[::-1]) != expected  # the order shows
        path = write_doc(tmp_path, "network.geojson",
                         {"type": "FeatureCollection", "features": features})
        assert load_network(path).projection == expected

    def test_lonlat_segment_the_projection_collapses_rejected(self):
        # nodes far east move the centroid away from an edge whose two
        # distinct vertices, one float apart, then project to one point
        east = [geo_feature("Point", [150.0 + k, 60.0], node_id=node)
                for k, node in enumerate(["ab", "c", "d"])]
        for lon in (1.0 + k / 64 for k in range(64)):
            ends = [[lon, 60.0], [math.nextafter(lon, 180), 60.0]]
            positions = [*(f["geometry"]["coordinates"] for f in east[:2]), *ends,
                         east[2]["geometry"]["coordinates"]]
            to_planar = LocalProjection.centered(positions).to_planar
            if to_planar(*ends[0]) == to_planar(*ends[1]):
                break
        else:
            pytest.fail("no longitude whose segment the projection collapses")
        edge = geo_feature("LineString", ends, edge_id="ab", source_node="a", target_node="b")
        doc = {"type": "FeatureCollection", "features": [*east[:2], edge, east[2]]}
        # the edge's own feature, not that of the node with its id
        with pytest.raises(InputError, match="feature 2: zero-length segment at vertex 0$"):
            network_from_document(doc)

    @pytest.mark.parametrize("planar", [True, False])
    @pytest.mark.parametrize("position", BAD_POSITIONS)
    def test_malformed_edge_coordinates_rejected(self, planar, position):
        coords = MISSING if position is MISSING else [[0.5, 0.5], position]
        doc = {
            "type": "FeatureCollection",
            "features": [
                geo_feature("LineString", [[0.0, 0.0], [0.001, 0.0]],
                            edge_id="ok", source_node="A", target_node="B"),
                geo_feature("LineString", coords,
                            edge_id="bad", source_node="A", target_node="C"),
            ],
        }
        if planar:
            doc["coordinate_system"] = "local-meters"
        with pytest.raises(InputError, match="feature 1"):
            network_from_document(doc)

    @pytest.mark.parametrize("position", BAD_POSITIONS)
    def test_malformed_node_coordinates_rejected(self, position):
        doc = {
            "type": "FeatureCollection",
            "coordinate_system": "local-meters",
            "features": [geo_feature("Point", position, node_id="A")],
        }
        with pytest.raises(InputError, match="feature 0"):
            network_from_document(doc)

    # also the hashable values that are not ids: true, NaN and ±inf
    @pytest.mark.parametrize("value", UNHASHABLE + [True, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["edge_id", "source_node", "target_node", "opposite_id"])
    def test_unhashable_edge_ids_rejected(self, name, value):
        props = {"edge_id": "ab", "source_node": "A", "target_node": "B", "opposite_id": "ba"}
        props[name] = value
        doc = planar_network(
            geo_feature("LineString", [[100, 0], [0, 0]],
                        edge_id="ba", source_node="B", target_node="A"),
            geo_feature("LineString", [[0, 0], [100, 0]], **props),
        )
        with pytest.raises(InputError, match=f"feature 1: bad or missing '{name}'"):
            network_from_document(doc)

    @pytest.mark.parametrize("value", UNHASHABLE)
    def test_unhashable_node_id_rejected(self, value):
        doc = planar_network(
            geo_feature("Point", [0, 0], node_id="A"),
            geo_feature("Point", [1, 1], node_id=value),
        )
        with pytest.raises(InputError, match="feature 1: bad or missing 'node_id'"):
            network_from_document(doc)

    @pytest.mark.parametrize("value", [math.nan, -math.inf, math.inf, True])
    def test_non_finite_number_node_id_rejected(self, value):
        doc = planar_network(
            geo_feature("Point", [0, 0], node_id="A"),
            geo_feature("Point", [1, 1], node_id=value),
        )
        with pytest.raises(InputError, match="feature 1: bad or missing 'node_id'"):
            network_from_document(doc)

    @pytest.mark.parametrize("planar", [True, False])
    @pytest.mark.parametrize("value", NOT_OBJECTS)
    @pytest.mark.parametrize("part", [None, "geometry", "properties"])
    def test_non_object_feature_parts_rejected(self, planar, part, value):
        edge = geo_feature("LineString", [[0.0, 0.0], [0.001, 0.0]],
                           edge_id="ab", source_node="A", target_node="B")
        doc = planar_network(geo_feature("Point", [0.0, 0.0], node_id="A"),
                             replace_part(edge, part, value))
        if not planar:
            del doc["coordinate_system"]
        with pytest.raises(InputError, match="feature 1: .*not a JSON object"):
            network_from_document(doc)

    def test_integer_past_digit_limit_rejected(self, tmp_path):
        path = tmp_path / "long.geojson"
        text = json.dumps(planar_network(geo_feature("Point", [0, 0], node_id="A")))
        path.write_text(text.replace("[0, 0]", "[0, 1" + "0" * 5000 + "]"), encoding="utf-8")
        with pytest.raises(InputError, match=re.escape(str(path))):
            load_network(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "latin1.geojson"
        path.write_bytes(b'{"type": "FeatureCollection", "features": [], "x": "\xe9"}')
        with pytest.raises(InputError, match="not UTF-8"):
            load_network(path)

    def test_planar_marker_skips_projection(self):
        graph, _, _ = load_scenario("dead-end")
        assert graph.projection is None
        assert graph.nodes["B"].position == Point(100.0, 0.0)


class TestLoadSigns:
    def signs_doc(self, features, planar=True):
        doc = {"type": "FeatureCollection", "features": features}
        if planar:
            doc["coordinate_system"] = "local-meters"
        return doc

    def test_basic_sign(self):
        doc = self.signs_doc(
            [geo_feature("Point", [5, 5], sign_id="s", type="R-101", azimuth=270)]
        )
        (s,) = signs_from_document(doc, network=NO_ROADS)
        assert (s.id, s.sign_type.value, s.azimuth) == ("s", "R-101", 270.0)
        assert s.position == Point(5.0, 5.0)

    def test_unknown_type_skipped_with_warning(self, caplog):
        doc = self.signs_doc(
            [
                geo_feature("Point", [0, 0], sign_id="bad", type="R-500", azimuth=0),
                geo_feature("Point", [5, 5], sign_id="ok", type="R-303", azimuth=10),
            ]
        )
        with caplog.at_level(logging.WARNING, logger="roadrules"):
            signs = signs_from_document(doc, network=NO_ROADS)
        assert [s.id for s in signs] == ["ok"]
        assert "R-500" in caplog.text and "bad" in caplog.text

    def test_unknown_type_coordinates_still_checked(self):
        doc = self.signs_doc(
            [
                geo_feature("Point", [5, 5], sign_id="ok", type="R-303", azimuth=10),
                geo_feature("Point", [math.inf, 0], sign_id="bad", type="R-500", azimuth=0),
            ]
        )
        with pytest.raises(InputError, match="feature 1: coordinates"):
            signs_from_document(doc, network=NO_ROADS)

    @pytest.mark.parametrize("code", ["R-500", "R-101"])
    def test_azimuth_is_checked_whatever_the_type(self, tmp_path, caplog, code):
        path = write_doc(tmp_path, "signs.geojson", self.signs_doc(
            [geo_feature("Point", [0, 0], sign_id="s", type=code, azimuth="north")]
        ))
        with caplog.at_level(logging.WARNING, logger="roadrules"):
            with pytest.raises(InputError, match="feature 0: bad or missing 'azimuth'"):
                load_signs(path, NO_ROADS)
        assert not caplog.records

    @pytest.mark.parametrize("code", [None, 101, True, ["R-101"]])
    def test_type_that_is_not_a_string_rejected(self, code):
        doc = self.signs_doc(
            [geo_feature("Point", [0, 0], sign_id="s", type=code, azimuth=0)]
        )
        with pytest.raises(InputError, match="feature 0: bad or missing 'type'"):
            signs_from_document(doc, network=NO_ROADS)

    def test_azimuth_wraps(self):
        doc = self.signs_doc(
            [geo_feature("Point", [0, 0], sign_id="s", type="R-101", azimuth=360)]
        )
        assert signs_from_document(doc, network=NO_ROADS)[0].azimuth == 0.0

    def test_missing_field_rejected(self):
        doc = self.signs_doc([geo_feature("Point", [0, 0], sign_id="s", type="R-101")])
        with pytest.raises(InputError, match="azimuth"):
            signs_from_document(doc, network=NO_ROADS)

    @pytest.mark.parametrize("azimuth", [10**400, [], {}, True, "270", " 2.7e2 "])
    def test_unconvertible_azimuth_rejected(self, azimuth):
        doc = self.signs_doc(
            [
                geo_feature("Point", [0, 0], sign_id="a", type="R-101", azimuth=0),
                geo_feature("Point", [0, 0], sign_id="b", type="R-101", azimuth=azimuth),
            ]
        )
        with pytest.raises(InputError, match="feature 1: bad or missing 'azimuth'"):
            signs_from_document(doc, network=NO_ROADS)

    @pytest.mark.parametrize("value", UNHASHABLE)
    def test_unhashable_sign_id_rejected(self, value):
        doc = self.signs_doc(
            [
                geo_feature("Point", [0, 0], sign_id="a", type="R-101", azimuth=0),
                geo_feature("Point", [0, 0], sign_id=value, type="R-101", azimuth=0),
            ]
        )
        with pytest.raises(InputError, match="feature 1: bad or missing 'sign_id'"):
            signs_from_document(doc, network=NO_ROADS)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_number_sign_id_rejected(self, value):
        doc = self.signs_doc(
            [
                geo_feature("Point", [0, 0], sign_id="a", type="R-101", azimuth=0),
                geo_feature("Point", [0, 0], sign_id=value, type="R-101", azimuth=0),
            ]
        )
        with pytest.raises(InputError, match="feature 1: bad or missing 'sign_id'"):
            signs_from_document(doc, network=NO_ROADS)

    @pytest.mark.parametrize("planar", [True, False])
    @pytest.mark.parametrize("value", NOT_OBJECTS)
    @pytest.mark.parametrize("part", [None, "geometry", "properties"])
    def test_non_object_feature_parts_rejected(self, planar, part, value):
        sign = geo_feature("Point", [0.0, 0.0], sign_id="b", type="R-101", azimuth=0)
        doc = self.signs_doc(
            [
                geo_feature("Point", [0.0, 0.0], sign_id="a", type="R-101", azimuth=0),
                replace_part(sign, part, value),
            ],
            planar=planar,
        )
        network = NO_ROADS if planar else self.geographic_network()
        with pytest.raises(InputError, match="feature 1: .*not a JSON object"):
            signs_from_document(doc, network=network)

    def test_non_numeric_azimuth_rejected(self):
        doc = self.signs_doc(
            [geo_feature("Point", [0, 0], sign_id="s", type="R-101", azimuth="north")]
        )
        with pytest.raises(InputError, match="feature 0: bad or missing 'azimuth'"):
            signs_from_document(doc, network=NO_ROADS)

    @pytest.mark.parametrize("azimuth", [math.nan, math.inf, "nan", "-inf"])
    def test_non_finite_azimuth_rejected(self, azimuth):
        doc = self.signs_doc(
            [
                geo_feature("Point", [0, 0], sign_id="a", type="R-101", azimuth=0),
                geo_feature("Point", [0, 0], sign_id="b", type="R-101", azimuth=azimuth),
            ]
        )
        with pytest.raises(InputError, match="feature 1: bad or missing 'azimuth'"):
            signs_from_document(doc, network=NO_ROADS)

    @pytest.mark.parametrize("planar", [True, False])
    @pytest.mark.parametrize("position", BAD_POSITIONS)
    def test_malformed_coordinates_rejected(self, planar, position):
        doc = self.signs_doc(
            [
                geo_feature("Point", [0.0, 0.0], sign_id="a", type="R-101", azimuth=0),
                geo_feature("Point", position, sign_id="b", type="R-101", azimuth=0),
            ],
            planar=planar,
        )
        network = NO_ROADS if planar else self.geographic_network()
        with pytest.raises(InputError, match="feature 1"):
            signs_from_document(doc, network=network)

    def test_duplicate_ids_rejected(self):
        doc = self.signs_doc(
            [
                geo_feature("Point", [0, 0], sign_id="s", type="R-101", azimuth=0),
                geo_feature("Point", [1, 1], sign_id="s", type="R-302", azimuth=0),
            ]
        )
        with pytest.raises(InputError, match="duplicate sign_id"):
            signs_from_document(doc, network=NO_ROADS)

    def test_non_point_rejected(self):
        doc = self.signs_doc(
            [geo_feature("LineString", [[0, 0], [1, 1]], sign_id="s", type="R-101", azimuth=0)]
        )
        with pytest.raises(InputError, match="feature 0: unsupported geometry type 'LineString'"):
            signs_from_document(doc, network=NO_ROADS)

    @staticmethod
    def geographic_network():
        return network_from_document({
            "type": "FeatureCollection",
            "features": [
                geo_feature("Point", [-8.41, 43.362], node_id="A"),
                geo_feature("Point", [-8.41, 43.363], node_id="B"),
                geo_feature("LineString", [[-8.41, 43.362], [-8.41, 43.363]],
                            edge_id="ab", source_node="A", target_node="B"),
            ],
        })

    def test_geographic_signs_reuse_network_projection(self):
        graph = self.geographic_network()
        doc = self.signs_doc(
            [geo_feature("Point", [-8.41, 43.362], sign_id="s", type="R-101", azimuth=0)],
            planar=False,
        )
        (s,) = signs_from_document(doc, network=graph)
        assert distance(s.position, graph.nodes["A"].position) <= 1e-6

    def test_frame_mismatch_rejected(self):
        planar_doc = self.signs_doc(
            [geo_feature("Point", [0, 0], sign_id="s", type="R-101", azimuth=0)]
        )
        with pytest.raises(InputError, match="signs are planar but the network is lon/lat"):
            signs_from_document(planar_doc, network=self.geographic_network())


LONLAT_SIGN = geo_feature("Point", [-8.41, 43.362], sign_id="s", type="R-101", azimuth=0)


@pytest.mark.parametrize(
    "load, document, message",
    [
        # a lon/lat network with no coordinates has nothing to center on
        (load_network, {"type": "FeatureCollection", "features": []},
         "no coordinates to center a projection on"),
        # lon/lat signs are read only in a lon/lat network's frame
        (functools.partial(load_signs, network=NO_ROADS),
         {"type": "FeatureCollection", "features": [LONLAT_SIGN]},
         "signs are lon/lat but the network is planar"),
        (load_rules, [], "expected a rule document object"),
        (load_network, [], "expected a GeoJSON FeatureCollection"),
        (functools.partial(load_signs, network=TestLoadSigns.geographic_network()),
         [LONLAT_SIGN], "expected a GeoJSON FeatureCollection"),
    ],
    # a loader given its network is named as the loader
    ids=lambda value: value.func.__name__ if isinstance(value, functools.partial) else None,
)
def test_unusable_document_rejected(tmp_path, load, document, message):
    path = write_doc(tmp_path, "document.json", document)
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: {message}$"):
        load(path)


def as_lonlat(document):
    """A planar feature collection written as lon/lat, 1e-5 degree per meter from (10, 50)."""
    def lonlat(x, y):
        return [10.0 + x * 1e-5, 50.0 + y * 1e-5]

    features = []
    for feature in document["features"]:
        geometry = feature["geometry"]
        if geometry["type"] == "Point":
            coordinates = lonlat(*geometry["coordinates"])
        else:
            coordinates = [lonlat(*position) for position in geometry["coordinates"]]
        features.append(dict(feature, geometry=dict(geometry, coordinates=coordinates)))
    return {"type": "FeatureCollection", "features": features}


def grid_network(rows, cols):
    return generate_scenario("grid", rows=rows, cols=cols).network


def sign_inventory(rows, cols):
    return planar_network(*(
        geo_feature("Point", [3.0 * i, 2.0 * i], sign_id=f"s{i}", type="R-302", azimuth=90.0)
        for i in range(rows * cols)
    ))


# a document maker, called with grid rows and columns, and its reader
READERS = {
    "planar": (grid_network, network_from_document),
    "lonlat": (lambda rows, cols: as_lonlat(grid_network(rows, cols)), network_from_document),
    "signs": (sign_inventory, functools.partial(signs_from_document, network=NO_ROADS)),
}


class TestDocumentsAreConsumed:
    """The loaders drop each feature from the parsed document as they read it."""

    # the feature in hand and the reader's own frames
    SLACK = 64 * 1024

    @pytest.mark.parametrize("reading", READERS)
    def test_traced_peak_stays_within_the_parsed_document(self, reading):
        make, read = READERS[reading]
        text = json.dumps(make(40, 40))
        tracemalloc.start()
        try:
            document = json.loads(text)
            size = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            read(document)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 1_000_000
        assert peak <= size + self.SLACK, (peak, size)

    @pytest.mark.parametrize("reading", READERS)
    def test_consumed_document_cannot_be_read_again(self, reading):
        make, read = READERS[reading]
        document = make(3, 3)
        read(copy.deepcopy(document))  # a caller that reuses a document passes a copy
        read(document)
        assert "features" not in document
        with pytest.raises(InputError, match="FeatureCollection without a features array"):
            read(document)

    @pytest.mark.parametrize("reading", READERS)
    def test_bad_feature_is_named_by_its_index(self, reading):
        make, read = READERS[reading]
        document = make(3, 3)
        document["features"][5]["properties"] = "x"
        with pytest.raises(InputError, match="feature 5: properties is not a JSON object"):
            read(document)
        assert "features" not in document


def graph_parts(graph):
    """Everything a built graph holds, in its iteration order; ``repr`` tells
    1 from 1.0 and 0.0 from -0.0."""
    return repr((
        [(n.id, n.position, [e.id for e in n.outgoing]) for n in graph.nodes.values()],
        [(e.id, e.source, e.destination, tuple(e.geometry), e.opposite)
         for e in graph.edges.values()],
        graph.projection,
    ))


def sign_parts(signs):
    return repr([(s.id, s.position, s.sign_type, s.azimuth) for s in signs])


# the file loader, the whole-document reader and what to compare, per file kind
LOADERS = {
    "network": (load_network, network_from_document, graph_parts),
    "signs": (functools.partial(load_signs, network=NO_ROADS),
              functools.partial(signs_from_document, network=NO_ROADS), sign_parts),
}


# a feature of each kind that holds an id, by site: (file kind, id property, feature)
FAULT_SITES = {
    "network-point": ("network", "node_id", geo_feature("Point", [0, 0], node_id="x")),
    "network-linestring": ("network", "edge_id", geo_feature(
        "LineString", [[0, 0], [100, 0]], edge_id="x", source_node="A", target_node="B"
    )),
    "sign": ("signs", "sign_id", geo_feature("Point", [0, 0], sign_id="x", type="R-101",
                                             azimuth=0)),
}

# how each fault changes a copy of a site's feature, and the message it gives
# (``{name}`` is the site's id property) when that copy follows the feature
ID_FAULTS = {
    "missing-id": (lambda f, name: f["properties"].pop(name),
                   "feature 1: bad or missing '{name}'"),
    "true-id": (lambda f, name: f["properties"].update({name: True}),
                "feature 1: bad or missing '{name}'"),
    "nan-id": (lambda f, name: f["properties"].update({name: math.nan}),
               "feature 1: bad or missing '{name}'"),
    "list-id": (lambda f, name: f["properties"].update({name: ["x"]}),
                "feature 1: bad or missing '{name}'"),
    "duplicate-id": (lambda f, name: None, "duplicate {name} 'x' in features 0 and 1"),
    "geometry": (lambda f, name: f.update(geometry={"type": "MultiPoint", "coordinates": []}),
                 "feature 1: unsupported geometry type 'MultiPoint'"),
    # only null or an absent member reads as empty
    **{f"{part}-{value!r}": (lambda f, name, part=part, value=value: f.update({part: value}),
                             f"feature 1: {part} is not a JSON object")
       for part in ("geometry", "properties") for value in (False, 0, "", [])},
}


def error_messages(path, from_document):
    """The messages ``from_document`` raises for the file at ``path``, its
    features streamed and read whole."""
    features = roadrules_stream._streamed_features(path)
    frame = next(features)
    streamed = dict(type="FeatureCollection", coordinate_system=frame, features=features)
    messages = []
    for document in (streamed, json.loads(path.read_text())):
        with pytest.raises(InputError) as caught:
            from_document(document, path)
        messages.append(str(caught.value))
    features.close()
    return messages


class TestOneMessagePerFault:
    """A fault gives one message, in a network or a signs file, streamed or read whole."""

    @pytest.mark.parametrize("site", FAULT_SITES)
    @pytest.mark.parametrize("fault", ID_FAULTS)
    def test_fault_reads_the_same_everywhere(self, tmp_path, site, fault):
        kind, name, feature = FAULT_SITES[site]
        change, message = ID_FAULTS[fault]
        faulty = copy.deepcopy(feature)
        change(faulty, name)
        path = write_doc(tmp_path, f"{kind}.geojson", planar_network(feature, faulty))
        _, from_document, _ = LOADERS[kind]
        assert error_messages(path, from_document) == [f"{path}: {message.format(name=name)}"] * 2

    @pytest.mark.parametrize("frame", ["planar", "lonlat"])
    def test_first_faulty_feature_is_reported_in_either_frame(self, tmp_path, frame):
        # a bad id in feature 0, a position past its frame's bound in feature 1
        out_of_bounds = [10.0, 95.0] if frame == "lonlat" else [0.0, 2e9]
        document = planar_network(geo_feature("Point", [10.0, 50.0], node_id=None),
                                  geo_feature("Point", out_of_bounds, node_id="b"))
        if frame == "lonlat":
            del document["coordinate_system"]
        path = write_doc(tmp_path, "network.geojson", document)
        message = f"{path}: feature 0: bad or missing 'node_id'"
        assert error_messages(path, network_from_document) == [message] * 2

    def test_duplicate_names_the_first_feature_of_its_own_kind(self):
        # a node and an edge may share an id; a duplicate is named against its own kind
        edge = geo_feature("LineString", [[0, 0], [100, 0]],
                           edge_id="A", source_node="A", target_node="B")
        node = geo_feature("Point", [0, 0], node_id="A")
        with pytest.raises(InputError, match="duplicate node_id 'A' in features 1 and 2$"):
            network_from_document(planar_network(edge, node, node))
        with pytest.raises(InputError, match="duplicate edge_id 'A' in features 1 and 2$"):
            network_from_document(planar_network(node, edge, edge))
        # interleaved: the first edge 'A' is the second edge, after two nodes
        other = geo_feature("LineString", [[0, 0], [0, 100]],
                            edge_id="C", source_node="A", target_node="C")
        node_b = geo_feature("Point", [100, 0], node_id="B")
        with pytest.raises(InputError, match="duplicate edge_id 'A' in features 3 and 4$"):
            network_from_document(planar_network(node, other, node_b, edge, edge))


def member_text(document, marker_first, extras, dump):
    """``document`` as a JSON object whose members are written in a chosen order.

    ``extras`` members go first and last; the marker goes first or last.
    """
    members = [(k, v) for k, v in document.items() if k != "coordinate_system"]
    marker = [("coordinate_system", document["coordinate_system"])]
    members = marker + members if marker_first else members + marker
    if extras:
        members = [("name", "town"), *members, ("bbox", [0, 0, 1, {"a": [None]}])]
    body = ",\n ".join(f"{json.dumps(k)} :\t{dump(v)}" for k, v in members)
    return f" \r\n{{ {body}\n}}\n "


LAYOUTS = {
    "default": json.dumps,
    "compact": lambda v: json.dumps(v, separators=(",", ":")),
    "indented": lambda v: json.dumps(v, indent="\t").replace("\n", "\r\n"),
}


def with_duplicate_keys(text):
    """Each feature with a geometry and a properties member that a later one overrides."""
    decoys = '"geometry": null, "properties": {"edge_id": "decoy"},'
    text, count = re.subn(r'"type":\s*"Feature",', rf"\g<0> {decoys}", text)
    assert count > 0
    return text


def outcome(read):
    """What a load gives: the parts of its result, or its error message."""
    try:
        return "ok", read()
    except InputError as exc:
        return "error", str(exc)


def declined_texts():
    """Files the streamed reader must decline, by case: (file kind, text)."""
    sample = generate_scenario("sample-town")
    network = json.dumps(sample.network["features"])
    signs = json.dumps(sample.signs["features"])
    grid = json.dumps(grid_network(2, 2)["features"])
    lonlat = as_lonlat(grid_network(2, 2))["features"]
    lonlat[-1]["properties"]["coordinate_system"] = "local-meters"
    bad_first = copy.deepcopy(sample.network["features"])
    bad_first[0]["properties"] = "x"
    deep = "[" * 100_000 + "]" * 100_000
    head = '{"type": "FeatureCollection", '
    marker = '"coordinate_system": "local-meters"'
    return {
        "duplicate-features": ("network", f'{head}"features": {network}, '
                                          f'"features": {grid}, {marker}}}'),
        "marker-in-a-property": ("network", f'{head}"features": {json.dumps(lonlat)}}}'),
        "bad-type-after-features": (
            "network", f'{{"features": {network}, {marker}, "type": "Feature"}}'
        ),
        "bad-signs-type-after-features": (
            "signs", f'{{"features": {signs}, {marker}, "type": "Feature"}}'
        ),
        "trailing-data": ("network", f'{head}"features": {network}, {marker}}} []'),
        "trailing-data-signs": ("signs", f'{head}{marker}, "features": {signs}}}{{}}'),
        "bad-feature-then-bad-json": (
            "network", f'{head}"features": {json.dumps(bad_first)}, {marker},}}'
        ),
        "deep-nesting-in-a-feature": (
            "network", f'{head}{marker}, "features": {network[:-1]}, {deep}]}}'
        ),
        "features-not-an-array": ("network", f'{head}"features": {{}}, {marker}}}'),
        # the frame is guessed from the file's tail only, so this planar file is read whole
        "marker-before-a-long-tail": (
            "network", f'{head}"features": {network}, {marker}, '
                       f'"name": "{"x" * roadrules_stream._TAIL}"}}'
        ),
        # the frame's guess reads the tail's last marker, which this file ends on
        "cut-after-the-marker-name": ("network", f'{head}"features": {network}, '
                                                 '"coordinate_system"'),
        "cut-after-the-marker-name-and-space": ("signs", f'{head}"features": {signs}, '
                                                         '"coordinate_system" \n'),
    }


def with_ids_in_other_scripts(document):
    """``document`` with every id and one more property spelled in several
    scripts, from two to four UTF-8 bytes per character."""
    features = copy.deepcopy(document["features"])
    for feature in features:
        properties = feature["properties"]
        for name in ("node_id", "edge_id", "source_node", "target_node", "opposite_id", "sign_id"):
            if name in properties:
                properties[name] = f"Ñ北😀{properties[name]}"
        properties["name"] = "Straße 北京 😀"
    return dict(document, features=features)


def unusual_texts():
    """Planar files the chunked reader must decode and newline-translate as
    ``Path.read_text`` does, by case: (file kind, text)."""
    sample = generate_scenario("sample-town")
    network, signs = sample.network, sample.signs
    # the marker after the features, so that the frame is guessed from the tail
    marker_last = {"type": "FeatureCollection",
                   "features": with_ids_in_other_scripts(network)["features"],
                   "coordinate_system": "local-meters"}
    return {
        "crlf-line-ends": ("network", json.dumps(network, indent=1).replace("\n", "\r\n")),
        "cr-line-ends": ("signs", json.dumps(signs, indent=1).replace("\n", "\r")),
        "utf8-network": ("network", json.dumps(marker_last, ensure_ascii=False)),
        "utf8-signs": ("signs", json.dumps(with_ids_in_other_scripts(signs), ensure_ascii=False)),
        "escaped-network": ("network", json.dumps(marker_last)),
    }


def never_read_whole(*args):
    raise AssertionError("the file was read whole, not streamed")


def traced_load(load, path):
    """(traced peak, error message or ``None``) of ``load(path)``."""
    tracemalloc.start()
    try:
        load(path)
    except InputError as exc:
        return tracemalloc.get_traced_memory()[1], str(exc)
    else:
        return tracemalloc.get_traced_memory()[1], None
    finally:
        tracemalloc.stop()


DECLINED = declined_texts()
UNUSUAL = unusual_texts()
# the streamed reader's chunk, and chunks that cut every token and character
CHUNKS = [roadrules_stream._CHUNK, 1, 7]


class TestStreamedRead:
    """``load_network`` and ``load_signs`` stream a planar file's features, and
    give exactly what reading the whole document with ``json.loads`` gives."""

    @staticmethod
    def whole(kind, path):
        _, from_document, parts = LOADERS[kind]
        text = path.read_text(encoding="utf-8")
        return outcome(lambda: parts(from_document(json.loads(text), path)))

    @staticmethod
    def streamed(kind, path):
        load, _, parts = LOADERS[kind]
        return outcome(lambda: parts(load(path)))

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("kind", LOADERS)
    @pytest.mark.parametrize(
        "marker_first, extras, layout, duplicates",
        itertools.product([True, False], [False, True], LAYOUTS, [False, True]),
    )
    def test_streamed_file_reads_as_the_whole_document(
        self, tmp_path, monkeypatch, kind, marker_first, extras, layout, duplicates, chunk
    ):
        scenario = generate_scenario("sample-town")
        document = scenario.network if kind == "network" else scenario.signs
        text = member_text(document, marker_first, extras, LAYOUTS[layout])
        if duplicates:
            text = with_duplicate_keys(text)
        path = tmp_path / "input.geojson"
        path.write_text(text, encoding="utf-8")
        expected = self.whole(kind, path)
        assert expected[0] == "ok", expected
        monkeypatch.setattr(roadrules_io, "_read_json", never_read_whole)
        monkeypatch.setattr(roadrules_stream, "_CHUNK", chunk)
        assert self.streamed(kind, path) == expected

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("kind", LOADERS)
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("frame", ["absent", "before-features", "after-features"])
    def test_lonlat_file_streams_as_the_whole_document(
        self, tmp_path, monkeypatch, kind, layout, frame, chunk
    ):
        scenario = generate_scenario("sample-town")
        document = as_lonlat(scenario.network if kind == "network" else scenario.signs)
        if frame != "absent":  # a frame that is not planar reads as lon/lat, as none does
            members = [("coordinate_system", "wgs84"), *document.items()]
            document = dict(members if frame == "before-features" else members[1:] + members[:1])
        path = tmp_path / "input.geojson"
        path.write_text(LAYOUTS[layout](document), encoding="utf-8")
        network = network_from_document(as_lonlat(scenario.network))
        load, from_document, parts = LOADERS[kind]
        if kind == "signs":  # lon/lat signs are read in their network's frame
            load = functools.partial(load, network=network)
            from_document = functools.partial(from_document, network=network)
        expected = outcome(lambda: parts(from_document(json.loads(path.read_text()), path)))
        assert expected[0] == "ok", expected
        monkeypatch.setattr(roadrules_io, "_read_json", never_read_whole)
        monkeypatch.setattr(roadrules_stream, "_CHUNK", chunk)
        assert outcome(lambda: parts(load(path))) == expected

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("case", UNUSUAL)
    def test_unusual_bytes_stream_as_the_whole_document(self, tmp_path, monkeypatch, case, chunk):
        kind, text = UNUSUAL[case]
        path = tmp_path / "input.geojson"
        path.write_bytes(text.encode("utf-8"))  # the line ends as written
        expected = self.whole(kind, path)
        assert expected[0] == "ok", expected
        monkeypatch.setattr(roadrules_io, "_read_json", never_read_whole)
        monkeypatch.setattr(roadrules_stream, "_CHUNK", chunk)
        assert self.streamed(kind, path) == expected

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("case", DECLINED)
    def test_declined_file_reads_as_the_whole_document(self, tmp_path, monkeypatch, case, chunk):
        kind, text = DECLINED[case]
        path = tmp_path / "input.geojson"
        path.write_text(text, encoding="utf-8")
        try:
            expected = self.whole(kind, path)
        except (ValueError, RecursionError) as exc:  # JSON the loaders report as malformed
            expected = "error", f"{path}: malformed JSON: {exc}"
        parsed = []
        parse = roadrules_io._read_json

        def whole_read(*args):
            parsed.append(args)
            return parse(*args)

        monkeypatch.setattr(roadrules_io, "_read_json", whole_read)
        monkeypatch.setattr(roadrules_stream, "_CHUNK", chunk)
        assert self.streamed(kind, path) == expected
        assert parsed, "the file was not read whole"

    @pytest.mark.parametrize("case", ["cut-after-the-marker-name",
                                      "cut-after-the-marker-name-and-space"])
    def test_file_cut_after_the_marker_name_exits_1(self, tmp_path, capsys, case):
        kind, text = DECLINED[case]
        cut = tmp_path / "cut.geojson"
        cut.write_text(text, encoding="utf-8")
        whole = write_doc(tmp_path, "whole.geojson", planar_network())
        with pytest.raises(ValueError) as caught:
            json.loads(text)
        network, signs = (cut, whole) if kind == "network" else (whole, cut)
        argv = ["derive", "--network", str(network), "--signs", str(signs), "--cover-all",
                "--out", str(tmp_path / "rules.json")]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == f"error: {cut}: malformed JSON: {caught.value}\n"

    def test_cut_file_fails_before_building_what_it_holds(self, tmp_path):
        # the marker after ``features``, as the benchmark writes it: the half
        # file has none left, streams as lon/lat until its meters fail the
        # bounds, and is read whole, where a first parse that keeps no object
        # meets the cut before any object is built
        document = grid_network(40, 40)
        document["coordinate_system"] = document.pop("coordinate_system")
        text = json.dumps(document)
        valid, cut = tmp_path / "valid.geojson", tmp_path / "cut.geojson"
        valid.write_text(text, encoding="utf-8")
        cut.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            json.loads(text[: len(text) // 2])

        (cut_peak, error), (valid_peak, no_error) = (
            traced_load(load_network, cut), traced_load(load_network, valid)
        )
        assert (error, no_error) == (f"{cut}: malformed JSON: {caught.value}", None)
        assert cut_peak < valid_peak, (cut_peak, valid_peak)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_faulty_file_fails_streamed_as_the_whole_document(self, tmp_path, monkeypatch, chunk):
        # a frame that is not planar streams as lon/lat, as ``json.loads``
        # reads it too, but these planar meters are past its ±90° latitudes
        grid = json.dumps(grid_network(2, 2)["features"])
        path = tmp_path / "input.geojson"
        path.write_text(f'{{"type": "FeatureCollection", "features": {grid}, '
                        '"coordinate_system": "wgs84"}', encoding="utf-8")
        expected = self.whole("network", path)
        assert expected[0] == "error", expected
        monkeypatch.setattr(roadrules_io, "_read_json", never_read_whole)
        monkeypatch.setattr(roadrules_stream, "_CHUNK", chunk)
        assert self.streamed("network", path) == expected

    @pytest.mark.parametrize("reading", READERS)
    def test_faulty_feature_fails_without_a_second_parse(self, tmp_path, monkeypatch, reading):
        # the marker after ``features``, as the benchmark writes it, and a
        # fault in feature 3: the rest of the file streams on, one feature at
        # a time, and is never read whole
        make, read = READERS[reading]
        document = make(40, 40)
        if "coordinate_system" in document:
            document["coordinate_system"] = document.pop("coordinate_system")
        valid = write_doc(tmp_path, "valid.geojson", document)
        name, value = ("azimuth", "x") if reading == "signs" else ("node_id", True)
        document["features"][3]["properties"][name] = value
        faulty = write_doc(tmp_path, "faulty.geojson", document)
        del document
        with pytest.raises(InputError) as caught:
            read(json.loads(faulty.read_text(encoding="utf-8")), faulty)
        assert str(caught.value) == f"{faulty}: feature 3: bad or missing {name!r}"
        load = functools.partial(load_signs, network=NO_ROADS) if reading == "signs" else load_network
        monkeypatch.setattr(roadrules_io, "_read_json", never_read_whole)
        (faulty_peak, error), (valid_peak, no_error) = (
            traced_load(load, faulty), traced_load(load, valid)
        )
        assert (error, no_error) == (str(caught.value), None)
        assert faulty_peak < valid_peak, (faulty_peak, valid_peak)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("where", ["in-a-feature", "after-the-features"])
    def test_invalid_utf8_after_the_first_chunk_exits_1(
        self, tmp_path, monkeypatch, capsys, where, chunk
    ):
        # the message is the whole file's, with the byte's position in the file
        document = grid_network(12, 12)
        document["name"] = "town"
        text = json.dumps(document).encode("utf-8")
        at = {"in-a-feature": text.index(b'"n010_', roadrules_stream._CHUNK) + 1,
              "after-the-features": text.index(b'"town"') + 1}[where]
        assert at > roadrules_stream._CHUNK
        network = tmp_path / "network.geojson"
        network.write_bytes(text[:at] + b"\xff" + text[at:])
        signs = write_doc(tmp_path, "signs.geojson", planar_network())
        with pytest.raises(UnicodeDecodeError) as caught:
            network.read_bytes().decode("utf-8")
        monkeypatch.setattr(roadrules_stream, "_CHUNK", chunk)
        argv = ["derive", "--network", str(network), "--signs", str(signs), "--cover-all",
                "--out", str(tmp_path / "rules.json")]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == f"error: {network}: not UTF-8: {caught.value}\n"

    def test_malformed_feature_declines_in_few_reads(self, tmp_path, monkeypatch):
        # more text cannot mend this feature; each retry reads as much again as
        # it holds, not one chunk more, so the file is not copied once a chunk
        text = json.dumps(grid_network(6, 6)).replace('"Feature", "g', '"Feature" "g', 1)
        path = tmp_path / "network.geojson"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            json.loads(text)
        reads = []

        class CountedReads:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def read(self, *args):
                reads.append(args)
                return self.handle.read(*args)

        monkeypatch.setattr(roadrules_stream, "_CHUNK", 7)
        monkeypatch.setattr(roadrules_stream, "open",
                            lambda *a, **k: CountedReads(open(*a, **k)), raising=False)
        expected = "error", f"{path}: malformed JSON: {caught.value}"
        assert self.streamed("network", path) == expected
        assert len(reads) <= 2 * math.log2(len(text)), (len(reads), len(text))

    @pytest.mark.parametrize("fault", ["in-a-feature", "in-a-member-name"])
    def test_syntax_error_declines_where_it_is_found(self, tmp_path, monkeypatch, fault):
        # an error far before the end of the text read so far is no cut token:
        # the streamed read declines there, not at the end of the file
        text = json.dumps(grid_network(32, 32))
        if fault == "in-a-feature":
            at = text.index('"Feature", "g', 5000)
            text = f"{text[:at]}\"Feature\" {text[at + 11:]}"
        else:
            assert text.startswith('{"type": ')
            text = '{"type" ' + text[9:]
        assert len(text) > 1_000_000
        path = tmp_path / "network.geojson"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            json.loads(text)
        reads = []

        def counted_open(*args, **kwargs):
            handle = open(*args, **kwargs)
            read = handle.read
            handle.read = lambda *a: reads.append(a) or read(*a)
            return handle

        monkeypatch.setattr(roadrules_stream, "open", counted_open, raising=False)
        assert roadrules_stream._CHUNK == 64 * 1024
        expected = "error", f"{path}: malformed JSON: {caught.value}"
        assert self.streamed("network", path) == expected
        assert len(reads) <= 2, reads

    @pytest.mark.parametrize("kind", LOADERS)
    @pytest.mark.parametrize("case", ["completed", "declined-at-once", "declined-at-the-end",
                                      "failed-at-feature-1"])
    def test_streamed_load_leaves_no_file_open(self, tmp_path, monkeypatch, kind, case):
        scenario = generate_scenario("sample-town")
        document = scenario.network if kind == "network" else scenario.signs
        if case == "declined-at-once":  # not an object: declined at its first character
            document = document["features"]
        elif case == "failed-at-feature-1":
            document["features"][1]["properties"] = "x"
        path = write_doc(tmp_path, "input.geojson", document)
        if case == "declined-at-the-end":
            path.write_text(path.read_text() + " []")
        handles = []

        def tracked_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(roadrules_stream, "open", tracked_open, raising=False)
        load, _, _ = LOADERS[kind]
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            result = outcome(lambda: load(path))
            assert handles and all(handle.closed for handle in handles), result
            gc.collect()  # an unclosed file would warn, and fail, as it is collected
        if case == "completed":
            assert result[0] == "ok", result

    @pytest.mark.parametrize("tail", ["", " []"])
    def test_skipped_sign_is_warned_as_the_whole_document_warns(self, tmp_path, caplog, tail):
        # a skipped sign, then a bad one: read whole, the file warns once and
        # fails on the bad sign; with trailing data, it fails as malformed
        # JSON before any sign is read, and does not warn at all
        features = [
            geo_feature("Point", [0, 0], sign_id="skipped", type="R-500", azimuth=0),
            geo_feature("Point", [5, 5], sign_id="bad", type="R-303"),
        ]
        path = write_doc(tmp_path, "signs.geojson", planar_network(*features))
        path.write_text(path.read_text() + tail)
        with caplog.at_level(logging.WARNING, logger="roadrules"):
            with pytest.raises(InputError, match="malformed JSON" if tail else "feature 1"):
                load_signs(path, NO_ROADS)
        assert len(caplog.records) == (0 if tail else 1)

    def test_skipped_sign_in_a_streamed_file_is_warned_once(self, tmp_path, caplog):
        features = [
            geo_feature("Point", [0, 0], sign_id="skipped", type="R-500", azimuth=0),
            geo_feature("Point", [5, 5], sign_id="ok", type="R-303", azimuth=10),
        ]
        path = write_doc(tmp_path, "signs.geojson", planar_network(*features))
        with caplog.at_level(logging.WARNING, logger="roadrules"):
            assert [s.id for s in load_signs(path, NO_ROADS)] == ["ok"]
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: feature 0: skipping sign 'skipped' with unknown type 'R-500'"
        ]

    # what a streamed load may hold beyond the whole-document load when the
    # graph is built: the reader's frames and the feature in hand
    SLACK = 256 * 1024

    @pytest.mark.parametrize("frame", ["planar", "lonlat"])
    def test_streamed_load_holds_neither_document_nor_text_while_building(
        self, tmp_path, monkeypatch, frame
    ):
        document = grid_network(40, 40)
        if frame == "lonlat":  # no marker: read as lon/lat points, projected after the read
            document = as_lonlat(document)
        else:  # the marker after the features, as the benchmark writes it: the frame is guessed
            document["coordinate_system"] = document.pop("coordinate_system")
        text = json.dumps(document)
        path = tmp_path / "network.geojson"
        path.write_text(text, encoding="utf-8")
        del document
        at_build, built = [], []
        build = roadrules_io.build_graph

        def traced_build(*args, **kwargs):
            at_build.append(tracemalloc.get_traced_memory()[0])
            graph = build(*args, **kwargs)
            built.append(tracemalloc.get_traced_memory()[0])
            return graph

        monkeypatch.setattr(roadrules_io, "build_graph", traced_build)

        def traced_load(load):
            tracemalloc.start()
            try:
                graph = load()
                size, peak = tracemalloc.get_traced_memory()
                del graph
                size -= tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            return size, peak

        _, whole_peak = traced_load(lambda: network_from_document(json.loads(path.read_text())))
        size, peak = traced_load(lambda: load_network(path))
        whole_at_build, streamed_at_build = at_build
        assert len(text) > 1_000_000
        # the text is gone before the graph is built, as the document is on the whole path
        assert streamed_at_build <= whole_at_build + self.SLACK, (streamed_at_build, whole_at_build)
        if frame == "planar":
            # the load holds at most the graph, what it is built from (the id and
            # position tables, about 37% of the graph on Python 3.11), both held
            # when the build returns, and a few chunks of the text, never all of it
            assert peak <= built[1] + 4 * roadrules_stream._CHUNK, (peak, built, size)
            assert built[1] + 4 * roadrules_stream._CHUNK < size + len(text), (built, size)
        else:
            # until the centroid is known, the load holds the graph's ids and
            # lon/lat points and two floats a position: less than the parsed
            # document
            tracemalloc.start()
            try:
                document = json.loads(text)
                parsed = tracemalloc.get_traced_memory()[0]
                del document
            finally:
                tracemalloc.stop()
            assert peak < parsed, (peak, parsed)
        assert peak < whole_peak, (peak, whole_peak)


# the bytes a mutant inserts or writes over another: JSON structure, a space,
# a number's parts, a letter, control characters and a byte that is not UTF-8
MUTANT_BYTES = b'{}[],:"\\ 0-.e1x\n\r\t\x00\xff'
# a feature file's members in orders that lead the streamed reader down each
# path: the marker read before the features, or guessed from the file's tail
# and confirmed after them, last or before ``type``
MEMBER_ORDERS = [("coordinate_system", "type", "features"),
                 ("type", "features", "coordinate_system"),
                 ("features", "coordinate_system", "type")]


def byte_mutants(data, rng, count):
    """``count`` copies of ``data``, each with one byte deleted, inserted or
    replaced, or cut short. Half are at a byte of the JSON structure, each
    of ``{}[],:"`` as likely, and half anywhere, the end of ``data`` too."""
    marks = [[at for at, byte in enumerate(data) if byte == mark] for mark in b'{}[],:"']
    for _ in range(count):
        if rng.random() < 0.5:
            at = rng.choice(rng.choice(marks))
        else:
            at = rng.randrange(len(data) + 1)
        byte = bytes([rng.choice(MUTANT_BYTES)])
        yield rng.choice([data[:at] + data[at + 1:], data[:at] + byte + data[at:],
                          data[:at] + byte + data[at + 1:], data[:at]])


class TestByteMutants:
    """A file one byte away from a valid one loads exactly as ``json.loads``
    and the document reader read it, at any chunk of the streamed reader:
    the same result or error message, and the same warnings."""

    @pytest.mark.parametrize("layout", ["compact", "indented"])
    @pytest.mark.parametrize("order", range(len(MEMBER_ORDERS)))
    @pytest.mark.parametrize("kind", [*LOADERS, "lonlat-network"])
    def test_mutant_loads_as_the_whole_document(
        self, tmp_path, monkeypatch, caplog, kind, order, layout
    ):
        scenario = generate_scenario("sample-town")
        document = scenario.signs if kind == "signs" else scenario.network
        if kind == "lonlat-network":  # a frame that is not planar reads as lon/lat
            document = dict(as_lonlat(document), coordinate_system="wgs84")
        document = {name: document[name] for name in MEMBER_ORDERS[order]}
        if layout == "compact":
            data = json.dumps(document, separators=(",", ":")).encode("utf-8")
        else:
            data = json.dumps(document, indent=1).encode("utf-8")
        load, from_document, parts = LOADERS[kind.removeprefix("lonlat-")]
        path = tmp_path / "input.geojson"
        caplog.set_level(logging.WARNING, logger="roadrules")
        for mutant in byte_mutants(data, random.Random(f"{kind} {order} {layout}"), 100):
            path.write_bytes(mutant)
            caplog.clear()
            try:
                document = json.loads(path.read_text(encoding="utf-8"))
            except UnicodeDecodeError as exc:
                expected = "error", f"{path}: not UTF-8: {exc}"
            except ValueError as exc:
                expected = "error", f"{path}: malformed JSON: {exc}"
            else:
                expected = outcome(lambda: parts(from_document(document, path)))
            expected += (caplog.messages,)
            for chunk in CHUNKS:
                monkeypatch.setattr(roadrules_stream, "_CHUNK", chunk)
                caplog.clear()
                got = (*outcome(lambda: parts(load(path))), caplog.messages)
                assert got == expected, (mutant, chunk)


def off_axis_grid(rows, cols):
    """``grid_network`` moved by half a meter, so that every coordinate is a non-zero float."""
    document = grid_network(rows, cols)
    for feature in document["features"]:
        geometry = feature["geometry"]
        if geometry["type"] == "Point":
            geometry["coordinates"] = [c + 0.5 for c in geometry["coordinates"]]
        else:
            geometry["coordinates"] = [[c + 0.5 for c in p] for p in geometry["coordinates"]]
    return document


def as_read_network():
    """Ids and positions equal to others but written differently, each of
    which a load must keep as read: int coordinates against their float
    spelling, with and without a zero, ``-0.0`` against ``0.0``, and numeric
    ids ``1`` against ``1.0``."""
    return planar_network(
        geo_feature("Point", [0, 5], node_id=1),
        geo_feature("Point", [-0.0, 40.5], node_id="m"),
        geo_feature("Point", [30, 40.5], node_id="z"),
        geo_feature("LineString", [[0.0, 5.0], [0.0, 40.5]],
                    edge_id="up", source_node=1.0, target_node="m", opposite_id="down"),
        geo_feature("LineString", [[-0.0, 40.5], [0, 5]],
                    edge_id="down", source_node="m", target_node=1),
        geo_feature("LineString", [[0.0, 40.5], [30.0, 40.5]],
                    edge_id=7, source_node="m", target_node="z", opposite_id=8.0),
        geo_feature("LineString", [[30.0, 40.5], [-0.0, 40.5]],
                    edge_id=8, source_node="z", target_node="m", opposite_id=7.0),
    )


class TestSharedValues:
    """A loaded graph holds each id and each position once, and keeps every
    value that is only equal, not identical, as it was read."""

    @staticmethod
    def load(tmp_path, monkeypatch, path_kind):
        document = off_axis_grid(4, 5)
        if path_kind == "whole":  # parsed already, the marker before ``features``
            assert next(iter(document)) != "features"
            return network_from_document(document)
        if path_kind == "lonlat":
            document = as_lonlat(document)
        else:  # the marker after ``features``, as the benchmark writes it
            document["coordinate_system"] = document.pop("coordinate_system")
            monkeypatch.setattr(roadrules_io, "_read_json", never_read_whole)
        return load_network(write_doc(tmp_path, "network.geojson", document))

    @pytest.mark.parametrize("path_kind", ["streamed", "whole", "lonlat"])
    def test_edges_hold_their_nodes_and_opposites_own_objects(
        self, tmp_path, monkeypatch, path_kind
    ):
        graph = self.load(tmp_path, monkeypatch, path_kind)
        assert len(graph.edges) == 2 * (4 * 4 + 3 * 5)
        for edge in graph.edges.values():
            source, destination = graph.nodes[edge.source], graph.nodes[edge.destination]
            assert edge.source is source.id
            assert edge.destination is destination.id
            assert edge.opposite is graph.edges[edge.opposite].id
            assert edge.geometry[0] is source.position
            assert edge.geometry[-1] is destination.position

    def test_equal_values_written_differently_are_kept_as_read(self):
        graph = network_from_document(as_read_network())
        up, down, seven, eight = (graph.edges[e] for e in ("up", "down", 7, 8))
        assert repr((up.source, down.destination, graph.nodes[1].id)) == "(1.0, 1, 1)"
        assert repr((seven.opposite, eight.opposite, list(graph.edges)[:2])) == "(8.0, 7, [7, 8])"
        assert repr(graph.nodes[1].position) == "Point(x=0, y=5)"
        assert repr(graph.nodes["m"].position) == "Point(x=-0.0, y=40.5)"
        assert repr(tuple(up.geometry)) == "(Point(x=0.0, y=5.0), Point(x=0.0, y=40.5))"
        assert repr(tuple(down.geometry)) == "(Point(x=-0.0, y=40.5), Point(x=0, y=5))"
        assert repr(graph.nodes["z"].position) == "Point(x=30, y=40.5)"
        assert repr(tuple(seven.geometry)) == "(Point(x=0.0, y=40.5), Point(x=30.0, y=40.5))"

    def test_overlay_writes_equal_values_as_read(self, tmp_path):
        network = as_read_network()

        def edges(features):
            return sorted(
                repr((f["properties"]["edge_id"], f["geometry"]["coordinates"]))
                for f in features if f["geometry"]["type"] == "LineString"
            )

        expected = edges(network["features"])
        paths = {
            name: write_doc(tmp_path, f"{name}.geojson", document)
            for name, document in (("network", network), ("signs", planar_network()))
        }
        overlay = tmp_path / "overlay.geojson"
        args = ["derive", "--network", str(paths["network"]), "--signs", str(paths["signs"]),
                "--cover-all", "--out", str(tmp_path / "rules.json"), "--overlay", str(overlay)]
        assert cli_main(args) == 0
        assert edges(json.loads(overlay.read_text())["features"]) == expected

    # Traced bytes of a loaded 40x40 grid per directed edge, measured on
    # Python 3.10 / 3.11 / 3.12 / 3.13: 490 / 419 / 384 / 409 B, and 848 /
    # 777 / 737 / 747 B when every edge held its own copy of its endpoints'
    # ids, its opposite's id and its end positions. The budget is 14% above
    # the largest measured and 24% below the smallest of the copies.
    GRAPH_BYTES_PER_EDGE = 560

    def test_loaded_graph_stays_within_its_bytes_per_edge(self, tmp_path):
        document = grid_network(40, 40)
        document["coordinate_system"] = document.pop("coordinate_system")
        path = write_doc(tmp_path, "network.geojson", document)
        del document
        tracemalloc.start()
        try:
            graph = load_network(path)
            size = tracemalloc.get_traced_memory()[0]
            edges = len(graph.edges)
            del graph
            size -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert edges == 2 * 2 * 40 * 39
        assert size <= self.GRAPH_BYTES_PER_EDGE * edges, (size / edges, size)


def empty_result() -> DerivationResult:
    return DerivationResult({}, frozenset(), frozenset())


class TestRulesDocument:
    def test_empty_result(self, tmp_path):
        path = tmp_path / "rules.json"
        write_rules(empty_result(), path)
        doc = json.loads(path.read_text())
        assert doc == {"no_way": [], "one_way": [], "no_turn": [], "unreached": []}

    def test_single_rule_with_provenance(self):
        result = DerivationResult(
            {"s1": (Rule("no_way", "e9", ("e9",)), 42.5)},
            frozenset({"e1"}),
            frozenset({"e9"}),
        )
        doc = rules_document(result)
        assert doc["no_way"] == [{"edge": "e9", "sign": "s1", "score": 42.5}]
        assert doc["unreached"] == ["e9"]

    def test_all_rule_kinds_serialized_sorted(self):
        result = DerivationResult(
            {
                "b": (Rule("one_way", "keep", ("a", "z")), 10.0),
                "a": (Rule("no_turn", "from", ("t1", "t2")), 20.0),
                "c": (Rule("no_way", "x", ("x",)), 30.0),
            },
            frozenset(),
            frozenset(),
        )
        doc = rules_document(result)
        assert doc["one_way"] == [
            {"chosen": "keep", "banned": ["a", "z"], "sign": "b", "score": 10.0}
        ]
        assert doc["no_turn"] == [
            {"from": "from", "banned_to": ["t1", "t2"], "sign": "a", "score": 20.0}
        ]
        assert doc["no_way"] == [{"edge": "x", "sign": "c", "score": 30.0}]

    def test_write_rules_returns_the_document_it_wrote(self, tmp_path):
        graph, index, expected = load_scenario("sample-town")
        result = derive_rules(graph, index, start_edges=expected["start_edges"])
        path = tmp_path / "rules.json"
        document = write_rules(result, path)
        assert document == rules_document(result) == json.loads(path.read_text())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_is_never_written(self, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            dump_json({"score": value}, io.StringIO())
        with pytest.raises(ValueError, match="not JSON compliant"):
            dump_json({"no_way": [{"score": 1.0}, {"score": value}]}, io.StringIO())

    def test_rewrite_is_byte_identical(self, tmp_path):
        graph, index, expected = load_scenario("sample-town")
        result = derive_rules(graph, index, start_edges=expected["start_edges"])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_rules(result, a)
        write_rules(result, b)
        assert a.read_bytes() == b.read_bytes()

    def test_load_rules_validates_shape(self, tmp_path):
        path = write_doc(tmp_path, "r.json", {"no_way": []})
        with pytest.raises(InputError, match="one_way"):
            load_rules(path)

    RULES = {
        "no_way": [{"edge": "e1", "sign": "s1", "score": 1.0}],
        "one_way": [{"chosen": "e2", "banned": ["e3", 4], "sign": "s2", "score": 2}],
        "no_turn": [{"from": "e4", "banned_to": ["e5", 6.5], "sign": 7, "score": 3.5}],
        "unreached": ["e8", 9],
    }

    def test_load_rules_accepts_string_and_number_ids(self, tmp_path):
        assert load_rules(write_doc(tmp_path, "r.json", self.RULES)) == self.RULES

    @pytest.mark.parametrize(
        "slot, value, message",
        [
            (("no_way", 0), None, "no_way entry 0 is not a JSON object"),
            (("one_way", 0), ["e2"], "one_way entry 0 is not a JSON object"),
            (("no_way", 0, "score"), MISSING, "no_way entry 0: bad or missing 'score'"),
            (("no_way", 0, "edge"), MISSING, "no_way entry 0: bad or missing 'edge'"),
            (("no_way", 0, "sign"), [], "no_way entry 0: bad or missing 'sign'"),
            (("no_way", 0, "edge"), True, "no_way entry 0: bad or missing 'edge'"),
            (("one_way", 0, "chosen"), {}, "one_way entry 0: bad or missing 'chosen'"),
            (("one_way", 0, "banned"), "ab", "one_way entry 0: bad or missing 'banned'"),
            (("one_way", 0, "banned", 0), ["e3"], "one_way entry 0: bad or missing 'banned'"),
            (("no_turn", 0, "banned_to"), "N11->N21", "no_turn entry 0: bad or missing 'banned_to'"),
            (("no_turn", 0, "from"), None, "no_turn entry 0: bad or missing 'from'"),
            (("no_turn", 0, "score"), "1.0", "no_turn entry 0: bad or missing 'score'"),
            (("no_turn", 0, "score"), True, "no_turn entry 0: bad or missing 'score'"),
            (("no_turn", 0, "score"), math.nan, "no_turn entry 0: bad or missing 'score'"),
            (("no_turn", 0, "score"), -math.inf, "no_turn entry 0: bad or missing 'score'"),
            (("no_turn", 0, "score"), 10**400, "no_turn entry 0: bad or missing 'score'"),
            (("unreached", 1), [], "'unreached' must hold only strings or numbers"),
            (("unreached", 1), None, "'unreached' must hold only strings or numbers"),
        ],
    )
    def test_load_rules_rejects_malformed_entries(self, tmp_path, slot, value, message):
        document = copy.deepcopy(self.RULES)
        *parents, last = slot
        parent = document
        for key in parents:
            parent = parent[key]
        if value is MISSING:
            del parent[last]
        else:
            parent[last] = value
        path = write_doc(tmp_path, "r.json", document)
        with pytest.raises(InputError, match=re.escape(f"{path}: {message}")):
            load_rules(path)

    @pytest.mark.parametrize(
        "family, entry, message",
        [
            ("no_turn", {"from": "e9", "banned_to": ["e5"], "sign": "s1", "score": 1.0},
             "no_turn entry 1: sign 's1' already holds no_way entry 0"),
            ("no_way", {"edge": "e9", "sign": "s1", "score": 1.0},
             "no_way entry 1: sign 's1' already holds no_way entry 0"),
            ("one_way", {"chosen": "e9", "banned": [], "sign": 7.0, "score": 1.0},
             "no_turn entry 0: sign 7 already holds one_way entry 1"),
        ],
    )
    def test_load_rules_rejects_a_sign_named_twice(self, tmp_path, family, entry, message):
        document = copy.deepcopy(self.RULES)
        document[family].append(entry)
        path = write_doc(tmp_path, "r.json", document)
        with pytest.raises(InputError, match=re.escape(f"{path}: {message}")):
            load_rules(path)


def dumped(document) -> str:
    stream = io.StringIO()
    dump_json(document, stream)
    return stream.getvalue()


class TestOutputEncoding:
    def test_feature_collection_bytes(self):
        point = {"type": "Point", "coordinates": [1.5, -2.0]}
        line = {"type": "LineString", "coordinates": [[0, 0], [10, 0]]}
        document = {
            "type": "FeatureCollection",
            "coordinate_system": "local-meters",
            "features": [
                {"type": "Feature", "geometry": line, "properties": {"edge_id": "a", "status": "visited"}},
                {"type": "Feature", "geometry": point, "properties": {"sign_id": 7, "rule": None}},
            ],
        }
        assert dumped(document) == (
            '{"coordinate_system":"local-meters","features":[\n'
            '{"geometry":{"coordinates":[[0,0],[10,0]],"type":"LineString"},'
            '"properties":{"edge_id":"a","status":"visited"},"type":"Feature"},\n'
            '{"geometry":{"coordinates":[1.5,-2.0],"type":"Point"},'
            '"properties":{"rule":null,"sign_id":7},"type":"Feature"}\n'
            '],"type":"FeatureCollection"}\n'
        )

    def test_rule_document_bytes(self):
        result = DerivationResult(
            {
                "s2": (Rule("one_way", "keep", ("a", "z")), 10.0),
                "s1": (Rule("no_way", "x", ("x",)), 30.25),
            },
            frozenset(),
            frozenset({"u"}),
        )
        assert dumped(rules_document(result)) == (
            '{"no_turn":[],"no_way":[\n'
            '{"edge":"x","score":30.25,"sign":"s1"}\n'
            '],"one_way":[\n'
            '{"banned":["a","z"],"chosen":"keep","score":10.0,"sign":"s2"}\n'
            '],"unreached":[\n'
            '"u"\n'
            ']}\n'
        )

    @pytest.mark.parametrize("elements", [[], [{"b": 1, "a": [2]}], [1, "x", None]])
    def test_iterator_member_is_written_as_its_list(self, elements):
        def produced():
            yield from elements

        text = dumped({"features": produced(), "type": "x"})
        assert text == dumped({"features": elements, "type": "x"})
        assert json.loads(text) == {"features": elements, "type": "x"}

    def test_nested_features_key_is_encoded_whole(self):
        document = {
            "features": [{"features": [1, 2], "type": "x"}, {"features": []}],
            "meta": {"features": [], "type": "Feature"},
        }
        text = dumped(document)
        assert json.loads(text) == document
        assert text == (
            '{"features":[\n{"features":[1,2],"type":"x"},\n{"features":[]}\n],'
            '"meta":{"features":[],"type":"Feature"}}\n'
        )

    @pytest.mark.parametrize(
        "document, text",
        [
            ({"features": [], "type": "FeatureCollection"}, '{"features":[],"type":"FeatureCollection"}'),
            ({}, "{}"),
        ],
    )
    def test_empty_lists_and_other_documents_are_encoded_whole(self, document, text):
        assert dumped(document) == text + "\n"

    @pytest.mark.parametrize("template", TEMPLATES)
    def test_bundled_outputs_parse_back_to_their_documents(self, tmp_path, template):
        scenario = generate_scenario(template)
        paths = write_scenario(scenario, tmp_path)
        for key, document in [
            ("network", scenario.network), ("signs", scenario.signs), ("expected", scenario.expected),
        ]:
            assert json.loads(paths[key].read_text(encoding="utf-8")) == document
        graph, index, expected = load_scenario(template)
        result = derive_rules(graph, index, cover_all=True)
        rules = write_rules(result, tmp_path / "rules.json")
        assert json.loads((tmp_path / "rules.json").read_text(encoding="utf-8")) == rules
        render_overlay(rules, graph, index.signs, tmp_path / "overlay.geojson")
        overlay = json.loads((tmp_path / "overlay.geojson").read_text(encoding="utf-8"))
        expected_overlay = overlay_document(graph, index.signs, rules)
        expected_overlay["features"] = list(expected_overlay["features"])
        assert overlay == expected_overlay
        truth = (
            frozenset(expected["one_way_banned_edges"]),
            frozenset(map(tuple, expected["turn_restrictions"])),
        )
        report = validate(rules, truth)
        assert json.loads(dumped(report)) == report


class TestValidate:
    def test_reference_accuracy_numbers(self):
        doc = {
            "no_way": [{"edge": f"e{i}", "sign": f"s{i}", "score": 1.0} for i in range(35)],
            "one_way": [],
            "no_turn": [
                {"from": f"f{i}", "banned_to": [f"t{i}"], "sign": f"n{i}", "score": 1.0}
                for i in range(32)
            ],
            "unreached": [],
        }
        truth = (
            frozenset(f"e{i}" for i in range(31)),  # 4 of 35 misplaced
            frozenset((f"f{i}", f"t{i}") for i in range(31)),  # 1 of 32 misplaced
        )
        report = validate(doc, truth)
        one_way, turn = report["one_way_streets"], report["turn_restrictions"]
        assert (one_way["total_mapped"], one_way["incorrect"]) == (35, 4)
        assert one_way["accuracy"] == 88.57
        assert (turn["total_mapped"], turn["incorrect"]) == (32, 1)
        assert turn["accuracy"] == 96.88

    def test_one_way_counts_include_one_way_rules(self):
        doc = {
            "no_way": [{"edge": "a", "sign": "s", "score": 1.0}],
            "one_way": [{"chosen": "k", "banned": ["b", "c"], "sign": "t", "score": 1.0}],
            "no_turn": [],
            "unreached": [],
        }
        report = validate(doc, (frozenset({"a", "b", "c"}), frozenset()))
        assert report["one_way_streets"] == {"total_mapped": 3, "incorrect": 0, "accuracy": 100.0}

    def test_zero_mapped_is_not_a_division_error(self):
        report = validate(rules_document(empty_result()), (frozenset(), frozenset()))
        assert report["one_way_streets"]["accuracy"] is None
        assert report["turn_restrictions"]["accuracy"] is None
        assert json.loads(dumped(report))["one_way_streets"]["accuracy"] is None

    def test_ground_truth_loader(self, tmp_path):
        path = write_doc(
            tmp_path,
            "t.json",
            {"one_way_banned_edges": ["a"], "turn_restrictions": [["f", "t"]]},
        )
        banned, pairs = load_ground_truth(path)
        assert banned == frozenset({"a"})
        assert pairs == frozenset({("f", "t")})

    def test_ground_truth_bad_pairs(self, tmp_path):
        path = write_doc(tmp_path, "t.json", {"turn_restrictions": [["only-one"]]})
        with pytest.raises(InputError, match="pairs"):
            load_ground_truth(path)

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"one_way_banned_edges": "N10->N00"}, "one_way_banned_edges"),
            ({"one_way_banned_edges": ["a", []]}, "one_way_banned_edges"),
            ({"one_way_banned_edges": None}, "one_way_banned_edges"),
            ({"turn_restrictions": ["ab"]}, "pairs"),
            ({"turn_restrictions": "ab"}, "pairs"),
            ({"turn_restrictions": [["a", "b", "c"]]}, "pairs"),
            ({"turn_restrictions": [["a", {}]]}, "pairs"),
            ([], "expected a ground-truth object"),
        ],
    )
    def test_ground_truth_malformed_members(self, tmp_path, document, message):
        path = write_doc(tmp_path, "t.json", document)
        with pytest.raises(InputError, match=re.escape(f"{path}: ") + ".*" + message):
            load_ground_truth(path)


class TestOverlay:
    def test_statuses_and_rule_linkage(self, tmp_path):
        graph, index, expected = load_scenario("sample-town")
        result = derive_rules(graph, index, start_edges=expected["start_edges"])
        features = list(overlay_document(graph, index.signs, rules_document(result))["features"])
        by_edge = {
            f["properties"]["edge_id"]: f["properties"]["status"]
            for f in features
            if "edge_id" in f["properties"]
        }
        assert by_edge["N10->N00"] == "banned"
        assert by_edge["N00->N10"] == "visited"
        assert by_edge["N00->N01"] == "unreached"
        by_sign = {
            f["properties"]["sign_id"]: f["properties"]
            for f in features
            if "sign_id" in f["properties"]
        }
        assert by_sign["s1"]["rule"]["kind"] == "no_way"
        assert by_sign["s2"]["rule"]["kind"] == "no_turn"
        assert by_sign["s1"]["score"] > 0

    def test_sign_without_rule_links_null(self):
        graph, index, _ = load_scenario("twin-nodes")
        doc = overlay_document(graph, index.signs, rules_document(empty_result()))
        sign_props = [f["properties"] for f in doc["features"] if "sign_id" in f["properties"]]
        assert sign_props[0]["rule"] is None
        assert sign_props[0]["score"] is None

    def test_empty_graph_yields_empty_collection(self):
        graph = build_graph({}, {})
        doc = overlay_document(graph, [], rules_document(empty_result()))
        assert doc["type"] == "FeatureCollection" and list(doc["features"]) == []

    def test_render_never_holds_every_feature(self, tmp_path):
        graph = network_from_document(as_lonlat(grid_network(40, 40)))
        signs = signs_from_document(as_lonlat(sign_inventory(40, 40)), network=graph)
        rules = rules_document(derive_rules(graph, SignIndex(signs), cover_all=True))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            features = list(overlay_document(graph, signs, rules)["features"])
            size = tracemalloc.get_traced_memory()[0] - before
            del features
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            render_overlay(rules, graph, signs, tmp_path / "overlay.geojson")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert size > 1_000_000
        # the features are built and written one at a time
        assert peak <= size // 10, (peak, size)

    def test_render_is_deterministic(self, tmp_path):
        graph, index, expected = load_scenario("sample-town")
        result = derive_rules(graph, index, start_edges=expected["start_edges"])
        a, b = tmp_path / "a.geojson", tmp_path / "b.geojson"
        rules = rules_document(result)
        render_overlay(rules, graph, index.signs, a)
        render_overlay(rules, graph, index.signs, b)
        assert a.read_bytes() == b.read_bytes()
