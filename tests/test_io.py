import copy
import gc
import io
import itertools
import json
import logging
import math
import re
import tracemalloc
import warnings

import pytest

import roadrules.io as roadrules_io
from roadrules.cli import main as cli_main
from roadrules.errors import InputError
from roadrules.geometry import Point, distance
from roadrules.io import (
    GroundTruth,
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
from roadrules.navigator import DerivationResult, RuleRecord, derive_rules
from roadrules.network import build_graph
from roadrules.rules import NoTurnRule, NoWayRule, OneWayRule
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
            assert other.geometry.vertices == edge.geometry.vertices

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
        (s,) = signs_from_document(doc)
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
            signs = signs_from_document(doc)
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
            signs_from_document(doc)

    @pytest.mark.parametrize("code", ["R-500", "R-101"])
    def test_azimuth_is_checked_whatever_the_type(self, tmp_path, caplog, code):
        path = write_doc(tmp_path, "signs.geojson", self.signs_doc(
            [geo_feature("Point", [0, 0], sign_id="s", type=code, azimuth="north")]
        ))
        with caplog.at_level(logging.WARNING, logger="roadrules"):
            with pytest.raises(InputError, match="feature 0: bad or missing 'azimuth'"):
                load_signs(path)
        assert not caplog.records

    @pytest.mark.parametrize("code", [None, 101, True, ["R-101"]])
    def test_type_that_is_not_a_string_rejected(self, code):
        doc = self.signs_doc(
            [geo_feature("Point", [0, 0], sign_id="s", type=code, azimuth=0)]
        )
        with pytest.raises(InputError, match="feature 0: bad or missing 'type'"):
            signs_from_document(doc)

    def test_azimuth_wraps(self):
        doc = self.signs_doc(
            [geo_feature("Point", [0, 0], sign_id="s", type="R-101", azimuth=360)]
        )
        assert signs_from_document(doc)[0].azimuth == 0.0

    def test_missing_field_rejected(self):
        doc = self.signs_doc([geo_feature("Point", [0, 0], sign_id="s", type="R-101")])
        with pytest.raises(InputError, match="azimuth"):
            signs_from_document(doc)

    @pytest.mark.parametrize("azimuth", [10**400, [], {}, True, "270", " 2.7e2 "])
    def test_unconvertible_azimuth_rejected(self, azimuth):
        doc = self.signs_doc(
            [
                geo_feature("Point", [0, 0], sign_id="a", type="R-101", azimuth=0),
                geo_feature("Point", [0, 0], sign_id="b", type="R-101", azimuth=azimuth),
            ]
        )
        with pytest.raises(InputError, match="feature 1: bad or missing 'azimuth'"):
            signs_from_document(doc)

    @pytest.mark.parametrize("value", UNHASHABLE)
    def test_unhashable_sign_id_rejected(self, value):
        doc = self.signs_doc(
            [
                geo_feature("Point", [0, 0], sign_id="a", type="R-101", azimuth=0),
                geo_feature("Point", [0, 0], sign_id=value, type="R-101", azimuth=0),
            ]
        )
        with pytest.raises(InputError, match="feature 1: bad or missing 'sign_id'"):
            signs_from_document(doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_number_sign_id_rejected(self, value):
        doc = self.signs_doc(
            [
                geo_feature("Point", [0, 0], sign_id="a", type="R-101", azimuth=0),
                geo_feature("Point", [0, 0], sign_id=value, type="R-101", azimuth=0),
            ]
        )
        with pytest.raises(InputError, match="feature 1: bad or missing 'sign_id'"):
            signs_from_document(doc)

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
        network = None if planar else self.geographic_network()
        with pytest.raises(InputError, match="feature 1: .*not a JSON object"):
            signs_from_document(doc, network=network)

    def test_non_numeric_azimuth_rejected(self):
        doc = self.signs_doc(
            [geo_feature("Point", [0, 0], sign_id="s", type="R-101", azimuth="north")]
        )
        with pytest.raises(InputError, match="feature 0: bad or missing 'azimuth'"):
            signs_from_document(doc)

    @pytest.mark.parametrize("azimuth", [math.nan, math.inf, "nan", "-inf"])
    def test_non_finite_azimuth_rejected(self, azimuth):
        doc = self.signs_doc(
            [
                geo_feature("Point", [0, 0], sign_id="a", type="R-101", azimuth=0),
                geo_feature("Point", [0, 0], sign_id="b", type="R-101", azimuth=azimuth),
            ]
        )
        with pytest.raises(InputError, match="feature 1: bad or missing 'azimuth'"):
            signs_from_document(doc)

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
        network = None if planar else self.geographic_network()
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
            signs_from_document(doc)

    def test_non_point_rejected(self):
        doc = self.signs_doc(
            [geo_feature("LineString", [[0, 0], [1, 1]], sign_id="s", type="R-101", azimuth=0)]
        )
        with pytest.raises(InputError, match="feature 0: unsupported geometry type 'LineString'"):
            signs_from_document(doc)

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
        # signs never center on their own, or they would not line up with their network
        (load_signs, {"type": "FeatureCollection", "features": [LONLAT_SIGN]},
         "lon/lat signs need the network they belong to"),
        (load_rules, [], "expected a rule document object"),
    ],
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
    "signs": (sign_inventory, signs_from_document),
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
        [(e.id, e.source, e.destination, e.geometry.vertices, e.opposite)
         for e in graph.edges.values()],
        graph.projection,
    ))


def sign_parts(signs):
    return repr([(s.id, s.position, s.sign_type, s.azimuth) for s in signs])


# the file loader, the whole-document reader and what to compare, per file kind
LOADERS = {
    "network": (load_network, network_from_document, graph_parts),
    "signs": (load_signs, signs_from_document, sign_parts),
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
}


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
        document, streamed = roadrules_io._read_collection(path)
        assert streamed
        messages = []
        for read in (
            lambda: from_document(document, path),  # streamed
            lambda: from_document(json.loads(path.read_text()), path),  # whole
        ):
            with pytest.raises(InputError) as caught:
                read()
            messages.append(str(caught.value))
        assert messages == [f"{path}: {message.format(name=name)}"] * 2

    def test_duplicate_names_the_first_feature_of_its_own_kind(self):
        # a node and an edge may share an id; a duplicate is named against its own kind
        edge = geo_feature("LineString", [[0, 0], [100, 0]],
                           edge_id="A", source_node="A", target_node="B")
        node = geo_feature("Point", [0, 0], node_id="A")
        with pytest.raises(InputError, match="duplicate node_id 'A' in features 1 and 2$"):
            network_from_document(planar_network(edge, node, node))
        with pytest.raises(InputError, match="duplicate edge_id 'A' in features 1 and 2$"):
            network_from_document(planar_network(node, edge, edge))


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
        "marker-not-planar": ("network", f'{head}"features": {grid}, '
                                         '"coordinate_system": "wgs84"}'),
        # the frame is guessed from the file's tail only, so this planar file is read whole
        "marker-before-a-long-tail": (
            "network", f'{head}"features": {network}, {marker}, '
                       f'"name": "{"x" * roadrules_io._TAIL}"}}'
        ),
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


DECLINED = declined_texts()
UNUSUAL = unusual_texts()
# the streamed reader's chunk, and chunks that cut every token and character
CHUNKS = [roadrules_io._CHUNK, 1, 7]


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

        def whole_read(*args):
            raise AssertionError("the file was read whole, not streamed")

        monkeypatch.setattr(roadrules_io, "_parse_json", whole_read)
        monkeypatch.setattr(roadrules_io, "_CHUNK", chunk)
        assert self.streamed(kind, path) == expected

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("case", UNUSUAL)
    def test_unusual_bytes_stream_as_the_whole_document(self, tmp_path, monkeypatch, case, chunk):
        kind, text = UNUSUAL[case]
        path = tmp_path / "input.geojson"
        path.write_bytes(text.encode("utf-8"))  # the line ends as written
        expected = self.whole(kind, path)
        assert expected[0] == "ok", expected

        def whole_read(*args):
            raise AssertionError("the file was read whole, not streamed")

        monkeypatch.setattr(roadrules_io, "_parse_json", whole_read)
        monkeypatch.setattr(roadrules_io, "_CHUNK", chunk)
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
        parse = roadrules_io._parse_json

        def whole_read(*args):
            parsed.append(args)
            return parse(*args)

        monkeypatch.setattr(roadrules_io, "_parse_json", whole_read)
        monkeypatch.setattr(roadrules_io, "_CHUNK", chunk)
        assert self.streamed(kind, path) == expected
        assert parsed, "the file was not read whole"

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("where", ["in-a-feature", "after-the-features"])
    def test_invalid_utf8_after_the_first_chunk_exits_1(
        self, tmp_path, monkeypatch, capsys, where, chunk
    ):
        # the message is the whole file's, with the byte's position in the file
        document = grid_network(12, 12)
        document["name"] = "town"
        text = json.dumps(document).encode("utf-8")
        at = {"in-a-feature": text.index(b'"n010_', roadrules_io._CHUNK) + 1,
              "after-the-features": text.index(b'"town"') + 1}[where]
        assert at > roadrules_io._CHUNK
        network = tmp_path / "network.geojson"
        network.write_bytes(text[:at] + b"\xff" + text[at:])
        signs = write_doc(tmp_path, "signs.geojson", planar_network())
        with pytest.raises(UnicodeDecodeError) as caught:
            network.read_bytes().decode("utf-8")
        monkeypatch.setattr(roadrules_io, "_CHUNK", chunk)
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

        monkeypatch.setattr(roadrules_io, "_CHUNK", 7)
        monkeypatch.setattr(roadrules_io, "open", lambda *a, **k: CountedReads(open(*a, **k)),
                            raising=False)
        expected = "error", f"{path}: malformed JSON: {caught.value}"
        assert self.streamed("network", path) == expected
        assert len(reads) <= 2 * math.log2(len(text)), (len(reads), len(text))

    @pytest.mark.parametrize("kind", LOADERS)
    @pytest.mark.parametrize("case", ["completed", "declined-at-once", "declined-at-the-end",
                                      "failed-at-feature-1"])
    def test_streamed_load_leaves_no_file_open(self, tmp_path, monkeypatch, kind, case):
        scenario = generate_scenario("sample-town")
        document = scenario.network if kind == "network" else scenario.signs
        if case == "declined-at-once":
            document = as_lonlat(document)
        elif case == "failed-at-feature-1":
            document["features"][1]["properties"] = "x"
        path = write_doc(tmp_path, "input.geojson", document)
        if case == "declined-at-the-end":
            path.write_text(path.read_text() + " []")
        handles = []

        def tracked_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(roadrules_io, "open", tracked_open, raising=False)
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
                load_signs(path)
        assert len(caplog.records) == (0 if tail else 1)

    def test_skipped_sign_in_a_streamed_file_is_warned_once(self, tmp_path, caplog):
        features = [
            geo_feature("Point", [0, 0], sign_id="skipped", type="R-500", azimuth=0),
            geo_feature("Point", [5, 5], sign_id="ok", type="R-303", azimuth=10),
        ]
        path = write_doc(tmp_path, "signs.geojson", planar_network(*features))
        with caplog.at_level(logging.WARNING, logger="roadrules"):
            assert [s.id for s in load_signs(path)] == ["ok"]
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: feature 0: skipping sign 'skipped' with unknown type 'R-500'"
        ]

    # what a streamed load may hold beyond the whole-document load when the
    # graph is built: the reader's frames and the feature in hand
    SLACK = 256 * 1024

    def test_streamed_load_holds_neither_document_nor_text_while_building(
        self, tmp_path, monkeypatch
    ):
        document = grid_network(40, 40)
        # the marker after the features, as the benchmark writes it: the frame is guessed
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
        # the load holds at most the graph, what it is built from (the id and
        # position tables, about 37% of the graph on Python 3.11), both held
        # when the build returns, and a few chunks of the text, never all of it
        assert peak <= built[1] + 4 * roadrules_io._CHUNK, (peak, built, size)
        assert built[1] + 4 * roadrules_io._CHUNK < size + len(text), (built, size, len(text))
        assert peak < whole_peak, (peak, whole_peak)


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

            def whole_read(*args):
                raise AssertionError("the file was read whole, not streamed")

            monkeypatch.setattr(roadrules_io, "_parse_json", whole_read)
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
            assert edge.geometry.vertices[0] is source.position
            assert edge.geometry.vertices[-1] is destination.position

    def test_equal_values_written_differently_are_kept_as_read(self):
        graph = network_from_document(as_read_network())
        up, down, seven, eight = (graph.edges[e] for e in ("up", "down", 7, 8))
        assert repr((up.source, down.destination, graph.nodes[1].id)) == "(1.0, 1, 1)"
        assert repr((seven.opposite, eight.opposite, list(graph.edges)[:2])) == "(8.0, 7, [7, 8])"
        assert repr(graph.nodes[1].position) == "Point(x=0, y=5)"
        assert repr(graph.nodes["m"].position) == "Point(x=-0.0, y=40.5)"
        assert repr(up.geometry.vertices) == "(Point(x=0.0, y=5.0), Point(x=0.0, y=40.5))"
        assert repr(down.geometry.vertices) == "(Point(x=-0.0, y=40.5), Point(x=0, y=5))"
        assert repr(graph.nodes["z"].position) == "Point(x=30, y=40.5)"
        assert repr(seven.geometry.vertices) == "(Point(x=0.0, y=40.5), Point(x=30.0, y=40.5))"

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
    return DerivationResult((), frozenset(), frozenset())


class TestRulesDocument:
    def test_empty_result(self, tmp_path):
        path = tmp_path / "rules.json"
        write_rules(empty_result(), path)
        doc = json.loads(path.read_text())
        assert doc == {"no_way": [], "one_way": [], "no_turn": [], "unreached": []}

    def test_single_rule_with_provenance(self):
        result = DerivationResult(
            (RuleRecord("s1", NoWayRule("e9"), 42.5),),
            frozenset({"e1"}),
            frozenset({"e9"}),
        )
        doc = rules_document(result)
        assert doc["no_way"] == [{"edge": "e9", "sign": "s1", "score": 42.5}]
        assert doc["unreached"] == ["e9"]

    def test_all_rule_kinds_serialized_sorted(self):
        result = DerivationResult(
            (
                RuleRecord("b", OneWayRule("keep", frozenset({"z", "a"})), 10.0),
                RuleRecord("a", NoTurnRule("from", frozenset({"t2", "t1"})), 20.0),
                RuleRecord("c", NoWayRule("x"), 30.0),
            ),
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
            (
                RuleRecord("s2", OneWayRule("keep", frozenset({"z", "a"})), 10.0),
                RuleRecord("s1", NoWayRule("x"), 30.25),
            ),
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
        render_overlay(rules, graph, index, tmp_path / "overlay.geojson")
        overlay = json.loads((tmp_path / "overlay.geojson").read_text(encoding="utf-8"))
        expected_overlay = overlay_document(graph, index, rules)
        expected_overlay["features"] = list(expected_overlay["features"])
        assert overlay == expected_overlay
        truth = GroundTruth(
            frozenset(expected["one_way_banned_edges"]),
            frozenset(map(tuple, expected["turn_restrictions"])),
        )
        report = validate(rules, truth).to_document()
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
        truth = GroundTruth(
            frozenset(f"e{i}" for i in range(31)),  # 4 of 35 misplaced
            frozenset((f"f{i}", f"t{i}") for i in range(31)),  # 1 of 32 misplaced
        )
        report = validate(doc, truth)
        assert (report.one_way.total_mapped, report.one_way.incorrect) == (35, 4)
        assert report.one_way.accuracy == 88.57
        assert (report.turn.total_mapped, report.turn.incorrect) == (32, 1)
        assert report.turn.accuracy == 96.88

    def test_one_way_counts_include_one_way_rules(self):
        doc = {
            "no_way": [{"edge": "a", "sign": "s", "score": 1.0}],
            "one_way": [{"chosen": "k", "banned": ["b", "c"], "sign": "t", "score": 1.0}],
            "no_turn": [],
            "unreached": [],
        }
        report = validate(doc, GroundTruth(frozenset({"a", "b", "c"}), frozenset()))
        assert report.one_way == report.one_way.__class__(3, 0, 100.0)

    def test_zero_mapped_is_not_a_division_error(self):
        report = validate(rules_document(empty_result()), GroundTruth(frozenset(), frozenset()))
        assert report.one_way.accuracy is None
        assert report.turn.accuracy is None
        assert report.to_document()["one_way_streets"]["accuracy"] is None

    def test_derivation_result_accepted_directly(self):
        graph, index, expected = load_scenario("twin-nodes")
        result = derive_rules(graph, index, start_edges=["E1->N1"])
        truth = GroundTruth(frozenset(expected["one_way_banned_edges"]), frozenset())
        report = validate(result, truth)
        assert report.one_way.accuracy == 100.0

    def test_ground_truth_loader(self, tmp_path):
        path = write_doc(
            tmp_path,
            "t.json",
            {"one_way_banned_edges": ["a"], "turn_restrictions": [["f", "t"]]},
        )
        truth = load_ground_truth(path)
        assert truth.one_way_banned_edges == frozenset({"a"})
        assert truth.turn_restrictions == frozenset({("f", "t")})

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
        features = list(overlay_document(graph, index, rules_document(result))["features"])
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
        doc = overlay_document(graph, index, rules_document(empty_result()))
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
        render_overlay(result, graph, index, a)
        render_overlay(rules_document(result), graph, index, b)
        assert a.read_bytes() == b.read_bytes()
