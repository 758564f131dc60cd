import copy
import io
import json
import logging
import math
import re

import pytest

from roadrules.errors import InputError
from roadrules.geometry import Point, distance
from roadrules.io import (
    GroundTruth,
    dump_json,
    load_ground_truth,
    load_network,
    load_rules,
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
        with pytest.raises(InputError, match="feature 1: duplicate node_id 'A'"):
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

    @pytest.mark.parametrize("value", UNHASHABLE)
    @pytest.mark.parametrize("name", ["edge_id", "source_node", "target_node", "opposite_id"])
    def test_unhashable_edge_ids_rejected(self, name, value):
        props = {"edge_id": "ab", "source_node": "A", "target_node": "B", "opposite_id": "ba"}
        props[name] = value
        doc = planar_network(
            geo_feature("LineString", [[100, 0], [0, 0]],
                        edge_id="ba", source_node="B", target_node="A"),
            geo_feature("LineString", [[0, 0], [100, 0]], **props),
        )
        with pytest.raises(InputError, match=f"feature 1: {name} must be"):
            network_from_document(doc)

    @pytest.mark.parametrize("value", UNHASHABLE)
    def test_unhashable_node_id_rejected(self, value):
        doc = planar_network(
            geo_feature("Point", [0, 0], node_id="A"),
            geo_feature("Point", [1, 1], node_id=value),
        )
        with pytest.raises(InputError, match="feature 1: node_id must be"):
            network_from_document(doc)

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_non_finite_number_node_id_rejected(self, value):
        doc = planar_network(
            geo_feature("Point", [0, 0], node_id="A"),
            geo_feature("Point", [1, 1], node_id=value),
        )
        with pytest.raises(InputError, match="feature 1: node_id must be a string or a finite"):
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
        assert (s.id, s.sign_type.code, s.azimuth) == ("s", "R-101", 270.0)
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
        with pytest.raises(InputError, match="feature 1: bad azimuth"):
            signs_from_document(doc)

    @pytest.mark.parametrize("value", UNHASHABLE)
    def test_unhashable_sign_id_rejected(self, value):
        doc = self.signs_doc(
            [
                geo_feature("Point", [0, 0], sign_id="a", type="R-101", azimuth=0),
                geo_feature("Point", [0, 0], sign_id=value, type="R-101", azimuth=0),
            ]
        )
        with pytest.raises(InputError, match="feature 1: sign_id must be"):
            signs_from_document(doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_number_sign_id_rejected(self, value):
        doc = self.signs_doc(
            [
                geo_feature("Point", [0, 0], sign_id="a", type="R-101", azimuth=0),
                geo_feature("Point", [0, 0], sign_id=value, type="R-101", azimuth=0),
            ]
        )
        with pytest.raises(InputError, match="feature 1: sign_id must be a string or a finite"):
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
        with pytest.raises(InputError, match="feature 1: .*not a JSON object"):
            signs_from_document(doc)

    def test_non_numeric_azimuth_rejected(self):
        doc = self.signs_doc(
            [geo_feature("Point", [0, 0], sign_id="s", type="R-101", azimuth="north")]
        )
        with pytest.raises(InputError, match="bad azimuth"):
            signs_from_document(doc)

    @pytest.mark.parametrize("azimuth", [math.nan, math.inf, "nan", "-inf"])
    def test_non_finite_azimuth_rejected(self, azimuth):
        doc = self.signs_doc(
            [
                geo_feature("Point", [0, 0], sign_id="a", type="R-101", azimuth=0),
                geo_feature("Point", [0, 0], sign_id="b", type="R-101", azimuth=azimuth),
            ]
        )
        with pytest.raises(InputError, match="feature 1: bad azimuth"):
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
        with pytest.raises(InputError, match="feature 1"):
            signs_from_document(doc)

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
        with pytest.raises(InputError, match="Point"):
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
            ([], "[]"),
            ([{"b": 1, "a": 2}, 3], '[{"a":2,"b":1},3]'),
            ("é", '"\\u00e9"'),
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
        assert overlay == overlay_document(graph, index, rules)
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
        doc = overlay_document(graph, index, rules_document(result))
        by_edge = {
            f["properties"]["edge_id"]: f["properties"]["status"]
            for f in doc["features"]
            if "edge_id" in f["properties"]
        }
        assert by_edge["N10->N00"] == "banned"
        assert by_edge["N00->N10"] == "visited"
        assert by_edge["N00->N01"] == "unreached"
        by_sign = {
            f["properties"]["sign_id"]: f["properties"]
            for f in doc["features"]
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
        assert doc["type"] == "FeatureCollection" and doc["features"] == []

    def test_render_is_deterministic(self, tmp_path):
        graph, index, expected = load_scenario("sample-town")
        result = derive_rules(graph, index, start_edges=expected["start_edges"])
        a, b = tmp_path / "a.geojson", tmp_path / "b.geojson"
        render_overlay(result, graph, index, a)
        render_overlay(rules_document(result), graph, index, b)
        assert a.read_bytes() == b.read_bytes()
