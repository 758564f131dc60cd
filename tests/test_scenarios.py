import hashlib

import pytest

from roadrules.errors import InputError
from roadrules.geometry import distance
from roadrules.io import network_from_document
from roadrules.scenarios import TEMPLATES, generate_scenario, write_scenario

from conftest import load_scenario


class TestGridTemplate:
    def test_three_by_three_counts(self):
        graph, _, expected = load_scenario("grid", rows=3, cols=3, spacing=100.0)
        assert len(graph.nodes) == 9
        assert len(graph.edges) == 24  # 12 streets, both directions
        assert expected["one_way_banned_edges"] == []
        assert expected["turn_restrictions"] == []

    def test_spacing_applies(self):
        graph, _, _ = load_scenario("grid", rows=2, cols=2, spacing=40.0)
        assert distance(graph.nodes["n000_000"].position, graph.nodes["n000_001"].position) == 40.0

    def test_start_edge_exists(self):
        graph, _, expected = load_scenario("grid", rows=2, cols=3)
        assert expected["start_edges"][0] in graph.edges

    @pytest.mark.parametrize("rows,cols,spacing", [(1, 1, 100.0), (0, 5, 100.0), (3, 3, 0.0)])
    def test_bad_parameters(self, rows, cols, spacing):
        with pytest.raises(InputError):
            generate_scenario("grid", rows=rows, cols=cols, spacing=spacing)


class TestDeadEndTemplate:
    def test_terminal_node_has_only_the_return_edge(self):
        graph, _, _ = load_scenario("dead-end")
        assert [e.id for e in graph.nodes["C"].outgoing] == ["C->B"]


class TestTwinNodesTemplate:
    def test_sign_is_within_detection_range_of_two_nodes(self):
        graph, index, _ = load_scenario("twin-nodes")
        sign = index.signs[0]
        close = [
            n.id
            for n in graph.nodes.values()
            if distance(n.position, sign.position) <= 15.0
        ]
        assert sorted(close) == ["N1", "N2"]

    def test_expected_names_resolvable_edges(self):
        graph, _, expected = load_scenario("twin-nodes")
        for eid in expected["one_way_banned_edges"] + expected["start_edges"]:
            assert eid in graph.edges


class TestSampleTownTemplate:
    def test_expected_rules_resolve(self):
        graph, index, expected = load_scenario("sample-town")
        assert len(index.signs) == 2
        for eid in expected["one_way_banned_edges"]:
            assert eid in graph.edges
        for pair in expected["turn_restrictions"]:
            assert pair[0] in graph.edges and pair[1] in graph.edges


def test_unknown_template():
    with pytest.raises(InputError, match="unknown template"):
        generate_scenario("motorway")


# sha256 of network.geojson, signs.geojson and expected_rules.json as the
# scenes were first written; a rewrite of the generator must keep every byte,
# feature order included
NO_SIGNS = "0d7e9b9ff63beb3d3cc72d17f4aa5a82624058bc2e844a6da41f95d8f9721381"
GRID_EXPECTED = "0ab282fd5f30ea91b98847642ebe0141a4eca8b4a7bbbf497eadeadcf08e721d"
PINNED = [
    (
        "grid",
        {},
        [
            "33e8ca4c9ae02da457803088102569a1e27a0503709fc958d4fbfbc4c79dbb5f",
            NO_SIGNS,
            GRID_EXPECTED,
        ],
    ),
    (
        "grid",
        {"rows": 4, "cols": 7, "spacing": 33.5},
        [
            "f23983199132b5f833cc587535b9d2ac5b6587e48abf17a354c7c8ae66fa2179",
            NO_SIGNS,
            GRID_EXPECTED,
        ],
    ),
    (
        "dead-end",
        {},
        [
            "ae9dc773d83bf514a338a88fd5ebdf9bf5c02f68f5a3237f57dac2607cf8c13b",
            NO_SIGNS,
            "25511891288f4d5508a994ac59830b92ccfed6078b18bb655194ca2838d03370",
        ],
    ),
    (
        "twin-nodes",
        {},
        [
            "3085f3af850bf2dccc96a696954429f3a3f49df4a4119bfea9e0c5e5bfc2421d",
            "3ba5843b7fafe31cf9d30f036cd4a6278f99985de85d39f0212641e38f0c3541",
            "877729bcc5167332a0e9451d5d433041b4066822ef0477103333864254548119",
        ],
    ),
    (
        "sample-town",
        {},
        [
            "b3f4b69ee6882aec6a52809d899384d089b7e9f80a5633c9027dfc00f83e4310",
            "66dd5ae9bbe397052db656dd3ade5fd1b785a62a95a622182947969283e0ccba",
            "cfbfe0d3fd6ba799564c380dd7bd4f08db35477a2d6ebc030fa6e5b11c3ef12a",
        ],
    ),
]


@pytest.mark.parametrize(
    "template,params,digests",
    PINNED,
    ids=["grid", "grid-4x7-33.5m", "dead-end", "twin-nodes", "sample-town"],
)
def test_written_files_keep_their_bytes(tmp_path, template, params, digests):
    paths = write_scenario(generate_scenario(template, **params), tmp_path)
    assert [hashlib.sha256(path.read_bytes()).hexdigest() for path in paths.values()] == digests


def test_every_template_is_pinned():
    assert {template for template, _, _ in PINNED} == set(TEMPLATES)


@pytest.mark.parametrize("template", TEMPLATES)
def test_each_call_returns_fresh_documents(template):
    first, second = generate_scenario(template), generate_scenario(template)
    network_from_document(first.network)  # takes the features out of the document
    assert "features" not in first.network and second.network["features"]
