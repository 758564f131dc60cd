import pytest

from roadrules.errors import InputError
from roadrules.geometry import distance
from roadrules.scenarios import generate_scenario

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
        assert len(index) == 2
        for eid in expected["one_way_banned_edges"]:
            assert eid in graph.edges
        for pair in expected["turn_restrictions"]:
            assert pair[0] in graph.edges and pair[1] in graph.edges


def test_unknown_template():
    with pytest.raises(InputError, match="unknown template"):
        generate_scenario("motorway")
