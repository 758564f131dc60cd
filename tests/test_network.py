import random

import pytest

from roadrules.errors import GraphError
from roadrules.geometry import Point, Polyline
from roadrules.network import build_graph

from conftest import load_scenario, straight_edge

A = Point(0, 0)
B = Point(100, 0)


def two_way_street():
    nodes = {"A": A, "B": B}
    edges = dict([
        straight_edge("A->B", "A", "B", A, B),
        straight_edge("B->A", "B", "A", B, A),
    ])
    return nodes, edges


class TestBuildGraph:
    def test_two_way_street_pairs_opposites(self):
        graph = build_graph(*two_way_street())
        assert graph.edges["A->B"].opposite == "B->A"
        assert graph.edges["B->A"].opposite == "A->B"

    def test_pair_named_from_both_edges_links_once(self):
        nodes, edges = two_way_street()
        graph = build_graph(nodes, edges, opposite_pairs=[("A->B", "B->A"), ("B->A", "A->B")])
        assert graph.edges["A->B"].opposite == "B->A"
        assert graph.edges["B->A"].opposite == "A->B"

    def test_one_way_edge_has_no_opposite(self):
        nodes = {"A": A, "B": B}
        graph = build_graph(nodes, dict([straight_edge("A->B", "A", "B", A, B)]))
        assert graph.edges["A->B"].opposite is None

    def test_unknown_node_rejected(self):
        with pytest.raises(GraphError, match="unknown node"):
            build_graph({"A": A}, dict([straight_edge("A->C", "A", "C", A, B)]))

    def test_geometry_must_touch_endpoints(self):
        nodes = {"A": A, "B": B}
        bad = {"e": ("A", "B", Polyline([(0, 5), (100, 0)]))}
        with pytest.raises(GraphError, match="does not start"):
            build_graph(nodes, bad)

    @pytest.mark.parametrize("offset, ok", [(0.0005, True), (0.002, False)])
    @pytest.mark.parametrize("end", ["start", "end"])
    def test_endpoint_tolerance_is_one_millimeter(self, end, offset, ok):
        start, stop = (Point(0, offset), B) if end == "start" else (A, Point(100, offset))
        edges = {"e": ("A", "B", Polyline([start, stop]))}
        if ok:
            assert build_graph({"A": A, "B": B}, edges).edges["e"].geometry.vertices == (start, stop)
        else:
            with pytest.raises(GraphError, match=f"does not {end}"):
                build_graph({"A": A, "B": B}, edges)

    @pytest.mark.parametrize("offset, ok", [(0.0005, True), (0.002, False)])
    @pytest.mark.parametrize("explicit", [True, False])
    def test_opposite_geometry_tolerance_is_one_millimeter(self, explicit, offset, ok):
        bend = Point(50, 30)
        edges = {
            "ab": ("A", "B", Polyline([A, bend, B])),
            "ba": ("B", "A", Polyline([B, Point(50, 30 + offset), A])),
        }
        pairs = [("ab", "ba")] if explicit else None
        if ok:
            assert build_graph({"A": A, "B": B}, edges, pairs).edges["ab"].opposite == "ba"
        elif explicit:
            with pytest.raises(GraphError, match="mismatched geometry"):
                build_graph({"A": A, "B": B}, edges, pairs)
        else:
            assert build_graph({"A": A, "B": B}, edges).edges["ab"].opposite is None

    def test_explicit_asymmetric_pairing_rejected(self):
        nodes = {"A": A, "B": B, "C": Point(200, 0)}
        edges = dict([
            straight_edge("ab", "A", "B", A, B),
            straight_edge("ba", "B", "A", B, A),
            straight_edge("bc", "B", "C", B, Point(200, 0)),
        ])
        with pytest.raises(GraphError, match="do not swap endpoints"):
            build_graph(nodes, edges, opposite_pairs=[("ab", "bc")])

    def test_explicit_pairing_checks_geometry(self):
        nodes = {"A": A, "B": B}
        edges = dict([
            straight_edge("ab", "A", "B", A, B),
            ("ba", ("B", "A", Polyline([B, Point(50, 30), A]))),
        ])
        with pytest.raises(GraphError, match="mismatched geometry"):
            build_graph(nodes, edges, opposite_pairs=[("ab", "ba")])

    def test_ambiguous_autodetect_rejected(self):
        nodes = {"A": A, "B": B}
        edges = dict([
            straight_edge("ab", "A", "B", A, B),
            straight_edge("ba1", "B", "A", B, A),
            straight_edge("ba2", "B", "A", B, A),
        ])
        with pytest.raises(GraphError, match="ambiguous opposite"):
            build_graph(nodes, edges)

    def test_opposite_pair_referencing_unknown_edge(self):
        nodes, edges = two_way_street()
        with pytest.raises(GraphError, match="unknown edge"):
            build_graph(nodes, edges, opposite_pairs=[("A->B", "nope")])


class TestQueries:
    def test_outgoing_at_grid_center(self):
        graph, _, _ = load_scenario("grid", rows=3, cols=3, spacing=100.0)
        center = graph.outgoing_edges("n001_001")
        assert len(center) == 4
        assert [e.id for e in center] == sorted(e.id for e in center)
        assert all(e.source == "n001_001" for e in center)

    def test_dead_end_has_single_outgoing(self):
        graph, _, _ = load_scenario("dead-end")
        assert [e.id for e in graph.outgoing_edges("C")] == ["C->B"]

    def test_isolated_node_has_no_outgoing(self):
        graph = build_graph({"A": A, "B": B, "X": Point(500, 500)}, two_way_street()[1])
        assert graph.outgoing_edges("X") == []

    def test_unknown_ids_raise(self):
        graph = build_graph(*two_way_street())
        with pytest.raises(GraphError):
            graph.outgoing_edges("nope")


class TestInvariants:
    def test_opposite_symmetry_everywhere(self):
        graph, _, _ = load_scenario("grid", rows=4, cols=5, spacing=50.0)
        for edge in graph.edges.values():
            assert edge.opposite is not None
            assert graph.edges[edge.opposite].opposite == edge.id

    def test_iteration_order_is_input_order_independent(self):
        nodes, edges = two_way_street()
        nodes2, edges2 = list(nodes.items()), list(edges.items())
        random.Random(5).shuffle(nodes2)
        random.Random(6).shuffle(edges2)
        g1 = build_graph(nodes, edges)
        g2 = build_graph(dict(nodes2), dict(edges2))
        assert list(g1.nodes) == list(g2.nodes)
        assert list(g1.edges) == list(g2.edges)
        assert [e.id for e in g1.outgoing_edges("A")] == [
            e.id for e in g2.outgoing_edges("A")
        ]
