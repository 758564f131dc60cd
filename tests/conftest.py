import math
import random

import pytest
from hypothesis import settings

settings.register_profile("roadrules", deadline=None)
settings.load_profile("roadrules")

from roadrules.geometry import Point, Polyline
from roadrules.io import network_from_document, signs_from_document
from roadrules.network import DirectedEdge, Node, RoadGraph, build_graph
from roadrules.scenarios import generate_scenario
from roadrules.signs import Sign, SignIndex


def straight_edge(edge_id, src, dst, a, b) -> tuple:
    """One ``(edge_id, (source, destination, geometry))`` item of a ``build_graph`` edge dict."""
    return edge_id, (src, dst, Polyline([a, b]))


def star_graph(bearings, length=60.0) -> RoadGraph:
    """Single intersection 'C' with a two-way street per compass bearing.

    Street i runs to satellite node 'S{i}'; edge ids are 'out{i}' / 'in{i}'.
    """
    center = Point(0.0, 0.0)
    nodes = {"C": center}
    edges = {}
    for i, bearing in enumerate(bearings):
        rad = math.radians(bearing)
        tip = Point(length * math.sin(rad), length * math.cos(rad))
        nodes[f"S{i}"] = tip
        edges.update([straight_edge(f"out{i}", "C", f"S{i}", center, tip),
                      straight_edge(f"in{i}", f"S{i}", "C", tip, center)])
    return build_graph(nodes, edges)


def load_scenario(name, **params):
    """(graph, index, expected) for a generated scenario, all in memory."""
    scenario = generate_scenario(name, **params)
    graph = network_from_document(scenario.network)
    index = SignIndex(signs_from_document(scenario.signs, network=graph))
    return graph, index, scenario.expected


def loose_edge(edge_id, vertices, source="n", destination="x") -> DirectedEdge:
    """Edge record for unit tests that do not need a full graph."""
    return DirectedEdge(edge_id, source, destination, Polyline(vertices))


def loose_node(node_id, x, y) -> Node:
    return Node(node_id, Point(x, y))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def empty_index() -> SignIndex:
    return SignIndex([])
