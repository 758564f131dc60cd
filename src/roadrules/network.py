"""Directed road-network graph.

Nodes are intersections; edges are one navigable direction of a street, so a
two-way street contributes two edges paired through ``opposite``. The graph is
plain data that no derivation writes, so one graph can serve any number of
runs; what a run visits and bans lives in its ``DerivationState``.

``build_graph`` checks how the parts fit together: endpoints, geometry and
opposite pairs. Ids are unique because its inputs are keyed by id, and the
values it gets are already checked: ``io`` reads each id and position once,
where it enters, and names the feature that holds a bad one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import GraphError, shown
from .geometry import LocalProjection, Point, Polyline, distance
from .ids import Identifier, sorted_ids

NodeId = Identifier
EdgeId = Identifier

ENDPOINT_TOLERANCE = 1e-3  # meters


@dataclass(slots=True)
class Node:
    id: NodeId
    position: Point
    outgoing: list[DirectedEdge] = field(default_factory=list)  # the edges leaving, in id order


@dataclass(slots=True)
class DirectedEdge:
    id: EdgeId
    source: NodeId
    destination: NodeId
    geometry: Polyline
    opposite: EdgeId | None = None


@dataclass(eq=False)
class RoadGraph:
    """Validated graph whose nodes and edges iterate in id order."""

    nodes: dict[NodeId, Node]
    edges: dict[EdgeId, DirectedEdge]
    projection: LocalProjection | None = None


def _reversed_match(a: Polyline, b: Polyline, tol: float) -> bool:
    if len(a.vertices) != len(b.vertices):
        return False
    return all(
        p == q or distance(p, q) <= tol for p, q in zip(a.vertices, reversed(b.vertices))
    )


def build_graph(
    nodes: Mapping[NodeId, Point],
    edges: Mapping[EdgeId, tuple[NodeId, NodeId, Polyline]],
    opposite_pairs: Iterable[tuple[EdgeId, EdgeId]] | None = None,
    projection: LocalProjection | None = None,
) -> RoadGraph:
    """Assemble and validate a road graph.

    ``nodes`` maps each node id to its position; ``edges`` maps each edge id
    to its (source, destination, geometry), whose geometry starts at the
    source position and ends at the destination position (within 1 mm).
    ``opposite_pairs`` may name a pair in either order or in both, but never
    an edge paired with itself; when it is None, opposites are auto-detected
    as the unique other edge with swapped endpoints and reversed geometry.
    """
    # Endpoints are checked in input order, so the first bad edge read is the
    # one reported; an exactly equal pair is within the tolerance.
    for edge_id, (source, destination, geometry) in edges.items():
        for endpoint in (source, destination):
            if endpoint not in nodes:
                raise GraphError(f"edge {shown(edge_id)} references unknown node {shown(endpoint)}")
        start, position = geometry.vertices[0], nodes[source]
        if start != position and distance(start, position) > ENDPOINT_TOLERANCE:
            raise GraphError(f"edge {shown(edge_id)} geometry does not start at node {shown(source)}")
        end, position = geometry.vertices[-1], nodes[destination]
        if end != position and distance(end, position) > ENDPOINT_TOLERANCE:
            raise GraphError(f"edge {shown(edge_id)} geometry does not end at node {shown(destination)}")

    node_map = {node_id: Node(node_id, nodes[node_id]) for node_id in sorted_ids(nodes)}
    edge_map: dict[EdgeId, DirectedEdge] = {}
    for edge_id in sorted_ids(edges):
        source, destination, geometry = edges[edge_id]
        edge = edge_map[edge_id] = DirectedEdge(edge_id, source, destination, geometry)
        node_map[source].outgoing.append(edge)

    if opposite_pairs is None:
        _autodetect_opposites(edge_map)
    else:
        for a, b in opposite_pairs:
            for eid in (a, b):
                if eid not in edge_map:
                    raise GraphError(f"opposite pairing references unknown edge {shown(eid)}")
            if a == b:
                raise GraphError(f"edge {shown(a)} is named as its own opposite")
            ea, eb = edge_map[a], edge_map[b]
            if ea.opposite == b:
                continue  # the same pair, named again from its other edge
            if ea.opposite is not None or eb.opposite is not None:
                raise GraphError(f"asymmetric opposite pairing for edges {shown(a)} and {shown(b)}")
            if ea.source != eb.destination or ea.destination != eb.source:
                raise GraphError(f"opposite edges {shown(a)} and {shown(b)} do not swap endpoints")
            if not _reversed_match(ea.geometry, eb.geometry, ENDPOINT_TOLERANCE):
                raise GraphError(f"opposite edges {shown(a)} and {shown(b)} have mismatched geometry")
            ea.opposite = b
            eb.opposite = a
    return RoadGraph(node_map, edge_map, projection)


def _autodetect_opposites(edge_map: dict[EdgeId, DirectedEdge]) -> None:
    """Pair each edge, in the id order of ``edge_map``, with its unique opposite."""
    by_endpoints: dict[tuple[NodeId, NodeId], list[DirectedEdge]] = {}
    for edge in edge_map.values():
        by_endpoints.setdefault((edge.source, edge.destination), []).append(edge)
    for edge in edge_map.values():
        if edge.opposite is not None:
            continue
        candidates = [
            other
            for other in by_endpoints.get((edge.destination, edge.source), [])
            if other.opposite is None
            and other.id != edge.id
            and _reversed_match(edge.geometry, other.geometry, ENDPOINT_TOLERANCE)
        ]
        if len(candidates) > 1:
            ids = sorted_ids([c.id for c in candidates])
            raise GraphError(f"ambiguous opposite for edge {shown(edge.id)}: candidates {shown(ids)}")
        if candidates:
            edge.opposite = candidates[0].id
            candidates[0].opposite = edge.id
