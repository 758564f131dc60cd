"""A whole derivation against a reference traversal written for obviousness.

The reference restates the paper's algorithm without anything the engine does
to be fast: the frontier is a list, every pop scans every sign with the
detection predicates written out again, a node's signs are re-read on every
arrival, the bans are recomputed from the held rules each time they are
asked about, and under ``cover_all`` each restart is found by a fresh scan
for the smallest unvisited, unbanned edge. It shares with the engine only
the geometry primitives and the pure ``best_*`` scorers; how a scored edge
becomes a rule, and when a rule holds, is restated here.

``derive_rules`` must agree with it record for record and on the visited
set, on small random grids (one-way streets, bent blocks, signs snapped to a
lattice so that scores tie exactly) and on short-block scenes, where one
sign is read from several approaches and held rules get replaced.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadrules.detection import DetectionConfig
from roadrules.geometry import Point, Polyline, distance, heading, normalize
from roadrules.ids import id_sort_key
from roadrules.navigator import derive_rules
from roadrules.network import build_graph
from roadrules.rules import (
    NoTurnRule,
    NoWayRule,
    OneWayRule,
    best_must_turn_edge,
    best_no_turn_edge,
    best_no_way_edge,
    best_one_way_edge,
)
from roadrules.signs import Sign, SignIndex, SignType

from helpers import short_block_scene

NODE_TYPES = {SignType.R101, SignType.R400A, SignType.R400B, SignType.R400C}
ONE_WAY_TYPES = {SignType.R400A, SignType.R400B, SignType.R400C}
TURN_TYPES = {SignType.R302, SignType.R303}


def readable(observer: Point, sign: Sign, cfg: DetectionConfig) -> bool:
    """The sign's face turns to ``observer``, or ``observer`` stands on it."""
    if observer == sign.position:
        return True
    return abs(normalize(heading(observer, sign.position) - sign.azimuth)) <= cfg.visibility_half_angle


class Reference:
    """One derivation, run the slow and obvious way."""

    def __init__(self, graph, signs, cfg):
        self.graph, self.cfg = graph, cfg
        self.signs = sorted(signs, key=lambda s: id_sort_key(s.id))
        self.visited = set()
        self.held = {}  # sign id -> (rule, score)

    def banned(self) -> set:
        """Every edge some held rule bans outright."""
        banned = set()
        for rule, _ in self.held.values():
            if isinstance(rule, NoWayRule):
                banned.add(rule.banned_edge)
            elif isinstance(rule, OneWayRule):
                banned |= rule.banned_edges
        return banned

    def turn_banned(self, from_edge, to_edge) -> bool:
        return any(
            isinstance(rule, NoTurnRule) and rule.from_edge == from_edge and to_edge in rule.banned_to
            for rule, _ in self.held.values()
        )

    def exits(self, node_id) -> list:
        return sorted(
            (e for e in self.graph.edges.values() if e.source == node_id),
            key=lambda e: id_sort_key(e.id),
        )

    def read(self, edge) -> list:
        """The signs read while driving ``edge`` and at its end node, in id order."""
        node, line, cfg = self.graph.nodes[edge.destination], edge.geometry, self.cfg
        seen = []
        for sign in self.signs:
            if sign.sign_type in NODE_TYPES:
                if distance(sign.position, node.position) <= cfg.node_radius and readable(
                    node.position, sign, cfg
                ):
                    seen.append(sign)
            elif line.distance_to(sign.position) <= cfg.edge_radius:
                along = line.index(sign.position)
                observer = line.project(max(0.0, along - cfg.lookback))
                if 0.0 < along < line.length and readable(observer, sign, cfg):
                    seen.append(sign)
        return seen

    def reading(self, sign, current, node, exits):
        """The (rule, score) that reading ``sign`` on ``current`` proposes, or None."""
        kind = sign.sign_type
        if kind is SignType.R101:
            scored = best_no_way_edge(sign, node, exits)
        elif kind in ONE_WAY_TYPES:
            scored = best_one_way_edge(sign, node, exits)
        elif kind in TURN_TYPES:
            scored = best_no_turn_edge(sign, current, node, exits)
        else:
            scored = best_must_turn_edge(sign, current, node, exits)
        if scored is None:
            return None
        others = frozenset(e.id for e in exits if e.id != scored.edge)
        if kind is SignType.R101:
            return NoWayRule(scored.edge), scored.score
        if kind in TURN_TYPES:
            return NoTurnRule(current.id, frozenset({scored.edge})), scored.score
        if not others:
            return None
        if kind in ONE_WAY_TYPES:
            return OneWayRule(scored.edge, others), scored.score
        return NoTurnRule(current.id, others), scored.score

    def associate(self, sign, reading, frontier) -> None:
        """A positive reading holds if the sign holds nothing or holds less.

        The rule it replaces is dropped first; each edge that no held rule
        bans any more and that the run has not reached joins the frontier.
        """
        if reading is None or reading[1] <= 0.0:
            return
        held = self.held.get(sign.id)
        if held is not None and not reading[1] > held[1]:
            return
        before = self.banned()
        self.held.pop(sign.id, None)
        for edge_id in sorted(before - self.banned(), key=id_sort_key):
            if edge_id not in self.visited:
                self.visited.add(edge_id)
                frontier.append(edge_id)
        self.held[sign.id] = reading

    def forbidden(self, current, edge, exits) -> bool:
        def blocked(e):
            return e.id in self.banned() or self.turn_banned(current.id, e.id)

        if blocked(edge):
            return True
        if edge.id == current.opposite:  # a U-turn, legal only as the last way out
            return any(not blocked(other) for other in exits if other.id != edge.id)
        return False

    def navigate(self, start_id) -> None:
        self.visited.add(start_id)
        frontier = [start_id]
        while frontier:
            current = self.graph.edges[frontier.pop(0)]
            assert current.id not in self.banned()
            node = self.graph.nodes[current.destination]
            exits = self.exits(node.id)
            for sign in self.read(current):
                self.associate(sign, self.reading(sign, current, node, exits), frontier)
            for edge in exits:
                if edge.id not in self.visited and not self.forbidden(current, edge, exits):
                    self.visited.add(edge.id)
                    frontier.append(edge.id)


def reference_derivation(graph, signs, cfg, start_edges, cover_all):
    """(records as (sign id, rule, score) in sign-id order, visited edges)."""
    ref = Reference(graph, signs, cfg)
    for edge_id in start_edges:
        if edge_id not in ref.visited and edge_id not in ref.banned():
            ref.navigate(edge_id)
    while cover_all:
        open_edges = [e for e in graph.edges if e not in ref.visited and e not in ref.banned()]
        if not open_edges:
            break
        ref.navigate(min(open_edges, key=id_sort_key))
    records = [(sign.id, *ref.held[sign.id]) for sign in ref.signs if sign.id in ref.held]
    return records, ref.visited


def assert_agrees(graph, signs, cfg, start_edges, cover_all):
    result = derive_rules(graph, SignIndex(signs), cfg, start_edges, cover_all)
    records, visited = reference_derivation(graph, signs, cfg, start_edges, cover_all)
    assert [(r.sign_id, r.rule, r.score) for r in result.rules] == records
    assert result.visited_edges == visited
    assert result.unreached_edges == set(graph.edges) - visited


@st.composite
def grids(draw):
    """(graph, signs) of a small grid with random streets and signs."""
    rows, cols = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    spacing = draw(st.sampled_from([10.0, 20.0, 25.0, 50.0, 100.0]) | st.floats(10.0, 100.0))
    rng = draw(st.randoms(use_true_random=False))
    nodes = {f"n{r}_{c}": Point(c * spacing, r * spacing) for r in range(rows) for c in range(cols)}
    edges = {}
    for r in range(rows):
        for c in range(cols):
            for a, b in (((r, c), (r, c + 1)), ((r, c), (r + 1, c))):
                if b[0] >= rows or b[1] >= cols or rng.random() < 0.1:
                    continue
                a, b = f"n{a[0]}_{a[1]}", f"n{b[0]}_{b[1]}"
                if rng.random() < 0.5:
                    a, b = b, a
                vertices = [nodes[a], nodes[b]]
                if rng.random() < 0.3:  # bend the block at its middle
                    (ax, ay), (bx, by) = vertices
                    bend = rng.uniform(-0.3, 0.3)
                    mid = Point((ax + bx) / 2 + bend * (by - ay), (ay + by) / 2 - bend * (bx - ax))
                    vertices.insert(1, mid)
                edges[f"{a}->{b}"] = (a, b, Polyline(vertices))
                if rng.random() < 0.8:  # otherwise a one-way street
                    edges[f"{b}->{a}"] = (b, a, Polyline(vertices[::-1]))
    if not edges:
        a, b = "n0_0", "n0_1"
        edges[f"{a}->{b}"] = (a, b, Polyline([nodes[a], nodes[b]]))
    graph = build_graph(nodes, edges)
    lines = [edge.geometry for edge in graph.edges.values()]
    signs = []
    for i in range(draw(st.integers(0, 2 * len(lines)))):
        if rng.random() < 0.5:
            # on a lattice of quarter blocks, facing a multiple of 45 degrees,
            # so that readings tie exactly
            corner = rng.choice(list(nodes.values()))
            step = spacing / 4
            position = Point(corner.x + step * rng.randint(-2, 2), corner.y + step * rng.randint(-2, 2))
            azimuth = 45.0 * rng.randrange(8)
        else:
            anchor = rng.choice(lines).project(rng.uniform(0.0, spacing))
            position = Point(anchor.x + rng.uniform(-12, 12), anchor.y + rng.uniform(-12, 12))
            azimuth = rng.uniform(0.0, 360.0)
        sign_id = i if rng.random() < 0.2 else f"s{i:03d}"
        signs.append(Sign(sign_id, position, rng.choice(list(SignType)), azimuth))
    return graph, signs


configs = st.one_of(
    st.just(DetectionConfig()),
    st.builds(
        DetectionConfig,
        node_radius=st.floats(1.0, 40.0),
        edge_radius=st.floats(1.0, 30.0),
        lookback=st.floats(0.5, 30.0),
        visibility_half_angle=st.floats(10.0, 89.5),
    ),
)

@st.composite
def short_blocks(draw):
    """(graph, signs) of a small ``short_block_scene``."""
    graph, index = short_block_scene(
        draw(st.integers(0, 10**6)),
        side=draw(st.integers(2, 7)),
        spacing=draw(st.sampled_from([10.0, 12.5, 15.0])),
        signs_per_edge=draw(st.floats(0.2, 1.5)),
    )
    return graph, list(index)


@settings(max_examples=150)
@given(scene=grids() | short_blocks(), cfg=configs, data=st.data())
def test_derivation_matches_the_reference(scene, cfg, data):
    graph, signs = scene
    cover_all = data.draw(st.booleans(), label="cover_all")
    starts = data.draw(
        st.lists(st.sampled_from(list(graph.edges)), min_size=0 if cover_all else 1, max_size=3),
        label="start_edges",
    )
    assert_agrees(graph, signs, cfg, starts, cover_all)


@pytest.mark.parametrize("cover_all", [False, True])
@pytest.mark.parametrize("seed", [1, 2])
def test_short_block_scene_matches_the_reference(seed, cover_all):
    graph, index = short_block_scene(seed)
    start = list(graph.edges)[97 * seed % len(graph.edges)]
    assert_agrees(graph, list(index), DetectionConfig(), [start], cover_all)
