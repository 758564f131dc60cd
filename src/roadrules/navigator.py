"""Frontier-driven navigation: drive the graph, read signs, derive rules.

The traversal mimics a driver exploring an unknown town: edges enter a FIFO
frontier once, signs are read along every popped edge and at its end node on
the run's first arrival there, and the resulting rules immediately constrain
which of that node's ``outgoing`` edges may be taken next. U-turns are taken
only when nothing else is legal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .detection import DetectionConfig, detect_signs_along, detect_signs_from
from .errors import GraphError, InternalError, shown
from .network import DirectedEdge, EdgeId, RoadGraph
from .rules import DerivationState, Rule, analyze_signs
from .signs import SignId, SignIndex


class Frontier(deque):
    """FIFO queue of edges pending navigation."""

    push = deque.append
    pop = deque.popleft


@dataclass(frozen=True)
class RuleRecord:
    """One installed rule with its provenance."""

    sign_id: SignId
    rule: Rule
    score: float


@dataclass(frozen=True)
class DerivationResult:
    rules: tuple[RuleRecord, ...]
    visited_edges: frozenset[EdgeId]
    unreached_edges: frozenset[EdgeId]


def is_navigation_forbidden(
    current: DirectedEdge, candidate: DirectedEdge, state: DerivationState
) -> bool:
    """Whether rules (or the U-turn prohibition) block current -> candidate.

    A U-turn onto the opposite edge is forbidden only while some other exit
    of the node survives the ban and turn-restriction checks; when it is the
    last edge left (dead ends, everything else banned) it is allowed.
    """
    if candidate.id in state.bans:
        return True
    if state.is_turn_banned(current.id, candidate.id):
        return True
    if current.opposite is not None and candidate.id == current.opposite:
        for other in state.graph.nodes[current.destination].outgoing:
            if other.id == candidate.id:
                continue
            if other.id in state.bans or state.is_turn_banned(current.id, other.id):
                continue
            return True
    return False


def _navigate(
    state: DerivationState,
    index: SignIndex,
    cfg: DetectionConfig,
    start_edge: DirectedEdge,
) -> None:
    graph, visited = state.graph, state.visited
    frontier = Frontier()
    visited.add(start_edge.id)
    frontier.push(start_edge.id)
    while frontier:
        current = graph.edges[frontier.pop()]
        if current.id in state.bans:
            raise InternalError(f"banned edge {current.id!r} reached the frontier pop")
        node = graph.nodes[current.destination]
        signs = detect_signs_along(current, index, cfg)
        # Node signs are read on the first arrival only. Their candidates
        # depend on the sign, the node and its outgoing edges, never on the
        # approach edge, and a held score never drops (it is replaced only by
        # a higher one and never removed), so a repeat reading would score at
        # most what is held and associate_new_rule would ignore it.
        if node.id not in state.read_nodes:
            state.read_nodes.add(node.id)
            signs += detect_signs_from(node, index, cfg)
        analyze_signs(signs, current, node, frontier, state)
        for edge in node.outgoing:
            if edge.id not in visited and not is_navigation_forbidden(current, edge, state):
                visited.add(edge.id)
                frontier.push(edge.id)


def _collect(state: DerivationState, index: SignIndex) -> DerivationResult:
    records = tuple(
        RuleRecord(sign.id, *state.held[sign.id]) for sign in index.signs if sign.id in state.held
    )
    visited = frozenset(state.visited)
    unreached = frozenset(edge_id for edge_id in state.graph.edges if edge_id not in visited)
    return DerivationResult(records, visited, unreached)


def derive_rules(
    graph: RoadGraph,
    index: SignIndex,
    cfg: DetectionConfig | None = None,
    start_edges: list[EdgeId] | tuple[EdgeId, ...] = (),
    cover_all: bool = False,
) -> DerivationResult:
    """Derive rules from one or more start edges.

    This is the one way to run a derivation. All run state lives in a fresh
    ``DerivationState``; ``graph`` and ``index`` are only read, so they can be
    reused across calls. Start edges run sequentially on shared state; an
    unknown one raises ``GraphError``, and one already visited or banned by
    earlier rules is skipped. With ``cover_all`` the run then restarts from
    the smallest-id unvisited unbanned edge until none remain, so only edges
    banned until the very end stay unreached.
    """
    if not start_edges and not cover_all:
        raise ValueError("need at least one start edge, or cover_all")
    cfg = cfg or DetectionConfig()
    state = DerivationState(graph)
    for edge_id in start_edges:
        if edge_id not in graph.edges:
            raise GraphError(f"unknown edge {shown(edge_id)}")
        if edge_id not in state.visited and edge_id not in state.bans:
            _navigate(state, index, cfg, graph.edges[edge_id])
    if cover_all:
        # One id-ordered pass finds every restart: an edge the pass has moved
        # past never becomes a valid start again, since visits are permanent
        # and an edge unbanned by a revocation is visited at that moment.
        for edge in graph.edges.values():
            if edge.id not in state.visited and edge.id not in state.bans:
                _navigate(state, index, cfg, edge)
    return _collect(state, index)
