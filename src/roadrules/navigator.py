"""Frontier-driven navigation: drive the graph, read signs, derive rules.

The traversal mimics a driver exploring an unknown town: edges enter a FIFO
frontier once, signs are read along every popped edge and at its end node on
the run's first arrival there, and the resulting rules immediately constrain
which of that node's ``outgoing`` edges may be taken next. U-turns are taken
only when nothing else is legal.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, filterfalse
from typing import AbstractSet, Mapping, NamedTuple

from .errors import InputError, InternalError, shown
from .network import DirectedEdge, EdgeId, RoadGraph
from .rules import DerivationState, Rule, analyze_signs
from .signs import DetectionConfig, SignId, SignIndex, detect_signs_along, detect_signs_from


class Frontier(deque):
    """FIFO queue of edges pending navigation: ``append`` adds, ``pop`` takes the oldest."""

    pop = deque.popleft


class DerivationResult(NamedTuple):
    """``rules`` (sign id -> held ``(rule, score)``) and ``visited_edges`` are
    the run's own map and set, not copies: nothing writes them after
    ``derive_rules`` returns, and a result cannot be hashed. ``rules``
    iterates in the order signs first installed a rule, not in sign order."""

    rules: Mapping[SignId, tuple[Rule, float]]
    visited_edges: AbstractSet[EdgeId]
    unreached_edges: frozenset[EdgeId]


def is_navigation_forbidden(
    current: DirectedEdge, candidate: DirectedEdge, state: DerivationState
) -> bool:
    """Whether rules (or the U-turn prohibition) block current -> candidate.

    A U-turn onto the opposite edge is forbidden only while some other exit
    of the node survives the ban and turn-restriction checks; when it is the
    last edge left (dead ends, everything else banned) it is allowed.
    """
    bans = state.bans
    if candidate.id in bans or (current.id, candidate.id) in bans:
        return True
    if current.opposite is not None and candidate.id == current.opposite:
        for other in state.graph.nodes[current.destination].outgoing:
            if other.id == candidate.id:
                continue
            if other.id in bans or (current.id, other.id) in bans:
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
    frontier = state.frontier = Frontier([start_edge.id])
    visited.add(start_edge.id)
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
        if signs:  # most pops detect none
            analyze_signs(signs, current, node, state)
        for edge in node.outgoing:
            if edge.id not in visited and not is_navigation_forbidden(current, edge, state):
                visited.add(edge.id)
                frontier.append(edge.id)


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
    reused across calls. An unknown start edge, or none without ``cover_all``,
    raises ``InputError`` before any runs. Start edges run in turn on shared
    state, skipping one already visited or banned by earlier rules. With
    ``cover_all`` the run then restarts from the smallest-id unvisited unbanned
    edge until none remain, so only edges still banned at the end stay unreached.
    """
    if not start_edges and not cover_all:
        raise InputError("need at least one start edge, or cover_all")
    cfg = cfg or DetectionConfig()
    state = DerivationState(graph)
    for edge_id in start_edges:
        if edge_id not in graph.edges:
            raise InputError(f"unknown edge {shown(edge_id)}")
    # With cover_all, one id-ordered pass finds every restart: an edge the pass
    # has moved past never becomes a valid start again, since visits are
    # permanent and an edge unbanned by a revocation is visited at that moment.
    restarts = graph.edges.values() if cover_all else ()
    for edge in chain((graph.edges[edge_id] for edge_id in start_edges), restarts):
        if edge.id not in state.visited and edge.id not in state.bans:
            _navigate(state, index, cfg, edge)
    unreached = frozenset(filterfalse(state.visited.__contains__, graph.edges))
    return DerivationResult(state.held, state.visited, unreached)
