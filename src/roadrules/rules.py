"""Rule generation: per-edge scoring of detected signs, rule installation and
score-based replacement.

A sign holds at most one rule per run, recorded in the run's
``DerivationState``. Re-detecting the sign elsewhere produces a new candidate
that replaces the held rule only on a strictly higher score; global bans are
reference-counted so revoking one rule never clears a ban still asserted by
another sign.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Union

from .geometry import angle, heading, normalize
from .ids import id_sort_key, sorted_ids
from .network import DirectedEdge, EdgeId, Node, NodeId, RoadGraph
from .signs import Sign, SignId, SignType

if TYPE_CHECKING:  # pragma: no cover
    from .navigator import Frontier

NOMINAL_AHEAD = 10.0  # meters; fallback probe point along an edge


@dataclass(frozen=True)
class NoWayRule:
    """Global ban on entering one edge."""

    banned_edge: EdgeId


@dataclass(frozen=True)
class OneWayRule:
    """Global ban on every intersection exit except the mandated one."""

    chosen: EdgeId
    banned_edges: frozenset[EdgeId]


@dataclass(frozen=True)
class NoTurnRule:
    """Pairwise ban: coming from ``from_edge`` you may not take ``banned_to``."""

    from_edge: EdgeId
    banned_to: frozenset[EdgeId]


Rule = Union[NoWayRule, OneWayRule, NoTurnRule]


def global_bans(rule: Rule) -> frozenset[EdgeId]:
    if isinstance(rule, NoWayRule):
        return frozenset((rule.banned_edge,))
    if isinstance(rule, OneWayRule):
        return rule.banned_edges
    return frozenset()


def turn_pairs(rule: Rule) -> frozenset[tuple[EdgeId, EdgeId]]:
    if isinstance(rule, NoTurnRule):
        return frozenset((rule.from_edge, to) for to in rule.banned_to)
    return frozenset()


@dataclass(frozen=True)
class ScoredEdge:
    edge: EdgeId
    score: float


class DerivationState:
    """Everything a single derivation run changes.

    ``visited`` holds the edges the run has pushed, ``read_nodes`` the nodes
    whose signs the run has read, ``bans`` the reference count of every
    globally banned edge (an edge is banned exactly while it is a key, and so
    is a turn pair in ``_turn_counts``), and ``held`` each sign's installed
    ``(rule, score)`` by sign id. The graph is only read.
    """

    def __init__(self, graph: RoadGraph):
        self.graph = graph
        self.visited: set[EdgeId] = set()
        self.read_nodes: set[NodeId] = set()
        self.bans: Counter[EdgeId] = Counter()
        self.held: dict[SignId, tuple[Rule, float]] = {}
        self._turn_counts: Counter[tuple[EdgeId, EdgeId]] = Counter()

    def is_turn_banned(self, from_edge: EdgeId, to_edge: EdgeId) -> bool:
        return (from_edge, to_edge) in self._turn_counts

    def install(self, rule: Rule) -> None:
        for edge_id in global_bans(rule):
            self.bans[edge_id] += 1
        for pair in turn_pairs(rule):
            self._turn_counts[pair] += 1

    def revoke(self, rule: Rule, frontier: Frontier) -> None:
        """Withdraw a rule's effects.

        Edges whose last ban disappears are unbanned, and the ones not yet
        visited are marked visited and pushed so the run can still reach them.
        """
        for edge_id in sorted_ids(global_bans(rule)):
            self.bans[edge_id] -= 1
            if self.bans[edge_id] <= 0:
                del self.bans[edge_id]
                if edge_id not in self.visited:
                    self.visited.add(edge_id)
                    frontier.push(edge_id)
        for pair in turn_pairs(rule):
            self._turn_counts[pair] -= 1
            if self._turn_counts[pair] <= 0:
                del self._turn_counts[pair]


def best_no_way_edge(sign: Sign, node: Node, outgoing: list[DirectedEdge]) -> ScoredEdge | None:
    """Score every outgoing edge as the target of an entry-ban sign.

    The edge is probed at the sign's projection onto it (or a nominal point
    ahead when the sign sits behind the edge start); smaller angles between
    node->sign and node->probe score higher, and edges falling to the right
    of the sign are penalized.
    """
    if sign.position == node.position:
        return None
    best: ScoredEdge | None = None
    for edge in outgoing:
        geometry = edge.geometry
        sign_proj = geometry.index(sign.position)
        if sign_proj <= 0.0:
            sign_proj = NOMINAL_AHEAD
        probe = geometry.project(sign_proj)
        if probe == node.position:
            continue
        alpha = angle(sign.position, node.position, probe)
        if alpha < -10.0:
            alpha -= 30.0
        score = 90.0 - abs(alpha)
        if best is None or score > best.score:
            best = ScoredEdge(edge.id, score)
    return best


_TURN_OFFSETS = {
    SignType.R302: -90.0,
    SignType.R303: 90.0,
    SignType.R400D: -90.0,
    SignType.R400E: 90.0,
}


def best_no_turn_edge(
    sign: Sign, current: DirectedEdge, node: Node, outgoing: list[DirectedEdge]
) -> ScoredEdge | None:
    """Best candidate for the turn a restriction or mandatory-turn sign names.

    The approach vector runs from the sign's projection on the current edge
    to the node; each exit is probed 10 m in, offset by -90 (right) or +90
    (left), and scored by how exactly it matches the named turn.
    """
    geometry = current.geometry
    sign_proj = geometry.index(sign.position)
    if sign_proj >= geometry.length:
        sign_proj = max(0.0, geometry.length - NOMINAL_AHEAD)
    back_point = geometry.project(sign_proj)
    if back_point == node.position:
        return None
    offset = _TURN_OFFSETS[sign.sign_type]
    best: ScoredEdge | None = None
    for edge in outgoing:
        probe = edge.geometry.project(NOMINAL_AHEAD)
        if probe == node.position:
            continue
        alpha = normalize(angle(back_point, node.position, probe) + offset)
        score = 60.0 - abs(alpha)
        if best is None or score > best.score:
            best = ScoredEdge(edge.id, score)
    return best


# the same scorer, under the name mandatory-turn signs reach it by
best_must_turn_edge = best_no_turn_edge


_ONE_WAY_OFFSETS = {
    SignType.R400A: 90.0,  # one way to the right of the addressed traffic
    SignType.R400B: -90.0,
    SignType.R400C: 0.0,
}


def best_one_way_edge(sign: Sign, node: Node, outgoing: list[DirectedEdge]) -> ScoredEdge | None:
    """Best exit for a one-way sign: the edge closest to the mandated bearing."""
    target = sign.azimuth + _ONE_WAY_OFFSETS[sign.sign_type]
    best: ScoredEdge | None = None
    for edge in outgoing:
        probe = edge.geometry.project(NOMINAL_AHEAD)
        if probe == node.position:
            continue
        deviation = normalize(target - heading(node.position, probe))
        score = 90.0 - abs(deviation)
        if best is None or score > best.score:
            best = ScoredEdge(edge.id, score)
    return best


def associate_new_rule(
    sign: Sign, candidate: Rule, score: float, frontier: Frontier, state: DerivationState
) -> None:
    """Install ``candidate`` for ``sign`` unless a better rule already holds.

    Non-positive scores never install. Replacement happens only on a strictly
    higher score and first revokes the old rule's effects, re-opening edges
    no other rule bans.
    """
    if score <= 0.0:
        return
    held = state.held.get(sign.id)
    if held is not None:
        if score <= held[1]:
            return
        state.revoke(held[0], frontier)
    state.install(candidate)
    state.held[sign.id] = (candidate, score)


def analyze_signs(
    signs: Iterable[Sign],
    current: DirectedEdge,
    node: Node,
    frontier: Frontier,
    state: DerivationState,
) -> None:
    """Turn the detected signs into rules held in ``state``.

    Signs are processed in id order. One-way and mandatory-turn signs expand
    into the equivalent ban sets over the node's other exits; candidates
    whose ban set would be empty are dropped.
    """
    outgoing = node.outgoing
    for sign in sorted(signs, key=lambda s: id_sort_key(s.id)):
        candidate: Rule | None = None
        scored: ScoredEdge | None = None
        kind = sign.sign_type
        if kind is SignType.R101:
            scored = best_no_way_edge(sign, node, outgoing)
            if scored is not None:
                candidate = NoWayRule(scored.edge)
        elif kind in (SignType.R302, SignType.R303):
            scored = best_no_turn_edge(sign, current, node, outgoing)
            if scored is not None:
                candidate = NoTurnRule(current.id, frozenset((scored.edge,)))
        elif kind in (SignType.R400A, SignType.R400B, SignType.R400C):
            scored = best_one_way_edge(sign, node, outgoing)
            if scored is not None:
                banned = frozenset(e.id for e in outgoing) - {scored.edge}
                if banned:
                    candidate = OneWayRule(scored.edge, banned)
        else:
            scored = best_must_turn_edge(sign, current, node, outgoing)
            if scored is not None:
                banned = frozenset(e.id for e in outgoing) - {scored.edge}
                if banned:
                    candidate = NoTurnRule(current.id, banned)
        if candidate is not None and scored is not None:
            associate_new_rule(sign, candidate, scored.score, frontier, state)
