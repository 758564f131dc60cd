"""Rule generation: per-edge scoring of detected signs, rule installation and
score-based replacement.

A rule is a ``Rule(family, edge, banned)``, the entry the rule document
writes for it. A sign holds at most one rule per run, recorded in the run's
``DerivationState``. Re-detecting the sign elsewhere produces a new candidate
that replaces the held rule only on a strictly higher score; edge and turn
bans are reference-counted so revoking one rule never clears a ban still
asserted by another sign.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Iterable, NamedTuple

from .geometry import angle, heading, normalize
from .ids import id_sort_key, sorted_ids
from .network import DirectedEdge, EdgeId, Node, NodeId, RoadGraph
from .signs import Sign, SignId, SignType

NOMINAL_AHEAD = 10.0  # meters; fallback probe point along an edge


class Rule(NamedTuple):
    """One rule, as its entry in the rule document names it.

    ``family`` is ``no_way``, ``one_way`` or ``no_turn``; ``edge`` is the
    entry's first field (``edge``, ``chosen`` or ``from``) and ``banned`` its
    banned edges in id order. A no-way rule bans its own edge, ``(edge,)``.
    """

    family: str
    edge: EdgeId
    banned: tuple[EdgeId, ...]


def bans(rule: Rule) -> tuple:
    """What ``rule`` bans: the ``(edge, to)`` turn pairs of a no-turn rule,
    the edges banned to every approach of the other two."""
    if rule.family == "no_turn":
        return tuple((rule.edge, to) for to in rule.banned)
    return rule.banned


class ScoredEdge(NamedTuple):
    edge: EdgeId
    score: float


class DerivationState:
    """Everything a single derivation run changes.

    ``visited`` holds the edges the run has pushed, ``read_nodes`` the nodes
    whose signs the run has read, ``bans`` the reference count of every
    banned edge and banned ``(from, to)`` turn pair (a ban holds exactly
    while it is a key; edge ids are strings or numbers, so the two kinds of
    key never meet), ``held`` each sign's installed ``(rule, score)`` by
    sign id, and ``frontier`` the edges the navigation in progress has still
    to pop (a plain deque until a navigation starts). The graph is only read.
    """

    def __init__(self, graph: RoadGraph):
        self.graph = graph
        self.visited: set[EdgeId] = set()
        self.read_nodes: set[NodeId] = set()
        self.bans: Counter = Counter()
        self.held: dict[SignId, tuple[Rule, float]] = {}
        self.frontier: deque[EdgeId] = deque()

    def install(self, rule: Rule) -> None:
        self.bans.update(bans(rule))

    def revoke(self, rule: Rule) -> None:
        """Withdraw a rule's effects.

        Edges whose last ban disappears are unbanned, and the ones not yet
        visited are marked visited and pushed, in id order, so the run can
        still reach them.
        """
        for key in bans(rule):
            self.bans[key] -= 1
            if self.bans[key] <= 0:
                del self.bans[key]
                if rule.family != "no_turn" and key not in self.visited:
                    self.visited.add(key)
                    self.frontier.append(key)


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
        sign_proj = geometry.nearest(sign.position)[1]
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


# each scorer's offset, in degrees, of the bearing a sign type names
_OFFSETS = {
    SignType.R302: -90.0,  # turn scorer: -90 right, +90 left of the approach
    SignType.R303: 90.0,
    SignType.R400D: -90.0,
    SignType.R400E: 90.0,
    SignType.R400A: 90.0,  # one-way scorer: one way to the right of the addressed traffic
    SignType.R400B: -90.0,
    SignType.R400C: 0.0,
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
    sign_proj = geometry.nearest(sign.position)[1]
    if sign_proj >= geometry.length:
        sign_proj = max(0.0, geometry.length - NOMINAL_AHEAD)
    back_point = geometry.project(sign_proj)
    if back_point == node.position:
        return None
    offset = _OFFSETS[sign.sign_type]
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


def best_one_way_edge(sign: Sign, node: Node, outgoing: list[DirectedEdge]) -> ScoredEdge | None:
    """Best exit for a one-way sign: the edge closest to the mandated bearing."""
    target = sign.azimuth + _OFFSETS[sign.sign_type]
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


def associate_new_rule(sign: Sign, candidate: Rule, score: float, state: DerivationState) -> None:
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
        state.revoke(held[0])
    state.install(candidate)
    state.held[sign.id] = (candidate, score)


def _others(outgoing: list[DirectedEdge], kept: EdgeId) -> tuple[EdgeId, ...]:
    """The ids of the exits other than ``kept``, in id order."""
    return tuple(sorted_ids([edge.id for edge in outgoing if edge.id != kept]))


def analyze_signs(
    signs: Iterable[Sign], current: DirectedEdge, node: Node, state: DerivationState
) -> None:
    """Turn the detected signs into rules held in ``state``.

    Signs are processed in id order. One-way and mandatory-turn signs expand
    into the equivalent ban sets over the node's other exits; candidates
    whose ban set would be empty are dropped.
    """
    outgoing = node.outgoing
    for sign in sorted(signs, key=lambda s: id_sort_key(s.id)):
        kind = sign.sign_type
        if kind is SignType.R101:
            scored = best_no_way_edge(sign, node, outgoing)
            rule = scored and Rule("no_way", scored.edge, (scored.edge,))
        elif kind in (SignType.R302, SignType.R303):
            scored = best_no_turn_edge(sign, current, node, outgoing)
            rule = scored and Rule("no_turn", current.id, (scored.edge,))
        elif kind in (SignType.R400A, SignType.R400B, SignType.R400C):
            scored = best_one_way_edge(sign, node, outgoing)
            rule = scored and Rule("one_way", scored.edge, _others(outgoing, scored.edge))
        else:
            scored = best_must_turn_edge(sign, current, node, outgoing)
            rule = scored and Rule("no_turn", current.id, _others(outgoing, scored.edge))
        if rule and rule.banned:
            associate_new_rule(sign, rule, scored.score, state)
