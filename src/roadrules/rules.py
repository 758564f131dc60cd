"""What a run changes: the rules the detected signs install, their bans, and
score-based replacement. The scorers are fixed and live in ``signs``.

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

from .ids import id_sort_key, sorted_ids
from .network import DirectedEdge, EdgeId, Node, NodeId, RoadGraph
from .signs import Sign, SignId, SignType, best_no_turn_edge, best_no_way_edge, best_one_way_edge

# the same scorer, under the name mandatory-turn signs reach it by; analyze_signs
# looks all four scorers up in this module, where bench/probe.py times them
best_must_turn_edge = best_no_turn_edge


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
