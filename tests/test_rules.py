import math
from collections import Counter
from dataclasses import replace

import pytest

import roadrules.rules as rules
from roadrules.geometry import Point
from roadrules.io import rules_document
from roadrules.navigator import DerivationResult, Frontier, derive_rules
from roadrules.network import Node
from roadrules.rules import (
    DerivationState,
    Rule,
    analyze_signs,
    associate_new_rule,
    best_must_turn_edge,
    best_no_turn_edge,
    best_no_way_edge,
    best_one_way_edge,
    bans,
)
from roadrules.signs import Sign, SignType

from conftest import loose_edge, loose_node, star_graph
from helpers import short_block_scene

NODE = loose_node("n", 0, 0)
EAST = loose_edge("east", [(0, 0), (50, 0)])
NORTH = loose_edge("north", [(0, 0), (0, 100)])
WEST = loose_edge("west", [(0, 0), (-100, 0)])
SOUTH_IN = loose_edge("south_in", [(0, -100), (0, 0)], destination="n")


def sign(code, x, y, azimuth=0.0, sign_id="s") -> Sign:
    return Sign(sign_id, Point(x, y), SignType(code), azimuth)


class TestBestNoWayEdge:
    def test_aligned_edge_scores_ninety(self):
        s = sign("R-101", 10, 0, azimuth=270.0)
        scored = best_no_way_edge(s, NODE, [EAST])
        assert scored.edge == "east"
        assert scored.score == 90.0

    def test_right_side_penalty(self):
        # sign at bearing 70, edge at 90: raw angle -20, penalized to -50
        r = math.radians(70.0)
        s = sign("R-101", 10 * math.sin(r), 10 * math.cos(r), azimuth=250.0)
        assert best_no_way_edge(s, NODE, [EAST]).score == 40.0

    def test_sign_behind_edge_start_probed_ahead(self):
        # closest point is the edge start: judged at the 10 m probe instead
        s = sign("R-101", -10, 0, azimuth=90.0)
        assert best_no_way_edge(s, NODE, [EAST]).score == -90.0

    def test_ties_break_to_smaller_edge_id(self):
        twin_b = loose_edge("b_twin", [(0, 0), (50, 0)])
        twin_a = loose_edge("a_twin", [(0, 0), (50, 0)])
        s = sign("R-101", 10, 0)
        assert best_no_way_edge(s, NODE, [twin_b, twin_a]).edge == "b_twin"
        assert best_no_way_edge(s, NODE, [twin_a, twin_b]).edge == "a_twin"

    def test_picks_max_scoring_edge(self):
        s = sign("R-101", 10, 0, azimuth=270.0)
        scored = best_no_way_edge(s, NODE, [NORTH, EAST, WEST])
        assert scored.edge == "east" and scored.score == 90.0

    def test_sign_on_node_gives_no_candidate(self):
        assert best_no_way_edge(sign("R-101", 0, 0), NODE, [EAST]) is None


class TestBestNoTurnEdge:
    s302 = sign("R-302", 3, -10)

    def test_exact_right_turn_scores_sixty(self):
        scored = best_no_turn_edge(self.s302, SOUTH_IN, NODE, [EAST])
        assert scored.edge == "east" and scored.score == 60.0

    def test_straight_ahead_scores_minus_thirty(self):
        assert best_no_turn_edge(self.s302, SOUTH_IN, NODE, [NORTH]).score == -30.0

    def test_exact_left_scores_minus_one_twenty(self):
        assert best_no_turn_edge(self.s302, SOUTH_IN, NODE, [WEST]).score == -120.0

    def test_left_sign_mirrors(self):
        s303 = sign("R-303", -3, -10)
        assert best_no_turn_edge(s303, SOUTH_IN, NODE, [WEST]).score == 60.0
        assert best_no_turn_edge(s303, SOUTH_IN, NODE, [EAST]).score == -120.0

    def test_projection_past_end_backs_off(self):
        # sign beyond the node projects onto the edge end; the reference point
        # retreats 10 m and the right turn still scores exactly 60
        past = sign("R-302", 3, 5)
        assert best_no_turn_edge(past, SOUTH_IN, NODE, [EAST]).score == 60.0

    def test_short_edge_clamps_to_start(self):
        stub = loose_edge("stub", [(0, -6), (0, 0)], destination="n")
        near = sign("R-302", 3, 2)
        assert best_no_turn_edge(near, stub, NODE, [EAST]).score == 60.0


class TestBestMustTurnEdge:
    def test_mandated_right_scores_sixty(self):
        s = sign("R-400d", 3, -10)
        scored = best_must_turn_edge(s, SOUTH_IN, NODE, [EAST, NORTH, WEST])
        assert scored.edge == "east" and scored.score == 60.0

    def test_straight_scores_minus_thirty(self):
        s = sign("R-400d", 3, -10)
        assert best_must_turn_edge(s, SOUTH_IN, NODE, [NORTH]).score == -30.0

    def test_mandated_left_scores_sixty(self):
        s = sign("R-400e", -3, -10)
        assert best_must_turn_edge(s, SOUTH_IN, NODE, [WEST]).score == 60.0


class TestBestOneWayEdge:
    def test_straight_ahead_sign(self):
        s = sign("R-400c", 0, 5, azimuth=0.0)
        scored = best_one_way_edge(s, NODE, [NORTH, EAST, WEST])
        assert scored.edge == "north" and scored.score == 90.0

    def test_right_sign_targets_quarter_turn(self):
        s = sign("R-400a", 0, 5, azimuth=0.0)
        assert best_one_way_edge(s, NODE, [EAST]).score == 90.0

    def test_opposite_direction_scores_minus_ninety(self):
        s = sign("R-400a", 0, 5, azimuth=0.0)
        assert best_one_way_edge(s, NODE, [WEST]).score == -90.0


class TestRuleShapes:
    def test_global_bans(self):
        assert bans(Rule("no_way", "e", ("e",))) == ("e",)
        assert bans(Rule("one_way", "keep", ("a", "b"))) == ("a", "b")
        assert "t" not in bans(Rule("no_turn", "f", ("t",)))

    def test_turn_pairs(self):
        assert bans(Rule("no_turn", "f", ("a", "b"))) == (("f", "a"), ("f", "b"))
        assert not any(isinstance(key, tuple) for key in bans(Rule("no_way", "e", ("e",))))


class FrontierSpy(Frontier):
    def __init__(self):
        super().__init__()
        self.pushed = []

    def append(self, edge_id):
        self.pushed.append(edge_id)
        super().append(edge_id)


class TestAssociateNewRule:
    def setup_method(self):
        self.graph = star_graph([0.0, 90.0, 180.0, 270.0])
        self.state = DerivationState(self.graph)
        self.frontier = self.state.frontier = FrontierSpy()

    def associate(self, s, rule, score):
        associate_new_rule(s, rule, score, self.state)

    def test_zero_score_installs_nothing(self):
        s = sign("R-101", 5, 5)
        self.associate(s, Rule("no_way", "out0", ("out0",)), 0.0)
        assert s.id not in self.state.held
        assert "out0" not in self.state.bans

    def test_install_applies_effects(self):
        s = sign("R-101", 5, 5)
        self.associate(s, Rule("no_way", "out0", ("out0",)), 30.0)
        assert self.state.held[s.id] == (Rule("no_way", "out0", ("out0",)), 30.0)
        assert "out0" in self.state.bans

    def test_lower_score_discarded(self):
        s = sign("R-101", 5, 5)
        self.associate(s, Rule("no_way", "out0", ("out0",)), 70.0)
        self.associate(s, Rule("no_way", "out1", ("out1",)), 30.0)
        assert self.state.held[s.id] == (Rule("no_way", "out0", ("out0",)), 70.0)
        assert "out1" not in self.state.bans

    def test_equal_score_discarded(self):
        s = sign("R-101", 5, 5)
        self.associate(s, Rule("no_way", "out0", ("out0",)), 70.0)
        self.associate(s, Rule("no_way", "out1", ("out1",)), 70.0)
        assert self.state.held[s.id][0] == Rule("no_way", "out0", ("out0",))

    def test_replacement_unbans_and_requeues(self):
        # scored 30 at the wrong node, then 70 at the right one: only the
        # second rule survives and the wrongly banned, unvisited edge is
        # pushed back for navigation
        s = sign("R-101", 5, 5)
        self.associate(s, Rule("no_way", "out0", ("out0",)), 30.0)
        self.associate(s, Rule("no_way", "out1", ("out1",)), 70.0)
        assert self.state.held[s.id] == (Rule("no_way", "out1", ("out1",)), 70.0)
        assert "out0" not in self.state.bans
        assert "out1" in self.state.bans
        assert self.frontier.pushed == ["out0"]
        assert "out0" in self.state.visited

    def test_replacement_skips_requeue_of_visited_edges(self):
        s = sign("R-101", 5, 5)
        self.state.visited.add("out0")
        self.associate(s, Rule("no_way", "out0", ("out0",)), 30.0)
        self.associate(s, Rule("no_way", "out1", ("out1",)), 70.0)
        assert "out0" not in self.state.bans
        assert self.frontier.pushed == []

    def test_shared_ban_survives_one_revocation(self):
        a = sign("R-101", 5, 5, sign_id="a")
        b = sign("R-101", 5, 5, sign_id="b")
        self.associate(a, Rule("no_way", "out0", ("out0",)), 50.0)
        self.associate(b, Rule("no_way", "out0", ("out0",)), 40.0)
        self.associate(a, Rule("no_way", "out1", ("out1",)), 60.0)
        assert "out0" in self.state.bans  # b still asserts it
        assert self.frontier.pushed == []
        self.associate(b, Rule("no_way", "out2", ("out2",)), 80.0)
        assert "out0" not in self.state.bans
        assert self.frontier.pushed == ["out0"]

    def test_no_turn_rules_do_not_touch_ban_flags(self):
        s = sign("R-302", 3, -10)
        rule = Rule("no_turn", "in0", ("out1",))
        self.associate(s, rule, 60.0)
        assert "out1" not in self.state.bans
        assert ("in0", "out1") in self.state.bans
        replacement = Rule("no_turn", "in2", ("out3",))
        self.associate(s, replacement, 61.0)
        assert ("in0", "out1") not in self.state.bans
        assert ("in2", "out3") in self.state.bans


def held_rules(state: DerivationState) -> set:
    return {rule for rule, _ in state.held.values()}


class TestAnalyzeSigns:
    def setup_method(self):
        self.graph = star_graph([0.0, 90.0, 180.0, 270.0])
        self.state = DerivationState(self.graph)
        self.node = self.graph.nodes["C"]
        self.current = self.graph.edges["in2"]  # arriving northbound from S2

    def _run(self, *signs_):
        analyze_signs(signs_, self.current, self.node, self.state)
        return held_rules(self.state)

    def test_no_way_sign_bans_facing_edge(self):
        s = sign("R-101", 0, 10, azimuth=180.0)
        held = self._run(s)
        assert held == {Rule("no_way", "out0", ("out0",))}
        assert "out0" in self.state.bans

    def test_one_way_sign_bans_all_but_target(self):
        s = sign("R-400a", 0, 5, azimuth=0.0)
        held = self._run(s)
        assert held == {Rule("one_way", "out1", ("out0", "out2", "out3"))}
        assert [e in self.state.bans for e in ("out0", "out2", "out3")] == [True] * 3
        assert "out1" not in self.state.bans

    def test_must_turn_sign_restricts_other_exits(self):
        s = sign("R-400d", 3, -10, azimuth=0.0)
        held = self._run(s)
        assert held == {Rule("no_turn", "in2", ("out0", "out2", "out3"))}
        assert not any(e in self.state.bans for e in self.graph.edges)

    def test_turn_sign_restricts_single_pair(self):
        s = sign("R-302", 3, -10, azimuth=0.0)
        assert self._run(s) == {Rule("no_turn", "in2", ("out1",))}
        assert ("in2", "out1") in self.state.bans

    def test_nonpositive_best_score_produces_no_rule(self):
        # every exit deviates by more than 90 degrees from the sign direction
        lonely = star_graph([90.0])
        state = DerivationState(lonely)
        s = sign("R-101", 0, -10, azimuth=180.0)
        analyze_signs([s], lonely.edges["in0"], lonely.nodes["C"], state)
        assert state.held == {}

    def test_single_exit_one_way_sign_is_dropped(self):
        lonely = star_graph([0.0])
        state = DerivationState(lonely)
        s = sign("R-400c", 0, 5, azimuth=0.0)
        analyze_signs([s], lonely.edges["in0"], lonely.nodes["C"], state)
        assert state.held == {}

    def test_no_turn_never_picks_straight_ahead_when_a_turn_exists(self):
        right = self.graph.edges["out1"]
        straight = self.graph.edges["out0"]
        left = self.graph.edges["out3"]
        s = sign("R-302", 3, -10)
        for outgoing in ([right, straight], [straight, right], [right, straight, left]):
            scored = best_no_turn_edge(s, self.current, self.node, outgoing)
            assert scored.edge == "out1"

    def test_no_turn_without_matching_turn_installs_nothing(self):
        # arriving from the south, only straight ahead and a left exist: both
        # score below zero for a no-right-turn sign, so no rule may be generated
        ahead_and_left = star_graph([0.0, 270.0])
        state = DerivationState(ahead_and_left)
        from_south = loose_edge("in", [(0, -60), (0, 0)], source="S", destination="C")
        s = sign("R-302", 3, -10)
        analyze_signs([s], from_south, ahead_and_left.nodes["C"], state)
        assert state.held == {}

    def test_scores_never_decrease_and_stay_positive(self, rng):
        s = sign("R-101", 5, 5)
        best_seen = None
        for _ in range(200):
            edge = rng.choice(["out0", "out1", "out2", "out3"])
            score = rng.uniform(-50.0, 100.0)
            associate_new_rule(s, Rule("no_way", edge, (edge,)), score, self.state)
            if s.id in self.state.held:
                held_score = self.state.held[s.id][1]
                assert held_score > 0
                if best_seen is not None:
                    assert held_score >= best_seen
                best_seen = held_score

    def test_signs_processed_in_id_order(self):
        seen = []
        a = sign("R-101", 0, 10, azimuth=180.0, sign_id="a")
        b = sign("R-101", 10, 0, azimuth=270.0, sign_id="b")

        class Recorder(DerivationState):
            def install(self, rule):
                seen.append(rule)
                super().install(rule)

        state = Recorder(self.graph)
        analyze_signs([b, a], self.current, self.node, state)
        assert seen == [Rule("no_way", "out0", ("out0",)), Rule("no_way", "out1", ("out1",))]


class TestIdOrderFromAnUnsortedNode:
    """A node that lists its exits against id order still gives rules, rule
    documents and revocations in id order: numbers first, then strings."""

    def setup_method(self):
        graph = star_graph([0.0, 90.0, 180.0, 270.0])
        self.state = DerivationState(graph)
        self.frontier = self.state.frontier = FrontierSpy()
        self.current = graph.edges["in2"]  # arriving northbound from S2
        ids = {"out0": "b", "out1": 10, "out2": 2, "out3": "a"}
        centre = graph.nodes["C"]
        outgoing = [replace(edge, id=ids[edge.id]) for edge in reversed(centre.outgoing)]
        assert [edge.id for edge in outgoing] == ["a", 2, 10, "b"]
        self.node = Node(centre.id, centre.position, outgoing)

    def test_banned_edges_come_out_in_id_order(self):
        one_way = sign("R-400a", 0, 5, azimuth=0.0, sign_id="one-way")
        must_turn = sign("R-400d", 3, -10, azimuth=0.0, sign_id="must-turn")
        analyze_signs([one_way, must_turn], self.current, self.node, self.state)
        held = {sign_id: rule for sign_id, (rule, _) in self.state.held.items()}
        assert held == {
            "one-way": Rule("one_way", 10, (2, "a", "b")),
            "must-turn": Rule("no_turn", "in2", (2, "a", "b")),
        }
        document = rules_document(DerivationResult(self.state.held, set(), frozenset()))
        assert [entry["banned"] for entry in document["one_way"]] == [[2, "a", "b"]]
        assert [entry["banned_to"] for entry in document["no_turn"]] == [[2, "a", "b"]]
        self.state.revoke(held["one-way"])
        assert self.frontier.pushed == [2, "a", "b"]


class TestReplacementOnShortBlocks:
    """On short blocks one sign is read from several approaches, so held rules
    are replaced and revoked; the held rules and the ban counts must still be
    what the readings imply."""

    @pytest.mark.parametrize("one_start, cover_all", [(False, True), (True, False), (True, True)])
    @pytest.mark.parametrize("seed", range(1, 6))
    def test_held_rules_and_bans_follow_the_readings(self, monkeypatch, seed, one_start, cover_all):
        graph, index = short_block_scene(seed)
        readings, states = {}, set()

        def spy(sign, candidate, score, state):
            readings.setdefault(sign.id, []).append((candidate, score))
            states.add(state)
            associate_new_rule(sign, candidate, score, state)

        monkeypatch.setattr(rules, "associate_new_rule", spy)
        starts = [list(graph.edges)[97 * seed % len(graph.edges)]] if one_start else []
        derive_rules(graph, index, start_edges=starts, cover_all=cover_all)
        (state,) = states
        replacements = 0
        for sign_id, seen in readings.items():
            positive = [reading for reading in seen if reading[1] > 0]
            if not positive:
                assert sign_id not in state.held
                continue
            best = max(score for _, score in positive)
            # the first reading with the largest score holds: only a strictly
            # higher score replaces
            assert state.held[sign_id] == next(r for r in positive if r[1] == best)
            scores = [score for _, score in positive]
            replacements += sum(scores[i] > max(scores[:i]) for i in range(1, len(scores)))
        assert set(state.held) <= set(readings)
        held = [rule for rule, _ in state.held.values()]
        assert state.bans == Counter(key for rule in held for key in bans(rule))
        if cover_all:  # a single start may stay in a small corner
            assert replacements > 0
