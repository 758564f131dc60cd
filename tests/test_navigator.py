import dataclasses
import random

import pytest

import roadrules.navigator as navigator
from roadrules.errors import GraphError
from roadrules.geometry import Point
from roadrules.io import GroundTruth, rules_document, validate
from roadrules.navigator import Frontier, derive_rules, is_navigation_forbidden
from roadrules.network import build_graph
from roadrules.rules import DerivationState, NoTurnRule, NoWayRule
from roadrules.scenarios import TEMPLATES
from roadrules.signs import Sign, SignIndex, SignType

from conftest import load_scenario, star_graph, straight_edge


class TestFrontier:
    def test_fifo_order(self):
        f = Frontier()
        for e in ("a", "b", "c"):
            f.push(e)
        assert [f.pop(), f.pop(), f.pop()] == ["a", "b", "c"]
        assert not f

    def test_len(self):
        f = Frontier()
        f.push("a")
        assert len(f) == 1


class TestIsNavigationForbidden:
    def setup_method(self):
        self.graph = star_graph([0.0, 90.0, 180.0, 270.0])
        self.state = DerivationState(self.graph)
        self.current = self.graph.edges["in2"]  # arrived at C from the south

    def forbidden(self, candidate_id):
        return is_navigation_forbidden(
            self.current, self.graph.edges[candidate_id], self.state
        )

    def test_plain_exits_allowed(self):
        assert not self.forbidden("out0")
        assert not self.forbidden("out1")
        assert not self.forbidden("out3")

    def test_u_turn_forbidden_while_alternatives_exist(self):
        assert self.forbidden("out2")

    def test_banned_candidate_forbidden(self):
        self.state.install(NoWayRule("out1"))
        assert self.forbidden("out1")

    def test_turn_restriction_forbidden(self):
        self.state.install(NoTurnRule("in2", frozenset({"out1"})))
        assert self.forbidden("out1")
        other_current = self.graph.edges["in0"]
        assert not is_navigation_forbidden(
            other_current, self.graph.edges["out1"], self.state
        )

    def test_u_turn_allowed_when_everything_else_is_blocked(self):
        self.state.install(NoWayRule("out0"))
        self.state.install(NoWayRule("out1"))
        self.state.install(NoTurnRule("in2", frozenset({"out3"})))
        assert not self.forbidden("out2")

    def test_visited_alternatives_still_block_u_turns(self):
        self.state.visited.update(("out0", "out1", "out3"))
        assert self.forbidden("out2")

    def test_dead_end_return_allowed(self):
        graph = star_graph([0.0])
        state = DerivationState(graph)
        assert not is_navigation_forbidden(
            graph.edges["out0"], graph.edges["in0"], state
        )


def two_component_graph():
    nodes = {
        "A": Point(0, 0),
        "B": Point(100, 0),
        "X": Point(0, 1000),
        "Y": Point(100, 1000),
    }
    edges = dict([
        straight_edge("A->B", "A", "B", Point(0, 0), Point(100, 0)),
        straight_edge("B->A", "B", "A", Point(100, 0), Point(0, 0)),
        straight_edge("X->Y", "X", "Y", Point(0, 1000), Point(100, 1000)),
        straight_edge("Y->X", "Y", "X", Point(100, 1000), Point(0, 1000)),
    ])
    return build_graph(nodes, edges)


class TestAssignSigns:
    def test_sign_free_grid_fully_visited(self, empty_index):
        graph, index, _ = load_scenario("grid", rows=3, cols=3, spacing=100.0)
        result = derive_rules(graph, index, start_edges=["n000_000->n000_001"])
        assert len(result.visited_edges) == 24
        assert result.unreached_edges == frozenset()
        assert result.rules == ()

    def test_partition_covers_all_edges(self, empty_index):
        graph = two_component_graph()
        result = derive_rules(graph, empty_index, start_edges=["A->B"])
        assert result.visited_edges | result.unreached_edges == frozenset(graph.edges)
        assert result.visited_edges & result.unreached_edges == frozenset()

    def test_isolated_component_stays_unreached(self, empty_index):
        graph = two_component_graph()
        result = derive_rules(graph, empty_index, start_edges=["A->B"])
        assert result.unreached_edges == frozenset({"X->Y", "Y->X"})

    def test_unknown_start_edge(self, empty_index):
        graph = two_component_graph()
        with pytest.raises(GraphError):
            derive_rules(graph, empty_index, start_edges=["nope"])

    def test_dead_end_street_covered_in_both_directions(self, empty_index):
        graph, index, _ = load_scenario("dead-end")
        result = derive_rules(graph, index, start_edges=["A->B"])
        assert result.unreached_edges == frozenset()
        assert "C->B" in result.visited_edges


class TestDeriveRules:
    def test_requires_start_or_cover_all(self, empty_index):
        graph = two_component_graph()
        with pytest.raises(ValueError):
            derive_rules(graph, empty_index)

    def test_one_start_per_component_covers_everything(self, empty_index):
        graph = two_component_graph()
        result = derive_rules(graph, empty_index, start_edges=["A->B", "X->Y"])
        assert result.unreached_edges == frozenset()

    def test_cover_all_restarts_until_done(self, empty_index):
        graph = two_component_graph()
        result = derive_rules(graph, empty_index, cover_all=True)
        assert result.unreached_edges == frozenset()

    def test_cover_all_leaves_only_banned_edges(self):
        graph, index, expected = load_scenario("twin-nodes")
        result = derive_rules(graph, index, start_edges=["E1->N1"], cover_all=True)
        assert result.unreached_edges == frozenset(expected["one_way_banned_edges"])

    def test_visited_start_is_skipped(self, empty_index):
        graph = two_component_graph()
        once = derive_rules(graph, empty_index, start_edges=["A->B"])
        twice = derive_rules(graph, empty_index, start_edges=["A->B", "A->B"])
        assert once == twice

    def test_banned_start_is_skipped(self):
        graph, index, expected = load_scenario("twin-nodes")
        banned = expected["one_way_banned_edges"][0]
        plain = derive_rules(graph, index, start_edges=["E1->N1"])
        with_banned = derive_rules(graph, index, start_edges=["E1->N1", banned])
        assert plain == with_banned

    def test_reruns_are_identical(self):
        graph, index, _ = load_scenario("sample-town")
        first = derive_rules(graph, index, start_edges=["N00->N10"])
        second = derive_rules(graph, index, start_edges=["N00->N10"])
        assert first == second

    def test_visited_set_is_start_independent_when_sign_free(self, empty_index):
        graph, index, _ = load_scenario("grid", rows=4, cols=4, spacing=80.0)
        all_edges = frozenset(graph.edges)
        for start in ("n000_000->n000_001", "n002_002->n001_002", "n003_003->n003_002"):
            result = derive_rules(graph, index, start_edges=[start])
            assert result.visited_edges == all_edges

    @pytest.mark.parametrize("template", ["sample-town", "twin-nodes", "dead-end"])
    def test_graph_and_index_are_reusable(self, template):
        # one graph and index serve every run, and each run equals a run on
        # freshly loaded objects: no state leaks from one run to the next
        graph, index, expected = load_scenario(template)

        def records():  # every field of every edge and sign, as a value
            records = [*graph.edges.values(), *index]
            return [{f.name: getattr(r, f.name) for f in dataclasses.fields(r)} for r in records]

        snapshot = records()
        edge_ids = list(graph.edges)
        runs = [
            {"start_edges": expected["start_edges"][:1]},
            {"start_edges": [edge_ids[-1]]},
            {"cover_all": True},
        ]
        for kwargs in runs:
            fresh_graph, fresh_index, _ = load_scenario(template)
            assert derive_rules(graph, index, **kwargs) == derive_rules(
                fresh_graph, fresh_index, **kwargs
            )
        assert records() == snapshot


class TestRuleDerivationScenes:
    def test_sample_scene_rules(self):
        graph, index, expected = load_scenario("sample-town")
        result = derive_rules(graph, index, start_edges=expected["start_edges"])
        no_way = [r for r in result.rules if isinstance(r.rule, NoWayRule)]
        no_turn = [r for r in result.rules if isinstance(r.rule, NoTurnRule)]
        assert [r.rule.banned_edge for r in no_way] == expected["one_way_banned_edges"]
        assert [[r.rule.from_edge, sorted(r.rule.banned_to)] for r in no_turn] == [
            [pair[0], [pair[1]]] for pair in expected["turn_restrictions"]
        ]

    def test_one_way_reverse_edge_never_visited(self):
        graph, index, expected = load_scenario("sample-town")
        result = derive_rules(graph, index, start_edges=expected["start_edges"])
        assert expected["one_way_banned_edges"][0] in result.unreached_edges

    def test_rule_scores_are_positive(self):
        graph, index, expected = load_scenario("sample-town")
        result = derive_rules(graph, index, start_edges=expected["start_edges"])
        assert all(r.score > 0 for r in result.rules)

    def test_twin_nodes_replaces_a_worse_reading(self, monkeypatch):
        # s1 is first read from N1, which bans N1->N2; the better reading from
        # N2 replaces it, and the revocation re-opens N1->N2
        graph, index, _ = load_scenario("twin-nodes")
        revoked = []

        def recording(self, rule, frontier):
            revoked.append(rule)
            return revoke(self, rule, frontier)

        revoke = DerivationState.revoke
        monkeypatch.setattr(DerivationState, "revoke", recording)
        result = derive_rules(graph, index, start_edges=["E1->N1"])
        assert revoked == [NoWayRule("N1->N2")]
        [record] = result.rules
        assert record.rule == NoWayRule("N2->E2")
        assert record.score == pytest.approx(56.31, abs=0.01)
        assert "N1->N2" in result.visited_edges

    def test_twin_nodes_replacements_keep_a_valid_document(self, monkeypatch):
        # no benchmark workload replaces a rule; twin-nodes does from several
        # starts, and every run's document must still validate at 100%
        graph, index, expected = load_scenario("twin-nodes")
        truth = GroundTruth(frozenset(expected["one_way_banned_edges"]), frozenset())
        revocations = 0

        def counting(self, rule, frontier):
            nonlocal revocations
            revocations += 1
            return revoke(self, rule, frontier)

        revoke = DerivationState.revoke
        monkeypatch.setattr(DerivationState, "revoke", counting)
        runs = [{"start_edges": [edge_id]} for edge_id in graph.edges]
        runs += [{"start_edges": expected["start_edges"]}, {"cover_all": True}]
        for run in runs:
            report = validate(rules_document(derive_rules(graph, index, **run)), truth)
            assert report.one_way.accuracy == 100.0, run
            assert report.turn.total_mapped == 0, run
        assert revocations > 0

    @pytest.mark.parametrize(
        "start, from_edge, banned_to",
        [
            ("n000_000->n000_001", "n000_001->n001_001", "n001_001->n001_002"),
            ("n000_000->n001_000", "n001_000->n001_001", "n001_001->n000_001"),
        ],
    )
    def test_equal_score_tie_keeps_the_first_reading(self, start, from_edge, banned_to):
        # the R-302 at (97, 97) is read from both edges into n001_001, each time
        # as an exact right turn scoring 60; whichever the run reads first holds
        graph, _, _ = load_scenario("grid", rows=3, cols=3, spacing=100.0)
        index = SignIndex([Sign("t", Point(97.0, 97.0), SignType.R302, 30.0)])
        result = derive_rules(graph, index, start_edges=[start])
        [record] = result.rules
        assert record.rule == NoTurnRule(from_edge, frozenset({banned_to}))
        assert record.score == 60.0


class _Forgetful(set):
    """A set that never retains a member."""

    def add(self, item):
        pass


class _RereadingState(DerivationState):
    """Run state that reads a node's signs on every arrival, as a literal
    reading of the simulated driver would."""

    def __init__(self, graph):
        super().__init__(graph)
        self.read_nodes = _Forgetful()


def _dense_sign_grid(seed):
    """A 7x7 grid with 300 random signs of all 8 types near its nodes and
    along its edges, at random azimuths."""
    graph, _, _ = load_scenario("grid", rows=7, cols=7, spacing=60.0)
    rng = random.Random(seed)
    nodes = list(graph.nodes.values())
    edges = list(graph.edges.values())
    signs = []
    for i in range(300):
        if rng.random() < 0.5:
            base = rng.choice(nodes).position
        else:
            base = rng.choice(edges).geometry.project(rng.uniform(0.0, 60.0))
        position = Point(base.x + rng.uniform(-12.0, 12.0), base.y + rng.uniform(-12.0, 12.0))
        signs.append(Sign(f"s{i}", position, rng.choice(list(SignType)), rng.uniform(0.0, 360.0)))
    return graph, SignIndex(signs)


def _scenes():
    for template in TEMPLATES:
        graph, index, expected = load_scenario(template)
        starts = expected["start_edges"][:1] or [next(iter(graph.edges))]
        yield template, graph, index, starts
    for seed in (1, 2, 3):
        graph, index = _dense_sign_grid(seed)
        yield f"dense-{seed}", graph, index, [next(iter(graph.edges))]


SCENES = list(_scenes())


class TestNodeSignsReadOnce:
    @pytest.mark.parametrize("cover_all", [False, True])
    @pytest.mark.parametrize("scene", SCENES, ids=[scene[0] for scene in SCENES])
    def test_repeat_reads_change_nothing(self, monkeypatch, scene, cover_all):
        _, graph, index, starts = scene
        once = derive_rules(graph, index, start_edges=starts, cover_all=cover_all)
        monkeypatch.setattr(navigator, "DerivationState", _RereadingState)
        every_arrival = derive_rules(graph, index, start_edges=starts, cover_all=cover_all)
        assert once == every_arrival

    @pytest.mark.parametrize("scene", SCENES, ids=[scene[0] for scene in SCENES])
    def test_each_node_read_once(self, monkeypatch, scene):
        _, graph, index, starts = scene
        read = []

        def recording(node, index, cfg):
            read.append(node.id)
            return detect(node, index, cfg)

        detect = navigator.detect_signs_from
        monkeypatch.setattr(navigator, "detect_signs_from", recording)
        result = derive_rules(graph, index, start_edges=starts, cover_all=True)
        reached = {graph.edges[edge_id].destination for edge_id in result.visited_edges}
        assert len(read) == len(set(read))
        assert set(read) == reached
