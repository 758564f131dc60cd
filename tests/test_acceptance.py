"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible with ``pytest -s`` or in captured output).

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from roadrules.cli import main
from roadrules.geometry import Point, distance
from roadrules.io import (
    derived_rule_sets,
    network_from_document,
    rules_document,
    signs_from_document,
    validate,
)
from roadrules.navigator import derive_rules
from roadrules.rules import (
    DerivationState,
    Rule,
    associate_new_rule,
    bans,
    best_no_turn_edge,
    best_no_way_edge,
)
from roadrules.scenarios import generate_scenario
from roadrules.signs import Sign, SignIndex, SignType

from conftest import load_scenario, loose_edge, loose_node, star_graph
from helpers import (
    brute_force_min_distance,
    one_way_target_street,
    point_near_line,
    random_monotone_polyline,
)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    print(f"PASS criterion {number}: {label}")


def test_criterion_1_reference_accuracy_percentages():
    with criterion(1, "validate() reproduces the reference accuracy percentages"):
        doc = {
            "no_way": [
                {"edge": f"e{i}", "sign": f"s{i}", "score": 1.0} for i in range(35)
            ],
            "one_way": [],
            "no_turn": [
                {"from": f"f{i}", "banned_to": [f"t{i}"], "sign": f"n{i}", "score": 1.0}
                for i in range(32)
            ],
            "unreached": [],
        }
        truth = (
            frozenset(f"e{i}" for i in range(31)),
            frozenset((f"f{i}", f"t{i}") for i in range(31)),
        )
        report = validate(doc, truth)
        one_way, turn = report["one_way_streets"], report["turn_restrictions"]
        assert one_way["total_mapped"] == 35 and one_way["incorrect"] == 4
        assert one_way["accuracy"] == 88.57
        assert turn["total_mapped"] == 32 and turn["incorrect"] == 1
        assert turn["accuracy"] == 96.88


def test_criterion_2_geometry_oracle_suite():
    with criterion(2, "1000-polyline project/nearest round trip and closest() vs brute force"):
        rng = random.Random(20_240_817)
        started = time.monotonic()
        for _ in range(1000):
            line = random_monotone_polyline(rng)
            assert line.length <= 1000.0
            for _ in range(3):
                d = rng.uniform(0.0, line.length)
                assert abs(line.nearest(line.project(d))[1] - d) <= 1e-6
            p = point_near_line(rng, line)
            exact = line.nearest(p)[0]
            sampled = brute_force_min_distance(line, p)
            assert exact <= sampled + 1e-9
            assert sampled >= exact - 1e-3
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"geometry oracle suite took {elapsed:.2f}s"


def test_criterion_3_scoring_fixtures_exact():
    with criterion(3, "closed-form scoring fixtures match exactly"):
        node = loose_node("n", 0, 0)
        east = loose_edge("east", [(0, 0), (50, 0)])
        aligned = Sign("s", Point(10.0, 0.0), SignType.R101, 270.0)
        assert best_no_way_edge(aligned, node, [east]).score == 90.0

        r70 = math.radians(70.0)
        penalized = Sign(
            "s", Point(10 * math.sin(r70), 10 * math.cos(r70)), SignType.R101, 250.0
        )
        assert best_no_way_edge(penalized, node, [east]).score == 40.0

        south_in = loose_edge("in", [(0, -100), (0, 0)], destination="n")
        turn = Sign("t", Point(3.0, -10.0), SignType.R302, 0.0)
        right = loose_edge("right", [(0, 0), (100, 0)])
        straight = loose_edge("straight", [(0, 0), (0, 100)])
        left = loose_edge("left", [(0, 0), (-100, 0)])
        assert best_no_turn_edge(turn, south_in, node, [right]).score == 60.0
        assert best_no_turn_edge(turn, south_in, node, [straight]).score == -30.0
        assert best_no_turn_edge(turn, south_in, node, [left]).score == -120.0


def _separated_bearings(rng: random.Random, count: int) -> list[float]:
    while True:
        bearings = sorted(rng.uniform(0.0, 360.0) for _ in range(count))
        gaps = [b - a for a, b in zip(bearings, bearings[1:])]
        gaps.append(360.0 - bearings[-1] + bearings[0])
        if min(gaps) >= 25.0:
            return bearings


def _one_way_scene(rng: random.Random):
    """Random single intersection plus a right-mandating one-way sign."""
    count = rng.randint(2, 6)
    bearings = _separated_bearings(rng, count)
    anchor = rng.randrange(count)
    azimuth = (bearings[anchor] - 90.0 + rng.uniform(-35.0, 35.0)) % 360.0
    target = one_way_target_street(bearings, azimuth)
    # keep the winner unambiguous under float arithmetic
    deviations = sorted(
        abs(math.remainder(azimuth + 90.0 - b, 360.0)) for b in bearings
    )
    if len(deviations) > 1 and deviations[1] - deviations[0] < 1.0:
        return _one_way_scene(rng)
    return bearings, azimuth, target


def test_criterion_4_one_way_equivalence():
    with criterion(4, "one R-400a equals the equivalent R-101 placement on 100 scenes"):
        rng = random.Random(97)
        for _ in range(100):
            bearings, azimuth, target = _one_way_scene(rng)

            graph_a = star_graph(bearings)
            rad = math.radians(azimuth)
            one_way_sign = Sign(
                "w", Point(5 * math.sin(rad), 5 * math.cos(rad)), SignType.R400A, azimuth
            )
            result_a = derive_rules(graph_a, SignIndex([one_way_sign]), start_edges=["in0"])
            banned_a, _ = derived_rule_sets(rules_document(result_a))

            graph_b = star_graph(bearings)
            no_way_signs = []
            for i, bearing in enumerate(bearings):
                if i == target:
                    continue
                pos = graph_b.edges[f"out{i}"].geometry.project(8.0)
                no_way_signs.append(Sign(f"s{i}", pos, SignType.R101, bearing))
            result_b = derive_rules(graph_b, SignIndex(no_way_signs), start_edges=["in0"])
            banned_b, _ = derived_rule_sets(rules_document(result_b))

            expected = {f"out{i}" for i in range(len(bearings)) if i != target}
            assert banned_a == expected
            assert banned_b == expected


def test_criterion_5_shared_sign_suppression():
    with criterion(5, "twin-nodes scene keeps exactly the higher-scoring rule from either start"):
        graph, index, expected = load_scenario("twin-nodes")
        banned_edge = expected["one_way_banned_edges"][0]
        scores = []
        for start in expected["start_edges"]:
            result = derive_rules(graph, index, start_edges=[start])
            [(sign_id, (rule, score))] = result.rules.items()
            assert sign_id == "s1"
            assert rule == Rule("no_way", banned_edge, (banned_edge,))
            scores.append(score)
        assert scores[0] == scores[1] and scores[0] > 0


def test_criterion_6_coverage_and_u_turns():
    with criterion(6, "sign-free two-way grids and dead ends are fully covered"):
        empty = SignIndex([])
        rng = random.Random(5)
        for rows, cols in [(1, 7), (2, 5), (3, 3), (7, 4), (10, 10)]:
            graph, _, _ = load_scenario("grid", rows=rows, cols=cols, spacing=60.0)
            all_edges = frozenset(graph.edges)
            starts = rng.sample(sorted(graph.edges), min(6, len(graph.edges)))
            for start in starts:
                result = derive_rules(graph, empty, start_edges=[start])
                assert result.unreached_edges == frozenset(), (rows, cols, start)
                assert result.visited_edges == all_edges

        graph, index, _ = load_scenario("dead-end")
        result = derive_rules(graph, index, start_edges=["A->B"])
        assert result.unreached_edges == frozenset()
        assert "C->B" in result.visited_edges  # the dead-end return edge

        big = generate_scenario("grid", rows=100, cols=100, spacing=100.0)
        graph = network_from_document(big.network)
        started = time.monotonic()
        result = derive_rules(graph, empty, start_edges=big.expected["start_edges"])
        elapsed = time.monotonic() - started
        assert result.unreached_edges == frozenset()
        assert len(result.visited_edges) == 39600
        assert elapsed < 1.0, f"100x100 derivation took {elapsed:.2f}s"


BUNDLED = (
    ("grid", ["--rows", "3", "--cols", "3"]),
    ("dead-end", []),
    ("twin-nodes", []),
    ("sample-town", []),
)


def test_criterion_7_byte_identical_outputs(tmp_path):
    with criterion(7, "derive reruns are byte-identical on every bundled scenario"):
        for template, extra in BUNDLED:
            scene_a = tmp_path / template / "a"
            scene_b = tmp_path / template / "b"
            for scene in (scene_a, scene_b):
                assert main(["scenario", "--template", template, *extra,
                             "--out-dir", str(scene)]) == 0
            for name in ("network.geojson", "signs.geojson", "expected_rules.json"):
                assert (scene_a / name).read_bytes() == (scene_b / name).read_bytes()

            expected = json.loads((scene_a / "expected_rules.json").read_text())
            start_flags = []
            for start in expected["start_edges"]:
                start_flags += ["--start-edge", start]
            outputs = []
            for run in ("r1", "r2"):
                rules = tmp_path / template / f"{run}.json"
                overlay = tmp_path / template / f"{run}.geojson"
                code = main([
                    "derive",
                    "--network", str(scene_a / "network.geojson"),
                    "--signs", str(scene_a / "signs.geojson"),
                    *start_flags,
                    "--out", str(rules),
                    "--overlay", str(overlay),
                ])
                assert code == 0
                outputs.append((rules.read_bytes(), overlay.read_bytes()))
            assert outputs[0] == outputs[1], template


def _random_candidate(rng: random.Random, pool: list, contended):
    if rng.random() < 0.5:
        edge = contended if rng.random() < 0.6 else rng.choice(pool)
        return Rule("no_way", edge, (edge,))
    chosen = rng.choice(pool)
    banned = {e for e in pool if e != chosen and rng.random() < 0.4}
    if contended != chosen and rng.random() < 0.6:
        banned.add(contended)
    if not banned:
        banned.add(next(e for e in pool if e != chosen))
    return Rule("one_way", chosen, tuple(sorted(banned)))


def test_criterion_8_ban_bookkeeping():
    with criterion(8, "10000 randomized install/revoke trials keep ban flags consistent"):
        rng = random.Random(2718)
        bearings = [i * 45.0 for i in range(8)]
        for _ in range(10_000):
            graph = star_graph(bearings)
            pool = [f"out{i}" for i in range(8)]
            contended = rng.choice(pool)
            state = DerivationState(graph)
            for edge_id in pool:
                if rng.random() < 0.3:
                    state.visited.add(edge_id)
            signs = [
                Sign("a", Point(1.0, 1.0), SignType.R101, 0.0),
                Sign("b", Point(-1.0, 1.0), SignType.R101, 0.0),
            ]
            for _ in range(rng.randint(2, 6)):
                sign = rng.choice(signs)
                candidate = _random_candidate(rng, pool, contended)
                associate_new_rule(sign, candidate, rng.uniform(0.0, 100.0), state)
                asserted = set()
                for rule, _ in state.held.values():
                    asserted.update(bans(rule))
                for edge_id in pool:
                    assert (edge_id in state.bans) == (edge_id in asserted)


def test_criterion_9_golden_scene_validates_at_100_percent():
    with criterion(9, "golden scene derives exactly the expected rules at 100% accuracy"):
        scenario = generate_scenario("sample-town")
        graph = network_from_document(scenario.network)
        index = SignIndex(signs_from_document(scenario.signs, network=graph))
        expected = scenario.expected
        result = derive_rules(graph, index, start_edges=expected["start_edges"])

        banned, pairs = derived_rule_sets(rules_document(result))
        assert banned == frozenset(expected["one_way_banned_edges"])
        assert pairs == frozenset(tuple(p) for p in expected["turn_restrictions"])

        truth = (
            frozenset(expected["one_way_banned_edges"]),
            frozenset(tuple(p) for p in expected["turn_restrictions"]),
        )
        report = validate(rules_document(result), truth)
        one_way, turn = report["one_way_streets"], report["turn_restrictions"]
        assert one_way["accuracy"] == 100.0
        assert turn["accuracy"] == 100.0
        assert one_way["incorrect"] == 0 and turn["incorrect"] == 0
