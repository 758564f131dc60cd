"""Randomized end-to-end property: towns with construction-guaranteed signage.

Each generated scene places signs using recipes whose outcome is provable
from the grid geometry alone (signs readable from exactly one node or edge,
intended candidate strictly best). The derivation must then reproduce the
construction exactly, scene after scene, and with detector noise added to
the signs stay within a measured envelope of precision and recall.
"""

import math
import random

from roadrules.geometry import Point, Polyline, heading
from roadrules.io import derived_rule_sets, rules_document, validate
from roadrules.navigator import derive_rules
from roadrules.network import build_graph
from roadrules.signs import Sign, SignIndex, SignType

GRID_BEARING_STEP = 90.0


def _grid_graph(rng):
    rows, cols = rng.randint(2, 4), rng.randint(2, 4)
    spacing = rng.uniform(90.0, 140.0)
    nodes = {}
    for r in range(rows):
        for c in range(cols):
            nodes[f"n{r}_{c}"] = Point(c * spacing, r * spacing)
    edges = {}
    for r in range(rows):
        for c in range(cols):
            here = f"n{r}_{c}"
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr >= rows or c + dc >= cols:
                    continue
                there = f"n{r + dr}_{c + dc}"
                a, b = nodes[here], nodes[there]
                edges[f"{here}>{there}"] = (here, there, Polyline([a, b]))
                edges[f"{there}>{here}"] = (there, here, Polyline([b, a]))
    return build_graph(nodes, edges)


def _entry_ban_sign(rng, graph, used, sign_id):
    """R-101 placed on its target street, 8 m past the intersection."""
    candidates = [
        e for e in graph.edges.values() if (e.source, e.id) not in used
    ]
    edge = rng.choice(candidates)
    used.add((edge.source, edge.id))
    position = edge.geometry.project(8.0)
    azimuth = heading(graph.nodes[edge.source].position, position)
    return Sign(sign_id, position, SignType.R101, azimuth), edge.id


def _turn_ban_sign(rng, graph, banned_edges, used_approaches, sign_id):
    """R-302/R-303 10 m before a junction that has the matching turn.

    Returns None when the sampled approach has no exit in the forbidden
    direction (the caller retries).
    """
    code = rng.choice((SignType.R302, SignType.R303))
    side = -90.0 if code is SignType.R303 else 90.0
    approach = rng.choice(list(graph.edges.values()))
    if approach.id in banned_edges or approach.id in used_approaches:
        return None
    junction = graph.nodes[approach.destination]
    bearing = heading(graph.nodes[approach.source].position, junction.position)
    target_bearing = (bearing + side) % 360.0
    target = None
    for exit_edge in junction.outgoing:
        exit_bearing = heading(junction.position, exit_edge.geometry.project(10.0))
        if abs(math.remainder(exit_bearing - target_bearing, 360.0)) < 1.0:
            target = exit_edge
    if target is None:
        return None
    used_approaches.add(approach.id)
    back = math.radians(bearing)
    lateral = math.radians((bearing + side) % 360.0)
    position = Point(
        junction.position.x - 10.0 * math.sin(back) + 3.0 * math.sin(lateral),
        junction.position.y - 10.0 * math.cos(back) + 3.0 * math.cos(lateral),
    )
    return Sign(sign_id, position, code, bearing), (approach.id, target.id)


def _signed_town(rng):
    """(graph, signs, expected bans, expected turn pairs) or None to retry."""
    graph = _grid_graph(rng)
    signs = []
    bans = set()
    pairs = set()
    used_ban_slots = set()
    for k in range(rng.randint(1, 2)):
        sign, banned = _entry_ban_sign(rng, graph, used_ban_slots, f"s{len(signs)}")
        signs.append(sign)
        bans.add(banned)
    used_approaches = set()
    for k in range(rng.randint(1, 2)):
        for _ in range(30):
            placed = _turn_ban_sign(rng, graph, bans, used_approaches, f"s{len(signs)}")
            if placed is not None:
                sign, pair = placed
                signs.append(sign)
                pairs.add(pair)
                break
    # every banning sign's host node must keep an unbanned entry, or the
    # sign is never read and the construction stops being the ground truth
    for banned in bans:
        host = graph.edges[banned].source
        incoming = [
            e.id
            for e in graph.edges.values()
            if e.destination == host and e.id not in bans
        ]
        if not incoming:
            return None
    return graph, signs, frozenset(bans), frozenset(pairs)


def test_constructed_towns_validate_perfectly():
    rng = random.Random(314159)
    scenes = 0
    while scenes < 60:
        town = _signed_town(rng)
        if town is None:
            continue
        scenes += 1
        graph, signs, expected_bans, expected_pairs = town
        result = derive_rules(graph, SignIndex(signs), cover_all=True)

        assert len(result.rules) == len(signs)
        assert all(score > 0 for _, score in result.rules.values())

        banned, derived_pairs = derived_rule_sets(rules_document(result))
        assert banned == expected_bans
        assert derived_pairs == expected_pairs
        assert result.unreached_edges <= expected_bans

        report = validate(rules_document(result), (expected_bans, expected_pairs))
        assert report["one_way_streets"]["accuracy"] == 100.0
        # None when no turn sign fit
        assert report["turn_restrictions"]["accuracy"] in (100.0, None)


# (sigma position m, sigma azimuth deg) -> (towns derived exactly, precision
# floor, recall floor) over 200 towns. Measured: 200 / 1.000 / 1.000 at 1 m
# and 20 deg; 162 / 0.9827 / 0.9373 at 0 m, 40 deg; 197 / 0.9967 / 0.9950 at
# 2 m, 20 deg; 176 / 0.9813 / 0.9538 at 3 m, 20 deg. Each floor is the
# measured value rounded down to two places, less 0.01; an exact row is exact.
NOISE_ENVELOPE = {
    (1.0, 20.0): (200, 1.0, 1.0),
    (0.0, 40.0): (None, 0.97, 0.92),
    (2.0, 20.0): (None, 0.98, 0.98),
    (3.0, 20.0): (None, 0.97, 0.94),
}


def test_noisy_towns_stay_within_the_envelope():
    # detector error: Gaussian noise on each sign's x, y and azimuth. Recall
    # is taken against the construction, which the noise does not move
    rng = random.Random(314159)
    towns = []
    while len(towns) < 200:
        town = _signed_town(rng)
        if town is not None:
            towns.append(town)
    for (position_sigma, azimuth_sigma), (exact, precision, recall) in NOISE_ENVELOPE.items():
        noise = random.Random(314160)
        towns_exact = found = derived = expected = 0
        for graph, signs, bans, pairs in towns:
            noisy = []
            for sign in signs:
                dx, dy = noise.gauss(0.0, position_sigma), noise.gauss(0.0, position_sigma)
                azimuth = (sign.azimuth + noise.gauss(0.0, azimuth_sigma)) % 360.0
                position = Point(sign.position.x + dx, sign.position.y + dy)
                noisy.append(Sign(sign.id, position, sign.sign_type, azimuth))
            result = derive_rules(graph, SignIndex(noisy), cover_all=True)
            got_bans, got_pairs = derived_rule_sets(rules_document(result))
            towns_exact += (got_bans, got_pairs) == (bans, pairs)
            found += len(got_bans & bans) + len(got_pairs & pairs)
            derived += len(got_bans) + len(got_pairs)
            expected += len(bans) + len(pairs)
        setting = (position_sigma, azimuth_sigma)
        if exact is not None:
            assert towns_exact == exact, setting
        assert found / derived >= precision, setting
        assert found / expected >= recall, setting
