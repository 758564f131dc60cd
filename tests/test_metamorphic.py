"""Metamorphic tests: a planar result depends on the edge ids' order, not on
the order of the input features, on how the ids are spelled or on the order
of the sign and node ids, and a sign out of every detector's reach, a
second, disconnected network, collinear vertices put into every line, nodes
left to their edges' endpoints or a lon/lat scene's integral coordinates
written as ints change nothing.
Mirrored left to right, a scene without R-101 signs derives its mirror. Across start edges, a sign read from one place only holds the same
rule wherever a run starts.

Each seed writes a 7x7 planar grid with 150 random signs of all 8 types and
runs ``derive --cover-all --overlay`` through the CLI on it, on a copy with
the features of both files shuffled, on copies whose ids are renamed in an
order-preserving way, on copies whose sign ids or node ids are shuffled among
themselves, on a copy with one sign out of every detector's reach,
on a copy with a second, disconnected grid and on a copy without its Point
features, whose nodes then sit at their edges' endpoints. Lon/lat inputs are
left out of the shuffle: their projection is centered on a left-to-right sum
of the positions in feature order, so shuffling them can move the last bits
of a score (README, "What a result depends on").

The mirror negates every x (or lon), swaps each sign type with its left/right
partner and maps each azimuth to ``(360 - az) % 360``. R-101 has no partner
and is the one intended asymmetry: its scorer penalizes exits to the right of
the sign, as right-hand traffic has it, so the mirrored scenes leave it out
and one fixture pins it. Negating every lon negates the centroid's lon
exactly, so a lon/lat scene projects to the planar mirror bit for bit.
"""
import copy
import io
import json
import math
import random

import pytest

from roadrules.cli import main
from roadrules.io import (
    derived_rule_sets,
    dump_json,
    network_from_document,
    rules_document,
    signs_from_document,
)
from roadrules.navigator import derive_rules
from roadrules.scenarios import generate_scenario
from roadrules.signs import DetectionConfig, SignIndex, SignType

from test_oracle import NODE_TYPES, Reference

SEEDS = (1, 2, 3)
ROWS = COLS = 7
SPACING = 60.0


def _inputs(seed):
    """The network and signs documents of one seeded scene."""
    network = generate_scenario("grid", rows=ROWS, cols=COLS, spacing=SPACING).network
    rng = random.Random(seed)
    streets = [
        f["geometry"]["coordinates"] for f in network["features"]
        if f["geometry"]["type"] == "LineString"
    ]
    features = []
    for i in range(150):
        (x0, y0), (x1, y1) = rng.choice(streets)
        t = rng.random()
        x, y = x0 + t * (x1 - x0), y0 + t * (y1 - y0)
        features.append({
            "type": "Feature",
            "geometry": {
                "type": "Point",
                "coordinates": [x + rng.uniform(-12.0, 12.0), y + rng.uniform(-12.0, 12.0)],
            },
            "properties": {
                "sign_id": f"s{i:03d}",
                "type": rng.choice(list(SignType)).value,
                "azimuth": rng.uniform(0.0, 360.0),
            },
        })
    signs = {"type": "FeatureCollection", "coordinate_system": "local-meters", "features": features}
    return network, signs


def _points(feature):
    """The ``[x, y]`` lists of a feature's geometry, which edits change in place."""
    coordinates = feature["geometry"]["coordinates"]
    return coordinates if isinstance(coordinates[0], list) else [coordinates]


def _derive(directory, network, signs):
    """The bytes of the rule document and overlay that the CLI writes."""
    directory.mkdir()
    for name, document in (("network", network), ("signs", signs)):
        (directory / f"{name}.geojson").write_text(json.dumps(document), encoding="utf-8")
    code = main([
        "derive",
        "--network", str(directory / "network.geojson"),
        "--signs", str(directory / "signs.geojson"),
        "--cover-all",
        "--out", str(directory / "rules.json"),
        "--overlay", str(directory / "overlay.geojson"),
    ])
    assert code == 0
    return (directory / "rules.json").read_bytes(), (directory / "overlay.geojson").read_bytes()


# the id properties of the inputs, by the kind of id each holds
ID_KINDS = {
    "node_id": "node", "source_node": "node", "target_node": "node",
    "edge_id": "edge", "opposite_id": "edge", "sign_id": "sign",
}

RENAMINGS = {
    # a common prefix keeps the code-point order of strings
    "prefixed": lambda ids: {old: f"id-{old}" for old in ids},
    # integers by rank, from 0, in the order of the original strings
    "ranked": lambda ids: {old: rank for rank, old in enumerate(sorted(ids))},
}


def _as_lonlat(*documents):
    """``documents`` as lon/lat, about a meter per meter near (2 E, 41 N)."""
    documents = copy.deepcopy(documents)
    meters_per_degree = math.radians(1.0) * 6378137.0
    for document in documents:
        del document["coordinate_system"]
        for feature in document["features"]:
            for point in _points(feature):
                point[0] = 2.0 + point[0] / (meters_per_degree * math.cos(math.radians(41.0)))
                point[1] = 41.0 + point[1] / meters_per_degree
    return documents


def _renamed(documents, renaming, kinds=frozenset(ID_KINDS.values())):
    """``documents`` with the ids of ``kinds`` renamed, and the map from each new name back."""
    documents = copy.deepcopy(documents)
    ids = {kind: set() for kind in ID_KINDS.values()}
    for document in documents:
        for feature in document["features"]:
            for key, value in feature["properties"].items():
                if key in ID_KINDS:
                    ids[ID_KINDS[key]].add(value)
    names = {
        kind: renaming(found) if kind in kinds else {old: old for old in found}
        for kind, found in ids.items()
    }
    for document in documents:
        for feature in document["features"]:
            properties = feature["properties"]
            for key in properties.keys() & ID_KINDS.keys():
                properties[key] = names[ID_KINDS[key]][properties[key]]
    back = {kind: {new: old for old, new in found.items()} for kind, found in names.items()}
    return documents, back


def _named_back(entry, back):
    """A rule entry, or an overlay's rule link, with its edge and sign ids mapped back."""
    mapped = {}
    for field, value in entry.items():
        if field == "sign":
            value = back["sign"][value]
        elif field in ("edge", "chosen", "from"):
            value = back["edge"][value]
        elif field in ("banned", "banned_to"):
            value = [back["edge"][edge] for edge in value]
        mapped[field] = value
    return mapped


def _encoded(document):
    text = io.StringIO()
    dump_json(document, text)
    return text.getvalue().encode("utf-8")


@pytest.fixture(scope="module", params=SEEDS)
def scene(request, tmp_path_factory):
    """(network, signs, rules bytes, overlay bytes) of one seed."""
    network, signs = _inputs(request.param)
    rules, overlay = _derive(tmp_path_factory.mktemp("scene") / "original", network, signs)
    return network, signs, rules, overlay


def test_scene_derives_every_rule_family(scene):
    document = json.loads(scene[2])
    assert all(document[family] for family in ("no_way", "one_way", "no_turn"))


def test_permuted_features_give_identical_bytes(scene, tmp_path):
    network, signs, rules, overlay = scene
    network, signs = copy.deepcopy(network), copy.deepcopy(signs)
    rng = random.Random(len(rules))
    rng.shuffle(network["features"])
    rng.shuffle(signs["features"])
    assert _derive(tmp_path / "permuted", network, signs) == (rules, overlay)


def _outputs_named_back(outputs, back):
    """The rule document and overlay of a renamed scene, with its ids mapped back."""
    rules, overlay = (json.loads(text) for text in outputs)
    for family in ("no_way", "one_way", "no_turn"):
        rules[family] = [_named_back(entry, back) for entry in rules[family]]
    rules["unreached"] = [back["edge"][edge] for edge in rules["unreached"]]
    for feature in overlay["features"]:
        properties = feature["properties"]
        if "edge_id" in properties:
            properties["edge_id"] = back["edge"][properties["edge_id"]]
        else:
            properties["sign_id"] = back["sign"][properties["sign_id"]]
            if properties["rule"] is not None:
                properties["rule"] = _named_back(properties["rule"], back)
    return rules, overlay


@pytest.mark.parametrize("renaming", RENAMINGS)
def test_order_preserving_renaming_maps_back_to_identical_bytes(scene, tmp_path, renaming):
    network, signs, rules, overlay = scene
    (network, signs), back = _renamed((network, signs), RENAMINGS[renaming])
    outputs = _derive(tmp_path / renaming, network, signs)
    assert json.loads(outputs[0]) != json.loads(rules)
    renamed_rules, renamed_overlay = _outputs_named_back(outputs, back)
    assert (_encoded(renamed_rules), _encoded(renamed_overlay)) == (rules, overlay)


def _shuffled(ids):
    """Each id renamed to another of ``ids``, by a seeded permutation that does not keep their order."""
    old = sorted(ids)
    new = old.copy()
    random.Random(len(old)).shuffle(new)
    assert new != old
    return dict(zip(old, new))


def _unordered(document):
    """The entries of a rule document, or the features of an overlay, as a sorted list."""
    items = document["features"] if "features" in document else (
        [(family, entry) for family, entries in document.items() for entry in entries]
    )
    return sorted(json.dumps(item, sort_keys=True) for item in items)


@pytest.mark.parametrize("kind", ["sign", "node"])
def test_shuffled_sign_or_node_ids_map_back_to_the_same_rules(scene, tmp_path, kind):
    # unlike edge ids, which order each node's exits and the restarts, the
    # order of sign ids and node ids decides nothing
    network, signs, rules, overlay = scene
    (network, signs), back = _renamed((network, signs), _shuffled, {kind})
    renamed = _outputs_named_back(_derive(tmp_path / kind, network, signs), back)
    assert [_unordered(document) for document in renamed] == [
        _unordered(json.loads(text)) for text in (rules, overlay)
    ]


def test_sign_out_of_reach_changes_only_its_own_overlay_feature(scene, tmp_path):
    network, signs, rules, overlay = scene
    signs = copy.deepcopy(signs)
    rng = random.Random(len(rules))
    # within 10 m of a block's center: at least 20 m from every street and
    # 28 m from every node, beyond the default 15 m node and 10 m edge radii
    row, col = rng.randrange(ROWS - 1), rng.randrange(COLS - 1)
    x, y = ((k + 0.5) * SPACING + rng.uniform(-10.0, 10.0) for k in (col, row))
    signs["features"].append({
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [x, y]},
        "properties": {
            "sign_id": "s075x",  # sorts between two existing ids
            "type": rng.choice(list(SignType)).value,
            "azimuth": rng.uniform(0.0, 360.0),
        },
    })
    far_rules, far_overlay = _derive(tmp_path / "far", network, signs)
    assert far_rules == rules
    far_overlay = json.loads(far_overlay)
    far_sign = [
        feature for feature in far_overlay["features"]
        if feature["properties"].get("sign_id") == "s075x"
    ]
    assert [feature["properties"]["rule"] for feature in far_sign] == [None]
    far_overlay["features"].remove(far_sign[0])
    assert _encoded(far_overlay) == overlay


def _subdivided(network, k):
    """``network`` with k - 1 evenly spaced vertices put into every line; an
    opposite edge holds exactly the reversed list, so each street stays one
    line traced both ways."""
    network = copy.deepcopy(network)
    interiors = {}  # (start, end) -> the vertices put between them
    for feature in network["features"]:
        if feature["geometry"]["type"] != "LineString":
            continue
        start, end = map(tuple, feature["geometry"]["coordinates"])
        (x0, y0), (x1, y1) = start, end
        if (end, start) in interiors:
            inner = interiors[end, start][::-1]
        else:
            inner = [[x0 + (x1 - x0) * i / k, y0 + (y1 - y0) * i / k] for i in range(1, k)]
            interiors[start, end] = inner
        feature["geometry"]["coordinates"] = [[*start], *inner, [*end]]
    return network


@pytest.mark.parametrize("k", (2, 3, 8))
def test_collinear_vertices_change_no_rule(scene, tmp_path, k):
    network, signs, rules, overlay = scene
    split_rules, split_overlay = _derive(tmp_path / f"k{k}", _subdivided(network, k), signs)
    assert split_rules == rules
    # the overlay differs only in its lines' coordinates: their inner vertices
    split_overlay = json.loads(split_overlay)
    for feature in split_overlay["features"]:
        coordinates = feature["geometry"]["coordinates"]
        if feature["geometry"]["type"] == "LineString":
            assert len(coordinates) == k + 1
            del coordinates[1:-1]
    assert _encoded(split_overlay) == overlay


def _without_nodes(network):
    """``network`` without its Point features: each node is then placed at the
    first edge endpoint that names it."""
    kept = [f for f in network["features"] if f["geometry"]["type"] != "Point"]
    return dict(network, features=kept)


def test_nodes_left_to_edge_endpoints_give_identical_bytes(scene, tmp_path):
    # each node of the grid sits exactly at its edges' endpoints
    network, signs, rules, overlay = scene
    assert _derive(tmp_path / "nodeless", _without_nodes(network), signs) == (rules, overlay)


def _first_vertices(network):
    """The graph of ``network`` and, for each node id, the vertex of the first
    edge that names it, projected."""
    named = [
        (p["edge_id"], p["source_node"], p["target_node"])
        for p in (f["properties"] for f in network["features"]) if "edge_id" in p
    ]
    graph = network_from_document(network)
    first = {}
    for edge_id, source, target in named:
        geometry = graph.edges[edge_id].geometry
        first.setdefault(source, geometry[0])
        first.setdefault(target, geometry[-1])
    return graph, first


def test_lonlat_node_is_the_projected_first_vertex_that_names_it():
    # "a vertex at a node is the node's own position", with no Point feature
    network, = _as_lonlat(_without_nodes(_inputs(SEEDS[0])[0]))
    graph, first = _first_vertices(network)
    assert first.keys() == graph.nodes.keys()
    assert all(graph.nodes[node].position is vertex for node, vertex in first.items())


def _int_spelled(document):
    """``document`` with every integral coordinate written as an int: ``2`` for ``2.0``."""
    document = copy.deepcopy(document)
    for feature in document["features"]:
        for point in _points(feature):
            point[:] = [int(c) if c.is_integer() else c for c in point]
    return document


def test_lonlat_int_spelling_derives_the_float_spelling(tmp_path):
    # an int coordinate is kept as read, not shared with its float spelling,
    # and projects to the same bits
    sample = generate_scenario("sample-town")
    floats = _as_lonlat(sample.network, sample.signs)
    ints = [_int_spelled(document) for document in floats]
    assert json.dumps(ints) != json.dumps(floats)
    assert _derive(tmp_path / "ints", *ints) == _derive(tmp_path / "floats", *floats)
    graph, first = _first_vertices(ints[0])
    assert first.keys() == graph.nodes.keys()
    assert all(graph.nodes[node].position == vertex for node, vertex in first.items())


def test_disjoint_component_leaves_the_first_unchanged(scene, tmp_path):
    network, signs, rules, _ = scene
    # a copy 10 km to the east whose ids each sort right after their original,
    # so that --cover-all restarts alternate between the two components
    copies, _ = _renamed((network, signs), lambda ids: {old: f"{old}'" for old in ids})
    for document in copies:
        for feature in document["features"]:
            for point in _points(feature):
                point[0] += 10_000.0
    union = [
        dict(original, features=original["features"] + copy_["features"])
        for original, copy_ in zip((network, signs), copies)
    ]
    union_rules = json.loads(_derive(tmp_path / "union", *union)[0])

    first_edges = {
        f["properties"]["edge_id"] for f in network["features"] if "edge_id" in f["properties"]
    }
    first_signs = {f["properties"]["sign_id"] for f in signs["features"]}
    first = {
        family: [entry for entry in union_rules[family] if entry["sign"] in first_signs]
        for family in ("no_way", "one_way", "no_turn")
    }
    first["unreached"] = [edge for edge in union_rules["unreached"] if edge in first_edges]
    assert _encoded(first) == rules
    # the copy derived rules of its own
    assert len(union_rules["no_way"]) > len(first["no_way"])


def test_a_sign_read_from_one_place_holds_the_same_rule_from_every_start():
    # a sign is read at a node (R-101 and one-way signs, whatever the approach)
    # or along an edge (the rest), and each edge is popped and each node's
    # signs read once per run; so a sign read from one place only is read
    # once, from the same place, in every run that gets there, and never in
    # one that does not. Signs read from several places make the rest of the
    # result depend on which place a run reaches first.
    network, signs = _inputs(SEEDS[0])
    graph = network_from_document(copy.deepcopy(network))
    signs = signs_from_document(copy.deepcopy(signs), network=graph)
    places = {}  # sign id -> {("node", node id) or ("edge", edge id)}
    reference = Reference(graph, signs, DetectionConfig())
    for edge in graph.edges.values():
        for sign in reference.read(edge):
            place = ("node", edge.destination) if sign.sign_type in NODE_TYPES else ("edge", edge.id)
            places.setdefault(sign.id, set()).add(place)
    index = SignIndex(signs)
    runs = {
        start: derive_rules(graph, index, start_edges=[start], cover_all=True)
        for start in graph.edges
    }
    reached = {  # the places each run reaches
        start: {place for edge_id in result.visited_edges for place in (
            ("edge", edge_id), ("node", graph.edges[edge_id].destination)
        )}
        for start, result in runs.items()
    }
    once = {sign_id: found.pop() for sign_id, found in places.items() if len(found) == 1}
    assert (len(places), len(once)) == (73, 59)
    held_somewhere = partly_reached = 0
    for sign_id, place in once.items():
        there = {start for start in runs if place in reached[start]}
        assert len({runs[start].rules.get(sign_id) for start in there}) == 1, sign_id
        assert all(sign_id not in runs[start].rules for start in runs.keys() - there), sign_id
        held_somewhere += sign_id in runs[next(iter(there))].rules
        partly_reached += len(there) < len(runs)
    assert (held_somewhere, partly_reached) == (52, 10)

    # the two starts at one corner derive different turn pairs: two
    # mandatory-turn signs (s008, s138) score 60 from each of the edges they
    # are read along, so each holds the rule of the edge its run drives first
    first, second = (
        derived_rule_sets(rules_document(runs[start]))[1]
        for start in ("n000_000->n000_001", "n000_000->n001_000")
    )
    assert {from_edge for from_edge, _ in first - second} == {
        "n001_002->n001_001", "n004_004->n004_003"
    }
    assert {from_edge for from_edge, _ in second - first} == {
        "n001_001->n000_001", "n004_003->n004_004"
    }


# each sign type's left/right partner; R-101 and R-400c have none
PARTNERS = {"R-302": "R-303", "R-400a": "R-400b", "R-400d": "R-400e"}
PARTNERS.update({right: left for left, right in PARTNERS.items()})


def _mirrored(documents):
    """``documents`` reflected in the north-south axis: each x negated, each sign
    type swapped with its partner and each azimuth mapped to ``(360 - az) % 360``."""
    documents = copy.deepcopy(documents)
    for document in documents:
        for feature in document["features"]:
            for point in _points(feature):
                point[0] = -point[0]
            properties = feature["properties"]
            if "azimuth" in properties:
                properties["type"] = PARTNERS.get(properties["type"], properties["type"])
                properties["azimuth"] = (360.0 - properties["azimuth"]) % 360.0
    return documents


def _pop_scores(value, scores):
    """Remove every ``score`` member in ``value``, appending each, in order, to ``scores``."""
    if isinstance(value, dict):
        if "score" in value:
            scores.append(value.pop("score"))
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            _pop_scores(item, scores)


def _assert_mirrors(network, signs, directory):
    """Derive a scene and its mirror; the mirror's rule document is the scene's,
    with equal scores to within rounding, and its overlay the scene's mirrored."""
    rules, overlay = map(json.loads, _derive(directory / "original", network, signs))
    mirrored = list(map(json.loads, _derive(directory / "mirrored", *_mirrored((network, signs)))))
    expected = [rules, *_mirrored([overlay])]
    expected_scores, scores = [], []
    _pop_scores(expected, expected_scores)
    _pop_scores(mirrored, scores)
    assert mirrored == expected
    assert len(scores) == len(expected_scores)
    for score, want in zip(scores, expected_scores):
        assert score == want or math.isclose(score, want, rel_tol=1e-12), (score, want)
    assert rules["one_way"] and rules["no_turn"]


def _without_no_way(signs):
    """``signs`` without its R-101 signs."""
    kept = [f for f in signs["features"] if f["properties"]["type"] != "R-101"]
    return dict(signs, features=kept)


@pytest.mark.parametrize("seed", SEEDS)
def test_mirrored_scene_derives_the_mirrored_rules(seed, tmp_path):
    network, signs = _inputs(seed)
    _assert_mirrors(network, _without_no_way(signs), tmp_path)


def test_mirrored_lonlat_scene_derives_the_mirrored_rules(tmp_path):
    # the planar scene of seed 1 as lon/lat
    network, signs = _as_lonlat(*_inputs(SEEDS[0]))
    _assert_mirrors(network, _without_no_way(signs), tmp_path)


def test_no_way_sign_penalizes_the_exit_to_its_right(tmp_path):
    # the sign stands due north of c, facing traffic headed north; c's exits
    # leave 20 degrees to its right (c->a) and 25 degrees to its left (c->b).
    # Without the penalty c->a, the closer one, would be banned; the 30 degree
    # penalty on exits to the right bans c->b, and in the mirror the exit now
    # 20 degrees to the left, c->a, so the mirror bans the other edge.
    positions = {"s": (0.0, -60.0), "c": (0.0, 0.0)}
    for node, bearing in (("a", 20.0), ("b", -25.0)):
        r = math.radians(bearing)
        positions[node] = (60.0 * math.sin(r), 60.0 * math.cos(r))
    network = {
        "type": "FeatureCollection",
        "coordinate_system": "local-meters",
        "features": [
            {"type": "Feature", "geometry": {"type": "Point", "coordinates": list(xy)},
             "properties": {"node_id": node}}
            for node, xy in positions.items()
        ] + [
            {"type": "Feature",
             "geometry": {"type": "LineString", "coordinates": [[*positions[u]], [*positions[v]]]},
             "properties": {"edge_id": f"{u}->{v}", "source_node": u, "target_node": v}}
            for u, v in (("s", "c"), ("c", "a"), ("c", "b"))
        ],
    }
    signs = {
        "type": "FeatureCollection",
        "coordinate_system": "local-meters",
        "features": [{
            "type": "Feature",
            "geometry": {"type": "Point", "coordinates": [0.0, 10.0]},
            "properties": {"sign_id": "s1", "type": "R-101", "azimuth": 0.0},
        }],
    }
    scenes = {"original": (network, signs), "mirrored": _mirrored((network, signs))}
    banned = {
        name: [entry["edge"] for entry in json.loads(_derive(tmp_path / name, *scene)[0])["no_way"]]
        for name, scene in scenes.items()
    }
    assert banned == {"original": ["c->b"], "mirrored": ["c->a"]}
