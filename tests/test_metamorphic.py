"""Metamorphic tests: a planar result depends on the ids' order, not on the
order of the input features or on how the ids are spelled, and a sign out
of every detector's reach or a second, disconnected network changes nothing.

Each seed writes a 7x7 planar grid with 150 random signs of all 8 types and
runs ``derive --cover-all --overlay`` through the CLI on it, on a copy with
the features of both files shuffled, on copies whose ids are renamed in an
order-preserving way, on a copy with one sign out of every detector's reach
and on a copy with a second, disconnected grid. Lon/lat inputs are left out:
their projection is centered on a left-to-right sum of the positions in
feature order, so shuffling them can move the last bits of a score (README,
"What a result depends on").
"""

import copy
import io
import json
import random

import pytest

from roadrules.cli import main
from roadrules.io import dump_json
from roadrules.scenarios import generate_scenario
from roadrules.signs import SignType

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
                "type": rng.choice(list(SignType)).code,
                "azimuth": rng.uniform(0.0, 360.0),
            },
        })
    signs = {"type": "FeatureCollection", "coordinate_system": "local-meters", "features": features}
    return network, signs


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


def _renamed(documents, renaming):
    """``documents`` with their ids renamed, and the map from each new name back."""
    documents = copy.deepcopy(documents)
    ids = {kind: set() for kind in ID_KINDS.values()}
    for document in documents:
        for feature in document["features"]:
            for key, value in feature["properties"].items():
                if key in ID_KINDS:
                    ids[ID_KINDS[key]].add(value)
    names = {kind: renaming(found) for kind, found in ids.items()}
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


@pytest.mark.parametrize("renaming", RENAMINGS)
def test_order_preserving_renaming_maps_back_to_identical_bytes(scene, tmp_path, renaming):
    network, signs, rules, overlay = scene
    (network, signs), back = _renamed((network, signs), RENAMINGS[renaming])
    renamed_rules, renamed_overlay = (
        json.loads(text) for text in _derive(tmp_path / renaming, network, signs)
    )
    assert renamed_rules != json.loads(rules)

    for family in ("no_way", "one_way", "no_turn"):
        renamed_rules[family] = [_named_back(entry, back) for entry in renamed_rules[family]]
    renamed_rules["unreached"] = [back["edge"][edge] for edge in renamed_rules["unreached"]]
    for feature in renamed_overlay["features"]:
        properties = feature["properties"]
        if "edge_id" in properties:
            properties["edge_id"] = back["edge"][properties["edge_id"]]
        else:
            properties["sign_id"] = back["sign"][properties["sign_id"]]
            if properties["rule"] is not None:
                properties["rule"] = _named_back(properties["rule"], back)
    assert (_encoded(renamed_rules), _encoded(renamed_overlay)) == (rules, overlay)


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
            "type": rng.choice(list(SignType)).code,
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


def test_disjoint_component_leaves_the_first_unchanged(scene, tmp_path):
    network, signs, rules, _ = scene
    # a copy 10 km to the east whose ids each sort right after their original,
    # so that --cover-all restarts alternate between the two components
    copies, _ = _renamed((network, signs), lambda ids: {old: f"{old}'" for old in ids})
    for document in copies:
        for feature in document["features"]:
            coordinates = feature["geometry"]["coordinates"]
            for point in coordinates if isinstance(coordinates[0], list) else [coordinates]:
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
