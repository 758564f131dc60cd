"""Fuzz the input boundary: a mutated input file must exit 0 or 1, never 2.

Each example of the first test takes the network and signs documents of one
bundled scenario, replaces one feature, geometry, properties, property value
or coordinate with a value from a fixed pool of JSON oddities and large but
finite numbers, and runs ``derive --cover-all`` in-process on the result.
Each example of the second gives one feature the ``edge_id``, ``node_id`` or
``sign_id`` of another, which must exit 1. Each example of the third
replaces any member or item of the rule document that ``derive --cover-all``
writes for ``sample-town``, of the one it writes with an added one-way sign,
or of its ``expected_rules.json``, and runs ``validate`` and ``render``
in-process on both rule documents.
"""

import copy
import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roadrules.cli import main
from roadrules.io import network_from_document, rules_document, signs_from_document
from roadrules.navigator import derive_rules
from roadrules.scenarios import TEMPLATES, generate_scenario
from roadrules.signs import SignIndex

POOL = [
    None, True, -1, 1.5, math.nan, math.inf, 10**400, "x", [], {}, [[]],
    1e308, -1e308, 2e9, 10**300,
]

SCENES = {template: generate_scenario(template) for template in TEMPLATES}
INPUTS = {template: {"network": s.network, "signs": s.signs} for template, s in SCENES.items()}
SCENARIO = SCENES["sample-town"]
DOCUMENTS = INPUTS["sample-town"]


def _coordinate_slots(coordinates, path):
    """Paths to the coordinates member, each position and each number in it."""
    yield path
    if isinstance(coordinates, list):
        for j, item in enumerate(coordinates):
            yield from _coordinate_slots(item, path + (j,))


def _slots(document):
    """Every path in ``document`` that the fuzzer may overwrite."""
    slots = []
    for i, feature in enumerate(document["features"]):
        base = ("features", i)
        slots += [base, base + ("geometry",), base + ("properties",)]
        slots += [base + ("properties", key) for key in feature["properties"]]
        geometry = feature["geometry"]
        slots += list(_coordinate_slots(geometry["coordinates"], base + ("geometry", "coordinates")))
    return slots


SLOTS = {
    template: [(name, path) for name, document in documents.items() for path in _slots(document)]
    for template, documents in INPUTS.items()
}

ID_KEYS = ("edge_id", "node_id", "sign_id")


def _duplicates(document):
    """(path of an id property, the other ids of that key in ``document``) pairs."""
    ids = {key: [] for key in ID_KEYS}
    for i, feature in enumerate(document["features"]):
        for key in ID_KEYS:
            if key in feature["properties"]:
                ids[key].append((("features", i, "properties", key), feature["properties"][key]))
    return [
        (path, tuple(other for _, other in found if other != own))
        for found in ids.values()
        if len(found) > 1
        for path, own in found
    ]


DUPLICATES = [
    (template, name, path, others)
    for template, documents in INPUTS.items()
    for name, document in documents.items()
    for path, others in _duplicates(document)
]


def _derived(signs):
    """What derive --cover-all writes, with the CLI's default detection settings.

    The loaders consume the documents they read, so they are given copies.
    """
    graph = network_from_document(copy.deepcopy(SCENARIO.network))
    return rules_document(
        derive_rules(
            graph, SignIndex(signs_from_document(copy.deepcopy(signs), network=graph)), cover_all=True
        )
    )


# sample-town's rule document has no one_way entry; an R-400c at N20 facing
# north-east adds one (N20->N21 chosen, N20->N10 banned).
ONE_WAY_SIGN = {
    "type": "Feature",
    "geometry": {"type": "Point", "coordinates": [205.0, 5.0]},
    "properties": {"sign_id": "s3", "type": "R-400c", "azimuth": 45.0},
}
CONSUMED = {
    "rules": _derived(SCENARIO.signs),
    "one_way_rules": _derived(
        dict(SCENARIO.signs, features=SCENARIO.signs["features"] + [ONE_WAY_SIGN])
    ),
    "truth": SCENARIO.expected,
}


def _json_slots(value, path=()):
    """Every path below the root of a JSON document."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from _json_slots(item, path + (key,))


CONSUMED_SLOTS = [(name, path) for name, document in CONSUMED.items() for path in _json_slots(document)]


def _replace(document, path, value):
    mutated = copy.deepcopy(document)
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return mutated


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write(workdir, documents, slot, value):
    """Write ``documents`` with ``value`` at ``slot``; the path of each by name."""
    name, path = slot
    files = {}
    for doc_name, document in documents.items():
        if doc_name == name:
            document = _replace(document, path, value)
        files[doc_name] = workdir / f"{doc_name}.json"
        files[doc_name].write_text(json.dumps(document), encoding="utf-8")
    return files


FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _derive(workdir, files):
    return main(
        [
            "derive",
            "--network", str(files["network"]),
            "--signs", str(files["signs"]),
            "--cover-all",
            "--out", str(workdir / "derived.json"),
        ]
    )


# every template is drawn equally often, however many slots it has
ANY_SLOT = st.sampled_from(TEMPLATES).flatmap(
    lambda template: st.tuples(st.just(template), st.sampled_from(SLOTS[template]))
)


@FUZZ
@given(slot=ANY_SLOT, value=st.sampled_from(POOL))
def test_mutated_input_exits_0_or_1(workdir, slot, value, capsys):
    template, slot = slot
    files = _write(workdir, INPUTS[template], slot, value)
    code = _derive(workdir, files)
    err = capsys.readouterr().err
    assert code in (0, 1), err


def test_duplicates_cover_every_id_key():
    keys = {path[-1] for _, _, path, _ in DUPLICATES}
    assert keys == set(ID_KEYS)


@FUZZ
@given(duplicate=st.sampled_from(DUPLICATES).flatmap(
    lambda d: st.tuples(st.just(d[:3]), st.sampled_from(d[3]))
))
def test_duplicated_id_exits_1(workdir, duplicate, capsys):
    (template, name, path), other = duplicate
    files = _write(workdir, INPUTS[template], (name, path), other)
    code = _derive(workdir, files)
    err = capsys.readouterr().err
    assert code == 1, err
    assert re.search(rf"duplicate {path[-1]} .* in features \d+ and \d+\n", err), err


def test_consumed_slots_reach_one_way_entries():
    assert CONSUMED["one_way_rules"]["one_way"]
    paths = {path for _, path in CONSUMED_SLOTS}
    assert {("one_way", 0, "chosen"), ("one_way", 0, "banned"), ("one_way", 0, "banned", 0)} <= paths


@FUZZ
@given(slot=st.sampled_from(CONSUMED_SLOTS), value=st.sampled_from(POOL))
def test_mutated_rules_or_truth_exit_0_or_1(workdir, slot, value, capsys):
    files = _write(workdir, {**DOCUMENTS, **CONSUMED}, slot, value)
    codes = []
    for rules in (str(files["rules"]), str(files["one_way_rules"])):
        codes.append(main(["validate", "--rules", rules, "--truth", str(files["truth"])]))
        codes.append(
            main(
                [
                    "render",
                    "--rules", rules,
                    "--network", str(files["network"]),
                    "--signs", str(files["signs"]),
                    "--out", str(workdir / "overlay.geojson"),
                ]
            )
        )
    err = capsys.readouterr().err
    assert set(codes) <= {0, 1}, err
