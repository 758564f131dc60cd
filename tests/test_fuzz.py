"""Fuzz the input boundary: a mutated scenario must exit 0 or 1, never 2.

Each example takes the bundled ``sample-town`` network and signs documents,
replaces one feature, geometry, properties, property value or coordinate with
a value from a fixed pool of JSON oddities, and runs ``derive --cover-all``
in-process on the result.
"""

import copy
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roadrules.cli import main
from roadrules.scenarios import generate_scenario

POOL = [None, True, -1, 1.5, math.nan, math.inf, 10**400, "x", [], {}, [[]]]

SCENARIO = generate_scenario("sample-town")
DOCUMENTS = {"network": SCENARIO.network, "signs": SCENARIO.signs}


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


SLOTS = [(name, path) for name, document in DOCUMENTS.items() for path in _slots(document)]


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


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(slot=st.sampled_from(SLOTS), value=st.sampled_from(POOL))
def test_mutated_input_exits_0_or_1(workdir, slot, value, capsys):
    name, path = slot
    files = {}
    for doc_name, document in DOCUMENTS.items():
        if doc_name == name:
            document = _replace(document, path, value)
        files[doc_name] = workdir / f"{doc_name}.geojson"
        files[doc_name].write_text(json.dumps(document), encoding="utf-8")
    code = main(
        [
            "derive",
            "--network", str(files["network"]),
            "--signs", str(files["signs"]),
            "--cover-all",
            "--out", str(workdir / "rules.json"),
        ]
    )
    err = capsys.readouterr().err
    assert code in (0, 1), err
