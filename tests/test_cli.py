import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import roadrules
import roadrules.io as roadrules_io
from roadrules.cli import main
from roadrules.signs import DetectionConfig, SignIndex
from roadrules.errors import InputError, InternalError
from roadrules.geometry import Point, Polyline
from roadrules.io import network_from_document
from roadrules.navigator import derive_rules
from roadrules.network import build_graph

from helpers import short_block_scene, write_scene


@pytest.fixture
def town(tmp_path):
    out = tmp_path / "town"
    assert main(["scenario", "--template", "sample-town", "--out-dir", str(out)]) == 0
    return out


def derive_args(town, out, overlay=None, start="N00->N10"):
    args = [
        "derive",
        "--network", str(town / "network.geojson"),
        "--signs", str(town / "signs.geojson"),
        "--start-edge", start,
        "--out", str(out),
    ]
    if overlay is not None:
        args += ["--overlay", str(overlay)]
    return args


class TestDerive:
    def test_full_run(self, town, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        overlay = tmp_path / "overlay.geojson"
        assert main(derive_args(town, rules, overlay)) == 0
        out = capsys.readouterr().out
        assert "1 no-way" in out and "1 no-turn" in out
        doc = json.loads(rules.read_text())
        assert doc["no_way"][0]["edge"] == "N10->N00"
        assert overlay.exists()

    def test_reruns_byte_identical(self, town, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        o1, o2 = tmp_path / "o1.geojson", tmp_path / "o2.geojson"
        assert main(derive_args(town, r1, o1)) == 0
        assert main(derive_args(town, r2, o2)) == 0
        assert r1.read_bytes() == r2.read_bytes()
        assert o1.read_bytes() == o2.read_bytes()

    def test_missing_start_and_cover_all(self, town, tmp_path, capsys):
        code = main(
            [
                "derive",
                "--network", str(town / "network.geojson"),
                "--signs", str(town / "signs.geojson"),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        assert "start-edge" in capsys.readouterr().err

    def test_unknown_start_edge(self, town, tmp_path, capsys):
        assert main(derive_args(town, tmp_path / "r.json", start="nope")) == 1
        assert "unknown edge" in capsys.readouterr().err

    @pytest.mark.parametrize("arg, edge_id", [("1", "1"), ("2.5", 2.5), ("3", 3)])
    def test_start_edge_names_numeric_ids(self, tmp_path, monkeypatch, capsys, arg, edge_id):
        # grid edge ids renumbered to "1" (a string), 1, 2.5, 3, 4, ...: an
        # exact string id wins, otherwise the argument is a number's JSON text
        grid = tmp_path / "grid"
        assert main(["scenario", "--template", "grid", "--out-dir", str(grid)]) == 0
        network = json.loads((grid / "network.geojson").read_text())
        edges = [f["properties"] for f in network["features"] if "edge_id" in f["properties"]]
        renamed = {p["edge_id"]: i for i, p in enumerate(edges)}
        renamed.update({edges[0]["edge_id"]: "1", edges[1]["edge_id"]: 1, edges[2]["edge_id"]: 2.5})
        for p in edges:
            p["edge_id"], p["opposite_id"] = renamed[p["edge_id"]], renamed[p["opposite_id"]]
        (grid / "network.geojson").write_text(json.dumps(network))
        starts = []

        def recording(graph, index, cfg, start_edges, cover_all):
            starts.extend(start_edges)
            return derive_rules(graph, index, cfg, start_edges, cover_all)

        monkeypatch.setattr("roadrules.cli.derive_rules", recording)
        args = derive_args(grid, tmp_path / "r.json", start=arg)
        assert main(args) == 0
        assert starts == [edge_id]
        for unknown in ("3.0", "99"):
            assert main(derive_args(grid, tmp_path / "r.json", start=unknown)) == 1
            assert f"error: unknown edge '{unknown}'" in capsys.readouterr().err

    def test_missing_network_file(self, town, tmp_path, capsys):
        args = derive_args(town, tmp_path / "r.json")
        args[args.index("--network") + 1] = str(tmp_path / "missing.geojson")
        assert main(args) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_bad_detection_flag(self, town, tmp_path, capsys):
        assert main(derive_args(town, tmp_path / "r.json") + ["--half-angle", "95"]) == 1
        assert "half_angle" in capsys.readouterr().err

    def test_bad_detection_flag_exits_before_any_input_is_read(self, town, tmp_path, capsys):
        args = derive_args(town, tmp_path / "r.json") + ["--half-angle", "95"]
        args[args.index("--network") + 1] = str(tmp_path / "missing.geojson")
        assert main(args) == 1
        assert capsys.readouterr().err == "error: visibility_half_angle must be below 90 degrees\n"

    @pytest.mark.parametrize("flag", ["--node-radius", "--edge-radius", "--lookback", "--half-angle"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_detection_flag(self, town, tmp_path, capsys, flag, value):
        args = derive_args(town, tmp_path / "r.json") + ["--cover-all", f"{flag}={value}"]
        assert main(args) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["network", "signs"])
    @pytest.mark.parametrize("position", [None, [1.0], ["a", "b"], [10**400, 0.0], [True, 0.0]])
    def test_malformed_coordinates_exit_1(self, town, tmp_path, capsys, name, position):
        document = json.loads((town / f"{name}.geojson").read_text())
        kind = "LineString" if name == "network" else "Point"
        i = next(i for i, f in enumerate(document["features"]) if f["geometry"]["type"] == kind)
        geometry = document["features"][i]["geometry"]
        if position is None:
            del geometry["coordinates"]
        elif kind == "LineString":
            geometry["coordinates"][-1] = position
        else:
            geometry["coordinates"] = position
        (town / f"{name}.geojson").write_text(json.dumps(document))
        assert main(derive_args(town, tmp_path / "r.json")) == 1
        assert f"feature {i}" in capsys.readouterr().err

    @pytest.mark.parametrize("read", ["streamed", "whole"])
    @pytest.mark.parametrize(
        "shape, message",
        [
            ("empty", "polyline needs at least two vertices"),
            ("single", "polyline needs at least two vertices"),
            ("repeated", "zero-length segment at vertex 0"),
        ],
    )
    def test_degenerate_linestring_exits_1(self, town, tmp_path, monkeypatch, capsys,
                                           read, shape, message):
        path = town / "network.geojson"
        document = json.loads(path.read_text())
        i = next(i for i, f in enumerate(document["features"])
                 if f["geometry"]["type"] == "LineString")
        coordinates = document["features"][i]["geometry"]["coordinates"]
        coordinates[:] = {"empty": [], "single": coordinates[:1],
                          "repeated": coordinates[:1] + coordinates}[shape]
        path.write_text(json.dumps(document))
        read_document = roadrules_io.network_from_document
        reads = []  # (streamed, message) of each attempt to read the network

        def recorded(document, source):
            streamed = not isinstance(document["features"], list)
            try:
                return read_document(document, source)
            except InputError as exc:
                reads.append((streamed, str(exc)))
                raise

        def declined(text):  # the streamed reader declines every file
            raise roadrules_io._Declined
            yield

        monkeypatch.setattr(roadrules_io, "network_from_document", recorded)
        if read == "whole":
            monkeypatch.setattr(roadrules_io, "_streamed_features", declined)
        assert main(derive_args(town, tmp_path / "r.json")) == 1
        error = f"{path}: feature {i}: {message}"
        assert capsys.readouterr().err == f"error: {error}\n"
        # a streamed read that fails is not read again: the rest of the file
        # streams on, so the error is the one ``json.loads`` would meet
        assert reads == [(read == "streamed", error)]

    @pytest.mark.parametrize(
        "name, kind, part, value",
        [
            ("network", "Point", ("properties", "node_id"), []),
            ("network", "LineString", ("properties", "edge_id"), {}),
            ("network", "LineString", ("properties", "source_node"), [1]),
            ("network", "LineString", ("properties", "target_node"), {"a": 1}),
            ("network", "LineString", ("properties", "opposite_id"), []),
            ("signs", "Point", ("properties", "sign_id"), [[]]),
            ("network", "LineString", (), 5),
            ("network", "Point", ("geometry",), "x"),
            ("network", "LineString", ("properties",), 5),
            ("signs", "Point", (), "x"),
            ("signs", "Point", ("geometry",), 5),
            ("signs", "Point", ("properties",), "x"),
            ("signs", "Point", ("properties", "azimuth"), 10**400),
        ],
    )
    def test_malformed_feature_exit_1(self, town, tmp_path, capsys, name, kind, part, value):
        document = json.loads((town / f"{name}.geojson").read_text())
        features = document["features"]
        i = next(i for i, f in enumerate(features) if f["geometry"]["type"] == kind)
        if not part:
            features[i] = value
        elif len(part) == 1:
            features[i][part[0]] = value
        else:
            features[i][part[0]][part[1]] = value
        (town / f"{name}.geojson").write_text(json.dumps(document))
        assert main(derive_args(town, tmp_path / "r.json")) == 1
        assert f"feature {i}" in capsys.readouterr().err

    def test_edge_named_as_its_own_opposite_exit_1(self, tmp_path, capsys):
        loop = {
            "type": "Feature",
            "geometry": {"type": "LineString", "coordinates": [[0, 0], [50, 50], [0, 0]]},
            "properties": {
                "edge_id": "aa", "source_node": "A", "target_node": "A", "opposite_id": "aa",
            },
        }
        for name, features in (("network", [loop]), ("signs", [])):
            document = {"type": "FeatureCollection", "coordinate_system": "local-meters",
                        "features": features}
            (tmp_path / f"{name}.geojson").write_text(json.dumps(document))
        assert main(derive_args(tmp_path, tmp_path / "r.json", start="aa")) == 1
        assert "edge 'aa' is named as its own opposite" in capsys.readouterr().err

    @pytest.mark.parametrize("code", ["R-302", "R-101"])
    def test_segment_whose_square_underflows(self, tmp_path, capsys, code):
        # B is 1e-200 m from A: the segment's squared length underflows to 0.0
        nodes = {"A": [0.0, 0.0], "B": [1e-200, 0.0], "C": [100.0, 0.0]}
        network = [
            {"type": "Feature", "geometry": {"type": "Point", "coordinates": position},
             "properties": {"node_id": node}}
            for node, position in nodes.items()
        ]
        for a, b in (("A", "B"), ("B", "C")):
            network += [
                {"type": "Feature",
                 "geometry": {"type": "LineString", "coordinates": [nodes[u], nodes[v]]},
                 "properties": {"edge_id": f"{u}{v}", "source_node": u, "target_node": v,
                                "opposite_id": f"{v}{u}"}}
                for u, v in ((a, b), (b, a))
            ]
        sign = {"type": "Feature", "geometry": {"type": "Point", "coordinates": [-2.0, -3.0]},
                "properties": {"sign_id": "s", "type": code, "azimuth": 90.0}}
        for name, features in (("network", network), ("signs", [sign])):
            document = {"type": "FeatureCollection", "coordinate_system": "local-meters",
                        "features": features}
            (tmp_path / f"{name}.geojson").write_text(json.dumps(document))
        args = [
            "derive",
            "--network", str(tmp_path / "network.geojson"),
            "--signs", str(tmp_path / "signs.geojson"),
            "--cover-all",
            "--out", str(tmp_path / "r.json"),
        ]
        assert main(args) == 0, capsys.readouterr().err
        assert "4 edges visited" in capsys.readouterr().out
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["unreached"] == []

    @pytest.mark.parametrize("name", ["network", "signs"])
    def test_integer_past_digit_limit_exit_1(self, town, tmp_path, capsys, name):
        path = town / f"{name}.geojson"
        path.write_text(path.read_text().replace("0.0", "1" + "0" * 5000, 1))
        assert main(derive_args(town, tmp_path / "r.json")) == 1
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, kind, part, value, count",
        [
            ("signs", "Point", ("properties", "azimuth"), 10**3999, 1),
            ("signs", "Point", ("properties", "sign_id"), "s" * 5000, 2),
            ("signs", "Point", ("properties", "type"), "T" * 5000, 1),
            ("network", "LineString", ("properties", "edge_id"), "e" * 5000, 2),
            ("network", "Point", ("properties", "node_id"), "n" * 5000, 2),
            ("network", "Point", ("geometry", "type"), "G" * 5000, 1),
        ],
        ids=["azimuth", "dup-sign-id", "sign-type", "dup-edge-id", "dup-node-id", "geometry-type"],
    )
    def test_echoed_values_are_shortened(
        self, town, tmp_path, capsys, caplog, name, kind, part, value, count
    ):
        path = town / f"{name}.geojson"
        document = json.loads(path.read_text())
        chosen = [i for i, f in enumerate(document["features"]) if f["geometry"]["type"] == kind]
        for i in chosen[:count]:
            document["features"][i][part[0]][part[1]] = value
        path.write_text(json.dumps(document))
        assert main(derive_args(town, tmp_path / "r.json")) in (0, 1)
        lines = capsys.readouterr().err.splitlines() + [r.getMessage() for r in caplog.records]
        last = chosen[count - 1]  # a duplicate names both features, or the second one
        named = [line for line in lines if re.search(rf"\bfeatures? (\d+ and )?{last}\b", line)]
        assert named, lines
        for line in named:
            assert len(line) < 300 and str(path) in line, line

    def test_cover_all_without_start(self, town, tmp_path):
        rules = tmp_path / "rules.json"
        args = [
            "derive",
            "--network", str(town / "network.geojson"),
            "--signs", str(town / "signs.geojson"),
            "--cover-all",
            "--out", str(rules),
        ]
        assert main(args) == 0
        doc = json.loads(rules.read_text())
        assert doc["unreached"] == ["N10->N00"]


    def test_thresholds_default_to_detection_config(self, town, tmp_path, monkeypatch):
        import roadrules.cli as cli

        configs = []

        def spy(graph, index, config, **kwargs):
            configs.append(config)
            return derive_rules(graph, index, config, **kwargs)

        monkeypatch.setattr(cli, "derive_rules", spy)
        assert main(derive_args(town, tmp_path / "r.json")) == 0
        assert configs == [DetectionConfig()]


# sha256 of the rule document and the overlay that ``derive --overlay`` writes
# for short_block_scene(seed), as first written; each run revokes 12-19 held
# rules, holds rules of all three families and bans up to 3 exits per rule,
# so these pin the bytes of rule replacement
REVOKING_SCENES = [
    (1, None, "0a8416a4a95fb1d9bdcec8a10529f27cd7673ca38cd73e847a3be1458e35b86f",
     "b8247c7d5041614900a5ce847a3f161bd454d8e6e219982c3ba0b7b3b9d305e8"),
    (1, "n00_01->n00_02", "721385425b85b26b284b112fa44382e331d5a85d8da03a73d1774ae8abd70a15",
     "0777e2bd5e67416bede5715479e38b8aa1e2bc611de641a5fbd8d72e6f7132d6"),
    (2, None, "34ca54639cf272938fd2470258ffdadc6e58fd3e6b871944c8c4af723233029e",
     "031ab21f7080b7368043b37c8e52f19a07acc515e88c0bdf6f7674cb71c9c4db"),
    (2, "n00_01->n00_02", "a776eeef63861e6d5485fbb927ceeb20552bb2334aaf46228c555e78b47839cb",
     "f7f0fb334c35652da9cf6db532fbde1010e9fe47a592b42e937c6758f4b213c0"),
    (3, None, "89170b59e389db2395d5478eaa491f6402fb55492b361bb3fb536cd1613f52f0",
     "39eab32c19d327ad665641f556fea032b6ac1d85f2af0445c0794b1859998b8e"),
    (3, "n00_01->n00_02", "2ea16394bfe3fedde833be50a68feb0593e996bf9d3c764dd03d112ae1083c98",
     "448f4d6d7947267bff14fad0d7f05db54a3f4a18630955631f20557dc1576215"),
]


@pytest.mark.parametrize(
    "seed,start,rules_digest,overlay_digest",
    REVOKING_SCENES,
    ids=[f"seed{seed}-{'one-start' if start else 'cover-all'}" for seed, start, *_ in REVOKING_SCENES],
)
def test_revoking_scenes_keep_their_bytes(tmp_path, seed, start, rules_digest, overlay_digest):
    network, signs = write_scene(*short_block_scene(seed), tmp_path)
    rules, overlay = tmp_path / "rules.json", tmp_path / "overlay.geojson"
    args = ["derive", "--network", str(network), "--signs", str(signs)]
    args += ["--start-edge", start] if start else ["--cover-all"]
    args += ["--out", str(rules), "--overlay", str(overlay)]
    assert main(args) == 0
    digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (rules, overlay)]
    assert digests == [rules_digest, overlay_digest]


class TestCollectorState:
    """The CLI pauses the collector for the whole command, then restores it."""

    @staticmethod
    def collector_state():
        return gc.isenabled(), gc.get_freeze_count()

    def test_paused_for_the_whole_command(self, town, tmp_path, monkeypatch):
        import roadrules.cli as cli

        once = (
            "load_network", "load_signs", "SignIndex", "derive_rules", "write_rules",
            "render_overlay",
        )
        seen = {}

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                seen[name] = gc.isenabled()
                return fn(*args, **kwargs)

            return wrapper

        for name in once:
            monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
        before = self.collector_state()
        assert main(derive_args(town, tmp_path / "r.json", tmp_path / "o.geojson")) == 0
        assert seen == dict.fromkeys(once, False)
        assert self.collector_state() == before

    def test_derive_with_overlay(self, town, tmp_path):
        before = self.collector_state()
        assert main(derive_args(town, tmp_path / "r.json", tmp_path / "o.geojson")) == 0
        assert self.collector_state() == before

    def test_render(self, town, tmp_path):
        rules = tmp_path / "r.json"
        assert main(derive_args(town, rules)) == 0
        before = self.collector_state()
        code = main(
            [
                "render",
                "--rules", str(rules),
                "--network", str(town / "network.geojson"),
                "--signs", str(town / "signs.geojson"),
                "--out", str(tmp_path / "o.geojson"),
            ]
        )
        assert code == 0
        assert self.collector_state() == before

    def test_malformed_signs(self, town, tmp_path):
        (town / "signs.geojson").write_text('{"type": "FeatureCollection", "features": [5]}')
        before = self.collector_state()
        assert main(derive_args(town, tmp_path / "r.json")) == 1
        assert self.collector_state() == before

    def test_caller_freeze_is_kept(self, town, tmp_path):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert main(derive_args(town, tmp_path / "r.json")) == 0
            # frozen objects that die leave the count, so it can only fall
            assert gc.isenabled() and 0 < gc.get_freeze_count() <= frozen
        finally:
            gc.unfreeze()

    def test_disabled_collector_stays_disabled(self, town, tmp_path):
        frozen = gc.get_freeze_count()
        gc.disable()
        try:
            assert main(derive_args(town, tmp_path / "r.json")) == 0
            assert self.collector_state() == (False, frozen)
        finally:
            gc.enable()


class TestValidateCommand:
    def test_perfect_scene_scores_100(self, town, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        assert main(derive_args(town, rules)) == 0
        capsys.readouterr()
        code = main(
            ["validate", "--rules", str(rules), "--truth", str(town / "expected_rules.json")]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["one_way_streets"]["accuracy"] == 100.0
        assert report["turn_restrictions"]["accuracy"] == 100.0

    def test_report_file_output(self, town, tmp_path):
        rules = tmp_path / "rules.json"
        main(derive_args(town, rules))
        out = tmp_path / "report.json"
        code = main(
            [
                "validate",
                "--rules", str(rules),
                "--truth", str(town / "expected_rules.json"),
                "--out", str(out),
            ]
        )
        assert code == 0 and json.loads(out.read_text())["one_way_streets"]["incorrect"] == 0

    SCENE_REPORT = (
        b'{"one_way_streets":{"accuracy":100.0,"incorrect":0,"total_mapped":1},'
        b'"turn_restrictions":{"accuracy":100.0,"incorrect":0,"total_mapped":1}}\n'
    )
    EMPTY_REPORT = (
        b'{"one_way_streets":{"accuracy":null,"incorrect":0,"total_mapped":0},'
        b'"turn_restrictions":{"accuracy":null,"incorrect":0,"total_mapped":0}}\n'
    )

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("scene", [True, False], ids=["sample-town", "empty-rules"])
    def test_report_bytes(self, town, tmp_path, capsysbinary, scene, to_file):
        rules = tmp_path / "rules.json"
        if scene:
            assert main(derive_args(town, rules)) == 0
        else:
            empty = {"no_way": [], "one_way": [], "no_turn": [], "unreached": []}
            rules.write_text(json.dumps(empty), encoding="utf-8")
        capsysbinary.readouterr()
        args = ["validate", "--rules", str(rules), "--truth", str(town / "expected_rules.json")]
        out = tmp_path / "report.json"
        assert main(args + ["--out", str(out)] * to_file) == 0
        printed = capsysbinary.readouterr().out
        expected = self.SCENE_REPORT if scene else self.EMPTY_REPORT
        if to_file:
            assert (printed, out.read_bytes()) == (b"", expected)
        else:
            assert printed == expected and not out.exists()

    def test_malformed_rules_file(self, town, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        code = main(
            ["validate", "--rules", str(bad), "--truth", str(town / "expected_rules.json")]
        )
        assert code == 1


class TestRenderCommand:
    def test_matches_derive_overlay(self, town, tmp_path):
        rules = tmp_path / "rules.json"
        overlay = tmp_path / "o1.geojson"
        main(derive_args(town, rules, overlay))
        again = tmp_path / "o2.geojson"
        code = main(
            [
                "render",
                "--rules", str(rules),
                "--network", str(town / "network.geojson"),
                "--signs", str(town / "signs.geojson"),
                "--out", str(again),
            ]
        )
        assert code == 0
        assert overlay.read_bytes() == again.read_bytes()

    @pytest.mark.parametrize("template", ["sample-town", "twin-nodes"])
    def test_cover_all_overlay_matches_render(self, tmp_path, template):
        scene = tmp_path / template
        assert main(["scenario", "--template", template, "--out-dir", str(scene)]) == 0
        inputs = ["--network", str(scene / "network.geojson"), "--signs", str(scene / "signs.geojson")]
        rules, derived, rendered = tmp_path / "r.json", tmp_path / "o1.geojson", tmp_path / "o2.geojson"
        derive = ["derive", *inputs, "--cover-all", "--out", str(rules), "--overlay", str(derived)]
        assert main(derive) == 0
        assert main(["render", "--rules", str(rules), *inputs, "--out", str(rendered)]) == 0
        assert derived.read_bytes() == rendered.read_bytes()

    # sample-town from N00->N10 derives one no_way and one no_turn rule, no
    # one_way rule and six unreached edges; each case edits or appends one entry
    @pytest.mark.parametrize(
        "family,change,message",
        [
            ("no_way", {"edge": "ZZZ"}, "no_way entry 0: edge 'ZZZ' is not in the network"),
            ("no_way", {"sign": "s9"}, "no_way entry 0: sign 's9' is not in the sign inventory"),
            ("no_turn", {"from": 7}, "no_turn entry 0: edge 7 is not in the network"),
            ("no_turn", {"banned_to": ["N11->N21", "ZZZ"]}, "no_turn entry 0: edge 'ZZZ' is"),
            ("one_way", {"chosen": "ZZZ", "banned": [], "sign": "s9", "score": 1.0},
             "one_way entry 0: edge 'ZZZ' is not in the network"),
            ("one_way", {"chosen": "N00->N10", "banned": ["ZZZ"], "sign": "s9", "score": 1.0},
             "one_way entry 0: edge 'ZZZ' is not in the network"),
            ("unreached", "ZZZ", "unreached entry 6: edge 'ZZZ' is not in the network"),
            # a sign holds at most one rule: render would link s1 to one
            # entry only and drop the other from the overlay
            ("one_way", {"chosen": "N00->N10", "banned": ["N10->N11"], "sign": "s1", "score": 1.0},
             "one_way entry 0: sign 's1' already holds no_way entry 0"),
        ],
        ids=["edge", "sign", "from", "banned_to", "chosen", "banned", "unreached", "sign-twice"],
    )
    def test_rules_of_other_inputs_exit_1(self, town, tmp_path, capsys, family, change, message):
        rules, out = tmp_path / "rules.json", tmp_path / "o.geojson"
        assert main(derive_args(town, rules)) == 0
        document = json.loads(rules.read_text())
        if family in ("no_way", "no_turn"):
            document[family][0].update(change)
        else:
            document[family].append(change)
        rules.write_text(json.dumps(document))
        inputs = ["--network", str(town / "network.geojson"), "--signs", str(town / "signs.geojson")]
        assert main(["render", "--rules", str(rules), *inputs, "--out", str(out)]) == 1
        assert f"error: {rules}: {message}" in capsys.readouterr().err
        assert not out.exists()


def _two_node_graph():
    a, b = Point(0, 0), Point(100, 0)
    return build_graph({"A": a, "B": b}, {"ab": ("A", "B", Polyline([a, b]))})


def _lonlat_document(position):
    return {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "geometry": {"type": "Point", "coordinates": coordinates},
             "properties": {"node_id": node}}
            for node, coordinates in (("A", [0.0, 0.0]), ("B", position))
        ],
    }


def _self_opposite_loop():
    a = Point(0, 0)
    loop = {"aa": ("A", "A", Polyline([a, Point(50, 50), a]))}
    return build_graph({"A": a}, loop, opposite_pairs=[("aa", "aa")])


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda: DetectionConfig(node_radius=0.0), "node_radius must be positive and finite"),
        (lambda: derive_rules(_two_node_graph(), SignIndex([])),
         "need at least one start edge, or cover_all"),
        (lambda: derive_rules(_two_node_graph(), SignIndex([]), start_edges=["nope"]),
         "unknown edge 'nope'"),
        (_self_opposite_loop, "edge 'aa' is named as its own opposite"),
        (lambda: network_from_document(_lonlat_document([180.5, 0.0])),
         "<network>: feature 1: lon/lat (180.5, 0.0) out of range or not numbers"),
    ],
    ids=["threshold", "no-start", "unknown-start", "self-opposite", "lonlat-range"],
)
def test_library_input_faults_raise_input_error(fault, message):
    # the CLI's exit 1 is exactly an InputError, so a library caller meets
    # the same class for the same fault; no subclass, no ValueError
    with pytest.raises(InputError) as caught:
        fault()
    assert type(caught.value) is InputError
    assert str(caught.value) == message


class TestExitCodes:
    @pytest.mark.parametrize(
        "exc, line",
        [
            (InternalError("invariant broken"), "internal error: InternalError('invariant broken')"),
            (KeyError("x"), "internal error: KeyError('x')"),
            (RuntimeError("surprise"), "internal error: RuntimeError('surprise')"),
        ],
    )
    def test_exit_2_prints_the_repr(self, town, monkeypatch, capsys, exc, line):
        # the traceback names where the bug is; the repr is the last line
        import roadrules.cli as cli

        def boom(path):
            raise exc

        monkeypatch.setattr(cli, "load_rules", boom)
        code = main(
            ["validate", "--rules", "x.json", "--truth", str(town / "expected_rules.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):\n"), err
        assert ", in boom\n" in err, err
        assert err.endswith("\n" + line + "\n"), err


    @pytest.mark.parametrize("name", ["network", "signs", "rules", "truth"])
    def test_deeply_nested_json_exits_1(self, town, tmp_path, capsys, name):
        # nested past the interpreter's recursion depth: json.loads raises
        # RecursionError, which is malformed input like any other JSON error
        rules = tmp_path / "rules.json"
        assert main(derive_args(town, rules)) == 0
        paths = {
            "network": town / "network.geojson",
            "signs": town / "signs.geojson",
            "rules": rules,
            "truth": town / "expected_rules.json",
        }
        paths[name].write_text("[" * 100_000, encoding="utf-8")
        if name in ("network", "signs"):
            code = main(derive_args(town, tmp_path / "r.json"))
        else:
            code = main(["validate", "--rules", str(rules), "--truth", str(paths["truth"])])
        err = capsys.readouterr().err
        assert code == 1, err
        assert f"{paths[name]}: malformed JSON" in err

    @pytest.mark.parametrize(
        "command", ["derive --out", "derive --overlay", "validate --out", "render --out", "scenario"]
    )
    def test_unwritable_output_exits_1_naming_it(self, town, tmp_path, capsys, command):
        rules, missing, file = tmp_path / "rules.json", tmp_path / "nodir" / "out.json", tmp_path / "f"
        assert main(derive_args(town, rules)) == 0
        file.write_text("", encoding="utf-8")
        inputs = ["--network", str(town / "network.geojson"), "--signs", str(town / "signs.geojson")]
        path, argv = {
            "derive --out": (missing, derive_args(town, missing)),
            "derive --overlay": (missing, derive_args(town, rules, missing)),
            "validate --out": (missing, [
                "validate", "--rules", str(rules), "--truth", str(town / "expected_rules.json"),
                "--out", str(missing),
            ]),
            "render --out": ("/", ["render", "--rules", str(rules), *inputs, "--out", "/"]),
            "scenario": (file, ["scenario", "--template", "grid", "--out-dir", str(file)]),
        }[command]
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1, err
        assert f"error: cannot write {path}: " in err


def command_lines(town, rules, out):
    """One command line per subcommand, naming every path it reads or writes."""
    inputs = ["--network", str(town / "network.geojson"), "--signs", str(town / "signs.geojson")]
    truth = ["--truth", str(town / "expected_rules.json")]
    return {
        "derive": ["derive", *inputs, "--cover-all", "--out", str(out / "rules.json"),
                   "--overlay", str(out / "overlay.geojson")],
        "validate": ["validate", "--rules", str(rules), *truth, "--out", str(out / "report.json")],
        "scenario": ["scenario", "--template", "grid", "--out-dir", str(out / "scene")],
        "render": ["render", "--rules", str(rules), *inputs, "--out", str(out / "o.geojson")],
    }


def faulty_path(tmp_path, fault):
    """A path that cannot be read or written, made so by ``fault``."""
    if fault == "a-directory":
        (tmp_path / "dir").mkdir()
        return tmp_path / "dir"
    if fault == "not-utf8":
        (tmp_path / "latin1.json").write_bytes(b'{"type": "FeatureCollection", "x": "\xe9"}')
        return tmp_path / "latin1.json"
    if fault == "unreadable":
        (tmp_path / "secret.json").write_text("{}", encoding="utf-8")
        (tmp_path / "secret.json").chmod(0)
        return tmp_path / "secret.json"
    if fault == "directory-missing":
        return tmp_path / "missing" / "out"
    (tmp_path / "file").write_text("", encoding="utf-8")  # the directory is a file
    return tmp_path / "file" / "out"


INPUTS = ("derive --network", "derive --signs", "validate --rules", "validate --truth",
          "render --rules", "render --network", "render --signs")
OUTPUTS = ("derive --out", "derive --overlay", "validate --out", "render --out",
           "scenario --out-dir")
# scenario makes its missing output directory, as ``mkdir -p`` does
FAULTS = [(site, fault) for site in INPUTS for fault in ("a-directory", "not-utf8", "unreadable")]
FAULTS += [(site, fault) for site in OUTPUTS for fault in ("directory-missing", "directory-a-file")
           if (site, fault) != ("scenario --out-dir", "directory-missing")]


# (command, output flag, the flag whose path the output is given)
SAME_FILE = [
    ("derive", "--out", "--overlay"),
    ("derive", "--out", "--network"),
    ("derive", "--out", "--signs"),
    ("derive", "--overlay", "--network"),
    ("derive", "--overlay", "--signs"),
    ("render", "--out", "--rules"),
    ("render", "--out", "--network"),
    ("render", "--out", "--signs"),
    ("validate", "--out", "--rules"),
    ("validate", "--out", "--truth"),
]


class TestOutputNamesAnotherPath:
    """An output that would replace an input or the other output exits 1 and writes nothing."""

    @staticmethod
    def files(root):
        return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}

    def run(self, tmp_path, capsys, argv):
        before = self.files(tmp_path)
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1, err
        assert self.files(tmp_path) == before
        return err

    @pytest.mark.parametrize("command, output, other", SAME_FILE)
    def test_same_path(self, town, tmp_path, capsys, command, output, other):
        rules = tmp_path / "rules.json"
        assert main(derive_args(town, rules)) == 0
        argv = command_lines(town, rules, tmp_path / "out")[command]
        path = argv[argv.index(other) + 1]
        argv[argv.index(output) + 1] = path
        err = self.run(tmp_path, capsys, argv)
        assert f"error: {output} and {other} name the same file {path}" in err

    def test_link_to_an_input(self, town, tmp_path, capsys):
        link = tmp_path / "link.geojson"
        link.symlink_to(town / "network.geojson")
        err = self.run(tmp_path, capsys, derive_args(town, link))
        assert f"error: --out and --network name the same file {link}" in err

    @pytest.mark.parametrize("output, other", [("--out", "--network"), ("--out", "--overlay")])
    def test_hard_link_to_another_path(self, town, tmp_path, capsys, output, other):
        argv = command_lines(town, tmp_path / "rules.json", tmp_path)["derive"]
        path = Path(argv[argv.index(other) + 1])
        if not path.exists():
            path.write_text("{}")  # an overlay an earlier run left
        link = tmp_path / "link.geojson"
        os.link(path, link)
        argv[argv.index(output) + 1] = str(link)
        err = self.run(tmp_path, capsys, argv)
        assert f"error: {output} and {other} name the same file {link}" in err


class TestEnvironmentFaults:
    """A fault of the files or streams around a run exits 1 and names what failed."""

    @pytest.mark.parametrize("site, fault", FAULTS)
    def test_path_fault_exits_1_naming_the_path(self, town, tmp_path, capsys, site, fault):
        if fault == "unreadable" and os.geteuid() == 0:
            pytest.skip("permission bits do not bind root")
        rules = tmp_path / "rules.json"
        assert main(derive_args(town, rules)) == 0
        command, flag = site.split()
        argv = command_lines(town, rules, tmp_path)[command]
        path = faulty_path(tmp_path, fault)
        argv[argv.index(flag) + 1] = str(path)
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [True, False])
    @pytest.mark.parametrize("command", ["derive", "validate", "scenario", "render"])
    def test_stdout_that_cannot_be_written_exits_1(self, town, tmp_path, command, unbuffered):
        # a buffered stdout fails only when flushed, an unbuffered one at the
        # write; either way the interpreter's own exit flush must not fail again
        rules = tmp_path / "rules.json"
        assert main(derive_args(town, rules)) == 0
        argv = command_lines(town, rules, tmp_path)[command]
        if command == "validate":
            argv = argv[:argv.index("--out")]  # the report goes to stdout
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(Path(roadrules.__file__).parents[1]), os.environ.get("PYTHONPATH")
        ])))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "roadrules.cli", *argv], stdout=full,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        if command == "render":  # prints nothing, so it never touches stdout
            assert (done.returncode, done.stderr) == (0, "")
        else:
            assert done.returncode == 1, done.stderr
            assert done.stderr.startswith("error: cannot write stdout: ")
            assert "Exception ignored" not in done.stderr


class TestScenarioCommand:
    def test_writes_three_files(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert main(["scenario", "--template", "grid", "--rows", "2", "--cols", "3",
                     "--out-dir", str(out)]) == 0
        printed = capsys.readouterr().out
        for name in ("network.geojson", "signs.geojson", "expected_rules.json"):
            assert (out / name).exists()
            assert name in printed

    def test_bad_grid_parameters(self, tmp_path, capsys):
        code = main(["scenario", "--template", "grid", "--rows", "1", "--cols", "1",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 1
        assert "two nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("spacing", ["nan", "inf", "1e308"])
    def test_spacing_that_leaves_the_floats_exit_1(self, tmp_path, capsys, spacing):
        out = tmp_path / "g"
        code = main(["scenario", "--template", "grid", "--cols", "3", "--spacing", spacing,
                     "--out-dir", str(out)])
        assert code == 1
        assert "spacing" in capsys.readouterr().err
        assert not out.exists()
