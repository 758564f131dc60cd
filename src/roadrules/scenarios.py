"""Synthetic scenario generator for tests and demos.

Each template emits a network file, a signs file and an expected-rules file.
Expected rules come from the template's construction (hand-placed signs with
unambiguous geometry), never from the derivation engine itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import InputError, shown
from .io import PLANAR_BOUND, PLANAR_MARKER, write_json

TEMPLATES = ("grid", "dead-end", "twin-nodes", "sample-town")


@dataclass(frozen=True)
class Scenario:
    name: str
    network: dict
    signs: dict
    expected: dict


def _node_feature(node_id: str, x: float, y: float) -> dict:
    return {
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [x, y]},
        "properties": {"node_id": node_id},
    }


def _edge_feature(src: str, dst: str, coords: list[list[float]]) -> dict:
    return {
        "type": "Feature",
        "geometry": {"type": "LineString", "coordinates": coords},
        "properties": {
            "edge_id": f"{src}->{dst}",
            "source_node": src,
            "target_node": dst,
            "opposite_id": f"{dst}->{src}",
        },
    }


def _sign_feature(sign_id: str, x: float, y: float, code: str, azimuth: float) -> dict:
    return {
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [x, y]},
        "properties": {"sign_id": sign_id, "type": code, "azimuth": azimuth},
    }


def _collection(features: list[dict]) -> dict:
    return {
        "type": "FeatureCollection",
        "coordinate_system": PLANAR_MARKER,
        "features": features,
    }


def _two_way_street(a: str, b: str, pa: tuple, pb: tuple) -> list[dict]:
    return [
        _edge_feature(a, b, [[pa[0], pa[1]], [pb[0], pb[1]]]),
        _edge_feature(b, a, [[pb[0], pb[1]], [pa[0], pa[1]]]),
    ]


def _expected(one_way=(), turns=(), start_edges=()) -> dict:
    return {
        "one_way_banned_edges": sorted(one_way),
        "turn_restrictions": sorted([list(p) for p in turns]),
        "start_edges": list(start_edges),
    }


def _grid(rows: int, cols: int, spacing: float) -> Scenario:
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise InputError("grid needs at least two nodes")
    if not (spacing > 0 and (max(rows, cols) - 1) * spacing <= PLANAR_BOUND):
        raise InputError(
            f"grid spacing must be positive and keep the grid within {PLANAR_BOUND:g} m, "
            f"not {shown(spacing)}"
        )

    def nid(r: int, c: int) -> str:
        return f"n{r:03d}_{c:03d}"

    def pos(r: int, c: int) -> tuple[float, float]:
        return (c * spacing, r * spacing)

    features = [
        _node_feature(nid(r, c), *pos(r, c)) for r in range(rows) for c in range(cols)
    ]
    edges: list[dict] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.extend(_two_way_street(nid(r, c), nid(r, c + 1), pos(r, c), pos(r, c + 1)))
            if r + 1 < rows:
                edges.extend(_two_way_street(nid(r, c), nid(r + 1, c), pos(r, c), pos(r + 1, c)))
    edges.sort(key=lambda f: f["properties"]["edge_id"])
    start = edges[0]["properties"]["edge_id"]
    return Scenario(
        f"grid-{rows}x{cols}",
        _collection(features + edges),
        _collection([]),
        _expected(start_edges=[start]),
    )


def _dead_end() -> Scenario:
    nodes = {"A": (0.0, 0.0), "B": (100.0, 0.0), "C": (200.0, 0.0)}
    features = [_node_feature(n, *p) for n, p in nodes.items()]
    edges = _two_way_street("A", "B", nodes["A"], nodes["B"]) + _two_way_street(
        "B", "C", nodes["B"], nodes["C"]
    )
    return Scenario(
        "dead-end",
        _collection(features + edges),
        _collection([]),
        _expected(start_edges=["A->B"]),
    )


def _twin_nodes() -> Scenario:
    """One entry-ban sign readable from two nearby intersections.

    The sign sits at (6, 8) facing west (azimuth 90): from N1 its best exit
    scores 90 - |36.87| on the connector, from N2 it scores 90 - |33.69| on
    the upper street, so the upper street's ban must win from either start.
    """
    nodes = {"N1": (0.0, 0.0), "N2": (0.0, 12.0), "E1": (40.0, 0.0), "E2": (40.0, 12.0)}
    features = [_node_feature(n, *p) for n, p in nodes.items()]
    edges = (
        _two_way_street("N1", "E1", nodes["N1"], nodes["E1"])
        + _two_way_street("N2", "E2", nodes["N2"], nodes["E2"])
        + _two_way_street("N1", "N2", nodes["N1"], nodes["N2"])
        + _two_way_street("E1", "E2", nodes["E1"], nodes["E2"])
    )
    signs = [_sign_feature("s1", 6.0, 8.0, "R-101", 90.0)]
    return Scenario(
        "twin-nodes",
        _collection(features + edges),
        _collection(signs),
        _expected(one_way=["N2->E2"], start_edges=["E1->N1", "E2->N2"]),
    )


def _sample_town() -> Scenario:
    """Six-intersection block with a one-way street and a no-right-turn.

    The R-101 at (92, 3) faces eastbound drivers arriving at N10 and bans the
    westbound half N10->N00 (score 90 - 20.56, all rivals negative). The
    R-302 at (103, 90) is read while driving N10->N11 and bans the right turn
    onto N11->N21 (exact right turn, score 60).
    """
    nodes = {
        "N00": (0.0, 0.0),
        "N10": (100.0, 0.0),
        "N20": (200.0, 0.0),
        "N01": (0.0, 100.0),
        "N11": (100.0, 100.0),
        "N21": (200.0, 100.0),
    }
    features = [_node_feature(n, *p) for n, p in nodes.items()]
    streets = [
        ("N00", "N10"),
        ("N10", "N20"),
        ("N01", "N11"),
        ("N11", "N21"),
        ("N00", "N01"),
        ("N10", "N11"),
        ("N20", "N21"),
    ]
    edges: list[dict] = []
    for a, b in streets:
        edges.extend(_two_way_street(a, b, nodes[a], nodes[b]))
    signs = [
        _sign_feature("s1", 92.0, 3.0, "R-101", 270.0),
        _sign_feature("s2", 103.0, 90.0, "R-302", 0.0),
    ]
    return Scenario(
        "sample-town",
        _collection(features + edges),
        _collection(signs),
        _expected(
            one_way=["N10->N00"],
            turns=[("N10->N11", "N11->N21")],
            start_edges=["N00->N10"],
        ),
    )


def generate_scenario(
    template: str, rows: int = 3, cols: int = 3, spacing: float = 100.0
) -> Scenario:
    """Build a named scenario; grid parameters apply to the grid template only."""
    if template == "grid":
        return _grid(rows, cols, spacing)
    if template == "dead-end":
        return _dead_end()
    if template == "twin-nodes":
        return _twin_nodes()
    if template == "sample-town":
        return _sample_town()
    raise InputError(f"unknown template {shown(template)}; choose from {', '.join(TEMPLATES)}")


def write_scenario(scenario: Scenario, out_dir: str | Path) -> dict[str, Path]:
    """Write network.geojson, signs.geojson and expected_rules.json."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc
    paths = {
        "network": out / "network.geojson",
        "signs": out / "signs.geojson",
        "expected": out / "expected_rules.json",
    }
    documents = {
        "network": scenario.network,
        "signs": scenario.signs,
        "expected": scenario.expected,
    }
    for key, path in paths.items():
        write_json(documents[key], path)
    return paths
