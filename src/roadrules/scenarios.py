"""Synthetic scenario generator for tests and demos.

Each template emits a network file, a signs file and an expected-rules file.
Expected rules come from the template's construction (hand-placed signs with
unambiguous geometry), never from the derivation engine itself.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .errors import InputError, shown
from .io import PLANAR_BOUND, feature, planar_collection, write_json


class Scenario(NamedTuple):
    network: dict
    signs: dict
    expected: dict


def _scene(
    nodes: dict, streets, signs=(), one_way=(), turns=(), start_edges=(), sort_edges=False
) -> Scenario:
    """A scene of two-way straight streets, built fresh on every call.

    ``nodes`` maps each node id to its ``(x, y)``; each street ``(a, b)``
    adds the edges ``a->b`` and ``b->a``, in that order (in id order with
    ``sort_edges``); each sign is ``(sign_id, x, y, type code, azimuth)``.
    """
    edges = [
        feature("LineString", [list(nodes[a]), list(nodes[b])], edge_id=f"{a}->{b}",
                source_node=a, target_node=b, opposite_id=f"{b}->{a}")
        for street in streets
        for a, b in (street, street[::-1])
    ]
    if sort_edges:
        edges.sort(key=lambda f: f["properties"]["edge_id"])
    points = [feature("Point", list(p), node_id=n) for n, p in nodes.items()]
    return Scenario(
        planar_collection(points + edges),
        planar_collection(
            [feature("Point", [x, y], sign_id=s, type=t, azimuth=az) for s, x, y, t, az in signs]
        ),
        {
            "one_way_banned_edges": sorted(one_way),
            "turn_restrictions": sorted([list(p) for p in turns]),
            "start_edges": list(start_edges),
        },
    )


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

    nodes = {nid(r, c): (c * spacing, r * spacing) for r in range(rows) for c in range(cols)}
    streets = [(nid(r, c), nid(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    streets += [(nid(r, c), nid(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    # the smallest edge id: east from the corner, or north on a one-column grid
    start = f"{nid(0, 0)}->{nid(0, 1) if cols > 1 else nid(1, 0)}"
    return _scene(nodes, streets, start_edges=[start], sort_edges=True)


_SCENES = {
    "dead-end": dict(
        nodes={"A": (0.0, 0.0), "B": (100.0, 0.0), "C": (200.0, 0.0)},
        streets=[("A", "B"), ("B", "C")],
        start_edges=["A->B"],
    ),
    # One entry-ban sign readable from two nearby intersections. The sign
    # sits at (6, 8) facing west (azimuth 90): from N1 its best exit scores
    # 90 - |36.87| on the connector, from N2 it scores 90 - |33.69| on the
    # upper street, so the upper street's ban must win from either start.
    "twin-nodes": dict(
        nodes={"N1": (0.0, 0.0), "N2": (0.0, 12.0), "E1": (40.0, 0.0), "E2": (40.0, 12.0)},
        streets=[("N1", "E1"), ("N2", "E2"), ("N1", "N2"), ("E1", "E2")],
        signs=[("s1", 6.0, 8.0, "R-101", 90.0)],
        one_way=["N2->E2"],
        start_edges=["E1->N1", "E2->N2"],
    ),
    # Six-intersection block with a one-way street and a no-right-turn. The
    # R-101 at (92, 3) faces eastbound drivers arriving at N10 and bans the
    # westbound half N10->N00 (score 90 - 20.56, all rivals negative). The
    # R-302 at (103, 90) is read while driving N10->N11 and bans the right
    # turn onto N11->N21 (exact right turn, score 60).
    "sample-town": dict(
        nodes={"N00": (0.0, 0.0), "N10": (100.0, 0.0), "N20": (200.0, 0.0),
               "N01": (0.0, 100.0), "N11": (100.0, 100.0), "N21": (200.0, 100.0)},
        streets=[("N00", "N10"), ("N10", "N20"), ("N01", "N11"), ("N11", "N21"),
                 ("N00", "N01"), ("N10", "N11"), ("N20", "N21")],
        signs=[("s1", 92.0, 3.0, "R-101", 270.0), ("s2", 103.0, 90.0, "R-302", 0.0)],
        one_way=["N10->N00"],
        turns=[("N10->N11", "N11->N21")],
        start_edges=["N00->N10"],
    ),
}
TEMPLATES = ("grid", *_SCENES)


def generate_scenario(
    template: str, rows: int = 3, cols: int = 3, spacing: float = 100.0
) -> Scenario:
    """Build a named scenario; grid parameters apply to the grid template only."""
    if template == "grid":
        return _grid(rows, cols, spacing)
    if template in _SCENES:
        return _scene(**_SCENES[template])
    raise InputError(f"unknown template {shown(template)}; choose from {', '.join(TEMPLATES)}")


_FILES = (
    ("network", "network.geojson"), ("signs", "signs.geojson"), ("expected", "expected_rules.json")
)


def write_scenario(scenario: Scenario, out_dir: str | Path) -> dict[str, Path]:
    """Write network.geojson, signs.geojson and expected_rules.json."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc
    paths = {key: out / name for key, name in _FILES}
    for key, path in paths.items():
        write_json(getattr(scenario, key), path)
    return paths
