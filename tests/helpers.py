"""Independent oracles and generators shared by the unit and acceptance tests.

The brute-force helpers recompute everything from raw vertices so they stay
independent of the code paths they check.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

from roadrules.geometry import Point, Polyline
from roadrules.io import PLANAR_MARKER
from roadrules.network import RoadGraph, build_graph
from roadrules.signs import Sign, SignIndex, SignType


def brute_force_min_distance(line: Polyline, p: Point, step: float = 0.001) -> float:
    """Minimum distance from p to the line, sampled every ``step`` meters."""
    xs = np.array([v.x for v in line])
    ys = np.array([v.y for v in line])
    seg = np.hypot(np.diff(xs), np.diff(ys))
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    d = np.arange(0.0, cum[-1], step)
    d = np.append(d, cum[-1])
    sx = np.interp(d, cum, xs)
    sy = np.interp(d, cum, ys)
    sx -= p.x
    sx *= sx
    sy -= p.y
    sy *= sy
    sx += sy
    return math.sqrt(float(np.min(sx)))


def random_monotone_polyline(rng: random.Random) -> Polyline:
    """Random polyline, 2-10 vertices, strictly monotone in x (never self-overlapping).

    Segment slopes stay within +-45 degrees so closest-point queries are well
    conditioned; total length is bounded well under a kilometer.
    """
    count = rng.randint(2, 10)
    x = rng.uniform(-50.0, 50.0)
    y = rng.uniform(-50.0, 50.0)
    points = [(x, y)]
    for _ in range(count - 1):
        dx = rng.uniform(1.0, 30.0)
        dy = rng.uniform(-dx, dx)
        x += dx
        y += dy
        points.append((x, y))
    return Polyline(points)


def point_near_line(rng: random.Random, line: Polyline, spread: float = 20.0) -> Point:
    anchor = line.project(rng.uniform(0.0, line.length))
    return Point(anchor.x + rng.uniform(-spread, spread), anchor.y + rng.uniform(-spread, spread))


def one_way_target_street(bearings: list[float], azimuth: float) -> int:
    """Index of the street a right-mandating one-way sign singles out.

    Independent restatement of the scoring geometry: the street whose bearing
    deviates least from azimuth + 90.
    """
    target = azimuth + 90.0
    def deviation(bearing: float) -> float:
        d = math.fmod(target - bearing, 360.0)
        if d <= -180.0:
            d += 360.0
        elif d > 180.0:
            d -= 360.0
        return abs(d)
    return min(range(len(bearings)), key=lambda i: deviation(bearings[i]))


def short_block_scene(
    seed: int, side: int = 12, spacing: float = 10.0, signs_per_edge: float = 0.3
) -> tuple[RoadGraph, SignIndex]:
    """A ``side`` x ``side`` two-way grid of short blocks, with random signs.

    Each sign, of any of the 8 types and facing any way, stands within half a
    block of the end of a random edge and just off it. On blocks this short
    one sign is read from several approaches, so held rules get replaced.
    Only ``random.Random(seed)`` is drawn from.
    """
    rng = random.Random(seed)
    nodes = {(r, c): Point(c * spacing, r * spacing) for r in range(side) for c in range(side)}
    ends = [(a, b) for a in nodes for b in ((a[0], a[1] + 1), (a[0] + 1, a[1])) if b in nodes]
    ends += [(b, a) for a, b in ends]

    def name(node: tuple[int, int]) -> str:
        return f"n{node[0]:02d}_{node[1]:02d}"

    edges = {
        f"{name(a)}->{name(b)}": (name(a), name(b), Polyline([nodes[a], nodes[b]]))
        for a, b in ends
    }
    graph = build_graph({name(n): p for n, p in nodes.items()}, edges)
    edge_ids = sorted(edges)
    signs = []
    for i in range(round(signs_per_edge * len(edge_ids))):
        a, b = edges[rng.choice(edge_ids)][2]
        ux, uy = (b.x - a.x) / spacing, (b.y - a.y) / spacing
        back, off = rng.uniform(0.0, spacing / 2), rng.uniform(0.5, 3.0)
        position = Point(b.x - ux * back + uy * off, b.y - uy * back - ux * off)
        signs.append(Sign(f"s{i:03d}", position, rng.choice(list(SignType)), rng.uniform(0, 360)))
    return graph, SignIndex(signs)


def _point(properties: dict, position: Point) -> dict:
    return {
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [position.x, position.y]},
        "properties": properties,
    }


def write_scene(graph: RoadGraph, index: SignIndex, directory: Path) -> tuple[Path, Path]:
    """Write a scene as the planar network and signs files the CLI reads."""
    features = [_point({"node_id": n.id}, n.position) for n in graph.nodes.values()]
    features += [
        {
            "type": "Feature",
            "geometry": {"type": "LineString", "coordinates": [[v.x, v.y] for v in e.geometry]},
            "properties": {
                "edge_id": e.id, "source_node": e.source, "target_node": e.destination,
                "opposite_id": e.opposite,
            },
        }
        for e in graph.edges.values()
    ]
    signs = [
        _point({"sign_id": s.id, "type": s.sign_type.value, "azimuth": s.azimuth}, s.position)
        for s in index.signs
    ]
    paths = directory / "network.geojson", directory / "signs.geojson"
    for path, collection in zip(paths, (features, signs)):
        document = {"type": "FeatureCollection", "coordinate_system": PLANAR_MARKER, "features": collection}
        path.write_text(json.dumps(document), encoding="utf-8")
    return paths
