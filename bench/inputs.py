"""Seeded benchmark inputs, generated with the standard library only.

The generator deliberately does not use ``roadrules.scenarios``: a change to
the program must not be able to change the workload it is measured on.

Every workload is a square grid with 100 m spacing and explicit
``opposite_id`` pairs: 100x100 (39,600 directed edges) for ``bare-grid`` and
``dense-signs``, 60x60 (14,160) for ``lonlat-overlay``. ``dense-signs`` adds
0.3 signs per edge, ``lonlat-overlay`` places its signs the same way and
writes every coordinate as lon/lat. The only randomness is
``random.Random(seed).random()`` (and ``shuffle``), whose streams are stable
across Python versions, and floats are rounded before they are written, so a
seed names the same bytes everywhere.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Grid side per workload. lonlat-overlay is smaller so that one CLI run takes
# about as long as on the others (2-4 s): a 100x100 overlay run takes 6 s, so
# a run window holds too few children for a steady median.
SIDE = {"bare-grid": 100, "dense-signs": 100, "lonlat-overlay": 60}
SPACING = 100.0
SIGNS_PER_EDGE = 0.3
SIGN_TYPES = ("R-101", "R-302", "R-303", "R-400a", "R-400b", "R-400c", "R-400d", "R-400e")
SIGN_BACK_MAX = 30.0  # meters before the end node that a sign may stand
SIGN_SIDE = 3.0  # meters to the right of the travel direction
SIGN_JITTER = 4.0  # meters, uniform on each axis
PLANAR = "local-meters"
# Origin of the lon/lat rendering; any town-sized spot works.
LON0, LAT0 = 4.3517, 50.8503
EARTH_RADIUS = 6378137.0
WORKLOADS = tuple(SIDE)


@dataclass(frozen=True)
class Inputs:
    """What the benchmark knows about a generated input pair."""

    network: Path
    signs: Path
    edges: dict  # edge id -> (source node, target node)
    sign_types: dict  # sign id -> type code
    input_bytes: int
    digest: str  # sha256 over both files

    def describe(self) -> dict:
        return {
            "edges": len(self.edges),
            "signs": len(self.sign_types),
            "input_bytes": self.input_bytes,
            "input_sha256": self.digest,
        }


def _node_id(r: int, c: int) -> str:
    return f"n{r:03d}_{c:03d}"


def _grid_edges(side: int) -> list[tuple[str, str, tuple[float, float], tuple[float, float]]]:
    edges = []
    for r in range(side):
        for c in range(side):
            here = (c * SPACING, r * SPACING)
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 < side and c2 < side:
                    there = (c2 * SPACING, r2 * SPACING)
                    a, b = _node_id(r, c), _node_id(r2, c2)
                    edges.append((a, b, here, there))
                    edges.append((b, a, there, here))
    return edges


def _signs(rng: random.Random, edges: list) -> list[tuple[str, str, float, float, float]]:
    """Signs near the end of random edges: (id, type, x, y, azimuth)."""
    count = round(SIGNS_PER_EDGE * len(edges))
    signs = []
    for i in range(count):
        _, _, (x0, y0), (x1, y1) = edges[int(rng.random() * len(edges))]
        code = SIGN_TYPES[int(rng.random() * len(SIGN_TYPES))]
        length = math.hypot(x1 - x0, y1 - y0)
        ux, uy = (x1 - x0) / length, (y1 - y0) / length
        back = rng.random() * SIGN_BACK_MAX
        x = x1 - ux * back + uy * SIGN_SIDE + (2.0 * rng.random() - 1.0) * SIGN_JITTER
        y = y1 - uy * back - ux * SIGN_SIDE + (2.0 * rng.random() - 1.0) * SIGN_JITTER
        azimuth = rng.random() * 360.0
        signs.append((f"s{i:05d}", code, round(x, 3), round(y, 3), round(azimuth, 2)))
    return signs


def _lonlat(x: float, y: float) -> list[float]:
    scale = math.radians(1.0) * EARTH_RADIUS
    lon = LON0 + x / (scale * math.cos(math.radians(LAT0)))
    lat = LAT0 + y / scale
    return [round(lon, 9), round(lat, 9)]


def _collection(features: list, planar: bool) -> dict:
    document = {"type": "FeatureCollection", "features": features}
    if planar:
        document["coordinate_system"] = PLANAR
    return document


def generate(workload: str, seed: int, out_dir: Path) -> Inputs:
    """Write ``network.geojson`` and ``signs.geojson`` for a workload and seed."""
    if workload not in SIDE:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    side = SIDE[workload]
    edges = _grid_edges(side)
    planar = workload != "lonlat-overlay"
    coord = (lambda x, y: [x, y]) if planar else _lonlat

    features = [
        {
            "type": "Feature",
            "geometry": {"type": "Point", "coordinates": coord(c * SPACING, r * SPACING)},
            "properties": {"node_id": _node_id(r, c)},
        }
        for r in range(side)
        for c in range(side)
    ]
    features += [
        {
            "type": "Feature",
            "geometry": {"type": "LineString", "coordinates": [coord(*p), coord(*q)]},
            "properties": {
                "edge_id": f"{a}->{b}",
                "source_node": a,
                "target_node": b,
                "opposite_id": f"{b}->{a}",
            },
        }
        for a, b, p, q in edges
    ]
    if workload == "bare-grid":
        # Without signs the seed only permutes the features; the derived rules
        # must not depend on input order, so one pinned digest covers every seed.
        rng.shuffle(features)
        signs = []
    else:
        signs = _signs(rng, edges)
    sign_features = [
        {
            "type": "Feature",
            "geometry": {"type": "Point", "coordinates": coord(x, y)},
            "properties": {"sign_id": sign_id, "type": code, "azimuth": azimuth},
        }
        for sign_id, code, x, y, azimuth in signs
    ]

    out_dir.mkdir(parents=True, exist_ok=True)
    paths = (out_dir / "network.geojson", out_dir / "signs.geojson")
    digest = hashlib.sha256()
    size = 0
    for path, document in zip(paths, (_collection(features, planar), _collection(sign_features, planar))):
        data = json.dumps(document).encode("utf-8")
        path.write_bytes(data)
        digest.update(data)
        size += len(data)
    return Inputs(
        network=paths[0],
        signs=paths[1],
        edges={f"{a}->{b}": (a, b) for a, b, _, _ in edges},
        sign_types={sign_id: code for sign_id, code, *_ in signs},
        input_bytes=size,
        digest=digest.hexdigest(),
    )

