"""Classified traffic signs and the table of 50 m cells that finds them by position.

A sign's azimuth is the compass travel direction of the traffic it addresses;
its face points against that direction, toward the oncoming driver. Signs and
the index are never written during a derivation; the rule a sign holds lives
in the run's ``DerivationState``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import shown
from .geometry import Point, Polyline, distance
from .ids import Identifier, id_sort_key

SignId = Identifier

CELL = 50.0  # side of one square cell of the sign table, in meters


class SignType(Enum):
    """The supported sign catalog, keyed by the European code painted on it."""

    R101 = "R-101"  # no way: forbids entering a road
    R302 = "R-302"  # no right turn
    R303 = "R-303"  # no left turn
    R400A = "R-400a"  # one way, to the right
    R400B = "R-400b"  # one way, to the left
    R400C = "R-400c"  # drive straight ahead
    R400D = "R-400d"  # mandatory right turn
    R400E = "R-400e"  # mandatory left turn

    @property
    def code(self) -> str:
        return self.value

    @classmethod
    def from_code(cls, code: str) -> "SignType":
        try:
            return cls(code)
        except ValueError:
            raise ValueError(f"unknown sign type code {shown(code)}") from None


# Signs read at an intersection versus signs read while driving an edge.
NODE_SIGN_TYPES = frozenset({SignType.R101, SignType.R400A, SignType.R400B, SignType.R400C})
EDGE_SIGN_TYPES = frozenset({SignType.R302, SignType.R303, SignType.R400D, SignType.R400E})


@dataclass
class Sign:
    id: SignId
    position: Point
    sign_type: SignType
    azimuth: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.azimuth):
            raise ValueError(f"non-finite azimuth {self.azimuth}")
        azimuth = self.azimuth % 360.0
        if azimuth == 360.0:
            azimuth = 0.0
        self.azimuth = azimuth


class SignIndex:
    """Immutable sign inventory with radius queries over a table of square cells.

    Each sign is filed under the ``CELL``-meter cell that holds its position.
    Query results are sorted by sign id and always equal what a linear scan
    over the inventory would return.
    """

    def __init__(self, signs: Iterable[Sign]):
        ordered = sorted(signs, key=lambda s: id_sort_key(s.id))
        for a, b in zip(ordered, ordered[1:]):
            if a.id == b.id:
                raise ValueError(f"duplicate sign id {shown(a.id)}")
        self.signs: tuple[Sign, ...] = tuple(ordered)
        # cell -> (x, y, sign) of each sign in it, in id order
        self._cells: dict[tuple[int, int], list[tuple[float, float, Sign]]] = {}
        for s in self.signs:
            x, y = s.position
            key = (math.floor(x / CELL), math.floor(y / CELL))
            self._cells.setdefault(key, []).append((x, y, s))

    def __len__(self) -> int:
        return len(self.signs)

    def __iter__(self):
        return iter(self.signs)

    def _in_box(self, min_x: float, min_y: float, max_x: float, max_y: float) -> list[Sign]:
        """Signs inside the closed box, from the cells it touches.

        A box that spans more cells than the table holds (a 2,000 km edge, a
        radius of 1e308) takes one pass over the occupied cells instead of a
        walk over its mostly empty ones.
        """
        cells = self._cells
        if ((max_x - min_x) / CELL + 1.0) * ((max_y - min_y) / CELL + 1.0) > len(cells):
            touched = cells.values()
        else:
            # floor is monotone, so every sign inside the box is in these cells
            x0, x1 = math.floor(min_x / CELL), math.floor(max_x / CELL)
            y0, y1 = math.floor(min_y / CELL), math.floor(max_y / CELL)
            touched = [cells.get((i, j), ()) for i in range(x0, x1 + 1) for j in range(y0, y1 + 1)]
        return [
            s
            for cell in touched
            for x, y, s in cell
            if min_x <= x <= max_x and min_y <= y <= max_y
        ]

    def signs_within(self, p: Point, r: float) -> list[Sign]:
        """Signs at distance <= r from ``p``, sorted by id."""
        if r <= 0:
            raise ValueError("radius must be positive")
        if not self.signs:
            return []
        hits = [
            s
            for s in self._in_box(p.x - r, p.y - r, p.x + r, p.y + r)
            if distance(s.position, p) <= r
        ]
        hits.sort(key=lambda s: id_sort_key(s.id))
        return hits

    def signs_within_line(self, line: Polyline, r: float) -> list[Sign]:
        """Signs at distance <= r from ``line``, sorted by id."""
        if r <= 0:
            raise ValueError("radius must be positive")
        if not self.signs:
            return []
        xs = [v.x for v in line.vertices]
        ys = [v.y for v in line.vertices]
        hits = [
            s
            for s in self._in_box(min(xs) - r, min(ys) - r, max(xs) + r, max(ys) + r)
            if line.distance_to(s.position) <= r
        ]
        hits.sort(key=lambda s: id_sort_key(s.id))
        return hits
