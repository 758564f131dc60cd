"""Classified traffic signs and the spatial index over their positions.

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
from .spatial import RectTree

SignId = Identifier


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
    """Immutable sign inventory with radius queries accelerated by a rectangle tree.

    Query results are sorted by sign id and always equal what a linear scan
    over the inventory would return.
    """

    def __init__(self, signs: Iterable[Sign]):
        ordered = sorted(signs, key=lambda s: id_sort_key(s.id))
        for a, b in zip(ordered, ordered[1:]):
            if a.id == b.id:
                raise ValueError(f"duplicate sign id {shown(a.id)}")
        self.signs: tuple[Sign, ...] = tuple(ordered)
        self._tree = RectTree([(s.position.x, s.position.y, s) for s in self.signs])

    def __len__(self) -> int:
        return len(self.signs)

    def __iter__(self):
        return iter(self.signs)

    def signs_within(self, p: Point, r: float) -> list[Sign]:
        """Signs at distance <= r from ``p``, sorted by id."""
        if r <= 0:
            raise ValueError("radius must be positive")
        hits = [
            s
            for s in self._tree.search(p.x - r, p.y - r, p.x + r, p.y + r)
            if distance(s.position, p) <= r
        ]
        hits.sort(key=lambda s: id_sort_key(s.id))
        return hits

    def signs_within_line(self, line: Polyline, r: float) -> list[Sign]:
        """Signs at distance <= r from ``line``, sorted by id."""
        if r <= 0:
            raise ValueError("radius must be positive")
        xs = [v.x for v in line.vertices]
        ys = [v.y for v in line.vertices]
        hits = [
            s
            for s in self._tree.search(min(xs) - r, min(ys) - r, max(xs) + r, max(ys) + r)
            if line.distance_to(s.position) <= r
        ]
        hits.sort(key=lambda s: id_sort_key(s.id))
        return hits
