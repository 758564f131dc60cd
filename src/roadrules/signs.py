"""Classified traffic signs and the row bands that find them by position.

A sign's azimuth is the compass travel direction of the traffic it addresses;
its face points against that direction, toward the oncoming driver. Signs and
the index are never written during a derivation; the rule a sign holds lives
in the run's ``DerivationState``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import shown
from .geometry import Point, Polyline, distance
from .ids import Identifier, id_sort_key

SignId = Identifier

CELL = 50.0  # height of one row band of the sign table, in meters


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


# Signs read at an intersection versus signs read while driving an edge.
NODE_SIGN_TYPES = frozenset({SignType.R101, SignType.R400A, SignType.R400B, SignType.R400C})
EDGE_SIGN_TYPES = frozenset({SignType.R302, SignType.R303, SignType.R400D, SignType.R400E})
ALL_SIGN_TYPES = frozenset(SignType)
Family = frozenset[SignType]  # the sign types one query reads


@dataclass(slots=True)
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
    """Immutable sign inventory with radius queries over row bands.

    Each ``CELL``-meter-high band of y holds the ``(x, y, rank)`` of its signs
    sorted by x, and their xs; ``rank`` is the sign's place in the id-ordered
    ``signs``. A query reads one family of sign types; its result is sorted by
    id and always equals a linear scan over that family's signs.
    """

    def __init__(self, signs: Iterable[Sign]):
        ordered = sorted(signs, key=lambda s: id_sort_key(s.id))
        for a, b in zip(ordered, ordered[1:]):
            if a.id == b.id:
                raise ValueError(f"duplicate sign id {shown(a.id)}")
        self.signs: tuple[Sign, ...] = tuple(ordered)
        rows: dict[int, list[tuple[float, float, int]]] = {}
        for rank, s in enumerate(self.signs):
            rows.setdefault(math.floor(s.position.y / CELL), []).append((*s.position, rank))
        for row in rows.values():
            row.sort()
        # band -> (xs, (x, y, rank) of each sign in it), both sorted by x
        self._bands = {j: ([x for x, _, _ in row], row) for j, row in rows.items()}

    def __len__(self) -> int:
        return len(self.signs)

    def __iter__(self):
        return iter(self.signs)

    def _in_box(self, x0: float, y0: float, x1: float, y1: float, types: Family) -> list[int]:
        """Sorted ranks of the signs of ``types`` in the closed box [x0, x1] x [y0, y1].

        A box taller than the table's bands (a 2,000 km edge, a radius of 1e308)
        takes one pass over the occupied bands, not a walk over mostly empty ones.
        """
        bands, signs = self._bands, self.signs
        if (y1 - y0) / CELL + 1.0 > len(bands):
            rows = [row for _, row in bands.values()]
        else:
            # floor is monotone, so every sign inside the box is in these bands
            rows = []
            for j in range(math.floor(y0 / CELL), math.floor(y1 / CELL) + 1):
                if band := bands.get(j):
                    rows.append(band[1][bisect_left(band[0], x0):bisect_right(band[0], x1)])
        ranks = []
        for row in rows:
            for x, y, rank in row:
                if x0 <= x <= x1 and y0 <= y <= y1 and signs[rank].sign_type in types:
                    ranks.append(rank)
        return sorted(ranks)

    def signs_within(self, p: Point, r: float, types: Family = ALL_SIGN_TYPES) -> list[Sign]:
        """Signs of ``types`` at distance <= r from ``p``, sorted by id."""
        if r <= 0:
            raise ValueError("radius must be positive")
        if not self.signs:
            return []
        signs = self.signs
        ranks = self._in_box(p.x - r, p.y - r, p.x + r, p.y + r, types)
        return [signs[rank] for rank in ranks if distance(signs[rank].position, p) <= r]

    def signs_within_line(
        self, line: Polyline, r: float, types: Family = ALL_SIGN_TYPES
    ) -> list[tuple[Sign, float]]:
        """``(sign, arc)`` of the signs of ``types`` at distance <= r from ``line``, by id.

        ``arc`` is ``line.index(sign.position)``, from the projection that gave the distance.
        """
        if r <= 0:
            raise ValueError("radius must be positive")
        if not self.signs:
            return []
        signs, hits = self.signs, []
        xs, ys = zip(*line.vertices)
        for rank in self._in_box(min(xs) - r, min(ys) - r, max(xs) + r, max(ys) + r, types):
            d, arc = line.nearest(signs[rank].position)
            if d <= r:
                hits.append((signs[rank], arc))
        return hits
