"""Classified traffic signs and the row bands, one table per detector family,
that find them by position; a query reads one family.

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
Family = frozenset[SignType]  # the sign types one query reads: one of the two above


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

    Each detector family (they split the catalogue) has its own table, where
    each ``CELL``-meter-high band of y holds the ``(x, y, rank)`` of its signs
    sorted by x, and their xs; ``rank`` is the sign's place in the id-ordered
    ``signs``. A query names one family, ``NODE_SIGN_TYPES`` or
    ``EDGE_SIGN_TYPES``, and reads only that family's table. Its result is
    sorted by id and always equals a linear scan over the signs of the family.
    """

    def __init__(self, signs: Iterable[Sign]):
        ordered = sorted(signs, key=lambda s: id_sort_key(s.id))
        for a, b in zip(ordered, ordered[1:]):
            if a.id == b.id:
                raise ValueError(f"duplicate sign id {shown(a.id)}")
        self.signs: tuple[Sign, ...] = tuple(ordered)
        tables: dict[Family, dict[int, list]] = {NODE_SIGN_TYPES: {}, EDGE_SIGN_TYPES: {}}
        for rank, s in enumerate(self.signs):
            rows = tables[NODE_SIGN_TYPES if s.sign_type in NODE_SIGN_TYPES else EDGE_SIGN_TYPES]
            rows.setdefault(math.floor(s.position.y / CELL), []).append((*s.position, rank))
        # family -> band -> (xs, (x, y, rank) of each sign in it), both sorted by x
        self._tables: dict[Family, dict] = {}
        for family, rows in tables.items():
            bands = {j: sorted(row) for j, row in rows.items()}
            self._tables[family] = {j: ([x for x, _, _ in b], b) for j, b in bands.items()}

    def _in_box(self, x0: float, y0: float, x1: float, y1: float, family: Family) -> list[int]:
        """Sorted ranks of the signs of ``family`` in the closed box [x0, x1] x [y0, y1].

        A box taller than the family's bands (a 2,000 km edge, a radius of 1e308)
        takes one pass over its occupied bands, not a walk over mostly empty ones.
        """
        bands, ranks = self._tables[family], []
        if (y1 - y0) / CELL + 1.0 > len(bands):
            found = bands.values()
        else:
            # floor is monotone, so every sign inside the box is in these bands
            found = []
            for j in range(math.floor(y0 / CELL), math.floor(y1 / CELL) + 1):
                if band := bands.get(j):
                    found.append(band)
        for xs, row in found:
            lo = bisect_left(xs, x0)
            if lo < len(xs) and xs[lo] <= x1:  # most bands hold no sign in [x0, x1]
                for _, y, rank in row[lo:bisect_right(xs, x1, lo)]:
                    if y0 <= y <= y1:
                        ranks.append(rank)
        ranks.sort()
        return ranks

    def signs_within(self, p: Point, r: float, family: Family) -> list[Sign]:
        """Signs of ``family`` at distance <= r from ``p``, sorted by id."""
        if not r > 0:  # a NaN radius fails too
            raise ValueError("radius must be positive")
        if not self.signs:
            return []
        signs = self.signs
        ranks = self._in_box(p.x - r, p.y - r, p.x + r, p.y + r, family)
        return [signs[rank] for rank in ranks if distance(signs[rank].position, p) <= r]

    def signs_within_line(self, line: Polyline, r: float, family: Family) -> list[tuple[Sign, float]]:
        """``(sign, arc)`` of the signs of ``family`` at distance <= r from ``line``, by id.

        ``(distance, arc)`` is ``line.nearest(sign.position)``.
        """
        if not r > 0:  # a NaN radius fails too
            raise ValueError("radius must be positive")
        if not self.signs:
            return []
        if len(line) == 2:  # a straight edge: no zip, no min or max call
            (ax, ay), (bx, by) = line
            x0, x1 = (ax, bx) if ax < bx else (bx, ax)
            y0, y1 = (ay, by) if ay < by else (by, ay)
        else:
            xs, ys = zip(*line)
            x0, y0, x1, y1 = min(xs), min(ys), max(xs), max(ys)
        signs, hits = self.signs, []
        for rank in self._in_box(x0 - r, y0 - r, x1 + r, y1 + r, family):
            d, arc = line.nearest(signs[rank].position)
            if d <= r:
                hits.append((signs[rank], arc))
        return hits
