"""Everything about a sign that no run changes: the catalogue, the index
that finds signs by position, the two detectors and the exit scorers.

A sign's azimuth is the compass travel direction of the traffic it addresses;
its face points against that direction, toward the oncoming driver. The
index keeps one table of row bands per detector family, and a query reads one
family. Signs and the index are never written during a derivation; the rule
a sign holds lives in the run's ``DerivationState``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from .errors import InputError, shown
from .geometry import Point, Polyline, angle, distance, heading, normalize
from .ids import Identifier, id_sort_key
from .network import DirectedEdge, EdgeId, Node

SignId = Identifier

CELL = 50.0  # height of one row band of the sign table, in meters
NOMINAL_AHEAD = 10.0  # meters; fallback probe point along an edge


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
                raise InputError(f"duplicate sign id {shown(a.id)}")
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


@dataclass(frozen=True)
class DetectionConfig:
    """Detection thresholds in meters/degrees.

    node_radius: search radius around an intersection.
    edge_radius: search corridor around an edge's geometry.
    lookback: how far behind the sign's projection the observer stands.
    visibility_half_angle: max deviation between the observer->sign bearing
        and the sign's azimuth for the sign face to count as readable.
    """

    node_radius: float = 15.0
    edge_radius: float = 10.0
    lookback: float = 10.0
    visibility_half_angle: float = 80.0

    def __post_init__(self) -> None:
        for name in ("node_radius", "edge_radius", "lookback", "visibility_half_angle"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise InputError(f"{name} must be positive and finite")
        if self.visibility_half_angle >= 90.0:
            raise InputError("visibility_half_angle must be below 90 degrees")


def is_visible(observer: Point, sign: Sign, cfg: DetectionConfig) -> bool:
    """True when the sign's face is readable from ``observer``.

    An observer standing exactly on the sign position counts as seeing it.
    """
    if observer == sign.position:
        return True
    deviation = normalize(heading(observer, sign.position) - sign.azimuth)
    return abs(deviation) <= cfg.visibility_half_angle


def detect_signs_from(node: Node, index: SignIndex, cfg: DetectionConfig) -> list[Sign]:
    """Intersection-type signs visible from a node, sorted by sign id."""
    return [
        sign
        for sign in index.signs_within(node.position, cfg.node_radius, NODE_SIGN_TYPES)
        if is_visible(node.position, sign, cfg)
    ]


def detect_signs_along(edge: DirectedEdge, index: SignIndex, cfg: DetectionConfig) -> list[Sign]:
    """Pre-intersection signs visible while driving ``edge``, sorted by sign id.

    The observer stands ``lookback`` meters behind the sign's projection onto
    the edge. Signs projecting exactly onto the edge start or end belong to an
    intersection, not to this edge, and are discarded.
    """
    geometry = edge.geometry
    detected = []  # a loop: a comprehension costs about 250 ns more on every sign-free pop
    hits = index.signs_within_line(geometry, cfg.edge_radius, EDGE_SIGN_TYPES)
    length = geometry.length if hits else 0.0  # most pops have no hit, and sum no length
    for sign, arc in hits:
        if 0.0 < arc < length:
            if is_visible(geometry.project(max(0.0, arc - cfg.lookback)), sign, cfg):
                detected.append(sign)
    return detected


class ScoredEdge(NamedTuple):
    edge: EdgeId
    score: float


def best_no_way_edge(sign: Sign, node: Node, outgoing: list[DirectedEdge]) -> ScoredEdge | None:
    """Score every outgoing edge as the target of an entry-ban sign.

    The edge is probed at the sign's projection onto it (or a nominal point
    ahead when the sign sits behind the edge start); smaller angles between
    node->sign and node->probe score higher, and edges falling to the right
    of the sign are penalized.
    """
    if sign.position == node.position:
        return None
    best: ScoredEdge | None = None
    for edge in outgoing:
        geometry = edge.geometry
        sign_proj = geometry.nearest(sign.position)[1]
        if sign_proj <= 0.0:
            sign_proj = NOMINAL_AHEAD
        probe = geometry.project(sign_proj)
        if probe == node.position:
            continue
        alpha = angle(sign.position, node.position, probe)
        if alpha < -10.0:
            alpha -= 30.0
        score = 90.0 - abs(alpha)
        if best is None or score > best.score:
            best = ScoredEdge(edge.id, score)
    return best


# each scorer's offset, in degrees, of the bearing a sign type names
_OFFSETS = {
    SignType.R302: -90.0,  # turn scorer: -90 right, +90 left of the approach
    SignType.R303: 90.0,
    SignType.R400D: -90.0,
    SignType.R400E: 90.0,
    SignType.R400A: 90.0,  # one-way scorer: one way to the right of the addressed traffic
    SignType.R400B: -90.0,
    SignType.R400C: 0.0,
}


def best_no_turn_edge(
    sign: Sign, current: DirectedEdge, node: Node, outgoing: list[DirectedEdge]
) -> ScoredEdge | None:
    """Best candidate for the turn a restriction or mandatory-turn sign names.

    The approach vector runs from the sign's projection on the current edge
    to the node; each exit is probed 10 m in, offset by -90 (right) or +90
    (left), and scored by how exactly it matches the named turn.
    """
    geometry = current.geometry
    sign_proj = geometry.nearest(sign.position)[1]
    if sign_proj >= geometry.length:
        sign_proj = max(0.0, geometry.length - NOMINAL_AHEAD)
    back_point = geometry.project(sign_proj)
    if back_point == node.position:
        return None
    offset = _OFFSETS[sign.sign_type]
    best: ScoredEdge | None = None
    for edge in outgoing:
        probe = edge.geometry.project(NOMINAL_AHEAD)
        if probe == node.position:
            continue
        alpha = normalize(angle(back_point, node.position, probe) + offset)
        score = 60.0 - abs(alpha)
        if best is None or score > best.score:
            best = ScoredEdge(edge.id, score)
    return best


def best_one_way_edge(sign: Sign, node: Node, outgoing: list[DirectedEdge]) -> ScoredEdge | None:
    """Best exit for a one-way sign: the edge closest to the mandated bearing."""
    target = sign.azimuth + _OFFSETS[sign.sign_type]
    best: ScoredEdge | None = None
    for edge in outgoing:
        probe = edge.geometry.project(NOMINAL_AHEAD)
        if probe == node.position:
            continue
        deviation = normalize(target - heading(node.position, probe))
        score = 90.0 - abs(deviation)
        if best is None or score > best.score:
            best = ScoredEdge(edge.id, score)
    return best
