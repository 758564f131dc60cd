"""Planar geometry: points, compass bearings, signed angles and length-indexed
polylines.

All coordinates are meters in a local planar frame (x east, y north). Compass
bearings are degrees clockwise from north in [0, 360); signed angles are
degrees in (-180, 180]. Every value is immutable after construction and every
operation is a pure function. Nothing here checks that a coordinate is finite:
``io`` checks each position once, where it is read from a file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

class Point(NamedTuple):
    """Planar position: x meters east, y meters north."""

    x: float
    y: float


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points in meters."""
    return math.hypot(b.x - a.x, b.y - a.y)


def heading(a: Point, b: Point) -> float:
    """Compass bearing of ``b`` as seen from ``a``.

    Degrees clockwise from north: 0 when b is due north of a, 90 when due
    east. Raises ValueError for coincident points (the bearing is undefined).
    """
    if a.x == b.x and a.y == b.y:
        raise ValueError("bearing undefined for coincident points")
    h = math.degrees(math.atan2(b.x - a.x, b.y - a.y)) % 360.0
    # float modulo can round up to the divisor itself
    return 0.0 if h == 360.0 else h


def normalize(theta: float) -> float:
    """Reduce an angle in degrees to the signed range (-180, 180]."""
    r = math.remainder(theta, 360.0)
    # IEEE remainder lands in [-180, 180]; fold the open end onto +180
    return r + 360.0 if r <= -180.0 else r


def angle(tip1: Point, tail: Point, tip2: Point) -> float:
    """Signed angle between the vectors tail->tip1 and tail->tip2.

    Result is in (-180, 180], negative when tip2 lies clockwise (to the
    right) of the tail->tip1 direction. Raises ValueError when either tip
    coincides with the tail.
    """
    return normalize(heading(tail, tip1) - heading(tail, tip2))


class Polyline(tuple[Point, ...]):
    """Directed polyline addressed by arc length from its first vertex.

    The line is the tuple of its vertices, ``Point``s in order, and holds
    nothing else. Zero-length segments are rejected at construction, so total
    length is always positive and the arc length from the start to each
    vertex never decreases (a segment too short to change the running sum
    repeats it). Arc lengths are summed from the start by each call that
    needs them, left to right, and never stored.
    """

    __slots__ = ()

    def __new__(cls, vertices: Iterable[Point | Sequence[float]]) -> Polyline:
        points = [v if isinstance(v, Point) else Point(v[0], v[1]) for v in vertices]
        line = super().__new__(cls, points)
        if len(line) < 2:
            raise ValueError("polyline needs at least two vertices")
        # for finite coordinates, equal points are exactly the zero-length segments. A
        # segment under about 1.5e-162 m still has a squared length of 0.0: see nearest
        for i in range(len(line) - 1):
            if line[i] == line[i + 1]:
                raise ValueError(f"zero-length segment at vertex {i}")
        return line

    @property
    def length(self) -> float:
        """Total arc length in meters."""
        total = 0.0
        for a, b in zip(self, self[1:]):
            total += distance(a, b)
        return total

    def project(self, d: float) -> Point:
        """Point at arc length ``d`` from the start; ``d`` is clamped to [0, length]."""
        if d <= 0.0:
            return self[0]
        start = 0.0
        for a, b in zip(self, self[1:]):
            end = start + distance(a, b)
            # the first segment that ends past d: where several vertices share
            # one sum, the last of them starts it
            if end > d:
                t = (d - start) / (end - start)
                return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
            start = end
        return self[-1]

    def nearest(self, p: Point) -> tuple[float, float]:
        """(distance, arc length) of the closest point to ``p``.

        Equidistant candidates resolve to the smallest arc length because the
        scan improves only on strictly smaller distances.
        """
        best_d = math.inf
        best_arc = start = 0.0
        for i in range(len(self) - 1):
            a, b = self[i], self[i + 1]
            if i:  # the arc length to a; a 2-vertex line never sums one
                start += distance(self[i - 1], a)
            abx, aby = b.x - a.x, b.y - a.y
            seg2 = abx * abx + aby * aby
            t = ((p.x - a.x) * abx + (p.y - a.y) * aby) / seg2 if seg2 else 0.0
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
            q = Point(a.x + t * abx, a.y + t * aby)
            d = math.hypot(q.x - p.x, q.y - p.y)
            if d < best_d:
                best_d = d
                best_arc = start + t * math.sqrt(seg2)
        return best_d, best_arc


@dataclass(frozen=True)
class LocalProjection:
    """Equirectangular lon/lat -> local planar meters around a fixed origin.

    Adequate at town scale where the thresholds of this package (tens of
    meters) dwarf the projection distortion.
    """

    lon0: float
    lat0: float

    EARTH_RADIUS = 6378137.0  # WGS84 semi-major axis
    METERS_PER_DEGREE = math.radians(1.0) * EARTH_RADIUS

    @classmethod
    def centered(cls, coordinates: Iterable[tuple[float, float]]) -> "LocalProjection":
        """Projection centered on the centroid of one or more (lon, lat) pairs.

        The sums are plain left-to-right float additions, not ``sum()``,
        which Python 3.12 made compensated: the centroid, and so every
        lon/lat result, is then the same on every supported version.
        """
        count, lon_total, lat_total = 0, 0.0, 0.0
        for lon, lat in coordinates:
            count += 1
            lon_total += lon
            lat_total += lat
        return cls(lon_total / count, lat_total / count)

    @cached_property
    def _cos_lat0(self) -> float:
        return math.cos(math.radians(self.lat0))

    def to_planar(self, lon: float, lat: float) -> Point:
        scale = self.METERS_PER_DEGREE
        return Point((lon - self.lon0) * scale * self._cos_lat0, (lat - self.lat0) * scale)
