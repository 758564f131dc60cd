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
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "Point",
    "Polyline",
    "LocalProjection",
    "heading",
    "normalize",
    "angle",
    "distance",
]


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


class Polyline:
    """Directed polyline addressed by arc length from its first vertex.

    Zero-length segments are rejected at construction so cumulative lengths
    increase strictly; total length is always positive.
    """

    __slots__ = ("vertices", "_cumulative")

    def __init__(self, vertices: Iterable[Point | Sequence[float]]):
        points = [v if isinstance(v, Point) else Point(v[0], v[1]) for v in vertices]
        if len(points) < 2:
            raise ValueError("polyline needs at least two vertices")
        cumulative = [0.0]
        for i, (a, b) in enumerate(zip(points, points[1:])):
            step = distance(a, b)
            if step == 0.0:
                raise ValueError(f"zero-length segment at vertex {i}")
            cumulative.append(cumulative[-1] + step)
        self.vertices: tuple[Point, ...] = tuple(points)
        self._cumulative: tuple[float, ...] = tuple(cumulative)

    @property
    def length(self) -> float:
        """Total arc length in meters."""
        return self._cumulative[-1]

    def project(self, d: float) -> Point:
        """Point at arc length ``d`` from the start; ``d`` is clamped to [0, length]."""
        if d <= 0.0:
            return self.vertices[0]
        if d >= self.length:
            return self.vertices[-1]
        i = bisect_right(self._cumulative, d) - 1
        a, b = self.vertices[i], self.vertices[i + 1]
        t = (d - self._cumulative[i]) / (self._cumulative[i + 1] - self._cumulative[i])
        return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))

    def _nearest(self, p: Point) -> tuple[float, float, Point]:
        """(distance, arc length, point) of the closest point to ``p``.

        Equidistant candidates resolve to the smallest arc length because the
        scan improves only on strictly smaller distances.
        """
        best_d = math.inf
        best_arc = 0.0
        best_point = self.vertices[0]
        for i in range(len(self.vertices) - 1):
            a, b = self.vertices[i], self.vertices[i + 1]
            abx, aby = b.x - a.x, b.y - a.y
            seg2 = abx * abx + aby * aby
            t = ((p.x - a.x) * abx + (p.y - a.y) * aby) / seg2
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
            q = Point(a.x + t * abx, a.y + t * aby)
            d = math.hypot(q.x - p.x, q.y - p.y)
            if d < best_d:
                best_d = d
                best_arc = self._cumulative[i] + t * math.sqrt(seg2)
                best_point = q
        return best_d, best_arc, best_point

    def index(self, p: Point) -> float:
        """Arc length from the start to ``p``.

        Off-line points are measured at their closest point on the line; when
        several arc lengths are equally close the smallest one wins.
        """
        return self._nearest(p)[1]

    def closest(self, p: Point) -> Point:
        """The point on the line minimizing Euclidean distance to ``p``."""
        return self._nearest(p)[2]

    def distance_to(self, p: Point) -> float:
        """Distance from ``p`` to the line."""
        return self._nearest(p)[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Polyline({len(self.vertices)} vertices, {self.length:.3f} m)"


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
        """Projection centered on the centroid of (lon, lat) pairs.

        The sums are plain left-to-right float additions, not ``sum()``,
        which Python 3.12 made compensated: the centroid, and so every
        lon/lat result, is then the same on every supported version.
        """
        count, lon_total, lat_total = 0, 0.0, 0.0
        for lon, lat in coordinates:
            count += 1
            lon_total += lon
            lat_total += lat
        if not count:
            raise ValueError("cannot center a projection on zero coordinates")
        return cls(lon_total / count, lat_total / count)

    @cached_property
    def _cos_lat0(self) -> float:
        return math.cos(math.radians(self.lat0))

    def to_planar(self, lon: float, lat: float) -> Point:
        scale = self.METERS_PER_DEGREE
        return Point((lon - self.lon0) * scale * self._cos_lat0, (lat - self.lat0) * scale)
