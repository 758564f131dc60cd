"""Sign detectors: what a driver sees from an intersection and along an edge."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Point, heading, normalize
from .network import DirectedEdge, Node
from .signs import EDGE_SIGN_TYPES, NODE_SIGN_TYPES, Sign, SignIndex


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
                raise ValueError(f"{name} must be positive and finite")
        if self.visibility_half_angle >= 90.0:
            raise ValueError("visibility_half_angle must be below 90 degrees")


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
