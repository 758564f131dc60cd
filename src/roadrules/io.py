"""File formats: GeoJSON network/sign ingestion, rule documents, ground-truth
validation and debug overlays.

Planar inputs mark themselves with a top-level ``"coordinate_system":
"local-meters"`` member; without it, coordinates are treated as RFC 7946
lon/lat and projected to local meters around the dataset centroid. All
outputs are deterministic byte-for-byte for identical inputs.

Every value read from a file is checked once, here, where it enters, and a
bad one is reported with the feature or entry that holds it: ``_position``
checks each coordinate, and the loaders check ids and their uniqueness. The
layers below (``geometry``, ``network``) take the checked values as given.
"""

from __future__ import annotations

import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, TextIO

from .errors import GraphError, InputError, shown
from .geometry import LocalProjection, Point, Polyline
from .ids import id_sort_key
from .navigator import DerivationResult
from .network import EdgeId, RoadGraph, build_graph
from .rules import NoWayRule, OneWayRule
from .signs import Sign, SignIndex, SignType

logger = logging.getLogger("roadrules")

PLANAR_MARKER = "local-meters"
PLANAR_BOUND = 1e9  # meters; the largest planar coordinate a file may hold
_FLOAT_MAX = sys.float_info.max


def _read_json(path: str | Path) -> Any:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # also an integer past the int-string digit limit
        raise InputError(f"{path}: malformed JSON: {exc}") from exc


# compact and key-sorted; ``encode`` is one-shot, so it runs in CPython's C encoder
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False, separators=(",", ":"))


def dump_json(document: Any, stream: TextIO) -> None:
    """Write ``document`` to ``stream`` in the one output encoding.

    Compact JSON with sorted keys, ending in a newline. Each element of an
    array member of a top-level object (whose keys are strings, as in every
    document this package writes) goes on its own line, so a feature
    collection or rule family is written one element at a time: the text of
    the whole document is never held at once. (One ``encode`` of the whole
    lonlat-overlay benchmark overlay, 4.1 MB, raises that run's peak RSS from
    54 to 66 MB.)
    """
    encode = _ENCODER.encode
    if not isinstance(document, dict):
        stream.write(encode(document))
    else:
        stream.write("{")
        for n, key in enumerate(sorted(document)):
            value = document[key]
            stream.write(f"{',' if n else ''}{encode(key)}:")
            if isinstance(value, list) and value:
                separator = "[\n"
                for element in value:
                    stream.write(separator)
                    stream.write(encode(element))
                    separator = ",\n"
                stream.write("\n]")
            else:
                stream.write(encode(value))
        stream.write("}")
    stream.write("\n")


def write_json(document: Any, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        dump_json(document, handle)


def _feature_collection(document: Any, path: str | Path) -> list[dict]:
    if not isinstance(document, dict) or document.get("type") != "FeatureCollection":
        raise InputError(f"{path}: expected a GeoJSON FeatureCollection")
    features = document.get("features")
    if not isinstance(features, list):
        raise InputError(f"{path}: FeatureCollection without a features array")
    return features


def _is_planar(document: dict) -> bool:
    return document.get("coordinate_system") == PLANAR_MARKER


def _bad_coordinates(source: str | Path, i: int, exc: Exception) -> InputError:
    if isinstance(exc, ValueError):
        detail = str(exc)
    else:
        detail = "missing or malformed coordinates"
    return InputError(f"{source}: feature {i}: {detail}")


def _feature_parts(feature: Any, source: str | Path, i: int) -> tuple[dict, dict]:
    """A feature's geometry and properties objects; null or absent reads as empty."""
    if not isinstance(feature, dict):
        raise InputError(f"{source}: feature {i}: not a JSON object")
    geometry = feature.get("geometry") or {}
    properties = feature.get("properties") or {}
    if not isinstance(geometry, dict):
        raise InputError(f"{source}: feature {i}: geometry is not a JSON object")
    if not isinstance(properties, dict):
        raise InputError(f"{source}: feature {i}: properties is not a JSON object")
    return geometry, properties


def _is_finite(value: Any, bound: float = _FLOAT_MAX) -> bool:
    """True for a JSON number within ±``bound``.

    A JSON number parses to exactly int or float (true and false to bool);
    the comparison is exact for an int of any size, and false for NaN.
    """
    return type(value) in (int, float) and abs(value) <= bound


def _is_id(value: Any) -> bool:
    return isinstance(value, str) or _is_finite(value)


def _is_id_list(value: Any) -> bool:
    return isinstance(value, list) and all(map(_is_id, value))


def _check_id(value: Any, name: str, source: str | Path, i: int) -> None:
    if not _is_id(value):
        raise InputError(f"{source}: feature {i}: {name} must be a string or a finite number")


def _positions(raw: Any, planar: bool, point: Callable[[Any, Any], Any]) -> list:
    """``point(x, y)`` of each GeoJSON position in ``raw``.

    The one check of a loaded coordinate, made before any arithmetic: a JSON
    number (not ``true``/``false``) within its frame's bound, ±1e9 m planar
    or ±180/±90 lon/lat, so that no length or projection can overflow.
    """
    if planar:
        name, bound_x, bound_y = "coordinates", PLANAR_BOUND, PLANAR_BOUND
    else:
        name, bound_x, bound_y = "lon/lat", 180.0, 90.0
    points = []
    for position in raw:
        x, y = position[0], position[1]
        if not (_is_finite(x, bound_x) and _is_finite(y, bound_y)):
            raise ValueError(f"{name} ({shown(x)}, {shown(y)}) out of range or not numbers")
        points.append(point(x, y))
    return points


def _read_feature(feature: Any, source: str | Path, i: int, planar: bool, point) -> tuple:
    """A feature's geometry type, properties and the ``_positions`` of its
    Point or LineString."""
    geometry, properties = _feature_parts(feature, source, i)
    kind = geometry.get("type")
    points: list = []
    if kind in ("Point", "LineString"):
        try:
            raw = geometry["coordinates"]
            points = _positions([raw] if kind == "Point" else raw, planar, point)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise _bad_coordinates(source, i, exc) from exc
    return kind, properties, points


def _read_features(
    features: list, source: str | Path, planar: bool, projection: LocalProjection | None = None
) -> tuple[Iterable[tuple[Any, dict, list[Point]]], LocalProjection | None]:
    """(geometry type, properties, planar points) of each feature, and the projection.

    Features are read one at a time as the caller iterates, so that a large
    file is not held twice, except that lon/lat ones without a ``projection``
    are all read first, to center one on the centroid of their positions,
    summed in feature order.
    """
    if planar or projection is not None:
        point = Point if planar else projection.to_planar
        read = (_read_feature(f, source, i, planar, point) for i, f in enumerate(features))
        return read, projection
    read = [_read_feature(f, source, i, planar, lambda x, y: (x, y)) for i, f in enumerate(features)]
    positions = [p for _, _, points in read for p in points]
    if not positions:
        return read, None
    projection = LocalProjection.centered(positions)
    to_planar = projection.to_planar
    projected = ((kind, props, [to_planar(x, y) for x, y in points]) for kind, props, points in read)
    return projected, projection


def network_from_document(document: dict, source: str | Path = "<network>") -> RoadGraph:
    """Build a road graph from a parsed network FeatureCollection.

    LineString features carry properties ``edge_id``, ``source_node``,
    ``target_node`` and optional ``opposite_id``; Point features carry
    ``node_id``. Node positions missing from the Point features are inferred
    from edge endpoints.
    """
    planar = _is_planar(document)
    features, projection = _read_features(_feature_collection(document, source), source, planar)
    if projection is None and not planar:
        raise InputError(f"{source}: no coordinates to center a projection on")

    node_positions: dict = {}
    edges: dict[EdgeId, tuple[Any, Any, Polyline]] = {}
    edge_feature_index: dict[EdgeId, int] = {}
    opposite_pairs: list[tuple[EdgeId, EdgeId]] = []

    for i, (kind, properties, points) in enumerate(features):
        if kind == "Point":
            node_id = properties.get("node_id")
            if node_id is None:
                raise InputError(f"{source}: feature {i}: Point without node_id")
            _check_id(node_id, "node_id", source, i)
            if node_id in node_positions:
                raise InputError(f"{source}: feature {i}: duplicate node_id {shown(node_id)}")
            node_positions[node_id] = points[0]
        elif kind == "LineString":
            edge_id = properties.get("edge_id")
            src = properties.get("source_node")
            dst = properties.get("target_node")
            if edge_id is None or src is None or dst is None:
                raise InputError(
                    f"{source}: feature {i}: LineString needs edge_id, source_node, target_node"
                )
            _check_id(edge_id, "edge_id", source, i)
            _check_id(src, "source_node", source, i)
            _check_id(dst, "target_node", source, i)
            if edge_id in edge_feature_index:
                raise InputError(
                    f"{source}: duplicate edge_id {shown(edge_id)} in features "
                    f"{edge_feature_index[edge_id]} and {i}"
                )
            try:
                line = Polyline(points)
            except ValueError as exc:
                raise _bad_coordinates(source, i, exc) from exc
            edge_feature_index[edge_id] = i
            edges[edge_id] = (src, dst, line)
            opposite = properties.get("opposite_id")
            if opposite is not None:
                _check_id(opposite, "opposite_id", source, i)
                opposite_pairs.append((edge_id, opposite))
        else:
            raise InputError(f"{source}: feature {i}: unsupported geometry type {shown(kind)}")

    # fall back to edge endpoints for nodes the Point features do not cover
    for src, dst, line in edges.values():
        node_positions.setdefault(src, line.vertices[0])
        node_positions.setdefault(dst, line.vertices[-1])

    try:
        return build_graph(node_positions, edges, opposite_pairs or None, projection=projection)
    except GraphError as exc:
        raise InputError(f"{source}: {exc}") from exc


def load_network(path: str | Path) -> RoadGraph:
    """Read a network GeoJSON file into a validated road graph."""
    return network_from_document(_read_json(path), path)


def signs_from_document(
    document: dict,
    source: str | Path = "<signs>",
    network: RoadGraph | None = None,
) -> list[Sign]:
    """Parse sign Point features (properties sign_id, type, azimuth).

    Unknown type codes are rejected with a logged warning instead of failing
    the whole file; missing fields, and an azimuth that is not a finite JSON
    number, are errors. With a ``network``, the signs must be in its
    coordinate frame, and lon/lat signs reuse its projection; without one,
    lon/lat signs are projected around their own centroid.
    """
    planar = _is_planar(document)
    projection = None
    if network is not None:
        projection = network.projection
        if planar != (projection is None):
            raise InputError(
                f"{source}: signs are {'planar' if planar else 'lon/lat'} but the "
                f"network is {'lon/lat' if planar else 'planar'}"
            )
    features, _ = _read_features(_feature_collection(document, source), source, planar, projection)
    signs: list[Sign] = []
    seen: dict = {}
    for i, (kind, properties, points) in enumerate(features):
        if kind != "Point":
            raise InputError(f"{source}: feature {i}: signs must be Point features")
        sign_id = properties.get("sign_id")
        code = properties.get("type")
        azimuth = properties.get("azimuth")
        if sign_id is None or code is None or azimuth is None:
            raise InputError(f"{source}: feature {i}: sign needs sign_id, type, azimuth")
        _check_id(sign_id, "sign_id", source, i)
        if sign_id in seen:
            raise InputError(
                f"{source}: duplicate sign_id {shown(sign_id)} in features {seen[sign_id]} and {i}"
            )
        seen[sign_id] = i
        try:
            sign_type = SignType.from_code(code)
        except ValueError:
            logger.warning("%s: feature %d: skipping sign %s with unknown type %s",
                           source, i, shown(sign_id), shown(code))
            continue
        if not _is_finite(azimuth):
            raise InputError(f"{source}: feature {i}: bad azimuth {shown(azimuth)}")
        signs.append(Sign(sign_id, points[0], sign_type, azimuth))
    return signs


def load_signs(path: str | Path, network: RoadGraph | None = None) -> list[Sign]:
    """Read a signs GeoJSON file; pass the network the signs belong to."""
    return signs_from_document(_read_json(path), path, network)


# The fields of each rule family's entries and the check each value passes;
# a family's entries are sorted by their first field, then by sign.
RULE_FIELDS = {
    "no_way": {"edge": _is_id, "sign": _is_id, "score": _is_finite},
    "one_way": {"chosen": _is_id, "banned": _is_id_list, "sign": _is_id, "score": _is_finite},
    "no_turn": {"from": _is_id, "banned_to": _is_id_list, "sign": _is_id, "score": _is_finite},
}


def rules_document(result: DerivationResult) -> dict:
    """Serialize a derivation result to the rule-document schema."""
    document: dict = {family: [] for family in RULE_FIELDS}
    for record in result.rules:
        rule = record.rule
        if isinstance(rule, NoWayRule):
            family, entry = "no_way", {"edge": rule.banned_edge}
        elif isinstance(rule, OneWayRule):
            banned = sorted(rule.banned_edges, key=id_sort_key)
            family, entry = "one_way", {"chosen": rule.chosen, "banned": banned}
        else:
            banned = sorted(rule.banned_to, key=id_sort_key)
            family, entry = "no_turn", {"from": rule.from_edge, "banned_to": banned}
        document[family].append(dict(entry, sign=record.sign_id, score=record.score))
    for family, (first, *_) in RULE_FIELDS.items():
        document[family].sort(key=lambda e: (id_sort_key(e[first]), id_sort_key(e["sign"])))
    document["unreached"] = sorted(result.unreached_edges, key=id_sort_key)
    return document


def write_rules(result: DerivationResult, path: str | Path) -> dict:
    """Write the rule document of ``result`` and return it."""
    document = rules_document(result)
    write_json(document, path)
    return document


def load_rules(path: str | Path) -> dict:
    """Read a rule document, checking every entry once, where it enters."""
    document = _read_json(path)
    if not isinstance(document, dict):
        raise InputError(f"{path}: expected a rule document object")
    for key in (*RULE_FIELDS, "unreached"):
        if not isinstance(document.get(key), list):
            raise InputError(f"{path}: rule document is missing the {key!r} array")
    if not _is_id_list(document["unreached"]):
        raise InputError(f"{path}: 'unreached' must hold only strings or numbers")
    for family, fields in RULE_FIELDS.items():
        for i, entry in enumerate(document[family]):
            if not isinstance(entry, dict):
                raise InputError(f"{path}: {family} entry {i} is not a JSON object")
            for field, check in fields.items():
                if not check(entry.get(field)):
                    raise InputError(f"{path}: {family} entry {i}: bad or missing {field!r}")
    return document


@dataclass(frozen=True)
class GroundTruth:
    """Externally sourced one-way and turn-restriction facts."""

    one_way_banned_edges: frozenset[EdgeId]
    turn_restrictions: frozenset[tuple[EdgeId, EdgeId]]


def load_ground_truth(path: str | Path) -> GroundTruth:
    document = _read_json(path)
    if not isinstance(document, dict):
        raise InputError(f"{path}: expected a ground-truth object")
    banned = document.get("one_way_banned_edges", [])
    pairs = document.get("turn_restrictions", [])
    if not _is_id_list(banned):
        raise InputError(f"{path}: one_way_banned_edges must be a list of strings or numbers")
    if not (isinstance(pairs, list) and all(_is_id_list(p) and len(p) == 2 for p in pairs)):
        raise InputError(f"{path}: turn_restrictions entries must be [from, to] pairs")
    return GroundTruth(frozenset(banned), frozenset(map(tuple, pairs)))


@dataclass(frozen=True)
class FamilyAccuracy:
    total_mapped: int
    incorrect: int
    accuracy: float | None  # percent, 2 decimals; None when nothing was mapped


@dataclass(frozen=True)
class AccuracyReport:
    one_way: FamilyAccuracy
    turn: FamilyAccuracy

    def to_document(self) -> dict:
        def family(f: FamilyAccuracy) -> dict:
            return {
                "total_mapped": f.total_mapped,
                "incorrect": f.incorrect,
                "accuracy": f.accuracy,
            }

        return {
            "one_way_streets": family(self.one_way),
            "turn_restrictions": family(self.turn),
        }


def derived_rule_sets(rules: DerivationResult | dict) -> tuple[frozenset, frozenset]:
    """(globally banned edges, banned turn pairs) from a result or rule document."""
    if isinstance(rules, DerivationResult):
        rules = rules_document(rules)
    banned = {entry["edge"] for entry in rules["no_way"]}
    for entry in rules["one_way"]:
        banned.update(entry["banned"])
    pairs = {
        (entry["from"], to) for entry in rules["no_turn"] for to in entry["banned_to"]
    }
    return frozenset(banned), frozenset(pairs)


def _family_accuracy(derived: frozenset, truth: frozenset) -> FamilyAccuracy:
    total = len(derived)
    incorrect = len(derived - truth)
    if total == 0:
        return FamilyAccuracy(0, 0, None)
    return FamilyAccuracy(total, incorrect, round(100.0 * (total - incorrect) / total, 2))


def validate(rules: DerivationResult | dict, truth: GroundTruth) -> AccuracyReport:
    """Accuracy of derived rules against ground truth.

    Derived one-way bans are compared as edge sets and turn restrictions as
    (from, to) pairs; only incorrectly derived rules count against accuracy
    (completeness of the inputs is not measurable here).
    """
    banned, pairs = derived_rule_sets(rules)
    return AccuracyReport(
        one_way=_family_accuracy(banned, truth.one_way_banned_edges),
        turn=_family_accuracy(pairs, truth.turn_restrictions),
    )


def overlay_document(graph: RoadGraph, signs: Iterable[Sign], rules: dict) -> dict:
    """GeoJSON overlay: edges colored by status, signs with their rule linkage.

    Coordinates are emitted in the local planar frame the derivation ran in.
    """
    banned, _ = derived_rule_sets(rules)
    unreached = set(rules["unreached"])
    rule_by_sign: dict = {}
    for kind, fields in RULE_FIELDS.items():
        for entry in rules[kind]:
            linked = {field: entry[field] for field in fields if field != "sign"}
            rule_by_sign[entry["sign"]] = dict(linked, kind=kind)

    features = []
    for edge_id, edge in graph.edges.items():
        if edge_id in banned:
            status = "banned"
        elif edge_id in unreached:
            status = "unreached"
        else:
            status = "visited"
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "LineString",
                    "coordinates": [[v.x, v.y] for v in edge.geometry.vertices],
                },
                "properties": {"edge_id": edge_id, "status": status},
            }
        )
    for sign in sorted(signs, key=lambda s: id_sort_key(s.id)):
        linked = rule_by_sign.get(sign.id)
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [sign.position.x, sign.position.y]},
                "properties": {
                    "sign_id": sign.id,
                    "type": sign.sign_type.code,
                    "azimuth": sign.azimuth,
                    "rule": linked,
                    "score": linked["score"] if linked else None,
                },
            }
        )
    return {
        "type": "FeatureCollection",
        "coordinate_system": PLANAR_MARKER,
        "features": features,
    }


def render_overlay(
    result: DerivationResult | dict,
    graph: RoadGraph,
    signs: Iterable[Sign] | SignIndex,
    path: str | Path,
) -> None:
    """Write the inspection overlay for a completed derivation."""
    rules = rules_document(result) if isinstance(result, DerivationResult) else result
    write_json(overlay_document(graph, signs, rules), path)
