"""File formats: GeoJSON network/sign ingestion, rule documents, ground-truth
validation and debug overlays.

Planar inputs mark themselves with a top-level ``"coordinate_system":
"local-meters"`` member; without it, coordinates are treated as RFC 7946
lon/lat and projected to local meters around the dataset centroid. All
outputs are deterministic byte-for-byte for identical inputs.

A file enters through one loader and one JSON reader. A network or a signs
file goes through ``_load``, which streams it (``stream``), one feature at a
time from text read a chunk at a time, planar or lon/lat, wherever its
``coordinate_system`` sits, and hands any file the streamed reader declines
to ``_read_json``, the one reader of a whole file, which also reads each
rule document and ground truth. Every value read from a file is
checked once, here, where it enters, and a bad one is reported with the
feature or entry that holds it: ``_positions`` checks each coordinate, and
``_read_id`` each id. A fault in a network or a signs file, streamed or read
whole, gives one message:
``feature <i>: bad or missing '<property>'`` for a missing or ill-typed id,
sign ``type`` or ``azimuth`` (checked on a skipped sign too), ``duplicate
<property> <id> in features <a> and <b>`` for any id read twice, and
``feature <i>: unsupported geometry type <type>``. The layers below
(``geometry``, ``network``) take the checked values as given.
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO

from .errors import InputError, shown
from .geometry import LocalProjection, Point, Polyline
from .ids import id_sort_key, sorted_ids
from .navigator import DerivationResult
from .network import EdgeId, RoadGraph, build_graph
from .signs import Sign, SignType
from .stream import _Declined, _streamed_features

logger = logging.getLogger("roadrules")

PLANAR_MARKER = "local-meters"
PLANAR_BOUND = 1e9  # meters; the largest planar coordinate a file may hold
_FLOAT_MAX = sys.float_info.max


def feature(kind: str, coordinates: list, **properties: Any) -> dict:
    """A GeoJSON feature with a ``kind`` geometry (``Point``, ``LineString``)."""
    geometry = {"type": kind, "coordinates": coordinates}
    return {"type": "Feature", "geometry": geometry, "properties": properties}


def planar_collection(features: list | Iterator) -> dict:
    """A FeatureCollection of ``features`` (a list or an iterator) in the local planar frame."""
    return {"type": "FeatureCollection", "coordinate_system": PLANAR_MARKER, "features": features}


def _read_json(path: str | Path) -> Any:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        # a pass that keeps no object fails as the parse would, building nothing
        json.loads(text, object_pairs_hook=lambda pairs: None)
        return json.loads(text)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # before ValueError, its base class
        raise InputError(f"{path}: not UTF-8: {exc}") from exc
    # ValueError: also an integer past the int-string digit limit;
    # RecursionError: arrays or objects nested past the interpreter's depth
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: malformed JSON: {exc}") from exc


# compact and key-sorted; ``encode`` is one-shot, so it runs in CPython's C encoder
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False, separators=(",", ":"))


def dump_json(document: dict, stream: TextIO) -> None:
    """Write the object ``document``, keyed by strings, to ``stream`` in the
    one output encoding.

    Compact JSON with sorted keys, ending in a newline. Each element of an
    array member goes on its own line, so a feature collection or rule family
    is written one element at a time: the text of the whole document is never
    held at once. (One ``encode`` of the whole lonlat-overlay benchmark
    overlay, 4.1 MB, raises that run's peak RSS from 54 to 66 MB.) A member
    may also be an iterator, such as the features ``overlay_document``
    produces: it is written as the array of the elements it yields, each
    encoded as it comes, and as ``[]`` when it yields none, so the bytes are
    those of the same member as a list.
    """
    encode = _ENCODER.encode
    stream.write("{")
    for n, key in enumerate(sorted(document)):
        value = document[key]
        stream.write(f"{',' if n else ''}{encode(key)}:")
        if isinstance(value, (list, Iterator)):
            separator = "[\n"
            for element in value:
                stream.write(separator)
                stream.write(encode(element))
                separator = ",\n"
            stream.write("[]" if separator == "[\n" else "\n]")
        else:
            stream.write(encode(value))
    stream.write("}\n")


def write_json(document: dict, path: str | Path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            dump_json(document, handle)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _feature_collection(document: Any, path: str | Path) -> Iterator:
    """The features, taken out of ``document`` (a document is read once) and
    each dropped as it is taken."""
    if not isinstance(document, dict) or document.get("type") != "FeatureCollection":
        raise InputError(f"{path}: expected a GeoJSON FeatureCollection")
    features = document.pop("features", None)
    if isinstance(features, list):
        return _taken(features)
    if isinstance(features, Iterator):  # ``_streamed_features``
        return features
    raise InputError(f"{path}: FeatureCollection without a features array")


def _is_planar(document: dict) -> bool:
    return document.get("coordinate_system") == PLANAR_MARKER


def _bad_coordinates(source: str | Path, i: int, exc: Exception) -> InputError:
    if isinstance(exc, ValueError):
        detail = str(exc)
    else:
        detail = "missing or malformed coordinates"
    return InputError(f"{source}: feature {i}: {detail}")


def _is_finite(value: Any) -> bool:
    """True for a JSON number within ±``_FLOAT_MAX``.

    A JSON number parses to exactly int or float (true and false to bool);
    the comparison is exact for an int of any size, and false for NaN.
    """
    return type(value) in (int, float) and abs(value) <= _FLOAT_MAX


def _is_id(value: Any) -> bool:
    return isinstance(value, str) or _is_finite(value)


def _is_id_list(value: Any) -> bool:
    return isinstance(value, list) and all(map(_is_id, value))


def _bad_property(source: str | Path, i: int, name: str) -> InputError:
    return InputError(f"{source}: feature {i}: bad or missing {name!r}")


def _read_id(properties: dict, name: str, intern: Callable, source: str | Path, i: int) -> Any:
    """The id ``properties[name]``: a string, as ``intern(value, value)`` gives
    it, or a finite JSON number, as read."""
    value = properties.get(name)
    if type(value) is str:  # the common case first: every string is an id
        return intern(value, value)
    if _is_finite(value):
        return value
    raise _bad_property(source, i, name)


def _as_read(value: Any, _: Any) -> Any:
    """An ``intern`` for ``_read_id`` that shares nothing."""
    return value


def _duplicate(source: str | Path, name: str, value: Any, first: int, i: int) -> InputError:
    return InputError(f"{source}: duplicate {name} {shown(value)} in features {first} and {i}")


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
        # ``_is_finite`` of each, written out: this runs once per vertex
        if not (
            type(x) in (int, float) and abs(x) <= bound_x
            and type(y) in (int, float) and abs(y) <= bound_y
        ):
            raise ValueError(f"{name} ({shown(x)}, {shown(y)}) out of range or not numbers")
        points.append(point(x, y))
    return points


def _read_feature(
    feature: Any, source: str | Path, i: int, kinds: tuple, planar: bool, point
) -> tuple:
    """A feature's geometry type, one of ``kinds``, its properties and the
    ``_positions`` of its geometry; a null or absent geometry or properties
    reads as empty."""
    if not isinstance(feature, dict):
        raise InputError(f"{source}: feature {i}: not a JSON object")
    geometry = {} if feature.get("geometry") is None else feature["geometry"]
    properties = {} if feature.get("properties") is None else feature["properties"]
    if not isinstance(geometry, dict):
        raise InputError(f"{source}: feature {i}: geometry is not a JSON object")
    if not isinstance(properties, dict):
        raise InputError(f"{source}: feature {i}: properties is not a JSON object")
    kind = geometry.get("type")
    if kind not in kinds:
        raise InputError(f"{source}: feature {i}: unsupported geometry type {shown(kind)}")
    try:
        raw = geometry["coordinates"]
        points = _positions([raw] if kind == "Point" else raw, planar, point)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise _bad_coordinates(source, i, exc) from exc
    return kind, properties, points


def _taken(items: list) -> Iterator:
    """The items of ``items`` in order, each dropped from the list as it is taken."""
    items.reverse()
    while items:
        yield items.pop()


def _shared_points(point: Callable[[Any, Any], Point]) -> Callable[[Any, Any], Point]:
    """``point``, made once per exact position: a position read again gets
    the Point made for it the first time.

    Only a position of two non-zero floats is shared, because for those equal
    means the same bits. Ints and zeros are made as read: ``1 == 1.0`` and
    ``0 == 0.0 == -0.0``, but an output writes each back as it was read.
    """
    made: dict = {}

    def shared_point(x: Any, y: Any) -> Point:
        if type(x) is float and type(y) is float and x and y:
            key = x, y
            shared = made.get(key)
            if shared is None:
                shared = made[key] = point(x, y)
            return shared
        return point(x, y)

    return shared_point


def network_from_document(document: dict, source: str | Path = "<network>") -> RoadGraph:
    """Build a road graph from a parsed network FeatureCollection.

    LineString features carry properties ``edge_id``, ``source_node``,
    ``target_node`` and optional ``opposite_id``; Point features carry
    ``node_id``. ``build_graph`` places a node no Point feature holds at the
    first edge endpoint that names it.

    The document's features are consumed: each is dropped as it is read, so
    the graph is built in the memory the document frees, and the features
    array is gone afterwards, even when a feature is rejected. Reading the
    document again raises ``InputError``; a caller that reuses a document
    passes a copy. ``features`` may also be an iterator, as ``load_network``
    passes for a streamed file, whose features are decoded as they are read.

    The graph holds each id and each position once: an edge's ``source`` and
    ``destination`` are its nodes' own ``id`` objects, its ``opposite`` is the
    paired edge's ``id``, and a vertex at a node is that node's ``position``.
    Only values that are the same bits are shared: string ids, and positions
    of two non-zero floats. Numeric ids and positions with an int or a zero
    are kept as read, since ``1 == 1.0`` and ``0 == 0.0 == -0.0`` but the
    outputs write each as it was read.
    """
    features = _feature_collection(document, source)
    planar = _is_planar(document)
    # the string ids read so far: an equal one read later is replaced by the
    # first, so the graph holds each id once (as it does each position). A
    # numeric id is kept as read, since ``1 == 1.0``.
    intern = {}.setdefault
    point = _shared_points(Point)
    if not planar:
        # a lon/lat network is read as lon/lat points and projected once all
        # are read, centered on them in feature order. Each point is made of
        # floats, so ``10`` and ``10.0`` share one, as both project to the
        # same bits; a zero still does not, as ``-0.0 - 0.0`` is ``-0.0``.
        shared_lonlat = point

        def point(x: Any, y: Any) -> Point:
            return shared_lonlat(float(x), float(y))

    node_positions: dict = {}
    edges: dict[EdgeId, tuple[Any, Any, Polyline]] = {}
    opposites: dict[EdgeId, EdgeId] = {}
    # whether each feature is an edge: with the order of its kind's dict, it
    # names a duplicate's first feature, as a node and an edge may share an id
    is_edge = bytearray()

    def first(edge: bool, feature_id: Any) -> int:
        k = list(edges if edge else node_positions).index(feature_id)
        return [j for j, e in enumerate(is_edge) if e == edge][k]

    kinds = ("Point", "LineString")
    for i, f in enumerate(features):
        kind, properties, points = _read_feature(f, source, i, kinds, planar, point)
        edge = kind == "LineString"
        name = "edge_id" if edge else "node_id"
        feature_id = _read_id(properties, name, intern, source, i)
        if feature_id in (edges if edge else node_positions):
            raise _duplicate(source, name, feature_id, first(edge, feature_id), i)
        is_edge.append(edge)
        if not edge:
            node_positions[feature_id] = points[0]
            continue
        src = _read_id(properties, "source_node", intern, source, i)
        dst = _read_id(properties, "target_node", intern, source, i)
        try:
            line = Polyline(points)
        except ValueError as exc:
            raise _bad_coordinates(source, i, exc) from exc
        edges[feature_id] = (src, dst, line)
        if properties.get("opposite_id") is not None:
            opposites[feature_id] = _read_id(properties, "opposite_id", intern, source, i)

    projection = None
    if not planar:
        if not is_edge:  # every feature read holds a position
            raise InputError(f"{source}: no coordinates to center a projection on")
        nodes, lines = iter(node_positions.values()), iter(edges.values())
        projection = LocalProjection.centered(
            p for edge in is_edge for p in (next(lines)[2] if edge else (next(nodes),))
        )
        del shared_lonlat, nodes, lines  # the lon/lat points, before the planar ones
        point = _shared_points(projection.to_planar)
        node_positions = {node: point(*p) for node, p in node_positions.items()}
        for edge_id, (src, dst, line) in edges.items():
            try:  # distinct lon/lat vertices may project to one point
                edges[edge_id] = src, dst, Polyline([point(*v) for v in line])
            except ValueError as exc:
                raise _bad_coordinates(source, first(True, edge_id), exc) from exc
    del intern, is_edge, first, point  # before the graph is built in the memory they free
    try:
        return build_graph(node_positions, edges, opposites.items() or None, projection=projection)
    except InputError as exc:
        raise InputError(f"{source}: {exc}") from exc


def _load(path: str | Path, read: Callable[[Any, str | Path, list], Any]) -> Any:
    """``read(document, path, skipped)`` of the network or signs file at
    ``path``, then a warning for each sign ``read`` added to ``skipped``.

    The one loader of a feature file. The file is first streamed
    (``_streamed_features``): the document has the frame the streamed read
    yields first, and each feature is decoded as ``read`` takes it. When the
    streamed read declines the file (any malformed one, and one whose frame
    was guessed wrong) or ``read`` rejects it, the file is read again, whole,
    by ``_read_json`` and consumed feature by feature, so every result, error
    and warning is the one reading the whole document gives.
    """
    skipped: list = []
    features = _streamed_features(path)
    try:
        try:
            frame = next(features)
            document = dict(type="FeatureCollection", coordinate_system=frame, features=features)
            return read(document, path, skipped)
        except (_Declined, InputError):
            skipped.clear()  # the whole read finds them again
        finally:
            features.close()  # the file and its text, on every path
        # read whole once the handler has let go of the streamed read, so
        # that the error reported is the one ``json.loads`` meets first
        return read(_read_json(path), path, skipped)
    finally:
        _warn_skipped(path, skipped)


def load_network(path: str | Path) -> RoadGraph:
    """Read a network GeoJSON file into a validated road graph.

    The file is streamed (see ``_load``), so the load never holds the parsed
    document or the file's whole text.
    """
    return _load(path, lambda document, source, _: network_from_document(document, source))


def signs_from_document(
    document: dict, source: str | Path = "<signs>", *, network: RoadGraph
) -> list[Sign]:
    """Parse sign Point features (properties sign_id, type, azimuth) of the
    ``network`` they belong to.

    A sign whose type is a string that is no known code is skipped, with a
    logged warning, instead of failing the whole file; its id, position and
    azimuth are still checked. The signs must be in the network's coordinate
    frame, and lon/lat signs reuse its projection. The document's features
    are consumed, as by ``network_from_document``.
    """
    skipped: list = []
    try:
        return _read_signs(document, source, network, skipped)
    finally:
        _warn_skipped(source, skipped)


def _read_signs(document: dict, source: str | Path, network: RoadGraph, skipped: list) -> list[Sign]:
    """``signs_from_document``, with each unknown-type sign added to ``skipped``
    instead of logged."""
    features = _feature_collection(document, source)
    planar = _is_planar(document)
    if planar != (network.projection is None):
        raise InputError(
            f"{source}: signs are {'planar' if planar else 'lon/lat'} but the "
            f"network is {'lon/lat' if planar else 'planar'}"
        )
    point = Point if planar else network.projection.to_planar
    signs: list[Sign] = []
    seen: dict = {}  # the feature of each sign id
    for i, f in enumerate(features):
        _, properties, points = _read_feature(f, source, i, ("Point",), planar, point)
        sign_id = _read_id(properties, "sign_id", _as_read, source, i)
        if sign_id in seen:
            raise _duplicate(source, "sign_id", sign_id, seen[sign_id], i)
        seen[sign_id] = i
        code = properties.get("type")
        if type(code) is not str:
            raise _bad_property(source, i, "type")
        azimuth = properties.get("azimuth")
        if not _is_finite(azimuth):
            raise _bad_property(source, i, "azimuth")
        try:
            sign_type = SignType(code)
        except ValueError:
            skipped.append((i, sign_id, code))
            continue
        signs.append(Sign(sign_id, points[0], sign_type, azimuth))
    return signs


def _warn_skipped(source: str | Path, skipped: list) -> None:
    for i, sign_id, code in skipped:
        logger.warning("%s: feature %d: skipping sign %s with unknown type %s",
                       source, i, shown(sign_id), shown(code))


def load_signs(path: str | Path, network: RoadGraph) -> list[Sign]:
    """Read a signs GeoJSON file of ``network``, as ``load_network`` reads a
    network. Skipped signs are logged once, as reading the whole document
    logs them."""
    return _load(path, lambda doc, source, skipped: _read_signs(doc, source, network, skipped))


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
    for sign_id, ((family, edge, banned), score) in result.rules.items():
        first, second, *_ = RULE_FIELDS[family]
        entry = {first: edge} if family == "no_way" else {first: edge, second: list(banned)}
        document[family].append(dict(entry, sign=sign_id, score=score))
    for family, (first, *_) in RULE_FIELDS.items():
        document[family].sort(key=lambda e: (id_sort_key(e[first]), id_sort_key(e["sign"])))
    document["unreached"] = sorted_ids(result.unreached_edges)
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
    holders: dict = {}  # a sign holds at most one rule
    for family, fields in RULE_FIELDS.items():
        for i, entry in enumerate(document[family]):
            if not isinstance(entry, dict):
                raise InputError(f"{path}: {family} entry {i} is not a JSON object")
            for field, check in fields.items():
                if not check(entry.get(field)):
                    raise InputError(f"{path}: {family} entry {i}: bad or missing {field!r}")
            held = holders.setdefault(entry["sign"], (family, i))
            if held != (family, i):
                where = f"{path}: {family} entry {i}: sign {shown(entry['sign'])}"
                raise InputError(f"{where} already holds {held[0]} entry {held[1]}")
    return document


def load_ground_truth(path: str | Path) -> tuple[frozenset, frozenset]:
    """(one-way banned edges, banned turn pairs) of a ground-truth file: the
    pair ``derived_rule_sets`` gives of a rule document."""
    document = _read_json(path)
    if not isinstance(document, dict):
        raise InputError(f"{path}: expected a ground-truth object")
    banned = document.get("one_way_banned_edges", [])
    pairs = document.get("turn_restrictions", [])
    if not _is_id_list(banned):
        raise InputError(f"{path}: one_way_banned_edges must be a list of strings or numbers")
    if not (isinstance(pairs, list) and all(_is_id_list(p) and len(p) == 2 for p in pairs)):
        raise InputError(f"{path}: turn_restrictions entries must be [from, to] pairs")
    return frozenset(banned), frozenset(map(tuple, pairs))


def derived_rule_sets(rules: dict) -> tuple[frozenset, frozenset]:
    """(globally banned edges, banned turn pairs) of a rule document."""
    banned = {entry["edge"] for entry in rules["no_way"]}
    for entry in rules["one_way"]:
        banned.update(entry["banned"])
    pairs = {
        (entry["from"], to) for entry in rules["no_turn"] for to in entry["banned_to"]
    }
    return frozenset(banned), frozenset(pairs)


def _family_accuracy(derived: frozenset, truth: frozenset) -> dict:
    total = len(derived)
    incorrect = len(derived - truth)
    # percent, 2 decimals; None when nothing was mapped
    accuracy = round(100.0 * (total - incorrect) / total, 2) if total else None
    return {"total_mapped": total, "incorrect": incorrect, "accuracy": accuracy}


def validate(rules: dict, truth: tuple[frozenset, frozenset]) -> dict:
    """The report document of a rule document's accuracy against ``truth``, as
    ``load_ground_truth`` gives it: ``{"one_way_streets": {...},
    "turn_restrictions": {...}}``, each with ``total_mapped``, ``incorrect``
    and ``accuracy``.

    Derived one-way bans are compared as edge sets and turn restrictions as
    (from, to) pairs; only incorrectly derived rules count against accuracy
    (completeness of the inputs is not measurable here).
    """
    banned, pairs = derived_rule_sets(rules)
    return {
        "one_way_streets": _family_accuracy(banned, truth[0]),
        "turn_restrictions": _family_accuracy(pairs, truth[1]),
    }


def overlay_document(graph: RoadGraph, signs: Iterable[Sign], rules: dict) -> dict:
    """GeoJSON overlay: edges colored by status, signs with their rule linkage.

    Coordinates are emitted in the local planar frame the derivation ran in.
    The ``features`` member is an iterator that builds each feature once,
    lazily, as it is read, so ``dump_json`` writes the overlay without ever
    holding all of its features; it can be read once (``list()`` it to keep
    them).
    """
    banned, _ = derived_rule_sets(rules)
    unreached = set(rules["unreached"])
    rule_by_sign: dict = {}
    for kind, fields in RULE_FIELDS.items():
        for entry in rules[kind]:
            linked = {field: entry[field] for field in fields if field != "sign"}
            rule_by_sign[entry["sign"]] = dict(linked, kind=kind)

    def features() -> Iterator[dict]:
        for edge_id, edge in graph.edges.items():
            if edge_id in banned:
                status = "banned"
            elif edge_id in unreached:
                status = "unreached"
            else:
                status = "visited"
            coordinates = [[v.x, v.y] for v in edge.geometry]
            yield feature("LineString", coordinates, edge_id=edge_id, status=status)
        for sign in sorted(signs, key=lambda s: id_sort_key(s.id)):
            linked = rule_by_sign.get(sign.id)
            yield feature(
                "Point",
                [sign.position.x, sign.position.y],
                sign_id=sign.id,
                type=sign.sign_type.value,
                azimuth=sign.azimuth,
                rule=linked,
                score=linked["score"] if linked else None,
            )

    return planar_collection(features())


def render_overlay(rules: dict, graph: RoadGraph, signs: Iterable[Sign], path: str | Path) -> None:
    """Write the inspection overlay of a rule document on its network and signs."""
    write_json(overlay_document(graph, signs, rules), path)
