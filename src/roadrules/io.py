"""File formats: GeoJSON network/sign ingestion, rule documents, ground-truth
validation and debug overlays.

Planar inputs mark themselves with a top-level ``"coordinate_system":
"local-meters"`` member; without it, coordinates are treated as RFC 7946
lon/lat and projected to local meters around the dataset centroid. A planar
input file is streamed, one feature at a time from text read a chunk at a
time, wherever its marker sits. All outputs are deterministic byte-for-byte
for identical inputs.

Every value read from a file is checked once, here, where it enters, and a
bad one is reported with the feature or entry that holds it: ``_positions``
checks each coordinate, and ``_read_id`` each id. A network and a signs file
are read the same way (``_load``), and a fault gives one message in either:
``feature <i>: bad or missing '<property>'`` for a missing or ill-typed id,
sign ``type`` or ``azimuth`` (checked on a skipped sign too), ``duplicate
<property> <id> in features <a> and <b>`` for any id read twice, and
``feature <i>: unsupported geometry type <type>``. The layers below
(``geometry``, ``network``) take the checked values as given.
"""

from __future__ import annotations

import json
import logging
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO

from .errors import GraphError, InputError, shown
from .geometry import LocalProjection, Point, Polyline
from .ids import id_sort_key, sorted_ids
from .navigator import DerivationResult
from .network import EdgeId, RoadGraph, build_graph
from .rules import NoWayRule, OneWayRule
from .signs import Sign, SignIndex, SignType

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


def _read_text(path: str | Path) -> str:
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8: {exc}") from exc


def _parse_json(text: str, path: str | Path) -> Any:
    try:
        return json.loads(text)
    # ValueError: also an integer past the int-string digit limit;
    # RecursionError: arrays or objects nested past the interpreter's depth
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{Path(path)}: malformed JSON: {exc}") from exc


def _read_json(path: str | Path) -> Any:
    return _parse_json(_read_text(path), path)


class _Declined(Exception):
    """The streamed reader cannot vouch for a file, which is then read whole."""


_CHUNK = 64 * 1024  # characters the streamed reader reads at a time
_TAIL = 64 * 1024  # bytes at the end of a file searched for the frame's marker
_scan = json.JSONDecoder().scan_once  # (value, end) of the JSON value at an index
_skip = json.decoder.WHITESPACE.match  # ``.end()`` is the index past the whitespace at one
_comma = re.compile(r"[ \t\n\r]*,[ \t\n\r]*").match


def _member_name(text: str, i: int) -> tuple[str, int]:
    """The name of the object member at ``i``, and the index past its colon."""
    if not text.startswith('"', i):
        raise _Declined
    name, i = _scan(text, i)
    i = _skip(text, i).end()
    if not text.startswith(":", i):
        raise _Declined
    return name, i + 1


def _token(text: str, i: int) -> tuple[str, int]:
    return text[i], i


def _step(read: Callable, handle: TextIO, text: str, i: int) -> tuple[Any, str, int]:
    """(value, text, end) of ``read(text, j)`` at the ``j`` past the whitespace
    at ``i``. While the read raises or ends at the end of ``text`` (a number
    may go on), it is tried again on the text from ``i`` and as much again of
    ``handle``, at least ``_CHUNK``; at the end of the file, it declines."""
    eof = False
    while True:
        try:
            value, end = read(text, _skip(text, i).end())
            if end < len(text) or eof:
                return value, text, end
        except (StopIteration, IndexError, ValueError, _Declined):
            if eof:
                raise _Declined from None
        chunk = handle.read(max(_CHUNK, len(text) - i))
        text, i, eof = text[i:] + chunk, 0, not chunk


def _tail_marker(path: str | Path) -> Any:
    """The value after the last ``"coordinate_system"`` in the file's last ``_TAIL`` bytes."""
    with open(path, "rb") as handle:
        handle.seek(max(0, handle.seek(0, 2) - _TAIL))
        tail = handle.read().decode("utf-8", "replace")
    at = tail.rfind('"coordinate_system"')
    return _scan(tail, _skip(tail, _member_name(tail, at)[1]).end())[0] if at >= 0 else None


def _planar_features(path: str | Path) -> Iterator:
    """The features of the planar FeatureCollection in the file at ``path``, each
    decoded as it is taken from text read ``_CHUNK`` characters at a time.

    The first ``next()`` decodes the object's members up to ``features`` and
    decides the frame: the ``coordinate_system`` read so far or, when none
    was, a guess, the value after the last ``"coordinate_system"`` in the
    file's last ``_TAIL`` bytes. Each later ``next()`` decodes one element of
    the array. After the last, the members that follow are decoded and the
    guess confirmed: one ``features`` member, ``type`` FeatureCollection, the
    planar marker, and nothing after the object. Only then does the generator
    end. Every other case raises ``_Declined``: a file that is not planar or
    not UTF-8, a missing or wrong guess, a ``features`` that is not an array,
    and any JSON this reader or ``json.loads`` would reject. Each value is
    decoded by the scanner ``json.loads`` uses, so a file that is not
    declined reads exactly as ``json.loads`` reads it.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            members: dict = {}
            char, text, i = _step(_token, handle, "", 0)
            if char != "{":
                raise _Declined
            name, text, i = _step(_member_name, handle, text, i + 1)
            while name != "features":
                members[name], text, i = _step(_scan, handle, text, i)
                char, text, i = _step(_token, handle, text, i)
                if char != ",":  # the object ends without features
                    raise _Declined
                name, text, i = _step(_member_name, handle, text, i + 1)
            marker = members.get("coordinate_system") or _tail_marker(path)
            char, text, i = _step(_token, handle, text, i)
            if marker != PLANAR_MARKER or char != "[":
                raise _Declined
            yield
            char, text, i = _step(_token, handle, text, i + 1)
            while char != "]":
                try:
                    feature, end = _scan(text, i)
                    comma = _comma(text, end)
                except (StopIteration, ValueError):
                    comma = None
                if comma is None:  # the last feature, or one the chunk cuts
                    feature, text, i = _step(_scan, handle, text, i)
                    char, text, i = _step(_token, handle, text, i)
                    if char == ",":
                        i = _skip(text, i + 1).end()
                    elif char != "]":
                        raise _Declined
                else:
                    i = comma.end()
                yield feature
            char, text, i = _step(_token, handle, text, i + 1)
            while char == ",":
                name, text, i = _step(_member_name, handle, text, i + 1)
                if name == "features":  # ``json.loads`` keeps the last one
                    raise _Declined
                members[name], text, i = _step(_scan, handle, text, i)
                char, text, i = _step(_token, handle, text, i)
            if char != "}" or _skip(text, i + 1).end() != len(text):
                raise _Declined
            for rest in iter(lambda: handle.read(_CHUNK), ""):  # only whitespace may follow
                if _skip(rest, 0).end() != len(rest):
                    raise _Declined
    except (StopIteration, ValueError, RecursionError, OSError):  # ValueError: also not UTF-8
        raise _Declined from None
    if members.get("type") != "FeatureCollection" or members.get("coordinate_system") != marker:
        raise _Declined  # the guess was wrong


def _read_collection(path: str | Path) -> tuple[Any, bool]:
    """The document in the file at ``path``, and whether its features are streamed
    (``_planar_features``) or the file was read again, whole, by ``json.loads``."""
    features = _planar_features(path)
    try:
        next(features)
        return planar_collection(features), True
    except _Declined:
        pass  # read whole once the handler has let go of the streamed read
    return _read_json(path), False


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
    if isinstance(features, Iterator):  # ``_planar_features``
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
    ``_positions`` of its geometry; null or absent properties read as empty."""
    if not isinstance(feature, dict):
        raise InputError(f"{source}: feature {i}: not a JSON object")
    geometry = feature.get("geometry") or {}
    properties = feature.get("properties") or {}
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


def _read_features(
    features: Iterator,
    source: str | Path,
    kinds: tuple,
    planar: bool,
    projection: LocalProjection | None = None,
) -> tuple[Iterable[tuple[Any, dict, list[Point]]], LocalProjection | None]:
    """(geometry type, properties, planar points) of each feature, and the projection.

    ``features`` lets go of each feature as it is taken, and features are
    read as the caller iterates, so a load never holds the parsed features
    and what it builds from them at once. The exception is lon/lat features
    without a ``projection``: they are all read first, to center one on the
    centroid of their positions, summed in feature order, and each of those
    readings is then dropped as it is projected. Equal exact positions are
    one ``Point`` (see ``_shared_points``).
    """
    if planar or projection is not None:
        point = _shared_points(Point if planar else projection.to_planar)
        read = (_read_feature(f, source, i, kinds, planar, point) for i, f in enumerate(features))
        return read, projection
    read = [
        _read_feature(f, source, i, kinds, planar, lambda x, y: (x, y))
        for i, f in enumerate(features)
    ]
    positions = [p for _, _, points in read for p in points]
    if not positions:
        return read, None
    projection = LocalProjection.centered(positions)
    to_planar = _shared_points(projection.to_planar)
    projected = (
        (kind, props, [to_planar(x, y) for x, y in points]) for kind, props, points in _taken(read)
    )
    return projected, projection


def network_from_document(document: dict, source: str | Path = "<network>") -> RoadGraph:
    """Build a road graph from a parsed network FeatureCollection.

    LineString features carry properties ``edge_id``, ``source_node``,
    ``target_node`` and optional ``opposite_id``; Point features carry
    ``node_id``. Node positions missing from the Point features are inferred
    from edge endpoints.

    The document's features are consumed: each is dropped as it is read, so
    the graph is built in the memory the document frees, and the features
    array is gone afterwards, even when a feature is rejected. Reading the
    document again raises ``InputError``; a caller that reuses a document
    passes a copy. ``features`` may also be an iterator, as ``load_network``
    passes for a planar file, whose features are decoded as they are read.

    The graph holds each id and each position once: an edge's ``source`` and
    ``destination`` are its nodes' own ``id`` objects, its ``opposite`` is the
    paired edge's ``id``, and a vertex at a node is that node's ``position``.
    Only values that are the same bits are shared: string ids, and positions
    of two non-zero floats. Numeric ids and positions with an int or a zero
    are kept as read, since ``1 == 1.0`` and ``0 == 0.0 == -0.0`` but the
    outputs write each as it was read.
    """
    planar = _is_planar(document)
    features, projection = _read_features(
        _feature_collection(document, source), source, ("Point", "LineString"), planar
    )
    if projection is None and not planar:
        raise InputError(f"{source}: no coordinates to center a projection on")

    node_positions: dict = {}
    edges: dict[EdgeId, tuple[Any, Any, Polyline]] = {}
    opposites: dict[EdgeId, EdgeId] = {}
    # each feature's node or edge id, and whether it is an edge: they name a
    # duplicate's first feature, as a node and an edge may share an id
    ids: list = []
    is_edge = bytearray()
    # the string ids read so far: an equal one read later is replaced by the
    # first, so the graph holds each id once (``_read_features`` does the same
    # for positions). A numeric id is kept as read, since ``1 == 1.0``.
    intern = {}.setdefault

    for i, (kind, properties, points) in enumerate(features):
        edge = kind == "LineString"
        name = "edge_id" if edge else "node_id"
        feature_id = _read_id(properties, name, intern, source, i)
        if feature_id in (edges if edge else node_positions):
            first = next(j for j, x in enumerate(ids) if is_edge[j] == edge and x == feature_id)
            raise _duplicate(source, name, feature_id, first, i)
        ids.append(feature_id)
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
    del intern, ids, is_edge  # before the graph is built in the memory they free

    # fall back to edge endpoints for nodes the Point features do not cover
    for src, dst, line in edges.values():
        node_positions.setdefault(src, line.vertices[0])
        node_positions.setdefault(dst, line.vertices[-1])

    try:
        return build_graph(node_positions, edges, opposites.items() or None, projection=projection)
    except GraphError as exc:
        raise InputError(f"{source}: {exc}") from exc


def _load(path: str | Path, read: Callable[[Any, str | Path, list], Any]) -> Any:
    """``read(document, path, skipped)`` of the file at ``path``, then a warning
    for each sign ``read`` added to ``skipped``.

    A planar file is streamed (``_planar_features``): each feature is decoded
    as ``read`` takes it. Any other file, and
    any file that fails to load that way, is parsed whole by ``json.loads``
    and then consumed feature by feature, so every result, error and warning
    is the one reading the whole document gives.
    """
    document, streamed = _read_collection(path)
    skipped: list = []
    try:
        if streamed:
            features = document["features"]
            try:
                return read(document, path, skipped)
            except (_Declined, InputError):
                skipped.clear()  # the whole read finds them again
            finally:
                features.close()  # the file and its text, on every path
            # read whole once the handler has let go of the streamed read, so
            # that the error reported is the one ``json.loads`` meets first
            document = _read_json(path)
        return read(document, path, skipped)
    finally:
        _warn_skipped(path, skipped)


def load_network(path: str | Path) -> RoadGraph:
    """Read a network GeoJSON file into a validated road graph.

    A planar file is streamed (see ``_load``), so the load never holds the
    parsed document or the file's whole text.
    """
    return _load(path, lambda document, source, _: network_from_document(document, source))


def signs_from_document(
    document: dict,
    source: str | Path = "<signs>",
    network: RoadGraph | None = None,
) -> list[Sign]:
    """Parse sign Point features (properties sign_id, type, azimuth).

    A sign whose type is a string that is no known code is skipped, with a
    logged warning, instead of failing the whole file; its id, position and
    azimuth are still checked. With a ``network``, the signs must be in its
    coordinate frame, and lon/lat signs reuse its projection; only planar
    signs may be read without one. The document's features are consumed, as
    by ``network_from_document``.
    """
    skipped: list = []
    try:
        return _read_signs(document, source, network, skipped)
    finally:
        _warn_skipped(source, skipped)


def _read_signs(
    document: dict, source: str | Path, network: RoadGraph | None, skipped: list
) -> list[Sign]:
    """``signs_from_document``, with each unknown-type sign added to ``skipped``
    instead of logged."""
    planar = _is_planar(document)
    projection = None
    if network is not None:
        projection = network.projection
        if planar != (projection is None):
            raise InputError(
                f"{source}: signs are {'planar' if planar else 'lon/lat'} but the "
                f"network is {'lon/lat' if planar else 'planar'}"
            )
    elif not planar:
        raise InputError(f"{source}: lon/lat signs need the network they belong to")
    features, _ = _read_features(
        _feature_collection(document, source), source, ("Point",), planar, projection
    )
    signs: list[Sign] = []
    seen: dict = {}  # the feature of each sign id
    for i, (_, properties, points) in enumerate(features):
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


def load_signs(path: str | Path, network: RoadGraph | None = None) -> list[Sign]:
    """Read a signs GeoJSON file, as ``load_network`` reads a network; pass
    the network the signs belong to. Skipped signs are logged once, as
    reading the whole document logs them."""
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
    for record in result.rules:
        rule = record.rule
        if isinstance(rule, NoWayRule):
            family, entry = "no_way", {"edge": rule.banned_edge}
        elif isinstance(rule, OneWayRule):
            banned = sorted_ids(rule.banned_edges)
            family, entry = "one_way", {"chosen": rule.chosen, "banned": banned}
        else:
            banned = sorted_ids(rule.banned_to)
            family, entry = "no_turn", {"from": rule.from_edge, "banned_to": banned}
        document[family].append(dict(entry, sign=record.sign_id, score=record.score))
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
        return {"one_way_streets": asdict(self.one_way), "turn_restrictions": asdict(self.turn)}


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
            coordinates = [[v.x, v.y] for v in edge.geometry.vertices]
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


def render_overlay(
    result: DerivationResult | dict,
    graph: RoadGraph,
    signs: Iterable[Sign] | SignIndex,
    path: str | Path,
) -> None:
    """Write the inspection overlay for a completed derivation."""
    rules = rules_document(result) if isinstance(result, DerivationResult) else result
    write_json(overlay_document(graph, signs, rules), path)
