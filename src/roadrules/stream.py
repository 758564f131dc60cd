"""The streamed reader of a feature file: a GeoJSON FeatureCollection whose
frame (its ``coordinate_system``, planar or lon/lat) is read or guessed before
its features, and whose features are decoded one at a time from text read
``_CHUNK`` characters at a time, so that a load holds neither the file's text
nor its parsed document. ``io._load`` reads each network and signs file
through it first, and reads whole any file it declines.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Callable, Iterator, TextIO


class _Declined(Exception):
    """The streamed reader cannot vouch for a file, which is then read whole."""


_CHUNK = 64 * 1024  # characters the streamed reader reads at a time
_TAIL = 64 * 1024  # bytes at the end of a file searched for the frame
# characters: a token the end of the text cuts errs at most about 9 before it
# (``-Infinity``, a ``\\uXXXX`` escape, a number cut after ``.``, ``e`` or ``-``)
_NEAR_END = 16
_scan = json.JSONDecoder().scan_once  # (value, end) of the JSON value at an index
_skip = json.decoder.WHITESPACE.match  # ``.end()`` is the index past the whitespace at one
_comma = re.compile(r"[ \t\n\r]*,[ \t\n\r]*").match


def _member_name(text: str, i: int) -> tuple[str, int]:
    """The name of the object member at ``i``, and the index past its colon."""
    if text[i] != '"':
        raise _Declined
    name, i = _scan(text, i)
    i = _skip(text, i).end()
    if text[i] != ":":
        raise _Declined
    return name, i + 1


def _token(text: str, i: int) -> tuple[str, int]:
    return text[i], i


def _step(read: Callable, handle: TextIO, text: str, i: int) -> tuple[Any, str, int]:
    """(value, text, end) of ``read(text, j)`` at the ``j`` past the whitespace
    at ``i``. While the read raises or ends at the end of ``text`` (a number
    may go on), it is tried again on the text from ``i`` and as much again of
    ``handle``, at least ``_CHUNK``. It declines at the end of the file, where
    ``read`` does, and at an error more than ``_NEAR_END`` before the end of
    ``text``, which no more text mends (a cut string errs at its start)."""
    eof = False
    while True:
        try:
            value, end = read(text, _skip(text, i).end())
            if end < len(text) or eof:
                return value, text, end
        except (StopIteration, IndexError, ValueError) as exc:
            at = exc.value if isinstance(exc, StopIteration) else getattr(exc, "pos", len(text))
            if eof or at < len(text) - _NEAR_END and not str(exc).startswith("Unterminated"):
                raise _Declined from None
        chunk = handle.read(max(_CHUNK, len(text) - i))
        text, i, eof = text[i:] + chunk, 0, not chunk


def _tail_frame(path: str | Path) -> Any:
    """The value after the last ``"coordinate_system"`` in the file's last ``_TAIL`` bytes."""
    with open(path, "rb") as handle:
        handle.seek(max(0, handle.seek(0, 2) - _TAIL))
        tail = handle.read().decode("utf-8", "replace")
    at = tail.rfind('"coordinate_system"')
    return _scan(tail, _skip(tail, _member_name(tail, at)[1]).end())[0] if at >= 0 else None


def _streamed_features(path: str | Path) -> Iterator:
    """The frame, then the features, of the FeatureCollection in the file at
    ``path``, each feature decoded as it is taken from text read ``_CHUNK``
    characters at a time.

    The first ``next()`` decodes the object's members up to ``features`` and
    yields the frame: the ``coordinate_system`` read so far or, when none
    was, a guess, the value after the last ``"coordinate_system"`` in the
    file's last ``_TAIL`` bytes, and ``None`` when there is none. Each later
    ``next()`` decodes one element of the array. After the last, the members
    that follow are decoded and the guess confirmed: one ``features`` member,
    ``type`` FeatureCollection, the frame yielded, and nothing after the
    object. Only then does the generator end. Every other case raises
    ``_Declined``: a file that is not UTF-8, a wrong guess, a ``features``
    that is not an array, and any JSON this reader or ``json.loads`` would
    reject. Each value is decoded by the scanner ``json.loads`` uses, so a
    file that is not declined reads exactly as ``json.loads`` reads it.
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
            frame = members.get("coordinate_system") or _tail_frame(path)
            char, text, i = _step(_token, handle, text, i)
            if char != "[":
                raise _Declined
            yield frame
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
    # ValueError: also not UTF-8; IndexError: a file cut after the tail's marker name
    except (StopIteration, IndexError, ValueError, RecursionError, OSError):
        raise _Declined from None
    if members.get("type") != "FeatureCollection" or members.get("coordinate_system") != frame:
        raise _Declined  # the guess was wrong
