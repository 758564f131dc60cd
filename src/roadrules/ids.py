"""Deterministic ordering for opaque identifiers (ints or strings)."""

from __future__ import annotations

from typing import Collection

Identifier = int | str


def id_sort_key(value: Identifier) -> tuple:
    """Sort key that keeps mixed int/str identifier sets totally ordered."""
    if isinstance(value, str):
        return (1, value)
    return (0, value)


def sorted_ids(ids: Collection[Identifier]) -> list[Identifier]:
    """``sorted(ids, key=id_sort_key)``, without a key tuple per id.

    The non-string ids sorted, then the strings sorted; both sorts are stable,
    so equal ids (``1`` and ``1.0``) keep their order, as under the key.
    """
    strings = [value for value in ids if isinstance(value, str)]
    numbers = [] if len(strings) == len(ids) else [v for v in ids if not isinstance(v, str)]
    numbers.sort()
    strings.sort()
    return numbers + strings
