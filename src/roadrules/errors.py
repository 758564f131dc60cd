"""Exceptions (the CLI exits 1 on ``InputError``, 2 on any other) and how messages echo input."""

import reprlib


class RoadRulesError(Exception):
    """Base class for errors raised by this package."""


class InputError(RoadRulesError):
    """Malformed or inconsistent input, thresholds and start edges included."""


class InternalError(RoadRulesError):
    """An internal invariant was broken, named where it is checked: a bug."""


_SHORT = reprlib.Repr()
_SHORT.maxstring = _SHORT.maxlong = _SHORT.maxother = 60


def shown(value: object) -> str:
    """``repr(value)`` cut to at most about 60 characters.

    Every input value an error or warning echoes goes through here, so that
    a huge id or number in a file cannot make a huge message.
    """
    return _SHORT.repr(value)
