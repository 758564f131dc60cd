"""Exception types shared across the package, and how messages echo input."""

import reprlib


class RoadRulesError(Exception):
    """Base class for errors raised by this package."""


class InputError(RoadRulesError):
    """Malformed or inconsistent input data (exit code 1 in the CLI)."""


class GraphError(InputError):
    """Road-graph invariant violated while building or loading a network."""


class InternalError(RoadRulesError):
    """An internal invariant was broken; indicates a bug (exit code 2)."""


_SHORT = reprlib.Repr()
_SHORT.maxstring = _SHORT.maxlong = _SHORT.maxother = 60


def shown(value: object) -> str:
    """``repr(value)`` cut to at most about 60 characters.

    Every input value an error or warning echoes goes through here, so that
    a huge id or number in a file cannot make a huge message.
    """
    return _SHORT.repr(value)
