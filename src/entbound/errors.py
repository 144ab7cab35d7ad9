"""Exception hierarchy shared by all entbound modules, and the JSON input reader."""

import contextlib
import json


class EntboundError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(EntboundError, ValueError):
    """An argument is malformed or inconsistent with the other arguments."""


class CapacityError(EntboundError):
    """A qubit count above the qubit cap, or a working set above the memory budget."""


class StateValidityError(EntboundError, ValueError):
    """A state object violates its physicality constraints."""


class UnsupportedDistanceError(ParameterError):
    """The requested distance has no exact formula for this input class."""


class SchemaError(EntboundError, ValueError):
    """An input file does not match the documented schema."""


@contextlib.contextmanager
def reading(path):
    """Report an input file that cannot be opened or decoded as a ``SchemaError`` naming it."""
    try:
        yield
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read the file ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: cannot decode the file ({exc})") from exc


def _parse_json(text: str, name: str):
    """The JSON value of ``text``; text that cannot be parsed is a ``SchemaError``.

    Nesting past the interpreter's recursion limit, and an integer past its digit limit
    (a ``ValueError``), count as unparseable. ``name`` starts the message.
    """
    try:
        return json.loads(text)
    except RecursionError:
        raise SchemaError(f"{name}: nested too deeply to parse") from None
    except ValueError as exc:
        raise SchemaError(f"{name}: not valid JSON ({exc})") from exc


def read_json(path):
    """The JSON value in an input file; one that cannot be read or parsed is a ``SchemaError``."""
    with reading(path), open(path) as fh:
        return _parse_json(fh.read(), path)
