"""Exception hierarchy shared by all entbound modules, and the JSON input readers."""

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


# -- readers of parsed JSON values: ``what`` names the value and starts each message

def _shown(value) -> str:
    """A JSON value as a message shows it: a container by its kind, anything else as JSON text."""
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return f"a list of {len(value)}"
    return json.dumps(value)


def _json_object(value, what) -> dict:
    """``value`` if it is a JSON object."""
    if not isinstance(value, dict):
        raise SchemaError(f"{what} must be a JSON object, got {_shown(value)}")
    return value


def _json_field(spec: dict, name: str, what):
    """The value of field ``name`` of the JSON object ``spec``, which must have it."""
    if name not in spec:
        raise SchemaError(f'{what}: missing field "{name}"')
    return spec[name]


def _json_number(value, what: str, integer: bool = False):
    """A JSON number as a float, or, if ``integer`` is set, a JSON integer as an int.

    A boolean, a string, null or a container is refused, and so is a float
    where an integer is wanted and an integer past the float range where a
    float is; a NaN or infinite float passes, for the reader's own checks.
    """
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise SchemaError(f"{what} must be {'an integer' if integer else 'a number'}, "
                          f"got {_shown(value)}")
    if integer:
        return value
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{what} must be a number, got an integer past the float range") from None


def _json_numbers(value, count: int, what: str) -> list:
    """A JSON list of ``count`` numbers, as floats."""
    if not isinstance(value, list) or len(value) != count:
        raise SchemaError(f"{what} must be a list of {count} numbers, got {_shown(value)}")
    return [_json_number(x, f"{what} entry {i}") for i, x in enumerate(value)]
