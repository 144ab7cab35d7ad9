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


def read_json(path):
    """The JSON value in an input file; one that cannot be read or parsed is a ``SchemaError``."""
    with reading(path), open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
