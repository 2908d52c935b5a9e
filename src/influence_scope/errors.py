"""Shared exception types, and the field checks every reader of outside
input (scenario, log, strategy, descriptor and matrix JSON) raises through."""

import sys
from reprlib import repr as brief


class DegenerateSeriesError(ValueError):
    """A series carries no usable variation (fewer than two distinct values).

    Callers that can handle a constant column (e.g. the detection layer)
    catch this and treat the variable as carrying no influence information.
    """


class InternalConsistencyError(RuntimeError):
    """A numerical result violated an invariant beyond rounding tolerance."""


class InputError(ValueError):
    """Outside input failed validation; ``path`` names the field, such as
    ``records[3].t``, and is empty when the input as a whole is rejected."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
        self.message = message


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", float: "a number",
               bool: "true or false"}


def is_number(value) -> bool:
    """A JSON number; booleans are never numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def expect(value, kind: type, path: str):
    """``value`` if it is a JSON ``kind``: dict, list, str, bool, or float for
    any number."""
    if not (is_number(value) if kind is float else isinstance(value, kind)):
        raise InputError(path, f"expected {_JSON_TYPES[kind]}, got {brief(value)}")
    return value


def need(obj: dict, key: str, prefix: str = "", kind: type | None = None):
    """``obj[key]``, checked to be a JSON ``kind`` when one is given; the
    field's path is ``prefix + key``, with a prefix such as ``"scene."``."""
    if key not in obj:
        raise InputError(prefix + key, "missing field")
    return obj[key] if kind is None else expect(obj[key], kind, prefix + key)


def finite(value, path: str) -> float:
    """A finite JSON number, as a float.  Python's reader turns ``Infinity``,
    ``-Infinity`` and ``NaN`` into floats, and an integer may be too large
    for a float; both are refused here."""
    if not abs(expect(value, float, path)) <= sys.float_info.max:
        raise InputError(path, f"expected a finite number, got {brief(value)}")
    return float(value)


def integer(value, path: str) -> int:
    """A JSON integer, written without a fraction: no float, not even an
    integral one such as ``5.0``, and no boolean is an integer."""
    if not (isinstance(value, int) and not isinstance(value, bool)):
        raise InputError(path, f"expected an integer, got {brief(value)}")
    return value
