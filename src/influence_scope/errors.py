"""Shared exception types, and the field checks every reader of outside
input (scenario, log, strategy, descriptor and matrix JSON) raises through."""

import math
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


def convert(value, to, path: str):
    """``to(value)`` for a field read leniently (``int("3")`` is 3); a value
    ``to`` rejects is an input error at ``path``."""
    try:
        return to(value)
    except InputError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(path, str(exc)) from None


def read(obj: dict, key: str, to, prefix: str = ""):
    """``to(obj[key])``, read leniently as by :func:`convert`."""
    return convert(need(obj, key, prefix), to, prefix + key)


def number(obj: dict, key: str, prefix: str = "") -> float:
    """A required finite JSON number, as a float; Python's reader turns
    ``Infinity``, ``-Infinity`` and ``NaN`` into floats, so they are refused here."""
    value = convert(need(obj, key, prefix, float), float, prefix + key)
    if not math.isfinite(value):
        raise InputError(prefix + key, f"expected a finite number, got {obj[key]!r}")
    return value


def integer(value, path: str) -> int:
    """An integral JSON number, as an int."""
    if not (is_number(value) and (isinstance(value, int) or value.is_integer())):
        raise InputError(path, f"expected an integer, got {brief(value)}")
    return int(value)
