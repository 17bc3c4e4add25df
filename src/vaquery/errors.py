"""Exception hierarchy, the one JSON decoder, and the one reader of JSON
field types; both word their refusals with the caller's error class.

Every error carries a stable ``code`` string so callers (and the CLI) can
dispatch on the failure class without parsing messages.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Callable


class VaqueryError(Exception):
    """Base class for all errors raised by this package."""

    code = "ERROR"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class TupleValidationError(VaqueryError):
    """A detection record violates a model invariant.

    ``code`` is one of NEGATIVE_DIMENSION, NON_FINITE_VALUE,
    EMPTY_FEATURE_VECTOR.
    """

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


class IllegalColumnKind(VaqueryError):
    code = "ILLEGAL_COLUMN_KIND"

    def __init__(self, op_name: str, column: str, kind: str):
        self.op_name = op_name
        self.column = column
        self.kind = kind
        super().__init__(f"operator {op_name!r} is not legal on column {column!r} of kind {kind}")


class UnknownColumn(VaqueryError):
    code = "UNKNOWN_COLUMN"

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"unknown column {column!r}")


class DimensionMismatch(VaqueryError):
    code = "DIMENSION_MISMATCH"


class ZeroVector(VaqueryError):
    code = "ZERO_VECTOR"


class EmptyRow(VaqueryError):
    code = "EMPTY_ROW"


class InvalidWindowSpec(VaqueryError):
    code = "NONPOSITIVE_SIZE_OR_HOP"


class TooManyWindows(VaqueryError):
    code = "TOO_MANY_WINDOWS"


class QuerySyntaxError(VaqueryError):
    """Raised by the query parser; carries the 1-based source position."""

    code = "SYNTAX_ERROR"

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class UnknownIdentifier(VaqueryError):
    code = "UNKNOWN_IDENTIFIER"


class SchemaMismatch(VaqueryError):
    code = "SCHEMA_MISMATCH"


class ConfigError(VaqueryError):
    code = "CONFIG_ERROR"


class TraceParseError(VaqueryError):
    code = "PARSE_ERROR"

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"{message} (line {line})")


class OutOfOrderFrame(VaqueryError):
    code = "OUT_OF_ORDER_FRAME"


class GeneratorSpecError(VaqueryError):
    code = "SPEC_ERROR"


class EmptyConfusion(VaqueryError):
    code = "EMPTY_CONFUSION"


class PairOutsideUniverse(VaqueryError):
    code = "PAIR_OUTSIDE_UNIVERSE"


class IndexMismatch(VaqueryError):
    code = "INDEX_MISMATCH"


class FormatMismatch(VaqueryError):
    code = "FORMAT_MISMATCH"


def load_json(data: str | bytes, error: Callable[[str], VaqueryError], role: str,
              kind: str | None = None) -> Any:
    """The JSON value of ``data``, checked by :func:`json_type` when a ``kind``
    is given. Text that is not UTF-8, not JSON, or nested deeper than the
    decoder recurses raises ``error(message)``, the message naming the input
    by its ``role``."""
    try:
        value = json.loads(data)
    except UnicodeDecodeError as exc:
        message = f"{role} is not UTF-8 text: {exc.reason}"
    except json.JSONDecodeError as exc:
        message = f"{role} is not JSON: {exc.msg} at character {exc.pos}"
    except RecursionError:
        message = f"{role} is not JSON: it nests too deeply"
    else:
        return value if kind is None else json_type(value, kind, error, role)
    raise error(message)


#: The Python types that ``json.loads`` gives each JSON type; a boolean is
#: neither an integer nor a number.
_JSON_TYPES = {"integer": (int,), "number": (int, float), "string": (str,), "array": (list,),
               "object": (dict,)}
_PHRASES = {int: "an integer", float: "a number", str: "a string", list: "an array",
            dict: "an object", bool: "a boolean", type(None): "null"}
_REQUIRED = object()


def json_type(value: Any, kind: str, error: Callable[[str], VaqueryError], name: str) -> Any:
    """``value`` if its JSON type is ``kind``: "integer", "number", "string",
    "array" or "object", several of them joined by " or ", or "array of
    <kind>", whose elements are checked as ``<name>[<position>]``. A number
    comes back as a float, and an integer beyond the largest float, which
    ``float()`` would round or refuse, is refused. A refusal is
    ``error("<name> must be <kind>, got <the value's type>")``."""
    if kind.startswith("array of "):
        return [json_type(v, kind[9:], error, f"{name}[{i}]")
                for i, v in enumerate(json_type(value, "array", error, name))]
    kinds = kind.split(" or ")
    if not any(type(value) in _JSON_TYPES[k] for k in kinds):
        wanted = " or ".join(_PHRASES[_JSON_TYPES[k][-1]] for k in kinds)
        got = _PHRASES.get(type(value), type(value).__name__)
        raise error(f"{name} must be {wanted}, got {got}")
    if kind == "number" and type(value) is int and abs(value) > sys.float_info.max:
        raise error(f"{name} must be a number, got an integer too large for a float")
    return float(value) if kind == "number" else value


def json_field(obj: dict, key: str, kind: str, error: Callable[[str], VaqueryError], role: str,
               default: Any = _REQUIRED) -> Any:
    """Field ``key`` of a decoded JSON object, checked by :func:`json_type` as
    ``<role> <key>``. A missing field is ``default``, unchecked; without one
    it is refused by name."""
    if key not in obj:
        if default is _REQUIRED:
            raise error(f"{role} is missing {key}")
        return default
    return json_type(obj[key], kind, error, f"{role} {key}")
