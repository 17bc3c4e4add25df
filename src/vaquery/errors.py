"""Exception hierarchy, and the one JSON decoder that words decode failures.

Every error carries a stable ``code`` string so callers (and the CLI) can
dispatch on the failure class without parsing messages.
"""

from __future__ import annotations

import json
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


def load_json(data: str | bytes, error: Callable[[str], VaqueryError], role: str) -> Any:
    """The JSON value of ``data``. Text that is not UTF-8, not JSON, or nested
    deeper than the decoder recurses raises ``error(message)``, the message
    naming the input by its ``role``."""
    try:
        return json.loads(data)
    except UnicodeDecodeError as exc:
        message = f"{role} is not UTF-8 text: {exc.reason}"
    except json.JSONDecodeError as exc:
        message = f"{role} is not JSON: {exc.msg} at character {exc.pos}"
    except RecursionError:
        message = f"{role} is not JSON: it nests too deeply"
    raise error(message)
