"""Extended relational model for extracted video contents.

A detection trace is a relation whose columns may hold scalars, categorical
labels, or vector values (bounding boxes, feature vectors). Not every
operator applies to every column kind; the legality table lives here so
misuse is rejected before any data is touched.

The grouped/ordered form of a relation is an :class:`Arrable`: one row per
group key, with the remaining columns turned into parallel vectors ordered
by an ordering attribute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import IllegalColumnKind, TupleValidationError, UnknownColumn


class ColumnKind(Enum):
    SCALAR_NUMERIC = "scalar_numeric"
    CATEGORICAL = "categorical"
    BBOX_VECTOR = "bbox_vector"
    FEATURE_VECTOR = "feature_vector"
    DIRECTION_ENUM = "direction_enum"


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box: lower-left corner (x, y) plus width and height."""

    x: float
    y: float
    w: float
    h: float

    def corner(self) -> tuple[float, float]:
        return (self.x, self.y)

    def as_list(self) -> list[float]:
        return [self.x, self.y, self.w, self.h]


class FeatureVector:
    """Immutable real-valued vector of arbitrary dimension."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[float]):
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=np.float64)
        arr = arr.reshape(-1)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return int(self.values.size)

    def as_list(self) -> list[float]:
        return self.values.tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureVector):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(np.all(self.values == other.values))

    def __hash__(self) -> int:
        return hash(tuple(self.values.tolist()))

    def __repr__(self) -> str:
        return f"FeatureVector({self.values.tolist()!r})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("FeatureVector is immutable")


@dataclass(frozen=True)
class VTuple:
    """One detected object in one frame."""

    fid: int
    oid: int
    label: str
    bb: BoundingBox
    fv: FeatureVector
    ts: float

    def as_row(self) -> dict[str, Any]:
        return {"fid": self.fid, "oid": self.oid, "label": self.label,
                "bb": self.bb, "fv": self.fv, "ts": self.ts}


@dataclass(frozen=True)
class Column:
    name: str
    kind: ColumnKind


@dataclass(frozen=True)
class Schema:
    """Ordered, case-insensitively resolvable column list."""

    columns: tuple[Column, ...]

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def resolve(self, name: str) -> str:
        """Map a (possibly differently-cased) name to its canonical spelling."""
        lowered = name.lower()
        for c in self.columns:
            if c.name.lower() == lowered:
                return c.name
        raise UnknownColumn(name)

    def kind_of(self, name: str) -> ColumnKind:
        lowered = name.lower()
        for c in self.columns:
            if c.name.lower() == lowered:
                return c.kind
        raise UnknownColumn(name)

    def has(self, name: str) -> bool:
        lowered = name.lower()
        return any(c.name.lower() == lowered for c in self.columns)

    def subset(self, names: Sequence[str]) -> "Schema":
        resolved = [self.resolve(n) for n in names]
        by_name = {c.name: c for c in self.columns}
        return Schema(tuple(by_name[n] for n in resolved))


#: Schema of a raw detection trace.
TRACE_SCHEMA = Schema((
    Column("fid", ColumnKind.SCALAR_NUMERIC),
    Column("oid", ColumnKind.SCALAR_NUMERIC),
    Column("label", ColumnKind.CATEGORICAL),
    Column("bb", ColumnKind.BBOX_VECTOR),
    Column("fv", ColumnKind.FEATURE_VECTOR),
    Column("ts", ColumnKind.SCALAR_NUMERIC),
))


def validate_tuple(t: VTuple, schema: Schema = TRACE_SCHEMA) -> None:
    """Check the model invariants of one detection record.

    Raises :class:`TupleValidationError` with code NEGATIVE_DIMENSION,
    NON_FINITE_VALUE, or EMPTY_FEATURE_VECTOR.
    """
    if t.bb.w < 0 or t.bb.h < 0:
        raise TupleValidationError("NEGATIVE_DIMENSION",
                                   f"bounding box has negative extent: w={t.bb.w}, h={t.bb.h}")
    for v in (t.bb.x, t.bb.y, t.bb.w, t.bb.h, t.ts):
        if not math.isfinite(v):
            raise TupleValidationError("NON_FINITE_VALUE", f"non-finite value {v!r}")
    if t.fv.dim < 1:
        raise TupleValidationError("EMPTY_FEATURE_VECTOR", "feature vector has no components")
    if not np.all(np.isfinite(t.fv.values)):
        raise TupleValidationError("NON_FINITE_VALUE", "feature vector contains non-finite values")
    if t.fid < 0 or t.oid < 0 or t.ts < 0:
        raise TupleValidationError("NON_FINITE_VALUE",
                                   f"fid, oid and ts must be non-negative (fid={t.fid}, oid={t.oid}, ts={t.ts})")


# Legality of operators per column kind. Keys are the operator identifiers
# used by the planner; each maps every kind to a verdict (the table is total:
# membership in the set means legal, absence means illegal).
_ALL_KINDS = frozenset(ColumnKind)
_SCALARS = frozenset({ColumnKind.SCALAR_NUMERIC, ColumnKind.CATEGORICAL})

OPERATOR_LEGALITY: dict[str, frozenset[ColumnKind]] = {
    "smatch": frozenset({ColumnKind.FEATURE_VECTOR}),
    "avg": frozenset({ColumnKind.SCALAR_NUMERIC}),
    "sum": frozenset({ColumnKind.SCALAR_NUMERIC}),
    "min": frozenset({ColumnKind.SCALAR_NUMERIC}),
    "max": frozenset({ColumnKind.SCALAR_NUMERIC}),
    "count": _ALL_KINDS,
    "compare": frozenset({ColumnKind.SCALAR_NUMERIC, ColumnKind.CATEGORICAL,
                          ColumnKind.DIRECTION_ENUM}),
    "equality_join": _SCALARS,
    "bb_pattern": frozenset({ColumnKind.BBOX_VECTOR}),
    "direction": frozenset({ColumnKind.BBOX_VECTOR}),
    "r2a_gba": _SCALARS,
    "r2a_aoa": _SCALARS,
    "group_by": _SCALARS,
}


def kind_check(op_name: str, column: str, schema: Schema) -> None:
    """Verify that ``op_name`` may be applied to ``column``.

    Raises :class:`IllegalColumnKind` when the operator is not defined for
    the column's kind, and ``KeyError`` for an unknown operator name (caller
    bug, not user error).
    """
    legal = OPERATOR_LEGALITY[op_name]
    kind = schema.kind_of(column)
    if kind not in legal:
        raise IllegalColumnKind(op_name, schema.resolve(column), kind.name)


@dataclass(frozen=True)
class Relation:
    """An ordered relation; rows are plain column->value mappings.

    Rows built from a trace are kept in (ts, fid, oid) order, the canonical
    stream order.
    """

    schema: Schema
    rows: tuple[dict[str, Any], ...]
    source_id: str = ""

    @staticmethod
    def from_tuples(tuples: Iterable[VTuple], source_id: str = "") -> "Relation":
        rows = tuple(t.as_row() for t in tuples)
        return Relation(TRACE_SCHEMA, rows, source_id)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.rows)


@dataclass(frozen=True)
class ArrableRow:
    """One group of an arrable: the key plus parallel ordered vectors."""

    key: Any
    values: Mapping[str, tuple]

    def __post_init__(self) -> None:
        lengths = {len(v) for v in self.values.values()}
        if len(lengths) > 1:
            raise ValueError(f"arrable row vectors have unequal lengths: {sorted(lengths)}")

    def __len__(self) -> int:
        for v in self.values.values():
            return len(v)
        return 0

    def column(self, name: str) -> tuple:
        try:
            return self.values[name]
        except KeyError:
            raise UnknownColumn(name) from None


@dataclass(frozen=True)
class Arrable:
    """Relation of ordered arrays: one row per distinct group-by value."""

    gba: str
    aoa: str
    schema: Schema
    rows: tuple[ArrableRow, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        keys = [r.key for r in self.rows]
        if len(keys) != len(set(keys)):
            raise ValueError("duplicate group keys in arrable")

    def __len__(self) -> int:
        return len(self.rows)

    def element_count(self) -> int:
        return sum(len(r) for r in self.rows)

    def flatten(self) -> list[dict[str, Any]]:
        """Expand back to one mapping per element (a permutation of the input rows)."""
        out: list[dict[str, Any]] = []
        for row in self.rows:
            cols = row.values
            for i in range(len(row)):
                rec = {self.gba: row.key}
                for name, vec in cols.items():
                    rec[name] = vec[i]
                out.append(rec)
        return out
