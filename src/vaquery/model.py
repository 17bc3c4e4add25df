"""Extended relational model for extracted video contents.

A detection trace is a relation whose columns may hold scalars, categorical
labels, or vector values (bounding boxes, feature vectors). Not every
operator applies to every column kind; the legality table lives here so
misuse is rejected before any data is touched.

The grouped/ordered form of a relation is an :class:`Arrable`: one row per
group key, with the remaining columns turned into parallel vectors ordered
by an ordering attribute.

Both are stored as numpy columns, one array per column; the row objects of
the API (mappings, :class:`ArrableRow`, :class:`BoundingBox`,
:class:`FeatureVector`) are built only when read.
"""

from __future__ import annotations

import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np
from numpy.dtypes import StringDType

from .errors import DimensionMismatch, IllegalColumnKind, TupleValidationError, UnknownColumn

_INT64 = np.iinfo(np.int64)


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

    def _find(self, name: str) -> Column:
        """The column ``name`` spells in any casing."""
        lowered = name.lower()
        for c in self.columns:
            if c.name.lower() == lowered:
                return c
        raise UnknownColumn(name)

    def resolve(self, name: str) -> str:
        """Map a (possibly differently-cased) name to its canonical spelling."""
        return self._find(name).name

    def kind_of(self, name: str) -> ColumnKind:
        return self._find(name).kind

    def has(self, name: str) -> bool:
        try:
            self._find(name)
        except UnknownColumn:
            return False
        return True

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


def _column(kind: ColumnKind, values: Sequence[Any]) -> np.ndarray:
    """One column array from per-row Python values.

    Boxes become an (n, 4) and feature vectors an (n, d) float block;
    otherwise ints that fit int64 become int64, other numbers float64,
    labels a string array, and anything else an object array.
    """
    if kind is ColumnKind.BBOX_VECTOR:
        return np.array([b.as_list() for b in values], dtype=np.float64).reshape(-1, 4)
    if kind is ColumnKind.FEATURE_VECTOR:
        dims = sorted({v.dim for v in values})
        if len(dims) > 1:
            raise DimensionMismatch(f"feature vectors of one column differ in dimension: {dims}")
        return np.array([v.values for v in values] or np.zeros((0, 0)), dtype=np.float64)
    types = set(map(type, values))
    if kind is ColumnKind.CATEGORICAL and types <= {str}:
        return np.array(values, dtype=StringDType())
    if types <= {int} and all(_INT64.min <= v <= _INT64.max for v in values):
        return np.array(values, dtype=np.int64)
    if types <= {int, float}:
        return np.array(values, dtype=np.float64)
    return np.fromiter(values, dtype=object, count=len(values))


def _values(kind: ColumnKind, column: np.ndarray) -> list:
    """A column's values as the Python objects a row holds."""
    if kind is ColumnKind.BBOX_VECTOR:
        return [BoundingBox(*b) for b in column.tolist()]
    if kind is ColumnKind.FEATURE_VECTOR:
        return [FeatureVector(v) for v in column]  # read-only views of the block
    return column.tolist()


@dataclass(frozen=True, eq=False)
class Relation:
    """An ordered relation stored as equal-length columns, one per schema column.

    ``fid`` and ``oid`` are int64, ``ts`` float64, ``label`` a string array,
    ``bb`` an (n, 4) and ``fv`` an (n, d) float block; other columns hold
    whatever their operator produced. Rows built from a trace are kept in
    (ts, fid, oid) order, the canonical stream order. :attr:`rows` builds
    one mapping per row on demand.
    """

    schema: Schema
    columns: Mapping[str, np.ndarray]

    @staticmethod
    def from_columns(schema: Schema, values: Mapping[str, Sequence[Any]]) -> "Relation":
        """Relation from per-column sequences of Python values."""
        return Relation(schema, {n: _column(schema.kind_of(n), values[n]) for n in schema.names()})

    @staticmethod
    def from_rows(schema: Schema, rows: Iterable[Mapping[str, Any]]) -> "Relation":
        rows = list(rows)
        return Relation.from_columns(schema, {n: [r[n] for r in rows] for n in schema.names()})

    @staticmethod
    def from_tuples(tuples: Iterable[VTuple]) -> "Relation":
        return Relation.from_rows(TRACE_SCHEMA, (t.as_row() for t in tuples))

    @property
    def rows(self) -> "RowView":
        return RowView(self)

    def row_dicts(self, lo: int = 0, hi: int | None = None) -> list[dict[str, Any]]:
        """Rows ``lo`` to ``hi`` as column->value mappings in schema order."""
        names = list(self.columns)
        values = [_values(self.schema.kind_of(n), self.columns[n][lo:hi]) for n in names]
        return [dict(zip(names, row)) for row in zip(*values)]

    flatten = row_dicts

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise UnknownColumn(name) from None

    values = column

    def element_count(self) -> int:
        return len(self)

    def take(self, index: np.ndarray | slice) -> "Relation":
        """The rows at ``index`` (positions, a boolean mask or a slice), in that order."""
        return Relation(self.schema, {n: c[index] for n, c in self.columns.items()})

    def subset(self, schema: Schema) -> "Relation":
        return Relation(schema, {n: self.column(n) for n in schema.names()})

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))


class RowView(SequenceABC):
    """A relation's rows as mappings, built when read; ``len`` builds none."""

    def __init__(self, rel: Relation):
        self._rel = rel

    def __len__(self) -> int:
        return len(self._rel)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._rel.row_dicts()[i]
        i = range(len(self._rel))[i]  # a negative index counts from the end
        return self._rel.row_dicts(i, i + 1)[0]

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self._rel.row_dicts())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequenceABC):
            return NotImplemented
        return tuple(self) == tuple(other)


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


@dataclass(frozen=True, eq=False)
class Arrable:
    """Relation of ordered arrays: one group per distinct group-by value.

    A group's elements are rows of ``base``, a relation of the non-``gba``
    columns: element ``j`` is base row ``order[j]``, and the elements run
    group after group, each group in its R2A order. ``keys`` holds one key
    per group in first-appearance order and group ``i`` is elements
    ``offsets[i]`` to ``offsets[i + 1]``. Grouping, filtering and compressing
    only compute a new ``order``; no column is copied. An arrable projected
    down to its key has no element columns and no elements. :attr:`rows`
    builds one :class:`ArrableRow` per group on demand.
    """

    gba: str
    schema: Schema
    keys: np.ndarray
    offsets: np.ndarray
    base: Relation
    order: np.ndarray

    @staticmethod
    def from_rows(gba: str, schema: Schema, rows: Sequence[ArrableRow] = ()) -> "Arrable":
        """Arrable from groups given as rows; every row holds the same columns,
        by default every schema column but ``gba``."""
        keys = [r.key for r in rows]
        if len(keys) != len(set(keys)):
            raise ValueError("duplicate group keys in arrable")
        names = list(rows[0].values) if rows else [n for n in schema.names() if n != gba]
        base = Relation.from_columns(
            schema.subset(names), {n: [v for r in rows for v in r.column(n)] for n in names})
        return Arrable(gba, schema, _column(schema.kind_of(gba), keys),
                       offsets_of([len(r) for r in rows]), base, np.arange(len(base)))

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def elements(self) -> Relation:
        return self.base.take(self.order)

    @property
    def rows(self) -> tuple[ArrableRow, ...]:
        elements = self.elements
        values = {n: _values(elements.schema.kind_of(n), c) for n, c in elements.columns.items()}
        bounds = self.offsets.tolist()
        return tuple(ArrableRow(key, {n: tuple(v[lo:hi]) for n, v in values.items()})
                     for key, lo, hi in zip(self.keys.tolist(), bounds, bounds[1:]))

    def flatten(self) -> list[dict[str, Any]]:
        """One mapping per element, the group key first (a permutation of the
        grouped rows); an arrable projected to its key gives one per group."""
        keys = self.keys.tolist()
        if not self.base.columns:
            return [{self.gba: k} for k in keys]
        return [{self.gba: k, **row}
                for k, row in zip(np.repeat(self.keys, self.counts).tolist(),
                                  self.elements.row_dicts())]

    def column(self, name: str) -> np.ndarray:
        """One value per element; the ``gba`` column repeats each group's key."""
        if name == self.gba:
            return np.repeat(self.keys, self.counts)
        return self.base.column(name)[self.order]

    def values(self, name: str) -> np.ndarray:
        """A column as aggregates see it: ``gba`` gives one key per group."""
        return self.keys if name == self.gba else self.column(name)

    def element_count(self) -> int:
        return int(self.offsets[-1])

    def regroup(self, keep: np.ndarray, drop_empty: bool) -> "Arrable":
        """The elements where ``keep`` holds, still grouped; groups left
        without elements are dropped when ``drop_empty``."""
        counts = np.diff(np.concatenate(([0], np.cumsum(keep)))[self.offsets])
        keys = self.keys
        if drop_empty:
            keys, counts = keys[counts > 0], counts[counts > 0]
        return Arrable(self.gba, self.schema, keys, offsets_of(counts),
                       self.base, self.order[keep])

    def take(self, keep: np.ndarray) -> "Arrable":
        """The elements where ``keep`` holds; groups left without any are dropped."""
        return self.regroup(keep, drop_empty=True)

    def subset(self, schema: Schema) -> "Arrable":
        names = [n for n in schema.names() if n != self.gba]
        order = self.order if names else self.order[:0]
        offsets = self.offsets if names else np.zeros_like(self.offsets)
        return Arrable(self.gba, schema, self.keys, offsets,
                       self.base.subset(schema.subset(names)), order)

    def __len__(self) -> int:
        return len(self.keys)


def offsets_of(counts: Sequence[int] | np.ndarray) -> np.ndarray:
    """CSR offsets of consecutive groups with the given sizes."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
