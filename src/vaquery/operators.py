"""Windowed operators over relations and arrables.

Alongside the backward-compatible relational operators (select, project,
equi-join, aggregation) this module implements the vector-aware operators:
grouping a relation into an arrable, compressing consecutive appearances of
an object, similarity joins in three flavors, and net direction of motion.

All operators are pure: they take immutable inputs for one window and return
new values. Similarity joins accept a :class:`ComparisonCounter` so callers
can observe how many feature-vector comparisons each variant performs.
"""

from __future__ import annotations

import operator as _pyop
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Sequence

import numpy as np

from .errors import EmptyRow, IllegalColumnKind, UnknownColumn
from .model import (Arrable, ArrableRow, Column, ColumnKind, FeatureVector,
                    Relation, Schema, kind_check)
from .similarity import MatchCondition, normalized_matrix, scores_against, smatch


class ComparisonCounter:
    """Monotone counter of feature-vector comparisons."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, n: int) -> None:
        self.count += n


class CctOption(Enum):
    FIRST = "first"
    LAST = "last"
    BOTH = "both"


class Direction8(Enum):
    N = "N"
    S = "S"
    E = "E"
    W = "W"
    NE = "NE"
    NW = "NW"
    SE = "SE"
    SW = "SW"
    STATIONARY = "STATIONARY"


@dataclass(frozen=True)
class Run:
    """Maximal stretch of consecutive appearances, half-open [start_index, end_index)."""

    start_index: int
    end_index: int


@dataclass(frozen=True)
class BBPattern:
    """Per-component bounding-box test: exact value, [lo, hi] range, or wildcard.

    Components are given in (x, y, w, h) order; ``None`` is the wildcard and
    a 2-tuple is a closed range.
    """

    x: float | tuple[float, float] | None = None
    y: float | tuple[float, float] | None = None
    w: float | tuple[float, float] | None = None
    h: float | tuple[float, float] | None = None

    def __post_init__(self) -> None:
        for comp in (self.x, self.y, self.w, self.h):
            if isinstance(comp, tuple) and comp[0] > comp[1]:
                raise ValueError(f"range lower bound exceeds upper bound: {comp}")

    def matches(self, bb) -> bool:
        for comp, value in zip((self.x, self.y, self.w, self.h),
                               (bb.x, bb.y, bb.w, bb.h)):
            if comp is None:
                continue
            if isinstance(comp, tuple):
                if not comp[0] <= value <= comp[1]:
                    return False
            elif value != comp:
                return False
        return True


@dataclass(frozen=True)
class JoinPair:
    """One matched object pair; witnesses index the matched vector elements."""

    left_oid: Any
    right_oid: Any
    left_witness: int
    right_witness: int
    score: float

    def key(self) -> tuple[Any, Any]:
        return (self.left_oid, self.right_oid)


# --- predicates -------------------------------------------------------------

_CMP_FUNCS: dict[str, Callable[[Any, Any], bool]] = {
    "=": _pyop.eq, "!=": _pyop.ne, "<": _pyop.lt,
    "<=": _pyop.le, ">": _pyop.gt, ">=": _pyop.ge,
}

_ORDERED_OPS = {"<", "<=", ">", ">="}


class Predicate:
    """Base for row/element-level predicates used by select()."""

    def columns(self) -> list[str]:
        raise NotImplementedError

    def check(self, schema: Schema) -> None:
        raise NotImplementedError

    def evaluate(self, get: Callable[[str], Any], counter: ComparisonCounter | None) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class Comparison(Predicate):
    """``column <op> literal`` on a scalar or categorical column."""

    column: str
    op: str
    value: Any

    def columns(self) -> list[str]:
        return [self.column]

    def check(self, schema: Schema) -> None:
        kind_check("compare", self.column, schema)
        if self.op in _ORDERED_OPS and schema.kind_of(self.column) is not ColumnKind.SCALAR_NUMERIC:
            raise IllegalColumnKind(self.op, schema.resolve(self.column),
                                    schema.kind_of(self.column).name)

    def evaluate(self, get, counter=None) -> bool:
        return _CMP_FUNCS[self.op](get(self.column), self.value)


@dataclass(frozen=True)
class BBoxTest(Predicate):
    column: str
    pattern: BBPattern

    def columns(self) -> list[str]:
        return [self.column]

    def check(self, schema: Schema) -> None:
        kind_check("bb_pattern", self.column, schema)

    def evaluate(self, get, counter=None) -> bool:
        return self.pattern.matches(get(self.column))


@dataclass(frozen=True)
class SMatchProbe(Predicate):
    """``column sMatch(th) <probe vector>`` — similarity search against a probe."""

    column: str
    probe: FeatureVector
    cond: MatchCondition

    def columns(self) -> list[str]:
        return [self.column]

    def check(self, schema: Schema) -> None:
        kind_check("smatch", self.column, schema)

    def evaluate(self, get, counter=None) -> bool:
        matched, _ = smatch(self.cond, get(self.column), self.probe)
        if counter is not None:
            counter.add(1)
        return matched


@dataclass(frozen=True)
class And(Predicate):
    parts: tuple[Predicate, ...]

    def columns(self) -> list[str]:
        return [c for p in self.parts for c in p.columns()]

    def check(self, schema: Schema) -> None:
        for p in self.parts:
            p.check(schema)

    def evaluate(self, get, counter=None) -> bool:
        return all(p.evaluate(get, counter) for p in self.parts)


@dataclass(frozen=True)
class Or(Predicate):
    parts: tuple[Predicate, ...]

    def columns(self) -> list[str]:
        return [c for p in self.parts for c in p.columns()]

    def check(self, schema: Schema) -> None:
        for p in self.parts:
            p.check(schema)

    def evaluate(self, get, counter=None) -> bool:
        return any(p.evaluate(get, counter) for p in self.parts)


@dataclass(frozen=True)
class Not(Predicate):
    part: Predicate

    def columns(self) -> list[str]:
        return self.part.columns()

    def check(self, schema: Schema) -> None:
        self.part.check(schema)

    def evaluate(self, get, counter=None) -> bool:
        return not self.part.evaluate(get, counter)


# --- grouping and compression ------------------------------------------------


def r2a(rel: Relation, gba: str, aoa: str) -> Arrable:
    """Group a relation on ``gba`` and order each group's vectors by ``aoa``.

    Groups appear in order of first appearance; within a group the sort is
    by (aoa, fid) and stable, so flattening the result is a permutation of
    the input rows.
    """
    kind_check("r2a_gba", gba, rel.schema)
    kind_check("r2a_aoa", aoa, rel.schema)
    gba = rel.schema.resolve(gba)
    aoa = rel.schema.resolve(aoa)
    value_cols = [n for n in rel.schema.names() if n != gba]

    groups: dict[Any, list[dict[str, Any]]] = {}
    for row in rel.rows:
        groups.setdefault(row[gba], []).append(row)

    arows = []
    for key, rows in groups.items():
        rows = sorted(rows, key=lambda r: (r[aoa], r.get("fid", 0)))
        arows.append(ArrableRow(key, {c: tuple(r[c] for r in rows) for c in value_cols}))
    return Arrable(gba, aoa, rel.schema, tuple(arows))


def split_runs(fids: Sequence[int], gap_threshold: int = 1) -> list[Run]:
    """Split an ascending fid vector into maximal runs of near-consecutive frames."""
    runs: list[Run] = []
    if not fids:
        return runs
    start = 0
    for i in range(1, len(fids)):
        if fids[i] - fids[i - 1] > gap_threshold:
            runs.append(Run(start, i))
            start = i
    runs.append(Run(start, len(fids)))
    return runs


def cct(ar: Arrable, option: CctOption = CctOption.FIRST, gap_threshold: int = 1) -> Arrable:
    """Compress each group's consecutive appearances to one or two per run.

    FIRST keeps each run's first element, LAST its last, BOTH first and last
    (a singleton run contributes a single element, not a duplicate).
    """
    new_rows = []
    for row in ar.rows:
        if "fid" not in row.values:
            raise UnknownColumn("fid")
        keep: list[int] = []
        for run in split_runs(row.column("fid"), gap_threshold):
            if option is CctOption.FIRST:
                keep.append(run.start_index)
            elif option is CctOption.LAST:
                keep.append(run.end_index - 1)
            else:
                keep.append(run.start_index)
                if run.end_index - 1 != run.start_index:
                    keep.append(run.end_index - 1)
        new_rows.append(ArrableRow(row.key, {c: tuple(vec[i] for i in keep)
                                             for c, vec in row.values.items()}))
    return Arrable(ar.gba, ar.aoa, ar.schema, tuple(new_rows))


# --- select / project ---------------------------------------------------------


def select(data: Relation | Arrable, predicate: Predicate,
           counter: ComparisonCounter | None = None) -> Relation | Arrable:
    """Filter rows (relation) or vector elements (arrable) by a predicate.

    On an arrable the predicate is evaluated per element position; rows whose
    vectors become empty are dropped. Column-kind violations are raised
    before any row is touched.
    """
    predicate.check(data.schema)
    if isinstance(data, Relation):
        kept = tuple(r for r in data.rows if predicate.evaluate(r.__getitem__, counter))
        return Relation(data.schema, kept, data.source_id)

    new_rows = []
    for row in data.rows:
        def get_at(i: int) -> Callable[[str], Any]:
            def get(col: str) -> Any:
                if col == data.gba:
                    return row.key
                return row.column(col)[i]
            return get

        keep = [i for i in range(len(row)) if predicate.evaluate(get_at(i), counter)]
        if keep:
            new_rows.append(ArrableRow(row.key, {c: tuple(vec[i] for i in keep)
                                                 for c, vec in row.values.items()}))
    return Arrable(data.gba, data.aoa, data.schema, tuple(new_rows))


def project(data: Relation | Arrable, columns: Sequence[str]) -> Relation | Arrable:
    """Column subset, order preserved. Unknown names raise UNKNOWN_COLUMN."""
    sub = data.schema.subset(columns)
    if isinstance(data, Relation):
        names = sub.names()
        return Relation(sub, tuple({n: r[n] for n in names} for r in data.rows), data.source_id)
    vec_names = [n for n in sub.names() if n != data.gba]
    rows = tuple(ArrableRow(r.key, {n: r.column(n) for n in vec_names}) for r in data.rows)
    return Arrable(data.gba, data.aoa, sub, rows)


# --- joins --------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarPairPredicate:
    """Element-level scalar comparison between the two join sides.

    Evaluates ``left[left_column] + offset <op> right[right_column]``, e.g.
    a relative time frame such as ``left.ts + 30 <= right.ts``.
    """

    left_column: str
    op: str
    right_column: str
    offset: float = 0.0

    def mask_row(self, left_value: Any, right_values: Sequence[Any]) -> np.ndarray:
        fn = _CMP_FUNCS[self.op]
        lv = left_value + self.offset if self.offset else left_value
        return np.fromiter((fn(lv, rv) for rv in right_values), dtype=bool,
                           count=len(right_values))


def _join_groups(left: Arrable, right: Arrable, cond: MatchCondition,
                 on: tuple[str, str], extra: tuple[ScalarPairPredicate, ...],
                 counter: ComparisonCounter | None,
                 first_match_only: bool) -> list[JoinPair]:
    """Shared nested-loop core for the similarity joins.

    Scans element pairs in (left element, right element) order within each
    (left group, right group) pair. ``first_match_only`` makes the scan stop
    at the first matching pair of a group pair; otherwise every element pair
    is evaluated and the first match is recorded as witness.
    """
    kind_check("smatch", on[0], left.schema)
    kind_check("smatch", on[1], right.schema)
    lcol = left.schema.resolve(on[0])
    rcol = right.schema.resolve(on[1])
    if cond.polarity.value.startswith("similarity"):
        match_mask = lambda s: s >= cond.th
    else:
        match_mask = lambda s: s <= cond.th

    right_mats = [normalized_matrix(list(r.column(rcol))) for r in right.rows]
    pairs: list[JoinPair] = []
    for lrow in left.rows:
        lmat = normalized_matrix(list(lrow.column(lcol)))
        if lmat.shape[0] == 0:
            continue
        for rrow, rmat in zip(right.rows, right_mats):
            m = rmat.shape[0]
            if m == 0:
                continue
            found: JoinPair | None = None
            for li in range(lmat.shape[0]):
                scores = scores_against(cond, lmat[li], rmat)
                mask = match_mask(scores)
                for pred in extra:
                    mask = mask & pred.mask_row(lrow.column(pred.left_column)[li],
                                                rrow.column(pred.right_column))
                hit = int(np.argmax(mask)) if mask.any() else -1
                if first_match_only:
                    if hit >= 0:
                        if counter is not None:
                            counter.add(hit + 1)
                        found = JoinPair(lrow.key, rrow.key, li, hit, float(scores[hit]))
                        break
                    if counter is not None:
                        counter.add(m)
                else:
                    if counter is not None:
                        counter.add(m)
                    if hit >= 0 and found is None:
                        found = JoinPair(lrow.key, rrow.key, li, hit, float(scores[hit]))
            if found is not None:
                pairs.append(found)
    return pairs


def nl_join(left: Arrable, right: Arrable, cond: MatchCondition,
            on: tuple[str, str] = ("fv", "fv"),
            extra: tuple[ScalarPairPredicate, ...] = (),
            counter: ComparisonCounter | None = None) -> list[JoinPair]:
    """Exhaustive nested-loop similarity join.

    Every element pair of every group pair is compared (the comparison
    counter reflects all of them); one pair per matching (left, right) group
    is emitted with the first match in scan order as witness.
    """
    return _join_groups(left, right, cond, on, extra, counter, first_match_only=False)


def cjoin(left: Arrable, right: Arrable, cond: MatchCondition,
          on: tuple[str, str] = ("fv", "fv"),
          extra: tuple[ScalarPairPredicate, ...] = (),
          counter: ComparisonCounter | None = None) -> list[JoinPair]:
    """Similarity join that stops scanning a group pair at its first match.

    Emits exactly the same set of (left, right) group pairs as
    :func:`nl_join` under the same condition, with at most as many
    comparisons.
    """
    return _join_groups(left, right, cond, on, extra, counter, first_match_only=True)


def cct_join(left: Arrable, right: Arrable, cond: MatchCondition,
             option: CctOption = CctOption.BOTH,
             on: tuple[str, str] = ("fv", "fv"),
             extra: tuple[ScalarPairPredicate, ...] = (),
             counter: ComparisonCounter | None = None,
             gap_threshold: int = 1) -> list[JoinPair]:
    """Compress both inputs per run, then join exhaustively.

    Retains at most two elements per run on each side, so the comparison
    count is bounded by (retained left) x (retained right); matches found
    mid-run on both sides can be missed.
    """
    return nl_join(cct(left, option, gap_threshold), cct(right, option, gap_threshold),
                   cond, on, extra, counter)


def hash_equi_join(left: Relation, right: Relation, column: str,
                   right_column: str | None = None,
                   prefixes: tuple[str, str] = ("left", "right")) -> Relation:
    """Hash-based equality join on a scalar or categorical column.

    Output columns are qualified with the given prefixes; rows come out in
    left order, then right order within a key.
    """
    right_column = right_column or column
    kind_check("equality_join", column, left.schema)
    kind_check("equality_join", right_column, right.schema)
    lcol = left.schema.resolve(column)
    rcol = right.schema.resolve(right_column)
    lp, rp = prefixes

    index: dict[Any, list[dict[str, Any]]] = {}
    for rrow in right.rows:
        index.setdefault(rrow[rcol], []).append(rrow)

    out_schema = equi_join_schema(left.schema, right.schema, prefixes)
    rows = []
    for lrow in left.rows:
        for rrow in index.get(lrow[lcol], ()):
            merged = {f"{lp}.{k}": v for k, v in lrow.items()}
            merged.update({f"{rp}.{k}": v for k, v in rrow.items()})
            rows.append(merged)
    return Relation(out_schema, tuple(rows))


def equi_join_schema(left: Schema, right: Schema,
                     prefixes: tuple[str, str] = ("left", "right")) -> Schema:
    lp, rp = prefixes
    return Schema(tuple(
        [Column(f"{lp}.{c.name}", c.kind) for c in left.columns]
        + [Column(f"{rp}.{c.name}", c.kind) for c in right.columns]))


# --- direction and aggregates ---------------------------------------------------


def _signed(delta: float, epsilon: float) -> int:
    if abs(delta) <= epsilon:
        return 0
    return 1 if delta > 0 else -1


_DIRECTION_BY_SIGNS = {
    (0, 1): Direction8.N, (0, -1): Direction8.S,
    (1, 0): Direction8.E, (-1, 0): Direction8.W,
    (1, 1): Direction8.NE, (-1, 1): Direction8.NW,
    (1, -1): Direction8.SE, (-1, -1): Direction8.SW,
    (0, 0): Direction8.STATIONARY,
}


def direction(ar: Arrable, epsilon: float = 0.0,
              bb_column: str = "bb") -> list[tuple[Any, Direction8]]:
    """Net direction of motion per group, from the first and last boxes.

    The displacement is taken between the lower-left corners; components
    within ``epsilon`` of zero count as no movement on that axis.
    """
    kind_check("direction", bb_column, ar.schema)
    col = ar.schema.resolve(bb_column)
    out = []
    for row in ar.rows:
        boxes = row.column(col)
        if not boxes:
            raise EmptyRow(f"group {row.key!r} has no bounding boxes")
        p1, p2 = boxes[0].corner(), boxes[-1].corner()
        signs = (_signed(p2[0] - p1[0], epsilon), _signed(p2[1] - p1[1], epsilon))
        out.append((row.key, _DIRECTION_BY_SIGNS[signs]))
    return out


def group_count(ar: Arrable) -> int:
    """Number of arrable rows, i.e. distinct group-by values."""
    return len(ar.rows)


def element_count(ar: Arrable, column: str | None = None) -> int:
    """Total elements across all rows (of one column, or of the row vectors)."""
    if column is not None:
        col = ar.schema.resolve(column)
        if col == ar.gba:
            return len(ar.rows)
        return sum(len(r.column(col)) for r in ar.rows)
    return ar.element_count()


def aggregate(data: Relation | Arrable, func: str, column: str) -> float | int:
    """count/sum/avg/min/max over a column; arithmetic only on numeric columns."""
    func = func.lower()
    kind_check(func, column, data.schema)
    col = data.schema.resolve(column)
    if isinstance(data, Relation):
        values = [r[col] for r in data.rows]
    elif col == data.gba:
        values = [r.key for r in data.rows]
    else:
        values = [v for r in data.rows for v in r.column(col)]
    if func == "count":
        return len(values)
    if not values:
        raise ValueError(f"aggregate {func} over empty input")
    if func == "sum":
        return sum(values)
    if func == "avg":
        return sum(values) / len(values)
    if func == "min":
        return min(values)
    return max(values)


def count_star(data: Relation | Arrable) -> int:
    """count(*): rows of a relation, groups of an arrable."""
    return len(data.rows)
