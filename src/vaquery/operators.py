"""Windowed operators over relations and arrables.

Alongside the backward-compatible relational operators (select, project,
equi-join, aggregation) this module implements the vector-aware operators:
grouping a relation into an arrable, compressing consecutive appearances of
an object, similarity joins in three flavors, and net direction of motion.

All operators are pure: they take immutable inputs for one window and return
new values. Similarity search and joins accept a counter, a plan node's
:class:`~vaquery.engine.StageStats`, so callers can observe how many
feature-vector comparisons each variant performs.
"""

from __future__ import annotations

import operator as _pyop
from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from numbers import Real
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np
from numpy.dtypes import StringDType

from .errors import EmptyRow, IllegalColumnKind, SchemaMismatch, UnknownColumn
from .model import Arrable, Column, ColumnKind, Relation, Schema, kind_check, offsets_of
# smatch stays a module attribute so that tracing tools can wrap it here
from .similarity import (MatchCondition, canonical_scores, normalized_matrix,  # noqa: F401
                         scores_against, smatch)

if TYPE_CHECKING:
    from .engine import StageStats


class CctOption(Enum):
    FIRST = "first"
    LAST = "last"
    BOTH = "both"


class Direction8(str, Enum):
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

    def mask(self, boxes: np.ndarray) -> np.ndarray:
        """Match test for each box of an (n, 4) box block, as one bool array."""
        # object dtype keeps Python's exact int/float comparison per value
        block = np.array(boxes.tolist(), dtype=object).reshape(-1, 4)
        keep = np.ones(len(block), dtype=bool)
        for comp, values in zip((self.x, self.y, self.w, self.h), block.T):
            if comp is None:
                continue
            if isinstance(comp, tuple):
                keep &= (comp[0] <= values) & (values <= comp[1])
            else:
                keep &= values == comp
        return keep


# --- predicates -------------------------------------------------------------

_CMP_FUNCS: dict[str, Callable[[Any, Any], bool]] = {
    "=": _pyop.eq, "!=": _pyop.ne, "<": _pyop.lt,
    "<=": _pyop.le, ">": _pyop.gt, ">=": _pyop.ge,
}

_ORDERED_OPS = {"<", "<=", ">", ">="}
#: the comparison that holds with its two sides swapped
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


def ordered_check(op: str, column: str, schema: Schema) -> None:
    """Reject ``<``, ``<=``, ``>`` and ``>=`` on a column that is not numeric."""
    kind = schema.kind_of(column)
    if op in _ORDERED_OPS and kind is not ColumnKind.SCALAR_NUMERIC:
        raise IllegalColumnKind(op, schema.resolve(column), kind.name)


class Predicate:
    """Base for the predicates of select(), decided as one mask per window.

    The query parser builds predicates whose ``column`` fields hold a
    ``querylang.nodes.ColumnRef``; the planner replaces each with the
    schema's name for that column before any predicate is checked or run.
    """

    def check(self, schema: Schema) -> None:
        raise NotImplementedError

    def mask(self, column: Callable[[str], np.ndarray], live: np.ndarray,
             counter: StageStats | None) -> np.ndarray:
        """Truth value of the predicate per element, False outside ``live``.

        ``column(name)`` gives the window's column array in element order;
        ``live`` marks the elements still to be decided, which are exactly
        those a per-element short-circuit evaluation would reach.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Comparison(Predicate):
    """``column <op> literal`` on a scalar or categorical column."""

    column: str
    op: str
    value: Any

    def check(self, schema: Schema) -> None:
        kind_check("compare", self.column, schema)
        ordered_check(self.op, self.column, schema)
        if self.op in _ORDERED_OPS and not isinstance(self.value, Real):
            raise SchemaMismatch(f"{self.op!r} compares numeric column "
                                 f"{schema.resolve(self.column)!r} with non-numeric {self.value!r}")

    def mask(self, column, live, counter=None) -> np.ndarray:
        values = column(self.column)
        if not (isinstance(values.dtype, StringDType) and isinstance(self.value, str)
                and self.op in ("=", "!=")):
            # object dtype keeps Python's comparison semantics per value
            values = np.array(values.tolist(), dtype=object)
        return _CMP_FUNCS[self.op](values, self.value) & live


@dataclass(frozen=True)
class BBoxTest(Predicate):
    column: str
    pattern: BBPattern

    def check(self, schema: Schema) -> None:
        kind_check("bb_pattern", self.column, schema)

    def mask(self, column, live, counter=None) -> np.ndarray:
        return self.pattern.mask(column(self.column)) & live


@dataclass(frozen=True)
class SMatchProbe(Predicate):
    """``column sMatch(th) <probe vector>`` — similarity search against a probe."""

    column: str
    probe: tuple[float, ...]
    cond: MatchCondition
    # the probe is a constant of the query, so it is normalized once
    unit_probe: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "unit_probe",
                           normalized_matrix(np.array([self.probe], dtype=np.float64)))

    def check(self, schema: Schema) -> None:
        kind_check("smatch", self.column, schema)

    def mask(self, column, live, counter=None) -> np.ndarray:
        """Scores the live elements as one block against the probe."""
        out = np.zeros(len(live), dtype=bool)
        idx = np.flatnonzero(live)
        if not len(idx):
            return out
        unit = normalized_matrix(column(self.column)[idx])
        if counter is not None:
            counter.add(len(idx))
        # probe on the left: the euclidean kernel loops over left rows
        out[idx] = self.cond.matched(scores_against(self.cond, self.unit_probe, unit)[0])
        return out


@dataclass(frozen=True)
class And(Predicate):
    parts: tuple[Predicate, ...]

    def check(self, schema: Schema) -> None:
        for p in self.parts:
            p.check(schema)

    def mask(self, column, live, counter=None) -> np.ndarray:
        # each part decides only the elements every earlier part kept
        for p in self.parts:
            live = p.mask(column, live, counter)
        return live


@dataclass(frozen=True)
class Or(Predicate):
    parts: tuple[Predicate, ...]

    def check(self, schema: Schema) -> None:
        for p in self.parts:
            p.check(schema)

    def mask(self, column, live, counter=None) -> np.ndarray:
        # each part decides only the elements no earlier part kept
        out = np.zeros_like(live)
        for p in self.parts:
            out |= p.mask(column, live & ~out, counter)
        return out


@dataclass(frozen=True)
class Not(Predicate):
    part: Predicate

    def check(self, schema: Schema) -> None:
        self.part.check(schema)

    def mask(self, column, live, counter=None) -> np.ndarray:
        return live & ~self.part.mask(column, live, counter)


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
    _, first, group = np.unique(rel.column(gba), return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))[group]  # of each row's group, by first appearance
    fid = [rel.column("fid")] if "fid" in rel.columns else []
    order = np.lexsort((*fid, rel.column(aoa), rank))
    base = rel.subset(rel.schema.subset([n for n in rel.schema.names() if n != gba]))
    return Arrable(gba, rel.schema, rel.column(gba)[np.sort(first)],
                   offsets_of(np.bincount(rank, minlength=len(first))), base, order)


def cct(ar: Arrable, option: CctOption = CctOption.FIRST, gap_threshold: int = 1) -> Arrable:
    """Compress each group's consecutive appearances to one or two per run.

    A run is a maximal stretch of a group's elements whose fids step by at
    most ``gap_threshold``. FIRST keeps each run's first element, LAST its
    last, BOTH first and last (a singleton run contributes a single element,
    not a duplicate).
    """
    if len(ar) and "fid" not in ar.base.columns:
        raise UnknownColumn("fid")
    fid = ar.column("fid") if "fid" in ar.base.columns else np.zeros(0, dtype=np.int64)
    start, end = np.ones(len(fid), dtype=bool), np.ones(len(fid), dtype=bool)
    start[1:] = np.diff(fid) > gap_threshold
    start[ar.offsets[:-1][ar.counts > 0]] = True
    end[:-1] = start[1:]
    keep = {CctOption.FIRST: start, CctOption.LAST: end, CctOption.BOTH: start | end}[option]
    return ar.regroup(keep, drop_empty=False)


# --- select / project ---------------------------------------------------------


def select(data: Relation | Arrable, predicate: Predicate,
           counter: StageStats | None = None) -> Relation | Arrable:
    """Filter rows (relation) or vector elements (arrable) by a predicate.

    The predicate is decided as one mask over the window's elements: a
    relation's rows, or an arrable's vector elements in group order, each
    element seeing its group's key in the ``gba`` column. Arrable groups
    whose vectors become empty are dropped. Column-kind violations are
    raised before any row is touched.
    """
    predicate.check(data.schema)
    keep = predicate.mask(cache(data.column), np.ones(data.element_count(), dtype=bool), counter)
    return data.take(keep)


def project(data: Relation | Arrable, columns: Sequence[str]) -> Relation | Arrable:
    """Column subset, order preserved. Unknown names raise UNKNOWN_COLUMN."""
    return data.subset(data.schema.subset(columns))


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

    def check(self, left: Schema, right: Schema) -> None:
        """Reject a pair whose columns differ in kind or do not compare with ``op``.

        Checked as parsed: each column is a reference whose ``name`` lies in
        its side's schema, and which the messages quote as written.
        """
        lname, rname = self.left_column.name, self.right_column.name
        kind_check("compare", lname, left)
        kind_check("compare", rname, right)
        lkind, rkind = left.kind_of(lname), right.kind_of(rname)
        if lkind is not rkind:
            raise SchemaMismatch(f"join condition compares {self.left_column} ({lkind.name}) "
                                 f"with {self.right_column} ({rkind.name})")
        if self.offset and lkind is not ColumnKind.SCALAR_NUMERIC:
            raise SchemaMismatch(f"join condition adds an offset to {self.left_column} "
                                 f"({lkind.name})")
        ordered_check(self.op, lname, left)

    def flipped(self) -> ScalarPairPredicate:
        """The same comparison with its two sides swapped."""
        return ScalarPairPredicate(self.right_column, _FLIPPED[self.op], self.left_column,
                                   -self.offset)

    def mask(self, left_values: Sequence[Any], right_values: Sequence[Any]) -> np.ndarray:
        """(n, m) truth table of the comparison over every element pair."""
        lv = np.asarray(left_values)[:, None]
        if self.offset:
            lv = lv + self.offset
        return _CMP_FUNCS[self.op](lv, np.asarray(right_values)[None, :])


def _join_groups(left: Arrable, right: Arrable, cond: MatchCondition,
                 on: tuple[str, str], extra: tuple[ScalarPairPredicate, ...],
                 counter: StageStats | None,
                 first_match_only: bool) -> tuple[np.ndarray, ...]:
    """Shared core for the similarity joins.

    Scores each (left group, right group) pair as one block; the witness is
    the first matching element pair in (left element, right element) order.
    ``first_match_only`` counts comparisons as if the scan stopped at that
    witness; otherwise every element pair of the block counts.

    Returns one entry per matched group pair, in scan order, as five
    columns: left key, right key, left and right witness (each an element's
    position in its group) and the witness's canonical score.
    """
    kind_check("smatch", on[0], left.schema)
    kind_check("smatch", on[1], right.schema)
    lcol = left.schema.resolve(on[0])
    rcol = right.schema.resolve(on[1])

    lextra = [left.column(p.left_column) for p in extra]
    rextra = [right.column(p.right_column) for p in extra]
    lvecs, rvecs = left.base.column(lcol), right.base.column(rcol)
    lbounds, rbounds = left.offsets.tolist(), right.offsets.tolist()
    # vectors are gathered and normalized one group at a time, which keeps
    # the peak memory of a join near one normalized side
    rgroups = [(j, lo, hi, normalized_matrix(rvecs[right.order[lo:hi]]))
               for j, (lo, hi) in enumerate(zip(rbounds, rbounds[1:])) if lo < hi]
    pairs: list[tuple[int, int, int, int]] = []  # left group, right group, witnesses
    score: list[float] = []
    for i, (llo, lhi) in enumerate(zip(lbounds, lbounds[1:])):
        if llo == lhi:
            continue
        lmat = normalized_matrix(lvecs[left.order[llo:lhi]])
        for j, rlo, rhi, rmat in rgroups:
            scores = scores_against(cond, lmat, rmat)
            mask = cond.matched(scores)
            for pred, lvals, rvals in zip(extra, lextra, rextra):
                mask &= pred.mask(lvals[llo:lhi], rvals[rlo:rhi])
            flat = int(np.argmax(mask))
            hit = bool(mask.flat[flat])
            if counter is not None:
                counter.add(flat + 1 if hit and first_match_only else mask.size)
            if hit:
                li, ri = divmod(flat, mask.shape[1])
                pairs.append((i, j, li, ri))
                score.append(canonical_scores(cond.metric, lmat[li], rmat[ri]))
    lgroup, rgroup, lwitness, rwitness = np.array(pairs, dtype=np.int64).reshape(-1, 4).T
    return (left.keys[lgroup], right.keys[rgroup], lwitness, rwitness,
            np.array(score, dtype=np.float64))


def nl_join(left: Arrable, right: Arrable, cond: MatchCondition,
            on: tuple[str, str] = ("fv", "fv"),
            extra: tuple[ScalarPairPredicate, ...] = (),
            counter: StageStats | None = None) -> tuple[np.ndarray, ...]:
    """Exhaustive nested-loop similarity join.

    Every element pair of every group pair is compared (the comparison
    counter reflects all of them); one pair per matching (left, right) group
    is emitted with the first match in scan order as witness. The pairs come
    as the five columns of :func:`_join_groups`.
    """
    return _join_groups(left, right, cond, on, extra, counter, first_match_only=False)


def cjoin(left: Arrable, right: Arrable, cond: MatchCondition,
          on: tuple[str, str] = ("fv", "fv"),
          extra: tuple[ScalarPairPredicate, ...] = (),
          counter: StageStats | None = None) -> tuple[np.ndarray, ...]:
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
             counter: StageStats | None = None,
             gap_threshold: int = 1) -> tuple[np.ndarray, ...]:
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

    index: dict[Any, list[int]] = {}
    for j, key in enumerate(right.column(rcol).tolist()):
        index.setdefault(key, []).append(j)
    pairs = [(i, j) for i, key in enumerate(left.column(lcol).tolist())
             for j in index.get(key, ())]
    li, ri = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    columns = {f"{lp}.{n}": c[li] for n, c in left.columns.items()}
    columns.update({f"{rp}.{n}": c[ri] for n, c in right.columns.items()})
    return Relation(equi_join_schema(left.schema, right.schema, prefixes), columns)


def equi_join_schema(left: Schema, right: Schema,
                     prefixes: tuple[str, str] = ("left", "right")) -> Schema:
    lp, rp = prefixes
    return Schema(tuple(
        [Column(f"{lp}.{c.name}", c.kind) for c in left.columns]
        + [Column(f"{rp}.{c.name}", c.kind) for c in right.columns]))


# --- direction and aggregates ---------------------------------------------------


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
    boxes = ar.base.column(ar.schema.resolve(bb_column))
    keys = ar.keys.tolist()
    empty = np.flatnonzero(ar.counts == 0)
    if empty.size:
        raise EmptyRow(f"group {keys[empty[0]]!r} has no bounding boxes")
    first, last = ar.order[ar.offsets[:-1]], ar.order[ar.offsets[1:] - 1]
    delta = boxes[last, :2] - boxes[first, :2]
    signs = np.where(np.abs(delta) <= epsilon, 0, np.sign(delta)).astype(int).tolist()
    return [(key, _DIRECTION_BY_SIGNS[tuple(s)]) for key, s in zip(keys, signs)]


def group_count(ar: Arrable) -> int:
    """Number of arrable rows, i.e. distinct group-by values."""
    return len(ar)


def element_count(ar: Arrable, column: str | None = None) -> int:
    """Total elements across all rows (of one column, or of the row vectors)."""
    if column is not None:
        return len(ar.values(ar.schema.resolve(column)))
    return ar.element_count()


def aggregate(data: Relation | Arrable, func: str, column: str) -> float | int:
    """count/sum/avg/min/max over a column; arithmetic only on numeric columns.

    Over an arrable's ``gba`` column each group counts once.
    """
    func = func.lower()
    kind_check(func, column, data.schema)
    values = data.values(data.schema.resolve(column)).tolist()
    if func == "count":
        return len(values)
    if not values:
        raise ValueError(f"aggregate {func} over empty input")
    if func == "sum":
        return sum(values)
    if func == "avg":  # a running sum that overflows: divide each value first
        mean = sum(values) / len(values)
        return sum(v / len(values) for v in values) if np.isinf(mean) else mean
    if func == "min":
        return min(values)
    return max(values)


def count_star(data: Relation | Arrable) -> int:
    """count(*): rows of a relation, groups of an arrable."""
    return len(data)
