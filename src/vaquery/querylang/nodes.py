"""Abstract syntax tree for the query language."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..operators import CctOption
from ..similarity import MatchPolarity, Metric
from ..windows import WindowKind


@dataclass(frozen=True)
class ColumnRef:
    qualifier: str | None
    name: str

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class SMatchArgs:
    th: float
    metric: Metric | None = None
    polarity: MatchPolarity | None = None


# select items

@dataclass(frozen=True)
class SelectStar:
    pass


@dataclass(frozen=True)
class SelectColumn:
    ref: ColumnRef


@dataclass(frozen=True)
class SelectAggregate:
    func: str  # count | sum | avg | min | max
    arg: ColumnRef | None  # None means count(*)


@dataclass(frozen=True)
class SelectDirection:
    ref: ColumnRef


SelectItem = Union[SelectStar, SelectColumn, SelectAggregate, SelectDirection]


# sources

@dataclass(frozen=True)
class TableSource:
    name: str
    alias: str | None = None


@dataclass(frozen=True)
class R2ASource:
    table: str
    gba: ColumnRef
    aoa: ColumnRef
    alias: str | None = None


@dataclass(frozen=True)
class CctSource:
    inner: "Source"
    option: CctOption
    gap_threshold: int = 1  # largest fid step within one run
    alias: str | None = None


@dataclass(frozen=True)
class SubquerySource:
    query: "Query"
    alias: str | None = None


Source = Union[TableSource, R2ASource, CctSource, SubquerySource]


# where-clause expressions

@dataclass(frozen=True)
class CmpExpr:
    ref: ColumnRef
    op: str
    value: object  # number or string literal


@dataclass(frozen=True)
class BBoxExpr:
    ref: ColumnRef
    # each component: None (wildcard), float (exact), or (lo, hi) range
    components: tuple[object, object, object, object]


@dataclass(frozen=True)
class SMatchExpr:
    ref: ColumnRef
    args: SMatchArgs
    probe: tuple[float, ...]


@dataclass(frozen=True)
class AndExpr:
    parts: tuple["Expr", ...]


@dataclass(frozen=True)
class OrExpr:
    parts: tuple["Expr", ...]


@dataclass(frozen=True)
class NotExpr:
    part: "Expr"


Expr = Union[CmpExpr, BBoxExpr, SMatchExpr, AndExpr, OrExpr, NotExpr]


# join clause

@dataclass(frozen=True)
class ScalarPairCmp:
    left: ColumnRef
    op: str
    right: ColumnRef
    offset: float = 0.0  # added to the left side, e.g. left.ts + 30 <= right.ts


@dataclass(frozen=True)
class JoinCond:
    left: ColumnRef
    args: SMatchArgs | None  # None: plain equality join
    right: ColumnRef
    extras: tuple[ScalarPairCmp, ...] = ()


@dataclass(frozen=True)
class JoinClause:
    kind: str  # JOIN | CJOIN | CCTJOIN
    source: Source
    cond: JoinCond


@dataclass(frozen=True)
class WindowClause:
    kind: WindowKind
    size: float
    hop: float


@dataclass(frozen=True)
class Query:
    select: tuple[SelectItem, ...]
    source: Source
    join: JoinClause | None = None
    where: Expr | None = None
    window: WindowClause | None = None
