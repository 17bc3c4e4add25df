"""Abstract syntax tree for the query language.

Sources, select items and clauses are the classes below. WHERE predicates,
join conditions and windows are the engine's own classes: the operators'
:class:`~vaquery.operators.Comparison`, ``BBoxTest``, ``SMatchProbe``,
``And``, ``Or``, ``Not`` and ``ScalarPairPredicate``,
:class:`~vaquery.similarity.MatchCondition` and
:class:`~vaquery.windows.WindowSpec`. A parsed predicate holds a
:class:`ColumnRef` in each column field, where a planned one holds the
schema's name for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..operators import CctOption, Predicate, ScalarPairPredicate
from ..similarity import MatchCondition
from ..windows import WindowSpec


@dataclass(frozen=True)
class ColumnRef:
    qualifier: str | None
    name: str

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


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


@dataclass(frozen=True)
class JoinCond:
    left: ColumnRef
    args: MatchCondition | None  # None: plain equality join
    right: ColumnRef
    extras: tuple[ScalarPairPredicate, ...] = ()


@dataclass(frozen=True)
class JoinClause:
    kind: str  # JOIN | CJOIN | CCTJOIN
    source: Source
    cond: JoinCond


@dataclass(frozen=True)
class Query:
    select: tuple[SelectItem, ...]
    source: Source
    join: JoinClause | None = None
    where: Predicate | None = None
    window: WindowSpec | None = None
