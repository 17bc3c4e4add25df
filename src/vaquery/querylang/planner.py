"""Query planner: validated AST -> executable operator tree.

Every source reads :data:`~vaquery.model.TRACE_SCHEMA`, so the plan is a
deterministic function of the AST and the default window: the query's one
window sits directly above each source leaf, grouping sits directly above
its source, and no reordering is attempted beyond two faithful
simplifications:

* a WHERE clause whose qualifiers all name the table of a grouped source
  filters that table before grouping (that is what the qualifier says);
* a projection feeding ``count(*)`` is dropped, since row counts ignore
  columns.

A CCTJOIN is planned as what it means: a JOIN over ``CCT(side, BOTH, 1)``
on each side.

The parser's predicates, join conditions and windows are already the
engine's objects; planning resolves each :class:`~.nodes.ColumnRef` in them
to the schema's spelling of the column. One scope rule binds every
qualifier: it names a source in scope by the source's alias or by the table
it reads, and must name exactly one (:func:`_source_of`). Column-kind
violations surface here, before any data flows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Union

from ..errors import SchemaMismatch, UnknownIdentifier
from ..model import TRACE_SCHEMA, Column, ColumnKind, Schema, kind_check
from ..operators import (And, BBoxTest, CctOption, Comparison, Not, Or,
                         Predicate, ScalarPairPredicate, SMatchProbe, equi_join_schema)
from ..similarity import MatchCondition
from ..windows import WHOLE_STREAM, WindowSpec
from . import nodes as ast
from .render import render_window


# --- plan nodes ---------------------------------------------------------------


class _Node:
    @property
    def children(self) -> tuple:
        """The nodes this one reads, left before right."""
        return tuple(getattr(self, n) for n in ("child", "left", "right") if hasattr(self, n))

    @property
    def group_key(self) -> str | None:
        """The column a grouped (arrable) output is keyed on, None for a relation:
        R2A sets it, and the nodes that work element by element keep their input's."""
        if isinstance(self, R2ANode):
            return self.gba
        if isinstance(self, (WindowNode, SelectNode, CctNode, ProjectNode)):
            return self.child.group_key
        return None


@dataclass(frozen=True)
class SourceNode(_Node):
    name: str
    ordinal: int
    schema: Schema


@dataclass(frozen=True)
class WindowNode(_Node):
    child: "PlanNode"
    spec: WindowSpec

    @property
    def schema(self) -> Schema:
        return self.child.schema


@dataclass(frozen=True)
class SelectNode(_Node):
    child: "PlanNode"
    predicate: Predicate

    @property
    def schema(self) -> Schema:
        return self.child.schema


@dataclass(frozen=True)
class R2ANode(_Node):
    child: "PlanNode"
    gba: str
    aoa: str

    @property
    def schema(self) -> Schema:
        return self.child.schema


@dataclass(frozen=True)
class CctNode(_Node):
    child: "PlanNode"
    option: CctOption
    gap_threshold: int

    @property
    def schema(self) -> Schema:
        return self.child.schema


@dataclass(frozen=True)
class ProjectNode(_Node):
    child: "PlanNode"
    columns: tuple[str, ...]
    schema: Schema


@dataclass(frozen=True)
class JoinNode(_Node):
    left: "PlanNode"
    right: "PlanNode"
    kind: str  # JOIN | CJOIN
    on_left: str
    on_right: str
    cond: MatchCondition
    extras: tuple[ScalarPairPredicate, ...]
    schema: Schema


@dataclass(frozen=True)
class EquiJoinNode(_Node):
    left: "PlanNode"
    right: "PlanNode"
    on_left: str
    on_right: str
    prefixes: tuple[str, str]
    schema: Schema


@dataclass(frozen=True)
class AggregateNode(_Node):
    child: "PlanNode"
    func: str  # count | sum | avg | min | max
    column: str | None  # None: count(*)
    label: str

    @property
    def schema(self) -> Schema:
        return Schema((Column(self.label, ColumnKind.SCALAR_NUMERIC),))


@dataclass(frozen=True)
class DirectionNode(_Node):
    child: "PlanNode"
    bb_column: str
    key_column: str
    schema: Schema


PlanNode = Union[SourceNode, WindowNode, SelectNode, R2ANode, CctNode,
                 ProjectNode, JoinNode, EquiJoinNode, AggregateNode,
                 DirectionNode]


@dataclass(frozen=True)
class QueryPlan:
    root: PlanNode
    sources: tuple[str, ...]  # source names in appearance order
    output_names: tuple[str, ...]


def iter_nodes(node: PlanNode):
    yield node
    for child in node.children:
        yield from iter_nodes(child)


# --- planning ----------------------------------------------------------------


@dataclass(eq=False)
class _Planned:
    """A planned source: its node and the two names a qualifier may give it."""

    node: PlanNode
    alias: str | None
    table: str | None  # the table it reads; None for a join or a subquery


def _source_of(ref: ast.ColumnRef, scope: Sequence[_Planned]) -> _Planned:
    """The one source in ``scope`` whose alias or table ``ref``'s qualifier names;
    an unqualified reference names the only source in scope."""
    if ref.qualifier is None:
        if len(scope) > 1:
            raise UnknownIdentifier(f"join condition column {ref.name!r} must be qualified")
        return scope[0]
    qualifier = ref.qualifier.lower()
    named = [s for s in scope if qualifier in {n.lower() for n in (s.alias, s.table) if n}]
    if len(named) != 1:
        why = "ambiguous" if named else "unknown"
        raise UnknownIdentifier(f"{why} qualifier {ref.qualifier!r}")
    return named[0]


def _crossed(a: ast.ColumnRef, b: ast.ColumnRef, left: _Planned, right: _Planned) -> bool:
    """Whether ``a`` names the right side and ``b`` the left; a comparison of
    two columns of one side is refused."""
    sides = (_source_of(a, (left, right)), _source_of(b, (left, right)))
    if sides not in ((left, right), (right, left)):
        raise SchemaMismatch("join condition must compare one column from each side")
    return sides[0] is right


def _mapped(p: Predicate, fn) -> Predicate:
    """``p`` with each column reference ``r`` in it replaced by ``fn(r)``."""
    if isinstance(p, (Comparison, BBoxTest, SMatchProbe)):
        return replace(p, column=fn(p.column))
    if isinstance(p, (And, Or)):
        return replace(p, parts=tuple(_mapped(part, fn) for part in p.parts))
    if isinstance(p, Not):
        return replace(p, part=_mapped(p.part, fn))
    raise TypeError(f"unknown predicate {p!r}")


def _refs(p: Predicate) -> list[ast.ColumnRef]:
    """The column references of a parsed predicate, left to right."""
    refs: list[ast.ColumnRef] = []
    _mapped(p, lambda r: refs.append(r) or r)
    return refs


def _grouped_table(src: ast.Source) -> str | None:
    """The table that R2A groups in ``src``, under any CCTs; None for other sources."""
    while isinstance(src, ast.CctSource):
        src = src.inner
    return src.table if isinstance(src, ast.R2ASource) else None


class _Planner:
    def __init__(self, window: WindowSpec):
        self.window = window  # the query's one window: it cuts every source
        self.sources: list[str] = []  # the source leaves' names, in appearance order

    def plan_query(self, q: ast.Query) -> PlanNode:
        if q.join is not None and q.where is not None:
            raise SchemaMismatch("WHERE alongside a join condition is not supported; "
                                 "put extra conjuncts in the ON clause")
        # a WHERE whose qualifiers all name the grouped table filters before grouping
        table = _grouped_table(q.source)
        quals = {r.qualifier.lower() for r in _refs(q.where) if r.qualifier} if q.where else set()
        below = q.where if table is not None and quals == {table.lower()} else None
        source = self.plan_source(q.source, below)

        if q.join is not None:
            source = _Planned(self.plan_join(q.join, source), None, None)
        elif q.where is not None and below is None:
            node = SelectNode(source.node, self.predicate(q.where, source))
            source = _Planned(node, source.alias, source.table)
        return self.plan_select_list(q.select, source)

    def predicate(self, p: Predicate, source: _Planned) -> Predicate:
        """``p`` over ``source``: its qualifiers checked, then its columns resolved."""
        for ref in _refs(p):
            _source_of(ref, [source])
        p = _mapped(p, lambda r: source.node.schema.resolve(r.name))
        p.check(source.node.schema)
        return p

    # sources

    def leaf(self, name: str) -> WindowNode:
        """The query's window over the source ``name``, the next in source order."""
        self.sources.append(name)
        return WindowNode(SourceNode(name, len(self.sources) - 1, TRACE_SCHEMA), self.window)

    def plan_source(self, src: ast.Source, where: Predicate | None = None) -> _Planned:
        """``src`` planned, with ``where`` filtering the table that it groups."""
        if isinstance(src, ast.TableSource):
            return _Planned(self.leaf(src.name), src.alias or src.name, src.name)
        if isinstance(src, ast.R2ASource):
            base = _Planned(self.leaf(src.table), None, src.table)
            for ref in (src.gba, src.aoa):
                _source_of(ref, [base])
            schema = base.node.schema
            kind_check("r2a_gba", src.gba.name, schema)
            kind_check("r2a_aoa", src.aoa.name, schema)
            child = base.node if where is None else \
                SelectNode(base.node, self.predicate(where, base))
            node = R2ANode(child, schema.resolve(src.gba.name), schema.resolve(src.aoa.name))
            return _Planned(node, src.alias, src.table)
        if isinstance(src, ast.CctSource):
            inner = self.plan_source(src.inner, where)
            if inner.node.group_key is None:
                raise SchemaMismatch("CCT requires a grouped (arrable) input")
            node = CctNode(inner.node, src.option, src.gap_threshold)
            return _Planned(node, src.alias or inner.alias, inner.table)
        if isinstance(src, ast.SubquerySource):
            return _Planned(self.plan_query(src.query), src.alias, None)
        raise TypeError(f"unknown source {src!r}")

    # joins

    def plan_join(self, clause: ast.JoinClause, left: _Planned) -> PlanNode:
        right = self.plan_source(clause.source)
        lref, rref = clause.cond.left, clause.cond.right
        if _crossed(lref, rref, left, right):
            lref, rref = rref, lref
        lschema, rschema = left.node.schema, right.node.schema

        llabel = left.alias or left.table or "left"
        rlabel = right.alias or right.table or "right"
        if clause.cond.args is None:
            if clause.kind != "JOIN":
                raise SchemaMismatch(f"{clause.kind} requires an SMATCH condition")
            if clause.cond.extras:
                raise SchemaMismatch("extra conjuncts are not supported with equality joins")
            if left.node.group_key is not None or right.node.group_key is not None:
                raise SchemaMismatch("equality joins operate on ungrouped relations")
            kind_check("equality_join", lref.name, lschema)
            kind_check("equality_join", rref.name, rschema)
            schema = equi_join_schema(lschema, rschema, (llabel, rlabel))
            return EquiJoinNode(left.node, right.node, lschema.resolve(lref.name),
                                rschema.resolve(rref.name), (llabel, rlabel), schema)

        if left.node.group_key is None or right.node.group_key is None:
            raise SchemaMismatch("similarity joins require grouped (arrable) inputs")
        kind_check("smatch", lref.name, lschema)
        kind_check("smatch", rref.name, rschema)

        extras = []
        for pc in clause.cond.extras:
            if _crossed(pc.left_column, pc.right_column, left, right):
                pc = pc.flipped()
            pc.check(lschema, rschema)
            extras.append(replace(pc, left_column=lschema.resolve(pc.left_column.name),
                                  right_column=rschema.resolve(pc.right_column.name)))

        schema = Schema((
            Column(f"{llabel}.{left.node.group_key}", ColumnKind.SCALAR_NUMERIC),
            Column(f"{rlabel}.{right.node.group_key}", ColumnKind.SCALAR_NUMERIC),
            Column("score", ColumnKind.SCALAR_NUMERIC),
        ))
        kind, sides = clause.kind, (left.node, right.node)
        if kind == "CCTJOIN":  # a JOIN of the first and last element of each side's runs
            kind, sides = "JOIN", tuple(CctNode(n, CctOption.BOTH, 1) for n in sides)
        return JoinNode(*sides, kind, lschema.resolve(lref.name),
                        rschema.resolve(rref.name), clause.cond.args, tuple(extras), schema)

    # select list

    def plan_select_list(self, items: tuple[ast.SelectItem, ...], source: _Planned) -> PlanNode:
        node = source.node
        if len(items) == 1 and isinstance(items[0], ast.SelectStar):
            return node

        aggs = [i for i in items if isinstance(i, ast.SelectAggregate)]
        dirs = [i for i in items if isinstance(i, ast.SelectDirection)]
        cols = [i for i in items if isinstance(i, ast.SelectColumn)]

        if aggs:
            if len(items) != 1:
                raise SchemaMismatch("an aggregate cannot be combined with other select items")
            agg = aggs[0]
            if agg.arg is None:
                # count(*) ignores columns; drop a projection directly below
                if isinstance(node, ProjectNode):
                    node = node.child
                return AggregateNode(node, "count", None, "count")
            column = self.column(agg.arg, source, agg.func)
            return AggregateNode(node, agg.func, column, f"{agg.func}({column})")

        if dirs:
            gba = node.group_key
            if any(gba is None or c.ref.name.lower() != gba.lower() for c in cols):
                raise SchemaMismatch("direction can only be combined with the group key")
            if len(dirs) != 1:
                raise SchemaMismatch("only one direction item is supported")
            if gba is None:
                raise SchemaMismatch("direction requires a grouped (arrable) input")
            for c in cols:
                self.column(c.ref, source)
            bb = self.column(dirs[0].ref, source, "direction")
            schema = Schema((
                Column(gba, node.schema.kind_of(gba)),
                Column("direction", ColumnKind.DIRECTION_ENUM),
            ))
            return DirectionNode(node, bb, gba, schema)

        names = [self.column(c.ref, source) for c in cols]
        if names == list(node.schema.names()):
            return node
        return ProjectNode(node, tuple(names), node.schema.subset(names))

    @staticmethod
    def column(ref: ast.ColumnRef, source: _Planned, op: str | None = None) -> str:
        """The schema's name for a column of the select list, checked to be
        legal for ``op`` if given; a join's output spells each column with its
        side's label, and a column spelled so names it."""
        schema = source.node.schema
        if ref.qualifier is not None and schema.has(str(ref)):
            name = schema.resolve(str(ref))
        else:
            _source_of(ref, [source])
            name = schema.resolve(ref.name)
        if op is not None:
            kind_check(op, name, schema)
        return name


def _window_clauses(q: ast.Query) -> list[WindowSpec]:
    """The WINDOW clauses of ``q`` and of every subquery in it, outermost first."""
    found = [q.window] if q.window else []
    for src in (q.source, q.join.source if q.join else None):
        while isinstance(src, ast.CctSource):
            src = src.inner
        if isinstance(src, ast.SubquerySource):
            found += _window_clauses(src.query)
    return found


def plan(query: ast.Query, default_window: WindowSpec | None = None) -> QueryPlan:
    """Plan a parsed query; every source it names reads :data:`TRACE_SCHEMA`.

    A query has one window, which cuts every source: the WINDOW clause of the
    query or of any subquery, all of which must be equal, else
    ``default_window``, else a single window spanning the whole stream.
    """
    clauses = _window_clauses(query)
    for clause in clauses[1:]:
        if clause != clauses[0]:
            raise SchemaMismatch(f"a query has one window, but it has the clauses "
                                 f"{render_window(clauses[0])} and {render_window(clause)}")
    planner = _Planner(next(iter(clauses), default_window or WHOLE_STREAM))
    root = planner.plan_query(query)
    names = root.schema.names()
    if root.group_key is not None:  # a grouped row leads with its key
        names = (root.group_key, *(n for n in names if n != root.group_key))
    return QueryPlan(root, tuple(planner.sources), names)
