"""Query planner: validated AST -> executable operator tree.

The plan is a deterministic function of (AST, catalog): the query's one
window sits directly above each source leaf, grouping sits directly above
its source, and no reordering is attempted beyond two faithful
simplifications:

* a WHERE clause that references the base table of a grouped source filters
  the relation before grouping (that is what the qualifier says);
* a projection feeding ``count(*)`` is dropped, since row counts ignore
  columns.

The parser's predicates, join conditions and windows are already the
engine's objects; planning resolves each :class:`~.nodes.ColumnRef` in them
to the schema's spelling of the column. Column-kind violations surface
here, before any data flows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

from ..errors import SchemaMismatch, UnknownIdentifier
from ..model import TRACE_SCHEMA, Column, ColumnKind, Schema, kind_check
from ..operators import (And, BBoxTest, CctOption, Comparison, Not, Or,
                         Predicate, ScalarPairPredicate, SMatchProbe,
                         equi_join_schema, ordered_check)
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
    kind: str  # JOIN | CJOIN | CCTJOIN
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


class _Catalog:
    def __init__(self, schemas: dict[str, Schema] | None):
        self.schemas = schemas
        self.order: list[str] = []

    def lookup(self, name: str) -> Schema:
        if self.schemas is None:
            return TRACE_SCHEMA
        for key, schema in self.schemas.items():
            if key.lower() == name.lower():
                return schema
        raise UnknownIdentifier(f"unknown source {name!r}")

    def ordinal(self, name: str) -> int:
        self.order.append(name)
        return len(self.order) - 1


@dataclass
class _Planned:
    """A planned source: its node plus the names WHERE/SELECT may qualify with."""

    node: PlanNode
    alias: str | None  # alias of the produced value
    base_name: str | None  # underlying table name for grouped sources
    base_schema: Schema | None
    r2a_at: R2ANode | None  # set when the source chain tops out at R2A/CCT


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


def _resolved(p: Predicate, schema: Schema) -> Predicate:
    """``p`` with each column reference replaced by the schema's name for it."""
    return _mapped(p, lambda r: schema.resolve(r.name))


#: the comparison that holds with its two sides swapped
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


class _Planner:
    def __init__(self, catalog: _Catalog, window: WindowSpec):
        self.catalog = catalog
        self.window = window  # the query's one window: it cuts every source

    def plan_query(self, q: ast.Query) -> PlanNode:
        if q.join is not None and q.where is not None:
            raise SchemaMismatch("WHERE alongside a join condition is not supported; "
                                 "put extra conjuncts in the ON clause")
        planned = self.plan_source(q.source)

        if q.join is not None:
            node = self.plan_join(q, planned)
            planned = _Planned(node, None, None, None, None)
        elif q.where is not None:
            node = self.place_where(q.where, planned)
            planned = _Planned(node, planned.alias, planned.base_name,
                               planned.base_schema, planned.r2a_at)

        return self.plan_select_list(q.select, planned)

    # sources

    def plan_source(self, src: ast.Source) -> _Planned:
        if isinstance(src, ast.TableSource):
            schema = self.catalog.lookup(src.name)
            node = WindowNode(SourceNode(src.name, self.catalog.ordinal(src.name), schema),
                              self.window)
            return _Planned(node, src.alias or src.name, src.name, schema, None)
        if isinstance(src, ast.R2ASource):
            schema = self.catalog.lookup(src.table)
            self._check_qualifier(src.gba.qualifier, {src.table})
            self._check_qualifier(src.aoa.qualifier, {src.table})
            base = WindowNode(SourceNode(src.table, self.catalog.ordinal(src.table), schema),
                              self.window)
            kind_check("r2a_gba", src.gba.name, schema)
            kind_check("r2a_aoa", src.aoa.name, schema)
            node = R2ANode(base, schema.resolve(src.gba.name), schema.resolve(src.aoa.name))
            return _Planned(node, src.alias, src.table, schema, node)
        if isinstance(src, ast.CctSource):
            inner = self.plan_source(src.inner)
            if inner.node.group_key is None:
                raise SchemaMismatch("CCT requires a grouped (arrable) input")
            node = CctNode(inner.node, src.option, src.gap_threshold)
            return _Planned(node, src.alias or inner.alias, inner.base_name,
                            inner.base_schema, inner.r2a_at)
        if isinstance(src, ast.SubquerySource):
            node = self.plan_query(src.query)
            return _Planned(node, src.alias, None, None, None)
        raise TypeError(f"unknown source {src!r}")

    @staticmethod
    def _check_qualifier(qualifier: str | None, allowed: set[str]) -> None:
        if qualifier is not None and qualifier.lower() not in {a.lower() for a in allowed}:
            raise UnknownIdentifier(f"unknown qualifier {qualifier!r}")

    # where placement

    def place_where(self, where: Predicate, planned: _Planned) -> PlanNode:
        refs = _refs(where)
        base_names = {planned.base_name.lower()} if planned.base_name else set()
        quals = {r.qualifier.lower() for r in refs if r.qualifier is not None}

        if planned.r2a_at is not None and quals and quals <= base_names:
            # the filter speaks about the pre-grouping relation: apply it below
            pred = _resolved(where, planned.base_schema)
            pred.check(planned.base_schema)
            r2a = planned.r2a_at
            filtered = R2ANode(SelectNode(r2a.child, pred), r2a.gba, r2a.aoa)
            return _replace_node(planned.node, r2a, filtered)

        allowed = base_names | ({planned.alias.lower()} if planned.alias else set())
        for r in refs:
            self._check_qualifier(r.qualifier, allowed)
        pred = _resolved(where, planned.node.schema)
        pred.check(planned.node.schema)
        return SelectNode(planned.node, pred)

    # joins

    def plan_join(self, q: ast.Query, left: _Planned) -> PlanNode:
        clause = q.join
        right = self.plan_source(clause.source)

        left_names = {n.lower() for n in (left.alias, left.base_name) if n}
        right_names = {n.lower() for n in (right.alias, right.base_name) if n}

        def side_of(ref: ast.ColumnRef) -> str:
            if ref.qualifier is None:
                raise UnknownIdentifier(f"join condition column {ref.name!r} must be qualified")
            qual = ref.qualifier.lower()
            if qual in left_names:
                return "left"
            if qual in right_names:
                return "right"
            raise UnknownIdentifier(f"unknown qualifier {ref.qualifier!r}")

        lref, rref = clause.cond.left, clause.cond.right
        if side_of(lref) == "right" and side_of(rref) == "left":
            lref, rref = rref, lref
        if side_of(lref) != "left" or side_of(rref) != "right":
            raise SchemaMismatch("join condition must compare one column from each side")

        llabel = left.alias or left.base_name or "left"
        rlabel = right.alias or right.base_name or "right"
        if clause.cond.args is None:
            if clause.kind != "JOIN":
                raise SchemaMismatch(f"{clause.kind} requires an SMATCH condition")
            if clause.cond.extras:
                raise SchemaMismatch("extra conjuncts are not supported with equality joins")
            if left.node.group_key is not None or right.node.group_key is not None:
                raise SchemaMismatch("equality joins operate on ungrouped relations")
            kind_check("equality_join", lref.name, left.node.schema)
            kind_check("equality_join", rref.name, right.node.schema)
            schema = equi_join_schema(left.node.schema, right.node.schema, (llabel, rlabel))
            return EquiJoinNode(left.node, right.node,
                                left.node.schema.resolve(lref.name),
                                right.node.schema.resolve(rref.name),
                                (llabel, rlabel), schema)

        if left.node.group_key is None or right.node.group_key is None:
            raise SchemaMismatch("similarity joins require grouped (arrable) inputs")
        kind_check("smatch", lref.name, left.node.schema)
        kind_check("smatch", rref.name, right.node.schema)

        extras = []
        for pc in clause.cond.extras:
            if side_of(pc.left_column) == "right" and side_of(pc.right_column) == "left":
                pc = replace(pc, left_column=pc.right_column, op=_FLIPPED[pc.op],
                             right_column=pc.left_column, offset=-pc.offset)
            pl, pr = pc.left_column, pc.right_column
            kind_check("compare", pl.name, left.node.schema)
            kind_check("compare", pr.name, right.node.schema)
            lkind = left.node.schema.kind_of(pl.name)
            rkind = right.node.schema.kind_of(pr.name)
            if lkind is not rkind:
                raise SchemaMismatch(f"join condition compares {pl} ({lkind.name}) "
                                     f"with {pr} ({rkind.name})")
            if pc.offset and lkind is not ColumnKind.SCALAR_NUMERIC:
                raise SchemaMismatch(f"join condition adds an offset to {pl} ({lkind.name})")
            ordered_check(pc.op, pl.name, left.node.schema)
            extras.append(replace(pc, left_column=left.node.schema.resolve(pl.name),
                                  right_column=right.node.schema.resolve(pr.name)))

        schema = Schema((
            Column(f"{llabel}.{left.node.group_key}", ColumnKind.SCALAR_NUMERIC),
            Column(f"{rlabel}.{right.node.group_key}", ColumnKind.SCALAR_NUMERIC),
            Column("score", ColumnKind.SCALAR_NUMERIC),
        ))
        return JoinNode(left.node, right.node, clause.kind,
                        left.node.schema.resolve(lref.name),
                        right.node.schema.resolve(rref.name),
                        clause.cond.args, tuple(extras), schema)

    # select list

    def plan_select_list(self, items: tuple[ast.SelectItem, ...], planned: _Planned) -> PlanNode:
        node = planned.node
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
            self._check_ref_scope(agg.arg, planned)
            kind_check(agg.func, agg.arg.name, node.schema)
            column = node.schema.resolve(agg.arg.name)
            return AggregateNode(node, agg.func, column, f"{agg.func}({column})")

        if dirs:
            if cols and not all(self._is_gba_ref(c.ref, planned) for c in cols):
                raise SchemaMismatch("direction can only be combined with the group key")
            if len(dirs) != 1:
                raise SchemaMismatch("only one direction item is supported")
            gba = node.group_key
            if gba is None:
                raise SchemaMismatch("direction requires a grouped (arrable) input")
            ref = dirs[0].ref
            self._check_ref_scope(ref, planned)
            kind_check("direction", ref.name, node.schema)
            schema = Schema((
                Column(gba, node.schema.kind_of(gba)),
                Column("direction", ColumnKind.DIRECTION_ENUM),
            ))
            return DirectionNode(node, node.schema.resolve(ref.name), gba, schema)

        names = []
        for c in cols:
            names.append(self._resolve_output(c.ref, planned))
        if names == list(node.schema.names()):
            return node
        sub = node.schema.subset(names)
        return ProjectNode(node, tuple(names), sub)

    def _check_ref_scope(self, ref: ast.ColumnRef, planned: _Planned) -> None:
        allowed = {n for n in (planned.alias, planned.base_name) if n}
        self._check_qualifier(ref.qualifier, allowed)

    def _is_gba_ref(self, ref: ast.ColumnRef, planned: _Planned) -> bool:
        key = planned.node.group_key
        return key is not None and ref.name.lower() == key.lower()

    def _resolve_output(self, ref: ast.ColumnRef, planned: _Planned) -> str:
        schema = planned.node.schema
        # join outputs carry qualified column names; try the full spelling first
        if ref.qualifier is not None and schema.has(str(ref)):
            return schema.resolve(str(ref))
        self._check_ref_scope(ref, planned)
        return schema.resolve(ref.name)


def _replace_node(root: PlanNode, target: R2ANode, replacement: PlanNode) -> PlanNode:
    """``root`` with ``target`` swapped for ``replacement``; only CctNodes lie between."""
    if root is target:
        return replacement
    return replace(root, child=_replace_node(root.child, target, replacement))


def _window_clauses(q: ast.Query) -> list[WindowSpec]:
    """The WINDOW clauses of ``q`` and of every subquery in it, outermost first."""
    found = [q.window] if q.window else []
    for src in (q.source, q.join.source if q.join else None):
        while isinstance(src, ast.CctSource):
            src = src.inner
        if isinstance(src, ast.SubquerySource):
            found += _window_clauses(src.query)
    return found


def plan(query: ast.Query, catalog: dict[str, Schema] | None = None,
         default_window: WindowSpec | None = None) -> QueryPlan:
    """Plan a parsed query against the catalog of source schemas; without
    one, every source the query names reads :data:`TRACE_SCHEMA`.

    A query has one window, which cuts every source: the WINDOW clause of the
    query or of any subquery, all of which must be equal, else
    ``default_window``, else a single window spanning the whole stream.
    """
    clauses = _window_clauses(query)
    for clause in clauses[1:]:
        if clause != clauses[0]:
            raise SchemaMismatch(f"a query has one window, but it has the clauses "
                                 f"{render_window(clauses[0])} and {render_window(clause)}")
    cat = _Catalog(catalog)
    root = _Planner(cat, next(iter(clauses), default_window or WHOLE_STREAM)).plan_query(query)
    names = root.schema.names()
    if root.group_key is not None:  # a grouped row leads with its key
        names = (root.group_key, *(n for n in names if n != root.group_key))
    return QueryPlan(root, tuple(cat.order), names)
