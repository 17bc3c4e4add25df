"""Render an AST back to query text.

``parse(render(ast))`` yields a structurally identical AST; the output is a
single-line canonical form, not the original spelling.
"""

from __future__ import annotations

import numpy as np

from ..operators import (And, BBoxTest, Comparison, Not, Or, Predicate,
                         ScalarPairPredicate, SMatchProbe)
from ..similarity import DEFAULT_POLARITY, MatchCondition
from ..windows import WindowSpec
from .nodes import (CctSource, JoinClause, Query, R2ASource, SelectAggregate,
                    SelectColumn, SelectDirection, SelectStar, Source,
                    SubquerySource, TableSource)


def _num(v) -> str:
    # floats print positionally: the lexer reads no exponent
    return repr(v) if isinstance(v, int) else np.format_float_positional(v, trim="0")


def _smatch_args(cond: MatchCondition) -> str:
    parts = [_num(cond.th)]
    if cond != MatchCondition(th=cond.th):  # metric or polarity not the defaults
        parts.append(cond.metric.name)
        if cond.polarity is not DEFAULT_POLARITY[cond.metric]:
            parts.append(cond.polarity.name)
    return f"SMATCH({', '.join(parts)})"


def _select_item(item) -> str:
    if isinstance(item, SelectStar):
        return "*"
    if isinstance(item, SelectColumn):
        return str(item.ref)
    if isinstance(item, SelectAggregate):
        return f"{item.func.upper()}({item.arg if item.arg else '*'})"
    if isinstance(item, SelectDirection):
        return f"DIRECTION({item.ref})"
    raise TypeError(f"unknown select item {item!r}")


def _source(src: Source) -> str:
    if isinstance(src, TableSource):
        text = src.name
    elif isinstance(src, R2ASource):
        text = f"R2A({src.table}, gba={src.gba}, aoa={src.aoa})"
    elif isinstance(src, CctSource):
        text = f"CCT({_source(src.inner)}, {src.option.name}, {src.gap_threshold})"
    elif isinstance(src, SubquerySource):
        text = f"({render(src.query)})"
    else:
        raise TypeError(f"unknown source {src!r}")
    if not isinstance(src, SubquerySource) and src.alias and not isinstance(src, TableSource):
        text = f"({text})"
    if src.alias:
        text += f" {src.alias}"
    return text


def _expr(e: Predicate) -> str:
    if isinstance(e, Comparison):
        value = f'"{e.value}"' if isinstance(e.value, str) else _num(e.value)
        return f"{e.column} {e.op} {value}"
    if isinstance(e, BBoxTest):
        comps = []
        for c in (e.pattern.x, e.pattern.y, e.pattern.w, e.pattern.h):
            if c is None:
                comps.append("*")
            elif isinstance(c, tuple):
                comps.append(f"{_num(c[0])}:{_num(c[1])}")
            else:
                comps.append(_num(c))
        return f"{e.column} MATCHES [{', '.join(comps)}]"
    if isinstance(e, SMatchProbe):
        probe = ", ".join(_num(v) for v in e.probe)
        return f"{e.column} {_smatch_args(e.cond)} [{probe}]"
    if isinstance(e, And):
        return " AND ".join(_wrap(p) for p in e.parts)
    if isinstance(e, Or):
        return " OR ".join(_wrap(p) for p in e.parts)
    if isinstance(e, Not):
        return f"NOT {_wrap(e.part)}"
    raise TypeError(f"unknown expression {e!r}")


def _wrap(e: Predicate) -> str:
    if isinstance(e, (And, Or)):
        return f"({_expr(e)})"
    return _expr(e)


def _pair_cmp(c: ScalarPairPredicate) -> str:
    left = str(c.left_column)
    if c.offset:
        left += f" + {_num(c.offset)}" if c.offset > 0 else f" - {_num(-c.offset)}"
    return f"{left} {c.op} {c.right_column}"


def _join(j: JoinClause) -> str:
    if j.cond.args is None:
        cond = f"{j.cond.left} = {j.cond.right}"
    else:
        cond = f"{j.cond.left} {_smatch_args(j.cond.args)} {j.cond.right}"
    for extra in j.cond.extras:
        cond += f" AND {_pair_cmp(extra)}"
    return f"{j.kind} {_source(j.source)} ON {cond}"


def render_window(w: WindowSpec) -> str:
    return f"WINDOW({w.kind.name}, {_num(w.size)}, {_num(w.hop)})"


def render(q: Query) -> str:
    parts = ["SELECT " + ", ".join(_select_item(i) for i in q.select),
             "FROM " + _source(q.source)]
    if q.join is not None:
        parts.append(_join(q.join))
    if q.where is not None:
        parts.append("WHERE " + _expr(q.where))
    if q.window is not None:
        parts.append(render_window(q.window))
    return " ".join(parts)
