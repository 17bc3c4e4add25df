"""Recursive-descent parser producing the AST in :mod:`nodes`.

WHERE predicates, join conditions and windows come out as the engine's own
objects (see :mod:`nodes`), so an out-of-range window raises
``NONPOSITIVE_SIZE_OR_HOP`` and an all-zero probe ``ZERO_VECTOR`` here, at
the position of the ``WINDOW`` or the probe's ``[`` token.

Grammar sketch (keywords case-insensitive, ``--`` line comments)::

    query       := SELECT select_list FROM source [join] [WHERE expr] [window]
    select_list := '*' | item (',' item)*
    item        := column | COUNT '(' '*' ')' | agg '(' column ')'
                 | DIRECTION '(' column ')'
    source      := primary [[AS] alias]
    primary     := name
                 | R2A '(' name ',' [GBA '='] column ',' [AOA '='] column ')'
                 | CCT '(' source ',' (FIRST|LAST|BOTH) [',' int] ')'
                 | '(' query ')' | '(' source ')'
    join        := (JOIN|CJOIN|CCTJOIN) source ON join_cond
    join_cond   := column SMATCH '(' th [',' metric [',' polarity]] ')' column
                   (AND pair_cmp)*
    pair_cmp    := column [('+'|'-') number] cmp column
    expr        := or-combination of: column cmp literal
                 | column MATCHES '[' bbcomp x4 ']'
                 | column SMATCH '(' ... ')' '[' number, ... ']'
    bbcomp      := '*' | number | number ':' number
    window      := WINDOW '(' (TIME|TUPLE) ',' number ',' number ')'
    column      := [name '.'] (name | '[' name ']')

A number is digits with an optional fractional part, and must fit a
finite float64. A query file holds one statement, optionally terminated by
a semicolon.
Nesting is capped at :data:`MAX_DEPTH` levels: each ``(`` around an
expression or a source, each ``CCT(`` and each ``NOT`` opens one.
"""

from __future__ import annotations

import math
from dataclasses import replace

from ..errors import InvalidWindowSpec, QuerySyntaxError, ZeroVector
from ..operators import (And, BBoxTest, BBPattern, CctOption, Comparison, Not, Or,
                         Predicate, ScalarPairPredicate, SMatchProbe)
from ..similarity import MatchCondition, MatchPolarity, Metric
from ..windows import WindowKind, WindowSpec
from .lexer import Token, tokenize
from .nodes import (CctSource, ColumnRef, JoinClause, JoinCond, Query,
                    R2ASource, SelectAggregate, SelectColumn, SelectDirection,
                    SelectItem, SelectStar, Source, SubquerySource,
                    TableSource)

_AGG_FUNCS = {"COUNT", "AVG", "SUM", "MIN", "MAX"}
_JOIN_KINDS = {"JOIN", "CJOIN", "CCTJOIN"}
_CMP_OPS = {"=", "!=", "<", "<=", ">", ">="}
# these may never serve as identifiers; contextual keywords (FIRST, TIME,
# COSINE, ...) stay usable as column or source names
_RESERVED = _JOIN_KINDS | {"SELECT", "FROM", "WHERE", "ON", "AND", "OR", "NOT",
                           "WINDOW", "AS", "SMATCH", "MATCHES"}
# keywords that may legally follow a source expression; anything else there
# is taken as an alias
_SOURCE_FOLLOW = _JOIN_KINDS | {"WHERE", "WINDOW", "ON", "AND", "OR"}

_METRICS = {"COSINE": Metric.COSINE, "EUCLIDEAN": Metric.EUCLIDEAN}
_POLARITIES = {"SIMILARITY_AT_LEAST": MatchPolarity.SIMILARITY_AT_LEAST,
               "DISTANCE_AT_MOST": MatchPolarity.DISTANCE_AT_MOST}
_CCT_OPTIONS = {"FIRST": CctOption.FIRST, "LAST": CctOption.LAST, "BOTH": CctOption.BOTH}

#: Deepest nesting a query may use; deeper input is a syntax error rather
#: than a recursion overflow in the parser or the planner.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0

    # token helpers

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "EOF":
            self.pos += 1
        return tok

    def nest(self, tok: Token) -> Token:
        """Open the nesting level of a token just taken; the caller closes it."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.error(f"query nests deeper than {MAX_DEPTH} levels", tok)
        return tok

    def error(self, message: str, tok: Token | None = None) -> QuerySyntaxError:
        tok = tok or self.peek()
        return QuerySyntaxError(message, tok.line, tok.column)

    @staticmethod
    def located(tok: Token, build, *args):
        """``build(*args)``; a window or probe error it raises gets ``tok``'s position."""
        try:
            return build(*args)
        except (InvalidWindowSpec, ZeroVector) as exc:
            raise type(exc)(f"{exc} (line {tok.line}, column {tok.column})") from None

    def at_keyword(self, *names: str) -> bool:
        return self.peek().keyword() in names

    def expect_keyword(self, name: str) -> Token:
        tok = self.next()
        if tok.keyword() != name:
            raise self.error(f"expected {name}, found {tok.value!r}", tok)
        return tok

    def expect_punct(self, value: str) -> Token:
        tok = self.next()
        if tok.type != "PUNCT" or tok.value != value:
            raise self.error(f"expected {value!r}, found {tok.value!r}", tok)
        return tok

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok.type == "PUNCT" and tok.value == value

    def accept_punct(self, value: str) -> bool:
        if self.at_punct(value):
            self.next()
            return True
        return False

    # literals and references

    def parse_number(self) -> float | int:
        sign = 1
        if self.accept_punct("-"):
            sign = -1
        tok = self.next()
        if tok.type != "NUMBER":
            raise self.error(f"expected a number, found {tok.value!r}", tok)
        if not math.isfinite(float(tok.value)):
            raise self.error(f"number {tok.value[:20]}... does not fit a finite float64", tok)
        if "." in tok.value:
            return sign * float(tok.value)
        # without its leading zeros a finite integer has at most 309 digits,
        # well inside the digit limit of int()
        return sign * int(tok.value.lstrip("0") or "0")

    def parse_ident(self, what: str) -> str:
        tok = self.next()
        if tok.type != "IDENT" or tok.keyword() in _RESERVED:
            raise self.error(f"expected {what}, found {tok.value!r}", tok)
        return tok.value

    def parse_column_ref(self) -> ColumnRef:
        if self.at_punct("["):
            return ColumnRef(None, self._bracketed_name())
        first = self.parse_ident("a column name")
        if self.accept_punct("."):
            if self.at_punct("["):
                return ColumnRef(first, self._bracketed_name())
            return ColumnRef(first, self.parse_ident("a column name"))
        return ColumnRef(None, first)

    def _bracketed_name(self) -> str:
        self.expect_punct("[")
        name = self.parse_ident("a column name")
        self.expect_punct("]")
        return name

    def parse_vector_literal(self) -> tuple[float, ...]:
        self.expect_punct("[")
        values = [float(self.parse_number())]
        while self.accept_punct(","):
            values.append(float(self.parse_number()))
        self.expect_punct("]")
        return tuple(values)

    # query structure

    def parse_query(self) -> Query:
        self.expect_keyword("SELECT")
        select = self.parse_select_list()
        self.expect_keyword("FROM")
        source = self.parse_source()
        join = None
        if self.at_keyword(*_JOIN_KINDS):
            join = self.parse_join()
        where = None
        if self.at_keyword("WHERE"):
            self.next()
            where = self.parse_expr()
        window = None
        if self.at_keyword("WINDOW"):
            window = self.parse_window()
        return Query(select, source, join, where, window)

    def parse_select_list(self) -> tuple[SelectItem, ...]:
        if self.accept_punct("*"):
            return (SelectStar(),)
        items = [self.parse_select_item()]
        while self.accept_punct(","):
            items.append(self.parse_select_item())
        return tuple(items)

    def parse_select_item(self) -> SelectItem:
        kw = self.peek().keyword()
        if kw in _AGG_FUNCS and self.peek(1).value == "(":
            func = self.next().value.lower()
            self.expect_punct("(")
            if self.accept_punct("*"):
                self.expect_punct(")")
                if func != "count":
                    raise self.error(f"{func}(*) is not defined")
                return SelectAggregate("count", None)
            ref = self.parse_column_ref()
            self.expect_punct(")")
            return SelectAggregate(func, ref)
        if kw == "DIRECTION" and self.peek(1).value == "(":
            self.next()
            self.expect_punct("(")
            ref = self.parse_column_ref()
            self.expect_punct(")")
            return SelectDirection(ref)
        return SelectColumn(self.parse_column_ref())

    def parse_source(self) -> Source:
        src = self.parse_source_primary()
        alias = self.parse_alias()
        return src if alias is None else replace(src, alias=alias)

    def parse_alias(self) -> str | None:
        if self.at_keyword("AS"):
            self.next()
            return self.parse_ident("an alias")
        tok = self.peek()
        if tok.type == "IDENT" and tok.keyword() not in _SOURCE_FOLLOW \
                and tok.keyword() not in _RESERVED:
            return self.next().value
        return None

    def parse_source_primary(self) -> Source:
        if self.at_punct("("):
            self.nest(self.next())
            inner = (SubquerySource(self.parse_query()) if self.at_keyword("SELECT")
                     else self.parse_source())
            self.expect_punct(")")
            self.depth -= 1
            return inner
        if self.at_keyword("R2A"):
            return self.parse_r2a()
        if self.at_keyword("CCT"):
            return self.parse_cct()
        name = self.parse_ident("a source name")
        return TableSource(name)

    def parse_r2a(self) -> R2ASource:
        self.expect_keyword("R2A")
        self.expect_punct("(")
        table = self.parse_ident("a source name")
        self.expect_punct(",")
        gba = self._r2a_arg("GBA")
        self.expect_punct(",")
        aoa = self._r2a_arg("AOA")
        self.expect_punct(")")
        return R2ASource(table, gba, aoa)

    def _r2a_arg(self, keyword: str) -> ColumnRef:
        if self.at_keyword(keyword) and self.peek(1).value == "=":
            self.next()
            self.next()
        return self.parse_column_ref()

    def parse_cct(self) -> CctSource:
        self.expect_keyword("CCT")
        self.nest(self.expect_punct("("))
        inner = self.parse_source()
        self.expect_punct(",")
        tok = self.next()
        option = _CCT_OPTIONS.get(tok.keyword())
        if option is None:
            raise self.error("expected FIRST, LAST or BOTH", tok)
        src = CctSource(inner, option)
        if self.accept_punct(","):
            tok = self.peek()
            gap = self.parse_number()
            if gap < 1 or gap % 1:
                raise self.error(f"CCT gap must be a whole number >= 1, got {gap:g}", tok)
            src = replace(src, gap_threshold=int(gap))
        self.expect_punct(")")
        self.depth -= 1
        return src

    def parse_join(self) -> JoinClause:
        kind = self.next().keyword()
        right = self.parse_source()
        self.expect_keyword("ON")
        cond = self.parse_join_cond()
        return JoinClause(kind, right, cond)

    def parse_join_cond(self) -> JoinCond:
        left = self.parse_column_ref()
        if self.at_keyword("SMATCH"):
            self.next()
            args = self.parse_smatch_args()
        elif self.accept_punct("="):
            args = None
        else:
            raise self.error("expected SMATCH or '=' in a join condition")
        right = self.parse_column_ref()
        extras = []
        while self.at_keyword("AND"):
            self.next()
            extras.append(self.parse_pair_cmp())
        return JoinCond(left, args, right, tuple(extras))

    def parse_smatch_args(self) -> MatchCondition:
        self.expect_punct("(")
        th_tok = self.peek()
        th = float(self.parse_number())
        if not 0.0 <= th <= 1.0:
            raise self.error(f"threshold must lie in [0, 1], got {th:g}", th_tok)
        metric, polarity = Metric.COSINE, None
        if self.accept_punct(","):
            tok = self.next()
            metric = _METRICS.get(tok.keyword())
            if metric is None:
                raise self.error("expected COSINE or EUCLIDEAN", tok)
            if self.accept_punct(","):
                tok = self.next()
                polarity = _POLARITIES.get(tok.keyword())
                if polarity is None:
                    raise self.error("expected SIMILARITY_AT_LEAST or DISTANCE_AT_MOST", tok)
        self.expect_punct(")")
        return MatchCondition(metric, th, polarity)

    def parse_pair_cmp(self) -> ScalarPairPredicate:
        left = self.parse_column_ref()
        offset = 0.0
        if self.at_punct("+") or self.at_punct("-"):
            sign = 1.0 if self.next().value == "+" else -1.0
            offset = sign * float(self.parse_number())
        op = self.parse_cmp_op()
        right = self.parse_column_ref()
        return ScalarPairPredicate(left, op, right, offset)

    def parse_cmp_op(self) -> str:
        tok = self.next()
        if tok.type != "PUNCT" or tok.value not in _CMP_OPS:
            raise self.error(f"expected a comparison operator, found {tok.value!r}", tok)
        return tok.value

    # where-clause expressions

    def parse_expr(self) -> Predicate:
        parts = [self.parse_and_expr()]
        while self.at_keyword("OR"):
            self.next()
            parts.append(self.parse_and_expr())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and_expr(self) -> Predicate:
        parts = [self.parse_unary_expr()]
        while self.at_keyword("AND"):
            self.next()
            parts.append(self.parse_unary_expr())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_unary_expr(self) -> Predicate:
        if not (self.at_keyword("NOT") or self.at_punct("(")):
            return self.parse_predicate()
        if self.nest(self.next()).keyword() == "NOT":
            expr = Not(self.parse_unary_expr())
        else:
            expr = self.parse_expr()
            self.expect_punct(")")
        self.depth -= 1
        return expr

    def parse_predicate(self) -> Predicate:
        ref = self.parse_column_ref()
        if self.at_keyword("MATCHES"):
            self.next()
            return BBoxTest(ref, self.parse_bb_pattern())
        if self.at_keyword("SMATCH"):
            self.next()
            cond = self.parse_smatch_args()
            return self.located(self.peek(), SMatchProbe, ref,
                                self.parse_vector_literal(), cond)
        op = self.parse_cmp_op()
        tok = self.peek()
        if tok.type == "STRING":
            self.next()
            return Comparison(ref, op, tok.value)
        return Comparison(ref, op, self.parse_number())

    def parse_bb_pattern(self) -> BBPattern:
        self.expect_punct("[")
        comps = [self.parse_bb_component()]
        while self.accept_punct(","):
            comps.append(self.parse_bb_component())
        self.expect_punct("]")
        if len(comps) != 4:
            raise self.error(f"a box pattern needs 4 components, got {len(comps)}")
        return BBPattern(*comps)

    def parse_bb_component(self):
        if self.accept_punct("*"):
            return None
        lo_tok = self.peek()
        lo = float(self.parse_number())
        if self.accept_punct(":"):
            hi = float(self.parse_number())
            if lo > hi:
                raise self.error(f"range lower bound exceeds upper bound: {lo:g}:{hi:g}",
                                 lo_tok)
            return (lo, hi)
        return lo

    def parse_window(self) -> WindowSpec:
        window = self.expect_keyword("WINDOW")
        self.expect_punct("(")
        tok = self.next()
        if tok.keyword() == "TIME":
            kind = WindowKind.TIME
        elif tok.keyword() == "TUPLE":
            kind = WindowKind.TUPLE
        else:
            raise self.error("expected TIME or TUPLE", tok)
        self.expect_punct(",")
        size = float(self.parse_number())
        self.expect_punct(",")
        hop = float(self.parse_number())
        self.expect_punct(")")
        return self.located(window, WindowSpec, kind, size, hop)


def parse(text: str) -> Query:
    """Parse one query statement.

    Raises :class:`QuerySyntaxError` (``SYNTAX_ERROR``) with a position for
    malformed text. A well-formed WINDOW clause that :class:`WindowSpec`
    rejects raises ``NONPOSITIVE_SIZE_OR_HOP`` at the ``WINDOW`` token, and an
    all-zero SMATCH probe raises ``ZERO_VECTOR`` at the probe's ``[``.
    """
    parser = _Parser(text)
    query = parser.parse_query()
    parser.accept_punct(";")
    tok = parser.peek()
    if tok.type != "EOF":
        raise parser.error(f"unexpected trailing input {tok.value!r}", tok)
    return query
