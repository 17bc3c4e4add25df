import re
import string
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaquery.errors import (IllegalColumnKind, InvalidWindowSpec, QuerySyntaxError,
                            SchemaMismatch, UnknownIdentifier, VaqueryError, ZeroVector)
from vaquery.model import TRACE_SCHEMA
from vaquery.operators import (And, BBoxTest, BBPattern, CctOption, Comparison,
                               ScalarPairPredicate, SMatchProbe)
from vaquery.querylang import (AggregateNode, CctNode, DirectionNode, JoinNode,
                               ProjectNode, R2ANode, SelectNode, SourceNode,
                               WindowNode, iter_nodes, nodes, parse, plan,
                               render)
from vaquery.querylang.lexer import tokenize
from vaquery.querylang.planner import EquiJoinNode
from vaquery.similarity import MatchCondition, MatchPolarity, Metric
from vaquery.windows import WindowKind, WindowSpec

Q2_TEXT = '''
-- count distinct persons
Select count(*)
From
    (Select AR1.oid
    From
    (R2A (R1, R1.oid, R1.fid))  AR1
    Where (R1.label = "person"))
'''

Q3_TEXT = '''
Select AR1.oid, AR2.oid
From
    (R2A (R1, R1.oid, R1.fid))  AR1
    cJoin
    (R2A (R2, R2.oid, R2.fid)) AR2
    on AR1.[FV] sMatch(0.008) AR2.[FV]
'''

Q4_TEXT = '''
Select AR1.oid, Direction(AR1.[BB])
From (CCT(R2A(R1, R1.oid, R1.fid), both)) AR1
'''


def node_kinds(p):
    return [type(n).__name__ for n in iter_nodes(p.root)]


# --- parsing -----------------------------------------------------------------

def test_parse_q2_structure():
    ast = parse(Q2_TEXT)
    assert isinstance(ast.select[0], nodes.SelectAggregate)
    assert ast.select[0].func == "count" and ast.select[0].arg is None
    sub = ast.source
    assert isinstance(sub, nodes.SubquerySource)
    inner = sub.query
    assert isinstance(inner.source, nodes.R2ASource)
    assert inner.source.alias == "AR1"
    assert inner.source.gba == nodes.ColumnRef("R1", "oid")
    assert inner.where == Comparison(nodes.ColumnRef("R1", "label"), "=", "person")


def test_parse_q3_structure():
    ast = parse(Q3_TEXT)
    assert ast.join is not None
    assert ast.join.kind == "CJOIN"
    cond = ast.join.cond
    assert cond.args.th == 0.008
    assert cond.left == nodes.ColumnRef("AR1", "FV")
    assert cond.right == nodes.ColumnRef("AR2", "FV")


def test_parse_q4_structure():
    ast = parse(Q4_TEXT)
    assert isinstance(ast.select[1], nodes.SelectDirection)
    src = ast.source
    assert isinstance(src, nodes.CctSource)
    assert src.option is CctOption.BOTH
    assert isinstance(src.inner, nodes.R2ASource)


def test_parse_window_clause():
    ast = parse("SELECT * FROM R1 WINDOW(TIME, 100, 50)")
    assert ast.window == WindowSpec(WindowKind.TIME, 100.0, 50.0)


def test_parse_smatch_metric_and_polarity():
    ast = parse("SELECT oid FROM R1 WHERE fv SMATCH(0.3, euclidean, distance_at_most) [1.0, 0.5]")
    assert ast.where == SMatchProbe(nodes.ColumnRef(None, "fv"), (1.0, 0.5),
                                    MatchCondition(Metric.EUCLIDEAN, 0.3,
                                                   MatchPolarity.DISTANCE_AT_MOST))


def test_default_smatch_metric_and_polarity_parse_equal_and_render_short():
    short = parse("SELECT oid FROM R1 WHERE fv SMATCH(0.9) [1.0, 0.5]")
    long = parse("SELECT oid FROM R1 WHERE fv SMATCH(0.9, COSINE, SIMILARITY_AT_LEAST) [1.0, 0.5]")
    assert short == long
    assert render(long) == "SELECT oid FROM R1 WHERE fv SMATCH(0.9) [1.0, 0.5]"


def test_parse_bb_pattern():
    ast = parse("SELECT oid FROM R1 WHERE bb MATCHES [0:100, *, 30, 10:20]")
    assert ast.where == BBoxTest(nodes.ColumnRef(None, "bb"),
                                 BBPattern((0.0, 100.0), None, 30.0, (10.0, 20.0)))


def test_parse_join_time_frame_conjunct():
    ast = parse("SELECT A.oid, B.oid FROM (R2A(R1, oid, fid)) A "
                "CJOIN (R2A(R2, oid, fid)) B "
                "ON A.fv SMATCH(0.9) B.fv AND A.ts + 30 <= B.ts")
    assert ast.join.cond.extras == (ScalarPairPredicate(nodes.ColumnRef("A", "ts"), "<=",
                                                        nodes.ColumnRef("B", "ts"), 30.0),)


def test_parse_keywords_case_insensitive():
    ast = parse("select OID from r1 window(time, 5, 5)")
    assert isinstance(ast.select[0], nodes.SelectColumn)


def test_syntax_error_carries_position():
    with pytest.raises(QuerySyntaxError) as exc:
        parse("SELECT FROM")
    assert exc.value.code == "SYNTAX_ERROR"
    assert (exc.value.line, exc.value.column) == (1, 8)


@pytest.mark.parametrize("text, error, line, column", [
    ("SELECT count(*) FROM R1 WINDOW(TUPLE, 0.5, 0.5)", InvalidWindowSpec, 1, 25),
    ("SELECT count(*)\nFROM R1\n  window(time, 0, 1)", InvalidWindowSpec, 3, 3),
    ("SELECT oid FROM R1 WHERE fv SMATCH(0.5) [0.0, 0.0]", ZeroVector, 1, 41),
    ("SELECT oid FROM R1\nWHERE ts > 1 AND fv SMATCH(0.5)\n [0.0]", ZeroVector, 3, 2),
])
def test_window_and_probe_errors_carry_their_position(text, error, line, column):
    with pytest.raises(error) as exc:
        parse(text)
    assert str(exc.value).endswith(f" (line {line}, column {column})")
    assert exc.value.code == error.code


def test_trailing_garbage_rejected():
    with pytest.raises(QuerySyntaxError):
        parse("SELECT oid FROM R1 42")


def test_number_literals_must_fit_a_finite_float64():
    head = "SELECT * FROM R1 WHERE ts > -"
    with pytest.raises(QuerySyntaxError) as exc:
        parse(head + "9" * 400)
    assert (exc.value.line, exc.value.column) == (1, len(head) + 1)
    # leading zeros do not count against int()'s digit limit
    assert parse("SELECT * FROM R1 WHERE fid = " + "0" * 5000 + "1").where.value == 1


def test_comments_are_ignored():
    ast = parse("SELECT oid -- trailing words\nFROM R1")
    assert isinstance(ast.source, nodes.TableSource)


@pytest.mark.parametrize("text", [Q2_TEXT, Q3_TEXT, Q4_TEXT,
                                  "SELECT * FROM R1 WINDOW(TUPLE, 10, 5)",
                                  "SELECT oid FROM R1 WHERE bb MATCHES [*, *, 3, 1:2] AND label = \"car\"",
                                  "SELECT R1.oid, R2.oid FROM R1 JOIN R2 ON R1.label = R2.label",
                                  "SELECT count(oid) FROM R1 WHERE NOT (fid < 5 OR fid > 10)",
                                  "SELECT * FROM R1 WHERE ts > 0.00000001",
                                  "SELECT * FROM R1 WINDOW(TIME, 0.00001, 0.00001)",
                                  "SELECT oid FROM R1 WHERE fv SMATCH(0.0000001) [1.0, 2.0]",
                                  "SELECT A.oid, B.oid FROM (R2A(R1, oid, fid)) A CJOIN (R2A(R2, oid, fid)) B "
                                  "ON A.fv SMATCH(0.9) B.fv AND A.ts - 0.00001 <= B.ts",
                                  "SELECT * FROM R1 WHERE ts > 12345678901234567890.5",
                                  "SELECT oid FROM R1 WHERE fv SMATCH(0.3, EUCLIDEAN) [1.0, 2.0]",
                                  "SELECT oid FROM R1 WHERE fv "
                                  "SMATCH(0.3, EUCLIDEAN, SIMILARITY_AT_LEAST) [1.0, 2.0]"])
def test_render_reparse_roundtrip(text):
    ast = parse(text)
    assert parse(render(ast)) == ast


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_render_reparse_roundtrip_any_finite_float(v):
    where = And((Comparison(nodes.ColumnRef(None, "ts"), ">", v),
                 BBoxTest(nodes.ColumnRef(None, "bb"), BBPattern(v, (v, v)))))
    ast = replace(parse("SELECT * FROM R1"), where=where)
    assert parse(render(ast)) == ast


@pytest.mark.parametrize("gap_text, gap", [("", 1), (", 1", 1), (", 6", 6), (", 6.0", 6)])
def test_cct_gap_parses_and_renders(gap_text, gap):
    ast = parse(f"SELECT * FROM CCT(R2A(R1, R1.oid, R1.fid), LAST{gap_text}) AR1")
    assert ast.source.gap_threshold == gap
    assert f"LAST, {gap})" in render(ast)
    assert parse(render(ast)) == ast
    assert plan(ast).root.gap_threshold == gap


@pytest.mark.parametrize("gap", ["0", "-3", "2.5"])
def test_cct_gap_must_be_a_whole_number_of_at_least_one(gap):
    with pytest.raises(QuerySyntaxError) as exc:
        parse(f"SELECT * FROM CCT(R2A(R1, R1.oid, R1.fid), FIRST, {gap})")
    assert exc.value.code == "SYNTAX_ERROR" and "gap" in str(exc.value)
    assert "column 51" in str(exc.value)  # at the gap's first token


LEXER_ALPHABET = [*string.ascii_letters, *string.digits, *string.punctuation,
                  *string.whitespace, '"', "--", "\x0b", "\u00b2", "\u2460", "\u0663", "\u00e9"]


def _offset(text, line, column):
    """The offset in ``text`` of a 1-based (line, column); only a newline ends a line."""
    return sum(len(part) + 1 for part in text.split("\n")[:line - 1]) + column - 1


def _starts_a_token(text, at):
    ch = text[at]
    return (ch in " \t\r\n()[],.*:+-=<>_0123456789" or ch.isalpha()
            or text.startswith("!=", at))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(LEXER_ALPHABET) | st.sampled_from(['"', "\n", "--"]),
                max_size=30).map("".join))  # quotes, newlines and comments often
def test_tokens_and_syntax_errors_point_at_their_source(text):
    try:
        tokens = tokenize(text)
    except QuerySyntaxError as exc:
        at = _offset(text, exc.line, exc.column)
        assert text[at] == '"' or not _starts_a_token(text, at)
        return
    offsets = [_offset(text, t.line, t.column) for t in tokens]
    assert offsets == sorted(set(offsets)) and offsets[-1] == len(text)
    for token, at in zip(tokens, offsets):
        source = {"STRING": f'"{token.value}"', "EOF": ""}.get(token.type, token.value)
        assert text.startswith(source, at) or token.value == "!=" and text.startswith("<>", at)


# --- planning ----------------------------------------------------------------

def test_q2_plan_shape():
    p = plan(parse(Q2_TEXT))
    assert node_kinds(p) == ["AggregateNode", "R2ANode", "SelectNode",
                             "WindowNode", "SourceNode"]
    assert p.sources == ("R1",)
    assert p.output_names == ("count",)


def test_q3_plan_two_sources_converge():
    p = plan(parse(Q3_TEXT))
    kinds = node_kinds(p)
    assert kinds.count("SourceNode") == 2
    assert kinds.count("JoinNode") == 1
    join = next(n for n in iter_nodes(p.root) if isinstance(n, JoinNode))
    assert join.kind == "CJOIN" and join.cond.th == 0.008
    assert join.on_left == "fv" and join.on_right == "fv"
    assert p.output_names == ("AR1.oid", "AR2.oid")


def test_q4_plan_shape():
    p = plan(parse(Q4_TEXT))
    assert node_kinds(p) == ["DirectionNode", "CctNode", "R2ANode",
                             "WindowNode", "SourceNode"]
    assert p.output_names == ("oid", "direction")


def test_planning_is_deterministic():
    assert plan(parse(Q3_TEXT)) == plan(parse(Q3_TEXT))


def test_join_condition_plans_the_same_in_either_order():
    text = ("SELECT A.oid, B.oid FROM (R2A(R1, oid, fid)) A CJOIN (R2A(R2, oid, fid)) B "
            "ON {} SMATCH(0.9) {} AND A.ts <= B.ts")
    assert plan(parse(text.format("B.fv", "A.fv"))) == \
        plan(parse(text.format("A.fv", "B.fv")))


def test_avg_over_feature_vector_rejected_at_plan_time():
    with pytest.raises(IllegalColumnKind):
        plan(parse("SELECT avg([FV]) FROM R1"))


def test_equality_join_over_feature_vector_rejected_at_plan_time():
    with pytest.raises(IllegalColumnKind):
        plan(parse("SELECT R1.oid, R2.oid FROM R1 JOIN R2 ON R1.[FV] = R2.[FV]"))


def test_equality_join_on_label_plans():
    p = plan(parse("SELECT R1.oid, R2.oid FROM R1 JOIN R2 ON R1.label = R2.label"))
    assert any(isinstance(n, EquiJoinNode) for n in iter_nodes(p.root))


def test_cjoin_requires_smatch_condition():
    with pytest.raises(SchemaMismatch):
        plan(parse("SELECT A.oid, B.oid FROM (R2A(R1, oid, fid)) A "
                   "CJOIN (R2A(R2, oid, fid)) B ON A.oid = B.oid"))


def test_unknown_qualifier_rejected():
    with pytest.raises(UnknownIdentifier):
        plan(parse("SELECT Z.oid FROM R1"))


def test_unknown_column_rejected():
    from vaquery.errors import UnknownColumn
    with pytest.raises(UnknownColumn):
        plan(parse("SELECT speed FROM R1"))


def test_window_clause_becomes_leaf_window_spec():
    p = plan(parse("SELECT * FROM R1 WINDOW(TIME, 100, 50)"))
    win = next(n for n in iter_nodes(p.root) if isinstance(n, WindowNode))
    assert (win.spec.kind, win.spec.size, win.spec.hop) == (WindowKind.TIME, 100.0, 50.0)


def test_default_window_used_without_clause():
    default = WindowSpec(WindowKind.TIME, 42.0, 42.0)
    p = plan(parse("SELECT * FROM R1"), default_window=default)
    win = next(n for n in iter_nodes(p.root) if isinstance(n, WindowNode))
    assert win.spec.size == 42.0


JOIN_SIDES = ("SELECT * FROM {} CJOIN {} ON A.fv SMATCH(0.9) B.fv{}",
              "(R2A(R1, R1.oid, R1.fid)) A", "(R2A(R2, R2.oid, R2.fid)) B")


def window_specs(p) -> set:
    return {n.spec for n in iter_nodes(p.root) if isinstance(n, WindowNode)}


def test_a_subquery_window_clause_cuts_every_source():
    query, left, right = JOIN_SIDES
    one_second = WindowSpec(WindowKind.TIME, 1.0, 1.0)
    moved = query.format(f"(SELECT * FROM {left} WINDOW(TIME, 1, 1)) A", right, "")
    # the flag gives way to the query's own clause
    assert window_specs(plan(parse(moved), default_window=WindowSpec(WindowKind.TUPLE, 5, 5))) \
        == {one_second}
    outer = query.format(left, right, " WINDOW(TIME, 1, 1)")
    assert window_specs(plan(parse(outer))) == {one_second}
    equal = query.format(f"(SELECT * FROM {left} WINDOW(TIME, 1.0, 1)) A", right,
                         " WINDOW(TIME, 1, 1)")
    assert plan(parse(equal)) == plan(parse(outer))


@pytest.mark.parametrize("text", [
    JOIN_SIDES[0].format(f"(SELECT * FROM {JOIN_SIDES[1]} WINDOW(TIME, 1, 1)) A",
                         JOIN_SIDES[2], " WINDOW(TIME, 2, 2)"),
    JOIN_SIDES[0].format(JOIN_SIDES[1],
                         f"(SELECT * FROM {JOIN_SIDES[2]} WINDOW(TUPLE, 1, 1)) B",
                         " WINDOW(TIME, 1, 1)"),
    "SELECT count(*) FROM (SELECT * FROM R1 WINDOW(TIME, 1, 1)) X WINDOW(TIME, 4, 4)",
    "SELECT count(*) FROM CCT((SELECT * FROM (R2A(R1, R1.oid, R1.fid)) A "
    "WINDOW(TIME, 1, 2)), FIRST) WINDOW(TIME, 2, 2)",
], ids=["left-subquery", "right-subquery", "nested", "under-cct"])
def test_two_different_window_clauses_are_refused_by_name(text):
    with pytest.raises(SchemaMismatch) as exc:
        plan(parse(text))
    message = str(exc.value)
    assert message.count("WINDOW(") == 2 and "one window" in message


def test_where_resolves_columns_to_the_schema_spelling():
    p = plan(parse('SELECT * FROM R1 WHERE R1.LABEL = "person"'))
    assert isinstance(p.root, SelectNode)
    assert p.root.predicate == Comparison("label", "=", "person")


def test_where_on_base_table_pushes_below_grouping():
    p = plan(parse(Q2_TEXT))
    kinds = node_kinds(p)
    assert kinds.index("SelectNode") > kinds.index("R2ANode")


def test_where_on_arrable_columns_applies_above_grouping():
    p = plan(parse("SELECT AR1.oid FROM (R2A(R1, oid, fid)) AR1 WHERE AR1.label = \"person\""))
    kinds = node_kinds(p)
    assert kinds.index("SelectNode") < kinds.index("R2ANode")


def test_direction_requires_arrable():
    with pytest.raises(SchemaMismatch):
        plan(parse("SELECT oid, DIRECTION(bb) FROM R1"))


def test_select_star_is_identity():
    p = plan(parse("SELECT * FROM R1"))
    assert node_kinds(p) == ["WindowNode", "SourceNode"]
    assert p.output_names == TRACE_SCHEMA.names()


def test_bracketed_column_names_resolve_case_insensitively():
    p = plan(parse("SELECT [FV] FROM R1"))
    assert p.output_names == ("fv",)


def test_aggregate_mixed_with_columns_rejected():
    with pytest.raises(SchemaMismatch):
        plan(parse("SELECT oid, count(*) FROM R1"))


# --- one row per refusal and per valid form -----------------------------------

README_SQL = re.findall(r"```sql\n(.*?)```",
                        (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8"),
                        re.S)
GROUPED = "SELECT * FROM R2A(R1, oid, fid) A {} R2A(R2, oid, fid) B ON {}"
UNGROUPED = "SELECT R1.oid, R2.oid FROM R1 JOIN R2 ON R1.label = R2.label{}"
GROUPED_SIDE = ["R2ANode", "WindowNode", "SourceNode"]
SELF_JOIN = ("SELECT A.oid, B.oid FROM R2A(R1, oid, fid) A CJOIN R2A(R1, oid, fid) B "
             "ON A.fv SMATCH(0.5) B.fv AND ")


@pytest.mark.parametrize("text, outcome", [
    # planner refusals: the error code
    (UNGROUPED.format(" WHERE R1.fid > 1"), "SCHEMA_MISMATCH"),
    ("SELECT * FROM CCT(R1, FIRST)", "SCHEMA_MISMATCH"),
    (GROUPED.format("CJOIN", "fv SMATCH(0.9) B.fv"), "UNKNOWN_IDENTIFIER"),
    (GROUPED.format("CJOIN", "A.fv SMATCH(0.9) Z.fv"), "UNKNOWN_IDENTIFIER"),
    (UNGROUPED.format(" AND R1.fid < R2.fid"), "SCHEMA_MISMATCH"),
    (GROUPED.format("JOIN", "A.label = B.label"), "SCHEMA_MISMATCH"),
    ("SELECT * FROM R1 A CJOIN R2 B ON A.fv SMATCH(0.9) B.fv", "SCHEMA_MISMATCH"),
    ("SELECT DIRECTION(bb), DIRECTION(bb) FROM R2A(R1, oid, fid) A", "SCHEMA_MISMATCH"),
    ("SELECT DIRECTION(bb) FROM R1", "SCHEMA_MISMATCH"),
    # a qualifier names exactly one source, and an extra one column of each side
    (SELF_JOIN + "R1.fid > B.fid", "UNKNOWN_IDENTIFIER"),
    (SELF_JOIN + "A.fid < A.fid", "SCHEMA_MISMATCH"),
    (SELF_JOIN + "A.fid < fid", "UNKNOWN_IDENTIFIER"),
    ("SELECT * FROM R2A(R1, oid, fid) A CJOIN R2A(R2, oid, fid) A ON A.fv SMATCH(0.9) A.fv",
     "UNKNOWN_IDENTIFIER"),
    ("SELECT Z.oid, DIRECTION(A.bb) FROM R2A(R1, oid, fid) A", "UNKNOWN_IDENTIFIER"),
    # parser refusals: the error code and its (line, column)
    ("SELECT oid R1", ("SYNTAX_ERROR", 1, 12)),
    ("SELECT * FROM R2A(R1 oid, fid)", ("SYNTAX_ERROR", 1, 22)),
    ("SELECT * FROM R1 WHERE fid > x", ("SYNTAX_ERROR", 1, 30)),
    ("SELECT sum(*) FROM R1", ("SYNTAX_ERROR", 1, 15)),
    ("SELECT * FROM CCT(R2A(R1, oid, fid), MIDDLE)", ("SYNTAX_ERROR", 1, 38)),
    ("SELECT oid FROM R1 WHERE fv SMATCH(0.5, manhattan) [1.0]", ("SYNTAX_ERROR", 1, 41)),
    ("SELECT oid FROM R1 WHERE fv SMATCH(0.5, cosine, nearest) [1.0]", ("SYNTAX_ERROR", 1, 49)),
    (GROUPED.format("CJOIN", "A.fv < B.fv"), ("SYNTAX_ERROR", 1, 69)),
    ("SELECT oid FROM R1 WHERE bb MATCHES [*, *, 3]", ("SYNTAX_ERROR", 1, 46)),
    ("SELECT * FROM R1 WINDOW(ROWS, 10, 10)", ("SYNTAX_ERROR", 1, 25)),
    ('SELECT oid FROM R1 WHERE label = "car', ("SYNTAX_ERROR", 1, 34)),
    ("SELECT oid FROM R1 WHERE fid = #", ("SYNTAX_ERROR", 1, 32)),
    # a number is ASCII digits: other digits are unexpected characters
    ("SELECT fid FROM R1 WHERE fid = \u00b2", ("SYNTAX_ERROR", 1, 32)),
    ("SELECT fid FROM R1 WHERE fid = 1\u00b2", ("SYNTAX_ERROR", 1, 33)),
    ("SELECT fid FROM R1 WHERE fid = \u2460", ("SYNTAX_ERROR", 1, 32)),
    ("SELECT fid FROM R1 WHERE fid = \u0663", ("SYNTAX_ERROR", 1, 32)),
    # valid forms: the plan's node kinds, or None where it only has to plan
    ("SELECT X.oid FROM R1 AS X", ["ProjectNode", "WindowNode", "SourceNode"]),
    ("SELECT fid, oid, label, bb, fv, ts FROM R1", ["WindowNode", "SourceNode"]),
    # an aggregate argument binds as a select column does: to a join's output column
    (GROUPED.format("CJOIN", "A.fv SMATCH(0.9) B.fv").replace("*", "count(A.oid)"),
     ["AggregateNode", "JoinNode", *GROUPED_SIDE, *GROUPED_SIDE]),
    (GROUPED.format("CJOIN", "A.fv SMATCH(0.9) B.fv").replace("*", "max(B.oid)"),
     ["AggregateNode", "JoinNode", *GROUPED_SIDE, *GROUPED_SIDE]),
    (UNGROUPED.format("").replace("R1.oid, R2.oid", "count(R1.oid)"),
     ["AggregateNode", "EquiJoinNode", "WindowNode", "SourceNode", "WindowNode", "SourceNode"]),
    *((text, None) for text in README_SQL),
], ids=["where-beside-join", "cct-ungrouped", "join-unqualified", "join-unknown-qualifier",
        "equality-join-extras", "equality-join-grouped", "similarity-join-ungrouped",
        "two-directions", "direction-ungrouped", "self-join-table-qualifier",
        "extra-one-side", "extra-unqualified", "sides-share-an-alias",
        "direction-key-unknown-qualifier", "missing-from", "missing-comma",
        "missing-number", "sum-star", "cct-option", "metric", "polarity", "join-less-than",
        "box-three-components", "window-rows", "unterminated-string", "unexpected-character",
        "superscript-two", "digit-then-superscript", "circled-one", "arabic-indic-three",
        "table-alias", "every-column-in-order", "count-of-a-cjoin-column",
        "max-of-a-cjoin-column", "count-of-an-equality-join-column",
        *(f"readme-{i}" for i in range(len(README_SQL)))])
def test_each_query_plans_or_is_refused_with_its_code(text, outcome):
    if outcome is None or isinstance(outcome, list):
        p = plan(parse(text))
        assert outcome is None or node_kinds(p) == outcome
        return
    code, *position = (outcome,) if isinstance(outcome, str) else outcome
    with pytest.raises(VaqueryError) as exc:
        plan(parse(text))
    assert exc.value.code == code
    if position:
        assert [exc.value.line, exc.value.column] == position
