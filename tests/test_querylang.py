from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaquery.errors import (IllegalColumnKind, InvalidWindowSpec, QuerySyntaxError,
                            SchemaMismatch, UnknownIdentifier, ZeroVector)
from vaquery.model import TRACE_SCHEMA, FeatureVector
from vaquery.operators import (And, BBoxTest, BBPattern, CctOption, Comparison,
                               ScalarPairPredicate, SMatchProbe)
from vaquery.querylang import (AggregateNode, CctNode, DirectionNode, JoinNode,
                               ProjectNode, R2ANode, SelectNode, SourceNode,
                               WindowNode, iter_nodes, nodes, parse, plan,
                               render)
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

ONE = {"R1": TRACE_SCHEMA}
TWO = {"R1": TRACE_SCHEMA, "R2": TRACE_SCHEMA}


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
    assert ast.where == SMatchProbe(nodes.ColumnRef(None, "fv"), FeatureVector([1.0, 0.5]),
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
                                  "SELECT * FROM R1 WHERE ts > 12345678901234567890.5"])
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
    assert plan(ast, {"R1": TRACE_SCHEMA}).root.gap_threshold == gap


@pytest.mark.parametrize("gap", ["0", "-3", "2.5"])
def test_cct_gap_must_be_a_whole_number_of_at_least_one(gap):
    with pytest.raises(QuerySyntaxError) as exc:
        parse(f"SELECT * FROM CCT(R2A(R1, R1.oid, R1.fid), FIRST, {gap})")
    assert exc.value.code == "SYNTAX_ERROR" and "gap" in str(exc.value)
    assert "column 51" in str(exc.value)  # at the gap's first token


# --- planning ----------------------------------------------------------------

def test_q2_plan_shape():
    p = plan(parse(Q2_TEXT), ONE)
    assert node_kinds(p) == ["AggregateNode", "R2ANode", "SelectNode",
                             "WindowNode", "SourceNode"]
    assert p.sources == ("R1",)
    assert p.output_names == ("count",)


def test_q3_plan_two_sources_converge():
    p = plan(parse(Q3_TEXT), TWO)
    kinds = node_kinds(p)
    assert kinds.count("SourceNode") == 2
    assert kinds.count("JoinNode") == 1
    join = next(n for n in iter_nodes(p.root) if isinstance(n, JoinNode))
    assert join.kind == "CJOIN" and join.cond.th == 0.008
    assert join.on_left == "fv" and join.on_right == "fv"
    assert p.output_names == ("AR1.oid", "AR2.oid")


def test_q4_plan_shape():
    p = plan(parse(Q4_TEXT), ONE)
    assert node_kinds(p) == ["DirectionNode", "CctNode", "R2ANode",
                             "WindowNode", "SourceNode"]
    assert p.output_names == ("oid", "direction")


def test_planning_is_deterministic():
    assert plan(parse(Q3_TEXT), TWO) == plan(parse(Q3_TEXT), TWO)


def test_avg_over_feature_vector_rejected_at_plan_time():
    with pytest.raises(IllegalColumnKind):
        plan(parse("SELECT avg([FV]) FROM R1"), ONE)


def test_equality_join_over_feature_vector_rejected_at_plan_time():
    with pytest.raises(IllegalColumnKind):
        plan(parse("SELECT R1.oid, R2.oid FROM R1 JOIN R2 ON R1.[FV] = R2.[FV]"), TWO)


def test_equality_join_on_label_plans():
    p = plan(parse("SELECT R1.oid, R2.oid FROM R1 JOIN R2 ON R1.label = R2.label"), TWO)
    assert any(isinstance(n, EquiJoinNode) for n in iter_nodes(p.root))


def test_cjoin_requires_smatch_condition():
    with pytest.raises(SchemaMismatch):
        plan(parse("SELECT A.oid, B.oid FROM (R2A(R1, oid, fid)) A "
                   "CJOIN (R2A(R2, oid, fid)) B ON A.oid = B.oid"), TWO)


def test_unknown_source_rejected():
    with pytest.raises(UnknownIdentifier):
        plan(parse("SELECT oid FROM R9"), ONE)


def test_unknown_qualifier_rejected():
    with pytest.raises(UnknownIdentifier):
        plan(parse("SELECT Z.oid FROM R1"), ONE)


def test_unknown_column_rejected():
    from vaquery.errors import UnknownColumn
    with pytest.raises(UnknownColumn):
        plan(parse("SELECT speed FROM R1"), ONE)


def test_window_clause_becomes_leaf_window_spec():
    p = plan(parse("SELECT * FROM R1 WINDOW(TIME, 100, 50)"), ONE)
    win = next(n for n in iter_nodes(p.root) if isinstance(n, WindowNode))
    assert (win.spec.kind, win.spec.size, win.spec.hop) == (WindowKind.TIME, 100.0, 50.0)


def test_default_window_used_without_clause():
    default = WindowSpec(WindowKind.TIME, 42.0, 42.0)
    p = plan(parse("SELECT * FROM R1"), ONE, default)
    win = next(n for n in iter_nodes(p.root) if isinstance(n, WindowNode))
    assert win.spec.size == 42.0


def test_where_resolves_columns_to_the_schema_spelling():
    p = plan(parse('SELECT * FROM R1 WHERE R1.LABEL = "person"'), ONE)
    assert isinstance(p.root, SelectNode)
    assert p.root.predicate == Comparison("label", "=", "person")


def test_where_on_base_table_pushes_below_grouping():
    p = plan(parse(Q2_TEXT), ONE)
    kinds = node_kinds(p)
    assert kinds.index("SelectNode") > kinds.index("R2ANode")


def test_where_on_arrable_columns_applies_above_grouping():
    p = plan(parse("SELECT AR1.oid FROM (R2A(R1, oid, fid)) AR1 WHERE AR1.label = \"person\""),
             ONE)
    kinds = node_kinds(p)
    assert kinds.index("SelectNode") < kinds.index("R2ANode")


def test_direction_requires_arrable():
    with pytest.raises(SchemaMismatch):
        plan(parse("SELECT oid, DIRECTION(bb) FROM R1"), ONE)


def test_select_star_is_identity():
    p = plan(parse("SELECT * FROM R1"), ONE)
    assert node_kinds(p) == ["WindowNode", "SourceNode"]
    assert p.output_names == TRACE_SCHEMA.names()


def test_bracketed_column_names_resolve_case_insensitively():
    p = plan(parse("SELECT [FV] FROM R1"), ONE)
    assert p.output_names == ("fv",)


def test_aggregate_mixed_with_columns_rejected():
    with pytest.raises(SchemaMismatch):
        plan(parse("SELECT oid, count(*) FROM R1"), ONE)
