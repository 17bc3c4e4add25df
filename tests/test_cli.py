import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import trace_relation
from vaquery import engine, querylang
from vaquery.cli import _engine_config, build_parser, main
from vaquery.ingest import ObjectSpec, SynthSpec, generate, read_trace, write_trace

Q2 = ('SELECT count(*) FROM (SELECT AR1.oid FROM (R2A(R1, R1.oid, R1.fid)) AR1 '
      'WHERE (R1.label = "person"))')
Q3 = ('SELECT AR1.oid, AR2.oid FROM (R2A(R1, R1.oid, R1.fid)) AR1 '
      'CJOIN (R2A(R2, R2.oid, R2.fid)) AR2 ON AR1.[FV] sMatch(0.9) AR2.[FV]')
SIDES = ("(R2A(R1, R1.oid, R1.fid)) A", "(R2A(R2, R2.oid, R2.fid)) B")


@pytest.fixture
def trace_file(tmp_path):
    spec = SynthSpec(frames=30, fps=30, fv_dim=4, objects=(
        ObjectSpec(1, "person", (0, 0, 4, 8), (1, 0), base_fv=(1, 0, 0, 0),
                   intervals=((0, 30),)),
        ObjectSpec(2, "person", (40, 0, 4, 8), (0, 1), base_fv=(0, 1, 0, 0),
                   intervals=((0, 30),)),
        ObjectSpec(3, "car", (90, 0, 9, 5), (-1, 0), base_fv=(0, 0, 1, 0),
                   intervals=((0, 30),)),
    ))
    path = tmp_path / "trace.jsonl"
    write_trace(generate(spec, 5), path)
    return path


def write_query(tmp_path, text, name="q.vaq"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_run_q2_writes_counts(tmp_path, trace_file, capsys):
    qpath = write_query(tmp_path, Q2)
    out = tmp_path / "results.jsonl"
    code = main(["run", "--query", str(qpath), "--trace", str(trace_file),
                 "--out", str(out), "--no-header"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert json.loads(lines[0]) == {"window": 0, "count": 2}
    stats = json.loads((tmp_path / "results.jsonl.stats.json").read_text())
    assert stats["stages"][0]["tuples_in"] == 90


def test_run_q3_pair_rows(tmp_path, trace_file):
    qpath = write_query(tmp_path, Q3)
    out = tmp_path / "pairs.jsonl"
    code = main(["run", "--query", str(qpath), "--trace", str(trace_file),
                 "--trace", str(trace_file), "--out", str(out), "--no-header"])
    assert code == 0
    rows = [json.loads(l) for l in out.read_text().strip().splitlines()]
    assert {(r["AR1.oid"], r["AR2.oid"]) for r in rows} == {(1, 1), (2, 2), (3, 3)}


def test_run_missing_trace_exits_3(tmp_path, capsys):
    qpath = write_query(tmp_path, Q2)
    code = main(["run", "--query", str(qpath), "--trace", str(tmp_path / "absent.jsonl")])
    assert code == 3
    assert "absent.jsonl" in capsys.readouterr().err


def test_run_bad_query_exits_2(tmp_path, trace_file, capsys):
    qpath = write_query(tmp_path, "SELECT FROM")
    code = main(["run", "--query", str(qpath), "--trace", str(trace_file)])
    assert code == 2
    err = capsys.readouterr().err
    assert "SYNTAX_ERROR" in err and "line 1" in err


def test_run_window_flag_overrides_default(tmp_path, trace_file):
    qpath = write_query(tmp_path, Q2)
    out = tmp_path / "results.jsonl"
    code = main(["run", "--query", str(qpath), "--trace", str(trace_file),
                 "--window", "time,0.5,0.5", "--out", str(out), "--no-header"])
    assert code == 0
    rows = [json.loads(l) for l in out.read_text().strip().splitlines()]
    assert [r["window"] for r in rows] == [0, 1]


def test_run_outputs_byte_identical_with_no_header(tmp_path, trace_file):
    qpath = write_query(tmp_path, Q2)
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        main(["run", "--query", str(qpath), "--trace", str(trace_file),
              "--out", str(out), "--no-header"])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("previous", [None, b'{"window": 0, "count": 7}\n'],
                         ids=["no-previous-results", "previous-results"])
def test_a_failed_run_leaves_its_results_file_as_it_was(tmp_path, trace_file, capsys,
                                                        previous):
    # the stats path is a directory, so the run fails once its results are written
    qpath = write_query(tmp_path, Q2)
    out = tmp_path / "r.jsonl"
    if previous is not None:
        out.write_bytes(previous)
    (tmp_path / "r.jsonl.stats.json").mkdir()
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["run", "--query", str(qpath), "--trace", str(trace_file),
                 "--out", str(out), "--no-header"]) == 3
    assert "error [IO_ERROR]" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert (out.read_bytes() if out.exists() else None) == previous


def test_a_run_that_fails_after_placing_its_stats_puts_the_previous_stats_back(
        tmp_path, trace_file, capsys):
    # the results path is a directory, so the run fails after its stats are in place
    qpath = write_query(tmp_path, Q2)
    out = tmp_path / "r.jsonl"
    out.mkdir()
    stats = tmp_path / "r.jsonl.stats.json"
    stats.write_bytes(b'{"previous": true}')
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["run", "--query", str(qpath), "--trace", str(trace_file),
                 "--out", str(out), "--no-header"]) == 3
    err = capsys.readouterr().err
    assert "error [IO_ERROR]" in err and f"{str(out)!r}" in err and ".tmp" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert stats.read_bytes() == b'{"previous": true}'


def test_a_run_replaces_its_results_file_and_does_not_write_through_it(tmp_path, trace_file):
    qpath = write_query(tmp_path, Q2)
    target = tmp_path / "elsewhere.jsonl"
    target.write_bytes(b"kept\n")
    out = tmp_path / "r.jsonl"
    out.symlink_to(target)
    assert main(["run", "--query", str(qpath), "--trace", str(trace_file),
                 "--out", str(out), "--no-header"]) == 0
    assert not out.is_symlink() and target.read_bytes() == b"kept\n"
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]


def test_header_line_present_by_default(tmp_path, trace_file):
    qpath = write_query(tmp_path, Q2)
    out = tmp_path / "r.jsonl"
    main(["run", "--query", str(qpath), "--trace", str(trace_file), "--out", str(out)])
    first = json.loads(out.read_text().splitlines()[0])
    assert "_meta" in first


def test_eval_pairs_robustness_prints_80_percent(tmp_path, capsys):
    results = tmp_path / "results.jsonl"
    rows = [{"window": 0, "L.oid": "O1", "R.oid": "O1"},
            {"window": 0, "L.oid": "O2", "R.oid": "O1"},
            {"window": 0, "L.oid": "O5", "R.oid": "O3"}]
    results.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps({
        "left_universe": ["O1", "O2", "O3", "O5", "O6"],
        "right_universe": ["O1", "O3", "O7"],
        "positives": [["O1", "O1"], ["O3", "O3"]],
    }))
    report_path = tmp_path / "report.json"
    code = main(["eval", "--results", str(results), "--gt", str(gt),
                 "--task", "pairs", "--out", str(report_path)])
    assert code == 0
    assert "80%" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["counts"] == {"tp": 1, "tn": 11, "fp": 2, "fn": 1}


def test_eval_count_task(tmp_path, capsys):
    results = tmp_path / "results.jsonl"
    results.write_text(json.dumps({"window": 0, "count": 3}) + "\n"
                       + json.dumps({"window": 1, "count": 2}) + "\n")
    gt = tmp_path / "gt.json"
    gt.write_text("[3, 2]")
    assert main(["eval", "--results", str(results), "--gt", str(gt),
                 "--task", "count"]) == 0
    assert "100%" in capsys.readouterr().out


def test_eval_count_task_scores_a_count_column(tmp_path, trace_file, capsys):
    # a count over a column names its result column count(<column>)
    qpath = write_query(tmp_path, "SELECT count(fid) FROM (CCT(R2A(R1, R1.oid, R1.fid), first)) "
                                  "AR1 WINDOW(TIME, 1, 1)")
    results = tmp_path / "results.jsonl"
    assert main(["run", "--query", str(qpath), "--trace", str(trace_file),
                 "--out", str(results)]) == 0
    gt = tmp_path / "gt.json"
    gt.write_text("[3]")
    assert main(["eval", "--results", str(results), "--gt", str(gt), "--task", "count"]) == 0
    assert "100%" in capsys.readouterr().out


def test_eval_count_task_scores_a_count_of_a_join_column(tmp_path, trace_file, capsys):
    # an aggregate over a join names a side's column as the select list does
    qpath = write_query(tmp_path, f"SELECT count(A.oid) FROM {SIDES[0]} CJOIN {SIDES[1]} "
                                  f"ON A.fv SMATCH(0.9) B.fv")
    results = tmp_path / "results.jsonl"
    assert main(["run", "--query", str(qpath), "--trace", str(trace_file),
                 "--trace", str(trace_file), "--out", str(results)]) == 0
    assert json.loads(results.read_text().splitlines()[1]) == {"window": 0, "count(A.oid)": 3}
    gt = tmp_path / "gt.json"
    gt.write_text("[3]")
    assert main(["eval", "--results", str(results), "--gt", str(gt), "--task", "count"]) == 0
    assert "100%" in capsys.readouterr().out


def test_eval_direction_task(tmp_path, capsys):
    results = tmp_path / "results.jsonl"
    results.write_text(json.dumps({"window": 0, "oid": 1, "direction": "NE"}) + "\n")
    gt = tmp_path / "gt.json"
    gt.write_text('{"1": "NE"}')
    assert main(["eval", "--results", str(results), "--gt", str(gt),
                 "--task", "direction"]) == 0
    assert "100%" in capsys.readouterr().out


@pytest.mark.parametrize("left, right, join", [("CAM2", "CAM1", "JOIN"), ("B", "A", "CJOIN"),
                                               ("x", "y", "CJOIN")])
def test_run_then_eval_scores_a_join_as_left_right_pairs(tmp_path, capsys, left, right, join):
    # left object 1 and right object 2 share a feature vector; a result line keeps the
    # query's column order, so the pair is (left, right) whatever the aliases sort as
    traces = []
    for cam, fvs in (("left", ((1, 0, 0, 0), (0, 1, 0, 0))),
                     ("right", ((0, 0, 1, 0), (1, 0, 0, 0)))):
        traces.append(tmp_path / f"{cam}.jsonl")
        write_trace(trace_relation([(fid, oid, "person", (0, 0, 1, 1), fv) for fid in range(3)
                                    for oid, fv in enumerate(fvs, start=1)]), traces[-1])
    qpath = write_query(tmp_path, f"SELECT * FROM (R2A(R1, R1.oid, R1.fid)) {left} {join} "
                                  f"(R2A(R2, R2.oid, R2.fid)) {right} "
                                  f"ON {left}.[FV] sMatch(0.9) {right}.[FV]")
    results, gt = tmp_path / "r.jsonl", tmp_path / "gt.json"
    assert main(["run", "--query", str(qpath), "--trace", str(traces[0]), "--trace",
                 str(traces[1]), "--out", str(results)]) == 0
    gt.write_text('{"left_universe": [1, 2], "right_universe": [1, 2], "positives": [[1, 2]]}')
    capsys.readouterr()
    assert main(["eval", "--results", str(results), "--gt", str(gt), "--task", "pairs"]) == 0
    out = capsys.readouterr().out
    assert "accuracy  100%" in out and "TP=1 FP=0 FN=0" in out


def test_run_then_eval_refuses_a_direction_object_in_two_windows(tmp_path, trace_file, capsys):
    qpath = write_query(tmp_path, "SELECT AR1.oid, DIRECTION(AR1.bb) FROM "
                                  "(R2A(R1, R1.oid, R1.fid)) AR1 WINDOW(TIME, 0.5, 0.5)")
    results, gt = tmp_path / "r.jsonl", tmp_path / "gt.json"
    assert main(["run", "--query", str(qpath), "--trace", str(trace_file),
                 "--out", str(results)]) == 0
    gt.write_text('{"1": "E", "2": "N", "3": "W"}')
    assert main(["eval", "--results", str(results), "--gt", str(gt), "--task", "direction"]) == 3
    err = capsys.readouterr().err
    assert "error [INDEX_MISMATCH]" in err and "object '1'" in err and "windows 0 and 1" in err


def test_gen_deterministic_output(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "frames": 50, "fps": 25, "fv_dim": 4,
        "objects": [{"oid": 1, "label": "person", "bb": [0, 0, 2, 2],
                     "velocity": [1, 0], "noise": 0.05, "intervals": [[0, 50]]},
                    {"oid": 2, "label": "car", "bb": [10, 10, 4, 2],
                     "intervals": [[0, 20], [30, 50]]}],
    }))
    outs = []
    for name in ("t1.jsonl", "t2.jsonl"):
        out = tmp_path / name
        assert main(["gen", "--spec", str(spec), "--seed", "9", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert len(outs[0].decode().strip().splitlines()) == 50 + 40


def test_gen_bad_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"frames": 0, "objects": []}')
    assert main(["gen", "--spec", str(spec), "--seed", "1",
                 "--out", str(tmp_path / "t.jsonl")]) == 3
    assert "SPEC_ERROR" in capsys.readouterr().err


def test_bench_three_variants(tmp_path, trace_file, capsys):
    queries = {}
    for name, kind in (("join", "JOIN"), ("cjoin", "CJOIN"), ("cctjoin", "CCTJOIN")):
        qpath = write_query(tmp_path, Q3.replace("CJOIN", kind), f"{name}.vaq")
        queries[name] = str(qpath)
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "queries": queries,
        "traces": [str(trace_file), str(trace_file)],
        "repetitions": 1,
    }))
    out = tmp_path / "table.txt"
    assert main(["bench", "--config", str(config), "--out", str(out)]) == 0
    table = out.read_text()
    lines = [l for l in table.splitlines() if l and not l.startswith(("variant", "-"))]
    assert len(lines) == 3
    comparisons = {l.split()[0]: int(l.split()[-1]) for l in lines}
    assert comparisons["cjoin"] <= comparisons["join"]
    assert comparisons["cctjoin"] <= comparisons["join"]


def test_bench_plans_each_variant_once(tmp_path, trace_file, monkeypatch, capsys):
    planned = []
    plan = querylang.plan
    monkeypatch.setattr(querylang, "plan", lambda *a, **k: planned.append(a) or plan(*a, **k))
    queries = {name: str(write_query(tmp_path, Q2, f"{name}.vaq")) for name in ("a", "b")}
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"queries": queries, "traces": [str(trace_file)],
                                  "repetitions": 3}))
    assert main(["bench", "--config", str(config)]) == 0
    assert len(planned) == len(queries)


def test_parse_check_ok(tmp_path, capsys):
    qpath = write_query(tmp_path, Q2)
    assert main(["parse-check", "--query", str(qpath)]) == 0
    assert "ok:" in capsys.readouterr().out


@pytest.mark.parametrize("select, columns", [
    ("AR1.fid", "oid, fid"),
    ("*", "oid, fid, label, bb, fv, ts"),
    ("AR1.oid, DIRECTION(AR1.bb)", "oid, direction"),
])
def test_parse_check_names_the_columns_of_the_rows(tmp_path, trace_file, capsys,
                                                   select, columns):
    # a grouped row leads with its key, whatever the select list's order
    qpath = write_query(tmp_path, f"SELECT {select} FROM (R2A(R1, R1.oid, R1.fid)) AR1")
    assert main(["parse-check", "--query", str(qpath)]) == 0
    assert capsys.readouterr().out == f"ok: 1 source(s), output columns: {columns}\n"
    assert main(["run", "--query", str(qpath), "--trace", str(trace_file)]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows and all(", ".join(list(row)[1:]) == columns for row in rows)


def _camera(tmp_path, name, *objects):
    """A 10 fps, 4-d trace file of (oid, unit fv dimension, whole seconds) objects."""
    rows = [(f, oid, "person", (0, 0, 1, 1), tuple(float(d == dim) for d in range(4)))
            for oid, dim, seconds in objects for s in seconds for f in range(10 * s, 10 * s + 10)]
    path = tmp_path / name
    write_trace(trace_relation(rows, fps=10), path)
    return path


@pytest.mark.parametrize("left, right, clause", [
    (*SIDES, " WINDOW(TIME, 1, 1)"),
    (f"(SELECT * FROM {SIDES[0]} WINDOW(TIME, 1, 1)) A", SIDES[1], ""),
    (SIDES[0], f"(SELECT * FROM {SIDES[1]} WINDOW(TIME, 1, 1)) B", ""),
], ids=["outer", "left-subquery", "right-subquery"])
def test_run_cuts_both_join_sides_by_the_one_clause(tmp_path, capsys, left, right, clause):
    cam1 = _camera(tmp_path, "cam1.jsonl", (1, 0, [0]), (2, 1, [3]))
    cam2 = _camera(tmp_path, "cam2.jsonl", (11, 0, [3]), (12, 1, [3]))
    qpath = write_query(tmp_path, f"SELECT * FROM {left} CJOIN {right} "
                                  f"ON A.fv SMATCH(0.9) B.fv{clause}")
    assert main(["run", "--query", str(qpath), "--trace", str(cam1), "--trace", str(cam2),
                 "--fps", "10"]) == 0
    assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == \
        [{"window": 3, "A.oid": 2, "B.oid": 12, "score": 1.0}]


def test_run_count_join_keeps_the_windows_after_an_input_ends(tmp_path, capsys):
    r1 = _camera(tmp_path, "r1.jsonl", (1, 0, [0, 2]))
    r2 = _camera(tmp_path, "r2.jsonl", (5, 0, [0]))
    qpath = write_query(tmp_path, "SELECT * FROM (SELECT count(*) FROM R1) A JOIN "
                                  "(SELECT count(*) FROM R2) B ON A.count = B.count "
                                  "WINDOW(TIME, 1, 1)")
    assert main(["run", "--query", str(qpath), "--trace", str(r1), "--trace", str(r2),
                 "--fps", "10"]) == 0
    assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == \
        [{"window": 0, "A.count": 10, "B.count": 10}, {"window": 1, "A.count": 0, "B.count": 0}]


def test_parse_check_plan_error(tmp_path, capsys):
    qpath = write_query(tmp_path, "SELECT avg([FV]) FROM R1")
    assert main(["parse-check", "--query", str(qpath)]) == 2
    assert "ILLEGAL_COLUMN_KIND" in capsys.readouterr().err


@pytest.mark.parametrize("error, message", [
    (MemoryError(), "out of memory"),
    (MemoryError("Unable to allocate 8.00 EiB"), "Unable to allocate 8.00 EiB"),
])
def test_run_out_of_memory_exits_3(tmp_path, trace_file, monkeypatch, capsys, error, message):
    def exhausted(*args):
        raise error

    monkeypatch.setattr(engine, "r2a_op", exhausted)
    qpath = write_query(tmp_path, Q2)
    assert main(["run", "--query", str(qpath), "--trace", str(trace_file)]) == 3
    assert capsys.readouterr().err == f"error [OUT_OF_MEMORY]: {message}\n"


def test_run_source_count_mismatch(tmp_path, trace_file, capsys):
    qpath = write_query(tmp_path, Q3)
    code = main(["run", "--query", str(qpath), "--trace", str(trace_file)])
    assert code == 3
    assert "2 sources" in capsys.readouterr().err


def test_run_table_format_prints_once(tmp_path, trace_file, capsys):
    qpath = write_query(tmp_path, Q2)
    code = main(["run", "--query", str(qpath), "--trace", str(trace_file),
                 "--format", "table"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["window=0  count=2"]


SMATCH_OUT_OF_RANGE = "SELECT fid FROM R1 WHERE [FV] SMATCH(1.5) [1.0, 0.0, 0.0, 0.0]"
BB_RANGE_REVERSED = "SELECT fid FROM R1 WHERE bb MATCHES [10:0, *, *, *]"
ORDERED_STRING = 'SELECT fid FROM R1 WHERE R1.oid < "abc"'
JOIN_EXTRA = ('SELECT AR1.oid, AR2.oid FROM (R2A(R1, R1.oid, R1.fid)) AR1 '
              'CJOIN (R2A(R2, R2.oid, R2.fid)) AR2 ON AR1.[FV] sMatch(0.9) AR2.[FV] AND ')
DEEP_PARENS = "SELECT fid FROM R1 WHERE " + "(" * 400 + "fid = 1" + ")" * 400
DEEP_NOTS = "SELECT fid FROM R1 WHERE " + "NOT " * 1000 + "fid = 1"
CCT_GAP = "SELECT count(fid) FROM CCT(R2A(R1, R1.oid, R1.fid), first, {})"
NINES = "9" * 400  # an integer literal beyond the float64 range
NOT_UTF8 = b'{"fid": 0, "oid": 1, "label": "p\xffrson", "bb": [0, 0, 1, 1], "fv": [1.0]}\n'
CSV_ROW = "fid,oid,label,ts,bb_x,bb_y,bb_w,bb_h,fv_0\n{}\n"  # a CSV trace of one row
# a query has one window: each of these has two different WINDOW clauses
TWO_CLAUSES_JOIN = (f"SELECT * FROM (SELECT * FROM {SIDES[0]} WINDOW(TIME, 1, 1)) A "
                    f"CJOIN {SIDES[1]} ON A.fv SMATCH(0.9) B.fv WINDOW(TIME, 2, 2)")
TWO_CLAUSES = "SELECT count(*) FROM (SELECT * FROM R1 WINDOW(TIME, 1, 1)) X WINDOW(TIME, 4, 4)"
# a self-join of R1: the qualifier R1 names both sides
SELF_JOIN = ("SELECT A.oid, B.oid FROM R2A(R1, oid, fid) A CJOIN R2A(R1, oid, fid) B "
             "ON A.fv SMATCH(0.5) B.fv AND ")


@pytest.mark.filterwarnings("error")  # a warning would reach stderr outside pytest
@pytest.mark.parametrize("command, query, extra, code, error", [
    ("run", SMATCH_OUT_OF_RANGE, [], 2, "SYNTAX_ERROR"),
    ("parse-check", SMATCH_OUT_OF_RANGE, [], 2, "SYNTAX_ERROR"),
    ("run", BB_RANGE_REVERSED, [], 2, "SYNTAX_ERROR"),
    ("run", Q2, ["--window", "time,abc,1"], 2, "NONPOSITIVE_SIZE_OR_HOP"),
    ("run", Q2, ["--window", "time,nan,1"], 2, "NONPOSITIVE_SIZE_OR_HOP"),
    ("run", Q2, ["--window", "time,1,inf"], 2, "NONPOSITIVE_SIZE_OR_HOP"),
    ("run", None, [], 3, "NO_SUCH_FILE"),
    ("run", Q2, ["--engine-config", "rate=5\n"], 3, "CONFIG_ERROR"),
    ("run", Q2, ["--engine-config", '{"quantum": '], 3, "CONFIG_ERROR"),
    ("run", ORDERED_STRING, [], 2, "SCHEMA_MISMATCH"),
    ("parse-check", ORDERED_STRING.replace("<", ">="), [], 2, "SCHEMA_MISMATCH"),
    ("run", JOIN_EXTRA + "AR1.label < AR2.ts", [], 2, "SCHEMA_MISMATCH"),
    ("run", JOIN_EXTRA + "AR1.label + 5 = AR2.label", [], 2, "SCHEMA_MISMATCH"),
    ("run", JOIN_EXTRA + "AR1.label < AR2.label", [], 2, "ILLEGAL_COLUMN_KIND"),
    ("run", Q2, ["--trace", "[1, 2]\n"], 3, "PARSE_ERROR"),
    ("run", Q2, ["--trace", NOT_UTF8], 3, "PARSE_ERROR"),
    ("run", Q2, ["--fps", "0"], 3, "CONFIG_ERROR"),
    ("run", Q2, ["--fps", "-30"], 3, "CONFIG_ERROR"),
    ("run", Q2, ["--fps", "nan"], 3, "CONFIG_ERROR"),
    ("run", DEEP_PARENS, [], 2, "SYNTAX_ERROR"),
    ("parse-check", DEEP_PARENS, [], 2, "SYNTAX_ERROR"),
    ("run", DEEP_NOTS, [], 2, "SYNTAX_ERROR"),
    ("parse-check", DEEP_NOTS, [], 2, "SYNTAX_ERROR"),
    ("run", Q2 + " WINDOW(TUPLE, 0.5, 0.5)", [], 2, "NONPOSITIVE_SIZE_OR_HOP"),
    ("run", Q2, ["--window", "tuple,0.5,0.5"], 2, "NONPOSITIVE_SIZE_OR_HOP"),
    ("run", Q2, ["--window", "time,1e-300,1e-300"], 3, "TOO_MANY_WINDOWS"),
    ("run", CCT_GAP.format("0"), [], 2, "SYNTAX_ERROR"),
    ("run", CCT_GAP.format("-3"), [], 2, "SYNTAX_ERROR"),
    ("parse-check", CCT_GAP.format("2.5"), [], 2, "SYNTAX_ERROR"),
    ("run", f"{Q2} WINDOW(TIME, {NINES}, 1)", [], 2, "SYNTAX_ERROR"),
    ("run", f"SELECT fid FROM R1 WHERE [FV] SMATCH(0.5) [{NINES}, 1.0]", [], 2, "SYNTAX_ERROR"),
    ("run", f"SELECT fid FROM R1 WHERE bb MATCHES [{NINES}, *, *, *]", [], 2, "SYNTAX_ERROR"),
    ("run", JOIN_EXTRA + f"AR1.ts + {NINES} <= AR2.ts", [], 2, "SYNTAX_ERROR"),
    ("run", f"SELECT fid FROM R1 WHERE fv SMATCH(0.0) [{NINES}.0, 1.0]", [], 2, "SYNTAX_ERROR"),
    ("run", Q2, ["--engine-config", '{"rates": {"R1": 5, "r1": 6}}'], 3, "CONFIG_ERROR"),
    ("run", Q2, ["--window", "1,1"], 2, "NONPOSITIVE_SIZE_OR_HOP"),
    ("run", Q2, ["--window", "hour,1,1"], 2, "NONPOSITIVE_SIZE_OR_HOP"),
    ("run", Q3, [], 3, "SCHEMA_MISMATCH"),
    ("run", Q2, ["--engine-config", "[" * 100_000], 3, "CONFIG_ERROR"),
    ("run", Q2, ["--window", "time,inf,1"], 2, "NONPOSITIVE_SIZE_OR_HOP"),
    ("run", Q2, ["--window", "tuple,inf,10"], 2, "NONPOSITIVE_SIZE_OR_HOP"),
    ("run", Q2, ["--trace", CSV_ROW.format("1,x,p,,0,0,1,1,1")], 3,
     "PARSE_ERROR: trace line oid must be an integer, got 'x' (line 2)"),
    ("run", Q2, ["--trace", CSV_ROW.format("1,1,p,,0,0,1,1,nan?")], 3,
     "PARSE_ERROR: trace line fv[0] must be a number, got 'nan?' (line 2)"),
    ("run", Q2, ["--window", "time,1e308,1e-308"], 2, "NONPOSITIVE_SIZE_OR_HOP"),
    ("run", f"{Q2} WINDOW(TIME, {'9' * 301}, 0.{'0' * 300}1)", [], 2,
     "NONPOSITIVE_SIZE_OR_HOP"),
    ("run", TWO_CLAUSES_JOIN, [], 2, "SCHEMA_MISMATCH"),
    ("parse-check", TWO_CLAUSES_JOIN, [], 2, "SCHEMA_MISMATCH"),
    ("run", TWO_CLAUSES, [], 2, "SCHEMA_MISMATCH: a query has one window, but it has the "
                                "clauses WINDOW(TIME, 4.0, 4.0) and WINDOW(TIME, 1.0, 1.0)"),
    ("parse-check", TWO_CLAUSES, [], 2, "SCHEMA_MISMATCH"),
    ("run", "SELECT fid FROM R1 WHERE fid = \u00b2", [], 2,
     "SYNTAX_ERROR: unexpected character '\u00b2' (line 1, column 32)"),
    ("parse-check", "SELECT fid FROM R1 WHERE fid = \u00b2", [], 2,
     "SYNTAX_ERROR: unexpected character '\u00b2' (line 1, column 32)"),
    ("run", "SELECT fid FROM R1 WHERE fid = \u0663", [], 2, "SYNTAX_ERROR"),
    ("parse-check", "SELECT fid FROM R1 WHERE fid = \u0663", [], 2, "SYNTAX_ERROR"),
    ("parse-check", SELF_JOIN + "R1.fid > B.fid", [], 2,
     "UNKNOWN_IDENTIFIER: ambiguous qualifier 'R1'"),
    ("parse-check", SELF_JOIN + "A.fid < A.fid", [], 2,
     "SCHEMA_MISMATCH: join condition must compare one column from each side"),
    ("run", Q2, ["--trace", "fid,oid,label,ts,bb_x,bb_y\n"], 3,
     "PARSE_ERROR: unexpected CSV header ['fid', 'oid', 'label', 'ts', 'bb_x', 'bb_y'] (line 1)"),
    ("run", Q2, ["--trace", CSV_ROW.format("0,1,p,,0,0,1,1," + "1" * 131_073)], 3,
     "PARSE_ERROR: field larger than field limit (131072) (line 2)"),
    ("parse-check", "SELECT fid FROM R1 WHERE oid 5", [], 2,
     "SYNTAX_ERROR: expected a comparison operator, found '5' (line 1, column 30)"),
], ids=["smatch-run", "smatch-parse-check", "bb-range", "window-abc", "window-nan",
        "window-inf-hop", "missing-query", "config-value", "config-json",
        "ordered-string", "ordered-string-parse-check", "join-extra-mixed-kinds",
        "join-extra-offset-on-label", "join-extra-ordered-label", "trace-non-object",
        "trace-not-utf8", "fps-zero", "fps-negative", "fps-nan", "deep-parens",
        "deep-parens-parse-check", "deep-nots", "deep-nots-parse-check",
        "fractional-tuple-window", "fractional-tuple-window-flag", "window-count",
        "cct-gap-zero", "cct-gap-negative", "cct-gap-fraction", "huge-window",
        "huge-probe", "huge-bb", "huge-join-offset", "huge-decimal-probe",
        "config-rate-casings", "window-two-parts", "window-kind", "trace-count",
        "config-deep", "window-inf-size", "tuple-window-inf-size", "csv-oid-text",
        "csv-fv-text", "window-ratio-overflow", "window-clause-ratio-overflow",
        "two-windows-join", "two-windows-join-parse-check", "two-windows",
        "two-windows-parse-check", "superscript-digit", "superscript-digit-parse-check",
        "arabic-indic-digit", "arabic-indic-digit-parse-check", "self-join-table-qualifier", "self-join-extra-one-side",
        "csv-short-header", "csv-field-over-limit", "comparison-without-operator"])
def test_bad_input_exits_with_code_not_traceback(tmp_path, trace_file, capsys,
                                                command, query, extra, code, error):
    qpath = write_query(tmp_path, query) if query else tmp_path / "missing.vaq"
    if "--engine-config" in extra:
        cfg = tmp_path / "engine.cfg"
        cfg.write_text(extra[1])
        extra = ["--engine-config", str(cfg)]
    if extra[:1] == ["--trace"]:  # a trace file with the given text
        text = extra[1] if isinstance(extra[1], bytes) else extra[1].encode()
        trace_file = tmp_path / ("bad.csv" if text.startswith(b"fid,") else "bad.jsonl")
        trace_file.write_bytes(text)
        extra = []
    args = [command, "--query", str(qpath)]
    if command == "run":
        args += ["--trace", str(trace_file)] + extra
    assert main(args) == code
    err = capsys.readouterr().err
    error, _, message = error.partition(": ")  # a code, or a code and its whole message
    assert f"error [{error}]: {message}" in err
    assert "Traceback" not in err and "Warning" not in err


def test_run_and_parse_check_do_not_import_evaluation():
    code = "import sys, vaquery.cli; print('vaquery.evaluation' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_equality_with_a_string_literal_counts_no_rows(tmp_path, trace_file, capsys):
    qpath = write_query(tmp_path, 'SELECT count(*) FROM R1 WHERE R1.oid = "x"')
    assert main(["run", "--query", str(qpath), "--trace", str(trace_file)]) == 0
    assert json.loads(capsys.readouterr().out) == {"window": 0, "count": 0}


def test_zero_vector_in_a_live_row_exits_3(tmp_path, capsys):
    trace = tmp_path / "zero.jsonl"
    write_trace(trace_relation([(0, 1, "person", (0, 0, 1, 1), (1.0, 0.0, 0.0, 0.0)),
                                (0, 2, "car", (5, 0, 1, 1), (0.0, 0.0, 0.0, 0.0))]), trace)
    probe = "[FV] SMATCH(0.9) [1.0, 0.0, 0.0, 0.0]"
    decided = write_query(tmp_path, f'SELECT oid FROM R1 WHERE R1.label = "person" AND {probe}')
    assert main(["run", "--query", str(decided), "--trace", str(trace)]) == 0
    assert json.loads(capsys.readouterr().out) == {"window": 0, "oid": 1}
    live = write_query(tmp_path, f"SELECT oid FROM R1 WHERE {probe}", "live.vaq")
    assert main(["run", "--query", str(live), "--trace", str(trace)]) == 3
    err = capsys.readouterr().err
    assert "error [ZERO_VECTOR]" in err and "Traceback" not in err


def test_a_probe_decides_a_row_alike_in_any_window(tmp_path, capsys):
    # th is row 4's GEMM score in the 200-row block; the GEMM scores the
    # row alone as 0.14084304442798184, so a decision that followed the
    # block's shape would keep fid 4 in one window and drop it in the other
    rng = np.random.default_rng(0)
    vecs, probe = rng.normal(size=(200, 16)), rng.normal(size=16)
    trace = tmp_path / "t.jsonl"
    write_trace(trace_relation([(fid, 1, "person", (0, 0, 1, 1), tuple(v))
                                for fid, v in enumerate(vecs)]), trace)
    literal = ", ".join(np.format_float_positional(x, unique=True) for x in probe)
    fids = []
    for window in ("TUPLE, 200, 200", "TUPLE, 1, 1"):
        query = write_query(tmp_path, "SELECT fid FROM R1 WHERE fv SMATCH(0.14084304442798187) "
                                      f"[{literal}] WINDOW({window})")
        assert main(["run", "--query", str(query), "--trace", str(trace)]) == 0
        fids.append([json.loads(line)["fid"] for line in capsys.readouterr().out.splitlines()])
    assert fids[0] == fids[1]


def test_avg_of_values_whose_sum_overflows_is_finite(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    write_trace(trace_relation([(0, 1, "person", (0, 0, 1, 1), (1.0,), 1e308),
                                (1, 1, "person", (0, 0, 1, 1), (1.0,), 1.7e308)]), trace)
    out = {}
    for func in ("avg", "sum"):
        query = write_query(tmp_path, f"SELECT {func}(ts) FROM R1")
        assert main(["run", "--query", str(query), "--trace", str(trace)]) == 0
        out.update(json.loads(capsys.readouterr().out))
    assert out == {"window": 0, "avg(ts)": 1.35e308, "sum(ts)": "inf"}


def test_a_header_only_csv_trace_has_no_rows_and_a_blank_row_is_skipped(tmp_path, capsys):
    query = write_query(tmp_path, "SELECT fid FROM R1")
    for text, fids in ((CSV_ROW.format("").rstrip("\n"), []),
                       (CSV_ROW.format("0,1,p,,0,0,1,1,1\n\n1,1,p,,0,0,1,1,1"), [0, 1])):
        trace = tmp_path / "t.csv"
        trace.write_text(text)
        assert main(["run", "--query", str(query), "--trace", str(trace)]) == 0
        assert [json.loads(line)["fid"] for line in capsys.readouterr().out.splitlines()] == fids


def test_rate_zero_and_quantum_override_config_file(tmp_path):
    # the --quantum flag and the config key of earlier engines are gone
    cfg = tmp_path / "engine.json"
    cfg.write_text('{"rate": 100, "quantum": 8}')
    args = build_parser().parse_args(["run", "--query", "q.vaq", "--trace", "t.jsonl",
                                      "--engine-config", str(cfg), "--rate", "0"])
    assert _engine_config(args).default_rate == 0.0
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--query", "q.vaq", "--trace", "t.jsonl",
                                   "--quantum", "1"])


def _traced_spans(tmp_path, trace_file, query, n_traces):
    """Spans of one ``vaquery run`` under benchmarks/tracer.py."""
    root = Path(__file__).resolve().parents[1]
    spans = tmp_path / "spans.json"
    cmd = [sys.executable, str(root / "benchmarks" / "tracer.py"), str(spans), "all",
           "run", "--query", str(write_query(tmp_path, query))]
    cmd += ["--trace", str(trace_file)] * n_traces
    cmd += ["--out", str(tmp_path / "out.jsonl"), "--no-header"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())["spans"]


@pytest.mark.parametrize("query, n_traces", [
    (Q3, 2),
    ("SELECT fid, oid FROM R1 WHERE [FV] SMATCH(0.9) [1.0, 0.0, 0.0, 0.0]", 1),
], ids=["cjoin", "smatch-select"])
def test_benchmark_tracer_finds_the_similarity_functions(tmp_path, trace_file, query, n_traces):
    # benchmarks/tracer.py wraps similarity functions by their operators
    # attribute names; renaming one must fail here, not only in the benchmark
    spans = _traced_spans(tmp_path, trace_file, query, n_traces)
    leaves = {name for span in spans for name in span["leaves"]}
    assert {"similarity.scores_against", "similarity.normalized_matrix"} <= leaves


def test_benchmark_tracer_finds_the_engine_operators(tmp_path, trace_file):
    # the tracer patches the engine's operator globals and WindowManager
    # methods; an engine that stopped calling them would lose these spans
    query = ('SELECT count(fid) FROM (CCT(R2A(R1, R1.oid, R1.fid), first)) AR1 '
             'WHERE (R1.label = "person") WINDOW(TIME, 0.5, 0.25)')
    spans = _traced_spans(tmp_path, trace_file, query, 1)
    assert {"engine.run", "engine.instantiate", "engine.write_results", "ingest.read_trace",
            "operators.r2a", "operators.select", "operators.cct",
            "operators.aggregate"} <= {span["name"] for span in spans}
    leaves = {name for span in spans for name in span["leaves"]}
    assert {"windows.add", "windows.close", "windows.flush"} <= leaves
    # the tracer counts the rows read_trace returns with len(rel.rows)
    assert [span["items"] for span in spans if span["name"] == "ingest.read_trace"] \
        == [len(read_trace(trace_file))] == [90]


# Each case: argv and the files it reads, written to tmp_path. "{tmp}" and
# "{trace}" in both stand for tmp_path and a valid trace file.
GEN = ["gen", "--spec", "{tmp}/spec.json", "--out", "{tmp}/t.jsonl"]
BENCH = ["bench", "--config", "{tmp}/bench.json"]
RUN = ["run", "--query", "{tmp}/q.vaq", "--trace", "{trace}"]


def _eval(task, results, gt):
    return (["eval", "--results", "{tmp}/r.jsonl", "--gt", "{tmp}/gt.json", "--task", task],
            {"r.jsonl": results, "gt.json": gt})


def _spec(obj=None, **top):
    spec = {"frames": 5, "objects": [{"oid": 1, "bb": [0, 0, 1, 1], "intervals": [[0, 5]],
                                      **(obj or {})}], **top}
    return GEN, {"spec.json": json.dumps(spec)}


def _bench(config):
    return BENCH, {"bench.json": json.dumps(config), "bad.vaq": "SELECT FROM"}


def _run(*extra, **files):
    return RUN + list(extra), {"q.vaq": Q2, **files}


PAIR_GT = '{"left_universe": [1], "right_universe": [2], "positives": []}'
COUNTS = '{{"window": {}, "count": {}}}\n'  # one count result row
DEEP_JSON = "[" * 100_000  # deeper than the JSON decoder recurses


@pytest.mark.filterwarnings("error")  # a warning would reach stderr outside pytest
@pytest.mark.parametrize("case, code, error, names", [
    (_spec({"noise": -1}), 3, "SPEC_ERROR", "noise"),
    ((GEN + ["--seed", "-1"], _spec()[1]), 3, "SPEC_ERROR", "seed"),
    (_spec({"velocity": [1]}), 3, "SPEC_ERROR", "velocity"),
    (_spec({"bb": [0, 0, 1]}), 3, "SPEC_ERROR", "bb"),
    (_spec(fv_dim=-2), 3, "SPEC_ERROR", "fv_dim"),
    (_spec(fv_dim=0), 3, "SPEC_ERROR", "fv_dim"),
    (_spec({"fv": []}), 3, "SPEC_ERROR", "fv"),
    (_spec({"label": 5}), 3, "SPEC_ERROR", "label"),
    (_spec(fps=float("nan")), 3, "SPEC_ERROR", "fps"),
    (_spec(fv_dim=10**15), 3, "SPEC_ERROR", "values"),
    (_spec({"intervals": [[0, 10**12]]}, frames=10**12), 3, "SPEC_ERROR", "values"),
    ((GEN, {"spec.json": b"\xff{"}), 3, "SPEC_ERROR", ""),
    ((GEN[:-1] + ["{tmp}/absent/t.jsonl"], {"spec.json": _spec()[1]["spec.json"]}), 3,
     "IO_ERROR", "absent"),
    (_bench({"traces": [], "queries": {}, "repetitions": "x"}), 3, "CONFIG_ERROR", "repetitions"),
    (_bench({"traces": [], "queries": {}, "repetitions": 1.5}), 3, "CONFIG_ERROR", "repetitions"),
    (_bench({"traces": "{trace}", "queries": {}}), 3, "CONFIG_ERROR", "traces"),
    (_bench({"traces": [], "queries": ["{tmp}/bad.vaq"]}), 3, "CONFIG_ERROR", "queries"),
    (_bench({"traces": [], "queries": {}, "fps": "x"}), 3, "CONFIG_ERROR", "fps"),
    (_bench([1]), 3, "CONFIG_ERROR", "bench.json"),
    ((BENCH, {"bench.json": "{"}), 3, "CONFIG_ERROR", "bench.json"),
    (_bench({"traces": ["{trace}"], "queries": {"q": "{tmp}/bad.vaq"}, "repetitions": 1}), 2,
     "SYNTAX_ERROR", "line 1"),
    (_bench({"traces": ["{tmp}/absent.jsonl"], "queries": {"q": "{tmp}/bad.vaq"}}), 2,
     "SYNTAX_ERROR", "line 1"),
    (_eval("count", "{", "[1]"), 3, "FORMAT_MISMATCH", "r.jsonl line 1"),
    (_eval("count", "[1]", "[1]"), 3, "FORMAT_MISMATCH", "r.jsonl line 1"),
    (_eval("count", '{"window": 0, "count": 1}', "{"), 3, "FORMAT_MISMATCH", "gt.json"),
    (_eval("count", '{"window": 0, "count": 1}', '["x"]'), 3, "FORMAT_MISMATCH", "gt.json"),
    (_eval("count", '{"window": 0, "count": 1}', '[1.5]'), 3, "FORMAT_MISMATCH", "gt.json"),
    (_eval("count", '{"window": 0, "count": 3}', '["3"]'), 3, "FORMAT_MISMATCH", "gt.json"),
    (_eval("count", '{"window": 0, "count": 1}', '[true]'), 3, "FORMAT_MISMATCH", "gt.json"),
    (_eval("count", '{"window": 0, "count": 2}', '{"windows": {"0": 2.0}}'), 3,
     "FORMAT_MISMATCH", "gt.json"),
    (_eval("count", '{"window": [0], "count": 1}', "[1]"), 3, "FORMAT_MISMATCH", "window"),
    (_eval("pairs", '{"a": [1], "b": 2}', PAIR_GT), 3, "FORMAT_MISMATCH", "'a'"),
    (_eval("pairs", '{"a": 1, "b": 2}', "[1"), 3, "FORMAT_MISMATCH", "gt.json"),
    (_eval("direction", '{"window": 0}', '{"1": "N"}'), 3, "FORMAT_MISMATCH", "direction"),
    (_run("--engine-config", "{tmp}/e.cfg", **{"e.cfg": b"quantum=\xff\n"}), 3, "CONFIG_ERROR",
     "UTF-8"),
    (_run("--rate", "inf"), 3, "CONFIG_ERROR", "rate"),
    (_run("--engine-config", "{tmp}/e.json", **{"e.json": '{"quantum": true, "rate": true}'}),
     3, "CONFIG_ERROR", "rate"),
    (_run("--engine-config", "{tmp}/e.json", **{"e.json": '{"rate": false}'}), 3,
     "CONFIG_ERROR", "rate"),
    (_run("--engine-config", "{tmp}/e.json", **{"e.json": '{"rates": {"R1": true}}'}), 3,
     "CONFIG_ERROR", "R1"),
    (_run("--engine-config", "{tmp}/e.json", **{"e.json": '{"rates": {"R7": 5}}'}), 3,
     "CONFIG_ERROR", "R7"),
    (_run("--engine-config", "{tmp}/e.json", **{"e.json": '{"quantum": "8", "rate": "8"}'}),
     3, "CONFIG_ERROR", "rate"),
    ((RUN[:-1] + ["{tmp}"], {"q.vaq": Q2}), 3, "IO_ERROR", "directory"),
    ((["run", "--query", "{tmp}", "--trace", "{trace}"], {}), 3, "IO_ERROR", "directory"),
    (_run("--out", "{tmp}/absent/r.jsonl"), 3, "IO_ERROR", "absent"),
    (_run("--out", "{tmp}"), 3, "IO_ERROR", "directory"),
    ((RUN, {"q.vaq": b"SELECT \xff"}), 2, "SYNTAX_ERROR", "column 8"),
    ((["parse-check", "--query", "{tmp}"], {}), 3, "IO_ERROR", "directory"),
    ((["parse-check", "--query", "{tmp}/absent.vaq"], {}), 3, "NO_SUCH_FILE", "absent.vaq"),
    (_spec(frames=5.7), 3, "SPEC_ERROR", "frames"),
    (_spec(fv_dim=True), 3, "SPEC_ERROR", "fv_dim"),
    (_spec({"oid": "3"}), 3, "SPEC_ERROR", "oid"),
    (_spec({"intervals": [[0, 2.9]]}), 3, "SPEC_ERROR", "intervals"),
    (_spec({"noise": False}), 3, "SPEC_ERROR", "noise"),
    (_spec({"fv": [1, "2"]}), 3, "SPEC_ERROR", "fv"),
    (_spec({"intervals": 5}), 3, "SPEC_ERROR", "intervals"),
    (_eval("pairs", '{"a": 1, "b": 2}',
           '{"left_universe": [1], "right_universe": "ab", "positives": []}'), 3,
     "FORMAT_MISMATCH", "right_universe"),
    (_eval("pairs", '{"a": 1, "b": 2}',
           '{"left_universe": [1], "right_universe": {"2": 0}, "positives": []}'), 3,
     "FORMAT_MISMATCH", "right_universe"),
    (_eval("pairs", '{"a": "a", "b": "b"}',
           '{"left_universe": ["a"], "right_universe": ["b"], "positives": ["ab"]}'), 3,
     "FORMAT_MISMATCH", "positives"),
    (_eval("direction", '{"oid": 1, "direction": "N"}', '{"1": 5}'), 3, "FORMAT_MISMATCH",
     "direction"),
    (_eval("direction", '{"oid": 1, "direction": "N"}', '{"1": null}'), 3, "FORMAT_MISMATCH",
     "direction"),
    (_eval("pairs", '{"window": 0, "a": 1}', PAIR_GT), 3, "FORMAT_MISMATCH", "two result"),
    (_spec({"bb": [1e308, 0, 1, 1], "velocity": [1e308, 0]}), 3, "NON_FINITE_VALUE", "inf"),
    ((GEN, {"spec.json": DEEP_JSON}), 3, "SPEC_ERROR", "nests too deeply"),
    ((BENCH, {"bench.json": DEEP_JSON}), 3, "CONFIG_ERROR", "bench.json"),
    (_eval("count", '{"window": 0, "count": 1}', DEEP_JSON), 3, "FORMAT_MISMATCH", "gt.json"),
    (_eval("count", DEEP_JSON, "[1]"), 3, "FORMAT_MISMATCH", "r.jsonl line 1"),
    ((RUN[:-1] + ["{tmp}/t.jsonl"], {"q.vaq": Q2, "t.jsonl": DEEP_JSON}), 3, "PARSE_ERROR",
     "(line 1)"),
    (_run("--rate", "1e-300"), 3, "CONFIG_ERROR", "too small"),
    (_run("--engine-config", "{tmp}/e.json", **{"e.json": '{"rates": {"R1": 1e-300}}'}), 3,
     "CONFIG_ERROR", "too small"),
    (_eval("count", COUNTS.format(0, 5) + COUNTS.format(1, 5) + COUNTS.format(9, 5), "[5]"), 3,
     "INDEX_MISMATCH", "window 1"),
    (_eval("count", COUNTS.format(0, 5) + COUNTS.format(0, 7), "[5]"), 3, "INDEX_MISMATCH",
     "window 0 is listed twice"),
    ((GEN, {"spec.json": "[1]"}), 3, "SPEC_ERROR", "generator spec must be an object"),
    ((GEN, {"spec.json": '{"frames": 5, "objects": [5]}'}), 3, "SPEC_ERROR",
     "generator spec objects[0] must be an object"),
    ((GEN, {"spec.json": '{"frames": 5, "objects": [{"oid": 1, "bb": [0, 0, 1, 1]}]}'}), 3,
     "SPEC_ERROR", "generator spec objects[0] is missing intervals"),
    (_eval("pairs", '{"a": 1, "b": 2}', "[1]"), 3, "FORMAT_MISMATCH", "gt.json must be an object"),
    (_eval("count", COUNTS.format(0, 1), '{"a": 1}'), 3, "FORMAT_MISMATCH",
     "gt.json is missing windows"),
    (_eval("direction", '{"oid": 1, "direction": "N"}', "[[1]]"), 3, "FORMAT_MISMATCH",
     "gt.json must be an object"),
    (_eval("direction", '{"window": 0, "oid": 1, "direction": "N"}\n'
                        '{"window": 1, "oid": 1, "direction": "S"}\n', '{"1": "N"}'), 3,
     "INDEX_MISMATCH", "object '1' has result rows in windows 0 and 1"),
    (_eval("pairs", '{"window": 0, "a": 1, "b": 2}\n' * 2, PAIR_GT), 3, "INDEX_MISMATCH",
     "window 0 with ids 1, 2 is listed twice"),
    (_bench({"traces": [], "queries": {}, "fps": 0}), 3, "CONFIG_ERROR", "fps must be positive"),
    (_eval("pairs", '{"a": 1, "b": 2}',
           '{"left_universe": [1], "right_universe": [2], "positives": [[1, 2, 3]]}'), 3,
     "FORMAT_MISMATCH", "positives[0] must be a [left, right] pair"),
    (_spec({"intervals": [[0, 1, 2]]}), 3, "SPEC_ERROR", "intervals[0] must be a [lo, hi] pair"),
    ((GEN, {"spec.json": json.dumps({"frames": 5, "objects": [
        {"oid": oid, "bb": [0, 0, 1, 1], "intervals": [[0, 5]], "fv": [1] * (oid + 1)}
        for oid in (1, 2)]})}), 3, "DIMENSION_MISMATCH", "[2, 3]"),
], ids=["spec-noise", "gen-seed-negative", "spec-velocity", "spec-bb", "spec-fv-dim-negative", "spec-fv-dim-zero",
        "spec-fv-empty", "spec-label", "spec-fps-nan", "spec-fv-dim-huge", "spec-frames-huge",
        "spec-not-utf8", "gen-out-missing-dir",
        "bench-repetitions-text", "bench-repetitions-fraction", "bench-traces-string",
        "bench-queries-list", "bench-fps-text", "bench-list", "bench-not-json",
        "bench-bad-query", "bench-bad-query-missing-trace", "eval-results-not-json", "eval-results-not-object",
        "eval-gt-not-json", "eval-gt-count-text", "eval-gt-count-fraction",
        "eval-gt-count-string", "eval-gt-count-bool", "eval-gt-count-windows-float",
        "eval-window-array", "eval-pair-array",
        "eval-pairs-gt-not-json", "eval-direction-missing",
        "config-not-utf8", "rate-inf", "config-quantum-bool", "config-rate-bool",
        "config-rates-bool", "config-rates-unread-source", "config-quantum-string", "run-trace-dir",
        "run-query-dir", "run-out-missing-dir", "run-out-dir", "run-query-not-utf8",
        "parse-check-dir",
        "parse-check-missing", "spec-frames-fraction", "spec-fv-dim-bool", "spec-oid-string",
        "spec-interval-fraction", "spec-noise-bool", "spec-fv-string", "spec-intervals-number",
        "eval-universe-string", "eval-universe-object", "eval-positive-string",
        "eval-direction-number", "eval-direction-null", "eval-pairs-one-column",
        "spec-box-overflow", "spec-deep", "bench-deep", "eval-gt-deep", "eval-results-deep",
        "run-trace-deep", "rate-tiny", "config-rates-tiny", "eval-count-window-outside-truth",
        "eval-count-window-twice", "spec-array", "spec-object-number", "spec-intervals-missing",
        "eval-pairs-gt-array", "eval-count-gt-object", "eval-direction-gt-array",
        "eval-direction-object-in-two-windows", "eval-pair-twice-in-a-window",
        "bench-fps-zero", "eval-positive-triple", "spec-interval-triple",
        "spec-fv-dimensions-differ"])
def test_every_subcommand_exits_with_a_code(tmp_path, trace_file, capsys, case, code, error,
                                            names):
    argv, files = case

    def fill(text):
        return text.replace("{tmp}", str(tmp_path)).replace("{trace}", str(trace_file))

    for name, text in files.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else fill(text).encode())
    assert main([fill(arg) for arg in argv]) == code
    err = capsys.readouterr().err
    assert f"error [{error}]" in err and names in err
    assert "Traceback" not in err and "Warning" not in err



def test_only_io_and_vaquery_errors_become_exit_codes(tmp_path, monkeypatch):
    def bug(text):
        raise ZeroDivisionError("a bug keeps its traceback")

    monkeypatch.setattr(querylang, "parse", bug)
    with pytest.raises(ZeroDivisionError):
        main(["parse-check", "--query", str(write_query(tmp_path, Q2))])


# Field names the loaders read, so that drawn objects reach their checks.
# Left out: "frames" (a valid spec may still allocate up to
# ingest.MAX_GENERATED_VALUES floats, 128 MiB, per example) and
# "rate"/"rates" (a tiny positive feed rate throttles a run for as long as
# it asks).
_KEYS = st.sampled_from([
    "objects", "oid", "label", "bb", "velocity", "fv", "noise", "intervals", "fps", "fv_dim",
    "traces", "queries", "repetitions",
    "left_universe", "right_universe", "positives", "windows", "window", "count",
    "direction", "0"]) | st.text(max_size=6)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=5),
    max_leaves=12)
_CONTENT = _JSON.map(lambda value: json.dumps(value).encode()) | st.binary(max_size=40)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "q.vaq").write_text(Q2)
    (d / "r.jsonl").write_text('{"window": 0, "oid": 1, "count": 2, "direction": "E"}\n')
    (d / "pairs.json").write_text('{"left_universe": [0, 1], "right_universe": [0, 1], '
                                  '"positives": [[0, 0]]}')
    (d / "count.json").write_text("[2]")
    (d / "direction.json").write_text('{"1": "E"}')
    write_trace(trace_relation([(0, 1, "person", (0, 0, 1, 1), (1.0, 0.0)),
                                (1, 1, "person", (1, 0, 1, 1), (1.0, 0.1))]), d / "t.jsonl")
    return d


_TARGETS = [["gen", "--spec", "{file}", "--out", "{dir}/out.jsonl"],
            ["bench", "--config", "{file}"],
            ["run", "--query", "{dir}/q.vaq", "--trace", "{dir}/t.jsonl",
             "--engine-config", "{file}"]]
_TARGETS += [["eval", "--results", "{dir}/r.jsonl", "--gt", "{file}", "--task", task]
             for task in ("pairs", "count", "direction")]
_TARGETS += [["eval", "--results", "{file}", "--gt", f"{{dir}}/{task}.json", "--task", task]
             for task in ("pairs", "count", "direction")]


#: Python's own exception text, which no refusal may pass on as its message.
_PYTHON_WORDING = ("subscriptable", "indices must be", "NoneType", "has no attribute",
                   "not supported between")


@settings(max_examples=300, deadline=10_000, derandomize=True)
@given(target=st.sampled_from(_TARGETS), content=_CONTENT)
def test_any_input_file_exits_0_2_or_3(fuzz_dir, target, content):
    path = fuzz_dir / "input"
    path.write_bytes(content)
    argv = [a.replace("{file}", str(path)).replace("{dir}", str(fuzz_dir)) for a in target]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert code == 0 or "error [" in err.getvalue()
    assert not any(words in err.getvalue() for words in _PYTHON_WORDING)
