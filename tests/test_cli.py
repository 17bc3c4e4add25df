import json

import pytest

from vaquery.cli import _engine_config, build_parser, main
from vaquery.ingest import ObjectSpec, SynthSpec, generate, write_trace

Q2 = ('SELECT count(*) FROM (SELECT AR1.oid FROM (R2A(R1, R1.oid, R1.fid)) AR1 '
      'WHERE (R1.label = "person"))')
Q3 = ('SELECT AR1.oid, AR2.oid FROM (R2A(R1, R1.oid, R1.fid)) AR1 '
      'CJOIN (R2A(R2, R2.oid, R2.fid)) AR2 ON AR1.[FV] sMatch(0.9) AR2.[FV]')


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
    path.write_text(text)
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


def test_eval_direction_task(tmp_path, capsys):
    results = tmp_path / "results.jsonl"
    results.write_text(json.dumps({"window": 0, "oid": 1, "direction": "NE"}) + "\n")
    gt = tmp_path / "gt.json"
    gt.write_text('{"1": "NE"}')
    assert main(["eval", "--results", str(results), "--gt", str(gt),
                 "--task", "direction"]) == 0
    assert "100%" in capsys.readouterr().out


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


def test_parse_check_ok(tmp_path, capsys):
    qpath = write_query(tmp_path, Q2)
    assert main(["parse-check", "--query", str(qpath)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_parse_check_plan_error(tmp_path, capsys):
    qpath = write_query(tmp_path, "SELECT avg([FV]) FROM R1")
    assert main(["parse-check", "--query", str(qpath)]) == 2
    assert "ILLEGAL_COLUMN_KIND" in capsys.readouterr().err


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


@pytest.mark.parametrize("command, query, extra, code, error", [
    ("run", SMATCH_OUT_OF_RANGE, [], 2, "SYNTAX_ERROR"),
    ("parse-check", SMATCH_OUT_OF_RANGE, [], 2, "SYNTAX_ERROR"),
    ("run", BB_RANGE_REVERSED, [], 2, "SYNTAX_ERROR"),
    ("run", Q2, ["--window", "time,abc,1"], 2, "NONPOSITIVE_SIZE_OR_HOP"),
    ("run", Q2, ["--window", "time,nan,1"], 2, "NONPOSITIVE_SIZE_OR_HOP"),
    ("run", None, [], 3, "NO_SUCH_FILE"),
    ("run", Q2, ["--engine-config", "quantum=abc\n"], 3, "CONFIG_ERROR"),
    ("run", Q2, ["--engine-config", '{"quantum": '], 3, "CONFIG_ERROR"),
    ("run", Q2, ["--quantum", "0"], 3, "CONFIG_ERROR"),
], ids=["smatch-run", "smatch-parse-check", "bb-range", "window-abc", "window-nan",
        "missing-query", "config-value", "config-json", "quantum-zero"])
def test_bad_input_exits_with_code_not_traceback(tmp_path, trace_file, capsys,
                                                command, query, extra, code, error):
    qpath = write_query(tmp_path, query) if query else tmp_path / "missing.vaq"
    if "--engine-config" in extra:
        cfg = tmp_path / "engine.cfg"
        cfg.write_text(extra[1])
        extra = ["--engine-config", str(cfg)]
    args = [command, "--query", str(qpath)]
    if command == "run":
        args += ["--trace", str(trace_file)] + extra
    assert main(args) == code
    err = capsys.readouterr().err
    assert f"error [{error}]" in err
    assert "Traceback" not in err


def test_rate_zero_and_quantum_override_config_file(tmp_path):
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("rate=100\nquantum=8\n")
    args = build_parser().parse_args(["run", "--query", "q.vaq", "--trace", "t.jsonl",
                                      "--engine-config", str(cfg), "--rate", "0",
                                      "--quantum", "1"])
    config = _engine_config(args)
    assert config.default_rate == 0.0 and config.quantum == 1
