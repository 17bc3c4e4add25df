"""Self-tests of the benchmark's checks and span arithmetic.

Run from the root of a checkout::

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from vaquery import cli, ingest  # noqa: E402


def program_rows(workload: workloads.Workload, seed: int, tmp: Path) -> list[dict]:
    """Generate the workload's files and run the query in-process."""
    args = ["run", "--query", str(tmp / "q.vaq")]
    (tmp / "q.vaq").write_text(workload.query, encoding="utf-8")
    for i, spec in enumerate(workload.specs):
        path = tmp / f"t{i}.jsonl"
        ingest.write_trace(ingest.generate(spec, seed), path)
        args += ["--trace", str(path)]
    out = tmp / "out.jsonl"
    assert cli.main(args + ["--out", str(out), "--no-header"]) == 0
    return [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]


@pytest.fixture(scope="module", params=[1, 2])
def outputs(request, tmp_path_factory):
    """The program's output for every workload, at two seeds."""
    seed = request.param
    result = {}
    for name in run.WORKLOADS:
        w = workloads.build(name, seed)
        result[name] = (w, program_rows(w, seed, tmp_path_factory.mktemp(name)))
    return result


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_program_output_matches_reference(outputs, name):
    w, rows = outputs[name]
    assert rows, "a reference that expects nothing checks nothing"
    assert workloads.check(w, rows)


def test_dropped_pair_fails(outputs):
    w, rows = outputs["join-2cam"]
    assert not workloads.check(w, rows[1:])


def test_duplicated_pair_fails(outputs):
    w, rows = outputs["join-2cam"]
    assert not workloads.check(w, rows + rows[:1])


def test_count_off_by_one_fails(outputs):
    w, rows = outputs["count-rolling"]
    bad = [dict(r) for r in rows]
    bad[len(bad) // 2]["count(fid)"] += 1
    assert not workloads.check(w, bad)


def test_missing_flushed_window_fails(outputs):
    w, rows = outputs["count-rolling"]
    assert not workloads.check(w, rows[:-1])


def test_extra_search_row_fails(outputs):
    w, rows = outputs["search-probe"]
    probed = {r["oid"] for r in rows}
    other = next(o for o in w.specs[0].objects if o.oid not in probed)
    extra = {"window": 0, "fid": other.intervals[0][0], "oid": other.oid}
    assert not workloads.check(w, rows + [extra])


def test_stale_results_file_does_not_pass(outputs, tmp_path):
    w, rows = outputs["search-probe"]
    runner = run.Runner(w, tmp_path, [tmp_path / "t0.jsonl"], tmp_path / "q.vaq")
    runner.out.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    runner.stats_path.write_text("{}", encoding="utf-8")
    op = runner.run([sys.executable, "-c", "pass"])  # exits 0, writes nothing
    assert op.exit_code == 0
    assert not op.correct
    assert not runner.out.exists()


def test_same_seed_same_inputs():
    for name in run.WORKLOADS:
        a, b = workloads.build(name, 7), workloads.build(name, 7)
        assert a == b
        assert a.specs != workloads.build(name, 8).specs


def test_tuple_count_does_not_depend_on_seed():
    for name in run.WORKLOADS:
        assert workloads.build(name, 1).tuples == workloads.build(name, 99).tuples


def span(i, name, parent, start, end, leaves=None):
    return {"id": i, "name": name, "parent": parent, "start": start, "end": end,
            "leaves": leaves or {}}


def test_self_times_add_up_to_wall():
    spans = [span(0, "ingest.read_trace", None, 1.0, 3.0, {"model.validate_tuple": [10, 0.5]}),
             span(1, "engine.run", None, 3.0, 7.0),
             span(2, "operators.cjoin", 1, 4.0, 6.0, {"similarity.scores_against": [5, 1.5]})]
    lay = run.op_layers(spans, 0.0, 8.0)
    assert lay["adds_up"]
    assert lay["unattributed"] == pytest.approx(2.0)
    assert lay["self"]["engine.run"] == pytest.approx(2.0)
    assert lay["self"]["operators.cjoin"] == pytest.approx(0.5)
    assert lay["self"]["ingest.read_trace"] == pytest.approx(1.5)
    assert lay["calls"]["similarity.scores_against"] == 5


def test_overlapping_spans_do_not_add_up():
    # two top-level spans claiming the same second: one of them is mis-nested
    spans = [span(0, "ingest.read_trace", None, 1.0, 3.0),
             span(1, "engine.run", None, 2.0, 4.0)]
    assert not run.op_layers(spans, 0.0, 5.0)["adds_up"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(run.END_TO_END.items())
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} \
        == set(run.per_layer_units().items())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "join-2cam",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
