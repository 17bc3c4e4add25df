import json
import time

import pytest

from oracles import select_oracle
from vaquery import engine
from vaquery.engine import EngineConfig, Pipeline, instantiate, row_to_json, write_results
from vaquery.errors import ConfigError, SchemaMismatch
from vaquery.ingest import ObjectSpec, SynthSpec, generate
from vaquery.model import BoundingBox, FeatureVector, Relation, TRACE_SCHEMA
from vaquery.operators import (CctOption, ComparisonCounter, Direction8, ScalarPairPredicate,
                               cct, cjoin, hash_equi_join, nl_join, r2a)
from vaquery.querylang import CctNode, parse, plan
from vaquery.similarity import MatchCondition
from vaquery.windows import WindowManager

ONE = {"R1": TRACE_SCHEMA}
TWO = {"R1": TRACE_SCHEMA, "R2": TRACE_SCHEMA}

Q2 = ('SELECT count(*) FROM (SELECT AR1.oid FROM (R2A(R1, R1.oid, R1.fid)) AR1 '
      'WHERE (R1.label = "person"))')
Q3 = ('SELECT AR1.oid, AR2.oid FROM (R2A(R1, R1.oid, R1.fid)) AR1 '
      'CJOIN (R2A(R2, R2.oid, R2.fid)) AR2 ON AR1.[FV] sMatch(0.9) AR2.[FV]')


def small_trace(seed=0, frames=40, persons=2, cars=1):
    objects = []
    for i in range(persons):
        objects.append(ObjectSpec(i, "person", (i * 10.0, 0, 4, 8), (1, 0),
                                  base_fv=tuple(1.0 if d == i else 0.0 for d in range(8)),
                                  intervals=((0, frames),)))
    for i in range(persons, persons + cars):
        objects.append(ObjectSpec(i, "car", (i * 10.0, 50, 9, 5), (0, 1),
                                  base_fv=tuple(1.0 if d == i else 0.0 for d in range(8)),
                                  intervals=((0, frames),)))
    return generate(SynthSpec(frames=frames, fps=30, fv_dim=8, objects=tuple(objects)), seed)


def test_q2_pipeline_has_one_stage_per_node():
    pipeline = instantiate(plan(parse(Q2), ONE))
    assert len(pipeline.stages) == 5
    kinds = [s.name.split("[")[0].split("#")[0] for s in pipeline.stages]
    assert kinds == ["source", "window", "select", "r2a", "aggregate"]


def test_q3_pipeline_two_sources_one_join():
    pipeline = instantiate(plan(parse(Q3), TWO))
    names = [s.name for s in pipeline.stages]
    assert sum(1 for n in names if n.startswith("source")) == 2
    assert sum(1 for n in names if n.startswith("join")) == 1


def test_bad_feed_rates_are_config_errors():
    with pytest.raises(ConfigError) as exc:
        EngineConfig(rates={"R1": -1.0})
    assert exc.value.code == "CONFIG_ERROR"
    with pytest.raises(ConfigError):
        EngineConfig(default_rate=float("inf"))
    with pytest.raises(ConfigError):  # one source in two casings
        EngineConfig(rates={"R1": 1.0, "r1": 2.0})


def test_single_window_count_result():
    trace = small_trace()
    rows, _ = instantiate(plan(parse(Q2), ONE)).run([trace])
    assert rows == [{"window": 0, "count": 2}]


def test_windowed_counts_per_window():
    # window size 0.5s over 40 frames at 30 fps: ceil(40/15) windows
    text = Q2 + " WINDOW(TIME, 0.5, 0.5)"
    q = parse(text)
    trace = small_trace()
    rows, _ = instantiate(plan(q, ONE)).run([trace])
    assert [r["window"] for r in rows] == [0, 1, 2]
    assert all(r["count"] == 2 for r in rows)


def untimed(st) -> dict:
    """Stats as a dict with timing values removed; window_wall keeps its keys."""
    d = st.to_dict()
    del d["total_wall_seconds"]
    for stage in d["stages"]:
        del stage["wall_seconds"]
        stage["window_wall"] = sorted(stage["window_wall"])
    return d


def test_determinism_across_rates_and_quanta():
    # a source's ranges follow its feed clock: one range unthrottled, and
    # about one row per range throttled, since the engine keeps up with the feed
    trace = small_trace()
    p = plan(parse(Q2 + " WINDOW(TIME, 0.5, 0.25)"), ONE)
    outputs = []
    for rate in (0.0, 400.0, 2000.0):
        rows, st = instantiate(p, EngineConfig(default_rate=rate)).run([trace])
        outputs.append(("\n".join(row_to_json(r) for r in rows), untimed(st)))
    assert all(out == outputs[0] for out in outputs)
    assert outputs[0][1]["stages"][-1]["window_wall"] == ["0", "1", "2", "3", "4", "5"]


def test_probe_select_determinism_across_quanta():
    # a tuple-windowed OR of two probes: the second probe scores only the
    # rows the first one rejected, per window, whatever the batching
    trace = small_trace()
    e0, e2 = ([1.0 if d == i else 0.0 for d in range(8)] for i in (0, 2))
    p = plan(parse(f"SELECT fid, oid FROM R1 WHERE [FV] SMATCH(0.9) {e0} "
                   f"OR [FV] SMATCH(0.9) {e2} WINDOW(TUPLE, 25, 25)"), ONE)
    outputs = []
    for rate in (0.0, 2000.0):
        rows, st = instantiate(p, EngineConfig(default_rate=rate)).run([trace])
        outputs.append(("\n".join(row_to_json(r) for r in rows), untimed(st)))
    assert all(out == outputs[0] for out in outputs)
    select = next(s for s in outputs[0][1]["stages"] if s["name"] == "select")
    # 120 rows meet the first probe, the 80 it rejects meet the second
    assert (select["tuples_in"], select["tuples_out"]) == (120, 80)
    assert select["smatch_comparisons"] == 200


def test_join_determinism_across_configs():
    left, right = small_trace(1), small_trace(2)
    empty = Relation.from_rows(TRACE_SCHEMA, ())
    p = plan(parse(Q3 + " WINDOW(TIME, 0.5, 0.5)"), TWO)
    for traces in ([left, right], [empty, right], [left, empty]):
        outputs = []
        for rate in (0.0, 2000.0):
            rows, st = instantiate(p, EngineConfig(default_rate=rate)).run(traces)
            outputs.append(("\n".join(row_to_json(r) for r in rows), untimed(st)))
        assert all(out == outputs[0] for out in outputs)
        join = next(s for s in outputs[0][1]["stages"] if s["name"] == "join")
        # a side with fewer windows pairs the rest with empty windows
        assert join["window_wall"] == ["0", "1", "2"]
        assert (join["tuples_out"] > 0) == (empty not in traces)


def test_not_over_a_differently_cased_column_matches_the_oracle():
    # the planner resolves the columns inside NOT (FID, [Fv]) to the schema's names
    trace = small_trace()
    e0 = [1.0 if d == 0 else 0.0 for d in range(8)]
    p = plan(parse(f"SELECT fid, oid FROM R1 WHERE NOT (FID < 5 OR [Fv] SMATCH(0.9) {e0})"),
             ONE)
    rows, st = instantiate(p).run([trace])
    tree = ("not", ("or", [("cmp", "fid", "<", 5),
                           ("probe", "fv", "cosine", "similarity_at_least", 0.9, e0)]))
    records = list(trace.rows)
    kept, evaluations = select_oracle(
        [{"fid": r["fid"], "fv": r["fv"].as_list()} for r in records], tree)
    assert rows == [{"window": 0, "fid": records[i]["fid"], "oid": records[i]["oid"]}
                    for i in kept]
    assert st.of_kind("select")[0].smatch_comparisons == evaluations > 0


def test_empty_source_join_terminates_cleanly():
    empty = Relation.from_rows(TRACE_SCHEMA, ())
    rows, st = instantiate(plan(parse(Q3), TWO)).run([small_trace(), empty])
    assert rows == []
    assert st.of_kind("join")[0].smatch_comparisons == 0


def test_counters_zero_before_any_input():
    pipeline = instantiate(plan(parse(Q2), ONE))
    st = pipeline.stats()
    assert all(s.tuples_in == 0 and s.smatch_comparisons == 0 for s in st.stages)


def test_source_tuples_in_equals_trace_size():
    trace = small_trace()
    _, st = instantiate(plan(parse(Q2), ONE)).run([trace])
    assert st.of_kind("source")[0].tuples_in == len(trace.rows)


def test_cjoin_comparisons_bounded_by_regular_join():
    left, right = small_trace(1), small_trace(2)
    nl_text = Q3.replace("CJOIN", "JOIN")
    _, st_nl = instantiate(plan(parse(nl_text), TWO)).run([left, right])
    _, st_cj = instantiate(plan(parse(Q3), TWO)).run([left, right])
    nl_count = st_nl.of_kind("join")[0].smatch_comparisons
    cj_count = st_cj.of_kind("join")[0].smatch_comparisons
    assert 0 < cj_count <= nl_count


def test_pipeline_is_single_use():
    trace = small_trace()
    pipeline = instantiate(plan(parse(Q2), ONE))
    pipeline.run([trace])
    with pytest.raises(ConfigError):
        pipeline.run([trace])


def test_source_count_mismatch_rejected():
    with pytest.raises(SchemaMismatch):
        instantiate(plan(parse(Q3), TWO)).run([small_trace()])


def test_a_rate_must_name_a_source_of_the_query():
    qplan = plan(parse("SELECT count(*) FROM r1"), ONE)
    assert instantiate(qplan, EngineConfig(rates={"R1": 5.0})).config.rate_for("r1") == 5.0
    with pytest.raises(ConfigError) as exc:
        instantiate(qplan, EngineConfig(rates={"R1": 5.0, "R7": 5.0}))
    assert exc.value.code == "CONFIG_ERROR" and "'R7'" in str(exc.value)


def test_engine_config_from_key_value_file(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text("rate=100\nrate.R2=50\n")
    with pytest.raises(ConfigError) as exc:  # engine configs are JSON only
        EngineConfig.from_file(path)
    assert exc.value.code == "CONFIG_ERROR" and "JSON" in str(exc.value)
    path.write_text('{"queue_capacity": 64, "quantum": 8, "watchdog_seconds": 2.5, '
                    '"rate": 100, "rates": {"R2": 50}}')
    cfg = EngineConfig.from_file(path)  # keys of earlier engines are ignored
    assert cfg == EngineConfig({"R2": 50.0}, 100.0)
    assert cfg.rate_for("R1") == 100.0
    assert cfg.rate_for("R2") == 50.0
    assert cfg.rate_for("r2") == 50.0


def test_engine_config_from_json_file(tmp_path):
    path = tmp_path / "engine.json"
    path.write_text('{"queue_capacity": 32, "rates": {"R1": 10}}')
    cfg = EngineConfig.from_file(path)
    assert cfg.rate_for("R1") == 10.0
    assert cfg.rate_for("r1") == 10.0  # source names match in any casing
    assert cfg.rate_for("R9") == 0.0


def test_throttled_run_matches_unthrottled(two=None):
    trace = small_trace(frames=20, persons=1, cars=0)
    p = plan(parse("SELECT count(*) FROM (SELECT AR1.oid FROM "
                   "(R2A(R1, R1.oid, R1.fid)) AR1)"), ONE)
    fast, _ = instantiate(p).run([trace])
    slow, _ = instantiate(p, EngineConfig(default_rate=200.0)).run([trace])
    assert fast == slow == [{"window": 0, "count": 1}]


def test_source_ranges_follow_the_feed_clock(monkeypatch):
    # unthrottled, a source yields its whole trace as one range; throttled, the
    # rows that are due, never an empty range
    sizes = []
    add = WindowManager.add
    monkeypatch.setattr(WindowManager, "add",
                        lambda manager, keys: add(manager, keys) or sizes.append(len(keys)))
    trace = small_trace()
    p = plan(parse(Q2 + " WINDOW(TUPLE, 25, 25)"), ONE)
    instantiate(p).run([trace])
    assert sizes == [len(trace)]
    sizes.clear()
    instantiate(p, EngineConfig(default_rate=400.0)).run([trace])
    assert sum(sizes) == len(trace) and min(sizes) > 0 and len(sizes) > 1


def test_throttled_join_inputs_are_fed_at_the_same_time():
    # 120 rows per side at 400 rows/s: 0.3 s when both sources count from
    # one start, 0.6 s if the right side began only after the left ended
    left, right = small_trace(1), small_trace(2)
    cfg = EngineConfig(default_rate=400.0)
    started = time.monotonic()
    rows, _ = instantiate(plan(parse(Q3), TWO), cfg).run([left, right])
    elapsed = time.monotonic() - started
    assert 0.3 <= elapsed < 0.5
    assert rows == instantiate(plan(parse(Q3), TWO)).run([left, right])[0]


def test_cct_runs_never_span_window_boundaries():
    # one object visible continuously; windowing must split its run, so each
    # window contributes its own compressed appearance
    trace = small_trace(frames=30, persons=1, cars=0)
    text = ('SELECT count(oid) FROM (CCT(R2A(R1, R1.oid, R1.fid), first)) AR1 '
            'WINDOW(TIME, 0.5, 0.5)')
    rows, _ = instantiate(plan(parse(text), ONE)).run([trace])
    assert [r["window"] for r in rows] == [0, 1]
    assert all(r["count(oid)"] == 1 for r in rows)


def test_single_underfilled_time_window():
    # a 120s disjoint window over a ~1.3s trace flushes as one complete window
    trace = small_trace()
    text = Q2 + " WINDOW(TIME, 120, 120)"
    rows, _ = instantiate(plan(parse(text), ONE)).run([trace])
    assert rows == [{"window": 0, "count": 2}]


def test_count_oid_counts_objects_count_fid_counts_visits():
    # one person seen twice in one window: CCT keeps one frame per visit
    trace = generate(SynthSpec(frames=30, fps=30, fv_dim=4, objects=(
        ObjectSpec(1, "person", (0, 0, 4, 8), (1, 0), intervals=((0, 10), (20, 30))),)), 0)
    counts = {}
    for column in ("oid", "fid"):
        text = f"SELECT count({column}) FROM (CCT(R2A(R1, R1.oid, R1.fid), first)) AR1"
        rows, _ = instantiate(plan(parse(text), ONE)).run([trace])
        counts[column] = rows[0][f"count({column})"]
    assert counts == {"oid": 1, "fid": 2}


def _visits(*objects):
    """A trace of (oid, fv, (lo, hi) visit) objects moving east at 30 fps."""
    return generate(SynthSpec(frames=240, fps=30, fv_dim=4, objects=tuple(
        ObjectSpec(oid, "person", (0, 0, 4, 8), (1, 0), base_fv=fv, intervals=(visit,))
        for oid, fv, visit in objects)), 0)


def test_cct_gap_from_query_text_runs_like_the_operator():
    trace = generate(SynthSpec(frames=60, fps=30, fv_dim=4, objects=(
        ObjectSpec(1, "person", (0, 0, 4, 8), (1, 0),
                   intervals=((0, 10), (15, 20), (30, 40), (50, 60))),)), 0)
    qplan = plan(parse("SELECT * FROM CCT(R2A(R1, R1.oid, R1.fid), FIRST, 6)"), ONE)
    assert isinstance(qplan.root, CctNode) and qplan.root.gap_threshold == 6
    rows, _ = instantiate(qplan).run([trace])
    expected = cct(r2a(trace, "oid", "fid"), CctOption.FIRST, gap_threshold=6)
    assert [r["fid"] for r in rows] == [0, 30, 50]
    assert rows == [{"window": 0, **r} for r in expected.flatten()]


@pytest.mark.parametrize("op", ["=", "!="])
def test_direction_compares_by_name(op):
    trace = small_trace(persons=2, cars=1)  # persons move E, the car N
    inner = "SELECT AR1.oid, DIRECTION(AR1.bb) FROM R2A(R1, R1.oid, R1.fid) AR1"
    everything, _ = instantiate(plan(parse(f"SELECT * FROM ({inner}) X"), ONE)).run([trace])
    text = f'SELECT * FROM ({inner}) X WHERE X.direction {op} "E"'
    rows, _ = instantiate(plan(parse(text), ONE)).run([trace])
    expected = [r for r in everything if (r["direction"].value == "E") == (op == "=")]
    assert expected and len(expected) < len(everything)
    assert rows == expected


@pytest.mark.parametrize("swap", [False, True])
def test_joined_time_windows_share_one_time_axis(swap):
    # R1 sees oid 1 at 0 s and oid 2 at 10 s, R2 oid 7 at 10 s only: one
    # origin for both inputs puts oids 2 and 7 in window 5, [10 s, 12 s)
    def camera(*visits):
        return generate(SynthSpec(frames=330, fps=30, fv_dim=4, objects=tuple(
            ObjectSpec(oid, "person", (0, 0, 4, 8), (1, 0), base_fv=(1, 0, 0, 0),
                       intervals=(visit,)) for oid, visit in visits)), 0)

    traces = [camera((1, (0, 30)), (2, (300, 330))), camera((7, (300, 330)))]
    text = ("SELECT A.oid, B.oid FROM (R2A(R1, R1.oid, R1.fid)) A JOIN "
            "(R2A(R2, R2.oid, R2.fid)) B ON A.fv SMATCH(0.9) B.fv WINDOW(TIME, 2, 2)")
    rows, _ = instantiate(plan(parse(text), TWO)).run(traces[::-1] if swap else traces)
    oids = (7, 2) if swap else (2, 7)
    assert rows == [{"window": 5, "A.oid": oids[0], "B.oid": oids[1]}]


JOIN_TRACES = (
    # R1: oid 1 early, oid 2 late; R2: oid 7 like oid 1 but late, oid 8 like oid 2 but early
    ((1, (1, 0, 0, 0), (0, 30)), (2, (0, 1, 0, 0), (200, 230))),
    ((7, (1, 0, 0, 0), (150, 180)), (8, (0, 1, 0, 0), (0, 30))),
)


@pytest.mark.parametrize("kind, join", [("JOIN", nl_join), ("CJOIN", cjoin)])
@pytest.mark.parametrize("extra", ["AR1.ts + 5 <= AR2.ts", "AR2.ts - 5 >= AR1.ts"])
def test_join_extra_from_query_text_matches_the_operator(monkeypatch, kind, join, extra):
    left, right = (_visits(*objects) for objects in JOIN_TRACES)
    text = (f"SELECT * FROM (R2A(R1, R1.oid, R1.fid)) AR1 {kind} (R2A(R2, R2.oid, R2.fid)) AR2 "
            f"ON AR1.[FV] sMatch(0.9) AR2.[FV] AND {extra}")
    qplan = plan(parse(text), TWO)
    predicate = ScalarPairPredicate("ts", "<=", "ts", 5.0)
    assert qplan.root.extras == (predicate,)
    made = []

    def recording(*args, **kwargs):
        made.append(join(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(engine, join.__name__, recording)
    rows, st = instantiate(qplan).run([left, right])
    counter = ComparisonCounter()
    pairs = join(r2a(left, "oid", "fid"), r2a(right, "oid", "fid"), MatchCondition(th=0.9),
                 ("fv", "fv"), (predicate,), counter)
    assert [p.key() for p in pairs] == [(1, 7)]  # (2, 8) matches only without the extra
    assert made == [pairs]
    assert rows == [{"window": 0, "AR1.oid": p.left_oid, "AR2.oid": p.right_oid,
                     "score": p.score} for p in pairs]
    assert st.of_kind("join")[0].smatch_comparisons == counter.count


@pytest.mark.parametrize("empty_side", [None, 0, 1])
def test_equi_join_from_query_text_matches_the_operator(empty_side):
    traces = [small_trace(1), small_trace(2, persons=1)]
    if empty_side is not None:
        traces[empty_side] = Relation.from_rows(TRACE_SCHEMA, ())
    text = "SELECT * FROM R1 JOIN R2 ON R1.oid = R2.oid"
    rows, _ = instantiate(plan(parse(text), TWO)).run(traces)
    expected = hash_equi_join(*traces, "oid", "oid", ("R1", "R2")).row_dicts()
    assert rows == [{"window": 0, **r} for r in expected]
    assert bool(rows) == (empty_side is None)


def test_key_only_arrable_projection_gives_one_row_per_object():
    trace = small_trace(persons=2, cars=1)
    text = "SELECT AR1.oid FROM (R2A(R1, R1.oid, R1.fid)) AR1"
    rows, _ = instantiate(plan(parse(text), ONE)).run([trace])
    assert rows == [{"window": 0, "oid": oid} for oid in (0, 1, 2)]


@pytest.mark.parametrize("text, sources", [
    ("SELECT * FROM R1", 1),
    ("SELECT AR1.oid, DIRECTION(AR1.bb) FROM (R2A(R1, R1.oid, R1.fid)) AR1", 1),
    ("SELECT avg(ts) FROM R1 WINDOW(TIME, 1, 1)", 1),
    ("SELECT * FROM (R2A(R1, R1.oid, R1.fid)) AR1 JOIN (R2A(R2, R2.oid, R2.fid)) AR2 "
     "ON AR1.[FV] sMatch(0.9) AR2.[FV]", 2),
])
def test_written_results_read_back_as_the_rows(tmp_path, text, sources):
    traces = [_visits(*objects) for objects in JOIN_TRACES][:sources]
    rows, _ = instantiate(plan(parse(text), TWO)).run(traces)
    path = tmp_path / "results.jsonl"
    write_results(rows, path)
    read = [json.loads(line) for line in path.read_text().splitlines()]

    def plain(value):
        if isinstance(value, Direction8):
            return value.value
        return value.as_list() if isinstance(value, (BoundingBox, FeatureVector)) else value

    assert rows and read == [{k: plain(v) for k, v in row.items()} for row in rows]
    if "avg" in text:  # the windows between the two visits are empty
        assert None in [row["avg(ts)"] for row in read]
