import pytest

from vaquery.engine import (EngineConfig, FeederConfig, Pipeline, instantiate,
                            row_to_json)
from vaquery.errors import ConfigError, QueueStall, SchemaMismatch
from vaquery.ingest import ObjectSpec, SynthSpec, generate
from vaquery.model import Relation, TRACE_SCHEMA
from vaquery.querylang import parse, plan

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


def test_zero_queue_capacity_is_a_config_error():
    with pytest.raises(ConfigError) as exc:
        EngineConfig(queue_capacity=0)
    assert exc.value.code == "CONFIG_ERROR"
    with pytest.raises(ConfigError):
        EngineConfig(quantum=0)
    with pytest.raises(ConfigError):
        FeederConfig(rate=-1)


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
    trace = small_trace()
    p = plan(parse(Q2 + " WINDOW(TIME, 0.5, 0.25)"), ONE)
    outputs = []
    for rate in (0.0, 400.0):
        for quantum in (1, 256):
            cfg = EngineConfig(quantum=quantum, default_rate=rate)
            rows, st = instantiate(p, cfg).run([trace])
            outputs.append(("\n".join(row_to_json(r) for r in rows), untimed(st)))
    assert all(out == outputs[0] for out in outputs)
    assert outputs[0][1]["stages"][-1]["window_wall"] == ["0", "1", "2", "3", "4", "5"]


def test_join_determinism_across_configs():
    left, right = small_trace(1), small_trace(2)
    empty = Relation(TRACE_SCHEMA, ())
    p = plan(parse(Q3 + " WINDOW(TIME, 0.5, 0.5)"), TWO)
    for traces in ([left, right], [empty, right], [left, empty]):
        outputs = []
        for quantum in (1, 64):
            for capacity in (1, 4, 1024):
                cfg = EngineConfig(queue_capacity=capacity, quantum=quantum)
                rows, st = instantiate(p, cfg).run(traces)
                outputs.append(("\n".join(row_to_json(r) for r in rows), untimed(st)))
        assert all(out == outputs[0] for out in outputs)
        join = next(s for s in outputs[0][1]["stages"] if s["name"] == "join")
        # a side with fewer windows pairs the rest with empty windows
        assert join["window_wall"] == ["0", "1", "2"]
        assert (join["tuples_out"] > 0) == (empty not in traces)


def test_empty_source_join_terminates_cleanly():
    empty = Relation(TRACE_SCHEMA, ())
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


def test_queue_stall_watchdog(monkeypatch):
    trace = small_trace()
    cfg = EngineConfig(watchdog_seconds=0.05)
    pipeline = instantiate(plan(parse(Q2), ONE), cfg)
    stuck = pipeline.stages[2]
    monkeypatch.setattr(stuck, "step", lambda quantum: 0)
    with pytest.raises(QueueStall) as exc:
        pipeline.run([trace])
    assert exc.value.code == "QUEUE_STALL"


def test_engine_config_from_key_value_file(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text("# engine settings\nqueue_capacity=64\nquantum=8\n"
                    "watchdog_seconds=2.5\nrate=100\nrate.R2=50\n")
    cfg = EngineConfig.from_file(path)
    assert cfg.queue_capacity == 64 and cfg.quantum == 8
    assert cfg.watchdog_seconds == 2.5
    assert cfg.rate_for("R1") == 100.0
    assert cfg.rate_for("R2") == 50.0


def test_engine_config_from_json_file(tmp_path):
    path = tmp_path / "engine.json"
    path.write_text('{"queue_capacity": 32, "rates": {"R1": 10}}')
    cfg = EngineConfig.from_file(path)
    assert cfg.queue_capacity == 32
    assert cfg.rate_for("R1") == 10.0
    assert cfg.rate_for("R9") == 0.0


def test_throttled_run_matches_unthrottled(two=None):
    trace = small_trace(frames=20, persons=1, cars=0)
    p = plan(parse("SELECT count(*) FROM (SELECT AR1.oid FROM "
                   "(R2A(R1, R1.oid, R1.fid)) AR1)"), ONE)
    fast, _ = instantiate(p).run([trace])
    slow, _ = instantiate(p, EngineConfig(default_rate=200.0)).run([trace])
    assert fast == slow == [{"window": 0, "count": 1}]


def test_cct_runs_never_span_window_boundaries():
    # one object visible continuously; windowing must split its run, so each
    # window contributes its own compressed appearance
    trace = small_trace(frames=30, persons=1, cars=0)
    text = ('SELECT count(oid) FROM (CCT(R2A(R1, R1.oid, R1.fid), first)) AR1 '
            'WINDOW(TIME, 0.5, 0.5)')
    rows, _ = instantiate(plan(parse(text), ONE)).run([trace])
    assert [r["window"] for r in rows] == [0, 1]
    assert all(r["count(oid)"] == 1 for r in rows)


def test_slow_feed_does_not_trip_watchdog():
    # the gap between throttled tuples exceeds the watchdog bound; waiting on
    # the rate limiter must not count as a stall
    trace = small_trace(frames=5, persons=1, cars=0)
    cfg = EngineConfig(default_rate=200.0, watchdog_seconds=0.004)
    rows, _ = instantiate(plan(parse(Q2), ONE), cfg).run([trace])
    assert rows == [{"window": 0, "count": 1}]


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
