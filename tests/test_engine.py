import json
import threading
import time

import pytest

from conftest import pair_keys, relation_of, trace_relation
from goldens import untimed
from oracles import select_oracle
from vaquery import engine
from vaquery.engine import (EngineConfig, Pipeline, StageStats, instantiate, row_to_json,
                            write_results)
from vaquery.errors import ConfigError, SchemaMismatch
from vaquery.ingest import ObjectSpec, SynthSpec, generate
from vaquery.operators import (CctOption, Direction8, ScalarPairPredicate,
                               cct, cct_join, cjoin, hash_equi_join, nl_join, r2a)
from vaquery.querylang import CctNode, parse, plan
from vaquery.similarity import MatchCondition
from vaquery.windows import WindowManager


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
    pipeline = instantiate(plan(parse(Q2)))
    assert len(pipeline.stages) == 5
    kinds = [s.name.split("[")[0].split("#")[0] for s in pipeline.stages]
    assert kinds == ["source", "window", "select", "r2a", "aggregate"]


def test_q3_pipeline_two_sources_one_join():
    pipeline = instantiate(plan(parse(Q3)))
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


def test_the_smallest_feed_rate_makes_its_first_row_due_within_the_longest_sleep():
    # built, never run: at this rate the first row falls due after ~292 years
    bound = 1 / threading.TIMEOUT_MAX
    assert EngineConfig(default_rate=bound).rate_for("R1") == bound
    assert EngineConfig(rates={"R1": bound}).rate_for("r1") == bound
    for past in (bound / 2, 1e-300, 5e-324):
        with pytest.raises(ConfigError, match="too small"):
            EngineConfig(default_rate=past)
        with pytest.raises(ConfigError, match="too small"):
            EngineConfig(rates={"R1": past})


def test_single_window_count_result():
    trace = small_trace()
    rows, _ = instantiate(plan(parse(Q2))).run([trace])
    assert rows == [{"window": 0, "count": 2}]


def test_windowed_counts_per_window():
    # window size 0.5s over 40 frames at 30 fps: ceil(40/15) windows
    text = Q2 + " WINDOW(TIME, 0.5, 0.5)"
    q = parse(text)
    trace = small_trace()
    rows, _ = instantiate(plan(q)).run([trace])
    assert [r["window"] for r in rows] == [0, 1, 2]
    assert all(r["count"] == 2 for r in rows)


def test_determinism_across_rates_and_quanta():
    # a source's ranges follow its feed clock: one range unthrottled, and
    # about one row per range throttled, since the engine keeps up with the feed
    trace = small_trace()
    p = plan(parse(Q2 + " WINDOW(TIME, 0.5, 0.25)"))
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
                   f"OR [FV] SMATCH(0.9) {e2} WINDOW(TUPLE, 25, 25)"))
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
    empty = relation_of([])
    p = plan(parse(Q3 + " WINDOW(TIME, 0.5, 0.5)"))
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
    p = plan(parse(f"SELECT fid, oid FROM R1 WHERE NOT (FID < 5 OR [Fv] SMATCH(0.9) {e0})"))
    rows, st = instantiate(p).run([trace])
    tree = ("not", ("or", [("cmp", "fid", "<", 5),
                           ("probe", "fv", "cosine", "similarity_at_least", 0.9, e0)]))
    records = trace.row_dicts()
    kept, evaluations = select_oracle(
        [{"fid": r["fid"], "fv": r["fv"]} for r in records], tree)
    assert rows == [{"window": 0, "fid": records[i]["fid"], "oid": records[i]["oid"]}
                    for i in kept]
    assert st.of_kind("select")[0].smatch_comparisons == evaluations > 0


def test_empty_source_join_terminates_cleanly():
    empty = relation_of([])
    rows, st = instantiate(plan(parse(Q3))).run([small_trace(), empty])
    assert rows == []
    assert st.of_kind("join")[0].smatch_comparisons == 0


def test_counters_zero_before_any_input():
    pipeline = instantiate(plan(parse(Q2)))
    st = pipeline.stats()
    assert all(s.tuples_in == 0 and s.smatch_comparisons == 0 for s in st.stages)


def test_source_tuples_in_equals_trace_size():
    trace = small_trace()
    _, st = instantiate(plan(parse(Q2))).run([trace])
    assert st.of_kind("source")[0].tuples_in == len(trace)


def test_cjoin_comparisons_bounded_by_regular_join():
    left, right = small_trace(1), small_trace(2)
    nl_text = Q3.replace("CJOIN", "JOIN")
    _, st_nl = instantiate(plan(parse(nl_text))).run([left, right])
    _, st_cj = instantiate(plan(parse(Q3))).run([left, right])
    nl_count = st_nl.of_kind("join")[0].smatch_comparisons
    cj_count = st_cj.of_kind("join")[0].smatch_comparisons
    assert 0 < cj_count <= nl_count


def test_pipeline_is_single_use():
    trace = small_trace()
    pipeline = instantiate(plan(parse(Q2)))
    pipeline.run([trace])
    with pytest.raises(ConfigError):
        pipeline.run([trace])


def test_source_count_mismatch_rejected():
    with pytest.raises(SchemaMismatch):
        instantiate(plan(parse(Q3))).run([small_trace()])


def test_a_rate_must_name_a_source_of_the_query():
    qplan = plan(parse("SELECT count(*) FROM r1"))
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
                   "(R2A(R1, R1.oid, R1.fid)) AR1)"))
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
    p = plan(parse(Q2 + " WINDOW(TUPLE, 25, 25)"))
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
    rows, _ = instantiate(plan(parse(Q3)), cfg).run([left, right])
    elapsed = time.monotonic() - started
    assert 0.3 <= elapsed < 0.5
    assert rows == instantiate(plan(parse(Q3))).run([left, right])[0]


def test_cct_runs_never_span_window_boundaries():
    # one object visible continuously; windowing must split its run, so each
    # window contributes its own compressed appearance
    trace = small_trace(frames=30, persons=1, cars=0)
    text = ('SELECT count(oid) FROM (CCT(R2A(R1, R1.oid, R1.fid), first)) AR1 '
            'WINDOW(TIME, 0.5, 0.5)')
    rows, _ = instantiate(plan(parse(text))).run([trace])
    assert [r["window"] for r in rows] == [0, 1]
    assert all(r["count(oid)"] == 1 for r in rows)


def test_single_underfilled_time_window():
    # a 120s disjoint window over a ~1.3s trace flushes as one complete window
    trace = small_trace()
    text = Q2 + " WINDOW(TIME, 120, 120)"
    rows, _ = instantiate(plan(parse(text))).run([trace])
    assert rows == [{"window": 0, "count": 2}]


def test_count_oid_counts_objects_count_fid_counts_visits():
    # one person seen twice in one window: CCT keeps one frame per visit
    trace = generate(SynthSpec(frames=30, fps=30, fv_dim=4, objects=(
        ObjectSpec(1, "person", (0, 0, 4, 8), (1, 0), intervals=((0, 10), (20, 30))),)), 0)
    counts = {}
    for column in ("oid", "fid"):
        text = f"SELECT count({column}) FROM (CCT(R2A(R1, R1.oid, R1.fid), first)) AR1"
        rows, _ = instantiate(plan(parse(text))).run([trace])
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
    qplan = plan(parse("SELECT * FROM CCT(R2A(R1, R1.oid, R1.fid), FIRST, 6)"))
    assert isinstance(qplan.root, CctNode) and qplan.root.gap_threshold == 6
    rows, _ = instantiate(qplan).run([trace])
    expected = cct(r2a(trace, "oid", "fid"), CctOption.FIRST, gap_threshold=6)
    assert [r["fid"] for r in rows] == [0, 30, 50]
    assert rows == [{"window": 0, **r} for r in expected.flatten()]


@pytest.mark.parametrize("op", ["=", "!="])
def test_direction_compares_by_name(op):
    trace = small_trace(persons=2, cars=1)  # persons move E, the car N
    inner = "SELECT AR1.oid, DIRECTION(AR1.bb) FROM R2A(R1, R1.oid, R1.fid) AR1"
    everything, _ = instantiate(plan(parse(f"SELECT * FROM ({inner}) X"))).run([trace])
    text = f'SELECT * FROM ({inner}) X WHERE X.direction {op} "E"'
    rows, _ = instantiate(plan(parse(text))).run([trace])
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
    rows, _ = instantiate(plan(parse(text))).run(traces[::-1] if swap else traces)
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
    qplan = plan(parse(text))
    predicate = ScalarPairPredicate("ts", "<=", "ts", 5.0)
    assert qplan.root.extras == (predicate,)
    made = []

    def recording(*args, **kwargs):
        made.append(join(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(engine, join.__name__, recording)
    rows, st = instantiate(qplan).run([left, right])
    counter = StageStats("test")
    pairs = join(r2a(left, "oid", "fid"), r2a(right, "oid", "fid"), MatchCondition(th=0.9),
                 ("fv", "fv"), (predicate,), counter)
    assert pair_keys(pairs) == [(1, 7)]  # (2, 8) matches only without the extra
    assert [[c.tolist() for c in m] for m in made] == [[c.tolist() for c in pairs]]
    assert rows == [{"window": 0, "AR1.oid": lk, "AR2.oid": rk, "score": score}
                    for lk, rk, score in zip(*(pairs[i].tolist() for i in (0, 1, 4)))]
    assert st.of_kind("join")[0].smatch_comparisons == counter.smatch_comparisons


def test_cctjoin_is_planned_and_run_as_a_join_over_cct_both():
    left, right = (_visits(*objects) for objects in JOIN_TRACES)
    on = "ON AR1.[FV] sMatch(0.9) AR2.[FV]"
    cctjoin = plan(parse(f"SELECT * FROM (R2A(R1, R1.oid, R1.fid)) AR1 CCTJOIN "
                         f"(R2A(R2, R2.oid, R2.fid)) AR2 {on}"))
    explicit = plan(parse(f"SELECT * FROM CCT(R2A(R1, R1.oid, R1.fid), BOTH) AR1 JOIN "
                          f"CCT(R2A(R2, R2.oid, R2.fid), BOTH) AR2 {on}"))
    join = cctjoin.root
    assert join.kind == "JOIN"
    assert [(type(side), side.option, side.gap_threshold) for side in join.children] == \
        [(CctNode, CctOption.BOTH, 1)] * 2
    assert cctjoin == explicit
    counter = StageStats("test")
    pairs = cct_join(r2a(left, "oid", "fid"), r2a(right, "oid", "fid"), MatchCondition(th=0.9),
                     counter=counter)
    assert pair_keys(pairs) == [(1, 7), (2, 8)]
    for qplan in (cctjoin, explicit):
        rows, st = instantiate(qplan).run([left, right])
        assert rows == [{"window": 0, "AR1.oid": lk, "AR2.oid": rk, "score": score}
                        for lk, rk, score in zip(*(pairs[i].tolist() for i in (0, 1, 4)))]
        assert st.total_smatch_comparisons == counter.smatch_comparisons == 2 * 2 * 2 * 2
        assert sorted(s.name for s in st.of_kind("cct")) == ["cct", "cct#2"]


@pytest.mark.parametrize("empty_side", [None, 0, 1])
def test_equi_join_from_query_text_matches_the_operator(empty_side):
    traces = [small_trace(1), small_trace(2, persons=1)]
    if empty_side is not None:
        traces[empty_side] = relation_of([])
    text = "SELECT * FROM R1 JOIN R2 ON R1.oid = R2.oid"
    rows, _ = instantiate(plan(parse(text))).run(traces)
    expected = hash_equi_join(*traces, "oid", "oid", ("R1", "R2")).row_dicts()
    assert rows == [{"window": 0, **r} for r in expected]
    assert bool(rows) == (empty_side is None)


def test_key_only_arrable_projection_gives_one_row_per_object():
    trace = small_trace(persons=2, cars=1)
    text = "SELECT AR1.oid FROM (R2A(R1, R1.oid, R1.fid)) AR1"
    rows, _ = instantiate(plan(parse(text))).run([trace])
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
    rows, _ = instantiate(plan(parse(text))).run(traces)
    path = tmp_path / "results.jsonl"
    write_results(rows, path)
    read = [json.loads(line) for line in path.read_text().splitlines()]

    def plain(value):
        return value.value if isinstance(value, Direction8) else value

    assert rows and read == [{k: plain(v) for k, v in row.items()} for row in rows]
    if "avg" in text:  # the windows between the two visits are empty
        assert None in [row["avg(ts)"] for row in read]


def _seconds(oid, dim, seconds):
    """Rows of one object at 10 fps, one per frame of the given whole seconds, its
    feature vector the ``dim``-th unit vector of 4."""
    fv = tuple(1.0 if d == dim else 0.0 for d in range(4))
    return [(f, oid, "person", (0, 0, 1, 1), fv) for s in seconds for f in range(10 * s, 10 * s + 10)]


# camera 1: object 1 in second 0, object 2 in second 3; camera 2: objects 11 and
# 12, each like one of them, both in second 3
CAMERAS = (trace_relation(_seconds(1, 0, [0]) + _seconds(2, 1, [3]), fps=10),
           trace_relation(_seconds(11, 0, [3]) + _seconds(12, 1, [3]), fps=10))
SIDES = ("(R2A(R1, R1.oid, R1.fid)) A", "(R2A(R2, R2.oid, R2.fid)) B")


@pytest.mark.parametrize("left, right, clause", [
    (*SIDES, " WINDOW(TIME, 1, 1)"),
    (f"(SELECT * FROM {SIDES[0]} WINDOW(TIME, 1, 1)) A", SIDES[1], ""),
    (SIDES[0], f"(SELECT * FROM {SIDES[1]} WINDOW(TIME, 1, 1)) B", ""),
], ids=["outer", "left-subquery", "right-subquery"])
def test_one_window_clause_cuts_both_sides_of_a_join(left, right, clause):
    # objects 1 and 11 never share a second; 2 and 12 share second 3
    text = f"SELECT * FROM {left} CJOIN {right} ON A.fv SMATCH(0.9) B.fv{clause}"
    rows, _ = instantiate(plan(parse(text))).run(CAMERAS)
    assert [(r["window"], r["A.oid"], r["B.oid"]) for r in rows] == [(3, 2, 12)]


@pytest.mark.parametrize("seconds, windows", [([2], [1, 2]), ([0], [0, 1])],
                         ids=["starts-late", "ends-early"])
def test_an_equi_join_of_counts_sees_every_window_of_the_axis(seconds, windows):
    # R1 has rows in seconds 0 and 2, R2 in one of them; window 1 is empty on
    # both sides, so both counts are 0 there, whichever side R2's visit lies on
    r1 = trace_relation(_seconds(1, 0, [0, 2]), fps=10)
    r2 = trace_relation(_seconds(5, 0, seconds), fps=10)
    text = ("SELECT * FROM (SELECT count(*) FROM R1) A JOIN (SELECT count(*) FROM R2) B "
            "ON A.count = B.count WINDOW(TIME, 1, 1)")
    rows, _ = instantiate(plan(parse(text))).run([r1, r2])
    assert {"window": 1, "A.count": 0, "B.count": 0} in rows
    assert [r["window"] for r in rows] == windows


def test_a_window_stage_lists_every_window_it_emits():
    # 2 s at 8 fps in 0.5 s windows: the window stage is the root, and its
    # stats time each of the four windows it emits
    trace = generate(SynthSpec(frames=16, fps=8, fv_dim=4, objects=(
        ObjectSpec(1, "person", (0, 0, 4, 8), (1, 0), intervals=((0, 16),)),)), 0)
    rows, st = instantiate(plan(parse("SELECT * FROM R1 WINDOW(TIME, 0.5, 0.5)"))).run([trace])
    window = st.stages[-1]
    assert window.name == "window"
    assert sorted({r["window"] for r in rows}) == sorted(window.window_wall) == [0, 1, 2, 3]
    assert window.wall_seconds == pytest.approx(sum(window.window_wall.values()))
    assert window.wall_seconds > 0
    assert (window.tuples_in, window.tuples_out) == (16, 16)


def test_every_operator_stage_of_a_join_lists_the_axis_windows():
    # the right trace ends two windows before the left one; only sources,
    # which release rows rather than windows, list no window
    left = trace_relation(_seconds(1, 0, [0, 4]), fps=10)
    right = trace_relation(_seconds(11, 0, [0, 1]), fps=10)
    text = (f"SELECT * FROM {SIDES[0]} CJOIN (SELECT * FROM {SIDES[1]} WHERE B.fid >= 0) B "
            "ON A.fv SMATCH(0.9) B.fv WINDOW(TIME, 1, 1)")
    _, st = instantiate(plan(parse(text))).run([left, right])
    listed = {s.name: sorted(s.window_wall) for s in st.stages
              if not s.name.startswith("source")}
    assert set(listed) == {"window", "window#2", "r2a", "r2a#2", "select", "join"}
    assert all(keys == [0, 1, 2, 3, 4] for keys in listed.values()), listed


@pytest.mark.parametrize("text", [
    "SELECT AR1.fid FROM (R2A(R1, R1.oid, R1.fid)) AR1",
    "SELECT AR1.fid, AR1.oid FROM (R2A(R1, R1.oid, R1.fid)) AR1",
    "SELECT * FROM (R2A(R1, R1.oid, R1.fid)) AR1",
    "SELECT * FROM CCT(R2A(R1, R1.oid, R1.fid), FIRST) WINDOW(TIME, 0.5, 0.5)",
    'SELECT AR1.label, AR1.ts FROM (R2A(R1, R1.oid, R1.fid)) AR1 WHERE AR1.label = "car"',
    "SELECT AR1.oid FROM (R2A(R1, R1.oid, R1.fid)) AR1",
    "SELECT fid, oid FROM R1",
    "SELECT AR1.oid, DIRECTION(AR1.bb) FROM (R2A(R1, R1.oid, R1.fid)) AR1",
])
def test_output_names_are_the_columns_of_every_row(text):
    qplan = plan(parse(text))
    rows, _ = instantiate(qplan).run([small_trace()])
    assert rows and all(tuple(r)[1:] == qplan.output_names for r in rows)
