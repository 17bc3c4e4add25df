"""Acceptance suite: one test per release criterion, each printing a
PASS line when its assertions hold. Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the per-criterion lines).
"""

import math
import random
import time
from fractions import Fraction

import pytest

from conftest import arrable_of
from oracles import split_runs_oracle
from vaquery.engine import EngineConfig, instantiate, row_to_json, write_results
from vaquery.errors import IllegalColumnKind
from vaquery.evaluation import (ConfusionCounts, PairGroundTruth, accuracy,
                                confusion_pairs)
from vaquery.ingest import ObjectSpec, SynthSpec, concat_traces, generate
from vaquery.model import TRACE_SCHEMA
from vaquery.operators import (CctOption, ComparisonCounter, Direction8, cct,
                               cct_join, cjoin, direction, nl_join, r2a)
from vaquery.querylang import iter_nodes, parse, plan, render
from vaquery.similarity import MatchCondition, Metric
from vaquery.windows import WindowKind, WindowManager, WindowSpec, assign

ONE = {"R1": TRACE_SCHEMA}
TWO = {"R1": TRACE_SCHEMA, "R2": TRACE_SCHEMA}


def ok(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:02d} PASS - {text}")


def one_hot(i: int, dim: int = 16) -> tuple:
    return tuple(1.0 if d == i else 0.0 for d in range(dim))


def test_criterion_01_accuracy_golden_values():
    """Exact rational evaluation of the confusion-matrix accuracy formula."""
    assert accuracy(ConfusionCounts(tp=1, fp=2, fn=1, tn=11)) == Fraction(4, 5)
    assert accuracy(ConfusionCounts(tp=1, fp=2, fn=1, tn=4)) == Fraction(5, 8)
    assert accuracy(ConfusionCounts(tp=4, fp=0, fn=0, tn=12)) == Fraction(1, 1)
    assert float(accuracy(ConfusionCounts(tp=1, fp=2, fn=1, tn=11))) * 100 == 80.0
    assert float(accuracy(ConfusionCounts(tp=1, fp=2, fn=1, tn=4))) * 100 == 62.5
    ok(1, "accuracy(1,2,1,11)=80%, (1,2,1,4)=62.5%, (4,0,0,12)=100%, exact")


def test_criterion_02_self_join_identity():
    """Self-joins with consistent per-object features are 100% accurate."""
    started = time.perf_counter()
    n_objects, frames = 10, 200
    spec = SynthSpec(frames=frames, fps=30, fv_dim=16, objects=tuple(
        ObjectSpec(i, "person", (10.0 * i, 0, 4, 8), (0.5, 0),
                   base_fv=one_hot(i), intervals=((0, frames),))
        for i in range(n_objects)))
    trace = generate(spec, seed=13)
    assert len(trace.rows) == n_objects * frames
    ar = r2a(trace, "oid", "fid")
    cond = MatchCondition(Metric.COSINE, 0.95)
    gt = PairGroundTruth(frozenset(range(n_objects)), frozenset(range(n_objects)),
                         frozenset((i, i) for i in range(n_objects)))
    for join_fn in (cjoin, nl_join, cct_join):
        pairs = join_fn(ar, ar, cond)
        assert accuracy(confusion_pairs(pairs, gt)) == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"self-join criterion took {elapsed:.2f}s"
    ok(2, f"cjoin/nl_join/cct_join self-join 100% accurate in {elapsed:.2f}s")


def _robustness_traces():
    e = lambda i: one_hot(i, 8)
    mix = lambda i, j, w: tuple(a + w * b for a, b in zip(one_hot(i, 8), one_hot(j, 8)))
    left = generate(SynthSpec(frames=10, fps=30, fv_dim=8, objects=(
        ObjectSpec(1, "person", (0, 0, 2, 4), base_fv=e(0), intervals=((0, 10),)),
        ObjectSpec(2, "person", (9, 0, 2, 4), base_fv=mix(0, 3, 0.3), intervals=((0, 10),)),
        ObjectSpec(3, "person", (18, 0, 2, 4), base_fv=e(1), intervals=((0, 10),)),
        ObjectSpec(5, "person", (27, 0, 2, 4), base_fv=mix(2, 3, 0.3), intervals=((0, 10),)),
    )), seed=1)
    right = generate(SynthSpec(frames=10, fps=30, fv_dim=8, objects=(
        ObjectSpec(1, "person", (0, 9, 2, 4), base_fv=e(0), intervals=((0, 10),)),
        ObjectSpec(3, "person", (9, 9, 2, 4), base_fv=e(2), intervals=((0, 10),)),
    )), seed=2)
    return left, right


def _join_pairs_all_variants(left_rel, right_rel, cond):
    left = r2a(left_rel, "oid", "fid")
    right = r2a(right_rel, "oid", "fid")
    sets = [{p.key() for p in fn(left, right, cond)}
            for fn in (cjoin, nl_join, cct_join)]
    assert sets[0] == sets[1] == sets[2]
    return sets[0]


def test_criterion_03_robustness_law():
    """Appending unmatched noise objects only grows the true negatives."""
    cond = MatchCondition(Metric.COSINE, 0.85)
    left, right = _robustness_traces()
    emitted = _join_pairs_all_variants(left, right, cond)
    gt = PairGroundTruth(frozenset({1, 2, 3, 5}), frozenset({1, 3}),
                         frozenset({(1, 1), (3, 3)}))
    counts = confusion_pairs(emitted, gt)
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 2, 1, 4)
    assert accuracy(counts) == Fraction(5, 8)  # 62.5%

    noise_left = generate(SynthSpec(frames=6, fps=30, fv_dim=8, objects=(
        ObjectSpec(0, "person", (50, 0, 2, 4), base_fv=one_hot(4, 8), intervals=((0, 6),)),
    )), seed=3)
    noise_right = generate(SynthSpec(frames=6, fps=30, fv_dim=8, objects=(
        ObjectSpec(0, "person", (50, 9, 2, 4), base_fv=one_hot(5, 8), intervals=((0, 6),)),
    )), seed=4)
    left2 = concat_traces(left, noise_left, oid_offset=6)   # noise oid 6
    right2 = concat_traces(right, noise_right, oid_offset=7)  # noise oid 7
    emitted2 = _join_pairs_all_variants(left2, right2, cond)
    assert emitted2 == emitted

    gt2 = PairGroundTruth(frozenset({1, 2, 3, 5, 6}), frozenset({1, 3, 7}),
                          frozenset({(1, 1), (3, 3)}))
    counts2 = confusion_pairs(emitted2, gt2)
    assert (counts2.tp, counts2.fp, counts2.fn, counts2.tn) == (1, 2, 1, 11)
    assert accuracy(counts2) == Fraction(4, 5)  # 80.0%
    ok(3, "4x2 universe 62.5% grows to 5x3 universe 80.0% under noise concat")


def test_criterion_04_join_equivalence_oracle():
    """cjoin emits exactly nl_join's pair set; cct_join only ever misses."""
    started = time.perf_counter()
    rng = random.Random(2024)
    instances = 0
    cct_strictly_smaller = 0
    while instances < 120:
        dim = rng.randint(2, 6)

        def mk_side():
            groups = {}
            for key in range(rng.randint(1, 6)):
                n = rng.randint(1, 8)
                groups[key] = {
                    "fid": sorted(rng.sample(range(25), n)),
                    "fv": [tuple(rng.uniform(0.05, 1.0) for _ in range(dim))
                           for _ in range(n)],
                }
            return arrable_of(groups)

        left, right = mk_side(), mk_side()
        metric = rng.choice([Metric.COSINE, Metric.EUCLIDEAN])
        cond = MatchCondition(metric, rng.random())
        nl = {p.key() for p in nl_join(left, right, cond)}
        cj = {p.key() for p in cjoin(left, right, cond)}
        ccj = {p.key() for p in cct_join(left, right, cond)}
        assert cj == nl
        assert ccj <= cj
        if ccj < cj:
            cct_strictly_smaller += 1
        instances += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    ok(4, f"{instances} randomized instances: pairs(cjoin)=pairs(nl_join), "
          f"pairs(cct_join) subset (strictly smaller {cct_strictly_smaller}x), {elapsed:.1f}s")


def test_criterion_05_comparison_dominance():
    """First-comparison matches: cjoin needs 100x fewer comparisons."""
    groups, elems = 50, 100
    shared = (0.6, 0.8, 0.0, 0.0)
    def side(key0):
        return arrable_of({key0 + k: {"fid": list(range(elems)),
                                      "fv": [shared] * elems}
                           for k in range(groups)})
    left, right = side(0), side(1000)
    cond = MatchCondition(Metric.COSINE, 0.99)

    counters = {name: ComparisonCounter() for name in ("nl", "cjoin", "cct")}
    nl_pairs = nl_join(left, right, cond, counter=counters["nl"])
    cj_pairs = cjoin(left, right, cond, counter=counters["cjoin"])
    ccj_pairs = cct_join(left, right, cond, counter=counters["cct"])
    assert len(nl_pairs) == len(cj_pairs) == len(ccj_pairs) == groups * groups

    nl_count = counters["nl"].count
    cj_count = counters["cjoin"].count
    cct_count = counters["cct"].count
    assert nl_count == groups * groups * elems * elems
    assert cj_count == groups * groups  # one comparison per group pair
    assert cj_count <= nl_count / 100
    assert cct_count <= 4 * groups * groups
    assert nl_count / cj_count >= 10
    ok(5, f"comparisons: nl={nl_count}, cjoin={cj_count} "
          f"(ratio {nl_count // cj_count}x), cct_join={cct_count} <= {4 * groups * groups}")


def _scalability_trace(n_objects=20, frames=100):
    spec = SynthSpec(frames=frames, fps=30, fv_dim=8, objects=tuple(
        ObjectSpec(i, "person" if i % 2 == 0 else "car",
                   (5.0 * i, 0, 3, 6), (0.7, 0.2 if i % 2 else -0.2),
                   base_fv=one_hot(i % 8, 8), intervals=((0, frames),))
        for i in range(n_objects)))
    return generate(spec, seed=21)


Q1_TEXT = ('SELECT fid, oid FROM R1 WHERE [FV] SMATCH(0.85) '
           '[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]')
Q2_TEXT = ('SELECT count(*) FROM (SELECT AR1.oid FROM (R2A(R1, R1.oid, R1.fid)) AR1 '
           'WHERE (R1.label = "person"))')
Q3_TEXT = ('SELECT AR1.oid, AR2.oid FROM (R2A(R1, R1.oid, R1.fid)) AR1 '
           'CJOIN (R2A(R2, R2.oid, R2.fid)) AR2 ON AR1.[FV] sMatch(0.9) AR2.[FV]')
Q4_TEXT = ('SELECT AR1.oid, DIRECTION(AR1.[BB]) '
           'FROM (CCT(R2A(R1, R1.oid, R1.fid), both)) AR1')


def test_criterion_06_scalability_linearity():
    """Doubling the trace doubles per-stage input counts; time stays near-linear."""
    single = _scalability_trace()
    double = concat_traces(single, single, oid_offset=100)
    assert len(double.rows) == 2 * len(single.rows)

    for text in (Q1_TEXT, Q2_TEXT, Q4_TEXT):
        p = plan(parse(text), ONE)

        def median_run(trace):
            times, stats = [], None
            for _ in range(5):
                pipeline = instantiate(p)
                t0 = time.perf_counter()
                _, stats = pipeline.run([trace])
                times.append(time.perf_counter() - t0)
            return sorted(times)[2], stats

        t1, s1 = median_run(single)
        t2, s2 = median_run(double)
        for st1, st2 in zip(s1.stages, s2.stages):
            assert st2.tuples_in == 2 * st1.tuples_in, \
                f"{st1.name}: {st1.tuples_in} -> {st2.tuples_in}"
        assert t2 <= 3.0 * t1, f"{text[:20]}: {t1:.4f}s -> {t2:.4f}s"
    ok(6, "Q1/Q2/Q4: per-stage tuples_in doubles exactly, wall-time factor <= 3")


def test_criterion_07_cct_golden():
    """The consecutive-compression example, checked against a run oracle."""
    ar = arrable_of({
        1: {"fid": list(range(1, 12))},
        2: {"fid": [2, 13]},
    })
    both = cct(ar, CctOption.BOTH)
    assert both.rows[0].column("fid") == (1, 11)
    assert both.rows[1].column("fid") == (2, 13)
    first = cct(ar, CctOption.FIRST)
    assert first.rows[0].column("fid") == (1,)
    assert first.rows[1].column("fid") == (2, 13)
    # brute-force oracle agreement on the same input
    for row in ar.rows:
        runs = split_runs_oracle(row.column("fid"))
        assert len(runs) == (1 if row.key == 1 else 2)
    ok(7, "fids 1..11 -> both {1,11}, first {1}; fids {2,13} unchanged")


def test_criterion_08_direction_rules():
    """All nine sign combinations plus translation/scale invariance."""
    cells = {(0, 1): Direction8.N, (0, -1): Direction8.S,
             (1, 0): Direction8.E, (-1, 0): Direction8.W,
             (1, 1): Direction8.NE, (-1, 1): Direction8.NW,
             (1, -1): Direction8.SE, (-1, -1): Direction8.SW,
             (0, 0): Direction8.STATIONARY}
    for (sx, sy), expected in cells.items():
        ar = arrable_of({1: {"fid": [1, 2],
                             "bb": [(10, 10, 2, 2), (10 + 4 * sx, 10 + 4 * sy, 2, 2)]}})
        assert direction(ar) == [(1, expected)]

    rng = random.Random(88)
    checked = 0
    for _ in range(1200):
        x, y = rng.uniform(-500, 500), rng.uniform(-500, 500)
        dx, dy = rng.choice([-7, 0, 3]), rng.choice([-4, 0, 9])
        base = direction(arrable_of(
            {1: {"fid": [1, 2], "bb": [(x, y, 2, 2), (x + dx, y + dy, 2, 2)]}}))[0][1]
        tx, ty = rng.uniform(-100, 100), rng.uniform(-100, 100)
        translated = direction(arrable_of(
            {1: {"fid": [1, 2], "bb": [(x + tx, y + ty, 2, 2),
                                       (x + dx + tx, y + dy + ty, 2, 2)]}}))[0][1]
        k = rng.uniform(0.01, 50)
        scaled = direction(arrable_of(
            {1: {"fid": [1, 2], "bb": [(x, y, 2, 2), (x + dx * k, y + dy * k, 2, 2)]}}))[0][1]
        assert base == translated == scaled
        checked += 1
    assert checked >= 1000
    ok(8, f"9 sign cells correct; invariance on {checked} randomized boxes")


def test_criterion_09_parser_suite():
    """The standard query texts parse, plan, execute; bad types are rejected."""
    trace = _scalability_trace(n_objects=4, frames=30)

    for text, catalog, traces in ((Q1_TEXT, ONE, [trace]),
                                  (Q2_TEXT, ONE, [trace]),
                                  (Q3_TEXT, TWO, [trace, trace]),
                                  (Q4_TEXT, ONE, [trace])):
        ast = parse(text)
        assert parse(render(ast)) == ast, "render -> re-parse must be identical"
        p = plan(ast, catalog)
        rows, _ = instantiate(p).run(traces)
        assert rows, f"no results for {text[:30]}..."

    with pytest.raises(IllegalColumnKind):
        plan(parse("SELECT avg([FV]) FROM R1"), ONE)
    with pytest.raises(IllegalColumnKind):
        plan(parse("SELECT R1.oid, R2.oid FROM R1 JOIN R2 ON R1.[FV] = R2.[FV]"), TWO)
    ok(9, "Q1/Q2/Q3/Q4 parse+plan+execute; round-trip stable; ill-typed rejected")


def test_criterion_10_engine_determinism(tmp_path):
    """Feed rate, and with it the size of the row ranges, never changes the result bytes."""
    spec = SynthSpec(frames=15, fps=30, fv_dim=4, objects=(
        ObjectSpec(0, "person", (0, 0, 2, 4), (1, 0), base_fv=(1, 0, 0, 0),
                   intervals=((0, 15),)),
        ObjectSpec(1, "car", (40, 0, 4, 2), (0, 1), base_fv=(0, 1, 0, 0),
                   intervals=((0, 15),)),
    ))
    trace = generate(spec, seed=6)  # 30 tuples, ~0.3s at 100 t/s
    text = Q2_TEXT + " WINDOW(TIME, 0.25, 0.25)"
    p = plan(parse(text), ONE)

    files = []
    for rate in (0.0, 100.0, 2000.0):
        rows, _ = instantiate(p, EngineConfig(default_rate=rate)).run([trace])
        out = tmp_path / f"r{rate}.jsonl"
        write_results(rows, out)
        files.append(out.read_bytes())
    assert len(set(files)) == 1
    ok(10, "3 feed rates produced byte-identical result files")


def test_criterion_11_window_accounting():
    """Window closing and multiplicity over a [0, 300) second stream."""
    keys = [float(t) for t in range(0, 300, 3)]

    mgr = WindowManager(WindowSpec(WindowKind.TIME, 100, 100, origin=0.0))
    closed = []
    for ts in keys:
        mgr.add([ts])
        closed.extend(mgr.close_windows(ts))
    closed.extend(mgr.flush())
    assert [w.index for w, _ in closed] == [0, 1, 2]
    assert sum(len(items) for _, items in closed) == len(keys)

    spec = WindowSpec(WindowKind.TIME, 100, 50, origin=0.0)
    mgr = WindowManager(spec)
    emitted = []
    for ts in keys:
        assert len(assign(spec, ts, 0.0)) <= 2
        mgr.add([ts])
        emitted.extend(mgr.close_windows(ts))
    flushed = mgr.flush()
    emitted.extend(flushed)
    assert [w.index for w, _ in emitted] == [0, 1, 2, 3, 4, 5]
    # five windows lie fully inside [0, 300); the trailing [250, 350) partial
    # only appears because end-of-stream flushes it
    full = [w.index for w, _ in emitted if w.end <= 300.0]
    assert full == [0, 1, 2, 3, 4]
    assert [w.index for w, _ in flushed][-1] == 5
    total = sum(len(items) for _, items in emitted)
    assert total == sum(len(assign(spec, ts, 0.0)) for ts in keys)
    ok(11, "3 disjoint windows; 5 full rolling windows + 1 flushed partial; <=2 windows/tuple")
