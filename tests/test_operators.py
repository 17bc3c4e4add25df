import json
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import goldens
from conftest import arrable_of, group_values, pair_keys, relation_of, trace_relation
from oracles import (cct_oracle, confusion_oracle, first_witness_oracle,
                     join_pairs_oracle, score_oracle, select_oracle, split_runs_oracle)
from vaquery.errors import EmptyRow, IllegalColumnKind, SchemaMismatch, UnknownColumn, ZeroVector
from vaquery.engine import StageStats
from vaquery.model import Relation
from vaquery.operators import (And, BBoxTest, BBPattern, CctOption, Comparison,
                               Direction8, Not, Or, ScalarPairPredicate,
                               SMatchProbe, aggregate, cct, cct_join, cjoin,
                               count_star, direction, group_count, hash_equi_join,
                               nl_join, project, r2a, select)
from vaquery import similarity
from vaquery.similarity import MatchCondition, MatchPolarity, Metric

COS = MatchCondition(Metric.COSINE, 0.9)


# --- r2a ---------------------------------------------------------------------

def test_r2a_groups_and_orders():
    rel = trace_relation([
        (2, 1, "person", (0, 0, 1, 1), (1, 0)),
        (1, 1, "person", (0, 0, 1, 1), (1, 0)),
        (2, 2, "person", (0, 0, 1, 1), (0, 1)),
    ])
    ar = r2a(rel, "oid", "fid")
    by_key = group_values(ar, "fid")
    assert by_key[1] == (1, 2)
    assert by_key[2] == (2,)


def test_r2a_fig_shape_group_on_oid_order_on_ts():
    # one object in frames 1..k, another only in frame 2
    records = [(f, 1, "person", (0, 0, 1, 1), (1, 0)) for f in range(1, 6)]
    records.append((2, 2, "person", (5, 5, 1, 1), (0, 1)))
    ar = r2a(trace_relation(records), "oid", "ts")
    assert ar.keys.tolist() == [1, 2]
    assert group_values(ar, "fid")[1] == (1, 2, 3, 4, 5)
    assert group_values(ar, "fid")[2] == (2,)


def test_r2a_empty_relation():
    ar = r2a(relation_of([]), "oid", "fid")
    assert len(ar) == 0
    assert group_count(ar) == 0


def test_r2a_rejects_vector_columns():
    rel = trace_relation([(1, 1, "person", (0, 0, 1, 1), (1, 0))])
    with pytest.raises(IllegalColumnKind):
        r2a(rel, "fv", "fid")
    with pytest.raises(IllegalColumnKind):
        r2a(rel, "oid", "bb")


# --- runs and cct --------------------------------------------------------------

def test_split_runs_matches_oracle():
    # cct's runs are the oracle's: FIRST keeps each run's start, LAST its end
    for fids in [(1, 2, 3), (2, 13), (1,), (1, 2, 5, 6, 7, 20), ()]:
        ar = arrable_of({1: {"fid": list(fids)}})
        runs = split_runs_oracle(fids)
        assert group_values(cct(ar, CctOption.FIRST), "fid")[1] == tuple(fids[r[0]] for r in runs)
        assert group_values(cct(ar, CctOption.LAST), "fid")[1] == tuple(fids[r[-1]] for r in runs)


def test_cct_appendix_example_both():
    # oid 1 appears in consecutive frames 1..11; oid 2 in frames 2 and 13
    ar = arrable_of({
        1: {"fid": list(range(1, 12)), "ts": [float(f) for f in range(1, 12)]},
        2: {"fid": [2, 13], "ts": [2.0, 13.0]},
    })
    out = cct(ar, CctOption.BOTH)
    assert group_values(out, "fid")[1] == (1, 11)
    assert group_values(out, "fid")[2] == (2, 13)
    # oracle agreement
    for fids, original in zip(group_values(out, "fid").values(),
                              group_values(ar, "fid").values()):
        keep = cct_oracle(original, "both")
        assert fids == tuple(original[i] for i in keep)


def test_cct_appendix_example_first():
    ar = arrable_of({
        1: {"fid": list(range(1, 12))},
        2: {"fid": [2, 13]},
    })
    out = cct(ar, CctOption.FIRST)
    assert group_values(out, "fid")[1] == (1,)
    assert group_values(out, "fid")[2] == (2, 13)


def test_cct_last():
    ar = arrable_of({1: {"fid": [1, 2, 3, 9, 10]}})
    assert group_values(cct(ar, CctOption.LAST), "fid")[1] == (3, 10)


def test_cct_singleton_run_unchanged():
    ar = arrable_of({1: {"fid": [5], "ts": [5.0]}})
    for option in CctOption:
        assert group_values(cct(ar, option), "fid")[1] == (5,)


def test_cct_both_does_not_duplicate_singletons():
    ar = arrable_of({2: {"fid": [2, 13]}})
    assert group_values(cct(ar, CctOption.BOTH), "fid")[2] == (2, 13)


def test_cct_gap_threshold():
    ar = arrable_of({1: {"fid": [1, 3, 5, 10]}})
    assert group_values(cct(ar, CctOption.FIRST, gap_threshold=2), "fid")[1] == (1, 10)
    assert group_values(cct(ar, CctOption.FIRST, gap_threshold=1), "fid")[1] == (1, 3, 5, 10)


def test_cct_idempotent():
    rng = random.Random(3)
    for _ in range(30):
        fids = sorted(rng.sample(range(40), rng.randint(1, 15)))
        ar = arrable_of({1: {"fid": fids}})
        for option in CctOption:
            once = cct(ar, option)
            twice = cct(once, option)
            assert group_values(twice, "fid") == group_values(once, "fid")


def test_cct_never_grows_and_first_keeps_one_per_run():
    rng = random.Random(4)
    for _ in range(30):
        fids = sorted(rng.sample(range(60), rng.randint(1, 20)))
        ar = arrable_of({1: {"fid": fids}})
        runs = split_runs_oracle(fids)
        assert cct(ar, CctOption.FIRST).counts.tolist() == [len(runs)]
        for option in CctOption:
            assert cct(ar, option).counts[0] <= len(fids)


def test_cct_requires_fid_column():
    ar = arrable_of({1: {"ts": [1.0, 2.0]}})
    with pytest.raises(UnknownColumn):
        cct(ar, CctOption.FIRST)


# --- select / project -----------------------------------------------------------

def test_select_label_on_relation(two_person_trace):
    out = select(two_person_trace, Comparison("label", "=", "person"))
    assert all(r["label"] == "person" for r in out.row_dicts())
    assert len(out) == 4


def test_select_bb_pattern_range():
    pattern = BBPattern(x=(0, 100))
    rel = trace_relation([
        (1, 1, "person", (10, 20, 30, 20), (1, 0)),
        (1, 2, "person", (500, 20, 30, 20), (1, 0)),
    ])
    out = select(rel, BBoxTest("bb", pattern))
    assert [r["oid"] for r in out.row_dicts()] == [1]


def test_bb_pattern_exact_and_wildcard():
    p = BBPattern(x=10.0, y=None, w=(25, 35), h=None)
    assert p.mask(np.array([[10.0, 99.0, 30.0, 7.0]]))[0]
    assert not p.mask(np.array([[11.0, 99.0, 30.0, 7.0]]))[0]
    assert not p.mask(np.array([[10.0, 99.0, 36.0, 7.0]]))[0]


def test_bb_pattern_bad_range():
    with pytest.raises(ValueError):
        BBPattern(x=(5, 1))


def test_select_smatch_probe_retains_similar(two_person_trace):
    probe = (1.0, 0.0, 0.0, 0.0)
    counter = StageStats("test")
    out = select(two_person_trace, SMatchProbe("fv", probe, MatchCondition(Metric.COSINE, 0.85)),
                 counter)
    assert sorted({r["oid"] for r in out.row_dicts()}) == [1]
    assert counter.smatch_comparisons == len(two_person_trace)


def test_select_elementwise_on_arrable_drops_empty_rows():
    ar = arrable_of({
        1: {"fid": [1, 2], "label": ["person", "person"]},
        2: {"fid": [2], "label": ["car"]},
    })
    out = select(ar, Comparison("label", "=", "person"))
    assert out.keys.tolist() == [1]
    assert group_values(out, "fid")[1] == (1, 2)


def test_select_kind_violation_raised_before_filtering(two_person_trace):
    with pytest.raises(IllegalColumnKind):
        select(two_person_trace, Comparison("fv", "=", 1))
    with pytest.raises(IllegalColumnKind):
        select(two_person_trace, Comparison("label", "<", "n"))


def test_ordered_comparison_with_a_non_numeric_literal_rejected(two_person_trace):
    for op in ("<", "<=", ">", ">="):
        with pytest.raises(SchemaMismatch):
            select(two_person_trace, Comparison("oid", op, "abc"))
    assert select(two_person_trace, Comparison("oid", "=", "x")).row_dicts() == []
    assert len(select(two_person_trace, Comparison("oid", "!=", "x"))) == 5


def test_zero_vector_in_a_decided_element_is_never_scored():
    rel = trace_relation([
        (1, 1, "car", (0, 0, 1, 1), (0.0, 0.0, 0.0, 0.0)),
        (1, 2, "person", (0, 0, 1, 1), (1.0, 0.0, 0.0, 0.0)),
    ])
    probe = SMatchProbe("fv", (1.0, 0.0, 0.0, 0.0), COS)
    for pred, kept in ((And((Comparison("label", "=", "person"), probe)), [2]),
                       (Or((Comparison("label", "=", "car"), probe)), [1, 2]),
                       (Not(Or((Comparison("oid", "=", 1), probe))), [])):
        counter = StageStats("test")
        assert [r["oid"] for r in select(rel, pred, counter).row_dicts()] == kept
        assert counter.smatch_comparisons == 1
    with pytest.raises(ZeroVector):
        select(rel, Or((Comparison("label", "=", "person"), probe)))


def test_replacing_a_probe_normalizes_it_again():
    probe = SMatchProbe("fv", (1.0, 0.0, 0.0, 0.0), COS)
    moved = replace(probe, column="FV", probe=(0.0, 3.0, 0.0, 4.0))
    assert moved.unit_probe.tolist() == [[0.0, 0.6, 0.0, 0.8]]
    assert replace(probe, column="FV").unit_probe.tolist() == [[1.0, 0.0, 0.0, 0.0]]
    with pytest.raises(ZeroVector):
        replace(probe, probe=(0.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("cond", [MatchCondition(Metric.COSINE, 1.0),
                                  MatchCondition(Metric.EUCLIDEAN, 0.0)])
def test_probe_keeps_its_equal_row_at_the_exact_threshold_in_a_large_window(cond):
    vecs = np.random.default_rng(7).normal(size=(2000, 128))
    rel = relation_of({"fid": i, "oid": i, "label": "person", "bb": (0, 0, 1, 1),
                       "fv": v, "ts": i / 30} for i, v in enumerate(vecs))
    counter = StageStats("test")
    out = select(rel, SMatchProbe("fv", tuple(vecs[1234]), cond), counter)
    assert [r["oid"] for r in out.row_dicts()] == [1234]
    assert counter.smatch_comparisons == 2000


# --- select against the per-element oracle ---------------------------------------

_COS_TH = (0.33, 0.61, 0.87)  # thresholds no small-integer vector pair scores exactly
_EUC_TH = (0.23, 0.41, 0.58)

_probe_leaf = st.one_of(
    st.tuples(st.just("cosine"), st.sampled_from(["similarity_at_least", "distance_at_most"]),
              st.sampled_from(_COS_TH)),
    st.tuples(st.just("euclidean"), st.sampled_from(["distance_at_most", "similarity_at_least"]),
              st.sampled_from(_EUC_TH)),
).flatmap(lambda c: st.tuples(
    st.just("probe"), st.just("fv"), st.just(c[0]), st.just(c[1]), st.just(c[2]),
    st.tuples(*[st.integers(-2, 2)] * 3).filter(any).map(lambda v: tuple(map(float, v)))))
_bb_comp = st.one_of(st.none(), st.integers(0, 3).map(float),
                     st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda r: tuple(sorted(r))))
_leaf = st.one_of(
    st.tuples(st.just("cmp"), st.sampled_from(["fid", "oid", "ts"]),
              st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
              st.one_of(st.integers(0, 4), st.sampled_from([0.25, 0.5, 1.5, 2.0]))),
    st.tuples(st.just("cmp"), st.just("label"), st.sampled_from(["=", "!="]),
              st.sampled_from(["person", "car", "x", 5])),
    st.tuples(st.just("bb"), st.just("bb"), st.tuples(*[_bb_comp] * 4)),
    _probe_leaf,
)
_tree = st.recursive(_leaf, lambda kids: st.one_of(
    st.tuples(st.sampled_from(["and", "or"]), st.lists(kids, min_size=1, max_size=3)),
    st.tuples(st.just("not"), kids)), max_leaves=6)
_element = st.fixed_dictionaries({
    "fid": st.integers(0, 4), "oid": st.integers(0, 3),
    "label": st.sampled_from(["person", "car"]),
    "bb": st.tuples(*[st.integers(0, 3).map(float)] * 4),
    "fv": st.tuples(*[st.integers(-2, 2)] * 3).filter(any).map(lambda v: tuple(map(float, v))),
    "ts": st.sampled_from([0.0, 0.25, 1.5, 3.0]),
})


def _predicate(tree):
    kind = tree[0]
    if kind in ("and", "or"):
        return (And if kind == "and" else Or)(tuple(_predicate(t) for t in tree[1]))
    if kind == "not":
        return Not(_predicate(tree[1]))
    if kind == "cmp":
        return Comparison(*tree[1:])
    if kind == "bb":
        return BBoxTest(tree[1], BBPattern(*tree[2]))
    _, column, metric, polarity, th, probe = tree
    return SMatchProbe(column, probe,
                       MatchCondition(Metric(metric), th, MatchPolarity(polarity)))


def _probes(tree):
    if tree[0] in ("and", "or"):
        return [p for t in tree[1] for p in _probes(t)]
    if tree[0] == "not":
        return _probes(tree[1])
    return [tree] if tree[0] == "probe" else []


def _plain(rec: dict) -> dict:
    return dict(rec, bb=tuple(rec["bb"]))


@settings(max_examples=150, deadline=None)
@given(st.lists(_element, max_size=12), _tree)
def test_select_matches_per_element_oracle(elements, tree):
    # no probe score may sit on its threshold, where summation order decides
    assume(all(abs(score_oracle(p[2], el["fv"], p[5]) - p[4]) > 1e-9
               for p in _probes(tree) for el in elements))
    pred = _predicate(tree)
    rel = relation_of(elements)
    groups = {}
    for e in elements:
        g = groups.setdefault(e["oid"], {c: [] for c in ("fid", "label", "bb", "fv", "ts")})
        for c in g:
            g[c].append(e[c])
    ar = arrable_of(groups)
    empty = relation_of([])
    for data, records in ((rel, rel.row_dicts()), (ar, ar.flatten()), (empty, []),
                          (arrable_of({}), [])):
        kept, evaluations = select_oracle([_plain(r) for r in records], tree)
        counter = StageStats("test")
        out = select(data, pred, counter)
        got = out.row_dicts() if isinstance(out, Relation) else out.flatten()
        assert got == [records[i] for i in kept]
        assert counter.smatch_comparisons == evaluations


def test_project_subset_and_identity(two_person_trace):
    out = project(two_person_trace, ["oid"])
    assert [set(r) for r in out.row_dicts()] == [{"oid"}] * len(two_person_trace)
    same = project(two_person_trace, list(two_person_trace.schema.names()))
    assert same.row_dicts() == two_person_trace.row_dicts()


def test_project_unknown_column(two_person_trace):
    with pytest.raises(UnknownColumn):
        project(two_person_trace, ["speed"])


# --- joins -----------------------------------------------------------------------

def _arrables_from_vec_groups(groups):
    return arrable_of({k: {"fid": list(range(len(vecs))), "fv": [tuple(v) for v in vecs]}
                       for k, vecs in groups.items()})


def test_nl_join_self_diagonal():
    e = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    groups = {i: [e[i]] * 3 for i in range(4)}
    ar = _arrables_from_vec_groups(groups)
    pairs = nl_join(ar, ar, COS)
    assert set(pair_keys(pairs)) == {(i, i) for i in range(4)}
    expected = join_pairs_oracle(groups, groups, "cosine", "similarity_at_least", 0.9)
    assert set(pair_keys(pairs)) == expected


def test_nl_join_orthogonal_empty():
    left = _arrables_from_vec_groups({1: [(1, 0)]})
    right = _arrables_from_vec_groups({9: [(0, 1)]})
    assert pair_keys(nl_join(left, right, MatchCondition(Metric.COSINE, 0.5))) == []


@pytest.mark.parametrize("join", [nl_join, cjoin])
def test_an_empty_group_on_either_side_changes_no_pair_witness_or_counter(join):
    # a group without elements scores no pair: joined with empty groups on
    # both sides, first, between and last, a join gives the columns and the
    # comparison count that it gives without them
    left = {1: [(1, 0, 0), (0, 1, 0)], 2: [(0, 0, 1)]}
    right = {7: [(0, 0.1, 1)], 8: [(0, 1, 0), (1, 0, 0)]}
    got = []
    for lg, rg in ((left, right), ({1: left[1], 5: [], 2: left[2]}, {6: [], **right, 9: []})):
        counter = StageStats("join")
        columns = join(_arrables_from_vec_groups(lg), _arrables_from_vec_groups(rg), COS,
                       counter=counter)
        got.append(([c.tolist() for c in columns], counter.smatch_comparisons))
    assert got[1] == got[0]
    assert got[0][0][:2] == [[1, 2], [8, 7]]


def test_nl_join_witness_is_first_match():
    # only the second left element matches the right element
    a, b, c = (1, 0, 0), (0, 1, 0), (0, 1, 0.01)
    left = _arrables_from_vec_groups({1: [a, b]})
    right = _arrables_from_vec_groups({2: [c]})
    _, _, left_witness, right_witness, _ = nl_join(left, right, COS)
    assert len(left_witness) == 1
    expected = first_witness_oracle([a, b], [c], "cosine", "similarity_at_least", 0.9)
    assert (left_witness[0], right_witness[0]) == expected == (1, 0)


def test_nl_join_counts_every_pair():
    left = _arrables_from_vec_groups({1: [(1, 0)] * 4, 2: [(0, 1)] * 5})
    right = _arrables_from_vec_groups({3: [(1, 0)] * 6})
    counter = StageStats("test")
    nl_join(left, right, COS, counter=counter)
    assert counter.smatch_comparisons == 4 * 6 + 5 * 6


def test_cjoin_short_circuits_comparisons():
    v = (0.5, 0.5)
    left = _arrables_from_vec_groups({1: [v] * 100})
    right = _arrables_from_vec_groups({2: [v] * 100})
    nl_counter, c_counter = StageStats("test"), StageStats("test")
    nl_pairs = nl_join(left, right, COS, counter=nl_counter)
    c_pairs = cjoin(left, right, COS, counter=c_counter)
    assert set(pair_keys(nl_pairs)) == set(pair_keys(c_pairs)) == {(1, 2)}
    assert nl_counter.smatch_comparisons == 10_000
    assert c_counter.smatch_comparisons == 1


def test_cjoin_pair_set_equals_nl_join_randomized():
    rng = random.Random(11)
    for _ in range(40):
        dim = rng.randint(2, 5)
        def mk_groups():
            return {k: [tuple(rng.uniform(-1, 1) for _ in range(dim))
                        or (1.0,) for _ in range(rng.randint(1, 6))]
                    for k in range(rng.randint(1, 4))}
        lg, rg = mk_groups(), mk_groups()
        lg = {k: [v if any(v) else (1.0,) * dim for v in vs] for k, vs in lg.items()}
        rg = {k: [v if any(v) else (1.0,) * dim for v in vs] for k, vs in rg.items()}
        # per-element ts and label columns for the scalar extras
        lts, rts = ({k: [rng.uniform(0, 3) for _ in vs] for k, vs in g.items()} for g in (lg, rg))
        llab, rlab = ({k: [rng.choice(["person", "car"]) for _ in vs] for k, vs in g.items()}
                      for g in (lg, rg))
        offset = rng.uniform(-1, 1)
        extra_specs = rng.choice([(), (("ts", "<=", offset),), (("label", "=", 0.0),),
                                  (("ts", "<=", offset), ("label", "=", 0.0))])
        extra = tuple(ScalarPairPredicate(col, op, col, off) for col, op, off in extra_specs)
        cols = {"ts": (lts, rts), "label": (llab, rlab)}
        oracle_extras = [(cols[col][0], op, cols[col][1], off) for col, op, off in extra_specs]
        th = rng.random()
        metric = rng.choice([Metric.COSINE, Metric.EUCLIDEAN])
        cond = MatchCondition(metric, th)
        left, right = (arrable_of({k: {"fid": list(range(len(vs))), "fv": vs, "ts": ts[k],
                                       "label": lab[k]} for k, vs in g.items()})
                       for g, ts, lab in ((lg, lts, llab), (rg, rts, rlab)))
        nl_counter, c_counter = StageStats("test"), StageStats("test")
        nl_pairs = nl_join(left, right, cond, extra=extra, counter=nl_counter)
        cj_pairs = cjoin(left, right, cond, extra=extra, counter=c_counter)
        nl = set(pair_keys(nl_pairs))
        assert nl == set(pair_keys(cj_pairs))
        oracle = join_pairs_oracle(lg, rg, metric.value, cond.polarity.value, th,
                                   oracle_extras)
        assert nl == oracle
        expected_nl = expected_cj = 0
        witnesses = {}
        for lk, lvs in lg.items():
            for rk, rvs in rg.items():
                n, m = len(lvs), len(rvs)
                w = first_witness_oracle(lvs, rvs, metric.value, cond.polarity.value, th,
                                         [(lv[lk], op, rv[rk], off)
                                          for lv, op, rv, off in oracle_extras])
                expected_nl += n * m
                expected_cj += n * m if w is None else w[0] * m + w[1] + 1
                if w is not None:
                    witnesses[(lk, rk)] = w
        for pairs in (nl_pairs, cj_pairs):
            assert dict(zip(pair_keys(pairs), zip(pairs[2].tolist(), pairs[3].tolist()))) \
                == witnesses
        assert (nl_counter.smatch_comparisons, c_counter.smatch_comparisons) == (expected_nl, expected_cj)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(1, 20), min_size=1, max_size=4),
       st.integers(1, 4), st.integers(1, 8), st.sampled_from([2, 3, 16]),
       st.sampled_from(list(Metric)),
       st.sampled_from([(), (("ts", "<=", True),), (("label", "=", False),),
                        (("ts", ">", True), ("label", "!=", False))]))
def test_every_tile_size_gives_the_oracle_pairs_witnesses_and_counters(
        seed, left_sizes, right_groups, m, dim, metric, extra_specs):
    # every right group has m rows, so a tile of `rows * m` elements is a
    # band of exactly `rows` left rows
    rng = np.random.default_rng(seed)
    th = float(rng.random())
    cond = MatchCondition(metric, th)
    lg, rg = ({k: [tuple(v) for v in rng.normal(size=(n, dim))] for k, n in enumerate(sizes)}
              for sizes in (left_sizes, [m] * right_groups))
    cols = {name: tuple({k: draw(len(vs)) for k, vs in g.items()} for g in (lg, rg))
            for name, draw in (("ts", lambda n: rng.uniform(0, 3, n).tolist()),
                               ("label", lambda n: rng.choice(["person", "car"], n).tolist()))}
    offset = float(rng.uniform(-1, 1))
    specs = [(col, op, offset if shifted else 0.0) for col, op, shifted in extra_specs]
    extra = tuple(ScalarPairPredicate(col, op, col, off) for col, op, off in specs)
    oracle_extras = [(cols[col][0], op, cols[col][1], off) for col, op, off in specs]
    left, right = (arrable_of({k: {"fid": list(range(len(vs))), "fv": vs,
                                   "ts": cols["ts"][side][k], "label": cols["label"][side][k]}
                               for k, vs in g.items()})
                   for side, g in enumerate((lg, rg)))

    witnesses, expected_nl, expected_cj = {}, 0, 0
    for lk, lvs in lg.items():
        for rk, rvs in rg.items():
            w = first_witness_oracle(lvs, rvs, metric.value, cond.polarity.value, th,
                                     [(lv[lk], op, rv[rk], off) for lv, op, rv, off in oracle_extras])
            expected_nl += len(lvs) * m
            expected_cj += len(lvs) * m if w is None else w[0] * m + w[1] + 1
            if w is not None:
                witnesses[(lk, rk)] = w
    assert set(witnesses) == join_pairs_oracle(lg, rg, metric.value, cond.polarity.value, th,
                                               oracle_extras)

    scores = []
    for tile in (1, 7 * m, similarity.TILE_ELEMENTS):
        with mock.patch.object(similarity, "TILE_ELEMENTS", tile):
            for join, expected in ((nl_join, expected_nl), (cjoin, expected_cj)):
                counter = StageStats("test")
                pairs = join(left, right, cond, extra=extra, counter=counter)
                assert dict(zip(pair_keys(pairs), zip(pairs[2].tolist(), pairs[3].tolist()))) \
                    == witnesses
                assert counter.smatch_comparisons == expected
                scores.append(pairs[4].tobytes())
    assert len(set(scores)) == 1


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_cjoin_of_a_large_group_pair_stays_in_bounded_memory():
    # one 4,000 x 4,000 group pair whose first element pair matches: the
    # whole-block scan peaked at about 405 MiB here, one tile at about 40 MiB
    code = textwrap.dedent("""\
        from vaquery.engine import StageStats
        from vaquery.ingest import ObjectSpec, SynthSpec, generate
        from vaquery.operators import cjoin, r2a
        from vaquery.similarity import MatchCondition
        spec = SynthSpec(frames=1000, fv_dim=16, objects=tuple(
            ObjectSpec(oid, "person", (0.0, 0.0, 1.0, 1.0), intervals=((0, 1000),))
            for oid in range(4)))
        side = r2a(generate(spec, 1), "label", "fid")
        counter = StageStats("cjoin")
        pairs = cjoin(side, side, MatchCondition(th=0.99), counter=counter)
        with open("/proc/self/status") as fh:
            hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM"))
        print(len(side.order), len(pairs[0]), counter.smatch_comparisons, hwm // 1024)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows, pairs, comparisons, peak_mib = map(int, proc.stdout.split())
    assert (rows, pairs, comparisons) == (4000, 1, 1)
    assert peak_mib < 100


def test_joins_of_the_join_2cam_traces_match_their_golden_digest():
    # the join-2cam benchmark's seed-1 traces, joined in-process; the digest
    # covers pair keys, witnesses and the bits of witness scores, beside the
    # pair and comparison counts
    assert goldens.join_digests() == json.loads(goldens.JOINS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("dim", [3, 128, 4096])
def test_self_join_pairs_every_object_with_itself(dim):
    # equal vectors score exactly 1.0 (cosine) and 0.0 (euclidean) in every
    # join, for single-frame and multi-frame objects and at large dimension
    rng = random.Random(dim)
    groups = {k: [tuple(rng.uniform(-1, 1) for _ in range(dim)) for _ in range(1 + k % 3)]
              for k in range(40)}
    ar = _arrables_from_vec_groups(groups)
    for cond in (MatchCondition(Metric.COSINE, 1.0), MatchCondition(Metric.EUCLIDEAN, 0.0)):
        for join in (nl_join, cjoin, cct_join):
            assert set(pair_keys(join(ar, ar, cond))) == {(k, k) for k in groups}


def test_cct_join_equals_cjoin_when_first_elements_match():
    e1, e2 = (1, 0, 0), (0, 1, 0)
    left = _arrables_from_vec_groups({1: [e1, e1, e1], 2: [e2, e2]})
    right = _arrables_from_vec_groups({7: [e1, e1], 8: [e2, e2, e2]})
    cj = set(pair_keys(cjoin(left, right, COS)))
    ccj = set(pair_keys(cct_join(left, right, COS)))
    assert ccj == cj == {(1, 7), (2, 8)}


def test_cct_join_misses_mid_run_only_match():
    # the only matching left element sits mid-run: kept by cjoin, cut by cct
    probe = (1.0, 0.0, 0.0)
    off = (0.0, 1.0, 0.0)
    left = arrable_of({1: {"fid": [1, 2, 3], "fv": [off, probe, off]}})
    right = arrable_of({2: {"fid": [1], "fv": [probe]}})
    cj = set(pair_keys(cjoin(left, right, COS)))
    ccj = set(pair_keys(cct_join(left, right, COS, CctOption.BOTH)))
    assert cj == {(1, 2)}
    assert ccj == set()
    assert ccj <= cj


def test_cct_join_subset_of_cjoin_randomized():
    rng = random.Random(23)
    for _ in range(30):
        def mk():
            return {k: {"fid": sorted(rng.sample(range(20), n := rng.randint(1, 8))),
                        "fv": [(rng.uniform(0.1, 1), rng.uniform(0.1, 1)) for _ in range(n)]}
                    for k in range(rng.randint(1, 4))}
        left, right = arrable_of(mk()), arrable_of(mk())
        cond = MatchCondition(Metric.COSINE, rng.uniform(0.7, 1.0))
        cj = set(pair_keys(cjoin(left, right, cond)))
        ccj = set(pair_keys(cct_join(left, right, cond)))
        assert ccj <= cj


def test_cct_join_comparison_bound():
    # 3 runs left, 2 runs right, BOTH keeps <= 2 elements per run
    left = arrable_of({1: {"fid": [1, 2, 10, 11, 20], "fv": [(1, 0)] * 5}})
    right = arrable_of({2: {"fid": [1, 2, 3, 30], "fv": [(1, 0)] * 4}})
    counter = StageStats("test")
    cct_join(left, right, COS, counter=counter)
    runs_l = len(split_runs_oracle([1, 2, 10, 11, 20]))
    runs_r = len(split_runs_oracle([1, 2, 3, 30]))
    assert counter.smatch_comparisons <= 4 * runs_l * runs_r


def test_join_rejects_non_fv_columns():
    ar = arrable_of({1: {"fid": [1], "fv": [(1, 0)]}})
    with pytest.raises(IllegalColumnKind):
        nl_join(ar, ar, COS, on=("fid", "fid"))


def test_join_extra_scalar_predicate():
    # relative time frame: right must start at least 5 seconds after left
    left = arrable_of({1: {"fid": [0], "fv": [(1.0, 0.0)], "ts": [0.0]}})
    right = arrable_of({2: {"fid": [0], "fv": [(1.0, 0.0)], "ts": [3.0]},
                        3: {"fid": [1], "fv": [(1.0, 0.0)], "ts": [9.0]}})
    extra = (ScalarPairPredicate("ts", "<=", "ts", offset=5.0),)
    pairs = set(pair_keys(cjoin(left, right, COS, extra=extra)))
    assert pairs == {(1, 3)}


def test_hash_equi_join_label():
    left = trace_relation([(1, 1, "person", (0, 0, 1, 1), (1, 0)),
                           (2, 2, "person", (0, 0, 1, 1), (1, 0))])
    right = trace_relation([(1, 5, "person", (0, 0, 1, 1), (1, 0)),
                            (2, 6, "person", (0, 0, 1, 1), (1, 0)),
                            (3, 7, "person", (0, 0, 1, 1), (1, 0))])
    out = hash_equi_join(left, right, "label")
    assert len(out) == 6
    assert out.row_dicts()[0]["left.oid"] == 1 and out.row_dicts()[0]["right.oid"] == 5


def test_hash_equi_join_disjoint_keys():
    left = trace_relation([(1, 1, "person", (0, 0, 1, 1), (1, 0))])
    right = trace_relation([(1, 5, "car", (0, 0, 1, 1), (1, 0))])
    assert hash_equi_join(left, right, "label").row_dicts() == []


def test_hash_equi_join_rejects_feature_vectors(two_person_trace):
    with pytest.raises(IllegalColumnKind):
        hash_equi_join(two_person_trace, two_person_trace, "fv")


# --- direction ---------------------------------------------------------------------

def _single_box_arrable(first, last):
    return arrable_of({1: {"fid": [1, 2], "bb": [first, last]}})


@pytest.mark.parametrize("dx,dy,expected", [
    (0, 4, Direction8.N), (0, -4, Direction8.S),
    (4, 0, Direction8.E), (-4, 0, Direction8.W),
    (4, 4, Direction8.NE), (-4, 4, Direction8.NW),
    (4, -4, Direction8.SE), (-4, -4, Direction8.SW),
    (0, 0, Direction8.STATIONARY),
])
def test_direction_all_sign_combinations(dx, dy, expected):
    ar = _single_box_arrable((10, 20, 5, 5), (10 + dx, 20 + dy, 5, 5))
    assert direction(ar) == [(1, expected)]


def test_direction_northeast_example():
    ar = _single_box_arrable((10, 20, 30, 20), (13, 23, 29, 19))
    assert direction(ar) == [(1, Direction8.NE)]


def test_direction_north_rule():
    ar = _single_box_arrable((0, 0, 5, 5), (0, 10, 5, 5))
    assert direction(ar) == [(1, Direction8.N)]


def test_direction_uses_first_and_last_only():
    ar = arrable_of({1: {"fid": [1, 2, 3],
                         "bb": [(0, 0, 1, 1), (50, -70, 1, 1), (4, 0, 1, 1)]}})
    assert direction(ar) == [(1, Direction8.E)]


def test_direction_empty_row():
    ar = arrable_of({1: {"fid": [], "bb": []}})
    with pytest.raises(EmptyRow):
        direction(ar)


def test_direction_translation_and_scale_invariance():
    rng = random.Random(9)
    for _ in range(1000):
        x1, y1 = rng.uniform(-100, 100), rng.uniform(-100, 100)
        dx, dy = rng.choice([-3, 0, 5]), rng.choice([-2, 0, 7])
        base = direction(_single_box_arrable((x1, y1, 4, 4), (x1 + dx, y1 + dy, 4, 4)))
        tx, ty = rng.uniform(-50, 50), rng.uniform(-50, 50)
        translated = direction(_single_box_arrable(
            (x1 + tx, y1 + ty, 4, 4), (x1 + dx + tx, y1 + dy + ty, 4, 4)))
        scale = rng.uniform(0.01, 20)
        scaled = direction(_single_box_arrable(
            (x1, y1, 4, 4), (x1 + dx * scale, y1 + dy * scale, 4, 4)))
        assert base[0][1] == translated[0][1] == scaled[0][1]


def test_direction_requires_bbox_column():
    ar = arrable_of({1: {"fid": [1]}})
    with pytest.raises(IllegalColumnKind):
        direction(ar, bb_column="fid")


# --- aggregates ---------------------------------------------------------------------

def test_group_count():
    ar = arrable_of({1: {"fid": [1]}, 2: {"fid": [2]}, 3: {"fid": [9]}})
    assert group_count(ar) == 3


def test_group_count_empty():
    assert group_count(arrable_of({})) == 0


def test_disjoint_appearances_via_cct_first():
    ar = arrable_of({2: {"fid": [2, 13], "ts": [2.0, 13.0]}})
    compressed = cct(ar, CctOption.FIRST)
    assert len(compressed.values("fid")) == len(split_runs_oracle([2, 13]))
    assert len(compressed.values("fid")) == 2


def test_aggregate_functions(two_person_trace):
    assert aggregate(two_person_trace, "count", "oid") == 5
    assert aggregate(two_person_trace, "min", "fid") == 1
    assert aggregate(two_person_trace, "max", "fid") == 3
    assert aggregate(two_person_trace, "sum", "fid") == 11
    assert aggregate(two_person_trace, "avg", "fid") == pytest.approx(11 / 5)
    assert count_star(two_person_trace) == 5


def test_aggregate_arithmetic_rejected_on_vectors(two_person_trace):
    with pytest.raises(IllegalColumnKind):
        aggregate(two_person_trace, "avg", "fv")
    with pytest.raises(IllegalColumnKind):
        aggregate(two_person_trace, "sum", "bb")
