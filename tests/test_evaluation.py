import json
from fractions import Fraction

import pytest

from oracles import confusion_oracle
from vaquery.errors import (EmptyConfusion, FormatMismatch, IndexMismatch,
                            PairOutsideUniverse)
from vaquery.evaluation import (AccuracyReport, BenchRow, ConfusionCounts,
                                PairGroundTruth, accuracy, bench, bench_table,
                                confusion_pairs, count_eval, direction_eval,
                                load_count_gt, load_direction_gt)
from vaquery.operators import Direction8, JoinPair


def pair(l, r):
    return JoinPair(l, r, 0, 0, 1.0)


def test_accuracy_golden_robustness_values():
    # these must be exact, not approximate
    assert accuracy(ConfusionCounts(tp=1, fp=2, fn=1, tn=11)) == Fraction(4, 5)
    assert float(accuracy(ConfusionCounts(tp=1, fp=2, fn=1, tn=11))) == 0.80
    assert accuracy(ConfusionCounts(tp=1, fp=2, fn=1, tn=4)) == Fraction(5, 8)
    assert float(accuracy(ConfusionCounts(tp=1, fp=2, fn=1, tn=4))) == 0.625
    assert accuracy(ConfusionCounts(tp=4, fp=0, fn=0, tn=12)) == Fraction(1, 1)


def test_accuracy_empty_confusion():
    with pytest.raises(EmptyConfusion) as exc:
        accuracy(ConfusionCounts(0, 0, 0, 0))
    assert exc.value.code == "EMPTY_CONFUSION"


def test_accuracy_symmetry_under_swap():
    import random
    rng = random.Random(5)
    for _ in range(200):
        tp, tn, fp, fn = (rng.randint(0, 20) for _ in range(4))
        if tp + tn + fp + fn == 0:
            continue
        a = accuracy(ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn))
        b = accuracy(ConfusionCounts(tp=tn, tn=tp, fp=fn, fn=fp))
        assert a == b


def test_confusion_pairs_against_set_oracle():
    gt = PairGroundTruth(frozenset({"O1", "O2", "O3", "O5"}), frozenset({"O1", "O3"}),
                         frozenset({("O1", "O1"), ("O3", "O3")}))
    result = [pair("O1", "O1"), pair("O3", "O3")]
    counts = confusion_pairs(result, gt)
    emitted = {("O1", "O1"), ("O3", "O3")}
    tp, tn, fp, fn = confusion_oracle(emitted, set(gt.positives),
                                      set(gt.left_universe), set(gt.right_universe))
    assert (counts.tp, counts.tn, counts.fp, counts.fn) == (tp, tn, fp, fn) == (2, 6, 0, 0)
    assert accuracy(counts) == 1


def test_confusion_counts_sum_to_universe_product():
    gt = PairGroundTruth(frozenset(range(4)), frozenset(range(4)),
                         frozenset({(0, 0)}))
    counts = confusion_pairs([], gt)
    assert counts.total == 16
    assert (counts.fn, counts.tn) == (1, 15)


def test_confusion_full_result_no_positives():
    universe = [(l, r) for l in range(3) for r in range(2)]
    gt = PairGroundTruth(frozenset(range(3)), frozenset(range(2)), frozenset())
    counts = confusion_pairs([pair(l, r) for l, r in universe], gt)
    assert counts.fp == 6 and accuracy(counts) == 0


def test_confusion_pair_outside_universe():
    gt = PairGroundTruth(frozenset({1}), frozenset({2}), frozenset())
    with pytest.raises(PairOutsideUniverse):
        confusion_pairs([pair(9, 2)], gt)


def test_ground_truth_positive_outside_universe():
    with pytest.raises(PairOutsideUniverse):
        PairGroundTruth(frozenset({1}), frozenset({2}), frozenset({(1, 3)}))


def test_robustness_law_noise_grows_tn_only():
    # adding unmatched objects to both universes leaves tp/fp/fn unchanged
    base = PairGroundTruth(frozenset({"O1", "O2", "O3", "O5"}), frozenset({"O1", "O3"}),
                           frozenset({("O1", "O1"), ("O3", "O3")}))
    emitted = [pair("O1", "O1"), pair("O2", "O1"), pair("O5", "O3")]
    counts = confusion_pairs(emitted, base)
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 2, 1, 4)
    assert accuracy(counts) == Fraction(5, 8)

    grown = PairGroundTruth(base.left_universe | {"O6"}, base.right_universe | {"O7"},
                            base.positives)
    counts2 = confusion_pairs(emitted, grown)
    assert (counts2.tp, counts2.fp, counts2.fn) == (counts.tp, counts.fp, counts.fn)
    assert counts2.tn == counts.tn + (5 * 3 - 4 * 2)
    assert counts2.tn == 11
    assert accuracy(counts2) == Fraction(4, 5)


def test_pair_ground_truth_json_roundtrip():
    gt = PairGroundTruth(frozenset({1, 2}), frozenset({3}), frozenset({(1, 3)}))
    back = PairGroundTruth.from_json(gt.to_json())
    assert back.positives == {(1, 3)}
    assert gt.to_json() == '{"left_universe": [1, 2], "right_universe": [3], "positives": [[1, 3]]}'
    # ids may mix integers and strings
    mixed = PairGroundTruth(frozenset({"a", 2, 1}), frozenset({"b", 3}),
                            frozenset({(1, 3), ("a", "b"), ("a", 3)}))
    assert PairGroundTruth.from_json(mixed.to_json()) == mixed
    assert json.loads(mixed.to_json())["positives"] == [[1, 3], ["a", 3], ["a", "b"]]


def test_pair_ground_truth_bad_json():
    with pytest.raises(FormatMismatch):
        PairGroundTruth.from_json('{"left_universe": [1]}')


def test_count_eval():
    assert count_eval([3, 2], [3, 2]) == 1
    assert count_eval([3, 2], [3, 1]) == Fraction(1, 2)
    with pytest.raises(IndexMismatch):
        count_eval([3], [3, 1])
    with pytest.raises(EmptyConfusion):
        count_eval([], [])


def test_direction_eval():
    assert direction_eval({1: Direction8.NE}, {1: "NE"}) == 1
    assert direction_eval({1: "NE", 2: "S"}, {1: "NE", 2: "N"}) == Fraction(1, 2)
    with pytest.raises(IndexMismatch):
        direction_eval({1: "NE"}, {2: "NE"})


def test_accuracy_report_outputs():
    counts = ConfusionCounts(tp=1, fp=2, fn=1, tn=11)
    report = AccuracyReport("pairs", counts, accuracy(counts))
    assert report.percent() == "80%"
    d = report.to_dict()
    assert d["accuracy"] == 0.8 and d["accuracy_exact"] == "4/5"
    assert "TP=1" in report.to_text()


def test_bench_rows_and_table():
    calls = {"a": 0}

    def variant_a():
        calls["a"] += 1
        return 100

    rows = bench({"a": variant_a, "b": lambda: 10}, trace_size=50, repetitions=3)
    assert calls["a"] == 3
    assert [r.variant for r in rows] == ["a", "b"]
    assert rows[0].smatch_comparisons == 100
    table = bench_table(rows)
    assert "variant" in table and "a" in table


def test_count_gt_loader():
    assert load_count_gt("[3, 2, 1]") == [3, 2, 1]
    assert load_count_gt('{"windows": {"0": 5, "1": 6}}') == [5, 6]
    with pytest.raises(FormatMismatch):
        load_count_gt('{"windows": {"1": 5}}')
    with pytest.raises(FormatMismatch):
        load_count_gt('"nope"')


def test_direction_gt_loader():
    assert load_direction_gt('{"1": "NE"}') == {"1": "NE"}
    with pytest.raises(FormatMismatch):
        load_direction_gt("[1]")
