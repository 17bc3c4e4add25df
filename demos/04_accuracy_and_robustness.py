#!/usr/bin/env python3
"""Scoring join results against ground truth, and why noise raises accuracy."""

from vaquery import MatchCondition, Metric, cjoin, r2a
from vaquery.evaluation import (AccuracyReport, PairGroundTruth, accuracy,
                                confusion_pairs)
from vaquery.ingest import ObjectSpec, SynthSpec, concat_traces, generate


def hot(i):
    return tuple(1.0 if d == i else 0.0 for d in range(8))


def blend(i, j, w):
    return tuple(a + w * b for a, b in zip(hot(i), hot(j)))


# An entry camera sees four people; the exit camera sees two of them. Object
# 2's features drift toward object 1's (a lookalike) and object 5's toward
# the exit-side features of object 3, so the join will raise false alarms;
# object 3 changed appearance and will be missed.
entry = generate(SynthSpec(frames=10, fps=30, fv_dim=8, objects=(
    ObjectSpec(1, "person", (0, 0, 2, 4), base_fv=hot(0), intervals=((0, 10),)),
    ObjectSpec(2, "person", (9, 0, 2, 4), base_fv=blend(0, 3, 0.3), intervals=((0, 10),)),
    ObjectSpec(3, "person", (18, 0, 2, 4), base_fv=hot(1), intervals=((0, 10),)),
    ObjectSpec(5, "person", (27, 0, 2, 4), base_fv=blend(2, 3, 0.3), intervals=((0, 10),)),
)), seed=1)
exit_ = generate(SynthSpec(frames=10, fps=30, fv_dim=8, objects=(
    ObjectSpec(1, "person", (0, 9, 2, 4), base_fv=hot(0), intervals=((0, 10),)),
    ObjectSpec(3, "person", (9, 9, 2, 4), base_fv=hot(2), intervals=((0, 10),)),
)), seed=2)

cond = MatchCondition(Metric.COSINE, 0.85)
left_key, right_key, _, _, _ = cjoin(r2a(entry, "oid", "fid"), r2a(exit_, "oid", "fid"), cond)
pairs = list(zip(left_key.tolist(), right_key.tolist()))
print("emitted pairs:", sorted(pairs))

gt = PairGroundTruth(frozenset({1, 2, 3, 5}), frozenset({1, 3}),
                     frozenset({(1, 1), (3, 3)}))
counts = confusion_pairs(pairs, gt)
report = AccuracyReport("pairs", counts, accuracy(counts))
print(report.to_text())

# Append unrelated footage to both cameras. The new objects match nothing,
# so every count stays put while the pair universe grows: all the new pairs
# are true negatives, and the accuracy figure improves on its own.
noise_a = generate(SynthSpec(frames=6, fps=30, fv_dim=8, objects=(
    ObjectSpec(0, "person", (50, 0, 2, 4), base_fv=hot(4), intervals=((0, 6),)),)), 3)
noise_b = generate(SynthSpec(frames=6, fps=30, fv_dim=8, objects=(
    ObjectSpec(0, "person", (50, 9, 2, 4), base_fv=hot(5), intervals=((0, 6),)),)), 4)
entry2 = concat_traces(entry, noise_a, oid_offset=6)
exit2 = concat_traces(exit_, noise_b, oid_offset=7)

left_key, right_key, _, _, _ = cjoin(r2a(entry2, "oid", "fid"), r2a(exit2, "oid", "fid"), cond)
pairs2 = zip(left_key.tolist(), right_key.tolist())
gt2 = PairGroundTruth(gt.left_universe | {6}, gt.right_universe | {7}, gt.positives)
counts2 = confusion_pairs(pairs2, gt2)
print()
print(AccuracyReport("pairs", counts2, accuracy(counts2)).to_text())
print("\nsame detections, larger universe: accuracy moved from "
      f"{float(accuracy(counts)):.3f} to {float(accuracy(counts2)):.3f}")
