#!/usr/bin/env python3
"""Matching feature vectors across two traces: the three join flavors."""

from vaquery import MatchCondition, Metric, cct_join, cjoin, nl_join, r2a, smatch
from vaquery.engine import StageStats
from vaquery.ingest import ObjectSpec, SynthSpec, generate

# Feature vectors are compared with bounded metrics, not equality.
a, b = [1.0, 0.2, 0.0], [0.9, 0.3, 0.1]
print(f"cosine similarity  : {smatch(MatchCondition(Metric.COSINE), a, b)[1]:.4f}")
print(f"euclidean (unit)   : {smatch(MatchCondition(Metric.EUCLIDEAN), a, b)[1]:.4f}")

# Two synthetic cameras seeing the same two people (same base features,
# small per-frame noise) plus one stranger each.
def camera(seed, stranger_fv):
    return generate(SynthSpec(frames=60, fps=30, fv_dim=8, objects=(
        ObjectSpec(1, "person", (0, 0, 4, 8), (1, 0),
                   base_fv=(1, 0, 0, 0, 0, 0, 0, 0), noise=0.02,
                   intervals=((0, 60),)),
        ObjectSpec(2, "person", (60, 0, 4, 8), (-1, 0),
                   base_fv=(0, 1, 0, 0, 0, 0, 0, 0), noise=0.02,
                   intervals=((0, 60),)),
        ObjectSpec(3, "person", (30, 30, 4, 8), (0, 1),
                   base_fv=stranger_fv, noise=0.02, intervals=((0, 60),)),
    )), seed)

entry = r2a(camera(1, (0, 0, 1, 0, 0, 0, 0, 0)), "oid", "fid")
exit_ = r2a(camera(2, (0, 0, 0, 1, 0, 0, 0, 0)), "oid", "fid")
cond = MatchCondition(Metric.COSINE, 0.9)

# All three joins find the same people; they differ in how much work the
# match costs and (for the compressed join) which frames can witness it.
for name, join in (("join", nl_join), ("cjoin", cjoin), ("cctjoin", cct_join)):
    counter = StageStats(name)  # a plan node's stats count its comparisons
    left_key, right_key, _, _, _ = join(entry, exit_, cond, counter=counter)
    matched = sorted(zip(left_key.tolist(), right_key.tolist()))
    print(f"{name:8} pairs={matched}  comparisons={counter.smatch_comparisons}")

# The exhaustive join compares every frame of every object pair; cjoin stops
# a pair at its first hit; cctjoin only looks at each visit's first and last
# frames.
