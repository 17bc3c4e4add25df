#!/usr/bin/env python3
"""Textual queries over a windowed stream, end to end."""

from vaquery.engine import EngineConfig, instantiate
from vaquery.ingest import ObjectSpec, SynthSpec, generate
from vaquery.model import TRACE_SCHEMA
from vaquery.querylang import parse, plan, render

# Four seconds of video: two people throughout, a car in the middle.
trace = generate(SynthSpec(frames=120, fps=30, fv_dim=4, objects=(
    ObjectSpec(1, "person", (0, 0, 4, 8), (1, 0), intervals=((0, 120),)),
    ObjectSpec(2, "person", (50, 0, 4, 8), (0, 1), intervals=((0, 120),)),
    ObjectSpec(3, "car", (100, 40, 9, 5), (-1, 0), intervals=((30, 90),)),
)), seed=42)
print(f"trace: {len(trace.rows)} tuples over "
      f"{trace.rows[-1]['ts'] - trace.rows[0]['ts']:.1f}s")

# Count distinct persons per disjoint one-second window.
count_query = """
Select count(*)
From
    (Select AR1.oid
     From (R2A (R1, R1.oid, R1.fid)) AR1
     Where (R1.label = "person"))
WINDOW(TIME, 1, 1)
"""
ast = parse(count_query)
print("canonical form:", render(ast))
qplan = plan(ast, {"R1": TRACE_SCHEMA})
counts, stats = instantiate(qplan).run([trace])
for row in counts:
    print("  ", row)

# Net direction of motion per object, whole stream as one window.
direction_query = ("SELECT AR1.oid, DIRECTION(AR1.[BB]) "
                   "FROM (CCT(R2A(R1, R1.oid, R1.fid), both)) AR1")
directions, _ = instantiate(plan(parse(direction_query), {"R1": TRACE_SCHEMA})).run([trace])
for row in directions:
    print("  ", {**row, "direction": row["direction"].value})

# A rate-limited feed produces identical results, just slower: the engine's
# output depends only on the plan and the trace.
cfg = EngineConfig(default_rate=800.0)
throttled, stats = instantiate(plan(parse(count_query), {"R1": TRACE_SCHEMA}), cfg).run([trace])
print("throttled run identical:", throttled == counts)
print("per-stage input counts :",
      {s.name: s.tuples_in for s in stats.stages})
