#!/usr/bin/env python3
"""Detection traces, grouped representation, and consecutive compression."""

from vaquery import TRACE_SCHEMA, CctOption, Relation, cct, group_count, r2a

# A trace holds one row per detected object per frame, stored as one column
# per attribute. Object 1 is visible in frames 1..11; object 2 shows up in
# frame 2, disappears, and returns in frame 13 (two disjoint appearances).
detections = sorted([(fid, 1, (10 + fid, 20, 30, 20), (1.0, 0.0)) for fid in range(1, 12)]
                    + [(fid, 2, (30, 50, 8, 4), (0.0, 1.0)) for fid in (2, 13)])
fid, oid, bb, fv = zip(*detections)
rel = Relation.from_columns(TRACE_SCHEMA, {
    "fid": fid, "oid": oid, "label": ["person"] * len(fid), "bb": bb, "fv": fv,
    "ts": [f / 30 for f in fid]})
print(f"trace: {len(rel)} rows")


def fids_per_object(ar):
    """Each group's frame ids: the group's slice of the element column."""
    fids, bounds = ar.column("fid").tolist(), ar.offsets.tolist()
    return {key: fids[lo:hi] for key, lo, hi in zip(ar.keys.tolist(), bounds, bounds[1:])}


# Group on object id, order by frame id: one group per object, with the frame
# ids (and every other column) as parallel ordered vectors.
ar = r2a(rel, gba="oid", aoa="fid")
print(f"grouped: {group_count(ar)} objects")
for key, fids in fids_per_object(ar).items():
    print(f"  oid={key}: fids={fids}")

# Compressing consecutive appearances keeps one or two frames per visit.
for option in (CctOption.FIRST, CctOption.LAST, CctOption.BOTH):
    print(f"cct {option.value:>5}: {fids_per_object(cct(ar, option))}")

# Note oid=2 keeps both of its frames under FIRST: its appearances are
# disjoint visits and each visit is counted separately.
