"""The benchmark's workloads: generator specs, query texts and reference checks.

Every workload is a fixed generator shape plus a seed. The seed drives the
object bases, the placement of each visit and the per-frame noise; the
shape (object counts, visit lengths, feature dimension) is fixed, so every
seed gives the same number of tuples and the same amount of similarity work.

The expected result of each query is computed here from the generator spec
alone, never with vaquery's operators, so a fault in an operator cannot make
its own output look right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from vaquery import evaluation, ingest

#: Frames per second of every generated trace. A power of two keeps every
#: timestamp ``fid / FPS`` and every time-window bound exact in binary, so
#: the reference decides window membership exactly as the program does.
FPS = 8.0
#: Smallest gap between two visits of one object, in frames. Any gap of at
#: least one missing frame splits a CCT run.
MIN_GAP = 8
#: Per-frame feature noise (standard deviation per component). Small enough
#: that every frame of an object stays above sMatch(0.95) against its base.
NOISE = 0.02
THRESHOLD = 0.95


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple[ingest.SynthSpec, ...]  # one per trace, in source order
    query: str
    reference: Any  # shape depends on the workload, see ``check``

    @property
    def tuples(self) -> int:
        return sum(_visit_frames(o) for s in self.specs for o in s.objects)


def _visit_frames(obj: ingest.ObjectSpec) -> int:
    return sum(hi - lo for lo, hi in obj.intervals)


def _visits(rng: np.random.Generator, frames: int,
            lengths: list[int]) -> tuple[tuple[int, int], ...]:
    """Place visits of the given lengths, in random order, disjoint and at
    least ``MIN_GAP`` frames apart, at random offsets inside ``[0, frames)``."""
    order = [lengths[i] for i in rng.permutation(len(lengths))]
    slack = frames - sum(order) - MIN_GAP * (len(order) - 1)
    if slack < 0:
        raise ValueError(f"{len(order)} visits of {sum(order)} frames do not fit in {frames}")
    cuts = np.sort(rng.integers(0, slack + 1, size=len(order)))
    intervals = []
    pos = 0
    prev_cut = 0
    for length, cut in zip(order, cuts):
        pos += int(cut) - prev_cut
        prev_cut = int(cut)
        intervals.append((pos, pos + length))
        pos += length + MIN_GAP
    return tuple(intervals)


def _object(rng: np.random.Generator, oid: int, label: str, base: np.ndarray,
            intervals: tuple[tuple[int, int], ...]) -> ingest.ObjectSpec:
    x, y = rng.uniform(0.0, 1000.0, size=2)
    w, h = rng.uniform(20.0, 120.0, size=2)
    vx, vy = rng.uniform(-0.5, 0.5, size=2)
    return ingest.ObjectSpec(oid=oid, label=label, start_bb=(x, y, w, h),
                             velocity=(vx, vy), base_fv=tuple(base.tolist()),
                             noise=NOISE, intervals=intervals)


def _bases(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    # four decimals keep probe literals short; the rounding is part of the spec
    return rng.uniform(0.1, 1.0, size=(n, dim)).round(4)


def _vector_literal(values) -> str:
    return "[" + ", ".join(repr(float(v)) for v in values) + "]"


# --- join-2cam ---------------------------------------------------------------

JOIN_FRAMES = 1200
JOIN_SHARED = 28      # identities seen by both cameras
JOIN_ONLY = 14        # identities seen by one camera only, per camera
JOIN_VISITS = [12, 20, 28]  # frames per visit; every object leaves and comes back
JOIN_RIGHT_OID = 1000

JOIN_QUERY = ("SELECT AR1.oid, AR2.oid FROM (R2A(R1, R1.oid, R1.fid)) AR1 "
              "CJOIN (R2A(R2, R2.oid, R2.fid)) AR2 "
              f"ON AR1.[FV] sMatch({THRESHOLD}) AR2.[FV]")


def join_2cam(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    n_per_cam = JOIN_SHARED + JOIN_ONLY
    bases = _bases(rng, JOIN_SHARED + 2 * JOIN_ONLY, 128)
    left_ids = list(range(n_per_cam))
    right_ids = [int(b) for b in rng.permutation(JOIN_SHARED)] \
        + list(range(n_per_cam, n_per_cam + JOIN_ONLY))
    left = tuple(_object(rng, i + 1, "person", bases[b], _visits(rng, JOIN_FRAMES, JOIN_VISITS))
                 for i, b in enumerate(left_ids))
    right = tuple(_object(rng, JOIN_RIGHT_OID + i + 1, "person", bases[b],
                          _visits(rng, JOIN_FRAMES, JOIN_VISITS))
                  for i, b in enumerate(right_ids))
    by_base = {b: o.oid for b, o in zip(left_ids, left)}
    positives = frozenset((by_base[b], o.oid) for b, o in zip(right_ids, right) if b in by_base)
    truth = evaluation.PairGroundTruth(frozenset(o.oid for o in left),
                                       frozenset(o.oid for o in right), positives)
    specs = tuple(ingest.SynthSpec(frames=JOIN_FRAMES, fps=FPS, fv_dim=128, objects=objs)
                  for objs in (left, right))
    return Workload("join-2cam", specs, JOIN_QUERY, truth)


def check_join(rows: list[dict], truth: evaluation.PairGroundTruth) -> bool:
    """Exactly the shared-identity pairs, each once, in the single window."""
    try:
        pairs = [(r["AR1.oid"], r["AR2.oid"]) for r in rows]
        counts = evaluation.confusion_pairs(pairs, truth)
    except (KeyError, TypeError, evaluation.PairOutsideUniverse):
        return False
    return (counts.fp == 0 and counts.fn == 0 and len(set(pairs)) == len(pairs)
            and all(r.get("window") == 0 for r in rows))


# --- count-rolling -----------------------------------------------------------

COUNT_FRAMES = 3200
COUNT_PERSONS = 40
COUNT_CARS = 30
COUNT_VISITS = [24, 40, 72, 120]
COUNT_WINDOW = (20.0, 5.0)  # seconds: size, hop

# count(fid) after CCT(first) counts one element per run, i.e. per visit
COUNT_QUERY = ("SELECT count(fid) FROM (CCT(R2A(R1, R1.oid, R1.fid), first)) AR1 "
               'WHERE (R1.label = "person") '
               f"WINDOW(TIME, {COUNT_WINDOW[0]:g}, {COUNT_WINDOW[1]:g})")


def count_rolling(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    n = COUNT_PERSONS + COUNT_CARS
    bases = _bases(rng, n, 16)
    labels = ["person"] * COUNT_PERSONS + ["car"] * COUNT_CARS
    objects = tuple(_object(rng, i + 1, labels[i], bases[i],
                            _visits(rng, COUNT_FRAMES, COUNT_VISITS))
                    for i in rng.permutation(n).tolist())
    spec = ingest.SynthSpec(frames=COUNT_FRAMES, fps=FPS, fv_dim=16, objects=objects)
    return Workload("count-rolling", (spec,), COUNT_QUERY, rolling_visit_counts(spec))


def rolling_visit_counts(spec: ingest.SynthSpec) -> list[int]:
    """Person visits meeting each rolling window, for every window emitted.

    Windows start at the first timestamp and step by the hop; the program
    emits every window up to the last one holding a tuple, the partial ones
    at the end of the stream included.
    """
    size, hop = COUNT_WINDOW
    first = min(lo for o in spec.objects for lo, _ in o.intervals) / spec.fps
    last = max(hi - 1 for o in spec.objects for _, hi in o.intervals) / spec.fps
    n_windows = math.floor((last - first) / hop) + 1
    counts = [0] * n_windows
    for obj in spec.objects:
        if obj.label != "person":
            continue
        for lo, hi in obj.intervals:
            t_lo, t_hi = lo / spec.fps, (hi - 1) / spec.fps
            for w in range(n_windows):
                start = first + w * hop
                if t_lo < start + size and t_hi >= start:
                    counts[w] += 1
    return counts


def check_count(rows: list[dict], expected: list[int]) -> bool:
    got = [(r.get("window"), r.get("count(fid)")) for r in rows]
    return got == list(enumerate(expected))


# --- search-probe ------------------------------------------------------------

SEARCH_FRAMES = 1600
SEARCH_OBJECTS = 24
SEARCH_PROBES = 4
SEARCH_VISITS = [30, 60, 90]
SEARCH_WINDOW = 2000  # tuples


def search_probe(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    bases = _bases(rng, SEARCH_OBJECTS, 128)
    labels = ["person", "car"]
    objects = tuple(_object(rng, i + 1, labels[i % 2], bases[i],
                            _visits(rng, SEARCH_FRAMES, SEARCH_VISITS))
                    for i in range(SEARCH_OBJECTS))
    probed = [int(i) for i in rng.choice(SEARCH_OBJECTS, size=SEARCH_PROBES, replace=False)]
    where = " OR ".join(f"[FV] SMATCH({THRESHOLD}) {_vector_literal(bases[i])}" for i in probed)
    query = (f"SELECT fid, oid FROM R1 WHERE {where} "
             f"WINDOW(TUPLE, {SEARCH_WINDOW}, {SEARCH_WINDOW})")
    spec = ingest.SynthSpec(frames=SEARCH_FRAMES, fps=FPS, fv_dim=128, objects=objects)
    return Workload("search-probe", (spec,), query,
                    probe_rows(spec, {objects[i].oid for i in probed}))


def probe_rows(spec: ingest.SynthSpec, probed: set[int]) -> list[dict]:
    """``(window, fid, oid)`` of every tuple of a probed object, in trace order.

    The trace is in (fid, oid) order, and a tuple window holds consecutive
    ordinals, so a tuple's window is its ordinal divided by the window size.
    """
    keys = sorted((fid, o.oid) for o in spec.objects
                  for lo, hi in o.intervals for fid in range(lo, hi))
    return [{"window": ordinal // SEARCH_WINDOW, "fid": fid, "oid": oid}
            for ordinal, (fid, oid) in enumerate(keys) if oid in probed]


def check_search(rows: list[dict], expected: list[dict]) -> bool:
    return rows == expected


FACTORIES = {"join-2cam": join_2cam, "count-rolling": count_rolling,
            "search-probe": search_probe}
CHECKS = {"join-2cam": check_join, "count-rolling": check_count,
          "search-probe": check_search}


def build(name: str, seed: int) -> Workload:
    return FACTORIES[name](seed)


def check(workload: Workload, rows: list[dict]) -> bool:
    """True when ``rows`` (the parsed results file) equal the reference."""
    return CHECKS[workload.name](rows, workload.reference)
