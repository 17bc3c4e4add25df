"""Accuracy, robustness, and efficiency evaluation.

Query results are scored against ground-truth files with the standard
confusion-matrix accuracy (TP+TN)/(TP+TN+FP+FN), computed in exact rational
arithmetic. For pair tasks (joins) the universe is the full cross product of
the two object sets, so unmatched-and-unreported pairs count as true
negatives; appending noise objects that neither match nor get reported
raises accuracy purely through TN growth.

Efficiency comparisons rely on the engine's comparison counters and on wall
time ratios, never absolute seconds.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import (EmptyConfusion, FormatMismatch, IndexMismatch,
                     PairOutsideUniverse)
from .operators import Direction8, JoinPair


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def accuracy(c: ConfusionCounts) -> Fraction:
    """Exact (TP+TN) / (TP+TN+FP+FN)."""
    if c.total == 0:
        raise EmptyConfusion("all four confusion counts are zero")
    return Fraction(c.tp + c.tn, c.total)


@dataclass(frozen=True)
class PairGroundTruth:
    left_universe: frozenset
    right_universe: frozenset
    positives: frozenset  # of (left, right) pairs

    def __post_init__(self) -> None:
        for l, r in self.positives:
            if l not in self.left_universe or r not in self.right_universe:
                raise PairOutsideUniverse(f"positive pair ({l!r}, {r!r}) outside the universes")

    @staticmethod
    def from_json(text: str | bytes, source: str = "pair ground truth") -> "PairGroundTruth":
        raw = _loads(text, source)
        try:
            left, right, positives = raw["left_universe"], raw["right_universe"], raw["positives"]
        except (KeyError, TypeError) as exc:
            raise FormatMismatch(f"bad pair ground-truth file: {exc}") from None
        for name, ids in (("left_universe", left), ("right_universe", right)):
            if not _id_array(ids):
                raise FormatMismatch(f"{source} {name} must be an array of strings or integers")
        if type(positives) is not list or not all(_id_array(p) and len(p) == 2 for p in positives):
            raise FormatMismatch(f"{source} positives must be an array of [left, right] arrays")
        return PairGroundTruth(frozenset(left), frozenset(right), frozenset(map(tuple, positives)))

    def to_json(self) -> str:
        return json.dumps({
            "left_universe": sorted(self.left_universe, key=_id_order),
            "right_universe": sorted(self.right_universe, key=_id_order),
            "positives": sorted(map(list, self.positives), key=lambda p: [*map(_id_order, p)]),
        })


def _id_order(value: str | int) -> tuple[bool, str | int]:
    """Sort key for object ids: integers first, then strings, each in their own order."""
    return isinstance(value, str), value


def _id_array(value) -> bool:
    """Whether a JSON value is an array of object ids: strings or integers."""
    return type(value) is list and {type(v) for v in value} <= {str, int}


def confusion_pairs(result: Iterable[JoinPair | tuple], gt: PairGroundTruth) -> ConfusionCounts:
    """Score emitted object pairs against the positive-pair ground truth."""
    emitted = set()
    for item in result:
        pair = item.key() if isinstance(item, JoinPair) else (item[0], item[1])
        if pair[0] not in gt.left_universe or pair[1] not in gt.right_universe:
            raise PairOutsideUniverse(f"result pair {pair!r} outside the universes")
        emitted.add(pair)
    tp = len(emitted & gt.positives)
    fp = len(emitted - gt.positives)
    fn = len(gt.positives - emitted)
    tn = len(gt.left_universe) * len(gt.right_universe) - tp - fp - fn
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def count_eval(predicted: Sequence[int], truth: Sequence[int]) -> Fraction:
    """Per-window exact-match accuracy of predicted counts."""
    if len(predicted) != len(truth):
        raise IndexMismatch(f"{len(predicted)} predicted windows vs {len(truth)} truth windows")
    if not truth:
        raise EmptyConfusion("no windows to score")
    hits = sum(1 for p, t in zip(predicted, truth) if p == t)
    return Fraction(hits, len(truth))


def direction_eval(predicted: Mapping[Any, Direction8 | str],
                   truth: Mapping[Any, Direction8 | str]) -> Fraction:
    """Per-object exact-match accuracy of predicted directions."""
    if set(predicted) != set(truth):
        missing = set(truth) ^ set(predicted)
        raise IndexMismatch(f"object ids differ between prediction and truth: {sorted(missing)}")
    if not truth:
        raise EmptyConfusion("no objects to score")

    def norm(v) -> str:
        return v.value if isinstance(v, Direction8) else str(v)

    hits = sum(1 for k in truth if norm(predicted[k]) == norm(truth[k]))
    return Fraction(hits, len(truth))


@dataclass(frozen=True)
class AccuracyReport:
    task: str  # pairs | count | direction
    counts: ConfusionCounts | None
    accuracy: Fraction
    variant: str = "vce"  # which ground truth was supplied

    def percent(self) -> str:
        value = float(self.accuracy) * 100.0
        text = f"{value:.10g}"
        return f"{text}%"

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"task": self.task, "variant": self.variant,
                               "accuracy": float(self.accuracy),
                               "accuracy_exact": f"{self.accuracy.numerator}/{self.accuracy.denominator}",
                               "accuracy_percent": self.percent()}
        if self.counts is not None:
            out["counts"] = {"tp": self.counts.tp, "tn": self.counts.tn,
                             "fp": self.counts.fp, "fn": self.counts.fn}
        return out

    def to_text(self) -> str:
        lines = [f"task      {self.task}",
                 f"variant   {self.variant}",
                 f"accuracy  {self.percent()}"]
        if self.counts is not None:
            c = self.counts
            lines.append(f"counts    TP={c.tp} FP={c.fp} FN={c.fn} TN={c.tn}")
        return "\n".join(lines)


@dataclass(frozen=True)
class BenchRow:
    variant: str
    trace_size: int
    wall_seconds: float
    smatch_comparisons: int


def bench(variants: Mapping[str, Callable[[], int]], trace_size: int,
          repetitions: int = 3) -> list[BenchRow]:
    """Time callables that each run one query variant and return its
    comparison count; wall time is the median over repetitions."""
    rows = []
    for name, fn in variants.items():
        times = []
        comparisons = 0
        for _ in range(max(1, repetitions)):
            started = time.perf_counter()
            comparisons = fn()
            times.append(time.perf_counter() - started)
        rows.append(BenchRow(name, trace_size, statistics.median(times), comparisons))
    return rows


def bench_table(rows: Sequence[BenchRow]) -> str:
    header = f"{'variant':<12} {'tuples':>8} {'wall_s':>10} {'comparisons':>12}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(f"{r.variant:<12} {r.trace_size:>8} {r.wall_seconds:>10.4f} "
                     f"{r.smatch_comparisons:>12}")
    return "\n".join(lines)


# ground-truth file loaders; ``source`` names the file in their errors


def _loads(text: str | bytes, source: str) -> Any:
    try:
        return json.loads(text)
    except ValueError as exc:  # also text that is not UTF-8
        raise FormatMismatch(f"{source} is not JSON: {exc}") from None


def load_count_gt(text: str | bytes, source: str = "count ground truth") -> list[int]:
    """Per-window expected counts as JSON integers: a list, or {"windows": {"0": n, ...}}."""
    raw = _loads(text, source)
    if isinstance(raw, dict) and "windows" in raw:
        windows = raw["windows"]
        if not isinstance(windows, dict):
            raise FormatMismatch(f"{source} windows must map window indices to counts")
        try:
            raw = [windows[str(i)] for i in range(len(windows))]
        except KeyError as exc:
            raise FormatMismatch(f"window indices must be contiguous from 0: missing {exc}") from None
    if not isinstance(raw, list):
        raise FormatMismatch("count ground truth must be a list or {'windows': {...}}")
    for value in raw:
        if type(value) is not int:  # bool is an int subclass
            raise FormatMismatch(f"{source} must hold integer counts, got {value!r}")
    return raw


def load_direction_gt(text: str | bytes, source: str = "direction ground truth") -> dict[str, str]:
    """Per-object expected directions: JSON object id -> direction name."""
    raw = _loads(text, source)
    if not isinstance(raw, dict):
        raise FormatMismatch("direction ground truth must be an object id -> direction map")
    for oid, name in raw.items():
        if type(name) is not str:
            raise FormatMismatch(f"{source} direction of object {oid} must be a string, "
                                 f"got {name!r}")
    return raw
