"""Accuracy, robustness, and efficiency evaluation.

Query results are scored against ground-truth files by one rule, :func:`evaluate`,
with the standard confusion-matrix accuracy (TP+TN)/(TP+TN+FP+FN) in exact
rational arithmetic. For pair tasks (joins) the universe is the full cross
product of the two object sets, so unmatched-and-unreported pairs count as
true negatives; appending noise objects that neither match nor get reported
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

from .errors import (EmptyConfusion, FormatMismatch, IndexMismatch, PairOutsideUniverse,
                     json_field, json_type, load_json)


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


_IDS = "array of string or integer"  # the JSON type of a list of object ids


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
        raw = load_json(text, FormatMismatch, source, "object")
        left, right = (json_field(raw, key, _IDS, FormatMismatch, source)
                       for key in ("left_universe", "right_universe"))
        positives = json_field(raw, "positives", f"array of {_IDS}", FormatMismatch, source)
        for i, pair in enumerate(positives):
            if len(pair) != 2:
                raise FormatMismatch(f"{source} positives[{i}] must be a [left, right] pair, "
                                     f"got {pair}")
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


def confusion_pairs(result: Iterable[tuple], gt: PairGroundTruth) -> ConfusionCounts:
    """Score emitted (left, right) object pairs against the positive-pair ground truth."""
    emitted = set()
    for left, right in result:
        if left not in gt.left_universe or right not in gt.right_universe:
            raise PairOutsideUniverse(f"result pair {(left, right)!r} outside the universes")
        emitted.add((left, right))
    tp = len(emitted & gt.positives)
    fp = len(emitted - gt.positives)
    fn = len(gt.positives - emitted)
    tn = len(gt.left_universe) * len(gt.right_universe) - tp - fp - fn
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def exact_match(predicted: Mapping, truth: Mapping, noun: str = "key") -> Fraction:
    """Share of the truth's keys whose result value equals the truth's. A result key
    that the truth lacks is an ``INDEX_MISMATCH``; a truth key without a result
    scores as a miss. ``noun`` names a key in errors."""
    for key in predicted:
        if key not in truth:
            raise IndexMismatch(f"result {noun} {key!r} is not in the ground truth")
    if not truth:
        raise EmptyConfusion(f"no {noun}s to score")
    hits = sum(1 for key, value in truth.items() if key in predicted and predicted[key] == value)
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


def load_count_gt(text: str | bytes, source: str = "count ground truth") -> dict[int, int]:
    """Per-window expected counts as JSON integers: a list, or {"windows": {"0": n, ...}}."""
    raw = load_json(text, FormatMismatch, source, "array or object")
    if type(raw) is dict:
        windows = json_field(raw, "windows", "object", FormatMismatch, source)
        return {i: json_field(windows, str(i), "integer", FormatMismatch, f"{source} windows")
                for i in range(len(windows))}
    return dict(enumerate(json_type(raw, "array of integer", FormatMismatch, source)))


def load_direction_gt(text: str | bytes, source: str = "direction ground truth") -> dict[str, str]:
    """Expected direction per object over the whole stream: JSON object id -> direction name."""
    raw = load_json(text, FormatMismatch, source, "object")
    for oid, name in raw.items():
        json_type(name, "string", FormatMismatch, f"{source} direction of object {oid}")
    return raw


#: Per task: the number of id columns, the value column, and how a refusal words them.
_COLUMNS = {"pairs": (2, None, "a window and two result columns as ids"),
            "count": (0, "count", "a window and a count or count(<column>) column"),
            "direction": (1, "direction", "a window, one result column as id, and direction")}


def keyed_results(rows: Iterable[Mapping[str, Any]], task: str) -> dict[tuple, Any]:
    """Result rows as a mapping from ``(window, *ids)`` to each row's value. The ids
    are a row's first columns, in its own order, other than ``window`` and the
    value column. A key listed twice is an ``INDEX_MISMATCH``."""
    n_ids, value_column, wording = _COLUMNS[task]
    keyed: dict[tuple, Any] = {}
    for row in rows:
        value = value_column
        if value == "count":  # a count of a column is named count(<column>)
            value = next((k for k in row if k.startswith("count(")), value)
        key = ["window", *[k for k in row if k not in ("window", value)][:n_ids]]
        if len(key) <= n_ids or not all(k in row and not isinstance(row[k], (list, dict))
                                        for k in [*key, value] if k is not None):
            raise FormatMismatch(f"a {task} result row needs {wording}, none of them an "
                                 f"array or object; it has {list(row)}")
        window, *ids = key = tuple(row[k] for k in key)
        if key in keyed:
            listed = f" with ids {', '.join(map(repr, ids))}" if ids else ""
            raise IndexMismatch(f"result window {window!r}{listed} is listed twice")
        keyed[key] = row.get(value)
    return keyed


def evaluate(task: str, rows: Iterable[Mapping[str, Any]], gt_text: str | bytes,
             source: str, variant: str = "vce") -> AccuracyReport:
    """Score result rows against the text of a ``task`` ground truth. A ``count`` truth
    is per window and meets the keys as they are; whole-stream ``pairs`` take the
    union over windows, and a ``direction`` object may have one window only."""
    truth = {"pairs": PairGroundTruth.from_json, "count": load_count_gt,
             "direction": load_direction_gt}[task](gt_text, source)
    keyed = keyed_results(rows, task)
    if task == "pairs":
        counts = confusion_pairs([key[1:] for key in keyed], truth)
        return AccuracyReport(task, counts, accuracy(counts), variant)
    if task == "count":
        acc = exact_match({window: value for (window,), value in keyed.items()}, truth, "window")
        return AccuracyReport(task, None, acc, variant)
    predicted, windows = {}, {}  # by object id text: its value, its window
    for (window, oid), value in keyed.items():
        if str(oid) in predicted:
            raise IndexMismatch(f"object {str(oid)!r} has result rows in windows "
                                f"{windows[str(oid)]!r} and {window!r}")
        predicted[str(oid)], windows[str(oid)] = value, window
    return AccuracyReport(task, None, exact_match(predicted, truth, "object"), variant)
