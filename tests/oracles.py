"""Independent reference implementations used as test oracles.

Most oracles here are deliberately naive pure Python (math module only, no
numpy) so they share no code path with the package. Two keep an earlier
per-row implementation as the reference for the block version that replaced
it: :func:`euclidean_scores_oracle` (the per-row euclidean loop) and
:func:`read_trace_oracle` (the tuple-at-a-time trace reader). The window
oracles scan windows in index order and test each against the stated bound
rule, with no index arithmetic of their own.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from vaquery.errors import OutOfOrderFrame, TraceParseError
from vaquery.model import Relation, TRACE_SCHEMA, validate_tuple


def cosine_oracle(a: Sequence[float], b: Sequence[float]) -> float:
    dot = math.fsum(x * y for x, y in zip(a, b))
    na = math.sqrt(math.fsum(x * x for x in a))
    nb = math.sqrt(math.fsum(y * y for y in b))
    return min(1.0, max(0.0, dot / (na * nb)))


def euclidean_unit_oracle(a: Sequence[float], b: Sequence[float]) -> float:
    na = math.sqrt(math.fsum(x * x for x in a))
    nb = math.sqrt(math.fsum(y * y for y in b))
    dist = math.sqrt(math.fsum((x / na - y / nb) ** 2 for x, y in zip(a, b)))
    return min(1.0, max(0.0, dist / 2.0))


def score_oracle(metric: str, a: Sequence[float], b: Sequence[float]) -> float:
    return cosine_oracle(a, b) if metric == "cosine" else euclidean_unit_oracle(a, b)


def matched_oracle(metric: str, polarity: str, th: float,
                   a: Sequence[float], b: Sequence[float]) -> bool:
    score = score_oracle(metric, a, b)
    return score >= th if polarity == "similarity_at_least" else score <= th


def split_runs_oracle(fids: Sequence[int], gap: int = 1) -> list[list[int]]:
    """Positions of each maximal run of near-consecutive fids."""
    runs: list[list[int]] = []
    for i, fid in enumerate(fids):
        if runs and fid - fids[i - 1] <= gap:
            runs[-1].append(i)
        else:
            runs.append([i])
    return runs


def cct_oracle(fids: Sequence[int], option: str, gap: int = 1) -> list[int]:
    """Retained positions under first/last/both, per run."""
    keep: list[int] = []
    for run in split_runs_oracle(fids, gap):
        if option == "first":
            keep.append(run[0])
        elif option == "last":
            keep.append(run[-1])
        else:
            keep.append(run[0])
            if run[-1] != run[0]:
                keep.append(run[-1])
    return keep


_CMP_ORACLE = {
    "=": lambda a, b: a == b, "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
}


def join_pairs_oracle(left: dict, right: dict, metric: str, polarity: str,
                      th: float, extras: Sequence[tuple] = ()) -> set[tuple]:
    """All (left_key, right_key) group pairs with at least one matching
    element pair; groups map key -> list of vectors.

    Each extra is ``(left_values, op, right_values, offset)``, where the
    value maps are key -> per-element list, and demands
    ``left_value + offset <op> right_value`` of the element pair too.
    """
    pairs = set()
    for lkey, lvecs in left.items():
        for rkey, rvecs in right.items():
            group_extras = [(lv[lkey], op, rv[rkey], off) for lv, op, rv, off in extras]
            if first_witness_oracle(lvecs, rvecs, metric, polarity, th,
                                    group_extras) is not None:
                pairs.add((lkey, rkey))
    return pairs


def first_witness_oracle(lvecs, rvecs, metric: str, polarity: str,
                         th: float, extras: Sequence[tuple] = ()) -> tuple[int, int] | None:
    """First matching (left index, right index) in row-major scan order.

    Each extra is ``(left_values, op, right_values, offset)`` with one value
    per element of the group, as in :func:`join_pairs_oracle`.
    """
    for li, a in enumerate(lvecs):
        for ri, b in enumerate(rvecs):
            if matched_oracle(metric, polarity, th, a, b) and all(
                    _CMP_ORACLE[op](lv[li] + off if off else lv[li], rv[ri])
                    for lv, op, rv, off in extras):
                return (li, ri)
    return None


def select_oracle(elements: Sequence[dict], tree: tuple) -> tuple[list[int], int]:
    """Positions of the elements a predicate tree keeps, and the number of
    probe evaluations, deciding each element on its own with short-circuit.

    ``tree`` is ``("and" | "or", [subtrees])``, ``("not", subtree)``,
    ``("cmp", column, op, literal)``, ``("bb", column, (x, y, w, h))`` with
    each component ``None``, a value or a ``(lo, hi)`` range, or
    ``("probe", column, metric, polarity, th, probe)``. Boxes are 4-tuples
    and feature vectors plain sequences.
    """
    evaluations = 0

    def holds(node: tuple, el: dict) -> bool:
        nonlocal evaluations
        kind = node[0]
        if kind == "and":
            return all(holds(part, el) for part in node[1])
        if kind == "or":
            return any(holds(part, el) for part in node[1])
        if kind == "not":
            return not holds(node[1], el)
        if kind == "cmp":
            _, column, op, literal = node
            return _CMP_ORACLE[op](el[column], literal)
        if kind == "bb":
            _, column, comps = node
            for comp, value in zip(comps, el[column]):
                if isinstance(comp, tuple) and not comp[0] <= value <= comp[1]:
                    return False
                if comp is not None and not isinstance(comp, tuple) and value != comp:
                    return False
            return True
        _, column, metric, polarity, th, probe = node
        evaluations += 1
        return matched_oracle(metric, polarity, th, el[column], probe)

    kept = [i for i, el in enumerate(elements) if holds(tree, el)]
    return kept, evaluations


def confusion_oracle(emitted: set, positives: set, left_universe: set,
                     right_universe: set) -> tuple[int, int, int, int]:
    """(tp, tn, fp, fn) by explicit enumeration of the pair universe."""
    tp = tn = fp = fn = 0
    for l in left_universe:
        for r in right_universe:
            reported = (l, r) in emitted
            positive = (l, r) in positives
            if reported and positive:
                tp += 1
            elif reported and not positive:
                fp += 1
            elif not reported and positive:
                fn += 1
            else:
                tn += 1
    return tp, tn, fp, fn


def windows_containing_oracle(key: float, origin: float, size: float,
                              hop: float, max_index: int = 10_000) -> list[int]:
    """Scan all candidate windows for containment of the key: window ``i`` is
    ``[at(i), at(i + size / hop))`` with ``at(x) = origin + x * hop``."""
    out = []
    for i in range(max_index):
        start = origin + i * hop
        if start > key:
            break
        if start <= key < origin + (i + size / hop) * hop:
            out.append(i)
    return out


def euclidean_scores_oracle(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Unit euclidean scores of unit rows, one left row at a time."""
    dist = np.array([np.linalg.norm(right - row, axis=1) for row in left])
    return np.clip(dist.reshape(len(left), len(right)) / 2.0, 0.0, 1.0)


_JSON_KINDS = {list: "an array", str: "a string", int: "an integer", float: "a number",
               bool: "a boolean", type(None): "null"}


class _Detection(NamedTuple):
    """One detection as the tuple-at-a-time reader holds it."""

    fid: int
    oid: int
    label: str
    bb: list[float]
    fv: list[float]
    ts: float


def _tuple_from_parts(fid, oid, label, bb, fv, ts, fps: float, line_no: int) -> _Detection:
    try:
        bb_vals = [float(v) for v in bb]
        if len(bb_vals) != 4:
            raise ValueError(f"bounding box needs 4 components, got {len(bb_vals)}")
        t = _Detection(fid=int(fid), oid=int(oid), label=str(label), bb=bb_vals,
                       fv=[float(v) for v in fv],
                       ts=float(ts) if ts is not None else int(fid) / fps)
    except (TypeError, ValueError) as exc:
        raise TraceParseError(str(exc), line_no) from None
    validate_tuple(t)
    return t


def _iter_jsonl(path: Path, fps: float):
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceParseError(f"trace line is not JSON: {exc.msg} at character {exc.pos}",
                                      line_no) from None
            if not isinstance(rec, dict):
                raise TraceParseError(f"trace line must be an object, got "
                                      f"{_JSON_KINDS[type(rec)]}", line_no)
            for key in ("fid", "oid", "label", "bb", "fv"):
                if key not in rec:
                    raise TraceParseError(f"trace line is missing {key}", line_no)
            yield _tuple_from_parts(rec["fid"], rec["oid"], rec["label"],
                                    rec["bb"], rec["fv"], rec.get("ts"), fps, line_no)


def _csv_value(text: str, convert, name: str, line_no: int):
    """A CSV field as int or float; a refusal names the field and shows its
    text, cut after 20 characters."""
    try:
        return convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        shown = f"{text[:20]!r}..." if len(text) > 20 else repr(text)
        raise TraceParseError(f"trace line {name} must be {kind}, got {shown}", line_no) from None


def _iter_csv(path: Path, fps: float):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return
        expected = ["fid", "oid", "label", "ts", "bb_x", "bb_y", "bb_w", "bb_h"]
        if header[:8] != expected or not all(h.startswith("fv_") for h in header[8:]):
            raise TraceParseError(f"unexpected CSV header {header[:8]}", 1)
        for line_no, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(header):
                raise TraceParseError(f"expected {len(header)} fields, got {len(rec)}", line_no)
            bb = [_csv_value(v, float, f"bb[{i}]", line_no) for i, v in enumerate(rec[4:8])]
            fid = _csv_value(rec[0], int, "fid", line_no)
            oid = _csv_value(rec[1], int, "oid", line_no)
            fv = [_csv_value(v, float, f"fv[{i}]", line_no) for i, v in enumerate(rec[8:])]
            ts = _csv_value(rec[3], float, "ts", line_no) if rec[3] != "" else None
            yield _tuple_from_parts(fid, oid, rec[2], bb, fv, ts, fps, line_no)


def read_trace_oracle(path, fps: float = 30.0, flip_y: float | None = None) -> Relation:
    """Read a trace one tuple at a time: parse, validate, then check order.

    Fields are coerced with ``int``/``float``/``str`` whatever their JSON
    type, and feature-vector lengths are not compared with each other.
    """
    path = Path(path)
    it = _iter_csv(path, fps) if path.suffix.lower() == ".csv" else _iter_jsonl(path, fps)
    if flip_y is not None:
        it = (t._replace(bb=[x, flip_y - y - h, w, h]) for t in it for x, y, w, h in [t.bb])
    tuples: list[_Detection] = []
    frame: list[_Detection] = []
    last_fid = -1
    seen: set[tuple[int, int]] = set()
    for t in it:
        if t.fid < last_fid:
            raise OutOfOrderFrame(f"frame {t.fid} arrives after frame {last_fid}")
        if (t.fid, t.oid) in seen:
            raise OutOfOrderFrame(f"duplicate (fid, oid) = ({t.fid}, {t.oid})")
        seen.add((t.fid, t.oid))
        if t.fid != last_fid:
            tuples.extend(sorted(frame, key=lambda x: x.oid))
            frame = []
            last_fid = t.fid
        frame.append(t)
    tuples.extend(sorted(frame, key=lambda x: x.oid))
    for prev, cur in zip(tuples, tuples[1:]):
        if cur.ts < prev.ts:
            raise OutOfOrderFrame(f"ts regresses from {prev.ts} to {cur.ts} at fid {cur.fid}")
    return Relation.from_columns(TRACE_SCHEMA, {n: [getattr(t, n) for t in tuples]
                                                for n in TRACE_SCHEMA.names()})


class WindowManagerOracle:
    """Per-item window manager: each added item goes to every window holding
    its key, found by scanning the windows in index order; windows close in
    index order, gaps included, as ``(index, start, end, items)``.

    Window ``i`` is ``[at(i), at(i + size / hop))`` with ``at(x) = origin +
    x * hop``; with ``whole`` (tuple windows) it is exactly ``[origin + i *
    hop, origin + i * hop + size)``.
    """

    def __init__(self, size: float, hop: float, origin: float | None = None,
                 whole: bool = False):
        self.size, self.hop, self.origin, self.whole = size, hop, origin, whole
        self._items: list[list] = []  # one list per window starting at or before the last key
        self._next_to_close = 0
        self._watermark = -math.inf

    def _window(self, index: int) -> tuple:
        if math.isinf(self.size):
            return (0, self.origin, math.inf)
        start = self.origin + index * self.hop
        if self.whole:
            return (index, start, start + self.size)
        return (index, start, self.origin + (index + self.size / self.hop) * self.hop)

    def add(self, key: float, item) -> None:
        if self.origin is None:
            self.origin = key
        most = 1 if math.isinf(self.size) else math.inf
        while len(self._items) < most and self._window(len(self._items))[1] <= key:
            self._items.append([])
        for index in range(self._next_to_close, len(self._items)):
            _, start, end = self._window(index)
            if start <= key < end:
                self._items[index].append(item)

    def _emit(self, out: list) -> None:
        index = self._next_to_close
        items = self._items[index] if index < len(self._items) else []
        out.append((*self._window(index), items))
        self._next_to_close += 1

    def close_windows(self, watermark: float) -> list[tuple]:
        if watermark <= self._watermark or self.origin is None:
            return []
        self._watermark = watermark
        closed = []
        while self._window(self._next_to_close)[2] <= watermark:
            self._emit(closed)
        return closed

    def flush(self) -> list[tuple]:
        flushed = []
        while self._next_to_close < len(self._items):
            self._emit(flushed)
        return flushed
