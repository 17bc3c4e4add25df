"""Trace-file ingestion and synthetic trace generation.

The interchange format is JSON Lines, one detection per line::

    {"fid": 2, "oid": 1, "label": "person", "bb": [11, 20.5, 30, 20],
     "fv": [0.1, 0.9], "ts": 0.066}

Lines end with ``\n`` (or ``\r\n``) and must be UTF-8 text. Fields keep
their JSON types: ``fid`` and ``oid`` are integers, ``label``
a string, ``bb`` an array of 4 numbers, ``fv`` an array of numbers of the
same length on every line, and ``ts`` a number or absent (``null`` counts
as absent); when absent it is derived as ``fid / fps``. A CSV alternative
uses the fixed header ``fid,oid,label,ts,bb_x,bb_y,bb_w,bb_h,fv_0..fv_k``
and parses each text field as a number. The file extension selects the
format (.jsonl / .csv).

A CSV row parses into the record its JSONL line would decode to, and from
there both formats, and :func:`generate`, feed one builder: it checks the
records in blocks with array operations and keeps each block's columns; the
relation's columns are those blocks concatenated. A block that fails any
check is re-checked one line at a time, each line in this order: fields and
types, values (:func:`validate_tuple`), feature-vector length, frame order,
duplicate ``(fid, oid)``. So the first offending line in file order decides
the error, whatever its kind; a ``ts`` regression is reported once the whole
file has been read.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NoReturn, Sequence

import numpy as np
from numpy.dtypes import StringDType

from .errors import (ConfigError, DimensionMismatch, GeneratorSpecError, OutOfOrderFrame,
                     SchemaMismatch, TraceParseError, json_field, json_type, load_json)
from .model import Relation, TRACE_SCHEMA, validate_tuple

#: Lines decoded and checked together. Small blocks keep few decoded JSON
#: values alive at once: larger ones raised the peak memory of a run.
CHUNK = 64

#: Most float64 values ``generate`` may allocate for one spec (feature
#: vectors, boxes and timestamps); larger specs are a ``SPEC_ERROR``.
MAX_GENERATED_VALUES = 2 ** 24

#: The required fields of a trace line, each with its JSON type.
_REQUIRED = {"fid": "integer", "oid": "integer", "label": "string", "bb": "array of number",
             "fv": "array of number"}
_fields = itemgetter(*_REQUIRED)
_scan = json.JSONDecoder().scan_once
_NUMBER = {int, float}
_INT64 = np.iinfo(np.int64)


def _types(values) -> set:
    return set(map(type, values))


def _ints_fit(values) -> bool:
    return _types(values) <= {int} and _INT64.min <= min(values) and max(values) <= _INT64.max


def _numbers_fit(rows) -> bool:
    """Whether every element of ``rows`` is an int or float that float64 holds."""
    kinds = _types(chain.from_iterable(rows))
    return kinds <= _NUMBER and (
        int not in kinds or max(map(abs, chain.from_iterable(rows))) <= sys.float_info.max)


def _check_id(name: str, value: int, line_no: int) -> None:
    if not _INT64.min <= value <= _INT64.max:
        raise TraceParseError(f"{name} {value} is outside the 64-bit integer range", line_no)


def _text_lines(fh) -> Iterator[str]:
    """The lines of a binary file as text; a line that is not UTF-8 is a parse error."""
    for line_no, raw in enumerate(fh, start=1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceParseError(f"not UTF-8 text: {exc.reason}", line_no) from None


def _decode(line: str, line_no: int) -> dict:
    """The object on one JSONL line, decoded once by the stdlib scanner."""
    try:
        rec, end = _scan(line, 0)
    except (StopIteration, json.JSONDecodeError, RecursionError):
        end = -1
    if end != len(line):  # the line is not one JSON value: load_json raises its error
        rec = load_json(line, partial(TraceParseError, line=line_no), "trace line")
    if type(rec) is not dict:  # the helper only words the refusal
        json_type(rec, "object", partial(TraceParseError, line=line_no), "trace line")
    return rec


def _record(rec: dict, line_no: int, fps: float) -> tuple:
    """Check one record's fields and types; returns (fid, oid, label, bb, fv, ts),
    ``ts`` derived as ``fid / fps`` when absent."""
    error = partial(TraceParseError, line=line_no)
    fid, oid, label, bb, fv = (json_field(rec, key, kind, error, "trace line")
                               for key, kind in _REQUIRED.items())
    _check_id("fid", fid, line_no)
    _check_id("oid", oid, line_no)
    if len(bb) != 4:
        raise TraceParseError(f"bounding box needs 4 components, got {len(bb)}", line_no)
    ts = rec.get("ts")
    ts = fid / fps if ts is None else json_type(ts, "number", error, "trace line ts")
    return fid, oid, label, bb, fv, ts


def _columns(recs: Sequence[dict]) -> tuple | None:
    """The columns (fid, oid, label, bb, fv, ts) of records, or None if a field
    is missing or not of its JSON type."""
    try:
        cols = (*zip(*map(_fields, recs)), [rec.get("ts") for rec in recs])
    except KeyError:
        return None
    fids, oids, labels, bbs, fvs, tss = cols
    if (_ints_fit(fids) and _ints_fit(oids) and _types(labels) <= {str}
            and _types(bbs) <= {list} and set(map(len, bbs)) == {4}
            and _numbers_fit(bbs) and _types(fvs) <= {list} and _numbers_fit(fvs)
            and _numbers_fit([[t for t in tss if t is not None]])):
        return cols
    return None


def _jsonl_lines(fh) -> Iterator[tuple[int, dict]]:
    """(line number, decoded object) of each non-blank JSONL line."""
    for line_no, line in enumerate(_text_lines(fh), start=1):
        line = line.strip()
        if line:
            yield line_no, _decode(line, line_no)


def _csv_record(rec: list[str], line_no: int) -> dict:
    """Parse one CSV row's text fields into the record its JSONL line would decode
    to. The fields convert in the order their errors are reported: bb[0..3], fid,
    oid, fv[i], then ts unless empty. The first that is not a number (an integer
    for fid and oid) is refused with at most 20 characters of it."""
    values: list = []  # in that order
    add = values.append
    try:
        for text in rec[4:8]:
            add(float(text))
        add(int(rec[0]))
        add(int(rec[1]))
        for text in rec[8:]:
            add(float(text))
        if rec[3] != "":
            add(float(rec[3]))
    except ValueError:
        fields = [*((f"bb[{i}]", v) for i, v in enumerate(rec[4:8])), ("fid", rec[0]),
                  ("oid", rec[1]), *((f"fv[{i}]", v) for i, v in enumerate(rec[8:])),
                  ("ts", rec[3])]
        name, text = fields[len(values)]  # the first field not converted
        kind = "an integer" if name in ("fid", "oid") else "a number"
        shown = repr(text[:20]) + ("..." if len(text) > 20 else "")
        raise TraceParseError(f"trace line {name} must be {kind}, got {shown}", line_no) from None
    fid, oid, ts_at = values[4], values[5], len(rec) - 2
    _check_id("fid", fid, line_no)
    _check_id("oid", oid, line_no)
    return {"fid": fid, "oid": oid, "label": rec[2], "bb": values[:4], "fv": values[6:ts_at],
            "ts": values[ts_at] if rec[3] != "" else None}


def _csv_lines(fh) -> Iterator[tuple[int, dict]]:
    """(line number, parsed record) of each non-blank CSV row after the header."""
    reader = csv.reader(_text_lines(fh))
    try:
        header = next(reader, None)
        if header is None:
            return
        expected = ["fid", "oid", "label", "ts", "bb_x", "bb_y", "bb_w", "bb_h"]
        if header[:8] != expected or not all(h.startswith("fv_") for h in header[8:]):
            raise TraceParseError(f"unexpected CSV header {header[:8]}", 1)
        for line_no, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(header):
                raise TraceParseError(f"expected {len(header)} fields, got {len(rec)}", line_no)
            yield line_no, _csv_record(rec, line_no)
    except csv.Error as exc:
        raise TraceParseError(str(exc), reader.line_num) from None


def _until_fault(lines: Iterator[tuple[int, dict]]) -> Iterator[tuple[int, object]]:
    """The (line number, record) pairs of a reader; a fault it raises becomes
    its last pair, so that the checks reach it in file order."""
    try:
        yield from lines
    except TraceParseError as exc:
        yield exc.line, exc


def _joined(blocks: Sequence[np.ndarray]) -> np.ndarray:
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


class _TraceBuilder:
    """Checks batches of trace records and keeps them as column blocks.

    Batches arrive in file order. Each is checked with array operations for
    what :func:`validate_tuple` demands of one tuple, for the trace's feature
    dimension, for frame order and for duplicate ``(fid, oid)`` keys. Nothing
    of a batch that fails a check is kept: :meth:`raise_first_fault` re-checks
    it one line at a time and raises the first line's error.
    """

    def __init__(self, fps: float, flip_y: float | None):
        self.fps = fps
        self.flip_y = flip_y
        self.dim: int | None = None
        self.blocks: list[tuple] = []  # (fid, oid, labels, bb, fv, ts) per block
        self.last_fid = -1
        self.frame_oids = np.empty(0, dtype=np.int64)  # oids seen so far in frame last_fid

    def add_lines(self, batch: list[tuple[int, object]]) -> None:
        """Check and keep a batch of (line number, record) pairs."""
        recs = [rec for _, rec in batch]
        cols = None if isinstance(recs[-1], TraceParseError) else _columns(recs)
        if cols is not None:
            fids, oids, labels, bbs, fvs, tss = cols
            dim = len(fvs[0]) if self.dim is None else self.dim
            if dim and list(map(len, fvs)).count(dim) == len(fvs):
                fid = np.array(fids, dtype=np.int64)
                if None in tss:
                    missing = np.array([t is None for t in tss])
                    ts = np.array([0.0 if t is None else t for t in tss], dtype=np.float64)
                    ts[missing] = fid[missing] / self.fps
                else:
                    ts = np.array(tss, dtype=np.float64)
                if self.add(fid, np.array(oids, dtype=np.int64), labels,
                            np.array(bbs, dtype=np.float64), np.array(fvs, dtype=np.float64), ts):
                    self.dim = dim
                    return
        self.raise_first_fault(batch)

    def add(self, fid: np.ndarray, oid: np.ndarray, labels: Sequence[str], bb: np.ndarray,
            fv: np.ndarray, ts: np.ndarray) -> bool:
        """Keep a block of rows in file order, or none of them if a check fails
        (returns whether it kept them). Under ``flip_y`` ``bb`` is flipped in place."""
        bad = ((bb[:, 2] < 0) | (bb[:, 3] < 0) | ~np.isfinite(bb).all(axis=1)
               | ~np.isfinite(ts) | ~np.isfinite(fv).all(axis=1)
               | (fid < 0) | (oid < 0) | (ts < 0)
               | (fid < np.concatenate(([self.last_fid], fid[:-1]))))
        # duplicates: stable sort of this frame's earlier keys followed by the block
        all_fid = np.concatenate((np.full(len(self.frame_oids), self.last_fid), fid))
        all_oid = np.concatenate((self.frame_oids, oid))
        order = np.lexsort((all_oid, all_fid))
        tie = ((all_fid[order[1:]] == all_fid[order[:-1]])
               & (all_oid[order[1:]] == all_oid[order[:-1]]))
        if bad.any() or tie.any():
            return False
        if self.flip_y is not None:
            bb[:, 1] = self.flip_y - bb[:, 1] - bb[:, 3]
        self.blocks.append((fid, oid, labels, bb, fv, ts))
        self.last_fid = int(fid[-1])
        self.frame_oids = all_oid[all_fid == self.last_fid]
        return True

    def raise_first_fault(self, lines: Iterable[tuple[int, object]]) -> NoReturn:
        """Re-check (line number, record) pairs one at a time after the kept
        rows, in the order the tuple-at-a-time reader checks a line: fields and
        types, :func:`validate_tuple`, feature dimension, frame order, then
        duplicate keys. Raises the first fault."""
        dim, last_fid, frame_oids = self.dim, self.last_fid, set(self.frame_oids.tolist())
        for line_no, rec in lines:
            if isinstance(rec, TraceParseError):
                raise rec
            record = _record(rec, line_no, self.fps)
            validate_tuple(record)
            fid, oid, _, _, fv, _ = record
            dim = len(fv) if dim is None else dim
            if len(fv) != dim:
                raise DimensionMismatch(f"feature vector has {len(fv)} components where the "
                                        f"trace's first has {dim} (line {line_no})")
            if fid < last_fid:
                raise OutOfOrderFrame(f"frame {fid} arrives after frame {last_fid}")
            if fid > last_fid:
                last_fid, frame_oids = fid, set()
            elif oid in frame_oids:
                raise OutOfOrderFrame(f"duplicate (fid, oid) = ({fid}, {oid})")
            frame_oids.add(oid)
        raise AssertionError("a batch fails its checks but none of its lines does")

    def relation(self) -> Relation:
        """The rows in canonical (fid, oid) order, once ``ts`` is checked in that order."""
        if not self.blocks:
            return Relation.from_columns(TRACE_SCHEMA, dict.fromkeys(TRACE_SCHEMA.names(), ()))
        fid, oid, labels, bb, fv, ts = zip(*self.blocks)
        self.blocks = []
        # one block is kept as is: generate() passes its whole trace as one
        rel = Relation(TRACE_SCHEMA, {
            "fid": _joined(fid), "oid": _joined(oid),
            "label": np.array(list(chain.from_iterable(labels)), dtype=StringDType()),
            "bb": _joined(bb), "fv": _joined(fv), "ts": _joined(ts)})
        order = np.lexsort((rel.column("oid"), rel.column("fid")))
        if np.any(order[1:] < order[:-1]):
            rel = rel.take(order)
        fid, ts = rel.column("fid"), rel.column("ts")
        back = np.flatnonzero(ts[1:] < ts[:-1])
        if back.size:
            i = int(back[0])
            raise OutOfOrderFrame(f"ts regresses from {ts[i].item()} to {ts[i + 1].item()} "
                                  f"at fid {fid[i + 1].item()}")
        rel.column("fv").setflags(write=False)
        return rel


def read_trace(path: str | Path, fps: float = 30.0, flip_y: float | None = None) -> Relation:
    """Read a trace file into a relation in canonical (ts, fid, oid) order.

    Frames must be non-decreasing in the file; detections within one frame
    may appear in any order and are sorted by oid. ``flip_y`` converts
    screen coordinates (y growing downward) to the cartesian convention the
    direction rules assume: pass the frame height in pixels and each box's
    lower-left corner becomes ``flip_y - y - h``.
    """
    if not (fps > 0 and math.isfinite(fps)):
        raise ConfigError(f"fps must be a positive finite number, got {fps}")
    path = Path(path)
    builder = _TraceBuilder(fps, flip_y)
    with open(path, "rb") as fh:
        lines = _until_fault(_csv_lines(fh) if path.suffix.lower() == ".csv"
                             else _jsonl_lines(fh))
        while batch := list(islice(lines, CHUNK)):
            builder.add_lines(batch)
    return builder.relation()


def _records(rel: Relation) -> Iterator[tuple]:
    """(fid, oid, label, ts, bb, fv) of each row as Python values, a chunk at a time."""
    for lo in range(0, len(rel), CHUNK):
        yield from zip(*(rel.column(n)[lo:lo + CHUNK].tolist()
                         for n in ("fid", "oid", "label", "ts", "bb", "fv")))


def write_trace(rel: Relation, path: str | Path) -> None:
    """Write a full-schema relation back out; format chosen by extension."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        dim = rel.column("fv").shape[1] if len(rel) else 0
        header = ["fid", "oid", "label", "ts", "bb_x", "bb_y", "bb_w", "bb_h"] \
            + [f"fv_{i}" for i in range(dim)]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for fid, oid, label, ts, bb, fv in _records(rel):
                writer.writerow([fid, oid, label, repr(ts)] + [repr(v) for v in bb]
                                + [repr(v) for v in fv])
        return
    with open(path, "w", encoding="utf-8") as fh:
        for fid, oid, label, ts, bb, fv in _records(rel):
            fh.write(json.dumps({"fid": fid, "oid": oid, "label": label, "bb": bb, "fv": fv,
                                 "ts": ts}) + "\n")


def concat_traces(a: Relation, b: Relation, oid_offset: int) -> Relation:
    """Append trace ``b`` after trace ``a`` on a shifted frame/time axis.

    ``b``'s frames are renumbered to continue after ``a``'s last frame and
    its timestamps shifted to start one of ``a``'s mean frame steps after
    ``a``'s last (one second if ``a`` spans one frame); ``oid_offset`` must
    clear ``a``'s oid range so object identities stay distinct.
    """
    if not len(a):
        return b
    if not len(b):
        return a
    dim_a, dim_b = a.column("fv").shape[1], b.column("fv").shape[1]
    if dim_a != dim_b:
        raise SchemaMismatch(f"feature dimensions differ: [{dim_a}] vs [{dim_b}]")
    max_oid_a = a.column("oid").max().item()
    if oid_offset + b.column("oid").min().item() <= max_oid_a:
        raise SchemaMismatch(
            f"oid_offset {oid_offset} collides with existing oids (max {max_oid_a})")

    (first_fid, last_fid), (first_ts, last_ts) = (a.column(n)[[0, -1]].tolist()
                                                  for n in ("fid", "ts"))
    span_f = last_fid - first_fid
    frame_dt = (last_ts - first_ts) / span_f if span_f > 0 else 1.0
    shift = {"fid": last_fid + 1 - b.column("fid")[0].item(), "oid": oid_offset,
             "ts": last_ts + frame_dt - b.column("ts")[0].item()}
    columns = {n: np.concatenate((col, b.column(n) + shift[n] if n in shift else b.column(n)))
               for n, col in a.columns.items()}
    columns["fv"].setflags(write=False)
    return Relation(TRACE_SCHEMA, columns)


@dataclass(frozen=True)
class ObjectSpec:
    """Synthetic object: linear motion, a base feature vector, appearances."""

    oid: int
    label: str
    start_bb: tuple[float, float, float, float]
    velocity: tuple[float, float] = (0.0, 0.0)
    base_fv: tuple[float, ...] | None = None
    noise: float = 0.0
    intervals: tuple[tuple[int, int], ...] = ()  # half-open frame ranges

    def __post_init__(self) -> None:
        if not 0 <= self.oid <= _INT64.max:
            raise GeneratorSpecError(f"oid must be a non-negative 64-bit integer, got {self.oid}")
        if not isinstance(self.label, str):  # the helper only words the refusal
            json_type(self.label, "string", GeneratorSpecError, f"label of oid {self.oid}")
        if len(self.start_bb) != 4 or len(self.velocity) != 2 \
                or not all(map(math.isfinite, (*self.start_bb, *self.velocity))):
            raise GeneratorSpecError(f"oid {self.oid} needs a bb of 4 finite numbers and a "
                                     f"velocity of 2, got {self.start_bb} and {self.velocity}")
        if not 0 <= self.noise < math.inf:
            raise GeneratorSpecError(f"noise of oid {self.oid} must be finite and >= 0, "
                                     f"got {self.noise}")
        if self.base_fv is not None and not (
                len(self.base_fv) and all(map(math.isfinite, self.base_fv))):
            raise GeneratorSpecError(f"fv of oid {self.oid} must be a non-empty array of finite "
                                     f"numbers, got {self.base_fv}")


@dataclass(frozen=True)
class SynthSpec:
    """Deterministic trace-generator specification."""

    frames: int
    fps: float = 30.0
    fv_dim: int = 8
    objects: tuple[ObjectSpec, ...] = ()

    def __post_init__(self) -> None:
        if not 0 < self.fps < math.inf:
            raise GeneratorSpecError(f"fps must be positive and finite, got {self.fps}")
        if self.frames <= 0:
            raise GeneratorSpecError(f"frames must be positive, got {self.frames}")
        if self.fv_dim < 1:
            raise GeneratorSpecError(f"fv_dim must be at least 1, got {self.fv_dim}")
        values = 0  # counted, not allocated: a base vector per object, fv + bb + ts per row
        for obj in self.objects:
            for lo, hi in obj.intervals:
                if not (0 <= lo < hi <= self.frames):
                    raise GeneratorSpecError(
                        f"interval [{lo}, {hi}) of oid {obj.oid} outside [0, {self.frames})")
            ordered = sorted(obj.intervals)
            for (_, hi), (lo, _) in zip(ordered, ordered[1:]):
                if lo < hi:  # one frame would get two tuples of this object
                    raise GeneratorSpecError(f"intervals of oid {obj.oid} overlap at frame {lo}")
            rows = sum(hi - lo for lo, hi in obj.intervals)
            dim = self.fv_dim if obj.base_fv is None else len(obj.base_fv)
            values += (rows + 1) * dim + 5 * rows
        if values > MAX_GENERATED_VALUES:
            raise GeneratorSpecError(f"spec would generate {values} float values, more than "
                                     f"{MAX_GENERATED_VALUES} (fv_dim {self.fv_dim})")

    @staticmethod
    def from_json(text: str | bytes) -> "SynthSpec":
        """A spec from JSON text; every field keeps its JSON type."""
        def field(obj: dict, role: str, key: str, kind: str, *default):
            return json_field(obj, key, kind, GeneratorSpecError, role, *default)

        raw = load_json(text, GeneratorSpecError, "generator spec", "object")
        objects = []
        for i, o in enumerate(field(raw, "generator spec", "objects", "array of object")):
            role = f"generator spec objects[{i}]"
            intervals = field(o, role, "intervals", "array of array of integer")
            for j, interval in enumerate(intervals):
                if len(interval) != 2:
                    raise GeneratorSpecError(f"{role} intervals[{j}] must be a [lo, hi] pair, "
                                             f"got {interval}")
            fv = field(o, role, "fv", "array of number", None)
            objects.append(ObjectSpec(
                oid=field(o, role, "oid", "integer"), label=o.get("label", "person"),
                start_bb=tuple(field(o, role, "bb", "array of number")),
                velocity=tuple(field(o, role, "velocity", "array of number", (0.0, 0.0))),
                base_fv=None if fv is None else tuple(fv),
                noise=field(o, role, "noise", "number", 0.0),
                intervals=tuple(map(tuple, intervals))))
        return SynthSpec(frames=field(raw, "generator spec", "frames", "integer"),
                         fps=field(raw, "generator spec", "fps", "number", 30.0),
                         fv_dim=field(raw, "generator spec", "fv_dim", "integer", 8),
                         objects=tuple(objects))


def generate(spec: SynthSpec, seed: int) -> Relation:
    """Generate a trace: same spec and seed always produce the same relation."""
    if seed < 0:
        raise GeneratorSpecError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    bases: dict[int, np.ndarray] = {}
    for obj in spec.objects:
        if obj.base_fv is not None:
            bases[obj.oid] = np.asarray(obj.base_fv, dtype=np.float64)
        else:
            v = rng.uniform(0.1, 1.0, size=spec.fv_dim)
            bases[obj.oid] = v

    visits = [(obj, lo, hi) for obj in spec.objects for lo, hi in obj.intervals]
    if not visits:
        return Relation.from_columns(TRACE_SCHEMA, dict.fromkeys(TRACE_SCHEMA.names(), ()))
    dims = sorted({bases[obj.oid].size for obj, _, _ in visits})
    if len(dims) > 1:
        raise DimensionMismatch(f"generated feature vectors differ in dimension: {dims}")
    fid = np.concatenate([np.arange(lo, hi, dtype=np.int64) for _, lo, hi in visits])
    oid = np.concatenate([np.full(hi - lo, obj.oid, dtype=np.int64) for obj, lo, hi in visits])
    ts = fid / spec.fps
    order = np.lexsort((oid, fid, ts))
    at = np.empty_like(order)  # canonical position of each generated tuple
    at[order] = np.arange(len(order))
    # each visit's values are drawn in generation order and written to their
    # canonical rows; one draw per visit takes the same values as one per frame
    fv = np.empty((len(fid), dims[0]))
    bb = np.empty((len(fid), 4))
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):  # the row checks word a non-finite value
        for obj, lo, hi in visits:
            rows, frames = at[start:start + hi - lo], fid[start:start + hi - lo]
            base = bases[obj.oid]
            fv[rows] = base + (rng.normal(0.0, obj.noise, size=(hi - lo, base.size))
                               if obj.noise else 0.0)
            x0, y0, w, h = obj.start_bb
            bb[rows, 0] = x0 + obj.velocity[0] * frames
            bb[rows, 1] = y0 + obj.velocity[1] * frames
            bb[rows, 2:] = (w, h)
            start += hi - lo
    labels = [obj.label for obj, lo, hi in visits for _ in range(lo, hi)]
    labels = [labels[i] for i in order]
    fid, oid, ts = fid[order], oid[order], ts[order]
    builder = _TraceBuilder(spec.fps, None)
    if not builder.add(fid, oid, labels, bb, fv, ts):
        rows = zip(fid.tolist(), oid.tolist(), labels, bb.tolist(), fv.tolist(), ts.tolist())
        builder.raise_first_fault((i, dict(zip((*_REQUIRED, "ts"), row)))
                                  for i, row in enumerate(rows, start=1))
    return builder.relation()
