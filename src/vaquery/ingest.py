"""Trace-file ingestion and synthetic trace generation.

The interchange format is JSON Lines, one detection per line::

    {"fid": 2, "oid": 1, "label": "person", "bb": [11, 20.5, 30, 20],
     "fv": [0.1, 0.9], "ts": 0.066}

``ts`` is optional; when absent it is derived as ``fid / fps``. A CSV
alternative uses the fixed header ``fid,oid,label,ts,bb_x,bb_y,bb_w,bb_h,
fv_0..fv_k``. The file extension selects the format (.jsonl / .csv).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (GeneratorSpecError, OutOfOrderFrame, SchemaMismatch,
                     TraceParseError)
from .model import BoundingBox, FeatureVector, Relation, VTuple, validate_tuple


def _tuple_from_parts(fid, oid, label, bb, fv, ts, fps: float, line_no: int) -> VTuple:
    try:
        bb_vals = [float(v) for v in bb]
        if len(bb_vals) != 4:
            raise ValueError(f"bounding box needs 4 components, got {len(bb_vals)}")
        t = VTuple(fid=int(fid), oid=int(oid), label=str(label),
                   bb=BoundingBox(*bb_vals),
                   fv=FeatureVector([float(v) for v in fv]),
                   ts=float(ts) if ts is not None else int(fid) / fps)
    except (TypeError, ValueError) as exc:
        raise TraceParseError(str(exc), line_no) from None
    validate_tuple(t)
    return t


def _iter_jsonl(path: Path, fps: float) -> Iterator[VTuple]:
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceParseError(f"invalid JSON: {exc.msg}", line_no) from None
            missing = {"fid", "oid", "label", "bb", "fv"} - rec.keys()
            if missing:
                raise TraceParseError(f"missing fields {sorted(missing)}", line_no)
            yield _tuple_from_parts(rec["fid"], rec["oid"], rec["label"],
                                    rec["bb"], rec["fv"], rec.get("ts"), fps, line_no)


def _iter_csv(path: Path, fps: float) -> Iterator[VTuple]:
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
            ts = rec[3] if rec[3] != "" else None
            yield _tuple_from_parts(rec[0], rec[1], rec[2], rec[4:8], rec[8:], ts, fps, line_no)


def read_trace(path: str | Path, fps: float = 30.0, source_id: str | None = None,
               flip_y: float | None = None) -> Relation:
    """Read a trace file into a relation in canonical (ts, fid, oid) order.

    Frames must be non-decreasing in the file; detections within one frame
    may appear in any order and are sorted by oid. ``flip_y`` converts
    screen coordinates (y growing downward) to the cartesian convention the
    direction rules assume: pass the frame height in pixels and each box's
    lower-left corner becomes ``flip_y - y - h``.
    """
    path = Path(path)
    it = _iter_csv(path, fps) if path.suffix.lower() == ".csv" else _iter_jsonl(path, fps)
    if flip_y is not None:
        it = (VTuple(fid=t.fid, oid=t.oid, label=t.label,
                     bb=BoundingBox(t.bb.x, flip_y - t.bb.y - t.bb.h, t.bb.w, t.bb.h),
                     fv=t.fv, ts=t.ts) for t in it)
    tuples: list[VTuple] = []
    frame: list[VTuple] = []
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
    return Relation.from_tuples(tuples, source_id or path.stem)


def write_trace(rel: Relation, path: str | Path) -> None:
    """Write a full-schema relation back out; format chosen by extension."""
    path = Path(path)
    rows = rel.rows
    if path.suffix.lower() == ".csv":
        dim = rows[0]["fv"].dim if rows else 0
        header = ["fid", "oid", "label", "ts", "bb_x", "bb_y", "bb_w", "bb_h"] \
            + [f"fv_{i}" for i in range(dim)]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for r in rows:
                writer.writerow([r["fid"], r["oid"], r["label"], repr(float(r["ts"]))]
                                + [repr(v) for v in r["bb"].as_list()]
                                + [repr(v) for v in r["fv"].as_list()])
        return
    with open(path, "w", encoding="utf-8") as fh:
        for r in rows:
            fh.write(json.dumps({"fid": r["fid"], "oid": r["oid"], "label": r["label"],
                                 "bb": r["bb"].as_list(), "fv": r["fv"].as_list(),
                                 "ts": r["ts"]}) + "\n")


def concat_traces(a: Relation, b: Relation, oid_offset: int,
                  frame_dt: float | None = None) -> Relation:
    """Append trace ``b`` after trace ``a`` on a shifted frame/time axis.

    ``b``'s frames are renumbered to continue after ``a``'s last frame and
    its timestamps shifted accordingly; ``oid_offset`` must clear ``a``'s
    oid range so object identities stay distinct.
    """
    if not a.rows:
        return b
    if not b.rows:
        return a
    dims_a = {r["fv"].dim for r in a.rows}
    dims_b = {r["fv"].dim for r in b.rows}
    if dims_a != dims_b:
        raise SchemaMismatch(f"feature dimensions differ: {sorted(dims_a)} vs {sorted(dims_b)}")
    max_oid_a = max(r["oid"] for r in a.rows)
    if oid_offset + min(r["oid"] for r in b.rows) <= max_oid_a:
        raise SchemaMismatch(
            f"oid_offset {oid_offset} collides with existing oids (max {max_oid_a})")

    last = a.rows[-1]
    if frame_dt is None:
        span_f = last["fid"] - a.rows[0]["fid"]
        frame_dt = (last["ts"] - a.rows[0]["ts"]) / span_f if span_f > 0 else 1.0
    fid_shift = last["fid"] + 1 - b.rows[0]["fid"]
    ts_shift = last["ts"] + frame_dt - b.rows[0]["ts"]

    shifted = [VTuple(fid=r["fid"] + fid_shift, oid=r["oid"] + oid_offset,
                      label=r["label"], bb=r["bb"], fv=r["fv"], ts=r["ts"] + ts_shift)
               for r in b.rows]
    combined = [VTuple(**{k: r[k] for k in ("fid", "oid", "label", "bb", "fv", "ts")})
                for r in a.rows] + shifted
    return Relation.from_tuples(combined, a.source_id or b.source_id)


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


@dataclass(frozen=True)
class SynthSpec:
    """Deterministic trace-generator specification."""

    frames: int
    fps: float = 30.0
    fv_dim: int = 8
    objects: tuple[ObjectSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.fps <= 0:
            raise GeneratorSpecError(f"fps must be positive, got {self.fps}")
        if self.frames <= 0:
            raise GeneratorSpecError(f"frames must be positive, got {self.frames}")
        for obj in self.objects:
            for lo, hi in obj.intervals:
                if not (0 <= lo < hi <= self.frames):
                    raise GeneratorSpecError(
                        f"interval [{lo}, {hi}) of oid {obj.oid} outside [0, {self.frames})")
            ordered = sorted(obj.intervals)
            for (_, hi), (lo, _) in zip(ordered, ordered[1:]):
                if lo < hi:  # one frame would get two tuples of this object
                    raise GeneratorSpecError(f"intervals of oid {obj.oid} overlap at frame {lo}")

    @staticmethod
    def from_json(text: str) -> "SynthSpec":
        try:
            raw = json.loads(text)
            objects = tuple(
                ObjectSpec(oid=int(o["oid"]), label=o.get("label", "person"),
                           start_bb=tuple(float(v) for v in o["bb"]),
                           velocity=tuple(float(v) for v in o.get("velocity", (0, 0))),
                           base_fv=tuple(float(v) for v in o["fv"]) if "fv" in o else None,
                           noise=float(o.get("noise", 0.0)),
                           intervals=tuple((int(lo), int(hi)) for lo, hi in o["intervals"]))
                for o in raw["objects"])
            return SynthSpec(frames=int(raw["frames"]), fps=float(raw.get("fps", 30.0)),
                             fv_dim=int(raw.get("fv_dim", 8)), objects=objects)
        except (KeyError, TypeError, ValueError) as exc:
            raise GeneratorSpecError(f"bad generator spec: {exc}") from None


def generate(spec: SynthSpec, seed: int) -> Relation:
    """Generate a trace: same spec and seed always produce the same relation."""
    rng = np.random.default_rng(seed)
    bases: dict[int, np.ndarray] = {}
    for obj in spec.objects:
        if obj.base_fv is not None:
            bases[obj.oid] = np.asarray(obj.base_fv, dtype=np.float64)
        else:
            v = rng.uniform(0.1, 1.0, size=spec.fv_dim)
            bases[obj.oid] = v

    tuples: list[VTuple] = []
    for obj in spec.objects:
        base = bases[obj.oid]
        x0, y0, w, h = obj.start_bb
        for lo, hi in obj.intervals:
            for fid in range(lo, hi):
                fv = base + (rng.normal(0.0, obj.noise, size=base.size) if obj.noise else 0.0)
                tuples.append(VTuple(
                    fid=fid, oid=obj.oid, label=obj.label,
                    bb=BoundingBox(x0 + obj.velocity[0] * fid, y0 + obj.velocity[1] * fid, w, h),
                    fv=FeatureVector(fv), ts=fid / spec.fps))
    tuples.sort(key=lambda t: (t.ts, t.fid, t.oid))
    for t in tuples:
        validate_tuple(t)
    return Relation.from_tuples(tuples, "synthetic")
