import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaquery import ingest
from vaquery.errors import (DimensionMismatch, GeneratorSpecError, OutOfOrderFrame,
                            SchemaMismatch, TraceParseError, TupleValidationError,
                            VaqueryError)
from vaquery.ingest import (CHUNK, ObjectSpec, SynthSpec, concat_traces, generate,
                            read_trace, write_trace)
from vaquery.model import TRACE_SCHEMA, validate_tuple
from vaquery.operators import CctOption, Direction8, cct, direction, r2a
from conftest import group_values, relation_of
from oracles import read_trace_oracle, split_runs_oracle


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def test_read_jsonl_derives_ts_from_fps(tmp_path):
    path = tmp_path / "t.jsonl"
    write_jsonl(path, [
        {"fid": 2, "oid": 1, "label": "person", "bb": [11, 20.5, 30, 20], "fv": [0.1, 0.9]},
    ])
    rel = read_trace(path, fps=30.0)
    assert len(rel) == 1
    row = rel.row_dicts()[0]
    assert row["ts"] == 2 / 30.0
    assert row["bb"][1] == 20.5
    assert row["fv"] == [0.1, 0.9]


def test_explicit_ts_overrides_fps(tmp_path):
    path = tmp_path / "t.jsonl"
    write_jsonl(path, [
        {"fid": 2, "oid": 1, "label": "person", "bb": [1, 1, 1, 1], "fv": [1], "ts": 77.5},
    ])
    assert read_trace(path, fps=30.0).row_dicts()[0]["ts"] == 77.5


def test_csv_and_jsonl_yield_the_same_stream(tmp_path):
    jpath, cpath = tmp_path / "t.jsonl", tmp_path / "t.csv"
    write_jsonl(jpath, [
        {"fid": 1, "oid": 1, "label": "person", "bb": [1, 2, 3, 4], "fv": [0.5, 0.25]},
        {"fid": 2, "oid": 1, "label": "person", "bb": [2, 2, 3, 4], "fv": [0.5, 0.3]},
    ])
    with open(cpath, "w") as fh:
        fh.write("fid,oid,label,ts,bb_x,bb_y,bb_w,bb_h,fv_0,fv_1\n")
        fh.write("1,1,person,,1,2,3,4,0.5,0.25\n")
        fh.write("2,1,person,,2,2,3,4,0.5,0.3\n")
    jrel = read_trace(jpath, fps=10.0)
    crel = read_trace(cpath, fps=10.0)
    assert jrel.row_dicts() == crel.row_dicts()


def test_three_element_bb_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_jsonl(path, [{"fid": 1, "oid": 1, "label": "x", "bb": [1, 2, 3], "fv": [1]}])
    with pytest.raises(TraceParseError) as exc:
        read_trace(path)
    assert exc.value.code == "PARSE_ERROR"
    assert exc.value.line == 1


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"fid": 1, "oid": 1, "label": "x", "bb": [1,2,3,4], "fv": [1]}\nnot json\n')
    with pytest.raises(TraceParseError) as exc:
        read_trace(path)
    assert exc.value.line == 2


def test_out_of_order_frames_rejected(tmp_path):
    path = tmp_path / "t.jsonl"
    write_jsonl(path, [
        {"fid": 5, "oid": 1, "label": "x", "bb": [1, 1, 1, 1], "fv": [1]},
        {"fid": 4, "oid": 1, "label": "x", "bb": [1, 1, 1, 1], "fv": [1]},
    ])
    with pytest.raises(OutOfOrderFrame):
        read_trace(path)


def test_duplicate_fid_oid_rejected(tmp_path):
    path = tmp_path / "t.jsonl"
    write_jsonl(path, [
        {"fid": 5, "oid": 1, "label": "x", "bb": [1, 1, 1, 1], "fv": [1]},
        {"fid": 5, "oid": 1, "label": "x", "bb": [2, 2, 1, 1], "fv": [1]},
    ])
    with pytest.raises(OutOfOrderFrame):
        read_trace(path)


def test_rows_sorted_by_oid_within_frame(tmp_path):
    path = tmp_path / "t.jsonl"
    write_jsonl(path, [
        {"fid": 1, "oid": 9, "label": "x", "bb": [1, 1, 1, 1], "fv": [1]},
        {"fid": 1, "oid": 2, "label": "x", "bb": [1, 1, 1, 1], "fv": [1]},
    ])
    assert [r["oid"] for r in read_trace(path).row_dicts()] == [2, 9]


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_write_read_roundtrip_full_precision(tmp_path, suffix):
    spec = SynthSpec(frames=13, fps=29.97, fv_dim=5, objects=(
        ObjectSpec(1, "person", (0.123456789, 0.5, 3.25, 7.75), (0.1, -0.333),
                   noise=0.01, intervals=((0, 13),)),
        ObjectSpec(2, "car", (100, 50, 20, 10), intervals=((3, 9),)),
    ))
    rel = generate(spec, seed=99)
    path = tmp_path / f"trace{suffix}"
    write_trace(rel, path)
    back = read_trace(path, fps=29.97)
    assert back.row_dicts() == rel.row_dicts()


def test_concat_shifts_frames_and_oids():
    a = generate(SynthSpec(frames=5, fps=10, objects=(
        ObjectSpec(0, "person", (0, 0, 1, 1), intervals=((0, 5),)),)), 1)
    b = generate(SynthSpec(frames=3, fps=10, objects=(
        ObjectSpec(0, "person", (5, 5, 1, 1), intervals=((0, 3),)),)), 2)
    out = concat_traces(a, b, oid_offset=1)
    assert len(out) == len(a) + len(b)
    a_last = a.row_dicts()[-1]
    b_first_shifted = out.row_dicts()[len(a)]
    assert b_first_shifted["fid"] == a_last["fid"] + 1
    assert b_first_shifted["oid"] == 1
    assert b_first_shifted["ts"] > a_last["ts"]


def test_concat_requires_clearing_oid_offset():
    a = generate(SynthSpec(frames=2, fps=10, objects=(
        ObjectSpec(3, "person", (0, 0, 1, 1), intervals=((0, 2),)),)), 1)
    b = generate(SynthSpec(frames=2, fps=10, objects=(
        ObjectSpec(0, "person", (0, 0, 1, 1), intervals=((0, 2),)),)), 1)
    with pytest.raises(SchemaMismatch):
        concat_traces(a, b, oid_offset=3)
    assert len(concat_traces(a, b, oid_offset=4)) == 4


def test_concat_with_empty_is_identity():
    a = generate(SynthSpec(frames=2, fps=10, objects=(
        ObjectSpec(0, "person", (0, 0, 1, 1), intervals=((0, 2),)),)), 1)
    empty = relation_of([])
    assert concat_traces(a, empty, oid_offset=1) is a
    assert concat_traces(empty, a, oid_offset=0) is a


def test_concat_rejects_mixed_fv_dims():
    a = generate(SynthSpec(frames=2, fps=10, fv_dim=4, objects=(
        ObjectSpec(0, "person", (0, 0, 1, 1), intervals=((0, 2),)),)), 1)
    b = generate(SynthSpec(frames=2, fps=10, fv_dim=8, objects=(
        ObjectSpec(0, "person", (0, 0, 1, 1), intervals=((0, 2),)),)), 1)
    with pytest.raises(SchemaMismatch):
        concat_traces(a, b, oid_offset=1)


def test_generate_is_deterministic():
    spec = SynthSpec(frames=20, fps=30, objects=(
        ObjectSpec(1, "person", (0, 0, 2, 2), (1, 0), noise=0.05, intervals=((0, 20),)),))
    r1, r2 = generate(spec, 7), generate(spec, 7)
    assert r1.row_dicts() == r2.row_dicts()
    r3 = generate(spec, 8)
    assert r1.row_dicts() != r3.row_dicts()


def test_generate_tuple_count_matches_intervals():
    spec = SynthSpec(frames=30, fps=30, objects=(
        ObjectSpec(1, "person", (0, 0, 1, 1), intervals=((0, 10), (20, 30))),
        ObjectSpec(2, "car", (9, 9, 2, 2), intervals=((5, 15),)),
    ))
    rel = generate(spec, 0)
    assert len(rel) == 10 + 10 + 10


def test_generate_gaps_become_disjoint_runs():
    spec = SynthSpec(frames=30, fps=30, objects=(
        ObjectSpec(1, "person", (0, 0, 1, 1), intervals=((0, 10), (20, 30))),))
    ar = r2a(generate(spec, 0), "oid", "fid")
    fids = list(group_values(ar, "fid")[1])
    assert len(split_runs_oracle(fids)) == 2
    compressed = cct(ar, CctOption.FIRST)
    assert compressed.counts[0] == 2


def test_generate_moving_object_direction():
    spec = SynthSpec(frames=10, fps=30, objects=(
        ObjectSpec(1, "person", (0, 50, 2, 2), velocity=(3, 0), intervals=((0, 10),)),))
    ar = r2a(generate(spec, 0), "oid", "fid")
    assert direction(ar) == [(1, Direction8.E)]


def test_synth_spec_validation():
    with pytest.raises(GeneratorSpecError):
        SynthSpec(frames=0, objects=())
    with pytest.raises(GeneratorSpecError):
        SynthSpec(frames=10, fps=-1, objects=())
    with pytest.raises(GeneratorSpecError):
        SynthSpec(frames=10, objects=(
            ObjectSpec(1, "x", (0, 0, 1, 1), intervals=((5, 11),)),))


def test_synth_spec_rejects_overlapping_intervals():
    # overlapping visits would write two tuples for one (fid, oid)
    with pytest.raises(GeneratorSpecError) as exc:
        SynthSpec(frames=100, objects=(
            ObjectSpec(4, "person", (0, 0, 1, 1), intervals=((55, 90), (12, 56))),))
    assert exc.value.code == "SPEC_ERROR"
    # touching half-open intervals do not overlap
    spec = SynthSpec(frames=100, objects=(
        ObjectSpec(4, "person", (0, 0, 1, 1), intervals=((12, 55), (55, 90))),))
    assert len(generate(spec, 0)) == 78


def test_synth_spec_from_json_roundtrip():
    text = json.dumps({
        "frames": 12, "fps": 24, "fv_dim": 3,
        "objects": [{"oid": 1, "label": "person", "bb": [0, 0, 2, 2],
                     "velocity": [1, 1], "noise": 0.1, "intervals": [[0, 12]]}],
    })
    spec = SynthSpec.from_json(text)
    assert spec.frames == 12 and spec.objects[0].velocity == (1.0, 1.0)
    assert len(generate(spec, 3)) == 12


def test_synth_spec_bad_json():
    with pytest.raises(GeneratorSpecError):
        SynthSpec.from_json('{"objects": []}')


_finite = st.floats(-1e3, 1e3, allow_nan=False)
_extent = st.floats(0, 1e3)


@st.composite
def _synth_specs(draw):
    frames, dim = draw(st.integers(1, 30)), draw(st.integers(1, 4))
    objects = []
    for oid in draw(st.lists(st.integers(0, 2 ** 63 - 1), max_size=4, unique=True)):
        cuts = sorted(draw(st.lists(st.integers(0, frames), max_size=4, unique=True)))
        objects.append(ObjectSpec(
            oid, draw(st.text(max_size=6)),
            (draw(_finite), draw(_finite), draw(_extent), draw(_extent)),
            (draw(_finite), draw(_finite)),
            draw(st.none() | st.tuples(*[_finite] * dim)),
            draw(st.sampled_from([0.0, 0.05, 1.0])),
            tuple(zip(cuts[::2], cuts[1::2]))))  # disjoint half-open visits
    return SynthSpec(frames, draw(st.floats(0.5, 120)), dim, tuple(objects))


@settings(max_examples=60, deadline=None)
@given(spec=_synth_specs(), seed=st.integers(0, 2 ** 32 - 1), suffix=st.sampled_from(
    [".jsonl", ".csv"]))
def test_generated_traces_read_back_as_generated(tmp_path_factory, spec, seed, suffix):
    rel = generate(spec, seed)
    path = tmp_path_factory.mktemp("gen") / f"t{suffix}"
    write_trace(rel, path)
    back = read_trace(path, fps=spec.fps)
    for name in TRACE_SCHEMA.names():
        assert back.column(name).tolist() == rel.column(name).tolist(), name


@pytest.mark.parametrize("change", [
    {"fps": float("nan")}, {"fps": 0}, {"fv_dim": 0}, {"fv_dim": -2},
    {"label": 5}, {"start_bb": (0, 0, 1)}, {"start_bb": (0, 0, 1, float("inf"))},
    {"velocity": (1,)}, {"noise": -1}, {"noise": float("nan")}, {"base_fv": ()},
    {"base_fv": (1.0, float("nan"))}, {"oid": -1}, {"oid": 2 ** 63},
], ids=repr)
def test_spec_checks_its_fields_where_it_is_built(change):
    obj = dict(oid=1, label="person", start_bb=(0, 0, 1, 1), intervals=((0, 5),))
    top = dict(frames=5, fps=30.0, fv_dim=2)
    for key in change:
        (top if key in top else obj)[key] = change[key]
    with pytest.raises(GeneratorSpecError):
        SynthSpec(objects=(ObjectSpec(**obj),), **top)


def test_flip_y_converts_screen_coordinates(tmp_path):
    # a box at screen-space top should land near cartesian top after the flip
    path = tmp_path / "t.jsonl"
    write_jsonl(path, [
        {"fid": 1, "oid": 1, "label": "x", "bb": [10, 20, 30, 40], "fv": [1]},
    ])
    rel = read_trace(path, flip_y=480.0)
    bb = rel.row_dicts()[0]["bb"]
    assert tuple(bb) == (10, 480 - 20 - 40, 30, 40)


def test_flip_y_reverses_vertical_direction(tmp_path):
    path = tmp_path / "t.jsonl"
    write_jsonl(path, [
        {"fid": 1, "oid": 1, "label": "x", "bb": [0, 100, 5, 5], "fv": [1]},
        {"fid": 2, "oid": 1, "label": "x", "bb": [0, 150, 5, 5], "fv": [1]},
    ])
    down_in_screen = r2a(read_trace(path), "oid", "fid")
    assert direction(down_in_screen) == [(1, Direction8.N)]
    flipped = r2a(read_trace(path, flip_y=480.0), "oid", "fid")
    assert direction(flipped) == [(1, Direction8.S)]


@pytest.mark.parametrize("line", ["[1, 2]", "3", '"x"', "null"])
def test_non_object_line_is_a_parse_error(tmp_path, line):
    path = tmp_path / "t.jsonl"
    path.write_text('{"fid": 1, "oid": 1, "label": "x", "bb": [1, 1, 1, 1], "fv": [1]}\n'
                    + line + "\n")
    with pytest.raises(TraceParseError) as exc:
        read_trace(path)
    assert exc.value.code == "PARSE_ERROR" and exc.value.line == 2
    assert "trace line must be an object" in str(exc.value)


@pytest.mark.parametrize("field, value", [
    ("fv", "12"), ("fv", [1, True]), ("bb", "1234"), ("bb", [1, 2, "3", 4]),
    ("label", None), ("label", 5), ("fid", 1.7), ("fid", "1"), ("oid", True),
    ("ts", "0.5"), ("ts", False), ("fid", 2 ** 63), ("fv", [1, 10 ** 400]),
    ("fv", [1, int(sys.float_info.max) + 1]),  # float() would round it down to the largest float
])
def test_json_fields_keep_their_types(tmp_path, field, value):
    good = {"fid": 1, "oid": 1, "label": "x", "bb": [1, 1, 1, 1], "fv": [1, 2]}
    path = tmp_path / "t.jsonl"
    write_jsonl(path, [good, {**good, "fid": 2, field: value}])
    with pytest.raises(TraceParseError) as exc:
        read_trace(path)
    assert exc.value.code == "PARSE_ERROR" and exc.value.line == 2
    assert field in str(exc.value)


def test_null_ts_counts_as_absent(tmp_path):
    path = tmp_path / "t.jsonl"
    write_jsonl(path, [{"fid": 3, "oid": 1, "label": "x", "bb": [1, 1, 1, 1], "fv": [1],
                        "ts": None}])
    assert read_trace(path, fps=8.0).row_dicts()[0]["ts"] == 3 / 8.0


def test_feature_dimension_must_not_change(tmp_path):
    rec = {"fid": 1, "oid": 1, "label": "x", "bb": [1, 1, 1, 1], "fv": [1, 2]}
    path = tmp_path / "t.jsonl"
    write_jsonl(path, [rec, {**rec, "oid": 2}, {**rec, "oid": 3, "fv": [1, 2, 3]}])
    with pytest.raises(DimensionMismatch) as exc:
        read_trace(path)
    assert exc.value.code == "DIMENSION_MISMATCH" and "(line 3)" in str(exc.value)


@pytest.mark.parametrize("first, second, error", [
    # (fault, its line) pairs: the earlier line decides, whatever the kinds
    (("dup", 3), ("json", 4), OutOfOrderFrame),
    (("nan", 3), ("dup", 4), TupleValidationError),
    (("json", 3), ("nan", 4), TraceParseError),
    (("dup", CHUNK + 1), ("json", CHUNK + 2), OutOfOrderFrame),
    (("nan", CHUNK + 1), ("dup", CHUNK + 2), TupleValidationError),
    (("dim", 5), ("dup", 6), DimensionMismatch),
    (("dup", 5), ("dim", 6), OutOfOrderFrame),
])
def test_first_offending_line_decides(tmp_path, first, second, error):
    recs = [{"fid": i, "oid": 1, "label": "x", "bb": [1, 1, 1, 1], "fv": [1, 2]}
            for i in range(2 * CHUNK)]
    lines = [json.dumps(r) for r in recs]
    for fault, line_no in (first, second):
        i = line_no - 1
        if fault == "dup":
            recs[i]["fid"] = recs[i - 1]["fid"]
        elif fault == "nan":
            recs[i]["bb"][0] = float("nan")
        elif fault == "dim":
            recs[i]["fv"] = [1, 2, 3]
        lines[i] = "{not json" if fault == "json" else json.dumps(recs[i])
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(error):
        read_trace(path)


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_only_a_faulty_batch_calls_validate_tuple(tmp_path, monkeypatch, suffix):
    # benchmarks/tracer.py counts model.validate_tuple calls by replacing this global
    calls = []

    def counting(t, *args):
        calls.append(t)
        return validate_tuple(t, *args)

    monkeypatch.setattr(ingest, "validate_tuple", counting)
    spec = SynthSpec(frames=65, fv_dim=3, objects=(
        ObjectSpec(1, "person", (0, 0, 2, 2), intervals=((0, 65),)),
        ObjectSpec(2, "car", (5, 5, 2, 2), intervals=((0, 65),))))
    path = tmp_path / f"t{suffix}"
    write_trace(generate(spec, 1), path)
    assert len(read_trace(path)) == 130 and calls == []
    lines = path.read_text().splitlines()
    if suffix == ".csv":  # line 66 is the 65th row under the header
        fields = lines[65].split(",")
        lines[65] = ",".join(fields[:4] + ["nan"] + fields[5:])
    else:
        rec = json.loads(lines[65])
        rec["bb"][0] = float("nan")
        lines[65] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TupleValidationError) as exc:
        read_trace(path)
    assert (exc.value.code, str(exc.value)) == ("NON_FINITE_VALUE", "non-finite value nan")
    assert calls


def test_rows_view_read_only_feature_blocks(tmp_path):
    path = tmp_path / "t.jsonl"
    write_jsonl(path, [{"fid": i, "oid": 1, "label": "x", "bb": [1, 1, 1, 1], "fv": [i, 1.5]}
                       for i in range(3)])
    rel = read_trace(path)
    assert not rel.column("fv").flags.writeable
    rows = rel.row_dicts()
    assert rows[2]["fv"] == [2.0, 1.5]
    assert all(type(v) is float for v in rows[2]["fv"])


def test_generate_draws_the_same_noise_as_one_draw_per_frame():
    spec = SynthSpec(frames=40, fps=8.0, fv_dim=6, objects=(
        ObjectSpec(1, "person", (0, 0, 2, 2), noise=0.1, intervals=((0, 9), (20, 31))),
        ObjectSpec(2, "car", (5, 5, 2, 2), noise=0.3, intervals=((3, 40),)),
    ))
    rng = np.random.default_rng(11)
    bases = {o.oid: rng.uniform(0.1, 1.0, size=6) for o in spec.objects}
    expected = {(fid, o.oid): bases[o.oid] + rng.normal(0.0, o.noise, size=6)
                for o in spec.objects for lo, hi in o.intervals for fid in range(lo, hi)}
    rows = generate(spec, 11).row_dicts()
    assert len(rows) == len(expected)
    for r in rows:
        assert np.array_equal(r["fv"], expected[(r["fid"], r["oid"])])


# --- differential test against the tuple-at-a-time reader -------------------

_FAULTS = ("none", "bad_json", "missing_key", "non_object", "bb3", "nonfinite",
           "negative", "out_of_order", "duplicate", "ts_regression", "fv_len", "type")
#: 0-based fault positions at and around the chunk boundaries; None is anywhere
_NEAR = (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, None)


def _records(rng, n, dim):
    recs, fid = [], 0
    while len(recs) < n:
        for oid in rng.permutation(int(rng.integers(1, 5))).tolist():
            rec = {"fid": fid, "oid": oid, "label": ["person", "car"][oid % 2],
                   "bb": [round(float(v), 3) for v in rng.uniform(-50, 50, 2)]
                   + [round(float(v), 3) for v in rng.uniform(0, 20, 2)],
                   "fv": [float(v) for v in rng.normal(size=dim)]}
            if rng.random() < 0.5:  # a line without ts takes fid / fps
                rec["ts"] = fid / 8.0 + oid / 1024
            recs.append(rec)
        fid += int(rng.integers(1, 3))
    return recs[:n]


def _inject(rng, recs, i, fault, csv_format):
    """Apply one fault to record ``i``; returns the line text to use instead, if any."""
    rec, prev = recs[i], recs[i - 1] if i else None
    if fault == "bad_json":
        return rng.choice(["{not json", json.dumps(rec)[:-1], json.dumps(rec) + " x"])
    if fault == "missing_key":
        del rec[str(rng.choice(["fid", "oid", "label", "bb", "fv"]))]
    elif fault == "non_object":
        return rng.choice(["[1, 2]", "3", '"x"'])
    elif fault == "bb3":
        rec["bb"] = rec["bb"][:3]
    elif fault == "nonfinite":
        value = float(rng.choice([np.nan, np.inf, -np.inf]))
        where = rng.choice(["bb", "fv", "ts"])
        if where == "ts":
            rec["ts"] = value
        else:
            rec[where][int(rng.integers(len(rec[where])))] = value
    elif fault == "negative":
        where = rng.choice(["w", "h", "fid", "oid", "ts"])
        if where in ("w", "h"):
            rec["bb"][2 if where == "w" else 3] = -1.5
        else:
            rec[where] = -1 if where != "ts" else -0.5
    elif fault == "out_of_order" and prev is not None and prev["fid"] > 0:
        rec["fid"] = prev["fid"] - 1
    elif fault == "duplicate" and prev is not None:
        rec["fid"], rec["oid"] = prev["fid"], prev["oid"]
    elif fault == "ts_regression":
        rec["ts"] = rec["fid"] / 8.0 - 0.2
    elif fault == "fv_len":
        rec["fv"] = rec["fv"] + [0.5] if rng.random() < 0.5 else rec["fv"][:-1]
    elif fault == "type" and not csv_format:
        field, value = [("fid", float(rec["fid"])), ("oid", True), ("label", None),
                        ("bb", "1234"), ("fv", "12"), ("ts", "0.5")][int(rng.integers(6))]
        rec[field] = value
    return None


def _write_csv(path, recs, dim, texts):
    header = ["fid", "oid", "label", "ts", "bb_x", "bb_y", "bb_w", "bb_h"] \
        + [f"fv_{k}" for k in range(dim)]
    lines = [",".join(header)]
    for rec, text in zip(recs, texts):
        if text is not None:  # unparsable JSON becomes an unparsable number
            lines.append(",".join(["x", "1", "car", ""] + ["1"] * (4 + dim)))
            continue
        fields = [rec.get("fid", ""), rec.get("oid", ""), rec.get("label", ""),
                  rec.get("ts", "")] + list(rec.get("bb", [])) + list(rec.get("fv", []))
        lines.append(",".join(str(f) for f in fields))
    path.write_text("\n".join(lines) + "\n")


def _outcome(read, path, flip_y):
    try:
        rel = read(path, fps=8.0, flip_y=flip_y)
    except VaqueryError as exc:
        return ("error", type(exc), exc.code, str(exc), getattr(exc, "line", None))
    return ("rows", [repr((r["fid"], r["oid"], r["label"], r["bb"], r["fv"], r["ts"]))
                     for r in rel.row_dicts()])


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dim=st.integers(1, 3),
       fault=st.sampled_from(_FAULTS),
       near=st.sampled_from(_NEAR),
       csv_format=st.booleans(),
       flip_y=st.sampled_from([None, 480.0]))
def test_reader_matches_tuple_at_a_time_oracle(tmp_path_factory, seed, dim, fault, near,
                                               csv_format, flip_y):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 2 * CHUNK + 3)) if rng.random() < 0.3 else 2 * CHUNK + 2
    recs = _records(rng, n, dim)
    i = int(rng.integers(n)) if near is None else min(near, n - 1)
    texts = [None] * n
    if fault != "none":
        texts[i] = _inject(rng, recs, i, fault, csv_format)
    path = tmp_path_factory.mktemp("trace") / ("t.csv" if csv_format else "t.jsonl")
    if csv_format:
        _write_csv(path, recs, dim, texts)
    else:
        path.write_text("".join((t if t is not None else json.dumps(r)) + "\n"
                                for r, t in zip(recs, texts)))
    got = _outcome(read_trace, path, flip_y)
    expected = _outcome(read_trace_oracle, path, flip_y)
    line = i + 2 if csv_format else i + 1
    if fault == "type" and not csv_format:
        # fields keep their JSON types where the tuple-at-a-time reader coerced them
        assert got[:3] == ("error", TraceParseError, "PARSE_ERROR") and got[4] == line
    elif fault == "fv_len" and not csv_format and recs[i]["fv"] and n > 1:
        # one feature dimension per trace, set by the first line
        lengths = [len(r["fv"]) for r in recs]
        first = next(k for k, m in enumerate(lengths) if m != lengths[0])
        assert got[:3] == ("error", DimensionMismatch, "DIMENSION_MISMATCH")
        assert got[3].endswith(f"(line {first + 1})")
    else:
        assert got == expected
