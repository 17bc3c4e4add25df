import json

import pytest

from vaquery.errors import (GeneratorSpecError, OutOfOrderFrame,
                            SchemaMismatch, TraceParseError)
from vaquery.ingest import (ObjectSpec, SynthSpec, concat_traces, generate,
                            read_trace, write_trace)
from vaquery.model import Relation, TRACE_SCHEMA
from vaquery.operators import CctOption, Direction8, cct, direction, r2a
from oracles import split_runs_oracle


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
    assert len(rel.rows) == 1
    row = rel.rows[0]
    assert row["ts"] == 2 / 30.0
    assert row["bb"].y == 20.5
    assert row["fv"].as_list() == [0.1, 0.9]


def test_explicit_ts_overrides_fps(tmp_path):
    path = tmp_path / "t.jsonl"
    write_jsonl(path, [
        {"fid": 2, "oid": 1, "label": "person", "bb": [1, 1, 1, 1], "fv": [1], "ts": 77.5},
    ])
    assert read_trace(path, fps=30.0).rows[0]["ts"] == 77.5


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
    assert jrel.rows == crel.rows


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
    assert [r["oid"] for r in read_trace(path).rows] == [2, 9]


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
    assert back.rows == rel.rows


def test_concat_shifts_frames_and_oids():
    a = generate(SynthSpec(frames=5, fps=10, objects=(
        ObjectSpec(0, "person", (0, 0, 1, 1), intervals=((0, 5),)),)), 1)
    b = generate(SynthSpec(frames=3, fps=10, objects=(
        ObjectSpec(0, "person", (5, 5, 1, 1), intervals=((0, 3),)),)), 2)
    out = concat_traces(a, b, oid_offset=1)
    assert len(out.rows) == len(a.rows) + len(b.rows)
    a_last = a.rows[-1]
    b_first_shifted = out.rows[len(a.rows)]
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
    assert len(concat_traces(a, b, oid_offset=4).rows) == 4


def test_concat_with_empty_is_identity():
    a = generate(SynthSpec(frames=2, fps=10, objects=(
        ObjectSpec(0, "person", (0, 0, 1, 1), intervals=((0, 2),)),)), 1)
    empty = Relation(TRACE_SCHEMA, ())
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
    assert r1.rows == r2.rows
    r3 = generate(spec, 8)
    assert r1.rows != r3.rows


def test_generate_tuple_count_matches_intervals():
    spec = SynthSpec(frames=30, fps=30, objects=(
        ObjectSpec(1, "person", (0, 0, 1, 1), intervals=((0, 10), (20, 30))),
        ObjectSpec(2, "car", (9, 9, 2, 2), intervals=((5, 15),)),
    ))
    rel = generate(spec, 0)
    assert len(rel.rows) == 10 + 10 + 10


def test_generate_gaps_become_disjoint_runs():
    spec = SynthSpec(frames=30, fps=30, objects=(
        ObjectSpec(1, "person", (0, 0, 1, 1), intervals=((0, 10), (20, 30))),))
    ar = r2a(generate(spec, 0), "oid", "fid")
    fids = list(ar.rows[0].column("fid"))
    assert len(split_runs_oracle(fids)) == 2
    compressed = cct(ar, CctOption.FIRST)
    assert len(compressed.rows[0]) == 2


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
    assert len(generate(spec, 0).rows) == 78


def test_synth_spec_from_json_roundtrip():
    text = json.dumps({
        "frames": 12, "fps": 24, "fv_dim": 3,
        "objects": [{"oid": 1, "label": "person", "bb": [0, 0, 2, 2],
                     "velocity": [1, 1], "noise": 0.1, "intervals": [[0, 12]]}],
    })
    spec = SynthSpec.from_json(text)
    assert spec.frames == 12 and spec.objects[0].velocity == (1.0, 1.0)
    assert len(generate(spec, 3).rows) == 12


def test_synth_spec_bad_json():
    with pytest.raises(GeneratorSpecError):
        SynthSpec.from_json('{"objects": []}')


def test_flip_y_converts_screen_coordinates(tmp_path):
    # a box at screen-space top should land near cartesian top after the flip
    path = tmp_path / "t.jsonl"
    write_jsonl(path, [
        {"fid": 1, "oid": 1, "label": "x", "bb": [10, 20, 30, 40], "fv": [1]},
    ])
    rel = read_trace(path, flip_y=480.0)
    bb = rel.rows[0]["bb"]
    assert (bb.x, bb.y, bb.w, bb.h) == (10, 480 - 20 - 40, 30, 40)


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
