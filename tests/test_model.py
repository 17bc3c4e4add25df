import pytest

from conftest import group_values, trace_relation
from vaquery.errors import (DimensionMismatch, IllegalColumnKind, TupleValidationError,
                            UnknownColumn)
from vaquery.model import ColumnKind, OPERATOR_LEGALITY, TRACE_SCHEMA, kind_check, validate_tuple
from vaquery.operators import r2a


def make_record(fid=0, oid=0, label="person", bb=(10.0, 20.0, 30.0, 20.0),
                fv=(1.0, 0.0, 0.0, 0.0), ts=None, fps=30.0) -> tuple:
    """A decoded detection record, as ``validate_tuple`` takes it."""
    return (fid, oid, label, [float(v) for v in bb], [float(v) for v in fv],
            ts if ts is not None else fid / fps)


def test_validate_tuple_well_formed():
    validate_tuple(make_record(bb=(10, 20, 30, 20), fv=(1, 2, 3, 4)))


def test_a_column_of_mixed_feature_dimensions_is_refused():
    with pytest.raises(DimensionMismatch):
        trace_relation([(0, 1, "person", (0, 0, 1, 1), (1.0,)),
                        (0, 2, "person", (0, 0, 1, 1), (1.0, 0.5))])


def test_validate_tuple_negative_width():
    with pytest.raises(TupleValidationError) as exc:
        validate_tuple(make_record(bb=(10, 20, -1, 20)))
    assert exc.value.code == "NEGATIVE_DIMENSION"


def test_validate_tuple_empty_feature_vector():
    with pytest.raises(TupleValidationError) as exc:
        validate_tuple(make_record(fv=()))
    assert exc.value.code == "EMPTY_FEATURE_VECTOR"


def test_validate_tuple_non_finite():
    with pytest.raises(TupleValidationError) as exc:
        validate_tuple(make_record(bb=(float("nan"), 0, 1, 1)))
    assert exc.value.code == "NON_FINITE_VALUE"
    with pytest.raises(TupleValidationError):
        validate_tuple(make_record(fv=(1.0, float("inf"))))


def test_kind_check_smatch_on_feature_vector_ok():
    kind_check("smatch", "fv", TRACE_SCHEMA)


def test_kind_check_avg_on_feature_vector_rejected():
    with pytest.raises(IllegalColumnKind) as exc:
        kind_check("avg", "fv", TRACE_SCHEMA)
    assert exc.value.code == "ILLEGAL_COLUMN_KIND"
    assert "avg" in str(exc.value)


def test_kind_check_equality_join_on_feature_vector_rejected():
    with pytest.raises(IllegalColumnKind):
        kind_check("equality_join", "fv", TRACE_SCHEMA)
    with pytest.raises(IllegalColumnKind):
        kind_check("equality_join", "bb", TRACE_SCHEMA)


def test_kind_check_is_total():
    # every (operator, kind) combination has a defined verdict
    for op, legal in OPERATOR_LEGALITY.items():
        for kind in ColumnKind:
            assert (kind in legal) in (True, False)
    names = {"fid": "scalar", "label": "cat", "bb": "box", "fv": "vec"}
    for op in OPERATOR_LEGALITY:
        for column in names:
            try:
                kind_check(op, column, TRACE_SCHEMA)
            except IllegalColumnKind:
                pass


def test_kind_check_unknown_column():
    with pytest.raises(UnknownColumn):
        kind_check("avg", "speed", TRACE_SCHEMA)


def test_relation_column_unknown_name(two_person_trace):
    with pytest.raises(UnknownColumn) as exc:
        two_person_trace.column("nope")
    assert exc.value.code == "UNKNOWN_COLUMN"


def test_schema_resolution_is_case_insensitive():
    assert TRACE_SCHEMA.resolve("FV") == "fv"
    assert TRACE_SCHEMA.kind_of("Bb") is ColumnKind.BBOX_VECTOR


def test_relation_to_arrable_flatten_is_permutation(two_person_trace):
    ar = r2a(two_person_trace, "oid", "ts")
    flattened = ar.flatten()
    assert len(flattened) == len(two_person_trace)
    key = lambda r: (r["ts"], r["fid"], r["oid"])
    assert sorted(flattened, key=key) == sorted(two_person_trace.row_dicts(), key=key)


def test_arrable_vectors_ordered_by_aoa(two_person_trace):
    ar = r2a(two_person_trace, "oid", "ts")
    columns = {n: group_values(ar, n) for n in ("fid", "label", "bb", "fv", "ts")}
    for key, tss in columns["ts"].items():
        assert all(a <= b for a, b in zip(tss, tss[1:]))
        lengths = {len(values[key]) for values in columns.values()}
        assert len(lengths) == 1


def test_permutation_roundtrip_on_random_traces():
    import random
    rng = random.Random(7)
    for _ in range(25):
        records = []
        used = set()
        for _ in range(rng.randint(0, 40)):
            fid = rng.randint(0, 12)
            oid = rng.randint(0, 5)
            if (fid, oid) in used:
                continue
            used.add((fid, oid))
            records.append((fid, oid, rng.choice(["person", "car"]),
                            (rng.uniform(0, 100),) * 4, (rng.random() + 0.1,) * 3))
        rel = trace_relation(records)
        ar = r2a(rel, "oid", "fid")
        key = lambda r: (r["fid"], r["oid"])
        assert sorted(ar.flatten(), key=key) == sorted(rel.row_dicts(), key=key)
