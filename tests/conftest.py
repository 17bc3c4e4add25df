import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from vaquery.model import (Arrable, ArrableRow, BoundingBox, FeatureVector,
                           Relation, TRACE_SCHEMA, VTuple)
from vaquery.operators import Direction8


def pytest_make_parametrize_id(config, val, argname):
    """Name a direction parameter ``Direction8.N``: pytest names other
    ``str`` values, a ``str`` enum's members among them, by their text."""
    return str(val) if isinstance(val, Direction8) else None


def make_tuple(fid=0, oid=0, label="person", bb=(10.0, 20.0, 30.0, 20.0),
               fv=(1.0, 0.0, 0.0, 0.0), ts=None, fps=30.0) -> VTuple:
    return VTuple(fid=fid, oid=oid, label=label, bb=BoundingBox(*bb),
                  fv=FeatureVector(fv), ts=ts if ts is not None else fid / fps)


def trace_relation(records, fps=30.0) -> Relation:
    """Build a relation from (fid, oid, label, bb, fv) shorthand records."""
    tuples = [make_tuple(*rec, fps=fps) for rec in records]
    tuples.sort(key=lambda t: (t.ts, t.fid, t.oid))
    return Relation.from_tuples(tuples)


def arrable_of(groups: dict, aoa: str = "fid") -> Arrable:
    """Arrable from {key: {"fid": [...], "fv": [...], ...}} shorthand.

    Feature vectors given as plain tuples are wrapped; boxes given as
    4-tuples become BoundingBox values.
    """
    rows = []
    for key, cols in groups.items():
        values = {}
        for name, vec in cols.items():
            if name == "fv":
                values[name] = tuple(v if isinstance(v, FeatureVector) else FeatureVector(v)
                                     for v in vec)
            elif name == "bb":
                values[name] = tuple(v if isinstance(v, BoundingBox) else BoundingBox(*v)
                                     for v in vec)
            else:
                values[name] = tuple(vec)
        rows.append(ArrableRow(key, values))
    return Arrable.from_rows("oid", aoa, TRACE_SCHEMA, tuple(rows))


@pytest.fixture
def two_person_trace() -> Relation:
    return trace_relation([
        (1, 1, "person", (10, 20, 30, 20), (1.0, 0.0, 0.0, 0.0)),
        (2, 1, "person", (11, 20.5, 30, 20), (1.0, 0.1, 0.0, 0.0)),
        (2, 2, "car", (30, 50, 8, 4), (0.0, 0.0, 1.0, 0.0)),
        (3, 1, "person", (12, 21, 30, 20), (1.0, 0.05, 0.0, 0.0)),
        (3, 3, "person", (70, 10, 10, 25), (0.0, 1.0, 0.0, 0.0)),
    ])
