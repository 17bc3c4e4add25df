import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from vaquery.model import Arrable, Relation, Schema, TRACE_SCHEMA, offsets_of
from vaquery.operators import Direction8


def pytest_make_parametrize_id(config, val, argname):
    """Name a direction parameter ``Direction8.N``: pytest names other
    ``str`` values, a ``str`` enum's members among them, by their text."""
    return str(val) if isinstance(val, Direction8) else None


def relation_of(rows, schema: Schema = TRACE_SCHEMA) -> Relation:
    """A relation from row mappings of Python values (a box or feature vector
    is a sequence of numbers), built through ``Relation.from_columns``."""
    rows = list(rows)
    return Relation.from_columns(schema, {n: [r[n] for r in rows] for n in schema.names()})


def trace_relation(records, fps=30.0) -> Relation:
    """Build a relation from (fid, oid, label, bb, fv[, ts]) shorthand records,
    in (ts, fid, oid) order; ``ts`` defaults to ``fid / fps``."""
    rows = [dict(zip(("fid", "oid", "label", "bb", "fv", "ts"), (*rec, rec[0] / fps)))
            for rec in records]
    rows.sort(key=lambda r: (r["ts"], r["fid"], r["oid"]))
    return relation_of(rows)


def arrable_of(groups: dict) -> Arrable:
    """Arrable grouped on ``oid`` from {key: {"fid": [...], "fv": [...], ...}}
    shorthand; its element columns are those the first group names (every
    trace column but ``oid`` when there is no group)."""
    names = list(next(iter(groups.values()), [n for n in TRACE_SCHEMA.names() if n != "oid"]))
    rows = [dict(zip(names, values))
            for cols in groups.values() for values in zip(*(cols[n] for n in names))]
    base = relation_of(rows, TRACE_SCHEMA.subset(names))
    counts = [len(cols[names[0]]) if names else 0 for cols in groups.values()]
    return Arrable("oid", TRACE_SCHEMA, np.array(list(groups), dtype=np.int64),
                   offsets_of(counts), base, np.arange(len(base)))


def group_values(ar: Arrable, column: str) -> dict:
    """{key: tuple of the group's ``column`` values}, read through ``flatten()``."""
    out = {key: () for key in ar.keys.tolist()}
    for row in ar.flatten():
        out[row[ar.gba]] += (row[column],)
    return out


def pair_keys(pairs) -> list:
    """The (left key, right key) of each pair a similarity join returns."""
    return list(zip(pairs[0].tolist(), pairs[1].tolist()))


@pytest.fixture
def two_person_trace() -> Relation:
    return trace_relation([
        (1, 1, "person", (10, 20, 30, 20), (1.0, 0.0, 0.0, 0.0)),
        (2, 1, "person", (11, 20.5, 30, 20), (1.0, 0.1, 0.0, 0.0)),
        (2, 2, "car", (30, 50, 8, 4), (0.0, 0.0, 1.0, 0.0)),
        (3, 1, "person", (12, 21, 30, 20), (1.0, 0.05, 0.0, 0.0)),
        (3, 3, "person", (70, 10, 10, 25), (0.0, 1.0, 0.0, 0.0)),
    ])
