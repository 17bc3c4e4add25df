"""Metamorphic engine properties: relations between the results of related
queries over small generated traces, at frame rates and window sizes whose
window edges are not binary fractions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from vaquery.engine import instantiate
from vaquery.ingest import ObjectSpec, SynthSpec, generate
from vaquery.model import TRACE_SCHEMA
from vaquery.querylang import parse, plan

ONE = {"R1": TRACE_SCHEMA}
TWO = {"R1": TRACE_SCHEMA, "R2": TRACE_SCHEMA}
FPS = [10.0, 25.0, 29.97, 30.0]
SECONDS = [0.1, 0.3, 0.7, 1.1, 1 / 3]
BASES = [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.7, 0.7, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)]
PREDICATES = ['R1.label = "person"', "R1.fid < 20", "R1.bb MATCHES [0:15, *, *, *]"]
SETTINGS = settings(max_examples=30, derandomize=True, deadline=None)


@st.composite
def traces(draw):
    frames = draw(st.integers(1, 60))
    objects = []
    for oid in range(draw(st.integers(1, 5))):
        lo = draw(st.integers(0, frames - 1))
        objects.append(ObjectSpec(oid, draw(st.sampled_from(["person", "car"])),
                                  (10.0 * oid, 0.0, 4.0, 8.0), (1.0, 0.5),
                                  base_fv=draw(st.sampled_from(BASES)), noise=0.05,
                                  intervals=((lo, draw(st.integers(lo + 1, frames))),)))
    spec = SynthSpec(frames=frames, fps=draw(st.sampled_from(FPS)), fv_dim=4,
                     objects=tuple(objects))
    return generate(spec, draw(st.integers(0, 3)))


def window(kind: str, size, hop) -> str:
    return f"WINDOW({kind}, {size!r}, {hop!r})"


TUMBLING = st.one_of(st.sampled_from(SECONDS).map(lambda s: window("TIME", s, s)),
                     st.integers(1, 20).map(lambda n: window("TUPLE", n, n)))
WINDOWS = st.one_of(TUMBLING,
                    st.tuples(st.sampled_from(SECONDS), st.sampled_from(SECONDS))
                    .map(lambda sh: window("TIME", max(sh), min(sh))),
                    st.tuples(st.integers(1, 20), st.integers(1, 20))
                    .map(lambda sh: window("TUPLE", max(sh), min(sh))))


def rows(query: str, *traces) -> list[dict]:
    return instantiate(plan(parse(query), ONE if len(traces) == 1 else TWO)).run(traces)[0]


def counts(query: str, trace) -> dict[int, int]:
    return {r["window"]: r["count"] for r in rows(query, trace)}


def test_fps_10_tumbling_windows_of_0_7_s_count_all_3999_rows():
    # frames 1..3999 at 10 fps: the origin is 0.1 s and no window edge is a
    # binary fraction
    spec = SynthSpec(frames=4000, fps=10.0, fv_dim=2, objects=(
        ObjectSpec(1, "person", (0.0, 0.0, 1.0, 1.0), intervals=((1, 4000),)),))
    trace = generate(spec, 0)
    per_window = counts("SELECT count(*) FROM R1 WINDOW(TIME, 0.7, 0.7)", trace)
    assert sum(per_window.values()) == len(trace) == 3999


@SETTINGS
@given(trace=traces(), clause=TUMBLING)
def test_tumbling_window_counts_add_up_to_the_unwindowed_count(trace, clause):
    assert counts("SELECT count(*) FROM R1", trace) == {0: len(trace)}
    assert sum(counts(f"SELECT count(*) FROM R1 {clause}", trace).values()) == len(trace)


@SETTINGS
@given(trace=traces(), clause=WINDOWS, predicate=st.sampled_from(PREDICATES))
def test_a_predicate_and_its_negation_split_every_window(trace, clause, predicate):
    total = counts(f"SELECT count(*) FROM R1 {clause}", trace)
    kept = counts(f"SELECT count(*) FROM R1 WHERE {predicate} {clause}", trace)
    dropped = counts(f"SELECT count(*) FROM R1 WHERE NOT ({predicate}) {clause}", trace)
    assert kept.keys() == dropped.keys() == total.keys()
    assert all(kept[w] + dropped[w] == n for w, n in total.items())


@SETTINGS
@given(left=traces(), right=traces(), clause=WINDOWS, th=st.sampled_from([0.8, 0.9, 0.99]))
def test_join_variants_agree_in_every_window(left, right, clause, th):
    def pairs(kind: str) -> set:
        query = (f"SELECT AR1.oid, AR2.oid FROM (R2A(R1, R1.oid, R1.fid)) AR1 {kind} "
                 f"(R2A(R2, R2.oid, R2.fid)) AR2 ON AR1.[FV] sMatch({th}) AR2.[FV] {clause}")
        return {(r["window"], r["AR1.oid"], r["AR2.oid"]) for r in rows(query, left, right)}

    join = pairs("JOIN")
    assert pairs("CJOIN") == join
    assert pairs("CCTJOIN") <= join


@SETTINGS
@given(left=traces(), right=traces(), clause=WINDOWS, th=st.sampled_from([0.8, 0.9, 0.99]),
       metric=st.sampled_from(["COSINE", "EUCLIDEAN"]))
def test_a_join_with_its_sides_swapped_finds_the_same_pairs(left, right, clause, th, metric):
    # each element pair is decided by its own canonical score, which does not
    # depend on which side it is scored from
    th = th if metric == "COSINE" else 1 - th

    def pairs(first: str, second: str, *traces) -> set:
        query = (f"SELECT AR{first}.oid, AR{second}.oid "
                 f"FROM (R2A(R{first}, R{first}.oid, R{first}.fid)) AR{first} JOIN "
                 f"(R2A(R{second}, R{second}.oid, R{second}.fid)) AR{second} "
                 f"ON AR{first}.[FV] sMatch({th}, {metric}) AR{second}.[FV] {clause}")
        return {(r["window"], r["AR1.oid"], r["AR2.oid"]) for r in rows(query, *traces)}

    assert pairs("2", "1", right, left) == pairs("1", "2", left, right)


@SETTINGS
@given(left=traces(), right=traces(), clause=WINDOWS,
       kind=st.sampled_from(["JOIN", "CJOIN", "CCTJOIN"]))
def test_a_window_clause_cuts_the_same_windows_from_any_level_of_a_join(left, right, clause,
                                                                        kind):
    # a query has one window: moving its clause into either side's subquery
    # still cuts both sides
    sides = ["(R2A(R1, R1.oid, R1.fid)) AR1", "(R2A(R2, R2.oid, R2.fid)) AR2"]

    def joined(sides, outer) -> list[dict]:
        return rows(f"SELECT * FROM {sides[0]} {kind} {sides[1]} "
                    f"ON AR1.[FV] sMatch(0.9) AR2.[FV] {outer}", left, right)

    expected = joined(sides, clause)
    for i, alias in enumerate(("AR1", "AR2")):
        moved = list(sides)
        moved[i] = f"(SELECT * FROM {sides[i]} {clause}) {alias}"
        assert joined(moved, "") == expected
