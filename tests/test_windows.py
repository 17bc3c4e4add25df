import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import WindowManagerOracle, windows_containing_oracle
from vaquery.errors import InvalidWindowSpec, TooManyWindows
from vaquery.windows import (MAX_WINDOWS, WHOLE_STREAM, WindowKind, WindowManager,
                             WindowSpec, assign)


def spec(size, hop, kind=WindowKind.TIME):
    return WindowSpec(kind, size, hop)


def test_disjoint_assignment():
    assert list(assign(spec(100, 100), 250, origin=0)) == [2]


def test_rolling_assignment_overlap():
    assert list(assign(spec(100, 50), 120, origin=0)) == [1, 2]


def test_tuple_window_assignment():
    assert list(assign(spec(5, 5, WindowKind.TUPLE), 4, origin=0)) == [0]


def test_boundary_is_half_open():
    # ts exactly at a window end belongs to the next window only
    assert list(assign(spec(100, 100), 100, origin=0)) == [1]
    assert list(assign(spec(100, 50), 100, origin=0)) == [1, 2]


def test_nonpositive_size_or_hop_rejected():
    for size, hop in [(0, 1), (1, 0), (-5, 5), (5, -5), (1, math.inf)]:
        with pytest.raises(InvalidWindowSpec) as exc:
            WindowSpec(WindowKind.TIME, size, hop)
        assert exc.value.code == "NONPOSITIVE_SIZE_OR_HOP"


@given(st.floats(0, 1000, allow_nan=False),
       st.floats(1, 200), st.floats(1, 200))
def test_assignment_matches_scan_oracle(key, size, hop):
    got = list(assign(spec(size, hop), key, origin=0))
    assert got == windows_containing_oracle(key, 0.0, size, hop)
    assert len(got) <= math.ceil(size / hop)


@given(st.floats(0, 1000, allow_nan=False), st.floats(1, 200))
def test_disjoint_windows_are_a_partition(key, size):
    assert len(list(assign(spec(size, size), key, origin=0))) == 1


def test_close_windows_on_watermark_advance():
    # keys at positions 0, 1, 2: a window's rows are the positions it holds
    mgr = WindowManager(spec(100, 100))
    mgr.add([50])
    assert mgr.close_windows(50) == []
    mgr.add([150])
    closed = mgr.close_windows(150)
    assert [(w.index, rows) for w, rows in closed] == [(0, range(0, 1))]
    mgr.add([250])
    closed = mgr.close_windows(250)
    assert [(w.index, rows) for w, rows in closed] == [(1, range(1, 2))]


def test_watermark_regression_is_ignored():
    mgr = WindowManager(WindowSpec(WindowKind.TIME, 100, 100, origin=0.0))
    mgr.add([150])
    assert len(mgr.close_windows(250)) == 2
    assert mgr.close_windows(100) == []
    assert mgr.close_windows(250) == []


def test_stream_over_300_closes_exactly_three_windows():
    mgr = WindowManager(spec(100, 100))
    emitted = []
    for ts in range(0, 300, 10):
        mgr.add([float(ts)])
        emitted.extend(mgr.close_windows(float(ts)))
    emitted.extend(mgr.flush())
    assert [w.index for w, _ in emitted] == [0, 1, 2]
    assert sum(len(rows) for _, rows in emitted) == 30


def test_rolling_windows_with_flush():
    mgr = WindowManager(spec(100, 50))
    per_item_windows = []
    emitted = []
    for ts in range(0, 300, 10):
        per_item_windows.append(len(list(assign(spec(100, 50), float(ts), 0))))
        mgr.add([float(ts)])
        emitted.extend(mgr.close_windows(float(ts)))
    full = list(emitted)
    emitted.extend(mgr.flush())
    # five full windows close during the stream, partials flush at the end
    assert [w.index for w, _ in full] == [0, 1, 2, 3]
    assert [w.index for w, _ in emitted] == [0, 1, 2, 3, 4, 5]
    assert max(per_item_windows) <= 2


def test_gap_windows_emit_empty():
    mgr = WindowManager(spec(10, 10))
    mgr.add([5, 35])  # nothing in [10,20) or [20,30)
    closed = mgr.close_windows(35)
    assert [(w.index, list(rows)) for w, rows in closed] == [(0, [0]), (1, []), (2, [])]


def test_origin_defaults_to_first_key():
    mgr = WindowManager(spec(10, 10))
    mgr.add([1000.0, 1009.0, 1010.0])
    closed = mgr.close_windows(1010.0)
    assert [(w.index, w.start, w.end) for w, _ in closed] == [(0, 1000.0, 1010.0)]
    assert closed[0][1] == range(0, 2)


def test_whole_stream_window_only_flushes():
    mgr = WindowManager(WHOLE_STREAM)
    for ts in (0.0, 5.0, 1e6):
        mgr.add([ts])
        assert mgr.close_windows(ts) == []
    flushed = mgr.flush()
    assert len(flushed) == 1 and len(flushed[0][1]) == 3


def test_windows_close_in_index_order_exactly_once():
    mgr = WindowManager(spec(7, 3))
    seen = []
    for ts in range(0, 100, 2):
        mgr.add([float(ts)])
        seen.extend(w.index for w, _ in mgr.close_windows(float(ts)))
    seen.extend(w.index for w, _ in mgr.flush())
    assert seen == sorted(set(seen))
    assert seen[0] == 0 and seen == list(range(len(seen)))


def test_tuple_windows_need_whole_sizes_and_hops():
    for size, hop in [(0.5, 0.5), (2.5, 1), (2, 0.5)]:
        with pytest.raises(InvalidWindowSpec):
            WindowSpec(WindowKind.TUPLE, size, hop)
    assert WindowSpec(WindowKind.TUPLE, 4.0, 2).hop == 2


def test_a_stream_past_the_window_limit_is_refused():
    mgr = WindowManager(WindowSpec(WindowKind.TIME, 1e-300, 1e-300))
    with pytest.raises(TooManyWindows):
        mgr.add([0.0, 0.125])
    mgr = WindowManager(WindowSpec(WindowKind.TUPLE, 1, 1))
    mgr.add(np.arange(MAX_WINDOWS))
    with pytest.raises(TooManyWindows):
        mgr.add([MAX_WINDOWS])


_TIME_SPECS = st.one_of(st.sampled_from([(20.0, 5.0), (0.3, 0.1), (1 / 3, 1 / 30), (0.7, 0.7),
                                         (math.inf, math.inf)]),
                        st.tuples(st.floats(0.01, 3.0), st.floats(0.01, 3.0))
                        .filter(lambda sh: sh[0] / sh[1] < 50))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(WindowKind),
       fids=st.lists(st.integers(0, 2000), min_size=1, max_size=300).map(sorted),
       fps=st.sampled_from([8.0, 30.0, 1.0]),
       time_spec=_TIME_SPECS,
       tuple_spec=st.tuples(st.integers(1, 40), st.integers(1, 40)),
       cuts=st.lists(st.integers(1, 300), max_size=8))
@example(kind=WindowKind.TIME, fids=list(range(600)), fps=30.0, time_spec=(1 / 3, 1 / 30),
         tuple_spec=(1, 1), cuts=[])
@example(kind=WindowKind.TIME, fids=list(range(600)), fps=8.0, time_spec=(0.3, 0.1),
         tuple_spec=(1, 1), cuts=[7, 100])
def test_block_ranges_match_the_per_item_oracle(kind, fids, fps, time_spec, tuple_spec, cuts):
    # keys arrive in blocks cut at ``cuts``; the oracle gets them one at a time
    by_time = kind is WindowKind.TIME
    keys = [fid / fps for fid in fids] if by_time else list(range(len(fids)))
    size, hop = time_spec if by_time else tuple_spec
    oracle = WindowManagerOracle(size, hop)
    expected = []
    for pos, key in enumerate(keys):
        oracle.add(key, pos)
        expected += oracle.close_windows(key if by_time else pos + 1)
    expected += oracle.flush()

    mgr = WindowManager(WindowSpec(kind, size, hop))
    got = []
    bounds = sorted({0, len(keys), *(c for c in cuts if c < len(keys))})
    for lo, hi in zip(bounds, bounds[1:]):
        mgr.add(np.array(keys[lo:hi]))
        got += mgr.close_windows(keys[hi - 1] if by_time else hi)
    got += mgr.flush()
    assert [(w.index, w.start, w.end, list(rows)) for w, rows in got] == expected
