import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import windows_containing_oracle
from vaquery.errors import InvalidWindowSpec
from vaquery.windows import (WHOLE_STREAM, WindowKind, WindowManager,
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
    mgr = WindowManager(spec(100, 100))
    mgr.add(50, "a")
    assert mgr.close_windows(50) == []
    mgr.add(150, "b")
    closed = mgr.close_windows(150)
    assert [(w.index, items) for w, items in closed] == [(0, ["a"])]
    mgr.add(250, "c")
    closed = mgr.close_windows(250)
    assert [(w.index, items) for w, items in closed] == [(1, ["b"])]


def test_watermark_regression_is_ignored():
    mgr = WindowManager(WindowSpec(WindowKind.TIME, 100, 100, origin=0.0))
    mgr.add(150, "b")
    assert len(mgr.close_windows(250)) == 2
    assert mgr.close_windows(100) == []
    assert mgr.close_windows(250) == []


def test_stream_over_300_closes_exactly_three_windows():
    mgr = WindowManager(spec(100, 100))
    emitted = []
    for ts in range(0, 300, 10):
        mgr.add(float(ts), ts)
        emitted.extend(mgr.close_windows(float(ts)))
    emitted.extend(mgr.flush())
    assert [w.index for w, _ in emitted] == [0, 1, 2]
    assert sum(len(items) for _, items in emitted) == 30


def test_rolling_windows_with_flush():
    mgr = WindowManager(spec(100, 50))
    per_item_windows = []
    emitted = []
    for ts in range(0, 300, 10):
        per_item_windows.append(len(list(assign(spec(100, 50), float(ts), 0))))
        mgr.add(float(ts), ts)
        emitted.extend(mgr.close_windows(float(ts)))
    full = list(emitted)
    emitted.extend(mgr.flush())
    # five full windows close during the stream, partials flush at the end
    assert [w.index for w, _ in full] == [0, 1, 2, 3]
    assert [w.index for w, _ in emitted] == [0, 1, 2, 3, 4, 5]
    assert max(per_item_windows) <= 2


def test_gap_windows_emit_empty():
    mgr = WindowManager(spec(10, 10))
    mgr.add(5, "a")
    mgr.add(35, "b")  # nothing in [10,20) or [20,30)
    closed = mgr.close_windows(35)
    assert [(w.index, items) for w, items in closed] == [(0, ["a"]), (1, []), (2, [])]


def test_origin_defaults_to_first_key():
    mgr = WindowManager(spec(10, 10))
    mgr.add(1000.0, "a")
    mgr.add(1009.0, "b")
    mgr.add(1010.0, "c")
    closed = mgr.close_windows(1010.0)
    assert [(w.index, w.start, w.end) for w, _ in closed] == [(0, 1000.0, 1010.0)]
    assert closed[0][1] == ["a", "b"]


def test_whole_stream_window_only_flushes():
    mgr = WindowManager(WHOLE_STREAM)
    for ts in (0.0, 5.0, 1e6):
        mgr.add(ts, ts)
        assert mgr.close_windows(ts) == []
    flushed = mgr.flush()
    assert len(flushed) == 1 and len(flushed[0][1]) == 3


def test_windows_close_in_index_order_exactly_once():
    mgr = WindowManager(spec(7, 3))
    seen = []
    for ts in range(0, 100, 2):
        mgr.add(float(ts), ts)
        seen.extend(w.index for w, _ in mgr.close_windows(float(ts)))
    seen.extend(w.index for w, _ in mgr.flush())
    assert seen == sorted(set(seen))
    assert seen[0] == 0 and seen == list(range(len(seen)))
