import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import WindowManagerOracle, windows_containing_oracle
from vaquery.errors import InvalidWindowSpec, TooManyWindows
from vaquery.windows import (MAX_WINDOWS, WHOLE_STREAM, WindowKind, WindowManager,
                             WindowSpec, assign, axis)


def spec(size, hop, kind=WindowKind.TIME):
    return WindowSpec(kind, size, hop)


def manager(window: WindowSpec, *spans) -> WindowManager:
    """A manager on the axis of streams with these (first, last) keys."""
    return WindowManager(window, *axis(window, spans))


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


def test_a_key_beside_a_non_dyadic_window_start_lies_in_that_window_only():
    # 0.1 + 275 * 0.7 rounds to 193.29999999999995: the key is window 275's start
    key = 193.29999999999995
    assert list(assign(spec(0.7, 0.7), key, origin=0.1)) == [275]
    # another stream starts at 0.1 s, this one at the key
    mgr = manager(spec(0.7, 0.7), (0.1, 0.1), (key, key))
    mgr.add([key])
    assert [(w.index, list(rows)) for w, rows in mgr.flush() if len(rows)] == [(275, [0])]


def test_tuple_windows_hold_exactly_size_ordinals():
    # 0.28 * 25 evaluates to 7.000000000000001: without rounding to a whole
    # ordinal, window 0 would also hold ordinal 7
    assert list(assign(spec(7, 25, WindowKind.TUPLE), 7, origin=0)) == []
    mgr = manager(spec(7, 25, WindowKind.TUPLE), (0, 99))
    mgr.add(np.arange(100))
    assert [(w.index, rows) for w, rows in mgr.flush()] == [
        (i, range(25 * i, 25 * i + 7)) for i in range(4)]


def test_nonpositive_size_or_hop_rejected():
    for size, hop in [(0, 1), (1, 0), (-5, 5), (5, -5), (1, math.inf), (math.inf, 1),
                      (1e308, 1e-308), (1.0, 5e-324)]:  # the last two: size / hop overflows
        with pytest.raises(InvalidWindowSpec) as exc:
            WindowSpec(WindowKind.TIME, size, hop)
        assert exc.value.code == "NONPOSITIVE_SIZE_OR_HOP"


@given(st.floats(0, 1000, allow_nan=False),
       st.floats(1, 200), st.floats(1, 200))
def test_assignment_matches_scan_oracle(key, size, hop):
    got = list(assign(spec(size, hop), key, origin=0))
    assert got == windows_containing_oracle(key, 0.0, size, hop)
    assert len(got) <= math.ceil(size / hop)


def test_assign_gallops_down_when_the_floor_estimate_overshoots():
    # the floor estimate 3583.6 / 0.2 = 17918.0 guesses window 17918, but
    # at(17918) = 17918 * 0.2 = 3583.6000000000004 starts above the key
    got = assign(spec(0.2, 0.2), 3583.6, 0.0)
    assert got == range(17917, 17918)
    assert list(got) == windows_containing_oracle(3583.6, 0.0, 0.2, 0.2, max_index=20_000)


@given(st.floats(0, 1000, allow_nan=False), st.floats(1, 200))
def test_disjoint_windows_are_a_partition(key, size):
    assert len(list(assign(spec(size, size), key, origin=0))) == 1


def test_close_windows_on_watermark_advance():
    # keys at positions 0, 1, 2: a window's rows are the positions it holds
    mgr = manager(spec(100, 100), (50, 250))
    mgr.add([50])
    assert mgr.close_windows(50) == []
    mgr.add([150])
    closed = mgr.close_windows(150)
    assert [(w.index, rows) for w, rows in closed] == [(0, range(0, 1))]
    mgr.add([250])
    closed = mgr.close_windows(250)
    assert [(w.index, rows) for w, rows in closed] == [(1, range(1, 2))]


def test_watermark_regression_is_ignored():
    mgr = manager(spec(100, 100), (0.0, 0.0), (150.0, 150.0))
    mgr.add([150])
    assert len(mgr.close_windows(250)) == 2
    assert mgr.close_windows(100) == []
    assert mgr.close_windows(250) == []


def test_stream_over_300_closes_exactly_three_windows():
    mgr = manager(spec(100, 100), (0.0, 290.0))
    emitted = []
    for ts in range(0, 300, 10):
        mgr.add([float(ts)])
        emitted.extend(mgr.close_windows(float(ts)))
    emitted.extend(mgr.flush())
    assert [w.index for w, _ in emitted] == [0, 1, 2]
    assert sum(len(rows) for _, rows in emitted) == 30


def test_rolling_windows_with_flush():
    mgr = manager(spec(100, 50), (0.0, 290.0))
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
    mgr = manager(spec(10, 10), (5, 35))
    mgr.add([5, 35])  # nothing in [10,20) or [20,30)
    closed = mgr.close_windows(35)
    assert [(w.index, list(rows)) for w, rows in closed] == [(0, [0]), (1, []), (2, [])]


def test_origin_defaults_to_first_key():
    # time windows count from the earliest first key of any stream, tuple
    # windows from ordinal 0; the axis runs through the last window with a key
    spans = [(1003.0, 1010.0), (1000.0, 1004.0), (1007.0, 1031.0)]
    assert axis(spec(10, 10), spans) == (1000.0, 4)
    assert axis(spec(5, 5, WindowKind.TUPLE), [(0, 9), (0, 3)]) == (0.0, 2)
    assert axis(spec(10, 10), []) == (0.0, 0)
    mgr = manager(spec(10, 10), (1000.0, 1010.0))
    mgr.add([1000.0, 1009.0, 1010.0])
    closed = mgr.close_windows(1010.0)
    assert [(w.index, w.start, w.end) for w, _ in closed] == [(0, 1000.0, 1010.0)]
    assert closed[0][1] == range(0, 2)


def test_flush_emits_the_axis_past_the_streams_last_key_as_empty_ranges():
    # this stream's last key lies in window 2; another's runs the axis to window 5
    mgr = manager(spec(10, 10), (1, 25), (0, 55))
    mgr.add([1, 15, 25])
    assert [(w.index, rows) for w, rows in mgr.close_windows(25)] == [
        (0, range(0, 1)), (1, range(1, 2))]
    assert [(w.index, rows) for w, rows in mgr.flush()] == [
        (2, range(2, 3)), (3, range(3, 3)), (4, range(3, 3)), (5, range(3, 3))]


def test_whole_stream_window_only_flushes():
    mgr = manager(WHOLE_STREAM, (0.0, 1e6))
    for ts in (0.0, 5.0, 1e6):
        mgr.add([ts])
        assert mgr.close_windows(ts) == []
    flushed = mgr.flush()
    assert len(flushed) == 1 and len(flushed[0][1]) == 3


def test_windows_close_in_index_order_exactly_once():
    mgr = manager(spec(7, 3), (0.0, 98.0))
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
    with pytest.raises(TooManyWindows):
        axis(spec(1e-300, 1e-300), [(0.0, 0.125)])
    assert axis(spec(1, 1, WindowKind.TUPLE), [(0, MAX_WINDOWS - 1)]) == (0.0, MAX_WINDOWS)
    with pytest.raises(TooManyWindows):
        axis(spec(1, 1, WindowKind.TUPLE), [(0, MAX_WINDOWS - 1), (0, MAX_WINDOWS)])


def test_a_hop_below_the_keys_resolution_is_too_many_windows():
    # 1e9 + i * 1e-16 rounds to 1e9 for every i up to about 6e8, so that many
    # windows start at the one key: refused at once, not enumerated
    with pytest.raises(TooManyWindows):
        axis(spec(1e-16, 1e-16), [(1e9, 1e9)])


def _run(spec: WindowSpec, keys: list, cuts) -> list:
    """(index, start, end, positions) of each window a manager emits when the
    keys arrive in blocks cut at ``cuts``."""
    by_time = spec.kind is WindowKind.TIME
    mgr, got = manager(spec, (keys[0], keys[-1])), []
    bounds = sorted({0, len(keys), *(c for c in cuts if c < len(keys))})
    for lo, hi in zip(bounds, bounds[1:]):
        mgr.add(np.array(keys[lo:hi]))
        got += mgr.close_windows(keys[hi - 1] if by_time else hi)
    return [(w.index, w.start, w.end, list(rows)) for w, rows in got + mgr.flush()]


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
    oracle = WindowManagerOracle(size, hop, whole=not by_time)
    expected = []
    for pos, key in enumerate(keys):
        oracle.add(key, pos)
        expected += oracle.close_windows(key if by_time else pos + 1)
    expected += oracle.flush()
    assert _run(WindowSpec(kind, size, hop), keys, cuts) == expected


_SECONDS = [0.1, 0.3, 0.7, 1.1, 1 / 3, 2.0]


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(WindowKind),
       first=st.integers(0, 40), steps=st.lists(st.integers(0, 4), max_size=300),
       fps=st.sampled_from([10.0, 25.0, 29.97, 30.0]),
       time_spec=st.tuples(st.sampled_from(_SECONDS), st.sampled_from(_SECONDS)),
       tuple_spec=st.tuples(st.integers(1, 30), st.integers(1, 30)),
       tumbling=st.booleans(), cuts=st.lists(st.integers(1, 300), max_size=8))
@example(kind=WindowKind.TIME, first=1, steps=[1] * 3998, fps=10.0, time_spec=(0.7, 0.7),
         tuple_spec=(1, 1), tumbling=True, cuts=[])
def test_windows_partition_agree_with_assign_and_ignore_block_cuts(
        kind, first, steps, fps, time_spec, tuple_spec, tumbling, cuts):
    by_time = kind is WindowKind.TIME
    fids = np.cumsum([first, *steps])
    keys = (fids / fps).tolist() if by_time else list(range(len(fids)))
    size, hop = time_spec if by_time else tuple_spec
    spec = WindowSpec(kind, size, size if tumbling else hop)
    got = _run(spec, keys, cuts)
    assert got == _run(spec, keys, [])
    holding = [[] for _ in keys]
    for index, _, _, rows in got:
        for pos in rows:
            holding[pos].append(index)
    assert holding == [list(assign(spec, key, keys[0])) for key in keys]
    if tumbling:
        assert all(len(h) == 1 for h in holding)
