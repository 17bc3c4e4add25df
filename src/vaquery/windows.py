"""Window specification and assignment.

One rule bounds every window, over time (seconds) or tuple ordinals: with
``at(x) = origin + x * hop``, window ``i`` holds the keys in ``[at(i), at(i +
size / hop))``. ``hop == size`` gives tumbling windows, which partition the
keys, since window ``i`` ends exactly where ``i + 1`` starts; ``hop < size``
gives rolling ones. Tuple windows round ``x * hop`` to a whole ordinal.

A query has one window axis, computed once by :func:`axis`; each of its
stream inputs' :class:`WindowManager` emits exactly that axis.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence
import numpy as np

from .errors import InvalidWindowSpec, TooManyWindows

#: Most windows one query's axis may span, from its first window through the
#: last that holds a key, empty gap windows included.
MAX_WINDOWS = 1_000_000
_FAR = 2 ** 62  # past any window limit: a window index is not refined beyond it


class WindowKind(Enum):
    TIME = "time"
    TUPLE = "tuple"


@dataclass(frozen=True)
class WindowSpec:
    kind: WindowKind
    size: float
    hop: float

    def __post_init__(self) -> None:
        if not (self.size > 0 and self.hop > 0):  # written so that NaN fails too
            raise InvalidWindowSpec(f"window size and hop must be positive, got size={self.size} hop={self.hop}")
        if math.isinf(self.hop) != math.isinf(self.size):  # only WHOLE_STREAM is infinite
            raise InvalidWindowSpec(f"window size and hop must both be finite or both infinite, "
                                    f"got size={self.size} hop={self.hop}")
        if math.isfinite(self.size) and math.isinf(self.size / self.hop):
            raise InvalidWindowSpec(f"window size / hop must be finite, "
                                    f"got size={self.size} hop={self.hop}")
        if self.kind is WindowKind.TUPLE and not all(
                math.isinf(v) or float(v).is_integer() for v in (self.size, self.hop)):
            raise InvalidWindowSpec(f"tuple window size and hop must be whole numbers, "
                                    f"got size={self.size} hop={self.hop}")


@dataclass(frozen=True)
class WindowInstance:
    index: int
    start: float
    end: float


def _at(spec: WindowSpec, origin: float, x: float) -> float:
    offset = x * spec.hop
    return origin + (round(offset) if spec.kind is WindowKind.TUPLE else offset)


def _first_above(spec: WindowSpec, origin: float, key: float, shift: float) -> int:
    """Least ``i >= 0`` with ``at(i + shift) > key``: the floor estimate, corrected
    against the non-decreasing ``at`` by galloping to a bracket and bisecting it."""
    def above(i: int) -> bool:
        return _at(spec, origin, i + shift) > key

    hi = max(0, math.floor(min((key - origin) / spec.hop - shift, _FAR)) + 1)
    lo, step = hi - 1, 1
    while lo >= 0 and above(lo):
        lo, hi, step = lo - step, lo, 2 * step
    while hi < _FAR and not above(hi):
        lo, hi, step = hi, hi + step, 2 * step
    return bisect.bisect_left(range(_FAR), True, max(lo, 0), min(hi, _FAR), key=above)


def instance(spec: WindowSpec, index: int, origin: float) -> WindowInstance:
    if math.isinf(spec.size):
        return WindowInstance(0, origin, math.inf)
    return WindowInstance(index, _at(spec, origin, index),
                          _at(spec, origin, index + spec.size / spec.hop))


def assign(spec: WindowSpec, key: float, origin: float) -> range:
    """Indices of every window containing ``key`` (ts or tuple ordinal)."""
    if math.isinf(spec.size):
        return range(0, 1)
    return range(_first_above(spec, origin, key, spec.size / spec.hop),
                 _first_above(spec, origin, key, 0.0))


def axis(spec: WindowSpec, spans: Sequence[tuple[float, float]]) -> tuple[float, int]:
    """The window axis of streams with these ``(first, last)`` keys, one pair per
    non-empty stream: its origin (the earliest first key for time windows, else 0)
    and its count, the windows through the last that holds a key; more than
    :data:`MAX_WINDOWS` windows is :class:`TooManyWindows`."""
    if not spans:
        return 0.0, 0
    origin = min(first for first, _ in spans) if spec.kind is WindowKind.TIME else 0.0
    last = max(last for _, last in spans)
    if (count := assign(spec, last, origin).stop) > MAX_WINDOWS:
        raise TooManyWindows(f"keys from {origin} to {last} span more than {MAX_WINDOWS} "
                             f"windows of hop {spec.hop}")
    return origin, count


class WindowManager:
    """Assigns blocks of keys to windows and closes windows as the watermark advances.

    One manager per stream input, on the query's :func:`axis`. Keys arrive in
    non-decreasing order, lie on the axis (none below ``origin`` nor past
    window ``count - 1``) and are numbered from 0 in arrival order; a window
    is the range of those positions it holds. Windows close in index order,
    each exactly once, and :meth:`flush` emits the rest of the axis, gaps and
    trailing windows as empty ranges: every manager of a query emits exactly
    windows ``0 .. count - 1``, so the inputs of a join meet window by window.
    """

    def __init__(self, spec: WindowSpec, origin: float, count: int):
        self.spec, self.origin, self.count = spec, origin, count
        self._next_to_close = 0
        # keys that may still belong to an open window, the first of them at
        # position _base; blocks added since the last emit wait in _pending
        self._base = 0
        self._keys = np.zeros(0)
        self._pending: list[np.ndarray] = []

    def add(self, keys: np.ndarray) -> None:
        """Add the next block of keys, non-decreasing and not below the last one."""
        self._pending.append(np.asarray(keys, dtype=np.float64))

    def _emit_through(self, last: int) -> list[tuple[WindowInstance, range]]:
        if last < self._next_to_close:
            return []
        keys, self._pending = np.concatenate((self._keys, *self._pending)), []
        windows = []
        for index in range(self._next_to_close, last + 1):
            win = instance(self.spec, index, self.origin)
            start, end = np.searchsorted(keys, (win.start, win.end)).tolist()
            windows.append((win, range(self._base + start, self._base + end)))
        self._next_to_close = last + 1
        # keys below the next window's start only belonged to closed windows
        done = int(np.searchsorted(keys, instance(self.spec, last + 1, self.origin).start))
        self._base, self._keys = self._base + done, keys[done:]
        return windows

    def close_windows(self, watermark: float) -> list[tuple[WindowInstance, range]]:
        """Emit every not-yet-closed window whose end <= watermark, with its range;
        a regressing watermark closes nothing (no window re-emits)."""
        return self._emit_through(assign(self.spec, watermark, self.origin).start - 1)

    def flush(self) -> list[tuple[WindowInstance, range]]:
        """End of stream: emit every remaining window of the axis."""
        return self._emit_through(self.count - 1)


#: Degenerate spec used when a query has no window clause: one window
#: spanning the whole finite stream (flushed at end of input).
WHOLE_STREAM = WindowSpec(WindowKind.TIME, math.inf, math.inf)
