"""Window specification and assignment.

One rule bounds every window, over time (seconds) or tuple ordinals: with
``at(x) = origin + x * hop``, window ``i`` holds the keys in ``[at(i), at(i +
size / hop))``. ``hop == size`` gives tumbling windows, which partition the
keys, since window ``i`` ends exactly where ``i + 1`` starts; ``hop < size``
gives rolling ones. Tuple windows round ``x * hop`` to a whole ordinal.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
import numpy as np

from .errors import InvalidWindowSpec, TooManyWindows

#: Most windows one stream may span, from its first window through the last
#: that holds a key, empty gap windows included.
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
    origin: float | None = None  # None: the first key (the engine sets its sources' earliest ts)

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


def check_span(spec: WindowSpec, origin: float, last_key: float) -> None:
    """Raise :class:`TooManyWindows` when the keys from ``origin`` through
    ``last_key`` span more than :data:`MAX_WINDOWS` windows."""
    if assign(spec, last_key, origin).stop > MAX_WINDOWS:
        raise TooManyWindows(f"keys from {origin} to {last_key} span more than {MAX_WINDOWS} "
                             f"windows of hop {spec.hop}")


class WindowManager:
    """Assigns blocks of keys to windows and closes windows as the watermark advances.

    One manager per stream input. Keys arrive in non-decreasing order and
    are numbered from 0 in arrival order; a window is the range of those
    positions it holds. Windows close in index order, each exactly once;
    every index from 0 through the last window that starts at or before the
    last key is eventually emitted, gaps as empty ranges. Given the query's
    origin, a manager's indices are thus a prefix of the query's window axis;
    the engine emits the rest of the axis as empty windows, so the inputs of
    a join meet window by window.
    """

    def __init__(self, spec: WindowSpec):
        self.spec = spec
        self.origin: float | None = spec.origin
        self._next_to_close = 0
        self._last = -1  # the last window starting at or before the last key
        self._watermark = -math.inf
        # keys that may still belong to an open window, the first of them at
        # position _base; blocks added since the last emit wait in _pending
        self._base = 0
        self._keys = np.zeros(0)
        self._pending: list[np.ndarray] = []

    def add(self, keys: np.ndarray) -> None:
        """Add the next block of keys, non-decreasing and not below the last one."""
        keys = np.asarray(keys, dtype=np.float64)
        if not len(keys):
            return
        if self.origin is None:
            self.origin = keys[0].item()
        if keys[0] < self.origin:
            raise ValueError(f"key {keys[0]} precedes window origin {self.origin}")
        check_span(self.spec, self.origin, keys[-1].item())
        self._pending.append(keys)
        self._last = assign(self.spec, keys[-1].item(), self.origin).stop - 1

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
        a regressing watermark is ignored (nothing re-emits)."""
        if watermark <= self._watermark or self.origin is None:
            return []
        self._watermark = watermark
        return self._emit_through(assign(self.spec, watermark, self.origin).start - 1)

    def flush(self) -> list[tuple[WindowInstance, range]]:
        """End of stream: emit all remaining windows up to the last that saw data."""
        return self._emit_through(self._last)


#: Degenerate spec used when a query has no window clause: one window
#: spanning the whole finite stream (flushed at end of input).
WHOLE_STREAM = WindowSpec(WindowKind.TIME, math.inf, math.inf)
