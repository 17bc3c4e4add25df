"""Window specification and assignment.

Windows are half-open intervals [start, end) over either time (seconds) or
tuple ordinals. ``hop == size`` gives disjoint/tumbling windows; ``hop <
size`` gives rolling windows where an item may land in up to
``ceil(size / hop)`` windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
import numpy as np

from .errors import InvalidWindowSpec, TooManyWindows

#: Most windows one stream may span, from its first window through the last
#: that holds a key, empty gap windows included.
MAX_WINDOWS = 1_000_000


class WindowKind(Enum):
    TIME = "time"
    TUPLE = "tuple"


@dataclass(frozen=True)
class WindowSpec:
    kind: WindowKind
    size: float
    hop: float
    origin: float | None = None  # None: first item's key per source

    def __post_init__(self) -> None:
        if not (self.size > 0 and self.hop > 0):  # written so that NaN fails too
            raise InvalidWindowSpec(f"window size and hop must be positive, got size={self.size} hop={self.hop}")
        if math.isinf(self.hop) and not math.isinf(self.size):  # no window after the first
            raise InvalidWindowSpec(f"a finite window size needs a finite hop, got hop={self.hop}")
        if self.kind is WindowKind.TUPLE and not all(
                math.isinf(v) or float(v).is_integer() for v in (self.size, self.hop)):
            raise InvalidWindowSpec(f"tuple window size and hop must be whole numbers, "
                                    f"got size={self.size} hop={self.hop}")


@dataclass(frozen=True)
class WindowInstance:
    index: int
    start: float
    end: float


def instance(spec: WindowSpec, index: int, origin: float) -> WindowInstance:
    if math.isinf(spec.size):
        return WindowInstance(0, origin, math.inf)
    start = origin + index * spec.hop
    return WindowInstance(index, start, start + spec.size)


def assign(spec: WindowSpec, key: float, origin: float) -> range:
    """Indices of every window containing ``key`` (ts or tuple ordinal)."""
    if key < origin:
        raise ValueError(f"key {key} precedes window origin {origin}")
    lo, hi = assign_block(spec, np.array([key]), origin)
    return range(max(0, int(lo[0])), int(hi[0]) + 1)


def check_span(spec: WindowSpec, origin: float, last_key: float) -> None:
    """Raise :class:`TooManyWindows` when the keys from ``origin`` through
    ``last_key`` span more than :data:`MAX_WINDOWS` windows."""
    if not math.isinf(spec.size) and not (last_key - origin) / spec.hop < MAX_WINDOWS:
        raise TooManyWindows(f"keys from {origin} to {last_key} span more than {MAX_WINDOWS} "
                             f"windows of hop {spec.hop}")


def assign_block(spec: WindowSpec, keys: np.ndarray,
                 origin: float) -> tuple[np.ndarray, np.ndarray]:
    """Lowest and highest index of the windows containing each key.

    For non-decreasing keys both are non-decreasing, so each window holds a
    contiguous run of the keys.
    """
    if math.isinf(spec.size):
        zeros = np.zeros(len(keys), dtype=np.int64)
        return zeros, zeros
    hi = np.floor((keys - origin) / spec.hop)
    lo = np.floor((keys - origin - spec.size) / spec.hop) + 1
    # floor() lands one too low when (key - origin - size) is an exact hop
    # multiple: the window starting there no longer contains key (half-open).
    lo += origin + lo * spec.hop + spec.size <= keys
    return lo.astype(np.int64), hi.astype(np.int64)


class WindowManager:
    """Assigns blocks of keys to windows and closes windows as the watermark advances.

    One manager per stream input. Keys arrive in non-decreasing order and
    are numbered from 0 in arrival order; a window is the range of those
    positions it holds. Windows close in index order, each exactly once;
    every index from 0 through the highest index that received a key is
    eventually emitted (gaps emit as empty ranges so that two inputs of a
    join stay aligned by index).
    """

    def __init__(self, spec: WindowSpec):
        self.spec = spec
        self.origin: float | None = spec.origin
        self._next_to_close = 0
        self._max_seen = -1
        self._watermark = -math.inf
        # window bounds of the keys that may still belong to an open window,
        # the first of them at position _base
        self._base = 0
        self._lo = np.zeros(0, dtype=np.int64)
        self._hi = np.zeros(0, dtype=np.int64)

    def add(self, keys: np.ndarray) -> None:
        """Add the next block of keys, non-decreasing and not below the last one."""
        keys = np.asarray(keys)
        if not len(keys):
            return
        if self.origin is None:
            self.origin = keys[0].item()
        if keys[0] < self.origin:
            raise ValueError(f"key {keys[0]} precedes window origin {self.origin}")
        check_span(self.spec, self.origin, keys[-1].item())
        lo, hi = assign_block(self.spec, keys, self.origin)
        self._lo = np.concatenate((self._lo, lo))
        self._hi = np.concatenate((self._hi, hi))
        self._max_seen = max(self._max_seen, int(hi[-1]))

    def _emit(self, windows: list[tuple[WindowInstance, range]], index: int) -> None:
        start = int(np.searchsorted(self._hi, index))
        end = int(np.searchsorted(self._lo, index, side="right"))
        windows.append((instance(self.spec, index, self.origin),
                        range(self._base + start, self._base + end)))
        self._next_to_close = index + 1
        # keys below the next window's start only belonged to closed windows
        done = int(np.searchsorted(self._hi, index + 1))
        self._base += done
        self._lo, self._hi = self._lo[done:], self._hi[done:]

    def close_windows(self, watermark: float) -> list[tuple[WindowInstance, range]]:
        """Emit every not-yet-closed window whose end <= watermark, with its range.

        A regressing watermark is ignored (nothing re-emits).
        """
        if watermark <= self._watermark or self.origin is None:
            return []
        self._watermark = watermark
        closed: list[tuple[WindowInstance, range]] = []
        while instance(self.spec, self._next_to_close, self.origin).end <= watermark:
            self._emit(closed, self._next_to_close)
        return closed

    def flush(self) -> list[tuple[WindowInstance, range]]:
        """End of stream: emit all remaining windows up to the last that saw data."""
        flushed: list[tuple[WindowInstance, range]] = []
        while self._next_to_close <= self._max_seen:
            self._emit(flushed, self._next_to_close)
        return flushed


#: Degenerate spec used when a query has no window clause: one window
#: spanning the whole finite stream (flushed at end of input).
WHOLE_STREAM = WindowSpec(WindowKind.TIME, math.inf, math.inf)
