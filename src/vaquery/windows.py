"""Window specification and assignment.

Windows are half-open intervals [start, end) over either time (seconds) or
tuple ordinals. ``hop == size`` gives disjoint/tumbling windows; ``hop <
size`` gives rolling windows where an item may land in up to
``ceil(size / hop)`` windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from .errors import InvalidWindowSpec


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

    @property
    def disjoint(self) -> bool:
        return self.hop == self.size


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
    if math.isinf(spec.size):
        return range(0, 1)
    hi = math.floor((key - origin) / spec.hop)
    lo = math.floor((key - origin - spec.size) / spec.hop) + 1
    # floor() lands one too low when (key - origin - size) is an exact hop
    # multiple: the window starting there no longer contains key (half-open).
    if origin + lo * spec.hop + spec.size <= key:
        lo += 1
    return range(max(0, lo), hi + 1)


class WindowManager:
    """Assigns items to windows and closes windows as the watermark advances.

    One manager per stream input. Windows close in index order, each exactly
    once; every index from 0 through the highest index that received an item
    is eventually emitted (gaps emit as empty windows so that two inputs of a
    join stay aligned by index).
    """

    def __init__(self, spec: WindowSpec):
        self.spec = spec
        self.origin: float | None = spec.origin
        self._open: dict[int, list[Any]] = {}
        self._next_to_close = 0
        self._max_seen = -1
        self._watermark = -math.inf

    def add(self, key: float, item: Any) -> None:
        if self.origin is None:
            self.origin = key
        for idx in assign(self.spec, key, self.origin):
            if idx >= self._next_to_close:
                self._open.setdefault(idx, []).append(item)
                self._max_seen = max(self._max_seen, idx)

    def close_windows(self, watermark: float) -> list[tuple[WindowInstance, list[Any]]]:
        """Emit every not-yet-closed window whose end <= watermark.

        A regressing watermark is ignored (nothing re-emits).
        """
        if watermark <= self._watermark or self.origin is None:
            return []
        self._watermark = watermark
        closed: list[tuple[WindowInstance, list[Any]]] = []
        while True:
            win = instance(self.spec, self._next_to_close, self.origin)
            if win.end > watermark:
                break
            closed.append((win, self._open.pop(win.index, [])))
            self._next_to_close += 1
        return closed

    def flush(self) -> list[tuple[WindowInstance, list[Any]]]:
        """End of stream: emit all remaining windows up to the last that saw data."""
        if self.origin is None:
            return []
        flushed: list[tuple[WindowInstance, list[Any]]] = []
        while self._next_to_close <= self._max_seen:
            win = instance(self.spec, self._next_to_close, self.origin)
            flushed.append((win, self._open.pop(win.index, [])))
            self._next_to_close += 1
        return flushed


#: Degenerate spec used when a query has no window clause: one window
#: spanning the whole finite stream (flushed at end of input).
WHOLE_STREAM = WindowSpec(WindowKind.TIME, math.inf, math.inf)
