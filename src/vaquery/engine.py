"""Pipeline execution engine.

A query plan is instantiated as one stage per plan node, connected by
bounded FIFO queues. Source stages feed tuples (optionally rate-throttled,
in timestamp order); window stages close windows as the watermark advances;
per-window stages transform whole window payloads. A cooperative round-robin
scheduler grants each stage a bounded quantum of items per pass, so results
are a function of the plan and the input traces only — feed rates and
quantum sizes change scheduling, never output.

Binary stages (joins) pair windows from their two inputs by window index;
window managers emit every index in order (gaps as empty windows), which
keeps the pairing lock-step and the join's memory bounded by the two
currently-paired windows.
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from .errors import ConfigError, QueueStall, SchemaMismatch
from .model import Arrable, BoundingBox, FeatureVector, Relation, Schema
from .operators import (ComparisonCounter, Direction8, aggregate, cct, cct_join,
                        cjoin, count_star, direction, hash_equi_join, nl_join,
                        project, select)
from .querylang.planner import (AggregateNode, CctNode, DirectionNode,
                                EquiJoinNode, JoinNode, PlanNode, ProjectNode,
                                QueryPlan, R2ANode, SelectNode, SourceNode,
                                WindowNode, _gba_of)
from .operators import r2a as r2a_op
from .windows import WindowKind, WindowManager, WindowSpec

_EOS = ("eos",)


@dataclass(frozen=True)
class FeederConfig:
    """Per-source feed behavior: tuples per second, 0 = unthrottled."""

    rate: float = 0.0

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ConfigError(f"feed rate must be >= 0, got {self.rate}")


@dataclass(frozen=True)
class EngineConfig:
    queue_capacity: int = 1024
    quantum: int = 256
    watchdog_seconds: float = 10.0
    feeders: Mapping[str, FeederConfig] = field(default_factory=dict)
    default_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.queue_capacity <= 0:
            raise ConfigError(f"queue capacity must be positive, got {self.queue_capacity}")
        if self.quantum <= 0:
            raise ConfigError(f"quantum must be positive, got {self.quantum}")
        if self.default_rate < 0:
            raise ConfigError(f"feed rate must be >= 0, got {self.default_rate}")

    def rate_for(self, source: str) -> float:
        cfg = self.feeders.get(source)
        return cfg.rate if cfg is not None else self.default_rate

    @staticmethod
    def from_mapping(raw: Mapping[str, Any]) -> "EngineConfig":
        try:
            feeders = {name: FeederConfig(float(rate))
                       for name, rate in dict(raw.get("rates", {})).items()}
            return EngineConfig(
                queue_capacity=int(raw.get("queue_capacity", 1024)),
                quantum=int(raw.get("quantum", 256)),
                watchdog_seconds=float(raw.get("watchdog_seconds", 10.0)),
                feeders=feeders,
                default_rate=float(raw.get("rate", 0.0)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad engine config value: {exc}") from None

    @staticmethod
    def from_file(path: str | Path) -> "EngineConfig":
        """Load a config file: JSON, or flat ``key=value`` lines where
        ``rate.<source>=`` sets a per-source feed rate."""
        text = Path(path).read_text(encoding="utf-8")
        stripped = text.lstrip()
        if stripped.startswith("{"):
            try:
                return EngineConfig.from_mapping(json.loads(text))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"engine config is not valid JSON: {exc}") from None
        raw: dict[str, Any] = {"rates": {}}
        for line_no, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"expected key=value on line {line_no}: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key.startswith("rate."):
                raw["rates"][key[len("rate."):]] = value
            else:
                raw[key] = value
        return EngineConfig.from_mapping(raw)


class _Queue:
    """Bounded FIFO channel between stages."""

    __slots__ = ("items", "capacity")

    def __init__(self, capacity: int):
        self.items: deque = deque()
        self.capacity = capacity

    def space(self) -> int:
        return self.capacity - len(self.items)

    def put(self, item) -> None:
        self.items.append(item)

    def get(self):
        return self.items.popleft()

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class StageStats:
    name: str
    tuples_in: int = 0
    tuples_out: int = 0
    smatch_comparisons: int = 0
    wall_seconds: float = 0.0
    window_wall: dict[int, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "tuples_in": self.tuples_in,
                "tuples_out": self.tuples_out,
                "smatch_comparisons": self.smatch_comparisons,
                "wall_seconds": self.wall_seconds,
                "window_wall": {str(k): v for k, v in sorted(self.window_wall.items())}}


@dataclass
class OpStats:
    stages: list[StageStats]

    @property
    def total_smatch_comparisons(self) -> int:
        return sum(s.smatch_comparisons for s in self.stages)

    @property
    def total_wall_seconds(self) -> float:
        return sum(s.wall_seconds for s in self.stages)

    def stage(self, name: str) -> StageStats:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)

    def of_kind(self, kind: str) -> list[StageStats]:
        """Stages whose name starts with a node kind, e.g. 'source', 'join'."""
        return [s for s in self.stages if s.name.startswith(kind)]

    def to_dict(self) -> dict[str, Any]:
        return {"stages": [s.to_dict() for s in self.stages],
                "total_smatch_comparisons": self.total_smatch_comparisons,
                "total_wall_seconds": self.total_wall_seconds}


def _payload_size(payload) -> int:
    if isinstance(payload, Relation):
        return len(payload.rows)
    if isinstance(payload, Arrable):
        return payload.element_count()
    return len(payload)


class _Stage:
    """One operator instance; owns its state, never runs concurrently with itself.

    Each ``step`` moves pending output downstream, takes up to ``quantum``
    input items while downstream has room (handing each to ``on_item`` and
    each input's end to ``on_eos``), then runs ``on_step``. A stage is done
    once it has emitted ``_EOS`` and all of its output has left.
    """

    counter: ComparisonCounter | None = None

    def __init__(self, name: str, inputs: list[_Queue], output: _Queue):
        self.name = name
        self.inputs = inputs
        self.output = output
        self.stats = StageStats(name)
        self.done = False
        self._pending: deque = deque()
        self._eos_sent = False

    def _has_room(self) -> bool:
        return self.output.space() > len(self._pending)

    def _drain(self) -> int:
        moved = 0
        while self._pending and self.output.space() > 0:
            self.output.put(self._pending.popleft())
            moved += 1
        return moved

    def _emit(self, item) -> None:
        self._pending.append(item)
        if item is _EOS:
            self._eos_sent = True

    def _take(self, quantum: int) -> int:
        taken = 0
        for side, queue in enumerate(self.inputs):
            while taken < quantum and queue and self._has_room():
                item = queue.get()
                taken += 1
                if item is _EOS:
                    self.on_eos(side)
                    break
                self.on_item(side, item)
        return taken

    def on_item(self, side: int, item) -> None:
        raise NotImplementedError

    def on_eos(self, side: int) -> None:
        self._emit(_EOS)

    def on_step(self) -> None:
        """Runs once per step, after the inputs were taken."""

    def _apply(self, idx: int, *payloads) -> None:
        """Transform one window with ``self._fn``, timed, and record its stats."""
        self.stats.tuples_in += sum(_payload_size(p) for p in payloads)
        started = time.monotonic()
        result = self._fn(*payloads)
        elapsed = time.monotonic() - started
        self.stats.wall_seconds += elapsed
        self.stats.window_wall[idx] = self.stats.window_wall.get(idx, 0.0) + elapsed
        if self.counter is not None:
            self.stats.smatch_comparisons = self.counter.count
        self.stats.tuples_out += _payload_size(result)
        self._emit(("win", idx, result))

    def step(self, quantum: int) -> int:
        progress = self._drain() + self._take(quantum)
        self.on_step()
        progress += self._drain()
        self.done = self._eos_sent and not self._pending
        return progress


class _SourceStage(_Stage):
    """Feeds one trace's rows, at most ``rate`` per second when throttled."""

    def __init__(self, name: str, output: _Queue, rate: float, ordinal: int):
        super().__init__(name, [], output)
        self.ordinal = ordinal
        self.rows: Iterator = iter(())
        self.waiting_on_time = False
        self._rate = rate
        self._started: float | None = None

    def _take(self, quantum: int) -> int:
        self.waiting_on_time = False
        if self._eos_sent:
            return 0
        if self._started is None:
            self._started = time.monotonic()
        budget = quantum
        if self._rate > 0:
            # tuples_in counts the rows released so far
            allowed = int((time.monotonic() - self._started) * self._rate) - self.stats.tuples_in
            budget = min(budget, allowed)
            if budget <= 0:
                self.waiting_on_time = True
                return 0
        taken = 0
        while taken < budget and self._has_room():
            row = next(self.rows, None)
            if row is None:
                self._emit(_EOS)
                break
            self.stats.tuples_in += 1
            self.stats.tuples_out += 1
            self._emit(("row", row))
            taken += 1
        return taken


class _WindowStage(_Stage):
    def __init__(self, name: str, inp: _Queue, output: _Queue, spec: WindowSpec,
                 schema: Schema):
        super().__init__(name, [inp], output)
        self._manager = WindowManager(spec)
        self._by_time = spec.kind is WindowKind.TIME
        self._schema = schema

    def _emit_closed(self, closed) -> None:
        for win, rows in closed:
            self.stats.tuples_out += len(rows)
            self._emit(("win", win.index, Relation(self._schema, tuple(rows))))

    def on_item(self, side: int, item) -> None:
        _, row = item
        # a tuple window's key is the row's ordinal, i.e. tuples_in before it
        key = row["ts"] if self._by_time else self.stats.tuples_in
        self.stats.tuples_in += 1
        self._manager.add(key, row)
        watermark = row["ts"] if self._by_time else self.stats.tuples_in
        self._emit_closed(self._manager.close_windows(watermark))

    def on_eos(self, side: int) -> None:
        self._emit_closed(self._manager.flush())
        super().on_eos(side)


class _PerWindowStage(_Stage):
    """Applies a payload transform to each closed window."""

    def __init__(self, name: str, inp: _Queue, output: _Queue,
                 fn: Callable[[Any], Any], counter: ComparisonCounter | None = None):
        super().__init__(name, [inp], output)
        self._fn = fn
        self.counter = counter

    def on_item(self, side: int, item) -> None:
        _, idx, payload = item
        self._apply(idx, payload)


class _JoinStage(_Stage):
    """Pairs the two inputs' windows by index and joins each pair."""

    def __init__(self, name: str, left: _Queue, right: _Queue, output: _Queue,
                 node: JoinNode | EquiJoinNode):
        super().__init__(name, [left, right], output)
        self.counter = ComparisonCounter()
        self._fn = _join_fn(node, self.counter)
        children = (node.left, node.right)
        if isinstance(node, JoinNode):
            self._empty = tuple(Arrable(_gba_of(c), "ts", c.schema, ()) for c in children)
        else:
            self._empty = tuple(Relation(c.schema, ()) for c in children)
        self._buffers: tuple[dict[int, Any], dict[int, Any]] = ({}, {})
        self._ended = [False, False]
        self._next_idx = 0

    def on_item(self, side: int, item) -> None:
        _, idx, payload = item
        self._buffers[side][idx] = payload

    def on_eos(self, side: int) -> None:
        self._ended[side] = True

    def on_step(self) -> None:
        while not self._eos_sent and self._has_room():
            if all(self._ended) and not any(self._buffers):
                self._emit(_EOS)  # every window on both sides has been paired
                return
            idx = self._next_idx
            # a side is resolved for idx once the window arrived, or the side
            # ended (its stream simply had fewer windows: pair with empty)
            if not all(idx in buf or ended for buf, ended in zip(self._buffers, self._ended)):
                return
            self._apply(idx, *(buf.pop(idx, empty)
                               for buf, empty in zip(self._buffers, self._empty)))
            self._next_idx += 1


def _payload_rows(payload) -> Sequence[Mapping[str, Any]]:
    if isinstance(payload, Relation):
        return payload.rows
    if isinstance(payload, Arrable):
        if payload.rows and not payload.rows[0].values:
            # grouped value projected down to its key: one row per group
            return [{payload.gba: r.key} for r in payload.rows]
        return payload.flatten()
    raise SchemaMismatch(f"cannot emit payload of type {type(payload).__name__}")


class Pipeline:
    """Instantiated plan: stages wired by bounded queues, scheduled round-robin."""

    def __init__(self, plan: QueryPlan, config: EngineConfig):
        self.plan = plan
        self.config = config
        self.stages: list[_Stage] = []
        self._source_stages: list[_SourceStage] = []
        self._root_queue = _Queue(config.queue_capacity)
        self._names_used: dict[str, int] = {}
        self._build(plan.root, self._root_queue)
        # schedule leaves first so data flows on the first pass
        self.stages.reverse()
        self._ran = False

    def _stage_name(self, node: PlanNode) -> str:
        base = type(node).__name__.removesuffix("Node").lower()
        if isinstance(node, SourceNode):
            base = f"source[{node.name}]"
        count = self._names_used.get(base, 0)
        self._names_used[base] = count + 1
        return base if count == 0 else f"{base}#{count + 1}"

    # construction

    def _build(self, node: PlanNode, output: _Queue) -> None:
        name = self._stage_name(node)
        make_queue = lambda: _Queue(self.config.queue_capacity)

        if isinstance(node, SourceNode):
            stage = _SourceStage(name, output, self.config.rate_for(node.name), node.ordinal)
            self._source_stages.append(stage)
            self.stages.append(stage)
            return
        if isinstance(node, WindowNode):
            inq = make_queue()
            self.stages.append(_WindowStage(name, inq, output, node.spec, node.schema))
            self._build(node.child, inq)
            return
        if isinstance(node, (JoinNode, EquiJoinNode)):
            lq, rq = make_queue(), make_queue()
            self.stages.append(_JoinStage(name, lq, rq, output, node))
            self._build(node.left, lq)
            self._build(node.right, rq)
            return

        inq = make_queue()
        counter = None
        if isinstance(node, SelectNode):
            counter = ComparisonCounter()
            fn = lambda payload, n=node, c=counter: select(payload, n.predicate, c)
        elif isinstance(node, R2ANode):
            fn = lambda payload, n=node: r2a_op(payload, n.gba, n.aoa)
        elif isinstance(node, CctNode):
            fn = lambda payload, n=node: cct(payload, n.option, n.gap_threshold)
        elif isinstance(node, ProjectNode):
            fn = lambda payload, n=node: project(payload, n.columns)
        elif isinstance(node, AggregateNode):
            fn = _aggregate_fn(node)
        elif isinstance(node, DirectionNode):
            fn = _direction_fn(node)
        else:
            raise ConfigError(f"unknown plan node {type(node).__name__}")
        self.stages.append(_PerWindowStage(name, inq, output, fn, counter))
        self._build(node.child, inq)

    # execution

    def run(self, sources: Sequence[Relation]) -> tuple[list[dict[str, Any]], OpStats]:
        """Feed the given traces (in plan source order) through the pipeline."""
        if self._ran:
            raise ConfigError("pipeline instances are single-use; instantiate again")
        self._ran = True
        if len(sources) != len(self._source_stages):
            raise SchemaMismatch(
                f"plan needs {len(self._source_stages)} sources, got {len(sources)}")
        for stage in self._source_stages:
            stage.rows = iter(sources[stage.ordinal].rows)

        rows: list[dict[str, Any]] = []
        last_progress = time.monotonic()
        while True:
            progress = 0
            for stage in self.stages:
                if not stage.done:
                    progress += stage.step(self.config.quantum)
            # collect the root's windows as flat result rows
            while self._root_queue:
                item = self._root_queue.get()
                progress += 1
                if item is _EOS:
                    return rows, self.stats()
                _, idx, payload = item
                rows.extend({"window": idx, **row} for row in _payload_rows(payload))
            if progress:
                last_progress = time.monotonic()
                continue
            if any(s.waiting_on_time for s in self._source_stages):
                # a throttled feeder is accruing tokens; that counts as progress
                time.sleep(0.001)
                last_progress = time.monotonic()
                continue
            if time.monotonic() - last_progress > self.config.watchdog_seconds:
                raise QueueStall(
                    f"no stage progressed for {self.config.watchdog_seconds}s")

    def stats(self) -> OpStats:
        return OpStats([s.stats for s in self.stages])


def _join_fn(node: JoinNode | EquiJoinNode, counter: ComparisonCounter):
    def fn(left, right) -> Relation:
        if isinstance(node, EquiJoinNode):
            return hash_equi_join(left, right, node.on_left, node.on_right, node.prefixes)
        on = (node.on_left, node.on_right)
        if node.kind == "CJOIN":
            pairs = cjoin(left, right, node.cond, on, node.extras, counter)
        elif node.kind == "CCTJOIN":
            pairs = cct_join(left, right, node.cond, node.cct_option, on,
                             node.extras, counter)
        else:
            pairs = nl_join(left, right, node.cond, on, node.extras, counter)
        names = node.schema.names()
        return Relation(node.schema, tuple(
            {names[0]: p.left_oid, names[1]: p.right_oid, names[2]: p.score}
            for p in pairs))
    return fn


def _aggregate_fn(node: AggregateNode):
    def fn(payload):
        if node.column is None:
            value: Any = count_star(payload)
        else:
            try:
                value = aggregate(payload, node.func, node.column)
            except ValueError:
                value = None  # empty window
        return Relation(node.schema, ({node.label: value},))
    return fn


def _direction_fn(node: DirectionNode):
    def fn(payload):
        results = direction(payload, node.epsilon, node.bb_column)
        rows = tuple({node.key_column: key, "direction": d} for key, d in results)
        return Relation(node.schema, rows)
    return fn


def instantiate(plan: QueryPlan, config: EngineConfig | None = None) -> Pipeline:
    """Build a pipeline: one stage per plan node, bounded queues in between."""
    return Pipeline(plan, config or EngineConfig())


# --- result serialization ------------------------------------------------------


def jsonable(value: Any) -> Any:
    if isinstance(value, BoundingBox):
        return value.as_list()
    if isinstance(value, FeatureVector):
        return value.as_list()
    if isinstance(value, Direction8):
        return value.value
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if hasattr(value, "item") and callable(value.item):  # numpy scalars
        return value.item()
    return value


def row_to_json(row: Mapping[str, Any]) -> str:
    """Canonical one-line JSON for a result row (stable key order)."""
    return json.dumps(jsonable(dict(row)), sort_keys=True)


def write_results(rows: Sequence[Mapping[str, Any]], path: str | Path,
                  header: Mapping[str, Any] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(json.dumps({"_meta": jsonable(dict(header))}, sort_keys=True) + "\n")
        for row in rows:
            fh.write(row_to_json(row) + "\n")
