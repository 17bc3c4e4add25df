"""Pipeline execution engine.

A query plan is instantiated as one generator per plan node, pulled from
the root. A source yields its trace as row ranges sized by its feed clock:
the whole trace at once when unthrottled, else every row that its feed
rate has made due; a window node assigns each range to windows and yields
every closed window as a zero-copy slice of the trace; every other node is
one per-window stage that transforms the windows of its inputs. Windows
flow one at a time from the sources to the root, so results are a function
of the plan and the input traces only: feed rates change timing and range
sizes, never output.

A query has one window axis, fixed by ``windows.axis`` from its sources'
first and last keys before the first window closes. Every window node emits
exactly that axis through its ``WindowManager``, as empty slices of its own
trace where it has no rows, so the inputs of a join meet window by window.
Every node records its windows in its stats: a window node the time it
spent cutting each, an operator node the time its operator took on each.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, SchemaMismatch, json_field, json_type, load_json
from .model import Relation
from .operators import (Direction8, aggregate, cct, cjoin, count_star, direction,
                        hash_equi_join, nl_join, project, select)
from .querylang.planner import (AggregateNode, CctNode, DirectionNode,
                                EquiJoinNode, JoinNode, PlanNode, ProjectNode,
                                QueryPlan, R2ANode, SelectNode, SourceNode,
                                WindowNode, iter_nodes)
from .operators import r2a as r2a_op
from .windows import WindowKind, WindowManager, WindowSpec, axis


@dataclass(frozen=True)
class EngineConfig:
    """Feed rates in tuples per second (0 = unthrottled): ``rates`` per source
    name in any casing, ``default_rate`` for every other source. A positive
    rate is at least ``1 / threading.TIMEOUT_MAX``, so that a source's first
    row falls due within the longest wait the platform can sleep."""

    rates: Mapping[str, float] = field(default_factory=dict)
    default_rate: float = 0.0

    def __post_init__(self) -> None:
        for rate in (self.default_rate, *self.rates.values()):
            if not 0 <= rate < math.inf:
                raise ConfigError(f"feed rate must be finite and >= 0, got {rate}")
            if 0 < rate < 1 / threading.TIMEOUT_MAX:
                raise ConfigError(f"feed rate {rate} is too small: its first row would fall "
                                  f"due after {threading.TIMEOUT_MAX:.0f} s")
        if len({name.lower() for name in self.rates}) < len(self.rates):
            raise ConfigError(f"feed rates name one source in two casings: {sorted(self.rates)}")

    def rate_for(self, source: str) -> float:
        """The feed rate of a source; names match in any casing, as source names do."""
        return next((rate for name, rate in self.rates.items() if name.lower() == source.lower()),
                    self.default_rate)

    @staticmethod
    def from_file(path: str | Path) -> "EngineConfig":
        """Load a JSON config object: ``rate`` and ``rates``, an object of
        per-source rates, all numbers; other keys are ignored."""
        role = f"engine config {path}"
        raw = load_json(Path(path).read_bytes(), ConfigError, role, "object")
        rates = json_field(raw, "rates", "object", ConfigError, role, {})
        return EngineConfig({name: json_type(rate, "number", ConfigError, f"{role} rates.{name}")
                             for name, rate in rates.items()},
                            json_field(raw, "rate", "number", ConfigError, role, 0.0))


@dataclass
class StageStats:
    """One plan node's stats; its operator adds its comparisons here."""

    name: str
    tuples_in: int = 0
    tuples_out: int = 0
    smatch_comparisons: int = 0
    wall_seconds: float = 0.0
    window_wall: dict[int, float] = field(default_factory=dict)

    def add(self, n: int) -> None:
        """Count ``n`` feature-vector comparisons; operators take this as their counter."""
        self.smatch_comparisons += n

    def apply(self, fn: Callable[..., Any], idx: int, *payloads) -> Any:
        """Transform window ``idx`` with ``fn``, timed, and record its stats."""
        self.tuples_in += sum(p.element_count() for p in payloads)
        started = time.monotonic()
        result = fn(*payloads)
        self.record(idx, time.monotonic() - started, result)
        return result

    def record(self, idx: int, elapsed: float, payload) -> None:
        """Record window ``idx``'s output ``payload`` and the ``elapsed`` seconds spent on it."""
        self.wall_seconds += elapsed
        self.window_wall[idx] = self.window_wall.get(idx, 0.0) + elapsed
        self.tuples_out += payload.element_count()

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

    def of_kind(self, kind: str) -> list[StageStats]:
        """Stages whose name starts with a node kind, e.g. 'source', 'join'."""
        return [s for s in self.stages if s.name.startswith(kind)]

    def to_dict(self) -> dict[str, Any]:
        return {"stages": [s.to_dict() for s in self.stages],
                "total_smatch_comparisons": self.total_smatch_comparisons,
                "total_wall_seconds": self.total_wall_seconds}


class Pipeline:
    """Instantiated plan: one generator per plan node, pulled from the root."""

    def __init__(self, plan: QueryPlan, config: EngineConfig):
        self.plan = plan
        self.config = config
        self.stages: list[StageStats] = []
        self._names_used: dict[str, int] = {}
        self._sources: Sequence[Relation] = ()
        self._axis = (0.0, 0)  # the query's window axis, (origin, count), set by run()
        self._started = 0.0
        # generator bodies run only once run() pulls the root
        self._root = self._build(plan.root)
        self.stages.reverse()  # leaves first
        self._ran = False

    def _stage_name(self, node: PlanNode) -> str:
        base = type(node).__name__.removesuffix("Node").lower()
        if isinstance(node, SourceNode):
            base = f"source[{node.name}]"
        count = self._names_used.get(base, 0)
        self._names_used[base] = count + 1
        return base if count == 0 else f"{base}#{count + 1}"

    # construction

    def _build(self, node: PlanNode) -> Iterator:
        stats = StageStats(self._stage_name(node))
        self.stages.append(stats)
        if isinstance(node, SourceNode):
            return self._source(stats, node.ordinal, self.config.rate_for(node.name))
        if isinstance(node, WindowNode):
            return self._windows(stats, node.spec, node.child.ordinal, self._build(node.child))
        return self._stage(stats, _operator(node, stats), [self._build(c) for c in node.children])

    def _source(self, stats: StageStats, ordinal: int, rate: float) -> Iterator:
        """Release one trace as row ranges: whole when unthrottled, else every row
        due by ``started + rows / rate``, sleeping until the next one when none is."""
        lo, end = 0, len(self._sources[ordinal])
        while lo < end:
            hi = end
            if rate > 0:  # every source counts from the same start, so throttled sources overlap
                while (due := int((time.monotonic() - self._started) * rate)) <= lo:
                    time.sleep(max(0.0, self._started + (lo + 1) / rate - time.monotonic()))
                hi = min(due, hi)
            stats.tuples_in = stats.tuples_out = hi
            yield lo, hi
            lo = hi

    def _windows(self, stats: StageStats, spec: WindowSpec, ordinal: int,
                 ranges: Iterator) -> Iterator:
        """Cut released row ranges into the query's windows, each a slice of the trace.
        A window's time is this node's own since it emitted the previous window:
        its manager calls and slicing, not the pulls from its source."""
        relation, by_time = self._sources[ordinal], spec.kind is WindowKind.TIME
        manager = WindowManager(spec, *self._axis)

        def cut(lo: int, hi: int) -> list:
            # a tuple window's key is the row's ordinal, its position in the trace
            keys = relation.column("ts")[lo:hi] if by_time else np.arange(lo, hi)
            stats.tuples_in += hi - lo
            manager.add(keys)
            return manager.close_windows(keys[-1].item() if by_time else hi)

        spent = 0.0
        for closed in chain((partial(cut, lo, hi) for lo, hi in ranges), [manager.flush]):
            started = time.monotonic()
            windows = [(win.index, relation.take(slice(rows.start, rows.stop)))
                       for win, rows in closed()]
            spent += time.monotonic() - started
            for idx, payload in windows:
                stats.record(idx, spent, payload)
                spent = 0.0
                yield idx, payload

    @staticmethod
    def _stage(stats: StageStats, fn: Callable[..., Any], inputs: list[Iterator]) -> Iterator:
        """Apply ``fn`` to each window of the inputs; every window node emits the
        query's window indices in order, so the inputs meet window by window."""
        for windows in zip(*inputs, strict=True):
            idx = windows[0][0]
            yield idx, stats.apply(fn, idx, *(payload for _, payload in windows))

    # execution

    def run(self, sources: Sequence[Relation]) -> tuple[list[dict[str, Any]], OpStats]:
        """Feed the given traces (in plan source order) through the pipeline."""
        if self._ran:
            raise ConfigError("pipeline instances are single-use; instantiate again")
        self._ran = True
        if len(sources) != len(self.plan.sources):
            raise SchemaMismatch(f"plan needs {len(self.plan.sources)} sources, got {len(sources)}")
        self._sources = sources
        (spec,) = {n.spec for n in iter_nodes(self.plan.root) if isinstance(n, WindowNode)}
        by_time = spec.kind is WindowKind.TIME  # else the keys are row ordinals
        self._axis = axis(spec, [
            (r.column("ts")[0].item(), r.column("ts")[-1].item()) if by_time else (0, len(r) - 1)
            for r in sources if len(r)])
        self._started = time.monotonic()
        # collect the root's windows as flat result rows
        rows = [{"window": idx, **row} for idx, payload in self._root
                for row in payload.flatten()]
        return rows, self.stats()

    def stats(self) -> OpStats:
        return OpStats(self.stages)


def _operator(node: PlanNode, stats: StageStats) -> Callable[..., Any]:
    """Window function of a non-source, non-window node; operators resolve at call time."""
    if isinstance(node, SelectNode):
        return lambda payload: select(payload, node.predicate, stats)
    if isinstance(node, R2ANode):
        return lambda payload: r2a_op(payload, node.gba, node.aoa)
    if isinstance(node, CctNode):
        return lambda payload: cct(payload, node.option, node.gap_threshold)
    if isinstance(node, ProjectNode):
        return lambda payload: project(payload, node.columns)
    if isinstance(node, EquiJoinNode):
        return lambda left, right: hash_equi_join(left, right, node.on_left, node.on_right,
                                                  node.prefixes)
    if isinstance(node, JoinNode):
        def joined(left, right) -> Relation:
            join = cjoin if node.kind == "CJOIN" else nl_join
            left_key, right_key, _, _, score = join(left, right, node.cond,
                                                    (node.on_left, node.on_right), node.extras,
                                                    stats)
            return Relation(node.schema, dict(zip(node.schema.names(),
                                                  (left_key, right_key, score))))
        return joined
    if isinstance(node, AggregateNode):
        def aggregated(payload) -> Relation:
            if node.column is None:
                value: Any = count_star(payload)
            else:
                try:
                    value = aggregate(payload, node.func, node.column)
                except ValueError:
                    value = None  # empty window
            return Relation.from_columns(node.schema, {node.label: [value]})
        return aggregated
    if isinstance(node, DirectionNode):
        def directions(payload) -> Relation:
            results = direction(payload, bb_column=node.bb_column)
            return Relation.from_columns(node.schema, {node.key_column: [k for k, _ in results],
                                                       "direction": [d for _, d in results]})
        return directions
    raise ConfigError(f"unknown plan node {type(node).__name__}")


def instantiate(plan: QueryPlan, config: EngineConfig | None = None) -> Pipeline:
    """Build a pipeline: one generator per plan node; each feed rate must name a source."""
    config = config or EngineConfig()
    unread = [n for n in config.rates if n.lower() not in {s.lower() for s in plan.sources}]
    if unread:
        raise ConfigError(f"feed rates name sources the query does not read: {unread}")
    return Pipeline(plan, config)


# --- result serialization ------------------------------------------------------


def jsonable(value: Any) -> Any:
    """A result value as JSON: directions by name and non-finite floats as
    their ``repr``; row values are Python values, boxes and vectors lists."""
    if isinstance(value, Direction8):
        return value.value
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def row_to_json(row: Mapping[str, Any]) -> str:
    """One-line JSON for a result row, its keys in the row's column order:
    ``window`` first, then the plan's output columns."""
    return json.dumps(jsonable(dict(row)))


def write_results(rows: Sequence[Mapping[str, Any]], path: str | Path,
                  header: Mapping[str, Any] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(json.dumps({"_meta": jsonable(dict(header))}, sort_keys=True) + "\n")
        for row in rows:
            fh.write(row_to_json(row) + "\n")
