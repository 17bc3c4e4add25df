"""Pipeline execution engine.

A query plan is instantiated as one generator per plan node, pulled from
the root. A source yields its trace as row ranges sized by its feed clock:
the whole trace at once when unthrottled, else every row that its feed
rate has made due; a window node assigns each range to windows and yields
every closed window as a zero-copy slice of the trace; per-window nodes
transform whole window payloads. Windows flow one at a time from the
sources to the root, so results are a function of the plan and the input
traces only: feed rates change timing and range sizes, never output.

Joins pair the windows of their two inputs by position, which is window
index: window managers emit every index in order (gaps as empty windows),
and time windows count from one origin, the earliest first ``ts`` of any source.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, SchemaMismatch
from .model import Arrable, BoundingBox, FeatureVector, Relation
from .operators import (Direction8, aggregate, cct, cct_join, cjoin, count_star, direction,
                        hash_equi_join, nl_join, project, select)
from .querylang.planner import (AggregateNode, CctNode, DirectionNode,
                                EquiJoinNode, JoinNode, PlanNode, ProjectNode,
                                QueryPlan, R2ANode, SelectNode, SourceNode,
                                WindowNode, _gba_of)
from .operators import r2a as r2a_op
from .windows import WindowKind, WindowManager, WindowSpec, check_span


def _number(value: Any, key: str) -> float:
    """A config value that must be a JSON number, not a boolean or a string."""
    if type(value) not in (int, float):  # bool is an int subclass
        raise ConfigError(f"engine config {key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"engine config {key} is out of range: {value}") from None


@dataclass(frozen=True)
class EngineConfig:
    """Feed rates in tuples per second (0 = unthrottled): ``rates`` per source
    name in any casing, ``default_rate`` for every other source."""

    rates: Mapping[str, float] = field(default_factory=dict)
    default_rate: float = 0.0

    def __post_init__(self) -> None:
        for rate in (self.default_rate, *self.rates.values()):
            if not 0 <= rate < math.inf:
                raise ConfigError(f"feed rate must be finite and >= 0, got {rate}")
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
        try:
            raw = json.loads(Path(path).read_bytes().decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"engine config {path} is not UTF-8 text: {exc.reason}") from None
        except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deeply
            raise ConfigError(f"engine config is not valid JSON: {exc}") from None
        if type(raw) is not dict:
            raise ConfigError(f"engine config {path} must be a JSON object")
        rates = raw.get("rates", {})
        if type(rates) is not dict:
            raise ConfigError(f"engine config rates must map sources to numbers, got {rates!r}")
        return EngineConfig({name: _number(rate, f"rate.{name}") for name, rate in rates.items()},
                            _number(raw.get("rate", 0.0), "rate"))


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
        """Count ``n`` feature-vector comparisons, as a ``ComparisonCounter`` does."""
        self.smatch_comparisons += n

    def apply(self, fn: Callable[..., Any], idx: int, *payloads) -> Any:
        """Transform window ``idx`` with ``fn``, timed, and record its stats."""
        self.tuples_in += sum(p.element_count() for p in payloads)
        started = time.monotonic()
        result = fn(*payloads)
        elapsed = time.monotonic() - started
        self.wall_seconds += elapsed
        self.window_wall[idx] = self.window_wall.get(idx, 0.0) + elapsed
        self.tuples_out += result.element_count()
        return result

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
            return self._windows(stats, node.spec, self._build(node.child))
        fn = _operator(node, stats)
        if isinstance(node, (JoinNode, EquiJoinNode)):
            empty = tuple(Arrable.from_rows(_gba_of(c), c.schema) if isinstance(node, JoinNode)
                          else Relation.from_rows(c.schema, ()) for c in (node.left, node.right))
            return self._join(stats, fn, empty, self._build(node.left), self._build(node.right))
        return self._per_window(stats, fn, self._build(node.child))

    def _source(self, stats: StageStats, ordinal: int, rate: float) -> Iterator:
        """Release one trace as row ranges: whole when unthrottled, else every row
        due by ``started + rows / rate``, sleeping until the next one when none is."""
        relation, lo = self._sources[ordinal], 0
        while lo < len(relation):
            hi = len(relation)
            if rate > 0:  # every source counts from the same start, so throttled sources overlap
                while (due := int((time.monotonic() - self._started) * rate)) <= lo:
                    time.sleep(max(0.0, self._started + (lo + 1) / rate - time.monotonic()))
                hi = min(due, hi)
            stats.tuples_in = stats.tuples_out = hi
            yield relation, lo, hi
            lo = hi

    def _windows(self, stats: StageStats, spec: WindowSpec, ranges: Iterator) -> Iterator:
        """Assign released row ranges to windows; each closed window is a slice of the trace."""
        by_time = spec.kind is WindowKind.TIME
        if by_time and spec.origin is None:  # one time axis for every source of the query
            spec = replace(spec, origin=min(
                (r.column("ts")[0].item() for r in self._sources if len(r)), default=None))
        manager = WindowManager(spec)

        def sliced(closed):
            for win, rows in closed:
                stats.tuples_out += len(rows)
                yield win.index, relation.take(slice(rows.start, rows.stop))

        for relation, lo, hi in ranges:
            if by_time:
                keys, last = relation.column("ts")[lo:hi], relation.column("ts")[-1].item()
            else:  # a tuple window's key is the row's ordinal, its position in the trace
                keys, last = np.arange(lo, hi), len(relation) - 1
            stats.tuples_in += hi - lo
            manager.add(keys)
            if lo == 0:  # the whole trace must fit in the window limit before a window closes
                check_span(spec, manager.origin, last)
            yield from sliced(manager.close_windows(keys[-1].item() if by_time else hi))
        yield from sliced(manager.flush())

    @staticmethod
    def _per_window(stats: StageStats, fn: Callable[[Any], Any], windows: Iterator) -> Iterator:
        for idx, payload in windows:
            yield idx, stats.apply(fn, idx, payload)

    @staticmethod
    def _join(stats: StageStats, fn: Callable[[Any, Any], Any], empty: tuple,
              left: Iterator, right: Iterator) -> Iterator:
        """Join the two inputs' windows pairwise.

        Window managers emit every index from 0 in order, so position is
        window index; a side with fewer windows pairs the rest with empty.
        """
        for idx, (lwin, rwin) in enumerate(zip_longest(left, right)):
            yield idx, stats.apply(fn, idx, lwin[1] if lwin else empty[0],
                                   rwin[1] if rwin else empty[1])

    # execution

    def run(self, sources: Sequence[Relation]) -> tuple[list[dict[str, Any]], OpStats]:
        """Feed the given traces (in plan source order) through the pipeline."""
        if self._ran:
            raise ConfigError("pipeline instances are single-use; instantiate again")
        self._ran = True
        if len(sources) != len(self.plan.sources):
            raise SchemaMismatch(f"plan needs {len(self.plan.sources)} sources, got {len(sources)}")
        self._sources = sources
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
            on = (node.on_left, node.on_right)
            if node.kind == "CCTJOIN":
                pairs = cct_join(left, right, node.cond, on=on, extra=node.extras, counter=stats)
            else:
                pairs = (cjoin if node.kind == "CJOIN" else nl_join)(left, right, node.cond, on,
                                                                    node.extras, stats)
            names = node.schema.names()
            return Relation.from_columns(node.schema, {
                names[0]: [p.left_oid for p in pairs], names[1]: [p.right_oid for p in pairs],
                names[2]: [p.score for p in pairs]})
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
    """A result value as JSON: boxes and vectors as lists, directions by name,
    and non-finite floats as their ``repr``; row values are Python values."""
    if isinstance(value, (BoundingBox, FeatureVector)):
        return value.as_list()
    if isinstance(value, Direction8):
        return value.value
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
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
