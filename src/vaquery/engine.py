"""Pipeline execution engine.

A query plan is instantiated as one generator per plan node, pulled from
the root. A source yields its trace as row ranges of at most ``quantum``
rows, optionally throttled to a feed rate; a window node assigns each
range to windows and yields every closed window as a zero-copy slice of the
trace; per-window nodes transform whole window payloads. Windows flow one
at a time from the sources to the root, so results are a function of the
plan and the input traces only: feed rates and quantum sizes change timing,
never output.

Joins pair the windows of their two inputs by position, which is window
index: window managers emit every index in order (gaps as empty windows).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, SchemaMismatch
from .model import Arrable, BoundingBox, FeatureVector, Relation
from .operators import (ComparisonCounter, Direction8, aggregate, cct, cct_join,
                        cjoin, count_star, direction, hash_equi_join, nl_join,
                        project, select)
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
    """Rows per source range, and feed rates in tuples per second (0 = unthrottled):
    ``rates`` per source name in any casing, ``default_rate`` for every other source."""

    quantum: int = 256
    rates: Mapping[str, float] = field(default_factory=dict)
    default_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.quantum <= 0:
            raise ConfigError(f"quantum must be positive, got {self.quantum}")
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
    def from_mapping(raw: Mapping[str, Any]) -> "EngineConfig":
        """Config from a JSON object: ``quantum``, ``rate`` and ``rates``, an
        object of per-source rates, all numbers; other keys are ignored."""
        rates = raw.get("rates", {})
        if type(rates) is not dict:
            raise ConfigError(f"engine config rates must map sources to numbers, got {rates!r}")
        quantum = _number(raw.get("quantum", 256), "quantum")
        if not quantum.is_integer():
            raise ConfigError(f"engine config quantum must be a whole number, got {quantum!r}")
        return EngineConfig(int(quantum),
                            {name: _number(rate, f"rate.{name}") for name, rate in rates.items()},
                            _number(raw.get("rate", 0.0), "rate"))

    @staticmethod
    def from_file(path: str | Path) -> "EngineConfig":
        """Load a config file: JSON, or flat ``key=value`` lines where
        ``rate.<source>=`` sets a per-source feed rate."""
        try:
            text = Path(path).read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"engine config {path} is not UTF-8 text: {exc.reason}") from None
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
            if key not in ("quantum", "rate") and not key.startswith("rate."):
                continue
            try:
                number = float(value)
            except ValueError:
                raise ConfigError(f"engine config {key} must be a number, got {value!r}") from None
            if key.startswith("rate."):
                raw["rates"][key[len("rate."):]] = number
            else:
                raw[key] = number
        return EngineConfig.from_mapping(raw)


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

    def of_kind(self, kind: str) -> list[StageStats]:
        """Stages whose name starts with a node kind, e.g. 'source', 'join'."""
        return [s for s in self.stages if s.name.startswith(kind)]

    def to_dict(self) -> dict[str, Any]:
        return {"stages": [s.to_dict() for s in self.stages],
                "total_smatch_comparisons": self.total_smatch_comparisons,
                "total_wall_seconds": self.total_wall_seconds}


class _Stage:
    """One plan node's name, stats and comparison counter."""

    def __init__(self, name: str):
        self.name = name
        self.stats = StageStats(name)
        self.counter: ComparisonCounter | None = None

    def apply(self, fn: Callable[..., Any], idx: int, *payloads) -> Any:
        """Transform window ``idx`` with ``fn``, timed, and record its stats."""
        self.stats.tuples_in += sum(p.element_count() for p in payloads)
        started = time.monotonic()
        result = fn(*payloads)
        elapsed = time.monotonic() - started
        self.stats.wall_seconds += elapsed
        self.stats.window_wall[idx] = self.stats.window_wall.get(idx, 0.0) + elapsed
        if self.counter is not None:
            self.stats.smatch_comparisons = self.counter.count
        self.stats.tuples_out += result.element_count()
        return result


class Pipeline:
    """Instantiated plan: one generator per plan node, pulled from the root."""

    def __init__(self, plan: QueryPlan, config: EngineConfig):
        self.plan = plan
        self.config = config
        self.stages: list[_Stage] = []
        self._names_used: dict[str, int] = {}
        self._sources: Sequence[Relation] = ()
        self._source_count = 0
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
        stage = _Stage(self._stage_name(node))
        self.stages.append(stage)
        if isinstance(node, SourceNode):
            self._source_count += 1
            return self._source(stage, node.ordinal, self.config.rate_for(node.name))
        if isinstance(node, WindowNode):
            return self._windows(stage, node.spec, self._build(node.child))
        if isinstance(node, (JoinNode, EquiJoinNode)):
            stage.counter = ComparisonCounter()
            children = (node.left, node.right)
            if isinstance(node, JoinNode):
                empty = tuple(Arrable.from_rows(_gba_of(c), "ts", c.schema) for c in children)
            else:
                empty = tuple(Relation.from_rows(c.schema, ()) for c in children)
            return self._join(stage, _join_fn(node, stage.counter), empty,
                              self._build(node.left), self._build(node.right))

        if isinstance(node, SelectNode):
            stage.counter = ComparisonCounter()
            fn = lambda payload, n=node, c=stage.counter: select(payload, n.predicate, c)
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
        return self._per_window(stage, fn, self._build(node.child))

    def _source(self, stage: _Stage, ordinal: int, rate: float) -> Iterator:
        """Release one trace as row ranges, at most ``rate`` rows per second when throttled."""
        relation = self._sources[ordinal]
        for lo in range(0, len(relation), self.config.quantum):
            hi = min(lo + self.config.quantum, len(relation))
            if rate > 0:  # every source counts from the same start, so throttled sources overlap
                wait = self._started + hi / rate - time.monotonic()
                if wait > 0:  # even sleep(0) takes tens of microseconds
                    time.sleep(wait)
            stage.stats.tuples_in = stage.stats.tuples_out = hi
            yield relation, lo, hi

    @staticmethod
    def _windows(stage: _Stage, spec: WindowSpec, ranges: Iterator) -> Iterator:
        """Assign released row ranges to windows; each closed window is a slice of the trace."""
        manager = WindowManager(spec)
        by_time = spec.kind is WindowKind.TIME

        def sliced(closed):
            for win, rows in closed:
                stage.stats.tuples_out += len(rows)
                yield win.index, relation.take(slice(rows.start, rows.stop))

        for relation, lo, hi in ranges:
            if by_time:
                keys, last = relation.column("ts")[lo:hi], relation.column("ts")[-1].item()
            else:  # a tuple window's key is the row's ordinal, its position in the trace
                keys, last = np.arange(lo, hi), len(relation) - 1
            stage.stats.tuples_in += hi - lo
            manager.add(keys)
            if lo == 0:  # the whole trace must fit in the window limit before a window closes
                check_span(spec, manager.origin, last)
            yield from sliced(manager.close_windows(keys[-1].item() if by_time else hi))
        yield from sliced(manager.flush())

    @staticmethod
    def _per_window(stage: _Stage, fn: Callable[[Any], Any], windows: Iterator) -> Iterator:
        for idx, payload in windows:
            yield idx, stage.apply(fn, idx, payload)

    @staticmethod
    def _join(stage: _Stage, fn: Callable[[Any, Any], Any], empty: tuple,
              left: Iterator, right: Iterator) -> Iterator:
        """Join the two inputs' windows pairwise.

        Window managers emit every index from 0 in order, so position is
        window index; a side with fewer windows pairs the rest with empty.
        """
        for idx, (lwin, rwin) in enumerate(zip_longest(left, right)):
            yield idx, stage.apply(fn, idx, lwin[1] if lwin else empty[0],
                                   rwin[1] if rwin else empty[1])

    # execution

    def run(self, sources: Sequence[Relation]) -> tuple[list[dict[str, Any]], OpStats]:
        """Feed the given traces (in plan source order) through the pipeline."""
        if self._ran:
            raise ConfigError("pipeline instances are single-use; instantiate again")
        self._ran = True
        if len(sources) != self._source_count:
            raise SchemaMismatch(
                f"plan needs {self._source_count} sources, got {len(sources)}")
        self._sources = sources
        self._started = time.monotonic()
        # collect the root's windows as flat result rows
        rows = [{"window": idx, **row} for idx, payload in self._root
                for row in payload.flatten()]
        return rows, self.stats()

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
            pairs = cct_join(left, right, node.cond, on=on, extra=node.extras, counter=counter)
        else:
            pairs = nl_join(left, right, node.cond, on, node.extras, counter)
        names = node.schema.names()
        return Relation.from_columns(node.schema, {
            names[0]: [p.left_oid for p in pairs], names[1]: [p.right_oid for p in pairs],
            names[2]: [p.score for p in pairs]})
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
        return Relation.from_columns(node.schema, {node.label: [value]})
    return fn


def _direction_fn(node: DirectionNode):
    def fn(payload):
        results = direction(payload, bb_column=node.bb_column)
        return Relation.from_columns(node.schema, {node.key_column: [k for k, _ in results],
                                                   "direction": [d for _, d in results]})
    return fn


def instantiate(plan: QueryPlan, config: EngineConfig | None = None) -> Pipeline:
    """Build a pipeline: one generator per plan node."""
    return Pipeline(plan, config or EngineConfig())


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
