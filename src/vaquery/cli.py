"""Command-line entry point.

Subcommands::

    vaquery run --query q.vaq --trace a.jsonl [--trace b.jsonl] --out results.jsonl
    vaquery eval --results results.jsonl --gt gt.json --task pairs --out report.json
    vaquery gen --spec spec.json --seed 7 --out trace.jsonl
    vaquery bench --config bench.json --out table.txt
    vaquery parse-check --query q.vaq

Exit codes: 0 success, 2 for a query file or ``--window`` flag that fails to
read or plan (message with position on stderr), 3 for every other failure.
Only :func:`main` turns a failure into an exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
import traceback
from pathlib import Path

from . import engine, ingest, querylang
from .errors import (ConfigError, FormatMismatch, InvalidWindowSpec, QuerySyntaxError,
                     SchemaMismatch, VaqueryError)
from .windows import WindowKind, WindowSpec

EXIT_QUERY_ERROR = 2
EXIT_RUNTIME_ERROR = 3


def _parse_window_flag(text: str) -> WindowSpec:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise InvalidWindowSpec(f"--window expects 'kind,size,hop', got {text!r}")
    kind = {"time": WindowKind.TIME, "tuple": WindowKind.TUPLE}.get(parts[0].lower())
    if kind is None:
        raise InvalidWindowSpec(f"window kind must be time or tuple, got {parts[0]!r}")
    try:
        size, hop = float(parts[1]), float(parts[2])
    except ValueError:
        raise InvalidWindowSpec(f"window size and hop must be numbers, got {text!r}") from None
    return WindowSpec(kind, size, hop)


def _engine_config(args) -> engine.EngineConfig:
    cfg = engine.EngineConfig.from_file(args.engine_config) if args.engine_config \
        else engine.EngineConfig()
    return cfg if args.rate is None else dataclasses.replace(cfg, default_rate=args.rate)


def _load_plan(query_path: str, window_flag: str | None = None):
    """Read and plan a query file; :func:`main` exits 2 on a VaqueryError raised in here."""
    window = _parse_window_flag(window_flag) if window_flag else None
    raw = Path(query_path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = raw[:exc.start].split(b"\n")
        raise QuerySyntaxError(f"not UTF-8 text: {exc.reason}", len(lines), len(lines[-1]) + 1) \
            from None
    return querylang.plan(querylang.parse(text), default_window=window)


def cmd_run(args) -> int:
    plan = _load_plan(args.query, args.window)
    if len(args.trace) != len(plan.sources):
        raise SchemaMismatch(f"query reads {len(plan.sources)} sources "
                             f"({', '.join(plan.sources)}), "
                             f"got {len(args.trace)} --trace arguments")
    traces = [ingest.read_trace(p, fps=args.fps) for p in args.trace]
    rows, stats = engine.instantiate(plan, _engine_config(args)).run(traces)

    header = None if args.no_header else {"generated_at": time.strftime("%Y-%m-%dT%H:%M:%S")}
    if args.format == "table":
        for row in rows:
            print("  ".join(f"{k}={engine.jsonable(v)}" for k, v in row.items()))
    if args.out:
        engine.write_results(rows, args.out, header)
        stats_path = Path(args.out).with_suffix(Path(args.out).suffix + ".stats.json")
        stats_path.write_text(json.dumps(stats.to_dict(), indent=2), encoding="utf-8")
    elif args.format == "jsonl":
        for row in rows:
            print(engine.row_to_json(row))
    return 0


def _ids(row: dict, *names: str) -> list:
    """The values of result columns that eval keys on: present, and not arrays or objects."""
    if not all(name in row and not isinstance(row[name], (list, dict)) for name in names):
        raise FormatMismatch(f"result row needs id columns {list(names)}, has {list(row)}")
    return [row[name] for name in names]


def _result_pairs(rows: list[dict]) -> list[tuple]:
    """The first two non-window columns of each result row form the pair."""
    cols = [[k for k in row if k != "window"][:2] for row in rows]
    if any(len(c) < 2 for c in cols):
        raise FormatMismatch("pair evaluation needs at least two result columns")
    return [tuple(_ids(row, *c)) for row, c in zip(rows, cols)]


def _read_results(path: str) -> list[dict]:
    rows = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:
                raise FormatMismatch(f"{path} line {line_no} is not JSON: {exc}") from None
            if type(rec) is not dict:
                raise FormatMismatch(f"{path} line {line_no} is not a JSON object")
            if "_meta" not in rec:
                rows.append(rec)
    return rows


def cmd_eval(args) -> int:
    from . import evaluation  # only eval and bench need it and its imports

    rows = _read_results(args.results)
    gt_text = Path(args.gt).read_bytes()
    counts = None
    if args.task == "pairs":
        gt = evaluation.PairGroundTruth.from_json(gt_text, args.gt)
        counts = evaluation.confusion_pairs(_result_pairs(rows), gt)
        acc = evaluation.accuracy(counts)
    elif args.task == "count":
        truth = evaluation.load_count_gt(gt_text, args.gt)
        by_window = {}
        for row in rows:  # a count of a column is named count(<column>)
            key = next((k for k in row if k.startswith("count(")), "count")
            window, count = _ids(row, "window", key)
            by_window[window] = count
        acc = evaluation.count_eval([by_window.get(i) for i in range(len(truth))], truth)
    else:
        truth = evaluation.load_direction_gt(gt_text, args.gt)
        predicted = {}
        for row in rows:
            key = next((k for k in row if k not in ("window", "direction")), "oid")
            oid, direction = _ids(row, key, "direction")
            predicted[str(oid)] = direction
        acc = evaluation.direction_eval(predicted, truth)
    report = evaluation.AccuracyReport(args.task, counts, acc, args.variant)

    print(report.to_text())
    if args.out:
        Path(args.out).write_text(json.dumps(report.to_dict(), indent=2), encoding="utf-8")
    return 0


def cmd_gen(args) -> int:
    spec = ingest.SynthSpec.from_json(Path(args.spec).read_bytes())
    rel = ingest.generate(spec, args.seed)
    ingest.write_trace(rel, args.out)
    print(f"wrote {len(rel.rows)} tuples to {args.out}")
    return 0


def _bench_config(path: str) -> tuple[list[str], dict[str, str], int, float]:
    """The traces, queries, repetitions and fps of a bench config file."""
    try:
        raw = json.loads(Path(path).read_bytes())
    except ValueError as exc:
        raise ConfigError(f"bench config {path} is not JSON: {exc}") from None
    if type(raw) is not dict:
        raise ConfigError(f"bench config {path} must be a JSON object")
    traces, queries = raw.get("traces"), raw.get("queries")
    repetitions, fps = raw.get("repetitions", 3), raw.get("fps", 30.0)
    if type(traces) is not list or not all(type(p) is str for p in traces):
        raise ConfigError(f"bench traces must be a list of path strings, got {traces!r}")
    if type(queries) is not dict or not all(type(p) is str for p in queries.values()):
        raise ConfigError(f"bench queries must map names to path strings, got {queries!r}")
    if type(repetitions) not in (int, float) or repetitions < 1 or repetitions % 1:
        raise ConfigError(f"bench repetitions must be a whole number >= 1, got {repetitions!r}")
    if type(fps) not in (int, float) or not 0 < fps <= sys.float_info.max:
        raise ConfigError(f"bench fps must be a positive finite number, got {fps!r}")
    return traces, queries, int(repetitions), float(fps)


def cmd_bench(args) -> int:
    from . import evaluation

    trace_paths, queries, repetitions, fps = _bench_config(args.config)
    traces = [ingest.read_trace(p, fps=fps) for p in trace_paths]
    trace_size = sum(len(t.rows) for t in traces)

    def runner(query_path: str) -> int:
        _, stats = engine.instantiate(_load_plan(query_path)).run(traces)
        return stats.total_smatch_comparisons

    variants = {name: functools.partial(runner, path) for name, path in queries.items()}
    table = evaluation.bench_table(evaluation.bench(variants, trace_size, repetitions))
    print(table)
    if args.out:
        Path(args.out).write_text(table + "\n", encoding="utf-8")
    return 0


def cmd_parse_check(args) -> int:
    plan = _load_plan(args.query)
    print(f"ok: {len(plan.sources)} source(s), output columns: {', '.join(plan.output_names)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vaquery",
                                     description="Windowed continuous queries over detection traces")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a query over trace files")
    run_p.add_argument("--query", required=True)
    run_p.add_argument("--trace", action="append", required=True,
                       help="trace file; repeat in source order")
    run_p.add_argument("--fps", type=float, default=30.0)
    run_p.add_argument("--window", help="default window as 'kind,size,hop'")
    run_p.add_argument("--rate", type=float, help="feed rate for all sources (tuples/s)")
    run_p.add_argument("--engine-config", help="JSON engine config file")
    run_p.add_argument("--out")
    run_p.add_argument("--format", choices=["jsonl", "table"], default="jsonl")
    run_p.add_argument("--no-header", action="store_true",
                       help="omit the timestamp header line in --out files")
    run_p.set_defaults(func=cmd_run)

    eval_p = sub.add_parser("eval", help="score results against ground truth")
    eval_p.add_argument("--results", required=True)
    eval_p.add_argument("--gt", required=True)
    eval_p.add_argument("--task", choices=["pairs", "count", "direction"], required=True)
    eval_p.add_argument("--variant", default="vce", help="ground-truth variant label")
    eval_p.add_argument("--out")
    eval_p.set_defaults(func=cmd_eval)

    gen_p = sub.add_parser("gen", help="generate a synthetic trace")
    gen_p.add_argument("--spec", required=True)
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--out", required=True)
    gen_p.set_defaults(func=cmd_gen)

    bench_p = sub.add_parser("bench", help="compare query variants")
    bench_p.add_argument("--config", required=True)
    bench_p.add_argument("--out")
    bench_p.set_defaults(func=cmd_bench)

    check_p = sub.add_parser("parse-check", help="parse and plan a query without running it")
    check_p.add_argument("--query", required=True)
    check_p.set_defaults(func=cmd_parse_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the one place where a failure becomes an exit code.

    An OSError exits 3 (``NO_SUCH_FILE`` for a missing file in an existing directory,
    else ``IO_ERROR``), a VaqueryError 2 if raised in :func:`_load_plan`, else 3.
    Nothing else is caught: a bug keeps its traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        missing = (isinstance(exc, FileNotFoundError)
                   and os.path.isdir(Path(exc.filename or "").parent))
        code, status, error = "NO_SUCH_FILE" if missing else "IO_ERROR", EXIT_RUNTIME_ERROR, exc
    except VaqueryError as exc:
        planning = any(frame.f_code is _load_plan.__code__
                       for frame, _ in traceback.walk_tb(exc.__traceback__))
        code, status, error = exc.code, EXIT_QUERY_ERROR if planning else EXIT_RUNTIME_ERROR, exc
    print(f"error [{code}]: {error}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
