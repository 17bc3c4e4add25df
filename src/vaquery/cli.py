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
                     SchemaMismatch, VaqueryError, json_field, json_type, load_json)
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


def _write_run(out: Path, rows, stats: engine.OpStats, header) -> None:
    """Write a run's results to ``out`` and its stats to ``out`` + ``.stats.json``:
    both to temporary names, renamed into place stats first. A failure leaves
    both files as they were and no temporary, and its OSError names no temporary.
    """
    stats_path = Path(f"{out}.stats.json")
    tmp_out, tmp_stats, old_stats = (p.parent / f".{p.name}.{os.getpid()}.{tag}" for p, tag in
                                     ((out, "tmp"), (stats_path, "tmp"), (stats_path, "old")))
    moved = placed = False
    try:
        engine.write_results(rows, tmp_out, header)
        tmp_stats.write_text(json.dumps(stats.to_dict(), indent=2), encoding="utf-8")
        if stats_path.is_file():
            os.replace(stats_path, old_stats)
            moved = True
        os.replace(tmp_stats, stats_path)
        placed = True
        os.replace(tmp_out, out)
    except BaseException as exc:
        tmp_out.unlink(missing_ok=True)
        tmp_stats.unlink(missing_ok=True)
        if moved:
            os.replace(old_stats, stats_path)
        elif placed:
            stats_path.unlink()
        given = {str(tmp_out): out, str(tmp_stats): stats_path}
        if isinstance(exc, OSError) and exc.filename in given:
            raise OSError(exc.errno, exc.strerror, str(given[exc.filename])) from None
        raise
    old_stats.unlink(missing_ok=True)


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
        _write_run(Path(args.out), rows, stats, header)
    elif args.format == "jsonl":
        for row in rows:
            print(engine.row_to_json(row))
    return 0


def cmd_eval(args) -> int:
    from . import evaluation  # only eval and bench need it and its imports

    with open(args.results, "rb") as fh:  # result rows: each non-blank line but _meta
        rows = [load_json(line, FormatMismatch, f"{args.results} line {line_no}", "object")
                for line_no, line in enumerate(fh, start=1) if line.strip()]
    report = evaluation.evaluate(args.task, [row for row in rows if "_meta" not in row],
                                 Path(args.gt).read_bytes(), args.gt, args.variant)
    print(report.to_text())
    if args.out:
        Path(args.out).write_text(json.dumps(report.to_dict(), indent=2), encoding="utf-8")
    return 0


def cmd_gen(args) -> int:
    spec = ingest.SynthSpec.from_json(Path(args.spec).read_bytes())
    rel = ingest.generate(spec, args.seed)
    ingest.write_trace(rel, args.out)
    print(f"wrote {len(rel)} tuples to {args.out}")
    return 0


def _bench_config(path: str) -> tuple[list[str], dict[str, str], int, float]:
    """The traces, queries, repetitions and fps of a bench config file."""
    role = f"bench config {path}"
    raw = load_json(Path(path).read_bytes(), ConfigError, role, "object")
    traces = json_field(raw, "traces", "array of string", ConfigError, role)
    queries = {name: json_type(p, "string", ConfigError, f"{role} queries.{name}")
               for name, p in json_field(raw, "queries", "object", ConfigError, role).items()}
    repetitions = json_field(raw, "repetitions", "number", ConfigError, role, 3)
    fps = json_field(raw, "fps", "number", ConfigError, role, 30.0)
    if repetitions < 1 or repetitions % 1:
        raise ConfigError(f"{role} repetitions must be a whole number >= 1, got {repetitions!r}")
    if not 0 < fps <= sys.float_info.max:
        raise ConfigError(f"{role} fps must be positive and finite, got {fps!r}")
    return traces, queries, int(repetitions), fps


def cmd_bench(args) -> int:
    from . import evaluation

    trace_paths, queries, repetitions, fps = _bench_config(args.config)
    # every query is planned once, before any trace is read; only runs are timed
    plans = {name: _load_plan(path) for name, path in queries.items()}
    traces = [ingest.read_trace(p, fps=fps) for p in trace_paths]
    trace_size = sum(map(len, traces))

    def runner(plan) -> int:
        _, stats = engine.instantiate(plan).run(traces)
        return stats.total_smatch_comparisons

    variants = {name: functools.partial(runner, plan) for name, plan in plans.items()}
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
    else ``IO_ERROR``), a MemoryError 3 (``OUT_OF_MEMORY``), a VaqueryError 2 if
    raised in :func:`_load_plan`, else 3. Nothing else is caught: a bug keeps its
    traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        missing = (isinstance(exc, FileNotFoundError)
                   and os.path.isdir(Path(exc.filename or "").parent))
        code, status, error = "NO_SUCH_FILE" if missing else "IO_ERROR", EXIT_RUNTIME_ERROR, exc
    except MemoryError as exc:  # its memory is freed once the stack has unwound to here
        code, status, error = "OUT_OF_MEMORY", EXIT_RUNTIME_ERROR, str(exc) or "out of memory"
    except VaqueryError as exc:
        planning = any(frame.f_code is _load_plan.__code__
                       for frame, _ in traceback.walk_tb(exc.__traceback__))
        code, status, error = exc.code, EXIT_QUERY_ERROR if planning else EXIT_RUNTIME_ERROR, exc
    print(f"error [{code}]: {error}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
