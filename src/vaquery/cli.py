"""Command-line entry point.

Subcommands::

    vaquery run --query q.vaq --trace a.jsonl [--trace b.jsonl] --out results.jsonl
    vaquery eval --results results.jsonl --gt gt.json --task pairs --out report.json
    vaquery gen --spec spec.json --seed 7 --out trace.jsonl
    vaquery bench --config bench.json --out table.txt
    vaquery parse-check --query q.vaq

Exit codes: 0 success, 2 query syntax/plan errors (message with position on
stderr), 3 runtime errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import engine, evaluation, ingest, querylang
from .errors import InvalidWindowSpec, VaqueryError
from .model import TRACE_SCHEMA
from .windows import WindowKind, WindowSpec

EXIT_QUERY_ERROR = 2
EXIT_RUNTIME_ERROR = 3


def _parse_window_flag(text: str) -> WindowSpec:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise VaqueryError(f"--window expects 'kind,size,hop', got {text!r}")
    kind = {"time": WindowKind.TIME, "tuple": WindowKind.TUPLE}.get(parts[0].lower())
    if kind is None:
        raise VaqueryError(f"window kind must be time or tuple, got {parts[0]!r}")
    try:
        size, hop = float(parts[1]), float(parts[2])
    except ValueError:
        raise InvalidWindowSpec(f"window size and hop must be numbers, got {text!r}") from None
    return WindowSpec(kind, size, hop)


def _engine_config(args) -> engine.EngineConfig:
    path = getattr(args, "engine_config", None)
    cfg = engine.EngineConfig.from_file(path) if path else engine.EngineConfig()
    if getattr(args, "rate", None) is not None:
        cfg = dataclasses.replace(cfg, default_rate=float(args.rate))
    if getattr(args, "quantum", None) is not None:
        cfg = dataclasses.replace(cfg, quantum=int(args.quantum))
    return cfg


def _load_plan(query_path: str, window: WindowSpec | None = None):
    text = Path(query_path).read_text(encoding="utf-8")
    ast = querylang.parse(text)
    # every source in the query reads the trace schema
    catalog = {name: TRACE_SCHEMA for name in _source_names(ast)}
    return querylang.plan(ast, catalog, window)


def _source_names(ast) -> list[str]:
    names: list[str] = []

    def walk_source(src) -> None:
        if isinstance(src, querylang.nodes.TableSource):
            names.append(src.name)
        elif isinstance(src, querylang.nodes.R2ASource):
            names.append(src.table)
        elif isinstance(src, querylang.nodes.CctSource):
            walk_source(src.inner)
        elif isinstance(src, querylang.nodes.SubquerySource):
            walk_query(src.query)

    def walk_query(q) -> None:
        walk_source(q.source)
        if q.join is not None:
            walk_source(q.join.source)

    walk_query(ast)
    return names


def cmd_run(args) -> int:
    try:
        window = _parse_window_flag(args.window) if args.window else None
        plan = _load_plan(args.query, window)
    except FileNotFoundError as exc:
        print(f"error [NO_SUCH_FILE]: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    except VaqueryError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_QUERY_ERROR
    try:
        if len(args.trace) != len(plan.sources):
            raise VaqueryError(
                f"query reads {len(plan.sources)} sources ({', '.join(plan.sources)}), "
                f"got {len(args.trace)} --trace arguments")
        traces = [ingest.read_trace(p, fps=args.fps) for p in args.trace]
        pipeline = engine.instantiate(plan, _engine_config(args))
        rows, stats = pipeline.run(traces)
    except FileNotFoundError as exc:
        print(f"error [NO_SUCH_FILE]: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    except VaqueryError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR

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


def _result_pairs(rows: list[dict]) -> list[tuple]:
    """The first two non-window columns of each result row form the pair."""
    pairs = []
    for row in rows:
        cols = [k for k in row if k != "window"]
        if len(cols) < 2:
            raise VaqueryError("pair evaluation needs at least two result columns")
        pairs.append((row[cols[0]], row[cols[1]]))
    return pairs


def _read_results(path: str) -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if "_meta" in rec:
                continue
            rows.append(rec)
    return rows


def cmd_eval(args) -> int:
    try:
        rows = _read_results(args.results)
        gt_text = Path(args.gt).read_text(encoding="utf-8")
        if args.task == "pairs":
            gt = evaluation.PairGroundTruth.from_json(gt_text)
            counts = evaluation.confusion_pairs(_result_pairs(rows), gt)
            report = evaluation.AccuracyReport("pairs", counts,
                                               evaluation.accuracy(counts), args.variant)
        elif args.task == "count":
            truth = evaluation.load_count_gt(gt_text)
            by_window = {row["window"]: row for row in rows}
            predicted = [by_window[i]["count"] if i in by_window else None
                         for i in range(len(truth))]
            acc = evaluation.count_eval(predicted, truth)
            report = evaluation.AccuracyReport("count", None, acc, args.variant)
        else:
            truth = evaluation.load_direction_gt(gt_text)
            predicted = {}
            for row in rows:
                keys = [k for k in row if k not in ("window", "direction")]
                predicted[str(row[keys[0]])] = row["direction"]
            acc = evaluation.direction_eval(predicted, truth)
            report = evaluation.AccuracyReport("direction", None, acc, args.variant)
    except FileNotFoundError as exc:
        print(f"error [NO_SUCH_FILE]: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    except (VaqueryError, KeyError) as exc:
        code = exc.code if isinstance(exc, VaqueryError) else "FORMAT_MISMATCH"
        print(f"error [{code}]: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR

    print(report.to_text())
    if args.out:
        Path(args.out).write_text(json.dumps(report.to_dict(), indent=2), encoding="utf-8")
    return 0


def cmd_gen(args) -> int:
    try:
        spec = ingest.SynthSpec.from_json(Path(args.spec).read_text(encoding="utf-8"))
        rel = ingest.generate(spec, args.seed)
        ingest.write_trace(rel, args.out)
    except FileNotFoundError as exc:
        print(f"error [NO_SUCH_FILE]: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    except VaqueryError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    print(f"wrote {len(rel.rows)} tuples to {args.out}")
    return 0


def cmd_bench(args) -> int:
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        fps = float(raw.get("fps", 30.0))
        traces = [ingest.read_trace(p, fps=fps) for p in raw["traces"]]
        repetitions = int(raw.get("repetitions", 3))
        variants = {}
        trace_size = sum(len(t.rows) for t in traces)

        def make_runner(query_path: str):
            def runner() -> int:
                plan = _load_plan(query_path)
                pipeline = engine.instantiate(plan, _engine_config(args))
                _, stats = pipeline.run(traces)
                return stats.total_smatch_comparisons
            return runner

        for name, query_path in raw["queries"].items():
            variants[name] = make_runner(query_path)
        rows = evaluation.bench(variants, trace_size, repetitions)
    except FileNotFoundError as exc:
        print(f"error [NO_SUCH_FILE]: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    except (VaqueryError, KeyError) as exc:
        code = exc.code if isinstance(exc, VaqueryError) else "CONFIG_ERROR"
        print(f"error [{code}]: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR

    table = evaluation.bench_table(rows)
    print(table)
    if args.out:
        Path(args.out).write_text(table + "\n", encoding="utf-8")
    return 0


def cmd_parse_check(args) -> int:
    try:
        plan = _load_plan(args.query)
    except FileNotFoundError as exc:
        print(f"error [NO_SUCH_FILE]: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    except VaqueryError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_QUERY_ERROR
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
    run_p.add_argument("--quantum", type=int)
    run_p.add_argument("--engine-config", help="engine config file (JSON or key=value)")
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
