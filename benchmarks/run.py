#!/usr/bin/env python3
"""The vaquery benchmark: one workload, one seed, one measured run.

Usage, from the root of a source checkout::

    python3 benchmarks/run.py --workload join-2cam --seed 1 --seconds 30 --trace 0

The workload's traces and query are generated from ``--seed`` with
``vaquery.ingest.generate`` (set-up, timed as ``setup_s``). One operation is
then one ``vaquery run --query ... --trace ... --out ... --no-header`` in a
fresh process, as a CLI user runs it. Operations run back to back, one at a
time, in a closed loop with a single client, for ``--seconds`` seconds after
one warm-up operation; every output, the warm-up's included, is checked
against a reference computed from the generator spec (``workloads.py``).
Before each operation the previous results and ``.stats.json`` files are
deleted, so a leftover file can never pass the check.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
operation through ``tracer.py`` instead and reports per-layer metrics:
operations alternate between all wrappers and ``Pipeline.run`` alone, and
the difference of their median engine times is ``trace_overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit. Work files go to ``.bench_work/`` in
the checkout; the spans of a traced run stay there as
``trace-<workload>-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"

WORKLOADS = ("join-2cam", "count-rolling", "search-probe")
SETUP_REPS = 5          # set-up runs per benchmark run; setup_s is their median
MIN_OPS = 5             # timed operations per run, even past --seconds
OP_TIMEOUT_S = 60.0     # an operation still running after this is killed and failed
ADD_UP_TOLERANCE_S = 1e-3  # self times + unattributed vs traced wall, per operation

CLI = "import sys; from vaquery.cli import main; sys.exit(main())"
#: Stage names of the three workloads' plans, as ``.stats.json`` spells them.
STAGES = ("source[R1]", "source[R2]", "window", "window#2", "select", "r2a",
          "r2a#2", "cct", "join", "project", "aggregate")
OPERATORS = ("r2a", "cct", "select", "project", "aggregate", "cjoin")
SIMILARITY = ("scores_against", "normalized_matrix", "smatch")

END_TO_END = {"run_s_p50": "s", "tuples_per_s": "1/s", "peak_rss_mib": "MiB",
              "setup_s": "s"}


def stage_metric(stage: str) -> str:
    """``source[R1]`` -> ``source.R1``, ``window#2`` -> ``window.2``."""
    return stage.replace("[", ".").replace("]", "").replace("#", ".")


def per_layer_units() -> dict[str, str]:
    units = {"ingest.read_trace_s": "s", "ingest.tuples": "count",
             "ingest.trace_mib": "MiB", "model.validate_tuple_s": "s",
             "model.validate_tuple_calls": "count",
             "querylang.parse_s": "s", "querylang.plan_s": "s",
             "engine.instantiate_s": "s", "engine.run_s": "s", "engine.self_s": "s",
             "engine.write_results_s": "s", "engine.windows_emitted": "count"}
    for stage in STAGES:
        units[f"engine.tuples_in.{stage_metric(stage)}"] = "count"
        units[f"engine.tuples_out.{stage_metric(stage)}"] = "count"
    for name in ("add", "close", "flush"):
        units[f"windows.{name}_s"] = "s"
        units[f"windows.{name}_calls"] = "count"
    for name in OPERATORS:
        units[f"operators.{name}_s"] = "s"
        units[f"operators.{name}_calls"] = "count"
    for name in SIMILARITY:
        units[f"similarity.{name}_s"] = "s"
        units[f"similarity.{name}_calls"] = "count"
    units.update({"similarity.smatch_comparisons": "count",
                  "similarity.hits_per_comparison": "ratio",
                  "trace_overhead_s": "s", "trace.wall_s": "s",
                  "trace.unattributed_s": "s", "trace.unattributed_share": "ratio"})
    return units


# --- one operation -----------------------------------------------------------


@dataclass
class Op:
    start: float
    end: float
    exit_code: int
    rss_mib: float
    correct: bool
    rows: list[dict]
    stats: dict | None

    @property
    def wall(self) -> float:
        return self.end - self.start


def _spawn(cmd: list[str], env: dict, stderr_path: Path) -> tuple[float, float, int, float]:
    """Run ``cmd`` to completion; (start, end, exit code, peak RSS in MiB)."""
    with open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    pidfd = os.pidfd_open(proc.pid)
    try:
        if not select.select([pidfd], [], [], OP_TIMEOUT_S)[0]:
            proc.kill()
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)  # always reap, also when interrupted
        end = perf_counter()
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return start, end, proc.returncode, usage.ru_maxrss / 1024.0


def _read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Runner:
    """Runs operations of one generated workload in one work directory."""

    def __init__(self, workload, work: Path, trace_paths: list[Path], query_path: Path):
        import workloads
        self._check = workloads.check
        self.workload = workload
        self.work = work
        self.out = work / "results.jsonl"
        self.stats_path = work / "results.jsonl.stats.json"
        self.cli_args = ["run", "--query", str(query_path)]
        for p in trace_paths:
            self.cli_args += ["--trace", str(p)]
        self.cli_args += ["--out", str(self.out), "--no-header"]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # one core for this process, one for the child (nproc = 2 where the
        # baseline was taken): keep numpy's BLAS from starting more threads
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def run(self, prefix: list[str]) -> Op:
        for p in (self.out, self.stats_path):
            p.unlink(missing_ok=True)
        err = self.work / "stderr.txt"
        start, end, code, rss = _spawn(prefix + self.cli_args, self.env, err)
        if code != 0:
            sys.stderr.write(f"operation exited {code}:\n"
                             + err.read_text(encoding="utf-8", errors="replace")[-2000:])
        rows: list[dict] = []
        stats = None
        try:
            if code == 0:
                rows = _read_rows(self.out)
                stats = json.loads(self.stats_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):  # missing or unreadable output: a failed operation
            stats = None
        correct = stats is not None and self._check(self.workload, rows)
        return Op(start, end, code, rss, correct, rows, stats)


# --- set-up ------------------------------------------------------------------


def set_up(name: str, seed: int, work: Path):
    """Generate the workload's traces and query file; returns what ran and
    the median set-up time of ``SETUP_REPS`` repetitions."""
    import workloads
    from vaquery import ingest

    times = []
    for _ in range(SETUP_REPS):
        started = perf_counter()
        workload = workloads.build(name, seed)
        trace_paths = []
        for i, spec in enumerate(workload.specs):
            path = work / f"trace{i + 1}.jsonl"
            ingest.write_trace(ingest.generate(spec, seed), path)
            trace_paths.append(path)
        query_path = work / "query.vaq"
        query_path.write_text(workload.query + "\n", encoding="utf-8")
        times.append(perf_counter() - started)
    return workload, trace_paths, query_path, statistics.median(times)


# --- span arithmetic ---------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals``, clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def op_layers(spans: list[dict], start: float, end: float) -> dict:
    """Inclusive time, calls and self time per layer for one traced operation.

    A span's self time is its duration minus the part of it its child spans
    cover and minus its leaves' summed time. The unattributed remainder is
    the part of the process wall time that no top-level span covers (start-up,
    imports, argument handling, the stats file).
    """
    children: dict[int | None, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}

    def add(name: str, seconds: float, n: int, own: float) -> None:
        total[name] = total.get(name, 0.0) + seconds
        calls[name] = calls.get(name, 0) + n
        self_s[name] = self_s.get(name, 0.0) + own

    for s in spans:
        duration = s["end"] - s["start"]
        kids = [(c["start"], c["end"]) for c in children.get(s["id"], [])]
        leaf_time = sum(sec for _, sec in s["leaves"].values())
        add(s["name"], duration, 1,
            duration - _covered(kids, s["start"], s["end"]) - leaf_time)
        for name, (n, sec) in s["leaves"].items():
            add(name, sec, n, sec)
    top = [(s["start"], s["end"]) for s in children.get(None, [])]
    wall = end - start
    unattributed = wall - _covered(top, start, end)
    return {"total": total, "calls": calls, "self": self_s, "wall": wall,
            "unattributed": unattributed,
            "tuples_read": sum(s.get("items", 0) for s in spans),
            "adds_up": abs(sum(self_s.values()) + unattributed - wall) <= ADD_UP_TOLERANCE_S}


# --- the two kinds of run ----------------------------------------------------


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _closed_loop(run_one, seconds: float, kinds: list):
    """One warm-up operation, then operations back to back for ``seconds``
    (at least ``MIN_OPS`` of each kind), cycling through ``kinds``. Returns
    the warm-up's result and ``(kind, result)`` for each timed operation."""
    warm_up = run_one(kinds[0])
    timed = []
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline or i < MIN_OPS * len(kinds):
        kind = kinds[i % len(kinds)]
        timed.append((kind, run_one(kind)))
        i += 1
    return warm_up, timed


def end_to_end(runner: Runner, seconds: float, setup_s: float):
    """``run_s_p50``: median wall time of one operation, spawn to exit;
    ``tuples_per_s``: the workload's input tuples over ``run_s_p50``;
    ``peak_rss_mib``: median over operations of the child's peak RSS."""
    prefix = [sys.executable, "-c", CLI]
    warm_up, timed = _closed_loop(lambda _: runner.run(prefix), seconds, [None])
    ops = [op for _, op in timed]
    run_s = _median([op.wall for op in ops])
    metrics = {"run_s_p50": run_s,
               "tuples_per_s": runner.workload.tuples / run_s,
               "peak_rss_mib": _median([op.rss_mib for op in ops]),
               "setup_s": setup_s}
    return [warm_up] + ops, metrics, True, []


def per_layer(runner: Runner, seconds: float, trace_paths: list[Path], spans_out: Path):
    """Per-layer metrics: medians over the fully traced operations of each
    layer's time and calls per operation, plus the program's own counters
    from ``.stats.json``, which repeat exactly from run to run."""
    spans_file = runner.work / "spans.json"
    recorded: list[dict] = []
    ops: list[Op] = []

    def run_one(mode: str):
        spans_file.unlink(missing_ok=True)
        op = runner.run([sys.executable, str(TRACER), str(spans_file), mode])
        spans = json.loads(spans_file.read_text(encoding="utf-8"))["spans"] \
            if spans_file.is_file() else []
        for s in spans:
            s["op"] = len(ops)
        recorded.extend(spans)
        ops.append(op)
        return op, op_layers(spans, op.start, op.end)

    _, timed = _closed_loop(run_one, seconds, ["all", "engine"])
    spans_out.write_text(json.dumps({"spans": recorded}), encoding="utf-8")

    full = [lay for mode, (_, lay) in timed if mode == "all"]
    engine_only = [lay for mode, (_, lay) in timed if mode == "engine"]
    last = [op for mode, (op, _) in timed if mode == "all"][-1]

    def med_total(name: str) -> float:
        return _median([lay["total"].get(name, 0.0) for lay in full])

    def med_calls(name: str) -> float:
        return _median([lay["calls"].get(name, 0) for lay in full])

    stats = last.stats or {"stages": [], "total_smatch_comparisons": 0}
    stage_stats = {s["name"]: s for s in stats["stages"]}
    comparisons = stats["total_smatch_comparisons"]
    result_rows = len(last.rows)

    m: dict[str, float] = {
        "ingest.read_trace_s": med_total("ingest.read_trace"),
        "ingest.tuples": _median([lay["tuples_read"] for lay in full]),
        "ingest.trace_mib": sum(p.stat().st_size for p in trace_paths) / 2 ** 20,
        "model.validate_tuple_s": med_total("model.validate_tuple"),
        "model.validate_tuple_calls": med_calls("model.validate_tuple"),
        "querylang.parse_s": med_total("querylang.parse"),
        "querylang.plan_s": med_total("querylang.plan"),
        "engine.instantiate_s": med_total("engine.instantiate"),
        "engine.run_s": med_total("engine.run"),
        "engine.self_s": _median([lay["self"].get("engine.run", 0.0) for lay in full]),
        "engine.write_results_s": med_total("engine.write_results"),
        # the root stage comes last and records every window it processed
        "engine.windows_emitted": len(stats["stages"][-1]["window_wall"])
        if stats["stages"] else 0,
    }
    for stage in STAGES:
        s = stage_stats.get(stage, {})
        m[f"engine.tuples_in.{stage_metric(stage)}"] = s.get("tuples_in", 0)
        m[f"engine.tuples_out.{stage_metric(stage)}"] = s.get("tuples_out", 0)
    for name in ("add", "close", "flush"):
        m[f"windows.{name}_s"] = med_total(f"windows.{name}")
        m[f"windows.{name}_calls"] = med_calls(f"windows.{name}")
    for name in OPERATORS:
        m[f"operators.{name}_s"] = med_total(f"operators.{name}")
        m[f"operators.{name}_calls"] = med_calls(f"operators.{name}")
    for name in SIMILARITY:
        m[f"similarity.{name}_s"] = med_total(f"similarity.{name}")
        m[f"similarity.{name}_calls"] = med_calls(f"similarity.{name}")
    engine_run_alone = _median([lay["total"].get("engine.run", 0.0) for lay in engine_only])
    wall = _median([lay["wall"] for lay in full])
    unattributed = _median([lay["unattributed"] for lay in full])
    m.update({
        "similarity.smatch_comparisons": comparisons,
        "similarity.hits_per_comparison": result_rows / comparisons if comparisons else 0.0,
        "trace_overhead_s": m["engine.run_s"] - engine_run_alone,
        "trace.wall_s": wall,
        "trace.unattributed_s": unattributed,
        "trace.unattributed_share": unattributed / wall,
    })

    notes = [f"hits_per_comparison base: {result_rows} result rows / {comparisons} comparisons",
             f"engine.run_s with Pipeline.run wrapped alone: {engine_run_alone:.6f} s",
             f"traced operations: {len(full)} with all wrappers, "
             f"{len(engine_only)} with Pipeline.run alone"]
    layers = sorted({name for lay in full for name in lay["self"]})
    shares = {name: _median([lay["self"].get(name, 0.0) / lay["wall"] for lay in full])
              for name in layers}
    shares["unattributed"] = _median([lay["unattributed"] / lay["wall"] for lay in full])
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        notes.append(f"self-time share of traced wall: {name} {share:.1%}")
    adds_up = all(lay["adds_up"] for _, (_, lay) in timed)
    if not adds_up:
        notes.append(f"self times + unattributed differ from the traced wall time "
                     f"by more than {ADD_UP_TOLERANCE_S} s in some operation")
    return ops, m, adds_up, notes


# --- entry point ------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vaquery" / "__init__.py").is_file():
        print(f"error: no vaquery sources at {SRC}; run from a vaquery checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vaquery
    if Path(vaquery.__file__).resolve().parent != SRC / "vaquery":
        print(f"error: imported vaquery from {vaquery.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload, trace_paths, query_path, setup_s = set_up(args.workload, args.seed, work)
        runner = Runner(workload, work, trace_paths, query_path)
        if args.trace:
            spans_out = WORK / f"trace-{args.workload}-s{args.seed}.json"
            ops, metrics, consistent, notes = per_layer(runner, args.seconds,
                                                        trace_paths, spans_out)
            units = per_layer_units()
        else:
            ops, metrics, consistent, notes = end_to_end(runner, args.seconds, setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for op in ops if not op.correct)
    print(f"{args.workload} seed={args.seed} trace={args.trace} tuples={workload.tuples} "
          f"operations={len(ops)} (first is a warm-up, not timed)")
    print(f"error_rate = {failed / len(ops):.4g} ratio ({failed} failed / {len(ops)} attempted)")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    for note in notes:
        print(note)
    result = {"correct": failed == 0 and consistent, "attempted": len(ops), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
