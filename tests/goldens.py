"""Goldens that pin plans, result bytes and untimed stats.

``golden/plans.json`` maps each query text of the corpus to ``repr`` of its
plan, or to ``[code, message]`` of its refusal. The corpus is every string
that starts with ``SELECT`` (in any casing) and that a Python file of
``tests/``, ``demos/`` or ``benchmarks/workloads.py`` builds from literals
alone, found with :mod:`ast` (see :func:`_folded`); the
``sql`` blocks of README; and the benchmark workloads' queries at the
seeds in :data:`SEEDS`.

``golden/workloads.json`` holds, for each benchmark workload and seed, the
SHA-256 of its result bytes as ``engine.write_results`` writes them with no
header, and of its ``.stats.json`` with the wall-clock fields dropped. Both
are computed in-process from the ``ingest.generate`` relations.

``golden/join_2cam_seed1_joins.json`` holds, for JOIN and CJOIN of the
join-2cam workload's seed-1 traces under ``sMatch(0.95)`` and
``sMatch(0.2, EUCLIDEAN)``, the pair and comparison counts and the SHA-256
of the pairs' keys, witnesses and witness score bits.

``tests/test_goldens.py`` checks the first two files and
``tests/test_operators.py`` the third. Rewrite all three with::

    PYTHONPATH=src python tests/goldens.py

A change that rewrites them lists each changed entry in CHANGES, with why.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

from vaquery import engine, ingest
from vaquery.errors import VaqueryError
from vaquery.operators import cjoin, nl_join, r2a
from vaquery.querylang import parse, plan
from vaquery.similarity import MatchCondition, Metric

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
PLANS = GOLDEN / "plans.json"
WORKLOADS = GOLDEN / "workloads.json"
JOINS = GOLDEN / "join_2cam_seed1_joins.json"
SEEDS = (1, 3)


def _benchmark_workloads():
    """The benchmark's ``workloads`` module."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    return workloads


def _workloads() -> list[tuple]:
    """Each benchmark workload at each seed of :data:`SEEDS`, with its seed."""
    workloads = _benchmark_workloads()
    return [(workloads.build(name, seed), seed) for name in workloads.FACTORIES
            for seed in SEEDS]


def _folded(node: ast.AST, names: dict[str, str]) -> str | None:
    """The text of a string expression built only from literals: a constant,
    a module-level name bound to one, ``+`` of two, or ``.format`` or
    ``.replace`` with such arguments; None for any other expression."""
    if isinstance(node, ast.Constant):
        return node.value if isinstance(node.value, str) else None
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left, right = _folded(node.left, names), _folded(node.right, names)
        return None if left is None or right is None else left + right
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("format", "replace") and not node.keywords):
        parts = [_folded(n, names) for n in (node.func.value, *node.args)]
        return None if None in parts else getattr(parts[0], node.func.attr)(*parts[1:])
    return None


def _select_texts(path: Path) -> set[str]:
    """The string expressions of a Python file, folded from literals, that
    start with SELECT; the literal parts of an f-string are not query texts."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names: dict[str, str] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            if (text := _folded(stmt.value, names)) is not None:
                names[stmt.targets[0].id] = text
    parts = {id(v) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
             for v in node.values}
    texts = (_folded(node, names) for node in ast.walk(tree)
             if isinstance(node, ast.expr) and id(node) not in parts)
    return {t for t in texts if t is not None and t.lstrip().upper().startswith("SELECT")}


def corpus() -> list[str]:
    """Every query text the plan golden covers, sorted, each once."""
    files = [*sorted((ROOT / "tests").rglob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
             ROOT / "benchmarks" / "workloads.py"]
    texts = set().union(*map(_select_texts, files))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    texts.update(re.findall(r"^```sql\n(.*?)^```", readme, re.S | re.M))
    texts.update(w.query for w, _ in _workloads())
    return sorted(texts)


def planned(text: str) -> str | list[str]:
    """``repr`` of the plan of ``text``, or ``[code, message]`` of its refusal."""
    try:
        return repr(plan(parse(text)))
    except VaqueryError as exc:
        return [exc.code, str(exc)]


def plans() -> dict[str, str | list[str]]:
    return {text: planned(text) for text in corpus()}


def untimed(stats: engine.OpStats) -> dict:
    """Stats as their ``.stats.json`` object without its wall-clock values; a
    stage keeps the indices of the windows it timed, in window order."""
    d = stats.to_dict()
    del d["total_wall_seconds"]
    for stage in d["stages"]:
        del stage["wall_seconds"]
        stage["window_wall"] = list(stage["window_wall"])
    return d


def workload_digests() -> dict[str, dict]:
    """Per workload and seed: its row count and the SHA-256 of its result
    bytes and of its untimed stats."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        results = Path(tmp) / "results.jsonl"
        for w, seed in _workloads():
            traces = [ingest.generate(spec, seed) for spec in w.specs]
            rows, stats = engine.instantiate(plan(parse(w.query))).run(traces)
            engine.write_results(rows, results)
            stats_text = json.dumps(untimed(stats), indent=2)
            out[f"{w.name} seed {seed}"] = {
                "rows": len(rows),
                "results_sha256": hashlib.sha256(results.read_bytes()).hexdigest(),
                "stats_sha256": hashlib.sha256(stats_text.encode("utf-8")).hexdigest()}
    return out


def join_digests() -> dict[str, dict]:
    """Per join and condition: the pair and comparison counts and the SHA-256
    of the pairs' keys, witnesses and witness score bits."""
    left, right = (r2a(ingest.generate(spec, 1), "oid", "fid")
                   for spec in _benchmark_workloads().build("join-2cam", 1).specs)
    out = {}
    for cond in (MatchCondition(Metric.COSINE, 0.95), MatchCondition(Metric.EUCLIDEAN, 0.2)):
        for join in (nl_join, cjoin):
            counter = engine.StageStats("join")
            columns = join(left, right, cond, counter=counter)
            digest = hashlib.sha256()
            for column in columns[:4]:
                digest.update(column.astype("<i8").tobytes())
            digest.update(columns[4].astype("<f8").tobytes())
            out[f"{join.__name__} {cond.metric.value} {cond.th}"] = {
                "pairs": len(columns[0]), "comparisons": counter.smatch_comparisons,
                "sha256": digest.hexdigest()}
    return out


def _write(path: Path, value: dict) -> None:
    path.write_text(json.dumps(value, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write(PLANS, plans())
    _write(WORKLOADS, workload_digests())
    _write(JOINS, join_digests())
    print(f"wrote {', '.join(str(p.relative_to(ROOT)) for p in (PLANS, WORKLOADS, JOINS))}")
