"""Run one ``vaquery`` CLI command with its layers wrapped in timing spans.

Usage::

    python3 benchmarks/tracer.py SPANS_OUT {all,engine} run --query q.vaq ...

The wrappers are installed from outside the package by replacing module
attributes (``vaquery.ingest.read_trace``, ``vaquery.engine.cjoin``, ...) and
``WindowManager``/``Pipeline`` methods, then ``vaquery.cli.main`` runs the
remaining arguments. Mode ``engine`` wraps ``Pipeline.run`` only, which gives
the engine time without the cost of the other wrappers.

Each span records its name, start, end and parent span. Calls made once per
tuple or per comparison are kept as a count and summed time on the span that
encloses them (its ``leaves``) rather than one span per call. The spans stay
in memory and are written to SPANS_OUT as JSON when the command ends; times
are ``time.perf_counter`` readings, the same clock the parent process uses.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` in a span; ``count(result)`` records the items it made."""
        def wrapper(*args, **kwargs):
            rec = {"id": len(self.spans), "name": name,
                   "parent": self._open[-1]["id"] if self._open else None,
                   "start": perf_counter(), "end": None, "leaves": {}}
            self.spans.append(rec)
            self._open.append(rec)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    rec["items"] = count(result)
                return result
            finally:
                rec["end"] = perf_counter()
                self._open.pop()
        return wrapper

    def leaf(self, name: str, fn):
        """Wrap a high-frequency call: count and time it on the enclosing span."""
        def wrapper(*args, **kwargs):
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                # every wrapped leaf is reached through a wrapped span
                calls_seconds = self._open[-1]["leaves"].setdefault(name, [0, 0.0])
                calls_seconds[0] += 1
                calls_seconds[1] += elapsed
        return wrapper


def install(tracer: Tracer, mode: str) -> None:
    from vaquery import engine, ingest, operators, querylang
    from vaquery.windows import WindowManager

    def patch(owner, attr: str, wrap) -> None:
        setattr(owner, attr, wrap(getattr(owner, attr)))

    patch(engine.Pipeline, "run", lambda f: tracer.span("engine.run", f))
    if mode == "engine":
        return
    span = lambda name, count=None: (lambda f: tracer.span(name, f, count))
    leaf = lambda name: (lambda f: tracer.leaf(name, f))
    patch(ingest, "read_trace", span("ingest.read_trace", lambda rel: len(rel.rows)))
    patch(ingest, "validate_tuple", leaf("model.validate_tuple"))
    patch(querylang, "parse", span("querylang.parse"))
    patch(querylang, "plan", span("querylang.plan"))
    patch(engine, "instantiate", span("engine.instantiate"))
    patch(engine, "write_results", span("engine.write_results"))
    # the engine calls its operators through these module globals
    patch(engine, "r2a_op", span("operators.r2a"))
    for attr in ("cct", "select", "project", "cjoin"):
        patch(engine, attr, span(f"operators.{attr}"))
    patch(engine, "aggregate", span("operators.aggregate"))
    patch(engine, "count_star", span("operators.aggregate"))
    patch(WindowManager, "add", leaf("windows.add"))
    patch(WindowManager, "close_windows", leaf("windows.close"))
    patch(WindowManager, "flush", leaf("windows.flush"))
    for attr in ("scores_against", "normalized_matrix", "smatch"):
        patch(operators, attr, leaf(f"similarity.{attr}"))


def main(argv: list[str]) -> int:
    spans_out, mode, cli_args = argv[0], argv[1], argv[2:]
    if mode not in ("all", "engine"):
        raise SystemExit(f"mode must be 'all' or 'engine', got {mode!r}")
    from vaquery import cli

    tracer = Tracer()
    install(tracer, mode)
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
