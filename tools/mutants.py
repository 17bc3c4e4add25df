#!/usr/bin/env python3
"""Mutation testing with the standard library: which one-operator change of
a module does no test catch?

Usage, from the root of a source checkout::

    python tools/mutants.py src/vaquery/windows.py tests/test_windows.py
    python tools/mutants.py src/vaquery/operators.py --function _join_groups \\
        tests/test_operators.py

Each mutant changes one operator of the module: a comparison (``<`` to
``<=`` or ``>=``, ``==`` to ``!=``, ``is`` to ``is not``, ``in`` to
``not in``, and so on), an arithmetic or bitwise operator (``+`` to ``-``,
``*`` to ``/``, ``@`` to ``*``, ``&`` to ``|``, ...), an augmented
assignment's operator, or a boolean ``and`` to ``or`` and back. Operators
in annotations are left alone. ``--function`` keeps the mutants inside the
named functions or classes.

The checkout is never edited. ``src/``, ``tests/``, ``benchmarks/``,
``demos/``, ``README.md`` and ``pyproject.toml`` are copied to a temporary
directory; each mutant is written there with :func:`ast.unparse`, and the
named test files run in one ``pytest -x`` process at a time. The
unmutated module, unparsed the same way, must pass first; a mutant's run
that takes longer than ten times the unmutated run, and at least a minute,
is stopped, and kills its mutant.
Every survivor is printed as ``file:line: old -> new``, the expression
before and after.

Survivors
---------

Run at the commit that added this harness, with the test files named here.
Each survivor is listed with the reason it survives: most are equivalent,
giving the same results with more or less work, which no test bounds; two
are not shown equivalent.

``src/vaquery/similarity.py`` with ``tests/test_similarity.py
tests/test_operators.py``:

55 mutants, 9 survive:

- ``similarity.py:74`` ``1 << 16`` to ``1 >> 16``: ``TILE_ELEMENTS`` becomes
  0, so every join tile and every re-decided chunk holds one row; only the
  work per kernel call changes, and every tile size gives the same pairs,
  witnesses and counters (``test_every_tile_size_gives_the_oracle_pairs_``
  ``witnesses_and_counters``).
- ``similarity.py:146`` ``//`` to ``*``: larger chunks of canonical
  re-decisions, the same decisions.
- ``similarity.py:130`` ``scores >= t`` to ``scores > t``, and ``scores <= t``
  to ``scores < t``: they differ only for a GEMM score equal to ``t``, which
  lies inside the band and is re-decided canonically.
- ``similarity.py:144`` ``>= t - band`` to ``> t - band``, ``<= t + band`` to
  ``< t + band``, and ``similarity.py:145`` ``<= band`` to ``< band``: they
  differ only for a GEMM score exactly ``band`` away from ``t``, and the band
  bounds the GEMM's error strictly, so that score already decides as its
  canonical score.
- ``similarity.py:142`` the euclidean band's ``+ 4`` to ``- 4``: the band
  becomes ``(8d - 4)`` eps. For ``d = 1`` unit rows are exactly +1 or -1 and
  the GEMM is exact; for ``d >= 3`` it still covers the derived first-order
  bound ``(4d + 17)u``; at ``d = 2`` it falls one ``u`` short of that worst
  case. Not shown equivalent at ``d = 2``; no known input reaches it.
- ``similarity.py:90`` ``squares >= tiny`` to ``squares > tiny``: a row whose
  float sum of squares is exactly the smallest normal float is rescaled by
  its largest magnitude before it is normalized. Not shown equivalent: the
  rescale may move that unit row by an ulp. The rows that tests can build
  there (power-of-two components) normalize exactly either way.

``src/vaquery/windows.py`` with ``tests/test_windows.py``:

49 mutants, 10 survive, all in ``_first_above``, and each finds the same
window index with more or fewer steps:

- ``windows.py:74``, four mutants (``+ 1`` to ``- 1``, ``- shift`` to
  ``+ shift``, ``/ spec.hop`` to ``* spec.hop``, ``key - origin`` to
  ``key + origin``), and ``windows.py:75`` ``hi - 1`` to ``hi + 1``: the
  starting guess, which the two gallops and the bisection correct whatever
  it is.
- ``windows.py:76`` ``lo >= 0`` to ``lo > 0``: the downward gallop stops at 0
  without testing it, and the bisection tests index 0.
- ``windows.py:76`` ``lo >= 0`` to ``lo < 0``: no downward gallop, so the
  guess ``lo`` is the bisection's lower bound. That is wrong only if
  ``above(lo - 1)`` holds, and it cannot: before rounding, ``at(lo - 1)``
  lies about one hop below the key, since on an axis of at most
  ``MAX_WINDOWS`` windows the quotient ``(key - origin) / hop`` is off by
  far less than one index, and rounding cannot carry it above the key,
  itself a float. (A guess too low, which a coarse float grid far from 0
  can give, is the upward gallop's case.)
- ``windows.py:76`` ``and`` to ``or``: the downward gallop runs below 0
  whatever ``above`` says, and the upward gallop brackets the answer again.
- ``windows.py:77`` ``2 * step`` to ``2 / step``: the gallop steps by 2 and 1
  instead of doubling, and reaches the same bracket.
- ``windows.py:78`` ``hi < _FAR`` to ``hi <= _FAR``: differs only at
  ``hi == _FAR`` (2**62), which the bisection clamps to.

``test_a_manager_holds_no_key_of_a_closed_window`` kills the mutants of the
position up to which ``close_windows`` trims the keys it holds, which
survived before; the watermark early return, another survivor, is deleted.

``src/vaquery/operators.py --function _join_groups`` with
``tests/test_operators.py``:

18 mutants, none survives. ``test_an_empty_group_on_either_side_changes_``
``no_pair_witness_or_counter`` kills ``lo < hi`` to ``lo <= hi`` in the filter
on empty right groups, which survived before: an empty right group would
make ``tile_rows(0)`` divide by zero.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "benchmarks", "demos", "README.md", "pyproject.toml")

_CMP = {ast.Lt: (ast.LtE, ast.GtE), ast.LtE: (ast.Lt, ast.Gt),
        ast.Gt: (ast.GtE, ast.LtE), ast.GtE: (ast.Gt, ast.Lt),
        ast.Eq: (ast.NotEq,), ast.NotEq: (ast.Eq,), ast.Is: (ast.IsNot,),
        ast.IsNot: (ast.Is,), ast.In: (ast.NotIn,), ast.NotIn: (ast.In,)}
_BIN = {ast.Add: (ast.Sub,), ast.Sub: (ast.Add,), ast.Mult: (ast.Div,),
        ast.Div: (ast.Mult,), ast.FloorDiv: (ast.Mult,), ast.Mod: (ast.FloorDiv,),
        ast.Pow: (ast.Mult,), ast.BitAnd: (ast.BitOr,), ast.BitOr: (ast.BitAnd,),
        ast.BitXor: (ast.BitOr,), ast.LShift: (ast.RShift,), ast.RShift: (ast.LShift,),
        ast.MatMult: (ast.Mult,)}
_BOOL = {ast.And: (ast.Or,), ast.Or: (ast.And,)}


def _annotations(tree: ast.AST) -> set[int]:
    """The ids of every node inside an annotation."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(n) for root in roots if root is not None for n in ast.walk(root)}


def _sites(tree: ast.AST, lines: range | set[int]) -> list[tuple[int, int | None, type]]:
    """Every mutation of ``tree`` on ``lines``: (position of the node in
    :func:`ast.walk` order, position of the operator in a comparison, new
    operator type)."""
    skip = _annotations(tree)
    sites = []
    for index, node in enumerate(ast.walk(tree)):
        if id(node) in skip or not hasattr(node, "lineno") or node.lineno not in lines:
            continue
        if isinstance(node, ast.Compare):
            sites += [(index, k, new) for k, op in enumerate(node.ops)
                      for new in _CMP[type(op)]]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            sites += [(index, None, new) for new in _BIN[type(node.op)]]
        elif isinstance(node, ast.BoolOp):
            sites += [(index, None, new) for new in _BOOL[type(node.op)]]
    return sites


def _mutated(source: str, site: tuple[int, int | None, type]) -> tuple[str, int, str, str]:
    """The module with one mutation applied, unparsed, with the mutated
    node's line and its text before and after."""
    tree = ast.parse(source)
    index, k, new = site
    node = list(ast.walk(tree))[index]
    old = ast.unparse(node)
    if k is None:
        node.op = new()
    else:
        node.ops[k] = new()
    return ast.unparse(tree), node.lineno, old, ast.unparse(node)


def _lines(tree: ast.AST, functions: list[str]) -> range | set[int]:
    """The lines of the functions or classes that ``--function`` names; every line
    when it names none."""
    if not functions:
        return range(1, sys.maxsize)
    found = [n for n in ast.walk(tree)
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and n.name in functions]
    missing = set(functions) - {n.name for n in found}
    if missing:
        raise SystemExit(f"no function or class named {', '.join(sorted(missing))}")
    return {line for n in found for line in range(n.lineno, n.end_lineno + 1)}


def _passes(work: Path, tests: list[str], timeout: float | None) -> bool | None:
    """Whether the tests pass in ``work``; None when they run out of time."""
    # no bytecode: a mutant of the same size, written within the same second
    # as the one before it, would otherwise load that one's cached bytecode
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    return proc.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module to mutate, relative to the checkout")
    parser.add_argument("tests", nargs="+", help="test files to run, relative to the checkout")
    parser.add_argument("--function", action="append", default=[],
                        help="mutate only inside this function or class (repeatable)")
    args = parser.parse_args(argv)

    source = (ROOT / args.module).read_text(encoding="utf-8")
    tree = ast.parse(source)
    sites = _sites(tree, _lines(tree, args.function))
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, work / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(ROOT / name, work / name)
        target = work / args.module
        target.write_text(ast.unparse(tree), encoding="utf-8")
        started = time.perf_counter()
        if not _passes(work, args.tests, None):
            print(f"the tests fail on the unmutated {args.module}", file=sys.stderr)
            return 1
        timeout = max(60.0, 10 * (time.perf_counter() - started))
        survivors = 0
        for n, site in enumerate(sites, start=1):
            text, line, old, new = _mutated(source, site)
            target.write_text(text, encoding="utf-8")
            passed = _passes(work, args.tests, timeout)
            status = {True: "survived", False: "killed", None: "timed out"}[passed]
            print(f"[{n}/{len(sites)}] {args.module}:{line}: {status}", file=sys.stderr)
            if passed:
                survivors += 1
                print(f"{args.module}:{line}: {old} -> {new}", flush=True)
    print(f"{len(sites)} mutants, {len(sites) - survivors} killed, {survivors} survived",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
