"""Mutation audit: which single-point mutants of `src/` does the suite miss?

Each mutant changes one site of one module:

* a comparison operator flipped (`<` to `<=`, `in` to `not in`, ...);
* `and` swapped for `or`, or back;
* an int literal raised by 1 (`bool` excluded);
* a `not` dropped.

The module is rewritten with `ast.unparse`, so comments go and layout
changes; before any mutant runs, every listed module is rewritten
unmutated and the suite must still pass. Each mutant then runs
`python -m pytest -x -q` in its own copy of the checkout (the tests find
`src` from their own location), two at a time. A mutant whose run passes
survives; a survivor is either code no test reaches or code nothing needs.

Run from a checkout, with pytest and hypothesis installed, to audit every
module under `src/`:

    python3 tools/mutants.py

A full pass took 10 min on 2 CPUs. Each mutant is reported on stderr as
`path:line:column: change: killed` (or `SURVIVED`); stdout lists the
survivors and the totals. The exit status is 0 when no mutant survives,
1 when one does, and 2 when the suite fails on the unmutated rewrite.
"""

from __future__ import annotations

import ast
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2
# A mutant that makes a search unbounded is stopped by these and counts
# as killed.
TIMEOUT_S = 600
MEMORY_BYTES = 2 << 30

_FLIPPED = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
            ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn,
            ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
_SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.In: "in", ast.NotIn: "not in", ast.Is: "is",
           ast.IsNot: "is not", ast.And: "and", ast.Or: "or"}


class Site(NamedTuple):
    line: int
    column: int  # 1-based
    change: str


class _Mutator(ast.NodeTransformer):
    """Lists every site in visiting order and applies the one numbered
    `target` (none when it is -1)."""

    def __init__(self, target: int = -1):
        self.target = target
        self.sites: list[Site] = []

    def _site(self, node: ast.AST, change: str) -> bool:
        self.sites.append(Site(node.lineno, node.col_offset + 1, change))
        return len(self.sites) - 1 == self.target

    def visit_Compare(self, node: ast.Compare) -> ast.AST:
        for i, op in enumerate(node.ops):
            flipped = _FLIPPED[type(op)]
            if self._site(node, f"{_SYMBOL[type(op)]} -> {_SYMBOL[flipped]}"):
                node.ops[i] = flipped()
        return self.generic_visit(node)

    def visit_BoolOp(self, node: ast.BoolOp) -> ast.AST:
        swapped = ast.Or if isinstance(node.op, ast.And) else ast.And
        if self._site(node, f"{_SYMBOL[type(node.op)]} -> {_SYMBOL[swapped]}"):
            node.op = swapped()
        return self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> ast.AST:
        if type(node.value) is int and self._site(node, f"{node.value} -> {node.value + 1}"):
            return ast.copy_location(ast.Constant(node.value + 1), node)
        return node

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
        dropped = isinstance(node.op, ast.Not) and self._site(node, "not dropped")
        self.generic_visit(node)
        return node.operand if dropped else node


def sites(source: str) -> list[Site]:
    """Every mutation site of `source`, in the order mutants are numbered."""
    mutator = _Mutator()
    mutator.visit(ast.parse(source))
    return mutator.sites


def mutate(source: str, target: int) -> str:
    """`source` rewritten by `ast.unparse` with site `target` mutated, or
    with none when `target` is -1."""
    tree = _Mutator(target).visit(ast.parse(source))
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def run_suite(workdir: Path, rewrites: dict[str, str]) -> bool:
    """Whether `pytest -x` passes in a fresh copy of the checkout with each
    module path in `rewrites` replaced by its text."""
    copy = Path(tempfile.mkdtemp(dir=workdir))
    try:
        shutil.copytree(ROOT, copy, dirs_exist_ok=True, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", "out"))
        for path, text in rewrites.items():
            (copy / path).write_text(text)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        # A session of its own, so that a timeout also stops the checker
        # processes the CLI tests start.
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True)
        try:
            return proc.wait(timeout=TIMEOUT_S) == 0
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return False
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def main() -> int:
    paths = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "src").rglob("*.py"))
    sources = {path: (ROOT / path).read_text() for path in paths}
    mutants = [(path, i, site) for path in paths
               for i, site in enumerate(sites(sources[path]))]
    started = time.monotonic()
    # Every pytest run inherits the limit.
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))
    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        if not run_suite(Path(workdir), {p: mutate(s, -1) for p, s in sources.items()}):
            print("the suite fails on the unmutated rewrite; no mutant run", file=sys.stderr)
            return 2

        def survives(mutant) -> bool:
            path, i, site = mutant
            alive = run_suite(Path(workdir), {path: mutate(sources[path], i)})
            print(f"{path}:{site.line}:{site.column}: {site.change}: "
                  f"{'SURVIVED' if alive else 'killed'}",
                  file=sys.stderr, flush=True)
            return alive

        with ThreadPoolExecutor(WORKERS) as pool:
            alive = list(pool.map(survives, mutants))

    survivors = [m for m, a in zip(mutants, alive) if a]
    for path, _, site in survivors:
        print(f"survivor: {path}:{site.line}:{site.column}: {site.change}")
    print(f"{len(mutants)} mutants, {len(survivors)} survived, "
          f"{time.monotonic() - started:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
