"""Mutation run over one module of the compident package: which one-token
changes of the source do the named tests fail to notice?

Each mutant changes one operator or one integer constant of the module,
inside an optional scope. The operators:

- a comparison swapped: < and <=, > and >=, == and !=, is and is not,
  in and not in, each into the other;
- an arithmetic or bitwise operator swapped, in an expression or an
  augmented assignment: + and -, * into +, // into *, % into //, ** into *,
  << and >>, & and |, ^ into &;
- a boolean operator swapped: and and or, each into the other, one mutant
  per chain such as `a and b and c`;
- a condition dropped: a chain of k operands gets k more mutants, each
  without one of them, and a chain of two keeps the other operand alone;
- a guard forced: the test of an `if`, a `while` or a conditional
  expression that is not such a chain, a single comparison or call for
  instance, gets two mutants, the test replaced by True and by False, so
  a guard whose branch no test needs, or never skips, survives;
- an integer constant c made c + 1 (a bool is no integer here).

The run copies the repository into a new temporary directory, runs the
tests once on the copy unchanged, which must pass, then writes each mutant
over the module in the copy and runs the tests again with `pytest -x`. A
mutant that the tests pass survives. A run that takes ten times the
unchanged run (and at least 60 s) is stopped and counted as killed. Only
the copy is written, and it is removed at the end. Usage, from the
repository root:

    python tools/mutate.py MODULE [--scope NAME] -- TEST [TEST ...]

MODULE is a path such as src/compident/exact.py; --scope NAME limits the
mutants to one top-level function or class, or to Class.method; the tests
are pytest arguments, such as tests/test_exact.py or a node id. The script
prints one line per mutant, then the survivors. It is slow (one test run
per mutant) and runs no mutant in parallel, so it is not part of the
test suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COMPARE_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
GUARDS = (ast.If, ast.While, ast.IfExp)
OPERATOR_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitAnd,
    ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**",
    ast.LShift: "<<", ast.RShift: ">>", ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^",
    ast.And: "and", ast.Or: "or",
}


def scope_nodes(tree: ast.Module, scope: str | None) -> list[ast.AST]:
    """The nodes a scope names: the module, a top-level function or class,
    or a method as Class.method. An unknown scope raises ValueError."""
    if scope is None:
        return [tree]
    body = tree.body
    for part in scope.split("."):
        found = [
            n for n in body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and n.name == part
        ]
        if not found:
            raise ValueError(f"no definition named {scope!r}")
        body = found[0].body
    return found


def sites(source: str, tree: ast.Module, scope: str | None) -> list[tuple[ast.AST, int | None, str]]:
    """Every mutation site in the scope, in source order: (node, index of
    the operator in a comparison, of the dropped operand of a boolean chain,
    the constant that replaces a guard's test, or None, description
    "line L: old -> new in `expression`", "line L: drop `operand` in
    `expression`" or "line L: `test` -> True in `statement`", each cut to
    60 characters)."""
    out = []
    for root in scope_nodes(tree, scope):
        for node in ast.walk(root):
            if isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    new = COMPARE_SWAPS[type(op)]
                    out.append((node, i, f"{SYMBOLS[type(op)]} -> {SYMBOLS[new]}"))
            elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in OPERATOR_SWAPS:
                new = OPERATOR_SWAPS[type(node.op)]
                out.append((node, None, f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[new]}"))
                for j, operand in enumerate(getattr(node, "values", ())):  # a BoolOp's operands
                    out.append((node, j, f"drop `{segment(source, operand)}`"))
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                out.append((node, None, f"{node.value} -> {node.value + 1}"))
            elif isinstance(node, GUARDS) and not isinstance(node.test, ast.BoolOp):
                for value in (True, False):
                    out.append((node, value, f"`{segment(source, node.test)}` -> {value}"))
    # a chain's swap and drops stay ahead of its first operand's comparison
    out.sort(key=lambda site: (site[0].lineno, site[0].col_offset, isinstance(site[0], ast.Compare) and site[1]))
    described = []
    for node, i, text in out:
        described.append((node, i, f"line {node.lineno}: {text} in `{segment(source, node)}`"))
    return described


def segment(source: str, node: ast.AST) -> str:
    """The source text of `node` on one line, cut to 60 characters."""
    text = " ".join(ast.get_source_segment(source, node).split())
    return text if len(text) <= 60 else text[:57] + "..."


def mutants(source: str, scope: str | None = None) -> list[tuple[str, str]]:
    """(description, mutated source) of every mutant of `source`: each site
    changed alone, the module rendered back by `ast.unparse`."""
    out = []
    for k in range(len(sites(source, ast.parse(source), scope))):
        tree = ast.parse(source)
        node, i, text = sites(source, tree, scope)[k]
        if isinstance(node, ast.Compare):
            node.ops[i] = COMPARE_SWAPS[type(node.ops[i])]()
        elif isinstance(node, ast.Constant):
            node.value += 1
        elif isinstance(node, GUARDS):
            node.test = ast.Constant(i)
        elif i is not None:  # a BoolOp of one operand unparses as that operand
            del node.values[i]
        else:
            node.op = OPERATOR_SWAPS[type(node.op)]()
        out.append((text, ast.unparse(tree)))
    return out


def run_tests(copy: Path, tests: list[str], timeout: float | None) -> tuple[bool, float]:
    """(passed, seconds) of `pytest -x` on the copy; a run past `timeout`
    is stopped, its whole process group with it, and counts as failed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    with subprocess.Popen(
        command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    ) as process:
        try:
            code = process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            code = None
    return code == 0, time.perf_counter() - start


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="the module to mutate, e.g. src/compident/exact.py")
    parser.add_argument("--scope", help="a top-level function or class, or Class.method")
    parser.add_argument("tests", nargs="+", help="pytest arguments, after --")
    args = parser.parse_args(argv)
    module = Path(args.module).resolve().relative_to(ROOT)
    source = (ROOT / module).read_text(encoding="utf-8")
    candidates = mutants(source, args.scope)
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out")
    workdir = Path(tempfile.mkdtemp(prefix="compident-mutate-"))
    try:
        copy = workdir / "repo"
        shutil.copytree(ROOT, copy, ignore=ignore)
        passed, seconds = run_tests(copy, args.tests, timeout=None)
        if not passed:
            print("the tests fail on the unchanged copy; no mutant was run")
            return 1
        timeout = max(60.0, 10 * seconds)
        survivors = []
        for k, (text, mutated) in enumerate(candidates, start=1):
            (copy / module).write_text(mutated, encoding="utf-8")
            passed, seconds = run_tests(copy, args.tests, timeout)
            status = "SURVIVED" if passed else ("stopped" if seconds >= timeout else "killed")
            print(f"[{k}/{len(candidates)}] {module} {text}: {status} ({seconds:.1f} s)", flush=True)
            if passed:
                survivors.append(f"[{k}] {module} {text}")
        print(f"{len(survivors)} of {len(candidates)} mutants survived")
        for text in survivors:
            print(f"  {text}")
        return 0
    finally:
        shutil.rmtree(workdir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
