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
prints the known equivalents of the scope that name no mutant (stale),
one line per mutant, then the survivors: first the new ones, then the
known equivalents, each with its reason. It is slow (one test run per
mutant) and runs no mutant in parallel, so it is not part of the test
suite.

A known equivalent is a mutant that no test can kill because it computes
what the module computes, argued once in tools/equivalent_mutants.tsv.
Each line of that file holds four tab-separated fields: the mutant's scope
(module.function, module.Class or module.Class.method, the innermost
top-level definition or method holding the mutated line), its operator as
the run prints it (such as `0 -> 1` or `>= -> >`), the mutated line's
source text without its indentation, and a one-line reason. Blank lines
and lines that start with # are skipped.
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
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EQUIVALENTS = ROOT / "tools" / "equivalent_mutants.tsv"

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


def sites(source: str, tree: ast.Module, scope: str | None) -> list[tuple[ast.AST, int | None, str, str]]:
    """Every mutation site in the scope, in source order: (node, index of
    the operator in a comparison, of the dropped operand of a boolean chain,
    the constant that replaces a guard's test, or None, operator "old ->
    new", "drop `operand`" or "`test` -> True", description "line L:
    operator in `expression`"; code is cut to 60 characters)."""
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
        described.append((node, i, text, f"line {node.lineno}: {text} in `{segment(source, node)}`"))
    return described


def segment(source: str, node: ast.AST) -> str:
    """The source text of `node` on one line, cut to 60 characters."""
    text = " ".join(ast.get_source_segment(source, node).split())
    return text if len(text) <= 60 else text[:57] + "..."


def mutant_keys(source: str, module: str, scope: str | None = None) -> list[tuple[str, str, str]]:
    """(scope, operator, line) of every mutant of `source`, in the order of
    `mutants`: the innermost top-level definition or method holding the
    mutated line, its decorators included, as module.name or
    module.Class.method; the operator as the run prints it, numbered
    `#2`, `#3` .. when it recurs on one line of one scope; and the line's
    source text without its indentation."""
    tree = ast.parse(source)
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def span(node, name):
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        return first, node.end_lineno, name

    spans = []  # (first line, last line, scope); a method comes after its class
    for node in tree.body:
        if isinstance(node, definitions):
            spans.append(span(node, f"{module}.{node.name}"))
            if isinstance(node, ast.ClassDef):
                spans += [span(n, f"{module}.{node.name}.{n.name}") for n in node.body if isinstance(n, definitions)]
    lines = source.splitlines()
    seen = Counter()
    keys = []
    for node, _i, operator, _text in sites(source, tree, scope):
        owner = [name for first, last, name in spans if first <= node.lineno <= last]
        key = (owner[-1] if owner else module, operator, lines[node.lineno - 1].strip())
        seen[key] += 1
        keys.append(key if seen[key] == 1 else (key[0], f"{operator} #{seen[key]}", key[2]))
    return keys


def load_equivalents(text: str) -> dict[tuple[str, str, str], str]:
    """{(scope, operator, line): reason} of an equivalent-mutants file (the
    module docstring). A line that is not four nonempty tab-separated
    fields, or a key given twice, raises ValueError naming its line."""
    known = {}
    for number, row in enumerate(text.splitlines(), start=1):
        if not row.strip() or row.startswith("#"):
            continue
        fields = row.split("\t")
        if len(fields) != 4 or not all(f.strip() for f in fields):
            raise ValueError(f"line {number}: expected scope, operator, source line and reason, tab-separated")
        key = tuple(fields[:3])
        if key in known:
            raise ValueError(f"line {number}: {key} is listed twice")
        known[key] = fields[3]
    return known


def mutants(source: str, scope: str | None = None) -> list[tuple[str, str]]:
    """(description, mutated source) of every mutant of `source`: each site
    changed alone, the module rendered back by `ast.unparse`."""
    out = []
    for k in range(len(sites(source, ast.parse(source), scope))):
        tree = ast.parse(source)
        node, i, _operator, text = sites(source, tree, scope)[k]
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
    keys = mutant_keys(source, module.stem, args.scope)
    known = load_equivalents(EQUIVALENTS.read_text(encoding="utf-8"))
    prefix = module.stem if args.scope is None else f"{module.stem}.{args.scope}"
    for key in known:  # an entry of this scope that names no mutant: its line changed
        if (key[0] == prefix or key[0].startswith(prefix + ".")) and key not in keys:
            print(f"stale: {' | '.join(key)}")
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
        new, equivalent = [], []
        for k, ((text, mutated), key) in enumerate(zip(candidates, keys), start=1):
            (copy / module).write_text(mutated, encoding="utf-8")
            passed, seconds = run_tests(copy, args.tests, timeout)
            status = "SURVIVED" if passed else ("stopped" if seconds >= timeout else "killed")
            print(f"[{k}/{len(candidates)}] {module} {text}: {status} ({seconds:.1f} s)", flush=True)
            if passed and key in known:
                equivalent.append(f"[{k}] {module} {text}: {known[key]}")
            elif passed:
                new.append(f"[{k}] {module} {text}")
        print(f"{len(new) + len(equivalent)} of {len(candidates)} mutants survived: "
              f"{len(new)} new, {len(equivalent)} known equivalent")
        for text in new:
            print(f"  new: {text}")
        for text in equivalent:
            print(f"  equivalent: {text}")
        return 0
    finally:
        shutil.rmtree(workdir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
