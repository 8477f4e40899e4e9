"""Module-level imports only: every dependency between library modules
shows at the top of a file, so an import cycle cannot hide inside a
function body (charpoly, for one, must not reach back into reparam)."""

import ast
from pathlib import Path

import compident

PACKAGE = Path(compident.__file__).parent


def parsed(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"))


def test_no_function_local_imports():
    names = sorted(path.name for path in PACKAGE.glob("*.py"))
    assert {"charpoly.py", "graphs.py", "reparam.py"} <= set(names)
    found = []
    for name in names:
        for node in ast.walk(parsed(name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [
                    f"{name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


def test_charpoly_does_not_import_reparam():
    imported = set()
    for node in ast.walk(parsed("charpoly.py")):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module} if node.module else {a.name for a in node.names}
    assert "reparam" not in imported
