"""Module-level imports only: every dependency between library modules
shows at the top of a file, so an import cycle cannot hide inside a
function body (charpoly, for one, must not reach back into reparam)."""

import ast
import sys
from pathlib import Path

import pytest

import compident

PACKAGE = Path(compident.__file__).parent


#: The oldest Python that pyproject.toml's requires-python admits.
OLDEST_PYTHON = (3, 10)


def parsed(name: str) -> ast.Module:
    """The module's syntax tree, parsed with the grammar of OLDEST_PYTHON."""
    return ast.parse(
        (PACKAGE / name).read_text(encoding="utf-8"), feature_version=OLDEST_PYTHON
    )


def test_modules_parse_on_oldest_python():
    """Syntax newer than requires-python, such as 3.11's ``except*``, fails
    to parse here even when the suite runs on a newer Python."""
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'requires-python = ">=%d.%d"' % OLDEST_PYTHON in pyproject
    for path in sorted(PACKAGE.glob("*.py")):
        parsed(path.name)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST_PYTHON)


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


def absolute_imports():
    """"file:package" for the top-level package of every absolute import in
    the library."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parsed(path.name)):
            if isinstance(node, ast.Import):
                tops = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.partition(".")[0]]
            else:
                continue
            yield from (f"{path.name}:{top}" for top in tops)


def test_no_third_party_imports():
    """`dependencies = []` in pyproject.toml: the library imports only its
    own modules and the standard library."""
    found = [f for f in absolute_imports() if f.partition(":")[2] not in sys.stdlib_module_names]
    assert found == []


@pytest.mark.parametrize("package", ["fractions", "multiprocessing", "concurrent"])
def test_banned_import(package):
    """No library module imports these. The library takes and returns plain
    ints, so without `fractions` a Q-valued path cannot come back
    unnoticed. A census row forks its own children and shares one map with
    them, because a process pool costs memory before it runs anything:
    importing `concurrent.futures.process` raised a bare interpreter's max
    RSS from 13.1 to 15.6 MB, and `multiprocessing` alone to 14.1 MB
    (Python 3.11, Linux), against about 25 MB at the peak of a cold census
    of rows (4,6), (5,7) and (5,8)."""
    found = [f for f in absolute_imports() if f.endswith(f":{package}")]
    assert found == []


def test_charpoly_does_not_import_reparam():
    imported = set()
    for node in ast.walk(parsed("charpoly.py")):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module} if node.module else {a.name for a in node.names}
    assert "reparam" not in imported


# Paper-facing API that no library module or bench script calls.
PUBLIC_ONLY = {
    "property_suite",
    "non_isc_identifiable_classes",
    "identifiable_cycle_functions",
    "reparametrization_from_json",
}


def referenced(tree: ast.AST, strings: bool = False) -> set[str]:
    """Names and attribute names used in `tree`, and string constants too
    when `strings` is set (bench scripts name traced functions by string)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def definitions(tree: ast.Module):
    """Top-level defs and classes, and the non-dunder methods of each class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (
                item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            )


def test_every_library_function_has_a_caller():
    """Code whose only callers are tests belongs in the tests: every
    top-level def or class, and every non-dunder method, is used by the
    library, by `bench/`, or is listed in PUBLIC_ONLY."""
    modules = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    bench = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))
    assert "graphs.py" in modules and bench
    used = set(PUBLIC_ONLY)
    for name in modules:
        used |= referenced(parsed(name))
    for path in bench:
        used |= referenced(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    unused = [
        f"{name}:{node.name}"
        for name in modules
        for node in definitions(parsed(name))
        if node.name not in used
    ]
    assert unused == []


def test_list_powers_stand_apart_from_the_verdict_kernel():
    """The list loop that the coefficients, the Jacobian and the tests'
    list-built M' read is the oracle of the packed verdict kernel, so it
    must not be computed by that kernel, its slot widths, its elimination
    or any other class of the module."""
    tree = parsed("charpoly.py")
    functions = {"_power_rows", "_coefficients", "newton_coefficients"}
    nodes = [n for n in definitions(tree) if n.name in functions]
    assert {n.name for n in nodes} == functions
    kernel = {"_VerdictKernel", "packed", "_columns", "slot_width", "_pivots_mod_p"}
    kernel |= {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
    assert [(n.name, sorted(referenced(n) & kernel)) for n in nodes if referenced(n) & kernel] == []
