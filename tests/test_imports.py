"""Module-level imports only: every dependency between library modules
shows at the top of a file, so an import cycle cannot hide inside a
function body (charpoly, for one, must not reach back into reparam)."""

import ast
import importlib.util
import sys
from dataclasses import replace
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
    """The list loop that the coefficients, the Jacobian, the rational
    fallback's M over Z and the tests' list-built M' read is the oracle of
    the packed verdict kernel, so neither may compute the other: the loop
    names no part of the kernel and no other class of the module, and no
    method of `_VerdictKernel` names the loop or keeps a graph to run it
    on. The kernel's parts are derived from what its methods name: its
    methods, charpoly's module-level definitions and the attributes of
    `exact`, so a new helper of the kernel is guarded as soon as the
    kernel calls it."""
    tree = parsed("charpoly.py")
    functions = {"_power_rows", "_coefficients", "newton_coefficients"}
    nodes = [n for n in definitions(tree) if n.name in functions]
    assert {n.name for n in nodes} == functions
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_VerdictKernel"]
    methods = [n for n in cls.body if isinstance(n, ast.FunctionDef)]
    assert {"__init__", "packed", "pivots", "_columns"} <= {n.name for n in methods}
    defined = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for n in tree.body if isinstance(n, ast.Assign) for t in n.targets if isinstance(t, ast.Name)}
    from_exact = {
        a.attr
        for a in ast.walk(cls)
        if isinstance(a, ast.Attribute) and isinstance(a.value, ast.Name) and a.value.id == "exact"
    }
    kernel = (referenced(cls) & defined) | from_exact | {n.name for n in methods}
    kernel |= {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
    assert {"_verdict_params", "slot_width", "fold_masks", "_pivots_mod_p"} <= kernel
    assert [(n.name, sorted(referenced(n) & kernel)) for n in nodes if referenced(n) & kernel] == []
    kept = {a.attr for a in ast.walk(cls) if isinstance(a, ast.Attribute)}
    assert "graph" not in kept and "params" in kept
    assert [(n.name, sorted(referenced(n) & functions)) for n in methods if referenced(n) & functions] == []


def test_markov_oracle_stands_apart_from_the_library():
    """`TestMarkovParameterOracle` in tests/test_charpoly.py is a second
    computation of every census verdict, from another matrix, so the
    builder of its J_h, `markov_jacobian`, runs its own scalar recurrences
    as lists: it names no definition of `charpoly` or `exact` (no
    `_power_rows`, no `_VerdictKernel` or method of it, no packed
    arithmetic) and no library module."""
    source = (Path(__file__).resolve().parent / "test_charpoly.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "TestMarkovParameterOracle"]
    (builder,) = [n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "markov_jacobian"]
    library = {"compident", "cp", *(path.stem for path in PACKAGE.glob("*.py"))}
    for name in ("charpoly.py", "exact.py"):
        library |= {n.name for n in definitions(parsed(name))} | set(module_constants()[name])
    assert {"_power_rows", "_VerdictKernel", "packed", "pivots", "_columns", "_pivots_mod_p", "slot_width"} <= library
    assert sorted(referenced(builder) & library) == []


CACHE_DECORATORS = {"cache", "lru_cache"}


def cache_bound(decorator: ast.expr, constants: dict[str, object]):
    """The maxsize a `functools.cache` or `lru_cache` decorator sets, as a
    literal or a module-level constant: None for `cache`, for a bare
    `lru_cache` (whose default bound no line states) and for any maxsize
    that is not an int. Not a cache decorator: False."""
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    if name not in CACHE_DECORATORS:
        return False
    if call is None or name == "cache":
        return None
    args = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1]
    if not args:
        return None
    value = constants.get(args[0].id) if isinstance(args[0], ast.Name) else getattr(args[0], "value", None)
    return value if type(value) is int else None


def module_constants() -> dict[str, dict[str, object]]:
    """Per library file, its module-level constants by name: its own
    assignments of a literal, and the names it imports from a sibling
    module that assigns them there."""
    trees = {path.name: parsed(path.name) for path in sorted(PACKAGE.glob("*.py"))}
    own = {
        name: {
            t.id: n.value.value
            for n in tree.body
            if isinstance(n, ast.Assign) and isinstance(n.value, ast.Constant)
            for t in n.targets
            if isinstance(t, ast.Name)
        }
        for name, tree in trees.items()
    }
    constants = {}
    for name, tree in trees.items():
        constants[name] = dict(own[name])
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                source = own.get(f"{node.module}.py", {})
                constants[name].update(
                    {a.asname or a.name: source[a.name] for a in node.names if a.name in source}
                )
    return constants


def test_every_cache_is_bounded():
    """A cache with no bound keeps every key it was ever asked for, for the
    life of the process (41 seeds of one census row once kept 41 rows).
    Every `cache` or `lru_cache` in the library states an int maxsize,
    literally or by a constant of its module or one it imports from a
    sibling, or decorates a function of no parameters, which has one entry
    at most; `census` has none. The two per-graph memos of
    `reparametrize`'s tree-independent half share one named bound."""
    unbounded, decorated, bounds = [], [], {}
    constants_of = module_constants()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parsed(path.name)
        constants = constants_of[path.name]
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                bound = cache_bound(decorator, constants)
                if bound is False:
                    continue
                decorated.append((path.name, node.name))
                bounds[node.name] = ast.unparse(decorator)
                a = node.args
                if bound is None and (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg):
                    unbounded.append(f"{path.name}:{node.name}")
    required = {"build_parser", "fold_masks", "_sampled_dimension", "_cycle_candidates"}
    required |= {"_verdict_record", "_point_pool"}
    assert required <= {name for _file, name in decorated}
    assert unbounded == []
    memo = "lru_cache(maxsize=GRAPH_MEMO_SIZE)"
    per_graph = ("_verdict_record", "_sampled_dimension", "_cycle_candidates")
    assert [bounds[name] for name in per_graph] == [memo] * 3
    assert bounds["_point_pool"] == "lru_cache(maxsize=32)"  # the 32 pools README names
    assert constants_of["reparam.py"]["GRAPH_MEMO_SIZE"] == 8
    # A census row lives only as long as its caller holds it: no row cache.
    assert [name for file, name in decorated if file == "census.py"] == []


def test_cache_bound_reads_the_decorator():
    constants = {"ROWS": 8, "NAME": "x"}
    for source, bound in [
        ("@lru_cache(maxsize=32)", 32),
        ("@functools.lru_cache(16)", 16),
        ("@lru_cache(maxsize=ROWS)", 8),
        ("@lru_cache(maxsize=None)", None),
        ("@lru_cache(maxsize=NAME)", None),
        ("@lru_cache()", None),
        ("@lru_cache", None),
        ("@functools.cache", None),
        ("@cache", None),
        ("@property", False),
    ]:
        (decorator,) = ast.parse(f"{source}\ndef f(a):\n    pass\n").body[0].decorator_list
        assert cache_bound(decorator, constants) == bound, source


def load_tool(name: str):
    """The module tools/<name>.py, which is no package."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LINE_COUNT_FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts

# a comment alone does not


class Shape:
    """Class docstring."""

    def area(self):
        """Method docstring
        on two lines."""
        text = """a string that is no docstring
# and a line inside it that looks like a comment"""
        return len(text)


def f():
    "One-line docstring."
    x = 1
    "a bare string after the first statement counts"
    return x
'''


def test_line_counts_rule():
    """`tools/line_counts.py`: a code line is not blank, not a comment
    alone, and not inside a module, class or function docstring. Of the
    fixture's 24 lines, 10 are code: the import, `class`, `def area`, the
    two lines of `text` (a # inside a string is text), `return len(text)`,
    `def f`, `x = 1`, the bare string after it, which is no docstring, and
    `return x`. 6 are docstring lines: the module's two, the class's one,
    the method's two and f's one."""
    counts = load_tool("line_counts").counts
    assert counts(LINE_COUNT_FIXTURE) == (24, 10, 6)
    assert counts("") == (0, 0, 0)
    assert counts('"""Only a docstring."""\n\n# and a comment\n') == (3, 0, 1)


MUTATE_FIXTURE = """def f(x, y):
    if x < y and x is not None:
        x += 2 * y
    return x << 1 & 7 ** 2 % 3 // True


class K:
    def g(self, a):
        return a in (1,) or a - 4 ^ 5 != 0


def h(z):
    return -z if z < 0 else z
"""


def test_mutate_operators():
    """`tools/mutate.py`: one mutant per comparison operator (swapped with
    its boundary or negated twin), per arithmetic or bitwise operator of
    an expression or augmented assignment, per boolean operator chain
    (and and or swapped) and per operand of that chain (dropped), per
    int constant (+1, a bool left alone), and two per guard of an `if`, a
    `while` or a conditional expression whose test is no such chain (the
    test made True, then False), in source order and within the scope;
    each changes that token, drops that operand or forces that test,
    alone."""
    mutants = load_tool("mutate").mutants
    found = mutants(MUTATE_FIXTURE)
    assert [text.split(" in `")[0] for text, _source in found] == [
        "line 2: and -> or", "line 2: drop `x < y`", "line 2: drop `x is not None`",
        "line 2: < -> <=", "line 2: is not -> is",
        "line 3: + -> -", "line 3: * -> +", "line 3: 2 -> 3",
        "line 4: & -> |", "line 4: << -> >>", "line 4: 1 -> 2", "line 4: // -> *",
        "line 4: % -> //", "line 4: ** -> *", "line 4: 7 -> 8", "line 4: 2 -> 3", "line 4: 3 -> 4",
        "line 9: or -> and", "line 9: drop `a in (1,)`", "line 9: drop `a - 4 ^ 5 != 0`", "line 9: in -> not in", "line 9: 1 -> 2", "line 9: != -> ==", "line 9: ^ -> &",
        "line 9: - -> +", "line 9: 4 -> 5", "line 9: 5 -> 6", "line 9: 0 -> 1",
        "line 13: `z < 0` -> True", "line 13: `z < 0` -> False", "line 13: < -> <=", "line 13: 0 -> 1",
    ]
    assert found[0][0] == "line 2: and -> or in `x < y and x is not None`"
    assert found[0][1].splitlines()[1] == "    if x < y or x is not None:"
    unchanged = ast.unparse(ast.parse(MUTATE_FIXTURE))
    for text, source in found:
        changed = [
            (a, b) for a, b in zip(unchanged.splitlines(), source.splitlines()) if a != b
        ]
        assert len(changed) == 1, text
    assert dict(found)["line 3: + -> - in `x += 2 * y`"].splitlines()[2] == "        x -= 2 * y"
    assert dict(found)["line 2: drop `x < y` in `x < y and x is not None`"].splitlines()[1] == (
        "    if x is not None:"
    )
    assert dict(found)["line 13: `z < 0` -> False in `-z if z < 0 else z`"].splitlines()[-1] == (
        "    return -z if False else z"
    )
    assert [text for text, _source in mutants(MUTATE_FIXTURE, "K.g")] == [
        text for text, _source in found[-15:-4]
    ]
    chain = [source.splitlines()[1] for _text, source in mutants("def h(a, b, c):\n    return a and b and c\n")]
    assert chain == [
        "    return a or b or c", "    return b and c", "    return a and c", "    return a and b",
    ]
    with pytest.raises(ValueError, match="no definition named 'K.h'"):
        mutants(MUTATE_FIXTURE, "K.h")


def test_equivalent_mutants_file():
    """`tools/mutate.py`'s known equivalents: a mutant's key is its
    innermost top-level definition or method, decorators included, the
    operator, numbered #2, #3 .. when it recurs on one line of one scope,
    and the line's text. The loader skips comments and blank lines, reads
    four tab-separated fields and refuses a short line or a repeated key,
    and reads tools/equivalent_mutants.tsv. Whether each entry still names
    a mutant is the run's check (it prints the stale ones): here it would
    kill every mutant of a listed line."""
    mutate = load_tool("mutate")
    source = "@cache(8)\ndef h(a):\n    return a + 1 + 1\n\n\nclass K:\n    def g(self, a):\n        return a - 4\n\n\nX = 2\n"
    assert mutate.mutant_keys(source, "mod") == [
        ("mod.h", "8 -> 9", "@cache(8)"),
        ("mod.h", "+ -> -", "return a + 1 + 1"), ("mod.h", "+ -> - #2", "return a + 1 + 1"),
        ("mod.h", "1 -> 2", "return a + 1 + 1"), ("mod.h", "1 -> 2 #2", "return a + 1 + 1"),
        ("mod.K.g", "- -> +", "return a - 4"), ("mod.K.g", "4 -> 5", "return a - 4"),
        ("mod", "2 -> 3", "X = 2"),
    ]
    assert len(mutate.mutant_keys(source, "mod", "K.g")) == 2
    row = "mod.h\t1 -> 2 #2\treturn a + 1 + 1\tthe reason"
    assert mutate.load_equivalents(f"# a comment\n\n{row}\n") == {
        ("mod.h", "1 -> 2 #2", "return a + 1 + 1"): "the reason"
    }
    for text in ("mod.h\t1 -> 2\treturn a + 1 + 1\n", f"{row}\n{row}\n", "mod.h\t\treturn a\tr\n"):
        with pytest.raises(ValueError, match="line [12]:"):
            mutate.load_equivalents(text)
    assert mutate.load_equivalents(mutate.EQUIVALENTS.read_text(encoding="utf-8"))


def test_fuzz_generator_and_oracles(capsys, monkeypatch):
    """`tools/fuzz.py`: the first graphs of seed 0 are pinned; every graph
    drawn is strongly connected with 6 <= n <= 12 and n <= m <= 2n - 2;
    twenty graphs pass every check; and a check that fails stops the run
    with the seed and the graph: a unimodular inverse, the kernel's rank
    at the first point, the resultant there, d against the walk bound, d
    after a deletion, and the verdict on an over-full supergraph. The
    resultant is 0 where det(sI - A_1) divides det(sI - A)."""
    fuzz = load_tool("fuzz")
    assert [(g.n, g.edges) for g in map(fuzz.random_graph, range(3))] == [
        (12, ((1, 2), (1, 5), (2, 11), (3, 12), (4, 3), (4, 7), (4, 12), (5, 6), (5, 9),
              (6, 1), (6, 10), (7, 1), (7, 3), (8, 4), (9, 8), (10, 11), (11, 8), (12, 8))),
        (7, ((1, 3), (2, 5), (3, 5), (3, 6), (4, 7), (5, 4), (5, 6), (6, 1), (6, 2), (7, 1), (7, 6))),
        (12, ((1, 7), (2, 12), (3, 5), (4, 10), (5, 9), (6, 3), (7, 4), (8, 11), (9, 8), (10, 2),
              (11, 1), (12, 6))),
    ]
    for seed in range(300):
        g = fuzz.random_graph(seed)
        assert 6 <= g.n <= 12 and g.n <= g.m <= 2 * g.n - 2, seed
        assert compident.is_strongly_connected(g) and len(set(g.edges)) == g.m, seed
    assert fuzz.main(["--seed", "0", "--count", "20"]) == 0
    assert "20 graphs from seed 0, 11 with the expected dimension: no failure" in capsys.readouterr().out
    monkeypatch.setattr(fuzz, "unimodular_columns", lambda block: ([], []))
    assert fuzz.main(["--seed", "0", "--count", "20"]) == 1
    head, graph = capsys.readouterr().out.splitlines()
    assert head == "FAILED at seed 1: unimodular_columns differs from the reference under the default tree"
    assert graph == fuzz.random_graph(1).to_json()
    monkeypatch.undo()

    drawn = fuzz.random_graph(0)  # n = 12, m = 18, d = 18
    apart = compident.CompartmentGraph(3, ((2, 3), (3, 2)))  # vertex 1 apart: det(sI - A) = (s - a11) det(sI - A_1)
    assert fuzz.resultant_mod_p(apart, [1, 2, 3, 4, 5]) == 0 < fuzz.resultant_mod_p(drawn, next(fuzz._verdict_points(drawn, 0, 1)))
    real_pivots, real_dimension = fuzz._VerdictKernel.pivots, fuzz.image_dimension
    faults = [
        (fuzz._VerdictKernel, "pivots", lambda kernel, values, most: real_pivots(kernel, values, most)[:-1],
         "the kernel's rank at the first point is 17, Bareiss over Z reads 18"),
        (fuzz, "resultant_mod_p", lambda graph, point: 0,
         "det(sI - A) and det(sI - A_1) share a factor mod p at the first point"),
        (fuzz, "walk_bound", lambda graph, tree: graph.n, "d = 18 lies outside [18, min(walk bound 12, m+1)]"),
        (fuzz, "image_dimension",
         lambda graph, **kw: real_dimension(graph, **kw) if graph == drawn else replace(real_dimension(graph, **kw), d=20),
         "d(G - e) = 20 exceeds d(G) = 18, G - e = "),
        (fuzz, "has_expected_dimension", lambda graph: True, "the over-full supergraph "),
    ]
    for owner, name, fault, message in faults:
        monkeypatch.setattr(owner, name, fault)
        assert fuzz.main(["--seed", "0", "--count", "1"]) == 1
        head, graph = capsys.readouterr().out.splitlines()
        assert head.startswith(f"FAILED at seed 0: {message}") and graph == drawn.to_json()
        monkeypatch.undo()
