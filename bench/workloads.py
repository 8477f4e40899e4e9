"""The benchmark's three workloads: inputs, one timed pass, and checks.

Every workload is run the same way: set up (a fresh import of compident
plus inputs generated from the workload seed), one timed pass of
operations, then a check of every output against ``reference.json``
outside the timed span. All load comes from this one process, one
operation at a time.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

LIB_MODULES = ("census", "graphs", "charpoly", "exact", "reparam", "monomial", "cli")

# census-cold: the paper's table rows, in prime mode.
CENSUS_ROWS = ((4, 6), (5, 7), (5, 8))

# reparam-sweep: graphs with the expected dimension drawn from a fixed pool
# of labeled strongly connected graphs, each run with two spanning trees.
REPARAM_ROWS = ((5, 7), (5, 8))
REPARAM_SAMPLE_PER_ROW = 50

# single-graph: the CLI on two families of growing size.
FAMILY_SIZES = {"bidirected_path": range(6, 11), "isc_adversary": range(6, 10)}
CLI_COMMANDS = (
    ("analyze", "--json"),
    ("analyze", "--json", "--exact"),
    ("reparam", "--json"),
)


def load_library():
    """Import compident afresh, so no cache or table survives a previous pass."""
    for key in [k for k in sys.modules if k == "compident" or k.startswith("compident.")]:
        del sys.modules[key]
    gc.collect()
    importlib.import_module("compident")
    return SimpleNamespace(**{name: importlib.import_module(f"compident.{name}") for name in LIB_MODULES})


def timed(fn, *args, **kwargs):
    """(result, start_ns, end_ns); an exception is returned as the result."""
    start = time.perf_counter_ns()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # a failed operation is counted, not fatal
        result = exc
        traceback.print_exc(file=sys.stderr)
    return result, start, time.perf_counter_ns()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def graph_from_mask(lib, n: int, mask: int):
    """The labeled graph whose edges are the set bits of `mask` over the
    candidate edges in enumeration order."""
    pool = lib.census.all_possible_edges(n)
    return lib.graphs.CompartmentGraph(n, tuple(e for b, e in enumerate(pool) if mask >> b & 1))


def bidirected_path(n: int) -> dict:
    edges = []
    for v in range(1, n):
        edges += [[v, v + 1], [v + 1, v]]
    return {"n": n, "edges": edges}


def isc_adversary(n: int) -> dict:
    """Complete bidirected K_{n-2} with a directed 3-cycle hung off vertex
    n-2: strongly connected, never inductively so, and m > 2n-2."""
    k = n - 2
    edges = [[a, b] for a in range(1, k + 1) for b in range(1, k + 1) if a != b]
    edges += [[k, k + 1], [k + 1, k + 2], [k + 2, k]]
    return {"n": n, "edges": edges}


FAMILIES = {"bidirected_path": bidirected_path, "isc_adversary": isc_adversary}


def cli_queries(seed: int) -> list[tuple[str, list[str], str]]:
    """(reference key, argv, stdin text) for every single-graph query."""
    queries = []
    for family, sizes in FAMILY_SIZES.items():
        for n in sizes:
            text = json.dumps(FAMILIES[family](n))
            for command in CLI_COMMANDS:
                key = f"{family}/{n}/{' '.join(command)}"
                argv = [command[0], "-", *command[1:], "--seed", str(seed)]
                queries.append((key, argv, text))
    return queries


def run_cli(lib, argv: list[str], text: str) -> tuple[int, str]:
    """cli.main in-process, with the graph on stdin and stdout captured."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = lib.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def cli_stdout_key(text: str, seed: int) -> str:
    """Digest of stdout with the echoed --seed value written as 0, the
    seed the reference was recorded at."""
    return digest(text.replace(f'"seed": {seed},', '"seed": 0,'))


@dataclass
class Setup:
    inputs: list  # one entry per operation of a pass
    sizes: dict
    attempted: int = 0  # operations run during set-up
    failed: int = 0


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable  # (lib, seed, ref) -> Setup
    operation: Callable  # (lib, seed, item) -> result
    check: Callable  # (lib, seed, ref, item, result) -> bool
    label: Optional[Callable] = None  # item -> name in the per-operation report


# census-cold -------------------------------------------------------------


def census_setup(lib, seed, ref):
    return Setup(inputs=list(CENSUS_ROWS), sizes={"rows": [list(r) for r in CENSUS_ROWS]})


def census_operation(lib, seed, row):
    return lib.census.census_row(*row, seed=seed)


def census_check(lib, seed, ref, row, result):
    want = ref["census"][f"{row[0]},{row[1]}"]
    got = [result.A, result.B, result.C, result.D, result.E, result.F]
    return got == want


# reparam-sweep -----------------------------------------------------------


def reparam_setup(lib, seed, ref):
    """Draw graphs from the pool in seeded order, compute their verdicts,
    and keep the first REPARAM_SAMPLE_PER_ROW with the expected dimension
    per row, each with its default and its alternate spanning tree."""
    rng = random.Random(seed)
    setup = Setup(inputs=[], sizes={})
    for n, m in REPARAM_ROWS:
        pool = [e for e in ref["reparam"]["pool"] if (e["n"], e["m"]) == (n, m)]
        rng.shuffle(pool)
        taken = 0
        for entry in pool:
            if taken == REPARAM_SAMPLE_PER_ROW:
                break
            graph = graph_from_mask(lib, n, entry["mask"])
            setup.attempted += 1
            verdict = timed(lib.charpoly.has_expected_dimension, graph, seed=seed)[0]
            if verdict is not entry["expected"]:
                setup.failed += 1
                continue
            if not verdict:
                continue
            default = lib.reparam.spanning_tree(graph)
            alternate = lib.reparam.alternate_spanning_tree(graph, default)
            tree = [graph.edges[k] for k in alternate.edge_indices]
            setup.inputs.append((graph, None, entry["digests"][0]))
            setup.inputs.append((graph, tree, entry["digests"][1]))
            taken += 1
    setup.sizes = {
        "rows": [list(r) for r in REPARAM_ROWS],
        "graphs": len(setup.inputs) // 2,
        "operations": len(setup.inputs),
        "pool": len(ref["reparam"]["pool"]),
    }
    return setup


def reparam_operation(lib, seed, item):
    graph, tree, _ = item
    return lib.reparam.reparametrize(graph, seed=seed, tree_edges=tree)


def reparam_check(lib, seed, ref, item, result):
    graph, _, want = item
    return (
        lib.reparam.verify_reparametrization(graph, result, seed=seed)
        and digest(json.dumps(result.to_json_dict())) == want
    )


# single-graph ------------------------------------------------------------


def single_setup(lib, seed, ref):
    queries = cli_queries(seed)
    sizes = {
        "families": {f: [s.start, s.stop - 1] for f, s in FAMILY_SIZES.items()},
        "commands": [" ".join(c) for c in CLI_COMMANDS],
        "operations": len(queries),
    }
    return Setup(inputs=queries, sizes=sizes)


def single_operation(lib, seed, item):
    _, argv, text = item
    return run_cli(lib, argv, text)


def single_check(lib, seed, ref, item, result):
    key = item[0]
    code, text = result
    want = ref["single"][key]
    return code == want["exit"] and cli_stdout_key(text, seed) == want["stdout"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census-cold",
            "census_row for the paper's rows (4,6), (5,7), (5,8) from a fresh "
            "import: enumeration, grouping, Jacobian and rank layers",
            census_setup,
            census_operation,
            census_check,
            lambda row: f"census_row{row}",
        ),
        Workload(
            "reparam-sweep",
            "reparametrize on sampled (5,7)/(5,8) graphs with the expected "
            "dimension, two trees each: tree, cycle basis, lattice solve, verify",
            reparam_setup,
            reparam_operation,
            reparam_check,
        ),
        Workload(
            "single-graph",
            "CLI analyze, analyze --exact and reparam on bidirected paths and "
            "the ISC adversary as n grows: canonical form, ISC search, Bareiss",
            single_setup,
            single_operation,
            single_check,
            lambda item: item[0],
        ),
    )
}
