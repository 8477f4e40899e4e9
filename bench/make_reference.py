"""Record bench/reference.json, the outputs every benchmark run is checked
against, from the library as it stands.

    python3 bench/make_reference.py

Run from the repository root, only when outputs are meant to change. It
records census counts for the benchmarked rows (which must equal the
paper's table), the reparametrization pool with the digest of each
result's JSON form, and the digest and exit code of every single-graph
CLI query at --seed 0.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from workloads import (  # noqa: E402
    CENSUS_ROWS,
    REPARAM_ROWS,
    cli_queries,
    digest,
    graph_from_mask,
    load_library,
    run_cli,
)

# The census table of the paper for the benchmarked rows: A, B, C, D, E, F.
PAPER_TABLE = {
    (4, 6): [316, 166, 55, 34, 30, 26],
    (5, 7): [6440, 4052, 281, None, 180, None],
    (5, 8): [26875, 9565, 1158, 581, 421, 267],
}
POOL_SEED = 13055768
POOL_PER_ROW = 300


def census_reference(lib) -> dict:
    out = {}
    for n, m in CENSUS_ROWS:
        row = lib.census.census_row(n, m)
        counts = [row.A, row.B, row.C, row.D, row.E, row.F]
        if counts != PAPER_TABLE[(n, m)]:
            raise SystemExit(f"census row ({n},{m}) is {counts}, not the paper's table")
        out[f"{n},{m}"] = counts
    return out


def reparam_pool(lib) -> list[dict]:
    """POOL_PER_ROW distinct labeled strongly connected graphs per row, each
    with its verdict and, when expected, the digests of its default-tree and
    alternate-tree reparametrizations."""
    rng = random.Random(POOL_SEED)
    pool = []
    for n, m in REPARAM_ROWS:
        candidates = n * (n - 1)
        seen = set()
        while len(seen) < POOL_PER_ROW:
            mask = sum(1 << b for b in rng.sample(range(candidates), m))
            graph = graph_from_mask(lib, n, mask)
            if mask in seen or not lib.graphs.is_strongly_connected(graph):
                continue
            seen.add(mask)
            entry = {"n": n, "m": m, "mask": mask}
            entry["expected"] = lib.charpoly.has_expected_dimension(graph)
            if entry["expected"]:
                default = lib.reparam.spanning_tree(graph)
                alternate = lib.reparam.alternate_spanning_tree(graph, default)
                digests = []
                for tree in (None, [graph.edges[k] for k in alternate.edge_indices]):
                    result = lib.reparam.reparametrize(graph, tree_edges=tree)
                    if not lib.reparam.verify_reparametrization(graph, result):
                        raise SystemExit(f"unverified reparametrization of {graph.to_json()}")
                    digests.append(digest(json.dumps(result.to_json_dict())))
                entry["digests"] = digests
            pool.append(entry)
    return pool


def single_reference(lib) -> dict:
    out = {}
    for key, argv, text in cli_queries(seed=0):
        code, stdout = run_cli(lib, argv, text)
        out[key] = {"exit": code, "stdout": digest(stdout)}
    return out


def main() -> None:
    lib = load_library()
    doc = {
        "census": census_reference(lib),
        "reparam": {"pool_seed": POOL_SEED, "pool": reparam_pool(lib)},
        "single": single_reference(lib),
    }
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
