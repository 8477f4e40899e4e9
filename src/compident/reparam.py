"""Monomial scaling reparametrizations.

When the coefficient map has its expected dimension m+1, setting the n-1
rate parameters of a spanning tree to 1 by rescaling the state variables
X_i = f_i(A) x_i (with f_1 = 1) produces an identifiable model whose
surviving entries are integer monomials in the original rates, expressible
as products of cycle monomials through the inverse of a unimodular block.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Optional, Sequence

from . import exact
from .charpoly import DimensionReport, image_dimension
from .errors import (
    BasisNotFound,
    Disconnected,
    InconsistentSystem,
    NoReparametrization,
    NotStronglyConnected,
    NotUnimodular,
    TooManyEdges,
)
from .exact import PRIME_MODE, rank_bareiss
from .graphs import (
    CompartmentGraph,
    Cycle,
    elementary_cycles,
    is_strongly_connected,
)
from .monomial import format_monomial, unit_vector


@dataclass(frozen=True)
class SpanningTree:
    """Edge indices (in graph edge order) of a spanning tree of the
    underlying undirected graph."""

    edge_indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edge_indices)


def spanning_tree(graph: CompartmentGraph) -> SpanningTree:
    """Deterministic spanning tree grown from vertex 1.

    Repeatedly scans the edge list in graph order, taking any edge (viewed
    as undirected) that joins a visited vertex to a new one. The scan order
    makes the result reproducible and matches the trees used in the worked
    fixtures.
    """
    visited = {1}
    chosen: list[int] = []
    while len(visited) < graph.n:
        grew = False
        for k, (j, i) in enumerate(graph.edges):
            if (j in visited) != (i in visited):
                visited.add(i if j in visited else j)
                chosen.append(k)
                grew = True
        if not grew:
            raise Disconnected("underlying undirected graph is not connected")
    return SpanningTree(tuple(sorted(chosen)))


def validate_tree(graph: CompartmentGraph, edges: Sequence[tuple[int, int]]) -> SpanningTree:
    """Turn explicit (source, target) pairs into a checked SpanningTree.

    n-1 distinct edges form a spanning tree of the underlying undirected
    graph exactly when they are acyclic, which union-find detects.
    """
    index = graph.edge_index()
    indices = []
    for e in edges:
        e = (int(e[0]), int(e[1]))
        if e not in index:
            raise ValueError(f"tree edge {e} is not an edge of the graph")
        indices.append(index[e])
    if len(set(indices)) != graph.n - 1:
        raise ValueError(f"a spanning tree needs {graph.n - 1} distinct edges")

    parent = list(range(graph.n + 1))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for k in indices:
        j, i = graph.edges[k]
        rj, ri = find(j), find(i)
        if rj == ri:
            raise ValueError("tree edges contain a cycle")
        parent[rj] = ri
    return SpanningTree(tuple(sorted(indices)))


def alternate_spanning_tree(
    graph: CompartmentGraph, first: SpanningTree
) -> Optional[SpanningTree]:
    """First spanning tree in lexicographic edge-subset order that differs
    from `first`, or None when the tree is unique."""
    want = graph.n - 1
    for subset in combinations(range(graph.m), want):
        if subset == first.edge_indices:
            continue
        try:
            return validate_tree(graph, [graph.edges[k] for k in subset])
        except ValueError:
            continue
    return None


def _tree_traversal(graph: CompartmentGraph, tree: SpanningTree):
    """Yield (child, parent, edge_index) walking the tree outward from 1."""
    adjacency: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, graph.n + 1)}
    for k in tree.edge_indices:
        j, i = graph.edges[k]
        adjacency[j].append((i, k))
        adjacency[i].append((j, k))
    seen = {1}
    queue = [1]
    order = []
    while queue:
        u = queue.pop(0)
        for w, k in adjacency[u]:
            if w not in seen:
                seen.add(w)
                order.append((w, u, k))
                queue.append(w)
    if len(seen) != graph.n:
        raise Disconnected("tree does not reach every vertex")
    return order


def scaling_exponents(graph: CompartmentGraph, tree: SpanningTree) -> list[tuple[int, ...]]:
    """Per-vertex monomial exponents of the scaling functions f_i.

    f_1 is the empty monomial. Walking a tree edge j -> i with parameter
    a_ij away from the root adds the edge's exponent when the child is the
    source j, and subtracts it when the child is the target i; this realizes
    the columns of the inverse of the tree block of the incidence matrix
    without inverting anything.
    """
    m = graph.m
    f: list[Optional[tuple[int, ...]]] = [None] * (graph.n + 1)
    f[1] = (0,) * m
    for child, parent, k in _tree_traversal(graph, tree):
        j, _i = graph.edges[k]
        step = unit_vector(m, k)
        if child == j:
            f[child] = tuple(a + b for a, b in zip(f[parent], step))
        else:
            f[child] = tuple(a - b for a, b in zip(f[parent], step))
    return [f[v] for v in range(1, graph.n + 1)]


def rescaled_exponent_matrix(
    graph: CompartmentGraph, f_exponents: Sequence[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Exponent vector of each rescaled rate a_ij * f_i / f_j, one row per
    edge; spanning-tree rows come out identically zero."""
    rows = []
    for k, (j, i) in enumerate(graph.edges):
        base = unit_vector(graph.m, k)
        row = tuple(
            b + fi - fj
            for b, fi, fj in zip(base, f_exponents[i - 1], f_exponents[j - 1])
        )
        rows.append(row)
    return rows


@dataclass(frozen=True)
class CycleBasis:
    """m-n+1 independent cycles whose non-tree block is unimodular, with
    the inverse of that block."""

    cycles: tuple[Cycle, ...]
    matrix: tuple[tuple[int, ...], ...]  # m rows (edges), one column per cycle
    nontree_rows: tuple[int, ...]
    block_inverse: tuple[tuple[int, ...], ...]


def _unimodular_basis(
    cycles: Sequence[Cycle], m: int, nontree: tuple[int, ...]
) -> CycleBasis:
    """The basis of `cycles`; raises NotUnimodular unless its non-tree
    block has determinant +-1."""
    matrix = tuple(tuple(c.exponent_vector[r] for c in cycles) for r in range(m))
    inverse = exact.inverse_unimodular([matrix[r] for r in nontree])
    return CycleBasis(tuple(cycles), matrix, nontree, tuple(map(tuple, inverse)))


def cycle_basis(graph: CompartmentGraph, tree: SpanningTree) -> CycleBasis:
    """Select independent cycles suitable for expressing the rescaling.

    Greedy scan in canonical cycle order (shortest first) keeps a cycle when
    it raises the rational rank. If the block on non-tree edges happens not
    to be unimodular for this tree, every subset of the right size is tried
    in order until one has determinant +-1; a unimodular choice exists for
    every strongly connected graph, but nothing singles one out. The one
    elimination that inverts the block also decides unimodularity.
    """
    if not is_strongly_connected(graph):
        raise NotStronglyConnected("cycle basis requires a strongly connected graph")
    need = graph.m - graph.n + 1
    nontree = tuple(k for k in range(graph.m) if k not in set(tree.edge_indices))
    candidates = [c for c in elementary_cycles(graph) if c.length >= 2]

    chosen: list[Cycle] = []
    vectors: list[tuple[int, ...]] = []
    for c in candidates:
        if len(chosen) == need:
            break
        trial = vectors + [c.exponent_vector]
        if rank_bareiss(trial) == len(trial):
            chosen.append(c)
            vectors.append(c.exponent_vector)
    if len(chosen) < need:
        raise BasisNotFound(
            f"found only {len(chosen)} independent cycles, need {need}"
        )

    for subset in chain([chosen], combinations(candidates, need)):
        try:
            return _unimodular_basis(subset, graph.m, nontree)
        except NotUnimodular:
            continue
    raise InconsistentSystem(
        "no cycle basis with a unimodular non-tree block exists for this tree"
    )


def express_in_cycles(
    graph: CompartmentGraph,
    tree: SpanningTree,
    basis: CycleBasis,
    rescaled_rows: Optional[Sequence[tuple[int, ...]]] = None,
) -> dict[int, tuple[int, ...]]:
    """Write each non-tree rescaled rate as an integer combination of basis
    cycles: the basis's inverse non-tree block applied to the row, verified
    against the full system including the tree rows."""
    if rescaled_rows is None:
        rescaled_rows = rescaled_exponent_matrix(graph, scaling_exponents(graph, tree))
    solutions = exact.solve_with_block_inverse(
        basis.matrix,
        basis.block_inverse,
        [rescaled_rows[k] for k in basis.nontree_rows],
        basis.nontree_rows,
    )
    return {k: tuple(z) for k, z in zip(basis.nontree_rows, solutions)}


@dataclass(frozen=True)
class ScalingReparametrization:
    """A complete monomial rescaling certificate for a graph."""

    graph: CompartmentGraph
    tree: SpanningTree
    f_exponents: tuple[tuple[int, ...], ...]
    rescaled_exponents: tuple[tuple[int, ...], ...]
    basis: CycleBasis
    cycle_expressions: dict[int, tuple[int, ...]]
    report: Optional[DimensionReport] = None

    def edge_monomial(self, k: int) -> str:
        names = [self.graph.edge_param_name(e) for e in range(self.graph.m)]
        return format_monomial(names, self.rescaled_exponents[k])

    def f_monomial(self, vertex: int) -> str:
        names = [self.graph.edge_param_name(e) for e in range(self.graph.m)]
        return format_monomial(names, self.f_exponents[vertex - 1])

    def matrix_strings(self) -> list[list[str]]:
        """The reparametrized system matrix with entries as monomial strings."""
        n = self.graph.n
        index = self.graph.edge_index()
        grid = [["0"] * n for _ in range(n)]
        for v in range(1, n + 1):
            grid[v - 1][v - 1] = f"a{v}{v}"
        for (j, i), k in index.items():
            grid[i - 1][j - 1] = self.edge_monomial(k)
        return grid

    def to_json_dict(self) -> dict:
        qnames = [f"q{t + 1}" for t in range(len(self.basis.cycles))]
        expressions = [
            {
                "edge": list(self.graph.edges[k]),
                "in_cycles": format_monomial(qnames, z),
            }
            for k, z in self.cycle_expressions.items()
        ]
        return {
            "tree_edges": [list(self.graph.edges[k]) for k in self.tree.edge_indices],
            "f": [
                {"vertex": v, "monomial": self.f_monomial(v)}
                for v in range(1, self.graph.n + 1)
            ],
            "matrix": self.matrix_strings(),
            "cycle_basis": [c.monomial for c in self.basis.cycles],
            "expressions": expressions,
        }


def reparametrize(
    graph: CompartmentGraph,
    trials: int = 2,
    seed: int = 0,
    mode: str = PRIME_MODE,
    tree_edges: Optional[Sequence[tuple[int, int]]] = None,
) -> ScalingReparametrization:
    """Construct an identifiable monomial scaling reparametrization.

    Raises NoReparametrization (carrying the dimension report) when the
    image dimension falls short of m+1, and TooManyEdges when m > 2n-2 rules
    one out up front.
    """
    if not is_strongly_connected(graph):
        raise NotStronglyConnected(
            "reparametrization requires a strongly connected graph"
        )
    if graph.m > 2 * graph.n - 2:
        raise TooManyEdges(
            f"m={graph.m} exceeds 2n-2={2 * graph.n - 2}; "
            "no identifiable scaling reparametrization exists"
        )
    report = image_dimension(graph, trials=trials, seed=seed, mode=mode)
    if not report.verdict:
        raise NoReparametrization(report)

    tree = spanning_tree(graph) if tree_edges is None else validate_tree(graph, tree_edges)
    f_exponents = scaling_exponents(graph, tree)
    rescaled = rescaled_exponent_matrix(graph, f_exponents)
    basis = cycle_basis(graph, tree)
    expressions = express_in_cycles(graph, tree, basis, rescaled)
    result = ScalingReparametrization(
        graph=graph,
        tree=tree,
        f_exponents=tuple(f_exponents),
        rescaled_exponents=tuple(rescaled),
        basis=basis,
        cycle_expressions=expressions,
        report=report,
    )
    failures = reparametrization_failures(graph, result)
    if failures:
        raise InconsistentSystem(f"verification failed: {', '.join(failures)}")
    return result


def reparametrization_failures(
    graph: CompartmentGraph, result: ScalingReparametrization
) -> list[str]:
    """Names of the verification checks that fail (empty list when sound).

    scaling-support: f_1 = 1 and every f_i is a monomial in tree rates.
    tree-rows: every tree entry is rescaled to 1.
    cycle-expressions: each non-tree row is its stated combination of the
    basis cycles.
    rescaled-rows: every rescaled entry is exactly a_ij * f_i / f_j, so the
    new matrix is D A D^-1 with D = diag(f). All checks are exact and
    deterministic.
    """
    failures = []
    tree_set = set(result.tree.edge_indices)
    m = graph.m

    if any(e != 0 for e in result.f_exponents[0]):
        failures.append("scaling-support")
    else:
        off_tree = [k for k in range(m) if k not in tree_set]
        for f in result.f_exponents:
            if any(f[k] != 0 for k in off_tree):
                failures.append("scaling-support")
                break

    if any(any(result.rescaled_exponents[k]) for k in tree_set):
        failures.append("tree-rows")

    for k in range(m):
        if k in tree_set:
            continue
        z = result.cycle_expressions.get(k)
        if z is None or tuple(exact.matvec_int(result.basis.matrix, z)) != tuple(
            result.rescaled_exponents[k]
        ):
            failures.append("cycle-expressions")
            break

    if [tuple(row) for row in result.rescaled_exponents] != rescaled_exponent_matrix(
        graph, result.f_exponents
    ):
        failures.append("rescaled-rows")
    return failures


def verify_reparametrization(
    graph: CompartmentGraph,
    result: ScalingReparametrization,
    seed: int = 0,
) -> bool:
    """True iff all verification checks pass. Verification is exact and
    deterministic; `seed` is accepted for compatibility and ignored."""
    return not reparametrization_failures(graph, result)


def reparametrization_from_json(
    graph: CompartmentGraph, doc: dict
) -> ScalingReparametrization:
    """Rebuild a reparametrization from its JSON form for re-verification."""
    from .monomial import parse_monomial

    tree = validate_tree(graph, [tuple(e) for e in doc["tree_edges"]])
    edge_names = [graph.edge_param_name(k) for k in range(graph.m)]
    f_by_vertex = {entry["vertex"]: entry["monomial"] for entry in doc["f"]}
    f_exponents = tuple(
        parse_monomial(edge_names, f_by_vertex[v]) for v in range(1, graph.n + 1)
    )
    rescaled = []
    for k, (j, i) in enumerate(graph.edges):
        rescaled.append(parse_monomial(edge_names, doc["matrix"][i - 1][j - 1]))
    by_monomial = {c.monomial: c for c in elementary_cycles(graph)}
    cycles = tuple(by_monomial[text] for text in doc["cycle_basis"])
    nontree = tuple(k for k in range(graph.m) if k not in set(tree.edge_indices))
    basis = _unimodular_basis(cycles, graph.m, nontree)
    qnames = [f"q{t + 1}" for t in range(len(cycles))]
    index = graph.edge_index()
    expressions = {
        index[tuple(entry["edge"])]: parse_monomial(qnames, entry["in_cycles"])
        for entry in doc["expressions"]
    }
    return ScalingReparametrization(
        graph=graph,
        tree=tree,
        f_exponents=f_exponents,
        rescaled_exponents=tuple(rescaled),
        basis=basis,
        cycle_expressions=expressions,
    )
