"""Monomial scaling reparametrizations and identifiable cycle functions.

When the coefficient map has its expected dimension m+1, setting the n-1
rate parameters of a spanning tree to 1 by rescaling the state variables
X_i = f_i(A) x_i (with f_1 = 1) produces an identifiable model whose
surviving entries are integer monomials in the original rates, expressible
as products of cycle monomials through the inverse of a unimodular block.
Only the tree-independent half of a reparametrization, the dimension
report and the candidate cycles, is kept between calls, for the last
GRAPH_MEMO_SIZE graphs; everything that depends on the tree is computed
per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations
from operator import add, index, sub
from typing import Optional, Sequence

from . import exact
from .charpoly import GRAPH_MEMO_SIZE, DimensionReport, _sampled_dimension, _verdict_ceiling
from .errors import (
    InconsistentSystem,
    MalformedInput,
    NoReparametrization,
    NotExpectedDimension,
    NotSquare,
    NotUnimodular,
    TooManyEdges,
)
from .exact import PRIME_MODE
from .graphs import (
    CompartmentGraph,
    Cycle,
    SpanningTree,
    _long_cycles,
    _nontree_edges,
    _require_strongly_connected,
    spanning_tree,
    tree_walk,
)
from .monomial import format_monomial, name_order, parse_monomial, render_monomial


def validate_tree(graph: CompartmentGraph, edges: Sequence[tuple[int, int]]) -> SpanningTree:
    """Turn explicit (source, target) pairs into a checked SpanningTree
    (`_checked_walk`); an entry that is not a pair raises ValueError."""
    return _tree_of_pairs(graph, graph.edge_index(), edges)


def _tree_of_pairs(graph: CompartmentGraph, positions: dict, edges: Sequence) -> SpanningTree:
    """`validate_tree` through `positions`, the graph's `edge_index()`,
    which `reparametrization_from_json` shares with its expression edges."""
    indices = []
    for e in edges:
        if len(e) != 2:
            raise ValueError(f"tree edge {e} is not a (source, target) pair")
        e = (index(e[0]), index(e[1]))
        if e not in positions:
            raise ValueError(f"tree edge {e} is not an edge of the graph")
        indices.append(positions[e])
    _checked_walk(graph, indices)
    return SpanningTree(tuple(sorted(indices)))


def _checked_walk(graph: CompartmentGraph, indices: Sequence[int]) -> list[tuple[int, int, int]]:
    """`tree_walk` over edge indices that must form a spanning tree; a
    wrong edge count, an index outside range(m) or edges that contain a
    cycle raise ValueError. `tree_walk` raises nothing; this check of its
    length is the one that refuses.

    n-1 distinct edges form a spanning tree of the underlying undirected
    graph exactly when they reach every vertex from 1, which is when they
    are acyclic; a repeated edge counts as a cycle.
    """
    if len(set(indices)) != graph.n - 1:
        raise ValueError(f"a spanning tree needs {graph.n - 1} distinct edges")
    if not all(0 <= k < graph.m for k in indices):
        raise ValueError(f"tree edge indices must lie in range({graph.m})")
    walk = tree_walk(graph, indices)
    if len(walk) != len(indices):  # not every vertex reached, or an edge repeated
        raise ValueError("tree edges contain a cycle")
    return walk


def alternate_spanning_tree(
    graph: CompartmentGraph, first: SpanningTree
) -> Optional[SpanningTree]:
    """First spanning tree in lexicographic edge-subset order that differs
    from `first`, or None when the tree is unique.

    Each subset holds n-1 distinct indices in range(m), so the walk over
    it reaching every vertex is the whole of `_checked_walk`'s test.
    """
    for subset in combinations(range(graph.m), graph.n - 1):
        if subset != first.edge_indices and len(tree_walk(graph, subset)) == len(subset):
            return SpanningTree(subset)
    return None


def scaling_exponents(graph: CompartmentGraph, tree: SpanningTree) -> list[tuple[int, ...]]:
    """Per-vertex monomial exponents of the scaling functions f_i.

    f_1 is the empty monomial. Walking a tree edge j -> i with parameter
    a_ij away from the root adds the edge's exponent when the child is the
    source j, and subtracts it when the child is the target i; this realizes
    the columns of the inverse of the tree block of the incidence matrix
    without inverting anything. A `tree` that is no spanning tree of the
    graph raises ValueError (`_checked_walk`).
    """
    f: list[Optional[tuple[int, ...]]] = [None] * (graph.n + 1)
    f[1] = (0,) * graph.m
    for child, parent, k in _checked_walk(graph, tree.edge_indices):
        j, _i = graph.edges[k]
        expo = list(f[parent])
        expo[k] += 1 if child == j else -1
        f[child] = tuple(expo)
    return [f[v] for v in range(1, graph.n + 1)]


def rescaled_exponent_matrix(
    graph: CompartmentGraph, f_exponents: Sequence[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Exponent vector of each rescaled rate a_ij * f_i / f_j, one row per
    edge; spanning-tree rows come out identically zero."""
    rows = []
    for k, (j, i) in enumerate(graph.edges):
        row = list(map(sub, f_exponents[i - 1], f_exponents[j - 1]))
        row[k] += 1
        rows.append(tuple(row))
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
    """The basis of the first cycles of `cycles` independent on the
    non-tree edges; raises NotUnimodular unless there are len(nontree) of
    them and their non-tree block has determinant +-1."""
    pivots, inverse = exact.unimodular_columns(
        [[c.exponent_vector[r] for c in cycles] for r in nontree]
    )
    chosen = tuple(cycles[t] for t in pivots)
    matrix = tuple(zip(*(c.exponent_vector for c in chosen))) if chosen else ((),) * m
    return CycleBasis(chosen, matrix, nontree, tuple(map(tuple, inverse)))


def cycle_basis(graph: CompartmentGraph, tree: SpanningTree) -> CycleBasis:
    """Select independent cycles suitable for expressing the rescaling.

    A cycle vector is fixed by its non-tree entries, so the greedy basis in
    canonical cycle order (shortest first), each cycle kept when it raises
    the rank, is the pivot columns of one fraction-free Gauss-Jordan pass
    over the candidates' non-tree block, and the same pass decides
    unimodularity and inverts the chosen block. If that block is not
    unimodular for this tree, every subset of the right size is tried in
    order until one has determinant +-1; a unimodular choice exists for
    every strongly connected graph, but nothing singles one out. A `tree`
    that is no spanning tree of the graph raises ValueError
    (`_checked_walk`) before any search.
    """
    _require_strongly_connected(graph, "cycle basis requires a strongly connected graph")
    _checked_walk(graph, tree.edge_indices)
    return _cycle_basis(graph, tree)


def _cycle_basis(graph: CompartmentGraph, tree: SpanningTree) -> CycleBasis:
    """`cycle_basis` of a graph already known to be strongly connected,
    and of a tree already known to span it."""
    need = graph.m - graph.n + 1
    nontree = _nontree_edges(graph, tree)
    candidates = _cycle_candidates(graph)
    for subset in chain([candidates], combinations(candidates, need)):
        try:
            return _unimodular_basis(subset, graph.m, nontree)
        except NotUnimodular:
            continue
    raise InconsistentSystem(
        "no cycle basis with a unimodular non-tree block exists for this tree"
    )


@lru_cache(maxsize=GRAPH_MEMO_SIZE)
def _cycle_candidates(graph: CompartmentGraph) -> tuple[Cycle, ...]:
    """The elementary cycles of length >= 2 in canonical order, from which
    `_cycle_basis` picks under every spanning tree: no tree enters the
    search, so the candidates of the last GRAPH_MEMO_SIZE graphs are kept,
    as a tuple of frozen cycles that every caller shares."""
    return tuple(_long_cycles(graph))


def express_in_cycles(basis: CycleBasis) -> dict[int, tuple[int, ...]]:
    """Write each non-tree rescaled rate as an integer combination of basis
    cycles.

    The rescaled row of non-tree edge k = nontree_rows[t] is an integer cycle
    vector that reads e_t on the non-tree edges, since every f_i lives on
    the tree. A cycle vector is fixed by its non-tree entries, so the
    combination is column t of the inverse non-tree block;
    `reparametrization_failures` checks it against every row.
    """
    return dict(zip(basis.nontree_rows, zip(*basis.block_inverse)))


def identifiable_cycle_functions(
    graph: CompartmentGraph,
    trials: int = 2,
    seed: int = 0,
    mode: str = PRIME_MODE,
) -> list[Cycle]:
    """m+1 algebraically independent identifiable cycle monomials.

    The n diagonal one-cycles plus the m-n+1 basis cycles of the default
    reparametrization. Only defined for graphs with the expected dimension.
    """
    try:
        basis = reparametrize(graph, trials=trials, seed=seed, mode=mode).basis
    except (TooManyEdges, NoReparametrization) as exc:
        raise NotExpectedDimension(
            "graph does not have the expected dimension; no independent "
            "identifiable cycle set of size m+1 exists"
        ) from exc
    one_cycles = [Cycle((v,), (0,) * graph.m, graph.rate_name(v, v)) for v in range(1, graph.n + 1)]
    return one_cycles + list(basis.cycles)


def _matrix_grid(graph: CompartmentGraph, cells: Sequence[str]) -> list[list[str]]:
    """The n x n matrix of a reparametrization document: a_ii on the
    diagonal, `cells[k]` at edge k = (j, i)'s entry, row i and column j,
    and "0" off the edges."""
    n = graph.n
    grid = [[graph.rate_name(i, i) if i == j else "0" for j in range(1, n + 1)] for i in range(1, n + 1)]
    for (j, i), text in zip(graph.edges, cells):
        grid[i - 1][j - 1] = text
    return grid


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

    @cached_property
    def edge_order(self) -> list[tuple[int, str]]:
        """The m edge rate names in `name_order`, built and sorted once per
        result."""
        return name_order([self.graph.edge_param_name(e) for e in range(self.graph.m)])

    def matrix_strings(self) -> list[list[str]]:
        """The reparametrized system matrix with entries as monomial strings."""
        cells = [render_monomial(self.edge_order, self.rescaled_exponents[k]) for k in range(self.graph.m)]
        return _matrix_grid(self.graph, cells)

    def to_json_dict(self) -> dict:
        qorder = name_order([f"q{t + 1}" for t in range(len(self.basis.cycles))])
        expressions = [
            {
                "edge": list(self.graph.edges[k]),
                "in_cycles": render_monomial(qorder, z),
            }
            for k, z in self.cycle_expressions.items()
        ]
        return {
            "tree_edges": [list(self.graph.edges[k]) for k in self.tree.edge_indices],
            "f": [
                {"vertex": v, "monomial": render_monomial(self.edge_order, self.f_exponents[v - 1])}
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
    one out up front. The verdict preamble `charpoly._verdict_ceiling`
    runs first, once per call, so a bad argument, then a graph that is not
    strongly connected, raises before the edge bound. It picks the
    default spanning tree, once per call: the dimension report
    (`image_dimension`'s columns, with the preamble's ceiling) and the
    cycle basis reuse it.
    Neither the report nor the cycle candidates depend on the requested
    tree, so both come from their memos (`_sampled_dimension`,
    `_cycle_candidates`) when the graph was reparametrized recently, under
    any tree; the tree, scaling exponents, rescaled rows, basis and
    verification are computed on every call.
    """
    refusal = "reparametrization requires a strongly connected graph"
    trials, seed, default, ceiling = _verdict_ceiling(graph, trials, seed, mode, refusal)
    if graph.m > 2 * graph.n - 2:
        raise TooManyEdges(
            f"m={graph.m} exceeds 2n-2={2 * graph.n - 2}; "
            "no identifiable scaling reparametrization exists"
        )
    report = _sampled_dimension(graph, default, ceiling, trials, seed, mode)
    if not report.verdict:
        raise NoReparametrization(report)

    tree = default if tree_edges is None else validate_tree(graph, tree_edges)
    f_exponents = scaling_exponents(graph, tree)
    rescaled = rescaled_exponent_matrix(graph, f_exponents)
    basis = _cycle_basis(graph, tree)
    expressions = express_in_cycles(basis)
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
    cycle-expressions: the expressions are keyed by exactly the non-tree
    edges, each has one entry per basis cycle, and each non-tree row is its
    stated combination of the basis cycles. The basis matrix's columns are
    read once per call, and a combination z adds z[t] times column t for
    the nonzero z[t] only (`_combination`): m additions per nonzero, not a
    product with the whole matrix per expression.
    rescaled-rows: every rescaled entry is exactly a_ij * f_i / f_j, so the
    new matrix is D A D^-1 with D = diag(f). All checks are exact and
    deterministic.
    """
    failures = []
    off_tree = _nontree_edges(graph, result.tree)

    if any(e != 0 for e in result.f_exponents[0]):
        failures.append("scaling-support")
    else:
        for f in result.f_exponents:
            if any(map(f.__getitem__, off_tree)):
                failures.append("scaling-support")
                break

    if any(any(result.rescaled_exponents[k]) for k in result.tree.edge_indices):
        failures.append("tree-rows")

    basis = result.basis
    width = len(basis.cycles)
    columns = None if any(len(row) != width for row in basis.matrix) else list(zip(*basis.matrix))
    expressions = result.cycle_expressions
    if set(expressions) != set(off_tree) or any(
        len(z) != width
        or _combination(columns, len(basis.matrix), z) != tuple(result.rescaled_exponents[k])
        for k, z in expressions.items()
    ):
        failures.append("cycle-expressions")

    if [tuple(row) for row in result.rescaled_exponents] != rescaled_exponent_matrix(
        graph, result.f_exponents
    ):
        failures.append("rescaled-rows")
    return failures


def _combination(columns: Optional[list], m: int, z: Sequence[int]) -> tuple[int, ...]:
    """The m entries of the basis matrix times z, summed over the nonzero
    z[t] as z[t] times column t. `columns` is None when a row of the matrix
    has another length than z, which raises ValueError, as
    `exact.matvec_int` does."""
    if columns is None:
        raise ValueError("rows and vector of different lengths")
    total = (0,) * m
    for x, column in zip(z, columns):
        if x:
            total = tuple(map(add, total, map(x.__mul__, column)))
    return total


def verify_reparametrization(
    graph: CompartmentGraph,
    result: ScalingReparametrization,
    seed: int = 0,
) -> bool:
    """True iff all verification checks pass. Verification is exact and
    deterministic; `seed` is accepted for compatibility and ignored."""
    return not reparametrization_failures(graph, result)


def _cycle_from_monomial(graph: CompartmentGraph, edge_names: Sequence[str], text: str) -> Cycle:
    """The directed cycle whose edges are the factors of `text`, followed
    from its smallest vertex; ValueError unless they form one cycle."""
    expo = parse_monomial(edge_names, text)
    succ = dict(graph.edges[k] for k, e in enumerate(expo) if e)
    vertices = [min(succ, default=0)]
    for _ in range(len(succ) - 1):
        vertices.append(succ.get(vertices[-1], 0))  # 0: no vertex, stuck
    simple = set(expo) <= {0, 1} and len(succ) == sum(expo) == len(set(vertices))
    if not simple or succ.get(vertices[-1]) != vertices[0]:
        raise ValueError(f"cycle basis entry {text!r} is not a directed cycle")
    return Cycle(tuple(vertices), expo, format_monomial(edge_names, expo))


def _pair(entry) -> tuple[int, int]:
    """A document's [source, target] entry as a pair of ints. An entry of
    another length raises MalformedInput; one that is not a sequence of
    ints raises TypeError, which the caller reports as MalformedInput."""
    pair = tuple(map(index, entry))
    if len(pair) != 2:
        raise MalformedInput(f"edge entry {entry!r} is not a [source, target] pair")
    return pair


def reparametrization_from_json(
    graph: CompartmentGraph, doc: dict
) -> ScalingReparametrization:
    """Rebuild a reparametrization from its JSON form for re-verification.

    The document is read first: a missing key, a tree or expression edge
    that is not a pair, f entries other than one per vertex 1..n, a matrix
    that is not n x n, a diagonal or non-edge cell other than the rate name
    or "0" that `matrix_strings` writes there, or a monomial that is not a
    string raises MalformedInput, as `graphs.parse_graph` does.
    """
    n = graph.n
    positions = graph.edge_index()
    try:
        tree = _tree_of_pairs(graph, positions, [_pair(e) for e in doc["tree_edges"]])
        f_by_vertex = {entry["vertex"]: entry["monomial"] for entry in doc["f"]}
        f_texts = [f_by_vertex[v] for v in range(1, n + 1)]
        matrix = [list(row) for row in doc["matrix"]]
        matrix_texts = [matrix[i - 1][j - 1] for j, i in graph.edges]
        basis_texts = list(doc["cycle_basis"])
        stated = [(_pair(entry["edge"]), entry["in_cycles"]) for entry in doc["expressions"]]
    except (KeyError, IndexError, TypeError) as exc:
        raise MalformedInput(f"not a reparametrization document ({type(exc).__name__}: {exc})") from exc
    texts = chain(f_texts, matrix_texts, basis_texts, (text for _edge, text in stated))
    if not all(isinstance(text, str) for text in texts):
        raise MalformedInput("every monomial of a reparametrization document must be a string")
    if len(doc["f"]) != n:  # every vertex 1..n has an entry: no repeat, no other vertex
        raise MalformedInput(f"f needs exactly one entry per vertex 1..{n}")
    if matrix != _matrix_grid(graph, matrix_texts):  # the cells `matrix_strings` fixes
        raise MalformedInput(f"the matrix needs {n} rows of {n} cells, a_ii on its diagonal, 0 off the edges")
    edge_names = [graph.edge_param_name(k) for k in range(graph.m)]
    f_exponents = tuple(parse_monomial(edge_names, text) for text in f_texts)
    rescaled = tuple(parse_monomial(edge_names, text) for text in matrix_texts)
    cycles = tuple(_cycle_from_monomial(graph, edge_names, text) for text in basis_texts)
    nontree = _nontree_edges(graph, tree)
    if len(cycles) != len(nontree):
        raise NotSquare(f"cycle basis needs {len(nontree)} cycles, got {len(cycles)}")
    basis = _unimodular_basis(cycles, graph.m, nontree)
    qnames = [f"q{t + 1}" for t in range(len(cycles))]
    expressions = {}
    for edge, text in stated:  # one per edge: a repeat would go unchecked
        k = positions.get(edge)
        if k is None or k in expressions:
            raise ValueError(f"expression edge {list(edge)} is repeated or not an edge of the graph")
        expressions[k] = parse_monomial(qnames, text)
    return ScalingReparametrization(
        graph=graph,
        tree=tree,
        f_exponents=f_exponents,
        rescaled_exponents=rescaled,
        basis=basis,
        cycle_expressions=expressions,
    )
