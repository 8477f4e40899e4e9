"""Directed compartment graphs: structure, predicates, spanning trees, cycles, and surgery.

Vertices are labeled 1..n and vertex 1 is always the input-output
compartment. An edge (j, i) means material flows j -> i and carries the rate
parameter a_ij (target index first, matching the matrix convention). Every
vertex additionally carries an implicit diagonal parameter a_ii, so a graph
with n vertices and m edges has n+m model parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import permutations
from operator import index
from typing import Optional, Sequence

from .errors import Disconnected, InvalidEdge, MalformedInput, NoExchange, NotStronglyConnected
from .monomial import format_monomial

#: An ISC certificate is a vertex ordering starting at 1 whose every prefix
#: induces a strongly connected subgraph.
IscCertificate = tuple[int, ...]


@dataclass(frozen=True)
class CompartmentGraph:
    """A directed graph with a distinguished input-output vertex 1.

    `edges` is an ordered tuple of (source, target) pairs; the order fixes
    the column order of derived matrices and the parameter order.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        # n and every label through `operator.index`: a float or str raises
        # TypeError here, not deep in a verdict, and a bool becomes its int
        object.__setattr__(self, "n", index(self.n))
        if self.n < 1:
            raise InvalidEdge(f"vertex count must be positive, got {self.n}")
        object.__setattr__(self, "edges", tuple([(index(j), index(i)) for j, i in self.edges]))
        seen = set()
        for j, i in self.edges:
            if not (1 <= j <= self.n and 1 <= i <= self.n):
                raise InvalidEdge(f"edge ({j},{i}) out of range for n={self.n}")
            if j == i:
                raise InvalidEdge(f"self-loop at vertex {j}")
            if (j, i) in seen:
                raise InvalidEdge(f"duplicate edge ({j},{i})")
            seen.add((j, i))

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_subgraph(self, mask: int) -> CompartmentGraph:
        """The graph on the same n vertices with the edges that `mask`
        selects, edge k as bit m-1-k, kept in this graph's edge order.

        The subgraph skips `__post_init__`: a subset of a validated edge
        set cannot fail its range, self-loop or duplicate check, so the
        only check is that `mask` selects among these m edges. It takes
        one step per set bit, not per edge of this graph.
        """
        edges = self.edges
        if not 0 <= mask < 1 << len(edges):
            raise InvalidEdge(f"selection {mask:#x} lies outside the {len(edges)} edges")
        graph = object.__new__(CompartmentGraph)
        object.__setattr__(graph, "n", self.n)
        object.__setattr__(graph, "edges", tuple([edges[~b] for b in _set_bits(mask)]))
        return graph

    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: k for k, e in enumerate(self.edges)}

    def rate_name(self, i: int, j: int) -> str:
        """Name of the rate a_ij: ``a<i><j>`` up to n = 10, where no label
        starts with 0 and so the digits split one way only, and
        ``a<i>_<j>`` from n = 11 on, where ``a111`` could be a_1,11 or
        a_11,1."""
        return f"a{i}{j}" if self.n <= 10 else f"a{i}_{j}"

    def edge_param_name(self, k: int) -> str:
        """Parameter name of the k-th edge: edge (j, i) carries a_ij."""
        j, i = self.edges[k]
        return self.rate_name(i, j)

    def param_names(self) -> list[str]:
        """All n+m parameter names: diagonals first, then edges in order."""
        return [self.rate_name(v, v) for v in range(1, self.n + 1)] + [
            self.edge_param_name(k) for k in range(self.m)
        ]

    def as_dict(self) -> dict:
        """The graph JSON document that `parse_graph` reads."""
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


def parse_graph(text: str) -> CompartmentGraph:
    """Parse the graph JSON document ``{"n": int, "edges": [[j, i], ...]}``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise MalformedInput('expected an object with keys "n" and "edges"')
    n = doc["n"]
    edges = doc["edges"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise MalformedInput('"n" must be an integer')
    if not isinstance(edges, list):
        raise MalformedInput('"edges" must be a list of [source, target] pairs')
    pairs = []
    for e in edges:
        if (
            not isinstance(e, list)
            or len(e) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in e)
        ):
            raise MalformedInput(f"bad edge entry {e!r}")
        pairs.append((e[0], e[1]))
    return CompartmentGraph(n, tuple(pairs))


def _set_bits(mask: int) -> list[int]:
    """The set bits of a nonnegative `mask`, highest first."""
    bits = []
    while mask:
        b = mask.bit_length() - 1
        bits.append(b)
        mask ^= 1 << b
    return bits


def _adjacency(n: int, edges) -> tuple[list[int], list[int]]:
    """Per-vertex bitmasks of the edges on vertices 1..n: bit w of out[v]
    for an edge v -> w, bit u of inn[v] for an edge u -> v."""
    out = [0] * (n + 1)
    inn = [0] * (n + 1)
    for j, i in edges:
        out[j] |= 1 << i
        inn[i] |= 1 << j
    return out, inn


def _reach(adj: Sequence[int]) -> int:
    """Bitmask (bit v for vertex v) of the vertices vertex 1 reaches along
    the neighbour masks `adj`: take the lowest vertex of the frontier, add
    its unvisited neighbours to the visited set and the frontier."""
    seen = frontier = 2  # bit 1 set
    while frontier:
        low = frontier & -frontier
        new = adj[low.bit_length() - 1] & ~seen
        seen |= new
        frontier ^= low | new
    return seen


def _strongly_connected(out: Sequence[int], inn: Sequence[int]) -> bool:
    """True iff the adjacency masks `out`, `inn` of vertices 1..n (indexed
    0..n) are strongly connected: vertex 1 reaches every vertex along the
    edges and against them."""
    full = (1 << len(out)) - 2
    return _reach(out) == full and _reach(inn) == full


def is_strongly_connected(graph: CompartmentGraph) -> bool:
    """True iff every vertex is reachable from 1 and reaches 1."""
    return _strongly_connected(*_adjacency(graph.n, graph.edges))


def _distances(adj: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(`_reach(adj)`, the BFS distance of each vertex 0..n from vertex 1
    along the neighbour masks `adj`) by one level-synchronous walk: each
    level ORs the neighbour masks of its whole frontier, as it pops it, and
    the next frontier is what that adds. It makes the mask operations of
    `_reach` and records each vertex's level as it pops it; a vertex not
    reached, and the unused index 0, read 0."""
    dist = [0] * len(adj)
    seen = frontier = 2  # bit 1 set
    level = 0
    while frontier:
        new = 0
        while frontier:
            low = frontier & -frontier
            v = low.bit_length() - 1
            dist[v] = level
            new |= adj[v]
            frontier ^= low
        frontier = new & ~seen
        seen |= frontier
        level += 1
    return seen, tuple(dist)


def _require_strongly_connected(graph: CompartmentGraph, message: str) -> tuple[tuple, tuple]:
    """The walk (d(1, v), d(v, 1)), per vertex v, of `graph`, from its one
    pair of adjacency masks and one `_distances` walk along and one
    against the edges, which the verdict preamble reads the walk bound
    off (`charpoly._dimension_bound`); raises
    NotStronglyConnected(`message`) unless every vertex is reached both
    ways: the input-output equation, and so its image dimension,
    reparametrization and cycle basis, is defined only for such graphs."""
    out, inn = _adjacency(graph.n, graph.edges)
    (reached, down), (reaching, up) = _distances(out), _distances(inn)
    if reached & reaching != (1 << graph.n + 1) - 2:
        raise NotStronglyConnected(message)
    return down, up


def io_strong_component(graph: CompartmentGraph) -> CompartmentGraph:
    """Induced subgraph on the strongly connected component of vertex 1.

    Vertices are relabeled to 1..n' preserving relative order (vertex 1
    stays fixed); edge order is inherited from the input.
    """
    out, inn = _adjacency(graph.n, graph.edges)
    mask = _reach(out) & _reach(inn)
    comp = [v for v in range(1, graph.n + 1) if mask >> v & 1]
    if len(comp) == graph.n:
        return graph
    relabel = {v: k + 1 for k, v in enumerate(comp)}
    edges = tuple(
        (relabel[j], relabel[i]) for j, i in graph.edges if j in relabel and i in relabel
    )
    return CompartmentGraph(len(comp), edges)


def _exchange_mask(graph: CompartmentGraph) -> int:
    """Bit v set for each vertex v with both edges 1 -> v and v -> 1:
    `out[1] & inn[1]` on the `_adjacency` masks, the one definition of an
    exchange, which the census leaf reads off the masks it holds."""
    out, inn = _adjacency(graph.n, graph.edges)
    return out[1] & inn[1]


def exchange_vertices(graph: CompartmentGraph) -> list[int]:
    """All vertices forming a 2-cycle with vertex 1, in increasing order."""
    both = _exchange_mask(graph)
    return [v for v in range(2, graph.n + 1) if both >> v & 1]


def has_exchange(graph: CompartmentGraph) -> Optional[int]:
    """Smallest vertex i > 1 with both 1->i and i->1 present, if any."""
    both = _exchange_mask(graph)
    return (both & -both).bit_length() - 1 if both else None


def is_inductively_strongly_connected(
    graph: CompartmentGraph,
) -> Optional[IscCertificate]:
    """Search for a vertex ordering witnessing inductive strong connectivity:
    `_isc_order` on the graph's adjacency masks."""
    return _isc_order(*_adjacency(graph.n, graph.edges))


def _isc_order(out: Sequence[int], inn: Sequence[int]) -> Optional[IscCertificate]:
    """The lexicographically smallest ISC certificate of the adjacency
    masks `out`, `inn` of vertices 1..n (indexed 0..n), or None.

    Greedy extension: append the smallest vertex whose addition keeps the
    prefix strongly connected. If S (containing 1) is strongly connected,
    S + {v} is exactly when v has an edge from S and an edge to S, so each
    step is one bitmask test per remaining vertex and runs no connectivity
    walk. The test only gets easier as S grows, so the search never
    backtracks.
    """
    prefix = [1]
    inside = 2  # bit 1 set
    rest = list(range(2, len(out)))
    while rest:
        for v in rest:
            if inn[v] & inside and out[v] & inside:
                break
        else:
            return None
        prefix.append(v)
        inside |= 1 << v
        rest.remove(v)
    return tuple(prefix)


def collapse_exchange(
    graph: CompartmentGraph, at: Optional[int] = None
) -> CompartmentGraph:
    """Identify vertex 1 with an exchange partner.

    The merged vertex becomes the new vertex 1; remaining vertices are
    relabeled preserving relative order. Self-loops created by the merge are
    dropped and duplicate edges keep their first occurrence. By default the
    smallest exchange vertex is collapsed; `at` selects another one.
    """
    exchanges = exchange_vertices(graph)
    if at is None:
        if not exchanges:
            raise NoExchange("graph has no exchange")
        at = exchanges[0]
    elif at not in exchanges:
        raise NoExchange(f"no exchange at vertex {at}")

    def relabel(v: int) -> int:
        if v in (1, at):
            return 1
        return v - 1 if v > at else v

    edges = []
    seen = set()
    for j, i in graph.edges:
        e = (relabel(j), relabel(i))
        if e[0] == e[1] or e in seen:
            continue
        seen.add(e)
        edges.append(e)
    return CompartmentGraph(graph.n - 1, tuple(edges))


def add_exchange_vertex(graph: CompartmentGraph) -> CompartmentGraph:
    """Attach a fresh input-output vertex by a 2-cycle to the old vertex 1.

    Old vertex labels shift up by one; the exchange edges come first in the
    new edge order, so collapsing the new exchange recovers the original
    graph with its original edge order.
    """
    shifted = tuple((j + 1, i + 1) for j, i in graph.edges)
    return CompartmentGraph(graph.n + 1, ((1, 2), (2, 1)) + shifted)


@dataclass(frozen=True)
class SpanningTree:
    """Edge indices (in graph edge order) of a spanning tree of the
    underlying undirected graph."""

    edge_indices: tuple[int, ...]


def _nontree_edges(graph: CompartmentGraph, tree: SpanningTree) -> tuple[int, ...]:
    """Indices of the edges outside `tree`, ascending: the verdict
    matrix's edge columns and the rows of a cycle basis's unimodular
    block."""
    in_tree = set(tree.edge_indices)
    return tuple(k for k in range(graph.m) if k not in in_tree)


def tree_walk(graph: CompartmentGraph, edge_indices: Sequence[int]) -> list[tuple[int, int, int]]:
    """Grow a tree from vertex 1 through the given edges, viewed as undirected.

    Scans `edge_indices` in order, repeatedly, taking any edge that joins a
    reached vertex to a new one, until every vertex is reached or a scan
    reaches nothing new. Returns (child, parent, edge index) for each
    vertex reached but 1, in the order reached, and raises nothing: the
    walk is a spanning tree exactly when it has n-1 entries, and each
    caller decides what a shorter walk means.
    """
    reached = 2  # bit v for vertex v
    walk = []
    size = -1
    while size < len(walk) < graph.n - 1:  # the last scan grew, and some vertex is left
        size = len(walk)
        for k in edge_indices:
            j, i = graph.edges[k]
            if reached >> j & 1 != reached >> i & 1:
                child, parent = (i, j) if reached >> j & 1 else (j, i)
                reached |= 1 << child
                walk.append((child, parent, k))
    return walk


def spanning_tree(graph: CompartmentGraph) -> SpanningTree:
    """Deterministic spanning tree grown from vertex 1 by `tree_walk` over
    the whole edge list. The scan order makes the result reproducible and
    matches the trees used in the worked fixtures. Raises Disconnected,
    the only place that does, when the walk misses a vertex."""
    walk = tree_walk(graph, range(graph.m))
    if len(walk) < graph.n - 1:
        raise Disconnected("the edges do not connect every vertex to vertex 1")
    return SpanningTree(tuple(sorted(k for _child, _parent, k in walk)))


@dataclass(frozen=True)
class Cycle:
    """An elementary directed cycle, including the length-1 diagonal cycles.

    `vertices` lists the traversal order rotated so the smallest vertex
    leads; `exponent_vector` marks the traversed edges (all zero for a
    one-cycle, whose monomial is the diagonal parameter).
    """

    vertices: tuple[int, ...]
    exponent_vector: tuple[int, ...]
    monomial: str

    @property
    def length(self) -> int:
        return len(self.vertices)


CycleSet = list[Cycle]


def _make_cycle(
    graph: CompartmentGraph,
    vertices: tuple[int, ...],
    index: dict[tuple[int, int], int],
    names: Sequence[str],
) -> Cycle:
    """The cycle of length >= 2 through `vertices`, given the graph's
    `edge_index()` and its edge parameter names, built once per caller."""
    expo = [0] * graph.m
    edge_ids = [index[e] for e in zip(vertices, vertices[1:] + vertices[:1])]
    for e in edge_ids:
        expo[e] = 1
    picked = [names[e] for e in edge_ids]
    return Cycle(vertices, tuple(expo), format_monomial(picked, [1] * len(picked)))


def elementary_cycles(graph: CompartmentGraph) -> CycleSet:
    """All elementary directed cycles plus the n one-cycles.

    Order is deterministic: the one-cycles first, then `_long_cycles`.
    """
    zero = (0,) * graph.m
    return [Cycle((v,), zero, graph.rate_name(v, v)) for v in range(1, graph.n + 1)] + _long_cycles(graph)


def _long_cycles(graph: CompartmentGraph) -> CycleSet:
    """The elementary directed cycles of length >= 2, each reported once,
    rotated so its smallest vertex leads, ordered by length, then by
    lexicographic vertex sequence."""
    vertices = range(1, graph.n + 1)
    succ = [[w for w in vertices if mask >> w & 1] for mask in _adjacency(graph.n, graph.edges)[0]]
    found: list[tuple[int, ...]] = []

    def search(start: int, path: list[int], on_path: int):
        for w in succ[path[-1]]:
            if w == start:
                found.append(tuple(path))
            elif w > start and not on_path >> w & 1:
                path.append(w)
                search(start, path, on_path | 1 << w)
                path.pop()

    for s in vertices:
        search(s, [s], 1 << s)

    found.sort(key=lambda vs: (len(vs), vs))
    index = graph.edge_index()
    names = [graph.edge_param_name(k) for k in range(graph.m)]
    return [_make_cycle(graph, vs, index, names) for vs in found]


def canonical_form(graph: CompartmentGraph) -> bytes:
    """Canonical byte encoding, equal iff graphs agree up to relabeling 2..n:
    the lexicographically minimal sorted edge list over those relabelings.

    Brute-forces the (n-1)! permutations fixing vertex 1; fine for n <= 6.
    """
    others = list(range(2, graph.n + 1))
    relabelings = ({1: 1, **dict(zip(others, perm))} for perm in permutations(others))
    edges = min(sorted((p[j], p[i]) for j, i in graph.edges) for p in relabelings)
    body = ";".join(f"{j},{i}" for j, i in edges)
    return f"{graph.n}|{body}".encode("ascii")
