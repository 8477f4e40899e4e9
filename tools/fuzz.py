"""Fuzz the verdict and the reparametrization on random strongly connected
graphs past the census sizes.

Graph k of a run is drawn from its own seed, the run's --seed plus k: n
is drawn from 6..12 and m from n..2n-2, and the graph is built by a random
ear decomposition (a directed cycle, then directed paths through new
vertices between vertices already placed, then single edges), which
reaches every strongly connected graph. Each graph is checked these ways:

- at the verdict's first point (trial 0 of seed 0, from
  `charpoly._verdict_points`), the rank of the verdict matrix by the mod-p kernel
  (`charpoly._VerdictKernel`, stopped at no ceiling) equals its rank over
  Z by `reference_bareiss` on the rows `charpoly._power_rows` reads, a
  loop that shares no code with the kernel;
- at the same point, det(sI - A) and det(sI - A_1) are coprime mod p:
  their resultant, the determinant of their Sylvester matrix, is nonzero
  mod p. The walk bound's proof needs them coprime at generic points
  (the `charpoly` module docstring); `charpoly_mod_p` computes both
  polynomials by Faddeev-LeVerrier and `reference_bareiss` eliminates,
  sharing no code with the verdict path;
- the prime-field and the rational `image_dimension` give the same d
  (a rational d below the ceiling comes from Bareiss over Z, not from
  the prime-field kernel; at the ceiling the prime-field report is
  already exact and is reused);
- that d is at least the rank at the first point, and at most m+1 and
  the walk bound (the `charpoly` module docstring), which `walk_bound`
  computes with this script's own BFS, under a random spanning tree:
  the bound holds under every tree;
- for one random edge e whose removal keeps the graph strongly
  connected, d(G - e) <= d(G): at points where a_e = 0 the Jacobian of G
  is that of G - e with one more column, so no rank of G - e exceeds the
  generic rank of G;
- one over-full supergraph, m > 2n-2, drawn from the graph's seed by
  adding random missing edges, has no expected dimension by
  `has_expected_dimension`, and its d is at most the walk bound (under a
  random spanning tree), which is at most 2n-1, or 2n-2 with no exchange
  at vertex 1: past the edge bound the walk bound alone decides;
- when d = m+1, `reparametrize` under the default spanning tree and under
  a random spanning tree drawn from the graph's seed each pass
  `verify_reparametrization`, and so does each result rebuilt from its
  JSON document by `reparametrization_from_json`;
- `exact.unimodular_columns` on each basis's non-tree block, and the
  basis's own block inverse, agree with `reference_bareiss`, this
  script's own fraction-free Gauss-Jordan pass, which updates every row
  at every pivot.

On the first failure the script prints the graph, its seed and the failed
check, and exits with status 1. Usage, from the repository root:

    python tools/fuzz.py [--seed S] [--count N]

It uses the standard library and the package under src/ only, and is run
by hand, not as part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from compident import (  # noqa: E402  (the package is found through the line above)
    CompartmentGraph,
    has_expected_dimension,
    image_dimension,
    reparametrization_from_json,
    reparametrize,
    verify_reparametrization,
)
from compident.charpoly import _power_rows, _verdict_points, _VerdictKernel  # noqa: E402
from compident.exact import MERSENNE61, PRIME_MODE, RATIONAL_MODE, unimodular_columns  # noqa: E402
from compident.graphs import spanning_tree  # noqa: E402


def random_graph(seed: int) -> CompartmentGraph:
    """A strongly connected graph with 6 <= n <= 12 and n <= m <= 2n - 2,
    drawn by a random ear decomposition from `seed`."""
    rng = random.Random(seed)
    n = rng.randrange(6, 13)
    m = rng.randrange(n, 2 * n - 1)
    order = rng.sample(range(1, n + 1), n)
    ears = m - n  # each ear after the cycle adds one edge more than it adds vertices
    placed = order[: n if ears == 0 else rng.randrange(2, n + 1)]
    edges = set(zip(placed, placed[1:] + placed[:1]))
    while len(placed) < n:  # a directed path u -> new vertices -> v
        ears -= 1
        left = n - len(placed)
        inner = order[len(placed) : len(placed) + (left if ears == 0 else rng.randrange(1, left + 1))]
        path = [rng.choice(placed), *inner, rng.choice(placed)]
        edges.update(zip(path, path[1:]))
        placed += inner
    while len(edges) < m:  # single edges between placed vertices
        edges.add(tuple(rng.sample(placed, 2)))
    return CompartmentGraph(n, tuple(sorted(edges)))


def random_tree(graph: CompartmentGraph, rng: random.Random) -> list[tuple[int, int]]:
    """The edges of a random spanning tree of the graph's underlying
    undirected graph: the edges in random order, each kept when it joins
    two components (Kruskal with a union-find)."""
    parent = list(range(graph.n + 1))

    def root(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    tree = []
    for j, i in rng.sample(graph.edges, len(graph.edges)):
        a, b = root(j), root(i)
        if a != b:
            parent[a] = b
            tree.append((j, i))
    return tree


def distances(graph: CompartmentGraph, forward: bool) -> dict[int, int]:
    """BFS distances from vertex 1 along the edges (`forward`) or against
    them; a vertex missing from the result is not reached."""
    arcs = graph.edges if forward else [(i, j) for j, i in graph.edges]
    dist = {1: 0}
    frontier = [1]
    while frontier:
        reached = [i for j, i in arcs if j in frontier and i not in dist]
        dist.update((v, dist[frontier[0]] + 1) for v in reached)
        frontier = list(dict.fromkeys(reached))
    return dist


def strongly_connected(graph: CompartmentGraph) -> bool:
    """Whether vertex 1 reaches every vertex and every vertex reaches it."""
    return len(distances(graph, True)) == len(distances(graph, False)) == graph.n


def without(graph: CompartmentGraph, edge: tuple[int, int]) -> CompartmentGraph:
    """The graph less `edge`, the other edges in their order."""
    return CompartmentGraph(graph.n, tuple(e for e in graph.edges if e != edge))


def over_full(graph: CompartmentGraph, seed: int) -> CompartmentGraph:
    """A supergraph of `graph` with 2n-1 <= m <= n(n-1): the graph's edges
    and a random number of its missing edges, drawn from `seed`."""
    rng = random.Random(f"over-full {seed}")
    n = graph.n
    missing = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1) if i != j and (j, i) not in graph.edges]
    added = rng.sample(missing, rng.randrange(2 * n - 1 - graph.m, len(missing) + 1))
    return CompartmentGraph(n, tuple(sorted(graph.edges + tuple(added))))


def walk_bound(graph: CompartmentGraph, tree: list[tuple[int, int]]) -> int:
    """The walk bound under the spanning tree `tree`: L_p = d(1,v) + 1 +
    d(v,1) for each a_vv and d(1,j) + 1 + d(i,1) for each edge j -> i
    outside the tree, and the least over t = 1..2n of
    #{p : L_p < t} + 2n - t."""
    n = graph.n
    down, up = distances(graph, True), distances(graph, False)
    lengths = [down[v] + 1 + up[v] for v in range(1, n + 1)]
    lengths += [down[j] + 1 + up[i] for j, i in graph.edges if (j, i) not in tree]
    return min(sum(length < t for length in lengths) + 2 * n - t for t in range(1, 2 * n + 1))


def first_point_ranks(graph: CompartmentGraph, point: list[int]) -> tuple[int, int]:
    """(the kernel's rank of the verdict matrix M at the verdict's first
    point `point`, its rank over Z by `reference_bareiss`): M' by the
    kernel, plus its min(n, 2) identity rows, and M itself from
    `_power_rows`."""
    kernel = _VerdictKernel(graph, spanning_tree(graph))
    rows, sub_rows = _power_rows(graph, point, 0, kernel.params)
    exact_rank = len(reference_bareiss(rows + sub_rows)[0])
    return min(graph.n, 2) + len(kernel.pivots(point, kernel.nrows)), exact_rank


def charpoly_mod_p(matrix: list[list[int]]) -> list[int]:
    """The coefficients 1, c_1, .., c_k of det(sI - M) mod p, p = 2^61 - 1,
    by Faddeev-LeVerrier: B_1 = M, c_j = -tr(B_j) / j and
    B_(j+1) = M (B_j + c_j I)."""
    size = len(matrix)
    coeffs = [1]
    power = matrix
    for j in range(1, size + 1):
        c = -sum(power[r][r] for r in range(size)) * pow(j, -1, MERSENNE61) % MERSENNE61
        coeffs.append(c)
        shifted = [[x + c * (r == s) for s, x in enumerate(row)] for r, row in enumerate(power)]
        power = [[sum(a * b for a, b in zip(row, col)) % MERSENNE61 for col in zip(*shifted)] for row in matrix]
    return coeffs


def resultant_mod_p(graph: CompartmentGraph, point: list[int]) -> int:
    """The resultant of det(sI - A) and det(sI - A_1) at `point` mod p:
    the determinant of their Sylvester matrix, by `reference_bareiss` on
    its entries reduced mod p. A is filled from the point as the verdict
    reads it, a_vv first and then edge (j, i) at row i, column j."""
    n = graph.n
    a = [[0] * n for _ in range(n)]
    for v in range(n):
        a[v][v] = point[v] % MERSENNE61
    for (j, i), x in zip(graph.edges, point[n:]):
        a[i - 1][j - 1] = x % MERSENNE61
    f, g = charpoly_mod_p(a), charpoly_mod_p([row[1:] for row in a[1:]])
    size = len(f) + len(g) - 2
    sylvester = [[0] * r + f + [0] * (size - len(f) - r) for r in range(len(g) - 1)]
    sylvester += [[0] * r + g + [0] * (size - len(g) - r) for r in range(len(f) - 1)]
    pivots, det = reference_bareiss(sylvester)
    return det % MERSENNE61 if len(pivots) == size else 0


def reference_bareiss(mat: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination in place, every row other than
    the pivot's updated at every pivot: the pivot columns and the last
    pivot, negated once per row swap."""
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    pivots: list[int] = []
    prev = sign = 1
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        pivot = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            mat[rank], mat[pivot] = mat[pivot], mat[rank]
            sign = -sign
        prow = mat[rank]
        pv = prow[col]
        for r in range(nrows):
            if r != rank:
                row = mat[r]
                factor = row[col]
                for c in range(col + 1, ncols):
                    row[c] = (pv * row[c] - factor * prow[c]) // prev
                row[col] = 0
        prev = pv
        pivots.append(col)
    return pivots, sign * prev


def block_failure(block: list[list[int]], inverse) -> str | None:
    """What `unimodular_columns`, or a basis's `block_inverse`, gets wrong
    on a unimodular square block, by `reference_bareiss` on [block | I]:
    None when the pivots and both inverses agree with it."""
    size = len(block)
    aug = [list(row) + [int(c == r) for c in range(size)] for r, row in enumerate(block)]
    pivots, det = reference_bareiss(aug)
    if det not in (1, -1) or pivots != list(range(size)):
        return f"the reference finds pivots {pivots} and determinant {det}"
    last = aug[-1][size - 1] if aug else 1  # the last pivot, +-1 and unsigned
    expected = (pivots, [[last * x for x in row[size:]] for row in aug])
    if unimodular_columns(block) != expected:
        return "unimodular_columns differs from the reference"
    if [list(row) for row in inverse] != expected[1]:
        return "the basis's block inverse differs from the reference"
    return None


def check(graph: CompartmentGraph, seed: int) -> tuple[bool, str | None]:
    """(whether the graph has the expected dimension, the first failed
    check or None); `seed` draws the random spanning trees and the edge
    deleted."""
    point = next(_verdict_points(graph, 0, 1))
    kernel_rank, exact_rank = first_point_ranks(graph, point)
    if kernel_rank != exact_rank:
        return False, f"the kernel's rank at the first point is {kernel_rank}, Bareiss over Z reads {exact_rank}"
    if not resultant_mod_p(graph, point):
        return False, "det(sI - A) and det(sI - A_1) share a factor mod p at the first point"
    prime = image_dimension(graph, mode=PRIME_MODE)
    rational = image_dimension(graph, mode=RATIONAL_MODE)
    if prime.d != rational.d:
        return False, f"prime-field d = {prime.d}, rational d = {rational.d}"
    rng = random.Random(seed)
    bound = walk_bound(graph, random_tree(graph, rng))
    if not kernel_rank <= prime.d <= min(bound, graph.m + 1):
        return False, f"d = {prime.d} lies outside [{kernel_rank}, min(walk bound {bound}, m+1)]"
    smaller = [g for g in (without(graph, e) for e in graph.edges) if strongly_connected(g)]
    if smaller:
        minus = rng.choice(smaller)
        d_minus = image_dimension(minus).d
        if d_minus > prime.d:
            return False, f"d(G - e) = {d_minus} exceeds d(G) = {prime.d}, G - e = {minus.to_json()}"
    full = over_full(graph, seed)
    full_bound = walk_bound(full, random_tree(full, random.Random(seed)))
    exchange = any((1, v) in full.edges and (v, 1) in full.edges for v in range(2, full.n + 1))
    full_d, full_verdict = image_dimension(full).d, has_expected_dimension(full)
    if full_verdict or not full_d <= full_bound <= 2 * full.n - 2 + exchange:
        return False, (
            f"the over-full supergraph {full.to_json()} has d = {full_d}, walk bound {full_bound} "
            f"and expected dimension {full_verdict}"
        )
    if not prime.verdict:
        return False, None
    for tree in (None, random_tree(graph, rng)):
        result = reparametrize(graph, tree_edges=tree)
        name = "the default tree" if tree is None else f"tree {tree}"
        if not verify_reparametrization(graph, result):
            return True, f"the reparametrization under {name} fails verification"
        doc = json.loads(json.dumps(result.to_json_dict()))
        if not verify_reparametrization(graph, reparametrization_from_json(graph, doc)):
            return True, f"the JSON round trip under {name} fails verification"
        basis = result.basis
        block = [[c.exponent_vector[r] for c in basis.cycles] for r in basis.nontree_rows]
        failure = block_failure(block, basis.block_inverse)
        if failure:
            return True, f"{failure} under {name}"
    return True, None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="seed of the first graph (default 0)")
    parser.add_argument("--count", type=int, default=2000, help="graphs to check (default 2000)")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    expected = 0
    for seed in range(args.seed, args.seed + args.count):
        graph = random_graph(seed)
        try:
            verdict, failure = check(graph, seed)
        except Exception:  # a library error on a valid graph is a failure too
            verdict, failure = False, traceback.format_exc()
        expected += verdict
        if failure:
            print(f"FAILED at seed {seed}: {failure}")
            print(graph.to_json())
            return 1
    seconds = time.perf_counter() - start
    print(f"{args.count} graphs from seed {args.seed}, {expected} with the expected dimension: "
          f"no failure in {seconds:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
