"""The double characteristic polynomial map and its image dimension.

For a graph G the map sends the n+m model parameters to the coefficients
(c_1..c_n) of det(lambda*I - A) and (d_1..d_{n-1}) of det(lambda*I - A_1),
where A_1 deletes row and column 1. These are exactly the coefficients of the
input-output equation when G is strongly connected. The image dimension is
the exact rank of the Jacobian at random points; the graph "has the expected
dimension" when that rank is m+1, the number of independent monomial cycles.

The verdict matrix. `_power_rows` reads the entries (A^i)[c][r] of the
powers of A and of A_1 at the parameter positions, from which Newton's
identities give the coefficients and the Jacobian. Three reductions give
the Jacobian's rank at every point:
- rows: d c_k / d A[r][c] = -sum_(j<k) c_j (A^(k-1-j))[c][r], c_0 = 1, so J
  is a unit lower triangular matrix times the power rows [R; S];
- columns: the n-1 diagonal scalings lie in ker J, with block diag(tree
  entries) times the reduced incidence matrix of `graphs.spanning_tree`,
  invertible while the tree entries are nonzero (`sample_point` draws from
  [1, p-1]). Only the n diagonal and m-n+1 non-tree columns are kept: the
  (2n-1) x (m+1) verdict matrix M;
- identity rows: row 0 of the A block is 1 at the n diagonal columns, row
  0 of the A_1 block is 1 at a22..ann, and every other entry of both is 0.
  Their difference, the unit row at a11, clears column a11; subtracting
  column a22 from each a_vv, v >= 3, turns row 0 of A_1 into the unit row
  at a22, which clears column a22. So rank(M) = 2 + rank(M') (1 when
  n = 1), M' the (2n-3) x (m-1) matrix of rows 1.. of both blocks at the
  columns a_vv - a22 (v >= 3) and the non-tree edges, which exists only
  packed mod p (`_VerdictKernel`).

The walk bound, `_dimension_bound`, is the verdict's ceiling. Let h_k =
(A^k)_11, k = 1..2n-1, the Markov parameters of (A, e_1, e_1) (Pohjanpalo,
Math. Biosci. 41, 1978): h_k sums, over the closed walks of length k from
vertex 1, the product of the entries they step along, a loop at v
stepping along a_vv. A closed walk from 1 that uses the edge j -> i has
length at least L_p = d(1,j) + 1 + d(i,1), d the BFS distance, and one that
uses a_vv at least L_p = d(1,v) + 1 + d(v,1), so dh_k/dp = 0 for k < L_p.
Over the m+1 verdict parameters p, the bound is the least over t = 1..2n
of #{p : L_p < t} + (2n - t), proved in two steps:
- the term rank. Let J_h be the Jacobian of (h_1..h_(2n-1)). The scalings
  fix every h_k, so its columns at the tree's edges are combinations of
  its verdict columns, as J's are. On those, for each t, the rows
  t..2n-1 and the columns with L_p < t cover every nonzero entry, so at
  every point the rank of J_h is at most the bound: a rank is at most the
  term rank, the least such cover (Konig).
- J_h = Dphi J. With D(s) = det(sI - A) and N(s) = det(sI - A_1),
  N/D = e_1^T (sI - A)^-1 e_1 = sum_(k>=0) h_k s^(-k-1) (Cramer), so h is
  a polynomial map phi of (c, d), and J_h = Dphi J. If Dphi (dc, dd) = 0,
  then P = D dN - N dD, of degree at most 2n-2, has
  P/D^2 = d(N/D) = O(s^(-2n-1)), so P = 0; when D and N are coprime, D
  divides dD, of degree below n, so dD = 0 and then dN = 0. They are
  coprime exactly when (A, e_1, e_1) is a minimal realization, that is
  controllable and observable, and both hold at generic points: the
  graph is accessible from vertex 1 along and against its edges, and a
  loop a_vv at every vertex leaves no dilation (Lin, IEEE TAC 19, 1974).
  So Dphi is generically invertible, and rank J = rank J_h there.
No sampled rank, over Z or mod p, exceeds the generic rank of J, since a
minor that vanishes identically vanishes at every point and mod p; so
none exceeds the bound. At t = 1 the bound reads 2n-1. When n >= 3 and
vertex 1 has no exchange, only a11 has L_p < 3 (L_p = 2 takes an edge
1 -> v or v -> 1 whose reverse is present), so t = 3 reads 2n-2. Every
L_p is at most 2n-1, so one count per length gives the least cover, with
no sort.

The verdict record. Every verdict entry point (`image_dimension`,
`has_expected_dimension`, `reparam.reparametrize`) checks its arguments,
then reads the graph's record, (default spanning tree, ceiling), through
`_verdict_ceiling`. Building the record walks the graph once each way
(`graphs._require_strongly_connected`), which decides strong connectivity
and gives d(1,v) and d(v,1); picks the default spanning tree, whose verdict
columns every rank reads; and reads the walk bound under it. The ceiling is
at most m+1, and at most 2n-1 or 2n-2 as above, so it is m or less past the
edge bound m > 2n-2 and on a maximal graph with no exchange at vertex 1;
wherever it is m or less, the verdict is False with no rank. Trials stop at
the first point whose rank reaches the ceiling, and each pass stops once M'
has that many pivots less the min(n, 2) identity rows.

The points. `_point_pool` draws n^2 uniform nonzero values per (seed, n,
trial) by `sample_point` from `derived_rng(seed, n, trial)`, once per
process for the last 32 keys. a_vv sits at position v-1 and the edge
(j, i) at n plus its index in `census.all_possible_edges(n)`: distinct
positions, where a graph's point for a trial gathers the pool
(`_verdict_points`). So each point is uniform on [1, p-1]^(n+m) and
independent across trials, all the Schwartz-Zippel bound (Schwartz,
J. ACM 27, 1980) on a missed rank needs; a union bound over several
graphs needs no independence between them. More trials extend the points
of fewer, and equal graphs built separately get the same points.

The memos. Three memos keep what depends on no spanning tree for the
last GRAPH_MEMO_SIZE keys of immutable graphs, equal graphs built
separately sharing an entry: the verdict record (`_verdict_record`), so a
hit walks nothing; the frozen dimension report (`_sampled_dimension`), a
pure function of the graph and the checked trials, seed and mode; and
`reparam`'s cycle candidates. One graph reparametrized under several
trees, or `analyze` then `reparam` on one graph, asks for them again
within a few calls, and runs no walk, kernel pass or cycle search the
second time. A rational report reads the prime-field one of the same
graph, trials and seed through the report memo, holding two keys: so
`analyze --exact` after `analyze` runs no kernel pass, the prime-field
call after a rational one is a hit, and eight keys keep at least four
graphs' reports in either mode. A census row's verdicts never repeat a
graph, and each process, CLI run and forked census share has its own.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from itertools import accumulate
from operator import add, index, lshift, mul
from typing import Sequence

from . import exact
from .errors import LimitExceeded, NotStronglyConnected
from .exact import MERSENNE61, PRIME_MODE, RATIONAL_MODE
from .graphs import (
    CompartmentGraph,
    SpanningTree,
    _nontree_edges,
    _require_strongly_connected,
    elementary_cycles,
    spanning_tree,
)
from .monomial import name_order, signed_parts


#: The most terms `symbolic_coefficients` expands: a bidirected path has
#: 33,460 at n = 12 and about 2.4 times more per added vertex.
MAX_EXPANSION_TERMS = 100_000

#: Keys each per-graph memo keeps (module docstring).
GRAPH_MEMO_SIZE = 8


def symbolic_coefficients(graph: CompartmentGraph) -> tuple[list[dict], list[dict]]:
    """Expand every coefficient as a polynomial in the monomial cycles.
    c_i sums (-1)^k times the product of the cycle monomials over every
    collection of k vertex-disjoint cycles that covers i vertices, a
    one-cycle a_vv covering one: in det(lambda*I - A) the collection is a
    partial permutation, of sign (-1)^(i-k), times (-1)^i. d_i does the same
    without vertex 1, so one walk over the collections fills both. Each
    polynomial is a dict {exponents: coefficient} over `param_names`.
    The monomial determines the partial permutation, so no two collections
    share a term: every coefficient is +1 or -1, assigned and never summed.
    No polynomial is empty: c_k holds the product of k one-cycles a_vv, and
    d_k that of k one-cycles of vertices 2..n. Raises LimitExceeded once the
    expansion passes MAX_EXPANSION_TERMS terms of the c_i."""
    n = graph.n
    cs = [{} for _ in range(n)]
    ds = [{} for _ in range(n - 1)]
    pool = [  # (vertex bitmask, vertex count, exponents: a_vv of a one-cycle, or its edges)
        (
            sum(1 << v for v in c.vertices),
            c.length,
            tuple(int(c.vertices == (v,)) for v in range(1, n + 1)) + c.exponent_vector,
        )
        for c in elementary_cycles(graph)
    ]

    terms = 0

    def recurse(start: int, used: int, covered: int, coeff: int, expo: tuple):
        nonlocal terms
        for idx in range(start, len(pool)):
            verts, length, cexpo = pool[idx]
            if used & verts:
                continue
            terms += 1
            if terms > MAX_EXPANSION_TERMS:
                raise LimitExceeded(
                    f"the input-output equation has more than {MAX_EXPANSION_TERMS:,} "
                    "terms; it is too large to expand"
                )
            merged = tuple(map(add, expo, cexpo))
            cs[covered + length - 1][merged] = -coeff
            if not (used | verts) & 2:  # bit 1: vertex 1
                ds[covered + length - 1][merged] = -coeff
            recurse(idx + 1, used | verts, covered + length, -coeff, merged)

    recurse(0, 0, 0, 1, (0,) * (graph.n + graph.m))
    return cs, ds


def _power_rows(graph: CompartmentGraph, values: Sequence[int], p: int, params) -> tuple[list, list]:
    """Entries of the powers of A and of A_1 at the parameters `params`:
    for the parameter at A[r][c], row i of the first list holds (A^i)[c][r],
    i = 0..n-1, and of the second (A_1^i)[c][r], i = 0..n-2, 0 outside A_1.
    `p` is 2^61 - 1 or 0, and the values are ints (TypeError otherwise). Row
    c of A^(i+1) is sum_k a_ck * (row k of A^i), sparse A times dense A^i,
    with one `% p` per entry mod p. The coefficients, the Jacobian and
    Bareiss on M over Z read these lists; the verdict mod p reads none. The
    per-row nonzeros of A are laid out here and again in
    `_VerdictKernel.__init__` on purpose, so that this loop stays an
    independent oracle of the packed kernel."""
    if len(values) != graph.n + graph.m:
        raise ValueError(f"expected {graph.n + graph.m} parameter values, got {len(values)}")
    n = graph.n
    values = [index(x) % p for x in values] if p else list(map(index, values))
    entries = [(v, v) for v in range(n)] + [(i - 1, j - 1) for j, i in graph.edges]
    cells = [entries[k] for k in params]
    out = []
    for sub in (0, 1):  # A, then A_1 as A with row and column 1 zeroed, which reads 0 there
        nonzeros = [([], []) for _ in range(n)]  # per row: its columns and entries, a_vv among them
        for (r, c), x in zip(entries, values):
            nonzeros[r][0].append(c)
            nonzeros[r][1].append(x if min(r, c) >= sub else 0)
        powers = [[[int(r == c >= sub) for c in range(n)] for r in range(n)]][: n - sub]  # A^0, if any
        while len(powers) < n - sub:
            power = [
                [sum(map(mul, xs, column)) for column in zip(*map(powers[-1].__getitem__, ks))]
                for ks, xs in nonzeros
            ]
            powers.append([[x % p for x in row] for row in power] if p else power)
        out.append([[P[c][r] for r, c in cells] for P in powers])
    return out[0], out[1]


def newton_coefficients(power_sums: Sequence[int], p: int = 0) -> list[int]:
    """Coefficients c_1..c_k of det(lambda*I - A) from s_i = tr(A^i), i = 1..k,
    by Newton's identities: j * c_j = -(s_j + c_1 s_(j-1) + .. + c_(j-1) s_1).
    With p = 0 each division by j is exact in Z; with p = 2^61 - 1 everything
    is reduced mod p, where j < p is a unit."""
    coeffs = []
    for j, s in enumerate(power_sums, start=1):
        total = s + sum(c * power_sums[j - 2 - i] for i, c in enumerate(coeffs))
        coeffs.append(-total * pow(j, -1, p) % p if p else -total // j)
    return coeffs


def _coefficients(graph: CompartmentGraph, values: Sequence[int], p: int):
    """(power rows, coefficients) of A and of A_1 at every parameter. tr(A^i)
    sums row i over the diagonal cells; the top one, tr(A^size), is
    sum a_rc * (A^(size-1))[c][r], one dot product with the last row."""
    out = []
    for rows in _power_rows(graph, values, p, range(graph.n + graph.m)):
        sums = [sum(row[: graph.n]) for row in rows[1:]]
        sums += [sum(a * x for a, x in zip(values, rows[-1]))] if rows else []
        out.append((rows, newton_coefficients(sums, p)))
    return out


def numeric_coefficients(
    graph: CompartmentGraph, values: Sequence[int], mode: str = PRIME_MODE
) -> tuple[list, list]:
    """(c_1..c_n, d_1..d_{n-1}) at `values`, one per parameter in the
    order of `param_names`, mod 2^61 - 1 in prime-field mode."""
    (_, cs), (_, ds) = _coefficients(graph, values, exact.modulus(mode))
    return cs, ds


def jacobian(graph: CompartmentGraph, point: Sequence[int], mode: str = PRIME_MODE):
    """Exact (2n-1) x (n+m) Jacobian of the coefficient map at `point`, mod
    2^61 - 1 in prime-field mode: row k is the gradient of the k-th
    coordinate, c's then d's (module docstring, rows)."""
    p = exact.modulus(mode)
    out = []
    for rows, coeffs in _coefficients(graph, point, p):
        coeffs = [1] + coeffs
        for k in range(1, len(rows) + 1):
            row = [-sum(coeffs[j] * rows[k - 1 - j][i] for j in range(k)) for i in range(len(point))]
            out.append([x % p for x in row] if p else row)
    return out


def _verdict_params(graph: CompartmentGraph, tree: SpanningTree) -> list[int]:
    """The n diagonal and the m-n+1 non-tree parameters of `tree`: the
    verdict matrix's columns."""
    return list(range(graph.n)) + [graph.n + k for k in _nontree_edges(graph, tree)]


def _dimension_bound(graph: CompartmentGraph, tree: SpanningTree, walk: tuple) -> int:
    """The walk bound (module docstring) under `tree`, with L_p read off
    `walk`, the distances (d(1, v), d(v, 1)) of the verdict record. The
    lengths L_p - 1 = 0..2n-2 are counted, every edge's and then less each
    tree edge's, so no non-tree list is built; the s-th prefix sum of the
    counts is #{p : L_p < s + 2}, and t = 1, whose term 2n-1 the a11 term of
    t = 2 never undercuts, is left out."""
    down, up = walk
    n = graph.n
    edges = graph.edges
    count = [0] * (2 * n - 1)
    for length in map(add, down[1:], up[1:]):  # a_vv
        count[length] += 1
    for j, i in edges:  # the edge j -> i
        count[down[j] + up[i]] += 1
    for j, i in map(edges.__getitem__, tree.edge_indices):
        count[down[j] + up[i]] -= 1
    return min(map(add, accumulate(count), range(2 * n - 2, -1, -1)))


class _VerdictKernel:
    """M' (module docstring) of one graph under one spanning tree, ranked
    mod p from the packed powers of diag(A, A_1); built once per report for
    every trial. It knows no ceiling: the caller passes a pivot count.

    Row r of a power is one int of 2n-1 slots of `exact.slot_width(n)` bits:
    row r of A^i in slots 0..n-1, and row r of A_1^i in slots n..2n-2, column
    c at slot n + c - 1. As A_1[r][k] = A[r][k] for r, k >= 1, row r of the
    next power is sum_k a_rk * row_k over row r of A, one big-int multiply-add
    per nonzero of A for both blocks, once row 0's A_1 slots are cleared:
    vertex 1 has no row in A_1. So an A slot takes n products and an A_1 slot
    n - 1. For the parameter at A[r][c], (A^i)[c][r] sits in row c at slot r,
    and its A_1 entry at slot n + r - 1, or past the last slot, which reads 0,
    when r or c is 0.

    The columns are gathered one at a time from A^1 .. A^(n-1): each row's
    cell is shifted out of its power row into the row's slot, unreduced, and
    the column operation adds the column 2p - x, x the cells of a22, to each
    diagonal column, followed by one fold. A diagonal column's slot takes 2p
    plus one cell, below 2^63, which the fold brings to at most 2^61 + 2;
    both are within `exact.slot_width(n)` (e >= 2 there, as diagonal columns
    need n >= 3), so the columns are eliminated at the powers' width."""

    def __init__(self, graph: CompartmentGraph, tree: SpanningTree):
        n = self.n = graph.n
        self.params = _verdict_params(graph, tree)
        self.nrows = max(2 * n - 3, 0)
        self.ncols = max(len(self.params) - 2, 0)
        self.nonzeros = [([], []) for _ in range(n)]  # per row of A: its columns k, parameters
        entries = [(v, v) for v in range(n)] + [(i - 1, j - 1) for j, i in graph.edges]
        for param, (r, c) in enumerate(entries):
            self.nonzeros[r][0].append(c)
            self.nonzeros[r][1].append(param)
        width = self.width = exact.slot_width(n)
        self.shifts = [[k * width for k in ks] for ks, _params in self.nonzeros]  # per row: its slots
        self.low, self.high = exact.fold_masks(width, 2 * n - 1)
        self.a_slots = (1 << n * width) - 1
        self.twop = 2 * exact.fold_masks(width, self.nrows)[0]  # 2p in each of the nrows slots
        # per column, a22's first: the row and the shifts of its cells in A and in A_1
        self.cells = [
            (c, r * width, (n + r - 1 if r and c else 2 * n - 1) * width)
            for r, c in map(entries.__getitem__, self.params[1:])
        ]

    def packed(self, values: Sequence[int]) -> list[list[int]]:
        """The packed powers A^1 .. A^(n-1) of diag(A, A_1) mod p at `values`,
        each a list of n rows; A_1 needs no power n-1, so the last power's A_1
        slots go unread. Power 1 is A itself, each entry reduced to [0, p) with
        no product, each row r >= 1 repeated without its slot 0 in the A_1
        slots. Each product is folded twice; slots are never reduced to [0, p)."""
        n, width, low, high, a_slots = self.n, self.width, self.low, self.high, self.a_slots
        values = [x % MERSENNE61 for x in values]
        rows = [(ks, list(map(values.__getitem__, params))) for ks, params in self.nonzeros]
        power = [sum(map(lshift, row, shifts)) for (_ks, row), shifts in zip(rows, self.shifts)]
        power = [x + (x >> width << n * width) for x in power]
        power[0] &= a_slots
        powers = [power] if n > 1 else []
        for _ in range(2, n):
            power = [sum(map(mul, row, map(power.__getitem__, ks))) for ks, row in rows]
            power = [(x & low) + (x >> 61 & high) for x in power]
            power = [(x & low) + (x >> 61 & high) for x in power]
            power[0] &= a_slots
            powers.append(power)
        return powers

    def pivots(self, values: Sequence[int], most: int) -> list[int]:
        """The pivot columns of M' mod p at `values`, up to `most` of them:
        its first independent columns mod p, whose number is its rank
        when that is at most `most`."""
        if not self.ncols:
            return []
        return exact._pivots_mod_p(self._columns(self.packed(values)), self.nrows, self.width, most)

    def _columns(self, powers: list[list[int]]):
        """The columns of M', packed, one at a time: slot t of a column holds
        row t of M', the A rows (powers 1..n-1) first, then the A_1 rows
        (powers 1..n-2)."""
        n, width, low, high = self.n, self.width, self.low, self.high
        mask = (1 << width) - 1
        rows = list(zip(*powers))  # per row r, row r of each power

        def column(at):
            k, s, sub_s = at
            x = 0
            for y in reversed(rows[k][: n - 2]):
                x = x << width | y >> sub_s & mask
            for y in reversed(rows[k]):
                x = x << width | y >> s & mask
            return x

        # 2p - x in each slot, x the cell of a22: 2p exceeds every cell, so nothing borrows
        operation = self.twop - column(self.cells[0])
        for j, at in enumerate(self.cells[1:]):
            x = column(at)
            if j < n - 2:  # a_vv - a22
                x += operation
                x = (x & low) + (x >> 61 & high)
            yield x


@dataclass(frozen=True)
class DimensionReport:
    """Computed generic dimension of the coefficient map image."""

    n: int
    m: int
    d: int
    expected: int
    verdict: bool
    trials: int
    seed: int
    mode: str

    def as_dict(self) -> dict:
        return asdict(self)


def derived_rng(seed: int, n: int, trial: int) -> random.Random:
    """RNG stream of the point pool of (seed, n, trial), so results depend
    on neither evaluation order nor PYTHONHASHSEED (a str seed goes through
    SHA-512)."""
    return random.Random(f"{seed}|{n}|{trial}")


def sample_point(rng: random.Random, count: int) -> list[int]:
    """Uniform nonzero elements of GF(2^61 - 1), one per parameter: 1 + x
    for the first 61-bit draw x below p - 1, the values and the stream
    position that `rng.randrange(1, p)` gives, without going through it."""
    draw = rng.getrandbits
    point = []
    for _ in range(count):
        x = draw(61)
        while x >= MERSENNE61 - 1:
            x = draw(61)
        point.append(1 + x)
    return point


def checked_arguments(trials: int, seed: int, mode: str) -> tuple[int, int]:
    """`trials` as an int of at least 1 and `seed` as an int (both through
    `operator.index`, so a float or a str raises TypeError and a bool
    becomes an int), once `exact.modulus` has accepted `mode`: every verdict
    entry point's argument check, before anything else is decided.
    Unchecked, seed 1.0 would draw its points from "1.0" yet meet seed 1's
    entry in the verdict memo, whose keys compare by value, and seed "1"
    would draw seed 1's points but report "1"."""
    exact.modulus(mode)
    trials, seed = index(trials), index(seed)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return trials, seed


#: The refusal of `image_dimension` and `has_expected_dimension` on a
#: graph that is not strongly connected.
_IMAGE_REFUSAL = "image dimension is defined for strongly connected graphs; reduce with io_strong_component first"


@lru_cache(maxsize=GRAPH_MEMO_SIZE)
def _verdict_record(graph: CompartmentGraph) -> tuple[SpanningTree, int]:
    """The verdict record (default spanning tree, ceiling) of a strongly
    connected graph (module docstring); NotStronglyConnected on any other."""
    walk = _require_strongly_connected(graph, _IMAGE_REFUSAL)
    tree = spanning_tree(graph)
    return tree, _dimension_bound(graph, tree, walk)


@lru_cache(maxsize=32)  # the default two trials over a few seeds and sizes
def _point_pool(seed: int, n: int, trial: int) -> tuple[int, ...]:
    """The n^2 uniform nonzero values of (seed, n, trial) (module docstring)."""
    return tuple(sample_point(derived_rng(seed, n, trial), n * n))


def _verdict_points(graph: CompartmentGraph, seed: int, trials: int):
    """The points of a verdict's trials, in order, gathered from the pools
    (module docstring)."""
    n = graph.n
    positions = [*range(n), *[n + (j - 1) * (n - 1) + i - 1 - (i > j) for j, i in graph.edges]]
    for trial in range(trials):
        yield list(map(_point_pool(seed, n, trial).__getitem__, positions))


def _verdict_ceiling(
    graph: CompartmentGraph, trials: int, seed: int, mode: str, refusal: str
) -> tuple[int, int, SpanningTree, int]:
    """(trials, seed, default tree, ceiling) of a verdict entry point: the
    arguments through `checked_arguments`, then the verdict record, raising
    NotStronglyConnected(`refusal`) on a graph that is not strongly
    connected (module docstring)."""
    trials, seed = checked_arguments(trials, seed, mode)
    try:
        return (trials, seed, *_verdict_record(graph))
    except NotStronglyConnected:
        raise NotStronglyConnected(refusal) from None


def image_dimension(
    graph: CompartmentGraph,
    trials: int = 2,
    seed: int = 0,
    mode: str = PRIME_MODE,
) -> DimensionReport:
    """Dimension of the image as the maximal Jacobian rank over random
    points. Randomized rank can only under-report; two independent points
    (the default) make a miss negligible, and more trials never decrease the
    answer for a fixed seed. `d`, `verdict` and `trials` are what all trials
    would give, though the trials stop at the ceiling (module docstring)."""
    trials, seed, _tree, _ceiling = _verdict_ceiling(graph, trials, seed, mode, _IMAGE_REFUSAL)
    return _sampled_dimension(graph, trials, seed, mode)


@lru_cache(maxsize=GRAPH_MEMO_SIZE)
def _sampled_dimension(graph: CompartmentGraph, trials: int, seed: int, mode: str) -> DimensionReport:
    """`image_dimension` of a graph that `_verdict_ceiling` has passed,
    with the trials and seed it returned and a mode of `exact.MODES`, kept
    for the last GRAPH_MEMO_SIZE keys (module docstring). Prime-field mode
    ranks M' by one kernel pass per point. Rational mode runs no pass of its
    own: the prime-field report is exact when its d is the ceiling (`exact`'s
    rank certification). Otherwise every trial fell short mod p, and each
    point, gathered again, is ranked by Bareiss on M over Z, whose rank is
    at least the rank mod p, the two identity rows first: their pivots are 1,
    after which Bareiss works on M' itself."""
    tree, ceiling = _verdict_record(graph)
    if mode == RATIONAL_MODE:
        report = _sampled_dimension(graph, trials, seed, PRIME_MODE)
        if report.d == ceiling:
            return replace(report, mode=mode)
    kernel = _VerdictKernel(graph, tree)
    eliminated = min(graph.n, 2)
    best = 0
    for point in _verdict_points(graph, seed, trials):
        if mode == PRIME_MODE:
            rank = eliminated + len(kernel.pivots(point, ceiling - eliminated))
        else:  # identity rows first: Bareiss pivots on them at 1, then runs on M'
            rows, sub_rows = _power_rows(graph, point, 0, kernel.params)
            rank = exact.rank_bareiss(rows[:1] + sub_rows[:1] + rows[1:] + sub_rows[1:])
        best = max(best, rank)
        if best == ceiling:
            break
    m = graph.m
    return DimensionReport(
        n=graph.n, m=m, d=best, expected=m + 1, verdict=best == m + 1, trials=trials, seed=seed, mode=mode
    )


def has_expected_dimension(
    graph: CompartmentGraph,
    trials: int = 2,
    seed: int = 0,
    mode: str = PRIME_MODE,
) -> bool:
    """True iff the image dimension attains the expected m+1: False with
    no rank when the record's ceiling is m or less (module docstring),
    otherwise `_sampled_dimension`'s verdict."""
    trials, seed, _tree, ceiling = _verdict_ceiling(graph, trials, seed, mode, _IMAGE_REFUSAL)
    return ceiling > graph.m and _sampled_dimension(graph, trials, seed, mode).verdict


def _derivative_name(base: str, order: int) -> str:
    if order == 0:
        return base
    if order <= 3:
        return base + "'" * order
    return f"{base}^({order})"


def io_equation_text(graph: CompartmentGraph) -> str:
    """Render the input-output equation with fully expanded coefficients."""
    _require_strongly_connected(
        graph,
        "the coefficient form of the input-output equation needs a strongly connected graph "
        "(otherwise the two characteristic polynomials share a factor)",
    )
    cs, ds = symbolic_coefficients(graph)
    order = name_order(graph.param_names())

    def side(base: str, top_order: int, polys: list[dict]) -> str:
        text = _derivative_name(base, top_order)
        for k, poly in enumerate(polys, start=1):
            sign, body = signed_parts(poly, order)
            if len(poly) > 1:
                body = f"({body})"
            text += (" - " if sign < 0 else " + ") + f"{body}*{_derivative_name(base, top_order - k)}"
        return text

    return side("y", graph.n, cs) + " = " + side("u1", graph.n - 1, ds)
