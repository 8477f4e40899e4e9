"""The double characteristic polynomial map and its image dimension.

For a graph G the map sends the n+m model parameters to the coefficients
(c_1..c_n) of det(lambda*I - A) and (d_1..d_{n-1}) of det(lambda*I - A_1),
where A_1 deletes row and column 1. These are exactly the coefficients of the
input-output equation when G is strongly connected. The image dimension is
computed as the rank of the exact Jacobian at random points; the graph "has
the expected dimension" when that rank is m+1, the number of independent
monomial cycles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from . import exact
from .errors import NotExpectedDimension, NotStronglyConnected
from .exact import PRIME_MODE
from .graphs import (
    CompartmentGraph,
    Cycle,
    elementary_cycles,
    is_strongly_connected,
)
from .monomial import MonomialPolynomial, signed_parts


def parameter_count(graph: CompartmentGraph) -> int:
    return graph.n + graph.m


def diagonal_slot(vertex: int) -> int:
    return vertex - 1


def edge_slot(graph: CompartmentGraph, edge_index: int) -> int:
    return graph.n + edge_index


def _cycle_param_exponent(graph: CompartmentGraph, cycle: Cycle) -> tuple[int, ...]:
    expo = [0] * parameter_count(graph)
    if cycle.length == 1:
        expo[diagonal_slot(cycle.vertices[0])] = 1
    else:
        for e in cycle.edge_indices:
            expo[edge_slot(graph, e)] = 1
    return tuple(expo)


def symbolic_coefficients(
    graph: CompartmentGraph,
) -> tuple[list[MonomialPolynomial], list[MonomialPolynomial]]:
    """Expand every coefficient as a polynomial in the monomial cycles.

    c_i sums (-1)^i * prod(sign) over all collections of vertex-disjoint
    cycles with exactly i edges, a one-cycle counting as one edge; the sign
    of a cycle is +1 for odd length and -1 for even. d_i does the same on
    the subgraph with vertex 1 removed.
    """
    nvars = parameter_count(graph)
    cycles = elementary_cycles(graph)
    enriched = [
        (
            frozenset(c.vertices),
            c.length,  # edge count: a one-cycle contributes one edge
            c.sign,
            _cycle_param_exponent(graph, c),
            1 in c.vertices,
        )
        for c in cycles
    ]

    def expand(skip_vertex_one: bool, max_edges: int) -> list[MonomialPolynomial]:
        polys = [MonomialPolynomial(nvars) for _ in range(max_edges)]
        pool = [e for e in enriched if not (skip_vertex_one and e[4])]

        def recurse(start: int, used_vertices: frozenset, edges: int, sign: int, expo: tuple):
            for idx in range(start, len(pool)):
                verts, weight, csign, cexpo, _ = pool[idx]
                total = edges + weight
                if total > max_edges or used_vertices & verts:
                    continue
                merged = tuple(a + b for a, b in zip(expo, cexpo))
                s = sign * csign
                polys[total - 1].add_term(merged, (-1) ** total * s)
                recurse(idx + 1, used_vertices | verts, total, s, merged)

        recurse(0, frozenset(), 0, 1, (0,) * nvars)
        return polys

    cs = expand(skip_vertex_one=False, max_edges=graph.n)
    ds = expand(skip_vertex_one=True, max_edges=graph.n - 1) if graph.n > 1 else []
    return cs, ds


def _entry_positions(graph: CompartmentGraph, skip_vertex_one: bool):
    """(parameter index, row, column) of each model entry, 0-indexed in A,
    or in A_1 (row and column 1 deleted) when `skip_vertex_one`."""
    offset = 1 if skip_vertex_one else 0
    positions = [
        (diagonal_slot(v), v - 1 - offset, v - 1 - offset)
        for v in range(1 + offset, graph.n + 1)
    ]
    for k, (j, i) in enumerate(graph.edges):
        if not (skip_vertex_one and (j == 1 or i == 1)):
            positions.append((edge_slot(graph, k), i - 1 - offset, j - 1 - offset))
    return positions


def faddeev_leverrier(sparse_rows, size: int, p: int = 0) -> tuple[list, list]:
    """Coefficients c_1..c_n of det(lambda*I - A) and the matrices
    B_0..B_{n-1} of adj(lambda*I - A) = sum_k lambda^(n-1-k) * B_k.

    The recurrence is B_0 = I, c_k = -tr(A B_{k-1}) / k, B_k = A B_{k-1} +
    c_k I. `sparse_rows` holds A as [(col, value), ...] per row. With p = 0
    the entries are integers or Fractions and every division by k is exact
    over Q (at integer points it stays in Z); with p > 0 everything is
    reduced mod p.
    """
    exact.check_characteristic(p, size)
    B = [[int(r == c) for c in range(size)] for r in range(size)]
    coeffs, adjugate = [], []
    for k in range(1, size + 1):
        adjugate.append(B)
        AB = []
        for row in sparse_rows:
            out = [0] * size
            for col, a in row:
                out = [x + a * y for x, y in zip(out, B[col])]
            AB.append([x % p for x in out] if p else out)
        trace = sum(AB[r][r] for r in range(size))
        if p:
            ck = -trace * pow(k, -1, p) % p
        elif isinstance(trace, int):
            ck = -trace // k
        else:
            ck = -trace / k
        coeffs.append(ck)
        for r in range(size):
            AB[r][r] = (AB[r][r] + ck) % p if p else AB[r][r] + ck
        B = AB
    return coeffs, adjugate


def _double_recurrence(graph: CompartmentGraph, values: Sequence, p: int) -> list:
    """Run the recurrence on A and on A_1: two (positions, coeffs, B's)."""
    if len(values) != parameter_count(graph):
        raise ValueError(
            f"expected {parameter_count(graph)} parameter values, got {len(values)}"
        )
    out = []
    for skip_vertex_one in (False, True):
        positions = _entry_positions(graph, skip_vertex_one)
        size = graph.n - 1 if skip_vertex_one else graph.n
        rows = [[] for _ in range(size)]
        for idx, r, c in positions:
            rows[r].append((c, values[idx]))
        out.append((positions, *faddeev_leverrier(rows, size, p)))
    return out


def numeric_coefficients(
    graph: CompartmentGraph, values: Sequence, mode: str = PRIME_MODE
) -> tuple[list, list]:
    """Evaluate (c_1..c_n, d_1..d_{n-1}) at a point.

    `values` holds one number per parameter in canonical order: diagonals
    first, then edges. Prime-field mode reduces mod 2^61 - 1; rational mode
    is exact, in Z at integer points and in Q for Fraction values.
    """
    p = exact.modulus(mode)
    (_, cs, _), (_, ds, _) = _double_recurrence(graph, values, p)
    return cs, ds


def jacobian(graph: CompartmentGraph, point: Sequence[int], mode: str = PRIME_MODE):
    """Exact (2n-1) x (n+m) Jacobian of the coefficient map at `point`.

    Row k is the gradient of the k-th coordinate (c's then d's), read off
    the adjugate terms the recurrence already builds: d c_k / d A[r][c] =
    -B_{k-1}[c][r], and likewise for the d's on A_1. Rational mode stays in
    the integers; prime-field mode reduces mod 2^61 - 1.
    """
    p = exact.modulus(mode)
    nvars = parameter_count(graph)
    rows = []
    for positions, _coeffs, adjugate in _double_recurrence(graph, point, p):
        for B in adjugate:
            row = [0] * nvars
            for idx, r, c in positions:
                row[idx] = -B[c][r] % p if p else -B[c][r]
            rows.append(row)
    return rows


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
        return {
            "n": self.n,
            "m": self.m,
            "d": self.d,
            "expected": self.expected,
            "verdict": self.verdict,
            "trials": self.trials,
            "seed": self.seed,
            "mode": self.mode,
        }


def derived_rng(seed: int, graph: CompartmentGraph) -> random.Random:
    """RNG stream derived from (seed, n, edge list), so results depend on
    neither evaluation order nor PYTHONHASHSEED (a str seed goes through
    SHA-512)."""
    return random.Random(f"{seed}|{graph.n}|{graph.edges}")


def sample_point(rng: random.Random, count: int, p: int = exact.MERSENNE61) -> list[int]:
    """Uniform nonzero field elements, one per parameter."""
    return [rng.randrange(1, p) for _ in range(count)]


def image_dimension(
    graph: CompartmentGraph,
    trials: int = 2,
    seed: int = 0,
    mode: str = PRIME_MODE,
) -> DimensionReport:
    """Dimension of the image as the maximal Jacobian rank over random points.

    Randomized rank can only under-report; two independent points (the
    default) make a miss negligible, and more trials never decrease the
    answer for a fixed seed. The rank is at most m+1: the n-1 diagonal
    scalings diag(1, t_2, .., t_n) give kernel vectors, independent at any
    point with nonzero entries. So the loop stops at the first point that
    reaches m+1; `d`, `verdict` and `trials` are what all trials would give.
    """
    if not is_strongly_connected(graph):
        raise NotStronglyConnected(
            "image dimension is defined for strongly connected graphs; "
            "reduce with io_strong_component first"
        )
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = derived_rng(seed, graph)
    nvars = parameter_count(graph)
    best = 0
    for _ in range(trials):
        point = sample_point(rng, nvars)
        jac = jacobian(graph, point, mode)
        best = max(best, exact.rank(jac, mode))
        if best == graph.m + 1:
            break
    return DimensionReport(
        n=graph.n,
        m=graph.m,
        d=best,
        expected=graph.m + 1,
        verdict=best == graph.m + 1,
        trials=trials,
        seed=seed,
        mode=mode,
    )


def has_expected_dimension(
    graph: CompartmentGraph,
    trials: int = 2,
    seed: int = 0,
    mode: str = PRIME_MODE,
) -> bool:
    """True iff the image dimension attains its maximum m+1.

    Short-circuits to False when m > 2n-2, since the image lives in
    dimension 2n-1; no rank computation happens in that case.
    """
    if not is_strongly_connected(graph):
        raise NotStronglyConnected("expected dimension needs a strongly connected graph")
    if graph.m > 2 * graph.n - 2:
        return False
    return image_dimension(graph, trials=trials, seed=seed, mode=mode).verdict


def _derivative_name(base: str, order: int) -> str:
    if order == 0:
        return base
    if order <= 3:
        return base + "'" * order
    return f"{base}^({order})"


def io_equation_text(graph: CompartmentGraph) -> str:
    """Render the input-output equation with fully expanded coefficients."""
    if not is_strongly_connected(graph):
        raise NotStronglyConnected(
            "the coefficient form of the input-output equation needs a "
            "strongly connected graph (otherwise the two characteristic "
            "polynomials share a factor)"
        )
    cs, ds = symbolic_coefficients(graph)
    names = graph.param_names()

    def side(base: str, top_order: int, polys: list[MonomialPolynomial]) -> str:
        text = _derivative_name(base, top_order)
        for k, poly in enumerate(polys, start=1):
            if poly.is_zero():
                continue
            sign, body = signed_parts(poly, names)
            if len(poly.terms) > 1:
                body = f"({body})"
            text += (" - " if sign < 0 else " + ") + f"{body}*{_derivative_name(base, top_order - k)}"
        return text

    return side("y", graph.n, cs) + " = " + side("u1", graph.n - 1, ds)


def identifiable_cycle_functions(
    graph: CompartmentGraph,
    trials: int = 2,
    seed: int = 0,
    mode: str = PRIME_MODE,
) -> list[Cycle]:
    """m+1 algebraically independent identifiable cycle monomials.

    The n diagonal one-cycles plus the m-n+1 basis cycles used by the
    reparametrization. Only defined for graphs with the expected dimension.
    """
    if not has_expected_dimension(graph, trials=trials, seed=seed, mode=mode):
        raise NotExpectedDimension(
            "graph does not have the expected dimension; no independent "
            "identifiable cycle set of size m+1 exists"
        )
    from .reparam import cycle_basis, spanning_tree  # cycle selection lives there

    ones = [c for c in elementary_cycles(graph) if c.length == 1]
    if graph.n == 1:
        return ones
    basis = cycle_basis(graph, spanning_tree(graph))
    return ones + list(basis.cycles)


def evaluate_symbolic(
    graph: CompartmentGraph, values: Sequence[int], mode: str = PRIME_MODE
) -> tuple[list, list]:
    """Evaluate the symbolic expansion at a point (oracle counterpart of
    numeric_coefficients)."""
    p = exact.modulus(mode)
    cs, ds = symbolic_coefficients(graph)
    return [c.evaluate(values, p) for c in cs], [d.evaluate(values, p) for d in ds]
