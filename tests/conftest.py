"""Shared fixture graphs and brute-force oracles.

The oracles here deliberately avoid the library's own algorithms: strong
connectivity via all-pairs reachability, ranks via plain Gaussian
elimination over Fractions or GF(p), characteristic polynomials via sympy.
`evaluate_symbolic` evaluates the library's cycle expansion
(`symbolic_coefficients`), the symbolic counterpart of
`numeric_coefficients`. `reference_classes` computes each census row once
per session for the tests that only read it, and `class_verdicts` is the
census lookup for tests that sweep labeled graphs. Every test starts with
empty per-graph memos (`empty_graph_memos`).
"""

from fractions import Fraction
from functools import cache
from math import lcm
from typing import NamedTuple

import pytest

from compident import CompartmentGraph, canonical_form, census, census_classes, charpoly, reparam, symbolic_coefficients
from compident.census import DEFAULT_LIMIT
from compident.exact import PRIME_MODE, modulus


def clear_graph_memos() -> None:
    """Empty the verdict memo (`charpoly._sampled_dimension`) and the
    cycle candidates (`reparam._cycle_candidates`)."""
    charpoly._sampled_dimension.cache_clear()
    reparam._cycle_candidates.cache_clear()


@pytest.fixture(autouse=True)
def empty_graph_memos():
    """Every test starts with empty per-graph memos, so a test that counts
    kernel passes, exact builds, Bareiss calls, cycle searches or
    connectivity checks counts its own work, never a hit left by an
    earlier test. The memos stay on: tests run what the library runs."""
    clear_graph_memos()


def count_calls(monkeypatch, owner, name) -> list:
    """Patch owner.name to record one entry per call."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.fixture
def chain4() -> CompartmentGraph:
    """Four compartments: exchange at 2, 2-cycle (2,3), 3-cycle (2,4,3)."""
    return CompartmentGraph(4, ((2, 1), (1, 2), (3, 2), (2, 3), (4, 3), (2, 4)))


@pytest.fixture
def broken4() -> CompartmentGraph:
    """Four compartments, six edges, image dimension stuck at 6."""
    return CompartmentGraph(4, ((2, 1), (1, 2), (3, 2), (4, 3), (2, 4), (3, 4)))


@pytest.fixture
def wheel5() -> CompartmentGraph:
    """Five compartments, eight edges, inductively strongly connected."""
    return CompartmentGraph(
        5, ((3, 1), (5, 1), (1, 2), (1, 3), (2, 3), (4, 3), (3, 4), (4, 5))
    )


@pytest.fixture
def exchange2() -> CompartmentGraph:
    return CompartmentGraph(2, ((1, 2), (2, 1)))


@pytest.fixture
def single() -> CompartmentGraph:
    return CompartmentGraph(1, ())


#: `trials` values every verdict entry point rejects: (trials, error, message).
BAD_TRIALS = [
    pytest.param(0, ValueError, "trials must be >= 1", id="0"),
    pytest.param(-3, ValueError, "trials must be >= 1", id="-3"),
    pytest.param(1.5, TypeError, "cannot be interpreted as an integer", id="1.5"),
    pytest.param("2", TypeError, "cannot be interpreted as an integer", id="str"),
]

#: `seed` values every verdict entry point rejects: (seed, error, message).
#: 1.0 equals 1, so a memo keyed by value would hand it seed 1's report.
BAD_SEEDS = [
    pytest.param(1.0, TypeError, "cannot be interpreted as an integer", id="1.0"),
    pytest.param("1", TypeError, "cannot be interpreted as an integer", id="str"),
]


def directed_cycle_graph(n: int) -> CompartmentGraph:
    return CompartmentGraph(n, tuple([(v, v + 1) for v in range(1, n)] + [(n, 1)]))


@pytest.fixture
def cycle3() -> CompartmentGraph:
    return directed_cycle_graph(3)


def isc_adversary(n: int) -> CompartmentGraph:
    """Complete bidirected K_{n-2} with a directed 3-cycle hung off vertex
    n-2: strongly connected and never inductively so."""
    k = n - 2
    edges = [(a, b) for a in range(1, k + 1) for b in range(1, k + 1) if a != b]
    edges += [(k, k + 1), (k + 1, k + 2), (k + 2, k)]
    return CompartmentGraph(n, tuple(edges))


def oracle_reachable(graph: CompartmentGraph, start: int) -> set:
    """Reachability by repeated relaxation (no DFS machinery shared with
    the implementation)."""
    reach = {start}
    changed = True
    while changed:
        changed = False
        for j, i in graph.edges:
            if j in reach and i not in reach:
                reach.add(i)
                changed = True
    return reach


def oracle_distances(graph: CompartmentGraph, forward: bool) -> dict[int, int]:
    """BFS distances from vertex 1 along the edges (`forward`) or against
    them, by rounds over the edge list: round k adds the vertices at
    distance k, and a vertex not reached has no entry. No mask, walk or
    helper of the library."""
    arcs = graph.edges if forward else [(i, j) for j, i in graph.edges]
    dist = {1: 0}
    frontier, step = {1}, 0
    while frontier:
        step += 1
        frontier = {i for j, i in arcs if j in frontier} - dist.keys()
        dist.update(dict.fromkeys(frontier, step))
    return dist


def oracle_strongly_connected(graph: CompartmentGraph) -> bool:
    vertices = range(1, graph.n + 1)
    return all(oracle_reachable(graph, v) == set(vertices) for v in vertices)


def incidence_matrix(graph: CompartmentGraph) -> list[list[int]]:
    """The n-by-m directed incidence matrix.

    The column for edge j -> i has +1 in row j and -1 in row i; columns
    follow graph edge order.
    """
    rows = [[0] * graph.m for _ in range(graph.n)]
    for k, (j, i) in enumerate(graph.edges):
        rows[j - 1][k] += 1
        rows[i - 1][k] -= 1
    return rows


def oracle_rank(rows) -> int:
    """Gaussian elimination over Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat or not mat[0]:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for r in range(nrows):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def rank_gf_p_with_inverses(rows, p: int) -> int:
    """Textbook Gauss-Jordan over GF(p): normalize each pivot row by the
    pivot's inverse, then clear the pivot column in every other row."""
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def clear_denominators(values) -> list[int]:
    """The Fractions `values` times the lcm of their denominators: ints in
    the same ratios, so a row of them has the same rank, and larger than
    the numerators."""
    denom = lcm(*(Fraction(x).denominator for x in values))
    return [int(x * denom) for x in values]


class ReferenceClass(NamedTuple):
    """A read-only copy of one `census.CensusClass`, field for field."""

    representative: CompartmentGraph
    size: int
    expected: bool
    exchange: bool
    isc: bool


@cache
def reference_classes(n: int, m: int, limit: int = DEFAULT_LIMIT) -> tuple[ReferenceClass, ...]:
    """`census_classes(n, m, limit=limit)` under the default seed, trials
    and mode, computed on the first call and shared for the rest of the
    session as a tuple of `ReferenceClass` copies that no test can alter.

    Only for tests that read a row as reference values. A test that
    counts groupings or verdicts, patches the library, or checks that
    nothing outlives a call calls `census_classes` itself. The library
    keeps no row between calls; this memo is the suite's own, and it
    holds no `CensusClass`, so the check that none outlives its call
    still sees only the library's.
    """
    return tuple(ReferenceClass(**vars(c)) for c in census_classes(n, m, limit=limit))


def class_verdicts(classes) -> dict:
    """Canonical form -> census class record of a row's `classes`, for
    tests sweeping labeled graphs."""
    return {canonical_form(c.representative): c for c in classes}


@pytest.fixture
def grouped_rows(monkeypatch) -> list:
    """The (n, m) of each `census._grouped_classes` call, in call order."""
    grouped = []
    real = census._grouped_classes

    def counting(n, m, limit):
        grouped.append((n, m))
        return real(n, m, limit)

    monkeypatch.setattr(census, "_grouped_classes", counting)
    return grouped


def evaluate_polynomial(poly, values, p: int = 0):
    """Evaluate a polynomial {exponents: coefficient} at a point; `values`
    indexed by parameter order.

    With p > 0 the result is reduced mod p; with p = 0 it is exact, a
    Fraction only where a negative exponent needs one.
    """
    acc = 0
    for expo, coeff in poly.items():
        term = coeff
        for v, e in zip(values, expo):
            if e and p:
                term = term * pow(v, e, p) % p
            elif e:
                term *= v**e if e > 0 else Fraction(1, v) ** -e
        acc += term
    return acc % p if p else acc


def evaluate_symbolic(graph: CompartmentGraph, values, mode: str = PRIME_MODE) -> tuple[list, list]:
    """Evaluate the symbolic expansion at a point (oracle counterpart of
    numeric_coefficients)."""
    p = modulus(mode)
    cs, ds = symbolic_coefficients(graph)
    return [evaluate_polynomial(c, values, p) for c in cs], [
        evaluate_polynomial(d, values, p) for d in ds
    ]


def sympy_double_charpoly(graph: CompartmentGraph):
    """Symbolic (c, d) coefficient lists straight from sympy determinants.

    Berkowitz is division-free and far faster than sympy's default Bareiss
    on symbolic matrices (0.13 s against 5 s for wheel5).
    """
    import sympy

    lam = sympy.Symbol("lam")
    n = graph.n
    A = sympy.zeros(n, n)
    for v in range(1, n + 1):
        A[v - 1, v - 1] = sympy.Symbol(f"a{v}{v}")
    for j, i in graph.edges:
        A[i - 1, j - 1] = sympy.Symbol(f"a{i}{j}")
    poly = (lam * sympy.eye(n) - A).det(method="berkowitz").expand()
    cs = [sympy.expand(poly.coeff(lam, n - k)) for k in range(1, n + 1)]
    if n == 1:
        return cs, []
    A1 = A[1:, 1:]
    poly1 = (lam * sympy.eye(n - 1) - A1).det(method="berkowitz").expand()
    ds = [sympy.expand(poly1.coeff(lam, n - 1 - k)) for k in range(1, n)]
    return cs, ds
