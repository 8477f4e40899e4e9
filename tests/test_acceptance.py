"""Acceptance suite.

Every criterion prints one PASS/FAIL line (run with -s to see them) and
asserts exact equality at the stated scope; nothing here is tolerance-based.
The census table is pinned to fixed reference counts. One cell was replaced:
the (4,5) B count, pinned as 54, contradicts its own row (the 3 non-expected
classes hold at most 3 * 3! = 18 labeled graphs, so B >= 84 - 18 = 66), and
the value 66 is proved independently of the library by
tests/test_census.py::TestFourFiveRowProof::test_row_counts.
"""

import functools
import random

import pytest

from compident import (
    CompartmentGraph,
    NoReparametrization,
    identifiable_cycle_functions,
    image_dimension,
    numeric_coefficients,
    reparametrize,
    verify_reparametrization,
)
from compident.census import (
    census_classes,
    census_row,
    enumerate_sc_graphs,
    property_suite,
)
from compident.exact import MERSENNE61, PRIME_MODE, RATIONAL_MODE
from compident.graphs import canonical_form
from compident.reparam import alternate_spanning_tree, spanning_tree
from conftest import class_verdicts, evaluate_symbolic, reference_classes

CHAIN4 = CompartmentGraph(4, ((2, 1), (1, 2), (3, 2), (2, 3), (4, 3), (2, 4)))
BROKEN4 = CompartmentGraph(4, ((2, 1), (1, 2), (3, 2), (4, 3), (2, 4), (3, 4)))
WHEEL5 = CompartmentGraph(
    5, ((3, 1), (5, 1), (1, 2), (1, 3), (2, 3), (4, 3), (3, 4), (4, 5))
)
WHEEL5_TREE = [(2, 3), (3, 4), (4, 5), (5, 1)]

REFERENCE_TABLE = {
    (3, 3): (2, 2, 1, None, 1, None),
    (3, 4): (9, 7, 5, 4, 4, 4),
    (4, 4): (6, 6, 1, None, 1, None),
    # Pinned as (84, 54, 15, None, 12, None). B = 54 cannot hold with C = 15
    # and E = 12: verdicts are constant on relabeling classes of size <= 6, so
    # the 3 non-expected classes hold <= 18 graphs and B >= 66. Replaced by
    # the 66 that TestFourFiveRowProof in test_census.py proves with sympy.
    (4, 5): (84, 66, 15, None, 12, None),
    (4, 6): (316, 166, 55, 34, 30, 26),
    (5, 5): (24, 24, 1, None, 1, None),
    (5, 6): (720, 576, 32, None, 26, None),
    (5, 7): (6440, 4052, 281, None, 180, None),
    (5, 8): (26875, 9565, 1158, 581, 421, 267),
}


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE criterion {number} ({title}): FAIL")
                raise
            print(f"\nACCEPTANCE criterion {number} ({title}): PASS")

        return run

    return wrap


def random_sc_graph(rng, n):
    pool = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1) if i != j]
    while True:
        m = rng.randrange(max(n, 1), len(pool) + 1) if n > 1 else 0
        g = CompartmentGraph(n, tuple(sorted(rng.sample(pool, m))))
        from compident import is_strongly_connected

        if is_strongly_connected(g):
            return g


@criterion(1, "census table reproduction")
def test_criterion_1_census_table():
    mismatches = []
    for (n, m), expected in REFERENCE_TABLE.items():
        row = census_row(n, m)
        got = (row.A, row.B, row.C, row.D, row.E, row.F)
        marker = "ok" if got == expected else "MISMATCH"
        print(f"  ({n},{m}): computed {got} reference {expected} [{marker}]")
        if got != expected:
            mismatches.append(((n, m), got, expected))
    stable = [(c.representative, c.expected) for c in census_classes(5, 8)]
    assert stable == [
        (c.representative, c.expected) for c in census_classes(5, 8, seed=1, trials=4)
    ], "(5,8) class verdicts changed under trials=4, seed=1"
    from compident import non_isc_identifiable_classes

    assert len(non_isc_identifiable_classes(4, 6)) == 4
    assert len(non_isc_identifiable_classes(5, 8)) == 154
    assert not mismatches, f"rows differing from the pinned reference: {mismatches}"


@criterion(2, "worked-example fixtures")
def test_criterion_2_worked_examples():
    # chain: dimension, identifiable functions, reparametrized matrix
    assert image_dimension(CHAIN4).d == 7
    assert [c.monomial for c in identifiable_cycle_functions(CHAIN4)] == [
        "a11", "a22", "a33", "a44", "a12*a21", "a23*a32", "a23*a34*a42",
    ]
    chain_result = reparametrize(CHAIN4)
    assert chain_result.matrix_strings() == [
        ["a11", "1", "0", "0"],
        ["a12*a21", "a22", "1", "0"],
        ["0", "a23*a32", "a33", "1"],
        ["0", "a23*a34*a42", "0", "a44"],
    ]

    # four-compartment graph with no reparametrization
    with pytest.raises(NoReparametrization) as err:
        reparametrize(BROKEN4)
    assert err.value.report.d == 6

    # five-compartment graph, entries pinned as exponent vectors so the
    # unsimplified reference quotients match after cancellation
    assert image_dimension(WHEEL5).d == 9
    result = reparametrize(WHEEL5, tree_edges=WHEEL5_TREE)
    names = [WHEEL5.edge_param_name(k) for k in range(WHEEL5.m)]
    slot = {name: k for k, name in enumerate(names)}
    index = WHEEL5.edge_index()

    def expo(**powers):
        out = [0] * WHEEL5.m
        for name, e in powers.items():
            out[slot[name]] = e
        return tuple(out)

    expected_rows = {
        (3, 1): expo(a13=1, a43=-1, a15=-1, a54=-1),
        (1, 2): expo(a21=1, a32=1, a43=1, a54=1, a15=1),
        (1, 3): expo(a31=1, a43=1, a54=1, a15=1),
        (4, 3): expo(a34=1, a43=1),
        (2, 3): expo(),
        (3, 4): expo(),
        (4, 5): expo(),
        (5, 1): expo(),
    }
    for edge, row in expected_rows.items():
        assert result.rescaled_exponents[index[edge]] == row, edge
    assert verify_reparametrization(WHEEL5, result)


@criterion(3, "coefficient identities")
def test_criterion_3_identities():
    fixtures = [
        CHAIN4,
        BROKEN4,
        WHEEL5,
        CompartmentGraph(1, ()),
        CompartmentGraph(2, ((1, 2), (2, 1))),
        CompartmentGraph(3, ((1, 2), (2, 3), (3, 1))),
        CompartmentGraph(4, ((1, 2), (2, 3), (3, 4), (4, 1))),
    ]
    rng = random.Random(2024)
    for graph in fixtures:
        nparams = graph.n + graph.m
        for _ in range(100):
            point = [rng.randrange(1, MERSENNE61) for _ in range(nparams)]
            cs, ds = numeric_coefficients(graph, point, RATIONAL_MODE)
            d1 = ds[0] if ds else 0
            assert -cs[0] + d1 == point[0]
            csp, dsp = numeric_coefficients(graph, point, PRIME_MODE)
            d1p = dsp[0] if dsp else 0
            assert (-csp[0] + d1p) % MERSENNE61 == point[0] % MERSENNE61

    names = CHAIN4.param_names()
    i12, i21 = names.index("a12"), names.index("a21")
    for _ in range(100):
        point = [rng.randrange(1, MERSENNE61) for _ in range(10)]
        cs, ds = numeric_coefficients(CHAIN4, point, RATIONAL_MODE)
        assert ds[1] - cs[1] + cs[0] * ds[0] - ds[0] ** 2 == point[i12] * point[i21]
        csp, dsp = numeric_coefficients(CHAIN4, point, PRIME_MODE)
        lhs = (dsp[1] - csp[1] + csp[0] * dsp[0] - dsp[0] ** 2) % MERSENNE61
        assert lhs == point[i12] * point[i21] % MERSENNE61


@criterion(4, "symbolic-numeric oracle equivalence")
def test_criterion_4_oracle_equivalence():
    rng = random.Random(4001)

    def check(graph, points, modes):
        nparams = graph.n + graph.m
        for _ in range(points):
            point = [rng.randrange(1, MERSENNE61) for _ in range(nparams)]
            for mode in modes:
                sym = evaluate_symbolic(graph, point, mode)
                vals = [v % MERSENNE61 for v in point] if mode == PRIME_MODE else point
                num = numeric_coefficients(graph, vals, mode)
                assert sym == tuple(num), graph.to_json()

    total = 0
    for n in range(1, 5):
        m_range = [0] if n == 1 else range(n, n * (n - 1) + 1)
        for m in m_range:
            for graph in enumerate_sc_graphs(n, m):
                check(graph, 5, (PRIME_MODE, RATIONAL_MODE))
                total += 1
    print(f"  exhaustive n<=4: {total} graphs")

    for _ in range(500):
        graph = random_sc_graph(rng, 5)
        check(graph, 5, (PRIME_MODE,))


@criterion(5, "similarity invariance")
def test_criterion_5_similarity_invariance():
    rng = random.Random(777)
    p = MERSENNE61
    for _ in range(1000):
        n = rng.randrange(1, 6)
        graph = random_sc_graph(rng, n)
        values = [rng.randrange(1, MERSENNE61) for _ in range(n + graph.m)]
        scale = [1] + [rng.randrange(1, MERSENNE61) for _ in range(n - 1)]
        conjugated = list(values)
        for k, (j, i) in enumerate(graph.edges):
            conjugated[n + k] = values[n + k] * scale[i - 1] * pow(scale[j - 1], -1, p) % p
        assert numeric_coefficients(graph, values, PRIME_MODE) == numeric_coefficients(
            graph, conjugated, PRIME_MODE
        )


@criterion(6, "proven-theorem suite")
def test_criterion_6_proven_statements():
    checks = property_suite(n_max=5)
    for name, check in checks.items():
        print(f"  {name}: tested {check.tested}, violations {len(check.violations)}")
        assert check.passed, (name, check.violations)


@criterion(7, "reparametrization soundness over the census")
def test_criterion_7_reparametrization_soundness():
    checked = 0
    for (n, m) in REFERENCE_TABLE:
        verdicts = class_verdicts(reference_classes(n, m))
        for graph in enumerate_sc_graphs(n, m):
            if not verdicts[canonical_form(graph)].expected:
                continue
            first = spanning_tree(graph)
            trees = [first]
            second = alternate_spanning_tree(graph, first)
            if second is not None:
                trees.append(second)
            assert len(trees) == 2 or graph.n == 1
            for tree in trees:
                result = reparametrize(
                    graph, tree_edges=[graph.edges[k] for k in tree.edge_indices]
                )
                assert verify_reparametrization(graph, result), graph.to_json()
                checked += 1
    print(f"  reparametrized and verified {checked} (graph, tree) pairs")


@criterion(8, "randomization stability")
def test_criterion_8_randomization_stability():
    rng = random.Random(314159)
    upgrades = []
    for _ in range(200):
        n = rng.randrange(2, 6)
        graph = random_sc_graph(rng, n)
        cheap = image_dimension(graph, trials=2, seed=11)
        thorough = image_dimension(graph, trials=4, seed=22)
        assert cheap.d <= thorough.d, graph.to_json()
        if cheap.d != thorough.d:
            upgrades.append((graph.to_json(), cheap.d, thorough.d))
    for entry in upgrades:
        print(f"  resolved upward: {entry}")
    assert not upgrades or all(a < b for _, a, b in upgrades)
