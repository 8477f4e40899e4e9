import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from operator import mul

import pytest

from compident import (
    CompartmentGraph,
    LimitExceeded,
    NoReparametrization,
    NotExpectedDimension,
    NotStronglyConnected,
    TooManyEdges,
    census_classes,
    has_expected_dimension,
    identifiable_cycle_functions,
    image_dimension,
    io_equation_text,
    jacobian,
    numeric_coefficients,
    symbolic_coefficients,
)
from compident import charpoly as cp
from compident import census, exact, graphs, reparam
from compident.exact import MERSENNE61, PRIME_MODE, RATIONAL_MODE
from compident.monomial import name_order, signed_parts

from conftest import (
    BAD_SEEDS,
    BAD_TRIALS,
    clear_denominators,
    clear_graph_memos,
    count_calls,
    directed_cycle_graph,
    evaluate_symbolic,
    isc_adversary,
    oracle_distances,
    oracle_rank,
    oracle_strongly_connected,
    rank_gf_p_with_inverses,
    reference_classes,
    sympy_double_charpoly,
)


def total_degrees(poly) -> set[int]:
    return {sum(e) for e in poly}


def verdict_matrix(graph, point, mode=PRIME_MODE):
    """The (2n-1) x (m+1) matrix `image_dimension` ranks: the power rows of
    A and A_1 at the n diagonal and the m-n+1 non-tree parameters."""
    params = cp._verdict_params(graph, cp.spanning_tree(graph))
    rows, sub_rows = cp._power_rows(graph, point, exact.modulus(mode), params)
    return rows + sub_rows


# Maximal (m = 2n-2) with no exchange at vertex 1: d = 2n-2 = 8 < m+1.
NO_EXCHANGE5 = CompartmentGraph(
    5, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 2), (4, 5), (5, 1))
)

# One of the three classes of (4,6) whose d = 6 falls short of the walk
# bound, 7 = m+1: every trial falls short, so rational mode reaches Bareiss.
OPEN46 = CompartmentGraph(4, ((1, 2), (1, 3), (2, 1), (3, 4), (4, 1), (4, 3)))


def edge_exchange_bound(graph) -> int:
    """The 2n-1/2n-2 bound, the ceiling before the walk bound: 2n-1
    coefficients, less one when n >= 3 and vertex 1 has no exchange. Kept
    as a named check, as the walk bound is never above it."""
    return 2 * graph.n - 1 - (graph.n >= 3 and graphs.has_exchange(graph) is None)


def walk_bound(graph) -> int:
    """`_dimension_bound` under the default tree, off the walk of the
    preamble's connectivity check: the ceiling of every verdict."""
    walk = graphs._require_strongly_connected(graph, "")
    return cp._dimension_bound(graph, cp.spanning_tree(graph), walk)


def pool_positions(graph) -> list[int]:
    """The pool position of each parameter, in canonical order: a_vv at
    v-1, the edge (j, i) at n plus its index in `all_possible_edges(n)`."""
    order = census.all_possible_edges(graph.n)
    return list(range(graph.n)) + [graph.n + order.index(e) for e in graph.edges]


def pool_with(graph, point) -> tuple:
    """An n^2 pool that the verdict gathers to `point` on `graph`, 0 at the
    positions no parameter of `graph` reads."""
    pool = [0] * graph.n**2
    for k, x in zip(pool_positions(graph), point):
        pool[k] = x
    return tuple(pool)


def poly_from_names(graph, term_map):
    names = graph.param_names()
    poly = {}
    for factor_names, coeff in term_map.items():
        expo = [0] * len(names)
        for name in factor_names:
            expo[names.index(name)] += 1
        poly[tuple(expo)] = coeff
    return poly


def census_pick(n, m, exchange):
    """A seeded census representative of (n, m), with or without an
    exchange at vertex 1."""
    pool = [c.representative for c in reference_classes(n, m) if c.exchange == exchange]
    return random.Random(f"{n},{m},{exchange}").choice(pool)


def to_sympy(graph, poly):
    import sympy

    names = graph.param_names()
    expr = sympy.Integer(0)
    for expo, coeff in poly.items():
        term = sympy.Integer(coeff)
        for name, e in zip(names, expo):
            if e:
                term *= sympy.Symbol(name) ** e
        expr += term
    return sympy.expand(expr)


class TestSymbolicCoefficients:
    def test_chain4_y_prime_coefficient(self, chain4):
        cs, _ds = symbolic_coefficients(chain4)
        diag = ["a11", "a22", "a33", "a44"]
        expected = {}
        for skip in range(4):  # -E3 over the diagonals
            expected[tuple(d for k, d in enumerate(diag) if k != skip)] = -1
        expected[("a11", "a23", "a32")] = 1
        expected[("a12", "a21", "a33")] = 1
        expected[("a12", "a21", "a44")] = 1
        expected[("a23", "a32", "a44")] = 1
        expected[("a23", "a34", "a42")] = -1
        assert cs[2] == poly_from_names(chain4, expected)

    def test_single_vertex(self, single):
        cs, ds = symbolic_coefficients(single)
        assert len(cs) == 1 and ds == []
        assert cs[0] == poly_from_names(single, {("a11",): -1})

    def test_directed_cycle_d_polynomials(self, cycle3):
        _cs, ds = symbolic_coefficients(cycle3)
        assert ds[0] == poly_from_names(cycle3, {("a22",): -1, ("a33",): -1})
        assert ds[1] == poly_from_names(cycle3, {("a22", "a33"): 1})

    @pytest.mark.parametrize(
        "fixture",
        ["chain4", "broken4", "wheel5", "cycle3", "exchange2"]
        + [
            pytest.param((n, m, exchange), id=f"{n}-{m}-{'exchange' if exchange else 'no-exchange'}")
            for n, m in [(5, 7), (5, 8)]
            for exchange in (True, False)
        ],
    )
    def test_matches_sympy_determinant(self, fixture, request):
        if isinstance(fixture, str):
            graph = request.getfixturevalue(fixture)
        else:
            graph = census_pick(*fixture)
        cs, ds = symbolic_coefficients(graph)
        sym_cs, sym_ds = sympy_double_charpoly(graph)
        import sympy

        for mine, theirs in zip(cs + ds, sym_cs + sym_ds):
            assert sympy.expand(to_sympy(graph, mine) - theirs) == 0

    def test_homogeneity(self, chain4):
        cs, ds = symbolic_coefficients(chain4)
        for i, poly in enumerate(cs, start=1):
            assert total_degrees(poly) <= {i}
        for i, poly in enumerate(ds, start=1):
            assert total_degrees(poly) <= {i}

    def test_d_avoids_compartment_one(self, chain4):
        _cs, ds = symbolic_coefficients(chain4)
        names = chain4.param_names()
        banned = {
            k for k, name in enumerate(names) if "1" in (name[1], name[2])
        }
        for poly in ds:
            for expo in poly:
                assert all(expo[k] == 0 for k in banned)


class TestNumericCoefficients:
    def test_single_vertex_value(self, single):
        cs, ds = numeric_coefficients(single, [5], RATIONAL_MODE)
        assert cs == [-5] and ds == []

    def test_matches_symbolic_at_random_points(self, chain4):
        rng = random.Random(1)
        nparams = chain4.n + chain4.m
        for _ in range(5):
            point = [rng.randrange(1, MERSENNE61) for _ in range(nparams)]
            sym = evaluate_symbolic(chain4, point, PRIME_MODE)
            num = numeric_coefficients(
                chain4, [v % MERSENNE61 for v in point], PRIME_MODE
            )
            assert sym == (num[0], num[1])
            sym_q = evaluate_symbolic(chain4, point, RATIONAL_MODE)
            num_q = numeric_coefficients(chain4, point, RATIONAL_MODE)
            assert sym_q == (num_q[0], num_q[1])

    def test_point_of_the_wrong_length(self, chain4):
        for point in ([1] * (chain4.n + chain4.m - 1), [1] * (chain4.n + chain4.m + 1)):
            with pytest.raises(ValueError, match=f"expected {chain4.n + chain4.m} parameter values"):
                numeric_coefficients(chain4, point)

    def test_zero_assignment(self, chain4):
        nparams = chain4.n + chain4.m
        cs, ds = numeric_coefficients(chain4, [0] * nparams, RATIONAL_MODE)
        assert all(x == 0 for x in cs + ds)

    def test_exchange_pair_closed_form(self, exchange2):
        # char(A) = x^2 - (a11+a22)x + (a11a22 - a12a21), char(A1) = x - a22
        a11, a22, a21, a12 = 7, 11, 2, 3
        cs, ds = numeric_coefficients(exchange2, [a11, a22, a21, a12], RATIONAL_MODE)
        assert cs == [-(a11 + a22), a11 * a22 - a12 * a21]
        assert ds == [-a22]


class TestJacobian:
    def test_single_vertex(self, single):
        assert jacobian(single, [9], RATIONAL_MODE) == [[-1]]

    def test_exchange_pair_rank(self, exchange2):
        rng = random.Random(2)
        point = [rng.randrange(1, 10**6) for _ in range(4)]
        rows = jacobian(exchange2, point, RATIONAL_MODE)
        assert oracle_rank(rows) == 3

    def test_chain4_rank(self, chain4):
        rng = random.Random(3)
        point = [rng.randrange(1, 10**6) for _ in range(10)]
        rows = jacobian(chain4, point, RATIONAL_MODE)
        assert oracle_rank(rows) == 7

    def test_matches_symbolic_gradient(self, exchange2):
        # rows of the Jacobian are gradients of c1, c2, d1
        a11, a22, a21, a12 = 5, 6, 7, 8
        rows = jacobian(exchange2, [a11, a22, a21, a12], RATIONAL_MODE)
        assert rows[0] == [-1, -1, 0, 0]
        assert rows[1] == [a22, a11, -a12, -a21]
        assert rows[2] == [0, -1, 0, 0]


def random_sc_graphs(count: int, seed: int, max_n: int = 5):
    """Distinct strongly connected graphs on 3..max_n vertices; every other
    one draws from one orientation per vertex pair, so it has no two-cycle."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randrange(3, max_n + 1)
        pool = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1) if i != j]
        if len(out) % 2:
            pool = [e if rng.random() < 0.5 else e[::-1] for e in pool if e[0] < e[1]]
        m = rng.randrange(n, min(len(pool), 2 * n) + 1)
        g = CompartmentGraph(n, tuple(rng.sample(pool, m)))
        if oracle_strongly_connected(g) and g not in out:
            out.append(g)
    return out


class TestJacobianAgainstSympy:
    """The power-row Jacobian equals sympy's derivative of the
    determinant coefficients. Graphs with one-way edges make a transposed
    B_k index visible."""

    FIXTURES = ["single", "exchange2", "cycle3", "chain4", "broken4", "wheel5"]

    def test_fixtures_and_random_graphs(self, request):
        sympy = pytest.importorskip("sympy")
        graphs = [request.getfixturevalue(name) for name in self.FIXTURES]
        graphs += random_sc_graphs(10, seed=12)
        one_way = [g for g in graphs if all((i, j) not in g.edges for j, i in g.edges)]
        assert len(one_way) >= 5
        rng = random.Random(13)
        for g in graphs:
            cs, ds = sympy_double_charpoly(g)
            params = [sympy.Symbol(name) for name in g.param_names()]
            symbolic = sympy.Matrix(cs + ds).jacobian(params)
            for _ in range(2):
                point = [rng.randrange(-50, 51) for _ in params]
                expected = symbolic.subs(dict(zip(params, point)))
                expected = [[int(x) for x in expected.row(r)] for r in range(expected.rows)]
                assert jacobian(g, point, RATIONAL_MODE) == expected
                assert jacobian(g, point, PRIME_MODE) == [
                    [x % MERSENNE61 for x in row] for row in expected
                ]


class TestImageDimension:
    def test_chain4(self, chain4):
        report = image_dimension(chain4)
        assert report.d == 7 and report.verdict and report.expected == 7

    def test_broken4(self, broken4):
        report = image_dimension(broken4)
        assert report.d == 6 and not report.verdict

    def test_directed_cycle(self):
        report = image_dimension(directed_cycle_graph(4))
        assert report.d == 5 == report.expected

    def test_modes_agree(self, monkeypatch, request):
        """The rational report equals the prime-field one apart from `mode`,
        on a sample where both the mod-p certificate and Bareiss decide.
        After the prime-field call the rational one makes no kernel pass: it
        reads the prime-field report, and runs Bareiss once per trial only
        where that report falls short of the ceiling."""
        from compident.census import census_classes

        graphs = [c.representative for c in census_classes(4, 6)]
        graphs += [c.representative for c in census_classes(5, 8)[::23]]
        graphs += [request.getfixturevalue(name) for name in TestJacobianAgainstSympy.FIXTURES]
        ranks = count_calls(monkeypatch, cp._VerdictKernel, "pivots")
        bareiss = count_calls(monkeypatch, exact, "rank_bareiss")
        certified = 0
        for g in graphs:
            prime = image_dimension(g).as_dict()
            ranks.clear()
            bareiss.clear()
            rational = image_dimension(g, mode=RATIONAL_MODE).as_dict()
            full = prime["d"] == walk_bound(g)
            assert (len(ranks), len(bareiss)) == (0, 0 if full else prime["trials"]), g
            certified += full
            assert rational.pop("mode") == RATIONAL_MODE and prime.pop("mode") == PRIME_MODE
            assert rational == prime, g
        assert 0 < certified < len(graphs)

    def test_rejects_non_strongly_connected(self):
        g = CompartmentGraph(2, ((1, 2),))
        with pytest.raises(NotStronglyConnected):
            image_dimension(g)

    def test_monotone_in_trials(self):
        rng = random.Random(14)
        for _ in range(20):
            n = rng.randrange(2, 5)
            pool = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1) if i != j]
            m = rng.randrange(n, len(pool) + 1)
            g = CompartmentGraph(n, tuple(rng.sample(pool, m)))
            from conftest import oracle_strongly_connected

            if not oracle_strongly_connected(g):
                continue
            d1 = image_dimension(g, trials=1, seed=5).d
            d3 = image_dimension(g, trials=3, seed=5).d
            assert d1 <= d3
            assert d3 <= min(g.m + 1, 2 * g.n - 1)

    def test_deterministic_given_seed(self, chain4):
        a = image_dimension(chain4, trials=3, seed=42)
        b = image_dimension(chain4, trials=3, seed=42)
        assert a == b

    @staticmethod
    def scaling_generators(graph, point):
        """Tangent vectors of the diagonal scalings diag(1, t_2, .., t_n) at
        `point`: edge (j, i) carrying a_ij moves by a_ij * ([i == k] - [j == k])."""
        n = graph.n
        return [
            [0] * n
            + [point[n + e] * ((i == k) - (j == k)) for e, (j, i) in enumerate(graph.edges)]
            for k in range(2, n + 1)
        ]

    def test_scalings_span_the_kernel_ceiling(self):
        from compident.exact import rank_mod_p

        graphs = [c.representative for c in reference_classes(4, 6)]
        graphs += [c.representative for c in reference_classes(5, 8)[::40]]
        rng = random.Random(61)
        for g in graphs:
            point = [rng.randrange(1, MERSENNE61) for _ in range(g.n + g.m)]
            jac = jacobian(g, point, PRIME_MODE)
            generators = self.scaling_generators(g, point)
            for v in generators:
                for row in jac:
                    assert sum(a * b for a, b in zip(row, v)) % MERSENNE61 == 0
            assert rank_mod_p(generators) == g.n - 1
            assert rank_mod_p(jac) <= g.m + 1

    def test_stops_at_the_ceiling(self, monkeypatch, chain4, broken4):
        """chain4 reaches m+1 at its first point; broken4 falls short of
        m+1 there and stops at its walk bound, 6; OPEN46 falls short of its
        walk bound, 7, at both points."""
        calls = count_calls(monkeypatch, cp._VerdictKernel, "pivots")
        report = image_dimension(chain4, trials=2)
        assert (len(calls), report.d, report.verdict, report.trials) == (1, 7, True, 2)
        calls.clear()
        report = image_dimension(broken4, trials=2)
        assert (len(calls), report.d, report.verdict, report.trials) == (1, 6, False, 2)
        calls.clear()
        report = image_dimension(OPEN46, trials=2)
        assert (len(calls), report.d, report.verdict, report.trials) == (2, 6, False, 2)

    @pytest.mark.parametrize("mode", [PRIME_MODE, RATIONAL_MODE])
    def test_stops_at_2n_minus_1(self, monkeypatch, mode):
        """m+1 = 46 > 2n-1 = 17: the first trial reaching 17 is the last."""
        calls = count_calls(monkeypatch, cp._VerdictKernel, "pivots")
        report = image_dimension(isc_adversary(9), trials=2, mode=mode)
        assert len(calls) == 1
        assert (report.d, report.expected, report.verdict, report.trials) == (17, 46, False, 2)

    @pytest.mark.parametrize("mode", [PRIME_MODE, RATIONAL_MODE])
    def test_stops_at_2n_minus_2_without_an_exchange(self, monkeypatch, mode):
        """With no exchange the ceiling is 2n-2 = 8: one trial, and in
        rational mode the 7 x 7 M', whose repeated row gives it rank 6, is
        certified mod p at that rank with no Bareiss. The report is the one
        the 2n-1 ceiling gave."""
        calls = count_calls(monkeypatch, cp._VerdictKernel, "pivots")
        bareiss = count_calls(monkeypatch, exact, "rank_bareiss")
        report = image_dimension(NO_EXCHANGE5, trials=2, mode=mode)
        assert (len(calls), len(bareiss)) == (1, 0)
        assert report.as_dict() == {
            "n": 5, "m": 8, "d": 8, "expected": 9, "verdict": False,
            "trials": 2, "seed": 0, "mode": mode,
        }

    def test_picks_the_tree_once(self, monkeypatch, broken4):
        calls = count_calls(monkeypatch, cp, "spanning_tree")
        report = image_dimension(broken4, trials=2)
        assert (len(calls), report.trials, report.d) == (1, 2, 6)

    def test_rational_deficient_rank_reaches_bareiss(self, monkeypatch):
        calls = count_calls(monkeypatch, exact, "rank_bareiss")
        assert image_dimension(OPEN46, trials=2, mode=RATIONAL_MODE).d == 6
        assert len(calls) == 2


class TestRationalVerdicts:
    """Rational mode ranks M' mod p first. A rank at min(rows, cols) is the
    rank over Q, so only a shortfall builds the exact rows (p = 0) and runs
    Bareiss on them."""

    @staticmethod
    def exact_builds(monkeypatch) -> list:
        """Patch `_power_rows` to record the vertex count of each call
        made with p = 0."""
        calls = []
        real = cp._power_rows

        def recording(graph, values, p, params):
            if not p:
                calls.append(graph.n)
            return real(graph, values, p, params)

        monkeypatch.setattr(cp, "_power_rows", recording)
        return calls

    def test_expected_classes_build_no_exact_rows(self, monkeypatch):
        calls = self.exact_builds(monkeypatch)
        expected = [c.representative for c in census_classes(4, 6) if c.expected]
        assert len(expected) == 30
        assert all(image_dimension(g, mode=RATIONAL_MODE).verdict for g in expected)
        assert calls == []

    def test_exact_analyze_of_a_long_path_builds_no_exact_rows(self, monkeypatch, tmp_path, capsys):
        from compident.cli import main

        calls = self.exact_builds(monkeypatch)
        path = tmp_path / "path10.json"
        path.write_text(bidirected_path(10).to_json())
        assert main(["analyze", str(path), "--json", "--exact"]) == 0
        assert '"mode": "rational"' in capsys.readouterr().out
        assert calls == []

    def test_one_exact_build_per_trial_on_a_shortfall(self, monkeypatch):
        calls = self.exact_builds(monkeypatch)
        for trials in (1, 2, 3):
            calls.clear()
            report = image_dimension(OPEN46, trials=trials, mode=RATIONAL_MODE)
            assert (report.d, report.trials, calls) == (6, trials, [OPEN46.n] * trials)

    def test_broken4_path_needs_no_bareiss(self, monkeypatch):
        """broken4's edges followed by a bidirected path out to n = 14
        (m = 26): d = 26 falls short of m+1 and is the walk bound, so the
        prime-field report, one kernel pass, is exact and rational mode runs
        no Bareiss. With the 2n-1 ceiling alone every trial went to
        Bareiss over Z, whose entries grow with n (0.23 s here)."""
        edges = [(2, 1), (1, 2), (3, 2), (4, 3), (2, 4), (3, 4)]
        edges += [e for v in range(4, 14) for e in ((v, v + 1), (v + 1, v))]
        g = CompartmentGraph(14, tuple(edges))
        passes = count_calls(monkeypatch, cp._VerdictKernel, "pivots")
        bareiss = count_calls(monkeypatch, exact, "rank_bareiss")
        report = image_dimension(g, mode=RATIONAL_MODE)
        assert (report.d, report.verdict, walk_bound(g)) == (26, False, 26)
        assert (len(passes), len(bareiss)) == (1, 0)

    def test_bareiss_ranks_every_row_of_the_verdict_matrix(self, monkeypatch, chain4):
        """At this integer point chain4's M has rank 6 < 7, and dropping row
        1 of A or row 1 of A_1 would leave 5 (Fraction elimination): the
        rational shortfall path reads d = 6, so Bareiss ranks every row of
        M. A chosen point is needed: at the first sampled point of every
        deficient class of (4,5)-(6,8), neither row changes the rank."""
        point = [3, -1, 3, 3, -1, -1, 2, 1, -1, -2]
        rows = verdict_matrix(chain4, point, RATIONAL_MODE)
        assert oracle_rank(rows) == 6
        for dropped in (1, chain4.n + 1):  # row 1 of A, row 1 of A_1
            assert oracle_rank(rows[:dropped] + rows[dropped + 1 :]) == 5
        monkeypatch.setattr(cp, "_point_pool", lambda seed, n, trial: pool_with(chain4, point))
        report = image_dimension(chain4, trials=1, mode=RATIONAL_MODE)
        assert (report.d, report.verdict) == (6, False)

    def test_reports_match_prime_mode(self):
        for n, m in ((4, 6), (5, 7), (5, 8)):
            for c in reference_classes(n, m):
                prime = image_dimension(c.representative).as_dict()
                rational = image_dimension(c.representative, mode=RATIONAL_MODE).as_dict()
                assert (prime.pop("mode"), rational.pop("mode")) == (PRIME_MODE, RATIONAL_MODE)
                assert rational == prime, c.representative

    def test_rational_after_prime_reads_the_prime_report(self, monkeypatch):
        """On every class of (4,6), (5,7) and (5,8), a rational call after
        the prime-field one makes no kernel pass and draws no pool. Where the
        prime-field d is the ceiling, it gathers no point and runs no
        Bareiss; elsewhere every trial fell short mod p, and it gathers the
        same points again from the kept pools, one pool read per trial, and
        ranks each by Bareiss. The two reports differ only in `mode`."""
        passes = count_calls(monkeypatch, cp._VerdictKernel, "pivots")
        draws = count_calls(monkeypatch, cp, "derived_rng")
        gathers = count_calls(monkeypatch, cp, "_point_pool")
        bareiss = count_calls(monkeypatch, exact, "rank_bareiss")
        full = short = 0
        for n, m in ((4, 6), (5, 7), (5, 8)):
            for c in reference_classes(n, m):
                g = c.representative
                prime = image_dimension(g)
                for calls in (passes, draws, gathers, bareiss):
                    calls.clear()
                rational = image_dimension(g, mode=RATIONAL_MODE)
                if prime.d == walk_bound(g):
                    assert (len(passes), len(draws), len(gathers), len(bareiss)) == (0, 0, 0, 0), g
                    full += 1
                else:
                    trials = prime.trials
                    assert (len(passes), len(draws), len(gathers), len(bareiss)) == (0, 0, trials, trials), g
                    short += 1
                assert rational.mode == RATIONAL_MODE and replace(rational, mode=PRIME_MODE) == prime, g
        assert full + short == 55 + 281 + 1158 and short > 0


class TestSamplePoint:
    """`sample_point` draws by rejection from 61 random bits and gives the
    values `randrange(1, p)` gives, from the same stream position."""

    def test_equals_randrange(self):
        for seed in range(4):
            for n, trial in ((4, 0), (4, 1), (10, 0)):
                ours, theirs = cp.derived_rng(seed, n, trial), cp.derived_rng(seed, n, trial)
                for count in (1, 13, 997, 2500):
                    assert cp.sample_point(ours, count) == [
                        theirs.randrange(1, MERSENNE61) for _ in range(count)
                    ]
                assert ours.getstate() == theirs.getstate()

    def test_rejection(self):
        """Draws of p - 1 and p are rejected, as `randrange` rejects them."""

        class Scripted(random.Random):
            def __init__(self, draws):
                super().__init__(0)
                self.draws = list(draws)

            def getrandbits(self, k):
                assert k == 61
                return self.draws.pop(0)

        draws = [MERSENNE61 - 1, MERSENNE61, 0, MERSENNE61 - 2, MERSENNE61, 7]
        assert cp.sample_point(Scripted(draws), 3) == [1, MERSENNE61 - 1, 8]
        script = Scripted(draws)
        assert [script.randrange(1, MERSENNE61) for _ in range(3)] == [1, MERSENNE61 - 1, 8]


class TestPointPool:
    """A verdict's point for trial t gathers the pool of (seed, n, t), n^2
    values drawn once, at its parameters' positions (the module
    docstring)."""

    def test_positions_are_injective_and_below_n_squared(self, monkeypatch):
        """Gathered from the pool 0, 1, .., n^2-1, a point reads its
        positions: exactly 0..n^2-1 on the complete digraph, and
        `pool_positions`, a subsequence of those, on any graph."""
        monkeypatch.setattr(cp, "_point_pool", lambda seed, n, trial: tuple(range(n * n)))
        rng = random.Random(46)
        for n in range(1, 7):
            complete = complete_digraph(n)
            assert sorted(next(cp._verdict_points(complete, 0, 1))) == list(range(n * n))
            for g in [complete] + [complete.edge_subgraph(rng.getrandbits(complete.m)) for _ in range(10)]:
                assert list(cp._verdict_points(g, 0, 2)) == [pool_positions(g)] * 2, g

    def test_more_trials_extend_fewer(self, monkeypatch):
        """OPEN46 falls short at every point, so every trial is ranked: the
        first two of three points are the two points of trials=2, and
        each point is the gather of its trial's pool."""
        points = []
        real = cp._VerdictKernel.pivots

        def recording(kernel, values, most):
            points.append(list(values))
            return real(kernel, values, most)

        monkeypatch.setattr(cp._VerdictKernel, "pivots", recording)
        image_dimension(OPEN46, trials=2, seed=9)
        two = points[:]
        image_dimension(OPEN46, trials=3, seed=9)
        assert len(two) == 2 and points[2:4] == two and len(points) == 5
        for trial, point in enumerate(points[2:]):
            pool = cp._point_pool(9, OPEN46.n, trial)
            assert point == [pool[k] for k in pool_positions(OPEN46)]

    def test_equal_graphs_built_separately_share_points(self):
        """`CompartmentGraph(n, edges)` and the same edges as a subgraph of
        the complete digraph, with every memo emptied between them, get
        the same point at each trial."""
        complete = complete_digraph(4)
        order = complete.edges
        built = CompartmentGraph(4, ((1, 2), (2, 3), (3, 1), (3, 4), (4, 1)))
        selected = complete.edge_subgraph(sum(1 << complete.m - 1 - order.index(e) for e in built.edges))
        assert selected == built and selected is not built
        points = list(cp._verdict_points(built, 3, 3))
        clear_graph_memos()
        assert list(cp._verdict_points(selected, 3, 3)) == points and len(points) == 3

    def test_entries_are_nonzero_below_p(self):
        for seed, n, trial in ((0, 1, 0), (0, 5, 0), (0, 5, 1), (7, 6, 2)):
            pool = cp._point_pool(seed, n, trial)
            assert len(pool) == n * n and all(1 <= x <= MERSENNE61 - 1 for x in pool)
        assert cp._point_pool(0, 5, 0) != cp._point_pool(0, 5, 1) != cp._point_pool(1, 5, 1)

    def test_a_census_row_draws_one_pool_per_trial(self, monkeypatch):
        """A whole `census_row(4, 6)`, which runs serially, draws at most
        `trials` pools, and the second row at the same seed none."""
        draws = count_calls(monkeypatch, cp, "derived_rng")
        for trials in (2, 3):
            clear_graph_memos()
            draws.clear()
            census.census_row(4, 6, trials=trials)
            assert 0 < len(draws) <= trials
            census.census_row(4, 6, trials=trials)
            assert len(draws) <= trials


def bidirected_path(n: int) -> CompartmentGraph:
    return CompartmentGraph(n, tuple(e for v in range(1, n) for e in ((v, v + 1), (v + 1, v))))


def dense_powers(graph, values, offset: int) -> list:
    """A^0 .. A^size by plain triple loops, for A (offset 0, size n) or A_1
    (offset 1, size n-1), on the parameters in canonical order."""
    size = graph.n - offset
    a = [[0] * size for _ in range(size)]
    entries = [(v, v) for v in range(1, graph.n + 1)] + [(i, j) for j, i in graph.edges]
    for (r, c), x in zip(entries, values):
        if r > offset and c > offset:
            a[r - 1 - offset][c - 1 - offset] = x
    powers = [[[int(r == c) for c in range(size)] for r in range(size)]]
    while len(powers) <= size:
        prev = powers[-1]
        powers.append(
            [[sum(prev[r][k] * a[k][c] for k in range(size)) for c in range(size)] for r in range(size)]
        )
    return powers


def reference_power_rows(graph, values, p: int, params) -> tuple[list, list]:
    """The `_power_rows` contract from whole dense powers: row i holds
    (A^i)[c][r] for the parameter at A[r][c], 0 outside A_1."""
    entries = [(v, v) for v in range(1, graph.n + 1)] + [(i, j) for j, i in graph.edges]
    out = []
    for offset in (0, 1):
        rows = []
        for power in dense_powers(graph, values, offset)[:-1]:
            row = []
            for k in params:
                r, c = entries[k]
                x = power[c - 1 - offset][r - 1 - offset] if min(r, c) > offset else 0
                row.append(x % p if p else x)
            rows.append(row)
        out.append(rows)
    return out[0], out[1]


def packed_power_rows(graph, values, params) -> tuple[list, list]:
    """`_power_rows` mod p read from `_VerdictKernel.packed`: for the
    parameter at A[r][c], row i of the A part holds slot r of row c of
    power i, and row i of the A_1 part slot n + r - 1 of the same row (0
    outside A_1), each then reduced mod p. Row 0 is the identity's."""
    n, p = graph.n, MERSENNE61
    kernel = cp._VerdictKernel(graph, cp.spanning_tree(graph))
    width = kernel.width
    mask = (1 << width) - 1
    entries = [(v, v) for v in range(n)] + [(i - 1, j - 1) for j, i in graph.edges]
    cells = [entries[k] for k in params]
    rows = [[int(r == c) for r, c in cells]]
    sub_rows = [[int(r == c > 0) for r, c in cells]] if n > 1 else []
    for i, power in enumerate(kernel.packed(values), start=1):
        rows.append([(power[c] >> r * width & mask) % p for r, c in cells])
        if i < n - 1:
            sub_rows.append([(power[c] >> (n + r - 1) * width & mask) % p if r and c else 0 for r, c in cells])
    return rows, sub_rows


def reference_coefficients(graph, values) -> tuple[list, list]:
    """(c_1..c_n, d_1..d_(n-1)) by Newton's identities on the traces of the
    dense powers, in exact arithmetic."""
    out = []
    for offset in (0, 1):
        powers = dense_powers(graph, values, offset)
        traces = [sum(P[v][v] for v in range(len(P))) for P in powers[1:]]
        coeffs = []
        for j in range(1, len(traces) + 1):
            total = traces[j - 1] + sum(coeffs[i] * traces[j - 2 - i] for i in range(j - 1))
            coeffs.append(-Fraction(total) / j)
        out.append(coeffs)
    return out[0], out[1]


def complete_digraph(n: int) -> CompartmentGraph:
    return CompartmentGraph(n, tuple((j, i) for j in range(1, n + 1) for i in range(1, n + 1) if i != j))


class TestPowerRows:
    """The rows of `_power_rows`, a plain list loop, equal whole dense
    powers in both modes, and so do the packed powers of
    `_VerdictKernel.packed`, read out slot by slot mod p."""

    @staticmethod
    def graphs():
        graphs = [bidirected_path(n) for n in range(1, 11)]
        graphs += [isc_adversary(n) for n in range(3, 10)]
        return graphs + random_sc_graphs(200, seed=81, max_n=8)

    def test_matches_dense_powers(self):
        rng = random.Random(82)
        graphs = self.graphs()
        assert {g.n for g in graphs} == set(range(1, 11))
        for g in graphs:
            count = g.n + g.m
            point = [rng.randrange(1, MERSENNE61) for _ in range(count)]
            subsets = [list(range(count)), cp._verdict_params(g, cp.spanning_tree(g))]
            for p in (MERSENNE61, 0):
                for params in subsets:
                    assert cp._power_rows(g, point, p, params) == reference_power_rows(
                        g, point, p, params
                    ), (g, p)
            for params in subsets:
                assert packed_power_rows(g, point, params) == reference_power_rows(
                    g, point, MERSENNE61, params
                ), g

    def test_fraction_values(self):
        """Power rows take ints only: a Fraction point raises TypeError in
        both modes, also at n = 1 where no product is formed, and the same
        point with its denominators cleared, small values of both signs,
        gives the dense powers and coefficients."""
        rng = random.Random(83)
        assert self.graphs()[0].n == 1
        for g in self.graphs()[::4]:
            fractions = [Fraction(rng.randrange(-40, 41), rng.randrange(1, 9)) for _ in range(g.n + g.m)]
            everything = list(range(g.n + g.m))
            for p in (MERSENNE61, 0):
                with pytest.raises(TypeError):
                    cp._power_rows(g, fractions, p, everything)
            point = clear_denominators(fractions)
            assert cp._power_rows(g, point, 0, everything) == reference_power_rows(g, point, 0, everything)
            assert numeric_coefficients(g, point, RATIONAL_MODE) == reference_coefficients(g, point), g

    @staticmethod
    def check(graph, values, moduli) -> None:
        """The list rows in each of `moduli`, and mod p the packed ones too,
        equal the dense powers."""
        everything = list(range(graph.n + graph.m))
        for p in moduli:
            reference = reference_power_rows(graph, values, p, everything)
            assert cp._power_rows(graph, values, p, everything) == reference, (graph, p)
            if p:
                assert packed_power_rows(graph, values, everything) == reference, graph

    def test_maximal_carries(self):
        """Every value p - 1 fills the packed slots to their bounds: the
        second power of a complete digraph has product slots n (p-1)^2,
        which need all 122 + n.bit_length() bits when n is 3 or 7, and a
        later product overflows unless both folds ran. So a slot one bit
        narrower, or a fold left out, changes the packed rows. With p = 0
        the list rows hold A^(n-1)'s largest entry, n^(n-2) (p-1)^(n-1)."""
        graphs = [complete_digraph(n) for n in range(2, 9)] + [bidirected_path(20), bidirected_path(40)]
        for g in graphs:
            self.check(g, [MERSENNE61 - 1] * (g.n + g.m), (MERSENNE61, 0))

    def test_packed_slots(self):
        """Raw slots of the packed powers: row 0 holds nothing past its n
        A slots in any power, since vertex 1 has no row in A_1, no row
        reaches past its 2n - 1 slots, and at every value p - 1 on a
        complete digraph, which fills the slots to their bounds, every
        slot is below 2^61 + 2^e, e = width - 122."""
        for n in range(2, 9):
            g = complete_digraph(n)
            kernel = cp._VerdictKernel(g, cp.spanning_tree(g))
            width = kernel.width
            mask, bound = (1 << width) - 1, (1 << 61) + (1 << width - 122)
            powers = kernel.packed([MERSENNE61 - 1] * (g.n + g.m))
            assert [len(power) for power in powers] == [n] * (n - 1)
            for power in powers:
                assert power[0] >> n * width == 0, n
                for row in power:
                    assert row >> (2 * n - 1) * width == 0, n
                    assert all(row >> k * width & mask < bound for k in range(2 * n - 1)), n

    def test_negative_and_fraction_values(self):
        """Exact rows at p = 0 with entries of both signs: all entries
        negative, mixed signs, and Fractions with large numerators over
        distinct denominators, cleared to ints far wider than 61 bits."""
        rng = random.Random(84)
        for g in [complete_digraph(n) for n in range(2, 9)] + [bidirected_path(20)]:
            count = g.n + g.m
            self.check(g, [1 - MERSENNE61] * count, (0,))
            self.check(g, [rng.choice([-1, 1]) * rng.randrange(MERSENNE61) for _ in range(count)], (0,))
            fractions = [Fraction(rng.randrange(-MERSENNE61, MERSENNE61), rng.randrange(1, 10**6)) for _ in range(count)]
            self.check(g, clear_denominators(fractions), (0,))

    def test_single_vertex(self, single):
        """n = 1: A^0 = [1] is the only row and A_1 is empty."""
        for values in ([5], [MERSENNE61 - 1], [-3]):
            for p in (MERSENNE61, 0):
                assert cp._power_rows(single, values, p, [0]) == ([[1]], [])
                self.check(single, values, (p,))

    def test_all_zero_point(self):
        """At A = 0 the powers are I, 0, 0, .., so row 0 holds the
        identity's 1 although every entry of A is 0. The Jacobian there
        is the gradient of c_1 = -tr(A) and d_1 = -tr(A_1) alone: c_k and
        d_k are homogeneous of degree k, so their gradients vanish for
        k >= 2."""
        graphs = [bidirected_path(n) for n in range(1, 7)] + [complete_digraph(n) for n in range(2, 7)]
        for g in graphs:
            n, count = g.n, g.n + g.m
            zeros = [0] * count
            trace = [-int(k < n) for k in range(count)]
            sub_trace = [-int(0 < k < n) for k in range(count)]
            expected = [trace] + [[0] * count] * (n - 1)
            expected += [sub_trace] + [[0] * count] * (n - 2) if n > 1 else []
            for mode in (PRIME_MODE, RATIONAL_MODE):
                p = exact.modulus(mode)
                self.check(g, zeros, (p,))
                assert jacobian(g, zeros, mode) == [[x % p if p else x for x in row] for row in expected], (g, mode)


def reduced_verdict_rows(n: int, rows: list, sub_rows: list) -> list[list]:
    """M' as lists: rows 1.. of both power blocks at a_vv - a22 (v >= 3) and the non-tree edges."""
    return [[x - row[1] for x in row[2:n]] + row[n:] for row in rows[1:] + sub_rows[1:]]


class TestReducedVerdictMatrix:
    """rank(M) = min(n, 2) + rank(M'): the two identity rows of the
    verdict matrix eliminated in closed form."""

    @staticmethod
    def check(graphs, seed) -> int:
        rng = random.Random(seed)
        for g in graphs:
            params = cp._verdict_params(g, cp.spanning_tree(g))
            point = [rng.randrange(1, MERSENNE61) for _ in range(g.n + g.m)]
            for mode in (PRIME_MODE, RATIONAL_MODE):
                rows, sub_rows = cp._power_rows(g, point, exact.modulus(mode), params)
                reduced = reduced_verdict_rows(g.n, rows, sub_rows)
                if g.n > 1:
                    assert len(reduced) == 2 * g.n - 3
                    assert all(len(row) == g.m - 1 for row in reduced)
                full = exact.rank(rows + sub_rows, mode)
                assert min(g.n, 2) + exact.rank(reduced, mode) == full, (g, mode)
        return len(graphs)

    def test_census_classes(self):
        graphs = []
        for n, m in ((3, 4), (4, 6), (5, 7), (5, 8)):
            graphs += [c.representative for c in reference_classes(n, m)]
        assert self.check(graphs, seed=91) > 1000

    def test_small_and_long(self, single, exchange2):
        self.check([single, exchange2, bidirected_path(2), bidirected_path(10)], seed=92)
        assert reduced_verdict_rows(1, [[1]], []) == []


def pivots_gf_p(rows) -> list[int]:
    """First independent columns over GF(2^61 - 1), by textbook
    elimination with inverses on the reduced entries."""
    p = MERSENNE61
    mat = [[x % p for x in row] for row in rows]
    pivots = []
    for col in range(len(mat[0]) if mat else 0):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col]
            mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
    return pivots


def list_built_reduced(graph, point) -> list[list]:
    """M' from the power-row lists mod p: `reduced_verdict_rows` at the
    verdict columns, every row kept."""
    params = cp._verdict_params(graph, cp.spanning_tree(graph))
    return reduced_verdict_rows(graph.n, *cp._power_rows(graph, point, MERSENNE61, params))


def over_full_graphs(count: int, seed: int) -> list:
    """Distinct strongly connected graphs with m > 2n-2 on 3..8 vertices,
    alternately with an exchange at vertex 1 (one two-cycle through it is
    forced in) and without one (one edge of each such two-cycle is left
    out of the pool, so n >= 4)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        no_exchange = len(out) % 2
        n = rng.randrange(3 + no_exchange, 9)
        pool = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1) if i != j]
        if no_exchange:
            forced = []
            pool = [e for e in pool if 1 not in e] + [rng.choice([(1, v), (v, 1)]) for v in range(2, n + 1)]
        else:
            v = rng.randrange(2, n + 1)
            forced = [(1, v), (v, 1)]
            pool = [e for e in pool if e not in forced]
        m = rng.randrange(2 * n - 1, len(pool) + len(forced) + 1)
        edges = forced + rng.sample(pool, m - len(forced))
        rng.shuffle(edges)
        g = CompartmentGraph(n, tuple(edges))
        if oracle_strongly_connected(g) and g not in out:
            assert (graphs.has_exchange(g) is None) == bool(no_exchange)
            out.append(g)
    return out


class TestVerdictKernel:
    """`_VerdictKernel` gathers M' packed from the powers, column by column
    in one pass that stops at the pivot count its caller asks for, and its
    pivots are those of the list-built M'."""

    SMALL = (1, 2, MERSENNE61 - 1, MERSENNE61 - 2)

    @classmethod
    def points(cls, graph, rng):
        """A uniform point, and one drawn from {1, 2, p-1, p-2}."""
        count = graph.n + graph.m
        return [
            [rng.randrange(1, MERSENNE61) for _ in range(count)],
            [rng.choice(cls.SMALL) for _ in range(count)],
        ]

    @staticmethod
    def check(graph, point, most=None) -> list[int]:
        """The kernel's pivot count, in a pass that stops at `most` pivots
        (the row count of M' by default), equals `rank_mod_p` of the
        list-built M' capped at `most`; returns the kernel's pivots."""
        kernel = cp._VerdictKernel(graph, cp.spanning_tree(graph))
        reduced = list_built_reduced(graph, point)
        assert (kernel.nrows, kernel.ncols) == (len(reduced), len(reduced[0]) if reduced else 0)
        most = kernel.nrows if most is None else most
        pivots = kernel.pivots(point, most)
        assert len(pivots) == min(exact.rank_mod_p(reduced), most), (graph, point)
        return pivots

    @staticmethod
    def record_columns(monkeypatch) -> list:
        """Patch `_VerdictKernel._columns` to append, per call, the number
        of columns read from it."""
        reads = []
        real = cp._VerdictKernel._columns

        def recording(self, powers):
            reads.append(0)
            for column in real(self, powers):
                reads[-1] += 1
                yield column

        monkeypatch.setattr(cp._VerdictKernel, "_columns", recording)
        return reads

    def test_census_classes(self):
        rng = random.Random(101)
        count = 0
        for n, m in ((4, 6), (5, 7), (5, 8)):
            for entry in reference_classes(n, m):
                for point in self.points(entry.representative, rng):
                    self.check(entry.representative, point)
                    count += 1
        assert count == 2 * (55 + 281 + 1158)

    def test_small_graphs(self, single, exchange2, cycle3):
        """M' is 0 x 0 at n = 1, 1 x 1 for the exchange pair and 3 x 2 for
        the directed 3-cycle, and its pivots are the list-built M''s; the
        packed powers are A^1 .. A^(n-1), none at n = 1."""
        rng = random.Random(107)
        for g, shape in ((single, (0, 0)), (exchange2, (1, 1)), (cycle3, (3, 2))):
            kernel = cp._VerdictKernel(g, cp.spanning_tree(g))
            assert (kernel.nrows, kernel.ncols) == shape
            for point in self.points(g, rng):
                assert len(kernel.packed(point)) == g.n - 1
                assert self.check(g, point) == pivots_gf_p(list_built_reduced(g, point))

    def test_over_full_graphs(self, monkeypatch):
        """Wide M': one pass per `pivots` call, stopped at the pivot limit
        of the 2n-1/2n-2 bound, `edge_exchange_bound(g)` - 2, reads each
        column once, up to the pivot that reaches the limit, or all of
        them when the rank falls short. On the half with no exchange at
        vertex 1 the limit is 2n-4, one below the row count of M', whose
        repeated row keeps the rank there: the pass stops at the same
        column as a pass over M' less that row. The sample holds points
        whose first min(rows, cols) columns are dependent, and ranks below
        the limit."""
        reads = self.record_columns(monkeypatch)
        rng = random.Random(102)
        sample = over_full_graphs(1000, seed=103)
        assert {g.n for g in sample} == set(range(3, 9))
        past_square = short = below_rows = 0
        for g in sample:
            kernel = cp._VerdictKernel(g, cp.spanning_tree(g))
            most = edge_exchange_bound(g) - 2
            assert kernel.nrows == 2 * g.n - 3 < kernel.ncols
            assert most == kernel.nrows - (graphs.has_exchange(g) is None)
            below_rows += most < kernel.nrows
            for point in self.points(g, rng):
                reads.clear()
                pivots = self.check(g, point, most)
                full = len(pivots) == most
                assert reads == [pivots[-1] + 1 if full else kernel.ncols]
                past_square += reads[0] > most
                short += not full
        assert below_rows == 500
        assert past_square > 20 and short > 0, (past_square, short)

    def test_pivots_are_the_first_independent_columns(self):
        rng = random.Random(104)
        sample = over_full_graphs(60, seed=105) + random_sc_graphs(60, seed=106, max_n=7)
        for g in sample:
            for point in self.points(g, rng):
                kernel = cp._VerdictKernel(g, cp.spanning_tree(g))
                assert kernel.pivots(point, kernel.nrows) == pivots_gf_p(list_built_reduced(g, point)), g

    # (graph, point) with a wide M' whose leading square block falls short,
    # found by search over points in {1, 2, p-1, p-2}: the whole M' has
    # full rank at the first, and falls short too at the second.
    LEADING_SHORT = (
        ((1, 2), (2, 1), (2, 3), (3, 1), (3, 2)),
        (1, -1, -1, -2, -1, -1, 1, 1),
        3,
    )
    BOTH_SHORT = (
        ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1)),
        (-1, -2, -2, -1, -1, -1, -1, 2),
        2,
    )

    @pytest.mark.parametrize("case", [LEADING_SHORT, BOTH_SHORT], ids=["leading-short", "both-short"])
    def test_pinned_shortfalls(self, monkeypatch, case):
        """One pass: LEADING_SHORT reaches rank 3 at its 4th column, and
        BOTH_SHORT reads all 4 columns."""
        edges, point, rank = case
        g = CompartmentGraph(3, edges)
        point = [x % MERSENNE61 for x in point]
        reads = self.record_columns(monkeypatch)
        kernel = cp._VerdictKernel(g, cp.spanning_tree(g))
        reduced = list_built_reduced(g, point)
        assert (kernel.nrows, kernel.ncols) == (3, 4)
        assert exact.rank_mod_p([row[:3] for row in reduced]) == 2
        pivots = kernel.pivots(point, kernel.nrows)
        assert pivots == pivots_gf_p(reduced)
        assert (len(pivots), reads) == (rank, [4])
        assert (pivots[-1] == 3) == (rank == 3)

    def test_isc_adversary_gathers_the_leading_block(self, monkeypatch):
        """M' of isc_adversary(9) is 15 x 44; the verdict reads its first
        15 columns, once, and reaches the 2n-1 ceiling there."""
        g = isc_adversary(9)
        kernel = cp._VerdictKernel(g, cp.spanning_tree(g))
        assert (kernel.nrows, kernel.ncols) == (15, 44)
        reads = self.record_columns(monkeypatch)
        assert image_dimension(g).d == 17
        assert reads == [15]

    def test_over_full_graph_without_an_exchange_stops_at_the_ceiling(self, monkeypatch):
        """n = 8, m = 49, with no exchange at vertex 1: M' is 13 x 48 and
        the ceiling, the walk bound, is 2n-2 = 14, so the verdict's pass
        stops at 12 pivots and reads its first 12 columns, once: as many
        as a pass over M' less its repeated row, whose rank is that row
        count."""
        edges = [(j, i) for j in range(2, 9) for i in range(2, 9) if i != j]
        edges += [(1, v) for v in range(2, 5)] + [(v, 1) for v in range(5, 9)]
        g = CompartmentGraph(8, tuple(edges))
        assert (g.m, graphs.has_exchange(g), edge_exchange_bound(g)) == (49, None, 14)
        assert cp._verdict_ceiling(g, 2, 0, PRIME_MODE, "")[3] == 14
        kernel = cp._VerdictKernel(g, cp.spanning_tree(g))
        assert (kernel.nrows, kernel.ncols) == (13, 48)
        reads = self.record_columns(monkeypatch)
        for mode, expected in ((PRIME_MODE, [12]), (RATIONAL_MODE, [])):
            reads.clear()
            assert image_dimension(g, mode=mode).d == 14
            assert reads == expected  # rational mode certifies the prime-field report

    def test_slots_of_unreduced_rows(self):
        """Gathered columns keep every slot below 2^61 + 2^e,
        e = width - 122, at the largest values, and the elimination at the
        powers' `width` holds unreduced slots at that bound. A column
        whose slots are p + 2^e meets a basis vector with pivot p - 1 and
        the same slots, at factor 1: the update then sums two products
        near 2^122 per slot, which at n = 3 (e = 2) a slot one bit narrower
        would carry out of, so the third column, equal mod p to the
        second, would no longer reduce to 0."""
        p = MERSENNE61
        for g in [complete_digraph(n) for n in range(3, 9)] + [isc_adversary(9), bidirected_path(12)]:
            kernel = cp._VerdictKernel(g, cp.spanning_tree(g))
            width, nrows = kernel.width, kernel.nrows
            e = width - 122
            assert width == exact.slot_width(g.n) and e >= 2
            for value in (1, p - 2, p - 1):
                columns = list(kernel._columns(kernel.packed([value] * (g.n + g.m))))
                assert len(columns) == kernel.ncols
                for column in columns:
                    slots = [column >> t * width & (1 << width) - 1 for t in range(nrows)]
                    assert max(slots) < 2**61 + 2**e and column >> nrows * width == 0
            big, small = p + 2**e, 2**e
            columns = [[p - 1] + [big] * 4, [1] + [big] * 4, [1] + [small] * 4]
            packed = [sum(x << t * width for t, x in enumerate(column)) for column in columns]
            rows = [list(row) for row in zip(*columns)]
            assert exact._pivots_mod_p(packed, 5, width, 5) == pivots_gf_p(rows) == [0, 1]


class TestNoExchangeBound:
    """With no exchange at vertex 1 the coefficients satisfy
    c_2 = d_2 + d_1 (c_1 - d_1), which caps the image dimension at 2n-2."""

    ROWS = ((3, 4), (4, 6), (5, 7), (5, 8))

    def test_relation_from_sympy_determinants(self):
        """Checked on sympy's determinants, with no library rank or
        coefficient: the relation holds exactly when there is no exchange."""
        sympy = pytest.importorskip("sympy")

        rng = random.Random(29)
        seen = {True: 0, False: 0}
        for n, m in self.ROWS:
            classes = reference_classes(n, m)
            for entry in rng.sample(classes, min(len(classes), 8)):
                g = entry.representative
                cs, ds = sympy_double_charpoly(g)
                gap = sympy.expand(cs[1] - ds[1] - ds[0] * (cs[0] - ds[0]))
                no_exchange = graphs.has_exchange(g) is None
                assert (gap == 0) is no_exchange, g
                seen[no_exchange] += 1
        assert min(seen.values()) >= 8

    def test_twin_rows_of_the_reduced_matrix(self):
        """Row 1 of the A_1 part of M' repeats row 1 of its A part exactly
        when vertex 1 has no exchange, on every class of the rows."""

        rng = random.Random(31)
        twins = 0
        for n, m in self.ROWS:
            for entry in reference_classes(n, m):
                g = entry.representative
                params = cp._verdict_params(g, cp.spanning_tree(g))
                point = [rng.randrange(1, MERSENNE61) for _ in range(g.n + g.m)]
                rows, sub_rows = cp._power_rows(g, point, MERSENNE61, params)
                reduced = reduced_verdict_rows(g.n, rows, sub_rows)
                twin = reduced[0] == reduced[g.n - 1]
                assert twin is (graphs.has_exchange(g) is None), g
                assert edge_exchange_bound(g) == 2 * g.n - 1 - twin
                assert walk_bound(g) <= edge_exchange_bound(g)
                twins += twin
        assert twins > 500


def oracle_walk_bound(graph, tree_edges) -> int:
    """The walk bound from its definition: L_p = d(1,v) + 1 + d(v,1) for
    each a_vv and d(1,j) + 1 + d(i,1) for each edge j -> i outside
    `tree_edges`, and the least over t = 1..2n of #{p : L_p < t} + 2n - t."""
    n = graph.n
    down, up = oracle_distances(graph, True), oracle_distances(graph, False)
    lengths = [down[v] + 1 + up[v] for v in range(1, n + 1)]
    lengths += [down[j] + 1 + up[i] for j, i in graph.edges if (j, i) not in tree_edges]
    return min(sum(length < t for length in lengths) + 2 * n - t for t in range(1, 2 * n + 1))


def term_rank(pattern) -> int:
    """The largest number of nonzero entries of a 0/1 matrix no two in a
    row or a column: a maximum bipartite matching by augmenting paths."""
    match = {}  # column -> row

    def augment(r, seen):
        for c, x in enumerate(pattern[r]):
            if x and c not in seen:
                seen.add(c)
                if c not in match or augment(match[c], seen):
                    match[c] = r
                    return True
        return False

    return sum(augment(r, set()) for r in range(len(pattern)))


class TestWalkBound:
    """The walk bound (`charpoly._dimension_bound`, proved in the module
    docstring): h_k = (A^k)_11 reads parameter p only from k = L_p on, the
    length of the shortest closed walk from vertex 1 that uses p, so the
    image dimension is at most the least over t of #{L_p < t} + (2n - t)."""

    # A (5,6) class: the directed 5-cycle with the chord 5 -> 4. Vertex 1
    # has no exchange, but m+1 = 7 <= 2n-2 = 8: that bound leaves it open.
    FIVE_SIX = CompartmentGraph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (5, 4)))
    PATH_TREE = ((1, 2), (2, 3), (3, 4), (4, 5))

    def test_sympy_proof_on_a_five_six_class(self):
        """Checked with sympy and this file's own BFS, with no library rank,
        walk or coefficient. The scalings set the tree's rates to 1 at every
        point with nonzero tree rates and keep the rank, so the rank of the
        coefficient Jacobian over the m+1 remaining rates, over Q(a), is the
        image dimension: 6 < m+1. The Jacobian of h_1..h_9 is nonzero at
        column p exactly in the rows k >= L_p, and its term rank is the walk
        bound, 6, which the library reads too."""
        pytest.importorskip("sympy")
        from sympy import QQ
        from sympy.polys.matrices import DomainMatrix
        from sympy.polys.rings import ring

        g, tree = self.FIVE_SIX, self.PATH_TREE
        n = g.n
        free = [e for e in g.edges if e not in tree]
        names = [f"a{v}{v}" for v in range(1, n + 1)] + [f"a{i}{j}" for j, i in free]
        R, *xs = ring(",".join(names), QQ)
        A = [[R(0)] * n for _ in range(n)]
        for v in range(n):
            A[v][v] = xs[v]
        for j, i in tree:
            A[i - 1][j - 1] = R(1)
        for (j, i), x in zip(free, xs[n:]):
            A[i - 1][j - 1] = x
        K = R.to_domain()
        matrix = DomainMatrix(A, (n, n), K)
        sub = DomainMatrix([row[1:] for row in A[1:]], (n - 1, n - 1), K)
        coefficients = matrix.charpoly()[1:] + sub.charpoly()[1:]
        jacobian = DomainMatrix([[c.diff(x) for x in xs] for c in coefficients], (2 * n - 1, len(xs)), K)
        assert jacobian.convert_to(K.get_field()).rank() == 6 < g.m + 1

        down, up = oracle_distances(g, True), oracle_distances(g, False)
        lengths = [down[v] + 1 + up[v] for v in range(1, n + 1)] + [down[j] + 1 + up[i] for j, i in free]
        markov = [(matrix**k).to_list()[0][0] for k in range(1, 2 * n)]
        pattern = [[int(h.diff(x) != 0) for x in xs] for h in markov]
        assert pattern == [[int(k >= length) for length in lengths] for k in range(1, 2 * n)]
        assert term_rank(pattern) == oracle_walk_bound(g, tree) == 6
        assert edge_exchange_bound(g) == 8 and walk_bound(g) == 6
        assert not has_expected_dimension(g) and image_dimension(g).d == 6

    # Per row: the classes whose "False" the walk bound proves, and the
    # classes whose d is proved (m+1 on a "True" class, the walk bound on
    # a deficient one). README's census table reports the same counts.
    PROVED = {
        (4, 5): (3, 15), (4, 6): (22, 52), (5, 6): (6, 32),
        (5, 7): (81, 261), (5, 8): (619, 1030), (6, 8): (213, 864),
    }

    @pytest.mark.parametrize("n, m", sorted(PROVED))
    def test_bound_holds_on_census_rows(self, n, m):
        """On every class the library's walk bound equals the definition's
        (`oracle_walk_bound`, under the default tree), is at most the
        preamble's ceiling, at least the sampled d, and m+1 on every "True"
        class, whose d = m+1 is a nonzero minor."""
        proved_false = proved_d = 0
        for entry in reference_classes(n, m, limit=n):
            g = entry.representative
            bound = walk_bound(g)
            tree_edges = {g.edges[k] for k in cp.spanning_tree(g).edge_indices}
            assert bound == oracle_walk_bound(g, tree_edges) <= min(edge_exchange_bound(g), m + 1), g
            d = m + 1 if entry.expected else image_dimension(g).d
            assert d <= bound and (bound == m + 1 or not entry.expected), g
            proved_false += bound <= m
            proved_d += d == bound
        assert (proved_false, proved_d) == self.PROVED[n, m]

    def test_the_preamble_decides_first(self, monkeypatch):
        """From n = 3 on, the record's ceiling, the walk bound, decides a
        maximal graph with no exchange at vertex 1, where it is at most
        2n-2, with no kernel: the directed 3-cycle with the chord 3 -> 2
        (m+1 = 5 > 2n-2 = 4). The cold call builds the record, one tree and
        one bound; the calls after it build nothing."""
        g = CompartmentGraph(3, ((1, 2), (2, 3), (3, 1), (3, 2)))
        trees = count_calls(monkeypatch, cp, "spanning_tree")
        bounds = count_calls(monkeypatch, cp, "_dimension_bound")
        kernels = count_calls(monkeypatch, cp, "_VerdictKernel")
        for expected in ((1, 1, 0), (1, 1, 0)):
            assert has_expected_dimension(g) is False
            assert (len(trees), len(bounds), len(kernels)) == expected
        assert cp._verdict_ceiling(g, 2, 0, PRIME_MODE, "")[3] == 4 == g.m == edge_exchange_bound(g)
        assert (len(trees), len(bounds), cp._verdict_record.cache_info()[:2]) == (1, 1, (2, 1))

    def test_a_miss_reads_the_walk_bound_once_where_it_decides(self, monkeypatch, chain4):
        """A graph's walk bound is read once, where its record is built,
        which decides the ceiling before any trial, and `_sampled_dimension`
        reads none: chain4, whose first point reaches m+1 = the bound, in
        rational mode; OPEN46 in prime mode, though both its trials fall
        short of the bound; and its rational call, a report miss that reads
        the record, the prime-field report through the memo, and ranks the
        points over Z."""
        bounds = count_calls(monkeypatch, cp, "_dimension_bound")
        cases = ((chain4, RATIONAL_MODE, 7, 1), (OPEN46, PRIME_MODE, 6, 1), (OPEN46, RATIONAL_MODE, 6, 0))
        for g, mode, d, read in cases:
            bounds.clear()
            misses = cp._sampled_dimension.cache_info().misses
            assert (image_dimension(g, mode=mode).d, len(bounds)) == (d, read), (g, mode)
            assert cp._sampled_dimension.cache_info().misses > misses

    def test_walk_proved_census_graphs_run_no_kernel_pass(self, monkeypatch):
        """Where the 2n-1/2n-2 bound leaves m+1 open but the walk bound is
        m or less, `has_expected_dimension` is False with no kernel built, no
        point drawn and no memo entry: every such class of (4,5), (5,6)
        and (5,7). In a census row only the verdicts that the walk bound
        leaves open reach the memo and the kernel: in (5,6), whose six
        deficient classes are all walk-proved, only the "True" ones, spot
        checks included."""
        proved = [
            g
            for n, m in ((4, 5), (5, 6), (5, 7))
            for g in (entry.representative for entry in reference_classes(n, m))
            if walk_bound(g) <= m < edge_exchange_bound(g)
        ]
        clear_graph_memos()
        kernels = count_calls(monkeypatch, cp, "_VerdictKernel")
        draws = count_calls(monkeypatch, cp, "derived_rng")
        assert not any(has_expected_dimension(g) for g in proved)
        assert (len(proved), len(kernels), len(draws)) == (3 + 6 + 81, 0, 0)
        assert cp._sampled_dimension.cache_info().currsize == 0
        verdicts = []

        def recording(graph, **kwargs):
            verdicts.append(has_expected_dimension(graph, **kwargs))
            return verdicts[-1]

        monkeypatch.setattr(census, "has_expected_dimension", recording)
        assert sum(c.expected for c in census_classes(5, 6)) == 26
        hits, misses = cp._sampled_dimension.cache_info()[:2]
        assert (hits + misses, misses) == (sum(verdicts), len(kernels)) and len(verdicts) > 32

    def test_over_full_graphs_are_decided_by_the_walk_bound(self, monkeypatch):
        """Past the edge bound, m > 2n-2, the walk bound alone decides: it
        is at most the 2n-1/2n-2 bound, which is at most m, so
        `has_expected_dimension` is False with no kernel built and no memo
        entry, with or without an exchange at vertex 1."""
        sample = over_full_graphs(1000, seed=103)
        for g in sample:
            assert walk_bound(g) <= edge_exchange_bound(g) <= g.m, g
        clear_graph_memos()
        kernels = count_calls(monkeypatch, cp, "_VerdictKernel")
        assert not any(has_expected_dimension(g) for g in sample)
        assert (len(kernels), cp._sampled_dimension.cache_info().currsize) == (0, 0)


class TestEdgeMonotonicity:
    """If G is strongly connected and e is not an edge of G, then
    d(G) <= d(G + e), d the generic image dimension.

    Proof: at a point with a_e = 0, A(G + e) is A(G), so every coefficient
    of G + e is the same polynomial in G's parameters as the coefficient
    of G, and the Jacobian of G + e restricted to the columns of G's
    parameters is G's Jacobian there. So rank J(G + e) at such a point is
    at least rank J(G), and the generic rank of J(G + e) is at least its
    rank at any point, while rank J(G) at a generic point with a_e = 0 is
    d(G). The sampled d is Monte Carlo, so an under-report on G, or a
    kernel fault that depends on the edge set, shows as a violation."""

    ROWS = ((4, 6), (5, 7), (5, 8))

    def test_removing_an_edge_never_raises_the_dimension(self):
        """For every class G of the rows, and every edge e whose removal
        keeps G strongly connected, the sampled d of G - e is at most that
        of G: 4,102 pairs."""
        pairs = 0
        for n, m in self.ROWS:
            for entry in reference_classes(n, m):
                g = entry.representative
                d = image_dimension(g).d
                for k in range(g.m):
                    smaller = CompartmentGraph(g.n, g.edges[:k] + g.edges[k + 1:])
                    if oracle_strongly_connected(smaller):
                        assert image_dimension(smaller).d <= d, (g, g.edges[k])
                        pairs += 1
        assert pairs == 4102


class TestVerdictMatrix:
    """The (2n-1) x (m+1) matrix of power rows at the diagonal and
    non-tree parameters has the Jacobian's rank wherever the tree entries
    are nonzero, in both modes."""

    @staticmethod
    def points(graph, rng):
        """A point in [1, p) and a small-integer point in [0, 3] whose
        tree entries are >= 1 (other entries may be 0)."""
        from compident.reparam import spanning_tree

        count = graph.n + graph.m
        small = [rng.randrange(0, 4) for _ in range(count)]
        for k in spanning_tree(graph).edge_indices:
            small[graph.n + k] = rng.randrange(1, 4)
        return [[rng.randrange(1, MERSENNE61) for _ in range(count)], small]

    def check(self, graphs, seed):
        from compident import exact

        rng = random.Random(seed)
        deficient = full = 0
        for g in graphs:
            for point in self.points(g, rng):
                for mode in (PRIME_MODE, RATIONAL_MODE):
                    mat = verdict_matrix(g, point, mode)
                    assert len(mat) == 2 * g.n - 1
                    assert all(len(row) == g.m + 1 for row in mat)
                    r = exact.rank(mat, mode)
                    assert r == exact.rank(jacobian(g, point, mode), mode), (g, point, mode)
                    deficient += r < g.m + 1
                    full += r == g.m + 1
        return deficient, full

    def test_census_classes(self):
        graphs = []
        for n, m in ((3, 4), (4, 5), (4, 6)):
            graphs += [c.representative for c in reference_classes(n, m)]
        for n, m in ((5, 7), (5, 8)):
            graphs += [c.representative for c in reference_classes(n, m)[::23]]
        deficient, full = self.check(graphs, seed=71)
        assert deficient > 50 and full > 50

    def test_fixtures(self, chain4, broken4, wheel5, cycle3, exchange2, single):
        deficient, full = self.check([chain4, broken4, wheel5, cycle3, exchange2, single], seed=72)
        assert deficient and full
        assert verdict_matrix(single, [5]) == [[1]]


class TestExpectedDimension:
    def test_fixtures(self, chain4, broken4):
        assert has_expected_dimension(chain4)
        assert not has_expected_dimension(broken4)

    def test_edge_bound_short_circuits(self, monkeypatch):
        complete3 = CompartmentGraph(
            3, tuple((j, i) for j in range(1, 4) for i in range(1, 4) if i != j)
        )

        def boom(*args, **kwargs):
            raise AssertionError("rank should not be computed past the edge bound")

        monkeypatch.setattr(cp, "image_dimension", boom)
        passes = count_calls(monkeypatch, cp._VerdictKernel, "pivots")
        assert cp.has_expected_dimension(complete3) is False
        assert passes == []

    def test_no_exchange_bound_short_circuits(self, monkeypatch):
        """A maximal graph with no exchange is False with no kernel run;
        the trials and strong connectivity checks still come first."""
        calls = count_calls(monkeypatch, cp._VerdictKernel, "pivots")
        for mode in (PRIME_MODE, RATIONAL_MODE):
            assert has_expected_dimension(NO_EXCHANGE5, mode=mode) is False
        assert calls == []
        with pytest.raises(ValueError, match="trials must be >= 1"):
            has_expected_dimension(NO_EXCHANGE5, trials=0)
        source1 = CompartmentGraph(3, ((1, 2), (1, 3), (2, 3), (3, 2)))  # m = 2n-2
        with pytest.raises(NotStronglyConnected):
            has_expected_dimension(source1)
        assert calls == []

    @pytest.mark.parametrize("trials, error, match", BAD_TRIALS)
    def test_trials_checked_on_both_sides_of_the_edge_bound(self, chain4, trials, error, match):
        """`trials` goes through `operator.index`: a float or a str raises
        TypeError also past the edge bound, where no rank is computed, and
        on every call, also once the memo holds the graph's report."""
        complete3 = CompartmentGraph(
            3, tuple((j, i) for j in range(1, 4) for i in range(1, 4) if i != j)
        )
        image_dimension(chain4)
        for graph in (chain4, complete3, chain4):
            for verdict in (has_expected_dimension, image_dimension):
                with pytest.raises(error, match=match):
                    verdict(graph, trials=trials)

    def test_trials_reported_as_an_int(self, chain4):
        report = image_dimension(chain4, trials=True)
        assert type(report.trials) is int and report.trials == 1

    @pytest.mark.parametrize("seed, error, match", BAD_SEEDS)
    def test_seed_checked_on_both_sides_of_the_edge_bound(self, chain4, seed, error, match):
        """`seed` goes through `operator.index` before anything else: a
        float or a str raises TypeError past the edge bound, on a maximal
        graph the no-exchange bound decides and below both, and on every
        call, also once the memo holds seed 1's report."""
        complete3 = CompartmentGraph(
            3, tuple((j, i) for j in range(1, 4) for i in range(1, 4) if i != j)
        )
        image_dimension(chain4, seed=1)
        for graph in (chain4, complete3, NO_EXCHANGE5, chain4):
            for verdict in (has_expected_dimension, image_dimension):
                with pytest.raises(error, match=match):
                    verdict(graph, seed=seed)

    def test_seed_reported_as_an_int(self, chain4):
        """A bool seed becomes an int, as `trials` does: seed True draws
        seed 1's points and reports seed 1."""
        report = image_dimension(chain4, seed=True)
        assert type(report.seed) is int and report.seed == 1
        clear_graph_memos()
        assert image_dimension(chain4, seed=1) == report

    def test_mode_checked_on_both_sides_of_the_edge_bound(self, chain4):
        complete4 = CompartmentGraph(
            4, tuple((j, i) for j in range(1, 5) for i in range(1, 5) if i != j)
        )
        image_dimension(chain4)
        for graph in (chain4, complete4, NO_EXCHANGE5, chain4):
            for verdict in (has_expected_dimension, image_dimension):
                with pytest.raises(ValueError, match="unknown arithmetic mode"):
                    verdict(graph, mode="nope")

    def test_one_ceiling_per_verdict(self, monkeypatch, chain4, broken4):
        """One ceiling decision per graph: each call of
        `has_expected_dimension`, `image_dimension` and `reparametrize`
        makes one `_verdict_ceiling` and one charpoly `checked_arguments`
        call, and the graph's first call builds its record, one
        `spanning_tree` and one `_dimension_bound` call, which no later
        call repeats and nothing downstream adds to. So on the ranked path
        (chain4, broken4), on a maximal graph with no exchange
        (NO_EXCHANGE5) and past the edge bound (complete3): `reparametrize`
        refuses complete3 by the edge bound m > 2n-2 only after the record,
        and it picks no tree of its own."""
        complete3 = CompartmentGraph(
            3, tuple((j, i) for j in range(1, 4) for i in range(1, 4) if i != j)
        )
        preambles = count_calls(monkeypatch, cp, "_verdict_ceiling")
        monkeypatch.setattr(reparam, "_verdict_ceiling", cp._verdict_ceiling)
        bounds = count_calls(monkeypatch, cp, "_dimension_bound")
        checks = count_calls(monkeypatch, cp, "checked_arguments")
        trees = []
        for module in (cp, reparam):
            trees.append(count_calls(monkeypatch, module, "spanning_tree"))

        def counts(verdict, graph):
            for calls in (preambles, checks, bounds, *trees):
                calls.clear()
            try:
                verdict(graph)
            except (NoReparametrization, TooManyEdges):
                pass
            return len(preambles), len(checks), len(trees[0]), len(bounds), len(trees[1])

        verdicts = (has_expected_dimension, image_dimension, reparam.reparametrize)
        for graph in (chain4, broken4, NO_EXCHANGE5, complete3):
            for k, verdict in enumerate(verdicts * 2 + verdicts[::-1]):
                cold = int(k == 0)
                assert counts(verdict, graph) == (1, 1, cold, cold, 0), (verdict, graph)
        assert cp._verdict_record.cache_info().misses == 4

    @pytest.mark.parametrize("mode", [PRIME_MODE, RATIONAL_MODE])
    def test_ceiling_is_m_plus_1_below_the_bound(self, monkeypatch, mode):
        """Below the 2n-1/2n-2 bound the ceiling, the walk bound, is m+1:
        the directed 5-cycle (m+1 = 6, bound 8) reaches it at its first
        point, so three trials make one kernel pass and rational mode runs
        no Bareiss."""
        cycle5 = directed_cycle_graph(5)
        trials, seed, _tree, ceiling = cp._verdict_ceiling(cycle5, 3, 0, mode, "")
        assert (trials, seed, ceiling, edge_exchange_bound(cycle5)) == (3, 0, 6, 8)
        clear_graph_memos()
        passes = count_calls(monkeypatch, cp._VerdictKernel, "pivots")
        bareiss = count_calls(monkeypatch, exact, "rank_bareiss")
        report = image_dimension(cycle5, trials=3, mode=mode)
        assert (report.d, report.verdict, len(passes), len(bareiss)) == (6, True, 1, 0)

    def test_one_connectivity_check(self, monkeypatch, chain4, broken4):
        """One strong connectivity check per graph, one `_distances` walk
        along and one against the edges, where its record is built, below
        and past the edge bound, and none when the record memo answers
        (the second round); a graph that is not strongly connected gets no
        record and raises on every call."""
        complete3 = CompartmentGraph(
            3, tuple((j, i) for j in range(1, 4) for i in range(1, 4) if i != j)
        )
        checks = count_calls(monkeypatch, graphs, "_distances")
        for walks in (2, 0):
            for g, verdict in ((chain4, True), (broken4, False), (complete3, False)):
                checks.clear()
                assert has_expected_dimension(g) is verdict
                assert len(checks) == walks
        sink4 = CompartmentGraph(4, complete3.edges + ((1, 4),))  # m = 7 > 2n-2
        for g in (CompartmentGraph(2, ((1, 2),)), sink4) * 2:
            for verdict in (has_expected_dimension, image_dimension):
                with pytest.raises(NotStronglyConnected):
                    verdict(g)
        assert cp._verdict_record.cache_info().currsize == 3

    def test_bound_below_three_vertices(self, single, exchange2):
        """The 2n-2 bound needs n >= 3: a single compartment has no exchange
        and still reaches d = 2n-1 = m+1 = 1, as the one strongly connected
        graph on two vertices, itself an exchange, reaches 3."""
        for g, d in ((single, 1), (exchange2, 3)):
            assert edge_exchange_bound(g) == walk_bound(g) == 2 * g.n - 1 == d
            assert has_expected_dimension(g) and image_dimension(g).d == d

    def test_one_adjacency_build_per_verdict(self, monkeypatch, chain4, broken4):
        """A graph's record builds one pair of adjacency masks and reads
        strong connectivity and the walk bound's distances off them, and no
        exchange: one `graphs._adjacency` call at the graph's first call of
        `has_expected_dimension`, `image_dimension` or `reparametrize`, none
        at the calls after it, and no `has_exchange` or `_exchange_mask`
        call, on the graphs of `test_one_ceiling_per_verdict`. The one
        other build is the cycle search (`graphs._long_cycles`) of a
        reparametrization that reaches its cycle basis with the candidates'
        memo empty: chain4's, cold."""
        complete3 = CompartmentGraph(
            3, tuple((j, i) for j in range(1, 4) for i in range(1, 4) if i != j)
        )
        assert not hasattr(cp, "has_exchange")
        builds = count_calls(monkeypatch, graphs, "_adjacency")
        exchanges = count_calls(monkeypatch, graphs, "has_exchange")
        masks = count_calls(monkeypatch, graphs, "_exchange_mask")
        searches = count_calls(monkeypatch, reparam, "_long_cycles")
        for cold in (True, False):
            for graph in (chain4, broken4, NO_EXCHANGE5, complete3):
                for verdict in (has_expected_dimension, image_dimension, reparam.reparametrize):
                    for calls in (builds, exchanges, masks, searches):
                        calls.clear()
                    try:
                        verdict(graph)
                    except (NoReparametrization, TooManyEdges):
                        pass
                    search = cold and graph is chain4 and verdict is reparam.reparametrize
                    record = cold and verdict is has_expected_dimension
                    assert (len(builds), len(exchanges), len(masks)) == (record + search, 0, 0), (verdict, graph)
                    assert len(searches) == search


class TestVerdictMemo:
    """`_sampled_dimension` keeps the reports of its last GRAPH_MEMO_SIZE
    keys, (graph, trials, seed, mode) once normalized; the argument checks
    run on every call."""

    @staticmethod
    def sample():
        graphs = [c.representative for c in reference_classes(4, 6)]
        return graphs + random.Random(33).sample([c.representative for c in reference_classes(5, 8)], 50)

    def test_warm_equals_cold(self):
        for graph in self.sample():
            for mode in (PRIME_MODE, RATIONAL_MODE):
                clear_graph_memos()
                cold = image_dimension(graph, mode=mode)
                warm = image_dimension(graph, mode=mode)
                assert warm == cold and warm.as_dict() == cold.as_dict()
                # a cold rational report misses its own key and the prime-field one
                assert cp._sampled_dimension.cache_info()[:2] == ((1, 1) if mode == PRIME_MODE else (1, 2))
                assert has_expected_dimension(graph, mode=mode) is cold.verdict

    def test_a_hit_runs_no_kernel_pass(self, monkeypatch, chain4):
        passes = count_calls(monkeypatch, cp._VerdictKernel, "pivots")
        exact_rows = count_calls(monkeypatch, exact, "rank_bareiss")
        for graph, mode, cold in ((chain4, PRIME_MODE, 1), (OPEN46, RATIONAL_MODE, 2)):
            passes.clear()
            report = image_dimension(graph, mode=mode)
            assert len(passes) == cold
            for _ in range(3):
                assert image_dimension(graph, mode=mode) == report
            assert has_expected_dimension(graph, mode=mode) is report.verdict
            assert len(passes) == cold
        assert len(exact_rows) == 2  # OPEN46's two rational trials, once

    def test_rational_first_runs_one_prime_call(self, monkeypatch, chain4, broken4):
        """A cold rational call makes the kernel passes of one prime-field
        call, one where the first point reaches the ceiling (chain4) and
        two where it falls short (broken4), and leaves that report in the
        memo, so the prime-field call after it is a hit."""
        passes = count_calls(monkeypatch, cp._VerdictKernel, "pivots")
        counts = set()
        for g in [chain4, broken4, NO_EXCHANGE5, isc_adversary(9)] + self.sample()[-20:]:
            clear_graph_memos()
            passes.clear()
            image_dimension(g)
            prime_passes = len(passes)
            clear_graph_memos()
            passes.clear()
            rational = image_dimension(g, mode=RATIONAL_MODE)
            assert len(passes) == prime_passes, g
            hits = cp._sampled_dimension.cache_info().hits
            assert image_dimension(g) == replace(rational, mode=PRIME_MODE)
            assert (cp._sampled_dimension.cache_info().hits, len(passes)) == (hits + 1, prime_passes)
            counts.add(prime_passes)
        assert counts == {1, 2}

    def test_keys(self, chain4):
        """Seed, trials and mode separate keys; a bool seed or trials is
        its int, and equal graphs built separately share an entry."""
        reports = {
            (trials, seed, mode): image_dimension(chain4, trials=trials, seed=seed, mode=mode)
            for trials in (1, 2)
            for seed in (0, 1)
            for mode in (PRIME_MODE, RATIONAL_MODE)
        }
        # each rational call hits the prime-field key of its trials and seed
        assert cp._sampled_dimension.cache_info()[:2] == (4, 8)
        for (trials, seed, mode), report in reports.items():
            assert (report.trials, report.seed, report.mode) == (trials, seed, mode)
        rebuilt = CompartmentGraph(4, [list(e) for e in chain4.edges])
        assert rebuilt == chain4 and rebuilt is not chain4
        assert image_dimension(rebuilt, trials=True, seed=True) is reports[1, 1, PRIME_MODE]
        assert cp._sampled_dimension.cache_info()[:2] == (5, 8)

    def test_bound(self, monkeypatch, chain4):
        """After GRAPH_MEMO_SIZE = 8 other graphs, the first misses again;
        after 7 it still hits."""
        assert cp.GRAPH_MEMO_SIZE == 8
        others = [directed_cycle_graph(n) for n in range(2, 10)]
        passes = count_calls(monkeypatch, cp._VerdictKernel, "pivots")
        for count, misses in ((7, 0), (8, 1)):
            clear_graph_memos()
            image_dimension(chain4)
            for graph in others[:count]:
                image_dimension(graph)
            passes.clear()
            image_dimension(chain4)
            assert len(passes) == misses


class TestIoEquation:
    def test_single_vertex(self, single):
        assert io_equation_text(single) == "y' - a11*y = u1"

    def test_exchange_pair(self, exchange2):
        assert (
            io_equation_text(exchange2)
            == "y'' - (a11 + a22)*y' + (a11*a22 - a12*a21)*y = u1' - a22*u1"
        )

    def test_chain4_shape(self, chain4):
        text = io_equation_text(chain4)
        lhs, rhs = text.split(" = ")
        assert lhs.startswith("y^(4)")
        assert rhs.startswith("u1'''")
        assert "a23*a34*a42" in text

    def test_rejects_non_strongly_connected(self):
        with pytest.raises(NotStronglyConnected):
            io_equation_text(CompartmentGraph(2, ((1, 2),)))

    def test_signed_parts(self):
        """A coefficient's overall sign is -1 exactly when every term is -1,
        and its text is then that of the negated polynomial."""
        order = name_order(["b", "a"])
        assert signed_parts({(1, 0): -1, (0, 1): -1}, order) == (-1, "b + a")
        assert signed_parts({(1, 0): 1, (0, 1): -1}, order) == (1, "b - a")
        assert signed_parts({(1, 0): -1, (0, 1): 1}, order) == (1, "-b + a")
        assert signed_parts({(1, 1): 1}, order) == (1, "a*b")

    def test_expansion_cap(self):
        """The bidirected path on 12 vertices expands below the cap; the
        one on 14, with 195,024 terms, stops at it."""
        cs, _ = symbolic_coefficients(bidirected_path(12))
        assert sum(map(len, cs)) == 33_460 < cp.MAX_EXPANSION_TERMS < 195_024
        with pytest.raises(LimitExceeded, match="more than 100,000 terms"):
            symbolic_coefficients(bidirected_path(14))

    def test_census_digest(self):
        """The equations of every census representative of five rows, in
        order, pinned by the leading hex digits of their sha256."""
        digest = hashlib.sha256()
        for n, m in [(3, 4), (4, 5), (4, 6), (5, 7), (5, 8)]:
            for entry in reference_classes(n, m):
                digest.update(io_equation_text(entry.representative).encode())
        assert digest.hexdigest()[:16] == "87ab3dae1b501983"


class TestIdentifiableCycleFunctions:
    def test_chain4(self, chain4):
        funcs = [c.monomial for c in identifiable_cycle_functions(chain4)]
        assert funcs == [
            "a11",
            "a22",
            "a33",
            "a44",
            "a12*a21",
            "a23*a32",
            "a23*a34*a42",
        ]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_directed_cycle(self, n):
        g = directed_cycle_graph(n)
        funcs = identifiable_cycle_functions(g)
        assert len(funcs) == n + 1
        assert funcs[-1].length == n

    def test_single_vertex(self, single):
        assert [c.monomial for c in identifiable_cycle_functions(single)] == ["a11"]

    def test_rejects_deficient_graph(self, broken4):
        with pytest.raises(NotExpectedDimension):
            identifiable_cycle_functions(broken4)

    def test_rejects_graph_past_the_edge_bound(self):
        complete3 = CompartmentGraph(
            3, tuple((j, i) for j in range(1, 4) for i in range(1, 4) if i != j)
        )
        with pytest.raises(NotExpectedDimension):
            identifiable_cycle_functions(complete3)

    def test_one_connectivity_check_and_one_default_tree(self, monkeypatch, chain4, wheel5):
        checks = count_calls(monkeypatch, graphs, "_distances")  # one walk each way
        trees = []
        real_tree = graphs.spanning_tree

        def tree(graph):
            trees.append(1)
            return real_tree(graph)

        for module in (cp, reparam):
            monkeypatch.setattr(module, "spanning_tree", tree)
        for graph in (chain4, wheel5):
            checks.clear()
            trees.clear()
            assert len(identifiable_cycle_functions(graph)) == graph.m + 1
            assert (len(checks), len(trees)) == (2, 1)


class TestCoefficientIdentities:
    def test_leading_diagonal_identity(self, chain4, wheel5, cycle3, exchange2):
        # a11 equals d1 - c1 at every assignment
        rng = random.Random(6)
        for g in (chain4, wheel5, cycle3, exchange2):
            nparams = g.n + g.m
            for _ in range(20):
                point = [rng.randrange(1, MERSENNE61) for _ in range(nparams)]
                cs, ds = numeric_coefficients(g, point, RATIONAL_MODE)
                assert -cs[0] + ds[0] == point[0]
                csp, dsp = numeric_coefficients(
                    g, [v % MERSENNE61 for v in point], PRIME_MODE
                )
                assert (-csp[0] + dsp[0]) % MERSENNE61 == point[0] % MERSENNE61

    def test_chain4_exchange_monomial_identity(self, chain4):
        # a12*a21 = d2 - c2 + c1*d1 - d1^2 on this graph
        rng = random.Random(7)
        names = chain4.param_names()
        i12, i21 = names.index("a12"), names.index("a21")
        for _ in range(20):
            point = [rng.randrange(1, 10**6) for _ in range(10)]
            cs, ds = numeric_coefficients(chain4, point, RATIONAL_MODE)
            assert ds[1] - cs[1] + cs[0] * ds[0] - ds[0] ** 2 == point[i12] * point[i21]


class TestMarkovParameterOracle:
    """A second computation of every census verdict, from another matrix.

    The transfer function e1'(sI - A)^-1 e1 = det(sI - A_1) / det(sI - A)
    has Taylor coefficients h_k = (A^k)_11, the Markov parameters
    (Pohjanpalo, Math. Biosci. 41, 1978). They are polynomials in the
    coefficients (c, d), and the map is invertible wherever the Hankel
    matrix H = [h_(i+j)], i, j < n, is nonsingular, so there the Jacobian
    J_h of h_1..h_(2n-1) has the rank of the coefficient Jacobian. J_h is
    built here from the scalar recurrences u_(i+1) = u_i A, u_0 = e1', and
    w_(j+1) = A w_j, w_0 = e1, mod p, with no library power, Jacobian or
    rank."""

    @staticmethod
    def markov_jacobian(graph, point, p):
        """(J_h, h): row k-1 of J_h holds d h_k / d a_rc =
        sum_(i+j=k-1) (u_i)_r (w_j)_c at each parameter, k = 1..2n-1, and
        h holds h_0..h_(2n-2)."""
        n = graph.n
        cells = [(v, v) for v in range(n)] + [(i - 1, j - 1) for j, i in graph.edges]
        A = [[0] * n for _ in range(n)]
        for (r, c), x in zip(cells, point):
            A[r][c] = x % p
        u = [[int(c == 0) for c in range(n)]]
        w = [[int(r == 0) for r in range(n)]]
        columns = list(zip(*A))
        for _ in range(2 * n - 2):
            u.append([sum(map(mul, u[-1], columns[c])) % p for c in range(n)])
            w.append([sum(map(mul, A[r], w[-1])) % p for r in range(n)])
        ut, wt = list(zip(*u)), list(zip(*w))  # ut[r][i] = (u_i)_r, wt[c][j] = (w_j)_c
        rows = [
            [sum(map(mul, ut[r][:k], wt[c][k - 1::-1])) % p for r, c in cells]
            for k in range(1, 2 * n)
        ]
        return rows, [row[0] for row in u]

    def assert_agrees_with_the_verdict(self, graph):
        """At each of the verdict's own two points, the rank of J_h is
        2 + the kernel's pivot count there (the rank of M at that point),
        H is nonsingular, and the larger rank is the reported dimension."""
        p, n = MERSENNE61, graph.n
        kernel = cp._VerdictKernel(graph, cp.spanning_tree(graph))
        ranks = []
        for point in cp._verdict_points(graph, 0, 2):
            rows, h = self.markov_jacobian(graph, point, p)
            ranks.append(rank_gf_p_with_inverses(rows, p))
            assert ranks[-1] == 2 + len(kernel.pivots(point, kernel.nrows)), graph.to_json()
            hankel = [[h[i + j] for j in range(n)] for i in range(n)]
            assert rank_gf_p_with_inverses(hankel, p) == n, graph.to_json()
        assert max(ranks) == image_dimension(graph).d, graph.to_json()

    @pytest.mark.parametrize("n, m", [(4, 5), (4, 6), (5, 6), (5, 7), (5, 8), (6, 8)])
    def test_rank_equals_the_verdict_dimension(self, n, m):
        for entry in reference_classes(n, m, limit=n):
            self.assert_agrees_with_the_verdict(entry.representative)

    def test_every_eighth_class_of_six_nine(self):
        """(6,9) from its grouping alone: `census_classes` would rank all
        7,506 classes, so only every 8th representative gets a verdict."""
        pool, _images, found = census._grouped_classes(6, 9, 6)
        assert len(found) == 7506
        for mask, *_rest in found[::8]:
            self.assert_agrees_with_the_verdict(pool.edge_subgraph(mask))


class TestOracleEquivalenceSmall:
    def test_exhaustive_n3(self):
        from compident.census import enumerate_sc_graphs

        rng = random.Random(10)
        for m in range(3, 7):
            for g in enumerate_sc_graphs(3, m):
                nparams = g.n + g.m
                for _ in range(2):
                    point = [rng.randrange(1, MERSENNE61) for _ in range(nparams)]
                    assert evaluate_symbolic(g, point, PRIME_MODE) == tuple(
                        numeric_coefficients(g, [v % MERSENNE61 for v in point], PRIME_MODE)
                    )
