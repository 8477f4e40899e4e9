import dataclasses
import os
import random
import sys
import threading
from itertools import combinations, permutations

import pytest

from compident import (
    CompartmentGraph,
    LimitExceeded,
    canonical_form,
    collapse_exchange,
    enumerate_sc_graphs,
    exchange_vertices,
    has_exchange,
    has_expected_dimension,
)
from compident import census
from compident.census import (
    CONJ_COLLAPSE_CYCLE,
    CONJ_COLLAPSE_MAXIMAL,
    census_classes,
    census_row,
    non_isc_identifiable_classes,
    property_suite,
    test_conjectures as run_conjectures,
)

from conftest import class_verdicts, oracle_rank, oracle_strongly_connected, sympy_double_charpoly


class TestEnumeration:
    def test_triangle_count(self):
        graphs = list(enumerate_sc_graphs(3, 3))
        assert len(graphs) == 2
        for g in graphs:
            assert oracle_strongly_connected(g)

    def test_exchange_pair_is_unique(self):
        graphs = list(enumerate_sc_graphs(2, 2))
        assert graphs == [CompartmentGraph(2, ((1, 2), (2, 1)))]

    def test_all_outputs_strongly_connected(self):
        for m in range(4, 7):
            for g in enumerate_sc_graphs(4, m):
                assert oracle_strongly_connected(g)

    def test_counts_match_independent_oracle(self):
        from itertools import combinations

        pool = [(j, i) for j in range(1, 5) for i in range(1, 5) if i != j]
        for m in (4, 5):
            direct = sum(
                1
                for subset in combinations(pool, m)
                if oracle_strongly_connected(CompartmentGraph(4, subset))
            )
            assert len(list(enumerate_sc_graphs(4, m))) == direct

    def test_guardrail(self):
        with pytest.raises(LimitExceeded):
            list(enumerate_sc_graphs(6, 6))
        assert next(enumerate_sc_graphs(6, 6, limit=6)) is not None


class TestCensusRow:
    def test_small_rows(self):
        assert census_row(3, 3).as_dict() == {
            "n": 3, "m": 3, "A": 2, "B": 2, "C": 1, "D": None, "E": 1, "F": None,
        }
        assert census_row(3, 4).as_dict() == {
            "n": 3, "m": 4, "A": 9, "B": 7, "C": 5, "D": 4, "E": 4, "F": 4,
        }

    def test_maximal_row_has_d_and_f(self):
        row = census_row(4, 6)
        assert (row.A, row.B, row.C, row.D, row.E, row.F) == (316, 166, 55, 34, 30, 26)

    def test_orbit_sizes_sum_to_total(self):
        for (n, m) in [(3, 3), (3, 4), (4, 4), (4, 5)]:
            row = census_row(n, m)
            classes = census_classes(n, m)
            assert sum(c.size for c in classes) == row.A
            assert sum(c.size for c in classes if c.expected) == row.B

    def test_verdicts_constant_on_classes(self):
        verdicts = class_verdicts(3, 4)
        for g in enumerate_sc_graphs(3, 4):
            direct = has_expected_dimension(g)
            assert direct == verdicts[canonical_form(g)].expected

    @pytest.mark.parametrize(
        "n, m", [(1, 0), (2, 2), (3, 3), (3, 4), (4, 4), (4, 5), (4, 6), (5, 7)]
    )
    def test_classes_match_canonical_form_grouping(self, n, m):
        groups = {}
        for g in enumerate_sc_graphs(n, m):
            groups.setdefault(canonical_form(g), []).append(g)
        expected = [(members[0], len(members)) for members in groups.values()]
        assert [(c.representative, c.size) for c in census_classes(n, m)] == expected

    def test_cached_census_cannot_be_altered(self):
        before = census_row(3, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            census_classes(3, 4)[0].size += 100
        class_verdicts(3, 4).clear()
        assert census_row(3, 4) == before
        assert before.B == 7
        assert len(class_verdicts(3, 4)) == before.C

    @pytest.mark.parametrize("m", [4, 5, 7])
    def test_mode_checked_on_every_row(self, m):
        """Rows the rank decides, rows the edge bound decides (3,5) and
        rows with no classes (3,7) all reject an unknown mode."""
        with pytest.raises(ValueError, match="unknown arithmetic mode"):
            census_row(3, m, mode="nope")

    def test_csv_shape(self):
        row = census_row(3, 3)
        assert row.csv_header() == "n,m,A,B,C,D,E,F"
        assert row.csv_line() == "3,3,2,2,1,,1,"
        assert census_row(3, 4).csv_line() == "3,4,9,7,5,4,4,4"


@pytest.fixture
def cold_census():
    """Empty the census caches before and after, so the test sees a cold
    row and leaves no patched result behind."""
    census._grouped_classes.cache_clear()
    census._census_data.cache_clear()
    yield
    census._grouped_classes.cache_clear()
    census._census_data.cache_clear()


class TestOrderlyCensus:
    def test_strong_connectivity_calls_bounded(self, monkeypatch, cold_census):
        calls = []
        real = census._subset_strongly_connected

        def counting(n, edges):
            calls.append(1)
            return real(n, edges)

        monkeypatch.setattr(census, "_subset_strongly_connected", counting)
        row = census_row(5, 8)
        assert (row.A, row.C) == (26875, 1158)
        # The labeled scan made C(20, 8) = 125,970 calls here.
        assert len(calls) <= 10_000

    def test_spot_check_catches_a_non_equivariant_verdict(self, monkeypatch, cold_census):
        # (4,6) runs its verdicts serially, (5,7) splits them over children.
        rows = [(4, 6), (5, 7)]
        representatives = {
            rep
            for n, m in rows
            for _mask, rep, _size in census._grouped_classes(n, m, census.DEFAULT_LIMIT)[2]
        }

        def labeled_verdict(graph, **kwargs):
            return graph in representatives

        monkeypatch.setattr(census, "has_expected_dimension", labeled_verdict)
        monkeypatch.setattr(census, "_usable_cpus", lambda: 2)
        forks = counted_forks(monkeypatch)
        for n, m in rows:
            with pytest.raises(AssertionError, match="class verdict mismatch"):
                census_row(n, m)
        assert len(forks) == 1

    @pytest.mark.parametrize("n, m", [(3, 3), (4, 5), (4, 6), (5, 7), (5, 8)])
    def test_spot_samples_are_other_members(self, n, m):
        samples = census._spot_samples(n, m, 0, census.DEFAULT_LIMIT)
        assert len(samples) == -(-census_row(n, m).A // census.SPOT_CHECK_STRIDE)
        _pool, _images, found = census._grouped_classes(n, m, census.DEFAULT_LIMIT)
        representatives = {mask: rep for mask, rep, _size in found}
        for graph, key in samples:
            rep = representatives[key]
            assert graph != rep and graph.m == m
            assert canonical_form(graph) == canonical_form(rep)
        assert samples == census._spot_samples(n, m, 0, census.DEFAULT_LIMIT)

    def test_six_vertices_behind_the_limit(self):
        row = census_row(6, 6, limit=6)
        assert (row.A, row.C) == (120, 1)
        assert row.A == sum(1 for _ in enumerate_sc_graphs(6, 6, limit=6))
        with pytest.raises(LimitExceeded):
            census_row(6, 6)

    @pytest.mark.parametrize(
        "m, counts",
        [(6, (120, 120, 1, 1)), (7, (6480, 5280, 57, 47)), (8, (107850, 73770, 941, 651))],
    )
    def test_six_vertex_rows(self, m, counts, cold_census):
        row = census_row(6, m, limit=6)
        assert (row.A, row.B, row.C, row.E) == counts
        assert (row.D, row.F) == (None, None)

    def test_empty_rows(self):
        for m in (-1, 7):
            row = census_row(3, m)
            assert (row.A, row.B, row.C, row.E) == (0, 0, 0, 0)
            assert census_classes(3, m) == []


def counted_forks(monkeypatch) -> list:
    """Patch `os.fork` to append to the returned list on each call."""
    forks = []
    real = os.fork

    def fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def refuse_fork():
    raise AssertionError("forked")


class TestSplitVerdicts:
    """A row's verdicts split over forked children (`census._verdicts`)."""

    def test_split_equals_serial(self, monkeypatch, cold_census):
        rows = [(4, 6), (5, 7), (5, 8)]

        def run(cpus):
            census._census_data.cache_clear()
            monkeypatch.setattr(census, "_usable_cpus", lambda: cpus)
            forks = counted_forks(monkeypatch)
            classes = [census_classes(n, m) for n, m in rows]
            return classes, census_row(6, 8, limit=6), len(forks)

        # Three shares: uneven share lengths, and a split on any machine.
        split_classes, split_row, split_forks = run(3)
        serial_classes, serial_row, serial_forks = run(1)
        assert split_classes == serial_classes
        assert split_row == serial_row
        # (4,6) has 59 verdicts, under MIN_FORK_SHARE: it stays serial.
        assert (split_forks, serial_forks) == (2 * 3, 0)

    @pytest.mark.parametrize("index", [0, 1], ids=["parent-share", "child-share"])
    def test_verdict_error_raises_in_caller(self, index, monkeypatch, cold_census):
        found = census._grouped_classes(5, 7, census.DEFAULT_LIMIT)[2]
        bad = found[index][1]  # with two shares, verdict r is share r's
        real = census.has_expected_dimension

        def failing(graph, **kwargs):
            if graph == bad:
                raise ValueError("injected")
            return real(graph, **kwargs)

        monkeypatch.setattr(census, "has_expected_dimension", failing)
        monkeypatch.setattr(census, "_usable_cpus", lambda: 2)
        forks = counted_forks(monkeypatch)
        pid = os.getpid()
        with pytest.raises(ValueError, match="injected"):
            census_row(5, 7)
        assert os.getpid() == pid and len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_parent_recomputes_the_share_of_a_child_that_dies(self, monkeypatch, cold_census):
        """A child that writes wrong bytes for its first verdicts and then
        dies abruptly: the parent computes that share again, over the
        child's bytes, and the row is the serial row."""
        monkeypatch.setattr(census, "_usable_cpus", lambda: 1)
        serial = census_row(5, 7)
        census._census_data.cache_clear()
        found = census._grouped_classes(5, 7, census.DEFAULT_LIMIT)[2]
        samples = census._spot_samples(5, 7, 0, census.DEFAULT_LIMIT)
        graphs = [rep for _mask, rep, _size in found] + [g for g, _key in samples]
        real = census.has_expected_dimension
        parent = os.getpid()
        parent_calls, wrong_bytes = [], set()

        def dying(graph, **kwargs):
            verdict = real(graph, **kwargs)
            if os.getpid() == parent:
                parent_calls.append(graph)
                return verdict
            if wrong_bytes == {False, True}:  # a wrong 0 and a wrong 1 written
                os._exit(9)
            wrong_bytes.add(not verdict)
            return not verdict

        monkeypatch.setattr(census, "has_expected_dimension", dying)
        monkeypatch.setattr(census, "_usable_cpus", lambda: 2)
        forks = counted_forks(monkeypatch)
        assert census_row(5, 7) == serial
        assert len(forks) == 1 and wrong_bytes == set()
        assert parent_calls == graphs[0::2] + graphs[1::2]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_children_flush_no_stdio(self, monkeypatch, cold_census, tmp_path):
        # A child leaving through the interpreter's exit would flush the
        # inherited buffer, writing "once" a second time.
        path = tmp_path / "stdout.txt"
        monkeypatch.setattr(census, "_usable_cpus", lambda: 2)
        forks = counted_forks(monkeypatch)
        with open(path, "w") as out, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", out)
            print("once", end="")
            census_row(5, 7)
        assert path.read_text() == "once" and len(forks) == 1

    def test_no_fork_with_a_live_thread(self, monkeypatch, cold_census):
        monkeypatch.setattr(census, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", refuse_fork)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            row = census_row(5, 7)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert (row.A, row.B, row.C, row.E) == (6440, 4052, 281, 180)

    def test_parent_computes_a_share_it_could_not_fork(self, monkeypatch, cold_census):
        def no_process():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(census, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", no_process)
        row = census_row(5, 7)
        assert (row.A, row.B, row.C, row.E) == (6440, 4052, 281, 180)


class TestFourFiveRowProof:
    """Row (4,5) re-derived without the library's enumeration, canonical
    forms, Jacobians or ranks.

    Graphs come from the reachability oracle, classes from the six
    relabelings of vertices 2..4 (a symmetry of the model), Jacobians from
    the sympy determinants. Rank m+1 = 6 is proved by a nonzero 6x6 minor
    at an integer point together with the three diagonal similarities
    diag(1, t2, t3, t4), whose generators lie in the kernel. Where the
    point falls short, the rank is exact elimination over the field of
    rational functions (Matrix.rank's zero test is heuristic).
    """

    NON_EXPECTED = {
        ((1, 2), (2, 3), (3, 2), (3, 4), (4, 1)),
        ((1, 2), (2, 3), (3, 4), (4, 1), (4, 2)),
        ((1, 2), (2, 3), (3, 4), (4, 1), (4, 3)),
    }

    @staticmethod
    def generic_rank(n, edges, rng):
        import sympy
        from sympy.polys.matrices import DomainMatrix

        cs, ds = sympy_double_charpoly(CompartmentGraph(n, edges))
        diagonal = [sympy.Symbol(f"a{v}{v}") for v in range(1, n + 1)]
        rates = [sympy.Symbol(f"a{i}{j}") for j, i in edges]
        jac = sympy.Matrix(cs + ds).jacobian(diagonal + rates)
        scalings = sympy.Matrix(
            [
                [0] * n + [a * ((i == k) - (j == k)) for (j, i), a in zip(edges, rates)]
                for k in range(2, n + 1)
            ]
        ).T
        assert (jac * scalings).expand().is_zero_matrix
        point = {s: rng.randrange(2, 10**6) for s in diagonal + rates}
        assert oracle_rank(scalings.subs(point).tolist()) == n - 1
        upper = len(diagonal + rates) - (n - 1)
        if oracle_rank(jac.subs(point).tolist()) == upper:
            return upper
        return DomainMatrix.from_Matrix(jac).to_field().rank()

    def test_row_counts(self):
        pytest.importorskip("sympy")
        n, m = 4, 5
        pool = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1) if i != j]
        labeled = [
            edges
            for edges in combinations(pool, m)
            if oracle_strongly_connected(CompartmentGraph(n, edges))
        ]
        relabelings = [(0, 1) + p for p in permutations(range(2, n + 1))]
        orbits = {}
        for edges in labeled:
            images = {
                tuple(sorted((s[j], s[i]) for j, i in edges)) for s in relabelings
            }
            orbits.setdefault(min(images), images)

        rng = random.Random(45)
        ranks = {rep: self.generic_rank(n, rep, rng) for rep in orbits}
        expected = [rep for rep, r in ranks.items() if r == m + 1]
        short = {rep for rep, r in ranks.items() if r != m + 1}
        assert short == self.NON_EXPECTED
        assert all(ranks[rep] == m for rep in short)
        assert all(len(orbits[rep]) == 6 for rep in short)

        A, C, E = len(labeled), len(orbits), len(expected)
        B = sum(len(orbits[rep]) for rep in expected)
        assert (A, B, C, E) == (84, 66, 15, 12)
        row = census_row(n, m)
        assert (row.A, row.B, row.C, row.D, row.E, row.F) == (A, B, C, None, E, None)


class TestNonIscIdentifiable:
    def test_absent_for_three_vertices(self):
        assert non_isc_identifiable_classes(3, 4) == []

    def test_four_vertices_has_four(self):
        reps = non_isc_identifiable_classes(4, 6)
        assert len(reps) == 4
        from compident.graphs import is_inductively_strongly_connected

        for g in reps:
            assert is_inductively_strongly_connected(g) is None
            assert has_expected_dimension(g)

    def test_rejects_non_maximal(self):
        with pytest.raises(ValueError):
            non_isc_identifiable_classes(4, 5)


class TestConjectures:
    def test_two_vertices_vacuous(self):
        reports = run_conjectures(2)
        assert all(r.tested == 0 and r.holds for r in reports)

    def test_three_vertices(self):
        reports = {r.conjecture: r for r in run_conjectures(3)}
        assert reports[CONJ_COLLAPSE_MAXIMAL].holds
        assert reports[CONJ_COLLAPSE_CYCLE].holds
        assert reports[CONJ_COLLAPSE_CYCLE].tested > 0

    def test_four_vertices(self):
        reports = run_conjectures(4)
        for r in reports:
            assert r.tested > 0
            assert r.holds, r.counterexamples


class TestPropertySuite:
    def test_small_sweep_passes(self):
        checks = property_suite(n_max=3)
        for name, check in checks.items():
            assert check.passed, (name, check.violations)
        # one maximal graph at n=2 plus the seven expected (3,4) graphs
        assert checks["exchange-necessity"].tested == 8
        assert checks["directed-cycle-expected"].tested == 4
        assert checks["add-exchange-preserved"].tested > 0
        assert checks["edge-bound"].tested > 0


def labeled_conjectures(n, seed=0, trials=2, limit=census.DEFAULT_LIMIT):
    """The collapse sweep over every labeled graph, one verdict per labeled
    graph: the reference for the class sweep. Verdicts are looked up on the
    census module so that a patched verdict reaches both sweeps."""
    reports = {
        CONJ_COLLAPSE_MAXIMAL: census.ConjectureReport(CONJ_COLLAPSE_MAXIMAL),
        CONJ_COLLAPSE_CYCLE: census.ConjectureReport(CONJ_COLLAPSE_CYCLE),
    }
    for m in range(n, max(2 * n - 1, n + 1)):
        for graph in enumerate_sc_graphs(n, m, limit=limit):
            for v in exchange_vertices(graph):
                collapsed = collapse_exchange(graph, at=v)
                applicable = []
                if (
                    m == 2 * n - 2
                    and collapsed.m == 2 * n - 4
                    and has_exchange(collapsed) is not None
                ):
                    applicable.append(CONJ_COLLAPSE_MAXIMAL)
                if collapsed.m == n - 1 and collapsed.n >= 2:
                    applicable.append(CONJ_COLLAPSE_CYCLE)
                if not applicable:
                    continue
                g_expected = census.has_expected_dimension(graph, trials=trials, seed=seed)
                c_expected = census.has_expected_dimension(collapsed, trials=trials, seed=seed)
                for name in applicable:
                    reports[name].tested += 1
                    if g_expected != c_expected:
                        reports[name].counterexamples.append(
                            {
                                "graph": {"n": graph.n, "edges": [list(e) for e in graph.edges]},
                                "exchange_vertex": v,
                                "collapsed": {
                                    "n": collapsed.n,
                                    "edges": [list(e) for e in collapsed.edges],
                                },
                                "graph_expected": g_expected,
                                "collapsed_expected": c_expected,
                            }
                        )
    return [reports[CONJ_COLLAPSE_MAXIMAL], reports[CONJ_COLLAPSE_CYCLE]]


def refuse(*args, **kwargs):
    raise AssertionError("labeled graph canonicalized or enumerated in a sweep")


def refuse_canonical_form(monkeypatch):
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "compident" and hasattr(module, "canonical_form"):
            monkeypatch.setattr(module, "canonical_form", refuse)


class TestClassSweeps:
    """The conjecture sweep and the add-exchange check run on census classes
    and count each class by its size."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_conjectures_match_labeled_sweep(self, n):
        got = [r.as_dict() for r in run_conjectures(n)]
        assert got == [r.as_dict() for r in labeled_conjectures(n)]

    def test_conjectures_never_touch_labeled_graphs(self, monkeypatch, cold_census):
        refuse_canonical_form(monkeypatch)
        monkeypatch.setattr(census, "enumerate_sc_graphs", refuse)
        assert all(r.tested > 0 and r.holds for r in run_conjectures(4))

    def test_property_suite_never_canonicalizes(self, monkeypatch, cold_census):
        refuse_canonical_form(monkeypatch)
        checks = property_suite(n_max=3)
        assert all(check.passed for check in checks.values())

    def test_counterexamples_listed_once_per_class(self, monkeypatch, cold_census):
        # Relabeling invariant, so the census spot check accepts it; every
        # collapse (n = 3) then disagrees with its graph (n = 4).
        monkeypatch.setattr(census, "has_expected_dimension", lambda graph, **kw: graph.n == 4)
        reports = run_conjectures(4)
        labeled = labeled_conjectures(4)
        for report, reference in zip(reports, labeled):
            assert report.tested == reference.tested > 0
            assert len(reference.counterexamples) == reference.tested
            sizes = [example.pop("class_size") for example in report.counterexamples]
            assert sum(sizes) == report.tested
            assert len(sizes) < report.tested
            for example in report.counterexamples:
                assert example in reference.counterexamples
                assert (example["graph_expected"], example["collapsed_expected"]) == (True, False)
