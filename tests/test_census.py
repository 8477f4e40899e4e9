import dataclasses
import gc
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
from compident import graphs as graphs_mod
from compident.census import (
    CONJ_COLLAPSE_CYCLE,
    CONJ_COLLAPSE_MAXIMAL,
    census_classes,
    census_row,
    non_isc_identifiable_classes,
    property_suite,
    test_conjectures as run_conjectures,
)
from compident.graphs import _adjacency, _strongly_connected, is_inductively_strongly_connected

from conftest import BAD_SEEDS, BAD_TRIALS, class_verdicts, count_calls, oracle_rank, oracle_strongly_connected, sympy_double_charpoly


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

    def test_edge_count_range(self):
        """m runs over 0..n(n-1). At m = 0 the scan yields the single
        vertex, the one strongly connected graph without edges, and at
        m = n(n-1) the complete digraph; past either end it yields nothing,
        and a negative m raises nothing."""
        for n in range(1, 4):
            full = n * (n - 1)
            assert list(enumerate_sc_graphs(n, 0)) == ([CompartmentGraph(1, ())] if n == 1 else [])
            assert list(enumerate_sc_graphs(n, full)) == [CompartmentGraph(n, tuple(census.all_possible_edges(n)))]
            assert list(enumerate_sc_graphs(n, -1)) == list(enumerate_sc_graphs(n, full + 1)) == []

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

    @pytest.mark.parametrize("trials, error, match", BAD_TRIALS)
    def test_trials_checked_on_both_sides_of_the_edge_bound(self, trials, error, match):
        for m in (4, 5):  # 2n-2 = 4: the bound decides every class of (3, 5)
            with pytest.raises(error, match=match):
                census_row(3, m, trials=trials)

    @pytest.mark.parametrize("seed, error, match", BAD_SEEDS)
    def test_seed_checked_on_every_row(self, seed, error, match):
        """The seed goes through `operator.index` before anything else, on
        rows the edge bound decides and on rows with no classes too."""
        for m in (4, 5, 7):
            for row in (census_row, census_classes):
                with pytest.raises(error, match=match):
                    row(3, m, seed=seed)

    def test_bool_seed_is_its_int(self, monkeypatch):
        """Seed True draws seed 1's spot-check members and passes the int
        1 to every verdict (59 verdicts: all in this process)."""
        seen = []
        real = census.has_expected_dimension

        def recording(graph, **kwargs):
            seen.append((graph, type(kwargs["seed"]), kwargs["seed"]))
            return real(graph, **kwargs)

        monkeypatch.setattr(census, "has_expected_dimension", recording)
        assert census_classes(4, 6, seed=True) == census_classes(4, 6, seed=1)
        assert len(seen) == 2 * 59 and seen[:59] == seen[59:]
        assert {(kind, seed) for _graph, kind, seed in seen} == {(int, 1)}

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
        verdicts = class_verdicts(census_classes(3, 4))
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
        class_verdicts(census_classes(3, 4)).clear()
        assert census_row(3, 4) == before
        assert before.B == 7
        assert len(class_verdicts(census_classes(3, 4))) == before.C

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


def unpruned_grouped_classes(n: int, m: int):
    """`census._grouped_classes` as it stood before the reach prune: each
    child takes the canonicity test first and, once entered, a strong
    connectivity test on a rebuilt edge list. Each class's graph goes
    through the public constructor, and its exchange and ISC flags come
    from `has_exchange` and `is_inductively_strongly_connected`. Oracle for
    the pruned search."""
    pool = census.all_possible_edges(n)
    P = len(pool)
    if m < 0 or m > P:
        return CompartmentGraph(n, pool), [], []
    index = {e: i for i, e in enumerate(pool)}
    others = range(2, n + 1)
    relabelings = [{1: 1, **dict(zip(others, perm))} for perm in permutations(others)]
    images = [[1 << (P - 1 - index[(s[j], s[i])]) for s in relabelings]
              for j, i in reversed(pool)]
    classes = []

    def grow(mask, sums, chosen, low):
        need = m - len(chosen)
        reach = chosen + tuple(range(P - low, P)) if need else chosen
        if not _strongly_connected(*_adjacency(n, [pool[i] for i in reach])):
            return
        if not need:
            graph = CompartmentGraph(n, tuple(pool[i] for i in chosen))
            exchange = has_exchange(graph) is not None
            isc = is_inductively_strongly_connected(graph) is not None
            classes.append((mask, len(sums) // sums.count(mask), exchange, isc))
            return
        for b in range(low - 1, need - 2, -1):
            child_sums = [x + y for x, y in zip(sums, images[b])]
            if max(child_sums) == mask | 1 << b:
                grow(mask | 1 << b, child_sums, chosen + (P - 1 - b,), b)

    grow(0, [0] * len(relabelings), (), P)
    return CompartmentGraph(n, pool), images, classes


def grouped_representatives(n: int, m: int, limit: int = census.DEFAULT_LIMIT) -> list[CompartmentGraph]:
    """The class representatives of `census._grouped_classes`, in order."""
    pool, _images, found = census._grouped_classes(n, m, limit)
    return [pool.edge_subgraph(mask) for mask, *_rest in found]


ORACLE_ROWS = [(n, m) for n in range(1, 6) for m in range(-1, n * (n - 1) + 2)] + [(6, 7), (6, 8)]


class TestOrderlyCensus:
    def test_strong_connectivity_calls_bounded(self, monkeypatch):
        """The search's work, counted: canonicity tests (one `max` over a
        child's image sums each) and reach walks (`_reach`, two per strong
        connectivity test). Testing canonicity before strong connectivity
        raises the first count; going on past the first child that fails
        strong connectivity, where the reach sets are nested, or testing
        the first child's reach set, which admitted its parent, raises the
        second. None of them changes the classes."""
        canonicity = []

        def counting_max(*args, **kwargs):
            canonicity.append(1)
            return max(*args, **kwargs)

        reaches = []
        real_reach = graphs_mod._reach

        def counting_reach(adj):
            reaches.append(1)
            return real_reach(adj)

        monkeypatch.setattr(census, "max", counting_max, raising=False)
        monkeypatch.setattr(graphs_mod, "_reach", counting_reach)
        # (n, m): A, C, canonicity tests, reach walks. Unpruned, (5,8) took
        # 5,307 canonicity tests and (6,8) 22,823; the labeled scan of (5,8)
        # made C(20, 8) = 125,970 strong connectivity tests. Testing the
        # first child too took 8,701 and 30,376 reach walks.
        for (n, m), pinned in {(5, 8): (26875, 1158, 2685, 7861),
                               (6, 8): (107850, 941, 4135, 29150)}.items():
            canonicity.clear()
            reaches.clear()
            found = census._grouped_classes(n, m, 6)[2]
            counts = (sum(size for _mask, size, *_flags in found), len(found))
            assert counts == pinned[:2]
            assert 0 < len(canonicity) <= pinned[2]
            assert 0 < len(reaches) <= pinned[3]

    @pytest.mark.parametrize("n, m", ORACLE_ROWS)
    def test_pruned_search_equals_unpruned(self, n, m):
        assert census._grouped_classes(n, m, 6) == unpruned_grouped_classes(n, m)

    def test_seven_vertex_grouping(self):
        found = census._grouped_classes(7, 9, 7)[2]
        assert len(found) == 2497
        assert sum(size for _mask, size, *_flags in found) == 1_719_060

    def test_spot_check_catches_a_non_equivariant_verdict(self, monkeypatch):
        # (4,6) runs its verdicts serially, (5,7) splits them over children.
        rows = [(4, 6), (5, 7)]
        representatives = {rep for n, m in rows for rep in grouped_representatives(n, m)}

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
        grouping = census._grouped_classes(n, m, census.DEFAULT_LIMIT)
        samples = census._spot_samples(n, m, 0, *grouping)
        assert len(samples) == -(-census_row(n, m).A // census.SPOT_CHECK_STRIDE)
        pool, _images, found = grouping
        representatives = {mask: pool.edge_subgraph(mask) for mask, *_rest in found}
        for graph, key in samples:
            rep = representatives[key]
            assert graph != rep and graph.m == m
            assert canonical_form(graph) == canonical_form(rep)
        assert samples == census._spot_samples(n, m, 0, *grouping)

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
    def test_six_vertex_rows(self, m, counts):
        row = census_row(6, m, limit=6)
        assert (row.A, row.B, row.C, row.E) == counts
        assert (row.D, row.F) == (None, None)

    def test_empty_rows(self):
        for m in (-1, 7):
            row = census_row(3, m)
            assert (row.A, row.B, row.C, row.E) == (0, 0, 0, 0)
            assert census_classes(3, m) == []


class TestGraphsFromThePool:
    """A row validates its pool of candidate edges once, through the public
    constructor, and builds each representative and spot-check member
    once, from its mask (`CompartmentGraph.edge_subgraph`). The exchange
    and ISC flags the DFS reads off its adjacency masks are checked against
    the public predicates on every class of ORACLE_ROWS by
    `TestOrderlyCensus::test_pruned_search_equals_unpruned`."""

    @pytest.mark.parametrize("n, m", [(3, 4), (4, 6), (5, 7), (5, 8), (6, 8)])
    def test_graphs_equal_the_public_constructor(self, n, m):
        grouping = census._grouped_classes(n, m, 6)
        assert grouping[0] == CompartmentGraph(n, census.all_possible_edges(n))
        graphs = grouped_representatives(n, m, 6) + [g for g, _key in census._spot_samples(n, m, 0, *grouping)]
        for graph in graphs:
            rebuilt = CompartmentGraph(graph.n, graph.edges)
            assert graph == rebuilt and hash(graph) == hash(rebuilt) and graph.m == m
        assert [c.representative for c in census_classes(n, m, limit=6)] == graphs[: len(grouping[2])]

    def test_one_full_validation_per_row(self, monkeypatch):
        """The pool's, and none of the classes' or spot-check members'
        (all verdicts in this process)."""
        monkeypatch.setattr(census, "_usable_cpus", lambda: 1)
        validations = count_calls(monkeypatch, CompartmentGraph, "__post_init__")
        for n, m in [(4, 6), (5, 7), (5, 8)]:
            validations.clear()
            row = census_row(n, m)
            assert row.C > 0 and len(validations) == 1


class TestRowCache:
    """A row is computed when asked for, grouped once, and held by nothing
    after its caller drops it."""

    def test_no_class_outlives_its_call(self):
        census_row(4, 6)
        census_classes(3, 4)
        run_conjectures(4)
        gc.collect()
        assert not [obj for obj in gc.get_objects() if isinstance(obj, census.CensusClass)]

    def test_property_suite_groups_each_row_once(self, monkeypatch):
        grouped = []
        real = census._grouped_classes

        def counting(n, m, limit):
            grouped.append((n, m))
            return real(n, m, limit)

        monkeypatch.setattr(census, "_grouped_classes", counting)
        checks = property_suite(5)
        assert all(check.passed for check in checks.values())
        rows = [(1, 0)] + [(n, m) for n in range(2, 6) for m in range(n, 2 * n - 1)]
        assert grouped == rows

    def test_conjectures_group_each_row_once(self, grouped_rows):
        assert all(r.holds for r in run_conjectures(4))
        assert grouped_rows == [(4, 4), (4, 5), (4, 6)]


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

    def test_split_equals_serial(self, monkeypatch):
        rows = [(4, 6), (5, 7), (5, 8)]

        def run(cpus):
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
    def test_verdict_error_raises_in_caller(self, index, monkeypatch):
        bad = grouped_representatives(5, 7)[index]  # with two shares, verdict r is share r's
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

    def test_parent_recomputes_the_share_of_a_child_that_dies(self, monkeypatch):
        """A child that writes wrong bytes for its first verdicts and then
        dies abruptly: the parent computes that share again, over the
        child's bytes, and the row is the serial row."""
        monkeypatch.setattr(census, "_usable_cpus", lambda: 1)
        serial = census_row(5, 7)
        grouping = census._grouped_classes(5, 7, census.DEFAULT_LIMIT)
        samples = census._spot_samples(5, 7, 0, *grouping)
        graphs = grouped_representatives(5, 7) + [g for g, _key in samples]
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

    def test_children_flush_no_stdio(self, monkeypatch, tmp_path):
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

    def test_no_fork_with_a_live_thread(self, monkeypatch):
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

    def test_parent_computes_a_share_it_could_not_fork(self, monkeypatch):
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


class TestCollapseCounterexample:
    """A (6,10) graph G of the expected dimension whose one applicable
    collapse, at vertex 2, falls short of it: the collapse conjecture
    `collapse-2n-4`, as `test_conjectures` reads it, fails at n = 6. Both
    ranks are re-derived by `TestFourFiveRowProof.generic_rank`, with no
    library Jacobian or rank: G's from a nonzero 11 x 11 minor at an
    integer point and the five diagonal scalings in the kernel, the
    collapse's over the field of rational functions."""

    G = ((1, 2), (1, 3), (1, 4), (2, 1), (2, 5), (3, 1), (4, 6), (5, 1), (5, 3), (6, 2))
    COLLAPSED = ((1, 2), (1, 3), (1, 4), (2, 1), (3, 5), (4, 1), (4, 2), (5, 1))

    def test_expected_graph_with_a_deficient_collapse(self):
        pytest.importorskip("sympy")
        rng = random.Random(610)
        graph = CompartmentGraph(6, self.G)
        assert exchange_vertices(graph) == [2, 3]
        assert TestFourFiveRowProof.generic_rank(6, self.G, rng) == graph.m + 1 == 11

        collapsed = collapse_exchange(graph, at=2)
        assert collapsed == CompartmentGraph(5, self.COLLAPSED)
        assert collapsed.m == 2 * graph.n - 4 and has_exchange(collapsed) is not None
        assert TestFourFiveRowProof.generic_rank(5, self.COLLAPSED, rng) == 8 < collapsed.m + 1

        other = collapse_exchange(graph, at=3)  # neither 2n-4 = 8 nor n-1 = 5 edges: no conjecture applies
        assert other.m == 7

        assert has_expected_dimension(graph) is True
        assert has_expected_dimension(collapsed) is False


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

    def test_conjectures_never_touch_labeled_graphs(self, monkeypatch):
        refuse_canonical_form(monkeypatch)
        monkeypatch.setattr(census, "enumerate_sc_graphs", refuse)
        assert all(r.tested > 0 and r.holds for r in run_conjectures(4))

    def test_property_suite_never_canonicalizes(self, monkeypatch):
        refuse_canonical_form(monkeypatch)
        checks = property_suite(n_max=3)
        assert all(check.passed for check in checks.values())

    def test_counterexamples_listed_once_per_class(self, monkeypatch):
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
