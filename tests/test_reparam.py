import hashlib
import json
import random
from dataclasses import replace
from itertools import combinations, islice

import pytest

from compident import (
    CompartmentGraph,
    Disconnected,
    MalformedInput,
    NoReparametrization,
    NotSquare,
    NotStronglyConnected,
    NotUnimodular,
    TooManyEdges,
    jacobian,
    numeric_coefficients,
    reparametrization_from_json,
    reparametrize,
    verify_reparametrization,
)
from compident import charpoly, exact, graphs, reparam
from compident.census import complete_digraph
from compident.exact import MERSENNE61, PRIME_MODE, inverse_unimodular, rank_bareiss, rank_mod_p
from compident.graphs import SpanningTree, elementary_cycles, tree_walk
from compident.reparam import (
    ScalingReparametrization,
    alternate_spanning_tree,
    cycle_basis,
    express_in_cycles,
    reparametrization_failures,
    rescaled_exponent_matrix,
    scaling_exponents,
    spanning_tree,
    validate_tree,
)

from conftest import (
    BAD_SEEDS,
    BAD_TRIALS,
    clear_graph_memos,
    count_calls,
    directed_cycle_graph,
    incidence_matrix,
    oracle_strongly_connected,
    reference_classes,
)

WHEEL5_TREE = [(2, 3), (3, 4), (4, 5), (5, 1)]  # rates a32, a43, a54, a15


def names_of(graph, indices):
    return [graph.edge_param_name(k) for k in sorted(indices)]


class TestSpanningTree:
    def test_chain4_takes_the_path(self, chain4):
        tree = spanning_tree(chain4)
        assert names_of(chain4, tree.edge_indices) == ["a12", "a23", "a34"]

    def test_single_vertex(self, single):
        assert spanning_tree(single).edge_indices == ()

    def test_exchange_pair(self, exchange2):
        assert len(spanning_tree(exchange2).edge_indices) == 1

    def test_validate_rejects_bad_trees(self, chain4):
        with pytest.raises(ValueError):
            validate_tree(chain4, [(2, 1), (1, 2), (3, 2)])  # cycle on {1,2}
        with pytest.raises(ValueError):
            validate_tree(chain4, [(2, 1), (3, 2)])  # too few
        with pytest.raises(ValueError):
            validate_tree(chain4, [(2, 1), (3, 2), (4, 1)])  # not an edge
        with pytest.raises(TypeError):
            validate_tree(chain4, [(1.7, 2), (2, 3), (4, 3)])  # would truncate to (1, 2)
        cycle4 = directed_cycle_graph(4)
        for pairs in ([(1, 2, 99), (2, 3), (3, 4)], [(1,), (2, 3), (3, 4)]):
            with pytest.raises(ValueError, match="not a \\(source, target\\) pair"):
                validate_tree(cycle4, pairs)
        doc = reparametrize(cycle4).to_json_dict()
        doc["tree_edges"][0].append(99)
        with pytest.raises(MalformedInput, match="pair"):
            reparametrization_from_json(cycle4, doc)

    def test_validate_matches_union_find(self, wheel5):
        graphs = [entry.representative for entry in reference_classes(4, 6)] + [wheel5]
        accepted = 0
        for g in graphs:
            for subset in combinations(range(g.m), g.n - 1):
                try:
                    tree = validate_tree(g, [g.edges[k] for k in subset])
                except ValueError:
                    assert not union_find_acyclic(g, subset)
                    continue
                assert union_find_acyclic(g, subset) and tree.edge_indices == subset
                assert scaling_exponents(g, tree) == tree_inverse_exponents(g, tree)
                accepted += 1
        assert accepted > 500
        with pytest.raises(ValueError, match="cycle"):
            validate_tree(wheel5, WHEEL5_TREE + WHEEL5_TREE[:1])  # a repeated edge

    def test_alternate_tree_differs(self, chain4):
        first = spanning_tree(chain4)
        second = alternate_spanning_tree(chain4, first)
        assert second is not None and second != first

    def test_alternate_tree_in_two_cycle(self, exchange2):
        first = spanning_tree(exchange2)
        second = alternate_spanning_tree(exchange2, first)
        assert second is not None and second.edge_indices != first.edge_indices

    def test_only_spanning_tree_raises_disconnected(self):
        """`tree_walk` returns the part it reached; `spanning_tree` turns a
        walk short of n-1 edges into Disconnected."""
        graph = CompartmentGraph(3, ((1, 2), (2, 1)))
        assert tree_walk(graph, range(graph.m)) == [(2, 1, 0)]
        with pytest.raises(Disconnected, match="the edges do not connect every vertex to vertex 1"):
            spanning_tree(graph)

    def test_walk_ends_at_the_scan_that_decides(self):
        """`tree_walk` scans its edges again only while the last scan
        reached a new vertex and some vertex is left: one scan when the
        edges come in walk order, one per edge in reverse order, and one
        more than the scans that grow a walk that falls short."""

        class Scans(list):
            count = 0

            def __iter__(self):
                self.count += 1
                return super().__iter__()

        cycle4 = directed_cycle_graph(4)
        for graph, indices, walk, scans in [
            (cycle4, [0, 1, 2], [(2, 1, 0), (3, 2, 1), (4, 3, 2)], 1),
            (cycle4, [2, 1, 0], [(2, 1, 0), (3, 2, 1), (4, 3, 2)], 3),
            (cycle4, [3, 1], [(4, 1, 3)], 2),
        ]:
            indices = Scans(indices)
            assert (tree_walk(graph, indices), indices.count) == (walk, scans)

    def test_alternate_tree_matches_brute_force(self, chain4, wheel5):
        """The first edge subset in `combinations` order, other than the
        default tree, that union-find finds acyclic."""
        graphs = [c.representative for n, m in ((4, 6), (5, 7), (5, 8)) for c in reference_classes(n, m)]
        for g in graphs + [chain4, wheel5]:
            first = spanning_tree(g)
            subsets = combinations(range(g.m), g.n - 1)
            brute = next(s for s in subsets if s != first.edge_indices and union_find_acyclic(g, s))
            assert alternate_spanning_tree(g, first) == SpanningTree(brute), g
        assert len(graphs) == 55 + 281 + 1158

    def test_unique_tree_has_no_alternate(self):
        graph = CompartmentGraph(2, ((1, 2),))
        assert alternate_spanning_tree(graph, spanning_tree(graph)) is None

    def test_alternate_tree_checks_indices_without_pairs(self, monkeypatch, wheel5):
        """The candidates stay edge indices: no `validate_tree` round trip
        through pairs, and no `edge_index` dict."""
        checks = count_calls(monkeypatch, reparam, "validate_tree")
        indexes = count_calls(monkeypatch, CompartmentGraph, "edge_index")
        first = spanning_tree(wheel5)
        assert alternate_spanning_tree(wheel5, first) not in (None, first)
        assert (checks, indexes) == ([], [])


def union_find_acyclic(graph, subset):
    """True iff the edges `subset`, viewed as undirected, contain no cycle."""
    parent = list(range(graph.n + 1))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for k in subset:
        roots = find(graph.edges[k][0]), find(graph.edges[k][1])
        if roots[0] == roots[1]:
            return False
        parent[roots[0]] = roots[1]
    return True


def tree_inverse_exponents(graph, tree):
    """f_1 = 1 and, for v >= 2, the column of vertex v in the inverse of the
    tree block (rows 2..n) of the incidence matrix, spread over the edges."""
    full = incidence_matrix(graph)
    block = [[full[r][c] for c in tree.edge_indices] for r in range(1, graph.n)]
    inverse = inverse_unimodular(block)
    out = [(0,) * graph.m]
    for v in range(2, graph.n + 1):
        expanded = [0] * graph.m
        for r, k in enumerate(tree.edge_indices):
            expanded[k] = inverse[r][v - 2]
        out.append(tuple(expanded))
    return out


class TestScalingExponents:
    def test_chain4(self, chain4):
        tree = spanning_tree(chain4)
        f = scaling_exponents(chain4, tree)
        names = [chain4.edge_param_name(k) for k in range(6)]
        from compident.monomial import format_monomial

        rendered = [format_monomial(names, v) for v in f]
        assert rendered == ["1", "a12", "a12*a23", "a12*a23*a34"]

    def test_wheel5_with_explicit_tree(self, wheel5):
        tree = validate_tree(wheel5, WHEEL5_TREE)
        f = scaling_exponents(wheel5, tree)
        names = [wheel5.edge_param_name(k) for k in range(8)]
        from compident.monomial import format_monomial

        rendered = [format_monomial(names, v) for v in f]
        assert rendered == [
            "1",
            "a15*a32*a43*a54",
            "a15*a43*a54",
            "a15*a54",
            "a15",
        ]

    def test_single_vertex(self, single):
        assert scaling_exponents(single, spanning_tree(single)) == [()]

    def test_matches_inverse_tree_block(self, chain4, wheel5):
        from compident.census import enumerate_sc_graphs

        graphs = [chain4, wheel5]
        graphs += list(islice(enumerate_sc_graphs(4, 6), 0, None, 7))
        graphs += list(islice(enumerate_sc_graphs(5, 8), 0, 4000, 200))
        checked = 0
        for g in graphs:
            first = spanning_tree(g)
            for tree in (first, alternate_spanning_tree(g, first)):
                f = scaling_exponents(g, tree)
                assert f == tree_inverse_exponents(g, tree)
                checked += 1
        assert checked >= 60

    def test_inverted_tree_edge_gives_negative_exponents(self):
        g = directed_cycle_graph(3)
        tree = spanning_tree(g)  # edges 1->2, 2->3: rates a21, a32
        f = scaling_exponents(g, tree)
        assert f[1] == (-1, 0, 0)  # f_2 = a21^-1
        assert f[2] == (-1, -1, 0)


class TestRescaledMatrix:
    def test_tree_rows_vanish(self, chain4):
        tree = spanning_tree(chain4)
        rows = rescaled_exponent_matrix(
            chain4, scaling_exponents(chain4, tree)
        )
        for k in tree.edge_indices:
            assert all(x == 0 for x in rows[k])

    def test_chain4_off_tree_rows_are_cycles(self, chain4):
        from compident.graphs import elementary_cycles

        tree = spanning_tree(chain4)
        rows = rescaled_exponent_matrix(
            chain4, scaling_exponents(chain4, tree)
        )
        cycles = {c.monomial: c.exponent_vector for c in elementary_cycles(chain4)}
        index = chain4.edge_index()
        assert rows[index[(1, 2)]] == cycles["a12*a21"]
        assert rows[index[(2, 3)]] == cycles["a23*a32"]
        assert rows[index[(2, 4)]] == cycles["a23*a34*a42"]

    def test_wheel5_feedback_row(self, wheel5):
        tree = validate_tree(wheel5, WHEEL5_TREE)
        rows = rescaled_exponent_matrix(
            wheel5, scaling_exponents(wheel5, tree)
        )
        from compident.monomial import format_monomial

        names = [wheel5.edge_param_name(k) for k in range(8)]
        index = wheel5.edge_index()
        assert (
            format_monomial(names, rows[index[(1, 2)]])
            == "a15*a21*a32*a43*a54"
        )

    def test_circulation_property(self):
        rng = random.Random(23)
        tried = 0
        while tried < 40:
            n = rng.randrange(2, 6)
            pool = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1) if i != j]
            m = rng.randrange(n, len(pool) + 1)
            g = CompartmentGraph(n, tuple(rng.sample(pool, m)))
            if not oracle_strongly_connected(g):
                continue
            tried += 1
            rows = rescaled_exponent_matrix(g, scaling_exponents(g, spanning_tree(g)))
            E = incidence_matrix(g)
            for row in rows:
                image = [sum(E[r][k] * row[k] for k in range(g.m)) for r in range(g.n)]
                assert all(x == 0 for x in image)


def square_block(basis):
    """The cycle basis's rows on the non-tree edges."""
    return [list(basis.matrix[r]) for r in basis.nontree_rows]


#: SpanningTrees that span no graph they are given with: (graph, edge
#: indices, message).
MALFORMED_TREES = [
    pytest.param(directed_cycle_graph(4), (0, 1, 2, 3), "3 distinct edges", id="too-many"),
    pytest.param(directed_cycle_graph(4), (0, 1), "3 distinct edges", id="too-few"),
    pytest.param(directed_cycle_graph(4), (0, 0, 1), "3 distinct edges", id="repeated"),
    pytest.param(directed_cycle_graph(4), (0, 0, 1, 2), "contain a cycle", id="repeated-spanning"),
    pytest.param(directed_cycle_graph(4), (0, 1, -2), "range", id="negative"),
    pytest.param(directed_cycle_graph(4), (0, 1, 9), "range", id="out-of-range"),
    pytest.param(directed_cycle_graph(4), (0, 1, 4), "range", id="index-m"),
    pytest.param(
        CompartmentGraph(3, ((1, 2), (2, 1), (2, 3), (3, 2))), (0, 1), "contain a cycle", id="cycle"
    ),
]


class TestCycleBasis:
    @pytest.mark.parametrize("build", [cycle_basis, scaling_exponents], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("graph, edges, match", MALFORMED_TREES)
    def test_malformed_tree_is_rejected(self, build, graph, edges, match):
        """A public entry point checks the tree it is given before any
        search: with too few tree edges no non-tree block is unimodular,
        and the cycle basis's fallback would try every subset of cycles."""
        with pytest.raises(ValueError, match=match):
            build(graph, graphs.SpanningTree(edges))

    def test_chain4(self, chain4):
        tree = spanning_tree(chain4)
        basis = cycle_basis(chain4, tree)
        assert [c.monomial for c in basis.cycles] == [
            "a12*a21",
            "a23*a32",
            "a23*a34*a42",
        ]
        from compident.exact import det_int

        assert abs(det_int(square_block(basis))) == 1

    def test_wheel5_spans(self, wheel5):
        tree = validate_tree(wheel5, WHEEL5_TREE)
        basis = cycle_basis(wheel5, tree)
        assert len(basis.cycles) == 4
        monomials = {c.monomial for c in basis.cycles}
        assert monomials == {
            "a13*a31",
            "a34*a43",
            "a13*a21*a32",
            "a15*a31*a43*a54",
        }

    def test_directed_cycle_single(self):
        g = directed_cycle_graph(4)
        basis = cycle_basis(g, spanning_tree(g))
        assert len(basis.cycles) == 1 and basis.cycles[0].length == 4

    def test_matrix_has_a_row_per_edge_without_cycles(self, chain4):
        """The basis matrix is the transpose of the chosen cycles' exponent
        vectors, one row per edge; with no cycle chosen it still has one
        empty row per edge."""
        empty = reparam._unimodular_basis((), 3, ())
        assert (empty.cycles, empty.matrix, empty.block_inverse) == ((), ((), (), ()), ())
        basis = cycle_basis(chain4, spanning_tree(chain4))
        assert basis.matrix == tuple(
            tuple(c.exponent_vector[r] for c in basis.cycles) for r in range(chain4.m)
        )

    def test_search_past_a_greedy_block_that_is_not_unimodular(self, monkeypatch):
        """When the greedy pass over the candidates picks a block whose
        determinant is not +-1, `cycle_basis` tries the subsets of the
        candidates in order. No real graph is known to need it, so the
        candidate order is patched: on complete_digraph(4) (m = 12, 9 cycles
        needed) the six 2-cycles and the 4-cycles (1,2,3,4), (1,2,4,3) and
        (1,3,2,4) first give a non-tree block of determinant +-2."""
        g = complete_digraph(4)
        tree = spanning_tree(g)
        nontree = graphs._nontree_edges(g, tree)
        real = reparam._cycle_candidates(g)
        first = [c.vertices for c in real if c.length == 2] + [(1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4)]
        prefix = tuple(c for v in first for c in real if c.vertices == v)
        patched = prefix + tuple(c for c in real if c not in prefix)
        assert len(prefix) == 9 == len(nontree) and sorted(map(id, patched)) == sorted(map(id, real))
        block = [[c.exponent_vector[r] for c in prefix] for r in nontree]
        assert exact.det_int(block) in (2, -2)
        with pytest.raises(NotUnimodular, match="determinant is"):  # the greedy pass picks the prefix
            reparam._unimodular_basis(patched, g.m, nontree)
        monkeypatch.setattr(reparam, "_cycle_candidates", lambda graph: patched)
        basis = cycle_basis(g, tree)
        assert basis.cycles != prefix and len(basis.cycles) == 9
        assert exact.det_int([[c.exponent_vector[r] for c in basis.cycles] for r in nontree]) in (1, -1)

    def test_candidates_build_no_one_cycle(self, monkeypatch, chain4, wheel5):
        """The candidates come from the search for cycles of length >= 2
        alone: no one-cycle is built to be dropped."""
        built = []
        real = graphs.Cycle

        def recording(vertices, *rest):
            built.append(len(vertices))
            return real(vertices, *rest)

        monkeypatch.setattr(graphs, "Cycle", recording)
        sample = [chain4, wheel5, complete_digraph(4)]
        candidates = [reparam._cycle_candidates(g) for g in sample]
        assert len(built) == sum(map(len, candidates)) > 0 and min(built) >= 2
        assert candidates == [tuple(c for c in elementary_cycles(g) if c.length >= 2) for g in sample]

    @pytest.mark.parametrize(
        "n, m, count, digest",
        [(4, 6, 30, "804912d241cfa06e"), (5, 7, 180, "75ea605fdf17e01b"), (5, 8, 421, "1de5dd115c97c54f")],
    )
    def test_documents_of_the_expected_classes(self, n, m, count, digest):
        """`to_json_dict` of every expected class, under the default tree,
        pinned by the leading hex digits of the sha256 of their JSON."""
        docs = [reparametrize(c.representative).to_json_dict() for c in reference_classes(n, m) if c.expected]
        text = json.dumps(docs, sort_keys=True)
        assert (len(docs), hashlib.sha256(text.encode()).hexdigest()[:16]) == (count, digest)


def greedy_cycles(graph, need):
    """Reference scan: keep each cycle of length >= 2, in canonical order,
    that raises the integer rank of the full exponent vectors kept so far."""
    chosen, vectors = [], []
    for c in elementary_cycles(graph):
        if c.length >= 2 and len(chosen) < need:
            if rank_bareiss(vectors + [c.exponent_vector]) == len(vectors) + 1:
                chosen.append(c)
                vectors.append(c.exponent_vector)
    return tuple(chosen)


class TestGreedyReference:
    def test_same_cycles_on_every_expected_class(self):
        checked = 0
        for n, m in [(3, 4), (4, 5), (4, 6), (5, 6), (5, 7), (5, 8)]:
            for entry in reference_classes(n, m):
                if entry.expected:
                    g = entry.representative
                    basis = cycle_basis(g, spanning_tree(g))
                    assert basis.cycles == greedy_cycles(g, m - n + 1), g
                    checked += 1
        assert checked == 673


class TestExpressInCycles:
    def test_chain4_is_the_identity(self, chain4):
        tree = spanning_tree(chain4)
        basis = cycle_basis(chain4, tree)
        expr = express_in_cycles(basis)
        assert list(expr.values()) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_wheel5_quotient(self, wheel5):
        tree = validate_tree(wheel5, WHEEL5_TREE)
        basis = cycle_basis(wheel5, tree)
        expr = express_in_cycles(basis)
        index = wheel5.edge_index()
        z = expr[index[(1, 2)]]
        by_monomial = {c.monomial: t for t, c in enumerate(basis.cycles)}
        # a21*(tree rates) = (a15*a31*a43*a54) * (a13*a21*a32) / (a13*a31)
        assert z[by_monomial["a15*a31*a43*a54"]] == 1
        assert z[by_monomial["a13*a21*a32"]] == 1
        assert z[by_monomial["a13*a31"]] == -1
        assert z[by_monomial["a34*a43"]] == 0

    def test_directed_cycle_closing_edge(self):
        g = directed_cycle_graph(5)
        tree = spanning_tree(g)
        basis = cycle_basis(g, tree)
        expr = express_in_cycles(basis)
        assert list(expr.values()) == [(1,)]

    @pytest.mark.parametrize("n, m", [(4, 6), (5, 7), (5, 8)])
    def test_matches_lattice_solve_on_census_classes(self, n, m):
        checked = 0
        for entry in reference_classes(n, m):
            if not entry.expected:
                continue
            g = entry.representative
            first = spanning_tree(g)
            for tree in (first, alternate_spanning_tree(g, first)):
                basis = cycle_basis(g, tree)
                rows = rescaled_exponent_matrix(g, scaling_exponents(g, tree))
                solved = exact.integer_solve_in_lattice(
                    basis.matrix, [rows[k] for k in basis.nontree_rows], basis.nontree_rows
                )
                assert express_in_cycles(basis) == {
                    k: tuple(z) for k, z in zip(basis.nontree_rows, solved)
                }
                checked += 1
        assert checked == 2 * {(4, 6): 30, (5, 7): 180, (5, 8): 421}[(n, m)]


class TestReparametrize:
    def test_chain4_matrix(self, chain4):
        result = reparametrize(chain4)
        assert result.matrix_strings() == [
            ["a11", "1", "0", "0"],
            ["a12*a21", "a22", "1", "0"],
            ["0", "a23*a32", "a33", "1"],
            ["0", "a23*a34*a42", "0", "a44"],
        ]
        assert verify_reparametrization(chain4, result)

    def test_broken4_has_none(self, broken4):
        with pytest.raises(NoReparametrization) as err:
            reparametrize(broken4)
        assert err.value.report.d == 6
        assert err.value.report.expected == 7

    def test_edge_bound(self):
        complete3 = CompartmentGraph(
            3, tuple((j, i) for j in range(1, 4) for i in range(1, 4) if i != j)
        )
        message = "m=6 exceeds 2n-2=4; no identifiable scaling reparametrization exists"
        with pytest.raises(TooManyEdges, match=f"^{message}$"):
            reparametrize(complete3)

    def test_default_arguments(self, chain4):
        report = reparametrize(chain4).report
        assert (report.trials, report.seed, report.mode) == (2, 0, PRIME_MODE)

    @pytest.mark.parametrize("trials, error, match", BAD_TRIALS)
    def test_trials_checked_on_both_sides_of_the_edge_bound(self, chain4, trials, error, match):
        complete3 = CompartmentGraph(
            3, tuple((j, i) for j in range(1, 4) for i in range(1, 4) if i != j)
        )
        reparametrize(chain4)
        for graph in (chain4, complete3, chain4):
            with pytest.raises(error, match=match):
                reparametrize(graph, trials=trials)

    def test_trials_reported_as_an_int(self):
        report = reparametrize(directed_cycle_graph(4), trials=True).report
        assert type(report.trials) is int and report.trials == 1

    @pytest.mark.parametrize("seed, error, match", BAD_SEEDS)
    def test_seed_checked_on_both_sides_of_the_edge_bound(self, chain4, seed, error, match):
        complete3 = CompartmentGraph(
            3, tuple((j, i) for j in range(1, 4) for i in range(1, 4) if i != j)
        )
        reparametrize(chain4, seed=1)
        for graph in (chain4, complete3, CompartmentGraph(2, ((1, 2),)), chain4):
            with pytest.raises(error, match=match):
                reparametrize(graph, seed=seed)

    def test_seed_reported_as_an_int(self):
        report = reparametrize(directed_cycle_graph(4), seed=True).report
        assert type(report.seed) is int and report.seed == 1

    def test_mode_checked_on_both_sides_of_the_edge_bound(self, chain4):
        complete4 = CompartmentGraph(
            4, tuple((j, i) for j in range(1, 5) for i in range(1, 5) if i != j)
        )
        reparametrize(chain4)
        for graph in (chain4, complete4, chain4):
            with pytest.raises(ValueError, match="unknown arithmetic mode"):
                reparametrize(graph, mode="nope")

    def test_requires_strong_connectivity(self, chain4):
        """On every call, also once the memos hold another graph, from
        `reparametrize` and from `cycle_basis`."""
        reparametrize(chain4)
        sink = CompartmentGraph(4, chain4.edges[1:])  # (2, 1) gone: vertex 1 is a source
        for graph in (CompartmentGraph(2, ((1, 2),)), sink) * 2:
            with pytest.raises(NotStronglyConnected):
                reparametrize(graph)
            with pytest.raises(NotStronglyConnected):
                cycle_basis(graph, spanning_tree(graph))

    def test_refusals_come_in_preamble_order(self):
        """Arguments, then strong connectivity, then the edge bound: a
        graph that is not strongly connected and has m > 2n-2 edges is
        refused for its arguments first, then for its connectivity with
        `reparametrize`'s own message, never for its edge count."""
        complete3 = ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))
        sink4 = CompartmentGraph(4, complete3 + ((1, 4),))  # m = 7 > 2n-2
        with pytest.raises(ValueError, match="trials must be >= 1"):
            reparametrize(sink4, trials=0)
        with pytest.raises(NotStronglyConnected, match="^reparametrization requires a strongly connected graph$"):
            reparametrize(sink4)

    def test_wheel5_with_explicit_tree(self, wheel5):
        result = reparametrize(wheel5, tree_edges=WHEEL5_TREE)
        grid = result.matrix_strings()
        assert grid[0][2] == "a13*a15^-1*a43^-1*a54^-1"
        assert grid[1][0] == "a15*a21*a32*a43*a54"
        assert grid[2][0] == "a15*a31*a43*a54"
        assert grid[2][3] == "a34*a43"
        assert grid[2][1] == "1" and grid[3][2] == "1" and grid[4][3] == "1" and grid[0][4] == "1"
        assert result.report.d == 9

    def test_bidirected_path_document_at_forty_vertices(self):
        """A basis of 39 two-cycles, 39 expressions and 78 rows of 78
        exponents: the document's sha256 from before the elimination
        skipped unchanged rows and the check summed only nonzero terms."""
        n = 40
        graph = CompartmentGraph(n, tuple(e for v in range(1, n) for e in ((v, v + 1), (v + 1, v))))
        result = reparametrize(graph)
        text = json.dumps(result.to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8f849df389e1519c6201f4c5e6bba879fb77041d2469d5997f8f6ae526f60a54"
        )
        assert verify_reparametrization(graph, result)

    def test_single_vertex(self, single):
        result = reparametrize(single)
        assert result.matrix_strings() == [["a11"]]
        assert verify_reparametrization(single, result)

    def test_cycle_block_inverted_once_per_call(self, monkeypatch, chain4, wheel5):
        """One fraction-free elimination, on the `need` non-tree rows, picks
        the cycle basis, certifies it and inverts its block. The dimension
        report's ranks mod p run in their own packed loop."""
        calls = []
        original = exact._bareiss

        def counting(mat, jordan=False):
            calls.append((len(mat), jordan))
            return original(mat, jordan)

        monkeypatch.setattr(exact, "_bareiss", counting)
        for graph in (wheel5, chain4):
            assert graph.m - graph.n + 1 >= 3
            calls.clear()
            reparametrize(graph)
            assert calls == [(graph.m - graph.n + 1, True)]

    def test_one_connectivity_check_and_one_default_tree(self, monkeypatch, wheel5):
        """The dimension report and the cycle basis reuse the graph's
        verdict record, whichever tree the reparametrization uses: its one
        strong connectivity check, one `_distances` walk each way, and its
        default spanning tree, made by the graph's first call and by no
        call after it."""
        checks, trees = [], []
        real_check, real_tree = graphs._distances, graphs.spanning_tree

        def check(*args):
            checks.append(1)
            return real_check(*args)

        def tree(graph):
            trees.append(1)
            return real_tree(graph)

        monkeypatch.setattr(graphs, "_distances", check)
        for module in (charpoly, reparam):
            monkeypatch.setattr(module, "spanning_tree", tree)
        for tree_edges, builds in ((None, (2, 1)), (WHEEL5_TREE, (0, 0)), (None, (0, 0))):
            checks.clear()
            trees.clear()
            result = reparametrize(wheel5, tree_edges=tree_edges)
            assert (len(checks), len(trees), result.report.d) == (*builds, 9)

    def test_json_builds_each_edge_name_once(self, monkeypatch):
        """The edge rate names are built once per result, not once per
        monomial: one `to_json_dict` on the bidirected path with n = 60
        (m = 118) names each edge once."""
        graph = CompartmentGraph(60, tuple(e for v in range(1, 60) for e in ((v, v + 1), (v + 1, v))))
        result = reparametrize(graph)
        calls = []
        real = CompartmentGraph.edge_param_name

        def counting(self, k):
            calls.append(k)
            return real(self, k)

        monkeypatch.setattr(CompartmentGraph, "edge_param_name", counting)
        doc = result.to_json_dict()
        assert sorted(calls) == list(range(graph.m))
        assert result.to_json_dict() == doc and len(calls) == graph.m


class TestMemos:
    """`reparametrize`'s tree-independent half, the dimension report and
    the cycle candidates, is kept for the last GRAPH_MEMO_SIZE graphs; the
    checks, the tree and everything that depends on it run on every call."""

    def test_warm_equals_cold(self):
        """Every expected class of (4,6) and a seeded 50-class sample of
        (5,8), under the default and the alternate tree: a reparametrization
        from warm memos equals one from empty memos, and the second tree
        hits both."""
        graphs = [c.representative for c in reference_classes(4, 6) if c.expected]
        graphs += random.Random(33).sample([c.representative for c in reference_classes(5, 8) if c.expected], 50)
        assert len(graphs) == 80
        for graph in graphs:
            alternate = alternate_spanning_tree(graph, spanning_tree(graph))
            trees = (None, [graph.edges[k] for k in alternate.edge_indices])
            cold = []
            for tree in trees:
                clear_graph_memos()
                cold.append(reparametrize(graph, tree_edges=tree))
            clear_graph_memos()
            warm = [reparametrize(graph, tree_edges=tree) for tree in trees + trees]
            for a, b in zip(cold + cold, warm):
                assert a.to_json_dict() == b.to_json_dict() and a.report == b.report
                assert a == b and verify_reparametrization(graph, b)
            for memo in (charpoly._sampled_dimension, reparam._cycle_candidates):
                assert memo.cache_info()[:2] == (3, 1)

    def test_a_hit_runs_no_kernel_pass_and_no_cycle_search(self, monkeypatch, wheel5):
        passes = count_calls(monkeypatch, charpoly._VerdictKernel, "pivots")
        searches = count_calls(monkeypatch, reparam, "_long_cycles")
        first = reparametrize(wheel5)
        assert (len(passes), len(searches)) == (1, 1)
        for tree in (WHEEL5_TREE, None, WHEEL5_TREE):
            result = reparametrize(wheel5, tree_edges=tree)
            assert verify_reparametrization(wheel5, result) and result.report == first.report
        assert (len(passes), len(searches)) == (1, 1)
        assert cycle_basis(wheel5, spanning_tree(wheel5)) == first.basis and len(searches) == 1

    def test_deficient_graph_builds_no_candidates(self, monkeypatch, broken4):
        passes = count_calls(monkeypatch, charpoly._VerdictKernel, "pivots")
        searches = count_calls(monkeypatch, reparam, "_long_cycles")
        reports = []
        for _ in range(3):
            with pytest.raises(NoReparametrization) as err:
                reparametrize(broken4)
            reports.append(err.value.report)
        assert reports[0] == reports[1] == reports[2] and reports[0].d == 6
        assert (len(passes), searches) == (1, [])  # one trial, once: d = 6 is broken4's walk bound
        assert reparam._cycle_candidates.cache_info().currsize == 0

    def test_candidate_keys_and_bound(self, monkeypatch, chain4):
        """Equal graphs built separately share an entry; after 8 other
        graphs the first misses again, after 7 it still hits."""
        searches = count_calls(monkeypatch, reparam, "_long_cycles")
        rebuilt = CompartmentGraph(4, [list(e) for e in chain4.edges])
        assert reparametrize(chain4) == reparametrize(rebuilt) and len(searches) == 1
        others = [directed_cycle_graph(n) for n in range(2, 10)]
        for count, misses in ((7, 0), (8, 1)):
            clear_graph_memos()
            reparametrize(chain4)
            for graph in others[:count]:
                reparametrize(graph)
            searches.clear()
            reparametrize(chain4)
            assert len(searches) == misses


BAD_MONOMIALS = ["a12^", "a12^x", "a12^--1", "a12^1.5", "a12^+1", "a12^ 2", "a12^0", "a12^1", "a12^1_0", "a12^\u0663", "a12*a12", "a12^2*a12"]


class TestParseMonomial:
    """`parse_monomial` reads back exactly the factors `render_monomial`
    writes, in any order."""

    NAMES = ["a12", "a21", "a23"]

    def test_inverts_render(self):
        from compident.monomial import name_order, parse_monomial, render_monomial

        order = name_order(self.NAMES)
        for expo in [(0, 0, 0), (1, 0, 0), (-1, 2, 0), (10, -10, 1), (2, 1, -3)]:
            assert parse_monomial(self.NAMES, render_monomial(order, expo)) == expo
        assert parse_monomial(self.NAMES, " a23^-3*a12 ") == (1, 0, -3)

    @pytest.mark.parametrize("text", BAD_MONOMIALS + ["a99", "a12**a21"])
    def test_refuses_what_render_never_writes(self, text):
        from compident.monomial import parse_monomial

        with pytest.raises(ValueError, match="bad factor"):
            parse_monomial(self.NAMES, text)

    @pytest.mark.parametrize("text", BAD_MONOMIALS)
    def test_document_monomials_are_checked(self, chain4, text):
        """A document's monomials go through `parse_monomial`, so a factor
        `render_monomial` never writes is refused there too."""
        doc = reparametrize(chain4).to_json_dict()
        assert doc["f"][1] == {"vertex": 2, "monomial": "a12"}
        doc["f"][1]["monomial"] = text
        with pytest.raises(ValueError, match="bad factor"):
            reparametrization_from_json(chain4, doc)


class TestVerification:
    def test_corruption_is_detected(self, chain4):
        result = reparametrize(chain4)
        rows = list(result.rescaled_exponents)
        k = result.basis.nontree_rows[0]
        corrupted_row = tuple(e + (1 if t == 0 else 0) for t, e in enumerate(rows[k]))
        rows[k] = corrupted_row
        bad = ScalingReparametrization(
            graph=result.graph,
            tree=result.tree,
            f_exponents=result.f_exponents,
            rescaled_exponents=tuple(rows),
            basis=result.basis,
            cycle_expressions=result.cycle_expressions,
            report=result.report,
        )
        failures = reparametrization_failures(chain4, bad)
        assert "cycle-expressions" in failures
        assert not verify_reparametrization(chain4, bad)

    def test_row_shifted_by_a_basis_cycle_is_detected(self, wheel5):
        # Shifting a non-tree row by a basis cycle and its expression by the
        # same cycle keeps every structural check consistent; only the
        # exact comparison with a_ij * f_i / f_j sees that the entry changed.
        result = reparametrize(wheel5)
        k = result.basis.nontree_rows[0]
        rows = list(result.rescaled_exponents)
        rows[k] = tuple(e + col[0] for e, col in zip(rows[k], result.basis.matrix))
        expressions = dict(result.cycle_expressions)
        expressions[k] = (expressions[k][0] + 1,) + expressions[k][1:]
        bad = ScalingReparametrization(
            graph=result.graph,
            tree=result.tree,
            f_exponents=result.f_exponents,
            rescaled_exponents=tuple(rows),
            basis=result.basis,
            cycle_expressions=expressions,
            report=result.report,
        )
        assert reparametrization_failures(wheel5, bad) == ["rescaled-rows"]
        assert not verify_reparametrization(wheel5, bad)

    @pytest.mark.parametrize("case", ["tree-edge-key", "long-expression"])
    def test_unchecked_expressions_are_detected(self, chain4, case):
        """Every stated expression is checked: one keyed by a tree edge,
        which `to_json_dict` would print, read back from JSON, and one with
        an entry past the basis cycles."""
        result = reparametrize(chain4)
        if case == "tree-edge-key":
            doc = result.to_json_dict()
            doc["expressions"].append({"edge": [2, 1], "in_cycles": "q1*q2"})
            assert [2, 1] in doc["tree_edges"]
            bad = reparametrization_from_json(chain4, doc)
        else:
            k = result.basis.nontree_rows[0]
            expressions = {**result.cycle_expressions, k: result.cycle_expressions[k] + (5,)}
            bad = replace(result, cycle_expressions=expressions)
        assert reparametrization_failures(chain4, bad) == ["cycle-expressions"]
        assert not verify_reparametrization(chain4, bad)

    def test_scaling_support_and_tree_rows_are_detected(self, chain4):
        result = reparametrize(chain4)
        tree_row = result.tree.edge_indices[0]
        nontree = result.basis.nontree_rows[0]
        f_first = list(result.f_exponents)
        f_first[0] = tuple(int(k == tree_row) for k in range(chain4.m))
        f_off_tree = list(result.f_exponents)
        f_off_tree[1] = tuple(e + (k == nontree) for k, e in enumerate(f_off_tree[1]))
        rows = list(result.rescaled_exponents)
        rows[tree_row] = tuple(int(k == tree_row) for k in range(chain4.m))
        for changes, failures in (
            ({"f_exponents": tuple(f_first)}, ["scaling-support", "rescaled-rows"]),
            ({"f_exponents": tuple(f_off_tree)}, ["scaling-support", "rescaled-rows"]),
            ({"rescaled_exponents": tuple(rows)}, ["tree-rows", "rescaled-rows"]),
        ):
            assert reparametrization_failures(chain4, replace(result, **changes)) == failures

    def test_expressions_keyed_by_other_edges_are_detected(self, chain4):
        """The expressions must be keyed by exactly the non-tree edges: one
        left out, or a tree edge added with the zero combination, which
        matches that edge's zero row, is a failure though every stated
        combination holds."""
        result = reparametrize(chain4)
        k = result.basis.nontree_rows[0]
        missing = {e: z for e, z in result.cycle_expressions.items() if e != k}
        zero = (0,) * len(result.basis.cycles)
        extra = {**result.cycle_expressions, result.tree.edge_indices[0]: zero}
        for expressions in (missing, extra):
            bad = replace(result, cycle_expressions=expressions)
            assert reparametrization_failures(chain4, bad) == ["cycle-expressions"]

    def test_expression_changed_at_a_zero_entry_is_detected(self, wheel5):
        """The stated combination sums only the nonzero z[t], so a term
        added where z[t] was 0 must still change it."""
        result = reparametrize(wheel5, tree_edges=WHEEL5_TREE)
        changed = 0
        for k, z in result.cycle_expressions.items():
            for t in (t for t, x in enumerate(z) if x == 0):
                expressions = {**result.cycle_expressions, k: z[:t] + (1,) + z[t + 1:]}
                bad = replace(result, cycle_expressions=expressions)
                assert reparametrization_failures(wheel5, bad) == ["cycle-expressions"]
                changed += 1
        assert changed > 0

    @pytest.mark.parametrize("extra", [1, -1])
    def test_basis_matrix_row_of_the_wrong_length_raises(self, wheel5, extra):
        """A basis matrix row with one entry more or less than the basis has
        cycles raises ValueError, as a product with the whole matrix would."""
        result = reparametrize(wheel5)
        matrix = list(result.basis.matrix)
        matrix[-1] = matrix[-1] + (0,) if extra > 0 else matrix[-1][:-1]
        bad = replace(result, basis=replace(result.basis, matrix=tuple(matrix)))
        with pytest.raises(ValueError, match="different lengths"):
            reparametrization_failures(wheel5, bad)

    def test_similarity_holds_for_arbitrary_scalings(self):
        # conjugating by any diagonal with first entry 1 fixes both
        # characteristic polynomials, identifiable or not
        rng = random.Random(31)
        p = MERSENNE61
        tried = 0
        while tried < 60:
            n = rng.randrange(1, 6)
            pool = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1) if i != j]
            m = rng.randrange(0, len(pool) + 1)
            g = CompartmentGraph(n, tuple(rng.sample(pool, m)))
            tried += 1
            values = [rng.randrange(1, MERSENNE61) for _ in range(n + m)]
            scale = [1] + [rng.randrange(1, MERSENNE61) for _ in range(n - 1)]
            conjugated = list(values)
            for k, (j, i) in enumerate(g.edges):
                conjugated[n + k] = values[n + k] * scale[i - 1] * pow(scale[j - 1], -1, p) % p
            assert numeric_coefficients(g, values, PRIME_MODE) == numeric_coefficients(
                g, conjugated, PRIME_MODE
            )

    def test_round_trip_through_json(self, chain4, wheel5):
        for graph, tree in ((chain4, None), (wheel5, WHEEL5_TREE)):
            result = reparametrize(graph, tree_edges=tree)
            doc = result.to_json_dict()
            rebuilt = reparametrization_from_json(graph, doc)
            assert verify_reparametrization(graph, rebuilt)
            assert rebuilt.f_exponents == result.f_exponents
            assert rebuilt.rescaled_exponents == result.rescaled_exponents
            assert rebuilt.cycle_expressions == result.cycle_expressions

    def test_one_edge_index_per_document(self, monkeypatch, chain4):
        """`reparametrization_from_json` builds the graph's `edge_index()`
        once: the tree edges and the expression edges read the same dict."""
        doc = reparametrize(chain4).to_json_dict()
        indexes = count_calls(monkeypatch, CompartmentGraph, "edge_index")
        rebuilt = reparametrization_from_json(chain4, doc)
        assert len(indexes) == 1 and verify_reparametrization(chain4, rebuilt)

    def test_round_trip_with_two_digit_labels(self):
        """From n = 11 on a rate is named a<i>_<j>: as a<i><j>, the edges
        1 -> 11 and 11 -> 1 would both read a111, and the cycle a111*a111
        could not be read back."""
        n = 11
        graph = CompartmentGraph(n, tuple((v, v % n + 1) for v in range(1, n + 1)) + ((1, n),))
        assert len(set(graph.param_names())) == n + graph.m
        doc = json.loads(json.dumps(reparametrize(graph).to_json_dict()))
        assert "a11_1*a1_11" in doc["cycle_basis"]
        assert verify_reparametrization(graph, reparametrization_from_json(graph, doc))

    @pytest.mark.parametrize("n, m", [(4, 6), (5, 8)])
    def test_round_trip_on_census_classes(self, n, m):
        for entry in reference_classes(n, m):
            if entry.expected:
                graph = entry.representative
                result = reparametrize(graph)
                rebuilt = reparametrization_from_json(graph, result.to_json_dict())
                assert verify_reparametrization(graph, rebuilt)
                assert rebuilt.basis == result.basis
                assert rebuilt.cycle_expressions == result.cycle_expressions

    @pytest.mark.parametrize(
        "entry",
        ["a12*a23", "a12", "a12^2*a21", "a12^3*a21^-1", "a12*a21*a23*a32", "a12^-1*a21", "1"],
    )
    def test_json_basis_entry_must_be_one_cycle(self, entry):
        path3 = CompartmentGraph(3, ((1, 2), (2, 1), (2, 3), (3, 2)))
        doc = reparametrize(path3).to_json_dict()
        doc["cycle_basis"][0] = entry
        with pytest.raises(ValueError, match="not a directed cycle"):
            reparametrization_from_json(path3, doc)


    @pytest.mark.parametrize("edge", [[1, 2], [1, 4]], ids=["repeated", "not-an-edge"])
    def test_json_expressions_name_each_edge_once(self, chain4, edge):
        """A second, wrong expression for a non-tree edge would be dropped
        unchecked, and one for a pair that is no edge has no row to check."""
        doc = reparametrize(chain4).to_json_dict()
        assert doc["expressions"][0]["edge"] == [1, 2]
        doc["expressions"].insert(0, {"edge": edge, "in_cycles": "q1*q2*q3"})
        with pytest.raises(ValueError, match="repeated or not an edge"):
            reparametrization_from_json(chain4, doc)

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda doc: doc["f"].pop(), id="f-missing-vertex"),
            pytest.param(lambda doc: doc.update(matrix=doc["matrix"][:2]), id="matrix-two-rows"),
            pytest.param(lambda doc: doc.pop("expressions"), id="no-expressions"),
            pytest.param(lambda doc: doc["f"][1].update(monomial=7), id="monomial-not-a-string"),
            pytest.param(lambda doc: doc["cycle_basis"].append(["a12"]), id="basis-entry-a-list"),
            pytest.param(lambda doc: doc["tree_edges"].__setitem__(0, 5), id="tree-edge-not-a-pair"),
            pytest.param(lambda doc: doc["tree_edges"].__setitem__(0, [1, 2, 99]), id="tree-edge-of-three"),
            pytest.param(lambda doc: doc["tree_edges"].__setitem__(0, [1]), id="tree-edge-of-one"),
            pytest.param(lambda doc: doc["expressions"][0].update(edge=[4, 1, 99]), id="expression-edge-of-three"),
            pytest.param(lambda doc: doc["expressions"][0].update(edge=[4]), id="expression-edge-of-one"),
            pytest.param(lambda doc: doc["expressions"][0].update(edge=[[1], [2]]), id="edge-of-lists"),
            pytest.param(lambda doc: doc["f"].append({"vertex": 2, "monomial": "1"}), id="f-vertex-repeated"),
            pytest.param(lambda doc: doc["f"].append({"vertex": 17, "monomial": "1"}), id="f-vertex-17"),
            pytest.param(lambda doc: doc["matrix"][0].__setitem__(0, "garbage"), id="matrix-diagonal-garbage"),
            pytest.param(lambda doc: doc["matrix"][0].__setitem__(1, "a99"), id="matrix-zero-cell-a99"),
            pytest.param(lambda doc: doc["matrix"][0].__setitem__(1, 0), id="matrix-zero-cell-an-int"),
            pytest.param(lambda doc: doc["matrix"].append(["0"] * 4), id="matrix-extra-row"),
            pytest.param(lambda doc: doc["matrix"][0].append("0"), id="matrix-row-five-cells"),
        ],
    )
    def test_json_malformed_document(self, corrupt):
        """A document of the wrong shape raises MalformedInput, as
        `parse_graph` does, not the KeyError, IndexError or AttributeError
        of the first read that fails."""
        graph = directed_cycle_graph(4)
        doc = reparametrize(graph).to_json_dict()
        corrupt(doc)
        with pytest.raises(MalformedInput):
            reparametrization_from_json(graph, doc)

    def test_json_basis_needs_independent_cycles_of_the_right_count(self, wheel5):
        doc = reparametrize(wheel5).to_json_dict()
        stated = doc["cycle_basis"]
        spare = next(
            c.monomial
            for c in elementary_cycles(wheel5)
            if c.length >= 2 and c.monomial not in stated
        )
        for basis, error in (
            (stated[:-1], NotSquare),
            (stated + [spare], NotSquare),
            (stated[:1] + stated[:1] + stated[2:], NotUnimodular),
        ):
            with pytest.raises(error):
                reparametrization_from_json(wheel5, dict(doc, cycle_basis=basis))


def b_model_rank(graph, result):
    """Jacobian rank of the coefficient map of the reparametrized model,
    with one parameter per diagonal and per non-tree entry: the full
    Jacobian at a point whose tree entries are 1, on those columns."""
    tree_set = set(result.tree.edge_indices)
    rng = random.Random(99)
    point = [rng.randrange(1, MERSENNE61) for _ in range(graph.n)]
    point += [1 if k in tree_set else rng.randrange(1, MERSENNE61) for k in range(graph.m)]
    keep = list(range(graph.n)) + [graph.n + k for k in range(graph.m) if k not in tree_set]
    rows = jacobian(graph, point, PRIME_MODE)
    return rank_mod_p([[row[c] for c in keep] for row in rows])


class TestStructuralProperties:
    def test_two_trees_both_verify(self, chain4, wheel5):
        for graph in (chain4, wheel5):
            first = spanning_tree(graph)
            second = alternate_spanning_tree(graph, first)
            assert second is not None
            results = [
                reparametrize(graph, tree_edges=[graph.edges[k] for k in t.edge_indices])
                for t in (first, second)
            ]
            assert results[0].tree != results[1].tree
            for result in results:
                assert verify_reparametrization(graph, result)
                surviving = graph.n + len(result.basis.nontree_rows)
                assert surviving == graph.m + 1

    def test_reparametrized_model_keeps_dimension(self, chain4, wheel5):
        for graph in (chain4, wheel5):
            result = reparametrize(graph)
            assert b_model_rank(graph, result) == graph.m + 1

    def test_minimal_isc_graphs_always_reparametrize(self):
        from compident.census import enumerate_sc_graphs
        from compident.graphs import is_inductively_strongly_connected

        checked = 0
        for g in enumerate_sc_graphs(4, 6):
            if is_inductively_strongly_connected(g) is None:
                continue
            result = reparametrize(g)
            assert verify_reparametrization(g, result)
            checked += 1
            if checked >= 25:
                break
        assert checked >= 25
