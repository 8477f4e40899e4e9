import json
import random
from itertools import combinations, permutations

import pytest

from compident import (
    CompartmentGraph,
    InvalidEdge,
    MalformedInput,
    NoExchange,
    NotStronglyConnected,
    add_exchange_vertex,
    canonical_form,
    collapse_exchange,
    cycle_basis,
    elementary_cycles,
    exchange_vertices,
    has_exchange,
    has_expected_dimension,
    image_dimension,
    io_equation_text,
    io_strong_component,
    is_inductively_strongly_connected,
    is_strongly_connected,
    parse_graph,
    reparametrize,
    spanning_tree,
)
from compident import graphs as graphs_mod

from conftest import (
    count_calls,
    directed_cycle_graph,
    incidence_matrix,
    isc_adversary,
    oracle_distances,
    oracle_rank,
    oracle_reachable,
    oracle_strongly_connected,
    reference_classes,
)


def random_graph(rng, n, m):
    pool = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1) if i != j]
    return CompartmentGraph(n, tuple(rng.sample(pool, m)))


def undirected_component_count(graph: CompartmentGraph) -> int:
    """Number of connected components of the underlying undirected graph."""
    both_ways = CompartmentGraph(
        graph.n, tuple(set(graph.edges) | {(i, j) for j, i in graph.edges})
    )
    seen: set[int] = set()
    count = 0
    for v in range(1, graph.n + 1):
        if v not in seen:
            count += 1
            seen |= oracle_reachable(both_ways, v)
    return count


def induced(graph: CompartmentGraph, keep) -> CompartmentGraph:
    """Subgraph induced on `keep`, relabeled 1..k in increasing order."""
    relabel = {v: r + 1 for r, v in enumerate(sorted(keep))}
    return CompartmentGraph(
        len(keep),
        tuple((relabel[j], relabel[i]) for j, i in graph.edges if j in keep and i in keep),
    )


def oracle_isc_certificate(graph: CompartmentGraph):
    """First ordering (1, ...) in lexicographic order whose every prefix
    induces a strongly connected subgraph, by trying them all."""
    for rest in permutations(range(2, graph.n + 1)):
        order = (1, *rest)
        if all(
            oracle_strongly_connected(induced(graph, order[:k]))
            for k in range(2, graph.n + 1)
        ):
            return order
    return None


class TestParse:
    def test_chain4_document(self, chain4):
        text = '{"n":4,"edges":[[2,1],[1,2],[3,2],[2,3],[4,3],[2,4]]}'
        assert parse_graph(text) == chain4

    def test_single_vertex(self):
        g = parse_graph('{"n":1,"edges":[]}')
        assert g.n == 1 and g.m == 0

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidEdge):
            parse_graph('{"n":2,"edges":[[1,2],[1,2]]}')

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidEdge):
            parse_graph('{"n":2,"edges":[[1,1]]}')

    def test_out_of_range_vertex(self):
        with pytest.raises(InvalidEdge):
            parse_graph('{"n":2,"edges":[[1,3]]}')

    @pytest.mark.parametrize(
        "text",
        ["not json", "[1,2]", '{"n":"2","edges":[]}', '{"edges":[]}', '{"n":2,"edges":[[1]]}'],
    )
    def test_malformed_documents(self, text):
        with pytest.raises(MalformedInput):
            parse_graph(text)

    def test_round_trip(self, wheel5):
        assert parse_graph(wheel5.to_json()) == wheel5


class TestEdgeStorage:
    def test_other_inputs_normalized(self):
        """Every edge input takes the one normalization path: a tuple of
        int pairs, equal to the input's pairs."""
        pool = ((1, 2), (2, 1), (2, 3), (3, 1))
        for edges in (pool, [[1, 2], [2, 1], [2, 3], [3, 1]]):
            g = CompartmentGraph(3, edges)
            assert g.edges == pool
            assert type(g.edges) is tuple and all(
                type(e) is tuple and len(e) == 2 and type(e[0]) is type(e[1]) is int for e in g.edges
            )
        flagged = CompartmentGraph(2, ((True, 2), (2, 1)))
        assert type(flagged.edges[0][0]) is int
        assert flagged == CompartmentGraph(2, ((1, 2), (2, 1)))

    @pytest.mark.parametrize(
        "n, edges",
        [(2, [(1.9, 2), ("2", 1)]), (2, ((1.0, 2), (2, 1))), (2.5, ((1, 2), (2, 1))), ("2", ((1, 2), (2, 1)))],
    )
    def test_non_integers_rejected(self, n, edges):
        """n and every vertex label go through `operator.index`, so a float or
        str raises TypeError instead of being truncated."""
        with pytest.raises(TypeError):
            CompartmentGraph(n, edges)


class TestEdgeSubgraph:
    """`CompartmentGraph.edge_subgraph`: a subset of a validated graph's
    edges, edge k as bit m-1-k, with no second validation."""

    def test_selects_in_edge_order(self, chain4):
        assert chain4.edge_subgraph(0) == CompartmentGraph(4, ())
        assert chain4.edge_subgraph(0b100001).edges == (chain4.edges[0], chain4.edges[5])
        assert chain4.edge_subgraph((1 << 6) - 1) == chain4
        for mask in range(1 << 6):
            sub = chain4.edge_subgraph(mask)
            picked = tuple(e for k, e in enumerate(chain4.edges) if mask >> (5 - k) & 1)
            assert sub == CompartmentGraph(4, picked)
            assert sub.edges == picked and all(a is b for a, b in zip(sub.edges, picked))

    @pytest.mark.parametrize("mask", [-1, 1 << 6, (1 << 7) - 1])
    def test_a_selection_outside_the_edges_raises(self, chain4, mask):
        with pytest.raises(InvalidEdge, match="outside the 6 edges"):
            chain4.edge_subgraph(mask)

    def test_no_second_validation(self, monkeypatch, chain4):
        validations = count_calls(monkeypatch, CompartmentGraph, "__post_init__")
        for mask in range(1 << 6):
            chain4.edge_subgraph(mask)
        assert validations == []


class TestStrongConnectivity:
    def test_chain4(self, chain4):
        assert is_strongly_connected(chain4)

    def test_single_vertex(self, single):
        assert is_strongly_connected(single)

    def test_one_way_pair(self):
        assert not is_strongly_connected(CompartmentGraph(2, ((1, 2),)))

    @pytest.mark.parametrize(
        "refuse, message",
        [
            (image_dimension, "image dimension is defined for strongly connected graphs; "
             "reduce with io_strong_component first"),
            (has_expected_dimension, "image dimension is defined for strongly connected graphs; "
             "reduce with io_strong_component first"),
            (io_equation_text, "the coefficient form of the input-output equation needs a strongly "
             "connected graph (otherwise the two characteristic polynomials share a factor)"),
            (reparametrize, "reparametrization requires a strongly connected graph"),
            (lambda g: cycle_basis(g, spanning_tree(g)), "cycle basis requires a strongly connected graph"),
        ],
        ids=["image_dimension", "has_expected_dimension", "io_equation_text", "reparametrize", "cycle_basis"],
    )
    def test_refusal_messages(self, refuse, message):
        """Each entry point that needs strong connectivity refuses a graph
        without it by NotStronglyConnected, with its own message."""
        one_way = CompartmentGraph(3, ((1, 2), (2, 1), (2, 3)))
        with pytest.raises(NotStronglyConnected) as caught:
            refuse(one_way)
        assert str(caught.value) == message

    def test_matches_reachability_oracle(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randrange(1, 6)
            m = rng.randrange(0, n * (n - 1) + 1)
            g = random_graph(rng, n, m)
            assert is_strongly_connected(g) == oracle_strongly_connected(g)

    def test_distances_match_a_breadth_first_search(self):
        """`_distances` on random graphs, strongly connected or not, along
        and against the edges: its reach mask is `_reach`'s, each vertex
        reached reads its distance from vertex 1 (`oracle_distances`), and
        every other index, 0 included, reads 0."""
        rng = random.Random(44)
        for _ in range(300):
            n = rng.randrange(1, 7)
            g = random_graph(rng, n, rng.randrange(0, n * (n - 1) + 1))
            for forward, adj in zip((True, False), graphs_mod._adjacency(n, g.edges)):
                dist = oracle_distances(g, forward)
                reached, walk = graphs_mod._distances(adj)
                assert reached == graphs_mod._reach(adj) == sum(1 << v for v in dist), g
                assert walk == tuple(dist.get(v, 0) for v in range(n + 1)), g

    def test_prefixes_match_oracle_on_census_classes(self):
        # Every prefix (1, ...) of every (5,8) class, certificate prefixes
        # among them; the predicate sees the induced subgraph in sorted order.
        checked = 0
        for entry in reference_classes(5, 8):
            graph = entry.representative
            cert = is_inductively_strongly_connected(graph)
            others = range(2, graph.n + 1)
            prefixes = [(1,) + rest for k in range(graph.n) for rest in permutations(others, k)]
            assert cert is None or cert in prefixes
            wants = {}  # vertex set -> oracle verdict on its induced subgraph
            for prefix in prefixes:
                key = frozenset(prefix)
                if key not in wants:
                    sub = induced(graph, prefix)
                    wants[key] = oracle_strongly_connected(sub)
                    assert is_strongly_connected(sub) == wants[key]
                checked += 1
        assert checked == 1158 * 65


class TestIoStrongComponent:
    def test_identity_on_strongly_connected(self, chain4):
        assert io_strong_component(chain4) == chain4

    def test_drops_dangling_vertex(self):
        g = CompartmentGraph(3, ((1, 2), (2, 1), (2, 3)))
        reduced = io_strong_component(g)
        assert reduced == CompartmentGraph(2, ((1, 2), (2, 1)))

    def test_single_vertex(self, single):
        assert io_strong_component(single) == single

    def test_relabeling_preserves_order(self):
        # component {1, 3, 5} of a 5-vertex graph relabels to {1, 2, 3}
        g = CompartmentGraph(5, ((1, 3), (3, 5), (5, 1), (1, 2), (3, 4)))
        reduced = io_strong_component(g)
        assert reduced == CompartmentGraph(3, ((1, 2), (2, 3), (3, 1)))
        assert is_strongly_connected(reduced)

    def test_matches_reachability_oracle(self):
        # Random graphs, about half of them not strongly connected: the oracle
        # keeps the vertices that 1 reaches and that reach 1, relabeled in
        # increasing order with the inherited edge order.
        rng = random.Random(12)
        for _ in range(400):
            n = rng.randrange(1, 8)
            g = random_graph(rng, n, rng.randrange(0, n * (n - 1) + 1))
            comp = {v for v in oracle_reachable(g, 1) if 1 in oracle_reachable(g, v)}
            assert io_strong_component(g) == induced(g, comp)


class TestExchange:
    def test_chain4(self, chain4):
        assert has_exchange(chain4) == 2

    def test_directed_cycle_has_none(self, cycle3):
        assert has_exchange(cycle3) is None

    def test_two_vertex_exchange(self, exchange2):
        assert has_exchange(exchange2) == 2

    def test_smallest_is_reported(self):
        g = CompartmentGraph(4, ((1, 3), (3, 1), (1, 4), (4, 1), (1, 2), (2, 3)))
        assert has_exchange(g) == 3
        assert exchange_vertices(g) == [3, 4]

    def test_matches_the_edge_pairs(self):
        rng = random.Random(34)
        for _ in range(300):
            n = rng.randrange(1, 8)
            g = random_graph(rng, n, rng.randrange(n * (n - 1) + 1))
            present = set(g.edges)
            pairs = [v for v in range(2, n + 1) if (1, v) in present and (v, 1) in present]
            assert exchange_vertices(g) == pairs
            assert has_exchange(g) == (pairs[0] if pairs else None)


class TestInductivelyStronglyConnected:
    def test_wheel5(self, wheel5):
        cert = is_inductively_strongly_connected(wheel5)
        assert cert is not None
        assert cert[0] == 1
        assert wheel5.m == 2 * wheel5.n - 2

    def test_directed_cycle_is_not(self, cycle3):
        assert is_inductively_strongly_connected(cycle3) is None

    def test_exchange_pair(self, exchange2):
        assert is_inductively_strongly_connected(exchange2) == (1, 2)

    def test_certificate_prefixes_are_strongly_connected(self, chain4):
        cert = is_inductively_strongly_connected(chain4)
        assert cert is not None
        for k in range(1, len(cert) + 1):
            keep = set(cert[:k])
            relabel = {v: r + 1 for r, v in enumerate(sorted(keep))}
            sub = CompartmentGraph(
                k,
                tuple(
                    (relabel[j], relabel[i])
                    for j, i in chain4.edges
                    if j in keep and i in keep
                ),
            )
            assert oracle_strongly_connected(sub)

    def test_prefix_checks_bounded_on_adversary(self, monkeypatch, chain4):
        # Each step is one bitmask test per remaining vertex: neither the
        # strong-connectivity predicate nor the reachability walk is called.
        g = isc_adversary(11)
        assert is_strongly_connected(g)

        def boom(*args):
            raise AssertionError("ISC ran a connectivity walk")

        monkeypatch.setattr(graphs_mod, "_strongly_connected", boom)
        monkeypatch.setattr(graphs_mod, "_reach", boom)
        assert is_inductively_strongly_connected(g) is None
        assert is_inductively_strongly_connected(chain4) == (1, 2, 3, 4)

    def test_greedy_prefix_checks_on_adversary(self):
        # Smallest-first greedy extension with an oracle prefix check tries
        # each remaining vertex at most once per step, (n-1) + .. + 1 checks
        # at most. On the adversary it takes 2..n-2 in turn and then neither
        # vertex of the hanging 3-cycle extends the prefix: n-1 checks.
        for n in range(4, 12):
            g = isc_adversary(n)
            prefix, rest, checks = [1], list(range(2, n + 1)), 0
            while rest:
                for v in rest:
                    checks += 1
                    if oracle_strongly_connected(induced(g, prefix + [v])):
                        prefix.append(v)
                        rest.remove(v)
                        break
                else:
                    break
            assert prefix == list(range(1, n - 1))
            assert checks == n - 1 <= n * (n - 1) // 2
            assert is_inductively_strongly_connected(g) is None

    @pytest.mark.parametrize("n, m", [(3, 4), (4, 6), (5, 7), (5, 8)])
    def test_certificates_match_brute_force_on_census_classes(self, n, m):
        for entry in reference_classes(n, m):
            graph = entry.representative
            assert is_inductively_strongly_connected(graph) == oracle_isc_certificate(graph)

    def test_certificates_match_brute_force_on_random_graphs(self):
        # At most 2n edges, so that about one in six is not ISC.
        rng = random.Random(13)
        outcomes = []
        while len(outcomes) < 600:
            n = rng.randrange(2, 7)
            g = random_graph(rng, n, rng.randrange(n, min(2 * n, n * (n - 1)) + 1))
            if oracle_strongly_connected(g):
                cert = oracle_isc_certificate(g)
                assert is_inductively_strongly_connected(g) == cert
                outcomes.append(cert is None)
        assert 50 < sum(outcomes) < 550

    def test_implies_strongly_connected_and_edge_bound(self):
        rng = random.Random(11)
        for _ in range(150):
            n = rng.randrange(2, 6)
            m = rng.randrange(1, n * (n - 1) + 1)
            g = random_graph(rng, n, m)
            if is_inductively_strongly_connected(g) is not None:
                assert is_strongly_connected(g)
                assert g.m >= 2 * g.n - 2


class TestCollapse:
    def test_two_vertex_exchange(self, exchange2):
        assert collapse_exchange(exchange2) == CompartmentGraph(1, ())

    def test_chain4(self, chain4):
        collapsed = collapse_exchange(chain4)
        assert collapsed == CompartmentGraph(3, ((2, 1), (1, 2), (3, 2), (1, 3)))

    def test_no_exchange(self, cycle3):
        with pytest.raises(NoExchange):
            collapse_exchange(cycle3)

    def test_explicit_vertex(self):
        g = CompartmentGraph(3, ((1, 2), (2, 1), (1, 3), (3, 1)))
        at2 = collapse_exchange(g, at=2)
        at3 = collapse_exchange(g, at=3)
        assert at2 == CompartmentGraph(2, ((1, 2), (2, 1)))
        assert at3 == CompartmentGraph(2, ((1, 2), (2, 1)))
        with pytest.raises(NoExchange):
            collapse_exchange(CompartmentGraph(3, ((1, 2), (2, 3), (3, 1))), at=2)


class TestAddExchange:
    def test_single_vertex(self, single, exchange2):
        assert add_exchange_vertex(single) == exchange2

    def test_exchange_pair_becomes_chain(self, exchange2):
        grown = add_exchange_vertex(exchange2)
        assert grown == CompartmentGraph(3, ((1, 2), (2, 1), (2, 3), (3, 2)))

    def test_chain4_counts(self, chain4):
        grown = add_exchange_vertex(chain4)
        assert grown.n == 5 and grown.m == 8

    def test_collapse_round_trip(self, chain4, cycle3, exchange2):
        rng = random.Random(2)
        graphs = [chain4, cycle3, exchange2]
        for _ in range(50):
            n = rng.randrange(1, 5)
            m = rng.randrange(0, n * (n - 1) + 1)
            graphs.append(random_graph(rng, n, m))
        for g in graphs:
            assert collapse_exchange(add_exchange_vertex(g)) == g


def oracle_cycles(graph: CompartmentGraph) -> list:
    """(vertices, exponent vector, monomial) of every one-cycle, then of
    every vertex permutation that starts at its smallest vertex and whose
    consecutive pairs, wrapping around, are all edges; by length, then
    vertex sequence. The monomial is the edges' rate names sorted and
    joined by ``*``."""
    position = {e: k for k, e in enumerate(graph.edges)}
    found = [((v,), (0,) * graph.m, f"a{v}{v}") for v in range(1, graph.n + 1)]
    for size in range(2, graph.n + 1):
        for chosen in combinations(range(1, graph.n + 1), size):
            for rest in permutations(chosen[1:]):
                vertices = chosen[:1] + rest
                steps = list(zip(vertices, vertices[1:] + vertices[:1]))
                if all(e in position for e in steps):
                    ks = {position[e] for e in steps}
                    expo = tuple(int(k in ks) for k in range(graph.m))
                    names = sorted(f"a{i}{j}" for j, i in steps)
                    found.append((vertices, expo, "*".join(names)))
    return sorted(found, key=lambda c: (len(c[0]), c[0]))


class TestElementaryCycles:
    def test_chain4_monomials(self, chain4):
        monomials = [c.monomial for c in elementary_cycles(chain4)]
        assert monomials == [
            "a11",
            "a22",
            "a33",
            "a44",
            "a12*a21",
            "a23*a32",
            "a23*a34*a42",
        ]

    def test_single_vertex(self, single):
        cycles = elementary_cycles(single)
        assert [c.monomial for c in cycles] == ["a11"]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_directed_cycle(self, n):
        g = directed_cycle_graph(n)
        cycles = elementary_cycles(g)
        assert len(cycles) == n + 1
        long = cycles[-1]
        assert long.vertices == tuple(range(1, n + 1))
        assert sum(long.exponent_vector) == n

    def test_complete_graph_counts(self):
        g = CompartmentGraph(4, tuple((j, i) for j in range(1, 5) for i in range(1, 5) if i != j))
        by_len = {}
        for c in elementary_cycles(g):
            by_len[c.length] = by_len.get(c.length, 0) + 1
        # C(4,k)*(k-1)! directed k-cycles
        assert by_len == {1: 4, 2: 6, 3: 8, 4: 6}

    def test_exponent_vectors_are_circulations(self):
        rng = random.Random(9)
        for _ in range(80):
            n = rng.randrange(2, 6)
            m = rng.randrange(1, n * (n - 1) + 1)
            g = random_graph(rng, n, m)
            E = incidence_matrix(g)
            for c in elementary_cycles(g):
                if c.length < 2:
                    continue
                image = [
                    sum(E[r][k] * c.exponent_vector[k] for k in range(g.m))
                    for r in range(g.n)
                ]
                assert all(x == 0 for x in image)

    def test_matches_permutation_oracle(self):
        """The exact cycle list, in order, against every vertex sequence
        that starts at its smallest vertex and closes along the edges."""
        rng = random.Random(20)
        graphs = [entry.representative for entry in reference_classes(4, 6)]
        for _ in range(150):
            n = rng.randrange(1, 6)
            graphs.append(random_graph(rng, n, rng.randrange(0, n * (n - 1) + 1)))
        for g in graphs:
            got = [(c.vertices, c.exponent_vector, c.monomial) for c in elementary_cycles(g)]
            assert got == oracle_cycles(g)


class TestIncidence:
    def test_two_cycle_columns(self, exchange2):
        assert incidence_matrix(exchange2) == [[1, -1], [-1, 1]]

    def test_chain4_rank(self, chain4):
        assert oracle_rank(incidence_matrix(chain4)) == 3

    def test_empty_graph(self):
        g = CompartmentGraph(2, ())
        assert incidence_matrix(g) == [[], []]
        assert oracle_rank(incidence_matrix(g)) == 0

    def test_rank_is_n_minus_components(self):
        rng = random.Random(21)
        for _ in range(120):
            n = rng.randrange(1, 6)
            m = rng.randrange(0, n * (n - 1) + 1)
            g = random_graph(rng, n, m)
            l = undirected_component_count(g)
            assert oracle_rank(incidence_matrix(g)) == n - l


class TestCanonicalForm:
    def test_swap_invariance(self, chain4):
        mapping = {1: 1, 2: 3, 3: 2, 4: 4}
        relabeled = CompartmentGraph(
            4, tuple((mapping[j], mapping[i]) for j, i in chain4.edges)
        )
        assert canonical_form(relabeled) == canonical_form(chain4)

    def test_two_sc_triangles_one_class(self):
        a = CompartmentGraph(3, ((1, 2), (2, 3), (3, 1)))
        b = CompartmentGraph(3, ((1, 3), (3, 2), (2, 1)))
        assert canonical_form(a) == canonical_form(b)

    def test_sc34_classes(self):
        pool = [(j, i) for j in range(1, 4) for i in range(1, 4) if i != j]
        graphs = [
            CompartmentGraph(3, subset)
            for subset in combinations(pool, 4)
            if oracle_strongly_connected(CompartmentGraph(3, subset))
        ]
        assert len(graphs) == 9
        assert len({canonical_form(g) for g in graphs}) == 5

    def test_constant_on_orbits_and_separating(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randrange(2, 6)
            m = rng.randrange(0, n * (n - 1) + 1)
            g = random_graph(rng, n, m)
            base = canonical_form(g)
            others = list(range(2, n + 1))
            perm = list(others)
            rng.shuffle(perm)
            mapping = {1: 1, **dict(zip(others, perm))}
            relabeled = CompartmentGraph(n, tuple((mapping[j], mapping[i]) for j, i in g.edges))
            assert canonical_form(relabeled) == base

    def test_distinct_fixtures_separate(self, chain4, broken4):
        assert canonical_form(chain4) != canonical_form(broken4)
