"""Exhaustive enumeration of small strongly connected digraphs.

Builds the reference table of counts (labeled graphs, symmetry classes
fixing vertex 1, exchanges, expected dimension, inductive strong
connectivity) and provides empirical testers for the collapse conjectures
and the proven structural statements.
"""

from __future__ import annotations

import mmap
import os
import random
import signal
import threading
from dataclasses import asdict, dataclass, field
from itertools import combinations, permutations
from operator import add, or_
from typing import Iterator, Optional

from .charpoly import checked_arguments, has_expected_dimension
from .errors import LimitExceeded
from .exact import PRIME_MODE
from .graphs import (
    CompartmentGraph,
    _adjacency,
    _isc_order,
    _set_bits,
    _strongly_connected,
    add_exchange_vertex,
    collapse_exchange,
    exchange_vertices,
    has_exchange,
)

DEFAULT_LIMIT = 5
SPOT_CHECK_STRIDE = 100  # re-verify one member per hundred against its class
# Fewest verdicts worth a forked process: a fork, the shared map and a reap
# cost 1.3-1.9 ms on 2 vCPUs from a parent that has grouped the census rows,
# a verdict 65-90 us at n = 5 (the serial mean over the verdicts of (5,8)
# and of (5,7)): 64 verdicts, 4-6 ms, outweigh them.
MIN_FORK_SHARE = 64


def all_possible_edges(n: int) -> list[tuple[int, int]]:
    """The n(n-1) candidate edges in lexicographic (source, target) order."""
    return [(j, i) for j in range(1, n + 1) for i in range(1, n + 1) if i != j]


def _check_limit(n: int, limit: int) -> None:
    if n < 1:
        raise LimitExceeded("need at least one vertex")
    if n > limit:
        raise LimitExceeded(
            f"n={n} exceeds the enumeration guardrail {limit}; "
            "pass limit=n to override"
        )


def enumerate_sc_graphs(
    n: int, m: int, limit: int = DEFAULT_LIMIT
) -> Iterator[CompartmentGraph]:
    """All strongly connected graphs with the given vertex and edge counts.

    Edge subsets are visited in lexicographic order over the candidate edge
    list, so output order is reproducible. The vertex-count guardrail keeps
    accidental huge sweeps out; pass a larger `limit` deliberately. The
    census and the sweeps run on symmetry classes; tests use this labeled
    scan, and `property_suite` takes its first over-full graph from it.
    """
    _check_limit(n, limit)
    pool = all_possible_edges(n)
    if m < 0:  # combinations() raises on a negative length; past the pool it yields nothing
        return
    for subset in combinations(pool, m):
        if _strongly_connected(*_adjacency(n, subset)):
            yield CompartmentGraph(n, subset)


@dataclass(frozen=True)
class CensusClass:
    """One symmetry class (vertex permutations fixing 1) of SC graphs."""

    representative: CompartmentGraph
    size: int
    expected: bool
    exchange: bool
    isc: bool


def _grouped_classes(n: int, m: int, limit: int):
    """Symmetry classes of the SC (n, m) graphs by orderly generation (Read
    1978; McKay, J. Algorithms 1998), visiting no labeled graph.

    Pool index i is edge bit P-1-i, so an orbit's largest bitmask under the
    relabelings of 2..n, its canonical set, is its first member in
    enumeration order. Dropping the lowest bit of a canonical set leaves a
    canonical set, so a DFS that adds bits below the lowest one and keeps
    canonical children meets each class once. Returns (pool, images,
    classes): pool is `complete_digraph(n)`, the graph of all P candidate
    edges, validated once, whose `edge_subgraph` of a mask is its graph;
    images[b][k] is the image of bit b under relabeling k; and classes
    lists (mask, size, exchange, isc) by descending mask. The two flags
    are read off the adjacency masks the DFS holds at the leaf: an
    exchange is a vertex in both out[1] and inn[1], and isc is
    `_isc_order`, the greedy of `is_inductively_strongly_connected`.

    A child is pruned before its canonicity test, which adds one image per
    relabeling. Child b of a set S can only complete to a strongly
    connected (SC) set inside its reach set: S + b when b is the last edge,
    else S + b + every bit below b. The DFS carries the per-vertex out and
    in masks of S, and `below[b]` holds those of the bits below b, so the
    test ORs masks and walks `_reach` twice (`_strongly_connected`). The
    first child, b = low - 1, has the reach set S + below(low), which is
    the set that admitted S itself (the root's is every edge), so it is
    not tested again. Below the last edge the reach sets shrink as b
    falls, and SC is monotone under adding edges, so the first child that
    fails ends the loop. The last edge's sets S + b are not nested, so
    there the loop goes on. A child is entered exactly when it passes both
    tests, in either order, so the prune changes no class.
    """
    _check_limit(n, limit)
    pool = complete_digraph(n)
    edges = pool.edges
    P = len(edges)
    if m < 0 or m > P:
        return pool, [], []
    index = {e: i for i, e in enumerate(edges)}
    others = range(2, n + 1)
    relabelings = [{1: 1, **dict(zip(others, perm))} for perm in permutations(others)]
    images = [[1 << (P - 1 - index[(s[j], s[i])]) for s in relabelings]
              for j, i in reversed(edges)]
    below = [_adjacency(n, edges[P - b:]) for b in range(P + 1)]  # bits under b
    classes = []

    def grow(mask: int, sums: list[int], out: list[int], inn: list[int], low: int, need: int) -> None:
        # `out`, `inn`: the adjacency masks of `mask`; `low`: its lowest bit
        # (P when empty); `need`: the edges still to add.
        if not need:  # orbit-stabilizer gives the class size
            size = len(sums) // sums.count(mask)
            classes.append((mask, size, bool(out[1] & inn[1]), _isc_order(out, inn) is not None))
            return
        for b in range(low - 1, need - 2, -1):
            j, i = edges[P - 1 - b]
            child_out, child_inn = out.copy(), inn.copy()
            child_out[j] |= 1 << i
            child_inn[i] |= 1 << j
            if need == 1:
                if not _strongly_connected(child_out, child_inn):
                    continue
            elif b < low - 1 and not _strongly_connected([*map(or_, child_out, below[b][0])],
                                                         [*map(or_, child_inn, below[b][1])]):
                break
            child_sums = list(map(add, sums, images[b]))
            if max(child_sums) == mask | 1 << b:
                grow(mask | 1 << b, child_sums, child_out, child_inn, b, need - 1)

    if _strongly_connected(*below[P if m else 0]):  # the root's reach set: every edge, or none
        grow(0, [0] * len(relabelings), *below[0], P, m)
    return pool, images, classes


def _spot_samples(n: int, m: int, seed: int, pool, images, classes) -> list[tuple[CompartmentGraph, int]]:
    """ceil(A / SPOT_CHECK_STRIDE) (member, orbit key) pairs, each member
    uniform among the labeled graphs that are not representatives: a class
    drawn with weight size-1, then a relabeling that moves it. Rows of
    singleton classes draw none. The RNG is seeded by (n, m, seed); pool,
    images and classes are the row's `_grouped_classes`."""
    weights = [size - 1 for _mask, size, _exchange, _isc in classes]
    if not any(weights):
        return []
    rng = random.Random(f"{n}|{m}|{seed}")
    count = -(-(sum(weights) + len(classes)) // SPOT_CHECK_STRIDE)  # ceil(A / stride)
    samples = []
    for mask, _size, _exchange, _isc in rng.choices(classes, weights, k=count):
        sums = [sum(col) for col in zip(*map(images.__getitem__, _set_bits(mask)))]
        image = rng.choice([s for s in sums if s != mask])
        samples.append((pool.edge_subgraph(image), mask))
    return samples


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _verdicts(graphs: list[CompartmentGraph], trials: int, seed: int, mode: str) -> list[bool]:
    """`has_expected_dimension` of each graph, in order, split over the CPUs.

    With k = min(CPUs, len(graphs) // MIN_FORK_SHARE), the parent computes
    share 0 and one forked child each other share r, graphs[r::k]; a share
    writes verdict i as byte i of one anonymous shared map. `derived_rng`
    makes each verdict a function of (seed, graph) alone, so the split
    changes no result. k is 1, and nothing is forked, with fewer than
    2 * MIN_FORK_SHARE verdicts, on one CPU (which `taskset -c 0` forces),
    without `os.fork`, or while another thread is alive (forking a threaded
    process is unsafe). A child leaves only through `os._exit`, flushing no
    inherited buffer. The share of a child that fails, or that could not be
    forked, is recomputed here over any bytes it wrote, so an error a
    verdict raises in a child is raised again in the caller.
    """
    k = min(_usable_cpus(), len(graphs) // MIN_FORK_SHARE)
    if k < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        k = 1

    verdicts = mmap.mmap(-1, len(graphs) or 1)
    children = {}  # share index -> pid

    def share(r: int) -> None:
        for i in range(r, len(graphs), k):
            verdicts[i] = has_expected_dimension(graphs[i], trials=trials, seed=seed, mode=mode)

    try:
        for r in range(1, k):
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the parent computes this share
                continue
            if pid == 0:
                try:
                    share(r)
                    os._exit(0)
                finally:  # reached only when share(r) raised
                    os._exit(1)
            children[r] = pid
        share(0)
        for r in range(1, k):
            status = os.waitpid(children[r], 0)[1] if r in children else 1
            children.pop(r, None)
            if status != 0:
                share(r)
        return list(map(bool, verdicts[: len(graphs)]))
    finally:  # on an error here, stop and reap the children still running
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        verdicts.close()


@dataclass(frozen=True)
class CensusRow:
    """One row of the census table. D and F are only defined for the
    maximal case m = 2n-2."""

    n: int
    m: int
    A: int  # labeled strongly connected graphs
    B: int  # labeled graphs with the expected dimension
    C: int  # symmetry classes
    D: Optional[int]  # classes with an exchange (maximal case)
    E: int  # classes with the expected dimension
    F: Optional[int]  # inductively strongly connected classes (maximal case)

    @staticmethod
    def csv_header() -> str:
        return "n,m,A,B,C,D,E,F"

    def csv_line(self) -> str:
        d = "" if self.D is None else str(self.D)
        f = "" if self.F is None else str(self.F)
        return f"{self.n},{self.m},{self.A},{self.B},{self.C},{d},{self.E},{f}"

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_classes(cls, n: int, m: int, classes: list[CensusClass]) -> CensusRow:
        """The row's counts from its `census_classes`."""
        maximal = m == 2 * n - 2
        return cls(
            n=n,
            m=m,
            A=sum(c.size for c in classes),
            B=sum(c.size for c in classes if c.expected),
            C=len(classes),
            D=sum(1 for c in classes if c.exchange) if maximal else None,
            E=sum(1 for c in classes if c.expected),
            F=sum(1 for c in classes if c.isc) if maximal else None,
        )


def census_classes(
    n: int,
    m: int,
    seed: int = 0,
    trials: int = 2,
    mode: str = PRIME_MODE,
    limit: int = DEFAULT_LIMIT,
) -> list[CensusClass]:
    """The row's classes in enumeration order, computed afresh on every
    call, with verdicts computed once per representative; nothing of the
    row outlives the returned list. `trials`, `seed` and `mode` are
    checked first, so a row with no classes, or one the edge bound
    decides, rejects them as every other row does. The verdicts of the
    classes and spot-check members are split over the CPUs as `_verdicts`
    describes; the split changes no result."""
    trials, seed = checked_arguments(trials, seed, mode)
    pool, images, found = _grouped_classes(n, m, limit)
    samples = _spot_samples(n, m, seed, pool, images, found)
    representatives = [pool.edge_subgraph(mask) for mask, _size, _exchange, _isc in found]
    verdicts = _verdicts(representatives + [g for g, _key in samples], trials, seed, mode)
    # Verdict reuse across a class leans on relabeling equivariance;
    # re-derive a sample of other members from scratch to keep that honest.
    by_key = {mask: expected for (mask, *_rest), expected in zip(found, verdicts)}
    for (graph, key), direct in zip(samples, verdicts[len(found):]):
        if direct != by_key[key]:
            raise AssertionError(f"class verdict mismatch for member {graph.to_json()}")
    return [
        CensusClass(representative=rep, size=size, expected=expected, exchange=exchange, isc=isc)
        for rep, (_mask, size, exchange, isc), expected in zip(representatives, found, verdicts)
    ]


def census_row(
    n: int,
    m: int,
    seed: int = 0,
    trials: int = 2,
    mode: str = PRIME_MODE,
    limit: int = DEFAULT_LIMIT,
) -> CensusRow:
    """Counts A-F for the (n, m) cell of the table."""
    return CensusRow.from_classes(n, m, census_classes(n, m, seed, trials, mode, limit))


def non_isc_identifiable_classes(
    n: int,
    m: int,
    seed: int = 0,
    trials: int = 2,
    mode: str = PRIME_MODE,
    limit: int = DEFAULT_LIMIT,
) -> list[CompartmentGraph]:
    """Class representatives with the expected dimension but no ISC ordering
    (the E-minus-F classes of a maximal row)."""
    if m != 2 * n - 2:
        raise ValueError("only defined for the maximal case m = 2n-2")
    classes = census_classes(n, m, seed, trials, mode, limit)
    return [c.representative for c in classes if c.expected and not c.isc]


CONJ_COLLAPSE_MAXIMAL = "collapse-2n-4"
CONJ_COLLAPSE_CYCLE = "collapse-n-1"


@dataclass
class ConjectureReport:
    """Outcome of sweeping one collapse conjecture over a graph range."""

    conjecture: str
    tested: int = 0
    counterexamples: list = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return not self.counterexamples

    def as_dict(self) -> dict:
        return {
            "conjecture": self.conjecture,
            "tested": self.tested,
            "holds": self.holds,
            "counterexamples": self.counterexamples,
        }


def test_conjectures(
    n: int,
    seed: int = 0,
    trials: int = 2,
    mode: str = PRIME_MODE,
    limit: int = DEFAULT_LIMIT,
) -> list[ConjectureReport]:
    """Compare expected-dimension verdicts of G and its collapsed graphs.

    Every exchange vertex is collapsed in turn (the source does not single
    one out). Mismatches are reported, never raised: these are conjectures.
    It runs on census classes (relabelings fixing 1 commute with collapse):
    each exchange vertex of a representative adds the class size to `tested`,
    and a mismatch is listed once per class, with its `class_size`.
    """
    reports = {
        CONJ_COLLAPSE_MAXIMAL: ConjectureReport(CONJ_COLLAPSE_MAXIMAL),
        CONJ_COLLAPSE_CYCLE: ConjectureReport(CONJ_COLLAPSE_CYCLE),
    }
    for m in range(n, max(2 * n - 1, n + 1)):
        for entry in census_classes(n, m, seed=seed, trials=trials, mode=mode, limit=limit):
            graph = entry.representative
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
                c_expected = has_expected_dimension(
                    collapsed, trials=trials, seed=seed, mode=mode
                )
                for name in applicable:
                    reports[name].tested += entry.size
                    if entry.expected != c_expected:
                        reports[name].counterexamples.append(
                            {
                                "graph": graph.as_dict(),
                                "exchange_vertex": v,
                                "collapsed": collapsed.as_dict(),
                                "graph_expected": entry.expected,
                                "collapsed_expected": c_expected,
                                "class_size": entry.size,
                            }
                        )
    return [reports[CONJ_COLLAPSE_MAXIMAL], reports[CONJ_COLLAPSE_CYCLE]]


def directed_cycle(n: int) -> CompartmentGraph:
    edges = [(v, v + 1) for v in range(1, n)] + [(n, 1)]
    return CompartmentGraph(n, tuple(edges))


def complete_digraph(n: int) -> CompartmentGraph:
    return CompartmentGraph(n, tuple(all_possible_edges(n)))


@dataclass
class PropertyCheck:
    """Result of exhaustively checking one proven statement."""

    tested: int = 0
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {"tested": self.tested, "passed": self.passed, "violations": self.violations}


def property_suite(
    n_max: int = DEFAULT_LIMIT,
    seed: int = 0,
    trials: int = 2,
    mode: str = PRIME_MODE,
) -> dict[str, PropertyCheck]:
    """Exhaustive checks of the proven structural statements.

    Any violation here falsifies a theorem (or reveals a bug) and should
    fail the build; conjecture sweeps live in test_conjectures instead.
    The exchange, ISC and add-exchange checks run on census classes: each
    class counts `size` times in `tested`, and violations name representatives.
    Exchange-necessity holds by construction, since `has_expected_dimension`
    answers False on a maximal graph with no exchange by the walk bound,
    which is never above 2n-2 there (both proved in the `charpoly` module
    docstring); its independent evidence is `TestNoExchangeBound` in
    tests/test_charpoly.py, which checks the 2n-2 bound's relation on
    sympy's determinants and the walk bound against it.
    """
    limit = max(n_max, DEFAULT_LIMIT)
    checks = {
        "exchange-necessity": PropertyCheck(),
        "directed-cycle-expected": PropertyCheck(),
        "minimal-isc-expected": PropertyCheck(),
        "add-exchange-preserved": PropertyCheck(),
        "edge-bound": PropertyCheck(),
    }

    for n in range(3, 7):
        cycle = directed_cycle(n)
        checks["directed-cycle-expected"].tested += 1
        if not has_expected_dimension(cycle, trials=trials, seed=seed, mode=mode):
            checks["directed-cycle-expected"].violations.append(cycle.to_json())

    # One pass over the rows, each read once. Maximal graphs with the
    # expected dimension must have an exchange, and maximal ISC graphs must
    # reach the expected dimension. Attaching a fresh exchange vertex
    # preserves the expected dimension (the proven direction), swept over
    # every class that has it. A relabeling of 2..n becomes one of the
    # grown graph fixing 1 and 2.
    for n in range(1, n_max + 1):
        for m in [0] if n == 1 else range(n, 2 * n - 1):
            maximal = n >= 2 and m == 2 * n - 2
            for entry in census_classes(n, m, seed=seed, trials=trials, mode=mode, limit=limit):
                if maximal and entry.expected:
                    checks["exchange-necessity"].tested += entry.size
                    if not entry.exchange:
                        checks["exchange-necessity"].violations.append(entry.representative.to_json())
                if maximal and entry.isc:
                    checks["minimal-isc-expected"].tested += entry.size
                    if not entry.expected:
                        checks["minimal-isc-expected"].violations.append(entry.representative.to_json())
                if not entry.expected:
                    continue
                grown = add_exchange_vertex(entry.representative)
                checks["add-exchange-preserved"].tested += entry.size
                if not has_expected_dimension(grown, trials=trials, seed=seed, mode=mode):
                    checks["add-exchange-preserved"].violations.append(entry.representative.to_json())

    # Beyond 2n-2 edges the verdict must be False with no rank computed.
    for n in range(3, n_max + 1):
        over = [complete_digraph(n)]
        first_over = next(enumerate_sc_graphs(n, 2 * n - 1, limit=limit), None)
        if first_over is not None:
            over.append(first_over)
        for graph in over:
            checks["edge-bound"].tested += 1
            if has_expected_dimension(graph, trials=trials, seed=seed, mode=mode):
                checks["edge-bound"].violations.append(graph.to_json())

    return checks

