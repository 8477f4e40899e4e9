"""Command-line interface.

Subcommands: analyze, reparam, io-equation, census, conjectures. All output
is deterministic for a fixed invocation; --json selects the stable
machine-readable form. Exit codes: 0 success, 1 no reparametrization
exists, 2 bad input or usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Optional, Sequence

from . import census as census_mod
from .charpoly import image_dimension, io_equation_text
from .errors import CompidentError, NoReparametrization, TooManyEdges
from .exact import PRIME_MODE, RATIONAL_MODE
from .graphs import (
    CompartmentGraph,
    has_exchange,
    io_strong_component,
    is_inductively_strongly_connected,
    parse_graph,
)
from .reparam import reparametrize


def _read_graph(path: str) -> CompartmentGraph:
    if path == "-":
        return parse_graph(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse_graph(handle.read())


def _parse_tree_flag(spec: str, graph: CompartmentGraph) -> list[tuple[int, int]]:
    """Parse --tree as comma-separated rate names of the graph's edges,
    e.g. a12,a23,a34 (`CompartmentGraph.rate_name`)."""
    edges = {graph.edge_param_name(k): e for k, e in enumerate(graph.edges)}
    picked = []
    for name in spec.split(","):
        name = name.strip()
        if name not in edges:
            raise ValueError(f"bad tree entry {name!r}; expected the rate name of an edge")
        picked.append(edges[name])
    return picked


def _dump(doc) -> None:
    print(json.dumps(doc, indent=2))


def _mode(args) -> str:
    return RATIONAL_MODE if args.exact else PRIME_MODE


def _cmd_analyze(args) -> int:
    graph = _read_graph(args.graph)
    target = io_strong_component(graph)  # the graph itself exactly when it is strongly connected
    sc = target is graph
    report = image_dimension(target, trials=args.trials, seed=args.seed, mode=_mode(args))
    exchange = has_exchange(graph)
    isc = is_inductively_strongly_connected(graph)
    if args.json:
        doc = {
            "graph": graph.as_dict(),
            "strongly_connected": sc,
            "exchange": exchange,
            "isc_ordering": list(isc) if isc else None,
            "reduced": None if sc else target.as_dict(),
            "dimension": report.as_dict(),
        }
        _dump(doc)
        return 0
    print(f"graph: n={graph.n}, m={graph.m}")
    print(f"strongly connected: {'yes' if sc else 'no'}")
    if not sc:
        print(f"input-output component: n={target.n}, edges={list(target.edges)}")
    print(f"exchange vertex: {exchange if exchange else 'none'}")
    print(
        "inductively strongly connected: "
        + (f"yes, ordering {','.join(map(str, isc))}" if isc else "no")
    )
    verdict = "expected" if report.verdict else "below expected"
    print(
        f"image dimension{'' if sc else ' of the input-output component'}: "
        f"d={report.d} of expected m+1={report.expected} "
        f"({verdict}; trials={report.trials}, seed={report.seed}, mode={report.mode})"
    )
    return 0


def _cmd_reparam(args) -> int:
    graph = _read_graph(args.graph)
    tree_edges = _parse_tree_flag(args.tree, graph) if args.tree is not None else None
    reason = None
    try:
        result = reparametrize(
            graph,
            trials=args.trials,
            seed=args.seed,
            mode=_mode(args),
            tree_edges=tree_edges,
        )
    except NoReparametrization as exc:
        reason, dimension, text = "dimension", exc.report.as_dict(), str(exc)
    except TooManyEdges as exc:
        reason, dimension, text = "edge-bound", None, f"no identifiable scaling reparametrization exists: {exc}"
    if reason is not None:
        if args.json:
            _dump({"reparametrization": None, "reason": reason, "dimension": dimension})
        else:
            print(text)
        return 1
    doc = result.to_json_dict()
    if args.json:
        _dump(doc)
        return 0
    print("spanning tree: " + ", ".join(graph.rate_name(i, j) for j, i in doc["tree_edges"]))
    for entry in doc["f"]:
        print(f"f_{entry['vertex']} = {entry['monomial']}")
    print("reparametrized matrix:")
    for row in doc["matrix"]:
        print("  [" + ", ".join(row) + "]")
    print("cycle basis: " + ", ".join(f"q{t} = {text}" for t, text in enumerate(doc["cycle_basis"], 1)))
    for entry in doc["expressions"]:
        j, i = entry["edge"]
        print(f"{graph.rate_name(i, j)} -> {entry['in_cycles']}")
    return 0


def _cmd_io_equation(args) -> int:
    graph = _read_graph(args.graph)
    text = io_equation_text(graph)
    if args.json:
        _dump({"equation": text})
    else:
        print(text)
    return 0


def _cmd_census(args) -> int:
    classes = census_mod.census_classes(
        args.n, args.m, seed=args.seed, trials=args.trials, mode=_mode(args), limit=args.limit
    )
    row = census_mod.CensusRow.from_classes(args.n, args.m, classes)
    if args.json or args.detail:
        doc = row.as_dict()
        if args.detail:
            doc["classes"] = [
                {
                    **entry.representative.as_dict(),
                    "size": entry.size,
                    "expected": entry.expected,
                    "exchange": entry.exchange,
                    "isc": entry.isc,
                }
                for entry in classes
            ]
        _dump(doc)
    else:
        print(row.csv_header())
        print(row.csv_line())
    return 0


def _cmd_conjectures(args) -> int:
    reports = census_mod.test_conjectures(
        args.n, seed=args.seed, trials=args.trials, mode=_mode(args), limit=args.limit
    )
    if args.json:
        _dump([r.as_dict() for r in reports])
    else:
        for r in reports:
            status = "holds" if r.holds else f"{len(r.counterexamples)} counterexamples"
            print(f"{r.conjecture}: tested {r.tested}, {status}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument(
        "--trials", type=int, default=2, help="random evaluation points per rank (default 2)"
    )
    parser.add_argument(
        "--exact",
        action="store_true",
        help="use exact rational arithmetic instead of the prime field",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change
    it, and every in-process `main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="compident",
        description="Identifiable scaling reparametrizations of linear compartment models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural predicates and image dimension")
    p.add_argument("graph", help="graph JSON file, or - for stdin")
    _add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("reparam", help="construct a scaling reparametrization")
    p.add_argument("graph", help="graph JSON file, or - for stdin")
    p.add_argument(
        "--tree",
        help="spanning tree as comma-separated rate names, e.g. a12,a23,a34",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_reparam)

    p = sub.add_parser("io-equation", help="print the input-output equation")
    p.add_argument("graph", help="graph JSON file, or - for stdin")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_io_equation)

    p = sub.add_parser("census", help="one (n, m) row of the census table")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--detail", action="store_true", help="include per-class detail (JSON)")
    p.add_argument("--limit", type=int, default=census_mod.DEFAULT_LIMIT, help="vertex guardrail")
    _add_common(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("conjectures", help="sweep the collapse conjectures")
    p.add_argument("n", type=int)
    p.add_argument("--limit", type=int, default=census_mod.DEFAULT_LIMIT, help="vertex guardrail")
    _add_common(p)
    p.set_defaults(func=_cmd_conjectures)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CompidentError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
