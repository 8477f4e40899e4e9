"""Outside-in spans around calls into compident's public functions.

A Tracer replaces each listed function in every ``compident`` namespace
that holds a reference to it (the modules import each other by name, so
``census`` and ``charpoly`` each keep their own ``canonical_form``). Spans
stay in memory as ``[name, parent, start_ns, end_ns, value]`` and are
written out once the run ends. Self time is a span's duration minus the
durations of its child spans; calls are single-threaded, so children never
overlap.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter
from math import comb

# (module, function) pairs traced, in layer order. Generators are timed per
# next() call, so their spans cover iterating, not only creating them.
TRACED = (
    ("cli", "main"),
    ("census", "census_row"),
    ("census", "enumerate_sc_graphs"),
    ("graphs", "canonical_form"),
    ("graphs", "is_inductively_strongly_connected"),
    ("graphs", "elementary_cycles"),
    ("charpoly", "has_expected_dimension"),
    ("charpoly", "image_dimension"),
    ("charpoly", "derived_rng"),
    ("charpoly", "jacobian"),
    ("charpoly", "numeric_coefficients"),
    ("exact", "rank"),
    ("exact", "rank_mod_p"),
    ("exact", "rank_bareiss"),
    ("exact", "det_int"),
    ("exact", "inverse_unimodular"),
    ("exact", "integer_solve_in_lattice"),
    ("reparam", "reparametrize"),
    ("reparam", "spanning_tree"),
    ("reparam", "validate_tree"),
    ("reparam", "scaling_exponents"),
    ("reparam", "rescaled_exponent_matrix"),
    ("reparam", "cycle_basis"),
    ("reparam", "express_in_cycles"),
    ("reparam", "reparametrization_failures"),
    ("monomial", "format_monomial"),
)
GENERATORS = {"census.enumerate_sc_graphs"}
KEEP_RESULT = {"exact.rank"}  # rank results give charpoly.jacobian.useful_ratio

NAME, PARENT, START, END, VALUE = range(5)


def _library_modules():
    return [
        module
        for key, module in sys.modules.items()
        if key == "compident" or key.startswith("compident.")
    ]


class Tracer:
    """Records one span per traced call while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.enumerations: list[tuple[int, int]] = []  # (n, m) per generator created
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = _library_modules()
        for module_name, func_name in TRACED:
            name = f"{module_name}.{func_name}"
            original = getattr(sys.modules[f"compident.{module_name}"], func_name)
            if name in GENERATORS:
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _open(self, name: str) -> list:
        stack = self._stack
        span = [name, stack[-1] if stack else -1, 0, 0, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn):
        keep = name in KEEP_RESULT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if keep:
                span[VALUE] = result
            return result

        return traced

    def _wrap_generator(self, name, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            bound = signature.bind(*args, **kwargs)
            self.enumerations.append((bound.arguments["n"], bound.arguments["m"]))
            return self._iterate(name, fn(*args, **kwargs))

        return traced

    def _iterate(self, name, generator):
        try:
            while True:
                span = self._open(name)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                span[VALUE] = 1  # produced an item
                yield item
        finally:
            generator.close()

    def write(self, path) -> None:
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="ascii") as out:
            for span in self.spans:
                out.write(json.dumps(span[:4]) + "\n")


def _nearest(spans, target: str) -> list[int]:
    """Index of each span's nearest ancestor-or-self named `target`, or -1.

    Spans are stored in start order, so a parent precedes its children.
    """
    out = [-1] * len(spans)
    for idx, span in enumerate(spans):
        if span[NAME] == target:
            out[idx] = idx
        elif span[PARENT] >= 0:
            out[idx] = out[span[PARENT]]
    return out


def self_times(spans) -> list[int]:
    child = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times of one traced pass."""
    spans = tracer.spans
    selfs = self_times(spans)
    self_ns: Counter = Counter()
    incl_ns: Counter = Counter()
    for idx, span in enumerate(spans):
        name = span[NAME]
        self_ns[name] += selfs[idx]
        # A span under another span of the same name is already inside
        # that span's inclusive time.
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            incl_ns[name] += span[END] - span[START]

    out: dict[str, float] = {}
    for module_name, func_name in TRACED:
        name = f"{module_name}.{func_name}"
        out[f"{name}.calls"] = tracer.calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
        out[f"{name}.incl_s"] = incl_ns[name] / 1e9

    # canonical_form split by the layer that called it
    for tag, parent_name in (("in_census", "census.census_row"), ("in_derived_rng", "charpoly.derived_rng")):
        calls = busy = 0
        for idx, span in enumerate(spans):
            if (
                span[NAME] == "graphs.canonical_form"
                and span[PARENT] >= 0
                and spans[span[PARENT]][NAME] == parent_name
            ):
                calls += 1
                busy += selfs[idx]
        out[f"graphs.canonical_form.{tag}.calls"] = calls
        out[f"graphs.canonical_form.{tag}.self_s"] = busy / 1e9

    # Jacobian evaluations whose rank raised their image_dimension call's
    # running maximum, over all Jacobian evaluations.
    owner = _nearest(spans, "charpoly.image_dimension")
    best: dict[int, int] = {}
    useful = jacobians = 0
    for idx, span in enumerate(spans):
        if owner[idx] < 0:
            continue
        if span[NAME] == "charpoly.jacobian":
            jacobians += 1
        elif span[NAME] == "exact.rank" and span[VALUE] > best.get(owner[idx], 0):
            useful += 1
            best[owner[idx]] = span[VALUE]
    out["charpoly.jacobian.useful_ratio"] = useful / jacobians if jacobians else 0.0

    out["census.enumerate_sc_graphs.yielded"] = sum(
        1 for span in spans if span[NAME] == "census.enumerate_sc_graphs" and span[VALUE]
    )
    out["census.enumerate_sc_graphs.subsets"] = sum(
        comb(n * (n - 1), m) for n, m in tracer.enumerations
    )

    in_census = _nearest(spans, "census.census_row")
    verdicts = graphs_in_census = 0
    for idx, span in enumerate(spans):
        if in_census[idx] >= 0:
            verdicts += span[NAME] == "charpoly.has_expected_dimension"
            graphs_in_census += span[NAME] == "census.enumerate_sc_graphs" and bool(span[VALUE])
    out["census.verdict_calls"] = verdicts
    out["census.verdict_calls_per_graph"] = verdicts / graphs_in_census if graphs_in_census else 0.0

    reparams = tracer.calls["reparam.reparametrize"]
    out["exact.inverse_unimodular.per_reparam"] = (
        tracer.calls["exact.inverse_unimodular"] / reparams if reparams else 0.0
    )
    out["trace.spans"] = len(spans)
    return out


def top_self_times(spans, under: int = -1, limit: int = 5) -> list[tuple[str, float]]:
    """Largest self times by layer, over all spans or those under one span."""
    selfs = self_times(spans)
    if under >= 0:
        inside = [False] * len(spans)
        for idx in range(under, len(spans)):
            span = spans[idx]
            inside[idx] = idx == under or (span[PARENT] >= under and inside[span[PARENT]])
    totals: Counter = Counter()
    for idx, span in enumerate(spans):
        if under < 0 or inside[idx]:
            # canonical_form is reported by the layer that called it
            name = span[NAME]
            if name == "graphs.canonical_form" and span[PARENT] >= 0:
                name += " under " + spans[span[PARENT]][NAME]
            totals[name] += selfs[idx]
    return [(name, ns / 1e9) for name, ns in totals.most_common(limit)]
