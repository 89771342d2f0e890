"""Span timing for the traced benchmark pass.

``instrument`` replaces the names that each fpcsat module imported from
another one (``fpcsat.solver.normalize``, ``fpcsat.cli.parse_dimacs``,
``FpcTree.eliminate``, ...) with timed wrappers, so every call across a
module boundary is timed where it is made.  Spans nest: a span's self time
is its duration minus the time of the spans that ran inside it.  Totals are
kept in memory per span name and written out once, by the caller, at exit.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

# counters merged by maximum rather than by sum
PEAK_COUNTS = ("tree.peak_nodes",)


class Tracer:
    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._inner: list[float] = []  # child-span time of each open span

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` as one span called ``name``."""
        self._inner.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = perf_counter() - start
            inner = self._inner.pop()
            self.seconds[name] += took
            self.self_seconds[name] += took - inner
            self.calls[name] += 1
            if self._inner:
                self._inner[-1] += took

    def wrap(self, owner, attr, name, after=None):
        """Time every call of ``owner.attr``; ``after(args, result)`` may
        count something and returns the result the caller gets."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            return result if after is None else after(args, result)

        setattr(owner, attr, traced)

    def snapshot(self) -> dict:
        return {
            "seconds": dict(self.seconds),
            "self_seconds": dict(self.self_seconds),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def merge(snapshots) -> dict:
    """Sum span totals of several processes (peak counters by maximum)."""
    out = {key: defaultdict(float) for key in ("seconds", "self_seconds", "calls", "counts")}
    for snap in snapshots:
        for key, table in snap.items():
            for name, value in table.items():
                if name in PEAK_COUNTS:
                    out[key][name] = max(out[key][name], value)
                else:
                    out[key][name] += value
    return out


def instrument(tracer: Tracer) -> None:
    """Wrap the calls the fpcsat CLI makes between its modules."""
    from fpcsat import bench, cardinality, cli, solver
    from fpcsat.tree import FpcTree

    counts = tracer.counts

    def parsed(args, doc):
        counts["dimacs.parse_bytes"] += len(args[0])
        return doc

    def solved(args, result):
        stats = result.stats
        counts["tree.work"] += stats.work
        counts["tree.eliminations"] += stats.eliminations
        counts["tree.peak_nodes"] = max(counts["tree.peak_nodes"], stats.peak_nodes)
        return result

    class OrderTimedList(list):
        """check_sat sorts this list into elimination order; time the sort."""

        def sort(self, **kwargs):
            tracer.call("solver.order_sort", super().sort, **kwargs)

    def order_timed(args, clauses):
        return OrderTimedList(clauses)

    eliminate = FpcTree.eliminate

    @functools.wraps(eliminate)
    def eliminate_counting_hits(tree, c):
        before = tree.eliminations
        eliminate(tree, c)
        if tree.eliminations != before:
            counts["tree.eliminate_hits"] += 1

    FpcTree.eliminate = eliminate_counting_hits

    for owner, attr, name, after in (
        (cli, "parse_dimacs", "dimacs.parse", parsed),
        (cli, "write_result", "dimacs.write_result", None),
        (cli, "normalize", "core.normalize", None),
        (solver, "normalize", "core.normalize", None),
        (solver, "effective_clauses", "core.effective_clauses", order_timed),
        (cli, "check_sat", "solver.check_sat", solved),
        (bench, "check_sat", "solver.check_sat", solved),
        (solver, "canonical_literals", "solver.canonical_literals", None),
        (solver, "model_from_fpc", "solver.model_from_fpc", None),
        (FpcTree, "register_variable", "tree.register", None),
        (FpcTree, "eliminate", "tree.eliminate", None),
        (FpcTree, "open_fpcs", "tree.open_fpcs", None),
        (cardinality, "preprocess", "cardinality.preprocess", None),
        (cardinality, "profile", "cardinality.profile", None),
        (bench, "random_3sat", "instances.random_3sat", None),
        (bench, "pigeonhole", "instances.pigeonhole", None),
        (bench, "complete_minus_one", "instances.complete_minus_one", None),
        (bench, "run_family", "bench.run_family", None),
        (bench, "write_csv_header", "bench.csv", None),
        (bench, "append_csv_record", "bench.csv", None),
        (bench, "fit_growth", "bench.fit_growth", None),
    ):
        tracer.wrap(owner, attr, name, after)
