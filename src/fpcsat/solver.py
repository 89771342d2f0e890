"""End-to-end satisfiability check by fully-populated-clause elimination.

A formula is satisfiable exactly when some fully populated clause over its
variables has none of its subsets in the formula; the falsifying assignment
of such a clause satisfies every formula clause.  The procedure registers
variables into the frontier of surviving FPCs as they first appear,
eliminates the supersets of each clause, and reads the models off the
survivors.
"""

from __future__ import annotations

import time
from itertools import groupby, islice
from typing import Iterator, NamedTuple, Sequence

from .core import (
    Clause,
    Formula,
    canonical_literals,
    effective_clauses,
    elimination_order_key,
    normalize,
)
from .tree import NODE_BUDGET, BudgetExceeded, FpcTree, decode_fpcs

SAT = "SAT"
UNSAT = "UNSAT"
RESOURCE_EXCEEDED = "RESOURCE_EXCEEDED"

# each clause order's class key, which sorts the clauses up front, and the
# key that orders a class once the solve reaches it; no effective clause is
# empty, so under "lex" (solve --no-sort) every clause is in one class
ORDERS = {"cardinality": (len, elimination_order_key), "lex": (bool, canonical_literals)}


class SolveConfig(NamedTuple):
    node_budget: int = NODE_BUDGET
    report_all_models: bool = False
    order: str = "cardinality"  # a key of ORDERS
    # deterministic effort cap in frontier entries scanned; None = unlimited
    work_budget: int | None = None


class SolveStats(NamedTuple):
    clauses_processed: int = 0
    tautologies_skipped: int = 0
    duplicates_removed: int = 0
    peak_nodes: int = 0
    eliminations: int = 0
    elapsed_time: float = 0.0
    work: int = 0
    exceeded: str | None = None  # "nodes" or "work" when budget tripped


class SolveResult(NamedTuple):
    """A verdict and, for SAT, its models as frontier entries (see ``tree``)
    over the registration ``order``: all surviving ones with
    ``report_all_models``, else the first."""

    verdict: str
    order: Sequence[int] = ()
    entries: Sequence[int] = ()
    stats: SolveStats = SolveStats()

    @property
    def absent_fpcs(self) -> list[Clause]:
        """The surviving FPC behind each model: the one clause it falsifies."""
        return decode_fpcs(self.order, self.entries)

    @property
    def models(self) -> list[dict[int, bool]]:
        return [model_from_fpc(c) for c in self.absent_fpcs]


def model_from_fpc(c: Clause) -> dict[int, bool]:
    """The assignment that makes every literal of a non-tautology clause false."""
    return {abs(lit): lit < 0 for lit in c}


def check_sat(f: Formula, cfg: SolveConfig = SolveConfig()) -> SolveResult:
    start = time.perf_counter()
    report = normalize(f)
    # built first, so that a node budget below 1 fails even on the empty clause
    tree = FpcTree(node_budget=cfg.node_budget, work_limit=cfg.work_budget)
    verdict, exceeded, skipped = UNSAT, None, 0
    if not report.has_empty_clause:
        verdict = SAT
        clauses = effective_clauses(f)
        skipped = len(f.clauses) - len(clauses)
        class_key, order_key = ORDERS[cfg.order]
        clauses.sort(key=class_key)
        n = len(clauses)

        def ordered() -> Iterator[Clause]:
            """The clauses class by class, each class ordered as the solve reaches
            it, up to the first class boundary where one FPC survives, every
            clause left is over registered variables, and none is a subset of
            that FPC: by the sibling-clause result, the rest drops nothing."""
            begin = 0
            for _, group in groupby(clauses, class_key):
                if len(tree.frontier) == 1 and all(
                    map(tree.literals.issuperset, islice(clauses, begin, None))
                ):
                    (fpc,) = decode_fpcs(tree.insertion_order, tree.frontier)
                    if not any(map(fpc.issuperset, islice(clauses, begin, None))):
                        return
                group = sorted(group, key=order_key)
                yield from group
                begin += len(group)

        try:
            tree.eliminate(ordered())
            if tree.frontier:
                tree.charge(n - tree.applied)
            else:
                verdict = UNSAT
        except BudgetExceeded as exc:
            verdict, exceeded = RESOURCE_EXCEEDED, exc.kind

    order, entries = [], []
    if verdict == SAT:
        order = tree.insertion_order
        entries = tree.frontier if cfg.report_all_models else tree.frontier[:1]
    stats = SolveStats(
        clauses_processed=tree.applied,
        tautologies_skipped=skipped,
        duplicates_removed=report.duplicates_removed,
        # the empty clause decides the solve before the frontier holds anything
        peak_nodes=0 if report.has_empty_clause else tree.peak_nodes,
        eliminations=tree.eliminations,
        elapsed_time=time.perf_counter() - start,
        work=tree.work,
        exceeded=exceeded,
    )
    return SolveResult(verdict, order, entries, stats)
