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
from typing import Callable

from .core import (
    Clause,
    Formula,
    canonical_literals,
    effective_clauses,
    elimination_order_key,
    is_tautology,
    normalize,
)
from .tree import BudgetExceeded, FpcTree, decode_fpcs

SAT = "SAT"
UNSAT = "UNSAT"
RESOURCE_EXCEEDED = "RESOURCE_EXCEEDED"


class SolveConfig:
    def __init__(
        self,
        node_budget: int = 1 << 24,
        report_all_models: bool = False,
        sort_clauses: bool = True,
        # deterministic effort cap in frontier entries scanned; None = unlimited
        work_budget: int | None = None,
        # per-clause hook, used by tests: called after each processed clause
        trace: Callable[[Clause, FpcTree], None] | None = None,
    ):
        if node_budget < 1:
            raise ValueError("node_budget must be >= 1")
        self.node_budget = node_budget
        self.report_all_models = report_all_models
        self.sort_clauses = sort_clauses
        self.work_budget = work_budget
        self.trace = trace


class SolveStats:
    def __init__(self):
        self.clauses_processed = 0
        self.tautologies_skipped = 0
        self.duplicates_removed = 0
        self.peak_nodes = 0
        self.eliminations = 0
        self.elapsed_time = 0.0
        self.work = 0
        self.exceeded: str | None = None  # "nodes" or "work" when budget tripped


class SolveResult:
    """A verdict and, for SAT, its models as the frontier packs them:
    ``order`` is the registration order and ``entries`` the reported FPCs
    (all with ``report_all_models``, else the first).  Bit ``k-1-i`` of an
    entry is 1 when its FPC holds ``order[i]`` positively, so when the model
    that falsifies it sets ``order[i]`` false."""

    def __init__(
        self,
        verdict: str,
        order: list[int] | None = None,
        entries: list[int] | None = None,
        stats: SolveStats | None = None,
    ):
        self.verdict = verdict
        self.order = [] if order is None else order
        self.entries = [] if entries is None else entries
        self.stats = SolveStats() if stats is None else stats

    @property
    def absent_fpcs(self) -> list[Clause]:
        """The surviving FPC behind each model: the one clause it falsifies."""
        return decode_fpcs(self.order, self.entries)

    @property
    def models(self) -> list[dict[int, bool]]:
        return [model_from_fpc(c) for c in self.absent_fpcs]


def model_from_fpc(c: Clause) -> dict[int, bool]:
    """The assignment that makes every literal of the clause false."""
    if is_tautology(c):
        raise ValueError("a tautology clause has no falsifying assignment")
    return {abs(lit): lit < 0 for lit in c}


def check_sat(f: Formula, cfg: SolveConfig | None = None) -> SolveResult:
    cfg = cfg or SolveConfig()
    start = time.perf_counter()
    stats = SolveStats()

    report = normalize(f)
    stats.duplicates_removed = report.duplicates_removed

    def finish(verdict: str, tree: FpcTree | None = None, order=(), entries=()):
        if tree is not None:
            stats.peak_nodes = tree.peak_nodes
            stats.eliminations = tree.eliminations
            stats.work = tree.work
        stats.elapsed_time = time.perf_counter() - start
        return SolveResult(verdict, list(order), list(entries), stats)

    if report.has_empty_clause:
        return finish(UNSAT)

    clauses = effective_clauses(f, report.tautologies)
    stats.tautologies_skipped = len(f.clauses) - len(clauses)
    if cfg.sort_clauses:
        clauses.sort(key=elimination_order_key)
    else:
        # deterministic but cardinality-blind order
        clauses.sort(key=canonical_literals)

    tree = FpcTree(node_budget=cfg.node_budget, work_limit=cfg.work_budget)
    try:
        for c in clauses:
            # new variables register in ascending order, as they first appear
            for var in sorted(abs(lit) for lit in c):
                if not tree.is_registered(var):
                    tree.register_variable(var)
            tree.eliminate(c)
            stats.clauses_processed += 1
            if cfg.trace is not None:
                cfg.trace(c, tree)
            if not tree.frontier:
                return finish(UNSAT, tree=tree)
    except BudgetExceeded as exc:
        stats.exceeded = exc.kind
        return finish(RESOURCE_EXCEEDED, tree=tree)

    entries = tree.frontier if cfg.report_all_models else tree.frontier[:1]
    return finish(SAT, tree, tree.insertion_order, entries)
