"""The frontier of surviving fully populated clauses, packed as sign vectors.

In the procedure's clause tree, registering a variable splits every OPEN
pointer, so all OPEN pointers sit at the same depth, and each spells a
surviving fully populated clause (FPC) over the registered variables.  The
tree is therefore fully described by that set of FPCs, and this module keeps
only the set: one sorted list of ints.  With ``k`` registered variables, bit
``k-1-i`` of an entry is the sign of the i-th registered variable (1 = the
positive literal), as ``sign_bits`` lays it out for every reader of the
entries.  Before any variable registers, the single entry 0 spells the
empty clause.

Registering a variable maps each entry ``m`` to ``m<<1`` and ``m<<1|1``.
Eliminating a clause drops every entry that agrees with the clause on all of
its variables, i.e. every FPC the clause is a subset of: with ``varmask``
the clause's bits and ``posmask`` its positive ones, every ``m`` with
``m & varmask == posmask``.  Plain ascending int order is the tree's
depth-first order, negative branch first.

``eliminate`` registers each variable as the first clause over it arrives,
so the clauses between two registrations (under the max-variable
tie-break, those whose last variable just registered: a "bucket" of bucket
elimination) share passes.  A pass applies one clause or several with one
filter: their forbidden sign patterns over the union ``u`` of their
variables key a table ``F``, and the pass keeps each ``m`` with
``m & u not in F``.  ``F`` maps each pattern to the first clause that
forbids it, so a pass that closes the frontier reads the closing clause off
the table, with no replay.  The frontier at each registration is the one
clause-by-clause passes leave; only ``work``, the count of entries scanned,
is smaller.

Once one entry survives, the paper's sibling-clause result makes the rest
of the solve a model check, which ``check_sat`` runs; ``charge`` books the
clauses it finds to drop nothing as one-clause passes over that entry.

The entries are also the models: ``check_sat`` hands them and
``insertion_order`` on as they are, and ``dimacs.write_result`` prints them.
``decode_fpcs`` turns them back into clauses, and ``pack`` packs clauses,
such as the oracle's, into them.
"""

from __future__ import annotations

from itertools import repeat
from math import inf
from typing import Iterable

from .core import Clause

NODE_BUDGET = 1 << 24  # default cap on frontier entries, everywhere


class BudgetExceeded(Exception):
    """An operation would cross a budget; ``kind`` is "nodes" or "work"."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


def sign_bits(order: list[int]) -> list[tuple[int, int]]:
    """Each variable of ``order`` with the entry bit that holds its sign."""
    k = len(order)
    return [(var, 1 << (k - 1 - i)) for i, var in enumerate(order)]


def decode_fpcs(order: list[int], entries: list[int]) -> list[Clause]:
    """The FPC each entry spells over the variables ``order`` registered."""
    bits = sign_bits(order)
    return [frozenset(v if m & b else -v for v, b in bits) for m in entries]


def pack(order: list[int], fpcs: Iterable[Clause]) -> list[int]:
    """The entry that spells each FPC over ``order``; inverts ``decode_fpcs``."""
    bits = sign_bits(order)
    return [sum(b for v, b in bits if v in c) for c in fpcs]


class FpcTree:
    """Mutable single-owner frontier; distinct instances are independent.

    ``node_budget`` caps the number of frontier entries (the structure's only
    memory hazard is its 2^n worst case).  ``work`` counts the entries scanned
    by registrations and frontier passes; ``peak_nodes`` is the largest
    frontier size seen, ``eliminations`` the number of FPCs eliminated, and
    ``applied`` the number of clauses applied.  Both budgets are checked
    before a registration or pass mutates anything: a tripped node budget or
    ``work_limit`` raises ``BudgetExceeded`` and leaves the state as it was.
    """

    def __init__(self, node_budget: int = NODE_BUDGET, work_limit: float | None = None):
        if node_budget < 1:
            raise ValueError("node_budget must be >= 1")
        self.frontier: list[int] = [0]
        self.insertion_order: list[int] = []
        self.node_budget = node_budget
        self.peak_nodes = 1
        self.eliminations = 0
        self.applied = 0
        self.work = 0
        self.work_limit = inf if work_limit is None else work_limit
        # both literals of every registered variable
        self.literals: set[int] = set()

    def _scan(self) -> None:
        """Charge one pass over the frontier, before the pass changes it."""
        work = self.work + len(self.frontier)
        if work > self.work_limit:
            raise BudgetExceeded("work")
        self.work = work

    def register_variable(self, var: int) -> None:
        """Extend every surviving FPC by both literals of ``var``, which has
        not registered yet; an empty frontier stays empty.  Raises
        ``BudgetExceeded("nodes")`` when the doubled frontier would overflow
        the node budget."""
        frontier = self.frontier
        if 2 * len(frontier) > self.node_budget:
            raise BudgetExceeded("nodes")
        self._scan()

        doubled = [0] * (2 * len(frontier))
        doubled[0::2] = [m << 1 for m in frontier]
        doubled[1::2] = [(m << 1) | 1 for m in frontier]
        self.frontier = doubled
        self.literals.update((var, -var))
        self.insertion_order.append(var)
        self.peak_nodes = max(self.peak_nodes, len(doubled))

    def eliminate(self, clauses: Iterable[Clause]) -> None:
        """Apply ``clauses``, none of them a tautology, in order, each
        dropping every surviving FPC it is a subset of, and stop at the
        clause that closes the frontier.  A clause over new variables ends
        the pending pass, then registers them in ascending order; a budget
        tripped there leaves the clause unapplied.

        Consecutive clauses share one pass while their forbidden sign
        patterns over the union of their variables number no more than the
        entries in it (counted before overlaps merge), so building the
        patterns costs no more than the pass they save.  Every pass is one
        filter (``_pass``), which also names the closing clause.  The
        frontier, ``eliminations`` and ``applied`` end as they would clause
        by clause.  The empty clause is a subset of every FPC and closes the
        frontier.  A closed frontier applies nothing.
        """
        cap = len(self.frontier)
        if not cap:
            return
        bits = dict(sign_bits(self.insertion_order))
        applied = self.applied
        # the pending pass: its clauses' masks, each with the ``applied``
        # count it ends at, and their sign patterns over ``union``, counted
        # before overlaps merge
        union, size, pending = 0, 0, []
        for c in clauses:
            if not self.literals.issuperset(c):
                if pending and self._pass(union, pending, applied):
                    return
                self.applied, pending = applied, []
                for var in sorted({abs(lit) for lit in c - self.literals}):
                    self.register_variable(var)
                bits = dict(sign_bits(self.insertion_order))
                cap = len(self.frontier)
            applied += 1
            varmask = posmask = 0
            for lit in c:
                bit = bits[abs(lit)]
                varmask |= bit
                if lit > 0:
                    posmask |= bit
            if pending:
                if size < cap:
                    grown = (size << (varmask & ~union).bit_count()) + (
                        1 << (union & ~varmask).bit_count()
                    )
                    if grown <= cap:  # the clause joins the pending pass
                        union |= varmask
                        size = grown
                        pending.append((applied, varmask, posmask))
                        continue
                if self._pass(union, pending, applied - 1):
                    return
                cap = len(self.frontier)
            union, size, pending = varmask, 1, [(applied, varmask, posmask)]
        if pending and self._pass(union, pending, applied):
            return
        self.applied = applied

    def charge(self, count: int) -> None:
        """Apply ``count`` clauses known to drop nothing from a one-entry
        frontier, each charged the one entry, as in a pass of its own.  The
        work budget trips at the clause that would cross it, with ``work``
        and ``applied`` at the clause before."""
        fit = int(min(count, self.work_limit - self.work))
        self.work += fit
        self.applied += fit
        if fit < count:
            raise BudgetExceeded("work")

    def _pass(self, union: int, pending: list[tuple[int, int, int]], applied: int) -> bool:
        """Apply the ``pending`` clauses, whose variables make up ``union``,
        with one filter over the frontier, and return whether it closed.  A
        closed pass ends at the clause that dropped the last entry, read off
        the pattern table; any other ends at the ``applied`` count."""
        self._scan()
        frontier = self.frontier
        # each forbidden pattern, with the ``applied`` count of the first
        # clause that forbids it: earlier clauses overwrite later ones
        forbidden: dict[int, int] = {}
        for n, varmask, posmask in reversed(pending):
            spread = [posmask]  # the clause's sign patterns over union
            free = union & ~varmask
            while free:
                bit = free & -free
                free ^= bit
                spread += [p | bit for p in spread]
            forbidden.update(zip(spread, repeat(n)))
        kept = [m for m in frontier if m & union not in forbidden]
        self.frontier = kept
        self.eliminations += len(frontier) - len(kept)
        if kept:
            self.applied = applied
        else:  # clause by clause, the last entry to go closes the frontier
            self.applied = max(forbidden[m & union] for m in frontier)
        return not kept

    def open_fpcs(self) -> list[Clause]:
        """Surviving FPCs in the tree's depth-first order (the negative
        branch of each variable before the positive one)."""
        return decode_fpcs(self.insertion_order, self.frontier)
