"""Core CNF vocabulary: literals, clauses, formulas, assignments.

Literals are nonzero ints in the DIMACS convention: ``v`` is the positive
literal of variable ``v`` (v >= 1), ``-v`` its negation.  A clause is a
frozenset of literals (disjunction; the empty clause is always false) and a
formula is a deduplicated frozenset of clauses (conjunction; the empty
formula is always true).  Large clause sets are ``Clauses``, which iterate
in build order; no result may depend on the order a clause set iterates in.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from itertools import filterfalse
from operator import neg
from typing import Iterable, Iterator, Mapping, NamedTuple

Literal = int
Clause = frozenset[int]
VariableSet = frozenset[int]
Assignment = Mapping[int, bool]

EMPTY_CLAUSE: Clause = frozenset()


class TautologyError(ValueError):
    """Raised when an operation defined only for non-tautology clauses gets one."""


class UnassignedVariableError(KeyError):
    """Raised when an evaluation touches a variable the assignment omits."""


def clause(lits: Iterable[int]) -> Clause:
    c = frozenset(lits)
    if 0 in c:
        raise ValueError("0 is not a literal")
    return c


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector while a block, or each call of a
    function it decorates, runs; it resumes on exit, exceptions included, if
    it ran before.  Clauses hold only ints and form no cycles, so a collection
    while clause sets are built only rescans them.

    On exit the young generations, and so every object the block made, are
    handed to the oldest generation unscanned (``gc.freeze()`` then
    ``gc.unfreeze()``, two list splices), so the first young collection
    after the block does not rescan them; the next full collection still
    sees them.  The handoff is skipped if objects were frozen on entry, since
    ``gc.unfreeze()`` would thaw them too.  So it never happens on CPython
    3.12, which starts with 375 objects frozen (``gc.get_freeze_count()``,
    also under ``-S``); 3.10, 3.11 and 3.13 start with none."""
    enabled = gc.isenabled()
    frozen = gc.get_freeze_count()
    gc.disable()
    try:
        yield
    finally:
        if not frozen:
            gc.freeze()
            gc.unfreeze()
        if enabled:
            gc.enable()


def literal_key(lit: Literal) -> int:
    """Sort key: by variable, positive polarity first (``2*var``, plus 1 if
    negative)."""
    return 2 * abs(lit) + (lit < 0)


def canonical_literals(c: Clause) -> tuple[Literal, ...]:
    """The clause's literals by variable, positive polarity first."""
    # the stable sort by variable keeps the descending sort's ``v`` before ``-v``
    return tuple(sorted(sorted(c, reverse=True), key=abs))


def elimination_order_key(c: Clause) -> tuple[int, int, tuple[int, ...]]:
    """Clause processing order for the solver: ascending cardinality, then by
    the clause's largest variable, then lexicographic.

    The max-variable tie-break makes every clause eliminate as soon as its
    last variable registers; deferring a clause past the registration of
    unrelated variables doubles, per variable, the FPCs it has yet to drop.
    """
    keys = tuple(sorted(map(literal_key, c)))
    return (len(keys), keys[-1] >> 1 if keys else 0, keys)


class Clauses(frozenset):
    """A frozenset of clauses that iterates in the order of first occurrence
    in its input; equality, hashing and set operations, which return plain
    frozensets, are a frozenset's.

    Passes over a large clause set then read its clauses in the order they
    were allocated, mostly in sequence in memory, not in hash order, which
    jumps at random through them."""

    __slots__ = ("_order",)

    def __new__(cls, clauses: Iterable[Clause] = ()) -> "Clauses":
        order = tuple(clauses)
        self = super().__new__(cls, order)
        # only an input with duplicates pays for the dict that drops them
        self._order = order if len(self) == len(order) else tuple(dict.fromkeys(order))
        return self

    def __iter__(self) -> Iterator[Clause]:
        return iter(self._order)

    def __reduce__(self):
        # frozenset's own __reduce__ drops the slot on CPython 3.10
        return type(self), (self._order,)


class Formula(NamedTuple):
    """A CNF formula with set semantics; immutable, equal and hashed by value.

    ``original_count`` remembers how many clauses were supplied before
    deduplication, so normalization can report what it dropped.
    """

    clauses: frozenset[Clause]
    original_count: int

    @staticmethod
    def from_clauses(cs: Iterable[Iterable[int]]) -> "Formula":
        """A formula with a plain frozenset of clauses, for small formulas."""
        seen = [clause(c) for c in cs]
        return Formula(clauses=frozenset(seen), original_count=len(seen))


def is_tautology(c: Clause) -> bool:
    """True iff the clause contains some variable in both polarities."""
    return not c.isdisjoint(map(neg, c))


def variables_of(f: Formula) -> VariableSet:
    """The minimal variable set the formula ranges over (occurring variables)."""
    # the union of the clauses' tables, in C, then abs of each distinct literal
    return frozenset(map(abs, set().union(*f.clauses)))


def evaluate_clause(c: Clause, a: Assignment) -> bool:
    """Disjunction of the clause's literals; the empty clause is false."""
    for lit in c:
        if abs(lit) not in a:
            raise UnassignedVariableError(abs(lit))
    return any(a[abs(lit)] == (lit > 0) for lit in c)


def evaluate_formula(f: Formula, a: Assignment) -> bool:
    """Conjunction of clause values; the empty formula is true."""
    missing = [v for v in variables_of(f) if v not in a]
    if missing:
        raise UnassignedVariableError(min(missing))
    return all(evaluate_clause(c, a) for c in f.clauses)


def is_fully_populated(c: Clause, v: VariableSet) -> bool:
    """True iff ``c`` holds every variable of ``v`` in exactly one polarity and
    nothing else.  Defined only for non-tautology clauses."""
    if is_tautology(c):
        raise TautologyError(f"fully populated is undefined for tautologies: {sorted(c)}")
    return len(c) == len(v) and all(abs(lit) in v for lit in c)


def are_siblings(a: Clause, b: Clause, v: VariableSet) -> bool:
    """Two unequal fully populated clauses over the same variable set."""
    if is_tautology(a) or is_tautology(b):
        return False
    if not (is_fully_populated(a, v) and is_fully_populated(b, v)):
        return False
    return any(-lit in b for lit in a)


class NormalizeReport(NamedTuple):
    duplicates_removed: int
    has_empty_clause: bool


def normalize(f: Formula) -> NormalizeReport:
    """Report the structural facts of a formula (already deduplicated by
    Formula): the duplicates dropped and the presence of the empty clause,
    which decides everything.  ``effective_clauses`` drops the tautologies.
    """
    return NormalizeReport(
        duplicates_removed=f.original_count - len(f.clauses),
        has_empty_clause=EMPTY_CLAUSE in f.clauses,
    )


def effective_clauses(f: Formula) -> list[Clause]:
    """The non-tautology clauses of ``f``, in the order ``f.clauses``
    iterates in; callers sort them once.  A tautology is a subset of no
    fully populated clause, so it eliminates nothing, and this is the one
    place a solve drops it."""
    return list(filterfalse(is_tautology, f.clauses))
