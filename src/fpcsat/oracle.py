"""Brute-force ground truth: truth-table SAT, FPC enumeration, the paper's
satisfiability condition, and complete-formula generation.

Everything here is deliberately independent of the elimination solver so the
two can cross-check each other.  Truth tables are evaluated as big-integer
bit columns (one bit per assignment), in chunks of at most 2^16 assignments
that share the values of every variable past the lowest 16, so that a
verdict stops at the first chunk that holds a model; the condition is
checked with plain subset tests between FPCs and clauses.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, NamedTuple

from .core import Clause, Clauses, Formula, VariableSet, gc_paused, variables_of


class VariableLimitError(ValueError):
    """A brute-force operation was asked to scale past its hard limit."""


def _check_limit(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise VariableLimitError(f"{what}: {n} variables exceeds limit {limit}")


@lru_cache(maxsize=None)
def _columns(n: int) -> tuple[int, ...]:
    """Bit column per variable slot: bit a of column j is (a >> j) & 1."""
    cols = []
    total = 1 << n
    for j in range(n):
        col = ((1 << (1 << j)) - 1) << (1 << j)  # 2^j zeros then 2^j ones
        width = 1 << (j + 1)
        while width < total:
            col |= col << width
            width <<= 1
        cols.append(col)
    return tuple(cols)


# a chunk covers the assignments of the lowest CHUNK_VARS variables, so each
# of its columns is at most 2^16 bits (8 KiB) however many variables there are
CHUNK_VARS = 16


def _model_chunks(f: Formula, ordered_vars: list[int]) -> Iterator[tuple[int, int]]:
    """(first assignment, model column) of each chunk that holds a model, in
    ascending order of assignment.  A chunk fixes every variable past the
    lowest ``w``, so their literals are all-ones or all-zero columns in it."""
    n = len(ordered_vars)
    w = min(n, CHUNK_VARS)
    full = (1 << (1 << w)) - 1
    column = {}
    for v, col in zip(ordered_vars, _columns(w)):
        column[v], column[-v] = col, full ^ col
    for high in range(1 << (n - w)):
        for j, v in enumerate(ordered_vars[w:]):
            col = full if (high >> j) & 1 else 0
            column[v], column[-v] = col, full ^ col
        result = full
        for c in f.clauses:
            col = 0
            for lit in c:
                col |= column[lit]
            result &= col
            if not result:
                break
        else:
            yield high << w, result


class OracleResult(NamedTuple):
    satisfiable: bool
    models: tuple[dict[int, bool], ...]

    @property
    def falsified_fpc_per_model(self) -> tuple[Clause, ...]:
        return tuple(map(falsified_fpc, self.models))


def falsified_fpc(model: dict[int, bool]) -> Clause:
    """The unique fully populated clause every literal of which is false
    under the given total assignment."""
    return frozenset(-v if value else v for v, value in model.items())


def _variables(f: Formula, variables: VariableSet | None) -> VariableSet:
    """The formula's own variables, or the explicit set once it is checked to
    cover them."""
    if variables is None:
        return variables_of(f)
    varset = frozenset(variables)
    if not varset >= variables_of(f):
        raise ValueError("explicit variable set must cover the formula's variables")
    return varset


def brute_force_sat(
    f: Formula,
    limit_vars: int = 20,
    collect_models: bool = True,
    variables: VariableSet | None = None,
) -> OracleResult:
    """Evaluate ``f`` under all 2^n total assignments over its variables.

    Models come in ascending order of the assignment read as a binary number
    whose bit j is the value of the j-th smallest variable.
    ``collect_models=False`` skips materializing the (possibly exponential)
    model list and stops at the first chunk that holds a model; the verdict
    is unaffected.
    """
    ordered = sorted(_variables(f, variables))
    _check_limit(len(ordered), limit_vars, "brute_force_sat")
    chunks = _model_chunks(f, ordered)
    if not collect_models:
        return OracleResult(satisfiable=next(chunks, None) is not None, models=())
    models = []
    for base, rest in chunks:
        while rest:
            low = rest & -rest
            a = base + low.bit_length() - 1
            rest ^= low
            models.append({v: bool((a >> j) & 1) for j, v in enumerate(ordered)})
    return OracleResult(satisfiable=bool(models), models=tuple(models))


def enumerate_fpcs(v: VariableSet) -> list[Clause]:
    """All 2^n fully populated clauses over ``v``; over the empty set the
    single FPC is the empty clause.  Positive polarity enumerates first."""
    ordered = sorted(v)
    _check_limit(len(ordered), 20, "enumerate_fpcs")
    out = []
    for signs in itertools.product((1, -1), repeat=len(ordered)):
        out.append(frozenset(s * var for s, var in zip(signs, ordered)))
    return out


def power_set(c: Clause) -> set[Clause]:
    """Every subset of a clause, the empty clause included."""
    lits = sorted(c)
    out = set()
    for r in range(len(lits) + 1):
        for combo in itertools.combinations(lits, r):
            out.add(frozenset(combo))
    return out


def condition_check(f: Formula, variables: VariableSet | None = None) -> list[Clause]:
    """The paper's condition: the fully populated clauses over the formula's
    variables, in ``enumerate_fpcs`` order, none of whose subsets is a clause
    of the formula.  The formula is satisfiable exactly when the list is not
    empty.  A tautology clause is a subset of no FPC, so it drops none."""
    return [
        fpc for fpc in enumerate_fpcs(_variables(f, variables))
        if not any(map(fpc.issuperset, f.clauses))
    ]


@gc_paused()
def complete_clauses(v: VariableSet) -> list[Clause]:
    """All 3^n non-tautology clauses over ``v``, the empty clause included,
    in build order: each variable in turn adds either literal, or neither,
    to every clause."""
    ordered = sorted(v)
    _check_limit(len(ordered), 12, "complete_formula")
    clauses: list[Clause] = [frozenset()]
    for var in ordered:
        pos, neg = frozenset([var]), frozenset([-var])
        clauses += [*map(pos.__or__, clauses), *map(neg.__or__, clauses)]
    return clauses


def complete_formula(v: VariableSet) -> Formula:
    """The formula of ``complete_clauses(v)``, iterating in their build order."""
    clauses = complete_clauses(v)
    return Formula(clauses=Clauses(clauses), original_count=len(clauses))
