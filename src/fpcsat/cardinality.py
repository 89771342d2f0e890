"""Clause counts per literal and variable, plus the preprocessing bounds and
forced-literal rules derived from them.  ``preprocess`` reports the forced
literals; nothing applies them, because on the study's families they fire
only where the frontier stays tiny anyway.

``profile`` and ``preprocess`` take their counts for all variables from one
linear sweep over the clauses (``literal_counts``).  The paper's integer
counting function is kept as the cross-check those counts are tested
against: it replaces each clause (a disjunction) by a product of 0/1
indicators, one per literal, and the formula (a conjunction) by the sum of
those products.  With all indicators at 1 it counts clauses; zeroing one
polarity's indicator makes exactly the clauses containing that literal
vanish, which turns differences of evaluations into per-literal counts
(``eval_f``, ``count_*``).  Direct clause scans (``scan_count_*``) are a
second, independent route.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import NamedTuple

from .core import (
    Clause,
    Formula,
    is_tautology,
    variables_of,
)


class IndicatorVectors(NamedTuple):
    """0/1 indicator per variable for the positive (x) and negative (xc)
    literal.  Only 0/1 entries are meaningful to the counting algorithms."""

    x: dict[int, int]
    xc: dict[int, int]

    @staticmethod
    def ones(variables) -> "IndicatorVectors":
        return IndicatorVectors(x={v: 1 for v in variables}, xc={v: 1 for v in variables})


def eval_f(f: Formula, vectors: IndicatorVectors) -> int:
    """Sum over clauses of the product of their literals' indicators.

    The empty clause contributes an empty product, i.e. 1.
    """
    total = 0
    for c in f.clauses:
        term = 1
        for lit in c:
            v = abs(lit)
            try:
                term *= vectors.x[v] if lit > 0 else vectors.xc[v]
            except KeyError:
                raise KeyError(f"indicator vectors do not cover variable {v}") from None
            if term == 0:
                break
        total += term
    return total


def total_clauses(f: Formula) -> int:
    """Evaluate with all indicators at 1: every product is 1, so the sum is
    the clause count."""
    return eval_f(f, IndicatorVectors.ones(variables_of(f)))


def _count_zeroed(f: Formula, i: int, *indicators: str) -> int:
    """Clauses that vanish when variable ``i``'s entries in the named
    indicator vectors (``x``, ``xc``) are zeroed: the total minus the
    evaluation with them at 0."""
    variables = variables_of(f)
    if i not in variables:
        return 0
    t = total_clauses(f)
    vectors = IndicatorVectors.ones(variables)
    for name in indicators:
        getattr(vectors, name)[i] = 0
    return t - eval_f(f, vectors)


def count_pos(f: Formula, i: int) -> int:
    """Number of clauses containing the positive literal of variable ``i``."""
    return _count_zeroed(f, i, "x")


def count_neg(f: Formula, i: int) -> int:
    """Number of clauses containing the negative literal of variable ``i``."""
    return _count_zeroed(f, i, "xc")


def count_either(f: Formula, i: int) -> int:
    """Number of clauses containing variable ``i`` in either polarity."""
    return _count_zeroed(f, i, "x", "xc")


# direct scans: the independent route used to validate the function-based counts

def scan_count_pos(f: Formula, i: int) -> int:
    return sum(1 for c in f.clauses if i in c)


def scan_count_neg(f: Formula, i: int) -> int:
    return sum(1 for c in f.clauses if -i in c)


def scan_count_either(f: Formula, i: int) -> int:
    return sum(1 for c in f.clauses if i in c or -i in c)


def check_tautology_clauses(f: Formula) -> bool:
    """True iff some clause holds a complemented pair: a clause counts once
    in the either-polarity total but twice across the per-polarity totals."""
    for i in sorted(variables_of(f)):
        if count_pos(f, i) + count_neg(f, i) > count_either(f, i):
            return True
    return False


class VariableCounts(NamedTuple):
    n_pos: int
    n_neg: int
    n_either: int


class CardinalityProfile(NamedTuple):
    total: int
    n: int
    n_effective: int
    per_variable: dict[int, VariableCounts]


def literal_counts(f: Formula) -> tuple[Counter, Counter, list[Clause]]:
    """For all variables at once, in time linear in the formula's size: the
    number of clauses holding each literal, the number holding each variable
    in either polarity, and the tautologies."""
    literals = Counter(chain.from_iterable(f.clauses))
    tautologies = list(filter(is_tautology, f.clauses))
    either = Counter({abs(lit): literals[lit] + literals[-lit] for lit in literals})
    # a tautology holding both literals of a variable counts once for it
    for c in tautologies:
        either.subtract(lit for lit in c if lit > 0 and -lit in c)
    return literals, either, tautologies


def profile(f: Formula) -> CardinalityProfile:
    literals, either, tautologies = literal_counts(f)
    per = {i: VariableCounts(literals[i], literals[-i], either[i]) for i in sorted(either)}
    return CardinalityProfile(
        total=len(f.clauses),
        n=len(per),
        n_effective=len(f.clauses) - len(tautologies),
        per_variable=per,
    )


class PreprocessReport(NamedTuple):
    n: int
    effective_count: int
    has_tautology: bool
    effective_bound: int | None  # 3^n - 2^n, only when tautology-free
    general_bound: int  # 2^(2n) - 2^n
    unsat_by_total_bound: bool
    unsat_by_general_bound: bool
    unsat_by_variable_bound: tuple[int, ...]
    forced_literals: tuple[tuple[int, bool], ...]  # (variable, forced value)

    @property
    def proves_unsat(self) -> bool:
        return (
            self.unsat_by_total_bound
            or self.unsat_by_general_bound
            or bool(self.unsat_by_variable_bound)
        )


def preprocess(f: Formula) -> PreprocessReport:
    """Apply the counting bounds to a normalized formula.

    A satisfiable formula leaves the power set of some fully populated
    clause untouched, so its size and per-literal counts cannot exceed the
    complete formula's minus that power set's.  Exceeding the total bound or
    both polarities' bound for one variable therefore proves UNSAT; exceeding
    it for only one polarity forces the other in every solution.  The
    3^n - 2^n bound presumes a tautology-free formula and is only applied
    after confirming that; the 2^(2n) - 2^n bound holds for any CNF.
    """
    literals, either, tautologies = literal_counts(f)
    # per-literal counts over the effective (non-tautology) clauses
    literals.subtract(chain.from_iterable(tautologies))
    variables = sorted(either)
    n = len(variables)
    effective_count = len(f.clauses) - len(tautologies)
    has_tautology = bool(tautologies)

    general_bound = (1 << (2 * n)) - (1 << n)
    unsat_by_general = len(f.clauses) > general_bound

    effective_bound: int | None = None
    unsat_by_total = False
    if not has_tautology:
        effective_bound = 3**n - 2**n
        unsat_by_total = effective_count > effective_bound

    var_bound = 3 ** (n - 1) - 2 ** (n - 1) if n >= 1 else 0
    unsat_vars = []
    forced = []
    for i in variables:
        pos = literals[i]
        neg = literals[-i]
        if min(pos, neg) > var_bound:
            unsat_vars.append(i)
        elif pos <= var_bound < neg:
            forced.append((i, False))
        elif neg <= var_bound < pos:
            forced.append((i, True))

    return PreprocessReport(
        n=n,
        effective_count=effective_count,
        has_tautology=has_tautology,
        effective_bound=effective_bound,
        general_bound=general_bound,
        unsat_by_total_bound=unsat_by_total,
        unsat_by_general_bound=unsat_by_general,
        unsat_by_variable_bound=tuple(unsat_vars),
        forced_literals=tuple(forced),
    )

