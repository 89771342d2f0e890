"""Instance generators: random k-SAT, pigeonhole, the guaranteed-SAT
complete-formula-minus-one-power-set family, and disjoint pairs."""

from __future__ import annotations

import random
from itertools import filterfalse

from .core import Clauses, Formula

# the families ``bench.run_family`` builds
FAMILIES = ("random3sat", "pigeonhole", "complete-minus-one", "disjoint-pairs")


def random_3sat(n: int, m: int, rng: random.Random) -> Formula:
    """``m`` clauses of 3 distinct variables with random polarities."""
    if n < 3:
        raise ValueError("random 3-SAT needs at least 3 variables")
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return Formula.from_clauses(clauses)


def pigeonhole(k: int) -> Formula:
    """PHP(k+1, k): k+1 pigeons into k holes; unsatisfiable for k >= 1.

    Variable (p, h) -> (p-1)*k + h says pigeon p sits in hole h.
    """
    if k < 1:
        raise ValueError("need at least one hole")

    def var(p: int, h: int) -> int:
        return (p - 1) * k + h

    clauses = []
    for p in range(1, k + 2):
        clauses.append([var(p, h) for h in range(1, k + 1)])
    for h in range(1, k + 1):
        for p in range(1, k + 2):
            for q in range(p + 1, k + 2):
                clauses.append([-var(p, h), -var(q, h)])
    return Formula.from_clauses(clauses)


def complete_minus_one(n: int) -> Formula:
    """The complete formula over n variables minus the power set of the
    all-positive fully populated clause {1, ..., n}; satisfiable exactly by the
    all-false assignment, which falsifies that clause.  Has 3^n - 2^n clauses,
    which iterate in the complete formula's build order."""
    # imported here, so that importing the generators does not load the oracle
    from .oracle import complete_clauses, power_set

    v = frozenset(range(1, n + 1))
    remaining = Clauses(filterfalse(power_set(v).__contains__, complete_clauses(v)))
    return Formula(clauses=remaining, original_count=len(remaining))


def disjoint_pairs(k: int) -> Formula:
    """The k clauses (x_{2i-1} or x_{2i}), i = 1..k: satisfiable, with 3^k
    models over its 2k variables."""
    return Formula.from_clauses([[2 * i - 1, 2 * i] for i in range(1, k + 1)])
