import random
from contextlib import contextmanager

from hypothesis import strategies as st

from fpcsat.core import Formula, effective_clauses, literal_key, normalize
from fpcsat.instances import complete_minus_one
from fpcsat.solver import ORDERS, RESOURCE_EXCEEDED, SAT, UNSAT
from fpcsat.tree import BudgetExceeded, FpcTree


def clause_key(c):
    """The order ``write_dimacs`` writes clauses in: ascending cardinality,
    then the sorted ``literal_key``s; ``test_ordering`` checks it against
    the (variable, sign) tuple key it replaced."""
    return (len(c), tuple(sorted(map(literal_key, c))))


def literals(max_var: int = 8):
    return st.builds(lambda v, neg: -v if neg else v, st.integers(1, max_var), st.booleans())


def clauses(max_var: int = 8, max_size: int = 5):
    return st.frozensets(literals(max_var), max_size=max_size)


def non_tautologies(max_var: int = 8, max_size: int = 5):
    """Clauses with each variable in one polarity: ``FpcTree``'s input."""
    return st.dictionaries(st.integers(1, max_var), st.booleans(), max_size=max_size).map(
        lambda signs: frozenset(-v if neg else v for v, neg in signs.items())
    )


def variable_sets(max_var: int = 8, min_size: int = 0, max_size: int = 6):
    return st.frozensets(st.integers(1, max_var), min_size=min_size, max_size=max_size)


def formulas(max_var: int = 6, max_clauses: int = 10, max_size: int = 4):
    return st.lists(
        st.lists(literals(max_var), max_size=max_size), max_size=max_clauses
    ).map(Formula.from_clauses)


@st.composite
def assignments_over(draw, varset_strategy):
    v = draw(varset_strategy)
    values = draw(
        st.fixed_dictionaries({var: st.booleans() for var in sorted(v)})
    )
    return frozenset(v), values


def random_formula(
    rng: random.Random,
    n: int,
    m: int,
    max_len: int = 3,
    tautology_prob: float = 0.0,
    empty_clause_prob: float = 0.0,
    duplicate_prob: float = 0.0,
) -> Formula:
    """Small mixed-length corpus generator for cross-checking runs.

    Optional knobs inject tautology clauses, the empty clause, and duplicate
    clauses so normalization paths get exercised too.
    """
    clauses: list[list[int]] = []
    for _ in range(m):
        if clauses and rng.random() < duplicate_prob:
            clauses.append(list(rng.choice(clauses)))
            continue
        if rng.random() < empty_clause_prob:
            clauses.append([])
            continue
        size = rng.randint(1, max(1, min(max_len, n)))
        variables = rng.sample(range(1, n + 1), size)
        lits = [v if rng.random() < 0.5 else -v for v in variables]
        if rng.random() < tautology_prob:
            lits.append(-lits[0])
        clauses.append(lits)
    return Formula.from_clauses(clauses)


def corpus(seed: int, count: int, n_max: int = 12, m_factor: int = 4,
           max_len: int = 3, tautology_prob: float = 0.05,
           empty_clause_prob: float = 0.01, duplicate_prob: float = 0.05):
    """Seeded stream of random formulas for cross-check runs."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, n_max)
        m = rng.randint(1, m_factor * n)
        yield random_formula(
            rng, n, m,
            max_len=max_len,
            tautology_prob=tautology_prob,
            empty_clause_prob=empty_clause_prob,
            duplicate_prob=duplicate_prob,
        )


@contextmanager
def eliminate_hook(hook):
    """Within the block, call ``hook(tree, c)`` on each clause as
    ``FpcTree.eliminate`` takes it, in order, before the clause registers any
    variable.  A solve that closes the frontier may have taken clauses past
    the one that closed it."""
    original = FpcTree.eliminate

    def eliminate(tree, clauses):
        def taken():
            for c in clauses:
                hook(tree, c)
                yield c

        return original(tree, taken())

    FpcTree.eliminate = eliminate
    try:
        yield
    finally:
        FpcTree.eliminate = original


def reference_check_sat(f, cfg):
    """check_sat as one frontier pass per clause: register the clause's new
    variables, eliminate it alone, stop when the frontier closes."""
    report = normalize(f)
    tree = FpcTree(node_budget=cfg.node_budget, work_limit=cfg.work_budget)
    if report.has_empty_clause:
        return UNSAT, [], [], 0, 0, 0, 0
    class_key, order_key = ORDERS[cfg.order]
    clauses = sorted(effective_clauses(f), key=lambda c: (class_key(c), order_key(c)))
    verdict, processed = SAT, 0
    try:
        for c in clauses:
            for var in sorted(abs(lit) for lit in c):
                if var not in tree.literals:
                    tree.register_variable(var)
            tree.eliminate([c])
            processed += 1
            if not tree.frontier:
                verdict = UNSAT
                break
    except BudgetExceeded:
        verdict = RESOURCE_EXCEEDED
    entries = tree.frontier if verdict == SAT else []
    order = tree.insertion_order if verdict == SAT else []
    return (verdict, order, entries, tree.peak_nodes, tree.eliminations, processed, tree.work)


def dpll_satisfiable(f):
    """Satisfiability by a plain DPLL search with unit propagation: a
    reference verdict well past the truth-table oracle's 20 variables."""

    def assign(clauses, lit):
        return [c - {-lit} for c in clauses if lit not in c]

    def search(clauses):
        while True:
            if not clauses:
                return True
            if frozenset() in clauses:
                return False
            unit = next((c for c in clauses if len(c) == 1), None)
            if unit is None:
                break
            clauses = assign(clauses, next(iter(unit)))
        lit = max(min(clauses, key=len), key=abs)
        return search(assign(clauses, lit)) or search(assign(clauses, -lit))

    return search(list(f.clauses))


def closing_in_each_class(n):
    """complete_minus_one(n) plus one clause <= {1..n}, a subset of its one
    surviving FPC, of each cardinality: each closes in its extra clause's class."""
    f = complete_minus_one(n)
    for size in range(1, n + 1):
        yield Formula(f.clauses | {frozenset(range(n - size + 1, n + 1))}, len(f.clauses) + 1)


def unit_pinned(seed, count):
    """Formulas whose unit clauses pin every variable, followed by longer
    clauses: one FPC survives the first class."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 9)
        units = [[-v if rng.random() < 0.5 else v] for v in range(1, n + 1)]
        longer = [
            [-v if rng.random() < 0.5 else v for v in rng.sample(range(1, n + 1), rng.randint(2, n))]
            for _ in range(rng.randint(1, 6 * n))
        ]
        yield Formula.from_clauses(units + longer)
