"""The integer ordering keys sort clauses exactly as the (variable, sign)
tuple keys they replaced, which are kept here as the reference."""

from unittest.mock import patch

from hypothesis import example, given
from hypothesis import strategies as st

from conftest import clause_key, clauses, corpus, eliminate_hook, literals, reference_check_sat
from fpcsat import solver
from fpcsat.core import (
    Formula,
    canonical_literals,
    effective_clauses,
    elimination_order_key,
    is_tautology,
    literal_key,
)
from fpcsat.instances import complete_minus_one
from fpcsat.solver import ORDERS, SolveConfig, check_sat


def reference_literal_key(lit):
    return (abs(lit), 0 if lit > 0 else 1)


def reference_canonical_literals(c):
    return tuple(sorted(c, key=reference_literal_key))


def reference_clause_key(c):
    return (len(c), tuple(reference_literal_key(lit) for lit in reference_canonical_literals(c)))


def reference_elimination_order_key(c):
    return (
        len(c),
        max((abs(lit) for lit in c), default=0),
        tuple(reference_literal_key(lit) for lit in reference_canonical_literals(c)),
    )


tautologies = st.builds(
    lambda c, v: c | {v, -v}, clauses(max_var=7, max_size=4), st.integers(1, 7)
)
any_clause = st.one_of(clauses(max_var=7, max_size=6), tautologies, st.just(frozenset()))
clause_lists = st.lists(any_clause, max_size=30)


@given(literals(max_var=20), literals(max_var=20))
def test_literal_key_is_order_isomorphic(a, b):
    old_a, old_b = reference_literal_key(a), reference_literal_key(b)
    assert (literal_key(a) < literal_key(b)) == (old_a < old_b)
    assert (literal_key(a) == literal_key(b)) == (old_a == old_b)


@given(any_clause)
def test_canonical_literals_unchanged(c):
    assert canonical_literals(c) == reference_canonical_literals(c)


@given(clause_lists)
def test_clause_orders_unchanged(cs):
    assert sorted(cs, key=clause_key) == sorted(cs, key=reference_clause_key)
    assert sorted(cs, key=elimination_order_key) == sorted(
        cs, key=reference_elimination_order_key
    )
    assert sorted(cs, key=canonical_literals) == sorted(cs, key=reference_canonical_literals)


def fs(*lits):
    return frozenset(lits)


@given(clause_lists)
# the units pin 1..3 and leave one FPC, which no clause of size 3 is a subset
# of: the class of size 3 is never handed over
@example([fs(-1), fs(-2), fs(-3), fs(-1, -2), fs(2, -3), fs(-1, 2, 3), fs(1, -2, 3),
          fs(1, 2, -3), fs(-1, -2, 3), fs(-1, 2, -3), fs(1, -2, -3), fs(-1, -2, -3)])
def test_check_sat_processes_clauses_in_reference_order(cs):
    # the empty clause decides the verdict before any ordering
    f = Formula.from_clauses([c for c in cs if c])
    effective = [c for c in f.clauses if not is_tautology(c)]
    for order, key in (
        ("cardinality", reference_elimination_order_key),
        ("lex", reference_canonical_literals),
    ):
        cfg = SolveConfig(order=order)
        seen = []
        with eliminate_hook(lambda tree, c: seen.append(c)):
            result = check_sat(f, cfg)
        expected = sorted(effective, key=key)
        s = result.stats
        verdict, order, entries, peak, eliminations, processed, work = reference_check_sat(f, cfg)
        assert (result.verdict, list(result.order), list(result.entries)) == (
            verdict, order, entries[:1]
        )
        assert (s.peak_nodes, s.eliminations, s.clauses_processed) == (peak, eliminations, processed)
        assert s.work <= work  # below it where a pass shares clauses
        # handed every clause in the full order, check_sat scans as much
        presorted = lambda f: sorted(effective_clauses(f), key=key)
        with patch.object(solver, "effective_clauses", presorted):
            full = check_sat(f, cfg)
        assert full[:3] == result[:3]
        assert full.stats._replace(elapsed_time=0) == s._replace(elapsed_time=0)
        # a SAT solve may stop handing clauses over at a class boundary where
        # one FPC survives that no clause left is a subset of, and a closing
        # run may have taken clauses past the one that closed it
        assert seen == expected[: len(seen)]
        if result.verdict != "SAT":
            assert len(seen) >= s.clauses_processed


def test_every_order_is_total_on_effective_clauses():
    # no two distinct clauses share an order's pair of keys, so the order a
    # solve takes its clauses in never hinges on ties
    formulas = [*corpus(seed=61, count=200, n_max=10, max_len=5), complete_minus_one(4)]
    distinct = {c for f in formulas for c in effective_clauses(f)}
    for name, (class_key, order_key) in ORDERS.items():
        assert len({(class_key(c), order_key(c)) for c in distinct}) == len(distinct), name
