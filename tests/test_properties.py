"""Property tests for the structural clause theorems the solver rests on.

Acceptance criterion c6 (``tests/test_acceptance.py``) checks four lemmas
on 1,000 random cases each: a false clause forces its subsets false, every
sibling of a falsified FPC is true, each assignment falsifies exactly one
FPC, and tautologies change no verdict under the default clause order.
This file checks the sibling relation's symmetry, the truth of tautologies
exhaustively over six variables, the exactly-one lemma exhaustively at n = 0
and n = 10, and that a tautology changes no verdict under every clause
order."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from fpcsat.core import Formula, are_siblings, evaluate_clause, is_tautology
from fpcsat.oracle import enumerate_fpcs, falsified_fpc
from fpcsat.solver import ORDERS, SolveConfig, check_sat

PROPERTY = settings(max_examples=1000, deadline=None, derandomize=True)


def test_exactly_one_falsified_fpc_exhaustive_n10():
    # every assignment over ten variables, and the empty one, whose only FPC
    # is the empty clause, falsifies exactly the FPC falsified_fpc names
    for n in (0, 10):
        variables = range(1, n + 1)
        fpcs = enumerate_fpcs(frozenset(variables))
        for values in itertools.product((False, True), repeat=n):
            a = dict(zip(variables, values))
            assert [c for c in fpcs if not evaluate_clause(c, a)] == [falsified_fpc(a)]


def subsets(items):
    return itertools.chain.from_iterable(
        itertools.combinations(items, k) for k in range(len(items) + 1)
    )


def test_tautology_clause_true_under_all_assignments():
    # every nonempty subset of {1..6}, every pivot in it and every set of
    # extra positive literals from it, under every assignment
    for variables in subsets(range(1, 7)):
        assignments = [
            dict(zip(variables, values))
            for values in itertools.product((False, True), repeat=len(variables))
        ]
        for pivot, extra in itertools.product(variables, subsets(variables)):
            c = frozenset({pivot, -pivot, *extra})
            assert is_tautology(c)
            assert all(evaluate_clause(c, a) for a in assignments)


@PROPERTY
@given(st.data())
def test_sibling_relation_symmetric_irreflexive(data):
    n = data.draw(st.integers(1, 6))
    v = frozenset(range(1, n + 1))
    fpcs = enumerate_fpcs(v)
    a = data.draw(st.sampled_from(fpcs))
    b = data.draw(st.sampled_from(fpcs))
    assert not are_siblings(a, a, v)
    assert are_siblings(a, b, v) == are_siblings(b, a, v)
    assert are_siblings(a, b, v) == (a != b)


@PROPERTY
@given(
    st.lists(
        st.lists(
            st.builds(lambda v, neg: -v if neg else v, st.integers(1, 6), st.booleans()),
            max_size=4,
        ),
        max_size=8,
    ),
    st.integers(1, 8),
    st.sampled_from(list(ORDERS)),
)
def test_adding_tautology_clause_preserves_verdict(clause_list, var, order):
    base = Formula.from_clauses(clause_list)
    noisy = Formula.from_clauses(clause_list + [[var, -var]])
    cfg = SolveConfig(order=order, report_all_models=True)
    a = check_sat(base, cfg)
    b = check_sat(noisy, cfg)
    assert a.verdict == b.verdict
    assert a.absent_fpcs == b.absent_fpcs
