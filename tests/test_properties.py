"""Property tests for the structural clause theorems the solver rests on."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from fpcsat.core import (
    Formula,
    are_siblings,
    evaluate_clause,
    is_tautology,
    variables_of,
)
from fpcsat.oracle import enumerate_fpcs, falsified_fpc
from fpcsat.solver import ORDERS, SolveConfig, check_sat

PROPERTY = settings(max_examples=1000, deadline=None, derandomize=True)


def assignments(min_vars=0, max_vars=8):
    return st.integers(min_vars, max_vars).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))
    ).map(lambda t: {v + 1: bool((t[1] >> v) & 1) for v in range(t[0])})


@PROPERTY
@given(assignments(), st.data())
def test_false_clause_forces_false_subsets(a, data):
    # any clause false under `a` is a subset of the falsified FPC
    false_fpc = falsified_fpc(a)
    c = frozenset(data.draw(st.sets(st.sampled_from(sorted(false_fpc)))) if false_fpc else set())
    d = frozenset(data.draw(st.sets(st.sampled_from(sorted(c)))) if c else set())
    assert not evaluate_clause(c, a)
    assert not evaluate_clause(d, a)


@PROPERTY
@given(assignments(min_vars=1), st.data())
def test_falsified_fpc_siblings_are_true(a, data):
    v = frozenset(a)
    falsified = falsified_fpc(a)
    sibling = data.draw(st.sampled_from(enumerate_fpcs(v)))
    if sibling == falsified:
        assert not evaluate_clause(sibling, a)
    else:
        assert are_siblings(falsified, sibling, v)
        assert evaluate_clause(sibling, a)


@PROPERTY
@given(assignments(min_vars=0, max_vars=8))
def test_every_assignment_falsifies_exactly_one_fpc(a):
    v = frozenset(a)
    falsified = [c for c in enumerate_fpcs(v) if not evaluate_clause(c, a)]
    assert falsified == [falsified_fpc(a)]


def test_exactly_one_falsified_fpc_exhaustive_n10():
    # all 1024 assignments against all 1024 FPCs over ten variables
    n = 10
    full = (1 << n) - 1
    fpcs = [
        sum(1 << j for j, s in enumerate(signs) if s == 1)
        for signs in itertools.product((1, -1), repeat=n)
    ]
    for a in range(1 << n):
        matches = 0
        for pos in fpcs:
            neg = full ^ pos
            # falsified: no positive literal true and no negative literal true
            if (pos & a) == 0 and (neg & (full ^ a)) == 0:
                matches += 1
        assert matches == 1


@PROPERTY
@given(st.frozensets(st.integers(1, 6), min_size=1, max_size=6), st.data())
def test_tautology_clause_true_under_all_assignments(v, data):
    variables = sorted(v)
    pivot = data.draw(st.sampled_from(variables))
    extra = data.draw(st.sets(st.sampled_from(variables)))
    c = frozenset({pivot, -pivot} | {e for e in extra})
    assert is_tautology(c)
    for bits in range(1 << len(variables)):
        a = {var: bool((bits >> j) & 1) for j, var in enumerate(variables)}
        assert evaluate_clause(c, a)


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
