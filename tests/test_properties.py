"""Property tests for the structural clause theorems the solver rests on.

Acceptance criterion c6 (``tests/test_acceptance.py``) checks four lemmas
on 1,000 random cases each: a false clause forces its subsets false, every
sibling of a falsified FPC is true, each assignment falsifies exactly one
FPC, and tautologies change no verdict under the default clause order.
This file checks the sibling relation's symmetry, the truth of tautologies,
the exactly-one lemma exhaustively at n = 10, and that a tautology changes
no verdict under every clause order."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from fpcsat.core import Formula, are_siblings, evaluate_clause, is_tautology
from fpcsat.oracle import enumerate_fpcs
from fpcsat.solver import ORDERS, SolveConfig, check_sat

PROPERTY = settings(max_examples=1000, deadline=None, derandomize=True)


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
