import math
import random
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus, non_tautologies
from fpcsat.core import effective_clauses, normalize, variables_of
from fpcsat.oracle import condition_check
from fpcsat.instances import complete_minus_one, pigeonhole
from fpcsat.solver import SAT, SolveConfig, SolveResult, check_sat
from fpcsat.tree import (
    NODE_BUDGET,
    BudgetExceeded,
    FpcTree,
    decode_fpcs,
    pack,
)


def fs(*lits):
    return frozenset(lits)


def state(t):
    return (t.frontier[:], t.insertion_order[:], t.work, t.peak_nodes, t.eliminations)


def test_fresh_tree():
    t = FpcTree(node_budget=10**6)
    assert t.frontier == [0]
    assert t.peak_nodes == 1
    assert t.frontier
    assert t.open_fpcs() == [frozenset()]
    assert SolveResult(SAT, t.insertion_order, t.frontier).models == [{}]


def test_register_doubles_open_pointers():
    t = FpcTree()
    t.register_variable(1)
    assert t.frontier == [0b0, 0b1]
    t.register_variable(2)
    # bit k-1-i is the sign of the i-th registered variable, 1 = positive
    assert t.frontier == [0b00, 0b01, 0b10, 0b11]
    assert t.open_fpcs() == [fs(-1, -2), fs(-1, 2), fs(1, -2), fs(1, 2)]


def test_register_on_closed_tree():
    t = FpcTree()
    t.register_variable(1)
    t.eliminate([fs(1)])
    t.eliminate([fs(-1)])
    assert t.frontier == []
    t.register_variable(2)
    assert t.frontier == []
    assert t.insertion_order == [1, 2]
    t.eliminate([fs(2)])  # a closed frontier applies nothing
    assert t.open_fpcs() == []


def test_eliminate_fig2_sequence():
    # F = {{-x1}, {x1, -x2}} leaves exactly the path (x1, x2) open
    t = FpcTree()
    t.register_variable(1)
    t.eliminate([fs(-1)])
    assert t.open_fpcs() == [fs(1)]
    t.register_variable(2)
    assert t.open_fpcs() == [fs(1, -2), fs(1, 2)]
    t.eliminate([fs(1, -2)])
    assert t.open_fpcs() == [fs(1, 2)]


def test_eliminate_empty_clause_closes_tree():
    t = FpcTree()
    t.register_variable(1)
    t.register_variable(2)
    t.eliminate([frozenset()])
    assert t.open_fpcs() == []
    assert t.frontier == []
    assert t.eliminations == 4


def test_eliminate_unregistered_variable():
    # eliminate registers a variable that its first clause brings
    t = FpcTree()
    t.register_variable(1)
    t.eliminate([fs(2)])
    assert t.insertion_order == [1, 2]
    assert t.frontier == [0b00, 0b10]


def by_hand(run, node_budget=NODE_BUDGET):
    """A frontier that applies ``run`` through explicit calls: one
    ``eliminate`` call per run of clauses over registered variables, and the
    new variables of the clause after a run registered, in ascending order,
    between two calls."""
    t = FpcTree(node_budget=node_budget)
    first = 0
    for i, c in enumerate(run):
        if not t.literals.issuperset(c):
            t.eliminate(run[first:i])
            if not t.frontier:
                return t
            for var in sorted({abs(lit) for lit in c} - set(t.insertion_order)):
                t.register_variable(var)
            first = i
    t.eliminate(run[first:])
    return t


def full_state(t):
    return (t.frontier, t.insertion_order, t.work, t.applied, t.eliminations, t.peak_nodes)


@settings(max_examples=300, deadline=None)
@given(st.lists(non_tautologies(6, 4), max_size=14))
def test_eliminate_registers_as_explicit_calls_do(run):
    t = FpcTree()
    t.eliminate(run)
    assert full_state(t) == full_state(by_hand(run))


def test_eliminate_registers_between_passes():
    # Fig. 2's formula in one call: x1 registers (1 entry scanned), {-1}
    # takes a pass (2), x2 registers (1), {1, -2} takes a pass (2)
    t = FpcTree()
    t.eliminate([fs(-1), fs(1, -2)])
    assert t.open_fpcs() == [fs(1, 2)]
    assert full_state(t) == full_state(by_hand([fs(-1), fs(1, -2)]))
    assert (t.work, t.applied, t.eliminations) == (1 + 2 + 1 + 2, 2, 2)


def test_node_budget_trips_at_a_registration_inside_eliminate():
    # {1, 2} registers x1, x2 (4 entries) and its pass drops 0b11 when {3}
    # arrives; x3 would double 3 entries past 4
    run = [fs(1, 2), fs(3), fs(-1)]
    t = FpcTree(node_budget=4)
    with pytest.raises(BudgetExceeded) as exc:
        t.eliminate(run)
    assert exc.value.kind == "nodes"
    assert full_state(t) == ([0b00, 0b01, 0b10], [1, 2], 1 + 2 + 4, 1, 1, 4)
    with pytest.raises(BudgetExceeded):
        by_hand(run, node_budget=4)


def test_eliminate_both_polarities_closes():
    t = FpcTree()
    t.register_variable(1)
    assert t.open_fpcs() == [fs(-1), fs(1)]
    t.eliminate([fs(1)])
    assert t.frontier == [0b0]
    t.eliminate([fs(-1)])
    assert t.frontier == []


def test_budget_exceeded_leaves_tree_unchanged():
    t = FpcTree(node_budget=2)
    t.register_variable(1)
    before = state(t)
    with pytest.raises(BudgetExceeded) as exc:
        t.register_variable(2)
    assert exc.value.kind == "nodes"
    assert state(t) == before
    assert 2 not in t.literals


def test_budget_checked_before_doubling():
    # the cap is on frontier entries: 2 entries fit a budget of 2, 4 do not
    t = FpcTree(node_budget=4)
    t.register_variable(1)
    t.eliminate([fs(-1)])
    t.register_variable(2)
    t.register_variable(3)
    assert len(t.frontier) == 4
    with pytest.raises(BudgetExceeded) as exc:
        t.register_variable(4)
    assert exc.value.kind == "nodes"


def test_peak_nodes_tracks_frontier_size():
    t = FpcTree()
    for var in (1, 2, 3):
        t.register_variable(var)
    assert len(t.frontier) == t.peak_nodes == 8
    t.eliminate([fs(-1)])
    assert len(t.frontier) == 4
    assert t.eliminations == 4
    assert t.peak_nodes == 8
    t.eliminate([fs(1, 2, 3)])
    assert t.open_fpcs() == [fs(1, -2, -3), fs(1, -2, 3), fs(1, 2, -3)]
    assert t.eliminations == 5
    assert len(t.frontier) == len(t.open_fpcs())


def test_eliminate_is_idempotent():
    t = FpcTree()
    for var in (1, 2, 3):
        t.register_variable(var)
    t.eliminate([fs(1, -2)])
    snapshot = t.open_fpcs()
    eliminated = t.eliminations
    t.eliminate([fs(1, -2)])
    assert t.open_fpcs() == snapshot
    assert t.eliminations == eliminated


@settings(max_examples=200, deadline=None)
@given(
    st.lists(non_tautologies(5, 4), max_size=6),
    st.randoms(use_true_random=False),
)
def test_elimination_order_independent(clause_list, rng):
    def build(order):
        t = FpcTree()
        for var in range(1, 6):
            t.register_variable(var)
        for c in order:
            t.eliminate([c])
        return t.open_fpcs()

    shuffled = clause_list[:]
    rng.shuffle(shuffled)
    assert build(clause_list) == build(shuffled + clause_list)


def built(order, prefix):
    """A frontier over ``order``, with each clause of ``prefix`` applied on
    its own as soon as its variables have registered."""
    t = FpcTree()
    for var, cs in zip(order, prefix):
        t.register_variable(var)
        for c in cs:
            if t.literals.issuperset(c):
                t.eliminate([c])
    return t


@st.composite
def frontiers_and_runs(draw):
    """A registration order, clauses applied one at a time between its
    registrations, and a run of clauses over the registered variables
    (closing clauses among them).  In some runs, unit
    clauses cut the frontier down to one drawn survivor mid-run; the last
    item is the number of clauses that leaves the survivor alone, or None."""
    order = draw(st.permutations(range(1, draw(st.integers(1, 6)) + 1)))
    prefix = [draw(st.lists(non_tautologies(var, 3).filter(bool), max_size=3)) for var in order]
    run = draw(st.lists(non_tautologies(len(order), 4), max_size=12))
    fpcs = built(order, prefix).open_fpcs()
    if not fpcs or not draw(st.booleans()):
        return order, prefix, run, None
    survivor = draw(st.sampled_from(fpcs))
    # each unit clause drops the FPCs that differ from the survivor on its variable
    cut = draw(st.permutations([frozenset([-lit]) for lit in survivor]))
    at = draw(st.integers(0, len(run)))
    before = [c for c in run[:at] if not c <= survivor]
    after = draw(st.lists(non_tautologies(len(order), 4), min_size=1, max_size=6))
    return order, prefix, before + cut + after, len(before) + len(cut)


@settings(max_examples=300, deadline=None)
@given(frontiers_and_runs())
def test_eliminate_run_matches_clause_by_clause(case):
    order, prefix, run, alone = case
    batched, single = built(order, prefix), built(order, prefix)
    batched.eliminate(run)
    for i, c in enumerate(run):
        if i == alone:
            # the drawn run does leave one entry before its last clauses
            assert len(single.frontier) == 1
        single.eliminate([c])
    assert batched.frontier == single.frontier
    assert batched.eliminations == single.eliminations
    assert batched.applied == single.applied
    assert batched.work <= single.work


def test_eliminate_run_stops_at_the_closing_clause():
    t = FpcTree()
    for var in (1, 2):
        t.register_variable(var)
    # {-1} and {1} share one pass (2 patterns over x1, 4 entries); {1} closes
    t.eliminate([fs(-1), fs(1), fs(2), fs(-2)])
    assert t.frontier == []
    assert (t.applied, t.eliminations, t.work) == (2, 4, 1 + 2 + 4)
    t.eliminate([fs(2)])  # a closed frontier applies nothing
    assert t.applied == 2


@pytest.mark.parametrize(
    "run, applied",
    [
        # {1} closes the frontier, and {-2} shares its pass after it
        ([fs(-1), fs(1), fs(-2), fs(3)], 2),
        # {1, 2} and {1} both forbid x1 = x2 = 1, the last entries to go:
        # the earlier clause, {1, 2}, closes the frontier
        ([fs(-1), fs(1, -2), fs(1, 2), fs(1), fs(3)], 3),
    ],
    ids=["closing-clause-mid-pass", "shared-pattern"],
)
def test_closing_pass_ends_at_its_closing_clause(run, applied):
    t = FpcTree()
    for var in (1, 2, 3):
        t.register_variable(var)
    # the clauses before {3} (or all of them) fill one pass over the 8
    # entries, which closes the frontier
    t.eliminate(run)
    assert (t.frontier, t.eliminations, t.applied, t.work) == ([], 8, applied, 1 + 2 + 4 + 8)


def test_closing_pass_ends_at_the_last_entry_it_drops():
    t = FpcTree()
    for var in (1, 2, 3):
        t.register_variable(var)
    t.eliminate([fs(-1)])  # leaves the 4 entries with x1 positive
    # {-1, 2} shares the pass that {1, 2} closes, but forbids only entries
    # that are gone already
    t.eliminate([fs(1, -2), fs(1, 2), fs(-1, 2)])
    assert (t.frontier, t.eliminations, t.applied, t.work) == ([], 8, 3, 1 + 2 + 4 + 8 + 4)


def test_work_limit_trips_between_passes_of_a_run():
    # {1, -2} and {2} forbid 3 patterns over x1, x2 against 2 entries: two
    # passes, and the second crosses the limit
    t = FpcTree(work_limit=9)
    t.register_variable(1)
    t.register_variable(2)
    t.eliminate([fs(-1)])
    with pytest.raises(BudgetExceeded):
        t.eliminate([fs(1, -2), fs(2)])
    assert (t.frontier, t.applied, t.work) == ([0b11], 2, 9)


def one_entry():
    """A frontier over x1, x2 cut to the one entry 0b11, the FPC {1, 2}:
    1 + 2 entries scanned registering, 4 in the pass of {-1} and {-2}."""
    t = FpcTree()
    t.register_variable(1)
    t.register_variable(2)
    t.eliminate([fs(-1), fs(-2)])
    assert (t.frontier, t.applied, t.work, t.eliminations) == ([0b11], 2, 7, 3)
    return t


def test_one_entry_left_mid_run_takes_one_clause_passes():
    t = FpcTree()
    t.register_variable(1)
    t.register_variable(2)
    # {-1} and {-2} fill one pass (4 patterns over x1, x2, 4 entries), which
    # leaves one entry; each clause after it takes a pass of its own
    t.eliminate([fs(-1), fs(-2), fs(-1, 2), fs(1, -2), fs(1, 2), fs(-2)])
    assert (t.frontier, t.applied, t.work, t.eliminations) == ([], 5, 1 + 2 + 4 + 3, 4)


def test_one_entry_work_limit_trips_at_the_clause():
    # as one-clause passes would: 8 and 9 fit the limit, the third clause does not
    t = one_entry()
    t.work_limit = 9
    with pytest.raises(BudgetExceeded) as exc:
        t.eliminate([fs(-1), fs(-1, 2), fs(1, -2), fs(1, 2)])
    assert exc.value.kind == "work"
    assert (t.frontier, t.applied, t.work, t.eliminations) == ([0b11], 4, 9, 3)
    with pytest.raises(BudgetExceeded):
        t.eliminate([fs(1, 2)])
    assert (t.frontier, t.applied, t.work) == ([0b11], 4, 9)


@pytest.mark.parametrize(
    "limit, applied, work", [(None, 7, 12), (7, 2, 7), (9, 4, 9), (11, 6, 11), (12, 7, 12)]
)
def test_charge_books_one_clause_passes_that_drop_nothing(limit, applied, work):
    # none of these is a subset of the one surviving FPC, {1, 2}; a work
    # limit below 12 trips at the clause that would cross it
    run = [fs(-1), fs(-2), fs(-1, 2), fs(1, -2), fs(-1, -2)]
    charged, passed = one_entry(), one_entry()
    for t, apply in ((charged, lambda: charged.charge(len(run))), (passed, lambda: passed.eliminate(run))):
        t.work_limit = math.inf if limit is None else limit
        with pytest.raises(BudgetExceeded, match="work") if work < 12 else nullcontext():
            apply()
        assert (t.frontier, t.applied, t.work, t.eliminations) == ([0b11], applied, work, 3)


def test_check_sat_calls_eliminate_once_per_solve(monkeypatch):
    # the frontier registers its own variables, so one call takes every
    # clause the solve hands over; only the empty clause decides without it
    formulas = [
        *corpus(seed=12, count=150, n_max=9, m_factor=3),
        *(pigeonhole(k) for k in range(2, 6)),
        *(complete_minus_one(n) for n in range(1, 6)),
    ]
    eliminate, calls = FpcTree.eliminate, []
    monkeypatch.setattr(FpcTree, "eliminate", lambda t, cs: calls.append(1) or eliminate(t, cs))
    for f in formulas:
        reaches = not normalize(f).has_empty_clause
        for cfg in (SolveConfig(), SolveConfig(order="lex"), SolveConfig(node_budget=8),
                    SolveConfig(work_budget=40)):
            calls.clear()
            result = check_sat(f, cfg)
            assert len(calls) == reaches, (result.verdict, result.stats)


def test_one_entry_empty_clause():
    t = one_entry()
    # the empty clause is a subset of every FPC
    t.eliminate([frozenset(), fs(1)])
    assert (t.frontier, t.applied, t.work, t.eliminations) == ([], 3, 8, 4)
    t.eliminate([fs(1, 2)])  # a closed frontier applies nothing
    assert (t.applied, t.work) == (3, 8)
    # before any variable registers, the one entry spells the empty FPC
    t = FpcTree()
    t.eliminate([frozenset()])
    assert (t.frontier, t.applied, t.work, t.eliminations) == ([], 1, 1, 1)


def test_open_fpcs_matches_condition_check_n12():
    for f in corpus(seed=8, count=20, n_max=12, m_factor=3):
        t = FpcTree()
        for var in sorted(variables_of(f)):
            t.register_variable(var)
        for c in effective_clauses(f):
            t.eliminate([c])
        assert set(t.open_fpcs()) == set(condition_check(f))


def test_open_fpcs_matches_condition_check():
    # the surviving paths are exactly the FPCs no formula clause is a subset of
    for f in corpus(seed=7, count=150, n_max=9, m_factor=3):
        variables = sorted(variables_of(f))
        t = FpcTree()
        for var in variables:
            t.register_variable(var)
        for c in effective_clauses(f):
            t.eliminate([c])
        survivors = set(t.open_fpcs())
        expected = set(condition_check(f))
        assert survivors == expected
        assert (not t.frontier) == (not expected)


def test_work_limit_aborts():
    # work counts the entries each pass scans: 1 + 2 registering, then 4
    t = FpcTree(work_limit=4)
    t.register_variable(1)
    t.register_variable(2)
    assert t.work == 3
    before = state(t)
    with pytest.raises(BudgetExceeded) as exc:
        t.register_variable(3)
    assert exc.value.kind == "work"
    assert state(t) == before
    assert 3 not in t.literals
    with pytest.raises(BudgetExceeded) as exc:
        t.eliminate([fs(1)])
    assert exc.value.kind == "work"
    assert state(t) == before


def test_open_fpcs_order_is_depth_first_negative_first():
    # the order of the old pointer tree's walk: first registered variable
    # outermost, negative branch before positive
    rng = random.Random(5)
    for _ in range(50):
        order = rng.sample(range(1, 8), rng.randint(0, 6))
        t = FpcTree()
        for var in order:
            t.register_variable(var)
        for _ in range(rng.randint(0, 4)):
            lits = rng.sample(order, rng.randint(1, len(order))) if order else []
            t.eliminate([frozenset(v if rng.random() < 0.5 else -v for v in lits)])

        def dfs_key(fpc):
            return [1 if v in fpc else 0 for v in order]

        fpcs = t.open_fpcs()
        assert fpcs == sorted(fpcs, key=dfs_key)
        # SolveResult reads the models off the same entries
        models = SolveResult(SAT, t.insertion_order, t.frontier).models
        assert models == [{abs(l): l < 0 for l in fpc} for fpc in fpcs]


@given(st.lists(st.integers(1, 40), unique=True, max_size=12).flatmap(
    lambda order: st.tuples(
        st.just(order),
        st.lists(st.integers(0, (1 << len(order)) - 1), max_size=20),
    )
))
def test_pack_inverts_decode_fpcs(case):
    order, entries = case
    fpcs = decode_fpcs(order, entries)
    assert pack(order, fpcs) == entries
    # bit k-1-i of an entry is set when its FPC holds order[i] positively
    k = len(order)
    for m, fpc in zip(entries, fpcs):
        assert all((m >> (k - 1 - i) & 1) == (v in fpc) for i, v in enumerate(order))
