import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    closing_in_each_class,
    corpus,
    dpll_satisfiable,
    eliminate_hook,
    reference_check_sat,
    unit_pinned,
)
from fpcsat import solver
from fpcsat.core import Formula, evaluate_formula, is_tautology, variables_of
from fpcsat.instances import complete_minus_one, pigeonhole, random_3sat
from fpcsat.oracle import brute_force_sat, condition_check, enumerate_fpcs
from fpcsat.solver import (
    RESOURCE_EXCEEDED,
    SAT,
    UNSAT,
    SolveConfig,
    check_sat,
    model_from_fpc,
)
from fpcsat.tree import BudgetExceeded, FpcTree
from test_solve_digest import CONFIGS


def fs(*lits):
    return frozenset(lits)


ILLUSTRATION = Formula.from_clauses([[-1, -2], [3], [-1], [1, -2, -3]])


def extend(model, variables, default=False):
    out = dict(model)
    for v in variables:
        out.setdefault(v, default)
    return out


def test_illustration():
    result = check_sat(ILLUSTRATION, SolveConfig(report_all_models=True))
    assert result.verdict == SAT
    assert result.absent_fpcs == [fs(-3, 1, 2)]
    assert result.models == [{1: False, 2: False, 3: True}]


def test_empty_clause_is_unsat():
    assert check_sat(Formula.from_clauses([[]])).verdict == UNSAT
    assert check_sat(Formula.from_clauses([[], [1]])).verdict == UNSAT


def test_all_fpcs_over_two_vars_unsat():
    f = Formula.from_clauses(enumerate_fpcs(fs(1, 2)))
    assert not brute_force_sat(f, collect_models=False).satisfiable
    assert check_sat(f).verdict == UNSAT


def test_empty_formula_sat_with_empty_assignment():
    result = check_sat(Formula.from_clauses([]))
    assert result.verdict == SAT
    assert result.models == [{}]
    assert result.absent_fpcs == [frozenset()]


def test_tautology_only_formula():
    result = check_sat(Formula.from_clauses([[1, -1]]))
    assert result.verdict == SAT
    assert result.models == [{}]
    assert result.stats.tautologies_skipped == 1


def test_model_from_fpc():
    assert model_from_fpc(fs(1, 2)) == {1: False, 2: False}
    assert model_from_fpc(fs(-3, 1, 2)) == {1: False, 2: False, 3: True}
    assert model_from_fpc(frozenset()) == {}


def test_sat_iff_absent_fpcs():
    for f in corpus(seed=37, count=300, n_max=10):
        result = check_sat(f)
        assert (result.verdict == SAT) == bool(result.absent_fpcs)
        if result.verdict == UNSAT:
            assert not result.models


def test_models_satisfy_formula():
    sat_seen = 0
    for f in corpus(seed=41, count=400, n_max=12):
        result = check_sat(f)
        if result.verdict == SAT:
            sat_seen += 1
            model = extend(result.models[0], variables_of(f))
            assert evaluate_formula(f, model)
    assert sat_seen > 100


def test_verdict_matches_oracle():
    for f in corpus(seed=43, count=500, n_max=12):
        assert (check_sat(f).verdict == SAT) == brute_force_sat(
            f, collect_models=False
        ).satisfiable


def test_all_models_cover_every_satisfying_assignment():
    # restricted to tautology-free formulas so solver and oracle range over
    # the same variables
    for f in corpus(seed=47, count=250, n_max=10, tautology_prob=0.0):
        result = check_sat(f, SolveConfig(report_all_models=True))
        oracle = brute_force_sat(f)
        got = {frozenset(m.items()) for m in result.models}
        expected = {frozenset(m.items()) for m in oracle.models}
        assert got == expected
        assert set(result.absent_fpcs) == set(oracle.falsified_fpc_per_model)
        assert set(result.absent_fpcs) == set(condition_check(f))


def test_tautologies_never_affect_verdict():
    # c6 checks the default order; this runs every order
    rng = random.Random(53)
    configs = [SolveConfig(order=order, report_all_models=True) for order in solver.ORDERS]
    for f in corpus(seed=53, count=200, n_max=8):
        var = rng.randint(1, 10)
        extra = [var, -var, rng.choice([1, -1]) * rng.randint(1, 10)]
        noisy = Formula.from_clauses(
            [list(c) for c in f.clauses] + [extra]
        )
        for cfg in configs:
            base, with_taut = check_sat(f, cfg), check_sat(noisy, cfg)
            assert with_taut.verdict == base.verdict
            assert with_taut.absent_fpcs == base.absent_fpcs


def test_the_frontier_takes_no_tautology_and_registers_each_variable_once():
    # effective_clauses is the one place a solve drops tautologies; neither
    # FpcTree.eliminate nor register_variable checks its input
    formulas = list(corpus(seed=26, count=120, n_max=10, m_factor=4,
                           tautology_prob=0.2, duplicate_prob=0.2))
    assert sum(map(is_tautology, (c for f in formulas for c in f.clauses))) > 100
    taken = []

    def take(tree, c):
        assert not is_tautology(c), c
        taken.append(c)

    with eliminate_hook(take):
        for f in formulas:
            for cfg in CONFIGS:
                result = check_sat(f, cfg)
                if result.verdict == SAT:
                    assert len(set(result.order)) == len(result.order)
    assert taken


def test_config_toggles_never_change_verdict():
    configs = [SolveConfig(order=order) for order in solver.ORDERS]
    for f in corpus(seed=59, count=150, n_max=9):
        verdicts = {check_sat(f, cfg).verdict for cfg in configs}
        assert len(verdicts) == 1


def test_node_budget_trips():
    f = Formula.from_clauses([[1, 2, 3]])
    result = check_sat(f, SolveConfig(node_budget=2))
    assert result.verdict == RESOURCE_EXCEEDED
    assert result.stats.exceeded == "nodes"
    assert not result.models
    # a budget below one entry is rejected before any solve, even one the
    # empty clause would end at once
    with pytest.raises(ValueError, match="node_budget must be >= 1"):
        check_sat(Formula.from_clauses([[]]), SolveConfig(node_budget=0))


def test_work_budget_trips():
    f = Formula.from_clauses([[v, v + 1] for v in range(1, 10)])
    result = check_sat(f, SolveConfig(work_budget=10))
    assert result.verdict == RESOURCE_EXCEEDED
    assert result.stats.exceeded == "work"


# one small corpus formula per seed, with tautologies, duplicate clauses and
# now and then the empty clause; small enough that both budgets below trip
seeded_formulas = st.integers(0, 2**32).map(
    lambda seed: next(corpus(seed, count=1, n_max=6, tautology_prob=0.1,
                             empty_clause_prob=0.02, duplicate_prob=0.1))
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    seeded_formulas,
    st.integers(1, 64),
    st.one_of(st.none(), st.integers(0, 300)),
)
def test_every_budget_fails_closed(f, node_budget, work_budget):
    # a budget either leaves the answer alone or gives up with no answer
    full = check_sat(f, SolveConfig(report_all_models=True))
    capped = check_sat(
        f, SolveConfig(node_budget=node_budget, work_budget=work_budget, report_all_models=True)
    )
    if capped.verdict == RESOURCE_EXCEEDED:
        assert capped.stats.exceeded in ("nodes", "work")
        assert capped.entries == []
    else:
        assert capped.stats.exceeded is None
        assert (capped.verdict, capped.entries) == (full.verdict, full.entries)


def test_stats_reporting():
    f = Formula.from_clauses([[1], [1], [2, -2], []])
    result = check_sat(f)
    assert result.verdict == UNSAT  # empty clause
    assert result.stats.duplicates_removed == 1
    # the empty clause decides before any clause reaches the frontier
    s = result.stats
    assert (s.peak_nodes, s.clauses_processed, s.work) == (0, 0, 0)

    f = Formula.from_clauses([[1], [2, -2]])
    result = check_sat(f)
    assert result.stats.tautologies_skipped == 1
    assert result.stats.clauses_processed == 1
    # peak frontier size: registering x1 doubles [()] to [(-1), (1)]
    assert result.stats.peak_nodes == 2
    assert result.stats.eliminations == 1
    assert result.stats.work == 3


def test_deterministic_result():
    f = Formula.from_clauses([[1, -2], [-1, 3], [2, 3], [-3]])
    a = check_sat(f, SolveConfig(report_all_models=True))
    b = check_sat(f, SolveConfig(report_all_models=True))
    assert a.verdict == b.verdict
    assert a.models == b.models
    assert a.absent_fpcs == b.absent_fpcs
    assert a.stats.peak_nodes == b.stats.peak_nodes
    assert a.stats.eliminations == b.stats.eliminations
    assert a.stats.work == b.stats.work


def test_first_model_is_leftmost_dfs():
    # with all models off, the reported FPC is the first in DFS order
    for clauses, count in (([[1]], 1), ([[1], [2, 3]], 3)):
        f = Formula.from_clauses(clauses)
        result = check_sat(f)
        all_models = check_sat(f, SolveConfig(report_all_models=True))
        assert len(all_models.models) == count
        assert result.absent_fpcs == all_models.absent_fpcs[:1]


@pytest.mark.parametrize(
    "cfg",
    [
        SolveConfig(),
        SolveConfig(order="lex"),
        SolveConfig(node_budget=64),
        SolveConfig(node_budget=8),
        SolveConfig(work_budget=50),
        # trip inside the tail that check_sat charges without handing it to
        # eliminate: 300 on complete_minus_one(6..8), 3000 on (8)
        SolveConfig(work_budget=300),
        SolveConfig(work_budget=3000),
    ],
    ids=["sorted", "unsorted", "budget64", "budget8", "work50", "work300", "work3000"],
)
def test_runs_between_registrations_match_one_pass_per_clause(cfg, monkeypatch):
    cfg = cfg._replace(report_all_models=True)
    charge, tail_trips = FpcTree.charge, []

    def counted(tree, count):
        try:
            charge(tree, count)
        except BudgetExceeded:
            tail_trips.append(count)
            raise

    monkeypatch.setattr(FpcTree, "charge", counted)
    formulas = [pigeonhole(k) for k in range(2, 6)]
    # a frontier of at most two entries: all but a few clauses meet one entry
    formulas += [complete_minus_one(n) for n in range(1, 9)]
    formulas += [f for n in range(1, 9) for f in closing_in_each_class(n)]
    formulas += unit_pinned(seed=15, count=60)
    formulas += corpus(seed=12, count=150, n_max=10, m_factor=4)
    unbudgeted = cfg._replace(work_budget=None)
    for f in formulas:
        result = check_sat(f, cfg)
        s = result.stats
        verdict, order, entries, peak, eliminations, processed, work = reference_check_sat(f, cfg)
        # without a pass of several clauses, every pass scans what the
        # reference's does; without a work budget, both solves above are unbudgeted
        if cfg.work_budget is None:
            shared = s.work < work
        else:
            shared = check_sat(f, unbudgeted).stats.work < reference_check_sat(f, unbudgeted)[-1]
        if shared and verdict == RESOURCE_EXCEEDED and cfg.work_budget is not None:
            # the work budget trips no earlier than in the reference, if at all
            assert s.clauses_processed >= processed
            continue
        assert (result.verdict, list(result.order), list(result.entries)) == (verdict, order, entries)
        assert (s.peak_nodes, s.eliminations, s.clauses_processed) == (peak, eliminations, processed)
        assert s.work < work if shared else s.work == work
    if cfg.work_budget in (300, 3000):
        assert tail_trips


def test_clauses_past_the_last_needed_class_are_never_ordered(monkeypatch):
    # complete_minus_one(8): its 8 unit clauses register every variable and
    # leave one FPC, which no later clause is a subset of; only the units and
    # the class after them, where that last pass is still pending, are ordered
    # or handed to eliminate, and the rest is charged without either
    f = complete_minus_one(8)
    keyed, taken = [], []
    class_key, key = solver.ORDERS["cardinality"]
    counted = lambda c: keyed.append(c) or key(c)
    monkeypatch.setitem(solver.ORDERS, "cardinality", (class_key, counted))
    with eliminate_hook(lambda tree, c: taken.append(c)):
        result = check_sat(f, SolveConfig(report_all_models=True))
    assert 0 < len(keyed) < len(f.clauses) / 10
    assert 0 < len(taken) < len(f.clauses) / 10
    s = result.stats
    reference = reference_check_sat(f, SolveConfig(report_all_models=True))
    assert (result.verdict, list(result.order), list(result.entries)) == reference[:3]
    assert (s.peak_nodes, s.eliminations, s.clauses_processed, s.work) == reference[3:]
    assert 0 <= s.elapsed_time < 60


# which random_3sat(n, round(4.3 * n), Random(1000 * n + s)), s = 0..3, are UNSAT
UNSAT_3SAT = {(24, 1), (32, 0), (32, 3), (36, 0), (36, 3), (40, 0), (40, 1)}


@pytest.mark.parametrize("n", [24, 28, 32, 36, 40])
def test_random_3sat_verdicts_past_the_oracle_match_dpll(n):
    # unsorted clauses run for seconds or trip the node budget from n = 32
    # on, so they are checked up to 24 only
    configs = [SolveConfig()] + [SolveConfig(order="lex")] * (n <= 24)
    for s in range(4):
        f = random_3sat(n, round(4.3 * n), random.Random(1000 * n + s))
        expected = SAT if dpll_satisfiable(f) else UNSAT
        assert (expected == UNSAT) == ((n, s) in UNSAT_3SAT)
        for cfg in configs:
            result = check_sat(f, cfg)
            assert result.verdict == expected
            if expected == SAT:
                assert evaluate_formula(f, result.models[0])


@pytest.mark.parametrize("k", [5, 6])
def test_pigeonhole_verdicts_past_the_oracle_match_dpll(k):
    f = pigeonhole(k)
    assert not dpll_satisfiable(f)
    assert check_sat(f).verdict == UNSAT
